"""Module layout: settings, defaults and the seed split have one home, the package
exports only its documented entry points, the names the benchmark traces exist, and
the committed benchmark summaries share the baseline's fields."""

import ast
import importlib.util
import inspect
import json
from pathlib import Path

import ofdmjscc
from ofdmjscc import config, model, ofdm, training

ROOT = Path(__file__).resolve().parents[1]


def test_config_imports_nothing_else_from_the_package():
    # every other module may import its settings from config, so config imports none of them
    tree = ast.parse(Path(config.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"line {node.lineno}: relative import"
            names = [node.module]
        else:
            names = [a.name for a in node.names]
        assert not [n for n in names if n.split(".")[0] == "ofdmjscc"], f"line {node.lineno}"


def test_settings_are_defined_once_in_config():
    # the DSP, model and training modules use the settings classes config defines
    assert ofdm.OfdmConfig is config.OfdmConfig
    assert model.ModelConfig is config.ModelConfig
    assert model.VARIANTS is config.VARIANTS
    assert training.TrainConfig is config.TrainConfig
    for cls in (config.OfdmConfig, config.ModelConfig, config.TrainConfig):
        assert cls.__module__ == "ofdmjscc.config"
    assert not hasattr(ofdm, "field_types") and not hasattr(ofdm, "check_field_types")


def test_evaluate_defaults_are_the_config_defaults():
    params = inspect.signature(training.evaluate).parameters
    train = {n: params[n].default for n in ("clip_ratio", "n_taps", "gamma", "seed")}
    assert train == {n: getattr(config.TrainConfig(), n) for n in train}
    assert params["realizations"].default == config.ExperimentConfig().realizations


def test_the_seed_split_has_one_home():
    # every module draws its streams through config.rng_stream
    assert model.rng_stream is training.rng_stream is config.rng_stream
    src = Path(config.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "SeedSequence" in p.read_text()] \
        == ["config.py"]


def test_package_exports_the_documented_entry_points():
    # the README's library example; every other name is imported from its module
    assert sorted(ofdmjscc.__all__) == ["ExperimentConfig", "build_model", "evaluate",
                                        "synth_dataset", "train"]
    for name in ofdmjscc.__all__:
        assert callable(getattr(ofdmjscc, name))


def test_benchmark_traced_names_resolve():
    # perfbench/tracer.py times the functions at these paths under ``ofdmjscc``; a
    # path that no longer resolves is reported "not traced" and its metric reads 0
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    paths = {**tracer.SPANS, **tracer.SETUP_SPANS}.values()
    missing = []
    for path in paths:
        owner = ofdmjscc
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(path)
    assert len(paths) >= 20 and missing == []


def _bench_fields(path: Path) -> tuple:
    summary = json.loads(path.read_text())
    return (sorted(summary),
            {wl: sorted(metrics) for wl, metrics in summary["workloads"].items()})


def test_committed_bench_files_have_the_baseline_fields():
    # the performance trajectory is diffable only if every summary has the same fields
    want = _bench_fields(ROOT / "perfbench" / "BENCH_baseline.json")
    files = sorted((ROOT / "bench").glob("BENCH_*.json"))
    assert files
    for path in files:
        assert _bench_fields(path) == want, path.name
