"""Config file parsing and the four CLI entry points, exercised in-process
(plus one subprocess check of the installed console script)."""

import argparse
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ofdmjscc.autodiff as ad
from ofdmjscc import cli
from ofdmjscc.cli import CHAIN_HEADER, METRICS_HEADER, TRAIN_LOSS_HEADER, build_parser, main
from ofdmjscc.config import (FIELD_TYPES, ExperimentConfig, format_config, load_config,
                             parse_config_text)
from ofdmjscc.data import save_checkpoint
from ofdmjscc.model import VARIANTS, ModelConfig, build_model
from ofdmjscc.ofdm import OfdmConfig
from ofdmjscc.training import TrainConfig

TINY_CFG = """
# minimal geometry for fast end-to-end runs
variant = explicit
image_h = 8
image_w = 8
image_c = 1
width1 = 4
width2 = 6
subnet_hidden = 4
l_fft = 8
l_cp = 4
n_p = 2
n_s = 2
n_taps = 3
train_images = 6
test_images = 2
epochs = 1
batch_size = 3
lr_decay_start = 0
realizations = 2
seed = 11
"""


@pytest.fixture
def tiny_cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return p


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_types_and_comments():
    got = parse_config_text("epochs = 3   # comment\n\nsnr_db=7\nclip_ratio=inf\n"
                            "variant=direct\nsnr_db_min=none\n")
    assert got == {"epochs": 3, "snr_db": 7.0, "clip_ratio": math.inf,
                   "variant": "direct", "snr_db_min": None}
    assert isinstance(got["epochs"], int)


def test_parse_unknown_key_names_the_line():
    with pytest.raises(ValueError, match=r"my\.cfg:3.*learning_rate"):
        parse_config_text("epochs=1\n\nlearning_rate=2\n", source="my.cfg")


def test_parse_bad_value_and_shape():
    with pytest.raises(ValueError, match="epochs"):
        parse_config_text("epochs=three")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("epochs 3")
    with pytest.raises(ValueError, match="nan"):
        parse_config_text("snr_db=nan")


def test_load_config_precedence(tiny_cfg_file):
    cfg = load_config(tiny_cfg_file, {"epochs": 9, "seed": None})
    assert cfg.epochs == 9          # override beats file
    assert cfg.seed == 11           # None override is "not given", file wins
    assert cfg.image_h == 8         # file beats default
    assert cfg.gamma == 4.0         # untouched default
    with pytest.raises(ValueError, match="unknown"):
        load_config(tiny_cfg_file, {"nope": 1})


def test_format_config_round_trips():
    cfg = load_config(None, {"variant": "implicit", "clip_ratio": 1.4})
    text = format_config(cfg)
    assert ExperimentConfig(**parse_config_text(text)) == cfg
    assert "snr_db_min=none" in text


@st.composite
def valid_configs(draw):
    """An ExperimentConfig with every field drawn by its annotated type (floats
    include +-inf, optional floats None), then the fields whose valid range
    depends on another redrawn so model_config() and train_config() accept it."""
    values = {}
    for name, types in FIELD_TYPES.items():
        if float in types:
            kind = st.floats(allow_nan=False)
            values[name] = draw(st.none() | kind if type(None) in types else kind)
        elif int in types:
            values[name] = draw(st.integers(1, 2 ** 40))
        else:
            values[name] = draw(st.sampled_from(VARIANTS))
    values["l_fft"] = draw(st.integers(2, 2 ** 40))
    pair = (values["snr_db_min"], values["snr_db_max"])
    values["snr_db_min"], values["snr_db_max"] = (None, None) if None in pair else sorted(pair)
    values.update(
        image_h=4 * draw(st.integers(1, 64)), image_w=4 * draw(st.integers(1, 64)),
        image_c=draw(st.sampled_from([1, 3])),
        l_cp=draw(st.integers(0, values["l_fft"] - 1)),
        lr_decay_start=draw(st.integers(0, values["epochs"])))
    return ExperimentConfig(**values)


@settings(max_examples=200, deadline=None)
@given(valid_configs())
@example(ExperimentConfig())   # snr_db_min/max none, clip_ratio inf
def test_format_config_round_trips_every_field(cfg):
    cfg.model_config(), cfg.train_config()     # a valid config
    text = format_config(cfg)
    parsed = ExperimentConfig(**parse_config_text(text))
    assert parsed == cfg and format_config(parsed) == text


def test_sub_configs_match_hand_built():
    # model_config()/train_config() take their fields by name; compare them
    # with configs spelled out field by field, at the defaults and at the
    # toy geometry the benchmark and the acceptance suite train
    assert ExperimentConfig().model_config() == ModelConfig()
    assert ExperimentConfig().train_config() == TrainConfig()
    toy = ExperimentConfig(image_h=16, image_w=16, image_c=1, width1=16, width2=32,
                           head_hidden=128, front_hidden=32, l_fft=16, l_cp=12, n_p=2,
                           n_s=4, variant="implicit", subnet_hidden=5, pilot_seed=3,
                           epochs=30, batch_size=8, lr=2e-3, lr_decay_start=15,
                           snr_db=7.0, snr_db_min=1.0, snr_db_max=9.0, clip_ratio=1.4,
                           n_taps=5, gamma=2.0, seed=4)
    assert toy.model_config() == ModelConfig(
        variant="implicit", image_h=16, image_w=16, image_c=1, width1=16, width2=32,
        subnet_hidden=5, head_hidden=128, front_hidden=32,
        ofdm=OfdmConfig(l_fft=16, l_cp=12, n_p=2, n_s=4, pilot_seed=3))
    assert toy.train_config() == TrainConfig(
        epochs=30, batch_size=8, lr=2e-3, lr_decay_start=15, snr_db=7.0, snr_db_min=1.0,
        snr_db_max=9.0, clip_ratio=1.4, n_taps=5, gamma=2.0, seed=4)


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def _train(tmp_path, tiny_cfg_file, sub="r1"):
    out = tmp_path / sub
    rc = main(["train", "--config", str(tiny_cfg_file), "--out", str(out)])
    assert rc == 0
    return out


def test_cli_train_writes_artifacts(tmp_path, tiny_cfg_file):
    out = _train(tmp_path, tiny_cfg_file)
    assert (out / "checkpoint.jscc").exists()
    loss_lines = (out / "train_loss.csv").read_text().splitlines()
    assert loss_lines[0] == ",".join(TRAIN_LOSS_HEADER)
    assert len(loss_lines) == 2  # one epoch
    assert "seed=11" in (out / "config.txt").read_text()


def test_cli_train_twice_bitwise_identical(tmp_path, tiny_cfg_file):
    a = _train(tmp_path, tiny_cfg_file, "a")
    b = _train(tmp_path, tiny_cfg_file, "b")
    assert (a / "checkpoint.jscc").read_bytes() == (b / "checkpoint.jscc").read_bytes()
    assert (a / "train_loss.csv").read_bytes() == (b / "train_loss.csv").read_bytes()


def test_cli_eval_worker_invariant_csv(tmp_path, tiny_cfg_file):
    run = _train(tmp_path, tiny_cfg_file)
    for workers, sub in ((1, "e1"), (3, "e3")):
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.jscc"),
                   "--out", str(tmp_path / sub), "--snr-db", "0,10",
                   "--clip-ratio", "inf,1.4", "--workers", str(workers)])
        assert rc == 0
    a = (tmp_path / "e1" / "metrics.csv").read_bytes()
    b = (tmp_path / "e3" / "metrics.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    assert len(lines) == 1 + 4  # one row per (snr, clip) combination


def test_cli_eval_direct_reports_effective_clip_ratio(tmp_path, capsys):
    # the direct variant never clips, so its rows must not carry a requested ratio
    cfg = tmp_path / "direct.cfg"
    cfg.write_text(TINY_CFG.replace("variant = explicit", "variant = direct"))
    run = _train(tmp_path, cfg)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.jscc"), "--out",
               str(tmp_path / "ev"), "--snr-db", "0,10", "--clip-ratio", "1.0,1.4"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "note: the direct variant never clips" in err and "1.0,1.4" in err
    lines = (tmp_path / "ev" / "metrics.csv").read_text().splitlines()
    clip_col = METRICS_HEADER.index("clip_ratio")
    assert [line.split(",")[clip_col] for line in lines[1:]] == ["inf", "inf"]


def test_cli_eval_missing_checkpoint_fails(tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "nope.jscc"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _drop(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("edit, section", [
    (lambda arch, tc: (_drop(arch, "ofdm"), tc), "arch"),
    (lambda arch, tc: ({**arch, "image_h": "8"}, tc), "arch"),
    (lambda arch, tc: (arch, _drop(tc, "snr_db")), "train_config"),
    (lambda arch, tc: ({**arch, "width1": "4"}, tc), "arch"),
    (lambda arch, tc: ({**arch, "head_hidden": 8.0}, tc), "arch"),
    (lambda arch, tc: ({**arch, "width2": True}, tc), "arch"),
    (lambda arch, tc: ({**arch, "ofdm": {**arch["ofdm"], "l_fft": 8.0}}, tc), "arch"),
    (lambda arch, tc: (arch, {**tc, "seed": "x"}), "train_config"),
    (lambda arch, tc: (arch, {**tc, "test_images": 2.0}), "train_config"),
    (lambda arch, tc: (arch, {**tc, "realizations": 2.5}), "train_config"),
    (lambda arch, tc: (arch, _drop(tc, "realizations")), "train_config"),
    (lambda arch, tc: ({**arch, "ofdm": {**arch["ofdm"], "pilot_seed": 3}}, tc), "arch"),
    (lambda arch, tc: (arch, {**tc, "image_h": 16}), "arch"),
    (lambda arch, tc: (arch, {**tc, "lr": "x"}), "train_config"),
    (lambda arch, tc: (arch, {**tc, "learning_rate": 1.0}), "train_config"),
    (lambda arch, tc: (arch, {**tc, "epochs": 0}), "train_config"),
], ids=["arch_without_ofdm", "image_h_as_text", "train_config_without_snr_db",
        "width1_as_text", "head_hidden_as_float", "width2_as_bool", "l_fft_as_float",
        "seed_as_text", "test_images_as_float", "realizations_as_float",
        "train_config_without_realizations", "arch_pilot_seed_differs",
        "train_config_image_h_differs", "lr_as_text", "train_config_unknown_key",
        "epochs_zero"])
def test_cli_eval_malformed_checkpoint_metadata(tmp_path, capsys, edit, section):
    # a hand-edited arch or train_config is a corrupt checkpoint, not a stray exception;
    # eval reads the whole train_config as a config and arch must be its model config
    cfg = load_config(None, parse_config_text(TINY_CFG))
    model = build_model(cfg.model_config(), seed=cfg.seed)
    arch, tc = edit(model.cfg.to_dict(), cfg.to_dict())
    path = tmp_path / "bad.jscc"
    save_checkpoint(path, arch=arch, params=[(n, p.value) for n, p in model.params()],
                    train_config=tc, buffers=model.buffers())
    rc = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert f"error: metadata {section} " in capsys.readouterr().err


def test_cli_eval_zero_realizations_rejected(tmp_path, tiny_cfg_file, capsys):
    # 0 is a value, not "use the checkpoint default": evaluate must see and reject it
    run = _train(tmp_path, tiny_cfg_file)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.jscc"),
               "--out", str(tmp_path / "ev"), "--realizations", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.csv").exists()


@pytest.mark.parametrize("value", [",", "10,,1"])
@pytest.mark.parametrize("flag", ["--snr-db", "--clip-ratio", "--taps"])
def test_cli_eval_empty_sweep_item_rejected(tmp_path, tiny_cfg_file, capsys, flag, value):
    # an empty sweep list or item must not evaluate fewer conditions than asked
    run = _train(tmp_path, tiny_cfg_file)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.jscc"),
               "--out", str(tmp_path / "ev"), flag, value])
    assert rc == 1
    assert f"error: {flag}: empty item" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["train", "chain-demo"])
@pytest.mark.parametrize("flag", ["--snr-db", "--clip-ratio"])
def test_cli_single_value_flags_reject_lists(tmp_path, command, flag):
    # only eval sweeps lists; elsewhere a list must not silently become its first value
    with pytest.raises(SystemExit):
        main([command, "--out", str(tmp_path), flag, "5,10"])
    assert not any(tmp_path.iterdir())


def test_cli_chain_demo_perfect_conditions(tmp_path, tiny_cfg_file):
    out = tmp_path / "demo"
    rc = main(["chain-demo", "--config", str(tiny_cfg_file), "--out", str(out),
               "--snr-db", "inf", "--clip-ratio", "inf"])
    assert rc == 0
    lines = (out / "chain.csv").read_text().splitlines()
    assert lines[0] == ",".join(CHAIN_HEADER)
    rows = dict()
    for line in lines[1:]:
        rec, idx, val = line.split(",")
        rows.setdefault(rec, []).append(float(val))
    # ideal channel estimate/equalization recover the grid to round-off
    assert rows["equalized_mse"][0] < 1e-16
    assert rows["estimation_mse"][0] < 1e-16
    assert abs(rows["power_tx"][0] - 1.0) < 1e-12
    assert len(rows["abs_h"]) == 8  # one row per subcarrier


def test_cli_chain_demo_clipping_bound(tmp_path, tiny_cfg_file):
    out = tmp_path / "demo1"
    rc = main(["chain-demo", "--config", str(tiny_cfg_file), "--out", str(out),
               "--snr-db", "10", "--clip-ratio", "1"])
    assert rc == 0
    rows = {line.split(",")[0]: float(line.split(",")[2])
            for line in (out / "chain.csv").read_text().splitlines()[1:]
            if line.split(",")[0] != "abs_h"}
    assert rows["peak_amplitude"] <= 1.0
    assert rows["papr_tx_db"] < rows["papr_preclip_db"]


def test_cli_gradcheck_exit_codes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient checks passed" in out
    assert "FAIL" not in out
    # corrupt one backward rule: the same command must now fail
    with ad.perturb_vjp("mul", 1.003):
        assert main(["gradcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_shared_flags_are_config_fields():
    # train and chain-demo take their flags from one parent parser, and cli._config
    # passes on only the flags named after a config field, so a misnamed flag
    # would otherwise be dropped without a word
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    train, demo = ({a.dest for a in sub.choices[name]._actions} - {"help"}
                   for name in ("train", "chain-demo"))
    assert train == demo and {"config", "out"} < train
    assert train - {"config", "out"} <= FIELD_TYPES.keys()
    args = parser.parse_args(["chain-demo", "--out", "x", "--seed", "5",
                              "--snr-db", "3", "--clip-ratio", "1.5"])
    cfg = cli._config(args)
    assert (cfg.seed, cfg.snr_db, cfg.clip_ratio) == (5, 3.0, 1.5)


def test_cli_rejects_unknown_arguments():
    with pytest.raises(SystemExit):
        main(["train", "--out", "/tmp/x", "--frobnicate"])
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required


def _readme_commands() -> list[str]:
    """Every ``ofdmjscc ...`` line of the README's "Command line" code block,
    with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.strip() for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("ofdmjscc ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert [shlex.split(c)[1] for c in commands] == ["train", "eval", "chain-demo",
                                                     "gradcheck"]
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])   # SystemExit if stale


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "ofdmjscc.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
