"""Config file parsing and the four CLI entry points, exercised in-process
(plus one subprocess check of the installed console script)."""

import argparse
import math
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
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

from conftest import rewrite_meta, valid_configs

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


def test_parse_repeated_key_names_both_lines():
    # a stale earlier line must not be overridden without a word
    with pytest.raises(ValueError, match=r"my\.cfg:3: 'epochs' repeats line 1"):
        parse_config_text("epochs=1\nlr=0.1\nepochs = 2\n", source="my.cfg")


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


@settings(max_examples=200, deadline=None)
@given(valid_configs())
@example(ExperimentConfig())   # snr_db_min/max none, clip_ratio inf
def test_format_config_round_trips_every_field(cfg):
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


@pytest.mark.parametrize("field, value", [
    ("train_images", 0), ("train_images", -2), ("test_images", 0), ("realizations", 0),
    ("epochs", 1.5), ("train_images", "3"), ("variant", 1), ("lr", 0.0), ("width1", 0),
    ("l_fft", 1), ("seed", -1), ("dataset_seed", -1), ("pilot_seed", -1), ("n_taps", 0),
    ("gamma", -1.0), ("gamma", 0.0), ("clip_ratio", 0.0), ("clip_ratio", -1.0),
    ("snr_db", math.nan), ("snr_db", -math.inf), ("n_taps", 9)])
def test_experiment_config_is_checked_when_built(field, value):
    # every field's type and range, the sub-configs' included, and n_taps against
    # the frame (l_fft = 8 here): a built config needs no further check
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ExperimentConfig(**{"l_fft": 8, "l_cp": 4, field: value})


def test_load_config_rejects_zero_train_images(tmp_path):
    path = tmp_path / "zero.cfg"
    path.write_text(TINY_CFG.replace("train_images = 6", "train_images = 0"))
    with pytest.raises(ValueError, match="train_images must be >= 1"):
        load_config(path)


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


def _save(path, model, train_config: dict) -> None:
    params = [(n, p.value) for n, p in model.params()]
    save_checkpoint(path, params=params, buffers=model.buffers(), train_config=train_config,
                    opt_state={"step": 0, "m": [np.zeros_like(v) for _, v in params],
                               "v": [np.zeros_like(v) for _, v in params]},
                    rng_state={})


@pytest.mark.parametrize("edit", [
    lambda tc: {**tc, "image_h": "8"},
    lambda tc: _drop(tc, "snr_db"),
    lambda tc: {**tc, "width1": "4"},
    lambda tc: {**tc, "head_hidden": 8.0},
    lambda tc: {**tc, "width2": True},
    lambda tc: {**tc, "l_fft": 8.0},
    lambda tc: {**tc, "seed": "x"},
    lambda tc: {**tc, "test_images": 2.0},
    lambda tc: {**tc, "realizations": 2.5},
    lambda tc: _drop(tc, "realizations"),
    lambda tc: {**tc, "lr": "x"},
    lambda tc: {**tc, "learning_rate": 1.0},
    lambda tc: {**tc, "epochs": 0},
    lambda tc: {**tc, "train_images": -2},
    lambda tc: {**tc, "test_images": 0},
    lambda tc: {**tc, "realizations": 0},
    lambda tc: {**tc, "seed": -1},
    lambda tc: {**tc, "dataset_seed": -1},
    lambda tc: {**tc, "pilot_seed": -1},
    lambda tc: {**tc, "n_taps": 0},
    lambda tc: {**tc, "gamma": -1.0},
    lambda tc: {**tc, "clip_ratio": 0.0},
    lambda tc: {**tc, "snr_db": math.nan},
    lambda tc: {**tc, "width1": 5},
    lambda tc: {**tc, "n_taps": 9},
], ids=["image_h_as_text", "train_config_without_snr_db", "width1_as_text",
        "head_hidden_as_float", "width2_as_bool", "l_fft_as_float", "seed_as_text",
        "test_images_as_float", "realizations_as_float", "train_config_without_realizations",
        "lr_as_text", "train_config_unknown_key", "epochs_zero", "train_images_negative",
        "test_images_zero", "realizations_zero", "seed_negative", "dataset_seed_negative",
        "pilot_seed_negative", "n_taps_zero", "gamma_negative", "clip_ratio_zero",
        "snr_db_nan", "width1_differs", "n_taps_longer_than_l_fft"])
def test_cli_eval_malformed_checkpoint_metadata(tmp_path, capsys, edit):
    # a hand-edited train_config is a corrupt checkpoint, not a stray exception:
    # eval reads it as a whole config, so every type and range check applies, and
    # the model built from it must fit the stored tensors
    cfg = load_config(None, parse_config_text(TINY_CFG))
    model = build_model(cfg.model_config(), seed=cfg.seed)
    path = tmp_path / "bad.jscc"
    _save(path, model, edit(cfg.to_dict()))
    rc = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert "error: metadata train_config " in capsys.readouterr().err


def test_cli_eval_ignores_arch_of_older_checkpoints(tmp_path, tiny_cfg_file):
    # files written before train_config became the only model description also
    # hold an "arch" copy of the model config; eval ignores it
    run = _train(tmp_path, tiny_cfg_file)
    old = tmp_path / "old.jscc"
    old.write_bytes((run / "checkpoint.jscc").read_bytes())
    arch = asdict(load_config(tiny_cfg_file).model_config())
    rewrite_meta(old, lambda meta: meta.update(arch=arch))
    assert b'"arch": {' in old.read_bytes()
    for ck, sub in ((run / "checkpoint.jscc", "new"), (old, "old")):
        assert main(["eval", "--checkpoint", str(ck), "--out", str(tmp_path / sub),
                     "--snr-db", "0,10", "--clip-ratio", "inf,1.2"]) == 0
    assert ((tmp_path / "new" / "metrics.csv").read_bytes()
            == (tmp_path / "old" / "metrics.csv").read_bytes())


def test_cli_eval_rejects_a_train_config_that_does_not_match_its_digest(
        tmp_path, tiny_cfg_file, capsys):
    # an edit that keeps every tensor shape, such as pilot_seed, would evaluate
    # another transmitter; the stored digest catches it. Files written before
    # the digest existed have none and still evaluate
    run = _train(tmp_path, tiny_cfg_file)
    ck = run / "checkpoint.jscc"
    edited, undigested = tmp_path / "edited.jscc", tmp_path / "undigested.jscc"
    for path in (edited, undigested):
        path.write_bytes(ck.read_bytes())

    def bump_pilot_seed(meta):
        meta["train_config"]["pilot_seed"] += 1

    rewrite_meta(edited, bump_pilot_seed)
    rewrite_meta(undigested, lambda meta: meta.pop("train_config_sha256"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(edited), "--out", str(tmp_path / "e")]) == 1
    assert ("error: metadata train_config does not match its digest"
            in capsys.readouterr().err)
    for path, sub in ((ck, "new"), (undigested, "old")):
        assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / sub)]) == 0
    assert ((tmp_path / "new" / "metrics.csv").read_bytes()
            == (tmp_path / "old" / "metrics.csv").read_bytes())


def test_cli_eval_zero_realizations_rejected(tmp_path, tiny_cfg_file, capsys):
    # 0 is a value, not "use the checkpoint default": evaluate must see and reject it
    run = _train(tmp_path, tiny_cfg_file)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.jscc"),
               "--out", str(tmp_path / "ev"), "--realizations", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.csv").exists()


@pytest.mark.parametrize("old, new, message", [
    ("train_images = 6", "train_images = -2", "train_images must be >= 1"),
    ("test_images = 2", "test_images = 0", "test_images must be >= 1"),
    ("seed = 11", "seed = 11\nlr = -0.001", "lr must be in (0, inf)"),
    ("seed = 11", "seed = 11\nlr = 0", "lr must be in (0, inf)"),
    ("seed = 11", "seed = 11\nlr = inf", "lr must be in (0, inf)"),
    ("seed = 11", "seed = 11\nsnr_db_min = -inf\nsnr_db_max = 0", "need finite snr_db_min"),
    ("seed = 11", "seed = 11\ndataset_seed = -1", "dataset_seed must be >= 0"),
    ("seed = 11", "seed = -1", "seed must be >= 0"),
    ("n_taps = 3", "n_taps = 0", "n_taps must be >= 1"),
    ("seed = 11", "seed = 11\nclip_ratio = 0", "clip_ratio must be > 0"),
], ids=["train_images_negative", "test_images_zero", "lr_negative", "lr_zero", "lr_inf",
        "snr_db_min_minus_inf", "dataset_seed_negative", "seed_negative", "n_taps_zero",
        "clip_ratio_zero"])
def test_cli_train_rejects_out_of_range_settings(tmp_path, capsys, old, new, message):
    # each must stop before training, with an error that names the setting
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG.replace(old, new))
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.jscc").exists()


def test_cli_chain_demo_rejects_what_train_rejects(tmp_path, capsys):
    # chain-demo reads no training field, but its config is checked as a whole; a
    # channel longer than the frame (l_fft = 8) fails before any work, naming both
    for old, new, message in (("seed = 11", "seed = 11\nlr = 0", "lr must be in (0, inf)"),
                              ("n_taps = 3", "n_taps = 9", "n_taps must be <= l_fft=8, got 9")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG.replace(old, new))
        rc = main(["chain-demo", "--config", str(cfg), "--out", str(tmp_path / "demo")])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "demo").exists()


@pytest.mark.parametrize("command", ["train", "eval", "chain-demo"])
def test_cli_minus_inf_snr_rejected(tmp_path, tiny_cfg_file, capsys, command):
    # train and chain-demo build a config from the flag, eval a TrainConfig per sweep
    # point; each rejects it with the config's own message
    source = (["--checkpoint", str(_train(tmp_path, tiny_cfg_file) / "checkpoint.jscc")]
              if command == "eval" else ["--config", str(tiny_cfg_file)])
    capsys.readouterr()
    rc = main([command, *source, "--out", str(tmp_path / "bad"), "--snr-db=-inf"])
    assert rc == 1
    assert "error: snr_db must be > -inf" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--snr-db=-4000", "snr_db must be > -inf, and > -3082.54"),
    ("--clip-ratio=1e-300", "clip_ratio must be > 0, and >= 1.49")], ids=["snr_db", "clip_ratio"])
@pytest.mark.parametrize("command", ["train", "eval", "chain-demo"])
def test_cli_rejects_values_past_the_float_range(tmp_path, tiny_cfg_file, capsys, command,
                                                 flag, message):
    # at -4000 dB the noise variance overflows a float, and 1e-300 squared is not
    # a normal float; each is rejected, naming the field, before any epoch or point
    source = (["--checkpoint", str(_train(tmp_path, tiny_cfg_file) / "checkpoint.jscc")]
              if command == "eval" else ["--config", str(tiny_cfg_file)])
    capsys.readouterr()
    rc = main([command, *source, "--out", str(tmp_path / "bad"), flag])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "epoch" not in err and "snr=" not in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_cli_eval_direct_rejects_a_bad_clip_ratio(tmp_path, capsys, value):
    # the direct variant reports every ratio as inf, but only after each is checked
    cfg = tmp_path / "direct.cfg"
    cfg.write_text(TINY_CFG.replace("variant = explicit", "variant = direct"))
    run = _train(tmp_path, cfg)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.jscc"),
               "--out", str(tmp_path / "ev"), "--clip-ratio", value])
    assert rc == 1
    assert "error: clip_ratio must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.csv").exists()


def test_cli_eval_checks_every_sweep_point_first(tmp_path, tiny_cfg_file, capsys):
    # a bad value late in the sweep stops eval before it evaluates the first point
    run = _train(tmp_path, tiny_cfg_file)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.jscc"), "--out",
               str(tmp_path / "ev"), "--snr-db", "0,10", "--clip-ratio", "inf,0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: clip_ratio must be > 0" in err and "snr=" not in err
    assert not (tmp_path / "ev").exists()


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
