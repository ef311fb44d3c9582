"""Command-line entry points: train, eval, gradcheck, chain-demo.

All artifacts are CSV files (or a binary checkpoint) under ``--out``;
given the same seed and configuration the bytes are identical run to run.
Diagnostics go to stderr; the exit code is 0 only if everything succeeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import cplx, gradcheck
from .channel import apply_channel, freq_response, sample_channel, snr_to_sigma_sq
from .config import FIELD_TYPES, ExperimentConfig, format_config, load_config
from .data import CheckpointError, load_checkpoint, save_checkpoint, synth_dataset
from .model import build_model
from .ofdm import assemble_packet, check_field_types, disassemble_packet, make_pilots, papr_db
from .receiver import equalize_mmse, estimate_channel_mmse
from .training import evaluate, rng_stream, train

TRAIN_LOSS_HEADER = ["epoch", "loss", "lr", "steps"]
METRICS_HEADER = ["snr_db", "clip_ratio", "n_taps", "variant", "psnr_db", "ssim",
                  "papr_p99_db", "n_images", "n_realizations"]
CHAIN_HEADER = ["record", "index", "value"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return "inf" if v == math.inf else repr(v)
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _sweep(text: str | None, kind: type, flag: str, default) -> list:
    """The comma-separated values given to ``flag``, else ``[kind(default)]``.

    An empty list or an empty item raises ``ValueError``.
    """
    if text is None:
        return [kind(default)]
    items = [t.strip() for t in text.split(",")]
    if not all(items):
        raise ValueError(f"{flag}: empty item in {text!r}")
    return [kind(t) for t in items]


def _config(args) -> ExperimentConfig:
    """The ``--config`` file overridden by every flag that names a config field."""
    return load_config(args.config, {k: v for k, v in vars(args).items() if k in FIELD_TYPES})


def _dataset(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Train/test split: one deterministic pool, first train then test images."""
    pool = synth_dataset(cfg.train_images + cfg.test_images, cfg.image_h, cfg.image_w,
                         cfg.image_c, cfg.dataset_seed)
    return pool[:cfg.train_images], pool[cfg.train_images:]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    train_images, _ = _dataset(cfg)
    model = build_model(cfg.model_config(), seed=cfg.seed)
    tcfg = cfg.train_config()
    print(f"training variant={cfg.variant} images={len(train_images)} "
          f"epochs={tcfg.epochs}", file=sys.stderr)
    history = train(model, train_images, tcfg,
                    log=lambda row: print(f"epoch {row['epoch']:4d}  "
                                          f"loss {row['loss']:.6f}", file=sys.stderr))
    _write_csv(out / "train_loss.csv", TRAIN_LOSS_HEADER,
               [[r["epoch"], r["loss"], r["lr"], r["steps"]] for r in history])
    (out / "config.txt").write_text(format_config(cfg))
    opt = model._last_opt
    save_checkpoint(out / "checkpoint.jscc",
                    arch=model.cfg.to_dict(),
                    params=[(n, p.value) for n, p in model.params()],
                    train_config=cfg.to_dict(),
                    opt_state=opt.state(),
                    rng_state=model._last_rng_state,
                    buffers=model.buffers())
    print(f"wrote {out / 'checkpoint.jscc'}", file=sys.stderr)
    return 0


def _load_model(path):
    """The checkpoint's model and ``ExperimentConfig``; ``arch`` must be its model config."""
    ck = load_checkpoint(path)
    tc, names = ck["train_config"], FIELD_TYPES.keys()
    keys = set(tc) if isinstance(tc, dict) else set()
    if keys != names:
        raise CheckpointError(f"metadata train_config lacks {sorted(names - keys)}, "
                              f"has unknown {sorted(keys - names)}")
    try:
        cfg = ExperimentConfig(**tc)
        check_field_types(cfg)
        mcfg = cfg.model_config()
        cfg.train_config()
    except ValueError as e:
        raise CheckpointError(f"metadata train_config is not a valid config: {e}") from None
    # JSON, not ==: 8.0 == 8 and True == 1
    if json.dumps(ck["arch"], sort_keys=True) != json.dumps(mcfg.to_dict(), sort_keys=True):
        raise CheckpointError("metadata arch does not match train_config")
    model = build_model(mcfg, seed=cfg.seed)
    model.load_state(ck["params"], ck["buffers"])
    return model, cfg


def cmd_eval(args) -> int:
    model, cfg = _load_model(args.checkpoint)
    _, test_images = _dataset(cfg)
    seed = cfg.seed if args.seed is None else args.seed
    snrs = _sweep(args.snr_db, float, "--snr-db", cfg.snr_db)
    clips = _sweep(args.clip_ratio, float, "--clip-ratio", cfg.clip_ratio)
    taps_list = _sweep(args.taps, int, "--taps", cfg.n_taps)
    realizations = cfg.realizations if args.realizations is None else args.realizations
    if model.cfg.variant == "direct" and clips != [math.inf]:
        print(f"note: the direct variant never clips; clip_ratio "
              f"{','.join(map(_fmt, clips))} is evaluated and reported as inf",
              file=sys.stderr)
        clips = [math.inf]

    rows = []
    for snr in snrs:
        for rho in clips:
            for n_taps in taps_list:
                res = evaluate(model, test_images, snr_db=snr, clip_ratio=rho,
                               n_taps=n_taps, gamma=cfg.gamma,
                               realizations=realizations, seed=seed,
                               workers=args.workers)
                rows.append([snr, rho, n_taps, model.cfg.variant, res.psnr_db,
                             res.ssim, res.papr_p99_db, res.n_images,
                             res.n_realizations])
                print(f"snr={snr} rho={rho} taps={n_taps}: "
                      f"psnr={res.psnr_db:.2f} dB ssim={res.ssim:.4f}",
                      file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", METRICS_HEADER, rows)
    return 0


def cmd_gradcheck(args) -> int:
    reports = gradcheck.run_all()
    for r in reports:
        print(r.line())
    n_fail = sum(not r.passed for r in reports)
    print(f"{len(reports) - n_fail}/{len(reports)} gradient checks passed")
    return 0 if n_fail == 0 else 1


def cmd_chain_demo(args) -> int:
    cfg = _config(args)
    ocfg = cfg.model_config().ofdm
    snr, rho = cfg.snr_db, cfg.clip_ratio
    sigma_sq = snr_to_sigma_sq(snr)

    rng = rng_stream(cfg.seed, 4)
    z = (rng.standard_normal((1, ocfg.n_s, ocfg.l_fft))
         + 1j * rng.standard_normal((1, ocfg.n_s, ocfg.l_fft))) / math.sqrt(2.0)
    pilots = make_pilots(ocfg.pilot_seed, ocfg.n_p, ocfg.l_fft)
    grid = cplx.const(z)
    pkt = assemble_packet(grid, pilots, ocfg, clip_ratio=rho)
    h = sample_channel(rng, cfg.n_taps, cfg.gamma, batch=1)
    rx = apply_channel(pkt.tx, h, sigma_sq, rng=rng)
    pilot_rx, data_rx = disassemble_packet(rx, ocfg)
    h_hat = estimate_channel_mmse(pilot_rx, pilots, sigma_sq)
    y_eq = equalize_mmse(data_rx, h_hat, sigma_sq)

    # effective per-subcarrier response of the normalized packet
    h_eff = pkt.gain[0] * freq_response(h, ocfg.l_fft)[0]

    tx = pkt.tx.value[0]
    pre = pkt.preclip.value[0]
    est_mse = float(np.mean(np.abs(h_hat.value[0] - h_eff) ** 2))
    eq_mse = float(np.mean(np.abs(y_eq.value[0] - z[0]) ** 2))
    rows = [
        ["power_preclip", "", float(np.mean(np.abs(pre) ** 2))],
        ["power_tx", "", float(np.mean(np.abs(tx) ** 2))],
        ["papr_preclip_db", "", float(papr_db(pre))],
        ["papr_tx_db", "", float(papr_db(tx))],
        ["peak_amplitude", "", float(np.abs(tx).max())],
        ["estimation_mse", "", est_mse],
        ["equalized_mse", "", eq_mse],
    ]
    rows += [["abs_h", k, float(np.abs(h_eff[k]))] for k in range(ocfg.l_fft)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "chain.csv", CHAIN_HEADER, rows)
    print(f"snr={snr} dB rho={rho}: papr={rows[3][2]:.2f} dB "
          f"peak={rows[4][2]:.4f} est_mse={est_mse:.3e} eq_mse={eq_mse:.3e}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ofdmjscc",
                                description="Differentiable OFDM image transceiver")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    # train and chain-demo; each flag but --config and --out sets the config field of its name
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, default=None, help="key=value config file")
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--out", type=Path, required=True)
    shared.add_argument("--snr-db", type=float, default=None, help="SNR in dB")
    shared.add_argument("--clip-ratio", type=float, default=None, help="clipping ratio (inf ok)")

    tr = sub.add_parser("train", parents=[shared], help="train a model and write a checkpoint")
    tr.set_defaults(fn=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint over condition sweeps")
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--out", type=Path, required=True)
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--snr-db", default=None, help="comma-separated list")
    ev.add_argument("--clip-ratio", default=None, help="comma-separated list (inf ok)")
    ev.add_argument("--taps", default=None, help="comma-separated channel lengths")
    ev.add_argument("--realizations", type=int, default=None)
    ev.add_argument("--workers", type=int, default=1)
    ev.set_defaults(fn=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference check of every op")
    gc.set_defaults(fn=cmd_gradcheck)

    cd = sub.add_parser("chain-demo", parents=[shared],
                        help="run one packet through the DSP chain")
    cd.set_defaults(fn=cmd_chain_demo)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
