"""End-to-end acceptance suite: ten pinned behavioral criteria.

Each test measures one externally checkable property of the system — DSP
identities, gradient correctness, channel statistics, trained-model trends,
rate bookkeeping, determinism — and prints a single

    criterion N: PASS|FAIL — detail

line (outside pytest's capture) before asserting, so a plain run shows one
line per criterion.  Trained-model criteria share a module-scoped matrix of
small models (16x16 synthetic images, reduced widths); the whole file is
budgeted to run in well under thirty minutes on a laptop CPU.
"""

import csv
import math
import time

import numpy as np
import pytest

from ofdmjscc import cplx
from ofdmjscc.channel import apply_channel, freq_response, sample_channel
from ofdmjscc.cli import main
from ofdmjscc.config import ExperimentConfig
from ofdmjscc.data import synth_dataset
from ofdmjscc.gradcheck import run_all
from ofdmjscc.model import VARIANTS, build_model
from ofdmjscc.ofdm import OfdmConfig, assemble_packet, channel_uses_per_pixel, \
    disassemble_packet, make_pilots
from ofdmjscc.training import evaluate, train

# Shared wall-clock ledger: criterion 6 shares criterion 5's 30-minute budget.
TIMES: dict[str, float] = {}
THIRTY_MINUTES = 1800.0


def announce(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)


# ---------------------------------------------------------------------------
# toy experiment shared by the trained-model criteria (5, 6, 7, 8)
# ---------------------------------------------------------------------------

def toy_config(variant: str, seed: int, **overrides) -> ExperimentConfig:
    base = dict(variant=variant, image_h=16, image_w=16, image_c=1,
                width1=16, width2=32, head_hidden=128, front_hidden=32,
                l_fft=16, l_cp=12, n_p=2, n_s=4,
                train_images=200, test_images=50, dataset_seed=1234,
                snr_db=10.0, epochs=30, lr_decay_start=15,
                realizations=5, seed=seed)
    base.update(overrides)
    return ExperimentConfig(**base)


def train_toy(cfg: ExperimentConfig, train_imgs: np.ndarray):
    model = build_model(cfg.model_config(), seed=cfg.seed)
    train(model, train_imgs, cfg.train_config())
    return model


@pytest.fixture(scope="module")
def toy_pool():
    cfg = toy_config("explicit", 0)
    imgs = synth_dataset(cfg.train_images + cfg.test_images, cfg.image_h,
                         cfg.image_w, cfg.image_c, seed=cfg.dataset_seed)
    return imgs[:cfg.train_images], imgs[cfg.train_images:]


@pytest.fixture(scope="module")
def variant_matrix(toy_pool):
    """Train all three variants for five seeds; returns (psnr table, kept
    explicit seed-0 model, elapsed seconds)."""
    train_imgs, test_imgs = toy_pool
    t0 = time.monotonic()
    table: dict[int, dict[str, float]] = {}
    kept = None
    for seed in range(5):
        table[seed] = {}
        for variant in VARIANTS:
            cfg = toy_config(variant, seed)
            model = train_toy(cfg, train_imgs)
            res = evaluate(model, test_imgs, snr_db=cfg.snr_db,
                           clip_ratio=cfg.clip_ratio, n_taps=cfg.n_taps,
                           gamma=cfg.gamma, realizations=cfg.realizations,
                           seed=cfg.seed, workers=4)
            table[seed][variant] = res.psnr_db
            if variant == "explicit" and seed == 0:
                kept = model
    TIMES["matrix"] = time.monotonic() - t0
    return table, kept, TIMES["matrix"]


# ---------------------------------------------------------------------------
# 1. DSP identity: after CP removal and DFT the channel is one complex gain
#    per subcarrier — received grid == H[k] * transmitted grid, to 1e-9
# ---------------------------------------------------------------------------

def test_criterion_01_per_subcarrier_identity(capsys):
    t0 = time.monotonic()
    cfg = OfdmConfig(l_fft=16, l_cp=12, n_p=2, n_s=4)
    rng = np.random.default_rng(42)
    z = (rng.standard_normal((3, cfg.n_s, cfg.l_fft))
         + 1j * rng.standard_normal((3, cfg.n_s, cfg.l_fft))) / math.sqrt(2.0)
    pilots = make_pilots(cfg.pilot_seed, cfg.n_p, cfg.l_fft)
    pkt = assemble_packet(cplx.const(z), pilots, cfg, clip_ratio=math.inf)

    # longest delay spread the prefix can absorb
    taps = sample_channel(rng, cfg.l_cp + 1, 4.0, batch=3)
    h = freq_response(taps, cfg.l_fft)                      # (3, l_fft)

    tx_p, tx_d = disassemble_packet(pkt.tx, cfg)            # transmitted grid
    rx = apply_channel(pkt.tx, taps, 0.0)
    rx_p, rx_d = disassemble_packet(rx, cfg)

    err = max(np.abs(rx_d.value - h[:, None, :] * tx_d.value).max(),
              np.abs(rx_p.value - h[:, None, :] * tx_p.value).max())
    elapsed = time.monotonic() - t0
    ok = err < 1e-9 and elapsed < 1.0
    announce(capsys, 1, ok,
             f"max |RX - H*TX| = {err:.3e} (tol 1e-9), {elapsed:.2f}s")
    assert err < 1e-9
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. gradient suite: every op and all three end-to-end chains pass central
#    finite differences at rel. tol 1e-6
# ---------------------------------------------------------------------------

def test_criterion_02_gradient_suite(capsys):
    t0 = time.monotonic()
    reports = run_all()
    elapsed = time.monotonic() - t0
    n_pass = sum(r.passed for r in reports)
    worst = max(reports, key=lambda r: r.max_rel_err if not r.passed else -1.0)
    ok = n_pass == len(reports) and elapsed < 60.0
    announce(capsys, 2, ok,
             f"{n_pass}/{len(reports)} checks (worst {worst.name}: "
             f"rel {worst.max_rel_err:.2e}), {elapsed:.1f}s")
    assert n_pass == len(reports), [r.line() for r in reports if not r.passed]
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. channel statistics: Monte-Carlo tap powers match the exponential decay
#    profile (independent direct summation) within 3%
# ---------------------------------------------------------------------------

def test_criterion_03_channel_statistics(capsys):
    t0 = time.monotonic()
    n_taps, gamma, n_draws = 8, 4.0, 100_000
    rng = np.random.default_rng(2024)
    taps = sample_channel(rng, n_taps, gamma, batch=n_draws)
    emp = np.mean(np.abs(taps) ** 2, axis=0)

    w = np.exp(-np.arange(n_taps) / gamma)                  # direct summation
    expected_first = w[0] / w.sum()                         # = 0.2558207969...
    total_err = abs(emp.sum() - 1.0)
    first_err = abs(emp[0] - expected_first) / expected_first
    elapsed = time.monotonic() - t0
    ok = total_err <= 0.03 and first_err <= 0.03 and elapsed < 10.0
    announce(capsys, 3, ok,
             f"sum={emp.sum():.4f} (|err| {total_err:.4f} <= 0.03), "
             f"sigma0^2={emp[0]:.4f} vs {expected_first:.4f} "
             f"(rel {first_err:.4f} <= 0.03), {elapsed:.1f}s")
    assert abs(expected_first - 0.2558207969) < 1e-9
    assert total_err <= 0.03
    assert first_err <= 0.03
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4. perfect-chain reconstruction: noise-free, clip-free equalized symbol
#    MSE < 1e-16, via the chain-demo command
# ---------------------------------------------------------------------------

def test_criterion_04_perfect_chain(capsys, tmp_path):
    t0 = time.monotonic()
    rc = main(["chain-demo", "--out", str(tmp_path), "--snr-db", "inf"])
    rows = {r[0]: r[2] for r in
            list(csv.reader((tmp_path / "chain.csv").open()))[1:]}
    eq_mse = float(rows["equalized_mse"])
    elapsed = time.monotonic() - t0
    ok = rc == 0 and eq_mse < 1e-16 and elapsed < 1.0
    announce(capsys, 4, ok,
             f"equalized symbol MSE = {eq_mse:.3e} (tol 1e-16), {elapsed:.2f}s")
    assert rc == 0
    assert eq_mse < 1e-16
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 5. variant ordering: test PSNR explicit >= implicit >= direct in at least
#    4 of 5 seeds on the 16x16 synthetic set at 10 dB
# ---------------------------------------------------------------------------

def test_criterion_05_variant_ordering(capsys, variant_matrix):
    table, _, elapsed = variant_matrix
    wins = sum(1 for r in table.values()
               if r["explicit"] >= r["implicit"] >= r["direct"])
    means = {v: np.mean([table[s][v] for s in table]) for v in VARIANTS}
    ok = wins >= 4 and elapsed < THIRTY_MINUTES
    announce(capsys, 5, ok,
             f"ordered in {wins}/5 seeds (mean PSNR dB: "
             f"explicit {means['explicit']:.2f} >= implicit "
             f"{means['implicit']:.2f} >= direct {means['direct']:.2f}), "
             f"{elapsed:.0f}s")
    assert wins >= 4, table
    assert elapsed < THIRTY_MINUTES


# ---------------------------------------------------------------------------
# 6. SNR monotonicity: trained with uniform random SNR in [0, 20] dB, test
#    PSNR is non-decreasing over eval SNRs {0, 10, 20} (slack 0.2 dB)
# ---------------------------------------------------------------------------

def test_criterion_06_snr_monotonicity(capsys, toy_pool):
    t0 = time.monotonic()
    train_imgs, test_imgs = toy_pool
    # trained to convergence (50 epochs) so the robustness trend is not
    # masked by an undertrained receiver near the codec's noise floor
    cfg = toy_config("explicit", 0, snr_db_min=0.0, snr_db_max=20.0,
                     epochs=50, lr_decay_start=25)
    model = train_toy(cfg, train_imgs)
    psnr = [evaluate(model, test_imgs, snr_db=s, n_taps=cfg.n_taps,
                     gamma=cfg.gamma, realizations=cfg.realizations,
                     seed=cfg.seed, workers=4).psnr_db for s in (0.0, 10.0, 20.0)]
    elapsed = time.monotonic() - t0
    TIMES["snr_sweep"] = elapsed
    steps = [psnr[1] - psnr[0], psnr[2] - psnr[1]]
    within_budget = TIMES.get("matrix", 0.0) + elapsed < THIRTY_MINUTES
    ok = min(steps) >= -0.2 and within_budget
    announce(capsys, 6, ok,
             f"PSNR at 0/10/20 dB = {psnr[0]:.2f}/{psnr[1]:.2f}/{psnr[2]:.2f} "
             f"(min step {min(steps):+.2f} dB >= -0.2), {elapsed:.0f}s")
    assert min(steps) >= -0.2, psnr
    assert within_budget


# ---------------------------------------------------------------------------
# 7. clipping degradation: training at rho in {1, 1.4, inf} degrades
#    gracefully, and the clipped peak respects rho * sqrt(P_s) exactly
# ---------------------------------------------------------------------------

def test_criterion_07_clipping_degradation(capsys, toy_pool, variant_matrix):
    train_imgs, test_imgs = toy_pool
    _, model_inf, _ = variant_matrix                 # trained at rho = inf
    psnr = {}
    models = {math.inf: model_inf}
    for rho in (1.4, 1.0):
        cfg = toy_config("explicit", 0, clip_ratio=rho)
        models[rho] = train_toy(cfg, train_imgs)
    for rho, model in models.items():
        psnr[rho] = evaluate(model, test_imgs, snr_db=10.0, clip_ratio=rho,
                             n_taps=8, gamma=4.0, realizations=5, seed=0,
                             workers=4).psnr_db

    # peak bound, checked exactly on a fresh forward pass of the rho=1 model;
    # P_s is the pre-clip design power (normalization target), i.e. 1
    _, pkt = models[1.0].forward(test_imgs[:4], sample_channel(
        np.random.default_rng(3), 8, 4.0, batch=4), 0.0, clip_ratio=1.0)
    peak = np.abs(pkt.tx.value).max()
    bound = 1.0 * math.sqrt(1.0)

    graceful = (psnr[math.inf] >= psnr[1.4]) and (psnr[1.4] >= psnr[1.0] - 0.3)
    ok = graceful and peak <= bound
    announce(capsys, 7, ok,
             f"PSNR inf/1.4/1.0 = {psnr[math.inf]:.2f}/{psnr[1.4]:.2f}/"
             f"{psnr[1.0]:.2f} dB (slack 0.3), peak {peak:.6f} <= "
             f"rho*sqrt(P_s) {bound:.6f}")
    assert psnr[math.inf] >= psnr[1.4], psnr
    assert psnr[1.4] >= psnr[1.0] - 0.3, psnr
    assert peak <= bound


# ---------------------------------------------------------------------------
# 8. multipath robustness: trained at L=8, PSNR spread over eval
#    L in {4, 8, 12} stays within 2 dB at 15 dB SNR
# ---------------------------------------------------------------------------

def test_criterion_08_multipath_robustness(capsys, toy_pool, variant_matrix):
    _, test_imgs = toy_pool
    _, model, _ = variant_matrix                     # trained at n_taps = 8
    psnr = {taps: evaluate(model, test_imgs, snr_db=15.0, n_taps=taps,
                           gamma=4.0, realizations=5, seed=0, workers=4).psnr_db
            for taps in (4, 8, 12)}
    spread = max(psnr.values()) - min(psnr.values())
    ok = spread <= 2.0
    announce(capsys, 8, ok,
             f"PSNR at L=4/8/12 = {psnr[4]:.2f}/{psnr[8]:.2f}/{psnr[12]:.2f} dB "
             f"(spread {spread:.2f} <= 2.0)")
    assert spread <= 2.0, psnr


# ---------------------------------------------------------------------------
# 9. rate bookkeeping: channel uses per pixel for the full-size geometry
# ---------------------------------------------------------------------------

def test_criterion_09_rate_bookkeeping(capsys):
    cfg = OfdmConfig(l_fft=64, l_cp=16, n_p=2, n_s=6)
    cpp = channel_uses_per_pixel(cfg, 32, 32, 3)
    exact = (2 + 6) * (64 + 16) / (32 * 32 * 3)
    ok = cpp == exact and round(cpp, 4) == 0.2083
    announce(capsys, 9, ok,
             f"CPP = {cpp!r} == 640/3072, round(., 4) = {round(cpp, 4)}")
    assert cpp == exact
    assert round(cpp, 4) == 0.2083


# ---------------------------------------------------------------------------
# 10. determinism: repeating any command with the same seed/config gives
#     bitwise-identical CSV and checkpoint artifacts
# ---------------------------------------------------------------------------

MICRO_CFG = """
variant = explicit
image_h = 8
image_w = 8
image_c = 1
width1 = 4
width2 = 6
subnet_hidden = 4
head_hidden = 8
l_fft = 8
l_cp = 4
n_p = 2
n_s = 2
n_taps = 3
train_images = 6
test_images = 2
epochs = 2
batch_size = 3
lr_decay_start = 1
realizations = 2
seed = 11
"""


def test_criterion_10_determinism(capsys, tmp_path):
    cfg_file = tmp_path / "micro.cfg"
    cfg_file.write_text(MICRO_CFG)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.jscc"),
                     "--out", str(out), "--snr-db", "0,10",
                     "--workers", "2"]) == 0

    def same(name: str) -> bool:
        a, b = (out / name for out in outs)
        return a.read_bytes() == b.read_bytes()

    results = {name: same(name) for name in
               ("checkpoint.jscc", "train_loss.csv", "metrics.csv")}
    ok = all(results.values())
    announce(capsys, 10, ok,
             "bitwise-identical artifacts: " +
             ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in results.items()))
    assert all(results.values()), results
