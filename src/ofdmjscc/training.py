"""Training and evaluation loops.

Reproducibility contract: every source of randomness is an
``np.random.Generator`` derived from the experiment seed by a documented
split, ``default_rng(SeedSequence(entropy=seed, spawn_key=key))``:

* ``(1,)``            — model parameter initialization (see ``build_model``)
* ``(2,)``            — the training stream: epoch shuffles, per-batch SNR
                        draws, channel taps and noise, in that order
* ``(3, i, r)``       — evaluation of image ``i``, realization ``r``

Given the same seed and config, training is bitwise deterministic. Evaluation
runs the (image, realization) pairs in chunks of the fixed ``EVAL_BATCH``, and
every pair owns its stream, so its results do not depend on ``workers``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .channel import awgn, sample_channel, snr_to_sigma_sq
from .metrics import psnr, ssim_batch
from .model import JsccModel
from .ofdm import check_field_types, papr_db

DIVERGENCE_LOSS = 1e8
EVAL_BATCH = 16   # (image, realization) pairs per evaluation forward pass
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.5, 0.999, 1e-8
ADAM_BLOCK = 32768  # elements per block of the Adam update (fits in L2 with its operands)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key) per the documented split."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def mse_loss(pred: Node, target: np.ndarray) -> Node:
    """Mean squared error over every element of the batch."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ValueError(f"mse_loss: shape mismatch {pred.value.shape} vs {target.shape}")
    diff = ad.sub(pred, ad.constant(target))
    return ad.mul_const(ad.sum_all(ad.mul(diff, diff)), 1.0 / target.size)


class Adam:
    """ADAM with betas ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` outside the root.

    ``step`` updates the moments in place and computes each parameter's new
    value in blocks of ``ADAM_BLOCK`` elements through two scratch buffers,
    so the temporaries of one block stay in cache. Every element goes through
    the same expressions in the same order as the unblocked update, so the
    result does not depend on the block size.
    """

    def __init__(self, params: list[tuple[str, Node]]):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros(p.value.shape) for _, p in self.params]
        self.v = [np.zeros(p.value.shape) for _, p in self.params]
        self._scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))

    def step(self, grads: dict[Node, np.ndarray], lr: float) -> None:
        # check every gradient before anything moves: a rejected step changes nothing
        for name, node in self.params:
            if node not in grads:
                # a parameter the loss cannot reach is a wiring bug, not a no-op
                raise KeyError(f"Adam: no gradient for {name}")
            g = grads[node]
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"Adam: non-finite gradient for {name}")
            if g.shape != node.value.shape:
                raise ValueError(f"Adam: gradient for {name} has shape {g.shape}, "
                                 f"parameter has {node.value.shape}")
        self.step_count += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for i, (name, node) in enumerate(self.params):
            g, m, v = grads[node].reshape(-1), self.m[i].reshape(-1), self.v[i].reshape(-1)
            p = node.value.reshape(-1)
            new = np.empty(p.shape)
            for lo in range(0, p.size, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, p.size)
                gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
                a, b = (t[:hi - lo] for t in self._scratch)
                # m = b1 * m + (1 - b1) * g
                np.multiply(mb, b1, out=mb)
                np.add(mb, np.multiply(gb, 1 - b1, out=a), out=mb)
                # v = b2 * v + (1 - b2) * (g * g)
                np.multiply(vb, b2, out=vb)
                np.multiply(np.multiply(gb, gb, out=a), 1 - b2, out=a)
                np.add(vb, a, out=vb)
                # new = p - lr * (m / c1) / (sqrt(v / c2) + eps)
                np.multiply(np.divide(mb, c1, out=a), lr, out=a)
                np.add(np.sqrt(np.divide(vb, c2, out=b), out=b), eps, out=b)
                np.subtract(p[lo:hi], np.divide(a, b, out=a), out=new[lo:hi])
                if not np.all(np.isfinite(new[lo:hi])):
                    raise FloatingPointError(f"Adam: non-finite value for {name}")
            new = new.reshape(node.value.shape)
            new.setflags(write=False)
            node.value = new     # a fresh array nothing else holds: no copy

    def state(self) -> dict:
        return {"step": self.step_count, "m": [m.copy() for m in self.m],
                "v": [v.copy() for v in self.v]}

    def load_state(self, state: dict) -> None:
        if len(state["m"]) != len(self.params) or len(state["v"]) != len(self.params):
            raise ValueError("Adam.load_state: parameter count mismatch")
        m, v = [], []
        for (name, node), mi, vi in zip(self.params, state["m"], state["v"]):
            for what, arr, out in (("m", mi, m), ("v", vi, v)):
                # step writes into the moments: own writable C-contiguous copies
                arr = np.array(arr, dtype=np.float64, order="C", copy=True)
                if arr.shape != node.value.shape:
                    raise ValueError(f"Adam.load_state: {what} for {name} has shape "
                                     f"{arr.shape}, parameter has {node.value.shape}")
                out.append(arr)
        self.step_count = int(state["step"])
        self.m, self.v = m, v


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay_start: int = 20
    snr_db: float = 10.0
    snr_db_min: float | None = None   # set both min/max for uniform-random SNR
    snr_db_max: float | None = None
    clip_ratio: float = math.inf
    n_taps: int = 8
    gamma: float = 4.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0 <= self.lr_decay_start <= self.epochs:
            raise ValueError("lr_decay_start must be in [0, epochs]")
        if (self.snr_db_min is None) != (self.snr_db_max is None):
            raise ValueError("set both snr_db_min and snr_db_max or neither")
        if self.snr_db_min is not None and self.snr_db_min > self.snr_db_max:
            raise ValueError("snr_db_min > snr_db_max")

    @property
    def random_snr(self) -> bool:
        return self.snr_db_min is not None


def lr_at(tcfg: TrainConfig, epoch: int) -> float:
    """Constant phase, then linear decay reaching 0 one epoch past the last."""
    d, e = tcfg.lr_decay_start, tcfg.epochs
    if epoch < d or e <= d:
        return tcfg.lr
    return tcfg.lr * (e - epoch) / (e - d)


def train(model: JsccModel, images: np.ndarray, tcfg: TrainConfig,
          log=None) -> list[dict]:
    """Train in place; returns one row per epoch (epoch, loss, lr, steps).

    Every batch sees a fresh channel realization and noise per image. A
    non-finite or exploding loss raises ``RuntimeError``.
    """
    n = images.shape[0]
    if n < 1:
        raise ValueError("train: empty dataset")
    rng = rng_stream(tcfg.seed, 2)
    opt = Adam(model.params())
    history = []
    for epoch in range(tcfg.epochs):
        lr = lr_at(tcfg, epoch)
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, tcfg.batch_size):
            idx = perm[start:start + tcfg.batch_size]
            batch = images[idx]
            snr = rng.uniform(tcfg.snr_db_min, tcfg.snr_db_max) if tcfg.random_snr \
                else tcfg.snr_db
            sigma_sq = snr_to_sigma_sq(snr)
            taps = sample_channel(rng, tcfg.n_taps, tcfg.gamma, batch=len(idx))
            noise = awgn(rng, (len(idx), model.rx_len), sigma_sq) if sigma_sq > 0.0 else None
            recon = model.forward(batch, taps, sigma_sq, tcfg.clip_ratio,
                                  train=True, noise=noise)[0]
            loss = mse_loss(recon, batch)
            lv = float(loss.value)
            if not math.isfinite(lv) or lv > DIVERGENCE_LOSS:
                raise RuntimeError(f"training diverged at epoch {epoch}: loss={lv}")
            grads = ad.backward(loss)
            del recon, loss     # free the forward graph before Adam's temporaries
            opt.step(grads, lr)
            total += lv * len(idx)
            seen += len(idx)
        row = {"epoch": epoch, "loss": total / seen, "lr": lr, "steps": opt.step_count}
        history.append(row)
        if log is not None:
            log(row)
    model._last_opt = opt  # exposed for checkpointing
    model._last_rng_state = rng.bit_generator.state
    return history


@dataclass
class EvalResult:
    psnr_db: float
    ssim: float
    papr_p99_db: float
    n_images: int
    n_realizations: int
    channel_draws: int
    per_image_psnr_db: np.ndarray


def _eval_chunk(model, images, pairs, *, sigma_sq, clip_ratio, n_taps, gamma, seed):
    """One graph-free forward over a chunk of (image, realization) pairs;
    returns per-pair PSNR, SSIM and PAPR."""
    t_rx = model.rx_len
    taps = np.empty((len(pairs), n_taps), dtype=np.complex128)
    noise = np.empty((len(pairs), t_rx), dtype=np.complex128) if sigma_sq > 0.0 else None
    for k, (i, r) in enumerate(pairs):
        rng = rng_stream(seed, 3, i, r)
        taps[k] = sample_channel(rng, n_taps, gamma)
        if noise is not None:
            noise[k] = awgn(rng, (t_rx,), sigma_sq)
    ref = images[[i for i, _ in pairs]]
    with ad.no_grad():
        recon, pkt = model.forward(ref, taps, sigma_sq, clip_ratio,
                                   train=False, noise=noise)
    rec = recon.value
    ps = np.array([psnr(ref[k], rec[k]) for k in range(len(pairs))])
    return ps, ssim_batch(ref, rec), np.atleast_1d(papr_db(pkt.tx.value))


def evaluate(model: JsccModel, images: np.ndarray, *, snr_db: float,
             clip_ratio: float = math.inf, n_taps: int = 8, gamma: float = 4.0,
             realizations: int = 5, seed: int = 0, workers: int = 1) -> EvalResult:
    """Average PSNR/SSIM over ``realizations`` fresh channels per image.

    The (image, realization) pairs run in index order, ``EVAL_BATCH`` to a
    forward pass; ``workers > 1`` spreads the chunks over threads. Results are
    independent of ``workers``: each pair draws from its own RNG stream, the
    chunks do not depend on ``workers`` and aggregation runs in index order.
    """
    if realizations < 1:
        raise ValueError("evaluate: realizations must be >= 1")
    if workers < 1:
        raise ValueError(f"evaluate: workers must be >= 1, got {workers}")
    n = images.shape[0]
    if n < 1:
        raise ValueError("evaluate: empty image set")
    sigma_sq = snr_to_sigma_sq(snr_db)
    pairs = [(i, r) for i in range(n) for r in range(realizations)]
    chunks = [pairs[k:k + EVAL_BATCH] for k in range(0, len(pairs), EVAL_BATCH)]

    def run(chunk):
        return _eval_chunk(model, images, chunk, sigma_sq=sigma_sq, clip_ratio=clip_ratio,
                           n_taps=n_taps, gamma=gamma, seed=seed)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(chunk) for chunk in chunks]
    all_psnr = np.concatenate([r[0] for r in results]).reshape(n, realizations)
    all_ssim = np.concatenate([r[1] for r in results]).reshape(n, realizations)
    all_papr = np.concatenate([r[2] for r in results])
    return EvalResult(
        psnr_db=float(all_psnr.mean()),
        ssim=float(all_ssim.mean()),
        papr_p99_db=float(np.percentile(all_papr, 99)),
        n_images=n,
        n_realizations=realizations,
        channel_draws=n * realizations,
        per_image_psnr_db=all_psnr.mean(axis=1),
    )
