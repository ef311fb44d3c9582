"""Training and evaluation loops.

Reproducibility contract: every source of randomness is a stream of
``config.rng_stream``, the documented split of the experiment seed. Given the
same seed and config, training is bitwise deterministic.
Evaluation runs one self-contained pass per chunk of ``EVAL_BATCH`` images
(``_eval_chunk``). Each (image, realization) pair draws its taps, then its
noise, from its own stream, as ``sample_channel`` then ``awgn`` would, and no
chunk depends on ``workers``, so neither do the results. The draws depend only
on the seed, the chunk's pairs and the two lengths, so ``_chunk_normals`` keeps
each chunk's standard normals, up to ``CHUNK_NORMALS_BYTES`` in all, and later
points of a sweep on a set of the same size and seed scale them again instead
of rebuilding each stream.
"""

from __future__ import annotations

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .channel import awgn, complex_normal, power_profile, sample_channel, snr_to_sigma_sq
from .config import ExperimentConfig, TrainConfig, rng_stream
from .cplx import CplxNode
from .metrics import psnr_batch, ssim_batch
from .model import JsccModel
from .ofdm import papr_db

DIVERGENCE_LOSS = 1e8
EVAL_BATCH = 16   # images per evaluation chunk, pairs per receive pass
CHUNK_NORMALS_BYTES = 32 << 20   # kept normals: eval's default 50 x 5 at 12 tap counts
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.5, 0.999, 1e-8
ADAM_BLOCK = 32768  # elements per block of the Adam update (fits in L2 with its operands)
ADAM_GRAD_MAX = math.sqrt(sys.float_info.max)   # the largest |g| whose square is finite


def mse_loss(pred: Node, target: np.ndarray) -> Node:
    """Mean squared error over every element of the batch."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ValueError(f"mse_loss: shape mismatch {pred.value.shape} vs {target.shape}")
    diff = ad.sub(pred, ad.constant(target))
    return ad.mul_const(ad.sum_all(ad.mul(diff, diff)), 1.0 / target.size)


class Adam:
    """ADAM with betas ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` outside the root.

    The update is Kingma & Ba's reordered form (arXiv 1412.6980, section 2):
    the bias corrections fold into two per-step scalars, alpha_t = lr *
    sqrt(1 - b2^t) / (1 - b1^t) and eps_t = eps * sqrt(1 - b2^t), and each
    parameter moves by alpha_t * m / (sqrt(v) + eps_t). That equals
    lr * m_hat / (sqrt(v_hat) + eps) up to rounding. ``step`` updates the
    moments in place and computes each parameter's new value in blocks of
    ``ADAM_BLOCK`` elements through one float and one bool scratch buffer, so
    the temporaries of one block stay in cache. Every element goes through the
    same expressions in the same order as the unblocked update, so the result
    does not depend on the block size.
    """

    def __init__(self, params: list[tuple[str, Node]]):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros(p.value.shape) for _, p in self.params]
        self.v = [np.zeros(p.value.shape) for _, p in self.params]
        self._scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK, dtype=bool))

    def step(self, grads: dict[Node, np.ndarray], lr: float) -> None:
        """One update of every parameter at learning rate ``lr``.

        A bad gradient (missing, misshapen, non-finite or past ``ADAM_GRAD_MAX``)
        raises before anything moves. A non-finite update raises only once its
        block is computed: ``step_count`` and the moments up to that block have
        moved, and the tensors listed before its tensor hold their new values.
        ``train_epochs`` stops there; an optimizer that has raised must not step again.
        """
        # check every gradient before anything moves: a rejected step changes nothing
        for name, node in self.params:
            if node not in grads:
                # a parameter the loss cannot reach is a wiring bug, not a no-op
                raise KeyError(f"Adam: no gradient for {name}")
            g = grads[node]
            if g.shape != node.value.shape:
                raise ValueError(f"Adam: gradient for {name} has shape {g.shape}, "
                                 f"parameter has {node.value.shape}")
            # false for NaN too; past the root of the float range g * g overflows v
            if g.size and not (-ADAM_GRAD_MAX <= g.min() and g.max() <= ADAM_GRAD_MAX):
                raise FloatingPointError(f"Adam: non-finite gradient for {name}, or one past "
                                         f"{ADAM_GRAD_MAX:.4g}, whose square overflows")
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        root_c2 = math.sqrt(1.0 - b2 ** self.step_count)
        alpha = lr * root_c2 / (1.0 - b1 ** self.step_count)
        eps = ADAM_EPS * root_c2
        # numpy warns of an overflow before the check below can name the tensor
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (name, node) in enumerate(self.params):
                g, m, v = grads[node].reshape(-1), self.m[i].reshape(-1), self.v[i].reshape(-1)
                p = node.value.reshape(-1)
                new = np.empty(p.shape)
                for lo in range(0, p.size, ADAM_BLOCK):
                    hi = min(lo + ADAM_BLOCK, p.size)
                    gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
                    a, ok = (t[:hi - lo] for t in self._scratch)
                    # m = b1 * m + (1 - b1) * g
                    np.multiply(mb, b1, out=mb)
                    np.add(mb, np.multiply(gb, 1 - b1, out=a), out=mb)
                    # v = b2 * v + (1 - b2) * (g * g)
                    np.multiply(vb, b2, out=vb)
                    np.multiply(np.multiply(gb, gb, out=a), 1 - b2, out=a)
                    np.add(vb, a, out=vb)
                    # new = p - m / (sqrt(v) + eps_t) * alpha_t
                    np.add(np.sqrt(vb, out=a), eps, out=a)
                    np.multiply(np.divide(mb, a, out=a), alpha, out=a)
                    np.subtract(p[lo:hi], a, out=new[lo:hi])
                    if not np.isfinite(new[lo:hi], out=ok).all():
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


def lr_at(tcfg: TrainConfig, epoch: int) -> float:
    """Constant phase, then linear decay reaching 0 one epoch past the last."""
    d, e = tcfg.lr_decay_start, tcfg.epochs
    if epoch < d or e <= d:
        return tcfg.lr
    return tcfg.lr * (e - epoch) / (e - d)


def train_epochs(model: JsccModel, images: np.ndarray, tcfg: TrainConfig):
    """Train in place; after each epoch, yield its row (epoch, loss, lr, steps),
    the run's ``Adam`` and the training stream's ``bit_generator.state``.

    Every batch sees a fresh channel realization and noise per image. A
    non-finite or exploding loss raises ``RuntimeError``.
    """
    n = images.shape[0]
    if n < 1:
        raise ValueError("train: empty dataset")
    rng = rng_stream(tcfg.seed, 2)
    opt = Adam(model.params())
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
            opt.step(grads, lr)
            total += lv * len(idx)
            seen += len(idx)
        yield ({"epoch": epoch, "loss": total / seen, "lr": lr, "steps": opt.step_count},
               opt, rng.bit_generator.state)


def train(model: JsccModel, images: np.ndarray, tcfg: TrainConfig) -> list[dict]:
    """Train in place; returns ``train_epochs``' rows, one per epoch."""
    return [row for row, _, _ in train_epochs(model, images, tcfg)]


@dataclass
class EvalResult:
    psnr_db: float
    ssim: float
    papr_p99_db: float
    per_image_psnr_db: np.ndarray


_CHUNK_NORMALS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_CHUNK_NORMALS_LOCK = threading.Lock()


def _chunk_normals(seed: int, first: int, count: int, realizations: int, n_taps: int,
                   rx_len: int, noise: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Standard normals of the pairs of images ``first`` .. ``first + count - 1``,
    in pair order: pair p's taps are row p of the first array, (pairs, ``n_taps``,
    2), and its noise row p of the second, (pairs, ``rx_len``, 2), both drawn from
    stream (seed, 3, first + p // realizations, p % realizations), taps first.

    Kept in ``_CHUNK_NORMALS``, read-only, while the kept arrays stay within
    ``CHUNK_NORMALS_BYTES``; once that is full, further chunks are drawn and not
    kept, so reuse does not depend on the order of a sweep's points. Without
    ``noise`` (infinite SNR), a chunk not kept yet has only its taps drawn,
    returns None for its noise and stays unkept.
    """
    key = (seed, first, count, realizations, n_taps, rx_len)
    if (kept := _CHUNK_NORMALS.get(key)) is not None:
        return kept
    n_pairs = count * realizations
    g_taps = np.empty((n_pairs, n_taps, 2))
    g_noise = np.empty((n_pairs, rx_len, 2)) if noise else None
    for p in range(n_pairs):
        rng = rng_stream(seed, 3, first + p // realizations, p % realizations)
        rng.standard_normal(out=g_taps[p])
        if g_noise is not None:
            rng.standard_normal(out=g_noise[p])
    if g_noise is None:
        return g_taps, None
    g_taps.setflags(write=False)
    g_noise.setflags(write=False)
    with _CHUNK_NORMALS_LOCK:
        if (sum(t.nbytes + z.nbytes for t, z in _CHUNK_NORMALS.values())
                + g_taps.nbytes + g_noise.nbytes <= CHUNK_NORMALS_BYTES):
            _CHUNK_NORMALS.setdefault(key, (g_taps, g_noise))
    return g_taps, g_noise


def _eval_chunk(model, images, first, *, clip_ratio, sigma_sq, n_taps, gamma,
                realizations, seed):
    """Evaluate a chunk of images, image ``i`` being image ``first + i`` of the set.

    One graph-free ``transmit`` of the chunk, then graph-free ``receive`` passes
    over its (image, realization) pairs in index order, ``EVAL_BATCH`` pairs to a
    pass, each pair on its image's packet. Pair (i, r)'s taps, then its noise,
    are drawn from stream (seed, 3, first + i, r) into its row of the chunk's
    normals (``_chunk_normals``); each pass scales its rows at once.
    Returns per-pair PSNR and SSIM, each of shape (images, ``realizations``),
    and the per-image PAPR.
    """
    with ad.no_grad():
        tx = model.transmit(images, clip_ratio, train=False).tx
    packets, n_pairs = tx.z.value, len(images) * realizations
    g_taps, g_noise = _chunk_normals(seed, first, len(images), realizations, n_taps,
                                     model.rx_len, noise=sigma_sq > 0.0)
    psnr, ssim = np.empty(n_pairs), np.empty(n_pairs)
    for lo in range(0, n_pairs, EVAL_BATCH):
        hi = min(lo + EVAL_BATCH, n_pairs)
        taps = complex_normal(g_taps[lo:hi], power_profile(n_taps, gamma))
        noise = complex_normal(g_noise[lo:hi], sigma_sq) if sigma_sq > 0.0 else None
        rows = np.arange(lo, hi) // realizations
        with ad.no_grad():
            rec = model.receive(CplxNode(ad.constant(packets[rows])), taps, sigma_sq,
                                train=False, noise=noise).value
        ref = images[rows]
        psnr[lo:hi], ssim[lo:hi] = psnr_batch(ref, rec), ssim_batch(ref, rec)
    return psnr.reshape(-1, realizations), ssim.reshape(-1, realizations), papr_db(tx.value)


def evaluate(model: JsccModel, images: np.ndarray, *, snr_db: float,
             clip_ratio: float = TrainConfig.clip_ratio, n_taps: int = TrainConfig.n_taps,
             gamma: float = TrainConfig.gamma,
             realizations: int = ExperimentConfig.realizations,
             seed: int = TrainConfig.seed, workers: int = 1) -> EvalResult:
    """Average PSNR/SSIM over ``realizations`` fresh channels per image.

    The transmitter depends on the image and ``clip_ratio`` only, so each chunk
    of ``EVAL_BATCH`` images is transmitted once; its (image, realization) pairs
    are then received ``EVAL_BATCH`` to a pass, each on its image's packet.
    ``workers > 1`` spreads the image chunks over threads. Results are
    independent of ``workers``: each pair draws from its own RNG stream, the
    chunks do not depend on ``workers`` and aggregation runs in index order.
    The condition is checked as a ``TrainConfig`` is, and ``n_taps`` may not
    exceed ``model.rx_len``; ``realizations`` and ``workers`` must be ints
    >= 1. Numpy scalars count as the Python numbers they hold.
    """
    snr_db, clip_ratio, n_taps, gamma, seed, realizations, workers = (
        v.item() if isinstance(v, np.generic) else v
        for v in (snr_db, clip_ratio, n_taps, gamma, seed, realizations, workers))
    try:
        TrainConfig(snr_db=snr_db, clip_ratio=clip_ratio, n_taps=n_taps, gamma=gamma,
                    seed=seed)
    except ValueError as e:
        raise ValueError(f"evaluate: {e}") from None
    if n_taps > model.rx_len:
        raise ValueError(f"evaluate: n_taps={n_taps} exceeds the received length "
                         f"rx_len={model.rx_len}")
    for name, v in (("realizations", realizations), ("workers", workers)):
        if type(v) is not int or v < 1:
            raise ValueError(f"evaluate: {name} must be an int >= 1, got {v!r}")
    n = images.shape[0]
    if n < 1:
        raise ValueError("evaluate: empty image set")
    firsts = range(0, n, EVAL_BATCH)
    run_chunk = partial(_eval_chunk, model, clip_ratio=clip_ratio,
                        sigma_sq=snr_to_sigma_sq(snr_db), n_taps=n_taps, gamma=gamma,
                        realizations=realizations, seed=seed)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = list((map if pool is None else pool.map)(
            run_chunk, [images[k:k + EVAL_BATCH] for k in firsts], firsts))
    all_psnr, all_ssim, papr = (np.concatenate(parts) for parts in zip(*results))
    return EvalResult(
        psnr_db=float(all_psnr.mean()),
        ssim=float(all_ssim.mean()),
        # one PAPR per image, repeated per realization in pair order
        papr_p99_db=float(np.percentile(np.repeat(papr, realizations), 99)),
        per_image_psnr_db=all_psnr.mean(axis=1),
    )
