"""Reconstruction quality metrics (plain numpy, not differentiated) of images in [0, 1]."""

from __future__ import annotations

import numpy as np

PSNR_CAP_DB = 100.0

_SSIM_WIN = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = 0.01 ** 2   # (K1 * L)^2 and (K2 * L)^2 for the data range L = 1
_SSIM_C2 = 0.03 ** 2
_SSIM_BLOCK = 32768    # map elements per _windowed_mean call in ssim_batch


def psnr_batch(ref: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """PSNR in dB of each pair in an (N, ...) batch, shape (N,), capped at 100
    for (near-)exact match.

    Row ``j`` equals ``psnr(ref[j], rec[j])`` bit for bit: each row's mean
    squared error is reduced over that image's own contiguous values. A
    non-finite MSE (a NaN or inf in either image) raises ``ValueError``.
    """
    ref = np.asarray(ref, dtype=np.float64)
    rec = np.asarray(rec, dtype=np.float64)
    if ref.shape != rec.shape:
        raise ValueError(f"psnr: shape mismatch {ref.shape} vs {rec.shape}")
    if ref.ndim < 1:
        raise ValueError("psnr_batch: expected an (N, ...) batch, got a scalar")
    err = ref - rec
    np.multiply(err, err, out=err)
    mse = err.reshape(len(err), -1).mean(axis=1)
    bad = ~np.isfinite(mse)
    if bad.any():
        raise ValueError(f"psnr: non-finite mean squared error {mse[bad][0]}")
    # an MSE of 0 (or one whose inverse overflows) gives inf dB, capped
    with np.errstate(divide="ignore", over="ignore"):
        return np.minimum(PSNR_CAP_DB, 10.0 * np.log10(1.0 / mse))


def psnr(ref: np.ndarray, rec: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, capped at 100 for (near-)exact match.

    The one-pair case of :func:`psnr_batch`. A non-finite MSE (a NaN or inf
    in either image) raises ``ValueError``.
    """
    return float(psnr_batch(np.asarray(ref)[None], np.asarray(rec)[None])[0])


def _gaussian_window(size: int = _SSIM_WIN, sigma: float = _SSIM_SIGMA) -> np.ndarray:
    """1-D Gaussian weights summing to 1; the 2-D window is their outer product."""
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _windowed_mean(maps: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every full window of an (M, H, W) stack.

    Separable, and accumulated tap by tap in place, in the fixed order
    ``0 + t0 + t1 + ...``, with elementwise ops only, so a window's value does
    not depend on M. A BLAS matrix-vector product does not promise that: its
    result for a row depends on how many rows it is given.
    """
    g = _gaussian_window()
    m, h, w = maps.shape
    ho, wo = h - g.size + 1, w - g.size + 1
    rows, tap = np.zeros((m, ho, w)), np.empty((m, ho, w))
    for i, gi in enumerate(g):
        np.add(rows, np.multiply(maps[:, i:i + ho], gi, out=tap), out=rows)
    out, tap = np.zeros((m, ho, wo)), tap.reshape(-1)[:m * ho * wo].reshape(m, ho, wo)
    for j, gj in enumerate(g):
        np.add(out, np.multiply(rows[:, :, j:j + wo], gj, out=tap), out=out)
    return out


def _ssim_rows(mx, my, vx, vy, vxy) -> np.ndarray:
    """Mean SSIM index of each row of per-window statistics, shape (rows,)."""
    num = (2 * mx * my + _SSIM_C1) * (2 * vxy + _SSIM_C2)
    den = (mx * mx + my * my + _SSIM_C1) * (vx + vy + _SSIM_C2)
    return (num / den).mean(axis=1)


def ssim_batch(ref: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """SSIM of each pair in an (N, H, W, C) batch, shape (N,).

    Row ``j`` equals ``ssim(ref[j], rec[j])`` bit for bit: every reduction
    runs along one image's own contiguous values. The five maps (x, y, x^2,
    y^2, xy) of a block of (image, channel) planes go through one
    :func:`_windowed_mean` call; a block holds at most ``_SSIM_BLOCK`` map
    elements, so its arrays stay in cache. A NaN or inf in either batch
    raises ``ValueError``.
    """
    ref = np.asarray(ref, dtype=np.float64)
    rec = np.asarray(rec, dtype=np.float64)
    if ref.shape != rec.shape:
        raise ValueError(f"ssim: shape mismatch {ref.shape} vs {rec.shape}")
    if ref.ndim != 4:
        raise ValueError(f"ssim_batch: expected (N, H, W, C), got {ref.shape}")
    if not (np.isfinite(ref).all() and np.isfinite(rec).all()):
        raise ValueError("ssim: non-finite pixel value")

    n, h, w, nc = ref.shape
    # one contiguous (H, W) plane per (image, channel), image-major
    x = np.ascontiguousarray(np.moveaxis(ref, 3, 1)).reshape(n * nc, h, w)
    y = np.ascontiguousarray(np.moveaxis(rec, 3, 1)).reshape(n * nc, h, w)
    if h < _SSIM_WIN or w < _SSIM_WIN:
        x, y = x.reshape(n * nc, -1), y.reshape(n * nc, -1)
        mx, my = x.mean(axis=1, keepdims=True), y.mean(axis=1, keepdims=True)
        vx, vy = x.var(axis=1, keepdims=True), y.var(axis=1, keepdims=True)
        vxy = ((x - mx) * (y - my)).mean(axis=1, keepdims=True)
        vals = _ssim_rows(mx, my, vx, vy, vxy)
    else:
        vals = np.empty(n * nc)
        block = max(1, _SSIM_BLOCK // (5 * h * w))
        for lo in range(0, n * nc, block):
            xb, yb = x[lo:lo + block], y[lo:lo + block]
            b = len(xb)
            maps = np.empty((5, b, h, w))
            maps[0], maps[1] = xb, yb
            np.multiply(xb, xb, out=maps[2])
            np.multiply(yb, yb, out=maps[3])
            np.multiply(xb, yb, out=maps[4])
            mx, my, mxx, myy, mxy = _windowed_mean(maps.reshape(5 * b, h, w)).reshape(5, b, -1)
            vals[lo:lo + b] = _ssim_rows(mx, my, mxx - mx * mx, myy - my * my, mxy - mx * my)
    return vals.reshape(n, nc).mean(axis=1)


def ssim(ref: np.ndarray, rec: np.ndarray) -> float:
    """Mean structural similarity with an 11x11 Gaussian window (sigma 1.5).

    Channels are averaged. Images smaller than the window fall back to global
    (single-window) statistics.
    """
    ref = np.asarray(ref, dtype=np.float64)
    rec = np.asarray(rec, dtype=np.float64)
    if ref.ndim == 2:
        ref = ref[:, :, None]
        rec = rec[:, :, None]
    if ref.ndim != 3:
        raise ValueError(f"ssim: expected (H, W) or (H, W, C), got {ref.shape}")
    return float(ssim_batch(ref[None], rec[None])[0])
