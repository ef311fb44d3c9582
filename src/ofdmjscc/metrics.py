"""Reconstruction quality metrics (plain numpy, not differentiated) of images in [0, 1]."""

from __future__ import annotations

import numpy as np

PSNR_CAP_DB = 100.0

_SSIM_WIN = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = 0.01 ** 2   # (K1 * L)^2 and (K2 * L)^2 for the data range L = 1
_SSIM_C2 = 0.03 ** 2


def psnr(ref: np.ndarray, rec: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, capped at 100 for (near-)exact match."""
    ref = np.asarray(ref, dtype=np.float64)
    rec = np.asarray(rec, dtype=np.float64)
    if ref.shape != rec.shape:
        raise ValueError(f"psnr: shape mismatch {ref.shape} vs {rec.shape}")
    mse = float(np.mean((ref - rec) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(min(PSNR_CAP_DB, 10.0 * np.log10(1.0 / mse)))


def _gaussian_window(size: int = _SSIM_WIN, sigma: float = _SSIM_SIGMA) -> np.ndarray:
    """1-D Gaussian weights summing to 1; the 2-D window is their outer product."""
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _windowed_mean(img: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every full window of an (N, H, W) stack.

    Separable, and summed tap by tap in a fixed order with elementwise ops
    only, so a window's value does not depend on N. A BLAS matrix-vector
    product does not promise that: its result for a row depends on how many
    rows it is given.
    """
    g = _gaussian_window()
    ho, wo = img.shape[1] - g.size + 1, img.shape[2] - g.size + 1
    rows = sum(g[i] * img[:, i:i + ho, :] for i in range(g.size))
    return sum(g[j] * rows[:, :, j:j + wo] for j in range(g.size))


def ssim_batch(ref: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """SSIM of each pair in an (N, H, W, C) batch, shape (N,).

    Row ``j`` equals ``ssim(ref[j], rec[j])`` bit for bit: every reduction
    runs along one image's own contiguous values.
    """
    ref = np.asarray(ref, dtype=np.float64)
    rec = np.asarray(rec, dtype=np.float64)
    if ref.shape != rec.shape:
        raise ValueError(f"ssim: shape mismatch {ref.shape} vs {rec.shape}")
    if ref.ndim != 4:
        raise ValueError(f"ssim_batch: expected (N, H, W, C), got {ref.shape}")

    n, h, w, nc = ref.shape
    vals = np.empty((n, nc))
    for c in range(nc):
        x = np.ascontiguousarray(ref[..., c])
        y = np.ascontiguousarray(rec[..., c])
        if h < _SSIM_WIN or w < _SSIM_WIN:
            x, y = x.reshape(n, -1), y.reshape(n, -1)
            mx, my = x.mean(axis=1), y.mean(axis=1)
            vx, vy = x.var(axis=1), y.var(axis=1)
            vxy = ((x - mx[:, None]) * (y - my[:, None])).mean(axis=1)
        else:
            mx, my = _windowed_mean(x), _windowed_mean(y)
            vx = _windowed_mean(x * x) - mx * mx
            vy = _windowed_mean(y * y) - my * my
            vxy = _windowed_mean(x * y) - mx * my
        num = (2 * mx * my + _SSIM_C1) * (2 * vxy + _SSIM_C2)
        den = (mx * mx + my * my + _SSIM_C1) * (vx + vy + _SSIM_C2)
        vals[:, c] = (num / den).reshape(n, -1).mean(axis=1)
    return vals.mean(axis=1)


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


def papr_ccdf(papr_db_values: np.ndarray, thresholds_db: np.ndarray) -> np.ndarray:
    """Empirical complementary CDF: fraction of packets with PAPR > threshold."""
    v = np.asarray(papr_db_values, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError("papr_ccdf: no samples")
    t = np.asarray(thresholds_db, dtype=np.float64)
    return (v[None, :] > t.reshape(-1, 1)).mean(axis=1)
