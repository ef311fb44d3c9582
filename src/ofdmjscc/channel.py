"""Multipath Rayleigh block-fading channel with additive white Gaussian noise.

Tap ``l`` of an ``n_taps``-tap channel is drawn as CN(0, sigma_l^2) with an
exponential power-delay profile normalized to unit total power:

    sigma_l^2 = exp(-l / gamma) / sum_m exp(-m / gamma)

The channel output is the leading-aligned linear convolution of the input
with the taps plus complex AWGN. Taps and noise are sampled outside the
autodiff graph: gradients flow through the transmitted signal only, which is
what end-to-end training of the transceiver requires.
"""

from __future__ import annotations

import numpy as np

from . import cplx
from .config import SNR_DB_FLOOR
from .cplx import CplxNode
from .ofdm import P_S


def power_profile(n_taps: int, gamma: float) -> np.ndarray:
    """Per-tap powers sigma_l^2; positive and summing to exactly 1."""
    if n_taps < 1:
        raise ValueError(f"power_profile: n_taps must be >= 1, got {n_taps}")
    if not (gamma > 0):
        raise ValueError(f"power_profile: gamma must be > 0, got {gamma}")
    with np.errstate(over="ignore"):    # a subnormal gamma: -inf, so exp gives 0
        w = np.exp(-np.arange(n_taps) / float(gamma))
    return w / w.sum()


def complex_normal(g: np.ndarray, var) -> np.ndarray:
    """CN(0, ``var``) samples from a standard-normal block ``g`` of shape (..., 2).

    ``g[..., 0]`` and ``g[..., 1]`` become the real and imaginary parts, each
    scaled by sqrt(var / 2); ``var`` broadcasts against ``g.shape[:-1]``. Taps
    and noise are both scaled here; the caller draws ``g``.
    """
    std = np.sqrt(np.asarray(var, dtype=np.float64) / 2.0)
    return (std[..., None] * g).view(np.complex128)[..., 0]


def sample_channel(rng: np.random.Generator, n_taps: int, gamma: float,
                   batch: int | None = None) -> np.ndarray:
    """Draw i.i.d. channel realizations h of shape (n_taps,) or (batch, n_taps).

    Draw order is fixed: one standard-normal block of shape (..., n_taps, 2)
    supplies the real/imaginary parts, scaled by sqrt(sigma_l^2 / 2).
    """
    prof = power_profile(n_taps, gamma)
    shape = (n_taps, 2) if batch is None else (batch, n_taps, 2)
    return complex_normal(rng.standard_normal(shape), prof)


def awgn(rng: np.random.Generator, shape: tuple, sigma_sq: float) -> np.ndarray:
    """Complex noise CN(0, sigma_sq) of ``shape``.

    Draw order is fixed: one standard-normal block of shape ``shape + (2,)``
    supplies the real/imaginary parts, scaled by sqrt(sigma_sq / 2).
    """
    return complex_normal(rng.standard_normal(tuple(shape) + (2,)), sigma_sq)


def snr_to_sigma_sq(snr_db: float) -> float:
    """Noise variance sigma^2 (total, both components) for a given SNR in dB
    relative to the normalized transmit power ``P_S``; ``inf`` is noiseless."""
    if not snr_db > SNR_DB_FLOOR:
        raise ValueError(f"snr_to_sigma_sq: snr_db must be > -inf, and > {SNR_DB_FLOOR!r} "
                         f"so that the noise variance is finite, got {snr_db}")
    return P_S * 10.0 ** (-float(snr_db) / 10.0)


def freq_response(h: np.ndarray, l_fft: int) -> np.ndarray:
    """H[k] = sum_l h_l exp(-2j*pi*k*l/l_fft) (unnormalized), along the last axis."""
    h = np.asarray(h, dtype=np.complex128)
    if h.shape[-1] > l_fft:
        raise ValueError(f"freq_response: {h.shape[-1]} taps exceed l_fft={l_fft}")
    return np.fft.fft(h, n=l_fft, axis=-1)


def apply_channel(y: CplxNode, h: np.ndarray, sigma_sq: float,
                  rng: np.random.Generator | None = None) -> CplxNode:
    """Propagate a batch of signals: ``h * y + w`` (linear convolution + AWGN).

    ``y`` has shape (B, T), ``h`` is a complex (B, n_taps <= T) constant; ``cplx.fir``
    checks both. Noise is CN(0, sigma_sq) per sample, drawn by :func:`awgn`;
    ``sigma_sq = 0`` (noiseless) needs no generator.
    """
    if sigma_sq < 0:
        raise ValueError(f"apply_channel: sigma_sq must be >= 0, got {sigma_sq}")
    out = cplx.fir(y, h)
    if sigma_sq > 0.0:
        if rng is None:
            raise ValueError("apply_channel: rng required when sigma_sq > 0")
        out = cplx.add(out, cplx.const(awgn(rng, y.shape, sigma_sq)))
    return out
