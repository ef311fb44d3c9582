"""Pilot-based channel estimation and per-subcarrier MMSE equalization.

Both stages are built from autodiff primitives so gradients reach the
received grids — the decoder variants that refine these estimates with
learned residuals train through them end to end.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import cplx
from .cplx import CplxNode


def estimate_channel_mmse(pilot_rx: CplxNode, pilots: np.ndarray,
                          sigma_sq: float) -> CplxNode:
    """Per-subcarrier regularized LS/MMSE channel estimate from pilots.

        H_hat[k] = sum_i conj(Y_p[i,k]) * Yhat_p[i,k]
                   / (sum_i |Y_p[i,k]|^2 + sigma_sq)

    ``pilot_rx`` is the received pilot grid (B, n_p, l_fft); ``pilots`` the
    known transmitted grid (n_p, l_fft). Returns (B, l_fft). Known-pilot
    terms are constants; gradients flow through ``pilot_rx`` only.
    """
    if pilot_rx.ndim != 3:
        raise ValueError(f"estimate_channel_mmse: pilot_rx must be (B, n_p, l_fft), "
                         f"got {pilot_rx.shape}")
    pilots = np.asarray(pilots, dtype=np.complex128)
    if pilots.shape != pilot_rx.shape[1:]:
        raise ValueError(f"estimate_channel_mmse: pilots {pilots.shape} do not match "
                         f"received grid {pilot_rx.shape}")
    if sigma_sq < 0:
        raise ValueError("estimate_channel_mmse: sigma_sq must be >= 0")

    ref = cplx.const(np.broadcast_to(pilots, pilot_rx.shape))
    num = cplx.sum_axes(cplx.conj_mul(ref, pilot_rx), 1)  # (B, l_fft)
    den = (np.abs(pilots) ** 2).sum(axis=0) + sigma_sq     # (l_fft,)
    inv = ad.constant(np.broadcast_to(1.0 / den, num.shape))
    return cplx.mul_real(num, inv)


def equalize_mmse(data_rx: CplxNode, h_hat: CplxNode, sigma_sq: float) -> CplxNode:
    """Per-subcarrier MMSE equalizer.

        Y_eq[j,k] = conj(H_hat[k]) * Yhat[j,k] / (|H_hat[k]|^2 + sigma_sq)

    ``data_rx`` is (B, n_s, l_fft), ``h_hat`` is (B, l_fft). At sigma_sq = 0 a
    subcarrier with H_hat[k] = 0 yields 0 by convention (the denominator's
    reciprocal is defined as 0 there). Differentiable in both inputs.
    """
    if data_rx.ndim != 3 or h_hat.ndim != 2:
        raise ValueError(f"equalize_mmse: need data_rx (B, n_s, l_fft) and h_hat "
                         f"(B, l_fft), got {data_rx.shape}, {h_hat.shape}")
    if data_rx.shape[0] != h_hat.shape[0] or data_rx.shape[2] != h_hat.shape[1]:
        raise ValueError(f"equalize_mmse: shape mismatch {data_rx.shape} vs {h_hat.shape}")
    if sigma_sq < 0:
        raise ValueError("equalize_mmse: sigma_sq must be >= 0")

    n_s = data_rx.shape[1]
    hexp = cplx.tile(cplx.reshape(h_hat, (h_hat.shape[0], 1, h_hat.shape[1])), 1, n_s)
    denom = ad.add_const(cplx.abs2(hexp), sigma_sq)
    return cplx.mul_real(cplx.conj_mul(hexp, data_rx), ad.safe_recip(denom))
