"""OFDM transmit/receive chain: unitary (I)DFT, cyclic prefix, pilots,
power normalization and amplitude clipping.

Conventions (fixed across the package):

* DFT and IDFT are both scaled by ``1/sqrt(N)``, so they are unitary and
  Parseval holds exactly in both directions.
* A packet is ``n_p`` pilot symbols followed by ``n_s`` data symbols, each an
  ``l_fft``-point symbol with an ``l_cp``-sample cyclic prefix, serialized
  row-major and normalized to unit average power *before* clipping.
* Amplitude clipping ``y -> min(A, rho*sqrt(P_s)) * exp(j*phase)`` preserves
  phase; the backward pass uses the exact Jacobian of that map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import get_args, get_type_hints

import numpy as np

from . import autodiff as ad
from . import cplx
from .autodiff import Node
from .cplx import CplxNode, dft, idft

P_S = 1.0  # nominal average transmit power after normalization

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def field_types(cls) -> dict[str, tuple]:
    """Each field of dataclass ``cls`` and the types its annotation allows: ``X | None``
    allows None, a float field also takes an int, and a bool is never a number."""
    hints = {name: get_args(tp) or (tp,) for name, tp in get_type_hints(cls).items()}
    return {name: tps + (int,) if float in tps else tps for name, tps in hints.items()}


def check_field_types(cfg) -> None:
    """Raise ``ValueError`` for a dataclass field of a type its annotation does not allow."""
    for name, types in field_types(type(cfg)).items():
        if type(v := getattr(cfg, name)) not in types:
            raise ValueError(f"{name} must be {'|'.join(t.__name__ for t in types)}, got {v!r}")


@dataclass(frozen=True)
class OfdmConfig:
    """Static dimensions of the OFDM frame."""

    l_fft: int = 64
    l_cp: int = 16
    n_p: int = 2
    n_s: int = 6
    pilot_seed: int = 7

    def __post_init__(self):
        check_field_types(self)
        if self.l_fft < 2:
            raise ValueError(f"l_fft must be >= 2, got {self.l_fft}")
        if not 0 <= self.l_cp < self.l_fft:
            raise ValueError(f"l_cp must be in [0, l_fft), got {self.l_cp}")
        if self.n_p < 1 or self.n_s < 1:
            raise ValueError("need at least one pilot and one data symbol")

    @property
    def rows(self) -> int:
        return self.n_p + self.n_s

    @property
    def symbol_len(self) -> int:
        return self.l_fft + self.l_cp

    @property
    def packet_len(self) -> int:
        return self.rows * self.symbol_len


def channel_uses_per_pixel(cfg: OfdmConfig, height: int, width: int, channels: int) -> float:
    """Complex channel uses per source pixel for one image per packet."""
    return cfg.packet_len / float(height * width * channels)


def add_cp(x: CplxNode, l_cp: int) -> CplxNode:
    """Prepend the last ``l_cp`` samples of each symbol (last axis)."""
    n = x.shape[-1]
    if not 0 <= l_cp < n:
        raise ValueError(f"add_cp: l_cp={l_cp} out of range for symbol length {n}")
    if l_cp == 0:
        return x
    key = (Ellipsis, slice(n - l_cp, None))
    return cplx.concat([cplx.slice_(x, key), x], axis=-1)


def remove_cp(x: CplxNode, l_cp: int) -> CplxNode:
    return cplx.slice_(x, (Ellipsis, slice(l_cp, None)))


def make_pilots(seed: int, n_p: int, l_fft: int) -> np.ndarray:
    """Known pilot grid: one QPSK row repeated ``n_p`` times.

    Procedure (fixed; receivers regenerate the same grid from the seed):
    ``rng = np.random.default_rng(seed)`` draws ``l_fft`` integers in [0, 4)
    indexing the unit-modulus set {(+-1 +- 1j)/sqrt(2)}.
    """
    rng = np.random.default_rng(seed)
    row = _QPSK[rng.integers(0, 4, size=l_fft)]
    return np.tile(row, (n_p, 1))


def normalize_power(y: CplxNode) -> tuple[CplxNode, Node]:
    """Scale each signal (indexed by the leading axis) to unit average power.

    Returns the scaled signals and their per-row gain node 1/sqrt(mean |y|^2).
    """
    if y.ndim < 2:
        raise ValueError(f"normalize_power: need (B, ...) signals, got {y.shape}")
    p = ad.mul_const(ad.sum_axes(cplx.abs2(y), tuple(range(1, y.ndim))),
                     1.0 / math.prod(y.shape[1:]))
    if np.any(p.value == 0.0):
        raise ValueError("normalize_power: all-zero signal")
    gain = ad.recip(ad.sqrt(p))
    return cplx.scale_first(y, gain), gain


def clip(y: CplxNode, rho: float) -> CplxNode:
    """Amplitude clipping at threshold ``rho * sqrt(P_S)``; phase preserved.

    ``rho = inf`` is the identity. Gradients follow the exact Jacobian:
    identity below threshold, ``(t/A)(I - a a^T / A^2)`` above it.
    """
    if rho == math.inf:
        return y
    if not (rho > 0.0):
        raise ValueError(f"clip: rho must be > 0 or inf, got {rho}")
    t = rho * math.sqrt(P_S)
    s = ad.clip_scale(cplx.abs2(y), t)
    return cplx.mul_real(y, s)


def papr_db(y: np.ndarray) -> np.ndarray | float:
    """Peak-to-average power ratio (dB) along the last axis of a complex array."""
    y = np.asarray(y)
    p = np.abs(y) ** 2
    mean = p.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("papr_db: zero-power signal")
    out = 10.0 * np.log10(p.max(axis=-1) / mean)
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


@dataclass(frozen=True)
class TxPacket:
    """Transmitted packet plus the pre-clipping waveform (for PAPR reporting)."""

    tx: CplxNode        # (B, packet_len), after normalize + clip
    preclip: CplxNode   # (B, packet_len), after normalize only
    gain: np.ndarray    # (B,), the power-normalization factor: preclip = gain * raw


def assemble_packet(grid: CplxNode, pilots: np.ndarray, cfg: OfdmConfig,
                    clip_ratio: float = math.inf) -> TxPacket:
    """Build the transmit waveform from a batch of data grids.

    ``grid`` has shape (B, n_s, l_fft); ``pilots`` is the known (n_p, l_fft)
    complex grid. Pipeline: per-row IDFT -> cyclic prefix -> serialize
    (pilots first) -> normalize to P_s = 1 -> clip.
    """
    if grid.ndim != 3 or grid.shape[1:] != (cfg.n_s, cfg.l_fft):
        raise ValueError(f"assemble_packet: grid must be (B, {cfg.n_s}, {cfg.l_fft}), "
                         f"got {grid.shape}")
    if pilots.shape != (cfg.n_p, cfg.l_fft):
        raise ValueError(f"assemble_packet: pilots must be ({cfg.n_p}, {cfg.l_fft}), "
                         f"got {pilots.shape}")
    b = grid.shape[0]
    prow = cplx.const(np.broadcast_to(pilots, (b,) + pilots.shape))
    waves = add_cp(idft(cplx.concat([prow, grid], axis=1)), cfg.l_cp)
    norm, gain = normalize_power(cplx.reshape(waves, (b, cfg.packet_len)))
    return TxPacket(tx=clip(norm, clip_ratio), preclip=norm, gain=gain.value)


def disassemble_packet(rx: CplxNode, cfg: OfdmConfig) -> tuple[CplxNode, CplxNode]:
    """Split a received packet back into frequency-domain grids.

    Returns ``(pilot_grid, data_grid)`` of shapes (B, n_p, l_fft) and
    (B, n_s, l_fft): reshape to symbols, drop each cyclic prefix, DFT.
    """
    if rx.ndim != 2 or rx.shape[1] != cfg.packet_len:
        raise ValueError(f"disassemble_packet: rx must be (B, {cfg.packet_len}), got {rx.shape}")
    symbols = cplx.reshape(rx, (rx.shape[0], cfg.rows, cfg.symbol_len))
    grids = dft(remove_cp(symbols, cfg.l_cp))
    return (cplx.slice_(grids, (slice(None), slice(0, cfg.n_p))),
            cplx.slice_(grids, (slice(None), slice(cfg.n_p, None))))
