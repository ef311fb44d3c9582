"""Complex tensors over the real-valued engine: one node with a trailing (re, im) axis.

A complex tensor of shape ``S`` is one float64 node of shape ``S + (2,)``, which
:class:`CplxNode` wraps. The complex ops (``conj_mul``, ``abs2``, ``mul_real``,
``dft``, ``idft``, ``fir``) view the pair axis as complex128 only inside their
forward and VJP; the generic ops (``add``, ``slice_``, ...) apply the engine's
real ops with axes counted over the complex dimensions.

For a real loss the gradient of a packed z is packed the same way, as
dL/dRe z + j dL/dIm z. In that convention the VJP of a complex-linear map A
is A^H: the unitary DFT's VJP is the inverse DFT and the FIR filter's a
correlation with the conjugate taps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node


def _c(x: np.ndarray) -> np.ndarray:
    """float64 (..., 2) -> complex128 (...), a view when ``x`` is contiguous."""
    return np.ascontiguousarray(x).view(np.complex128)[..., 0]


def _r(z: np.ndarray) -> np.ndarray:
    """complex128 (...) -> float64 (..., 2), a view when ``z`` is contiguous."""
    return np.ascontiguousarray(z).view(np.float64).reshape(z.shape + (2,))


class CplxNode:
    """A complex tensor: one node ``z`` of shape ``shape + (2,)``.

    ``CplxNode(re, im)`` packs two real nodes of equal shape (one ``pack``
    node, so gradients reach both); ``CplxNode(z)`` wraps a packed node.
    """

    __slots__ = ("z",)

    def __init__(self, re: Node, im: Node | None = None):
        if im is not None:
            ad._require_same_shape("pack", re, im)
            re = ad.record("pack", (re, im), lambda r, i: np.stack([r, i], axis=-1),
                           lambda g: (g[..., 0], g[..., 1]))
        elif re.value.ndim == 0 or re.value.shape[-1] != 2:
            raise ValueError(f"CplxNode: need a trailing (re, im) axis, got {re.value.shape}")
        self.z = re

    @property
    def shape(self) -> tuple:
        return self.z.value.shape[:-1]

    @property
    def ndim(self) -> int:
        return self.z.value.ndim - 1

    @property
    def value(self) -> np.ndarray:
        """Complex ndarray snapshot of the forward value (read-only view)."""
        return _c(self.z.value)


def const(z) -> CplxNode:
    return CplxNode(ad.constant(_r(np.asarray(z, dtype=np.complex128))))


def conj_mul(a: CplxNode, b: CplxNode) -> CplxNode:
    """Elementwise ``conj(a) * b``."""
    ad._require_same_shape("conj_mul", a.z, b.z)
    av, bv = _c(a.z.value), _c(b.z.value)
    return CplxNode(ad.record("conj_mul", (a.z, b.z), lambda x, y: _r(_c(x).conj() * _c(y)),
                              lambda g: (_r(_c(g).conj() * bv), _r(_c(g) * av))))


def _times_pair(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``s[..., None] * x`` for x (..., 2) as one strided product per component."""
    out = np.empty(x.shape)
    np.multiply(s, x[..., 0], out=out[..., 0])
    np.multiply(s, x[..., 1], out=out[..., 1])
    return out


def abs2(a: CplxNode) -> Node:
    """Squared amplitude ``re**2 + im**2`` as a real node of shape ``a.shape``."""
    av = a.z.value
    return ad.record("abs2", (a.z,), lambda x: x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1],
                     lambda g: (_times_pair(2.0 * g, av),))


def mul_real(a: CplxNode, s: Node) -> CplxNode:
    """Multiply by a real node of shape ``a.shape``."""
    if s.value.shape != a.shape:
        raise ValueError(f"mul_real: {a.z.shape} * {s.shape}")
    av, sv = a.z.value, s.value
    return CplxNode(ad.record(
        "mul_real", (a.z, s), lambda x, t: _times_pair(t, x),
        lambda g: (_times_pair(sv, g), g[..., 0] * av[..., 0] + g[..., 1] * av[..., 1])))


def _unitary(op: str, a: CplxNode, fwd, inv) -> CplxNode:
    return CplxNode(ad.record(op, (a.z,), lambda x: _r(fwd(_c(x), norm="ortho")),
                              lambda g: (_r(inv(_c(g), norm="ortho")),)))


def dft(a: CplxNode) -> CplxNode:
    """Unitary DFT along the last axis; its VJP is the inverse DFT."""
    return _unitary("dft", a, np.fft.fft, np.fft.ifft)


def idft(a: CplxNode) -> CplxNode:
    """Unitary inverse DFT along the last axis; its VJP is the DFT."""
    return _unitary("idft", a, np.fft.ifft, np.fft.fft)


def fir(y: CplxNode, taps: np.ndarray) -> CplxNode:
    """Leading-aligned FIR filter of (B, T) ``y`` with constant complex (B, L) taps:
    sample n of row b is ``sum_l taps[b, l] * y[b, n - l]`` (0 for n < l), n < T.
    Each direction is one batched product of the taps with the (B, T, L) windows of
    a zero-bordered copy of its input, a read-only strided view of that copy."""
    h = np.asarray(taps, dtype=np.complex128)
    if y.ndim != 2 or h.ndim != 2 or h.shape[0] != y.shape[0] or h.shape[1] > y.shape[1]:
        raise ValueError(f"fir: need y(B,T), taps(B,L<=T); got {y.shape}, {h.shape}")
    (B, T), L = y.shape, h.shape[1]

    def windows(v: np.ndarray, lead: int) -> np.ndarray:
        buf = np.zeros((B, T + L - 1), dtype=np.complex128)
        buf[:, lead:lead + T] = _c(v)
        return np.lib.stride_tricks.as_strided(buf, (B, T, L), (*buf.strides, buf.strides[1]),
                                               writeable=False)

    return CplxNode(ad.record(
        "fir", (y.z,), lambda x: _r((windows(x, L - 1) @ h[:, ::-1, None])[..., 0]),
        lambda g: (_r((windows(g, 0) @ h.conj()[:, :, None])[..., 0]),)))


def add(a: CplxNode, b: CplxNode) -> CplxNode:
    return CplxNode(ad.add(a.z, b.z))


def sub(a: CplxNode, b: CplxNode) -> CplxNode:
    return CplxNode(ad.sub(a.z, b.z))


def scale_first(a: CplxNode, s: Node) -> CplxNode:
    """Multiply row ``i`` by ``s[i]``; ``s`` is real of shape (B,)."""
    return CplxNode(ad.scale_first(a.z, s))


def sum_axes(a: CplxNode, axes: int | tuple) -> CplxNode:
    axes = (axes,) if isinstance(axes, int) else axes
    return CplxNode(ad.sum_axes(a.z, tuple(ax % a.ndim for ax in axes)))


def reshape(a: CplxNode, shape: tuple) -> CplxNode:
    return CplxNode(ad.reshape(a.z, tuple(shape) + (2,)))


def slice_(a: CplxNode, key) -> CplxNode:
    """Basic slicing of the complex axes (``slice``/int/Ellipsis); the index
    appended for the pair axis keeps it whole, also after an Ellipsis."""
    key = key if isinstance(key, tuple) else (key,)
    return CplxNode(ad.slice_(a.z, key + (slice(None),)))


def concat(parts: Sequence[CplxNode], axis: int) -> CplxNode:
    return CplxNode(ad.concat([p.z for p in parts], axis % parts[0].ndim))


def tile(a: CplxNode, axis: int, reps: int) -> CplxNode:
    return CplxNode(ad.tile(a.z, axis % a.ndim, reps))
