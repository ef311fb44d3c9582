"""Complex tensors over the engine: one node with a trailing (re, im) axis.

A complex tensor of shape ``S`` is one float64 node of shape ``S + (2,)``
(see :mod:`.autodiff`, which holds the fused complex ops). :class:`CplxNode`
gives such a node its complex face, and the functions here apply the engine's
ops to CplxNodes, with axes counted over the complex dimensions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node


class CplxNode:
    """A complex tensor: one node ``z`` of shape ``shape + (2,)``.

    ``CplxNode(re, im)`` packs two real nodes of equal shape (one ``pack``
    node, so gradients reach both); ``CplxNode(z)`` wraps a packed node.
    """

    __slots__ = ("z",)

    def __init__(self, re: Node, im: Node | None = None):
        if im is None:
            ad._require_packed("CplxNode", re)
        self.z = re if im is None else ad.pack(re, im)

    @property
    def shape(self) -> tuple:
        return self.z.value.shape[:-1]

    @property
    def ndim(self) -> int:
        return self.z.value.ndim - 1

    @property
    def value(self) -> np.ndarray:
        """Complex ndarray snapshot of the forward value (read-only view)."""
        return ad._c(self.z.value)


def const(z) -> CplxNode:
    return CplxNode(ad.constant(ad._r(np.asarray(z, dtype=np.complex128))))


def add(a: CplxNode, b: CplxNode) -> CplxNode:
    return CplxNode(ad.add(a.z, b.z))


def sub(a: CplxNode, b: CplxNode) -> CplxNode:
    return CplxNode(ad.sub(a.z, b.z))


def conj_mul(a: CplxNode, b: CplxNode) -> CplxNode:
    """``conj(a) * b``."""
    return CplxNode(ad.conj_mul(a.z, b.z))


def mul_real(a: CplxNode, s: Node) -> CplxNode:
    """Multiply by a real node of shape ``a.shape``."""
    return CplxNode(ad.mul_real(a.z, s))


def scale_first(a: CplxNode, s: Node) -> CplxNode:
    """Multiply row ``i`` by ``s[i]``; ``s`` is real of shape (B,)."""
    return CplxNode(ad.scale_first(a.z, s))


def dft(a: CplxNode) -> CplxNode:
    """Unitary DFT along the last axis."""
    return CplxNode(ad.dft(a.z))


def idft(a: CplxNode) -> CplxNode:
    """Unitary inverse DFT along the last axis."""
    return CplxNode(ad.idft(a.z))


def fir(y: CplxNode, taps: np.ndarray) -> CplxNode:
    """Leading-aligned FIR filter of (B, T) ``y`` with complex (B, L) taps."""
    return CplxNode(ad.fir(y.z, taps))


def abs2(a: CplxNode) -> Node:
    """Squared amplitude ``|a|^2`` as a real node of shape ``a.shape``."""
    return ad.abs2(a.z)


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
