"""Complex tensors as (real, imaginary) pairs of autodiff nodes.

The engine differentiates real arrays only; complex arithmetic is composed
from real primitives, so gradients of real-valued losses flow through both
planes without any complex-calculus conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node


@dataclass(frozen=True)
class CplxNode:
    """A complex-valued tensor: two real nodes of identical shape."""

    re: Node
    im: Node

    def __post_init__(self):
        if self.re.value.shape != self.im.value.shape:
            raise ValueError(f"CplxNode: plane shapes differ "
                             f"{self.re.value.shape} vs {self.im.value.shape}")

    @property
    def shape(self) -> tuple:
        return self.re.value.shape

    @property
    def value(self) -> np.ndarray:
        """Complex ndarray snapshot of the forward value (read-only view)."""
        return self.re.value + 1j * self.im.value


def const(z) -> CplxNode:
    z = np.asarray(z, dtype=np.complex128)
    return CplxNode(ad.constant(z.real), ad.constant(z.imag))


def add(a: CplxNode, b: CplxNode) -> CplxNode:
    return CplxNode(ad.add(a.re, b.re), ad.add(a.im, b.im))


def sub(a: CplxNode, b: CplxNode) -> CplxNode:
    return CplxNode(ad.sub(a.re, b.re), ad.sub(a.im, b.im))


def mul(a: CplxNode, b: CplxNode) -> CplxNode:
    """(ar + j ai)(br + j bi) via four real products."""
    re = ad.sub(ad.mul(a.re, b.re), ad.mul(a.im, b.im))
    im = ad.add(ad.mul(a.re, b.im), ad.mul(a.im, b.re))
    return CplxNode(re, im)


def conj_mul(a: CplxNode, b: CplxNode) -> CplxNode:
    """conj(a) * b."""
    re = ad.add(ad.mul(a.re, b.re), ad.mul(a.im, b.im))
    im = ad.sub(ad.mul(a.re, b.im), ad.mul(a.im, b.re))
    return CplxNode(re, im)


def abs2(a: CplxNode) -> Node:
    """Squared amplitude |a|^2 as a real node."""
    return ad.add(ad.mul(a.re, a.re), ad.mul(a.im, a.im))


def mul_real(a: CplxNode, s: Node) -> CplxNode:
    """Elementwise multiply by a real node of the same shape."""
    return CplxNode(ad.mul(a.re, s), ad.mul(a.im, s))


def scale_first(a: CplxNode, s: Node) -> CplxNode:
    return CplxNode(ad.scale_first(a.re, s), ad.scale_first(a.im, s))


def scale_all(a: CplxNode, s: Node) -> CplxNode:
    return CplxNode(ad.scale_all(a.re, s), ad.scale_all(a.im, s))


def mul_const(a: CplxNode, c: float) -> CplxNode:
    return CplxNode(ad.mul_const(a.re, c), ad.mul_const(a.im, c))


def sum_axes(a: CplxNode, axes) -> CplxNode:
    return CplxNode(ad.sum_axes(a.re, axes), ad.sum_axes(a.im, axes))


def reshape(a: CplxNode, shape: tuple) -> CplxNode:
    return CplxNode(ad.reshape(a.re, shape), ad.reshape(a.im, shape))


def slice_(a: CplxNode, key) -> CplxNode:
    return CplxNode(ad.slice_(a.re, key), ad.slice_(a.im, key))


def concat(parts: Sequence[CplxNode], axis: int) -> CplxNode:
    return CplxNode(ad.concat([p.re for p in parts], axis),
                    ad.concat([p.im for p in parts], axis))


def tile(a: CplxNode, axis: int, reps: int) -> CplxNode:
    return CplxNode(ad.tile(a.re, axis, reps), ad.tile(a.im, axis, reps))


def matmul_const(a: CplxNode, mat: np.ndarray) -> CplxNode:
    """``a @ mat`` for a constant complex matrix (e.g. a DFT matrix)."""
    mr = ad.constant(np.ascontiguousarray(mat.real))
    mi = ad.constant(np.ascontiguousarray(mat.imag))
    re = ad.sub(ad.matmul(a.re, mr), ad.matmul(a.im, mi))
    im = ad.add(ad.matmul(a.re, mi), ad.matmul(a.im, mr))
    return CplxNode(re, im)
