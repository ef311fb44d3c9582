"""Neural-network layers on top of the autodiff engine.

Weight initialization follows the usual GAN-style recipe: zero-mean normals
with standard deviation 0.02 for convolution and dense weights, ones/zeros
for normalization scales/shifts. Layers own their parameters as leaf nodes,
and :class:`Module` finds them by walking attributes.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node

INIT_STD = 0.02
BN_MOMENTUM = 0.9   # running buffer <- BN_MOMENTUM * buffer + (1 - BN_MOMENTUM) * batch stat


def _init_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    return std * rng.standard_normal(shape)


class Module:
    """A layer or block whose parameters are found by walking its attributes.

    ``params()`` gives the ``param`` leaves among its attributes and its
    submodules' in the order they were set, named by attribute path
    (``enc.res.conv_a.w``): the checkpoint layout and Adam's update order.
    ``buffers()`` lists the plain-array attributes a class names in ``BUFFERS``.
    """

    BUFFERS: tuple[str, ...] = ()

    def _walk(self, prefix: str = ""):
        """(path, owner, attribute, value) of every non-module attribute below."""
        for k, v in vars(self).items():
            if isinstance(v, Module):
                yield from v._walk(f"{prefix}{k}.")
            else:
                yield prefix + k, self, k, v

    def params(self) -> list[tuple[str, Node]]:
        return [(path, v) for path, _, _, v in self._walk()
                if isinstance(v, Node) and v.op == "param"]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(path, v) for path, owner, k, v in self._walk() if k in owner.BUFFERS]

    def n_params(self, prefix: str = "") -> int:
        return sum(p.value.size for name, p in self.params() if name.startswith(prefix))

    def load_state(self, params: list[tuple[str, np.ndarray]],
                   buffers: list[tuple[str, np.ndarray]]) -> None:
        """Names and shapes must match :meth:`params` (in order) and :meth:`buffers`."""
        own = self.params()
        if [(n, p.shape) for n, p in own] != [(n, np.shape(a)) for n, a in params]:
            raise ValueError("load_state: parameters do not match this architecture")
        want = {(n, b.shape) for n, b in self.buffers()}
        got = {(n, np.shape(b)) for n, b in buffers}
        if got != want:
            raise ValueError(f"load_state: buffers do not match: {sorted(got ^ want)}")
        for (_, node), (_, arr) in zip(own, params):
            ad.assign(node, arr)
        bmap = dict(buffers)
        for path, owner, k, _ in self._walk():
            if k in owner.BUFFERS:
                setattr(owner, k, np.array(bmap[path]))


class Dense(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = ad.leaf(_init_normal(rng, (n_in, n_out)), op="param")
        self.b = ad.leaf(np.zeros(n_out), op="param")

    def __call__(self, x: Node) -> Node:
        return ad.bias_last(ad.matmul(x, self.w), self.b)


class Conv2d(Module):
    """3x3-style convolution over (B, H, W, C) with integer stride and
    "same" padding ``((kh - 1) // 2, (kw - 1) // 2)``.

    ``bias=False`` for convolutions feeding a BatchNorm (a bias there is
    cancelled exactly by the mean subtraction).
    """

    def __init__(self, kh: int, kw: int, c_in: int, c_out: int,
                 rng: np.random.Generator, stride: int = 1, bias: bool = True):
        self.stride = stride
        self.pad = ((kh - 1) // 2, (kw - 1) // 2)
        self.w = ad.leaf(_init_normal(rng, (kh, kw, c_in, c_out)), op="param")
        self.b = ad.leaf(np.zeros(c_out), op="param") if bias else None

    def __call__(self, x: Node) -> Node:
        out = ad.conv2d(x, self.w, stride=self.stride, pad=self.pad)
        return out if self.b is None else ad.bias_last(out, self.b)


class BatchNorm(Module):
    """Per-channel (last axis) batch normalization.

    Training mode normalizes with biased batch statistics over all leading
    axes and updates running buffers (``BN_MOMENTUM``) as a side effect; eval
    mode uses the stored buffers only, so it is deterministic and idempotent.
    ``gamma_init=0`` gives an exact-zero output at initialization, used for
    residual branches that must start as the identity.
    """

    BUFFERS = ("running_mean", "running_var")

    def __init__(self, channels: int, gamma_init: float = 1.0):
        self.gamma = ad.leaf(np.full(channels, float(gamma_init)), op="param")
        self.beta = ad.leaf(np.zeros(channels), op="param")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: Node, train: bool) -> Node:
        out, mean, var = ad.batch_norm(x, self.gamma, self.beta,
                                       None if train else (self.running_mean, self.running_var))
        if train:
            m = BN_MOMENTUM
            self.running_mean = m * self.running_mean + (1 - m) * mean
            self.running_var = m * self.running_var + (1 - m) * var
        return out
