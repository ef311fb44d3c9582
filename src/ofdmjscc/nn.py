"""Neural-network layers on top of the autodiff engine.

Weight initialization follows the usual GAN-style recipe: zero-mean normals
with standard deviation 0.02 for convolution and dense weights, ones/zeros
for normalization scales/shifts. Layers own their parameters as leaf nodes;
``params()`` yields (name, node) pairs in a fixed order.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node

INIT_STD = 0.02
BN_MOMENTUM = 0.9   # running buffer <- BN_MOMENTUM * buffer + (1 - BN_MOMENTUM) * batch stat


def _init_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    return std * rng.standard_normal(shape)


class Dense:
    def __init__(self, name: str, n_in: int, n_out: int, rng: np.random.Generator):
        self.name = name
        self.w = ad.leaf(_init_normal(rng, (n_in, n_out)), op="param")
        self.b = ad.leaf(np.zeros(n_out), op="param")

    def __call__(self, x: Node) -> Node:
        return ad.bias_last(ad.matmul(x, self.w), self.b)

    def params(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


class Conv2d:
    """3x3-style convolution over (B, H, W, C) with integer stride and
    "same" padding ``((kh - 1) // 2, (kw - 1) // 2)``.

    ``bias=False`` for convolutions feeding a BatchNorm (a bias there is
    cancelled exactly by the mean subtraction).
    """

    def __init__(self, name: str, kh: int, kw: int, c_in: int, c_out: int,
                 rng: np.random.Generator, stride: int = 1, bias: bool = True):
        self.name = name
        self.stride = stride
        self.pad = ((kh - 1) // 2, (kw - 1) // 2)
        self.w = ad.leaf(_init_normal(rng, (kh, kw, c_in, c_out)), op="param")
        self.b = ad.leaf(np.zeros(c_out), op="param") if bias else None

    def __call__(self, x: Node) -> Node:
        out = ad.conv2d(x, self.w, stride=self.stride, pad=self.pad)
        return out if self.b is None else ad.bias_last(out, self.b)

    def params(self):
        out = [(f"{self.name}.w", self.w)]
        if self.b is not None:
            out.append((f"{self.name}.b", self.b))
        return out


class BatchNorm:
    """Per-channel (last axis) batch normalization.

    Training mode normalizes with biased batch statistics over all leading
    axes and updates running buffers (``BN_MOMENTUM``) as a side effect; eval
    mode uses the stored buffers only, so it is deterministic and idempotent.
    ``gamma_init=0`` gives an exact-zero output at initialization, used for
    residual branches that must start as the identity.
    """

    def __init__(self, name: str, channels: int, gamma_init: float = 1.0):
        self.name = name
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

    def params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def buffers(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]
