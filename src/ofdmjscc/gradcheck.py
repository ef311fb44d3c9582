"""Finite-difference verification of every differentiable operation.

One probe, :func:`finite_diff_check`, compares the analytic gradient of a
scalar loss with central differences, perturbing graph leaves in place. Every
op is one entry of the :func:`op_checks` table: the op gets one leaf per input
array and its output is scalarized with a fixed random weighting. The chain
checks run the same probe on sampled coordinates of every parameter tensor of
a tiny transceiver and so validate the full training gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import default_rng

from . import autodiff as ad
from . import cplx
from .autodiff import Node
from .channel import apply_channel, awgn, sample_channel, snr_to_sigma_sq
from .config import ModelConfig, OfdmConfig
from .model import build_model
from .ofdm import assemble_packet, clip, disassemble_packet, make_pilots, normalize_power
from .receiver import equalize_mmse, estimate_channel_mmse
from .training import mse_loss

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-6
# The end-to-end check perturbs parameters whose effect is amplified by the
# 1/sigma of freshly initialized batch normalization (sigma ~ 1e-3), so a
# 1e-5 step walks activations across ReLU kinks and the central difference
# stops describing the local slope. Two decades smaller keeps the probe
# inside the smooth region while round-off (~1e-10 absolute here) stays far
# below the tolerance.
CHAIN_STEP = 1e-7


@dataclass
class GradCheckReport:
    name: str
    n_coords: int
    max_rel_err: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<28s} coords={self.n_coords:<6d} "
                f"max_rel_err={self.max_rel_err:.3e}")


def finite_diff_check(loss_fn: Callable[[], Node], leaves: Sequence[Node], *,
                      step: float, tol: float, name: str,
                      coords_per_leaf: int | None = None,
                      rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare d(loss_fn())/d(leaf) against central finite differences.

    ``loss_fn`` builds a scalar node from the current values of ``leaves``
    and must be deterministic (any randomness frozen); this is verified by
    evaluating it twice at the base point. Each probed coordinate is moved by
    ``+step`` and ``-step`` through :func:`autodiff.assign`, and every leaf is
    restored afterwards, also when ``loss_fn`` raises. All coordinates are
    probed, or ``coords_per_leaf`` of each leaf drawn without replacement from
    ``rng``. Pass criterion per coordinate: see :func:`autodiff.grad_errors`;
    the report gives the worst failing coordinate, else the largest error.
    """
    if coords_per_leaf is not None and rng is None:
        raise ValueError("finite_diff_check: coords_per_leaf needs an rng")
    loss = loss_fn()
    if loss.value.size != 1:
        raise ValueError("finite_diff_check: loss_fn must return a scalar node")
    v0 = float(loss.value)
    if v0 != float(loss_fn().value):
        raise RuntimeError(f"finite_diff_check: {name} is nondeterministic at the base point")
    grads = ad.backward(loss)

    analytic, fd = [], []
    for node in leaves:
        base = node.value
        coords = range(base.size) if coords_per_leaf is None else \
            rng.choice(base.size, size=min(coords_per_leaf, base.size), replace=False)
        try:
            for idx in coords:
                pert = np.array(base).reshape(-1)
                pert[idx] += step
                ad.assign(node, pert.reshape(base.shape))
                hi = float(loss_fn().value)
                pert[idx] -= 2 * step
                ad.assign(node, pert.reshape(base.shape))
                lo = float(loss_fn().value)
                fd.append((hi - lo) / (2 * step))
                analytic.append(grads[node].reshape(-1)[idx])
        finally:
            ad.assign(node, base)

    rel_err, _, ok = ad.grad_errors(np.array(analytic), np.array(fd), tol,
                                    ad.fd_noise_floor(v0, step))
    worst = rel_err if ok.all() else rel_err[~ok]
    return GradCheckReport(name, int(rel_err.size), float(worst.max()), bool(ok.all()))


def _draws(seed: int, *shapes) -> list[np.ndarray]:
    """One ``standard_normal`` draw of the summed size, split into ``shapes``."""
    sizes = [int(np.prod(s, dtype=int)) for s in shapes]
    flat = default_rng(seed).standard_normal(sum(sizes))
    return [part.reshape(s) for part, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]


def op_checks() -> list[tuple]:
    """The table of op entries ``(name, op, inputs[, seed])``.

    ``op`` maps one leaf per array of ``inputs`` to a node. That node is
    scalarized with ``standard_normal`` weights drawn from ``seed`` (default
    99), or taken as the loss itself where ``seed`` is None.
    """
    def packed(fn):      # fn on CplxNodes as an op on packed (..., 2) leaves
        return lambda *xs: fn(*map(cplx.CplxNode, xs)).z

    def dsp(name, fn, seed, shape=None, point=None):
        point = default_rng(seed).standard_normal(shape + (2,)) if point is None else point
        return name, packed(fn), [point], 100 + seed

    def conv(x, w, stride):
        return ad.conv2d(x, w, stride=stride, pad=(1, 1))

    def batchnorm(stats):
        return lambda x, gamma, beta: ad.batch_norm(x, gamma, beta, stats)[0]

    conv_shapes = ((2, 6, 5, 2), (3, 3, 2, 3))
    bn_inputs = [default_rng(33).standard_normal((4, 5, 5, 3)),
                 default_rng(31).uniform(0.5, 1.5, 3), default_rng(32).standard_normal(3)]
    fir_taps = sample_channel(default_rng(26), 3, 2.0, batch=2)
    target = default_rng(44).uniform(0, 1, (2, 3, 3, 1))

    ocfg = OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=3, pilot_seed=7)
    pilots = make_pilots(ocfg.pilot_seed, ocfg.n_p, ocfg.l_fft)
    taps = sample_channel(default_rng(39), 3, 2.0, batch=2)
    noise = cplx.CplxNode(ad.constant(0.1 * default_rng(40).standard_normal((2, 14, 2))))
    # components clearly below / above the clipping threshold 1
    clip_point = default_rng(37).standard_normal((2, 12, 2)) * 1.1
    clip_point[np.abs(clip_point) < 0.15] += 0.3

    return [
        # --- elementwise primitives ---------------------------------------
        ("add", ad.add, _draws(3, (3, 4), (3, 4))),
        ("sub", ad.sub, _draws(3, (3, 4), (3, 4))),
        ("mul", ad.mul, _draws(3, (3, 4), (3, 4))),
        ("add_const", lambda x: ad.add_const(x, 2.5), _draws(5, (10,))),
        ("mul_const", lambda x: ad.mul_const(x, -1.7), _draws(6, (10,))),
        ("sqrt", ad.sqrt, [default_rng(7).uniform(0.5, 3.0, size=12)]),
        ("recip", ad.recip, [default_rng(8).uniform(0.5, 3.0, size=12)]),
        ("safe_recip", ad.safe_recip, [default_rng(9).uniform(0.4, 2.0, size=12)]),
        ("relu", ad.relu,
         [np.r_[default_rng(10).uniform(0.2, 2.0, 6), default_rng(11).uniform(-2.0, -0.2, 6)]]),
        ("sigmoid", ad.sigmoid, [default_rng(12).uniform(-4, 4, size=10)]),
        # --- reductions / shape -------------------------------------------
        ("sum_all", lambda x: ad.sum_all(ad.mul(x, x)), _draws(13, (3, 5)), None),
        ("sum_axes", lambda x: ad.sum_axes(x, (0, 2)), _draws(14, (3, 4, 2))),
        ("reshape", lambda x: ad.reshape(x, (2, 6)), _draws(15, (3, 4))),
        ("slice", lambda x: ad.slice_(x, (slice(1, 3), slice(None, None, 2))),
         _draws(16, (4, 6))),
        ("concat", lambda x: ad.concat([ad.slice_(x, (slice(0, 2),)), ad.slice_(x, (slice(2, 5),)),
                                        ad.slice_(x, (slice(5, None),))], axis=0),
         _draws(17, (7, 3))),
        ("tile", lambda x: ad.tile(ad.reshape(x, (3, 1, 4)), 1, 5),
         _draws(18, (3, 4))),
        ("moveaxis", lambda x: ad.moveaxis(x, 1, -1), _draws(46, (2, 3, 4, 2))),
        ("matmul", ad.matmul, _draws(19, (2, 3, 4), (4, 5))),
        # --- broadcast helpers ----------------------------------------------
        ("bias_last", ad.bias_last, _draws(20, (2, 3, 4), (4,))),
        ("scale_first", ad.scale_first, _draws(22, (3, 4, 2), (3,))),
        # --- DSP / NN primitives --------------------------------------------
        # squared amplitudes straddling the threshold, away from the boundary
        ("clip_scale", lambda x: ad.mul(ad.clip_scale(x, 1.0), x),
         [np.r_[default_rng(24).uniform(0.1, 0.8, 6), default_rng(25).uniform(1.3, 4.0, 6)]]),
        ("conv2d", lambda x, w: conv(x, w, 1), _draws(28, *conv_shapes)),
        ("conv2d_stride2", lambda x, w: conv(x, w, 2), _draws(29, *conv_shapes)),
        # kh*kw*Cout <= Cin: the kn2row layout
        ("conv2d_narrow", lambda x, w: conv(x, w, 1), _draws(54, (2, 5, 4, 9), (3, 3, 9, 1))),
        ("conv_up2x", ad.conv_up2x, _draws(30, (2, 3, 4, 2), (3, 3, 2, 3))),
        ("batchnorm_train", batchnorm(None), bn_inputs),
        ("batchnorm_eval", batchnorm((default_rng(52).standard_normal(3),
                                      default_rng(53).uniform(0.5, 1.5, 3))), bn_inputs),
        # --- complex primitives: packed (..., 2) inputs -----------------------
        ("pack", lambda re, im: cplx.CplxNode(re, im).z, _draws(47, (3, 4), (3, 4))),
        ("conj_mul", packed(cplx.conj_mul), _draws(49, (3, 4, 2), (3, 4, 2))),
        ("mul_real", lambda a, s: cplx.mul_real(cplx.CplxNode(a), s).z,
         _draws(50, (3, 4, 2), (3, 4))),
        ("abs2", lambda x: cplx.abs2(cplx.CplxNode(x)), _draws(51, (3, 8, 2))),
        ("dft", packed(cplx.dft), _draws(34, (3, 8, 2))),
        ("idft", packed(cplx.idft), _draws(35, (3, 8, 2))),
        ("fir", packed(lambda y: cplx.fir(y, fir_taps)), _draws(27, (2, 12, 2))),
        # --- DSP composites: a complex input is a packed (..., 2) point -------
        dsp("normalize_power", lambda y: normalize_power(y)[0], 36, (2, 10)),
        dsp("clip", lambda y: clip(y, 1.0), 37, point=clip_point),
        dsp("assemble_disassemble", lambda g: cplx.concat(disassemble_packet(
            assemble_packet(g, pilots, ocfg, clip_ratio=1.2).tx, ocfg), axis=1),
            38, (2, ocfg.n_s, ocfg.l_fft)),
        dsp("apply_channel", lambda y: cplx.add(apply_channel(y, taps, 0.0), noise), 41, (2, 14)),
        dsp("estimate_channel_mmse",
            lambda p: estimate_channel_mmse(p, pilots, snr_to_sigma_sq(10.0)),
            42, (2, ocfg.n_p, ocfg.l_fft)),
        # row 0 of the point is the channel estimate, rows 1.. the data grid
        dsp("equalize_mmse", lambda x: equalize_mmse(
            cplx.slice_(x, (slice(None), slice(1, None))), cplx.slice_(x, (slice(None), 0)),
            snr_to_sigma_sq(8.0)), 43, (2, 1 + ocfg.n_s, ocfg.l_fft)),
        ("mse_loss", lambda x: mse_loss(x, target),
         [default_rng(45).uniform(0, 1, (2, 3, 3, 1))], None),
    ]


def check_op(name: str, op: Callable[..., Node], inputs: Sequence[np.ndarray],
             seed: int | None = 99) -> GradCheckReport:
    """Run one :func:`op_checks` entry through :func:`finite_diff_check`."""
    leaves = [ad.leaf(a) for a in inputs]

    def loss_fn() -> Node:
        out = op(*leaves)
        if seed is None:
            return out
        weights = default_rng(seed).standard_normal(out.value.shape)
        return ad.sum_all(ad.mul(out, ad.constant(weights)))

    return finite_diff_check(loss_fn, leaves, step=DEFAULT_STEP, tol=DEFAULT_TOL, name=name)


def tiny_model_config(variant: str = "explicit") -> ModelConfig:
    """The 8x8x1, l_fft 8 transceiver of the chain checks (and of the tests)."""
    return ModelConfig(variant=variant, image_h=8, image_w=8, image_c=1,
                       width1=4, width2=6, subnet_hidden=4, head_hidden=8, front_hidden=8,
                       ofdm=OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=2, pilot_seed=7))


def check_model_params(variant: str = "explicit") -> GradCheckReport:
    """End-to-end check: d(loss)/d(theta) for 3 sampled coordinates of every
    parameter tensor of a tiny model, through the complete train-mode chain
    (encode, OFDM, clipping, multipath channel, noise, receiver, decode)."""
    model = build_model(tiny_model_config(variant), seed=11)
    r = default_rng(1000)
    x = r.uniform(0.1, 0.9, (2, 8, 8, 1))
    taps = sample_channel(r, 3, 2.0, batch=2)
    sigma_sq = snr_to_sigma_sq(10.0)
    noise = awgn(r, (2, model.rx_len), sigma_sq)

    def loss_fn() -> Node:
        recon, _ = model.forward(x, taps, sigma_sq, clip_ratio=1.3, train=True, noise=noise)
        return mse_loss(recon, x)

    return finite_diff_check(loss_fn, [node for _, node in model.params()], step=CHAIN_STEP,
                             tol=DEFAULT_TOL, name=f"{variant}-chain(params)",
                             coords_per_leaf=3, rng=r)


def run_all() -> list[GradCheckReport]:
    return [check_op(*entry) for entry in op_checks()] + \
        [check_model_params(variant) for variant in ("direct", "implicit", "explicit")]
