"""Finite-difference verification of every differentiable operation.

Each registered check builds a small deterministic problem, scalarizes the
op's output with a fixed random weighting and compares the analytic gradient
against central differences (see :func:`autodiff.finite_diff_check`). The
end-to-end check perturbs sampled coordinates of every parameter tensor of a
tiny transceiver and validates the full training gradient.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from . import cplx
from .autodiff import GradCheckReport, Node, finite_diff_check
from .channel import apply_channel, awgn, sample_channel, snr_to_sigma_sq
from .model import ModelConfig, build_model
from .ofdm import OfdmConfig, assemble_packet, disassemble_packet, make_pilots, \
    normalize_power, clip
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


def _weights(shape, seed) -> Node:
    return ad.constant(np.random.default_rng(seed).standard_normal(shape))


def _scalarize(out: Node, seed: int = 99) -> Node:
    return ad.sum_all(ad.mul(out, _weights(out.value.shape, seed)))


def _split2(v: Node, n: int, shape_a, shape_b) -> tuple[Node, Node]:
    a = ad.reshape(ad.slice_(v, (slice(0, n),)), shape_a)
    b = ad.reshape(ad.slice_(v, (slice(n, None),)), shape_b)
    return a, b


def _check(name: str, fn, point, step, tol, coords=None) -> GradCheckReport:
    return finite_diff_check(fn, point, step=step, tol=tol, name=name, coords=coords)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _binary_op_check(name, op, step, tol):
    r = _rng(3)
    a = r.standard_normal((3, 4))
    b = r.standard_normal((3, 4))
    point = np.concatenate([a.ravel(), b.ravel()])

    def fn(v):
        x, y = _split2(v, a.size, a.shape, b.shape)
        return _scalarize(op(x, y))

    return _check(name, fn, point, step, tol)


def op_checks(step: float = DEFAULT_STEP, tol: float = DEFAULT_TOL
              ) -> list[Callable[[], GradCheckReport]]:
    """One callable per differentiable op; each returns a report."""
    checks: list[Callable[[], GradCheckReport]] = []

    def register(fn):
        checks.append(fn)
        return fn

    # --- elementwise primitives -------------------------------------------
    register(lambda: _binary_op_check("add", ad.add, step, tol))
    register(lambda: _binary_op_check("sub", ad.sub, step, tol))
    register(lambda: _binary_op_check("mul", ad.mul, step, tol))

    register(lambda: _check("add_const", lambda x: _scalarize(ad.add_const(x, 2.5)),
                            _rng(5).standard_normal(10), step, tol))
    register(lambda: _check("mul_const", lambda x: _scalarize(ad.mul_const(x, -1.7)),
                            _rng(6).standard_normal(10), step, tol))
    register(lambda: _check("sqrt", lambda x: _scalarize(ad.sqrt(x)),
                            _rng(7).uniform(0.5, 3.0, size=12), step, tol))
    register(lambda: _check("recip", lambda x: _scalarize(ad.recip(x)),
                            _rng(8).uniform(0.5, 3.0, size=12), step, tol))
    register(lambda: _check("safe_recip", lambda x: _scalarize(ad.safe_recip(x)),
                            _rng(9).uniform(0.4, 2.0, size=12), step, tol))
    register(lambda: _check("relu", lambda x: _scalarize(ad.relu(x)),
                            np.r_[_rng(10).uniform(0.2, 2.0, 6),
                                  _rng(11).uniform(-2.0, -0.2, 6)], step, tol))
    register(lambda: _check("sigmoid", lambda x: _scalarize(ad.sigmoid(x)),
                            _rng(12).uniform(-4, 4, size=10), step, tol))

    # --- reductions / shape -----------------------------------------------
    register(lambda: _check("sum_all", lambda x: ad.sum_all(ad.mul(x, x)),
                            _rng(13).standard_normal((3, 5)), step, tol))
    register(lambda: _check("sum_axes", lambda x: _scalarize(ad.sum_axes(x, (0, 2))),
                            _rng(14).standard_normal((3, 4, 2)), step, tol))
    register(lambda: _check("reshape", lambda x: _scalarize(ad.reshape(x, (2, 6))),
                            _rng(15).standard_normal((3, 4)), step, tol))
    register(lambda: _check(
        "slice", lambda x: _scalarize(ad.slice_(x, (slice(1, 3), slice(None, None, 2)))),
        _rng(16).standard_normal((4, 6)), step, tol))
    register(lambda: _check(
        "concat",
        lambda x: _scalarize(ad.concat(
            [ad.slice_(x, (slice(0, 2),)), ad.slice_(x, (slice(2, 5),)),
             ad.slice_(x, (slice(5, None),))], axis=0)),
        _rng(17).standard_normal((7, 3)), step, tol))
    register(lambda: _check(
        "tile", lambda x: _scalarize(ad.tile(ad.reshape(x, (3, 1, 4)), 1, 5)),
        _rng(18).standard_normal((3, 4)), step, tol))
    register(lambda: _check("moveaxis", lambda x: _scalarize(ad.moveaxis(x, 1, -1)),
                            _rng(46).standard_normal((2, 3, 4, 2)), step, tol))

    def matmul_check():
        a_shape, b_shape = (2, 3, 4), (4, 5)

        def fn(v):
            a, b = _split2(v, 24, a_shape, b_shape)
            return _scalarize(ad.matmul(a, b))

        return _check("matmul", fn, _rng(19).standard_normal(24 + 20), step, tol)
    register(matmul_check)

    # --- broadcast helpers --------------------------------------------------
    def two_input_check(name, op, xshape, sshape, seed):
        def fn(v):
            x, s = _split2(v, int(np.prod(xshape)), xshape, sshape)
            return _scalarize(op(x, s))
        n = int(np.prod(xshape)) + int(np.prod(sshape, dtype=int))
        return _check(name, fn, _rng(seed).standard_normal(n), step, tol)

    register(lambda: two_input_check("bias_last", ad.bias_last, (2, 3, 4), (4,), 20))
    register(lambda: two_input_check("scale_first", ad.scale_first, (3, 4, 2), (3,), 22))

    # --- DSP / NN primitives -------------------------------------------------
    def clip_scale_check():
        # squared amplitudes straddling the threshold, away from the boundary
        a2 = np.r_[_rng(24).uniform(0.1, 0.8, 6), _rng(25).uniform(1.3, 4.0, 6)]
        return _check("clip_scale",
                      lambda x: _scalarize(ad.mul(ad.clip_scale(x, 1.0), x)),
                      a2, step, tol)
    register(clip_scale_check)

    def conv2d_check(stride, seed, name):
        xs, ws = (2, 6, 5, 2), (3, 3, 2, 3)

        def fn(v):
            x, w = _split2(v, int(np.prod(xs)), xs, ws)
            return _scalarize(ad.conv2d(x, w, stride=stride, pad=(1, 1)))

        n = int(np.prod(xs)) + int(np.prod(ws))
        return _check(name, fn, _rng(seed).standard_normal(n), step, tol)
    register(lambda: conv2d_check(1, 28, "conv2d"))
    register(lambda: conv2d_check(2, 29, "conv2d_stride2"))

    register(lambda: _check("upsample2x", lambda x: _scalarize(ad.upsample2x(x)),
                            _rng(30).standard_normal((2, 3, 4, 2)), step, tol))

    def batchnorm_check(name, stats=None):
        xs = (4, 5, 5, 3)

        def fn(v):
            x, gb = _split2(v, int(np.prod(xs)), xs, (2, 3))
            gamma, beta = ad.slice_(gb, (0,)), ad.slice_(gb, (1,))
            return _scalarize(ad.batch_norm(x, gamma, beta, 1e-5, stats)[0])

        point = np.r_[_rng(33).standard_normal(xs).ravel(), _rng(31).uniform(0.5, 1.5, 3),
                      _rng(32).standard_normal(3)]
        return _check(name, fn, point, step, tol)
    register(lambda: batchnorm_check("batchnorm_train"))
    register(lambda: batchnorm_check(
        "batchnorm_eval", (_rng(52).standard_normal(3), _rng(53).uniform(0.5, 1.5, 3))))

    # --- complex primitives: packed (..., 2) inputs ---------------------------
    register(lambda: two_input_check("pack", ad.pack, (3, 4), (3, 4), 47))
    register(lambda: two_input_check("cmul", ad.cmul, (3, 4, 2), (3, 4, 2), 48))
    register(lambda: two_input_check("conj_mul", ad.conj_mul, (3, 4, 2), (3, 4, 2), 49))
    register(lambda: two_input_check("mul_real", ad.mul_real, (3, 4, 2), (3, 4), 50))
    for name, op, seed in (("abs2", ad.abs2, 51), ("dft", ad.dft, 34), ("idft", ad.idft, 35)):
        register(lambda name=name, op=op, seed=seed: _check(
            name, lambda x: _scalarize(op(x)), _rng(seed).standard_normal((3, 8, 2)),
            step, tol))

    def fir_check():
        taps = sample_channel(_rng(26), 3, 2.0, batch=2)
        return _check("fir", lambda y: _scalarize(ad.fir(y, taps)),
                      _rng(27).standard_normal((2, 12, 2)), step, tol)
    register(fir_check)

    # --- DSP composites: a complex input is a packed (..., 2) point -----------
    def dsp_check(name, fn, shape, seed, point=None):
        point = _rng(seed).standard_normal(shape + (2,)) if point is None else point
        return _check(name, lambda x: _scalarize(fn(cplx.CplxNode(x)).z, 100 + seed),
                      point, step, tol)

    ocfg = OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=3, pilot_seed=7)
    pilots = make_pilots(ocfg.pilot_seed, ocfg.n_p, ocfg.l_fft)
    taps = sample_channel(_rng(39), 3, 2.0, batch=2)
    noise = cplx.CplxNode(ad.constant(0.1 * _rng(40).standard_normal((2, 14, 2))))
    # components clearly below / above the clipping threshold 1
    clip_point = _rng(37).standard_normal((2, 12, 2)) * 1.1
    clip_point[np.abs(clip_point) < 0.15] += 0.3

    register(lambda: dsp_check("normalize_power", normalize_power, (2, 10), 36))
    register(lambda: dsp_check("clip", lambda y: clip(y, 1.0), (2, 12), 37, clip_point))
    register(lambda: dsp_check(
        "assemble_disassemble", lambda g: cplx.concat(disassemble_packet(
            assemble_packet(g, pilots, ocfg, clip_ratio=1.2).tx, ocfg), axis=1),
        (2, ocfg.n_s, ocfg.l_fft), 38))
    register(lambda: dsp_check(
        "apply_channel", lambda y: cplx.add(apply_channel(y, taps, 0.0), noise), (2, 14), 41))
    register(lambda: dsp_check(
        "estimate_channel_mmse",
        lambda p: estimate_channel_mmse(p, pilots, snr_to_sigma_sq(10.0)),
        (2, ocfg.n_p, ocfg.l_fft), 42))
    # row 0 of the point is the channel estimate, rows 1.. the data grid
    register(lambda: dsp_check(
        "equalize_mmse", lambda x: equalize_mmse(
            cplx.slice_(x, (slice(None), slice(1, None))), cplx.slice_(x, (slice(None), 0)),
            snr_to_sigma_sq(8.0)), (2, 1 + ocfg.n_s, ocfg.l_fft), 43))

    def mse_check():
        target = _rng(44).uniform(0, 1, (2, 3, 3, 1))
        return _check("mse_loss", lambda x: mse_loss(x, target),
                      _rng(45).uniform(0, 1, (2, 3, 3, 1)), step, tol)
    register(mse_check)

    return checks


def tiny_model_config(variant: str = "explicit") -> ModelConfig:
    return ModelConfig(variant=variant, image_h=8, image_w=8, image_c=1,
                       width1=4, width2=6, subnet_hidden=4, head_hidden=8, front_hidden=8,
                       ofdm=OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=2, pilot_seed=7))


def check_model_params(variant: str = "explicit", step: float = CHAIN_STEP,
                       tol: float = DEFAULT_TOL, coords_per_tensor: int = 3,
                       seed: int = 0) -> GradCheckReport:
    """End-to-end check: d(loss)/d(theta) for sampled coordinates of every
    parameter tensor of a tiny model, through the complete train-mode chain
    (encode, OFDM, clipping, multipath channel, noise, receiver, decode)."""
    model = build_model(tiny_model_config(variant), seed=11)
    r = _rng(seed + 1000)
    x = r.uniform(0.1, 0.9, (2, 8, 8, 1))
    taps = sample_channel(r, 3, 2.0, batch=2)
    sigma_sq = snr_to_sigma_sq(10.0)
    noise = awgn(r, (2, model.rx_len), sigma_sq)

    def loss_value() -> float:
        recon, _ = model.forward(x, taps, sigma_sq, clip_ratio=1.3, train=True,
                                 noise=noise)
        return float(mse_loss(recon, x).value)

    recon, _ = model.forward(x, taps, sigma_sq, clip_ratio=1.3, train=True,
                             noise=noise)
    loss = mse_loss(recon, x)
    v0 = float(loss.value)
    if v0 != loss_value():
        raise RuntimeError("check_model_params: chain is nondeterministic")
    grads = ad.backward(loss)

    an, fds = [], []
    for name, node in model.params():
        analytic = grads[node].reshape(-1)
        base = node.value
        k = min(coords_per_tensor, base.size)
        for idx in r.choice(base.size, size=k, replace=False):
            pert = np.array(base).reshape(-1)
            pert[idx] += step
            ad.assign(node, pert.reshape(base.shape))
            hi = loss_value()
            pert[idx] -= 2 * step
            ad.assign(node, pert.reshape(base.shape))
            lo = loss_value()
            ad.assign(node, base)
            fds.append((hi - lo) / (2 * step))
            an.append(analytic[idx])
    return GradCheckReport.compare(f"{variant}-chain(params)", np.array(an), np.array(fds),
                                   tol, ad.fd_noise_floor(v0, step))


def run_all(step: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
            chain: bool = True) -> list[GradCheckReport]:
    reports = [check() for check in op_checks(step, tol)]
    if chain:
        for variant in ("direct", "implicit", "explicit"):
            reports.append(check_model_params(variant, CHAIN_STEP, tol))
    return reports
