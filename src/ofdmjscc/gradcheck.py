"""Finite-difference verification of every differentiable operation.

Each registered check builds a small deterministic problem, scalarizes the
op's output with a fixed random weighting and compares the analytic gradient
against central differences (see :func:`autodiff.finite_diff_check`). The
end-to-end check perturbs sampled coordinates of every parameter tensor of a
tiny transceiver and validates the full training gradient.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import cplx
from .autodiff import GradCheckReport, Node, finite_diff_check
from .channel import apply_channel, awgn, sample_channel, snr_to_sigma_sq
from .model import ModelConfig, build_model
from .nn import BatchNorm
from .ofdm import OfdmConfig, assemble_packet, disassemble_packet, dft, idft, \
    make_pilots, normalize_power, clip
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


def _binary_op_check(name, op, step, tol, positive_b=False):
    r = _rng(3)
    a = r.standard_normal((3, 4))
    b = r.standard_normal((3, 4))
    if positive_b:
        b = np.abs(b) + 0.5
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
    register(lambda: _binary_op_check("div", ad.div, step, tol, positive_b=True))

    register(lambda: _check("neg", lambda x: _scalarize(ad.neg(x)),
                            _rng(4).standard_normal((4, 3)), step, tol))
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

    def matmul_check():
        a_shape, b_shape = (2, 3, 4), (4, 5)

        def fn(v):
            a, b = _split2(v, 24, a_shape, b_shape)
            return _scalarize(ad.matmul(a, b))

        return _check("matmul", fn, _rng(19).standard_normal(24 + 20), step, tol)
    register(matmul_check)

    # --- broadcast helpers --------------------------------------------------
    def broadcast_check(name, op, xshape, sshape, seed):
        def fn(v):
            x, s = _split2(v, int(np.prod(xshape)), xshape, sshape)
            return _scalarize(op(x, s))
        n = int(np.prod(xshape)) + int(np.prod(sshape, dtype=int))
        return _check(name, fn, _rng(seed).standard_normal(n), step, tol)

    register(lambda: broadcast_check("bias_last", ad.bias_last, (2, 3, 4), (4,), 20))
    register(lambda: broadcast_check("scale_last", ad.scale_last, (2, 3, 4), (4,), 21))
    register(lambda: broadcast_check("scale_first", ad.scale_first, (3, 4, 2), (3,), 22))
    register(lambda: broadcast_check("scale_all", ad.scale_all, (3, 4), (), 23))

    # --- DSP / NN primitives -------------------------------------------------
    def clip_scale_check():
        # squared amplitudes straddling the threshold, away from the boundary
        a2 = np.r_[_rng(24).uniform(0.1, 0.8, 6), _rng(25).uniform(1.3, 4.0, 6)]
        return _check("clip_scale",
                      lambda x: _scalarize(ad.mul(ad.clip_scale(x, 1.0), x)),
                      a2, step, tol)
    register(clip_scale_check)

    def fir_check():
        taps = _rng(26).standard_normal((2, 3))
        return _check("fir", lambda y: _scalarize(ad.fir(y, taps)),
                      _rng(27).standard_normal((2, 12)), step, tol)
    register(fir_check)

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

    def batchnorm_check():
        bn = BatchNorm("gc.bn", 3)
        ad.assign(bn.gamma, _rng(31).uniform(0.5, 1.5, 3))
        ad.assign(bn.beta, _rng(32).standard_normal(3))
        return _check("batchnorm_train", lambda x: _scalarize(bn(x, train=True)),
                      _rng(33).standard_normal((4, 5, 5, 3)), step, tol)
    register(batchnorm_check)

    # --- DSP composites ------------------------------------------------------
    def cplx_pair(v, shape):
        n = int(np.prod(shape))
        re, im = _split2(v, n, shape, shape)
        return cplx.CplxNode(re, im)

    def dft_check(name, op, seed):
        shape = (3, 8)

        def fn(v):
            out = op(cplx_pair(v, shape))
            return ad.add(_scalarize(out.re, 101), _scalarize(out.im, 102))

        return _check(name, fn, _rng(seed).standard_normal(2 * 24), step, tol)
    register(lambda: dft_check("dft", dft, 34))
    register(lambda: dft_check("idft", idft, 35))

    def normalize_check():
        shape = (2, 10)

        def fn(v):
            out = normalize_power(cplx_pair(v, shape))
            return ad.add(_scalarize(out.re, 103), _scalarize(out.im, 104))

        return _check("normalize_power", fn, _rng(36).standard_normal(40), step, tol)
    register(normalize_check)

    def clip_check():
        shape = (2, 12)

        def fn(v):
            out = clip(cplx_pair(v, shape), 1.0)
            return ad.add(_scalarize(out.re, 105), _scalarize(out.im, 106))

        # mix of amplitudes clearly below / above threshold 1
        r = _rng(37)
        z = r.standard_normal(48) * 1.1
        z[np.abs(z) < 0.15] += 0.3
        return _check("clip", fn, z, step, tol)
    register(clip_check)

    ocfg = OfdmConfig(l_fft=8, l_cp=4, n_p=2, n_s=3, pilot_seed=7)
    pilots = make_pilots(ocfg.pilot_seed, ocfg.n_p, ocfg.l_fft)

    def assemble_check():
        shape = (2, ocfg.n_s, ocfg.l_fft)

        def fn(v):
            pkt = assemble_packet(cplx_pair(v, shape), pilots, ocfg, clip_ratio=1.2)
            pr, dr = disassemble_packet(pkt.tx, ocfg)
            return ad.add(_scalarize(dr.re, 107),
                          ad.add(_scalarize(dr.im, 108), _scalarize(pr.re, 109)))

        n = 2 * int(np.prod(shape))
        return _check("assemble_disassemble", fn, _rng(38).standard_normal(n), step, tol)
    register(assemble_check)

    def channel_check():
        taps = sample_channel(_rng(39), 3, 2.0, batch=2)
        w = _rng(40).standard_normal((2, 14, 2))
        noise = 0.1 * (w[..., 0] + 1j * w[..., 1])
        shape = (2, 14)

        def fn(v):
            out = apply_channel(cplx_pair(v, shape), taps, 0.0)
            out = cplx.add(out, cplx.const(noise))
            return ad.add(_scalarize(out.re, 110), _scalarize(out.im, 111))

        return _check("apply_channel", fn, _rng(41).standard_normal(56), step, tol)
    register(channel_check)

    def estimate_check():
        sigma_sq = snr_to_sigma_sq(10.0)
        shape = (2, ocfg.n_p, ocfg.l_fft)

        def fn(v):
            h = estimate_channel_mmse(cplx_pair(v, shape), pilots, sigma_sq)
            return ad.add(_scalarize(h.re, 112), _scalarize(h.im, 113))

        n = 2 * int(np.prod(shape))
        return _check("estimate_channel_mmse", fn, _rng(42).standard_normal(n), step, tol)
    register(estimate_check)

    def equalize_check():
        sigma_sq = snr_to_sigma_sq(8.0)
        hshape = (2, ocfg.l_fft)
        dshape = (2, ocfg.n_s, ocfg.l_fft)
        nh, nd = 2 * int(np.prod(hshape)), 2 * int(np.prod(dshape))

        def fn(v):
            hv = ad.slice_(v, (slice(0, nh),))
            dv = ad.slice_(v, (slice(nh, None),))
            h = cplx_pair(hv, hshape)
            d = cplx_pair(dv, dshape)
            out = equalize_mmse(d, h, sigma_sq)
            return ad.add(_scalarize(out.re, 114), _scalarize(out.im, 115))

        return _check("equalize_mmse", fn, _rng(43).standard_normal(nh + nd), step, tol)
    register(equalize_check)

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
    floor = ad.fd_noise_floor(v0, step)
    rel_err, abs_err, ok = ad.grad_errors(np.array(an), np.array(fds), tol, floor)
    bad = ~ok
    worst = int(np.argmax(np.where(bad, rel_err, -1.0))) if bad.any() \
        else int(np.argmax(rel_err))
    return GradCheckReport(name=f"{variant}-chain(params)", n_coords=rel_err.size,
                           max_rel_err=float(rel_err[worst]),
                           max_abs_err=float(abs_err[worst]), worst_index=worst,
                           passed=bool(ok.all()), noise_floor=floor)


def run_all(step: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
            chain: bool = True) -> list[GradCheckReport]:
    reports = [check() for check in op_checks(step, tol)]
    if chain:
        for variant in ("direct", "implicit", "explicit"):
            reports.append(check_model_params(variant, CHAIN_STEP, tol))
    return reports
