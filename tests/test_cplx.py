"""Fused complex ops on packed (..., 2) nodes, checked against a plain
two-plane reference: the same maps composed from real engine ops on separate
real and imaginary planes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from numpy.lib.stride_tricks import sliding_window_view

import ofdmjscc.autodiff as ad
from ofdmjscc import cplx

TOL = 1e-12


# ---------------------------------------------------------------------------
# two-plane reference: (re, im) pairs of real nodes
# ---------------------------------------------------------------------------

def _ref_conj_mul(a, b):
    (ar, ai), (br, bi) = a, b
    return (ad.add(ad.mul(ar, br), ad.mul(ai, bi)),
            ad.sub(ad.mul(ar, bi), ad.mul(ai, br)))


def _ref_abs2(a):
    ar, ai = a
    return ad.add(ad.mul(ar, ar), ad.mul(ai, ai))


def _ref_mul_real(a, s):
    return ad.mul(a[0], s), ad.mul(a[1], s)


def _ref_matmul_const(a, mat):
    mr, mi = ad.constant(mat.real), ad.constant(mat.imag)
    ar, ai = a
    return (ad.sub(ad.matmul(ar, mr), ad.matmul(ai, mi)),
            ad.add(ad.matmul(ar, mi), ad.matmul(ai, mr)))


def _dft_matrix(n):
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)


def _ref_real_fir(y, taps):
    """sum_l taps[:, l] * y[:, n - l] from shifted slices of one real plane."""
    b, t = y.value.shape
    out = None
    for l in range(taps.shape[1]):
        shifted = ad.concat([ad.constant(np.zeros((b, l))),
                             ad.slice_(y, (slice(None), slice(0, t - l)))], axis=1)
        term = ad.mul(ad.constant(np.repeat(taps[:, l:l + 1], t, axis=1)), shifted)
        out = term if out is None else ad.add(out, term)
    return out


def _ref_fir(y, taps):
    (yr, yi), hr, hi = y, taps.real, taps.imag
    return (ad.sub(_ref_real_fir(yr, hr), _ref_real_fir(yi, hi)),
            ad.add(_ref_real_fir(yr, hi), _ref_real_fir(yi, hr)))


# ---------------------------------------------------------------------------
# harness: same planes through both paths, same output weighting
# ---------------------------------------------------------------------------

def _compare(fused, ref, shapes, n_real, seed):
    """Forward values and input gradients of ``fused`` (on CplxNodes packed
    from plane leaves) against ``ref`` (on the plane pairs), to TOL."""
    rng = np.random.default_rng(seed)
    planes = [(rng.standard_normal(s), rng.standard_normal(s)) for s in shapes]
    reals = [rng.uniform(0.5, 2.0, shapes[0]) for _ in range(n_real)]

    def run(path):
        leaves = [(ad.leaf(re), ad.leaf(im)) for re, im in planes]
        real_leaves = [ad.leaf(r) for r in reals]
        if path == "fused":
            out = fused(*[cplx.CplxNode(re, im) for re, im in leaves], *real_leaves)
            out = (out,) if isinstance(out, ad.Node) else (ad.slice_(out.z, (..., 0)),
                                                           ad.slice_(out.z, (..., 1)))
        else:
            out = ref(*leaves, *real_leaves)
            out = (out,) if isinstance(out, ad.Node) else out
        w = np.random.default_rng(seed + 1)
        loss = None
        for part in out:
            term = ad.sum_all(ad.mul(part, ad.constant(w.standard_normal(part.value.shape))))
            loss = term if loss is None else ad.add(loss, term)
        grads = ad.backward(loss)
        flat = [p for pair in leaves for p in pair] + real_leaves
        return [o.value for o in out], [grads[n] for n in flat]

    (f_out, f_grad), (r_out, r_grad) = run("fused"), run("ref")
    for got, want in zip(f_out + f_grad, r_out + r_grad):
        np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL)


_batch = st.integers(1, 4)
_len = st.integers(2, 64)
_seed = st.integers(0, 2 ** 32 - 2)


@settings(max_examples=40, deadline=None)
@given(_batch, _len, _seed)
def test_elementwise_ops_match_two_plane_reference(b, n, seed):
    shape = (b, n)
    _compare(cplx.conj_mul, _ref_conj_mul, [shape, shape], 0, seed)
    _compare(cplx.abs2, _ref_abs2, [shape], 0, seed)
    _compare(cplx.mul_real, _ref_mul_real, [shape], 1, seed)


@settings(max_examples=40, deadline=None)
@given(_batch, _len, _seed)
def test_dft_pair_matches_two_plane_reference(b, n, seed):
    f = _dft_matrix(n)
    _compare(cplx.dft, lambda a: _ref_matmul_const(a, f), [(b, 2, n)], 0, seed)
    _compare(cplx.idft, lambda a: _ref_matmul_const(a, f.conj()), [(b, 2, n)], 0, seed)


@st.composite
def _fir_geometry(draw):
    t = draw(_len)
    return draw(_batch), t, draw(st.integers(1, t)), draw(_seed)


@settings(max_examples=40, deadline=None)
@given(_fir_geometry())
def test_fir_matches_two_plane_reference(geometry):
    b, t, n_taps, seed = geometry
    r = np.random.default_rng(seed + 2)
    taps = r.standard_normal((b, n_taps)) + 1j * r.standard_normal((b, n_taps))
    _compare(lambda y: cplx.fir(y, taps), lambda y: _ref_fir(y, taps), [(b, t)], 0, seed)


@settings(max_examples=40, deadline=None)
@given(_fir_geometry())
def test_fir_windows_match_sliding_window_view(geometry):
    # forward and VJP are bitwise the products with sliding_window_view's windows
    b, t, n_taps, seed = geometry
    r = np.random.default_rng(seed)
    y, g = r.standard_normal((b, t, 2)), r.standard_normal((b, t, 2))
    taps = r.standard_normal((b, n_taps)) + 1j * r.standard_normal((b, n_taps))

    def windows(v, lead):
        buf = np.zeros((b, t + n_taps - 1), dtype=np.complex128)
        buf[:, lead:lead + t] = v[..., 0] + 1j * v[..., 1]
        return sliding_window_view(buf, n_taps, axis=1)

    out = cplx.fir(cplx.CplxNode(ad.leaf(y)), taps).z
    want = (windows(y, n_taps - 1) @ taps[:, ::-1, None])[..., 0]
    assert np.array_equal(out.value, np.stack([want.real, want.imag], axis=-1))
    want = (windows(g, 0) @ taps.conj()[:, :, None])[..., 0]
    assert np.array_equal(out.vjp(g)[0], np.stack([want.real, want.imag], axis=-1))


@settings(max_examples=150, deadline=None)
@given(array_shapes(min_dims=1, max_dims=3, max_side=6), st.booleans(), _seed)
def test_pair_products_are_bitwise_the_pair_axis_broadcasts(shape, strided, seed):
    # abs2's VJP and mul_real against the former ``[..., None]`` broadcasts; the
    # gradients may arrive as strided views
    r = np.random.default_rng(seed)
    x = r.standard_normal(shape + (2,)) * 10.0 ** r.uniform(-5, 5, shape + (2,))
    x.flat[::3] = -0.0
    s = r.standard_normal(shape)
    g, ga = r.standard_normal(shape + (4,)), r.standard_normal(shape[:-1] + (2 * shape[-1],))
    g, ga = (g[..., ::2], ga[..., ::2]) if strided else (g[..., :2].copy(), ga[..., ::2].copy())
    z, sn = ad.leaf(x), ad.leaf(s)
    m = cplx.mul_real(cplx.CplxNode(z), sn).z
    assert m.value.tobytes() == (x * s[..., None]).tobytes()
    gx, gs = m.vjp(g)
    assert gx.tobytes() == (g * s[..., None]).tobytes()
    assert gs.tobytes() == (g[..., 0] * x[..., 0] + g[..., 1] * x[..., 1]).tobytes()
    (gz,) = cplx.abs2(cplx.CplxNode(z)).vjp(ga)
    assert gz.tobytes() == (2.0 * ga[..., None] * x).tobytes()


# ---------------------------------------------------------------------------
# packing and the generic ops' axis convention
# ---------------------------------------------------------------------------

def test_packed_layout_and_complex_view(rng):
    re, im = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    z = cplx.CplxNode(ad.leaf(re), ad.leaf(im))
    assert z.shape == (2, 3) and z.z.value.shape == (2, 3, 2)
    assert np.array_equal(z.z.value[..., 0], re) and np.array_equal(z.z.value[..., 1], im)
    assert np.array_equal(z.value, re + 1j * im)
    assert not z.value.flags.writeable
    assert np.array_equal(cplx.const(re + 1j * im).z.value, z.z.value)


def test_cplxnode_rejects_bad_planes():
    with pytest.raises(ValueError):
        cplx.CplxNode(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        cplx.CplxNode(ad.leaf(np.zeros((2, 3))))      # no trailing pair axis


def test_generic_ops_count_complex_axes(rng):
    x = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    z = cplx.const(x)
    assert np.array_equal(cplx.slice_(z, (Ellipsis, slice(1, 3))).value, x[..., 1:3])
    assert np.array_equal(cplx.slice_(z, (slice(None), 1)).value, x[:, 1])
    assert np.array_equal(cplx.concat([z, z], axis=-1).value, np.concatenate([x, x], -1))
    assert np.array_equal(cplx.sum_axes(z, -2).value, x.sum(axis=1))
    assert np.array_equal(cplx.reshape(z, (6, 4)).value, x.reshape(6, 4))
    one = cplx.reshape(z, (2, 1, 12))
    assert np.array_equal(cplx.tile(one, -2, 3).value, np.repeat(x.reshape(2, 1, 12), 3, 1))


def test_fused_ops_reject_shape_mismatch():
    a, b = cplx.const(np.ones((2, 3))), cplx.const(np.ones((3, 2)))
    with pytest.raises(ValueError):
        cplx.conj_mul(a, b)
    with pytest.raises(ValueError):
        cplx.mul_real(a, ad.constant(np.ones(3)))
    with pytest.raises(ValueError):
        cplx.fir(a, np.ones((2, 4)))                  # more taps than samples
