"""Engine-level tests: forward values, hand-derived gradients, the backward
sweep's summation order and result set, finite-difference harness
sensitivity, and the documented error paths."""

import gc
import itertools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.lib.stride_tricks import sliding_window_view

import ofdmjscc.autodiff as ad
from ofdmjscc import cplx, gradcheck
from ofdmjscc.channel import apply_channel, awgn, sample_channel, snr_to_sigma_sq
from ofdmjscc.gradcheck import finite_diff_check
from ofdmjscc.model import VARIANTS, build_model
from ofdmjscc.ofdm import assemble_packet, disassemble_packet, make_pilots
from ofdmjscc.receiver import equalize_mmse, estimate_channel_mmse
from ofdmjscc.training import mse_loss


# ---------------------------------------------------------------------------
# forward values against plain numpy
# ---------------------------------------------------------------------------

def test_elementwise_forward_matches_numpy(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 3.0  # keep sqrt/recip away from 0
    na, nb = ad.leaf(a), ad.leaf(b)
    assert np.array_equal(ad.add(na, nb).value, a + b)
    assert np.array_equal(ad.sub(na, nb).value, a - b)
    assert np.array_equal(ad.mul(na, nb).value, a * b)
    assert np.array_equal(ad.relu(na).value, np.maximum(a, 0.0))
    assert np.array_equal(ad.sqrt(nb).value, np.sqrt(b))
    assert np.array_equal(ad.recip(nb).value, 1.0 / b)
    assert np.allclose(ad.sigmoid(na).value, 1.0 / (1.0 + np.exp(-a)), atol=1e-15)


def test_matmul_forward_batched(rng):
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((5, 6))
    out = ad.matmul(ad.leaf(a), ad.leaf(b))
    assert out.value.shape == (2, 3, 4, 6)
    assert np.allclose(out.value, a @ b, atol=1e-14)


_signed_zeros_and_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                                     st.floats(allow_nan=False, allow_infinity=False))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(array_shapes(min_dims=1, max_dims=4, max_side=5).flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape, elements=_signed_zeros_and_floats),
    arrays(np.float64, shape[:-1] + (2 * shape[-1],), elements=_signed_zeros_and_floats))))
@example((np.array([[-0.0, 0.0, 5e-324, -1.0]]),
          np.array([[-0.0, 7.0, 0.0, 7.0, -2.0, 7.0, -0.0, 7.0]])))
def test_relu_is_bitwise_the_select_it_replaces(case):
    # against the former forward and VJP: np.where on the mask x > 0
    x, g_wide = case
    g = g_wide[..., ::2]                     # every other entry: not contiguous
    assert not g.flags.c_contiguous or g.size <= 1
    node = ad.relu(ad.leaf(x))
    assert np.array_equal(_bits(node.value), _bits(np.where(x > 0.0, x, 0.0)))
    (gx,) = node.vjp(g)
    assert np.array_equal(_bits(gx), _bits(np.where(x > 0.0, g, 0.0)))


# ---------------------------------------------------------------------------
# fast-path forms: bitwise the masked, gathering or three-operand forms they
# replaced, which are inlined here as the reference
# ---------------------------------------------------------------------------

def _spread(rng, shape):
    """Values over ten decades of either sign, so a changed summation order shows,
    and some -0.0."""
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    a[rng.random(shape) < 0.1] = -0.0
    return a


@st.composite
def _channel_sum_case(draw):
    shape = draw(array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=9))
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    return shape, layout, draw(st.integers(0, 2 ** 32 - 1))


def _laid_out(rng, shape, layout):
    """A ``shape`` array, C-contiguous or a non-contiguous view of a larger one."""
    if layout == "transposed":       # the memory order of a moveaxis gradient
        return np.moveaxis(_spread(rng, shape[-1:] + shape[:-1]), 0, -1)
    if layout == "strided":
        return _spread(rng, shape[:-1] + (2 * shape[-1],))[..., ::2]
    return _spread(rng, shape)


@settings(max_examples=150, deadline=None)
@given(_channel_sum_case())
@example(((16, 1, 16, 8), "transposed", 0))    # gradients into the subnets' BatchNorm
@example(((16, 4, 16, 2), "transposed", 1))
@example(((16, 6, 64, 2), "transposed", 2))
@example(((16, 6, 64, 2), "contiguous", 3))
@example(((64, 9, 1), "contiguous", 4))        # C = 1: np.sum adds pairwise
@example(((8, 7, 2), "contiguous", 5))
def test_channel_sum_is_bitwise_np_sum_over_leading_axes(case):
    shape, layout, seed = case
    a = _laid_out(np.random.default_rng(seed), shape, layout)
    ref = np.sum(a, axis=tuple(range(a.ndim - 1)))
    got = ad._channel_sum(a)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
@pytest.mark.parametrize("shape", [(16, 6, 64, 2), (16, 1, 16, 8), (40, 1), (5, 3)])
def test_bias_last_gradient_is_bitwise_np_sum(rng, shape, layout):
    g = _laid_out(rng, shape, layout)
    node = ad.bias_last(ad.leaf(np.zeros(shape)), ad.leaf(np.zeros(shape[-1])))
    assert node.vjp(g)[1].tobytes() == np.sum(g, axis=tuple(range(len(shape) - 1))).tobytes()


def _clip_scale_reference(v, t, g):
    """``clip_scale``'s former scale and VJP: ufuncs masked by ``where=``."""
    mask = v > t * t
    s = np.ones_like(v)
    shrink = 1.0 - 4.0 * np.finfo(np.float64).eps
    np.divide(t * shrink, np.sqrt(v, where=mask, out=np.ones_like(v)), where=mask, out=s)
    d = np.zeros_like(v)
    np.divide(-0.5 * t, v * np.sqrt(v, where=mask, out=np.ones_like(v)), where=mask, out=d)
    return s, g * d


def _warned(fn):
    """``fn()`` and the floating-point warnings it raised, every one reported."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught]


@st.composite
def _clip_case(draw):
    t = draw(st.one_of(st.floats(1e-150, 1e100), st.just(1.5e-154)))
    t2 = t * t
    edge = st.sampled_from([0.0, t2, np.nextafter(t2, np.inf), np.nextafter(t2, 0.0)])
    elems = st.one_of(edge, st.floats(0.0, 1e200), st.floats(0.0, 4.0 * t2))
    v = draw(arrays(np.float64, draw(array_shapes(max_dims=2, max_side=6)), elements=elems))
    g = draw(arrays(np.float64, v.shape, elements=st.floats(-1e3, 1e3)))
    return v, t, g


@settings(max_examples=300, deadline=None)
@given(_clip_case())
@example((np.array([0.0, 2.25e-308, np.nextafter(2.25e-308, 1.0), 3.0e-308, 1.0]), 1.5e-154,
          np.array([1.0, -2.0, 3.0, -0.0, 0.5])))    # clipped lanes whose v**1.5 underflows
def test_clip_scale_is_bitwise_its_masked_form(case):
    v, t, g = case

    def new():
        node = ad.clip_scale(ad.leaf(v), t)
        return node.value, node.vjp(g)[0]

    (s, gv), warned = _warned(new)
    (ref_s, ref_gv), ref_warned = _warned(lambda: _clip_scale_reference(v, t, g))
    assert s.tobytes() == ref_s.tobytes() and gv.tobytes() == ref_gv.tobytes()
    assert warned == ref_warned        # the same warnings: 1.0 fills the dropped lanes


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(max_dims=3, max_side=6), elements=st.one_of(
    st.sampled_from([0.0, -0.0, 1e-100, -1e-100]), st.floats(-1e100, 1e100))))
def test_safe_recip_is_bitwise_its_masked_divide(x):
    x = np.where(np.abs(x) < 1e-100, 0.0, x)      # 1/x and its square stay finite
    g = np.linspace(-2.0, 3.0, x.size).reshape(x.shape)
    pos = x > 0.0
    ref = np.zeros_like(x)
    np.divide(1.0, x, where=pos, out=ref)
    node = ad.safe_recip(ad.leaf(x))
    assert node.value.tobytes() == ref.tobytes()
    assert node.vjp(g)[0].tobytes() == np.where(pos, -g * ref * ref, 0.0).tobytes()


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(max_dims=3, max_side=6), elements=st.one_of(
    st.sampled_from([0.0, -0.0, 745.0, -745.0, 745.2, -745.2, 709.8, -709.8, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False))))
def test_sigmoid_is_bitwise_its_gather_scatter_form(x):
    ref, pos = np.empty_like(x), x >= 0.0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    g = np.linspace(-2.0, 3.0, x.size).reshape(x.shape)
    node = ad.sigmoid(ad.leaf(x))
    assert node.value.tobytes() == ref.tobytes()
    assert node.vjp(g)[0].tobytes() == (g * ref * (1.0 - ref)).tobytes()


_extremes = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 3e300, -3e300]),
                      st.floats(-1e6, 1e6))


@st.composite
def _up2x_case(draw):
    h, w_, cin, cout = (draw(st.integers(1, n)) for n in (4, 4, 3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, w = rng.uniform(-1, 1, (2, h, w_, cin)), rng.uniform(-1, 1, (3, 3, cin, cout))
    g = rng.uniform(-1, 1, (2, 2 * h, 2 * w_, cout))
    if draw(st.booleans()):     # extreme weights pin the fold, extreme gradients the unfold
        w = draw(arrays(np.float64, w.shape, elements=_extremes))
    else:
        g = draw(arrays(np.float64, g.shape, elements=_extremes))
    return x, w, g


# summed in another grouping than term by term, these give other bits (Cin = Cout = 1)
_cancelling_w = np.array([[3e300, -3e300, 5e-324], [5e-324] * 3, [5e-324] * 3]).reshape(3, 3, 1, 1)
_cancelling_g = np.array([[3e300, 5e-324], [-3e300, 5e-324]]).reshape(1, 2, 2, 1)


@settings(max_examples=300, deadline=None)
@given(_up2x_case())
@example((np.ones((1, 1, 1, 1)), _cancelling_w, np.full((1, 2, 2, 1), 0.5)))
@example((np.ones((1, 1, 1, 1)), np.full((3, 3, 1, 1), 0.5), _cancelling_g))
def test_conv_up2x_fold_is_bitwise_its_three_operand_einsum(case):
    x, w, g = case
    (h, w_, cin), cout = x.shape[1:], w.shape[3]
    fold = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    k4 = np.einsum("ad,be,deio->aboi", fold, fold, w)
    gcols = ad._im2col(g, 4, 4, 2, 1, 1, 2 * h + 2, 2 * w_ + 2)
    gk4 = (gcols.T @ x.reshape(-1, cin)).reshape(4, 4, cout, cin)
    node = ad.conv_up2x(ad.leaf(x), ad.leaf(w))
    gx, gw = node.vjp(g)
    assert node.value.tobytes() == ad._conv_transpose(x, k4, 2, (1, 1), (2 * h, 2 * w_)).tobytes()
    assert gx.tobytes() == (gcols @ k4.reshape(16 * cout, cin)).reshape(x.shape).tobytes()
    assert gw.tobytes() == np.einsum("ad,be,aboi->deio", fold, fold, gk4).tobytes()


def test_conv2d_forward_against_loops(rng):
    # oracle: direct quadruple loop, cross-correlation with zero padding; the
    # stride-2 case runs im2col, the narrow stride-1 case (9*1 <= 12) kn2row
    pad = (1, 1)
    for stride, cin, cout in ((2, 3, 4), (1, 12, 1)):
        x = rng.standard_normal((2, 5, 6, cin))
        w = rng.standard_normal((3, 3, cin, cout))
        out = ad.conv2d(ad.leaf(x), ad.leaf(w), stride=stride, pad=pad).value
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        ref = np.zeros_like(out)
        for n in range(2):
            for i in range(out.shape[1]):
                for j in range(out.shape[2]):
                    patch = xp[n, i * stride:i * stride + 3, j * stride:j * stride + 3]
                    for co in range(cout):
                        ref[n, i, j, co] = np.sum(patch * w[..., co])
        assert np.allclose(out, ref, atol=1e-12)


def _conv2d_grads_by_loops(x, w, g, stride, pad):
    # oracle: every output position scatters g into the taps it read
    B, H, W, _ = x.shape
    kh, kw = w.shape[:2]
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for oy in range(g.shape[1]):
        for ox in range(g.shape[2]):
            for i in range(kh):
                for j in range(kw):
                    y, x_ = oy * stride + i, ox * stride + j
                    gxp[:, y, x_] += g[:, oy, ox] @ w[i, j].T
                    gw[i, j] += xp[:, y, x_].T @ g[:, oy, ox]
    return gxp[:, ph:ph + H, pw:pw + W], gw


@st.composite
def _conv2d_geometry(draw):
    # Cin 1-12 and Cout 1-4 put stride-1 draws of 2-D kernels on both sides of
    # conv2d's kh*kw*Cout <= Cin rule (kn2row) and its complement (im2col)
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, kh)), draw(st.integers(0, kw))
    h = draw(st.integers(max(1, kh - 2 * ph), kh + 2 * stride + 2))
    w = draw(st.integers(max(1, kw - 2 * pw), kw + 2 * stride + 2))
    channels = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    return (kh, kw), stride, (ph, pw), (h, w), channels, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=120, deadline=None)
@given(_conv2d_geometry())
@example(((1, 3), 1, (0, 1), (1, 9), (3, 2), 0))   # the subnet's kernel along the subcarriers
@example(((1, 3), 1, (0, 1), (1, 9), (8, 2), 6))   # sub_h.conv2: a single row, im2col
@example(((1, 1), 1, (0, 0), (3, 4), (3, 2), 1))   # 1x1: im2col on a view of x
@example(((1, 1), 3, (0, 0), (7, 8), (3, 2), 2))   # stride > kernel: phases with no taps
@example(((2, 3), 3, (1, 0), (6, 7), (3, 2), 3))
@example(((3, 3), 2, (1, 1), (8, 8), (3, 2), 4))   # enc.conv1's geometry
@example(((3, 2), 2, (0, 2), (6, 5), (3, 2), 5))   # H + 2p - k not divisible by the stride
@example(((3, 3), 1, (1, 1), (6, 6), (16, 1), 7))  # dec.conv_out at toy width: kn2row
@example(((3, 3), 1, (1, 1), (4, 6), (8, 2), 8))   # sub_eq.conv2: 9*2 > 8, im2col
@example(((3, 3), 1, (1, 1), (8, 8), (16, 16), 9))  # a 3x3 16 -> 16 conv: im2col
def test_conv2d_gradients_against_loops(geometry):
    (kh, kw), stride, pad, (h, w_), (cin, cout), seed = geometry
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, h, w_, cin))
    w = rng.standard_normal((kh, kw, cin, cout))
    out = ad.conv2d(ad.leaf(x), ad.leaf(w), stride=stride, pad=pad)
    g = rng.standard_normal(out.shape)
    gx, gw = out.vjp(g)
    ref_gx, ref_gw = _conv2d_grads_by_loops(x, w, g, stride, pad)
    assert gx.shape == x.shape and gw.shape == w.shape
    np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw, ref_gw, rtol=0, atol=1e-12)
    if not (stride == 1 and kh > 1 and kw > 1 and kh * kw * cout <= cin):
        # im2col: the VJP rebuilds the window matrix, so the forward and gw are
        # bitwise those of one matrix built once and kept
        cols = ad._im2col(x, kh, kw, stride, *pad, h + 2 * pad[0], w_ + 2 * pad[1])
        assert np.array_equal(out.value, (cols @ w.reshape(-1, cout)).reshape(out.shape))
        assert np.array_equal(gw, (cols.T @ g.reshape(-1, cout)).reshape(w.shape))
    # input rows and columns that no window reads get exactly no gradient
    Ho, Wo = out.shape[1:3]
    read_y = np.zeros(h + 2 * pad[0], bool)
    read_x = np.zeros(w_ + 2 * pad[1], bool)
    for o in range(Ho):
        read_y[o * stride:o * stride + kh] = True
    for o in range(Wo):
        read_x[o * stride:o * stride + kw] = True
    unread = ~(read_y[pad[0]:pad[0] + h, None] & read_x[None, pad[1]:pad[1] + w_])
    assert np.all(gx[:, unread] == 0.0)


def _retained_bytes(make):
    """``make()`` and the bytes its result still holds once it has returned."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


# the node, its closure and per-channel or per-tap arrays: a few KiB
_NODE_OVERHEAD = 16 * 1024


def test_kn2row_conv2d_keeps_its_padded_input_not_an_im2col_matrix(rng):
    # 9*1 <= 16: kn2row. The padded input is 0.17 MB; an im2col matrix, 1.2 MB
    x = ad.leaf(rng.standard_normal((4, 16, 16, 16)))
    w = ad.leaf(rng.standard_normal((3, 3, 16, 1)))
    out, held = _retained_bytes(lambda: ad.conv2d(x, w, pad=(1, 1)))
    padded = 4 * 18 * 18 * 16 * 8
    assert held <= padded + out.value.nbytes + _NODE_OVERHEAD


def test_im2col_conv2d_keeps_x_not_its_window_matrix(rng):
    # 9*16 > 16: im2col. Its window matrix is 295 KB; the VJP rebuilds it from x
    x = ad.leaf(rng.standard_normal((4, 8, 8, 16)))
    w = ad.leaf(rng.standard_normal((3, 3, 16, 16)))
    out, held = _retained_bytes(lambda: ad.conv2d(x, w, pad=(1, 1)))
    assert held <= out.value.nbytes + _NODE_OVERHEAD


@pytest.mark.parametrize("stats", [None, (np.zeros(16), np.ones(16))], ids=["train", "eval"])
def test_batch_norm_keeps_its_output_and_per_channel_values_only(rng, stats):
    # the VJP recomputes the centered input from x, which the graph keeps anyway
    x = ad.leaf(rng.standard_normal((8, 8, 8, 16)))
    gamma, beta = ad.leaf(rng.uniform(0.5, 1.5, 16)), ad.leaf(rng.standard_normal(16))
    (out, _, _), held = _retained_bytes(lambda: ad.batch_norm(x, gamma, beta, stats))
    assert held <= out.value.nbytes + _NODE_OVERHEAD


def _check_conv_up2x(b, h, w_, cin, cout, seed):
    # reference: nearest 2x upsampling by np.repeat into a leaf, conv2d with
    # pad 1, and the leaf's gradient sum-pooled 2x2 back onto x
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, h, w_, cin))
    w = rng.standard_normal((3, 3, cin, cout))
    g = rng.standard_normal((b, 2 * h, 2 * w_, cout))

    def run(op, xin):
        xl, wl = ad.leaf(xin), ad.leaf(w)
        out = op(xl, wl)
        grads = ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        return out.value, grads[xl], grads[wl]

    out, gx, gw = run(ad.conv_up2x, x)
    up = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
    ref, gup, ref_gw = run(lambda xl, wl: ad.conv2d(xl, wl, pad=(1, 1)), up)
    ref_gx = gup.reshape(b, h, 2, w_, 2, cin).sum(axis=(2, 4))
    for got, want in ((out, ref), (gx, ref_gx), (gw, ref_gw)):
        assert got.shape == want.shape
        # the sums run in another order: rtol 1e-12, with a floor at 1e-12 of
        # the array's scale for entries that cancel to almost nothing
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 1, 1, 1, 0)
@example(2, 3, 5, 4, 2, 1)
def test_conv_up2x_matches_upsampled_conv2d(b, h, w_, cin, cout, seed):
    _check_conv_up2x(b, h, w_, cin, cout, seed)


def test_conv_up2x_pinned_case():
    _check_conv_up2x(1, 2, 3, 2, 3, seed=7)


# ---------------------------------------------------------------------------
# window matrices: bitwise those of the sliding_window_view formulation
# ---------------------------------------------------------------------------

def _im2col_reference(a, kh, kw, s, top, left, hb, wb):
    """The window matrix as sliding_window_view, a strided slice and a transpose."""
    B, H, W, C = a.shape
    buf = a
    if (top, left, hb, wb) != (0, 0, H, W):
        buf = np.zeros((B, hb, wb, C))
        y0, y1 = max(top, 0), min(top + H, hb)
        x0, x1 = max(left, 0), min(left + W, wb)
        if y0 < y1 and x0 < x1:
            buf[:, y0:y1, x0:x1] = a[:, y0 - top:y1 - top, x0 - left:x1 - left]
    win = sliding_window_view(buf, (kh, kw), axis=(1, 2))[:, ::s, ::s]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * C)


def _conv_transpose_reference(g, w, s, pad, hw):
    """conv2d's adjoint per stride phase, each phase windowing its own zero-bordered copy of g."""
    B, (kh, kw, Cin, _) = g.shape[0], w.shape

    def phase(r, k, p, n):
        t = len(range(r, k, s))
        q0 = -((r - p) // s)
        y0 = q0 * s + r - p
        return t, y0, len(range(y0, n, s)), t - 1 - q0

    out = np.zeros((B, *hw, Cin))
    for ry, rx in itertools.product(range(s), range(s)):
        (ty, y0, my, top), (tx, x0, mx, left) = phase(ry, kh, pad[0], hw[0]), phase(rx, kw, pad[1], hw[1])
        if ty and tx and my and mx:
            cols = _im2col_reference(g, ty, tx, 1, top, left, my + ty - 1, mx + tx - 1)
            sub = w[ry::s, rx::s][::-1, ::-1].transpose(0, 1, 3, 2)
            out[:, y0::s, x0::s] = (cols @ sub.reshape(-1, Cin)).reshape(B, my, mx, Cin)
    return out


_LAYOUTS = {
    "contiguous": lambda a: a,
    "transposed": lambda a: np.ascontiguousarray(a.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3),
    "sliced": lambda a: np.repeat(a, 2, axis=2)[:, ::-1, ::2],
}


@st.composite
def _im2col_geometry(draw):
    kh, kw, stride = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top, left = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    # buffers from the kernel's size to past a's far edge: windows cut at either edge
    hb, wb = draw(st.integers(kh, max(kh, top + h + 3))), draw(st.integers(kw, max(kw, left + w + 3)))
    return ((kh, kw), stride, (top, left, hb, wb), (h, w), draw(st.integers(1, 3)),
            draw(st.sampled_from(sorted(_LAYOUTS))), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_im2col_geometry())
@example(((3, 3), 1, (0, 0, 5, 4), (5, 4), 2, "transposed", 0))   # a itself is the buffer
@example(((2, 1), 2, (0, 0, 4, 3), (4, 3), 3, "sliced", 1))
@example(((4, 4), 2, (1, 1, 6, 6), (2, 2), 2, "contiguous", 2))   # conv_up2x's VJP
def test_im2col_matches_sliding_window_view(geometry):
    (kh, kw), s, placement, (h, w_), c, layout, seed = geometry
    a = _LAYOUTS[layout](np.random.default_rng(seed).standard_normal((2, h, w_, c)))
    got, want = ad._im2col(a, kh, kw, s, *placement), _im2col_reference(a, kh, kw, s, *placement)
    # equal values in an equal layout, so every GEMM on the matrix is bitwise the same
    assert np.array_equal(got, want) and got.strides == want.strides


@settings(max_examples=120, deadline=None)
@given(_conv2d_geometry())
@example(((3, 3), 2, (1, 1), (8, 8), (3, 2), 4))   # enc.conv1's geometry
@example(((1, 1), 3, (0, 0), (7, 8), (3, 2), 2))   # stride > kernel: phases with no taps
@example(((1, 1), 2, (1, 1), (1, 1), (3, 2), 3))   # no phase has taps and rows: gx is 0
def test_conv_transpose_matches_one_buffer_per_phase(geometry):
    # batch 2 and C-contiguous g, as conv2d's VJP gets it. With one image and one
    # input channel, a phase one column wide made the per-phase window matrix an
    # overlapping view, which numpy's matrix-vector product does not hand to BLAS:
    # there the last bit may differ.
    (kh, kw), stride, pad, (h, w_), (cin, cout), seed = geometry
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((kh, kw, cin, cout))
    g = rng.standard_normal((2, (h + 2 * pad[0] - kh) // stride + 1,
                             (w_ + 2 * pad[1] - kw) // stride + 1, cout))
    got = ad._conv_transpose(g, w, stride, pad, (h, w_))
    assert np.array_equal(got, _conv_transpose_reference(g, w, stride, pad, (h, w_)))
    # conv_up2x's forward: the 4x4 folded kernel at stride 2, pad (1, 1)
    k4, v = rng.standard_normal((4, 4, cout, cin)), rng.standard_normal((2, h, w_, cin))
    got = ad._conv_transpose(v, k4, 2, (1, 1), (2 * h, 2 * w_))
    assert np.array_equal(got, _conv_transpose_reference(v, k4, 2, (1, 1), (2 * h, 2 * w_)))


@pytest.mark.parametrize("call, match", [
    (lambda x, w: ad.conv2d(x, w, stride=1.5), "conv2d: stride"),
    (lambda x, w: ad.conv2d(x, w, stride=0), "conv2d: stride"),
    (lambda x, w: ad.conv2d(x, w, pad=(-1, 0)), "conv2d: pad"),
    (lambda x, w: ad.tile(ad.reshape(x, (1, 50)), 0, 0), "tile: reps"),
    (lambda x, w: ad.tile(ad.reshape(x, (1, 50)), 0, -2), "tile: reps"),
], ids=["stride-not-int", "stride-zero", "pad-negative", "reps-zero", "reps-negative"])
def test_conv2d_and_tile_reject_bad_arguments(call, match):
    # each of these used to run on a truncated stride, a cropped input or an
    # empty axis, or to fail inside numpy without naming the argument
    x, w = ad.leaf(np.ones((1, 5, 5, 2))), ad.leaf(np.ones((3, 3, 2, 2)))
    with pytest.raises(ValueError, match=match):
        call(x, w)


def test_safe_recip_zero_maps_to_zero():
    x = ad.leaf(np.array([0.0, 2.0, 0.5]))
    y = ad.safe_recip(x)
    assert np.array_equal(y.value, [0.0, 0.5, 2.0])
    g = ad.backward(ad.sum_all(y))[x]
    assert g[0] == 0.0  # flat where the input is exactly zero
    assert np.allclose(g[1:], [-0.25, -4.0])


# ---------------------------------------------------------------------------
# gradients against hand derivatives
# ---------------------------------------------------------------------------

def test_backward_hand_derivative(rng):
    # f = sum(x^2 * y)  =>  df/dx = 2 x y, df/dy = x^2
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3))
    nx, ny = ad.leaf(x), ad.leaf(y)
    loss = ad.sum_all(ad.mul(ad.mul(nx, nx), ny))
    g = ad.backward(loss)
    assert np.allclose(g[nx], 2 * x * y, atol=1e-14)
    assert np.allclose(g[ny], x * x, atol=1e-14)


def test_backward_fanout_accumulates():
    # f = sum(x * x + x)  =>  df/dx = 2x + 1, with x feeding three ops
    x = ad.leaf(np.array([1.0, -2.0, 0.5]))
    loss = ad.sum_all(ad.add(ad.mul(x, x), x))
    g = ad.backward(loss)
    assert np.allclose(g[x], 2 * x.value + 1.0)


def test_constants_are_parentless_leaves():
    x = ad.leaf(np.ones(3))
    c = ad.constant(np.full(3, 2.0))
    assert c.parents == ()
    loss = ad.sum_all(ad.mul(x, c))
    g = ad.backward(loss)
    assert np.array_equal(g[x], c.value)


def test_finite_diff_harness_passes_on_composite(rng):
    x = ad.leaf(rng.standard_normal((4, 3)))
    w = ad.constant(np.random.default_rng(5).standard_normal((3, 2)))

    def loss_fn():
        h = ad.relu(ad.matmul(x, w))
        return ad.sum_all(ad.mul(h, h))

    rep = finite_diff_check(loss_fn, [x], step=1e-5, tol=1e-6, name="relu-matmul")
    assert rep.passed, rep.line()
    assert rep.max_rel_err < 1e-6


def test_perturb_vjp_is_caught_by_finite_diff():
    # a deliberately corrupted backward rule must trip the checker
    x = ad.leaf(np.linspace(0.5, 1.5, 6).reshape(2, 3))

    def check():
        return finite_diff_check(lambda: ad.sum_all(ad.mul(x, x)), [x],
                                 step=1e-5, tol=1e-6, name="square")

    assert check().passed
    with ad.perturb_vjp("mul", 1.001):
        rep = check()
    assert not rep.passed
    assert check().passed  # restored on exit


def test_finite_diff_sampled_coords_catch_perturbed_vjp():
    # two leaves, three coordinates of each drawn from the rng: a corrupted
    # VJP must still be caught when only a sample is probed
    r = np.random.default_rng(2)
    a, b = ad.leaf(r.standard_normal((3, 4))), ad.leaf(r.standard_normal((4, 5)))
    w = ad.constant(r.standard_normal((3, 5)))

    def check(seed):
        return finite_diff_check(lambda: ad.sum_all(ad.mul(ad.matmul(a, b), w)), [a, b],
                                 step=1e-5, tol=1e-6, name="matmul", coords_per_leaf=3,
                                 rng=np.random.default_rng(seed))

    rep = check(0)
    assert rep.passed and rep.n_coords == 6, rep.line()
    with ad.perturb_vjp("matmul", 1.001):
        assert not check(0).passed
    with pytest.raises(ValueError, match="needs an rng"):
        finite_diff_check(lambda: ad.sum_all(a), [a], step=1e-5, tol=1e-6, name="a",
                          coords_per_leaf=3)


def _op_tags(*roots) -> set:
    """The op tags of every node reachable from ``roots``, leaves excluded."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if node.nid not in seen:
            seen[node.nid] = node.op
            stack.extend(node.parents)
    return set(seen.values()) - {"leaf", "param", "const"}


def test_every_recorded_op_has_a_gradcheck_entry_and_back():
    r = np.random.default_rng(3)
    used = set()
    for variant in VARIANTS:
        cfg = gradcheck.tiny_model_config(variant)
        model = build_model(cfg, seed=0)
        x = r.uniform(0.1, 0.9, (2, 8, 8, 1))
        sigma_sq = snr_to_sigma_sq(10.0)
        recon, _ = model.forward(x, sample_channel(r, 3, 2.0, batch=2), sigma_sq,
                                 clip_ratio=1.3, train=True,
                                 noise=awgn(r, (2, model.rx_len), sigma_sq))
        used |= _op_tags(mse_loss(recon, x))
    ocfg = cfg.ofdm
    pilots = make_pilots(ocfg.pilot_seed, ocfg.n_p, ocfg.l_fft)
    re, im = (ad.leaf(r.standard_normal((2, ocfg.n_s, ocfg.l_fft))) for _ in range(2))
    grid = cplx.CplxNode(re, im)
    pkt = assemble_packet(grid, pilots, ocfg, clip_ratio=1.2)
    rx = apply_channel(pkt.tx, sample_channel(r, 3, 2.0, batch=2), 0.1, rng=r)
    pilot_rx, data_rx = disassemble_packet(rx, ocfg)
    y = equalize_mmse(data_rx, estimate_channel_mmse(pilot_rx, pilots, 0.1), 0.1)
    used |= _op_tags(ad.sum_all(cplx.abs2(cplx.sub(y, grid))))

    # the composite entries check DSP blocks end to end; an op counts as
    # checked only when a primitive entry reaches it
    composites = {"normalize_power", "clip", "assemble_disassemble", "apply_channel",
                  "estimate_channel_mmse", "equalize_mmse", "mse_loss"}
    entries = gradcheck.op_checks()
    assert composites <= {name for name, *_ in entries}
    checked = set()
    for name, op, inputs, *_ in entries:
        if name not in composites:
            checked |= _op_tags(op(*(ad.leaf(a) for a in inputs)))
    assert used == checked, (sorted(used - checked), sorted(checked - used))


def test_finite_diff_restores_leaves_bitwise():
    r = np.random.default_rng(4)
    a, b = ad.leaf(r.standard_normal((2, 3))), ad.leaf(r.standard_normal((2, 3)))
    before = [a.value.tobytes(), b.value.tobytes()]
    assert finite_diff_check(lambda: ad.sum_all(ad.mul(a, b)), [a, b],
                             step=1e-5, tol=1e-6, name="mul").passed
    assert [a.value.tobytes(), b.value.tobytes()] == before

    calls = 0

    def failing():
        # succeeds at the base point (twice), then raises mid-probe of leaf b
        nonlocal calls
        calls += 1
        if calls > 2 + 2 * a.value.size + 1:
            raise RuntimeError("boom")
        return ad.sum_all(ad.mul(a, b))

    with pytest.raises(RuntimeError, match="boom"):
        finite_diff_check(failing, [a, b], step=1e-5, tol=1e-6, name="mul")
    assert [a.value.tobytes(), b.value.tobytes()] == before


def test_fd_noise_floor_accepts_structural_zero():
    # analytic exactly zero vs FD round-off: relative error is large but the
    # absolute error sits below the method's resolution, so the coord passes
    floor = ad.fd_noise_floor(1.0, 1e-5)
    rel, abs_, ok = ad.grad_errors(np.array([0.0]), np.array([3e-10]), 1e-6, floor)
    assert ok.all() and rel[0] > 0.9 and abs_[0] < floor
    # a genuine sign error is still rejected
    _, _, ok2 = ad.grad_errors(np.array([0.5]), np.array([-0.5]), 1e-6, floor)
    assert not ok2.any()


# ---------------------------------------------------------------------------
# summation order, result set and determinism
# ---------------------------------------------------------------------------

def test_fanout_sums_in_descending_consumer_id(rng):
    # x feeds four consumers; its gradient is exactly ((k3 + k2) + k1) + k0
    x = ad.leaf(rng.standard_normal(64))
    ks = [rng.standard_normal(64) for _ in range(4)]
    consumers = [ad.mul(x, ad.constant(k)) for k in ks]
    total = consumers[0]
    for c in consumers[1:]:
        total = ad.add(total, c)
    g = ad.backward(ad.sum_all(total))[x]
    want = ((ks[3] + ks[2]) + ks[1]) + ks[0]
    assert not np.array_equal(want, ((ks[0] + ks[1]) + ks[2]) + ks[3])  # order shows
    assert np.array_equal(g, want)


def test_backward_returns_only_nodes_that_pass_nothing_on(rng):
    x = ad.leaf(rng.standard_normal(3))
    c = ad.constant(rng.standard_normal(3))
    with ad.no_grad():
        h = ad.relu(ad.leaf(rng.standard_normal(3)))
    m = ad.mul(x, c)
    s = ad.add(ad.mul(m, m), h)
    loss = ad.sum_all(s)
    g = ad.backward(loss)
    assert g.keys() == {x, c, h}
    assert not {m, s, loss} & g.keys()


def _conv_bn_relu_conv(x, w1, gamma, beta, w2):
    h = ad.batch_norm(ad.conv2d(x, w1, pad=(1, 1)), gamma, beta)[0]
    return ad.sum_all(ad.conv2d(ad.relu(h), w2, pad=(1, 1)))


def _conv_bn_relu_conv_leaves(rng):
    return (ad.leaf(rng.standard_normal((4, 8, 8, 16))),
            ad.leaf(rng.standard_normal((3, 3, 16, 16))),
            ad.leaf(rng.uniform(0.5, 1.5, 16)), ad.leaf(rng.standard_normal(16)),
            ad.leaf(rng.standard_normal((3, 3, 16, 16))))


def test_rebuilt_graph_gives_identical_gradients(rng):
    leaves = _conv_bn_relu_conv_leaves(rng)
    g1, g2 = (ad.backward(_conv_bn_relu_conv(*leaves)) for _ in range(2))
    for leaf in leaves:
        assert np.array_equal(g1[leaf], g2[leaf])


def test_backward_consumes_its_graph(rng):
    x = ad.leaf(rng.standard_normal(7))
    h = ad.sigmoid(ad.mul(x, x))
    loss = ad.sum_all(h)
    want = ad.backward(ad.sum_all(ad.sigmoid(ad.mul(x, x))))[x]
    assert np.array_equal(ad.backward(loss)[x], want)
    assert loss.parents == () and h.parents == ()   # loss keeps only its value
    with pytest.raises(RuntimeError, match="'sum_all'.*earlier backward"):
        ad.backward(loss)
    # a second loss through an intermediate node the first backward consumed
    other = ad.sum_all(ad.mul(h, ad.constant(np.ones(7))))
    with pytest.raises(RuntimeError, match="'sigmoid'.*earlier backward"):
        ad.backward(other)
    with pytest.raises(ValueError):
        ad.assign(h, np.zeros(7))            # a consumed node is no leaf
    assert np.array_equal(ad.backward(ad.sum_all(ad.sigmoid(ad.mul(x, x))))[x], want)


def test_backward_frees_the_graph_it_has_run(rng):
    # loss stays referenced; what is left is the leaves and their gradients
    def run():
        leaves = _conv_bn_relu_conv_leaves(rng)
        loss = _conv_bn_relu_conv(*leaves)
        return leaves, loss, ad.backward(loss)

    (leaves, loss, grads), held = _retained_bytes(run)
    kept = sum(n.value.nbytes for n in leaves) + sum(g.nbytes for g in grads.values())
    assert loss.value.size == 1 and held <= kept + 64 * 1024


def test_repeated_forward_same_value(rng):
    v = rng.standard_normal((3, 2))
    a = ad.sigmoid(ad.leaf(v))
    b = ad.sigmoid(ad.leaf(v))
    assert np.array_equal(a.value, b.value)


# ---------------------------------------------------------------------------
# error paths and immutability
# ---------------------------------------------------------------------------

def test_values_are_read_only(rng):
    n = ad.leaf(rng.standard_normal(4))
    with pytest.raises(ValueError):
        n.value[0] = 99.0
    out = ad.mul_const(n, 2.0)
    with pytest.raises(ValueError):
        out.value[1] = 0.0


def test_leaf_copies_its_input():
    src = np.ones(3)
    n = ad.leaf(src)
    src[0] = 42.0
    assert n.value[0] == 1.0


def test_assign_only_on_leaves(rng):
    n = ad.leaf(np.zeros(3))
    ad.assign(n, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(n.value, [1.0, 2.0, 3.0])
    derived = ad.mul_const(n, 2.0)
    with pytest.raises(ValueError):
        ad.assign(derived, np.zeros(3))
    with pytest.raises(ValueError):
        ad.assign(n, np.zeros(4))  # shape mismatch
    with pytest.raises(FloatingPointError):
        ad.assign(n, np.array([1.0, np.nan, 3.0]))


def test_nonscalar_backward_rejected(rng):
    x = ad.leaf(rng.standard_normal(3))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def test_nonfinite_forward_raises():
    x = ad.leaf(np.array([1.0, 0.0]))
    with pytest.raises(ZeroDivisionError):
        ad.recip(x)
    with pytest.raises(ValueError):
        ad.sqrt(ad.leaf(np.array([-1.0])))
    big = ad.leaf(np.array([1e308]))
    with pytest.raises(FloatingPointError):
        ad.mul(big, big)  # overflow must not propagate silently


def test_shape_mismatch_rejected(rng):
    a = ad.leaf(rng.standard_normal((2, 3)))
    b = ad.leaf(rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_node_ids_strictly_increase(rng):
    a = ad.leaf(np.zeros(2))
    b = ad.mul_const(a, 2.0)
    c = ad.add(a, b)
    assert a.nid < b.nid < c.nid


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_builds_no_graph(rng):
    x = ad.leaf(rng.standard_normal((2, 3)))
    w = ad.leaf(rng.standard_normal((3, 4)))
    z = ad.mul(x, x)  # recorded outside: must stay differentiable
    with ad.no_grad():
        m = ad.matmul(x, w)
        assert m.parents == (x, w) and m.vjp is None  # inputs readable while fresh
        h = ad.relu(m)
        y = ad.sum_all(ad.mul(h, h))
        ad.relu(z)
    assert m.parents == () and h.parents == ()  # unlinked once consumed
    assert y.vjp is None and h.op == "relu"
    assert np.array_equal(h.value, np.maximum(x.value @ w.value, 0.0))
    assert ad.backward(y).keys() == {y}  # nothing upstream is reachable
    assert z.parents == (x, x)
    g = ad.backward(ad.sum_all(ad.mul(h, h)))  # h acts as a constant
    assert np.array_equal(g[h], 2 * h.value)
    assert x not in g and w not in g


def test_no_grad_restored_after_exception_and_nested():
    x = ad.leaf(np.ones(2))
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.add(x, x).vjp is None  # the inner exit keeps it off
            raise RuntimeError("boom")
    assert ad.add(x, x).vjp is not None


def test_no_grad_is_per_thread():
    x = ad.leaf(np.ones(2))
    inside, outside = threading.Event(), threading.Event()
    seen = {}

    def other():
        inside.wait(timeout=10)
        seen["vjp"] = ad.add(x, x).vjp
        outside.set()

    t = threading.Thread(target=other)
    t.start()
    with ad.no_grad():
        inside.set()
        assert outside.wait(timeout=10)
    t.join(timeout=10)
    assert not t.is_alive()
    assert seen["vjp"] is not None
