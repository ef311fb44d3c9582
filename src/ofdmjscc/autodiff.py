"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

A small define-by-run engine: every operation returns a :class:`Node` holding
the forward value, references to its parent nodes and a closure that computes
vector-Jacobian products. :func:`backward` sweeps the graph once in
descending node id, a reverse topological order, and returns the gradients of
the nodes where the sweep stops (leaves, constants and ``no_grad`` nodes). The
sweep consumes the graph: it frees each node's closure once its VJP has run,
so a graph is differentiated once.

Determinism contract: node ids increase in creation order, and the
contributions into a node are summed as they arrive, in descending consumer
id, so a graph rebuilt from the same values always gives bitwise-identical
gradients.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_ids = itertools.count()

# Test hook: scales the VJP of a given op tag during backward. Used by the
# finite-difference checks to prove they detect a broken backward pass.
_vjp_scale: dict[str, float] = {}


@contextmanager
def perturb_vjp(op: str, scale: float):
    """Scale the backward pass of every node tagged ``op`` (test hook)."""
    _vjp_scale[op] = float(scale)
    try:
        yield
    finally:
        _vjp_scale.pop(op, None)


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager: ops recorded inside get no VJP; no gradient flows
    through them and ``backward`` stops at them.

    Such a node lists its inputs as ``parents`` (for tools that inspect a
    fresh node, such as FLOP counting) only until an op consumes it. So no
    graph builds up: what a VJP would hold (such as kn2row conv2d's padded
    input or relu's mask) is freed when the op returns, and its input values
    as soon as the next op has consumed its output. The state is per thread,
    so enter it in the thread that runs the ops.
    """

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "parents", "vjp", "op", "nid")

    def __init__(self, value: np.ndarray, parents: tuple = (), vjp=None, op: str = "leaf"):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.nid = next(_ids)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape}, nid={self.nid})"


def _freeze(arr: np.ndarray) -> np.ndarray:
    # note: not ascontiguousarray -- that silently promotes 0-d to 1-d
    out = np.array(arr, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


def leaf(value, op: str = "leaf") -> Node:
    """Wrap an array as a graph leaf (copied; values are immutable)."""
    return Node(_freeze(np.asarray(value, dtype=np.float64)), op=op)


def constant(value) -> Node:
    return leaf(value, op="const")


def assign(node: Node, value) -> None:
    """Replace a leaf's value in place (optimizer updates between graphs)."""
    if node.parents or node.vjp is not None:
        raise ValueError("assign: only leaf nodes can be assigned")
    new = _freeze(np.asarray(value, dtype=np.float64))
    if new.shape != node.value.shape:
        raise ValueError(f"assign: shape {new.shape} != {node.value.shape}")
    if not np.all(np.isfinite(new)):
        raise FloatingPointError("assign: non-finite value")
    node.value = new


def record(op: str, inputs: Sequence[Node], forward: Callable, vjp: Callable) -> Node:
    """Run ``forward`` on the input values and record the result node.

    Raises ``FloatingPointError`` if the forward produces NaN/Inf and
    ``TypeError``/``ValueError`` on malformed inputs. Under :class:`no_grad`
    the node gets no VJP (see there).
    """
    for n in inputs:
        if not isinstance(n, Node):
            raise TypeError(f"{op}: inputs must be Node, got {type(n).__name__}")
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            value = forward(*(n.value for n in inputs))
        except FloatingPointError as e:
            raise FloatingPointError(f"{op}: non-finite forward value ({e})") from None
    value = np.asarray(value, dtype=np.float64)
    if not np.isfinite(value).all():
        raise FloatingPointError(f"{op}: non-finite forward value")
    value.setflags(write=False)
    if _grad_mode.enabled:
        return Node(value, tuple(inputs), vjp, op)
    for n in inputs:
        if n.vjp is None and n.parents:
            n.parents = ()  # a consumed no_grad node: unlink, so no chain forms
    return Node(value, tuple(inputs), op=op)


def _require_same_shape(op: str, a: Node, b: Node) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape} "
                         "(no implicit broadcasting)")


def _require_int(op: str, name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{op}: {name} must be an int >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    _require_same_shape("add", a, b)
    return record("add", (a, b), np.add, lambda g: (g, g))


def sub(a: Node, b: Node) -> Node:
    _require_same_shape("sub", a, b)
    return record("sub", (a, b), np.subtract, lambda g: (g, -g))


def mul(a: Node, b: Node) -> Node:
    _require_same_shape("mul", a, b)
    av, bv = a.value, b.value
    return record("mul", (a, b), np.multiply, lambda g: (g * bv, g * av))


def add_const(a: Node, c: float) -> Node:
    c = float(c)
    return record("add_const", (a,), lambda x: x + c, lambda g: (g,))


def mul_const(a: Node, c: float) -> Node:
    c = float(c)
    return record("mul_const", (a,), lambda x: x * c, lambda g: (g * c,))


def sqrt(a: Node) -> Node:
    if np.any(a.value < 0.0):
        raise ValueError("sqrt: negative input")
    sv = np.sqrt(a.value)
    return record("sqrt", (a,), lambda x: sv, lambda g: (g * (0.5 / sv),))


def recip(a: Node) -> Node:
    if np.any(a.value == 0.0):
        raise ZeroDivisionError("recip: zero input")
    av = a.value
    return record("recip", (a,), np.reciprocal, lambda g: (-g / (av * av),))


def safe_recip(a: Node) -> Node:
    """1/x where x > 0, else 0 (receiver convention for null denominators)."""
    av = a.value
    pos = av > 0.0
    inv = np.where(pos, 1.0 / np.where(pos, av, 1.0), 0.0)
    return record("safe_recip", (a,), lambda x: inv,
                  lambda g: (np.where(pos, -g * inv * inv, 0.0),))


def relu(a: Node) -> Node:
    """``max(x, 0)``; -0.0 maps to +0.0 and the gradient at 0 is 0.

    Branch-free: an elementwise select on a data-dependent mask mispredicts
    once per element. The VJP finds the mask in the output (y > 0 exactly
    where x > 0), so nothing is stored for it.
    """
    y = np.maximum(a.value, 0.0)
    y += 0.0    # -0.0 -> +0.0: which zero max(-0.0, 0.0) gives is unspecified
    return record("relu", (a,), lambda x: y, lambda g: (_keep_where_positive(g, y),))


def _keep_where_positive(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.where(y > 0, g, 0.0)`` bit for bit, for y >= +0.0: g's bits AND
    -1 where y > 0 and AND 0 elsewhere. y's int64 bits b are >= 0 and are 0
    only at +0.0, so ``-b >> 63`` is that -1/0 mask."""
    bits = np.negative(y.view(np.int64))
    bits >>= 63
    bits &= np.asarray(g, dtype=np.float64).view(np.int64)
    return bits.view(np.float64)


def sigmoid(a: Node) -> Node:
    """``1/(1+e^-x)`` for x >= 0 and ``e^x/(1+e^x)`` below, so no exp overflows."""
    x = a.value
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return record("sigmoid", (a,), lambda x_: out, lambda g: (g * out * (1.0 - out),))


# ---------------------------------------------------------------------------
# reductions / shape ops
# ---------------------------------------------------------------------------

def sum_all(a: Node) -> Node:
    shape = a.value.shape
    return record("sum_all", (a,), lambda x: np.asarray(np.sum(x)),
                  lambda g: (np.broadcast_to(g, shape),))


def sum_axes(a: Node, axes: int | tuple) -> Node:
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(ax % a.value.ndim for ax in axes)
    shape = a.value.shape
    kshape = tuple(1 if i in axes else s for i, s in enumerate(shape))

    def bwd(g):
        return (np.broadcast_to(g.reshape(kshape), shape),)

    return record("sum_axes", (a,), lambda x: np.sum(x, axis=axes), bwd)


def reshape(a: Node, shape: tuple) -> Node:
    old = a.value.shape
    return record("reshape", (a,), lambda x: np.reshape(x, shape),
                  lambda g: (np.reshape(g, old),))


def slice_(a: Node, key) -> Node:
    """Basic slicing (tuple of ``slice``/int); the gradient scatters back."""
    shape = a.value.shape

    def bwd(g):
        out = np.zeros(shape)
        out[key] = g
        return (out,)

    return record("slice", (a,), lambda x: x[key].copy(), bwd)


def concat(nodes: Sequence[Node], axis: int) -> Node:
    nodes = list(nodes)
    if not nodes:
        raise ValueError("concat: empty input list")
    axis = axis % nodes[0].value.ndim
    sizes = [n.value.shape[axis] for n in nodes]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return record("concat", tuple(nodes), lambda *xs: np.concatenate(xs, axis=axis), bwd)


def tile(a: Node, axis: int, reps: int) -> Node:
    """Repeat a size-1 axis ``reps`` times; gradient sums back over it."""
    _require_int("tile", "reps", reps, 1)
    axis = axis % a.value.ndim
    if a.value.shape[axis] != 1:
        raise ValueError(f"tile: axis {axis} must have size 1, got {a.value.shape}")
    return record("tile", (a,), lambda x: np.repeat(x, reps, axis=axis),
                  lambda g: (np.sum(g, axis=axis, keepdims=True),))


def moveaxis(a: Node, source: int, destination: int) -> Node:
    """``np.moveaxis`` as a contiguous copy; the gradient moves the axis back."""
    return record("moveaxis", (a,),
                  lambda x: np.ascontiguousarray(np.moveaxis(x, source, destination)),
                  lambda g: (np.moveaxis(g, destination, source),))


def matmul(a: Node, b: Node) -> Node:
    """``a @ b`` with ``a`` of shape (..., n, k) and ``b`` strictly (k, m)."""
    if b.value.ndim != 2 or a.value.ndim < 2:
        raise ValueError(f"matmul: need a(...,n,k) @ b(k,m), got {a.shape} @ {b.shape}")
    if a.value.shape[-1] != b.value.shape[0]:
        raise ValueError(f"matmul: inner dims {a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def bwd(g):
        ga = g @ bv.T
        a2 = av.reshape(-1, av.shape[-1])
        g2 = g.reshape(-1, g.shape[-1])
        gb = a2.T @ g2
        return ga, gb

    return record("matmul", (a, b), np.matmul, bwd)


# ---------------------------------------------------------------------------
# broadcast helpers (explicit, no silent broadcasting elsewhere)
# ---------------------------------------------------------------------------

def _channel_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=(0, ..., ndim-2))`` bit for bit. That sum adds the rows in order
    when ``a`` is C-contiguous with C >= 2, as the faster ``einsum`` does; otherwise
    (C = 1 sums pairwise, a strided ``a`` in another order) it is itself the fallback."""
    if a.ndim < 2 or a.shape[-1] < 2 or not a.flags.c_contiguous:
        return np.sum(a, axis=tuple(range(a.ndim - 1)))
    return np.einsum("rc->c", a.reshape(-1, a.shape[-1]))


def bias_last(x: Node, b: Node) -> Node:
    """Add a vector along the last axis: ``x + b`` with b of shape (C,)."""
    if b.value.ndim != 1 or x.value.shape[-1] != b.value.shape[0]:
        raise ValueError(f"bias_last: {x.shape} + {b.shape}")
    return record("bias_last", (x, b), lambda xv, bv: xv + bv, lambda g: (g, _channel_sum(g)))


def scale_first(x: Node, s: Node) -> Node:
    """Multiply by a per-row scalar: x of shape (B, ...), s of shape (B,)."""
    if s.value.ndim != 1 or x.value.ndim < 1 or x.value.shape[0] != s.value.shape[0]:
        raise ValueError(f"scale_first: {x.shape} * {s.shape}")
    bshape = (s.value.shape[0],) + (1,) * (x.value.ndim - 1)
    red = tuple(range(1, x.value.ndim))
    xv = x.value
    sv = s.value.reshape(bshape)
    return record("scale_first", (x, s), lambda a, b: a * sv,
                  lambda g: (g * sv, np.sum(g * xv, axis=red)))


# ---------------------------------------------------------------------------
# DSP / NN structured ops
# ---------------------------------------------------------------------------

def clip_scale(a2: Node, threshold: float) -> Node:
    """Per-sample scale factor for amplitude clipping.

    Input is the squared amplitude ``a2 = re**2 + im**2``; output is
    ``min(1, t / sqrt(a2))`` so that the clipped signal ``s * (re, im)`` has
    amplitude ``min(t, sqrt(a2))`` and unchanged phase. Samples on or below
    the threshold pass through the identity branch. On the clipped branch a
    4-ulp shrink keeps the measured amplitude <= t under rounding.
    """
    t = float(threshold)
    if not (t > 0.0):
        raise ValueError("clip_scale: threshold must be > 0")
    v = a2.value
    if np.any(v < 0.0):
        raise ValueError("clip_scale: squared amplitudes must be >= 0")
    mask = v > t * t
    vm = np.where(mask, v, 1.0)     # 1.0 in the lanes the selects drop: no spurious warning
    shrink = 1.0 - 4.0 * np.finfo(np.float64).eps
    s = np.where(mask, t * shrink / np.sqrt(vm), 1.0)

    def bwd(g):
        return (g * np.where(mask, -0.5 * t / (vm * np.sqrt(vm)), 0.0),)

    return record("clip_scale", (a2,), lambda x: s, bwd)


def _embed(a: np.ndarray, top: int, left: int, hb: int, wb: int) -> np.ndarray:
    """``a`` (B, H, W, C) in a zero (B, hb, wb, C) buffer, its element (0, 0) at buffer
    position (top, left); either may be negative, and what falls outside the buffer is
    cut. ``a`` itself if it fills the buffer exactly."""
    B, H, W, C = a.shape
    if (top, left, hb, wb) == (0, 0, H, W):
        return a
    buf = np.zeros((B, hb, wb, C))
    y0, y1 = max(top, 0), min(top + H, hb)
    x0, x1 = max(left, 0), min(left + W, wb)
    if y0 < y1 and x0 < x1:
        buf[:, y0:y1, x0:x1] = a[:, y0 - top:y1 - top, x0 - left:x1 - left]
    return buf


def _windows(buf: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The kh×kw windows of ``buf`` (B, ., ., C) with corners (i*stride, j*stride), i < ho,
    j < wo, as rows of a (B*ho*wo, kh*kw*C) matrix, in (B, i, j) row and (kh, kw, C)
    column order: one read-only strided view, reshaped (a copy unless the windows tile
    the buffer)."""
    sb, sh, sw, sc = buf.strides
    view = np.lib.stride_tricks.as_strided(
        buf, (buf.shape[0], ho, wo, kh, kw, buf.shape[3]),
        (sb, sh * stride, sw * stride, sh, sw, sc), writeable=False)
    return view.reshape(-1, kh * kw * buf.shape[3])


def _im2col(a: np.ndarray, kh: int, kw: int, stride: int, top: int, left: int,
            hb: int, wb: int) -> np.ndarray:
    """Windows of ``a`` (B, H, W, C) as rows of a (B*ho*wo, kh*kw*C) matrix: the kh×kw
    windows at ``stride`` over a zero (hb, wb) buffer holding ``a`` at (top, left)
    (``_embed``, which cuts what falls outside), read from one strided view (``_windows``)."""
    return _windows(_embed(a, top, left, hb, wb), kh, kw, stride,
                    (hb - kh) // stride + 1, (wb - kw) // stride + 1)


def _phases(k: int, s: int, p: int, n: int) -> list[tuple[int, int, int, int, int]]:
    """One axis of the stride phases of a conv2d input gradient that have taps and rows.

    Padded input positions ``q*s + r`` take taps ``r, r+s, ...`` (``t`` of them)
    from output positions ``q, q-1, ...``. Per phase ``(r, t, y0, m, top)``: its
    rows inside the unpadded input are ``y0, y0+s, ...`` (``m`` of them), and the
    window of its i-th row over the output gradient starts at output row ``i - top``.
    """
    phases = []
    for r in range(min(s, k)):
        t = len(range(r, k, s))
        q0 = -((r - p) // s)                 # first q with q*s + r >= p
        y0 = q0 * s + r - p
        m = len(range(y0, n, s))
        if m:
            phases.append((r, t, y0, m, t - 1 - q0))
    return phases


def _span(phases: list[tuple[int, int, int, int, int]]) -> tuple[int, int]:
    """The first output-gradient row that the phases' windows read, and how many they span."""
    lo = min(-top for _, _, _, _, top in phases)
    return lo, max(m + t - 1 - top for _, t, _, m, top in phases) - lo


def conv2d(x: Node, w: Node, stride: int = 1, pad: tuple[int, int] = (0, 0)) -> Node:
    """2-D convolution. x: (B, H, W, Cin), w: (kh, kw, Cin, Cout); gx by ``_conv_transpose``.

    One GEMM in one of two layouts, chosen by
    ``stride == 1 and kh > 1 and kw > 1 and kh*kw*Cout <= Cin``. If it holds (a
    2-D kernel with a narrow output, such as the decoder's last conv),
    ``_conv2d_kn2row`` runs: the padded input times all taps side by side.
    Otherwise im2col: the (B*Ho*Wo, kh*kw*Cin) window matrix times the
    (kh*kw*Cin, Cout) kernel. The VJP keeps x, not that kh*kw times larger
    matrix, and rebuilds it for gw from the same values, so gw is the same GEMM
    on the same operands (for a 1x1 stride-1 conv without padding the matrix is
    a view of x). On a single-row kernel such as the explicit receiver's 1x3
    one, kn2row's shifted adds cost what it saves.
    """
    if x.value.ndim != 4 or w.value.ndim != 4:
        raise ValueError(f"conv2d: need x(B,H,W,C), w(kh,kw,Cin,Cout); got {x.shape}, {w.shape}")
    B, H, W, Cin = x.value.shape
    kh, kw, wc, Cout = w.value.shape
    if wc != Cin:
        raise ValueError(f"conv2d: channel mismatch {Cin} vs {wc}")
    _require_int("conv2d", "stride", stride, 1)
    ph, pw = pad
    _require_int("conv2d", "pad", ph, 0)
    _require_int("conv2d", "pad", pw, 0)
    Ho = (H + 2 * ph - kh) // stride + 1
    Wo = (W + 2 * pw - kw) // stride + 1
    if Ho < 1 or Wo < 1:
        raise ValueError("conv2d: output would be empty")
    if stride == 1 and kh > 1 and kw > 1 and kh * kw * Cout <= Cin:
        return _conv2d_kn2row(x, w, pad, Ho, Wo)

    def cols(xv):
        return _im2col(xv, kh, kw, stride, ph, pw, H + 2 * ph, W + 2 * pw)

    def fwd(xv, wv):
        return (cols(xv) @ wv.reshape(kh * kw * Cin, Cout)).reshape(B, Ho, Wo, Cout)

    xv = x.value
    return record("conv2d", (x, w), fwd,
                  lambda g: (_conv_transpose(g, w.value, stride, pad, (H, W)),
                             (cols(xv).T @ g.reshape(B * Ho * Wo, Cout)).reshape(kh, kw, Cin, Cout)))


def _conv2d_kn2row(x: Node, w: Node, pad: tuple[int, int], Ho: int, Wo: int) -> Node:
    """Stride-1 ``conv2d`` as "kn2row" (Vasudevan, Anderson & Gregg, arXiv 1704.04428).

    One GEMM of all kh*kw taps against the padded input, then the kh*kw output
    slices, each shifted by its tap, are summed in tap order. gw is one GEMM
    of kh*kw shifted copies of g against the padded input. Both GEMMs put the
    taps first, (kh*kw*Cout, Cin) @ (Cin, B*Hp*Wp) and (kh*kw*Cout, B*Hp*Wp) @
    (B*Hp*Wp, Cin), so every shifted slice runs along image rows. The VJP keeps
    the padded input, not im2col's kh*kw times larger window matrix, and under
    the rule the per-tap buffers (kh*kw*Cout values per padded position) are
    no larger.
    """
    (B, H, W, Cin), (kh, kw, _, Cout) = x.value.shape, w.value.shape
    ph, pw = pad
    xp = x.value
    if ph or pw:
        xp = np.zeros((B, H + 2 * ph, W + 2 * pw, Cin))
        xp[:, ph:ph + H, pw:pw + W] = x.value
    x2 = xp.reshape(-1, Cin)
    taps = list(itertools.product(range(kh), range(kw)))
    grid = (kh, kw, Cout, *xp.shape[:3])        # per tap and output channel, the padded grid

    def fwd(xv, wv):
        y = (wv.transpose(0, 1, 3, 2).reshape(-1, Cin) @ x2.T).reshape(grid)
        parts = [y[i, j, :, :, i:i + Ho, j:j + Wo] for i, j in taps]
        out = parts[0] + parts[1]
        for part in parts[2:]:
            out += part
        return np.ascontiguousarray(out.transpose(1, 2, 3, 0))

    def bwd(g):
        gs, gt = np.zeros(grid), g.transpose(3, 0, 1, 2)
        for i, j in taps:
            gs[i, j, :, :, i:i + Ho, j:j + Wo] = gt
        gw = (gs.reshape(kh * kw * Cout, -1) @ x2).reshape(kh, kw, Cout, Cin)
        return (_conv_transpose(g, w.value, 1, pad, (H, W)),
                np.ascontiguousarray(gw.transpose(0, 1, 3, 2)))

    return record("conv2d", (x, w), fwd, bwd)


def _conv_transpose(g: np.ndarray, w: np.ndarray, s: int, pad, hw) -> np.ndarray:
    """The adjoint of ``conv2d(., w, s, pad)`` on an ``hw`` input, applied to ``g``.

    Split by stride phase (Dumoulin & Visin, arXiv 1603.07285): the input rows and
    columns of phase (ry, rx) are one GEMM of the phase's windows over ``g`` with
    the flipped, channel-swapped ``w[ry::s, rx::s]``; rows no tap reaches stay 0. g
    is zero-padded once, by the union of the phases' margins, and every phase's
    window matrix is a strided view of that one buffer (``_windows``).
    """
    B, (kh, kw, Cin, _) = g.shape[0], w.shape
    ys, xs = _phases(kh, s, pad[0], hw[0]), _phases(kw, s, pad[1], hw[1])
    if not (ys and xs):             # no tap reaches any input row or column
        return np.zeros((B, *hw, Cin))
    (y_lo, hb), (x_lo, wb) = _span(ys), _span(xs)
    buf = _embed(g, -y_lo, -x_lo, hb, wb)
    out = np.zeros((B, *hw, Cin)) if s > 1 else None
    for (ry, ty, y0, my, top), (rx, tx, x0, mx, left) in itertools.product(ys, xs):
        gcols = _windows(buf[:, -top - y_lo:, -left - x_lo:], ty, tx, 1, my, mx)
        sub = w[ry::s, rx::s][::-1, ::-1].transpose(0, 1, 3, 2)
        block = (gcols @ sub.reshape(-1, Cin)).reshape(B, my, mx, Cin)
        if s == 1:                  # the one phase covers every row and column
            return block
        out[:, y0::s, x0::s] = block
    return out


# ``fold``, per axis: taps (w0, w1, w2) -> (w2, w1+w2, w0+w1, w0). _FOLD2[4a+b, 3d+e] = fold[a, d]
# * fold[b, e] is 0 or 1: exact products. Each einsum sums along a stride > 8 of its constant: term
# by term in (d, e) or (a, b) order, not in the regrouping loop for a sum contiguous in both operands.
_FOLD = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
_FOLD2 = np.kron(_FOLD, _FOLD)                  # (16, 9)
_FOLD2_T = np.ascontiguousarray(_FOLD2.T)       # (9, 16)


def conv_up2x(x: Node, w: Node) -> Node:
    """``conv2d(nearest 2x upsampling of x, w, pad=(1, 1))``, computed on x (B, H, W, Cin);
    w: (3, 3, Cin, Cout). Per axis, upsampling then the taps (w0, w1, w2) is a stride-2
    transposed conv with the taps (w2, w1+w2, w0+w1, w0): ``fold`` makes the 4x4 kernel k4.
    Its input gradient is conv2d's forward of g with k4; ``fold``'s adjoint gives gw."""
    if x.value.ndim != 4 or w.value.ndim != 4 or w.value.shape[:3] != (3, 3, x.value.shape[3]):
        raise ValueError(f"conv_up2x: need x(B,H,W,C), w(3,3,C,Cout); got {x.shape}, {w.shape}")
    (B, H, W, Cin), Cout = x.value.shape, w.value.shape[3]
    k4 = np.einsum("dk,dio->koi", _FOLD2_T, w.value.reshape(9, Cin, Cout)).reshape(4, 4, Cout, Cin)

    def bwd(g):
        gcols = _im2col(g, 4, 4, 2, 1, 1, 2 * H + 2, 2 * W + 2)
        gx = (gcols @ k4.reshape(16 * Cout, Cin)).reshape(B, H, W, Cin)
        gk4 = (gcols.T @ x.value.reshape(B * H * W, Cin)).reshape(16, Cout, Cin)
        return gx, np.einsum("kd,koi->dio", _FOLD2, gk4).reshape(3, 3, Cin, Cout)

    return record("conv_up2x", (x, w),
                  lambda v, _: _conv_transpose(v, k4, 2, (1, 1), (2 * H, 2 * W)), bwd)


BN_EPS = 1e-5   # added to the variance before the inverse square root


def batch_norm(x: Node, gamma: Node, beta: Node,
               stats: tuple[np.ndarray, np.ndarray] | None = None
               ) -> tuple[Node, np.ndarray, np.ndarray]:
    """Per-channel (last axis) ``(x - mean) * (gamma * inv) + beta``, inv = 1/sqrt(var + BN_EPS).

    ``stats=None`` (train mode) uses the biased batch (mean, var) over all
    leading axes, else the fixed ``stats``; returns the node and (mean, var).
    The forward repeats, expression for expression, the elementwise composite
    it replaces, so values match it bitwise. Closed-form VJP: dbeta = sum(g),
    dgamma = inv * sum(g * xc) and, in train mode, dx = gamma * inv *
    (g - sum(g)/n - xhat * sum(g * xhat)/n) with xc = x - mean, xhat = xc * inv.
    """
    shapes = [np.shape(v) for v in (gamma.value, beta.value, *(stats or ()))]
    if x.value.ndim < 2 or any(s != x.value.shape[-1:] for s in shapes):
        raise ValueError(f"batch_norm: need x(..., C) and per-channel (C,) gamma, beta "
                         f"and stats; got {x.shape} and {shapes}")
    n = x.value.size // x.value.shape[-1]
    train = stats is None
    if train and n < 2:
        raise ValueError("batch_norm: batch statistics need >= 2 samples")
    mean, var = stats or (None, None)
    inv = scale = None

    def fwd(xv, gv, bv):
        nonlocal mean, var, inv, scale
        if train:
            mean = _channel_sum(xv) * (1.0 / n)
        xc = xv + -mean
        if train:
            var = _channel_sum(xc * xc) * (1.0 / n)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        scale = gv * inv
        return np.add(np.multiply(xc, scale, out=xc), bv, out=xc)    # xc * scale + bv

    def bwd(g):
        xc = x.value + -mean        # the forward's expression: x is kept anyway, xc is not
        sg, sgx = _channel_sum(g), _channel_sum(g * xc)
        if not train:
            return g * scale, sgx * inv, sg
        # scale * (g - (sg + xc * (inv * inv * sgx)) * (1 / n)), each step written into xc
        np.multiply(xc, inv * inv * sgx, out=xc)
        np.add(sg, xc, out=xc)
        np.multiply(xc, 1.0 / n, out=xc)
        np.subtract(g, xc, out=xc)
        return np.multiply(scale, xc, out=xc), sgx * inv, sg

    out = record("batch_norm", (x, gamma, beta), fwd, bwd)   # sets mean and var
    return out, mean, var


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def _grad_parents(node: Node) -> tuple:
    """The parents a gradient flows to: none from leaves and no_grad nodes."""
    return node.parents if node.vjp is not None else ()


def _consumed(g):
    """Stands in for a VJP that :func:`backward` has run and dropped."""
    raise RuntimeError("backward: this node's graph was consumed by an earlier backward")


def _reachable(loss: Node) -> list[Node]:
    """The nodes ``loss`` needs a gradient for, in ascending id."""
    seen = {loss.nid: loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node.vjp is _consumed:
            raise RuntimeError(f"backward: the {node.op!r} node {node.nid} was consumed by "
                               "an earlier backward; build the graph again")
        for p in _grad_parents(node):
            if p.nid >= node.nid:
                raise RuntimeError("cycle detected: parent id >= child id")
            if p.nid not in seen:
                seen[p.nid] = p
                stack.append(p)
    return [seen[k] for k in sorted(seen)]


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """d(loss)/d(node) for every reachable node that passes no gradient on.

    Those are the leaves, constants and :class:`no_grad` nodes reached from
    ``loss`` (``loss`` itself if it is one); they are left as they are.
    Intermediate gradients are not returned. One sweep in descending node id:
    each contribution is added to its node's pending gradient as it arrives,
    so the sum runs in descending consumer id.

    The sweep consumes the graph. Once a node's VJP has run, the node drops
    its VJP and parents, so what its closure holds is freed at once, and
    each intermediate node, with its gradient, as soon as its last consumer
    has run. Afterwards ``loss`` keeps only its value. A later ``backward``
    that reaches a consumed node raises ``RuntimeError`` before any VJP runs:
    to differentiate again, build the graph again.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    order = _reachable(loss)
    pending: dict[int, np.ndarray] = {loss.nid: np.ones(loss.value.shape)}
    grads: dict[Node, np.ndarray] = {}
    while order:
        node = order.pop()          # the sweep keeps no reference to what it has done
        g = np.asarray(pending.pop(node.nid), dtype=np.float64)
        if g.shape != node.value.shape:
            raise ValueError(f"backward: gradient shape {g.shape} != value shape "
                             f"{node.value.shape} at op {node.op!r}")
        if not _grad_parents(node):
            grads[node] = g
            continue
        factor = _vjp_scale.get(node.op, 1.0)
        pgrads, parents = node.vjp(g), node.parents
        node.vjp, node.parents = _consumed, ()
        if len(pgrads) != len(parents):
            raise RuntimeError(f"backward: op {node.op!r} returned {len(pgrads)} "
                               f"gradients for {len(parents)} parents")
        for p, pg in zip(parents, pgrads):
            if factor != 1.0:
                pg = pg * factor
            prev = pending.get(p.nid)
            pending[p.nid] = pg if prev is None else prev + pg
    return grads


# ---------------------------------------------------------------------------
# finite-difference error measures (the probe is gradcheck.finite_diff_check)
# ---------------------------------------------------------------------------

def fd_noise_floor(f0: float, step: float) -> float:
    """Absolute resolution of a central difference of a scalar of size ``f0``.

    Rounding of the two function evaluations alone perturbs the quotient by
    about ``eps * |f0| / step``; anything below a small multiple of that is
    indistinguishable from an exact match.
    """
    return 64.0 * np.finfo(np.float64).eps * (1.0 + abs(f0)) / step


def grad_errors(analytic: np.ndarray, fd: np.ndarray, tol: float,
                floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coordinate (rel_err, abs_err, ok) arrays.

    ``rel_err = |a - f| / (|a| + |f| + 1e-12)``; a coordinate passes when the
    relative error is within ``tol`` or the absolute error is below the
    finite-difference noise floor (relevant only where the true gradient is
    zero or tiny — e.g. parameters whose effect is cancelled by a later
    normalization — and the comparison is noise against noise).
    """
    abs_err = np.abs(analytic - fd)
    rel_err = abs_err / (np.abs(analytic) + np.abs(fd) + 1e-12)
    ok = (rel_err <= tol) | (abs_err <= floor)
    return rel_err, abs_err, ok

