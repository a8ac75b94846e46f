"""Dense tensors with reverse-mode automatic differentiation.

Everything is numpy-backed and CPU-only. A Tensor records the operation
that produced it and its parent tensors; ``backward()`` on a scalar loss
walks that graph in reverse topological order and accumulates gradients
on every leaf ancestor with ``requires_grad``. Intermediate nodes drop
their gradient once it has been passed to their parents, so repeated
walks over one graph accumulate into the leaves exactly once each.
Image tensors are NCHW.

Gradient conventions at kinks: relu/leaky_relu take the positive branch
at exactly 0, the gradient of ``|x|`` at 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


def _as_float_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """N-dimensional float array, optionally tracked in an autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def numel(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar on all requires-grad leaf ancestors."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        _accum(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                # only leaves keep a gradient: a later walk over a shared
                # node must not pass this one on again
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(out_data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor(out_data)
    if backward_fn is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _operands(op: str, a: Tensor, b: Tensor, shape: tuple | None = None) -> None:
    """Reject operands of two dtypes, and ``b`` not of ``shape`` when one is given."""
    if a.dtype != b.dtype:
        raise TypeError(f"{op}: operand dtypes {a.dtype} and {b.dtype} differ")
    if shape is not None and b.shape != shape:
        raise ShapeError(f"{op}: operand shape {b.shape}, expected {shape}")


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _operands("add", a, b, a.shape)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _operands("sub", a, b, a.shape)

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _operands("mul", a, b, a.shape)

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)  # NumPy 1.x makes a 0-d float32 * float a float64
    def backward(g):
        _accum(a, g * c)

    return _make(a.data * c, (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g * (a.data >= 0))

    return _make(np.maximum(a.data, 0), (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    one, s = a.data.dtype.type(1), a.data.dtype.type(slope)  # a float64 factor upcasts g

    def backward(g):
        _accum(a, g * np.where(a.data >= 0, one, s))

    return _make(np.where(a.data >= 0, a.data, a.data * s), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    return _make(y, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and losses


def reduce_sum(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _make(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), backward)


def reduce_mean(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        _accum(a, np.full_like(a.data, float(g) / n))

    return _make(np.asarray(a.data.mean(), dtype=a.data.dtype), (a,), backward)


def abs_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference (L1). Gradient of |x| at 0 is 0."""
    _operands("abs_mean", a, b, a.shape)
    d = a.data - b.data
    n = d.size

    def backward(g):
        ga = np.sign(d) * (float(g) / n)
        _accum(a, ga)
        _accum(b, -ga)

    return _make(np.asarray(np.abs(d).mean(), dtype=d.dtype), (a, b), backward)


def square_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference (MSE)."""
    _operands("square_mean", a, b, a.shape)
    d = a.data - b.data
    n = d.size

    def backward(g):
        ga = d * (2.0 * float(g) / n)
        _accum(a, ga)
        _accum(b, -ga)

    return _make(np.asarray((d * d).mean(), dtype=d.dtype), (a, b), backward)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d expects a matrix, got shape {a.shape}")

    def backward(g):
        _accum(a, g.T)

    return _make(np.ascontiguousarray(a.data.T), (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} @ {b.shape}")
    _operands("matmul", a, b)

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    for t in tensors[1:]:
        _operands("concat", tensors[0], t)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    parents = tuple(tensors)

    def backward(g):
        for t, lo, hi in zip(parents, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 parents, backward)


def row_l2_normalize(a: Tensor) -> Tensor:
    """Divide each row of a matrix by its L2 norm; all-zero rows stay zero."""
    if a.data.ndim != 2:
        raise ShapeError(f"row_l2_normalize expects a matrix, got shape {a.shape}")
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    nonzero = norms > 0
    safe = np.where(nonzero, norms, 1.0)
    y = a.data / safe

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, np.where(nonzero, (g - y * dot) / safe, 0.0))

    return _make(y, (a,), backward)


# ---------------------------------------------------------------------------
# padding


def _reflect_fold(g: np.ndarray, p: int, H: int, W: int) -> np.ndarray:
    # adjoint of np.pad(..., mode="reflect") on the last two axes
    mid = g[..., p:p + H, :].copy()
    if p:
        mid[..., 1:p + 1, :] += g[..., p - 1::-1, :]
        mid[..., H - p - 1:H - 1, :] += g[..., :H + p - 1:-1, :]
    out = mid[..., :, p:p + W].copy()
    if p:
        out[..., :, 1:p + 1] += mid[..., :, p - 1::-1]
        out[..., :, W - p - 1:W - 1] += mid[..., :, :W + p - 1:-1]
    return out


def _embed(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the last two axes by (ph, pw) on each side."""
    N, C, H, W = x.shape
    out = np.zeros((N, C, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    out[:, :, ph:ph + H, pw:pw + W] = x
    return out


def _pad(x: np.ndarray, p: int, mode: str) -> np.ndarray:
    """x (N, C, H, W) padded by p on every side; pad2d checks the arguments."""
    if mode == "zero":
        return _embed(x, p, p)
    N, C, H, W = x.shape
    out = np.empty((N, C, H + 2 * p, W + 2 * p), dtype=x.dtype)
    out[:, :, p:p + H, p:p + W] = x
    # mirror rows without the edge row, then whole columns (corners
    # included); reversed forward slices avoid a stop of -1 at p = H - 1
    out[:, :, :p, p:p + W] = x[:, :, 1:p + 1][:, :, ::-1]
    out[:, :, p + H:, p:p + W] = x[:, :, H - 1 - p:H - 1][:, :, ::-1]
    out[..., :p] = out[..., p + 1:2 * p + 1][..., ::-1]
    out[..., p + W:] = out[..., W - 1:W + p - 1][..., ::-1]
    return out


def pad2d(a: Tensor, padding: int, mode: str = "zero") -> Tensor:
    """Pad the last two axes by `padding` on every side (zero or reflect)."""
    if padding < 0:
        raise ShapeError(f"pad2d: negative padding {padding}")
    if padding == 0:
        return a
    if a.data.ndim != 4:
        raise ShapeError(f"pad2d expects NCHW, got shape {a.shape}")
    N, C, H, W = a.shape
    p = padding
    if mode == "zero":

        def backward(g):
            _accum(a, g[:, :, p:p + H, p:p + W])

    elif mode == "reflect":
        if p >= H or p >= W:
            raise ShapeError(
                f"pad2d reflect: padding {p} too large for spatial size {H}x{W}"
            )

        def backward(g):
            _accum(a, _reflect_fold(g, p, H, W))

    else:
        raise ValueError(f"pad2d: unknown mode {mode!r}")
    return _make(_pad(a.data, p, mode), (a,), backward)


# ---------------------------------------------------------------------------
# convolution
#
# A transposed convolution is the input gradient (the adjoint) of a
# convolution (Dumoulin & Visin 2016, arXiv 1603.07285), so both ops share
# four products; which one runs follows from the shapes alone:
#   - _kn2row is conv2d's forward at stride 1 and O < I (the 7x7 heads, the
#     last PatchGAN conv), where an im2col GEMM would have 1-3 rows against
#     an input gathered kh*kw times. A run of taps is one GEMM of their
#     stacked (taps*O, I) weight against the flat padded input, then one
#     shifted slice-add per tap (kn2row: Vasudevan et al. 2017, arXiv
#     1704.04428). A run's product holds at most BLOCK_ELEMS elements (at
#     least one tap). _kn2row_weight_grad, its weight gradient, stacks the
#     output gradient at each tap's shift against the same padded input.
#   - _correlate, w2d @ columns, is conv2d's forward at every other shape
#     and conv_transpose2d's input gradient, one band of output rows at a
#     time (_bands); a band's columns hold at most BLOCK_ELEMS elements (at
#     least one row) and are dropped at once. At stride 1 a tap's columns
#     are one flat span of the padded plane, rows at pitch Wp (kn2row's
#     geometry), so the gather copies whole spans, not one short run per
#     output row; the kw-1 wrap columns per row are dropped as the band's
#     product is compacted into the output. Other strides gather windows.
#   - _adjoint, a conv's input gradient, is conv2d's backward and
#     conv_transpose2d's forward. At stride 1 and O < I it gathers: the
#     _correlate of the zero-padded gradient with the flipped, transposed
#     kernel. Otherwise it scatters w^T @ g band by band, one tap at a time,
#     onto the same windows of the image (spans at stride 1), also past the
#     natural extent where output_padding > padding.
#   - _weight_grad sums g_b @ cols_b^T over the same bands, regathered from
#     an input the backward holds anyway or rebuilds: conv2d's input padded
#     again (_pad) against its output gradient, conv_transpose2d's embedded
#     output gradient against its input. So no conv keeps columns or a
#     padded copy from forward to backward; one more pad and gather buy that
#     (Chen et al. 2016, arXiv 1604.06174). The scatter and the weight
#     gradient widen g once to the bands' pitch with zero wrap columns
#     (_widen), so the wrap columns add nothing.
# Padding stays a pad2d call (perfbench's tracer times it inside conv2d) whose
# backward folds conv2d's input gradient; its node and data leave the graph.

# elements of one band's column matrix or one tap run's product: 2**20,
# 4 MB in float32
BLOCK_ELEMS = 2 ** 20


def _bands(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """Row pitch of the bands, and (y0, y1, windows) per band of output rows.

    ``windows``, a (N, C, kh, kw, *tail) view of x (of x itself when it is
    C-contiguous), holds per tap the inputs of output rows y0:y1: at stride
    1 one flat span of ``(y1-y0-1)*Wp + ow`` elements, rows at pitch Wp;
    otherwise the (y1-y0, ow) windows at (stride*y, stride*x), rows at pitch
    ow. Reshaped to (N, C*kh*kw, span) they are the band's columns.
    """
    x = np.ascontiguousarray(x)  # a span reads the plane as one flat row
    N, C, Hp, Wp = x.shape
    sW = x.itemsize  # C order's own strides: a length-1 axis may report any
    sN, sC, sH = C * Hp * Wp * sW, Hp * Wp * sW, Wp * sW
    pitch = Wp if stride == 1 else ow
    rows = max(1, BLOCK_ELEMS // (N * C * kh * kw * pitch))

    def bands():
        for y0 in range(0, oh, rows):
            y1 = min(y0 + rows, oh)
            if stride == 1:
                tail, steps = ((y1 - y0 - 1) * Wp + ow,), (sW,)
            else:
                tail, steps = (y1 - y0, ow), (stride * sH, stride * sW)
            yield y0, y1, np.ndarray((N, C, kh, kw) + tail, x.dtype, x,
                                     y0 * stride * sH, (sN, sC, sH, sW) + steps)

    return pitch, bands()


def _widen(g: np.ndarray, pitch: int) -> np.ndarray:
    """g (N, O, oh, ow) as flat rows of length pitch, (N, O, oh*pitch), zero past ow."""
    N, O, oh, ow = g.shape
    if pitch != ow:
        gw = np.zeros((N, O, oh, pitch), dtype=g.dtype)
        gw[..., :ow] = g
        g = gw
    return g.reshape(N, O, oh * pitch)


def _correlate(x: np.ndarray, w2d: np.ndarray, kh: int, kw: int, stride: int,
               oh: int, ow: int) -> np.ndarray:
    """``w2d @ columns(x)`` as (N, O, oh, ow), band by band; keeps no columns."""
    N, O = x.shape[0], w2d.shape[0]
    out = np.empty((N, O, oh, ow), dtype=np.result_type(x, w2d))
    pitch, bands = _bands(x, kh, kw, stride, oh, ow)
    for y0, y1, win in bands:
        prod = w2d @ win.reshape(N, w2d.shape[1], -1)
        s = prod.strides  # the first ow of each row of pitch elements
        out[:, :, y0:y1] = np.ndarray((N, O, y1 - y0, ow), prod.dtype, prod, 0,
                                      s[:2] + (pitch * s[2], s[2]))
    return out


def _adjoint(g: np.ndarray, w: np.ndarray, stride: int, H: int, W: int) -> np.ndarray:
    """(N, I, H, W) input gradient of a conv by w (O, I, kh, kw) for g (N, O, oh, ow).

    A gather at stride 1 and O < I; otherwise each band's ``w^T @ g_b`` is
    added tap by tap onto that band's windows of the zeroed gradient.
    """
    N, O, oh, ow = g.shape
    _, I, kh, kw = w.shape
    if stride == 1 and O < I:
        wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(I, O * kh * kw)
        return _correlate(_embed(g, kh - 1, kw - 1), wf, kh, kw, 1, H, W)
    dx = np.zeros((N, I, H, W), dtype=np.result_type(g, w))
    wt = w.reshape(O, I * kh * kw).T
    pitch, bands = _bands(dx, kh, kw, stride, oh, ow)
    gf = _widen(g, pitch)
    for y0, y1, win in bands:
        dcols = (wt @ gf[..., y0 * pitch:(y1 - 1) * pitch + ow]).reshape(win.shape)
        for i in range(kh):
            for j in range(kw):
                win[:, :, i, j] += dcols[:, :, i, j]
        del dcols  # before the next band's: see _weight_grad
    return dx


def _weight_grad(g: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int,
                 shape) -> np.ndarray:
    """Sum of ``g_b @ cols_b^T`` over the bands of x's columns, regathered, as `shape`."""
    N, O, oh, ow = g.shape
    pitch, bands = _bands(x, kh, kw, stride, oh, ow)
    gf = _widen(g, pitch)
    dw = 0
    for y0, y1, win in bands:
        # one band's columns alive at a time: with two, each call faulted its
        # bands in afresh (~2200 minor faults, 2x the time at 64 ch, 64 px)
        gb = gf[..., y0 * pitch:(y1 - 1) * pitch + ow]
        dw = dw + (win.reshape(N, -1, gb.shape[2]) @ gb.transpose(0, 2, 1)).sum(axis=0)
    return dw.T.reshape(shape)


def _tap_groups(kh: int, kw: int, Wp: int, per_tap: int):
    """Runs t0:t1 of a kernel's taps, with each tap's offset in rows of Wp.

    A run's stacked product holds at most BLOCK_ELEMS elements at ``per_tap``
    each, and at least one tap.
    """
    group = max(1, BLOCK_ELEMS // per_tap)
    for t0 in range(0, kh * kw, group):
        t1 = min(t0 + group, kh * kw)
        yield t0, t1, [t // kw * Wp + t % kw for t in range(t0, t1)]


def _kn2row(x: np.ndarray, w: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Stride-1 conv of x (N, C, Hp, Wp) by w (O, C, kh, kw) as (N, O, oh, ow).

    Each run of taps is one GEMM of its stacked (taps*O, C) weight against
    the flat input; each tap's product then adds into the flat (O, oh*Wp)
    output shifted by the tap's offset. The last kw-1 columns of each output
    row hold windows that wrap into the next row and are dropped.
    """
    N, C, Hp, Wp = x.shape
    O, _, kh, kw = w.shape
    xf = x.reshape(N, C, Hp * Wp)
    span = (oh - 1) * Wp + ow  # flat extent of the kept windows
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw * O, C)
    acc = np.zeros((N, O, oh * Wp), dtype=np.result_type(x, w))
    for t0, t1, offsets in _tap_groups(kh, kw, Wp, N * O * Hp * Wp):
        prod = (taps[t0 * O:t1 * O] @ xf).reshape(N, t1 - t0, O, Hp * Wp)
        for k, s in enumerate(offsets):
            acc[:, :, :span] += prod[:, k, :, s:s + span]
    return acc.reshape(N, O, oh, Wp)[..., :ow]


def _kn2row_weight_grad(g: np.ndarray, x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(O, C, kh, kw) weight gradient of :func:`_kn2row` for g (N, O, oh, ow).

    The adjoint of the forward's order: g, widened to rows of length Wp with
    zeros in the wrap columns, is copied to each tap's offset, and each run
    of taps is one GEMM of the stacked copies against the flat input.
    """
    N, O, oh, ow = g.shape
    C, Hp, Wp = x.shape[1:]
    span = (oh - 1) * Wp + ow
    gf = _widen(g, Wp)[..., :span]
    xt = x.reshape(N, C, Hp * Wp).transpose(0, 2, 1)
    dw = np.empty((kh * kw * O, C), dtype=np.result_type(g, x))
    for t0, t1, offsets in _tap_groups(kh, kw, Wp, N * O * Hp * Wp):
        shifted = np.zeros((N, t1 - t0, O, Hp * Wp), dtype=g.dtype)
        for k, s in enumerate(offsets):
            shifted[:, k, :, s:s + span] = gf
        dw[t0 * O:t1 * O] = (shifted.reshape(N, -1, Hp * Wp) @ xt).sum(axis=0)
    return dw.reshape(kh, kw, O, C).transpose(2, 3, 0, 1)


def _check_conv(op: str, x: Tensor, weight: Tensor, stride: int, layout: str) -> None:
    """NCHW input, a 4-D weight in `layout` ("OIkk" or "IOkk"), stride >= 1."""
    if x.data.ndim != 4:
        raise ShapeError(f"{op}: input must be NCHW, got shape {x.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"{op}: weight must be {layout}, got shape {weight.shape}")
    _operands(op, x, weight)
    I = weight.shape[layout.index("I")]
    if x.shape[1] != I:
        raise ShapeError(f"{op}: input has {x.shape[1]} channels but weight expects {I}")
    if stride < 1:
        raise ShapeError(f"{op}: stride must be positive, got {stride}")


def _add_bias(op: str, out: np.ndarray, weight: Tensor, bias: Tensor | None):
    """A contiguous ``out`` (the op's own, never an operand) plus the bias, in place."""
    out = np.ascontiguousarray(out)
    if bias is not None:
        _operands(op, weight, bias, (out.shape[1],))
        out += bias.data.reshape(1, -1, 1, 1)
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, pad_mode: str = "zero") -> Tensor:
    """2-D cross-correlation, NCHW input and OIkk weight.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1.
    """
    _check_conv("conv2d", x, weight, stride, "OIkk")
    O, I, kh, kw = weight.shape
    xp = pad2d(x, padding, pad_mode)
    H, W = xp.shape[2:]
    if kh > H or kw > W:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {H}x{W}")
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1

    # the weight gradient is taken when the weight required one at forward time
    grad_w = weight.requires_grad
    kn2row = stride == 1 and O < I
    out_data = (_kn2row(xp.data, weight.data, oh, ow) if kn2row else
                _correlate(xp.data, weight.data.reshape(O, -1), kh, kw, stride, oh, ow))
    out_data = _add_bias("conv2d", out_data, weight, bias)
    fold = xp._backward_fn if xp is not x else None  # the pad node's, or None
    del xp  # its data leaves with it; backward pads x again

    def backward(g):
        if grad_w:
            xpd = _pad(x.data, padding, pad_mode) if padding else x.data
            _accum(weight, _kn2row_weight_grad(g, xpd, kh, kw) if kn2row else
                   _weight_grad(g, xpd, kh, kw, stride, weight.shape))
            del xpd  # before _adjoint allocates
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dxp = _adjoint(g, weight.data, stride, H, W)
            fold(dxp) if fold else _accum(x, dxp)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, backward)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0,
                     output_padding: int = 0) -> Tensor:
    """Transposed 2-D convolution (adjoint of conv2d), weight layout (I, O, kh, kw).

    Output spatial size is (H - 1)*stride - 2*padding + k + output_padding.
    """
    _check_conv("conv_transpose2d", x, weight, stride, "IOkk")
    if padding < 0 or not 0 <= output_padding < stride:
        raise ShapeError("conv_transpose2d: need 0 <= padding and 0 <= output_padding < stride")
    I, _, kh, kw = weight.shape
    H, W = x.shape[2:]
    p = padding
    out_h = (H - 1) * stride - 2 * p + kh + output_padding
    out_w = (W - 1) * stride - 2 * p + kw + output_padding
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"conv_transpose2d: non-positive output size {out_h}x{out_w}")
    Hb = max((H - 1) * stride + kh, p + out_h)
    Wb = max((W - 1) * stride + kw, p + out_w)
    buf = _adjoint(x.data, weight.data, stride, Hb, Wb)
    out_data = _add_bias("conv_transpose2d", buf[:, :, p:p + out_h, p:p + out_w],
                         weight, bias)

    def backward(g):
        # the windows read only the natural extent, which the embedding covers
        ge = _embed(g, p, p)
        if weight.requires_grad:
            _accum(weight, _weight_grad(x.data, ge, kh, kw, stride, weight.shape))
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        _accum(x, _correlate(ge, weight.data.reshape(I, -1), kh, kw, stride, H, W))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, backward)


def instance_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize every (n, c) slice to zero mean / unit variance. No affine.

    The forward takes the mean, centres, sums the squares of the centred
    map (so the variance is ``np.var``'s, bitwise) and scales in place; the
    backward, ``(g - mean(g) - y*mean(g*y)) / std``, fills one temporary.
    Every reduction is numpy's pairwise ``add.reduce``: a float32 map with
    a large mean or a gradient nearly parallel to y needs its accuracy.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm expects NCHW, got shape {x.shape}")
    axes, n = (2, 3), x.data.shape[2] * x.data.shape[3]
    y = x.data - np.add.reduce(x.data, axis=axes, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(np.add.reduce(y * y, axis=axes, keepdims=True) / n + eps)
    y *= inv_std

    def backward(g):
        t = g * y
        np.multiply(y, np.add.reduce(t, axis=axes, keepdims=True) / n, out=t)
        np.subtract(g, t, out=t)
        t -= np.add.reduce(g, axis=axes, keepdims=True) / n
        t *= inv_std
        _accum(x, t)

    return _make(y, (x,), backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradReport:
    """Analytic-vs-finite-difference comparison for a set of probed tensors."""

    tol: float
    max_rel_err: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst < self.tol

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"GradReport({status}, worst={self.worst:.3e}, tol={self.tol:.0e})"


def _rel_err(a: np.ndarray, n: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float((np.abs(a - n) / denom).max())


def grad_check_many(fn: Callable[[], Tensor], probes: Mapping[str, Tensor],
                    step: float = 1e-5, tol: float = 1e-4) -> GradReport:
    """Compare analytic gradients of ``fn()`` against central differences.

    ``fn`` is re-evaluated with each probed element perturbed in place, so it
    must rebuild its graph from the probe tensors' current data every call.
    """
    for t in probes.values():
        t.requires_grad = True
        t.grad = None
    loss = fn()
    loss.backward()
    analytic = {}
    for name, t in probes.items():
        if t.grad is None:
            analytic[name] = np.zeros_like(t.data)
        else:
            analytic[name] = t.grad.copy()
        t.grad = None

    report = GradReport(tol=tol)
    for name, t in probes.items():
        flat = t.data.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(fn().data)
            flat[i] = orig - step
            fm = float(fn().data)
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * step)
        report.max_rel_err[name] = _rel_err(analytic[name].reshape(-1), numeric)
    return report


def grad_check(fn: Callable[[Tensor], Tensor], x: Tensor,
               step: float = 1e-5, tol: float = 1e-4) -> GradReport:
    """Gradient check of a Tensor -> scalar function at input ``x``."""
    return grad_check_many(lambda: fn(x), {"input": x}, step=step, tol=tol)
