"""Dense tensors with reverse-mode automatic differentiation.

Everything is numpy-backed and CPU-only. An op output that takes a
gradient gets a ``_Node``: its grad slot, its backward closure and its
parent vertices, where a vertex is a node or a leaf Tensor with
``requires_grad``. ``backward()`` on a scalar loss walks the vertices in
reverse topological order and accumulates gradients on every leaf vertex.
Intermediate nodes drop their gradient once it has been passed to their
parents, so repeated walks over one graph accumulate into the leaves
exactly once each. Image tensors are NCHW.

The graph keeps only the arrays a backward reads (saved tensors as in
PyTorch, Paszke et al. 2019, arXiv 1912.01703). A closure saves relu's and
leaky_relu's input, the operands of mul and matmul, the outputs of tanh,
row_l2_normalize and instance_norm, square_mean's difference and only the
int8 signs of abs_mean's, and a conv's input only when its weight takes a
gradient; elsewhere it keeps shapes and dtypes. A node reaches its output
only through a weakref. An operand gets a gradient from an op only if it
required one when the op ran: a frozen teacher's target or a frozen
discriminator's weights are no vertex, even if ``requires_grad`` is set
later.

An empty grad slot adopts a gradient array that a closure built for that
vertex alone (``_adopt``), as PyTorch's accumulation takes over a gradient
nothing else holds. It copies (``_accum``) an array that reaches more than
one vertex (add's g) and a view of the incoming g (reshape, transpose2d,
concat, pad2d's zero crop). So no two live grad slots share memory. A
gradient of another dtype than its vertex's is a TypeError. Only the walk
runs a closure, and the g it hands over is the node's own slot, which it
drops right after the call, so the closure may write over it and pass it
on: row_l2_normalize's backward does. A closure builds no gradient for an
operand that takes none. Ops built from other ops (sub is add of a scaled
operand, conv2d's padding a pad2d node) leave their parts in the graph.

Gradient conventions at kinks: relu/leaky_relu take the positive branch
at exactly 0, the gradient of ``|x|`` at 0 is 0.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


def _as_float_array(data) -> np.ndarray:
    """float32 and float64 data as they are; other bool, integer and float
    data as float32, the dtype models and images default to. Any other dtype
    (object, string, complex, datetime) is a TypeError."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"Tensor data must be bool, integer or float, not {arr.dtype}")
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """N-dimensional float array, optionally tracked in an autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _parents(self) -> tuple:
        return self._node._parents if self._node is not None else ()

    @property
    def _backward_fn(self) -> Callable[[np.ndarray], None] | None:
        return self._node._backward_fn if self._node is not None else None

    @_backward_fn.setter
    def _backward_fn(self, fn: Callable[[np.ndarray], None]) -> None:
        self._node._backward_fn = fn

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def backward(self) -> None:
        """Accumulate gradients of this scalar on all requires-grad leaf ancestors.

        A second walk reruns each closure on its saved arrays and adds the same
        gradients again to the leaves that required one when their ops ran."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        root = _vertex(self)
        if root is None:
            return
        topo: list = []
        visited: set[int] = set()
        stack: list[tuple[object, bool]] = [(root, False)]
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
        _accum(root, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                # only leaves keep a gradient: a later walk over a shared
                # node must not pass this one on again
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_FREED = np.empty(0)


class _Node:
    """Graph vertex of one op output: grad slot, backward fn, parent vertices.

    ``data`` is the output array while something else holds it, else empty."""

    __slots__ = ("grad", "dtype", "_parents", "_backward_fn", "_data")

    def __init__(self, data: np.ndarray, parents: tuple, backward_fn):
        self.grad: np.ndarray | None = None
        self.dtype = data.dtype
        self._parents = parents
        self._backward_fn = backward_fn
        self._data = weakref.ref(data)

    @property
    def data(self) -> np.ndarray:
        data = self._data()
        return _FREED if data is None else data


def _vertex(t: Tensor):
    """t's graph vertex now: its node, t itself as a leaf, or None without a grad."""
    return (t._node or t) if t.requires_grad else None


def _make(out_data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[..., None]) -> Tensor:
    """The op's output; a graph node when an operand requires a grad now.

    ``backward_fn(g, *vertices)`` gets the vertex of each of ``parents`` as
    the op ran, None for one without a grad, and reads no Tensor.
    """
    out = Tensor(out_data)
    vertices = tuple(_vertex(p) for p in parents)
    held = tuple(v for v in vertices if v is not None)
    if held:
        out.requires_grad = True
        out._node = _Node(out.data, held, lambda g: backward_fn(g, *vertices))
    return out


def _accum(v, g: np.ndarray) -> None:
    """Add g to the grad slot of vertex v (a node or a leaf); None takes none.

    A g of another dtype than v's is a TypeError, not a silent cast."""
    if v is None:
        return
    if g.dtype != v.dtype:
        raise TypeError(f"gradient of dtype {g.dtype} for a vertex of dtype {v.dtype}")
    if v.grad is None:
        v.grad = g.astype(v.dtype, copy=True)
    else:
        v.grad += g


def _adopt(v, g: np.ndarray) -> None:
    """``_accum`` of a g built for v alone that nothing else holds: an empty
    slot of g's dtype takes g itself instead of a copy."""
    if v is not None and v.grad is None and g.dtype == v.dtype:
        v.grad = g
    else:
        _accum(v, g)


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

    def backward(g, va, vb):
        _accum(va, g)
        _accum(vb, g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _operands("sub", a, b, a.shape)
    return add(a, scale(b, -1.0))  # a + (-b) is a - b, bitwise


def mul(a: Tensor, b: Tensor) -> Tensor:
    _operands("mul", a, b, a.shape)
    x, y = a.data, b.data

    def backward(g, va, vb):
        if va is not None:
            _adopt(va, g * y)
        if vb is not None:
            _adopt(vb, g * x)

    return _make(x * y, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)  # NumPy 1.x makes a 0-d float32 * float a float64
    def backward(g, va):
        _adopt(va, g * c)

    return _make(a.data * c, (a,), backward)


def relu(a: Tensor) -> Tensor:
    x = a.data

    def backward(g, va):
        _adopt(va, g * (x >= 0))

    return _make(np.maximum(x, 0), (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    x = a.data
    one, s = x.dtype.type(1), x.dtype.type(slope)  # a float64 factor upcasts g

    def backward(g, va):
        _adopt(va, g * np.where(x >= 0, one, s))

    return _make(np.where(x >= 0, x, x * s), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g, va):
        _adopt(va, g * (1.0 - y * y))

    return _make(y, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and losses


def reduce_sum(a: Tensor) -> Tensor:
    return _reduce(a, a.data.sum(), 1)


def reduce_mean(a: Tensor) -> Tensor:
    return _reduce(a, a.data.mean(), a.data.size)


def _reduce(a: Tensor, value, n: int) -> Tensor:
    """The scalar `value` of a, whose gradient is g / n on every element."""
    shape, dtype = a.shape, a.dtype

    def backward(g, va):
        _adopt(va, np.full(shape, float(g) / n, dtype=dtype))

    return _make(np.asarray(value, dtype=dtype), (a,), backward)


def abs_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference (L1). Gradient of |x| at 0 is 0.

    Works block by block over the operands flattened in C order (a copy of
    a non-contiguous one): the difference, its int8 signs and its sum are
    formed BLOCK_ELEMS elements at a time, the block sums are added in
    float64, and only the full signs, which the backward reads, are kept.
    """
    _operands("abs_mean", a, b, a.shape)
    n, dtype, shape = a.data.size, a.dtype, a.shape
    x, y = a.data.reshape(-1), b.data.reshape(-1)
    blocks = [slice(lo, lo + BLOCK_ELEMS) for lo in range(0, n, BLOCK_ELEMS)]
    signs = None
    if a.requires_grad or b.requires_grad:
        signs = np.empty(n, np.int8)
    total = np.float64(0.0)
    for blk in blocks:
        d = x[blk] - y[blk]
        if signs is not None:
            s = signs[blk]
            np.greater(d, 0, out=s.view(np.bool_))
            np.subtract(s, np.less(d, 0).view(np.int8), out=s)
        total += np.abs(d, out=d).sum()
        del d  # before the next block's
    mean = total / n
    if signs is not None:
        signs = signs.reshape(shape)
        if np.isnan(mean):
            # np.sign(nan) is nan, which no int8 holds
            signs = np.where(np.isnan(a.data - b.data), np.nan, signs).astype(dtype)

    def backward(g, va, vb):
        c = float(g) / n
        for v, cv in ((va, c), (vb, -c)):
            if v is not None:
                _adopt(v, np.multiply(signs, cv, dtype=dtype))

    return _make(np.asarray(mean, dtype=dtype), (a, b), backward)


def square_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference (MSE)."""
    _operands("square_mean", a, b, a.shape)
    d = a.data - b.data
    n = d.size

    def backward(g, va, vb):
        ga = d * (2.0 * float(g) / n)
        _adopt(va, ga)
        if vb is not None:
            _adopt(vb, -ga)

    return _make(np.asarray((d * d).mean(), dtype=d.dtype), (a, b), backward)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape_in = a.shape

    def backward(g, va):
        _accum(va, g.reshape(shape_in))

    return _make(a.data.reshape(tuple(shape)), (a,), backward)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d expects a matrix, got shape {a.shape}")

    def backward(g, va):
        _accum(va, g.T)

    return _make(np.ascontiguousarray(a.data.T), (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} @ {b.shape}")
    _operands("matmul", a, b)
    x, y = a.data, b.data

    def backward(g, va, vb):
        if va is not None:
            _adopt(va, g @ y.T)
        if vb is not None:
            _adopt(vb, x.T @ g)

    return _make(x @ y, (a, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    first = tensors[0].shape
    if not -len(first) <= axis < len(first):
        raise ShapeError(f"concat: axis {axis} is out of range for shape {first}")
    axis %= len(first)
    rest = first[:axis] + first[axis + 1:]
    for t in tensors[1:]:
        _operands("concat", tensors[0], t)
        if len(t.shape) != len(first) or t.shape[:axis] + t.shape[axis + 1:] != rest:
            raise ShapeError(f"concat: operand shape {t.shape} differs from {first} "
                             f"off axis {axis}")
    cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g, *vertices):
        for v, part in zip(vertices, np.split(g, cuts, axis=axis)):
            _accum(v, part)

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, backward)


def row_l2_normalize(a: Tensor) -> Tensor:
    """Divide each row of a matrix by its L2 norm; all-zero rows stay zero."""
    if a.data.ndim != 2:
        raise ShapeError(f"row_l2_normalize expects a matrix, got shape {a.shape}")
    x = a.data
    y = np.empty_like(x)
    dots = np.empty((x.shape[0], 1), dtype=x.dtype)
    for blk, scratch in _row_blocks(x, y):  # y is scratch until it takes the result
        np.multiply(x[blk], x[blk], out=scratch).sum(axis=1, keepdims=True,
                                                     out=dots[blk])
    norms = np.sqrt(dots)
    nonzero = norms > 0
    safe = np.where(nonzero, norms, 1.0)
    np.divide(x, safe, out=y)

    def backward(g, va):
        # g is this node's own grad slot, which the walk drops after this
        # call: the gradient is formed over it
        for blk, scratch in _row_blocks(g):
            gb, yb = g[blk], y[blk]
            dot = np.multiply(gb, yb, out=scratch).sum(axis=1, keepdims=True)
            gb -= np.multiply(yb, dot, out=scratch)
        g /= safe
        g[~nonzero[:, 0]] = 0.0
        _adopt(va, g)

    return _make(y, (a,), backward)


def _row_blocks(m: np.ndarray, scratch: np.ndarray | None = None):
    """(rows, scratch) for each block of at most BLOCK_ELEMS elements of m's
    rows (at least one row): a slice of m's rows and as many first rows of
    ``scratch``, or of one fresh block, so no m-sized temporary is made."""
    rows = max(1, BLOCK_ELEMS // max(1, m.shape[1]))
    if scratch is None:
        scratch = np.empty_like(m[:rows])
    for lo in range(0, m.shape[0], rows):
        yield slice(lo, lo + rows), scratch[:min(rows, m.shape[0] - lo)]


# ---------------------------------------------------------------------------
# padding


def _reflect_fold(g: np.ndarray, p: int, H: int, W: int) -> np.ndarray:
    # adjoint of np.pad(..., mode="reflect") on the last two axes; reversed
    # forward slices are empty at p = 0, where a start of p - 1 would wrap
    mid = g[..., p:p + H, :].copy()
    mid[..., 1:p + 1, :] += g[..., :p, :][..., ::-1, :]
    mid[..., H - p - 1:H - 1, :] += g[..., :H + p - 1:-1, :]
    out = mid[..., :, p:p + W].copy()
    out[..., :, 1:p + 1] += mid[..., :, :p][..., ::-1]
    out[..., :, W - p - 1:W - 1] += mid[..., :, :W + p - 1:-1]
    return out


def _embed(x: np.ndarray, H: int, W: int, top: int, left: int) -> np.ndarray:
    """x (N, C, h, w) placed at (top, left) of a zeroed (N, C, H, W) plane."""
    N, C, h, w = x.shape
    out = np.zeros((N, C, H, W), dtype=x.dtype)
    out[:, :, top:top + h, left:left + w] = x
    return out


def _pad(x: np.ndarray, p: int, mode: str) -> np.ndarray:
    """x (N, C, H, W) padded by p on every side; pad2d checks the arguments."""
    N, C, H, W = x.shape
    if mode == "zero":
        return _embed(x, H + 2 * p, W + 2 * p, p, p)
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
    """Pad the last two axes by `padding` on every side (zero or reflect) into
    a fresh C-contiguous plane, a new node at padding 0 too."""
    if mode not in ("zero", "reflect"):
        raise ValueError(f"pad2d: unknown mode {mode!r}")
    if padding < 0:
        raise ShapeError(f"pad2d: negative padding {padding}")
    if a.data.ndim != 4:
        raise ShapeError(f"pad2d expects NCHW, got shape {a.shape}")
    N, C, H, W = a.shape
    p = padding
    if mode == "zero":

        def backward(g, va):
            _accum(va, g[:, :, p:p + H, p:p + W])

    else:
        if p >= H or p >= W:
            raise ShapeError(
                f"pad2d reflect: padding {p} too large for spatial size {H}x{W}"
            )

        def backward(g, va):
            _adopt(va, _reflect_fold(g, p, H, W))

    return _make(_pad(a.data, p, mode), (a,), backward)


# ---------------------------------------------------------------------------
# convolution
#
# A transposed convolution is the input gradient (the adjoint) of a
# convolution, and a stride-1 convolution is the transposed convolution of
# its flipped, transposed kernel (Dumoulin & Visin 2016, arXiv 1603.07285).
# So both ops share three products, each run one band of output rows at a
# time (_bands); a band's columns hold at most BLOCK_ELEMS elements (at
# least one row) and are dropped at once. Each windows one fresh C-contiguous
# plane as it is, built by _pad, np.zeros or _embed (the one zero-plane builder):
#   - _correlate, w2d @ columns, gathers each tap's window of the input. At
#     stride 1 a tap's columns are one flat span of the padded plane, rows
#     at pitch Wp (kn2row's geometry: Vasudevan et al. 2017, arXiv
#     1704.04428), so the gather copies whole spans, not one short run per
#     output row; the kw-1 wrap columns per row are dropped as the band's
#     product is compacted into the output. Other strides gather windows.
#   - _adjoint, a conv's input gradient, scatters w^T @ g band by band, one
#     tap at a time, onto the same windows of the zeroed image (spans at
#     stride 1), also past the natural extent where output_padding > padding.
#   - _weight_grad sums g_b @ cols_b^T over the same bands, regathered from
#     an input the backward holds anyway or rebuilds. So no conv keeps
#     columns or a padded copy from forward to backward; one more pad and
#     gather buy that (Chen et al. 2016, arXiv 1604.06174). The scatter and
#     the weight gradient read g at the bands' pitch, embedded with zero wrap
#     columns where that pitch is not ow, so the wrap columns add nothing.
# One rule picks each product's form from its shapes: at stride 1 it copies
# kh*kw shifted windows (gathered, or scattered into) of the side with fewer
# channels, the input on a tie. So where O < I (the 7x7 heads, the last
# PatchGAN conv) _correlate scatters _flip(w) at x's own pitch, its spans
# wrapping into the kw-1 columns its crop drops; _weight_grad regathers g
# embedded at x's own pitch too, one row taller, its spans wrapping into the
# next row's kw-1 leading zeros; _adjoint gathers the padded g. Otherwise
# _correlate and _weight_grad gather the input and _adjoint scatters.
# conv2d runs _correlate forward, and _weight_grad and _adjoint backward;
# conv_transpose2d runs _adjoint forward, and _weight_grad and _correlate
# backward on the embedded g.
# Padding stays a pad2d call (perfbench's tracer times it inside conv2d)
# whose node is conv2d's parent: the walk runs its crop or reflect fold on
# conv2d's input gradient, and the node holds the padded copy only through
# its weakref, so the graph keeps none; backward pads x again.

# elements of one band's column matrix, of one row block of
# row_l2_normalize, of one block of abs_mean and of one row block of the
# difference matrix in losses.similarity_loss: 2**20, 4 MB in float32
BLOCK_ELEMS = 2 ** 20


def _bands(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """Row pitch of the bands, and (y0, y1, windows) per band of output rows.

    ``windows``, a (N, C, kh, kw, *tail) view of x, which must be one
    C-contiguous plane, holds per tap the inputs of output rows y0:y1: at
    stride 1 one flat span of ``(y1-y0-1)*Wp + ow`` elements, rows at pitch
    Wp; otherwise the (y1-y0, ow) windows at (stride*y, stride*x), rows at
    pitch ow. Reshaped to (N, C*kh*kw, span) they are the band's columns.
    """
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


def _flip(w: np.ndarray) -> np.ndarray:
    """Kernel w (O, I, kh, kw) flipped in both spatial axes, as (I, O, kh, kw)."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _correlate(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """(N, O, oh, ow) correlation of x (N, I, H, W) with w (O, I, kh, kw).

    At stride 1 with O < I, the cropped _adjoint scatter of ``_flip(w)`` at
    x's pitch; otherwise ``w2d @ columns(x)`` band by band, keeping no columns.
    """
    N, _, H, W = x.shape
    O, I, kh, kw = w.shape
    oh, ow = (H - kh) // stride + 1, (W - kw) // stride + 1
    if stride == 1 and O < I:
        full = _adjoint(x, _flip(w), 1, H + kh, W)
        return full[:, :, kh - 1:kh - 1 + oh, kw - 1:kw - 1 + ow]
    w2d = w.reshape(O, -1)
    out = np.empty((N, O, oh, ow), dtype=np.result_type(x, w))
    pitch, bands = _bands(x, kh, kw, stride, oh, ow)
    for y0, y1, win in bands:
        prod = w2d @ win.reshape(N, w2d.shape[1], -1)
        s = prod.strides  # the first ow of each row of pitch elements
        out[:, :, y0:y1] = np.ndarray((N, O, y1 - y0, ow), prod.dtype, prod, 0,
                                      s[:2] + (pitch * s[2], s[2]))
    return out


def _adjoint(g: np.ndarray, w: np.ndarray, stride: int, H: int, W: int) -> np.ndarray:
    """(N, I, H, W) input gradient of a conv by w (O, I, kh, kw) for g (N, O, oh, ow).

    At stride 1 with O < I it gathers: the _correlate with ``_flip(w)`` of g
    embedded at (kh-1, kw-1) of a zeroed (oh+2kh-2, ow+2kw-2) plane.
    Otherwise each band's ``w^T @ g_b``, g at the bands' pitch, is added tap
    by tap onto that band's windows of the zeroed gradient.
    """
    N, O, oh, ow = g.shape
    _, I, kh, kw = w.shape
    if stride == 1 and O < I:
        ge = _embed(g, oh + 2 * kh - 2, ow + 2 * kw - 2, kh - 1, kw - 1)
        return _correlate(ge, _flip(w), 1)
    dx = np.zeros((N, I, H, W), dtype=np.result_type(g, w))
    wt = w.reshape(O, I * kh * kw).T
    pitch, bands = _bands(dx, kh, kw, stride, oh, ow)
    gf = (g if pitch == ow else _embed(g, oh, pitch, 0, 0)).reshape(N, O, oh * pitch)
    for y0, y1, win in bands:
        dcols = (wt @ gf[..., y0 * pitch:(y1 - 1) * pitch + ow]).reshape(win.shape)
        for i in range(kh):
            for j in range(kw):
                win[:, :, i, j] += dcols[:, :, i, j]
        del dcols  # before the next band's: see _weight_grad
    return dx


def _weight_grad(g: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(O, I, kh, kw) weight gradient of a conv of x (N, I, H, W) for g (N, O, oh, ow).

    At stride 1 with O < I, the _flip of this gradient with the roles swapped:
    x as g, and as x g embedded at (kh-1, kw-1) of a zeroed (H+kh, W) plane,
    whose spans wrap into the next row's kw-1 leading zeros; otherwise
    ``g_b @ cols_b^T`` summed over the bands of x's columns, regathered.
    """
    N, O, oh, ow = g.shape
    _, I, H, W = x.shape
    if stride == 1 and O < I:
        return _flip(_weight_grad(x, _embed(g, H + kh, W, kh - 1, kw - 1), kh, kw, 1))
    pitch, bands = _bands(x, kh, kw, stride, oh, ow)
    gf = (g if pitch == ow else _embed(g, oh, pitch, 0, 0)).reshape(N, O, oh * pitch)
    dw = None
    for y0, y1, win in bands:
        # one band's columns alive at a time: with two, each call faulted its
        # bands in afresh (~2200 minor faults, 2x the time at 64 ch, 64 px)
        gb = gf[..., y0 * pitch:(y1 - 1) * pitch + ow]
        prod = win.reshape(N, -1, gb.shape[2]) @ gb.transpose(0, 2, 1)
        band = prod[0] if N == 1 else prod.sum(axis=0)
        if dw is None:
            dw = band
        else:
            dw += band
        del prod, band
    return dw.T.reshape(O, -1, kh, kw)


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
    kh, kw = weight.shape[2:]
    xp = pad2d(x, padding, pad_mode)
    H, W = xp.shape[2:]
    if kh > H or kw > W:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {H}x{W}")
    w = weight.data
    out_data = _add_bias("conv2d", _correlate(xp.data, w, stride), weight, bias)
    xd = x.data if weight.requires_grad else None  # read by the weight gradient only

    def backward(g, vxp, vw, vb=None):
        if vw is not None:
            _adopt(vw, _weight_grad(g, _pad(xd, padding, pad_mode), kh, kw, stride))
        if vb is not None:
            _adopt(vb, g.sum(axis=(0, 2, 3)))
        if vxp is not None:
            _adopt(vxp, _adjoint(g, w, stride, H, W))

    parents = (xp, weight) if bias is None else (xp, weight, bias)
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
    kh, kw = weight.shape[2:]
    H, W = x.shape[2:]
    p = padding
    out_h = (H - 1) * stride - 2 * p + kh + output_padding
    out_w = (W - 1) * stride - 2 * p + kw + output_padding
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"conv_transpose2d: non-positive output size {out_h}x{out_w}")
    Hb = max((H - 1) * stride + kh, p + out_h)
    Wb = max((W - 1) * stride + kw, p + out_w)
    w = weight.data
    buf = _adjoint(x.data, w, stride, Hb, Wb)
    out_data = _add_bias("conv_transpose2d", buf[:, :, p:p + out_h, p:p + out_w],
                         weight, bias)
    xd = x.data if weight.requires_grad else None  # read by the weight gradient only

    def backward(g, vx, vw, vb=None):
        # the windows read only the natural extent, which the embedding covers
        ge = _embed(g, out_h + 2 * p, out_w + 2 * p, p, p)
        if vw is not None:
            _adopt(vw, _weight_grad(xd, ge, kh, kw, stride))
        if vb is not None:
            _adopt(vb, g.sum(axis=(0, 2, 3)))
        if vx is not None:
            _adopt(vx, _correlate(ge, w, stride))

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

    def backward(g, vx):
        t = g * y
        np.multiply(y, np.add.reduce(t, axis=axes, keepdims=True) / n, out=t)
        np.subtract(g, t, out=t)
        t -= np.add.reduce(g, axis=axes, keepdims=True) / n
        t *= inv_std
        _adopt(vx, t)

    return _make(y, (x,), backward)
