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
    def backward(g):
        _accum(a, g * np.where(a.data >= 0, 1.0, slope))

    return _make(np.where(a.data >= 0, a.data, a.data * slope), (a,), backward)


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
        out_data = _embed(a.data, p, p)

        def backward(g):
            _accum(a, g[:, :, p:p + H, p:p + W])

    elif mode == "reflect":
        if p >= H or p >= W:
            raise ShapeError(
                f"pad2d reflect: padding {p} too large for spatial size {H}x{W}"
            )
        x = a.data
        out_data = np.empty((N, C, H + 2 * p, W + 2 * p), dtype=x.dtype)
        out_data[:, :, p:p + H, p:p + W] = x
        # mirror rows without the edge row, then whole columns (corners
        # included); reversed forward slices avoid a stop of -1 at p = H - 1
        out_data[:, :, :p, p:p + W] = x[:, :, 1:p + 1][:, :, ::-1]
        out_data[:, :, p + H:, p:p + W] = x[:, :, H - 1 - p:H - 1][:, :, ::-1]
        out_data[..., :p] = out_data[..., p + 1:2 * p + 1][..., ::-1]
        out_data[..., p + W:] = out_data[..., W - 1:W + p - 1][..., ::-1]

        def backward(g):
            _accum(a, _reflect_fold(g, p, H, W))

    else:
        raise ValueError(f"pad2d: unknown mode {mode!r}")
    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# convolution
#
# A transposed convolution is the input gradient (the adjoint) of a
# convolution (Dumoulin & Visin 2016, arXiv 1603.07285), so both ops share
# three products:
#   - _correlate, w2d @ im2col(x), is conv2d's forward and conv_transpose2d's
#     input gradient. It works one band of output rows at a time; a band's
#     columns, one sliding-window gather, hold at most BLOCK_ELEMS elements
#     (at least one row) and are kept only for a weight gradient.
#   - _adjoint, a conv's input gradient, is conv2d's backward and
#     conv_transpose2d's forward. At stride 1 and O < I (the 7x7 heads) it
#     gathers: the _correlate of the zero-padded gradient with the flipped,
#     transposed kernel. Otherwise it scatters w^T @ g onto the image with
#     _col2im, also past the natural extent where output_padding > padding.
#   - _weight_grad sums g_b @ cols_b^T over the kept bands; conv2d passes its
#     output gradient as g, conv_transpose2d its input.
# Padding stays its own pad2d node: perfbench's tracer times it as one call
# inside conv2d, and its reflect-fold backward is shared with other callers.

# elements of one band's column matrix: 2**20, 4 MB in float32
BLOCK_ELEMS = 2 ** 20


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int,
            oh: int, ow: int) -> np.ndarray:
    """Gather kh*kw windows anchored at (stride*y, stride*x) into columns.

    Exact adjoint of :func:`_col2im` for the same geometry.
    """
    N, C = x.shape[:2]
    s = stride
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, :s * (oh - 1) + 1:s, :s * (ow - 1) + 1:s]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(N, C * kh * kw, oh * ow)


def _col2im(cols: np.ndarray, C: int, H: int, W: int, kh: int, kw: int,
            stride: int, oh: int, ow: int) -> np.ndarray:
    """Scatter-add columns back onto an image; adjoint of :func:`_im2col`."""
    N = cols.shape[0]
    cols6 = cols.reshape(N, C, kh, kw, oh, ow)
    x = np.zeros((N, C, H, W), dtype=cols.dtype)
    s = stride
    for i in range(kh):
        for j in range(kw):
            x[:, :, i:i + s * oh:s, j:j + s * ow:s] += cols6[:, :, i, j]
    return x


def _correlate(x: np.ndarray, w2d: np.ndarray, kh: int, kw: int, stride: int,
               oh: int, ow: int, keep: bool):
    """``w2d @ _im2col(x)`` as (N, O, oh, ow), one band of output rows at a time.

    Returns the result and, when ``keep``, the (y0, y1, columns) of each band.
    """
    N, C = x.shape[:2]
    O = w2d.shape[0]
    rows = max(1, BLOCK_ELEMS // (N * C * kh * kw * ow))
    out = np.empty((N, O, oh, ow), dtype=np.result_type(x, w2d))
    bands = []
    for y0 in range(0, oh, rows):
        y1 = min(y0 + rows, oh)
        cols = _im2col(x[:, :, y0 * stride:(y1 - 1) * stride + kh],
                       kh, kw, stride, y1 - y0, ow)
        out[:, :, y0:y1] = (w2d @ cols).reshape(N, O, y1 - y0, ow)
        if keep:
            bands.append((y0, y1, cols))
    return out, bands


def _adjoint(g: np.ndarray, w: np.ndarray, stride: int, H: int, W: int) -> np.ndarray:
    """(N, I, H, W) input gradient of a conv by w (O, I, kh, kw) for g (N, O, oh, ow)."""
    N, O, oh, ow = g.shape
    _, I, kh, kw = w.shape
    if stride == 1 and O < I:
        wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(I, O * kh * kw)
        return _correlate(_embed(g, kh - 1, kw - 1), wf, kh, kw, 1, H, W, False)[0]
    dcols = w.reshape(O, I * kh * kw).T @ g.reshape(N, O, oh * ow)
    return _col2im(dcols, I, H, W, kh, kw, stride, oh, ow)


def _weight_grad(g: np.ndarray, bands, shape) -> np.ndarray:
    """Sum of ``g_b @ cols_b^T`` over the kept bands of a _correlate, as `shape`."""
    N, C, _, ow = g.shape
    dw = 0
    for y0, y1, cols in bands:
        gb = g[:, :, y0:y1].reshape(N, C, (y1 - y0) * ow)
        dw = dw + (cols @ gb.transpose(0, 2, 1)).sum(axis=0)
    return dw.T.reshape(shape)


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
    """A contiguous ``out`` plus the per-channel bias, when there is one."""
    if bias is None:
        return np.ascontiguousarray(out)
    _operands(op, weight, bias, (out.shape[1],))
    return out + bias.data.reshape(1, -1, 1, 1)


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
    out_data, bands = _correlate(xp.data, weight.data.reshape(O, I * kh * kw),
                                 kh, kw, stride, oh, ow, weight.requires_grad)
    out_data = _add_bias("conv2d", out_data, weight, bias)

    def backward(g):
        if bands:
            _accum(weight, _weight_grad(g, bands, weight.shape))
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if xp.requires_grad:
            _accum(xp, _adjoint(g, weight.data, stride, H, W))

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
    I, O, kh, kw = weight.shape
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
        dx, bands = _correlate(_embed(g, p, p), weight.data.reshape(I, O * kh * kw),
                               kh, kw, stride, H, W, weight.requires_grad)
        if bands:
            _accum(weight, _weight_grad(x.data, bands, weight.shape))
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        _accum(x, dx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, backward)


def instance_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize every (n, c) slice to zero mean / unit variance. No affine."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm expects NCHW, got shape {x.shape}")
    mu = x.data.mean(axis=(2, 3), keepdims=True)
    var = x.data.var(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv_std

    def backward(g):
        gm = g.mean(axis=(2, 3), keepdims=True)
        gym = (g * y).mean(axis=(2, 3), keepdims=True)
        _accum(x, inv_std * (g - gm - y * gym))

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
