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

    def item(self) -> float:
        return float(self.data)

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


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} vs {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
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
    if a.shape != b.shape:
        raise ShapeError(f"abs_mean: shapes {a.shape} vs {b.shape}")
    d = a.data - b.data
    n = d.size

    def backward(g):
        ga = np.sign(d) * (float(g) / n)
        _accum(a, ga)
        _accum(b, -ga)

    return _make(np.asarray(np.abs(d).mean(), dtype=d.dtype), (a, b), backward)


def square_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference (MSE)."""
    if a.shape != b.shape:
        raise ShapeError(f"square_mean: shapes {a.shape} vs {b.shape}")
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

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty sequence")
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
        out_data = np.pad(a.data, ((0, 0), (0, 0), (p, p), (p, p)))

        def backward(g):
            _accum(a, g[:, :, p:p + H, p:p + W])

    elif mode == "reflect":
        if p >= H or p >= W:
            raise ShapeError(
                f"pad2d reflect: padding {p} too large for spatial size {H}x{W}"
            )
        out_data = np.pad(a.data, ((0, 0), (0, 0), (p, p), (p, p)), mode="reflect")

        def backward(g):
            _accum(a, _reflect_fold(g, p, H, W))

    else:
        raise ValueError(f"pad2d: unknown mode {mode!r}")
    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# convolution

def _im2col(x: np.ndarray, kh: int, kw: int, stride: int,
            oh: int, ow: int) -> np.ndarray:
    """Gather kh*kw windows anchored at (stride*y, stride*x) into columns.

    Exact adjoint of :func:`_col2im` for the same geometry.
    """
    N, C = x.shape[:2]
    cols = np.empty((N, C, kh, kw, oh, ow), dtype=x.dtype)
    s = stride
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i:i + s * oh:s, j:j + s * ow:s]
    return cols.reshape(N, C * kh * kw, oh * ow)


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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, pad_mode: str = "zero") -> Tensor:
    """2-D cross-correlation, NCHW input and OIkk weight.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: input must be NCHW, got shape {x.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d: weight must be OIkk, got shape {weight.shape}")
    O, I, kh, kw = weight.shape
    if x.shape[1] != I:
        raise ShapeError(
            f"conv2d: input has {x.shape[1]} channels but weight expects {I}"
        )
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be positive, got {stride}")
    xp = pad2d(x, padding, pad_mode)
    N, _, H, W = xp.shape
    if kh > H or kw > W:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {H}x{W}"
        )
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1

    cols = _im2col(xp.data, kh, kw, stride, oh, ow)
    w2d = weight.data.reshape(O, I * kh * kw)
    out_data = (w2d @ cols).reshape(N, O, oh, ow)
    if bias is not None:
        if bias.shape != (O,):
            raise ShapeError(f"conv2d: bias shape {bias.shape}, expected ({O},)")
        out_data = out_data + bias.data.reshape(1, O, 1, 1)

    parents = (xp, weight) if bias is None else (xp, weight, bias)

    def backward(g):
        g2d = g.reshape(N, O, oh * ow)
        if weight.requires_grad:
            dw = np.einsum("nol,nkl->ok", g2d, cols, optimize=True)
            _accum(weight, dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if xp.requires_grad:
            dcols = np.einsum("ok,nol->nkl", w2d, g2d, optimize=True)
            _accum(xp, _col2im(dcols, I, H, W, kh, kw, stride, oh, ow))

    return _make(out_data, parents, backward)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0,
                     output_padding: int = 0) -> Tensor:
    """Transposed 2-D convolution (adjoint of conv2d), weight layout (I, O, kh, kw).

    Output spatial size is (H - 1)*stride - 2*padding + k + output_padding.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv_transpose2d: input must be NCHW, got {x.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv_transpose2d: weight must be IOkk, got {weight.shape}")
    I, O, kh, kw = weight.shape
    if x.shape[1] != I:
        raise ShapeError(
            f"conv_transpose2d: input has {x.shape[1]} channels but weight expects {I}"
        )
    if stride < 1:
        raise ShapeError(f"conv_transpose2d: stride must be positive, got {stride}")
    N, _, H, W = x.shape
    p = padding
    out_h = (H - 1) * stride - 2 * p + kh + output_padding
    out_w = (W - 1) * stride - 2 * p + kw + output_padding
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv_transpose2d: non-positive output size {out_h}x{out_w}"
        )
    # scatter buffer, extended when output_padding reaches past the natural extent
    Hb = (H - 1) * stride + kh + max(0, p + out_h - ((H - 1) * stride + kh))
    Wb = (W - 1) * stride + kw + max(0, p + out_w - ((W - 1) * stride + kw))

    x2d = x.data.reshape(N, I, H * W)
    w2d = weight.data.reshape(I, O * kh * kw)
    cols = np.einsum("nil,ik->nkl", x2d, w2d, optimize=True)
    buf = _col2im(cols, O, Hb, Wb, kh, kw, stride, H, W)
    out_data = buf[:, :, p:p + out_h, p:p + out_w]
    if bias is not None:
        if bias.shape != (O,):
            raise ShapeError(
                f"conv_transpose2d: bias shape {bias.shape}, expected ({O},)"
            )
        out_data = out_data + bias.data.reshape(1, O, 1, 1)
    else:
        out_data = np.ascontiguousarray(out_data)

    def backward(g):
        dbuf = np.zeros((N, O, Hb, Wb), dtype=g.dtype)
        dbuf[:, :, p:p + out_h, p:p + out_w] = g
        dcols = _im2col(dbuf, kh, kw, stride, H, W)
        if weight.requires_grad:
            dw = np.einsum("nil,nkl->ik", x2d, dcols, optimize=True)
            _accum(weight, dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dx = np.einsum("nkl,ik->nil", dcols, w2d, optimize=True)
            _accum(x, dx.reshape(N, I, H, W))

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
