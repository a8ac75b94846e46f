"""Finite-difference gradient suite shared by op tests and the acceptance run.

Each registered op gets a family of randomized cases. A case builds float64
probe tensors, composes a scalar loss through the op under test, and compares
backward() against central differences. Inputs to kinked ops (relu, abs) are
pushed away from the kink so the numeric derivative is well defined.
"""

import contextlib
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from srdistill import losses as L
from srdistill import tensor as T
from srdistill.tensor import Tensor

STEP = 1e-5
TOL = 1e-4


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


def _sq(y):
    """Scalar loss: mean squared value of y."""
    return T.square_mean(y, Tensor(np.zeros_like(y.data)))


def _probe(rng, shape, margin=0.0):
    data = rng.uniform(-1.0, 1.0, size=shape)
    if margin:
        data = data + np.where(data >= 0.0, margin, -margin)
    return Tensor(data, requires_grad=True)


def _dims(rng, n, lo=2, hi=5):
    return tuple(int(d) for d in rng.integers(lo, hi, size=n))


def case_add(rng):
    a = _probe(rng, _dims(rng, 2))
    b = _probe(rng, a.shape)
    return (lambda: _sq(T.add(a, b))), {"a": a, "b": b}


def case_sub(rng):
    a = _probe(rng, _dims(rng, 2))
    b = _probe(rng, a.shape)
    return (lambda: _sq(T.sub(a, b))), {"a": a, "b": b}


def case_mul(rng):
    a = _probe(rng, _dims(rng, 2))
    b = _probe(rng, a.shape)
    return (lambda: _sq(T.mul(a, b))), {"a": a, "b": b}


def case_scale(rng):
    a = _probe(rng, _dims(rng, 2))
    k = float(rng.uniform(-2.0, 2.0))
    return (lambda: _sq(T.scale(a, k))), {"a": a}


def case_relu(rng):
    a = _probe(rng, _dims(rng, 2), margin=0.1)
    return (lambda: _sq(T.relu(a))), {"a": a}


def case_leaky_relu(rng):
    a = _probe(rng, _dims(rng, 2), margin=0.1)
    s = float(rng.uniform(0.05, 0.4))
    return (lambda: _sq(T.leaky_relu(a, s))), {"a": a}


def case_tanh(rng):
    a = _probe(rng, _dims(rng, 2))
    return (lambda: _sq(T.tanh(a))), {"a": a}


def case_reduce_sum(rng):
    a = _probe(rng, _dims(rng, 2))
    return (lambda: T.reduce_sum(T.mul(a, a))), {"a": a}


def case_reduce_mean(rng):
    a = _probe(rng, _dims(rng, 2))
    return (lambda: T.reduce_mean(T.mul(a, a))), {"a": a}


def case_abs_mean(rng):
    # keep |a - b| bounded away from the kink at zero
    a = _probe(rng, _dims(rng, 2), margin=0.35)
    b = Tensor(rng.uniform(-0.2, 0.2, a.shape), requires_grad=True)
    return (lambda: T.abs_mean(a, b)), {"a": a, "b": b}


def case_square_mean(rng):
    a = _probe(rng, _dims(rng, 2))
    b = _probe(rng, a.shape)
    return (lambda: T.square_mean(a, b)), {"a": a, "b": b}


def case_matmul(rng):
    m, k, n = _dims(rng, 3)
    a = _probe(rng, (m, k))
    b = _probe(rng, (k, n))
    return (lambda: _sq(T.matmul(a, b))), {"a": a, "b": b}


def case_reshape(rng):
    m, n = _dims(rng, 2)
    a = _probe(rng, (m, n))
    return (lambda: _sq(T.reshape(a, (n * m,)))), {"a": a}


def case_transpose2d(rng):
    a = _probe(rng, _dims(rng, 2))
    return (lambda: _sq(T.matmul(T.transpose2d(a), a))), {"a": a}


def case_concat(rng):
    axis = int(rng.integers(0, 2))
    base = list(_dims(rng, 2))
    sa, sb = list(base), list(base)
    sa[axis] = int(rng.integers(1, 4))
    sb[axis] = int(rng.integers(1, 4))
    a, b = _probe(rng, tuple(sa)), _probe(rng, tuple(sb))
    return (lambda: _sq(T.concat([a, b], axis=axis))), {"a": a, "b": b}


def case_row_l2_normalize(rng):
    # mean(y^2) of unit rows is constant, so compare against a random target
    a = _probe(rng, _dims(rng, 2), margin=0.3)
    c = Tensor(rng.uniform(-1.0, 1.0, a.shape))
    return (lambda: T.square_mean(T.row_l2_normalize(a), c)), {"a": a}


def case_pad2d_zero(rng):
    a = _probe(rng, (1,) + _dims(rng, 3))
    p = int(rng.integers(1, 3))
    return (lambda: _sq(T.pad2d(a, p, mode="zero"))), {"a": a}


def case_pad2d_reflect(rng):
    n, c = _dims(rng, 2, lo=1, hi=3)
    h, w = _dims(rng, 2, lo=3, hi=6)
    a = _probe(rng, (n, c, h, w))
    p = int(rng.integers(1, min(h, w)))
    return (lambda: _sq(T.pad2d(a, p, mode="reflect"))), {"a": a}


def _conv_case(rng, pad_mode):
    n, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
    h, w = (int(v) for v in rng.integers(4, 7, size=2))
    k = int(rng.choice([1, 3]))
    s = int(rng.choice([1, 2]))
    p = int(rng.integers(0, 2))
    x = _probe(rng, (n, ci, h, w))
    wt = Tensor(rng.normal(0.0, 0.5, (co, ci, k, k)), requires_grad=True)
    b = Tensor(rng.normal(0.0, 0.5, co), requires_grad=True)
    fn = lambda: _sq(T.conv2d(x, wt, b, stride=s, padding=p, pad_mode=pad_mode))
    return fn, {"x": x, "w": wt, "b": b}


def case_conv2d(rng):
    return _conv_case(rng, "zero")


def case_conv2d_reflect(rng):
    return _conv_case(rng, "reflect")


def case_conv2d_gather(rng):
    # stride 1 and O < I: the input gradient is a gather, not a scatter
    n = int(rng.integers(1, 3))
    ci = int(rng.integers(2, 5))
    co = int(rng.integers(1, ci))
    h, w = (int(v) for v in rng.integers(4, 7, size=2))
    k = int(rng.choice([3, 5]))
    p = k // 2
    x = _probe(rng, (n, ci, h, w))
    wt = Tensor(rng.normal(0.0, 0.5, (co, ci, k, k)), requires_grad=True)
    b = Tensor(rng.normal(0.0, 0.5, co), requires_grad=True)
    fn = lambda: _sq(T.conv2d(x, wt, b, stride=1, padding=p, pad_mode="reflect"))
    return fn, {"x": x, "w": wt, "b": b}


def case_conv2d_taps(rng):
    # stride 1 and O < I: the forward scatters the flipped kernel and the
    # weight gradient regathers the embedded g, even kernels too
    n = int(rng.integers(1, 3))
    ci = int(rng.integers(2, 5))
    co = int(rng.integers(1, ci))
    k = int(rng.choice([1, 2, 4, 7]))
    p = int(rng.integers(0, k // 2 + 1))
    lo = max(k - 2 * p, 1)
    h, w = (int(v) for v in rng.integers(lo, lo + 3, size=2))
    x = _probe(rng, (n, ci, h, w))
    wt = Tensor(rng.normal(0.0, 0.5, (co, ci, k, k)), requires_grad=True)
    b = Tensor(rng.normal(0.0, 0.5, co), requires_grad=True)
    fn = lambda: _sq(T.conv2d(x, wt, b, stride=1, padding=p, pad_mode="zero"))
    return fn, {"x": x, "w": wt, "b": b}


def case_conv2d_banded(rng):
    return _conv_case(rng, "zero")


def _conv_transpose_case(rng, n, ci, co, strides):
    h, w = (int(v) for v in rng.integers(3, 6, size=2))
    k = int(rng.choice([3, 4]))
    s = int(rng.choice(strides))
    p = int(rng.integers(0, 2))
    op = int(rng.integers(0, s))
    x = _probe(rng, (n, ci, h, w))
    wt = Tensor(rng.normal(0.0, 0.5, (ci, co, k, k)), requires_grad=True)
    b = Tensor(rng.normal(0.0, 0.5, co), requires_grad=True)
    fn = lambda: _sq(T.conv_transpose2d(x, wt, b, stride=s, padding=p,
                                        output_padding=op))
    return fn, {"x": x, "w": wt, "b": b}


def case_conv_transpose2d(rng):
    n, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
    return _conv_transpose_case(rng, n, ci, co, [1, 2])


def case_conv_transpose2d_banded(rng):
    return case_conv_transpose2d(rng)


def case_conv_transpose2d_gather(rng):
    # stride 1 and I < O: the forward is the gathered adjoint, not a scatter
    n = int(rng.integers(1, 3))
    co = int(rng.integers(2, 5))
    return _conv_transpose_case(rng, n, int(rng.integers(1, co)), co, [1])


def case_instance_norm(rng):
    # mean(y^2) of normalized maps is constant, so compare against a target
    n, c = (int(v) for v in rng.integers(1, 3, size=2))
    h, w = (int(v) for v in rng.integers(3, 6, size=2))
    x = _probe(rng, (n, c, h, w))
    t = Tensor(rng.uniform(-1.0, 1.0, x.shape))
    return (lambda: T.square_mean(T.instance_norm(x), t)), {"x": x}


def case_similarity_loss(rng):
    # resample until every entry of the difference clears the |x| kink
    while True:
        n = int(rng.integers(1, 3))
        ct, cs = _dims(rng, 2)
        h, w = _dims(rng, 2, lo=2, hi=4)
        t = rng.normal(size=(n, ct, h, w))
        s = rng.uniform(-1.0, 1.0, (n, cs, h, w))
        gap = min(np.abs(L.semrel_matrix(Tensor(s[k:k + 1])).values.data
                         - L.semrel_matrix(Tensor(t[k:k + 1])).values.data).min()
                  for k in range(n))
        if gap > 1e-3:
            break
    teacher = Tensor(t)
    student = Tensor(s, requires_grad=True)
    return (lambda: L.similarity_loss(teacher, student)), {"student": student}


OPS = {
    "add": case_add,
    "sub": case_sub,
    "mul": case_mul,
    "scale": case_scale,
    "relu": case_relu,
    "leaky_relu": case_leaky_relu,
    "tanh": case_tanh,
    "reduce_sum": case_reduce_sum,
    "reduce_mean": case_reduce_mean,
    "abs_mean": case_abs_mean,
    "square_mean": case_square_mean,
    "matmul": case_matmul,
    "reshape": case_reshape,
    "transpose2d": case_transpose2d,
    "concat": case_concat,
    "row_l2_normalize": case_row_l2_normalize,
    "pad2d_zero": case_pad2d_zero,
    "pad2d_reflect": case_pad2d_reflect,
    "conv2d": case_conv2d,
    "conv2d_reflect": case_conv2d_reflect,
    "conv2d_gather": case_conv2d_gather,
    "conv2d_taps": case_conv2d_taps,
    "conv2d_banded": case_conv2d_banded,
    "conv_transpose2d": case_conv_transpose2d,
    "conv_transpose2d_banded": case_conv_transpose2d_banded,
    "conv_transpose2d_gather": case_conv_transpose2d_gather,
    "instance_norm": case_instance_norm,
    "similarity_loss": case_similarity_loss,
}


# run with one output row per band, forward and backward, so the weight
# gradient sums over several bands, each regathered in backward; at stride 1
# a one-row band's span is ow elements, with no wrap columns
ONE_ROW_BANDS = {"conv2d_banded", "conv2d_taps", "conv_transpose2d_banded"}


@contextlib.contextmanager
def _block_elems(n):
    block, T.BLOCK_ELEMS = T.BLOCK_ELEMS, n
    try:
        yield
    finally:
        T.BLOCK_ELEMS = block


def check_op(name, n_cases=20, seed=0):
    """Worst relative error for one op across n_cases randomized cases."""
    builder = OPS[name]
    block = 1 if name in ONE_ROW_BANDS else T.BLOCK_ELEMS
    worst = 0.0
    for i in range(n_cases):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode()), i])
        fn, probes = builder(rng)
        with _block_elems(block):
            report = grad_check_many(fn, probes, step=STEP, tol=TOL)
        worst = max(worst, report.worst)
    return worst


def run_suite(n_cases=20, seed=0):
    """Check every registered op; returns (per-op worst error, elapsed seconds)."""
    t0 = time.monotonic()
    results = {name: check_op(name, n_cases=n_cases, seed=seed) for name in OPS}
    return results, time.monotonic() - t0
