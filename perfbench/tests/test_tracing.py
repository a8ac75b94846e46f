"""Self-time arithmetic and op attribution of the tracer."""

import numpy as np
import pytest

import tracing
from srdistill import losses as L
from srdistill import tensor as T


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 5] (which holds b [2, 4]) and c [6, 9]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
    outer = tr.push("outer", "losses")
    a = tr.push("a", "tensor")
    b = tr.push("b", "tensor")
    assert tr.pop(b) == 2
    assert tr.pop(a) == 4
    c = tr.push("c", "tensor")
    assert tr.context() == "outer"
    assert tr.pop(c) == 3
    assert tr.pop(outer) == 10
    assert tr.self_s[("tensor", "b")] == 2
    assert tr.self_s[("tensor", "a")] == 2
    assert tr.self_s[("tensor", "c")] == 3
    assert tr.self_s[("losses", "outer")] == 3
    assert tr.incl_s[("losses", "outer")] == 10
    # self times of all spans add up to the outermost span
    assert sum(tr.self_s.values()) == 10
    assert len(tr.events) == 4


def test_out_of_order_close_is_an_error():
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2]))
    a = tr.push("a", "tensor")
    tr.push("b", "tensor")
    with pytest.raises(RuntimeError):
        tr.pop(a)


def test_install_attributes_ops_and_backward_then_restores():
    originals = {name: getattr(T, name) for name in tracing.OPS}
    backward = T.Tensor.backward
    semrel = L.semrel_matrix
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
                 requires_grad=True)
    tr = tracing.Tracer()
    tr.install(T, L)
    try:
        feat = T.conv2d(x, w, padding=1, pad_mode="reflect")
        loss = L.sp_loss(L.semrel_matrix(feat.detach()), L.semrel_matrix(feat))
        loss.backward()
    finally:
        tr.uninstall()
    assert {name: getattr(T, name) for name in tracing.OPS} == originals
    assert T.Tensor.backward is backward and L.semrel_matrix is semrel

    assert tr.calls[("tensor", "conv2d")] == 1
    assert tr.calls[("tensor", "pad2d")] == 1  # called from inside conv2d
    assert tr.calls[("tensor.bwd", "conv2d")] == 1
    assert tr.calls[("tensor.bwd", "matmul")] == 1  # the detached side has no graph
    pad = tr.incl_s[("tensor", "pad2d")]
    conv = tr.incl_s[("tensor", "conv2d")]
    assert tr.self_s[("tensor", "conv2d")] == pytest.approx(conv - pad)
    # similarity ops are charged to the similarity spans, the conv is not
    assert tr.bytes_by_ctx["semrel_matrix"] > 0 and tr.bytes_by_ctx["sp_loss"] > 0
    assert tr.bwd_by_ctx["semrel_matrix"] > 0
    assert tr.bytes_by_ctx["other"] == 6 * 6 * 3 * 4 + 8 * 8 * 2 * 4
    assert tr.conv2d_flop == 2 * 3 * 6 * 6 * 2 * 3 * 3
    assert w.grad is not None and np.isfinite(w.grad).all()


def test_graph_bytes_counts_op_outputs_once():
    a = T.Tensor(np.ones((4,), np.float32), requires_grad=True)
    b = T.add(a, a)
    c = T.add(b, b)
    loss = T.reduce_sum(c)
    assert tracing.Tracer.graph_bytes(loss) == 16 + 16 + 4
