"""The autodiff graph keeps only the arrays a backward reads, and an operand
gets a gradient from an op only if it required one when the op ran."""

import tracemalloc
import weakref

import numpy as np
import pytest

from srdistill import tensor as T
from srdistill.losses import semrel_matrix, similarity_loss, sp_loss
from srdistill.tensor import Tensor
from test_tensor import _pad_adjoint, conv2d_grads_loops, conv2d_loops

# (output channels, stride) for 3 input channels: the gathered forward, the
# flipped kernel's scatter (O < I at stride 1) and a strided gather
_CONVS = pytest.mark.parametrize("co, stride", [(5, 1), (2, 1), (4, 2)],
                                 ids=["gather", "flipped_kernel", "stride2"])


def _instance_norm_grad(x, g, eps=1e-5):
    """d sum(instance_norm(x) * g) / dx from each (n, c) map's moments."""
    axes = (2, 3)
    std = np.sqrt(x.var(axis=axes, keepdims=True) + eps)
    y = (x - x.mean(axis=axes, keepdims=True)) / std
    return (g - g.mean(axis=axes, keepdims=True)
            - y * (g * y).mean(axis=axes, keepdims=True)) / std


@_CONVS
def test_a_conv_output_only_instance_norm_reads_is_freed(co, stride):
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(co, 3, 3, 3)), rng.normal(size=co)
    xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
    h = T.conv2d(xt, wt, bt, stride=stride, padding=1, pad_mode="reflect")
    held = weakref.ref(h.data)
    y = T.instance_norm(h)
    del h
    assert held() is None
    assert y._parents[0].data.nbytes == 0  # what a graph-size count sees of it
    g = rng.normal(size=y.shape)
    T.reduce_sum(T.mul(y, Tensor(g))).backward()

    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    dh = _instance_norm_grad(conv2d_loops(xp, w, b, stride, 0), g)
    dxp, dw = conv2d_grads_loops(xp, w, dh, stride)
    assert np.max(np.abs(xt.grad - _pad_adjoint(dxp, 1, "reflect", 7, 6))) < 1e-12
    assert np.max(np.abs(wt.grad - dw)) < 1e-12
    assert np.max(np.abs(bt.grad - dh.sum(axis=(0, 2, 3)))) < 1e-12


@_CONVS
def test_a_conv_with_a_frozen_weight_keeps_no_reference_to_its_input(co, stride):
    rng = np.random.default_rng(1)
    x0 = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    w = rng.normal(size=(co, 3, 3, 3))
    h = T.relu(x0)  # relu keeps its own input, not h
    held = weakref.ref(h.data)
    out = T.conv2d(h, Tensor(w), stride=stride, padding=1)
    del h
    assert held() is None
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()

    xp = np.pad(np.maximum(x0.data, 0), ((0, 0), (0, 0), (1, 1), (1, 1)))
    dxp, _ = conv2d_grads_loops(xp, w, g, stride)
    assert np.max(np.abs(x0.grad - dxp[:, :, 1:-1, 1:-1] * (x0.data >= 0))) < 1e-12


@pytest.mark.parametrize("op", ["add", "abs_mean", "similarity_loss"])
def test_a_non_grad_operand_is_not_referenced_by_the_graph(op):
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(1, 4, 5, 5)), requires_grad=True)
    target = Tensor(rng.normal(size=(1, 4, 5, 5)))
    held = weakref.ref(target.data)
    if op == "similarity_loss":
        out = similarity_loss(target, a)  # the teacher feature comes first
    else:
        out = getattr(T, op)(a, target)
    del target
    assert held() is None
    (out if out.data.ndim == 0 else T.reduce_sum(out)).backward()
    assert a.grad is not None and np.all(np.isfinite(a.grad))


def test_the_composite_similarity_holds_one_p_by_p_matrix_and_its_signs_after_forward():
    # P = 1024, so a float64 P x P matrix is 8 MB. The graph keeps the
    # student's normalised matrix and abs_mean's int8 signs (1/8 of one); the
    # teacher's normalised matrix, the student's raw Gram and the difference
    # are gone once it returns.
    rng = np.random.default_rng(3)
    t = Tensor(rng.normal(size=(1, 4, 32, 32)))
    s = Tensor(rng.normal(size=(1, 4, 32, 32)), requires_grad=True)
    pp = 1024 * 1024 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = sp_loss(semrel_matrix(t.detach()), semrel_matrix(s))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 1.1 * pp < held < 1.2 * pp, f"{held / pp:.2f} P x P matrices"
    loss.backward()
    assert s.grad.shape == s.shape and np.all(np.isfinite(s.grad))


def test_an_operand_switched_to_requires_grad_after_the_op_gets_no_gradient():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]))
    c = T.mul(a, b)
    b.requires_grad = True
    T.reduce_sum(c).backward()
    assert np.array_equal(a.grad, [3.0, 4.0])
    assert b.grad is None
    T.reduce_sum(T.mul(a, b)).backward()  # an op run after the switch
    assert np.array_equal(b.grad, [1.0, 2.0])


def _pp_peak_and_held(run, pp):
    """(peak, held) traced bytes of run() in units of pp, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / pp, (held - before) / pp, out


def test_the_composite_similarity_peaks_below_three_and_a_half_p_by_p():
    # forward: the two normalised matrices, the difference and its signs;
    # backward: the student's matrix, the signs, its gradient and one buffer
    rng = np.random.default_rng(3)
    t = Tensor(rng.normal(size=(1, 4, 32, 32)))
    s = Tensor(rng.normal(size=(1, 4, 32, 32)), requires_grad=True)

    def run():
        sp_loss(semrel_matrix(t.detach()), semrel_matrix(s)).backward()

    peak, _, _ = _pp_peak_and_held(run, 1024 * 1024 * 8)
    assert peak <= 3.5, f"{peak:.2f} P x P matrices at the peak"


def test_the_composite_similarity_peaks_at_three_p_by_p_with_blocks_below_one(monkeypatch):
    # blocks of 1/16 P x P (at 2**20 elements one block is the whole float64
    # matrix at P = 1024). Forward: the teacher's matrix and the student's
    # Gram and normalised matrix; abs_mean forms its difference in blocks.
    # Backward: the student's matrix, the signs and its gradient, which
    # row_l2_normalize's backward writes over and passes on.
    monkeypatch.setattr(T, "BLOCK_ELEMS", 2 ** 16)
    rng = np.random.default_rng(3)
    t = Tensor(rng.normal(size=(1, 4, 32, 32)))
    s = Tensor(rng.normal(size=(1, 4, 32, 32)), requires_grad=True)
    pp = 1024 * 1024 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = sp_loss(semrel_matrix(t.detach()), semrel_matrix(s))
        forward = (tracemalloc.get_traced_memory()[1] - before) / pp
        tracemalloc.reset_peak()
        loss.backward()  # the peak counts what the graph held since forward
        backward = (tracemalloc.get_traced_memory()[1] - before) / pp
    finally:
        tracemalloc.stop()
    assert forward <= 3.1, f"{forward:.2f} P x P matrices at the forward peak"
    assert backward <= 2.3, f"{backward:.2f} P x P matrices at the backward peak"


def test_a_second_walk_through_semrel_matrix_doubles_the_leaf_gradient(monkeypatch):
    # row_l2_normalize's backward writes over its incoming gradient, never
    # over the normalised matrix a second walk reads again
    monkeypatch.setattr(T, "BLOCK_ELEMS", 2 ** 8)  # 6 rows of P = 42 a block
    rng = np.random.default_rng(7)
    t = Tensor(rng.normal(size=(1, 3, 6, 7)))
    s = Tensor(rng.normal(size=(1, 3, 6, 7)), requires_grad=True)
    s.data[0, :, 0, 0] = 0.0  # an all-zero row of the student's Gram matrix
    loss = sp_loss(semrel_matrix(t), semrel_matrix(s))
    loss.backward()
    first = s.grad.copy()
    assert np.all(np.isfinite(first)) and np.any(first != 0.0)
    loss.backward()
    assert np.array_equal(s.grad, 2 * first)


@pytest.mark.parametrize("op, built", [("square_mean", 1), ("sub", 2), ("mul", 2),
                                       ("matmul", 2)])
def test_an_operand_without_a_gradient_gets_none_built(op, built):
    # (op, the operand-sized arrays its backward builds for `a`): the second
    # operand is a constant, as adversarial_loss's target. 2**20 float64
    # elements, 8 MB an operand; reduce_sum's backward builds one of them,
    # the incoming gradient of sub, mul and matmul.
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(1024, 1024)), requires_grad=True)
    c = Tensor(rng.normal(size=(1024, 1024)))
    out = getattr(T, op)(a, c)
    loss = out if out.data.ndim == 0 else T.reduce_sum(out)
    peak, _, _ = _pp_peak_and_held(loss.backward, a.data.nbytes)
    assert peak < built + 0.5, f"{peak:.2f} operand-sized arrays at the backward peak"
    assert a.grad is not None and c.grad is None


def test_the_fused_similarity_holds_no_p_by_p_buffer_after_forward():
    # P = 4096 in float32: one P x P int8 array would be 16 MB
    rng = np.random.default_rng(4)
    t = Tensor(rng.normal(size=(1, 8, 64, 64)).astype(np.float32))
    s = Tensor(rng.normal(size=(1, 8, 64, 64)).astype(np.float32), requires_grad=True)
    _, held, loss = _pp_peak_and_held(lambda: similarity_loss(t, s), 2 ** 20)
    assert held < 1.0, f"{held:.2f} MB held after forward"
    loss.backward()
    oracle = Tensor(s.data, requires_grad=True)
    sp_loss(semrel_matrix(t), semrel_matrix(oracle)).backward()
    err = np.linalg.norm(s.grad - oracle.grad) / np.linalg.norm(oracle.grad)
    assert err < 1e-3, err


def _nodes(root):
    """Every _Node reachable from root's vertex, and every leaf vertex."""
    nodes, leaves, stack, seen = [], [], [root._node], set()
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        (leaves if isinstance(v, Tensor) else nodes).append(v)
        stack.extend(v._parents)
    return nodes, leaves


def test_no_two_grad_slots_share_memory_and_a_second_walk_doubles_every_gradient():
    # integer-valued data keep every sum exact, so two walks give exactly 2x;
    # each op below hands one array to several vertices, or a view of its g
    rng = np.random.default_rng(5)

    def leaf(*shape):
        return Tensor(rng.integers(-3, 4, size=shape).astype(np.float64),
                      requires_grad=True)

    def weighed(t):
        w = Tensor(rng.integers(-2, 3, size=t.shape).astype(np.float64))
        return T.reduce_sum(T.mul(t, w))

    a, b, c = leaf(1, 2, 5, 5), leaf(1, 2, 5, 5), leaf(2, 25)
    h = T.mul(a, b)
    cat = T.concat([T.add(h, h), T.add(a, b)], axis=1)  # a shared node; two leaves
    terms = [weighed(T.pad2d(cat, 1, "zero")),
             weighed(T.pad2d(cat, 2, "reflect")),
             weighed(T.add(T.reshape(T.sub(T.mul(b, b), a), (2, 25)),
                           T.add(T.scale(c, 2.0), T.scale(c, 3.0)))),
             # the pad node is conv2d's parent, so its g is among the slots
             weighed(T.conv2d(cat, leaf(3, 4, 3, 3), padding=1, pad_mode="reflect"))]
    loss = T.add(T.add(terms[0], terms[1]), T.add(terms[2], terms[3]))

    passed = []  # every gradient a node's closure was handed
    nodes, leaves = _nodes(loss)
    for node in nodes:
        def record(g, fn=node._backward_fn):
            passed.append(g)
            fn(g)
        node._backward_fn = record

    loss.backward()
    slots = passed + [v.grad for v in leaves]
    assert len(leaves) == 4 and all(v.grad is not None for v in leaves)
    for i, x in enumerate(slots):
        for y in slots[i + 1:]:
            assert not np.shares_memory(x, y)
    first = [v.grad.copy() for v in leaves]
    loss.backward()
    for v, g in zip(leaves, first):
        assert np.array_equal(v.grad, 2 * g)
