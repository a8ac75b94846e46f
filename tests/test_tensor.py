"""Autodiff op tests: loop-nest oracles, adjoint identities, gradient checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradsuite
from srdistill import tensor as T
from srdistill.tensor import ShapeError, Tensor


# ---------------------------------------------------------------------------
# oracles: direct loop-nest implementations, no im2col anywhere


def conv2d_loops(x, w, b, stride, padding):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.zeros((n, ci, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oi in range(co):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ii in range(ci):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (xp[ni, ii, yi * stride + ki, xi * stride + kj]
                                        * w[oi, ii, ki, kj])
                    out[ni, oi, yi, xi] = acc + (b[oi] if b is not None else 0.0)
    return out


def conv_transpose2d_loops(x, w, b, stride, padding, output_padding):
    n, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh + output_padding
    ow = (wd - 1) * stride - 2 * padding + kw + output_padding
    out = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ii in range(ci):
            for yi in range(h):
                for xi in range(wd):
                    for oi in range(co):
                        for ki in range(kh):
                            for kj in range(kw):
                                r = yi * stride + ki - padding
                                c = xi * stride + kj - padding
                                if 0 <= r < oh and 0 <= c < ow:
                                    out[ni, oi, r, c] += (x[ni, ii, yi, xi]
                                                          * w[ii, oi, ki, kj])
    if b is not None:
        out += b.reshape(1, co, 1, 1)
    return out


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
    want = conv2d_loops(x, w, b, stride=2, padding=1)
    assert got.shape == (2, 4, 4, 4)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("case", range(8))
def test_conv2d_loop_oracle_randomized(case):
    rng = np.random.default_rng(100 + case)
    n, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
    h, wd = (int(v) for v in rng.integers(3, 8, size=2))
    k = int(rng.choice([1, 2, 3]))
    s = int(rng.choice([1, 2, 3]))
    p = int(rng.integers(0, 3))
    if (h + 2 * p - k) < 0 or (wd + 2 * p - k) < 0:
        p = k
    x = rng.normal(size=(n, ci, h, wd))
    w = rng.normal(size=(co, ci, k, k))
    b = rng.normal(size=co)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=s, padding=p).data
    assert np.max(np.abs(got - conv2d_loops(x, w, b, s, p))) < 1e-12


@pytest.mark.parametrize("case", range(8))
def test_conv_transpose2d_loop_oracle_randomized(case):
    rng = np.random.default_rng(200 + case)
    n, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
    h, wd = (int(v) for v in rng.integers(2, 6, size=2))
    k = int(rng.choice([2, 3, 4]))
    s = int(rng.choice([1, 2]))
    p = int(rng.integers(0, 2))
    op = int(rng.integers(0, s))
    x = rng.normal(size=(n, ci, h, wd))
    w = rng.normal(size=(ci, co, k, k))
    b = rng.normal(size=co)
    got = T.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b), stride=s,
                             padding=p, output_padding=op).data
    want = conv_transpose2d_loops(x, w, b, s, p, op)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("stride,padding,output_padding",
                         [(1, 0, 1), (2, 0, 2), (2, 1, -1), (2, -1, 0)])
def test_conv_transpose2d_rejects_out_of_range_padding(stride, padding, output_padding):
    # output_padding must be below the stride, as in PyTorch
    x = Tensor(np.ones((1, 2, 4, 4)))
    w = Tensor(np.ones((2, 3, 3, 3)))
    with pytest.raises(ShapeError, match="output_padding"):
        T.conv_transpose2d(x, w, None, stride=stride, padding=padding,
                           output_padding=output_padding)


@pytest.mark.parametrize("stride,h", [(1, 6), (2, 8), (2, 7)])
def test_conv_transpose_is_adjoint_of_conv(stride, h):
    # <conv(x, w), y> == <x, convT(y, w)> with matching stride/padding
    rng = np.random.default_rng(3)
    p = 1
    k = 3
    x = rng.normal(size=(2, 3, h, h))
    w = rng.normal(size=(4, 3, k, k))
    oh = (h + 2 * p - k) // stride + 1
    y = rng.normal(size=(2, 4, oh, oh))
    op = (h + 2 * p - k) % stride
    cx = T.conv2d(Tensor(x), Tensor(w), None, stride=stride, padding=p).data
    cty = T.conv_transpose2d(Tensor(y), Tensor(w), None, stride=stride,
                             padding=p, output_padding=op).data
    assert cty.shape == x.shape
    lhs = float(np.sum(cx * y))
    rhs = float(np.sum(x * cty))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def _pad_adjoint(gp, p, mode, h, w):
    """Fold a gradient on the padded image back onto the (h, w) input.

    Sums over the index map that np.pad builds, independent of pad2d.
    """
    idx = np.arange(h * w).reshape(h, w)
    if mode == "reflect":
        pidx = np.pad(idx, p, mode="reflect")
    else:
        pidx = np.pad(idx, p, constant_values=-1)
    keep = pidx >= 0
    out = np.zeros(gp.shape[:2] + (h * w,))
    np.add.at(out, (slice(None), slice(None), pidx[keep]), gp[:, :, keep])
    return out.reshape(gp.shape[:2] + (h, w))


def conv2d_grads_loops(xp, w, g, stride):
    """(d xp, d w) of sum(conv(xp, w) * g) at padding 0, one tap at a time."""
    s = stride
    oh, ow = g.shape[2:]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for a in range(w.shape[2]):
        for b in range(w.shape[3]):
            win = xp[:, :, a:a + s * oh:s, b:b + s * ow:s]
            dw[:, :, a, b] = np.einsum("noyx,niyx->oi", g, win)
            dxp[:, :, a:a + s * oh:s, b:b + s * ow:s] += np.einsum(
                "noyx,oi->niyx", g, w[:, :, a, b])
    return dxp, dw


@st.composite
def _conv_geometry(draw):
    k = draw(st.integers(1, 7))
    s = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["zero", "reflect"]))
    p = draw(st.integers(0, 3))
    # reflect needs p < size; the padded image must hold one kernel
    lo = max(k - 2 * p, p + 1 if mode == "reflect" else 1, 1)
    h, wd = draw(st.integers(lo, lo + 4)), draw(st.integers(lo, lo + 4))
    n = draw(st.integers(1, 2))
    ci, co = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return n, ci, co, h, wd, k, s, p, mode


@given(_conv_geometry(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_conv2d_and_its_gradients_match_loops(geometry, one_row_bands, seed):
    # O < I at stride 1 takes the gather input gradient, the rest the scatter
    n, ci, co, h, wd, k, s, p, mode = geometry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, ci, h, wd))
    w = rng.normal(size=(co, ci, k, k))
    b = rng.normal(size=co)
    xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
    with pytest.MonkeyPatch.context() as mp:
        if one_row_bands:
            mp.setattr(T, "BLOCK_ELEMS", 1)
        out = T.conv2d(xt, wt, bt, stride=s, padding=p, pad_mode=mode)
        g = rng.normal(size=out.shape)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()

    xp = x if p == 0 else np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)),
                                 mode="reflect" if mode == "reflect" else "constant")
    want = conv2d_loops(xp, w, b, s, 0)
    assert out.shape == want.shape
    assert np.max(np.abs(out.data - want)) < 1e-12
    dxp, dw = conv2d_grads_loops(xp, w, g, s)
    dx = dxp if p == 0 else _pad_adjoint(dxp, p, mode, h, wd)
    assert np.max(np.abs(xt.grad - dx)) < 1e-12
    assert np.max(np.abs(wt.grad - dw)) < 1e-12
    assert np.max(np.abs(bt.grad - g.sum(axis=(0, 2, 3)))) < 1e-12


def test_no_grad_head_conv_never_holds_its_column_matrix():
    # 64 -> 3 channels, 7x7, 256x256 output: the whole column matrix would be
    # 3136 x 65536 float32 = 822 MB
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 64, 262, 262)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 64, 7, 7)).astype(np.float32))
    tracemalloc.start()
    try:
        out = T.conv2d(x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 3, 256, 256)
    assert peak < 40 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_trainable_head_conv_keeps_no_column_matrix():
    # 16 -> 3 channels, 7x7, 256x256 output, the student's head: kept column
    # bands would hold 784 x 65536 float32 = 205 MB until backward
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 16, 262, 262)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 16, 7, 7)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        out = T.conv2d(x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 3, 256, 256)
    assert peak < 40 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    T.reduce_sum(out).backward()
    assert w.grad.shape == w.shape and w.grad.dtype == np.float32


@pytest.mark.parametrize("op, x_shape, w_shape, pad", [
    (lambda x, w: T.conv2d(x, w, stride=2, padding=1), (1, 32, 128, 128), (32, 32, 3, 3), 1),
    (lambda x, w: T.conv2d(x, w, stride=1, padding=1), (1, 32, 64, 64), (32, 32, 3, 3), 1),
    (lambda x, w: T.conv_transpose2d(x, w, stride=2, padding=1),
     (1, 32, 128, 128), (32, 16, 4, 4), 0),
], ids=["stride2", "stride1_wide", "transpose"])
def test_trainable_convs_keep_no_columns_until_backward(op, x_shape, w_shape, pad,
                                                        monkeypatch):
    # 1 MB bands: each full column matrix here is 4.5-16 MB
    monkeypatch.setattr(T, "BLOCK_ELEMS", 2 ** 18)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape).astype(np.float32), requires_grad=True)
    n, c, h, wd = x_shape
    tracemalloc.start()
    try:
        out = op(x, w)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    padded = n * c * (h + 2 * pad) * (wd + 2 * pad) * 4 if pad else 0
    assert held < out.data.nbytes + padded + 2 ** 20, f"held {held / 2 ** 20:.1f} MB"
    loss = T.reduce_sum(out)
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if pad == 0:
        # the convT's backward holds its output gradient and that embedded,
        # the input gradient and its copy in x.grad, and one 1 MB band at a
        # time of its 16 MB of columns
        bound = 2 * out.data.nbytes + 2 * x.data.nbytes + 2 ** 20
        assert peak < bound, f"backward peak {peak / 2 ** 20:.1f} MB"
    for t in (x, w):
        assert t.grad.shape == t.shape and t.grad.dtype == np.float32


@pytest.mark.parametrize("op, w_shape, co", [
    (lambda x, w, b: T.conv2d(x, w, b, stride=2, padding=1), (4, 3, 3, 3), 4),
    (lambda x, w, b: T.conv2d(x, w, b), (2, 3, 1, 1), 2),
    (lambda x, w, b: T.conv_transpose2d(x, w, b), (3, 4, 1, 1), 4),
    (lambda x, w, b: T.conv_transpose2d(x, w, b, stride=2, padding=1, output_padding=1),
     (3, 4, 3, 3), 4),
], ids=["correlate", "kn2row", "transpose_whole", "transpose_cropped"])
def test_conv_bias_lands_in_a_fresh_output(op, w_shape, co):
    # the bias is added in place: into the op's own output, never an operand
    rng = np.random.default_rng(5)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((2, 3, 6, 6), w_shape, co))
    x0, w0, b0 = x.data.copy(), w.data.copy(), b.data.copy()
    out = op(x, w, b)
    for t in (x, w, b):
        assert not np.shares_memory(out.data, t.data)
    assert out.data.flags.c_contiguous
    assert np.array_equal(out.data, op(x, w, None).data + b0.reshape(1, -1, 1, 1))
    assert np.array_equal(x.data, x0) and np.array_equal(w.data, w0)
    assert np.array_equal(b.data, b0)


@pytest.mark.parametrize("run", [1, 3, 16])
def test_kn2row_tap_runs_match_loops(run, monkeypatch):
    # stride 1 and O < I: runs of 1, 3 (not dividing 16 taps) and all taps
    rng = np.random.default_rng(run)
    x = rng.normal(size=(2, 5, 6, 7))
    w = rng.normal(size=(2, 5, 4, 4))
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    monkeypatch.setattr(T, "BLOCK_ELEMS", run * 2 * 2 * 8 * 9)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = T.conv2d(xt, wt, None, stride=1, padding=1)
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    assert np.max(np.abs(out.data - conv2d_loops(x, w, None, 1, 1))) < 1e-12
    dxp, dw = conv2d_grads_loops(xp, w, g, 1)
    assert np.max(np.abs(wt.grad - dw)) < 1e-12
    assert np.max(np.abs(xt.grad - dxp[:, :, 1:-1, 1:-1])) < 1e-12


def test_kn2row_with_a_frozen_weight_takes_only_the_input_gradient():
    # a PatchGAN head under the generator objective: weight frozen, input live
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 6, 5, 6))
    w = rng.normal(size=(1, 6, 4, 4))
    b = rng.normal(size=1)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w)
    out = T.conv2d(xt, wt, Tensor(b), stride=1, padding=1, pad_mode="reflect")
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    assert np.max(np.abs(out.data - conv2d_loops(xp, w, b, 1, 0))) < 1e-12
    dxp, _ = conv2d_grads_loops(xp, w, g, 1)
    assert np.max(np.abs(xt.grad - _pad_adjoint(dxp, 1, "reflect", 5, 6))) < 1e-12
    assert wt.grad is None


def test_conv2d_identity_kernel_preserves_input():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 3, 5, 5))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = T.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1).data
    assert np.array_equal(out, x)


def test_conv2d_ones_kernel_interior_sum():
    x = np.ones((1, 1, 4, 4))
    w = np.ones((1, 1, 3, 3))
    out = T.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1).data
    assert out.shape == (1, 1, 4, 4)
    assert out[0, 0, 1, 1] == 9.0
    assert out[0, 0, 0, 0] == 4.0  # corner sees a 2x2 window under zero pad


def test_conv_transpose2d_upsamples_16_to_32():
    x = Tensor(np.zeros((1, 8, 16, 16)))
    w = Tensor(np.zeros((8, 4, 4, 4)))
    out = T.conv_transpose2d(x, w, None, stride=2, padding=1, output_padding=0)
    assert out.shape == (1, 4, 32, 32)


def test_pad2d_reflect_matches_numpy():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 5, 6))
    for p in (1, 2, 3):
        got = T.pad2d(Tensor(x), p, mode="reflect").data
        want = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="reflect")
        assert np.array_equal(got, want)


@given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_pad2d_reflect_matches_numpy_for_every_padding(h, w, n):
    rng = np.random.default_rng(h * 13 + w * 7 + n)
    x = rng.normal(size=(n, 2, h, w)).astype(np.float32)
    for p in range(1, min(h, w)):  # up to p = min(h, w) - 1
        got = T.pad2d(Tensor(x), p, mode="reflect").data
        want = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="reflect")
        assert np.array_equal(got, want), p


def test_pad2d_reflect_rejects_pad_wider_than_input():
    x = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ShapeError):
        T.pad2d(x, 3, mode="reflect")


def test_instance_norm_per_channel_moments():
    rng = np.random.default_rng(9)
    x = rng.normal(2.0, 3.0, size=(2, 4, 6, 6))
    eps = 1e-5
    y = T.instance_norm(Tensor(x), eps=eps).data
    mean = y.mean(axis=(2, 3))
    var = y.var(axis=(2, 3))
    assert np.max(np.abs(mean)) < 1e-12
    assert np.max(np.abs(var - 1.0)) < 10 * eps


def test_instance_norm_is_shift_and_scale_invariant():
    # eps in the denominator leaves a residual of order eps per unit output
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 2, 5, 5))
    a = T.instance_norm(Tensor(x)).data
    b = T.instance_norm(Tensor(3.0 * x + 7.0)).data
    assert np.max(np.abs(a - b)) < 1e-4


def test_row_l2_normalize_unit_rows_and_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [-1.0, 1.0]])
    y = T.row_l2_normalize(Tensor(x)).data
    norms = np.linalg.norm(y, axis=1)
    assert abs(norms[0] - 1.0) < 1e-12
    assert norms[1] == 0.0
    assert abs(norms[2] - 1.0) < 1e-12


def test_row_l2_normalize_zero_row_gets_zero_gradient():
    x = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]), requires_grad=True)
    loss = T.square_mean(T.row_l2_normalize(x), Tensor(np.ones((2, 2))))
    loss.backward()
    assert np.all(x.grad[1] == 0.0)
    assert np.any(x.grad[0] != 0.0)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_reduce_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    T.reduce_sum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_reduce_mean_gives_quarter():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    T.reduce_mean(x).backward()
    assert np.array_equal(x.grad, np.full((2, 2), 0.25))


def test_backward_accumulates_over_fanout():
    # c = (a + a) * (a + a) = 4 a^2, dc/da = 8 a
    a = Tensor(np.array([[1.5, -2.0]]), requires_grad=True)
    s = T.add(a, a)
    T.reduce_sum(T.mul(s, s)).backward()
    assert np.max(np.abs(a.grad - 8.0 * a.data)) < 1e-12


def test_repeated_backward_accumulates_once_per_walk():
    x = Tensor(np.array([[1.0, -3.0]]), requires_grad=True)
    loss = T.reduce_sum(T.scale(x, 2.0))
    loss.backward()
    loss.backward()
    assert np.array_equal(x.grad, np.full((1, 2), 4.0))


def test_backward_over_a_shared_node_counts_each_loss_once():
    # l1 = sum(2x), l2 = sum((2x)^2): dl1/dx = 2, dl2/dx = 8x
    x = Tensor(np.array([[0.5, -1.5]]), requires_grad=True)
    y = T.scale(x, 2.0)
    T.reduce_sum(y).backward()
    T.reduce_sum(T.mul(y, y)).backward()
    assert np.max(np.abs(x.grad - (2.0 + 8.0 * x.data))) < 1e-12
    assert y.grad is None  # intermediate nodes keep no gradient


def test_backward_on_a_leaf_scalar_accumulates():
    x = Tensor(np.array(3.0), requires_grad=True)
    x.backward()
    x.backward()
    assert x.grad == 2.0


def test_backward_on_a_no_grad_leaf_leaves_no_gradient():
    x = Tensor(np.array(3.0))
    x.backward()
    assert x.grad is None


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.add(x, x).backward()


def test_detach_blocks_gradient():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    y = T.mul(x, x.detach())  # d/dx treats the detached copy as constant
    T.reduce_sum(y).backward()
    assert x.grad[0, 0] == 2.0


def test_relu_and_leaky_values():
    x = Tensor(np.array([[-2.0, 0.0, 3.0]]))
    assert np.array_equal(T.relu(x).data, [[0.0, 0.0, 3.0]])
    assert np.allclose(T.leaky_relu(x, 0.2).data, [[-0.4, 0.0, 3.0]])


def test_tanh_stays_in_open_unit_interval():
    x = Tensor(np.array([[-50.0, 0.0, 50.0]]))
    y = T.tanh(x).data
    assert np.all(y >= -1.0) and np.all(y <= 1.0)
    assert y[0, 1] == 0.0


def test_concat_backward_splits_upstream():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = T.concat([a, b], axis=1)
    T.reduce_sum(T.mul(out, out)).backward()
    assert a.grad.shape == (2, 2)
    assert b.grad.shape == (2, 3)
    assert np.all(a.grad == 2.0) and np.all(b.grad == 2.0)


def test_shape_errors():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.add(a, b)
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "abs_mean", "square_mean",
                                "matmul", "concat", "conv2d", "conv_bias"])
def test_mixed_dtypes_are_rejected(op):
    a = Tensor(np.ones((2, 2), dtype=np.float32))
    b = Tensor(np.ones((2, 2), dtype=np.float64))
    x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
    w = Tensor(np.ones((2, 2, 3, 3), dtype=np.float32))
    calls = {
        "matmul": lambda: T.matmul(a, b),
        "concat": lambda: T.concat([a, b], axis=0),
        "conv2d": lambda: T.conv2d(x, Tensor(w.data.astype(np.float64))),
        "conv_bias": lambda: T.conv2d(x, w, Tensor(np.ones(2))),
    }
    with pytest.raises(TypeError, match="float32 and float64"):
        calls.get(op, lambda: getattr(T, op)(a, b))()


def test_leaky_relu_gradients_stay_in_the_operand_dtype(monkeypatch):
    seen = []
    accum = T._accum

    def spy(t, g):
        seen.append(g.dtype)
        accum(t, g)

    monkeypatch.setattr(T, "_accum", spy)
    x = Tensor(np.array([[-1.5, 0.0, 2.0]], dtype=np.float32), requires_grad=True)
    T.reduce_sum(T.leaky_relu(x, 0.2)).backward()
    assert seen and all(d == np.float32 for d in seen), seen
    assert np.array_equal(x.grad, np.array([[0.2, 1.0, 1.0]], dtype=np.float32))


def test_scale_keeps_the_operand_dtype():
    # a NumPy float64 scalar would promote the 0-d float32 product to float64
    x = Tensor(np.asarray(1.5, dtype=np.float32), requires_grad=True)
    y = T.scale(x, np.float64(0.5))
    assert y.dtype == np.float32
    y.backward()
    assert x.grad.dtype == np.float32 and float(x.grad) == 0.5


def test_repeated_run_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        h = T.relu(T.instance_norm(T.conv2d(x, w, None, stride=2, padding=1)))
        loss = T.square_mean(h, Tensor(np.zeros_like(h.data)))
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# finite-difference suite


@pytest.mark.parametrize("op", sorted(gradsuite.OPS))
def test_gradients_match_finite_differences(op):
    worst = gradsuite.check_op(op, n_cases=20, seed=0)
    assert worst < gradsuite.TOL, f"{op}: worst rel err {worst:.3e}"


def test_grad_check_passes_on_smooth_function():
    x = Tensor(np.array([[0.3, -0.7], [1.2, 0.5]]), requires_grad=True)
    report = T.grad_check(lambda t: T.reduce_sum(T.mul(T.tanh(t), t)), x)
    assert report.passed
    assert report.worst < 1e-6


def test_grad_check_flags_corrupted_gradient():
    # forward equals 2x elementwise but backward only sees one branch
    x = Tensor(np.array([[0.5, 1.5]]), requires_grad=True)
    report = T.grad_check(lambda t: T.reduce_sum(T.add(t, t.detach())), x)
    assert not report.passed
    assert report.worst > 0.4


# ---------------------------------------------------------------------------
# structural properties


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_concat_matches_numpy(rows, cols, axis):
    rng = np.random.default_rng(rows * 17 + cols * 3 + axis)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(rows, cols))
    got = T.concat([Tensor(a), Tensor(b)], axis=axis).data
    assert np.array_equal(got, np.concatenate([a, b], axis=axis))


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_reshape_round_trip(rows, cols):
    rng = np.random.default_rng(rows * 31 + cols)
    x = rng.normal(size=(rows, cols))
    back = T.reshape(T.reshape(Tensor(x), (cols * rows,)), (rows, cols)).data
    assert np.array_equal(back, x)


@given(st.integers(1, 4), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_row_l2_normalize_rows_are_unit(rows, cols):
    rng = np.random.default_rng(rows * 13 + cols)
    x = rng.normal(size=(rows, cols)) + 0.5
    norms = np.linalg.norm(T.row_l2_normalize(Tensor(x)).data, axis=1)
    keep = np.linalg.norm(x, axis=1) > 0
    assert np.max(np.abs(norms[keep] - 1.0)) < 1e-12


@given(st.integers(3, 7), st.integers(3, 7), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_pad2d_zero_embeds_input(h, w, p):
    rng = np.random.default_rng(h * 11 + w * 5 + p)
    x = rng.normal(size=(1, 2, h, w))
    out = T.pad2d(Tensor(x), p, mode="zero").data
    assert out.shape == (1, 2, h + 2 * p, w + 2 * p)
    assert np.array_equal(out[:, :, p:p + h, p:p + w], x)
    assert np.sum(np.abs(out)) == pytest.approx(np.sum(np.abs(x)))
