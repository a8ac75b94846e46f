"""Autodiff op tests: loop-nest oracles, adjoint identities, gradient checks."""

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
