"""Autodiff op tests: loop-nest oracles, adjoint identities, gradient checks."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradsuite
from srdistill import tensor as T
from srdistill.data import image_to_tensor
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
    # kh and kw drawn apart: a flip or crop that swaps the two axes fails
    kh, kw = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    s = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["zero", "reflect"]))
    p = draw(st.integers(0, 3))
    # reflect needs p < size; the padded image must hold one kernel per axis
    floor = p + 1 if mode == "reflect" else 1
    lo_h, lo_w = max(kh - 2 * p, floor), max(kw - 2 * p, floor)
    h, wd = draw(st.integers(lo_h, lo_h + 4)), draw(st.integers(lo_w, lo_w + 4))
    n = draw(st.integers(1, 2))
    ci, co = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return n, ci, co, h, wd, kh, kw, s, p, mode


@given(_conv_geometry(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_conv2d_and_its_gradients_match_loops(geometry, one_row_bands, seed):
    # O < I at stride 1 takes the flipped kernel's scatter forward and the
    # gather input gradient, the rest the gather forward and the scatter
    n, ci, co, h, wd, kh, kw, s, p, mode = geometry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, ci, h, wd))
    w = rng.normal(size=(co, ci, kh, kw))
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


def conv_transpose2d_grads_loops(x, w, g, stride, padding):
    """(d x, d w) of sum(conv_transpose2d(x, w) * g), one tap at a time.

    Input pixel (y, x) and tap (a, b) land on output pixel (y*stride + a -
    padding, x*stride + b - padding); g is read there, zero outside it.
    """
    s, p = stride, padding
    h, wd = x.shape[2:]
    kh, kw = w.shape[2:]
    gp = np.pad(g, ((0, 0), (0, 0), (p, s * h + kh), (p, s * wd + kw)))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for a in range(kh):
        for b in range(kw):
            gwin = gp[:, :, a:a + s * h:s, b:b + s * wd:s]
            dx += np.einsum("noyx,io->niyx", gwin, w[:, :, a, b])
            dw[:, :, a, b] = np.einsum("niyx,noyx->io", x, gwin)
    return dx, dw


@st.composite
def _conv_transpose_geometry(draw):
    # kh != kw: a flip or crop that swaps the two axes fails
    kh = draw(st.integers(1, 5))
    kw = draw(st.integers(1, 5).filter(lambda k: k != kh))
    s = draw(st.integers(1, 3))
    p, op = draw(st.integers(0, 3)), draw(st.integers(0, s - 1))
    # each output axis, (size - 1)*s - 2p + k + op, must be at least 1
    lo_h = 1 + max(0, -(-(2 * p + 1 - kh - op) // s))
    lo_w = 1 + max(0, -(-(2 * p + 1 - kw - op) // s))
    h, wd = draw(st.integers(lo_h, lo_h + 3)), draw(st.integers(lo_w, lo_w + 3))
    n = draw(st.integers(1, 2))
    ci, co = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return n, ci, co, h, wd, kh, kw, s, p, op


@given(_conv_transpose_geometry(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_conv_transpose2d_and_its_gradients_match_loops(geometry, one_row_bands, seed):
    # I < O at stride 1 takes the gathered forward, the flipped weight
    # gradient and the scattered input gradient; the rest the scatter forward
    # and the gathered backward
    n, ci, co, h, wd, kh, kw, s, p, op = geometry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, ci, h, wd))
    w = rng.normal(size=(ci, co, kh, kw))
    b = rng.normal(size=co)
    xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
    with pytest.MonkeyPatch.context() as mp:
        if one_row_bands:
            mp.setattr(T, "BLOCK_ELEMS", 1)
        out = T.conv_transpose2d(xt, wt, bt, stride=s, padding=p, output_padding=op)
        g = rng.normal(size=out.shape)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()

    want = conv_transpose2d_loops(x, w, b, s, p, op)
    assert out.shape == want.shape
    assert np.max(np.abs(out.data - want)) < 1e-12
    dx, dw = conv_transpose2d_grads_loops(x, w, g, s, p)
    assert np.max(np.abs(xt.grad - dx)) < 1e-12
    assert np.max(np.abs(wt.grad - dw)) < 1e-12
    assert np.max(np.abs(bt.grad - g.sum(axis=(0, 2, 3)))) < 1e-12


@pytest.mark.parametrize("ci, co", [(2, 5), (5, 2), (3, 3)])
@pytest.mark.parametrize("op", ["conv2d", "conv_transpose2d"])
def test_stride1_conv_products_window_the_side_with_fewer_channels(op, ci, co,
                                                                   monkeypatch):
    # forward, weight gradient and input gradient each copy kh*kw shifted
    # windows of one array: at stride 1 the one with min(I, O) channels
    seen = []
    bands = T._bands

    def spy(x, *args):
        seen.append(x.shape[1])
        return bands(x, *args)

    monkeypatch.setattr(T, "_bands", spy)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, ci, 6, 5)), requires_grad=True)
    if op == "conv2d":
        w = Tensor(rng.normal(size=(co, ci, 3, 2)), requires_grad=True)
        out = T.conv2d(x, w, stride=1, padding=1)
    else:
        w = Tensor(rng.normal(size=(ci, co, 3, 2)), requires_grad=True)
        out = T.conv_transpose2d(x, w, stride=1, padding=1)
    T.reduce_sum(T.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
    assert seen == [min(ci, co)] * 3


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


@pytest.mark.parametrize("mode", ["zero", "reflect"])
def test_conv2d_graph_keeps_no_padded_copy(mode):
    # backward pads x again for the weight gradient, so after forward the
    # graph holds the 256 KB output but not x padded (279 KB)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 16, 64, 64)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        out = T.conv2d(x, w, padding=1, pad_mode=mode)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < out.data.nbytes + 2 ** 16, f"held {held / 2 ** 10:.0f} KB"
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g.astype(np.float32)))).backward()
    xp = np.pad(x.data.astype(np.float64), ((0, 0), (0, 0), (1, 1), (1, 1)),
                mode="constant" if mode == "zero" else "reflect")
    _, dw = conv2d_grads_loops(xp, w.data.astype(np.float64), g, 1)
    assert np.max(np.abs(w.grad - dw)) < 1e-3 * np.max(np.abs(dw))


def test_stride2_conv_backward_scatters_one_band_at_a_time(monkeypatch):
    # the input gradient's w^T @ g, 4.5 MB whole here, is formed and folded
    # onto the padded input gradient one 1 MB band at a time
    monkeypatch.setattr(T, "BLOCK_ELEMS", 2 ** 18)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 32, 128, 128)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 32, 3, 3)).astype(np.float32), requires_grad=True)
    out = T.conv2d(x, w, stride=2, padding=1)
    loss = T.reduce_sum(out)
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output gradient, the padded input gradient, x.grad, one band
    padded = 32 * 130 * 130 * 4
    bound = out.data.nbytes + padded + x.data.nbytes + 2 ** 20
    assert peak < bound, f"backward peak {peak / 2 ** 20:.1f} MB"
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32


def test_stride2_conv_transpose_forward_scatters_one_band_at_a_time(monkeypatch):
    # a 4 MB output from 16 MB of columns w^T @ x, one 1 MB band at a time
    monkeypatch.setattr(T, "BLOCK_ELEMS", 2 ** 18)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 32, 128, 128)).astype(np.float32))
    w = Tensor(rng.normal(size=(32, 16, 4, 4)).astype(np.float32))
    tracemalloc.start()
    try:
        out = T.conv_transpose2d(x, w, stride=2, padding=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 16, 256, 256)
    # the uncropped (258, 258) buffer, the cropped output, one band
    assert peak < 2 * out.data.nbytes + 2 ** 20, f"forward peak {peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("stride, co", [(1, 4), (1, 2), (2, 4)],
                         ids=["spans", "spans_gather", "windows"])
def test_multi_row_bands_match_loops(stride, co, monkeypatch):
    # bands of two or three output rows, the last one short: at stride 1
    # each tap's span carries wrap columns between its rows. The rows of a
    # band are pitched at the padded width (10) at stride 1, the output
    # width (4) at stride 2
    n, ci, h, k = 2, 3, 9, 3
    pitch = 10 if stride == 1 else 4
    monkeypatch.setattr(T, "BLOCK_ELEMS", n * ci * k * k * pitch * 2)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n, ci, h, h - 1))
    w = rng.normal(size=(co, ci, k, k))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = T.conv2d(xt, wt, None, stride=stride, padding=1)
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    assert np.max(np.abs(out.data - conv2d_loops(xp, w, None, stride, 0))) < 1e-12
    dxp, dw = conv2d_grads_loops(xp, w, g, stride)
    assert np.max(np.abs(xt.grad - dxp[:, :, 1:-1, 1:-1])) < 1e-12
    assert np.max(np.abs(wt.grad - dw)) < 1e-12


@pytest.mark.parametrize("co", [4, 2], ids=["scatter", "kn2row"])
def test_stride1_conv_of_a_non_contiguous_input_matches_loops(co):
    # a transposed view's plane is not one flat row, which the stride-1 spans
    # read it as: pad2d copies it into a fresh plane at padding 0 too
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 7, 6)).transpose(0, 1, 3, 2)
    assert not x.flags.c_contiguous
    w = rng.normal(size=(co, 3, 3, 3))
    b = rng.normal(size=co)
    xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
    out = T.conv2d(xt, wt, bt)
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    assert np.max(np.abs(out.data - conv2d_loops(x, w, b, 1, 0))) < 1e-12
    dx, dw = conv2d_grads_loops(x, w, g, 1)
    assert np.max(np.abs(xt.grad - dx)) < 1e-12
    assert np.max(np.abs(wt.grad - dw)) < 1e-12


@pytest.mark.parametrize("run", [1, 4, 6])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_flipped_kernel_forward_at_a_narrow_pitch_matches_loops(extra, run, monkeypatch):
    # stride 1 and O < I at padding 0, the input kw + extra wide: the forward
    # scatters onto a plane of the input's own width and one more row, where
    # a tap's span wraps into the kw-1 columns the crop drops, and the weight
    # gradient regathers g embedded in a plane of that shape, where a span
    # wraps into the next row's kw-1 leading zeros. Bands of `run` of the 6
    # rows: one-row bands, a short last band, and one band
    n, ci, co, h, kh, kw = 2, 5, 2, 6, 3, 4
    wd = kw + extra
    monkeypatch.setattr(T, "BLOCK_ELEMS", run * n * co * kh * kw * wd)
    planes = []
    bands = T._bands

    def spy(x, *args):
        planes.append(x.shape)
        return bands(x, *args)

    monkeypatch.setattr(T, "_bands", spy)
    rng = np.random.default_rng(extra * 10 + run)
    x = rng.normal(size=(n, ci, h, wd))
    w = rng.normal(size=(co, ci, kh, kw))
    b = rng.normal(size=co)
    xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
    out = T.conv2d(xt, wt, bt)
    assert planes == [(n, co, h + kh, wd)]
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    # forward, weight gradient, then the input gradient's gather
    assert planes == [(n, co, h + kh, wd)] * 2 + [(n, co, h + kh - 1, wd + kw - 1)]
    assert np.max(np.abs(out.data - conv2d_loops(x, w, b, 1, 0))) < 1e-12
    dx, dw = conv2d_grads_loops(x, w, g, 1)
    assert np.max(np.abs(xt.grad - dx)) < 1e-12
    assert np.max(np.abs(wt.grad - dw)) < 1e-12


@pytest.mark.parametrize("mode", ["zero", "reflect"])
def test_pad2d_at_padding_0_is_a_new_node_whose_gradient_reaches_its_input(mode):
    # every conv input is one fresh C-contiguous plane: a transposed view too
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3, 5, 4)).transpose(0, 1, 3, 2), requires_grad=True)
    out = T.pad2d(x, 0, mode)
    assert out is not x and out.requires_grad
    assert np.array_equal(out.data, x.data)
    assert out.data.flags.c_contiguous and not np.shares_memory(out.data, x.data)
    g = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    assert np.array_equal(x.grad, g)


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
    # stride 1 and O < I. The gather of the embedded g and the weight
    # gradient's regather of it shift the 2 output channels over 16 taps at
    # pitch Wp + kw - 1 = 12 (the 11x12 plane), 768 elements a row: bands of
    # `run` of 8 rows, so one-row bands, a short last band, and one band.
    # The forward scatters onto a 12x9 plane at the input's pitch 9, 576
    # elements a row: bands of 1, 4 and 21 rows
    rng = np.random.default_rng(run)
    x = rng.normal(size=(2, 5, 6, 7))
    w = rng.normal(size=(2, 5, 4, 4))
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    monkeypatch.setattr(T, "BLOCK_ELEMS", run * 2 * 2 * 16 * 12)
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


@pytest.mark.parametrize("padding", [0, 1])
def test_pad2d_and_conv2d_reject_an_unknown_mode_at_any_padding(padding):
    x = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ValueError, match="refelct"):
        T.pad2d(x, padding, "refelct")
    with pytest.raises(ValueError, match="bogus"):
        T.conv2d(x, Tensor(np.zeros((1, 1, 1, 1))), padding=padding, pad_mode="bogus")


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


def _instance_norm_float32_errors(x, g):
    """Max error of a float32 instance_norm's output, and relative error of
    its input gradient for the upstream g, against float64 on the same values."""
    runs = []
    for dt in (np.float32, np.float64):
        xt = Tensor(x.astype(dt), requires_grad=True)
        y = T.instance_norm(xt)
        T.reduce_sum(T.mul(y, Tensor(g.astype(dt)))).backward()
        runs.append((y.data, xt.grad))
    (y32, dx32), (y64, dx64) = runs
    return (float(np.max(np.abs(y32 - y64))),
            float(np.max(np.abs(dx32 - dx64)) / np.max(np.abs(dx64))))


def test_instance_norm_float32_keeps_pairwise_accuracy():
    # four 256x256 planes. With numpy's pairwise sums the output is within
    # 5e-6 and the gradient within 2.1e-4 of float64 here; sums that
    # accumulate in order (einsum reductions) land 8-20x further off
    rng = np.random.default_rng(0)
    x = rng.normal(100.0, 1.0, size=(1, 4, 256, 256)).astype(np.float32)
    y_err, _ = _instance_norm_float32_errors(x, rng.normal(size=x.shape))
    assert y_err < 2e-5
    # g nearly parallel to y: the input gradient is what is left of g once
    # its component along y cancels
    x = rng.normal(size=(1, 4, 256, 256)).astype(np.float32)
    y = T.instance_norm(Tensor(x.astype(np.float64))).data
    g = y + 1e-3 * rng.normal(size=x.shape)
    _, dx_err = _instance_norm_float32_errors(x, g)
    assert dx_err < 5e-4


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", [None, 2 ** 6], ids=["one_block", "row_blocks"])
def test_row_l2_normalize_gradient_is_the_formula_bitwise(dtype, block, monkeypatch):
    # (g - y * rowsum(g * y)) / |x| per row, and 0 on an all-zero row; the
    # backward forms it over its incoming gradient, row block by row block
    if block:
        monkeypatch.setattr(T, "BLOCK_ELEMS", block)  # 3 rows of 20 a block
    rng = np.random.default_rng(11)
    x = rng.normal(size=(37, 20)).astype(dtype)
    zero = [0, 5, 36]
    x[zero] = 0.0
    g = rng.normal(size=x.shape).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    y = T.row_l2_normalize(xt)
    T.reduce_sum(T.mul(y, Tensor(g))).backward()
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    want = g - y.data * (g * y.data).sum(axis=1, keepdims=True)
    want /= np.where(norms > 0, norms, 1.0)
    want[zero] = 0.0
    assert xt.grad.dtype == dtype
    assert np.array_equal(xt.grad, want)


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


@pytest.mark.parametrize("filled", [False, True], ids=["empty_slot", "filled_slot"])
@pytest.mark.parametrize("hand", ["_accum", "_adopt"])
def test_a_gradient_of_another_dtype_is_a_type_error(hand, filled):
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    if filled:
        x.grad = np.ones(2, dtype=np.float32)
    y = T._make(2 * x.data, (x,),
                lambda g, vx: getattr(T, hand)(vx, g.astype(np.float64)))
    with pytest.raises(TypeError, match="dtype float64 for a vertex of dtype float32"):
        T.reduce_sum(y).backward()
    if filled:  # the slot is left as it was
        assert np.array_equal(x.grad, np.ones(2))
    else:
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


@pytest.mark.parametrize("shapes, axis", [
    (((2, 2), (3, 2)), 1),
    (((2, 2), (2,)), 1),
    (((2, 2), (2, 2)), 2),
    (((2, 2), (2, 2)), -3),
], ids=["other_dim_differs", "rank_differs", "axis_past_rank", "axis_before_rank"])
def test_concat_shape_faults_are_shape_errors(shapes, axis):
    with pytest.raises(ShapeError, match="concat"):
        T.concat([Tensor(np.ones(s)) for s in shapes], axis=axis)


def _ones(*shape):
    return Tensor(np.ones(shape))


@pytest.mark.parametrize("call, fragment", [
    (lambda: T.transpose2d(_ones(2, 2, 2)), "transpose2d expects a matrix"),
    (lambda: T.matmul(_ones(2, 3), _ones(2, 3)), "inner dims"),
    (lambda: T.concat([]), "empty sequence"),
    (lambda: T.row_l2_normalize(_ones(4)), "row_l2_normalize expects a matrix"),
    (lambda: T.pad2d(_ones(1, 1, 3, 3), -1), "negative padding"),
    (lambda: T.pad2d(_ones(3, 3), 1), "pad2d expects NCHW"),
    (lambda: T.conv2d(_ones(2, 3, 3), _ones(1, 2, 1, 1)), "input must be NCHW"),
    (lambda: T.conv2d(_ones(1, 2, 3, 3), _ones(1, 2, 1)), "weight must be OIkk"),
    (lambda: T.conv_transpose2d(_ones(1, 2, 3, 3), _ones(2, 1, 1)),
     "weight must be IOkk"),
    (lambda: T.conv2d(_ones(1, 2, 3, 3), _ones(1, 2, 1, 1), stride=0),
     "stride must be positive"),
    (lambda: T.conv2d(_ones(1, 2, 3, 3), _ones(1, 2, 5, 5)), "larger than padded input"),
    (lambda: T.conv_transpose2d(_ones(1, 2, 1, 1), _ones(2, 3, 1, 1), padding=1),
     "non-positive output size"),
    (lambda: T.instance_norm(_ones(2, 3, 3)), "instance_norm expects NCHW"),
], ids=["transpose2d_rank", "matmul_inner", "concat_empty", "row_l2_normalize_rank",
        "pad2d_negative", "pad2d_rank", "conv_input_rank", "conv2d_weight_rank",
        "conv_transpose2d_weight_rank", "conv_stride", "conv2d_kernel_size",
        "conv_transpose2d_output_size", "instance_norm_rank"])
def test_input_checks_raise_shape_errors(call, fragment):
    with pytest.raises(ShapeError, match=fragment):
        call()


def test_integer_data_is_held_as_float32():
    t = Tensor(np.arange(3))
    assert t.dtype == np.float32 and np.array_equal(t.data, [0.0, 1.0, 2.0])
    assert Tensor(np.array([True, False])).dtype == np.float32
    assert Tensor(np.ones(2)).dtype == np.float64  # float data keep their dtype


@pytest.mark.parametrize("data", [
    np.array([None]),
    np.array(["1.5"]),
    np.array([1.0 + 2.0j], dtype=np.complex64),
    np.array(["2020-01-01"], dtype="datetime64[D]"),
], ids=["object", "string", "complex", "datetime64"])
def test_data_that_is_not_bool_integer_or_float_is_rejected(data):
    with pytest.raises(TypeError, match=re.escape(str(data.dtype))):
        Tensor(data)


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
    report = gradsuite.grad_check(lambda t: T.reduce_sum(T.mul(T.tanh(t), t)), x)
    assert report.passed
    assert report.worst < 1e-6


def test_grad_check_flags_corrupted_gradient():
    # forward equals 2x elementwise but backward only sees one branch
    x = Tensor(np.array([[0.5, 1.5]]), requires_grad=True)
    report = gradsuite.grad_check(lambda t: T.reduce_sum(T.add(t, t.detach())), x)
    assert not report.passed
    assert report.worst > 0.4


# ---------------------------------------------------------------------------
# structural properties


@given(st.integers(1, 4), st.integers(1, 4), st.integers(-2, 1))
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_blocked_abs_mean_matches_one_block(dtype, layout, monkeypatch):
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 3, 40, 33)).astype(dtype)
    b = rng.normal(size=a.shape).astype(dtype)
    b[..., :5] = a[..., :5]  # zero differences take a zero gradient
    if layout == "transposed":
        a, b = a.T, b.T

    def run():
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        loss = T.abs_mean(ta, tb)
        loss.backward()
        assert loss.dtype == ta.grad.dtype == tb.grad.dtype == dtype
        return float(loss.data), ta.grad, tb.grad

    whole = run()
    # one block is numpy's mean over the difference in C order
    assert whole[0] == float(np.abs(a - b).ravel().mean())
    monkeypatch.setattr(T, "BLOCK_ELEMS", 1000)  # 8 blocks, the last one short
    blocked = run()
    rtol = 1e-12 if dtype == np.float64 else 1e-6
    assert abs(blocked[0] - whole[0]) <= rtol * whole[0]
    assert np.array_equal(blocked[1], whole[1]) and np.array_equal(blocked[2], whole[2])
    assert np.array_equal(whole[1], np.sign(a - b) / a.size)


@pytest.mark.parametrize("pair", ["image_view", "transposed"])
@pytest.mark.parametrize("block", [None, 1000])  # one block, then 6 of 1000
def test_abs_mean_does_not_depend_on_operand_layout(pair, block, monkeypatch):
    # at seed 3 the two transposed views' own memory order sums to other bits
    rng = np.random.default_rng(3)
    if pair == "image_view":
        a = rng.normal(size=(1, 3, 48, 40)).astype(np.float32)
        b = image_to_tensor(rng.integers(0, 256, size=(48, 40, 3), dtype=np.uint8))
    else:
        a = rng.normal(size=(40, 48, 3)).astype(np.float32).T
        b = rng.normal(size=(40, 48, 3)).astype(np.float32).T
    assert not b.flags.c_contiguous
    if block is not None:
        monkeypatch.setattr(T, "BLOCK_ELEMS", block)

    def run(x, y):
        tx, ty = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
        loss = T.abs_mean(tx, ty)
        loss.backward()
        return loss.data.tobytes(), tx.grad.tobytes(), ty.grad.tobytes()

    assert run(a, b) == run(np.ascontiguousarray(a), np.ascontiguousarray(b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grads", ["both", "a", "b"])
def test_abs_mean_passes_nan_and_inf_differences_on(dtype, grads, monkeypatch):
    # a NaN difference gives a NaN loss and a NaN gradient entry (np.sign's);
    # an infinite one gives an infinite loss and the gradient +-1/n
    def run(a, b):
        ta = Tensor(np.array(a, dtype=dtype), requires_grad=grads in ("both", "a"))
        tb = Tensor(np.array(b, dtype=dtype), requires_grad=grads in ("both", "b"))
        loss = T.abs_mean(ta, tb)
        loss.backward()
        assert loss.dtype == dtype
        for t in (ta, tb):
            assert (t.grad is not None) == t.requires_grad
            assert t.grad is None or t.grad.dtype == dtype
        return float(loss.data), ta.grad, tb.grad

    n = dtype(1) / dtype(5)
    for block in (T.BLOCK_ELEMS, 2):  # one block, then blocks of 2 elements
        monkeypatch.setattr(T, "BLOCK_ELEMS", block)
        loss, ga, gb = run([1.0, np.inf, -np.inf, 2.0, 0.0], [0.0, 1.0, 1.0, 2.0, 3.0])
        assert loss == np.inf
        expected = np.array([n, n, -n, 0.0, -n], dtype=dtype)
        for got, sign in ((ga, 1), (gb, -1)):
            if got is not None:
                assert np.array_equal(got, sign * expected)

        loss, ga, gb = run([1.0, np.nan, np.inf, 2.0, 0.0], [0.0, 1.0, 1.0, 2.0, 3.0])
        assert np.isnan(loss)
        for got, sign in ((ga, 1), (gb, -1)):
            if got is not None:
                assert np.isnan(got[1]) and not np.isnan(np.delete(got, 1)).any()
                assert np.array_equal(np.delete(got, 1),
                                      sign * np.array([n, n, 0.0, -n], dtype=dtype))
