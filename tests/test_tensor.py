import re
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visarch import tensor as T
from visarch.tensor import (
    GraphError,
    NonFiniteError,
    ParamStore,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
)


def conv_ref(x, w, b=None, stride=1, padding=0, groups=1):
    """Independent direct-loop convolution used as the oracle."""
    N, Cin, H, W = x.shape
    Cout, Cpg, kh, kw = w.shape
    p, s = padding, stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1
    out = np.zeros((N, Cout, Ho, Wo), dtype=x.dtype)
    opg = Cout // groups
    for n in range(N):
        for co in range(Cout):
            g = co // opg
            for oy in range(Ho):
                for ox in range(Wo):
                    patch = xp[n, g * Cpg:(g + 1) * Cpg, oy * s:oy * s + kh, ox * s:ox * s + kw]
                    out[n, co, oy, ox] = (patch * w[co]).sum()
    if b is not None:
        out += b.reshape(1, Cout, 1, 1)
    return out


def numeric_grads(loss_fn, store, samples=4, h=1e-3, seed=0):
    """Analytic vs central finite-difference grads on sampled indices per param."""
    store.zero_grads()
    backward(loss_fn())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for path, t in store.items():
        idx = rng.choice(t.data.size, size=min(samples, t.data.size), replace=False)
        for i in idx:
            num = finite_diff_grad(loss_fn, store, path, int(i), h=h)
            ana = t.grad.reshape(-1)[int(i)]
            rel = abs(ana - num) / max(abs(ana), abs(num), 1e-3)
            worst = max(worst, rel)
    return worst


def param(store, path, arr):
    return store.add(path, Tensor(np.asarray(arr, dtype=np.float64)))


def conv_grads_ref(x, w, dout, stride, padding, groups):
    """dX and dW of sum(conv2d(x, w) * dout) by a direct loop over every output."""
    H, W = x.shape[2:]
    Cout, Cpg, kh, kw = w.shape
    s, p, opg = stride, padding, Cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for n, o, oy, ox in np.ndindex(dout.shape):
        d = dout[n, o, oy, ox]
        ch = slice(o // opg * Cpg, (o // opg + 1) * Cpg)
        rows, cols = slice(s * oy, s * oy + kh), slice(s * ox, s * ox + kw)
        dxp[n, ch, rows, cols] += d * w[o]
        dw[o] += d * xp[n, ch, rows, cols]
    return dxp[:, :, p:p + H, p:p + W], dw


def conv_and_grads(x, w, b, dout, **kw):
    """float64 conv2d output and the x, w and b gradients of sum(out * dout)."""
    store = ParamStore()
    for path, arr in (("x", x), ("w", w), ("b", b)):
        param(store, path, arr)
    out = T.conv2d(store["x"], store["w"], store["b"], **kw)
    backward(T.sum_all(T.mul(out, Tensor(dout))))
    return out.data, store["x"].grad, store["w"].grad, store["b"].grad


def tile_images(monkeypatch, x, w, stride, padding, images):
    """Budget conv2d's im2col at `images` images of x per batch tile."""
    H, W = x.shape[2:]
    Cin, kh, kw = x.shape[1], w.shape[2], w.shape[3]
    per_image = (Cin * kh * kw * T.out_size(H, kh, stride, padding)
                 * T.out_size(W, kw, stride, padding) * x.itemsize)
    monkeypatch.setattr(T, "_TILE_BYTES", images * per_image)


class TestConv:
    def test_identity_kernel_keeps_interior(self, rng):
        x = rng.normal(size=(1, 1, 6, 6)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out[0, 0], x[0, 0, 1:-1, 1:-1])

    def test_matches_direct_loops(self, rng):
        for groups in (1, 2, 4):
            x = rng.normal(size=(2, 4, 7, 6))
            w = rng.normal(size=(8, 4 // groups, 3, 3))
            b = rng.normal(size=8)
            got = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                           Tensor(b, dtype=np.float64), stride=2, padding=1, groups=groups).data
            np.testing.assert_allclose(got, conv_ref(x, w, b, 2, 1, groups), atol=1e-10)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_kxk_matches_direct_loops(self, rng, batch, stride, padding, groups):
        # non-square input; batch 1 is the path whose GEMM output needs no transpose
        x = rng.normal(size=(batch, 4, 7, 6))
        w = rng.normal(size=(6, 4 // groups, 3, 3))
        b = rng.normal(size=6)
        store = ParamStore()
        param(store, "x", x)
        param(store, "w", w)
        param(store, "b", b)
        out = T.conv2d(store["x"], store["w"], store["b"], stride=stride, padding=padding,
                       groups=groups)
        np.testing.assert_allclose(out.data, conv_ref(x, w, b, stride, padding, groups), atol=1e-12)

        dout = rng.normal(size=out.shape)
        backward(T.sum_all(T.mul(out, Tensor(dout))))
        s, p, cpg, opg = stride, padding, 4 // groups, 6 // groups
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        dxp, dw = np.zeros_like(xp), np.zeros_like(w)
        for n, o, oy, ox in np.ndindex(dout.shape):
            d = dout[n, o, oy, ox]
            ch = slice(o // opg * cpg, (o // opg + 1) * cpg)
            rows, cols = slice(s * oy, s * oy + 3), slice(s * ox, s * ox + 3)
            dxp[n, ch, rows, cols] += d * w[o]
            dw[o] += d * xp[n, ch, rows, cols]
        np.testing.assert_allclose(store["x"].grad, dxp[:, :, p:p + 7, p:p + 6], atol=1e-12)
        np.testing.assert_allclose(store["w"].grad, dw, atol=1e-12)
        np.testing.assert_allclose(store["b"].grad, dout.sum(axis=(0, 2, 3)), atol=1e-12)

    # every 3x3 stride/padding/groups case, then patch embeds: kernel == stride,
    # so their windows do not overlap
    @pytest.mark.parametrize("k,stride,padding,groups", [
        (3, s, p, g) for s in (1, 2) for p in (0, 1) for g in (1, 2)] + [
        (2, 2, 0, 1), (2, 2, 0, 2), (3, 3, 0, 1)])
    def test_batch_tiles_match_direct_loops(self, rng, monkeypatch, k, stride, padding, groups):
        # tiles of 2 images split the batch of 5 as 2 + 2 + 1
        x = rng.normal(size=(5, 4, 7, 6))
        w = rng.normal(size=(6, 4 // groups, k, k))
        b = rng.normal(size=6)
        tile_images(monkeypatch, x, w, stride, padding, 2)
        dout = rng.normal(size=(5, 6, T.out_size(7, k, stride, padding),
                                T.out_size(6, k, stride, padding)))
        out, dx, dw, db = conv_and_grads(x, w, b, dout, stride=stride, padding=padding,
                                         groups=groups)
        np.testing.assert_allclose(out, conv_ref(x, w, b, stride, padding, groups), atol=1e-12)
        want_dx, want_dw = conv_grads_ref(x, w, dout, stride, padding, groups)
        np.testing.assert_allclose(dx, want_dx, atol=1e-12)
        np.testing.assert_allclose(dw, want_dw, atol=1e-12)
        np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)), atol=1e-12)

    @pytest.mark.parametrize("stride,padding,groups", [(1, 1, 4), (2, 1, 1), (2, 0, 2)])
    def test_tile_size_does_not_change_results(self, rng, monkeypatch, stride, padding, groups):
        x = rng.normal(size=(5, 8, 9, 9))
        w = rng.normal(size=(8, 8 // groups, 3, 3))
        b = rng.normal(size=8)
        dout = rng.normal(size=(5, 8, T.out_size(9, 3, stride, padding),
                                T.out_size(9, 3, stride, padding)))
        runs = []
        for images in (1, 2, 5):
            tile_images(monkeypatch, x, w, stride, padding, images)
            runs.append(conv_and_grads(x, w, b, dout, stride=stride, padding=padding,
                                       groups=groups))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_second_backward_through_one_conv_raises(self, rng):
        # the first backward frees the graph, each tile's im2col with it
        store = ParamStore()
        x = param(store, "x", rng.normal(size=(2, 2, 5, 5)))
        loss = T.sum_all(T.conv2d(x, param(store, "w", rng.normal(size=(2, 2, 3, 3)))))
        backward(loss)
        with pytest.raises(GraphError, match="already ran"):
            backward(loss)

    def test_grouped_equals_split_convs(self, rng):
        x = rng.normal(size=(2, 6, 5, 5)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        full = T.conv2d(Tensor(x), Tensor(w), padding=1, groups=2).data
        lo = T.conv2d(Tensor(x[:, :3]), Tensor(w[:2]), padding=1).data
        hi = T.conv2d(Tensor(x[:, 3:]), Tensor(w[2:]), padding=1).data
        np.testing.assert_allclose(full, np.concatenate([lo, hi], axis=1), rtol=1e-6)

    def test_stride2_stem_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 224, 224)).astype(np.float32))
        w = Tensor(rng.normal(size=(16, 3, 7, 7)).astype(np.float32) * 0.01)
        assert T.conv2d(x, w, stride=2, padding=3).data.shape == (1, 16, 112, 112)

    def test_group_divisibility_error(self, rng):
        x = Tensor(rng.normal(size=(1, 6, 4, 4)))
        w = Tensor(rng.normal(size=(4, 2, 1, 1)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w, groups=4)

    def test_kernel_larger_than_input_error(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))

    # 1x1 runs the channel GEMM, 3x3 and grouped 1x1 the im2col GEMM
    @pytest.mark.parametrize("kernel,groups", [(1, 1), (3, 1), (1, 2)], ids=["1x1", "3x3", "grouped"])
    @pytest.mark.parametrize("bias_shape", [(3,), (5,), (4, 1), ()], ids=["3", "5", "4x1", "scalar"])
    def test_bias_must_be_one_per_output_channel(self, kernel, groups, bias_shape):
        x = Tensor(np.ones((1, 4, 3, 3)))
        w = Tensor(np.ones((4, 4 // groups, kernel, kernel)))
        assert T.conv2d(x, w, Tensor(np.ones(4)), groups=groups).shape[1] == 4
        with pytest.raises(ShapeError, match="bias must be"):
            T.conv2d(x, w, Tensor(np.ones(bias_shape)), groups=groups)


class TestChannelGemm:
    """conv2d runs 1x1, unpadded, ungrouped kernels as one channel GEMM."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "transposed"])
    def test_matches_direct_loops(self, rng, stride, bias, contiguous):
        x = rng.normal(size=(2, 5, 7, 6))
        if not contiguous:
            x = rng.normal(size=(2, 5, 6, 7)).transpose(0, 1, 3, 2)
        w = rng.normal(size=(4, 5, 1, 1))
        b = rng.normal(size=4) if bias else None
        store = ParamStore()
        param(store, "x", x)
        param(store, "w", w)
        if bias:
            param(store, "b", b)
        assert store["x"].data.flags.c_contiguous == contiguous
        out = T.conv2d(store["x"], store["w"], store["b"] if bias else None, stride=stride)
        np.testing.assert_allclose(out.data, conv_ref(x, w, b, stride), atol=1e-12)

        dout = rng.normal(size=out.shape)
        backward(T.sum_all(T.mul(out, Tensor(dout))))
        dx, dw = np.zeros_like(x), np.zeros_like(w)
        for n, o, oy, ox in np.ndindex(dout.shape):
            d = dout[n, o, oy, ox]
            dx[n, :, stride * oy, stride * ox] += d * w[o, :, 0, 0]
            dw[o, :, 0, 0] += d * x[n, :, stride * oy, stride * ox]
        np.testing.assert_allclose(store["x"].grad, dx, atol=1e-12)
        np.testing.assert_allclose(store["w"].grad, dw, atol=1e-12)
        if bias:
            np.testing.assert_allclose(store["b"].grad, dout.sum(axis=(0, 2, 3)), atol=1e-12)


class TestWindowRule:
    @pytest.mark.parametrize("size,k,s,p,out", [
        (224, 7, 2, 3, 112), (112, 3, 2, 1, 56), (5, 3, 2, 1, 3), (3, 3, 2, 1, 2),
        (3, 1, 2, 0, 2), (32, 4, 4, 0, 8), (3, 3, 1, 0, 1)])
    def test_out_size(self, size, k, s, p, out):
        assert T.out_size(size, k, s, p) == out

    def test_out_size_rejects_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError, match="kernel 5 larger than padded input 4"):
            T.out_size(2, 5, 1, 1)

    @pytest.mark.parametrize("size,k,s,p,message", [
        (5, 3, 0, 0, "stride must be >= 1, got 0"), (5, 3, -1, 1, "stride must be >= 1, got -1"),
        (5, 3, 1, -1, "padding must be >= 0, got -1")])
    def test_out_size_rejects_bad_stride_and_padding(self, size, k, s, p, message):
        with pytest.raises(ShapeError, match=message):
            T.out_size(size, k, s, p)

    # before the rule: a bare ZeroDivisionError (stride 0, groups 0), a bare
    # numpy ValueError (padding -1), a (1, 2, 1, 1) map (3x3, stride -1),
    # stride 1 (1x1, stride 0 or -1), "weight expects 4.0 input channels"
    # (groups 2.0), the padding named for kernel 0, and a silent truncation to
    # int (stride 1.5 or True, padding 1.7, pool kernel 2.9)
    @pytest.mark.parametrize("op,kw,message", [
        ("conv3x3", {"stride": 0}, "stride must be >= 1, got 0"),
        ("pool", {"stride": 0}, "stride must be >= 1, got 0"),
        ("conv3x3", {"padding": -1}, "padding must be >= 0, got -1"),
        ("pool", {"padding": -1}, "padding must be >= 0, got -1"),
        ("conv3x3", {"stride": -1}, "stride must be >= 1, got -1"),
        ("conv1x1", {"stride": 0}, "stride must be >= 1, got 0"),
        ("conv1x1", {"stride": -1}, "stride must be >= 1, got -1"),
        ("conv3x3", {"groups": 0}, "groups must be >= 1, got 0"),
        ("conv3x3", {"stride": 1.5}, "stride must be an integer, got 1.5"),
        ("conv3x3", {"padding": 1.7}, "padding must be an integer, got 1.7"),
        ("conv1x1", {"groups": 2.0}, "groups must be an integer, got 2.0"),
        ("conv1x1", {"stride": True}, "stride must be an integer, got True"),
        ("pool", {"kernel": 2.9}, "kernel must be an integer, got 2.9"),
        ("pool", {"kernel": 0}, "kernel must be >= 1, got 0"),
    ], ids=["conv-stride-0", "pool-stride-0", "conv-padding--1", "pool-padding--1",
            "conv3x3-stride--1", "conv1x1-stride-0", "conv1x1-stride--1", "conv-groups-0",
            "conv-stride-1.5", "conv-padding-1.7", "conv-groups-2.0", "conv-stride-True",
            "pool-kernel-2.9", "pool-kernel-0"])
    def test_ops_reject_bad_stride_and_padding(self, rng, op, kw, message):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        with pytest.raises(ShapeError, match=message):
            if op == "pool":
                T.max_pool2d(x, **{"kernel": 3, **kw})
            else:
                k = 3 if op == "conv3x3" else 1
                T.conv2d(x, Tensor(rng.normal(size=(2, 2, k, k))), **kw)

    @pytest.mark.parametrize("k,s,p", [(1, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 1),
                                       (3, 2, 1), (3, 3, 0), (4, 3, 2)])
    def test_ops_produce_the_predicted_size(self, rng, k, s, p):
        for size in range(max(k - 2 * p, 1), 9):
            x = Tensor(rng.normal(size=(1, 2, size, size)))
            want = T.out_size(size, k, s, p)
            conv = T.conv2d(x, Tensor(rng.normal(size=(2, 2, k, k))), stride=s, padding=p)
            assert conv.shape == (1, 2, want, want)
            if p < k:
                pool = T.max_pool2d(x, kernel=k, stride=s, padding=p)
                assert pool.shape == (1, 2, want, want)

    def test_max_pool_rejects_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError, match="larger than padded input"):
            T.max_pool2d(Tensor(np.ones((1, 1, 2, 2))), kernel=5, stride=1, padding=1)

    def test_conv_output_is_c_contiguous(self, rng):
        x = Tensor(rng.normal(size=(2, 8, 5, 5)))
        out = T.conv2d(x, Tensor(rng.normal(size=(4, 2, 3, 3))), stride=2, padding=1, groups=4)
        assert out.data.flags.c_contiguous

    def test_grouped_conv_backward_matches_split_convs(self, rng):
        def grads(x, w, dout, groups):
            store = ParamStore()
            param(store, "x", x)
            param(store, "w", w)
            out = T.conv2d(store["x"], store["w"], stride=2, padding=1, groups=groups)
            backward(T.sum_all(T.mul(out, Tensor(dout))))
            return store["x"].grad, store["w"].grad

        x = rng.normal(size=(2, 6, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        dout = rng.normal(size=(2, 4, 4, 4))
        dx, dw = grads(x, w, dout, groups=2)
        for g in range(2):
            dxg, dwg = grads(x[:, 3 * g:3 * g + 3], w[2 * g:2 * g + 2], dout[:, 2 * g:2 * g + 2], 1)
            np.testing.assert_allclose(dx[:, 3 * g:3 * g + 3], dxg, atol=1e-12)
            np.testing.assert_allclose(dw[2 * g:2 * g + 2], dwg, atol=1e-12)

    def test_max_pool_backward_routes_to_each_window_max(self, rng):
        # reference: every output's gradient lands on its window's first maximum
        x = rng.normal(size=(2, 3, 7, 7))
        dout = rng.normal(size=(2, 3, 4, 4))
        store = ParamStore()
        param(store, "x", x)
        backward(T.sum_all(T.mul(T.max_pool2d(store["x"], kernel=3, stride=2, padding=1),
                                 Tensor(dout))))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
        want = np.zeros_like(xp)
        for n, c, oy, ox in np.ndindex(dout.shape):
            win = xp[n, c, 2 * oy:2 * oy + 3, 2 * ox:2 * ox + 3]
            i, j = np.unravel_index(win.argmax(), win.shape)
            want[n, c, 2 * oy + i, 2 * ox + j] += dout[n, c, oy, ox]
        np.testing.assert_allclose(store["x"].grad, want[:, :, 1:-1, 1:-1], atol=1e-12)


class TestLinear:
    def test_matches_one_by_one_conv(self, rng):
        x = rng.normal(size=(3, 5)).astype(np.float32)
        w = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        lin = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        conv = T.conv2d(Tensor(x.reshape(3, 5, 1, 1)), Tensor(w.reshape(4, 5, 1, 1)), Tensor(b)).data
        np.testing.assert_allclose(lin, conv[:, :, 0, 0], atol=1e-6)

    @pytest.mark.parametrize("x_shape,w_shape", [((2, 7, 5), (4, 5)), ((2, 5), (4, 5, 1, 1))],
                             ids=["rank3-tokens", "conv-kernel"])
    def test_rank_2_only(self, x_shape, w_shape):
        # every dense layer but the head is a 1x1 conv2d on the NCHW map
        with pytest.raises(ShapeError, match="rank-2 input and weight"):
            T.linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)))

    def test_feature_mismatch_error(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    @pytest.mark.parametrize("bias_shape", [(2, 4), (3,), (1, 4), ()],
                             ids=["per-row", "short", "1x4", "scalar"])
    def test_bias_must_be_one_per_output(self, bias_shape):
        # a (2, 4) bias used to be added row by row to the (2, 4) output
        with pytest.raises(ShapeError, match="bias must be"):
            T.linear(Tensor(np.ones((2, 5))), Tensor(np.ones((4, 5))), Tensor(np.ones(bias_shape)))


class TestNorms:
    def test_batch_norm_training_stats(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 5, 5))
        gamma = Tensor(np.ones(3), dtype=np.float64)
        beta = Tensor(np.zeros(3), dtype=np.float64)
        rm, rv = np.zeros(3), np.ones(3)
        out = T.batch_norm(Tensor(x, dtype=np.float64), gamma, beta, rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-4)
        # running buffers moved toward the batch stats
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-12)

    def test_batch_norm_eval_uses_buffers(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        gamma = Tensor(np.ones(3), dtype=np.float64)
        beta = Tensor(np.zeros(3), dtype=np.float64)
        rm, rv = np.zeros(3), np.ones(3)
        out = T.batch_norm(Tensor(x, dtype=np.float64), gamma, beta, rm, rv,
                           training=False).data
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + 1e-5), rtol=0, atol=1e-12)

    def test_batch_norm_eval_matches_closed_form(self, rng):
        x = rng.normal(loc=2.0, scale=3.0, size=(3, 4, 5, 2))
        g, b = rng.normal(size=4), rng.normal(size=4)
        rm, rv = rng.normal(size=4), 0.5 + rng.random(4)
        out = T.batch_norm(Tensor(x, dtype=np.float64), Tensor(g, dtype=np.float64),
                           Tensor(b, dtype=np.float64), rm, rv, training=False).data
        c = (1, 4, 1, 1)
        want = g.reshape(c) * (x - rm.reshape(c)) / np.sqrt(rv.reshape(c) + 1e-5) + b.reshape(c)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    def test_batch_norm_single_element_error(self):
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        with pytest.raises(ShapeError):
            T.batch_norm(Tensor(np.ones((1, 2, 1, 1))), g, b, np.zeros(2), np.ones(2), training=True)

    @pytest.mark.parametrize("training,mean,var,message", [
        (False, np.zeros(4), np.ones(3), "running_mean must be an array of shape (3,), got (4,)"),
        (True, np.zeros(3), np.ones(4), "running_var must be an array of shape (3,), got (4,)"),
        (False, [0.0, 0.0, 0.0], np.ones(3),
         "running_mean must be an array of shape (3,), got list"),
        (False, np.zeros(3), np.ones((3, 1)),
         "running_var must be an array of shape (3,), got (3, 1)"),
    ], ids=["long-mean-eval", "long-var-train", "list-mean", "column-var-eval"])
    def test_batch_norm_rejects_bad_running_buffers(self, training, mean, var, message):
        # numpy's reshape or broadcast error, a bare AttributeError, or, for the
        # column, a silent run in eval
        g, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with pytest.raises(ShapeError, match=re.escape("batch_norm " + message)):
            T.batch_norm(Tensor(np.ones((2, 3, 2, 2))), g, b, mean, var, training=training)

    def test_batch_norm_eval_backward_is_fixed_affine(self, rng):
        # eval-mode statistics are constants: dx = gamma / sqrt(var + eps) * dout
        store = ParamStore()
        param(store, "x", rng.normal(size=(2, 3, 2, 2)))
        param(store, "g", rng.normal(size=3))
        param(store, "b", rng.normal(size=3))
        rm, rv = rng.normal(size=3), 1 + rng.random(3)
        dout = rng.normal(size=(2, 3, 2, 2))
        out = T.batch_norm(store["x"], store["g"], store["b"], rm, rv, training=False)
        backward(T.sum_all(T.mul(out, Tensor(dout))))
        scale = (store["g"].data / np.sqrt(rv + 1e-5)).reshape(1, 3, 1, 1)
        np.testing.assert_allclose(store["x"].grad, dout * scale, atol=1e-12)
        xhat = (store["x"].data - rm.reshape(1, 3, 1, 1)) / np.sqrt(rv + 1e-5).reshape(1, 3, 1, 1)
        np.testing.assert_allclose(store["g"].grad, (dout * xhat).sum(axis=(0, 2, 3)), atol=1e-12)

    def test_layer_norm_normalizes_channels(self, rng):
        x = rng.normal(size=(2, 8, 3, 3))
        out = T.layer_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(8), dtype=np.float64),
                           Tensor(np.zeros(8), dtype=np.float64)).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)

    @given(shift=st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_layer_norm_shift_invariance(self, shift):
        x = np.random.default_rng(3).normal(size=(2, 6, 2, 2))
        g = Tensor(np.ones(6), dtype=np.float64)
        b = Tensor(np.zeros(6), dtype=np.float64)
        a = T.layer_norm(Tensor(x, dtype=np.float64), g, b).data
        c = T.layer_norm(Tensor(x + shift, dtype=np.float64), g, b).data
        np.testing.assert_allclose(a, c, atol=1e-6)


def norm_ref(x, g, b, w, axes, eps=1e-5):
    """Direct float64 normalise-and-affine over axes, and the gradients of
    sum(w * y) for x, gamma and beta by the textbook closed form."""
    c = (1, -1, 1, 1)
    mean = x.mean(axis=axes, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
    xhat = (x - mean) / np.sqrt(var + eps)
    dxhat = w * g.reshape(c)
    dx = (dxhat - dxhat.mean(axis=axes, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True)) / np.sqrt(var + eps)
    return xhat * g.reshape(c) + b.reshape(c), dx, (w * xhat).sum(axis=(0, 2, 3)), w.sum(axis=(0, 2, 3))


# N*H*W = 2, 1x1 maps, (N, C, T, 1) token maps, H != W
NORM_SHAPES = [(2, 3, 1, 1), (1, 3, 2, 1), (1, 2, 1, 2), (4, 3, 1, 1), (2, 5, 7, 1), (3, 4, 2, 5)]


class TestNormKernel:
    """Train-mode batch_norm and layer_norm in float64 against norm_ref."""

    def run(self, rng, op, shape):
        x = rng.normal(loc=1.5, scale=2.0, size=shape)
        g, b = rng.normal(size=shape[1]), rng.normal(size=shape[1])
        w = rng.normal(size=shape)
        store = ParamStore()
        for path, arr in (("x", x), ("g", g), ("b", b)):
            param(store, path, arr)
        out = op(store["x"], store["g"], store["b"])
        backward(T.sum_all(T.mul(out, Tensor(w))))
        return (x, g, b, w), (out.data, store["x"].grad, store["g"].grad, store["b"].grad)

    @pytest.mark.parametrize("shape", NORM_SHAPES, ids=str)
    def test_batch_norm(self, rng, shape):
        C = shape[1]
        rm, rv = rng.normal(size=C), 0.5 + rng.random(C)
        rm0, rv0 = rm.copy(), rv.copy()
        (x, g, b, w), got = self.run(
            rng, lambda x, g, b: T.batch_norm(x, g, b, rm, rv, training=True), shape)
        for have, want in zip(got, norm_ref(x, g, b, w, (0, 2, 3))):
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)
        # the running variance is the unbiased one
        np.testing.assert_allclose(rm, 0.9 * rm0 + 0.1 * x.mean(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rv, 0.9 * rv0 + 0.1 * x.var(axis=(0, 2, 3), ddof=1),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", NORM_SHAPES + [(2, 1, 3, 4)], ids=str)
    def test_layer_norm(self, rng, shape):
        (x, g, b, w), got = self.run(rng, T.layer_norm, shape)
        for have, want in zip(got, norm_ref(x, g, b, w, 1)):
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)

    def test_channel_sums_of_non_contiguous_maps(self, rng):
        a = rng.normal(size=(5, 4, 3, 6)).transpose(2, 1, 0, 3)
        b = rng.normal(size=(3, 8, 5, 6))[:, ::2]
        assert not (a.flags.c_contiguous or b.flags.c_contiguous)
        for got, want in ((T._csum(a), a.sum(axis=(0, 2, 3))),
                          (T._csum(a, b), (a * b).sum(axis=(0, 2, 3))),
                          (T._csum(a, keep="nhw"), a.sum(axis=1)),
                          (T._csum(a, b, keep="nhw"), (a * b).sum(axis=1))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestPointwise:
    def test_softmax_uniform_and_two_logit(self):
        out = T.softmax(Tensor(np.zeros((1, 5)))).data
        np.testing.assert_allclose(out, 0.2, atol=1e-7)
        two = T.softmax(Tensor(np.array([[0.0, np.log(3.0)]]), dtype=np.float64)).data
        np.testing.assert_allclose(two, [[0.25, 0.75]], atol=1e-12)

    @given(shift=st.floats(-80, 80))
    @settings(max_examples=25, deadline=None)
    def test_softmax_shift_invariance(self, shift):
        x = np.random.default_rng(5).normal(size=(3, 7))
        a = T.softmax(Tensor(x, dtype=np.float64)).data
        c = T.softmax(Tensor(x + shift, dtype=np.float64)).data
        np.testing.assert_allclose(a, c, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_rejects_nan(self):
        x = Tensor(np.array([[0.0, np.nan]]))
        with pytest.raises(NonFiniteError):
            T.softmax(x)

    @pytest.mark.parametrize("row", [[np.inf, 0.0], [-np.inf, -np.inf]], ids=["inf", "all-minus-inf"])
    def test_softmax_rejects_rows_without_a_finite_maximum(self, row):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="softmax"):
            T.softmax(Tensor(np.array([row])))

    def test_softmax_row_with_minus_inf(self):
        # a masked entry gets probability 0 and no gradient
        store = ParamStore()
        param(store, "x", np.array([[0.0, -np.inf, np.log(3.0)]]))
        out = T.softmax(store["x"])
        np.testing.assert_allclose(out.data, [[0.25, 0.0, 0.75]], rtol=0, atol=1e-15)
        backward(T.sum_all(T.mul(out, Tensor(np.array([[1.0, 5.0, -1.0]])))))
        np.testing.assert_allclose(store["x"].grad, [[0.375, 0.0, -0.375]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmax_backward_matches_closed_form(self, rng, axis):
        # d sum(w * y) / dx = y * (w - sum(w * y)) along the axis
        x, w = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 4, 5))
        store = ParamStore()
        param(store, "x", x)
        out = T.softmax(store["x"], axis=axis)
        backward(T.sum_all(T.mul(out, Tensor(w))))
        y = np.exp(x) / np.exp(x).sum(axis=axis, keepdims=True)
        np.testing.assert_allclose(out.data, y, rtol=0, atol=1e-15)
        want = y * (w - (w * y).sum(axis=axis, keepdims=True))
        np.testing.assert_allclose(store["x"].grad, want, rtol=0, atol=1e-15)

    def test_relu_gelu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(T.relu(x).data, [0.0, 0.0, 2.0])
        g = T.gelu(Tensor(np.array([0.0, 1.0]), dtype=np.float64)).data
        assert g[0] == 0.0
        assert abs(g[1] - 0.8412) < 5e-4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_relu_rejects_non_finite_input_naming_scope(self, bad):
        x = Tensor(np.array([1.0, bad, -1.0]))
        with T.layer_scope("s0"), T.layer_scope("b1"):
            with pytest.raises(NonFiniteError, match="relu .*'s0.b1'"):
                T.relu(x)

    def test_gelu_matches_tanh_closed_form(self):
        x = np.linspace(-6.0, 6.0, 241)
        c = np.sqrt(2.0 / np.pi)
        u = c * (x + 0.044715 * np.power(x, 3))
        want = 0.5 * x * (1.0 + np.tanh(u))
        # d/dx: 0.5 (1 + tanh u) + 0.5 x sech^2(u) u'
        dwant = 0.5 * (1.0 + np.tanh(u)) + 0.5 * x * c * (1.0 + 3 * 0.044715 * x ** 2) / np.cosh(u) ** 2
        w = np.random.default_rng(1).normal(size=x.shape)
        store = ParamStore()
        param(store, "x", x)
        out = T.gelu(store["x"])
        backward(T.sum_all(T.mul(out, Tensor(w))))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(store["x"].grad, dwant * w, rtol=0, atol=1e-12)

    def test_overflow_raises_named_scope(self):
        x = Tensor(np.array([1e30], dtype=np.float32))
        with np.errstate(over="ignore"):
            with T.layer_scope("stage1"), T.layer_scope("block0"):
                with pytest.raises(NonFiniteError, match="stage1.block0"):
                    T.mul(x, x)


class TestPooling:
    def test_gap_constant_and_average(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = 3.0
        x[0, 1] = [[1.0, 2.0], [3.0, 4.0]]
        np.testing.assert_allclose(T.global_avg_pool(Tensor(x)).data, [[3.0, 2.5]])

    def test_gap_permutation_invariance(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        perm = rng.permutation(16)
        xp = x.reshape(2, 3, 16)[:, :, perm].reshape(2, 3, 4, 4)
        a = T.global_avg_pool(Tensor(x, dtype=np.float64)).data
        b = T.global_avg_pool(Tensor(xp, dtype=np.float64)).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_max_pool_hand_case(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = T.max_pool2d(Tensor(x), kernel=2, stride=2, padding=0).data
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_resnet_stem_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 112, 112)).astype(np.float32))
        assert T.max_pool2d(x, kernel=3, stride=2, padding=1).data.shape == (1, 4, 56, 56)


class TestResidual:
    def test_add_zero_identity(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = T.add_residual(Tensor(x, dtype=np.float64), Tensor(np.zeros_like(x))).data
        np.testing.assert_array_equal(out, x)

    def test_shape_mismatch_error(self):
        with pytest.raises(ShapeError):
            T.add_residual(Tensor(np.ones((1, 2, 3, 3))), Tensor(np.ones((1, 2, 4, 4))))


class TestHeldMemory:
    """A recorded node holds its output and per-channel or per-position
    statistics, nothing full-size its backward can build again from its input:
    conv2d's im2col and the norms' xhat are rebuilt in the backward."""

    @staticmethod
    def held(op, *shapes):
        """op on float64 leaves of these shapes, and the bytes traced while it
        ran that are still held once it returns, its output among them."""
        rng = np.random.default_rng(0)
        leaves = [Tensor(rng.normal(size=s), requires_grad=True, dtype=np.float64) for s in shapes]
        tracemalloc.start()
        try:
            out = op(*leaves)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad and out._backward is not None
        return out, held

    def test_kxk_conv2d(self):
        # the stem's shape: its im2col is 2.4 MiB against a 64 KiB output
        out, held = self.held(lambda x, w: T.conv2d(x, w, padding=3), (2, 3, 32, 32), (4, 3, 7, 7))
        assert out.data.nbytes == 1 << 16
        assert held <= 1.25 * out.data.nbytes

    def test_grouped_conv2d(self):
        out, held = self.held(lambda x, w: T.conv2d(x, w, padding=1, groups=4),
                              (2, 8, 16, 16), (8, 2, 3, 3))
        assert held <= 1.25 * out.data.nbytes

    def test_train_mode_batch_norm(self):
        rm, rv = np.zeros(16), np.ones(16)
        out, held = self.held(lambda x, g, b: T.batch_norm(x, g, b, rm, rv, training=True),
                              (2, 16, 8, 8), (16,), (16,))
        assert held <= 1.25 * out.data.nbytes

    def test_layer_norm(self):
        # its mean and istd are one value per position: 2 / C of the output
        out, held = self.held(T.layer_norm, (2, 16, 8, 8), (16,), (16,))
        assert held <= 1.25 * out.data.nbytes


class TestBackward:
    def test_weighted_sum_grad_is_input(self, rng):
        x = rng.normal(size=(3, 4))
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        backward(T.sum_all(T.mul(w, Tensor(x, dtype=np.float64))))
        np.testing.assert_allclose(w.grad, x, atol=1e-12)

    def test_two_layer_conv_relu_fd(self, rng):
        store = ParamStore()
        param(store, "c1.w", rng.normal(size=(3, 2, 3, 3)) * 0.5)
        param(store, "c1.b", rng.normal(size=3) * 0.1)
        param(store, "c2.w", rng.normal(size=(2, 3, 1, 1)) * 0.5)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), dtype=np.float64)

        def loss():
            h = T.relu(T.conv2d(x, store["c1.w"], store["c1.b"], padding=1))
            return T.sum_all(T.gelu(T.conv2d(h, store["c2.w"])))

        assert numeric_grads(loss, store, samples=6) < 1e-4

    def test_unused_param_grad_zero(self, rng):
        used = Tensor(rng.normal(size=(2, 2)), requires_grad=True, dtype=np.float64)
        unused = Tensor(rng.normal(size=(2, 2)), requires_grad=True, dtype=np.float64)
        backward(T.sum_all(T.mul(used, used)))
        assert unused.grad is None
        np.testing.assert_allclose(used.grad, 2 * used.data, atol=1e-12)

    def test_grads_accumulate_until_cleared(self, rng):
        store = ParamStore()
        w = param(store, "w", rng.normal(size=(2, 2)))
        backward(T.sum_all(w))
        backward(T.sum_all(w))
        np.testing.assert_allclose(w.grad, 2 * np.ones((2, 2)), atol=1e-12)
        store.zero_grads()
        assert w.grad is None

    def test_non_scalar_loss_error(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GraphError):
            backward(T.mul(w, w))

    def test_graphless_loss_error(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            loss = T.sum_all(T.mul(w, w))
        with pytest.raises(GraphError, match="training=True"):
            backward(loss)
        with pytest.raises(GraphError, match="no recorded graph"):
            backward(T.sum_all(Tensor(np.ones(2))))
        assert w.grad is None

    def test_second_backward_through_a_conv_free_graph_raises(self, rng):
        # a backward that kept the graph accumulated the gradient twice without a word
        store = ParamStore()
        w = param(store, "w", rng.normal(size=(3, 4)))
        loss = T.cross_entropy(T.linear(Tensor(rng.normal(size=(2, 4))), w), np.array([0, 2]))
        backward(loss)
        once = w.grad.copy()
        with pytest.raises(GraphError, match="already ran through this graph"):
            backward(loss)
        assert np.array_equal(w.grad, once)

    def test_a_loss_on_a_freed_trunk_raises_before_any_gradient_moves(self, rng):
        store = ParamStore()
        w = param(store, "w", rng.normal(size=(2, 2)))
        v = param(store, "v", rng.normal(size=(2, 2)))
        trunk = T.mul(w, w)
        backward(T.sum_all(trunk))
        once = w.grad.copy()
        with pytest.raises(GraphError, match="run the forward again"):
            backward(T.sum_all(T.mul(trunk, v)))
        assert np.array_equal(w.grad, once) and v.grad is None

    def test_backward_frees_every_node_it_walks(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        h = T.relu(T.mul(x, x))
        loss = T.sum_all(h)
        backward(loss)
        for node in (h, loss):
            assert node._parents == () and node._backward is T._freed
        assert x._backward is None and x.grad is not None

    def test_structural_ops_fd(self, rng):
        store = ParamStore()
        param(store, "a", rng.normal(size=(2, 3, 4, 5)))
        param(store, "b", rng.normal(size=(2, 3, 5, 4)))
        param(store, "t", rng.normal(size=(6, 3)))
        # each softmax row sums to 1, so an unweighted sum has gradient 0
        weight = Tensor(rng.normal(size=(2, 3, 12)))

        def loss():
            m = T.matmul(store["a"], store["b"])
            m = T.transpose(m, (0, 2, 1, 3))
            m = T.reshape(m, (2, 4, 12))
            m = T.concat([m, m], axis=1)
            m = T.narrow(m, 1, 2, 3)
            g = T.gather_rows(store["t"], np.array([[0, 5], [2, 2]]))
            return T.add(T.sum_all(T.mul(T.softmax(m), weight)), T.sum_all(g))

        assert numeric_grads(loss, store, samples=5) < 1e-4

    def test_pool_norm_ops_fd(self, rng):
        store = ParamStore()
        param(store, "x", rng.normal(size=(2, 3, 6, 6)))
        param(store, "g", 1 + 0.1 * rng.normal(size=3))
        param(store, "b", 0.1 * rng.normal(size=3))
        rm, rv = np.zeros(3), np.ones(3)

        def loss():
            h = T.max_pool2d(store["x"], kernel=3, stride=2, padding=1)
            h = T.batch_norm(h, store["g"], store["b"], rm.copy(), rv.copy(), training=True)
            h = T.layer_norm(h, store["g"], store["b"])
            return T.sum_all(T.mul(h, h))

        assert numeric_grads(loss, store, samples=5) < 1e-4

    def test_cross_entropy_grad(self, rng):
        store = ParamStore()
        param(store, "z", rng.normal(size=(4, 5)))
        labels = np.array([0, 2, 4, 1])

        def loss():
            return T.cross_entropy(store["z"], labels)

        assert numeric_grads(loss, store, samples=8) < 1e-4
        # analytic form: (softmax - onehot) / N
        store.zero_grads()
        backward(loss())
        z = store["z"].data
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1
        np.testing.assert_allclose(store["z"].grad, p / 4, atol=1e-10)

    @pytest.mark.parametrize("bad", [-1, 5, 2.0], ids=["negative", "K", "float"])
    def test_cross_entropy_rejects_bad_labels(self, bad):
        labels = np.array([0, 1, 2, bad])
        with pytest.raises(ShapeError, match=r"labels must be integers in \[0, 5\)"):
            T.cross_entropy(Tensor(np.zeros((4, 5))), labels)

    def test_cross_entropy_rejects_empty_batch(self):
        # before: two RuntimeWarnings, then a NonFiniteError on the NaN mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match=re.escape("N >= 1 and (N,) labels, got (0, 5)")):
                T.cross_entropy(Tensor(np.zeros((0, 5))), np.zeros(0, np.int64))


class TestFiniteDiff:
    def test_quadratic_slope(self):
        store = ParamStore()
        th = param(store, "th", [3.0])

        def f():
            return T.sum_all(T.mul(th, th))

        assert abs(finite_diff_grad(f, store, "th", 0) - 6.0) < 1e-6

    def test_constant_function_zero(self):
        store = ParamStore()
        param(store, "th", [3.0])
        assert finite_diff_grad(lambda: 7.0, store, "th", 0) == 0.0

    def test_probes_record_no_graph_and_restore_grad_mode(self):
        store = ParamStore()
        th = param(store, "th", [3.0])
        probes = []

        def f():
            out = T.sum_all(T.mul(th, th))
            probes.append(out._backward)
            return out

        assert abs(finite_diff_grad(f, store, "th", 0) - 6.0) < 1e-6
        assert probes == [None, None]
        assert T.mul(th, th)._backward is not None
        with T.no_grad():
            finite_diff_grad(f, store, "th", 0)
            assert T.mul(th, th)._backward is None
        assert T.mul(th, th)._backward is not None

        def broken():
            raise NonFiniteError("probe")

        with pytest.raises(NonFiniteError):
            finite_diff_grad(broken, store, "th", 0)
        assert T.mul(th, th)._backward is not None
        assert th.data[0] == 3.0


    def test_non_contiguous_parameter(self):
        # reshape(-1) of a transposed array is a copy: the probe perturbed the copy
        # and every slope came out 0.0
        store = ParamStore()
        th = store.add("th", Tensor(np.arange(6.0).reshape(2, 3).T))
        assert not th.data.flags.c_contiguous
        before = th.data.copy()

        def f():
            return T.sum_all(T.mul(th, th))

        for i, v in enumerate(before.flat):  # index is the C-order position
            assert abs(finite_diff_grad(f, store, "th", i) - 2.0 * v) < 1e-6
        assert np.array_equal(th.data, before)


class TestGrouped:
    """Under _grouped(n) each group of n samples gets the bits of its own forward."""

    def test_each_group_has_the_bits_of_its_own_batch(self, rng, monkeypatch):
        x = rng.normal(size=(6, 4, 5, 5))
        w3, w1 = rng.normal(size=(4, 2, 3, 3)), rng.normal(size=(4, 4, 1, 1))
        g, b = rng.normal(size=4), rng.normal(size=4)
        lw, lb = rng.normal(size=(7, 100)), rng.normal(size=7)
        feats = rng.normal(size=(192, 100))  # dgemm changes kernel for such a stack

        def maps(x):
            h = T.conv2d(Tensor(x), Tensor(w3), stride=1, padding=1, groups=2)
            h = T.batch_norm(h, Tensor(g), Tensor(b), np.zeros(4), np.ones(4), training=True)
            return T.layer_norm(T.conv2d(T.relu(h), Tensor(w1)), Tensor(g), Tensor(b)).data

        def logits(feats):
            return T.linear(Tensor(feats), Tensor(lw), Tensor(lb)).data

        monkeypatch.setattr(T, "_TILE_BYTES", 2 * 2 * 9 * 25 * 8)  # 2-image tiles
        with T.no_grad():
            alone = [(maps(x[a:a + 3]), logits(feats[a * 32:(a + 3) * 32])) for a in (0, 3)]
            with T._grouped(3):
                stacked = maps(x)
            with T._grouped(96):
                stacked_logits = logits(feats)
        assert np.array_equal(stacked, np.concatenate([m for m, _ in alone]))
        assert np.array_equal(stacked_logits, np.concatenate([f for _, f in alone]))

    def test_a_grouped_forward_records_nothing(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        with T._grouped(2):  # outside no_grad
            out = T.conv2d(x, w)
        assert not out.requires_grad and out._backward is None
        assert T.conv2d(x, w).requires_grad  # recording is back on after it
        with T.no_grad():
            with T._grouped(2):
                out = T.conv2d(x, w)
            assert not out.requires_grad and not T.conv2d(x, w).requires_grad
        assert T._GRAD_ENABLED == [True] and T.conv2d(x, w).requires_grad

    @pytest.mark.parametrize("op", ["batch_norm", "conv2d", "linear"])
    def test_refuses_a_ragged_batch(self, op):
        x = Tensor(np.ones((5, 2, 3, 3)))
        run = {"batch_norm": lambda: T.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                                                  np.zeros(2), np.ones(2), training=True),
               "conv2d": lambda: T.conv2d(x, Tensor(np.ones((2, 2, 3, 3)))),
               "linear": lambda: T.linear(Tensor(np.ones((5, 3))), Tensor(np.ones((2, 3))))}[op]
        with T.no_grad(), T._grouped(2):
            with pytest.raises(ShapeError, match=f"{op}: batch 5 is not a whole number of "
                                                 "groups of 2"):
                run()

    @pytest.mark.parametrize("n", [0, -1, 1.0, True])
    def test_rejects_a_group_size_that_is_not_a_count(self, n):
        with pytest.raises(ShapeError, match="group size"):
            with T.no_grad(), T._grouped(n):
                pass

    def test_leaves_the_batch_norm_buffers_unchanged(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 2, 2)))
        mean, var = rng.normal(size=3), 1.0 + rng.random(3)
        kept = mean.copy(), var.copy()
        with T.no_grad(), T._grouped(2):
            T.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), mean, var, training=True)
        assert np.array_equal(mean, kept[0]) and np.array_equal(var, kept[1])

    def test_group_needs_two_values_per_channel(self):
        x = Tensor(np.arange(4.0).reshape(4, 1, 1, 1))
        with T.no_grad(), T._grouped(1):
            with pytest.raises(ShapeError, match="more than one value per channel"):
                T.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), np.zeros(1), np.ones(1),
                             training=True)

    def test_is_restored_after_an_exception(self):
        with pytest.raises(KeyError):
            with T.no_grad(), T._grouped(2):
                raise KeyError("inside")
        assert T._GROUP == [0] and T._GRAD_ENABLED == [True]
        # outside the context the whole batch is one group again
        out = T.linear(Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))
        assert out.data.shape == (3, 1)


class TestAxisRule:
    # numpy's AxisError (softmax, reduce_max) or a bare IndexError (narrow, concat)
    @pytest.mark.parametrize("op,call", [
        ("softmax", lambda x: T.softmax(x, axis=3)),
        ("reduce_max", lambda x: T.reduce_max(x, axis=-4)),
        ("narrow", lambda x: T.narrow(x, 3, 0, 1)),
        ("concat", lambda x: T.concat([x, x], axis=3)),
    ])
    def test_an_axis_out_of_range_names_the_op_and_rank(self, op, call):
        x = Tensor(np.ones((2, 3, 4)))
        axis = -4 if op == "reduce_max" else 3
        with pytest.raises(ShapeError, match=re.escape(
                f"{op} axis must be an integer in [-3, 3) for a rank-3 tensor, got {axis}")):
            call(x)

    @pytest.mark.parametrize("other", [(3, 2), (3,)], ids=["off-axis-size", "rank"])
    def test_concat_of_mismatched_shapes_names_the_op_axis_and_shapes(self, other):
        # numpy's bare ValueError before the check
        with pytest.raises(ShapeError, match=re.escape(
                f"concat along axis 0 needs equal ranks and equal sizes off that axis, "
                f"got (2, 3) and {other}")):
            T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones(other))], axis=0)

    def test_concat_of_nothing(self):
        # checking the axis against the first tensor must not turn this into an IndexError
        with pytest.raises(ShapeError, match="at least one tensor"):
            T.concat([], axis=0)

    def test_a_negative_axis_counts_from_the_end(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert np.array_equal(T.softmax(x, axis=-2).data, T.softmax(x, axis=1).data)
        assert np.array_equal(T.narrow(x, -1, 1, 2).data, x.data[..., 1:3])
        assert T.concat([x, x], axis=-3).shape == (4, 3, 4)


class TestParamStore:
    def test_lexicographic_iteration(self):
        store = ParamStore()
        for name in ("s2.w", "s1.b", "s1.a", "head.w"):
            store.add(name, Tensor(np.zeros(1)))
        assert [p for p, _ in store.items()] == ["head.w", "s1.a", "s1.b", "s2.w"]
        assert store.paths() == sorted(store.paths())

    def test_duplicate_path_rejected(self):
        store = ParamStore()
        store.add("w", Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            store.add("w", Tensor(np.zeros(1)))

    def test_total_elements(self):
        store = ParamStore()
        store.add("a", Tensor(np.zeros((2, 3))))
        store.add("b", Tensor(np.zeros(5)))
        assert store.total_elements() == 11


class TestTensorBasics:
    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_ops_keep_the_rank_limit(self):
        # the ops rely on Tensor's own rank check for their outputs
        with pytest.raises(ShapeError, match="rank 5"):
            T.reshape(Tensor(np.zeros((2, 2, 2, 2))), (1, 2, 2, 2, 2))
        with pytest.raises(ShapeError, match="rank 5"):
            T.batch_tile(Tensor(np.zeros((1, 2, 2, 2))), 2)

    @pytest.mark.parametrize("perm", list(permutations(range(4))))
    def test_transpose_backward_applies_the_inverse_permutation(self, perm):
        x = Tensor(np.arange(120.0).reshape(2, 3, 4, 5), requires_grad=True)
        dout = np.random.default_rng(0).normal(size=x.data.transpose(perm).shape)
        backward(T.sum_all(T.mul(T.transpose(x, perm), Tensor(dout))))
        assert np.array_equal(x.grad, dout.transpose(np.argsort(perm)))

    @pytest.mark.parametrize("perm", [(0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 4), (0, 1, 2, 3, 4)])
    def test_transpose_rejects_what_is_not_a_permutation_of_the_axes(self, perm):
        # a repeated axis gave numpy's bare "repeated axis in transpose"
        with pytest.raises(ShapeError, match=re.escape(
                f"transpose perm must be a permutation of the 4 axes of (1, 2, 3, 4), got {perm}")):
            T.transpose(Tensor(np.zeros((1, 2, 3, 4))), perm)

    def test_reshape_size_mismatch_error(self):
        with pytest.raises(ShapeError, match="cannot reshape"):
            T.reshape(Tensor(np.zeros((1, 9, 4))), (1, 8, 2, 2))

    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
        for dtype in (np.int8, np.uint16, np.float16):
            assert Tensor(np.arange(3, dtype=dtype)).data.tolist() == [0.0, 1.0, 2.0]
            assert Tensor(np.arange(3, dtype=dtype)).dtype == np.float32
        assert Tensor(np.arange(3), dtype=np.float64).dtype == np.float64

    @pytest.mark.parametrize("data", [np.zeros(2, np.complex64), np.ones(2, np.bool_),
                                      np.array([1.0, None]), np.array(["1.0"]), [True, False],
                                      1j], ids=["complex", "bool", "object", "str", "bool-list",
                                                "complex-scalar"])
    @pytest.mark.parametrize("dtype", [None, np.float64])
    def test_rejects_data_that_is_not_numbers(self, data, dtype):
        # complex was cast with a ComplexWarning, bool silently, str by numpy's ValueError
        kind = np.asarray(data).dtype
        with pytest.raises(ShapeError, match=f"integer or floating type, got {kind}$"):
            Tensor(data, dtype=dtype)
