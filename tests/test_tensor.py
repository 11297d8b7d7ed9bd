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

    def test_rank3_tokens(self, rng):
        x = rng.normal(size=(2, 7, 5))
        w = rng.normal(size=(4, 5))
        got = T.linear(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64)).data
        np.testing.assert_allclose(got, x @ w.T, atol=1e-12)

    def test_feature_mismatch_error(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


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
                           training=False, eps=0.0).data
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_batch_norm_single_element_error(self):
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        with pytest.raises(ShapeError):
            T.batch_norm(Tensor(np.ones((1, 2, 1, 1))), g, b, np.zeros(2), np.ones(2), training=True)

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

    def test_relu_gelu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(T.relu(x).data, [0.0, 0.0, 2.0])
        g = T.gelu(Tensor(np.array([0.0, 1.0]), dtype=np.float64)).data
        assert g[0] == 0.0
        assert abs(g[1] - 0.8412) < 5e-4

    def test_gelu_matches_tanh_closed_form(self):
        x = np.linspace(-6.0, 6.0, 241)
        c = np.sqrt(2.0 / np.pi)
        u = c * (x + 0.044715 * np.power(x, 3))
        want = 0.5 * x * (1.0 + np.tanh(u))
        # d/dx: 0.5 (1 + tanh u) + 0.5 x sech^2(u) u'
        dwant = 0.5 * (1.0 + np.tanh(u)) + 0.5 * x * c * (1.0 + 3 * 0.044715 * x ** 2) / np.cosh(u) ** 2
        store = ParamStore()
        param(store, "x", x)
        out = T.gelu(store["x"])
        backward(T.sum_all(out))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(store["x"].grad, dwant, rtol=0, atol=1e-12)

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

    def test_structural_ops_fd(self, rng):
        store = ParamStore()
        param(store, "a", rng.normal(size=(2, 3, 4, 5)))
        param(store, "b", rng.normal(size=(2, 3, 5, 4)))
        param(store, "t", rng.normal(size=(6, 3)))

        def loss():
            m = T.matmul(store["a"], store["b"])
            m = T.transpose(m, (0, 2, 1, 3))
            m = T.reshape(m, (2, 4, 12))
            m = T.concat([m, m], axis=1)
            m = T.narrow(m, 1, 2, 3)
            g = T.gather_rows(store["t"], np.array([[0, 5], [2, 2]]))
            return T.add(T.sum_all(T.softmax(m)), T.sum_all(g))

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

    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
