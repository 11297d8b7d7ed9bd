import numpy as np
import pytest

from visarch import tensor as T
from visarch.attention import (SCORE_MODES, attention_logits, mhsa_forward, rel_pos_bias,
                               rel_pos_index)
from visarch.tensor import ParamStore, ShapeError, Tensor, backward


def make_params(rng, c, heads, head_dim, dtype=np.float64, zero_qk=False):
    """mhsa_forward's weight arguments (w_qkv, b_qkv, w_proj, b_proj, heads): 1x1 kernels."""
    inner = heads * head_dim
    w_qkv = rng.normal(size=(3 * inner, c, 1, 1)) * 0.2
    if zero_qk:
        w_qkv[:2 * inner] = 0.0
    return (Tensor(w_qkv, dtype=dtype), Tensor(np.zeros(3 * inner), dtype=dtype),
            Tensor(rng.normal(size=(c, inner, 1, 1)) * 0.2, dtype=dtype),
            Tensor(np.zeros(c), dtype=dtype), heads)


def naive_mhsa(x, p, bias=None):
    """Loop-free reference attention in plain numpy (independent of the engine),
    on (N, T, C) tokens with the 1x1 kernels as (out, in) matrices."""
    n, c, h, w = x.shape
    w_qkv, b_qkv, w_proj, b_proj, heads = (getattr(a, "data", a) for a in p)
    w_qkv, w_proj = w_qkv.reshape(w_qkv.shape[:2]), w_proj.reshape(w_proj.shape[:2])
    inner = w_qkv.shape[0] // 3
    d = inner // heads
    tokens = x.reshape(n, c, h * w).transpose(0, 2, 1)
    qkv = tokens @ w_qkv.T + b_qkv
    q, k, v = [qkv[..., i * inner:(i + 1) * inner].reshape(n, -1, heads, d).transpose(0, 2, 1, 3)
               for i in range(3)]
    logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d)
    if bias is not None:
        logits = logits + bias
    e = np.exp(logits - logits.max(-1, keepdims=True))
    attn = e / e.sum(-1, keepdims=True)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(n, -1, inner)
    out = out @ w_proj.T + b_proj
    return out.transpose(0, 2, 1).reshape(n, c, h, w)


class TestLogits:
    def test_single_pair_hand_value(self):
        q = Tensor(np.array([[[[1.0, 0.0]]]]), dtype=np.float64)
        k = Tensor(np.array([[[[1.0, 0.0]]]]), dtype=np.float64)
        out = attention_logits(q, k, "standard").data
        np.testing.assert_allclose(out, 1.0 / np.sqrt(2.0))

    def test_prenorm_matches_standard_f32(self, rng):
        q = Tensor(rng.normal(size=(2, 3, 5, 16)).astype(np.float32))
        k = Tensor(rng.normal(size=(2, 3, 5, 16)).astype(np.float32))
        a = attention_logits(q, k, "standard").data
        b = attention_logits(q, k, "prenorm").data
        assert np.abs(a - b).max() < 1e-5

    def test_fullnorm_is_standard_over_sqrt_d(self, rng):
        d = 16
        q = Tensor(rng.normal(size=(1, 2, 4, d)), dtype=np.float64)
        k = Tensor(rng.normal(size=(1, 2, 4, d)), dtype=np.float64)
        a = attention_logits(q, k, "standard").data
        b = attention_logits(q, k, "fullnorm").data
        np.testing.assert_allclose(b, a / np.sqrt(d), atol=1e-6)

    def test_pb_relax_softmax_matches_standard(self, rng):
        q = Tensor(rng.normal(size=(1, 2, 6, 8)), dtype=np.float64)
        k = Tensor(rng.normal(size=(1, 2, 6, 8)), dtype=np.float64)
        a = T.softmax(attention_logits(q, k, "standard")).data
        b = T.softmax(attention_logits(q, k, "pb_relax")).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_unknown_mode(self, rng):
        q = Tensor(rng.normal(size=(1, 1, 2, 4)))
        with pytest.raises(ValueError):
            attention_logits(q, q, "cosine")

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_grads_match_central_differences(self, rng, mode):
        # pb_relax's row shift is the only user of reduce_max's and sub's
        # backward and of _unbroadcast's sum down to a kept axis
        store = ParamStore()
        q = store.add("q", Tensor(rng.normal(size=(1, 2, 3, 4)), dtype=np.float64))
        k = store.add("k", Tensor(rng.normal(size=(1, 2, 3, 4)), dtype=np.float64))

        def loss():
            return T.sum_all(T.gelu(attention_logits(q, k, mode)))

        backward(loss())
        for path, t in store.items():
            for i in range(t.data.size):
                num = T.finite_diff_grad(loss, store, path, i)
                ana = t.grad.reshape(-1)[i]
                assert abs(ana - num) / max(abs(ana), abs(num), 1e-3) < 1e-4, (path, i)

    def test_reduce_max_splits_a_tied_maximum(self):
        # each of a row's `count` tied maxima gets dout / count, the others nothing
        store = ParamStore()
        x = store.add("x", Tensor(np.array([[1.0, 3.0, 3.0, 2.0, 3.0],
                                            [0.0, 5.0, 1.0, 1.0, 1.0]]), dtype=np.float64))
        dout = Tensor(np.array([[6.0], [4.0]]), dtype=np.float64)
        backward(T.sum_all(T.mul(T.reduce_max(x, axis=-1), dout)))
        np.testing.assert_array_equal(x.grad, [[0.0, 2.0, 2.0, 0.0, 2.0],
                                               [0.0, 4.0, 0.0, 0.0, 0.0]])


class TestMhsa:
    def test_matches_naive_reference(self, rng):
        p = make_params(rng, c=12, heads=3, head_dim=4)
        x = rng.normal(size=(2, 12, 3, 4))
        got = mhsa_forward(Tensor(x, dtype=np.float64), *p).data
        np.testing.assert_allclose(got, naive_mhsa(x, p), atol=1e-10)

    def test_zero_queries_average_values(self, rng):
        # zero q/k -> uniform attention -> every token becomes the token mean
        c = 8
        p = make_params(rng, c, heads=2, head_dim=4, zero_qk=True)
        w_qkv, _, w_proj, _, _ = p
        w_proj.data[:] = np.eye(c)[:, :, None, None]
        x = rng.normal(size=(1, c, 2, 3))
        out = mhsa_forward(Tensor(x, dtype=np.float64), *p).data
        tokens = x.reshape(1, c, 6)
        v = w_qkv.data[2 * c:, :, 0, 0] @ tokens[0]
        expect = np.repeat(v.mean(axis=1, keepdims=True), 6, axis=1).reshape(1, c, 2, 3)
        np.testing.assert_allclose(out, expect, atol=1e-10)

    def test_attention_rows_sum_to_one(self, rng):
        for mode in ("standard", "prenorm", "fullnorm", "pb_relax"):
            q = Tensor(rng.normal(size=(1, 2, 5, 8)), dtype=np.float64)
            k = Tensor(rng.normal(size=(1, 2, 5, 8)), dtype=np.float64)
            attn = T.softmax(attention_logits(q, k, mode)).data
            np.testing.assert_allclose(attn.sum(-1), 1.0, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        p = make_params(rng, c=8, heads=2, head_dim=4)
        x = rng.normal(size=(1, 8, 1, 6))
        perm = rng.permutation(6)
        out = mhsa_forward(Tensor(x, dtype=np.float64), *p).data
        out_p = mhsa_forward(Tensor(x[:, :, :, perm], dtype=np.float64), *p).data
        np.testing.assert_allclose(out[:, :, :, perm], out_p, atol=1e-6)

    def test_channel_mismatch(self, rng):
        p = make_params(rng, c=8, heads=2, head_dim=4)
        with pytest.raises(ShapeError):
            mhsa_forward(Tensor(np.zeros((1, 6, 2, 2))), *p)

    def test_grad_flows_fd(self, rng):
        store = ParamStore()
        inner = 6
        store.add("qkv.w", Tensor(rng.normal(size=(3 * inner, 6, 1, 1)) * 0.3, dtype=np.float64))
        store.add("qkv.b", Tensor(np.zeros(3 * inner), dtype=np.float64))
        store.add("proj.w", Tensor(rng.normal(size=(6, inner, 1, 1)) * 0.3, dtype=np.float64))
        store.add("proj.b", Tensor(np.zeros(6), dtype=np.float64))
        x = Tensor(rng.normal(size=(1, 6, 2, 2)), dtype=np.float64)

        def loss():
            out = mhsa_forward(x, store["qkv.w"], store["qkv.b"], store["proj.w"],
                               store["proj.b"], 2)
            return T.sum_all(T.gelu(out))

        store.zero_grads()
        backward(loss())
        fd_rng = np.random.default_rng(1)
        for path, t in store.items():
            for i in fd_rng.choice(t.data.size, size=min(4, t.data.size), replace=False):
                num = T.finite_diff_grad(loss, store, path, int(i))
                ana = t.grad.reshape(-1)[int(i)]
                assert abs(ana - num) / max(abs(ana), abs(num), 1e-3) < 1e-4

    def test_relative_bias_matches_naive_reference(self, rng):
        p = make_params(rng, c=8, heads=2, head_dim=4)
        p[1].data[:] = rng.normal(size=24) * 0.1
        p[3].data[:] = rng.normal(size=8) * 0.1
        table = Tensor(rng.normal(size=(15, 2)), dtype=np.float64)
        bias = rel_pos_bias(table, 2, 3)
        x = rng.normal(size=(2, 8, 2, 3))
        got = mhsa_forward(Tensor(x, dtype=np.float64), *p, bias=bias).data
        expect = naive_mhsa(x, p, table.data[rel_pos_index(2, 3)].transpose(2, 0, 1))
        np.testing.assert_allclose(got, expect, atol=1e-10)
        assert np.abs(got - naive_mhsa(x, p)).max() > 1e-3


def attention_args(inner=8, c=8, **override):
    """Consistent mhsa_forward arguments for a (1, c, 2, 2) input, with overrides."""
    args = dict(w_qkv=Tensor(np.zeros((3 * inner, c, 1, 1))), b_qkv=Tensor(np.zeros(3 * inner)),
                w_proj=Tensor(np.zeros((c, inner, 1, 1))), b_proj=Tensor(np.zeros(c)), heads=2)
    return {**args, **override}


class TestParamsValidation:
    def test_shape_checks(self):
        x = Tensor(np.zeros((1, 8, 2, 2)))
        assert mhsa_forward(x, **attention_args()).shape == (1, 8, 2, 2)
        head_bias = Tensor(np.zeros((2, 4, 4)))
        assert mhsa_forward(x, **attention_args(bias=head_bias)).shape == (1, 8, 2, 2)
        for bad in (dict(w_qkv=Tensor(np.zeros((25, 8, 1, 1)))),
                    dict(heads=3),
                    dict(heads=0),
                    dict(w_qkv=Tensor(np.zeros((0, 8, 1, 1))), b_qkv=Tensor(np.zeros(0))),
                    dict(w_qkv=Tensor(np.zeros((24, 9, 1, 1)))),
                    dict(w_proj=Tensor(np.zeros((8, 10, 1, 1)))),
                    dict(w_proj=Tensor(np.zeros((9, 8, 1, 1))), b_proj=Tensor(np.zeros(9))),
                    # the projections are 1x1 kernels: a 2-d matrix or a 3x3 one is not
                    dict(w_qkv=Tensor(np.zeros((24, 8)))),
                    dict(w_proj=Tensor(np.zeros((8, 8)))),
                    dict(w_qkv=Tensor(np.zeros((24, 8, 3, 3)))),
                    dict(w_proj=Tensor(np.zeros((8, 8, 3, 3)))),
                    dict(b_qkv=Tensor(np.zeros(23))),
                    dict(b_qkv=Tensor(np.zeros((24, 1)))),
                    dict(b_proj=Tensor(np.zeros(9))),
                    dict(b_proj=Tensor(np.zeros((1, 8)))),
                    # 2 heads over T=4 tokens take a (2, 4, 4) bias: the first two
                    # would broadcast silently, the third fail inside numpy
                    dict(bias=Tensor(np.zeros((1, 4, 4)))),
                    dict(bias=Tensor(np.zeros((1, 2, 4, 4)))),
                    dict(bias=Tensor(np.zeros((3, 4, 4))))):
            with pytest.raises(ShapeError):
                mhsa_forward(x, **attention_args(**bad))


class TestRelPos:
    def test_index_enumeration_oracle(self):
        h, w = 2, 3
        idx = rel_pos_index(h, w)
        coords = [(y, x) for y in range(h) for x in range(w)]
        for i, (yi, xi) in enumerate(coords):
            for j, (yj, xj) in enumerate(coords):
                expect = (yi - yj + h - 1) * (2 * w - 1) + (xi - xj + w - 1)
                assert idx[i, j] == expect
        assert idx.min() >= 0 and idx.max() < (2 * h - 1) * (2 * w - 1)

    def test_single_token_window(self, rng):
        table = Tensor(rng.normal(size=(1, 4)), dtype=np.float64)
        bias = rel_pos_bias(table, 1, 1).data
        assert bias.shape == (4, 1, 1)
        np.testing.assert_allclose(bias[:, 0, 0], table.data[0])

    def test_equal_offsets_share_bias(self, rng):
        table = Tensor(rng.normal(size=(9, 2)), dtype=np.float64)
        bias = rel_pos_bias(table, 2, 2).data
        # token pairs (0,1) and (2,3) both have offset (0,-1)
        np.testing.assert_array_equal(bias[:, 0, 1], bias[:, 2, 3])
        # (0,3) and nothing else shares offset (-1,-1) in a 2x2 window
        assert bias.shape == (2, 4, 4)

    def test_wrong_table_rows(self):
        with pytest.raises(ShapeError):
            rel_pos_bias(Tensor(np.zeros((8, 2))), 2, 2)

    def test_table_grad_accumulates_by_offset(self, rng):
        store = ParamStore()
        table = store.add("t", Tensor(np.zeros((9, 1)), dtype=np.float64))
        backward(T.sum_all(rel_pos_bias(table, 2, 2)))
        # each of the 16 token pairs contributes once to its offset row
        assert table.grad.sum() == 16
        assert table.grad[4, 0] == 4  # zero offset occurs for the 4 diagonal pairs

