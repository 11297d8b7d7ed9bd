from types import SimpleNamespace

import numpy as np
import pytest

from visarch import blocks as B
from visarch import tensor as T
from visarch.attention import mhsa_forward
from visarch.blocks import AttentionSpec, BottleneckSpec, EmbedSpec, conv_mlp_hidden
from visarch.models import PlanEntry
from visarch.tensor import Tensor, backward


def config(norm="batch", style="pre_norm", rel_pos=False):
    """The ModelConfig fields the layer table reads."""
    return SimpleNamespace(norm=norm, conv_block_style=style,
                           pos_mode="relative" if rel_pos else "none")


def block_entry(spec, hw=(1, 1), cin=None):
    """The plan entry of a block fed cin channels (default: its own width)."""
    shape = (cin or spec.channels,) + hw
    return PlanEntry(spec.kind, "b", spec, shape, (spec.channels,) + hw)


def allocate(entry, cfg, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return B.allocate(B.LAYERS[entry.kind].params(entry, cfg), lambda s: B.draw(rng, s), dtype)


def build_block(spec, norm="batch", style="pre_norm", rel_pos=False, window=(1, 1),
                seed=0, dtype=np.float64, cin=None):
    return allocate(block_entry(spec, window, cin), config(norm, style, rel_pos), seed, dtype)


def embed_entry(spec, cin, res, prefix):
    out = res // spec.stride
    return PlanEntry("embed", prefix, spec, (cin, res, res), (spec.out_channels, out, out))


def attn_spec(c, hidden, **kw):
    """An attention block of c channels, 2 heads, whose MLP branch is hidden wide."""
    return AttentionSpec(c, hidden, heads=2, head_dim=c // 2, **kw)


def mlp_macs(spec, hw=(14, 14)):
    """MACs of an attention block's MLP branch."""
    rows = B.LAYERS["attention"].rows(block_entry(spec, hw), config())
    return sum(m for p, m, _ in rows if p.startswith("b.mlp."))


def head_store(cin, classes):
    return allocate(PlanEntry("head", "head", None, (cin, 1, 1), (classes,)), config())[0]


class TestConvMlpHidden:
    def test_reference_widths(self):
        assert conv_mlp_hidden(192, 768) == 160
        assert conv_mlp_hidden(384, 1536) == 321
        assert conv_mlp_hidden(768, 3072) == 643

    def test_maximal_under_budget(self):
        for c in (192, 384, 768, 96, 48, 256):
            hid = 4 * c
            m = conv_mlp_hidden(c, hid)
            budget = 2 * c * hid
            assert 2 * c * m + 9 * m * m <= budget
            assert 2 * c * (m + 1) + 9 * (m + 1) ** 2 > budget

    def test_macs_within_five_percent_of_plain(self):
        for c in (192, 384, 768, 48):
            plain = mlp_macs(attn_spec(c, 4 * c))
            conv = mlp_macs(attn_spec(c, 4 * c, use_3x3=True))
            assert plain == 196 * 2 * c * 4 * c
            assert conv <= plain
            assert conv >= 0.95 * plain


class TestStemAndEmbed:
    def test_stem_halves_resolution(self, rng):
        entry = PlanEntry("stem", "stem", None, (3, 224, 224), (16, 112, 112))
        store, buffers = allocate(entry, config(), dtype=np.float32)
        assert store["stem.conv.w"].shape == (16, 3, 7, 7) and "stem.conv.b" not in store
        assert "stem.norm.gamma" in store and "stem.norm.mean" in buffers
        x = Tensor(rng.normal(size=(1, 3, 224, 224)).astype(np.float32))
        out = B.stem_forward(x, store, buffers, False, "stem")
        assert out.shape == (1, 16, 112, 112)
        assert (out.data >= 0).all()

    def test_stem_is_a_padded_7x7_stride_2_conv_bn_relu(self, rng):
        entry = PlanEntry("stem", "stem", None, (3, 9, 9), (4, 5, 5))
        store, buffers = allocate(entry, config(), seed=2)
        buffers["stem.norm.mean"][:] = rng.normal(size=4)
        buffers["stem.norm.var"][:] = rng.uniform(0.5, 2.0, size=4)
        x = rng.normal(size=(2, 3, 9, 9))
        out = B.stem_forward(Tensor(x, dtype=np.float64), store, buffers, False, "stem").data
        # oracle: zero-pad by 3, take every second 7x7 window, then eval BN and relu
        w = store["stem.conv.w"].data
        xp = np.pad(x, ((0, 0), (0, 0), (3, 3), (3, 3)))
        conv = np.array([[[[np.sum(xp[n, :, 2 * i:2 * i + 7, 2 * j:2 * j + 7] * w[o])
                            for j in range(5)] for i in range(5)] for o in range(4)]
                         for n in range(2)])
        mean, var = buffers["stem.norm.mean"], buffers["stem.norm.var"]
        gamma, beta = store["stem.norm.gamma"].data, store["stem.norm.beta"].data
        bn = ((conv - mean[:, None, None]) / np.sqrt(var[:, None, None] + 1e-5)
              * gamma[:, None, None] + beta[:, None, None])
        np.testing.assert_allclose(out, np.maximum(bn, 0.0), atol=1e-10)

    def test_patch_embed_equals_flatten_linear(self, rng):
        spec = EmbedSpec(4, 9)
        store, buffers = allocate(embed_entry(spec, 6, 8, "e"), config(), seed=1)
        x = rng.normal(size=(2, 6, 8, 8))
        out = B.patch_embed_forward(Tensor(x, dtype=np.float64), spec, store, buffers,
                                    "e", training=False).data
        # oracle: extract patches, flatten, apply as a linear layer
        w = store["e.conv.w"].data.reshape(9, -1)
        b = store["e.conv.b"].data
        for i in range(2):
            for j in range(2):
                patch = x[:, :, 4 * i:4 * i + 4, 4 * j:4 * j + 4].reshape(2, -1)
                np.testing.assert_allclose(out[:, :, i, j], patch @ w.T + b, atol=1e-10)

    def test_embed_norm_after_has_no_conv_bias(self):
        store, buffers = allocate(embed_entry(EmbedSpec(2, 8, norm_after=True), 4, 8, "e"),
                                  config(), dtype=np.float32)
        assert "e.conv.b" not in store
        assert "e.norm.gamma" in store and "e.norm.mean" in buffers


class TestBottleneck:
    def test_preserves_shape(self, rng):
        spec = BottleneckSpec(96, hidden=192, groups=8)
        store, buffers = build_block(spec)
        x = Tensor(rng.normal(size=(2, 96, 7, 7)), dtype=np.float64)
        out = B.bottleneck_forward(x, spec, store, buffers, "b", "batch", "pre_norm", True)
        assert out.shape == (2, 96, 7, 7)

    def test_zero_final_conv_is_identity(self, rng):
        spec = BottleneckSpec(8, hidden=16, groups=2)
        store, buffers = build_block(spec)
        store["b.conv3.w"].data[:] = 0.0
        store["b.conv3.b"].data[:] = 0.0
        x = rng.normal(size=(2, 8, 3, 3))
        out = B.bottleneck_forward(Tensor(x, dtype=np.float64), spec, store, buffers,
                                   "b", "batch", "pre_norm", True)
        np.testing.assert_array_equal(out.data, x)

    def test_post_norm_strided_downsamples(self, rng):
        spec = BottleneckSpec(32, hidden=8, groups=1, stride=2)
        store, buffers = build_block(spec, style="post_norm", cin=16)
        # conv1 and proj read the width coming in
        assert store["b.conv1.w"].shape == (8, 16, 1, 1)
        assert store["b.proj.w"].shape == (32, 16, 1, 1)
        x = Tensor(rng.normal(size=(2, 16, 8, 8)), dtype=np.float64)
        out = B.bottleneck_forward(x, spec, store, buffers, "b", "batch", "post_norm", True)
        assert out.shape == (2, 32, 4, 4)
        assert (out.data >= 0).all()

    def test_post_norm_identity_block_has_no_proj(self):
        spec = BottleneckSpec(16, hidden=4, groups=1)
        store, _ = build_block(spec, style="post_norm")
        assert "b.proj.w" not in store

    def test_fd_grads(self, rng):
        spec = BottleneckSpec(6, hidden=12, groups=2)
        store, buffers = build_block(spec)
        x = Tensor(rng.normal(size=(2, 6, 3, 3)), dtype=np.float64)

        def loss():
            out = B.bottleneck_forward(x, spec, store, buffers, "b", "batch", "pre_norm", True)
            return T.sum_all(T.mul(out, out))

        assert_fd(loss, store)


def assert_fd(loss, store, samples=3, tol=1e-4):
    # second, smaller step resolves relu-kink straddles; wrong grads fail both
    store.zero_grads()
    backward(loss())
    rng = np.random.default_rng(7)
    for path, t in store.items():
        for i in rng.choice(t.data.size, size=min(samples, t.data.size), replace=False):
            ana = t.grad.reshape(-1)[int(i)] if t.grad is not None else 0.0
            rels = []
            for h in (1e-5, 1e-7):
                num = T.finite_diff_grad(loss, store, path, int(i), h=h)
                rels.append(abs(ana - num) / max(abs(ana), abs(num), 1e-3))
                if rels[-1] < tol:
                    break
            assert min(rels) < tol, f"{path}[{i}]: rel={min(rels):.3e}"


class TestMlpBlock:
    """The MLP branch of an attention block (b.mlp.*), plain and with use_3x3."""

    def test_plain_shapes_and_identity(self, rng):
        spec = attn_spec(12, 48)
        store, buffers = build_block(spec, norm="layer")
        assert store["b.mlp.fc1.w"].shape == (48, 12, 1, 1)
        assert "b.mlp.conv.w" not in store
        store["b.mlp.fc2.w"].data[:] = 0.0
        store["b.mlp.fc2.b"].data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 12, 4, 4)), dtype=np.float64)
        out = B.attention_block_forward(x, spec, store, buffers, "b", "layer", False)
        # a zeroed fc2 leaves only the attention residual
        h = B.norm_forward(x, store, buffers, "b.norm1", "layer", False)
        attn = mhsa_forward(h, store["b.attn.qkv.w"], store["b.attn.qkv.b"],
                            store["b.attn.proj.w"], store["b.attn.proj.b"], 2)
        np.testing.assert_array_equal(out.data, x.data + attn.data)

    def test_use_3x3_param_paths(self):
        store, _ = build_block(attn_spec(16, 64, use_3x3=True))
        m = conv_mlp_hidden(16, 64)
        assert store["b.mlp.conv.w"].shape == (m, m, 3, 3)
        assert store["b.mlp.fc1.w"].shape == (m, 16, 1, 1)

    def test_fd_grads_with_conv(self, rng):
        spec = attn_spec(8, 32, use_3x3=True)
        store, buffers = build_block(spec)
        assert store["b.mlp.conv.w"].shape[1] == conv_mlp_hidden(8, 32)
        x = Tensor(rng.normal(size=(1, 8, 3, 3)), dtype=np.float64)

        def loss():
            out = B.attention_block_forward(x, spec, store, buffers, "b", "batch", True)
            return T.sum_all(T.mul(out, out))

        assert_fd(loss, store)


class TestAttentionBlock:
    def test_zeroed_projections_are_identity(self, rng):
        spec = AttentionSpec(12, hidden=24, heads=2, head_dim=6)
        store, buffers = build_block(spec, norm="layer")
        for p in ("b.attn.proj.w", "b.attn.proj.b", "b.mlp.fc2.w", "b.mlp.fc2.b"):
            store[p].data[:] = 0.0
        x = rng.normal(size=(2, 12, 3, 3))
        out = B.attention_block_forward(Tensor(x, dtype=np.float64), spec, store, buffers,
                                        "b", "layer", False)
        np.testing.assert_array_equal(out.data, x)

    def test_rel_pos_table_created_with_window(self):
        spec = AttentionSpec(8, hidden=16, heads=2, head_dim=4)
        store, _ = build_block(spec, rel_pos=True, window=(3, 3))
        assert store["b.attn.relpos"].shape == (25, 2)

    def test_fd_grads(self, rng):
        spec = AttentionSpec(6, hidden=12, heads=2, head_dim=3)
        store, buffers = build_block(spec, norm="batch", rel_pos=True, window=(2, 2))
        x = Tensor(rng.normal(size=(2, 6, 2, 2)), dtype=np.float64)

        def loss():
            out = B.attention_block_forward(x, spec, store, buffers, "b", "batch", True)
            return T.sum_all(T.mul(out, out))

        assert_fd(loss, store)

    def test_halved_inner_width_runs(self, rng):
        spec = AttentionSpec(16, hidden=64, heads=2, head_dim=4)
        store, buffers = build_block(spec)
        assert store["b.attn.qkv.w"].shape == (24, 16, 1, 1)
        assert store["b.attn.proj.w"].shape == (16, 8, 1, 1)
        x = Tensor(rng.normal(size=(1, 16, 2, 2)), dtype=np.float64)
        out = B.attention_block_forward(x, spec, store, buffers, "b", "batch", True)
        assert out.shape == (1, 16, 2, 2)


class TestHead:
    def test_gap_identity_fc_pools(self, rng):
        store = head_store(4, 4)
        store["head.fc.w"].data[:] = np.eye(4)
        x = rng.normal(size=(2, 4, 3, 3))
        out = B.head_forward(Tensor(x, dtype=np.float64), "gap", store, "head").data
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), atol=1e-12)

    def test_cls_mode_reads_first_token(self, rng):
        store = head_store(4, 4)
        store["head.fc.w"].data[:] = np.eye(4)
        x = rng.normal(size=(2, 4, 5, 1))
        out = B.head_forward(Tensor(x, dtype=np.float64), "cls_token", store, "head").data
        np.testing.assert_allclose(out, x[:, :, 0, 0], atol=1e-12)

    def test_gap_spatial_permutation_invariance(self, rng):
        store = head_store(3, 10)
        x = rng.normal(size=(1, 3, 4, 4))
        perm = rng.permutation(16)
        xp = x.reshape(1, 3, 16)[:, :, perm].reshape(1, 3, 4, 4)
        a = B.head_forward(Tensor(x, dtype=np.float64), "gap", store, "head").data
        b = B.head_forward(Tensor(xp, dtype=np.float64), "gap", store, "head").data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestRowCounting:
    def test_one_by_one_conv_row(self):
        rows = B.LAYERS["attention"].rows(block_entry(attn_spec(64, 128), (14, 14)), config())
        fc1 = dict((p, (m, n)) for p, m, n in rows)["b.mlp.fc1"]
        assert fc1 == (196 * 64 * 128, 64 * 128 + 128)

    def test_attention_rows_hand_check(self):
        spec = AttentionSpec(384, hidden=1536, heads=6, head_dim=64)
        entry = block_entry(spec, (14, 14))
        rows = dict((p, (m, n)) for p, m, n in B.LAYERS["attention"].rows(entry, config()))
        assert rows["b.attn.qkv"] == (196 * 384 * 1152, 1152 * 384 + 1152)
        assert rows["b.attn.scores"] == (196 * 196 * 384, 0)
        assert rows["b.attn.apply"] == (196 * 196 * 384, 0)
        assert rows["b.attn.proj"] == (196 * 384 * 384, 384 * 384 + 384)
        assert rows["b.norm1"] == (0, 768)

    def test_norms_and_bias_cost_zero_macs(self):
        spec = AttentionSpec(64, hidden=256, heads=2, head_dim=32)
        rows = B.LAYERS["attention"].rows(block_entry(spec, (7, 7)), config(rel_pos=True))
        by_path = dict((p, m) for p, m, _ in rows)
        assert by_path["b.norm1"] == 0 and by_path["b.norm2"] == 0
        assert by_path["b.attn.relpos"] == 0
        # qkv MACs have no bias term
        assert by_path["b.attn.qkv"] == 49 * 64 * 192


def trunc_normal_reference(rng, shape, std):
    """The direct rejection loop: rescan the whole array after every redraw."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


class TestTruncNormal:
    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (2, 0, 3), (96, 24, 1, 1), (317, 311)])
    def test_matches_reference_loop(self, shape):
        # same values, and the generator left in the same state for the next
        # slot; (317, 311) takes several redraw rounds
        std = 0.02
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = B.trunc_normal(rng, shape)
        want = trunc_normal_reference(ref_rng, shape, std)
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.all(np.abs(got) <= 2 * std)
