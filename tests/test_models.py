"""Model configs, presets, builder determinism, and forward shapes."""

from collections import Counter

import numpy as np
import pytest

from visarch import (
    GraphError,
    NonFiniteError,
    ShapeError,
    backward,
    build,
    config_from_json,
    config_to_json,
    diff_configs,
    layer_plan,
    model_forward,
    preset,
    preset_names,
    shape_table,
)
from visarch.tensor import cross_entropy

FULL_PRESETS = ["deit_s", "net1", "net2", "net3", "net4", "net5", "net6", "net7",
                "resnet50_shape", "visformer_s", "visformer_ti",
                "visformer_v2_s", "visformer_v2_ti"]


def kinds(name):
    return Counter(e.kind for e in layer_plan(preset(name)))


class TestPresets:
    def test_catalog(self):
        names = preset_names()
        assert set(FULL_PRESETS) <= set(names)
        for n in FULL_PRESETS:
            assert f"{n}-micro" in names
        assert len(names) == 2 * len(FULL_PRESETS)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known"):
            preset("nosuch")

    def test_isotropic_transformer_structure(self):
        c = preset("deit_s")
        assert [len(s.blocks) for s in c.stages] == [12]
        assert c.stem is None
        assert c.norm == "layer"
        assert c.head_mode == "cls_token"
        k = kinds("deit_s")
        assert k["attention"] == 12
        assert k["cls"] == 1 and k["pos"] == 1
        assert "stem" not in k and "bottleneck" not in k

    def test_three_stage_hybrid_structure(self):
        c = preset("visformer_s")
        assert [len(s.blocks) for s in c.stages] == [7, 4, 4]
        assert c.stem is not None
        assert c.norm == "batch"
        assert c.head_mode == "gap"
        k = kinds("visformer_s")
        assert k["bottleneck"] == 7 and k["attention"] == 8
        assert k["pos"] == 3

    def test_four_stage_variant_depths(self):
        assert [len(s.blocks) for s in preset("visformer_v2_s").stages] == [1, 10, 14, 3]
        assert [len(s.blocks) for s in preset("visformer_v2_ti").stages] == [1, 3, 7, 3]
        assert preset("visformer_v2_s").pos_mode == "relative"

    def test_conv_reference_structure(self):
        c = preset("resnet50_shape")
        assert [len(s.blocks) for s in c.stages] == [3, 4, 6, 3]
        k = kinds("resnet50_shape")
        assert k["bottleneck"] == 16
        assert k["pool"] == 1
        assert "attention" not in k and "pos" not in k

    def test_micro_variants_are_small(self):
        for n in FULL_PRESETS:
            c = preset(f"{n}-micro")
            assert c.input_resolution == 32
            assert c.num_classes == 10

    @pytest.mark.parametrize("name", FULL_PRESETS)
    def test_config_json_round_trip(self, name):
        c = preset(name)
        assert config_from_json(config_to_json(c)) == c


class TestLadder:
    STEPS = [
        ("deit_s", "net1", {"head"}),
        ("net1", "net2", {"stem", "embeddings"}),
        ("net2", "net3", {"blocks"}),
        ("net3", "net4", {"norm"}),
        ("net4", "net5", {"mlp_conv"}),
        ("net5", "net6", {"position"}),
        ("net6", "net7", {"blocks"}),
    ]

    @pytest.mark.parametrize("a,b,expected", STEPS, ids=[s[1] for s in STEPS])
    def test_each_step_touches_one_component(self, a, b, expected):
        assert diff_configs(preset(a), preset(b)) == expected

    def test_diff_is_symmetric(self):
        a, b = preset("net3"), preset("net4")
        assert diff_configs(a, b) == diff_configs(b, a)

    def test_identical_configs_diff_empty(self):
        assert diff_configs(preset("net2"), preset("net2")) == set()


class TestPlan:
    @pytest.mark.parametrize("name", FULL_PRESETS)
    def test_shapes_chain(self, name):
        rows = shape_table(preset(name))
        for (_, _, out), (_, nxt, _) in zip(rows, rows[1:]):
            assert out == nxt

    def test_indivisible_resolution(self):
        with pytest.raises(ShapeError, match="divisible"):
            layer_plan(preset("visformer_s"), resolution=225)


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build(preset("visformer_ti-micro"), seed=0)
        b = build(preset("visformer_ti-micro"), seed=0)
        for (pa, ta), (pb, tb) in zip(a.params.items(), b.params.items()):
            assert pa == pb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_seed_changes_weights(self):
        a = build(preset("visformer_ti-micro"), seed=0)
        b = build(preset("visformer_ti-micro"), seed=1)
        assert any(ta.data.tobytes() != b.params[p].data.tobytes()
                   for p, ta in a.params.items())


@pytest.fixture(scope="module")
def model():
    return build(preset("visformer_ti-micro"), seed=0)


class TestForward:
    def test_logit_shape(self, model):
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
        assert model_forward(model, x).data.shape == (2, 10)

    def test_eval_deterministic(self, model):
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32)).astype(np.float32)
        a = model_forward(model, x, training=False)
        b = model_forward(model, x, training=False)
        assert a.data.tobytes() == b.data.tobytes()

    def test_eval_rows_independent(self, model):
        # eval mode uses running stats, so duplicated samples get equal logits
        one = np.random.default_rng(2).normal(size=(1, 3, 32, 32)).astype(np.float32)
        x = np.concatenate([one, one])
        out = model_forward(model, x, training=False).data
        assert np.array_equal(out[0], out[1])

    def test_training_updates_buffers(self):
        model = build(preset("visformer_ti-micro"), seed=0)
        before = {k: v.copy() for k, v in model.buffers.items()}
        x = np.random.default_rng(3).normal(size=(4, 3, 32, 32)).astype(np.float32)
        model_forward(model, x, training=True)
        assert any(not np.array_equal(v, before[k])
                   for k, v in model.buffers.items())

    def test_eval_records_no_graph(self, model):
        x = np.random.default_rng(5).normal(size=(2, 3, 32, 32)).astype(np.float32)
        logits = model_forward(model, x, training=False)
        assert logits._backward is None and not logits.requires_grad
        with pytest.raises(GraphError, match="training=True"):
            backward(cross_entropy(logits, np.array([0, 1])))
        assert all(t.grad is None for _, t in model.params.items())

    def test_train_records_graph_after_a_failed_eval(self):
        model = build(preset("visformer_ti-micro"), seed=0)
        with pytest.raises(NonFiniteError):
            model_forward(model, np.full((2, 3, 32, 32), np.nan, np.float32), training=False)
        x = np.random.default_rng(6).normal(size=(2, 3, 32, 32)).astype(np.float32)
        logits = model_forward(model, x, training=True)
        assert logits._backward is not None
        backward(cross_entropy(logits, np.array([0, 1])))
        assert all(t.grad is not None for _, t in model.params.items())

    def test_rejects_bad_channels(self, model):
        with pytest.raises(ShapeError, match="3"):
            model_forward(model, np.zeros((2, 1, 32, 32), np.float32))

    @pytest.mark.parametrize("h,w", [(48, 32), (32, 48)])
    def test_rejects_non_square(self, model, h, w):
        with pytest.raises(ShapeError, match=f"H={h} W={w}"):
            model_forward(model, np.zeros((1, 3, h, w), np.float32))

    @pytest.mark.parametrize("name", ["deit_s-micro", "net4-micro",
                                      "resnet50_shape-micro",
                                      "visformer_v2_ti-micro"])
    def test_forward_covers_families(self, name):
        model = build(preset(name), seed=0)
        x = np.random.default_rng(4).normal(size=(2, 3, 32, 32)).astype(np.float32)
        out = model_forward(model, x, training=True)
        assert out.data.shape == (2, 10)
        assert np.all(np.isfinite(out.data))
