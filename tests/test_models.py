"""Model configs, presets, builder determinism, and forward shapes."""

import hashlib
import json
import re
import tracemalloc
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from visarch import (
    GraphError,
    NonFiniteError,
    ShapeError,
    backward,
    build,
    complexity_report,
    config_from_json,
    config_to_json,
    diff_configs,
    layer_plan,
    model_forward,
    preset,
    preset_names,
)
from visarch import models
from visarch.blocks import BUFFER_INITS, LAYERS, AttentionSpec, BottleneckSpec, EmbedSpec
from visarch.models import ModelConfig, config_from_dict, entry_inputs, model_slots, run_plan
from visarch.tensor import Tensor, cross_entropy
from visarch.train import TrainConfig

FULL_PRESETS = ["deit_s", "net1", "net2", "net3", "net4", "net5", "net6", "net7",
                "resnet50_shape", "visformer_s", "visformer_ti",
                "visformer_v2_s", "visformer_v2_ti"]


def kinds(name):
    return Counter(e.kind for e in layer_plan(preset(name)))


def edit_stage(config, i=0, **kw):
    """config with stage i's fields replaced."""
    stages = list(config.stages)
    stages[i] = replace(stages[i], **kw)
    return replace(config, stages=tuple(stages))


def edit_block(config, i=0, **kw):
    """config with the first block of stage i's fields replaced."""
    blocks = config.stages[i].blocks
    return edit_stage(config, i, blocks=(replace(blocks[0], **kw),) + blocks[1:])


# (id, error, config that must be rejected, message). A field foreign to a
# block's kind cannot be set (TypeError) and a field's own value is checked
# when its config is constructed (ValueError); how the fields fit together,
# by layer_plan at the input resolution (ShapeError)
REJECTED = [
    ("norm", ValueError, lambda: replace(preset("net4-micro"), norm="group"),
     "bad model config: norm must be one of ('batch', 'layer'), got 'group'"),
    ("pos-mode", ValueError, lambda: replace(preset("net4-micro"), pos_mode="learned"),
     "pos_mode must be one of"),
    ("head-mode", ValueError, lambda: replace(preset("net1-micro"), head_mode="max"),
     "head_mode must be one of"),
    ("cls-token-stem", ShapeError, lambda: replace(preset("deit_s-micro"), stem=8),
     "single stemless stage"),
    ("cls-token-relative", ShapeError, lambda: replace(preset("deit_s-micro"), pos_mode="relative"),
     "relative position bias"),
    ("cls-token-conv", ShapeError, lambda: edit_block(preset("deit_s-micro"), use_3x3=True),
     "conv blocks cannot run"),
    ("stem-spec", ValueError,
     lambda: replace(preset("net3-micro"), stem=EmbedSpec(2, 8, norm_after=True)),
     "bad model config: stem must be an integer, got EmbedSpec("),
    # the stem is fixed but for its width, its max pool runs exactly when no
    # patch embedding follows it, and a patch embedding's kernel is its stride
    ("pool-without-stem", TypeError, lambda: replace(preset("net1-micro"), stem_pool=True),
     "unexpected keyword argument 'stem_pool'"),
    ("embed-kernel", TypeError, lambda: EmbedSpec(2, 96, kernel=3),
     "unexpected keyword argument 'kernel'"),
    ("embed-padding", TypeError, lambda: EmbedSpec(2, 96, padding=1),
     "unexpected keyword argument 'padding'"),
    ("embed-indivisible", ShapeError, lambda: replace(preset("deit_s-micro"), input_resolution=36),
     "36 not divisible by stride 16 at 's0.embed'"),
    ("no-first-embed", ShapeError, lambda: edit_stage(preset("net1-micro"), embed=None),
     "the first stage needs an embedding"),
    ("block-channels", ShapeError, lambda: edit_block(preset("net1-micro"), channels=48),
     "block 's0.b0': only a post_norm bottleneck may change width or stride, "
     "got 96 -> 48 channels"),
    ("attn-heads", ValueError, lambda: edit_block(preset("net1-micro"), heads=0),
     "bad attention spec: heads must be >= 1, got 0"),
    ("strided-pre-norm", ShapeError, lambda: edit_block(preset("visformer_ti-micro"), stride=2),
     "block 's0.b0': only a post_norm bottleneck may change width or stride"),
    ("widening-pre-norm", ShapeError, lambda: edit_block(preset("visformer_ti-micro"), channels=48),
     "block 's0.b0': only a post_norm bottleneck may change width"),
    ("widening-attention", ShapeError,
     lambda: edit_block(preset("visformer_ti-micro"), 1, channels=96),
     "block 's1.b0': only a post_norm bottleneck may change width"),
    ("block-kind", TypeError, lambda: AttentionSpec(24, 96, 1, 24, kind="bottleneck"),
     "unexpected keyword argument 'kind'"),
    ("bottleneck-groups", ShapeError, lambda: edit_block(preset("visformer_ti-micro"), hidden=44),
     "block 's0.b0': hidden width 44 not divisible by groups 8"),
    ("use-3x3-zero-width", ShapeError,
     lambda: edit_block(preset("net5-micro"), hidden=1),
     "block 's0.b0': use_3x3 MLP width is 0"),
    # each block kind takes only its own fields
    ("attn-inner", TypeError, lambda: edit_block(preset("net1-micro"), attn_inner=64),
     "unexpected keyword argument 'attn_inner'"),
    ("strided-attention", TypeError, lambda: edit_block(preset("net1-micro"), stride=2),
     "unexpected keyword argument 'stride'"),
    # the MLP conv is never grouped, and the plan works out where a final norm goes
    ("attention-groups", TypeError, lambda: edit_block(preset("net5-micro"), groups=2),
     "unexpected keyword argument 'groups'"),
    ("final-norm", TypeError, lambda: replace(preset("net5-micro"), final_norm=False),
     "unexpected keyword argument 'final_norm'"),
    ("no-stages", ShapeError, lambda: replace(preset("net1-micro"), stages=()),
     "a model needs at least one stage"),
    # the stage tree's types, checked as each part is made: these used to raise a bare
    # AttributeError in layer_plan, and a list made a config that hash() rejects
    ("stage-not-spec", ValueError, lambda: ModelConfig("x", 32, 10, 0, stages=(1,)),
     "bad model config: stages must be a tuple of StageSpec, got 1 (int)"),
    ("stages-list", ValueError, lambda: replace(preset("net1-micro"),
                                                stages=list(preset("net1-micro").stages)),
     "bad model config: stages must be a tuple of StageSpec, got list"),
    ("block-not-spec", ValueError, lambda: edit_stage(preset("net1-micro"), blocks=("x",)),
     "bad stage spec: blocks must be a tuple of AttentionSpec or BottleneckSpec, got 'x' (str)"),
    ("blocks-list", ValueError,
     lambda: edit_stage(preset("net1-micro"), blocks=list(preset("net1-micro").stages[0].blocks)),
     "bad stage spec: blocks must be a tuple of AttentionSpec or BottleneckSpec, got list"),
    ("embed-not-spec", ValueError, lambda: edit_stage(preset("net1-micro"), embed="e"),
     "bad stage spec: embed must be an EmbedSpec or None, got 'e' (str)"),
    # a model-wide field must have a layer that reads it
    ("post-norm-without-bottleneck", ShapeError,
     lambda: replace(preset("net5-micro"), conv_block_style="post_norm"),
     "conv_block_style='post_norm' needs a bottleneck"),
    ("relative-without-attention", ShapeError,
     lambda: replace(preset("net7-micro"), pos_mode="relative"),
     "pos_mode='relative' needs an attention block"),
    ("absolute-without-embedding", ShapeError,
     lambda: replace(preset("resnet50_shape-micro"), pos_mode="absolute"),
     "pos_mode='absolute' needs a stage embedding"),
] + [(f"{field}-on-{kind}", TypeError,
      lambda i=i, field=field: edit_block(preset("visformer_ti-micro"), i, **{field: 1}),
      f"unexpected keyword argument '{field}'")
     for kind, i, fields in [("bottleneck", 0, ("use_3x3", "heads", "head_dim", "attn_inner")),
                             ("attention", 1, ("in_channels",))]
     for field in fields]

# (preset, layer) sites where each field of the layer's spec class can show:
# every spec class, a stem and a patch embedding, pre- and post-norm
# bottlenecks, and attention with and without the MLP conv or relative bias
FIELD_SITES = [
    ("visformer_ti-micro", "stem"), ("resnet50_shape-micro", "stem"),
    ("deit_s-micro", "s0.embed"), ("visformer_ti-micro", "s1.embed"),
    ("deit_s-micro", "s0.b0"), ("net5-micro", "s0.b0"),
    ("visformer_ti-micro", "s1.b0"), ("visformer_v2_ti-micro", "s2.b0"),
    ("visformer_ti-micro", "s0.b0"), ("net7-micro", "s0.b0"),
    # s1.b0 strides an 8x8 map; a stride on a 2x2 map could not show
    ("resnet50_shape-micro", "s1.b0"),
]


def layer_at(config, site):
    """The spec at 's<i>.embed' or 's<i>.b0'; at 'stem', the config, whose
    stem field (the stem's width) is all a config sets of its stem."""
    if site == "stem":
        return config
    stage = config.stages[int(site[1])]
    return stage.embed if site.endswith("embed") else stage.blocks[0]


def edit_layer(config, site, **kw):
    """config with the spec at site's fields replaced."""
    if site == "stem":
        return replace(config, **kw)
    i = int(site[1])
    if site.endswith("embed"):
        return edit_stage(config, i, embed=replace(config.stages[i].embed, **kw))
    return edit_block(config, i, **kw)


FIELD_EDITS = [(name, site, field) for name, site in FIELD_SITES
               for field in (["stem"] if site == "stem" else
                             [f.name for f in fields(layer_at(preset(name), site)) if f.init])]

# every other value of each model-wide style field on every micro preset
MODEL_EDITS = [(name, field, value) for name in preset_names() if name.endswith("-micro")
               for field in ("conv_block_style", "pos_mode")
               for value in ModelConfig.CHOICES[field] if value != getattr(preset(name), field)]

# a valid instance of each config class, keyed by what its messages call it
VALID = {
    "embedding spec": lambda: EmbedSpec(4, 8),
    "attention spec": lambda: AttentionSpec(8, 16, heads=2, head_dim=4),
    "bottleneck spec": lambda: BottleneckSpec(8, 16),
    "model config": lambda: preset("visformer_ti-micro"),
    "train config": lambda: TrainConfig("visformer_ti-micro", 1, 4),
}
# (class, field, a value its rule rejects): every number field below its floor
# or not finite, every choice field off its list
BAD_FIELDS = [
    ("embedding spec", "stride", 0), ("embedding spec", "out_channels", -8),
    ("attention spec", "channels", 0), ("attention spec", "hidden", 0),
    ("attention spec", "heads", 0), ("attention spec", "head_dim", 0),
    ("bottleneck spec", "channels", 0), ("bottleneck spec", "hidden", 0),
    ("bottleneck spec", "groups", 0), ("bottleneck spec", "stride", 0),
    ("model config", "input_resolution", 0), ("model config", "num_classes", 0),
    ("model config", "stem", -1),
    ("model config", "norm", "group"), ("model config", "pos_mode", "learned"),
    ("model config", "head_mode", "max"), ("model config", "conv_block_style", "bogus"),
    ("train config", "optimizer", "sgd"), ("train config", "epochs", 0),
    ("train config", "batch_size", 0), ("train config", "base_lr", -0.1),
    ("train config", "lr_floor", float("nan")), ("train config", "weight_decay", float("inf")),
    ("train config", "momentum", -0.5), ("train config", "seed", -1),
    ("train config", "crop_pad", -1), ("train config", "data_classes", -1),
    ("train config", "data_per_class", 0), ("train config", "data_seed", -1),
    # the train config's own floor, above check_fields' 0: the default dataset needs two classes
    ("train config", "data_classes", 0), ("train config", "data_classes", 1),
]
# '<class>-<field>', with '-<value>' after it where the pair came before
BAD_FIELD_IDS = [f"{w.split()[0]}-{f}" + (f"-{v}" if any(r[:2] == (w, f) for r in BAD_FIELDS[:i])
                                          else "")
                 for i, (w, f, v) in enumerate(BAD_FIELDS)]


class TestFieldRules:
    @pytest.mark.parametrize("what,field,value", BAD_FIELDS, ids=BAD_FIELD_IDS)
    def test_rejects_value_at_construction(self, what, field, value):
        with pytest.raises(ValueError, match=f"^bad {what}: {field} must be "):
            replace(VALID[what](), **{field: value})

    def test_message_names_rule_and_value(self):
        with pytest.raises(ValueError, match=re.escape(
                "bad bottleneck spec: groups must be >= 1, got 0")):
            BottleneckSpec(8, hidden=16, groups=0)
        with pytest.raises(ValueError, match=re.escape(
                "bad model config: conv_block_style must be one of ('pre_norm', 'post_norm'), "
                "got 'bogus'")):
            replace(preset("net7-micro"), conv_block_style="bogus")
        # data_classes' floor is the default dataset's 2; below 0, check_fields names it first.
        # Before, 0 and 1 passed, and train() failed in synth_dataset naming no config field
        for value, rule in ((1, ">= 2, got 1"), (-1, ">= 0, got -1")):
            with pytest.raises(ValueError, match=re.escape(
                    f"bad train config: data_classes must be {rule}")):
                replace(VALID["train config"](), data_classes=value)

    def test_floor_itself_is_valid(self):
        replace(VALID["embedding spec"](), stride=1)
        replace(VALID["model config"](), stem=0)
        replace(VALID["train config"](), base_lr=0.0, lr_floor=0.0, seed=0,
                data_per_class=1, data_classes=2)

    def test_int_ceiling_is_the_largest_numpy_shape(self):
        replace(VALID["train config"](), seed=2 ** 63 - 1)
        with pytest.raises(ValueError, match=re.escape(
                "bad train config: seed must be <= 2**63 - 1, got an integer of 64 bits")):
            replace(VALID["train config"](), seed=2 ** 63)

    def test_an_int_in_a_float_field_must_convert_to_a_float(self):
        # it used to pass, and cosine_lr then raised a bare OverflowError
        replace(VALID["train config"](), base_lr=2 ** 1023, lr_floor=0.0)
        with pytest.raises(ValueError, match=re.escape(
                "bad train config: base_lr must be <= the largest float, got an integer of "
                "1329 bits")):
            replace(VALID["train config"](), base_lr=10 ** 400)

    def test_huge_width_is_rejected_by_the_parse(self):
        # it used to parse, and layer_plan then raised a bare OverflowError
        d = asdict(preset("net5-micro"))
        d["stages"][0]["embed"]["out_channels"] = 10 ** 400
        d["stages"][0]["blocks"] = [dict(b, channels=10 ** 400) for b in d["stages"][0]["blocks"]]
        with pytest.raises(ValueError, match=re.escape(
                "bad embedding spec: out_channels must be <= 2**63 - 1, got an integer of "
                "1329 bits")):
            config_from_dict(d)


class TestPresets:
    def test_catalog(self):
        names = preset_names()
        assert set(FULL_PRESETS) <= set(names)
        for n in FULL_PRESETS:
            assert f"{n}-micro" in names
        assert len(names) == 2 * len(FULL_PRESETS)
        for n in names:  # a frozen config holds only tuples, so it can key a dict
            hash(preset(n))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known"):
            preset("nosuch")

    def test_isotropic_transformer_structure(self):
        c = preset("deit_s")
        assert [len(s.blocks) for s in c.stages] == [12]
        assert c.stem == 0
        assert c.norm == "layer"
        assert c.head_mode == "cls_token"
        k = kinds("deit_s")
        assert k["attention"] == 12
        assert k["cls"] == 1 and k["pos"] == 1
        assert "stem" not in k and "bottleneck" not in k

    def test_three_stage_hybrid_structure(self):
        c = preset("visformer_s")
        assert [len(s.blocks) for s in c.stages] == [7, 4, 4]
        assert c.stem == 32
        assert c.norm == "batch"
        assert c.head_mode == "gap"
        k = kinds("visformer_s")
        assert k["bottleneck"] == 7 and k["attention"] == 8
        assert k["pos"] == 3 and k["final_norm"] == 1

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
        # its last post-norm bottleneck ends in a norm, so no final norm follows
        assert "attention" not in k and "pos" not in k and "final_norm" not in k

    def test_micro_variants_are_small(self):
        for n in FULL_PRESETS:
            c = preset(f"{n}-micro")
            assert c.input_resolution == 32
            assert c.num_classes == 10

    @pytest.mark.parametrize("name", FULL_PRESETS)
    def test_config_json_round_trip(self, name):
        c = preset(name)
        assert config_from_json(config_to_json(c)) == c

    @pytest.mark.parametrize("name", preset_names())
    def test_config_json_is_pinned(self, name):
        # every field of every preset, beyond what the MAC and parameter totals see
        digest = hashlib.sha256(config_to_json(preset(name)).encode()).hexdigest()
        assert digest == CONFIG_DIGESTS[name]


# sha256 of config_to_json(preset(name)) for every preset
CONFIG_DIGESTS = {
    "deit_s": "013efcacdee2cdf005872782457f487c95a203b3368d09938ae2d8f734e0a257",
    "deit_s-micro": "57eec10ed09c91bc95cd24b31e8380c28f5b5d16f6e1b17f6af45c6f20e869a6",
    "net1": "cceb3972d4720b28e77056c4a9733fe58691a2fc40e29334cddbbfc01d4d0612",
    "net1-micro": "c3e01d4622f8d898a3a893ccdb317040e152b658ee17fa199317557152b14675",
    "net2": "ac724a4f923fa5129bcf04b8ed189a6e4d7a0d99135ffc9ec19ba0f6a9458828",
    "net2-micro": "158ea670b147b801bb06821e499865c239230da47b44196a3b282d1311b3f791",
    "net3": "65b67e96244bfdf994857b7eb2b2577a1d938dbfd7265cf22be36bc6a9352bad",
    "net3-micro": "c1f1e44999662532d31d6e929f1a6941c60f8c85715f885a99ef0f52008be401",
    "net4": "0b4045fbea1d195a41cda30925c303c0b0284bb0e1939a8a2beb52987597a76e",
    "net4-micro": "5f6bcb3a5120b4e3b4e95aa5c14e6730eb10d6c2433958146d2c0d328ff6470b",
    "net5": "56acf675baebb80f433ad8a3302aa4b4c9dffe966b910426b54b5d792397c321",
    "net5-micro": "9cd392b04017b20c48f97513bcf1905b201491617a0f99bc83b50aa828e632ec",
    "net6": "6332baa640e392e8fcccee41f309088b1ddd70925a00662f4cc2305e35c6f55c",
    "net6-micro": "da716e7d20ba642645b69fc93b4b80549367acf0c0b63a3d98c82857da8dad00",
    "net7": "7aee2be60f034c057e6d9ef5ef9fda83fa75d923f6111832c554cda8a2aaeaa9",
    "net7-micro": "ffe3f6ba33a6caa37516f1104873bd6be62e5f70ac026b95987a7a6dd93dd0ef",
    "resnet50_shape": "4ba79d23c2be4c99d59f999be660a9080eac00287c500712674879b0817f25b4",
    "resnet50_shape-micro": "af4d7bf94c764a18fe32655ce9c7fac3bb89490b1283e312445d9e0d60f11dca",
    "visformer_s": "e98cc864516dd2606ff317fcb0c256c2195d21dd4bb80e4a72825873fcd143ba",
    "visformer_s-micro": "4c8b607054f0f389f49f610344a0bcfb9f2c438ab41d757c2bf7d374443a8055",
    "visformer_ti": "3ecefb7df7c7812472265a0967505d905aa4be590202fb0ac4fbaf581d537df1",
    "visformer_ti-micro": "7fd69d2f71585e2c115996f492887f9a42fc69819a69e010ffd8f259362708db",
    "visformer_v2_s": "17f193b63c8ed479e71ec8e3af14a5e80de07aa163ad3d12402fe0d069e00be5",
    "visformer_v2_s-micro": "b9ee9bebbcb2dca543db5baaa058a13bd00badefb950d5632e3d3a3fb8d7cde0",
    "visformer_v2_ti": "72eb559bd885e2910a274aadf3ef17b6d915b71c215e47168c841e2298967b9c",
    "visformer_v2_ti-micro": "484def3d75f604eb2845494951d986aa7aa22c9dce1cc755272f9a1eae496942",
}


class TestLadder:
    # (preset, preset or a one-field edit of the first, components reported)
    STEPS = [
        ("deit_s", "net1", {"head"}),
        ("net1", "net2", {"stem", "embeddings"}),
        ("net2", "net3", {"blocks"}),
        ("net3", "net4", {"norm"}),
        ("net4", "net5", {"mlp_conv"}),
        ("net5", "net6", {"position"}),
        ("net6", "net7", {"blocks"}),
        ("net7-micro", {"conv_block_style": "post_norm"}, {"block_style"}),
        ("deit_s-micro", {"input_resolution": 64}, {"input"}),
    ]

    @pytest.mark.parametrize("a,b,expected", STEPS,
                             ids=[s[1] if isinstance(s[1], str) else "-".join(s[2]) for s in STEPS])
    def test_each_step_touches_one_component(self, a, b, expected):
        a = preset(a)
        b = replace(a, **b) if isinstance(b, dict) else preset(b)
        assert diff_configs(a, b) == expected

    def test_diff_is_symmetric(self):
        a, b = preset("net3"), preset("net4")
        assert diff_configs(a, b) == diff_configs(b, a)

    def test_kind_switch_reports_blocks(self):
        # only an attention pair can differ by its MLP conv alone
        a = preset("net5-micro")
        b = edit_stage(a, blocks=(BottleneckSpec(48, 96),) + a.stages[0].blocks[1:])
        assert diff_configs(a, b) == diff_configs(b, a) == {"blocks"}

    def test_identical_configs_diff_empty(self):
        assert diff_configs(preset("net2"), preset("net2")) == set()

    def test_a_block_moved_across_a_strided_embedding_reports_blocks(self):
        # the flattened block lists are equal, but the moved block runs at
        # stride 16 instead of 8, so the MACs differ
        blk = AttentionSpec(64, 256, 2, 32)

        def split(first, second):
            return ModelConfig("moved", 32, 10, 16, (models.StageSpec(EmbedSpec(4, 64), first),
                                                     models.StageSpec(EmbedSpec(2, 64), second)))

        a, b = split((blk, blk), (blk,)), split((blk,), (blk, blk))
        assert (complexity_report(a).total_macs, complexity_report(b).total_macs) == \
            (2_767_488, 2_146_944)
        assert diff_configs(a, b) == diff_configs(b, a) == {"blocks"}


class TestPlan:
    @pytest.mark.parametrize("name", FULL_PRESETS)
    def test_shapes_chain(self, name):
        plan = layer_plan(preset(name))
        for e, nxt in zip(plan, plan[1:]):
            assert e.out_shape == nxt.in_shape

    @pytest.mark.parametrize("name", preset_names())
    def test_every_parameter_belongs_to_one_plan_entry(self, name):
        # gradcheck resumes a parameter's probes at the one entry that owns it
        config = preset(name)
        owners = Counter(s.path for e in layer_plan(config)
                         for s in LAYERS[e.kind].params(e, config))
        params = [s.path for s in model_slots(config) if s.init not in BUFFER_INITS]
        assert params and all(owners[p] == 1 for p in params)

    def test_indivisible_resolution(self):
        with pytest.raises(ShapeError, match="divisible"):
            layer_plan(preset("visformer_s"), resolution=225)

    @pytest.mark.parametrize("name", ["deit_s", "net1"])
    @pytest.mark.parametrize("res", [-16, 0])
    def test_resolution_below_1(self, name, res):
        # a stemless model has no window rule to catch it
        with pytest.raises(ShapeError, match=f"input resolution must be >= 1, got {res}"):
            complexity_report(preset(name), res)

    @pytest.mark.parametrize("res", [32.0, True, "32", np.float64(32.0), np.True_, [32]])
    def test_resolution_must_be_an_integer(self, res):
        # 32.0 would give float shapes, and True would be read as 1
        with pytest.raises(ShapeError, match=re.escape(f"must be an integer, got {res!r}")):
            layer_plan(preset("deit_s"), res)

    @pytest.mark.parametrize("error,make,match", [r[1:] for r in REJECTED],
                             ids=[r[0] for r in REJECTED])
    def test_rejects_config_that_cannot_run(self, error, make, match):
        # the block forwards check none of this
        with pytest.raises(error, match=re.escape(match)) as caught:
            layer_plan(make())
        assert caught.type is error


# deit_s-micro with relative position bias, which its cls_token layout cannot run,
# made each way a config is made
RELATIVE_DEIT = {
    "constructor": lambda: ModelConfig(**{**{f.name: getattr(preset("deit_s-micro"), f.name)
                                             for f in fields(ModelConfig)},
                                          "pos_mode": "relative"}),
    "replace": lambda: replace(preset("deit_s-micro"), pos_mode="relative"),
    "from-dict": lambda: config_from_dict({**asdict(preset("deit_s-micro")),
                                           "pos_mode": "relative"}),
    "from-json": lambda: config_from_json(json.dumps({**asdict(preset("deit_s-micro")),
                                                      "pos_mode": "relative"})),
}


class TestMadeWhole:
    @pytest.mark.parametrize("how", list(RELATIVE_DEIT))
    def test_a_config_layer_plan_rejects_cannot_be_made(self, how):
        # before, each of these returned a config, and only build raised
        with pytest.raises(ShapeError, match=re.escape(
                "relative position bias is not defined for the cls_token layout")) as caught:
            RELATIVE_DEIT[how]()
        assert caught.type is ShapeError

    def test_layer_plan_runs_once_per_config_made_at_its_own_resolution(self, monkeypatch):
        # a -micro preset makes its base and then its edit; preset() used to plan a third time
        seen = []
        monkeypatch.setattr(models, "layer_plan", lambda c, r=None: seen.append((c.name, r)))
        base = preset("deit_s-micro")
        assert seen == [("deit_s", None), ("deit_s-micro", None)]
        replace(base, input_resolution=64)
        assert seen[2:] == [("deit_s-micro", None)]


class TestFieldsShow:
    @staticmethod
    def eval_logits(config):
        x = np.random.default_rng(0).normal(size=(2, 3, config.input_resolution,
                                                  config.input_resolution))
        return model_forward(build(config, seed=0), x.astype(np.float32)).data

    def assert_shows(self, base, edit, what):
        """edit() is rejected, or it shows in the complexity rows or the logits."""
        try:
            edited = edit()
            rows = complexity_report(edited).rows
        except (ValueError, TypeError, ShapeError):
            return
        if rows == complexity_report(base).rows:
            assert not np.array_equal(self.eval_logits(edited), self.eval_logits(base)), \
                f"{what} builds the same model"

    @pytest.mark.parametrize("name,site,field", FIELD_EDITS,
                             ids=[f"{n}-{s}-{f}" for n, s, f in FIELD_EDITS])
    def test_every_layer_field_changes_the_model_or_is_rejected(self, name, site, field):
        # doubling an int or flipping a bool is an edit of the network
        base = preset(name)
        value = getattr(layer_at(base, site), field)
        value = (not value) if isinstance(value, bool) else 2 * value or 1
        self.assert_shows(base, lambda: edit_layer(base, site, **{field: value}),
                          f"{field}={value!r} at {name} {site}")

    @pytest.mark.parametrize("name,field,value", MODEL_EDITS,
                             ids=[f"{n}-{f}-{v}" for n, f, v in MODEL_EDITS])
    def test_every_model_style_changes_the_model_or_is_rejected(self, name, field, value):
        base = preset(name)
        self.assert_shows(base, lambda: replace(base, **{field: value}),
                          f"{field}={value!r} on {name}")


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

    @pytest.mark.parametrize("name", ["visformer_ti-micro", "deit_s-micro",
                                      "resnet50_shape-micro"])
    def test_eval_run_plan_and_entry_inputs_record_no_graph(self, name):
        # one eval rule: run_plan and entry_inputs give model_forward's bits, graph-free
        model = build(preset(name), seed=0)
        plan = layer_plan(model.config)
        x = np.random.default_rng(5).normal(size=(2, 3, 32, 32)).astype(np.float32)
        logits = model_forward(model, x, training=False).data
        ran = run_plan(model, plan, Tensor(x), False)
        inputs = entry_inputs(model, plan, Tensor(x), False)
        assert ran.data.tobytes() == inputs[-1].data.tobytes() == logits.tobytes()
        for t in [ran] + inputs[1:]:
            assert not t.requires_grad and t._backward is None and t._parents == ()
        for out in (ran, inputs[-1]):
            with pytest.raises(GraphError, match="no recorded graph"):
                backward(cross_entropy(out, np.array([0, 1])))
        assert all(t.grad is None for _, t in model.params.items())

    def test_eval_entry_inputs_hold_only_what_they_return(self):
        # a recorded eval graph held 25x the returned bytes at batch 8
        model = build(preset("visformer_ti-micro"), seed=0)
        plan = layer_plan(model.config)
        x = Tensor(np.random.default_rng(5).normal(size=(8, 3, 32, 32)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            inputs = entry_inputs(model, plan, x, False)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        returned = sum(t.data.nbytes for t in inputs[1:])
        assert held <= 1.5 * returned, f"held {held} B for {returned} B of entry outputs"

    def test_train_records_graph_after_a_failed_eval(self):
        model = build(preset("visformer_ti-micro"), seed=0)
        with pytest.raises(NonFiniteError):
            model_forward(model, np.full((2, 3, 32, 32), np.nan, np.float32), training=False)
        x = np.random.default_rng(6).normal(size=(2, 3, 32, 32)).astype(np.float32)
        logits = model_forward(model, x, training=True)
        assert logits._backward is not None
        backward(cross_entropy(logits, np.array([0, 1])))
        assert all(t.grad is not None for _, t in model.params.items())

    def test_nan_leaf_through_shape_ops_names_next_compute_op(self):
        # the cls token passes batch_tile and concat unchecked; the pos add checks it
        model = build(preset("deit_s-micro"), seed=0)
        model.params["cls"].data[0, 0, 0] = np.nan
        x = np.zeros((2, 3, 32, 32), np.float32)
        with pytest.raises(NonFiniteError, match="add .*'deit_s-micro.s0.pos'"):
            model_forward(model, x)

    def test_nan_names_the_plan_entry_that_made_it(self):
        # run_plan scopes every entry, final_norm included
        model = build(preset("visformer_ti-micro"), seed=0)
        model.params["final_norm.gamma"].data[3] = np.nan
        x = np.zeros((2, 3, 32, 32), np.float32)
        with pytest.raises(NonFiniteError, match="batch_norm .*'visformer_ti-micro.final_norm'$"):
            model_forward(model, x)

    def test_rejects_empty_batch(self):
        model = build(preset("deit_s-micro"), seed=0)
        for training in (False, True):
            with pytest.raises(ShapeError, match=re.escape("N >= 1, got (0, 3, 32, 32)")):
                model_forward(model, np.zeros((0, 3, 32, 32), np.float32), training=training)

    @pytest.mark.parametrize("x,kind", [(np.zeros((1, 3, 32, 32)).tolist(), "list"),
                                        ((0.0,), "tuple"), (None, "NoneType")],
                             ids=["list", "tuple", "None"])
    def test_rejects_input_that_is_not_an_array(self, model, x, kind):
        # a list was a bare AttributeError on .shape
        with pytest.raises(ShapeError, match=f"an ndarray or a Tensor, got {kind}$"):
            model_forward(model, x)

    @pytest.mark.parametrize("dtype", [np.complex128, np.bool_, object, np.str_])
    def test_rejects_array_that_is_not_numbers(self, model, dtype):
        # a complex input ran with a ComplexWarning, its imaginary part dropped
        x = np.zeros((1, 3, 32, 32), dtype=dtype)
        with pytest.raises(ShapeError, match=f"integer or floating type, got {x.dtype}$"):
            model_forward(model, x)

    def test_rejects_bad_channels(self, model):
        with pytest.raises(ShapeError, match="3"):
            model_forward(model, np.zeros((2, 1, 32, 32), np.float32))

    @pytest.mark.parametrize("h,w", [(48, 32), (32, 48)])
    def test_rejects_non_square(self, model, h, w):
        with pytest.raises(ShapeError, match=f"H={h} W={w}"):
            model_forward(model, np.zeros((1, 3, h, w), np.float32))

    @pytest.mark.parametrize("name,table,held,needed", [
        ("visformer_ti-micro", "s0.pos", (24, 4, 4), (24, 8, 8)),
        ("deit_s-micro", "s0.pos", (96, 5, 1), (96, 17, 1)),
        ("visformer_v2_ti-micro", "s2.b0.attn.relpos", (9, 3), (49, 3)),
    ])
    def test_other_resolution_names_the_learned_table(self, name, table, held, needed):
        # a table sized at build time cannot run at 64: say which, not a numpy broadcast error
        model = build(preset(name), seed=0)
        with pytest.raises(ShapeError, match=re.escape(
                f"'{table}' is {held}, built for resolution 32; resolution 64 needs {needed}")):
            model_forward(model, np.zeros((1, 3, 64, 64), np.float32))

    def test_other_resolution_runs_without_learned_tables(self):
        model = build(preset("resnet50_shape-micro"), seed=0)
        x = np.random.default_rng(4).normal(size=(2, 3, 64, 64)).astype(np.float32)
        out = model_forward(model, x)
        assert out.data.shape == (2, 10) and np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("name", ["deit_s-micro", "net4-micro",
                                      "resnet50_shape-micro",
                                      "visformer_v2_ti-micro"])
    def test_forward_covers_families(self, name):
        model = build(preset(name), seed=0)
        x = np.random.default_rng(4).normal(size=(2, 3, 32, 32)).astype(np.float32)
        out = model_forward(model, x, training=True)
        assert out.data.shape == (2, 10)
        assert np.all(np.isfinite(out.data))
