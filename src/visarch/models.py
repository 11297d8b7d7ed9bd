"""Model catalog, deterministic builder, and the forward pass.

A ModelConfig is the single structural description; layer_plan derives the
layer list (with shapes) from it. build, the forward pass, checkpoint
loading and complexity accounting all walk that plan through the one per-kind
table, blocks.LAYERS, so they cannot drift apart.

The catalog holds the two conv/attention hybrid families (ti/s and the v2
variants), the eight-step bridge from the isotropic token model (deit_s,
net1..net7) to the pure-conv reference (resnet50_shape), plus a generated
"<name>-micro" variant of every entry (channels / 4, 32x32 input, 10 classes)
for gradient checking and smoke training.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import blocks as B
from . import tensor as tz
from .blocks import BlockSpec, EmbedSpec
from .tensor import ParamStore, ShapeError, Tensor

NORM_KINDS = ("batch", "layer")
POS_MODES = ("none", "absolute", "relative")
HEAD_MODES = ("gap", "cls_token")


@dataclass(frozen=True)
class StageSpec:
    embed: EmbedSpec | None
    blocks: tuple[BlockSpec, ...]


@dataclass(frozen=True)
class ModelConfig:
    name: str
    input_resolution: int
    num_classes: int
    stem: EmbedSpec | None
    stages: tuple[StageSpec, ...]
    norm: str = "batch"
    pos_mode: str = "none"
    head_mode: str = "gap"
    stem_pool: bool = False
    final_norm: bool = True
    conv_block_style: str = "pre_norm"


@dataclass(frozen=True)
class PlanEntry:
    kind: str
    prefix: str
    spec: object
    in_shape: tuple
    out_shape: tuple


def layer_plan(config: ModelConfig, resolution: int | None = None) -> list[PlanEntry]:
    """Flatten a config into ordered layer entries; validates the structure."""
    if config.norm not in NORM_KINDS:
        raise ShapeError(f"unknown norm kind '{config.norm}'")
    if config.pos_mode not in POS_MODES:
        raise ShapeError(f"unknown position mode '{config.pos_mode}'")
    if config.head_mode not in HEAD_MODES:
        raise ShapeError(f"unknown head mode '{config.head_mode}'")
    tokens_mode = config.head_mode == "cls_token"
    if tokens_mode:
        if len(config.stages) != 1 or config.stem is not None or config.stages[0].embed is None:
            raise ShapeError("a cls_token head requires a single stemless stage with one embedding")
        if config.pos_mode == "relative":
            raise ShapeError("relative position bias is not defined for the cls_token layout")
        for b in config.stages[0].blocks:
            if b.kind == "bottleneck" or b.use_3x3:
                raise ShapeError("conv blocks cannot run on the cls_token layout")

    entries = []
    res = resolution if resolution is not None else config.input_resolution
    c = 3
    if config.stem is not None:
        st = config.stem
        out = tz.out_size(res, st.kernel, st.stride, st.padding)
        entries.append(PlanEntry("stem", "stem", st, (c, res, res), (st.out_channels, out, out)))
        res, c = out, st.out_channels
        if config.stem_pool:
            out = tz.out_size(res, **B.STEM_POOL)
            entries.append(PlanEntry("pool", "stem.pool", None, (c, res, res), (c, out, out)))
            res = out
    elif config.stem_pool:
        raise ShapeError("stem_pool set without a stem")

    hw = None
    for i, stage in enumerate(config.stages):
        sp = f"s{i}"
        if stage.embed is not None:
            e = stage.embed
            if e.kernel != e.stride or e.padding:
                raise ShapeError(f"patch embedding at '{sp}' must have kernel == stride and no padding")
            if res % e.stride:
                raise ShapeError(f"resolution {res} not divisible by stride {e.stride} at '{sp}.embed'")
            out = tz.out_size(res, e.kernel, e.stride, e.padding)
            entries.append(PlanEntry("embed", f"{sp}.embed", e, (c, res, res), (e.out_channels, out, out)))
            res, c = out, e.out_channels
        elif i == 0 and config.stem is None:
            raise ShapeError("the first stage needs an embedding when there is no stem")
        hw = (res, res)
        if tokens_mode:
            t = res * res
            entries.append(PlanEntry("cls", "cls", None, (c, res, res), (c, t + 1, 1)))
            hw = (t + 1, 1)
        if config.pos_mode == "absolute" and stage.embed is not None:
            shape = (c,) + hw
            entries.append(PlanEntry("pos", f"{sp}.pos", None, shape, shape))
        for j, b in enumerate(stage.blocks):
            bp = f"{sp}.b{j}"
            cin = b.in_channels or b.channels
            if cin != c:
                raise ShapeError(f"block '{bp}' expects {cin} input channels, gets {c}")
            if b.kind == "attention":
                if b.attn_inner != b.heads * b.head_dim:
                    raise ShapeError(f"block '{bp}': attn_inner != heads * head_dim")
                entries.append(PlanEntry("attention", bp, b, (c,) + hw, (b.channels,) + hw))
            elif b.kind == "mlp":
                entries.append(PlanEntry("mlp", bp, b, (c,) + hw, (b.channels,) + hw))
            elif b.kind == "bottleneck":
                if b.stride != 1 and config.conv_block_style != "post_norm":
                    raise ShapeError(f"block '{bp}': strided bottlenecks require the post_norm style")
                # conv2 (3x3, pad 1) and the 1x1 proj both stride to this size
                out = tz.out_size(res, 3, b.stride, 1)
                entries.append(PlanEntry("bottleneck", bp, b, (c, res, res), (b.channels, out, out)))
                res = out
                hw = (res, res)
            else:
                raise ShapeError(f"unknown block kind '{b.kind}'")
            c = b.channels
    if config.final_norm:
        entries.append(PlanEntry("final_norm", "final_norm", None, (c,) + hw, (c,) + hw))
    entries.append(PlanEntry("head", "head", None, (c,) + hw, (config.num_classes,)))
    return entries


# ---------------------------------------------------------------------------
# builder


@dataclass
class Model:
    config: ModelConfig
    params: ParamStore
    buffers: dict
    dtype: object
    seed: int


def model_slots(config: ModelConfig) -> list:
    """Every parameter and buffer of the model as blocks.Slot, in initialization order."""
    return [s for e in layer_plan(config) for s in B.LAYERS[e.kind].params(e, config)]


def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Allocate and initialize all parameters; identical seeds give identical bits."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    params, buffers = B.allocate(model_slots(config), lambda s: B.draw(rng, s), dtype)
    return Model(config, params, buffers, np.dtype(dtype), seed)


def model_forward(model: Model, x, training: bool = False) -> Tensor:
    """Run the network on a square (N, 3, H, H) batch; returns (N, num_classes) logits.

    Eval mode (training=False) runs under tz.no_grad: it records no graph, so
    its logits hold no activations and backward() on a loss built from them
    raises GraphError. Train mode records the graph for backward().
    """
    if isinstance(x, np.ndarray):
        x = Tensor(x.astype(model.dtype, copy=False))
    if len(x.shape) != 4 or x.shape[1] != 3:
        raise ShapeError(f"input must be (N, 3, H, W), got {x.shape}")
    height, width = x.shape[2], x.shape[3]
    if height != width:
        raise ShapeError(f"input must be square, got H={height} W={width}")
    with tz.layer_scope(model.config.name), (nullcontext() if training else tz.no_grad()):
        for e in layer_plan(model.config, resolution=width):
            x = B.LAYERS[e.kind].forward(x, e, model, training)
    return x


# ---------------------------------------------------------------------------
# config serialization (lossless JSON round trip)


def config_to_dict(config: ModelConfig) -> dict:
    return asdict(config)


def config_from_dict(d: dict) -> ModelConfig:
    stem = EmbedSpec(**d["stem"]) if d.get("stem") else None
    stages = tuple(
        StageSpec(embed=EmbedSpec(**s["embed"]) if s.get("embed") else None,
                  blocks=tuple(BlockSpec(**b) for b in s["blocks"]))
        for s in d["stages"])
    keys = ("name", "input_resolution", "num_classes", "norm", "pos_mode", "head_mode",
            "stem_pool", "final_norm", "conv_block_style")
    return ModelConfig(stem=stem, stages=stages, **{k: d[k] for k in keys})


def config_to_json(config: ModelConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True)


def config_from_json(text: str) -> ModelConfig:
    return config_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# structural diff


def _flat_blocks(config: ModelConfig) -> list[BlockSpec]:
    return [b for s in config.stages for b in s.blocks]


def diff_configs(a: ModelConfig, b: ModelConfig) -> set:
    """Names of the structural components that differ between two configs.

    Block lists differing only in their use_3x3 flags report 'mlp_conv'
    rather than 'blocks', so rewiring MLPs is distinguishable from
    recomposing the network.
    """
    touched = set()
    if a.head_mode != b.head_mode or a.num_classes != b.num_classes:
        touched.add("head")
    if a.stem != b.stem or a.stem_pool != b.stem_pool:
        touched.add("stem")
    if [s.embed for s in a.stages] != [s.embed for s in b.stages]:
        touched.add("embeddings")
    if a.pos_mode != b.pos_mode:
        touched.add("position")
    if a.norm != b.norm:
        touched.add("norm")
    if a.conv_block_style != b.conv_block_style:
        touched.add("block_style")
    if a.input_resolution != b.input_resolution:
        touched.add("input")
    if a.final_norm != b.final_norm:
        touched.add("final_norm")
    ab, bb = _flat_blocks(a), _flat_blocks(b)
    if ab != bb:
        if len(ab) == len(bb) and all(
                x == replace(y, use_3x3=x.use_3x3) for x, y in zip(ab, bb)):
            touched.add("mlp_conv")
        else:
            touched.add("blocks")
    return touched


# ---------------------------------------------------------------------------
# preset catalog


def _attn(c: int, heads: int, *, head_dim: int = 64, inner: int | None = None,
          use_3x3: bool = False) -> BlockSpec:
    inner = heads * head_dim if inner is None else inner
    return BlockSpec("attention", c, hidden=4 * c, use_3x3=use_3x3,
                     heads=heads, head_dim=head_dim, attn_inner=inner)


def _bneck(c: int, *, groups: int = 8, hidden: int | None = None, stride: int = 1,
           in_channels: int = 0) -> BlockSpec:
    return BlockSpec("bottleneck", c, hidden=2 * c if hidden is None else hidden,
                     groups=groups, stride=stride, in_channels=in_channels)


def _deit_s() -> ModelConfig:
    stage = StageSpec(EmbedSpec(16, 16, 384), tuple(_attn(384, 6) for _ in range(12)))
    return ModelConfig("deit_s", 224, 1000, stem=None, stages=(stage,), norm="layer",
                       pos_mode="absolute", head_mode="cls_token")


def _net1() -> ModelConfig:
    return replace(_deit_s(), name="net1", head_mode="gap")


def _net2() -> ModelConfig:
    stages = (
        StageSpec(EmbedSpec(4, 4, 192), ()),
        StageSpec(EmbedSpec(2, 2, 384), tuple(_attn(384, 6) for _ in range(12))),
        StageSpec(EmbedSpec(2, 2, 768), ()),
    )
    return ModelConfig("net2", 224, 1000, stem=EmbedSpec(7, 2, 32, padding=3, norm_after=True),
                       stages=stages, norm="layer", pos_mode="absolute")


def _ladder_stages(depths: tuple, use_3x3: bool = False) -> tuple:
    """Staged attention bodies for net3..net6: the high-resolution stage runs
    half-width attention (inner C/2, head_dim 32) to keep its cost in line."""
    d1, d2, d3 = depths
    return (
        StageSpec(EmbedSpec(4, 4, 192),
                  tuple(_attn(192, 3, head_dim=32, inner=96, use_3x3=use_3x3) for _ in range(d1))),
        StageSpec(EmbedSpec(2, 2, 384),
                  tuple(_attn(384, 6, use_3x3=use_3x3) for _ in range(d2))),
        StageSpec(EmbedSpec(2, 2, 768),
                  tuple(_attn(768, 12, use_3x3=use_3x3) for _ in range(d3))),
    )


def _net3() -> ModelConfig:
    return ModelConfig("net3", 224, 1000, stem=EmbedSpec(7, 2, 32, padding=3, norm_after=True),
                       stages=_ladder_stages((4, 4, 4)), norm="layer", pos_mode="absolute")


def _net4() -> ModelConfig:
    return replace(_net3(), name="net4", norm="batch")


def _net5() -> ModelConfig:
    return replace(_net4(), name="net5", stages=_ladder_stages((4, 4, 4), use_3x3=True))


def _net6() -> ModelConfig:
    return replace(_net5(), name="net6", pos_mode="none")


def _net7() -> ModelConfig:
    # attention dropped; depths grow round-robin until MACs reach net6's level
    def stage(c, depth):
        hidden = B.conv_mlp_hidden(c, 4 * c, 1)
        return tuple(_bneck(c, groups=1, hidden=hidden) for _ in range(depth))

    stages = (
        StageSpec(EmbedSpec(4, 4, 192), stage(192, 7)),
        StageSpec(EmbedSpec(2, 2, 384), stage(384, 7)),
        StageSpec(EmbedSpec(2, 2, 768), stage(768, 6)),
    )
    return ModelConfig("net7", 224, 1000, stem=EmbedSpec(7, 2, 32, padding=3, norm_after=True),
                       stages=stages, norm="batch", pos_mode="none")


def _visformer(name: str, stem_c: int, chans: tuple, depths: tuple,
               heads: tuple) -> ModelConfig:
    c1, c2, c3 = chans
    d1, d2, d3 = depths
    stages = (
        StageSpec(EmbedSpec(4, 4, c1, norm_after=True), tuple(_bneck(c1) for _ in range(d1))),
        StageSpec(EmbedSpec(2, 2, c2, norm_after=True), tuple(_attn(c2, heads[0]) for _ in range(d2))),
        StageSpec(EmbedSpec(2, 2, c3, norm_after=True), tuple(_attn(c3, heads[1]) for _ in range(d3))),
    )
    return ModelConfig(name, 224, 1000, stem=EmbedSpec(7, 2, stem_c, padding=3, norm_after=True),
                       stages=stages, norm="batch", pos_mode="absolute")


def _visformer_v2(name: str, stem_c: int, chans: tuple, depths: tuple,
                  heads: tuple) -> ModelConfig:
    c1, c2, c3, c4 = chans
    d1, d2, d3, d4 = depths
    stages = (
        StageSpec(EmbedSpec(2, 2, c1, norm_after=True), tuple(_bneck(c1) for _ in range(d1))),
        StageSpec(EmbedSpec(2, 2, c2, norm_after=True), tuple(_bneck(c2) for _ in range(d2))),
        StageSpec(EmbedSpec(2, 2, c3, norm_after=True), tuple(_attn(c3, heads[0]) for _ in range(d3))),
        StageSpec(EmbedSpec(2, 2, c4, norm_after=True), tuple(_attn(c4, heads[1]) for _ in range(d4))),
    )
    return ModelConfig(name, 224, 1000, stem=EmbedSpec(7, 2, stem_c, padding=3, norm_after=True),
                       stages=stages, norm="batch", pos_mode="relative")


def _resnet50_shape() -> ModelConfig:
    def stage(cin, c, depth, stride):
        first = _bneck(c, groups=1, hidden=c // 4, stride=stride, in_channels=cin)
        rest = tuple(_bneck(c, groups=1, hidden=c // 4) for _ in range(depth - 1))
        return StageSpec(None, (first,) + rest)

    stages = (
        stage(64, 256, 3, 1),
        stage(256, 512, 4, 2),
        stage(512, 1024, 6, 2),
        stage(1024, 2048, 3, 2),
    )
    return ModelConfig("resnet50_shape", 224, 1000,
                       stem=EmbedSpec(7, 2, 64, padding=3, norm_after=True), stages=stages,
                       norm="batch", pos_mode="none", stem_pool=True, final_norm=False,
                       conv_block_style="post_norm")


def _micro(config: ModelConfig) -> ModelConfig:
    """Quarter-width 32x32 10-class variant for gradient checks and smoke training."""
    def shrink_embed(e):
        return None if e is None else replace(e, out_channels=e.out_channels // 4)

    def shrink_block(b):
        nb = replace(b, channels=b.channels // 4, hidden=b.hidden // 4,
                     in_channels=b.in_channels // 4)
        if b.kind == "attention":
            inner = b.attn_inner // 4
            nb = replace(nb, attn_inner=inner, head_dim=inner // b.heads)
        return nb

    stages = tuple(StageSpec(shrink_embed(s.embed), tuple(shrink_block(b) for b in s.blocks))
                   for s in config.stages)
    return replace(config, name=config.name + "-micro", input_resolution=32, num_classes=10,
                   stem=shrink_embed(config.stem), stages=stages)


_BASE_PRESETS = {
    "deit_s": _deit_s,
    "net1": _net1,
    "net2": _net2,
    "net3": _net3,
    "net4": _net4,
    "net5": _net5,
    "net6": _net6,
    "net7": _net7,
    "visformer_ti": lambda: _visformer("visformer_ti", 16, (96, 192, 384), (7, 4, 4), (3, 6)),
    "visformer_s": lambda: _visformer("visformer_s", 32, (192, 384, 768), (7, 4, 4), (6, 12)),
    "visformer_v2_ti": lambda: _visformer_v2("visformer_v2_ti", 24, (48, 96, 192, 384),
                                             (1, 3, 7, 3), (3, 6)),
    "visformer_v2_s": lambda: _visformer_v2("visformer_v2_s", 32, (64, 128, 256, 512),
                                            (1, 10, 14, 3), (4, 8)),
    "resnet50_shape": _resnet50_shape,
}


def preset_names() -> list[str]:
    names = sorted(_BASE_PRESETS)
    return names + [n + "-micro" for n in names]


def preset(name: str) -> ModelConfig:
    base = name[:-6] if name.endswith("-micro") else name
    if base not in _BASE_PRESETS:
        raise KeyError(f"unknown preset '{name}' (known: {', '.join(preset_names())})")
    config = _BASE_PRESETS[base]()
    if name.endswith("-micro"):
        config = _micro(config)
    layer_plan(config)
    return config
