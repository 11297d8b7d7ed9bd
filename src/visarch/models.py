"""Model catalog, deterministic builder, and the forward pass.

A ModelConfig is the single structural description; layer_plan checks it as it
is made and derives the layer list (with shapes) from it. build, the forward pass,
checkpoint loading and complexity accounting all walk that plan through the one
per-kind table, blocks.LAYERS, so they cannot drift apart. A config gives only a
stem's width (every stem is blocks.STEM) and a patch embedding's stride (its kernel).

The catalog holds the two conv/attention hybrid families (ti/s and the v2
variants), the eight-step bridge from the isotropic token model (deit_s,
net1..net7) to the pure-conv reference (resnet50_shape), plus a generated
"<name>-micro" variant of every entry (channels / 4, 32x32 input, 10 classes)
for gradient checking and smoke training.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import blocks as B
from . import tensor as tz
from .blocks import AttentionSpec, BottleneckSpec, EmbedSpec
from .tensor import ParamStore, ShapeError, Tensor


def _check_tuple(obj, what: str, name: str, types: tuple) -> None:
    """Raise ValueError in check_fields' form unless obj's field name is a tuple of
    types: a list would make a frozen config that hash() rejects."""
    value = getattr(obj, name)
    if not isinstance(value, tuple):
        got = type(value).__name__
    elif all(isinstance(v, types) for v in value):
        return
    else:
        v = next(v for v in value if not isinstance(v, types))
        got = f"{v!r} ({type(v).__name__})"
    raise ValueError(f"bad {what}: {name} must be a tuple of "
                     f"{' or '.join(t.__name__ for t in types)}, got {got}")


@dataclass(frozen=True)
class StageSpec:
    """An optional patch embedding, then blocks; each field's type is checked as a
    stage is made, and how the stage fits its model by layer_plan."""

    embed: EmbedSpec | None
    blocks: tuple[AttentionSpec | BottleneckSpec, ...]

    def __post_init__(self):
        if not (self.embed is None or isinstance(self.embed, EmbedSpec)):
            raise ValueError(f"bad stage spec: embed must be an EmbedSpec or None, "
                             f"got {self.embed!r} ({type(self.embed).__name__})")
        _check_tuple(self, "stage spec", "blocks", (AttentionSpec, BottleneckSpec))


@dataclass(frozen=True)
class ModelConfig:
    """A model's structure; making one by any route runs check_fields, checks that
    stages is a tuple of StageSpec, then runs layer_plan."""

    POSITIVE = ("input_resolution", "num_classes")
    CHOICES = {"norm": ("batch", "layer"), "pos_mode": ("none", "absolute", "relative"),
               "head_mode": ("gap", "cls_token"), "conv_block_style": ("pre_norm", "post_norm")}

    name: str
    input_resolution: int
    num_classes: int
    stem: int  # the stem's width; 0 for no stem
    stages: tuple[StageSpec, ...]
    norm: str = "batch"
    pos_mode: str = "none"
    head_mode: str = "gap"
    conv_block_style: str = "pre_norm"

    def __post_init__(self):
        B.check_fields(self, "model config")
        _check_tuple(self, "model config", "stages", (StageSpec,))
        layer_plan(self)


@dataclass(frozen=True)
class PlanEntry:
    kind: str
    prefix: str
    spec: object
    in_shape: tuple
    out_shape: tuple


def layer_plan(config: ModelConfig, resolution: int | None = None) -> list[PlanEntry]:
    """Flatten a config into ordered layer entries.

    This is the one structural check, run as a config is made (at its own resolution)
    and at each explicit resolution (an integer >= 1): field values were checked first
    and the block forwards check nothing, so every rule on how fields fit is enforced here.
    It also works out what no config holds: a stem pool when no embedding follows
    the stem, and a final norm unless a post-norm bottleneck (ending in a norm) is last.
    """
    res = (config.input_resolution if resolution is None
           else tz.check_count("input resolution", resolution, 1, ShapeError))
    if not config.stages:
        raise ShapeError("a model needs at least one stage")
    tokens_mode = config.head_mode == "cls_token"
    if tokens_mode:
        if len(config.stages) != 1 or config.stem or config.stages[0].embed is None:
            raise ShapeError("a cls_token head requires a single stemless stage with one embedding")
        if config.pos_mode == "relative":
            raise ShapeError("relative position bias is not defined for the cls_token layout")
        for b in config.stages[0].blocks:
            if b.kind == "bottleneck" or b.use_3x3:
                raise ShapeError("conv blocks cannot run on the cls_token layout")

    entries = []
    c = 3
    if config.stem:
        out = tz.out_size(res, **B.STEM)
        entries.append(PlanEntry("stem", "stem", None, (c, res, res), (config.stem, out, out)))
        res, c = out, config.stem
        if config.stages[0].embed is None:
            out = tz.out_size(res, **B.STEM_POOL)
            entries.append(PlanEntry("pool", "stem.pool", None, (c, res, res), (c, out, out)))
            res = out

    for i, stage in enumerate(config.stages):
        sp = f"s{i}"
        if stage.embed is not None:
            e = stage.embed
            if res % e.stride:
                raise ShapeError(f"resolution {res} not divisible by stride {e.stride} at '{sp}.embed'")
            out = res // e.stride
            entries.append(PlanEntry("embed", f"{sp}.embed", e, (c, res, res), (e.out_channels, out, out)))
            res, c = out, e.out_channels
        elif i == 0 and not config.stem:
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
            bottleneck = b.kind == "bottleneck"
            if ((b.channels != c or bottleneck and b.stride != 1)
                    and not (bottleneck and config.conv_block_style == "post_norm")):
                raise ShapeError(f"block '{bp}': only a post_norm bottleneck may change width or "
                                 f"stride, got {c} -> {b.channels} channels")
            if bottleneck:
                if b.hidden % b.groups:
                    raise ShapeError(f"block '{bp}': hidden width {b.hidden} not divisible "
                                     f"by groups {b.groups}")
                # conv2 (3x3, pad 1) and the 1x1 proj both stride to this size
                out = tz.out_size(res, 3, b.stride, 1)
                entries.append(PlanEntry("bottleneck", bp, b, (c, res, res), (b.channels, out, out)))
                res = out
                hw = (res, res)
            else:
                if b.use_3x3 and B.conv_mlp_hidden(b.channels, b.hidden) == 0:
                    raise ShapeError(f"block '{bp}': use_3x3 MLP width is 0 for {b.channels} "
                                     f"channels, hidden {b.hidden}")
                entries.append(PlanEntry("attention", bp, b, (c,) + hw, (b.channels,) + hw))
            c = b.channels
    # a model-wide field that no layer of this model reads would change nothing
    kinds = {e.kind for e in entries}
    for field, value, kind, layer in (("conv_block_style", "post_norm", "bottleneck", "a bottleneck"),
                                      ("pos_mode", "relative", "attention", "an attention block"),
                                      ("pos_mode", "absolute", "pos", "a stage embedding")):
        if getattr(config, field) == value and kind not in kinds:
            raise ShapeError(f"{field}={value!r} needs {layer}, and this model has none")
    # a post-norm bottleneck already ends in a norm; every other layer does not
    if not (entries[-1].kind == "bottleneck" and config.conv_block_style == "post_norm"):
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
    """Allocate and initialize all parameters; identical seeds give identical bits.
    seed must be an integer >= 0, dtype float32 or float64."""
    seed = tz.check_count("seed", seed, 0, ShapeError)
    if dtype is None or dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ShapeError(f"model dtype must be float32 or float64, got {dtype!r}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    params, buffers = B.allocate(model_slots(config), lambda s: B.draw(rng, s), dtype)
    return Model(config, params, buffers, np.dtype(dtype), seed)


def run_plan(model: Model, plan: list[PlanEntry], x: Tensor, training: bool) -> Tensor:
    """Run the given plan entries, in order, on x, the first one's input.

    Each entry runs inside the layer scope '<model name>.<entry prefix>', so
    a non-finite value names the entry that made it. A parameter of entry k
    cannot change the outputs of entries 0..k-1, so a gradient probe of that
    parameter runs plan[k:] from entry k's input (see entry_inputs).
    The one eval rule: training=False runs under tz.no_grad, so an eval run_plan,
    entry_inputs or model_forward records no graph (backward() raises GraphError).
    """
    with nullcontext() if training else tz.no_grad(), tz.layer_scope(model.config.name):
        for e in plan:
            with tz.layer_scope(e.prefix):
                x = B.LAYERS[e.kind].forward(x, e, model, training)
    return x


def entry_inputs(model: Model, plan: list[PlanEntry], x: Tensor, training: bool) -> list[Tensor]:
    """Each plan entry's input, then the output: one forward run entry by entry,
    with the bits and the eval rule of a whole run_plan. It holds every entry's
    output, so model_forward streams through run_plan instead."""
    xs = [x]
    for k in range(len(plan)):
        xs.append(run_plan(model, plan[k:k + 1], xs[k], training))
    return xs


def model_forward(model: Model, x, training: bool = False) -> Tensor:
    """Run the network on a square (N, 3, H, H) batch; returns (N, num_classes) logits.

    Checks the input, then runs the whole layer_plan, which checks the
    structure at the input's resolution, through run_plan. An ndarray becomes
    a Tensor of the model's dtype under Tensor's dtype rule; training must be
    a bool. At a resolution other than the config's, every learned table must
    also keep its shape. Eval mode records no graph (run_plan's eval rule), so
    its logits hold no activations; train mode records one for one backward().
    """
    training = tz.check_flag("training", training, ShapeError)
    if isinstance(x, np.ndarray):
        x = Tensor(x, dtype=model.dtype)
    elif not isinstance(x, Tensor):
        raise ShapeError(f"input must be an ndarray or a Tensor, got {type(x).__name__}")
    if len(x.shape) != 4 or x.shape[1] != 3 or x.shape[0] < 1:
        raise ShapeError(f"input must be (N, 3, H, W) with N >= 1, got {x.shape}")
    height, width = x.shape[2], x.shape[3]
    if height != width:
        raise ShapeError(f"input must be square, got H={height} W={width}")
    plan = layer_plan(model.config, resolution=width)
    if width != model.config.input_resolution:
        _check_slots(model, plan, width)
    return run_plan(model, plan, x, training)


def _check_slots(model: Model, plan: list[PlanEntry], res: int) -> None:
    """Raise ShapeError naming the first parameter or buffer whose shape at
    resolution res differs from the model's (a position table or a relative
    bias table sized by the resolution the model was built for)."""
    config = model.config
    for e in plan:
        for slot in B.LAYERS[e.kind].params(e, config):
            held = (model.buffers[slot.path] if slot.init in B.BUFFER_INITS
                    else model.params[slot.path].data).shape
            if held != slot.shape:
                raise ShapeError(f"'{slot.path}' is {held}, built for resolution "
                                 f"{config.input_resolution}; resolution {res} needs {slot.shape}")


# ---------------------------------------------------------------------------
# config serialization (lossless JSON round trip)


def config_to_json(config) -> str:
    """The canonical JSON text of a ModelConfig or a TrainConfig."""
    return json.dumps(asdict(config), indent=2, sort_keys=True)


def _parsed(what: str, text):
    """json.loads(text), or ValueError('bad <what> config: not JSON: ...')."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, and UnicodeDecodeError for bytes
        raise ValueError(f"bad {what} config: not JSON: {e}") from None


@contextmanager
def _malformed(what: str):
    """A malformed parsed config's AttributeError, KeyError or TypeError, as ValueError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError) as e:
        raise ValueError(f"bad {what} config: {type(e).__name__}: {e}") from None


def config_from_dict(d) -> ModelConfig:
    """A ModelConfig from parsed JSON, checked whole. A malformed one, or a block kind
    other than attention or bottleneck, raises _malformed's ValueError; a bad value or
    fields that do not fit together, the check_fields or layer_plan error that finds it."""
    kinds = {"attention": AttentionSpec, "bottleneck": BottleneckSpec}

    def stage(s):
        embed = s["embed"]
        return StageSpec(**{**s, "embed": None if embed is None else EmbedSpec(**embed),
                            "blocks": tuple(kinds[b["kind"]](**{k: v for k, v in b.items()
                                                                if k != "kind"})
                                            for b in s["blocks"])})
    with _malformed("model"):
        return ModelConfig(**{**d, "stages": tuple(stage(s) for s in d["stages"])})


def config_from_json(text: str) -> ModelConfig:
    """config_from_dict of JSON text; text that is not JSON raises its ValueError too."""
    return config_from_dict(_parsed("model", text))


# ---------------------------------------------------------------------------
# structural diff


def diff_configs(a: ModelConfig, b: ModelConfig) -> set:
    """Names of the structural components that differ between two configs.

    Block lists differing only in attention blocks' use_3x3 flags report
    'mlp_conv' rather than 'blocks', so rewiring MLPs is distinguishable from
    recomposing the network.
    """
    touched = set()
    if a.head_mode != b.head_mode or a.num_classes != b.num_classes:
        touched.add("head")
    if a.stem != b.stem:
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
    ab, bb = ([blk for s in c.stages for blk in s.blocks] for c in (a, b))
    if ab != bb:
        if len(ab) == len(bb) and all(
                x == y or x.kind == y.kind == "attention" and x == replace(y, use_3x3=x.use_3x3)
                for x, y in zip(ab, bb)):
            touched.add("mlp_conv")
        else:
            touched.add("blocks")
    return touched


# ---------------------------------------------------------------------------
# preset catalog


def _attn(c: int, heads: int, *, head_dim: int = 64, use_3x3: bool = False) -> AttentionSpec:
    return AttentionSpec(c, 4 * c, heads, head_dim, use_3x3=use_3x3)


def _bneck(c: int, *, groups: int = 8, hidden: int | None = None,
           stride: int = 1) -> BottleneckSpec:
    return BottleneckSpec(c, 2 * c if hidden is None else hidden, groups, stride)


def _deit_s() -> ModelConfig:
    stage = StageSpec(EmbedSpec(16, 384), tuple(_attn(384, 6) for _ in range(12)))
    return ModelConfig("deit_s", 224, 1000, stem=0, stages=(stage,), norm="layer",
                       pos_mode="absolute", head_mode="cls_token")


def _net1() -> ModelConfig:
    return replace(_deit_s(), name="net1", head_mode="gap")


def _net2() -> ModelConfig:
    stages = (
        StageSpec(EmbedSpec(4, 192), ()),
        StageSpec(EmbedSpec(2, 384), tuple(_attn(384, 6) for _ in range(12))),
        StageSpec(EmbedSpec(2, 768), ()),
    )
    return ModelConfig("net2", 224, 1000, stem=32, stages=stages,
                       norm="layer", pos_mode="absolute")


def _ladder_stages(depths: tuple, use_3x3: bool = False) -> tuple:
    """Staged attention bodies for net3..net6: the high-resolution stage runs
    half-width attention (3 heads of 32, C/2 wide) to keep its cost in line."""
    d1, d2, d3 = depths
    return (
        StageSpec(EmbedSpec(4, 192),
                  tuple(_attn(192, 3, head_dim=32, use_3x3=use_3x3) for _ in range(d1))),
        StageSpec(EmbedSpec(2, 384),
                  tuple(_attn(384, 6, use_3x3=use_3x3) for _ in range(d2))),
        StageSpec(EmbedSpec(2, 768),
                  tuple(_attn(768, 12, use_3x3=use_3x3) for _ in range(d3))),
    )


def _net3() -> ModelConfig:
    return ModelConfig("net3", 224, 1000, stem=32, stages=_ladder_stages((4, 4, 4)),
                       norm="layer", pos_mode="absolute")


def _net4() -> ModelConfig:
    return replace(_net3(), name="net4", norm="batch")


def _net5() -> ModelConfig:
    return replace(_net4(), name="net5", stages=_ladder_stages((4, 4, 4), use_3x3=True))


def _net6() -> ModelConfig:
    return replace(_net5(), name="net6", pos_mode="none")


def _net7() -> ModelConfig:
    # attention dropped; depths grow round-robin until MACs reach net6's level
    def stage(c, depth):
        hidden = B.conv_mlp_hidden(c, 4 * c)
        return tuple(_bneck(c, groups=1, hidden=hidden) for _ in range(depth))

    stages = (
        StageSpec(EmbedSpec(4, 192), stage(192, 7)),
        StageSpec(EmbedSpec(2, 384), stage(384, 7)),
        StageSpec(EmbedSpec(2, 768), stage(768, 6)),
    )
    return ModelConfig("net7", 224, 1000, stem=32, stages=stages, norm="batch",
                       pos_mode="none")


def _visformer(name: str, stem_c: int, chans: tuple, depths: tuple,
               heads: tuple) -> ModelConfig:
    """A Visformer: bottleneck stages, then two attention stages. Three widths
    give the first generation (a stride-4 first embedding, absolute positions),
    four give v2 (stride 2 throughout, relative position bias)."""
    v2 = len(chans) == 4
    convs = len(chans) - 2
    stages = tuple(
        StageSpec(EmbedSpec(2 if v2 or i else 4, c, norm_after=True),
                  tuple(_bneck(c) if i < convs else _attn(c, heads[i - convs]) for _ in range(d)))
        for i, (c, d) in enumerate(zip(chans, depths)))
    return ModelConfig(name, 224, 1000, stem=stem_c, stages=stages, norm="batch",
                       pos_mode="relative" if v2 else "absolute")


def _resnet50_shape() -> ModelConfig:
    def stage(c, depth, stride):
        first = _bneck(c, groups=1, hidden=c // 4, stride=stride)
        rest = tuple(_bneck(c, groups=1, hidden=c // 4) for _ in range(depth - 1))
        return StageSpec(None, (first,) + rest)

    stages = (
        stage(256, 3, 1),
        stage(512, 4, 2),
        stage(1024, 6, 2),
        stage(2048, 3, 2),
    )
    return ModelConfig("resnet50_shape", 224, 1000, stem=64, stages=stages, norm="batch",
                       pos_mode="none", conv_block_style="post_norm")


def _micro(config: ModelConfig) -> ModelConfig:
    """Quarter-width 32x32 10-class variant for gradient checks and smoke training."""
    def shrink_embed(e):
        return None if e is None else replace(e, out_channels=e.out_channels // 4)

    def shrink_block(b):
        nb = replace(b, channels=b.channels // 4, hidden=b.hidden // 4)
        return replace(nb, head_dim=b.head_dim // 4) if b.kind == "attention" else nb

    stages = tuple(StageSpec(shrink_embed(s.embed), tuple(shrink_block(b) for b in s.blocks))
                   for s in config.stages)
    return replace(config, name=config.name + "-micro", input_resolution=32, num_classes=10,
                   stem=config.stem // 4, stages=stages)


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
    "visformer_v2_ti": lambda: _visformer("visformer_v2_ti", 24, (48, 96, 192, 384),
                                          (1, 3, 7, 3), (3, 6)),
    "visformer_v2_s": lambda: _visformer("visformer_v2_s", 32, (64, 128, 256, 512),
                                         (1, 10, 14, 3), (4, 8)),
    "resnet50_shape": _resnet50_shape,
}


def preset_names() -> list[str]:
    names = sorted(_BASE_PRESETS)
    return names + [n + "-micro" for n in names]


def preset(name: str) -> ModelConfig:
    """The catalog's config of that name, checked whole as every ModelConfig is made."""
    base = name[:-6] if name.endswith("-micro") else name
    if base not in _BASE_PRESETS:
        raise KeyError(f"unknown preset '{name}' (known: {', '.join(preset_names())})")
    config = _BASE_PRESETS[base]()
    return _micro(config) if name.endswith("-micro") else config
