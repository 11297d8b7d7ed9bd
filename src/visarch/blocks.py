"""Building blocks: stems, patch embeddings, conv bottlenecks, attention blocks, heads.

The block forwards only compute: models.layer_plan has already checked the
structure they run, and models.run_plan opens each plan entry's layer_scope.
LAYERS maps each layer_plan kind to one Layer of three functions sharing one
parameter naming scheme: params (the entry's parameters and buffers as Slots,
in initialization order), forward (run the entry), and rows ((path, MACs,
params) complexity rows). Building, loading a checkpoint and counting
parameters all read the same Slot lists, and the rows are derived from them in
one walk (a weight costs its element count per output position), so none of
them can disagree. A block spec holds only the fields its kind reads.
MACs are multiply-accumulates at batch 1; norms, activations, softmax,
pooling, and bias adds count zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as tz
from .attention import mhsa_forward, rel_pos_bias
from .tensor import ParamStore, Tensor

# Annotation of a scalar config field -> (accepted types, how an error names
# them): the JSON types, so every valid config round-trips through JSON; a
# bool is only a bool, never an int or a float
_FIELD_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
                "float": ((int, float), "a number"), "bool": (bool, "true or false")}
# The largest value of a number field, and how an error names it: an int is at
# most the largest numpy shape, and an int in a float field must convert to a float
_CEILINGS = {"int": (2 ** 63 - 1, "2**63 - 1"), "float": (sys.float_info.max, "the largest float")}


def check_fields(obj, what: str) -> None:
    """Raise ValueError naming the first scalar field of the dataclass obj that
    breaks its rule: it holds its annotated type; a number is finite and >= 0,
    or >= 1 if the class lists it in POSITIVE, and at most its _CEILINGS; a string
    the class lists in CHOICES is one of the values given there. Other fields,
    and how the fields fit together, are left to their owner."""
    choices = getattr(obj, "CHOICES", {})
    for f in fields(obj):
        if f.type not in _FIELD_TYPES:
            continue
        types, kind = _FIELD_TYPES[f.type]
        value = getattr(obj, f.name)
        floor = 1 if f.name in obj.POSITIVE else 0
        if not isinstance(value, types) or (f.type != "bool" and isinstance(value, bool)):
            rule = f"{kind}, got {value!r} ({type(value).__name__})"
        elif f.type in ("int", "float") and not floor <= value < math.inf:
            rule = f"{'finite and ' if f.type == 'float' else ''}>= {floor}, got {value!r}"
        elif f.type in _CEILINGS and value > _CEILINGS[f.type][0]:  # an int, as inf failed above
            rule = f"<= {_CEILINGS[f.type][1]}, got an integer of {value.bit_length()} bits"
        elif value not in choices.get(f.name, (value,)):
            rule = f"one of {choices[f.name]}, got {value!r}"
        else:
            continue
        raise ValueError(f"bad {what}: {f.name} must be {rule}")


@dataclass(frozen=True)
class EmbedSpec:
    """A patch embedding: a stride x stride conv with no padding (its kernel is its
    stride) to out_channels, then batch norm if norm_after, else a conv bias."""

    POSITIVE = ("stride", "out_channels")

    stride: int
    out_channels: int
    norm_after: bool = False

    def __post_init__(self):
        check_fields(self, "embedding spec")


@dataclass(frozen=True)
class AttentionSpec:
    """Pre-norm attention (heads * head_dim wide), then a pre-norm MLP hidden
    wide, both residual. use_3x3 adds a 3x3 conv to the MLP, whose width
    conv_mlp_hidden recomputes to stay within the plain MLP's MACs."""

    POSITIVE = ("channels", "hidden", "heads", "head_dim")

    kind: str = field(default="attention", init=False)
    channels: int
    hidden: int
    heads: int
    head_dim: int
    use_3x3: bool = False

    def __post_init__(self):
        check_fields(self, "attention spec")


@dataclass(frozen=True)
class BottleneckSpec:
    """A 1x1 -> 3x3 (groups-grouped) -> 1x1 conv bottleneck through hidden
    channels, fed the width coming in; a post-norm one may change width or stride."""

    POSITIVE = ("channels", "hidden", "groups", "stride")

    kind: str = field(default="bottleneck", init=False)
    channels: int
    hidden: int
    groups: int = 1
    stride: int = 1

    def __post_init__(self):
        check_fields(self, "bottleneck spec")


def conv_mlp_hidden(channels: int, hidden: int) -> int:
    """Widest 1x1 -> 3x3 -> 1x1 stack not exceeding the plain MLP's MACs.

    The largest m with 2*C*m + 9*m^2 <= 2*C*hidden, which is the largest m with
    (9*m + C)^2 <= C^2 + 18*C*hidden. As 9*m + C is an integer, that holds
    exactly when 9*m + C <= isqrt(C^2 + 18*C*hidden), with no float rounding.
    """
    return (math.isqrt(channels * channels + 18 * channels * hidden) - channels) // 9


# ---------------------------------------------------------------------------
# parameter slots and their initial values


class Slot(NamedTuple):
    """One parameter or buffer tensor of a layer.

    init is "trunc" (trunc_normal, std TRUNC_STD), a float (plain normal with
    that std: He fan-out), "zeros" or "ones" for parameters, or one of
    BUFFER_INITS for batch-norm running statistics, which are buffers.
    """

    path: str
    shape: tuple
    init: object


BUFFER_INITS = ("running_mean", "running_var")


TRUNC_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, TRUNC_STD) resampled until every entry lies within 2 TRUNC_STD.

    Each round redraws the entries still out of range, in flat order, and
    tests only those redrawn values."""
    x = rng.normal(0.0, TRUNC_STD, size=shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2 * TRUNC_STD)
    while bad.size:
        redrawn = rng.normal(0.0, TRUNC_STD, size=bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > 2 * TRUNC_STD]
    return x


def draw(rng: np.random.Generator, slot: Slot) -> np.ndarray:
    """Initial float64 value of a slot; only random inits consume draws from rng."""
    if slot.init == "trunc":
        return trunc_normal(rng, slot.shape)
    if isinstance(slot.init, float):
        return rng.normal(0.0, slot.init, size=slot.shape)
    return np.ones(slot.shape) if slot.init in ("ones", "running_var") else np.zeros(slot.shape)


def allocate(slots, value: Callable, dtype) -> tuple[ParamStore, dict]:
    """A ParamStore and a buffer dict holding value(slot) cast to dtype, in slot order.
    A writable array value() returns in dtype is adopted, not copied (a float64
    build's draws, model_from_checkpoint's loaded arrays); any other is copied."""
    store, buffers = ParamStore(), {}
    for slot in slots:
        arr = np.require(value(slot), dtype, "W")
        if slot.init in BUFFER_INITS:
            buffers[slot.path] = arr
        else:
            store.add(slot.path, Tensor(arr))
    return store, buffers


def _conv_slots(prefix, cin, cout, k, *, groups=1, bias=True):
    """1x1 kernels draw truncated normals (they act as linears); larger kernels He fan-out."""
    init = "trunc" if k == 1 else math.sqrt(2.0 / ((cout // groups) * k * k))
    slots = [Slot(prefix + ".w", (cout, cin // groups, k, k), init)]
    if bias:
        slots.append(Slot(prefix + ".b", (cout,), "zeros"))
    return slots


def _norm_slots(prefix, c, kind):
    slots = [Slot(prefix + ".gamma", (c,), "ones"), Slot(prefix + ".beta", (c,), "zeros")]
    if kind == "batch":
        slots += [Slot(prefix + ".mean", (c,), "running_mean"),
                  Slot(prefix + ".var", (c,), "running_var")]
    return slots


def _macs_rows(slots, positions, at=None):
    """(path, MACs, params) per layer of slots, in slot order. A weight (.w) is
    applied once per output position, so it costs its element count times
    positions (at[path] where given); norms (.gamma) and learned tables cost
    nothing. A bias (.b, .beta) adds its params to its layer's row; buffers add
    nothing."""
    rows = {}
    for slot in slots:
        if slot.init in BUFFER_INITS:
            continue
        n = math.prod(slot.shape)
        layer, _, leaf = slot.path.rpartition(".")
        if leaf == "w":
            rows[layer] = [n * (at or {}).get(layer, positions), n]
        elif leaf == "gamma":
            rows[layer] = [0, n]
        elif leaf in ("b", "beta"):
            rows[layer][1] += n
        else:
            rows[slot.path] = [0, n]
    return [(path, m, n) for path, (m, n) in rows.items()]


def norm_forward(x: Tensor, params: ParamStore, buffers: dict, prefix: str,
                 kind: str, training: bool) -> Tensor:
    gamma, beta = params[prefix + ".gamma"], params[prefix + ".beta"]
    if kind == "layer":
        return tz.layer_norm(x, gamma, beta)
    return tz.batch_norm(x, gamma, beta, buffers[prefix + ".mean"],
                         buffers[prefix + ".var"], training=training)


def _conv(x, params, prefix, *, stride=1, padding=0, groups=1):
    b = params[prefix + ".b"] if (prefix + ".b") in params else None
    return tz.conv2d(x, params[prefix + ".w"], b, stride=stride, padding=padding, groups=groups)


# ---------------------------------------------------------------------------
# stem / patch embedding (same parameters and rows; the stem pads and ends in relu)


# Every stem: this conv (no bias) to the config's stem width, batch norm and
# relu; then the max pool, when no patch embedding follows
STEM = dict(kernel=7, stride=2, padding=3)
STEM_POOL = dict(kernel=3, stride=2, padding=1)


def _embed_params(e, config):
    """The stem's conv, or a patch embedding's stride x stride one, to the
    entry's width; then batch norm (always after the stem), else a conv bias."""
    stem, c = e.kind == "stem", e.out_shape[0]
    norm_after = stem or e.spec.norm_after
    slots = _conv_slots(e.prefix + ".conv", e.in_shape[0], c,
                        STEM["kernel"] if stem else e.spec.stride, bias=not norm_after)
    return slots + _norm_slots(e.prefix + ".norm", c, "batch") if norm_after else slots


def stem_forward(x: Tensor, params, buffers, training: bool, prefix: str) -> Tensor:
    out = _conv(x, params, prefix + ".conv", stride=STEM["stride"], padding=STEM["padding"])
    return tz.relu(norm_forward(out, params, buffers, prefix + ".norm", "batch", training))


def patch_embed_forward(x: Tensor, spec: EmbedSpec, params, buffers, prefix: str,
                        training: bool) -> Tensor:
    out = _conv(x, params, prefix + ".conv", stride=spec.stride)
    if spec.norm_after:
        out = norm_forward(out, params, buffers, prefix + ".norm", "batch", training)
    return out


# ---------------------------------------------------------------------------
# conv bottleneck (pre-norm residual form and post-norm downsampling form)


def _bottleneck_params(e, config):
    spec, p, norm = e.spec, e.prefix, config.norm
    c, h, g = spec.channels, spec.hidden, spec.groups
    if config.conv_block_style == "pre_norm":
        return (_norm_slots(p + ".norm", c, norm)
                + _conv_slots(p + ".conv1", c, h, 1)
                + _conv_slots(p + ".conv2", h, h, 3, groups=g)
                + _conv_slots(p + ".conv3", h, c, 1))
    cin = e.in_shape[0]
    slots = (_conv_slots(p + ".conv1", cin, h, 1, bias=False)
             + _norm_slots(p + ".norm1", h, norm)
             + _conv_slots(p + ".conv2", h, h, 3, groups=g, bias=False)
             + _norm_slots(p + ".norm2", h, norm)
             + _conv_slots(p + ".conv3", h, c, 1, bias=False)
             + _norm_slots(p + ".norm3", c, norm))
    if cin != c or spec.stride != 1:
        slots += (_conv_slots(p + ".proj", cin, c, 1, bias=False)
                  + _norm_slots(p + ".proj_norm", c, norm))
    return slots


def _bottleneck_macs(e, config):
    """A post-norm bottleneck strides in conv2 and proj, after conv1."""
    return _macs_rows(_bottleneck_params(e, config), math.prod(e.out_shape[1:]),
                      at={e.prefix + ".conv1": math.prod(e.in_shape[1:])})


def bottleneck_forward(x: Tensor, spec: BottleneckSpec, params, buffers, prefix: str,
                       norm: str, style: str, training: bool) -> Tensor:
    if style == "pre_norm":
        h = norm_forward(x, params, buffers, prefix + ".norm", norm, training)
        h = tz.relu(_conv(h, params, prefix + ".conv1"))
        h = tz.relu(_conv(h, params, prefix + ".conv2", padding=1, groups=spec.groups))
        h = _conv(h, params, prefix + ".conv3")
        return tz.add_residual(x, h)
    s = spec.stride
    h = _conv(x, params, prefix + ".conv1")
    h = tz.relu(norm_forward(h, params, buffers, prefix + ".norm1", norm, training))
    h = _conv(h, params, prefix + ".conv2", stride=s, padding=1, groups=spec.groups)
    h = tz.relu(norm_forward(h, params, buffers, prefix + ".norm2", norm, training))
    h = _conv(h, params, prefix + ".conv3")
    h = norm_forward(h, params, buffers, prefix + ".norm3", norm, training)
    if (prefix + ".proj.w") in params:
        sc = _conv(x, params, prefix + ".proj", stride=s)
        sc = norm_forward(sc, params, buffers, prefix + ".proj_norm", norm, training)
    else:
        sc = x
    return tz.relu(tz.add_residual(sc, h))


# ---------------------------------------------------------------------------
# attention block (pre-norm attention + pre-norm MLP branch, both residual)


def _mlp_branch_params(spec: AttentionSpec, prefix: str):
    c = spec.channels
    if spec.use_3x3:
        m = conv_mlp_hidden(c, spec.hidden)
        return (_conv_slots(prefix + ".fc1", c, m, 1)
                + _conv_slots(prefix + ".conv", m, m, 3)
                + _conv_slots(prefix + ".fc2", m, c, 1))
    return (_conv_slots(prefix + ".fc1", c, spec.hidden, 1)
            + _conv_slots(prefix + ".fc2", spec.hidden, c, 1))


def _mlp_branch_forward(x, spec: AttentionSpec, params, prefix):
    h = tz.gelu(_conv(x, params, prefix + ".fc1"))
    if spec.use_3x3:
        h = tz.gelu(_conv(h, params, prefix + ".conv", padding=1))
    return _conv(h, params, prefix + ".fc2")


def _attention_params(e, config):
    spec, p = e.spec, e.prefix
    c, inner = spec.channels, spec.heads * spec.head_dim
    slots = (_norm_slots(p + ".norm1", c, config.norm)
             + _conv_slots(p + ".attn.qkv", c, 3 * inner, 1)
             + _conv_slots(p + ".attn.proj", inner, c, 1))
    if config.pos_mode == "relative":
        h, w = e.in_shape[1:]
        slots.append(Slot(p + ".attn.relpos", ((2 * h - 1) * (2 * w - 1), spec.heads), "trunc"))
    return (slots + _norm_slots(p + ".norm2", c, config.norm)
            + _mlp_branch_params(spec, p + ".mlp"))


def _attention_macs(e, config):
    """Scores and apply each cost tokens^2 * heads * head_dim MACs, after norm1 and qkv."""
    tokens = math.prod(e.in_shape[1:])
    rows = _macs_rows(_attention_params(e, config), tokens)
    core = tokens * tokens * e.spec.heads * e.spec.head_dim
    rows[2:2] = [(e.prefix + ".attn.scores", core, 0), (e.prefix + ".attn.apply", core, 0)]
    return rows


def attention_block_forward(x: Tensor, spec: AttentionSpec, params, buffers, prefix: str,
                            norm: str, training: bool) -> Tensor:
    a = prefix + ".attn"
    bias = None
    if a + ".relpos" in params:
        bias = rel_pos_bias(params[a + ".relpos"], x.shape[2], x.shape[3])
    h = norm_forward(x, params, buffers, prefix + ".norm1", norm, training)
    x = tz.add_residual(x, mhsa_forward(h, params[a + ".qkv.w"], params[a + ".qkv.b"],
                                        params[a + ".proj.w"], params[a + ".proj.b"],
                                        spec.heads, bias=bias))
    h = norm_forward(x, params, buffers, prefix + ".norm2", norm, training)
    return tz.add_residual(x, _mlp_branch_forward(h, spec, params, prefix + ".mlp"))


# ---------------------------------------------------------------------------
# classification head


def head_forward(x: Tensor, mode: str, params, prefix: str) -> Tensor:
    if mode == "gap":
        feat = tz.global_avg_pool(x)
    else:  # cls_token: the first token
        feat = tz.reshape(tz.narrow(x, 2, 0, 1), (x.shape[0], x.shape[1]))
    return tz.linear(feat, params[prefix + ".fc.w"], params[prefix + ".fc.b"])


# ---------------------------------------------------------------------------
# the per-kind table, and the layers without a block function of their own


def _cls(x, e, m, training):
    n, c, h, w = x.shape
    tokens = tz.reshape(x, (n, c, h * w, 1))
    return tz.concat([tz.batch_tile(m.params[e.prefix], n), tokens], axis=2)


class Layer(NamedTuple):
    """What one layer_plan kind contributes to building, running and counting."""

    params: Callable  # (entry, config) -> [Slot], in initialization order
    forward: Callable  # (x, entry, model, training) -> Tensor
    rows: Callable  # (entry, config) -> [(path, MACs, params)], the complexity rows


def _out_macs(params):
    """rows for a layer whose weights all run at its output resolution."""
    return lambda e, config: _macs_rows(params(e, config), math.prod(e.out_shape[1:]))


def _cls_params(e, config):
    return [Slot(e.prefix, (e.in_shape[0], 1, 1), "trunc")]


def _pos_params(e, config):
    return [Slot(e.prefix, e.out_shape, "trunc")]


def _final_norm_params(e, config):
    return _norm_slots(e.prefix, e.in_shape[0], config.norm)


def _head_params(e, config):
    p, c, k = e.prefix + ".fc", e.in_shape[0], e.out_shape[0]
    return [Slot(p + ".w", (k, c), "trunc"), Slot(p + ".b", (k,), "zeros")]


# The lambdas look the named block forwards up in this module's globals at
# call time, so replacing one here (to trace or wrap it) reaches every model.
LAYERS = {
    "stem": Layer(_embed_params, lambda x, e, m, t: stem_forward(
        x, m.params, m.buffers, t, e.prefix), _out_macs(_embed_params)),
    "pool": Layer(lambda e, config: [], lambda x, e, m, t: tz.max_pool2d(x, **STEM_POOL),
                  lambda e, config: [(e.prefix, 0, 0)]),
    "embed": Layer(_embed_params, lambda x, e, m, t: patch_embed_forward(
        x, e.spec, m.params, m.buffers, e.prefix, t), _out_macs(_embed_params)),
    "cls": Layer(_cls_params, _cls, _out_macs(_cls_params)),
    "pos": Layer(_pos_params, lambda x, e, m, t: tz.add(x, m.params[e.prefix]),
                 _out_macs(_pos_params)),
    "attention": Layer(_attention_params, lambda x, e, m, t: attention_block_forward(
        x, e.spec, m.params, m.buffers, e.prefix, m.config.norm, t), _attention_macs),
    "bottleneck": Layer(_bottleneck_params, lambda x, e, m, t: bottleneck_forward(
        x, e.spec, m.params, m.buffers, e.prefix, m.config.norm, m.config.conv_block_style,
        t), _bottleneck_macs),
    "final_norm": Layer(_final_norm_params, lambda x, e, m, t: norm_forward(
        x, m.params, m.buffers, e.prefix, m.config.norm, t), _out_macs(_final_norm_params)),
    "head": Layer(_head_params, lambda x, e, m, t: head_forward(
        x, m.config.head_mode, m.params, e.prefix), _out_macs(_head_params)),
}
