"""Span tracing for the benchmark, recorded from outside the package.

The tracer replaces public functions of visarch's modules with wrappers that
record one span per call, and restores the originals afterwards; nothing in
src/visarch is edited. Names are replaced where the caller looks them up:
several modules bind a function at import (``train.backward``,
``train.augment_batch``, ``blocks.mhsa_forward``, ...), so those bindings are
wrapped too.

A span is ``[name, parent, start, end, child_s, macs, sub_macs, info]``.
``child_s`` is the time covered by its child spans, so self time is
``end - start - child_s``. ``sub_macs`` is the MAC count of the span and all
its descendants, filled in as spans close. Spans stay in memory until the run
ends, when ``write`` stores them.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, PARENT, START, END, CHILD_S, MACS, SUB_MACS, INFO = range(8)

SHAPE_OPS = ("reshape", "transpose", "narrow", "concat", "batch_tile")
OTHER_OPS = ("sub", "mul", "scale", "reduce_max", "sum_all", "global_avg_pool", "gather_rows")
NAMED_OPS = ("linear", "matmul", "gelu", "relu", "softmax", "layer_norm", "batch_norm",
             "max_pool2d", "add", "cross_entropy")
# Op buckets reported as tensor.<op>.*; conv2d is split by its kernel.
OP_BUCKETS = ("conv2d_1x1", "conv2d_kxk", "conv2d_grouped") + NAMED_OPS + ("shape_ops", "other")
MAC_BUCKETS = ("conv2d_1x1", "conv2d_kxk", "conv2d_grouped", "linear", "matmul")

# Block forwards called by models.model_forward, and where their prefix argument sits.
BLOCKS = {"stem_forward": ("stem", 4), "patch_embed_forward": ("embed", 4),
          "bottleneck_forward": ("bottleneck", 4), "attention_block_forward": ("attention", 4),
          "head_forward": ("head", 3)}
BLOCK_KINDS = tuple(kind for kind, _ in BLOCKS.values())
STAGE_MODEL = "visformer_ti"


def _mod(name):
    # importlib, not attribute access: visarch.train is shadowed by the train() function.
    return importlib.import_module("visarch." + name)


def _conv_bucket(args, kwargs):
    w = args[1]
    if kwargs.get("groups", 1) > 1:
        return "tensor.conv2d_grouped"
    if w.shape[2] == 1 and w.shape[3] == 1:
        return "tensor.conv2d_1x1"
    return "tensor.conv2d_kxk"


def _conv_macs(args, out):
    w = args[1].shape
    return out.data.size * w[1] * w[2] * w[3]


def _linear_macs(args, out):
    return out.data.size * args[1].shape[1]


def _matmul_macs(args, out):
    return out.data.size * args[0].shape[-1]


class Tracer:
    """Records spans from wrapped visarch functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    # -- span primitives -------------------------------------------------

    def open(self, name) -> int:
        spans = self.spans
        i = len(spans)
        rec = [name, self._stack[-1], 0.0, 0.0, 0.0, 0, 0, None]
        spans.append(rec)
        self._stack.append(i)
        rec[START] = perf_counter()
        return i

    def close(self, i, macs=0, info=None) -> None:
        end = perf_counter()
        self._stack.pop()
        rec = self.spans[i]
        rec[END] = end
        rec[MACS] = macs
        rec[SUB_MACS] += macs
        if info is not None:
            rec[INFO] = info
        p = rec[PARENT]
        if p >= 0:
            prec = self.spans[p]
            prec[CHILD_S] += end - rec[START]
            prec[SUB_MACS] += rec[SUB_MACS]

    def _wrap(self, name, fn, *, name_of=None, after=None, bwd=False):
        tracer = self

        def traced(*args, **kwargs):
            n = name_of(args, kwargs) if name_of is not None else name
            i = tracer.open(n)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(i)
                raise
            if after is None:
                tracer.close(i)
            else:
                tracer.close(i, *after(args, out))
            if bwd and out._backward is not None:
                out._backward = tracer._wrap_closure(n + ".bwd", out._backward)
            return out

        return traced

    def _wrap_closure(self, name, fn):
        tracer = self

        def traced(dout):
            i = tracer.open(name)
            try:
                return fn(dout)
            finally:
                tracer.close(i)

        return traced

    # -- installing and removing wrappers --------------------------------

    def _patch(self, owner, attr, name, **kw):
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(name, orig, **kw))

    def install(self) -> None:
        tensor, train = _mod("tensor"), _mod("train")
        attention, blocks, models = _mod("attention"), _mod("blocks"), _mod("models")
        data, checkpoint, fp16 = _mod("data"), _mod("checkpoint"), _mod("fp16")

        self._patch(tensor, "conv2d", "", name_of=_conv_bucket,
                    after=lambda a, o: (_conv_macs(a, o), None), bwd=True)
        self._patch(tensor, "linear", "tensor.linear",
                    after=lambda a, o: (_linear_macs(a, o), None), bwd=True)
        self._patch(tensor, "matmul", "tensor.matmul",
                    after=lambda a, o: (_matmul_macs(a, o), None), bwd=True)
        for op in NAMED_OPS[2:]:
            self._patch(tensor, op, "tensor." + op, bwd=True)
        for op in SHAPE_OPS:
            self._patch(tensor, op, "tensor.shape_ops", bwd=True)
        for op in OTHER_OPS:
            self._patch(tensor, op, "tensor.other", bwd=True)
        self._patch(train, "cross_entropy", "tensor.cross_entropy", bwd=True)
        for owner in (tensor, train):
            self._patch(owner, "backward", "tensor.backward")

        self._patch(attention, "attention_logits", "attention.attention_logits")
        for owner in (attention, blocks):
            self._patch(owner, "mhsa_forward", "attention.mhsa_forward")
        for fn, (kind, pos) in BLOCKS.items():
            self._patch(blocks, fn, "blocks." + kind,
                        after=lambda a, o, pos=pos: (0, (a[pos], a[0].shape[0])))

        self._patch(models, "model_forward", "models.model_forward",
                    after=lambda a, o: (0, (a[0].config, a[1].shape[-1], a[1].shape[0])))
        self._patch(models, "layer_plan", "models.layer_plan")
        self._patch(models, "build", "models.build")

        for owner in (data, train):
            self._patch(owner, "synth_dataset", "data.synth_dataset")
            self._patch(owner, "augment_batch", "data.augment_batch")
        self._patch(train, "train", "train.train")
        self._patch(train, "gradcheck", "train.gradcheck")
        self._patch(train, "finite_diff_grad", "train.finite_diff")
        self._patch(train.AdamW, "step", "train.optimizer")

        self._patch(checkpoint, "save_bytes", "checkpoint.save_bytes",
                    after=lambda a, o: (0, len(o)))
        self._patch(checkpoint, "load_bytes", "checkpoint.load_bytes")
        self._patch(checkpoint, "model_from_checkpoint", "checkpoint.model_from_checkpoint")

        for fn in ("scores_f16", "exact_logits"):
            self._patch(fp16, fn, "fp16." + fn)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Store every span as [name index, parent, start, end, self_s, macs]."""
        names: dict = {}
        rows = []
        for rec in self.spans:
            idx = names.setdefault(rec[NAME], len(names))
            rows.append([idx, rec[PARENT], rec[START], rec[END],
                         rec[END] - rec[START] - rec[CHILD_S], rec[MACS]])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"names": list(names), "fields": ["name", "parent", "start", "end",
                                                        "self_s", "macs"],
                       "spans": rows}, f, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics and the MAC join


def _dur(rec):
    return rec[END] - rec[START]


def _self(rec):
    return rec[END] - rec[START] - rec[CHILD_S]


def _gmacs(macs, seconds):
    return macs / seconds / 1e9 if seconds > 0 else 0.0


def _complexity(cache, config, res):
    key = (config, res)
    if key not in cache:
        report = _mod("analysis").complexity_report(config, res)
        cache[key] = (report.total_macs, [(p, m) for p, m, _ in report.rows if m > 0])
    return cache[key]


def mac_join(spans) -> tuple[int, list, dict]:
    """Join every traced model_forward against complexity_report.

    Each MAC-bearing row must fall under exactly one block span of that
    forward, each block's op spans must sum to its rows' MACs times the batch,
    and the forward's op spans must sum to count_macs times the batch.
    Returns (forwards checked, error strings, {block span index: row MACs}).
    """
    blocks_of = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[NAME].startswith("blocks.") and rec[INFO] is not None:
            blocks_of[rec[PARENT]].append(i)
    cache: dict = {}
    block_macs: dict = {}
    errors = []
    checked = 0
    for f, rec in enumerate(spans):
        if rec[NAME] != "models.model_forward" or rec[INFO] is None:
            continue
        checked += 1
        config, res, batch = rec[INFO]
        total, rows = _complexity(cache, config, res)
        by_prefix = {spans[b][INFO][0]: b for b in blocks_of.get(f, ())}
        expect = dict.fromkeys(by_prefix.values(), 0)
        bad = []
        for path, macs in rows:
            parts = path.split(".")
            owners = [by_prefix[p] for p in (".".join(parts[:k]) for k in range(1, len(parts) + 1))
                      if p in by_prefix]
            if len(owners) != 1:
                bad.append(f"row {path} covered by {len(owners)} block spans")
                continue
            expect[owners[0]] += macs * batch
        for b, macs in expect.items():
            block_macs[b] = macs
            if spans[b][SUB_MACS] != macs:
                bad.append(f"{spans[b][INFO][0]}: traced {spans[b][SUB_MACS]} MACs, "
                           f"complexity_report {macs}")
        if rec[SUB_MACS] != total * batch:
            bad.append(f"forward: traced {rec[SUB_MACS]} MACs, count_macs x batch {total * batch}")
        if bad:
            errors.append(f"{config.name} @{res} batch {batch}: " + "; ".join(bad[:3]))
    return checked, errors, block_macs


def per_layer(spans, block_macs: dict) -> dict:
    """Aggregate spans into the per-layer metrics, {name: (value, unit)}."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    macs = defaultdict(int)
    step = defaultdict(float)
    blk_s = defaultdict(float)
    blk_macs = defaultdict(int)
    stage_s = defaultdict(float)
    stage_macs = defaultdict(int)
    saved_bytes = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] += 1
        self_s[name] += _self(rec)
        incl_s[name] += _dur(rec)
        macs[name] += rec[MACS]
        parent = rec[PARENT]
        if name == "checkpoint.save_bytes" and rec[INFO] is not None:
            saved_bytes += rec[INFO]
        if parent >= 0 and spans[parent][NAME] == "train.train":
            part = {"data.augment_batch": "data_s", "models.model_forward": "forward_s",
                    "tensor.cross_entropy": "forward_s", "tensor.backward": "backward_s",
                    "train.optimizer": "optimizer_s"}.get(name)
            if part:
                step[part] += _dur(rec)
        if i in block_macs:
            kind = name.split(".", 1)[1]
            blk_s[kind] += _dur(rec)
            blk_macs[kind] += block_macs[i]
            config = spans[parent][INFO][0]
            prefix = rec[INFO][0]
            if config.name == STAGE_MODEL and kind in ("bottleneck", "attention"):
                stage = prefix.split(".", 1)[0]
                stage_s[stage] += _dur(rec)
                stage_macs[stage] += block_macs[i]

    out = {}
    for op in OP_BUCKETS:
        n = "tensor." + op
        out[n + ".calls"] = (calls[n], "count")
        out[n + ".fwd_s"] = (self_s[n], "s")
        out[n + ".bwd_s"] = (self_s[n + ".bwd"], "s")
        if op in MAC_BUCKETS:
            out[n + ".gmac_per_s"] = (_gmacs(macs[n], self_s[n]), "GMAC/s")
    out["tensor.backward.s"] = (incl_s["tensor.backward"], "s")
    out["tensor.backward.walk_s"] = (self_s["tensor.backward"], "s")
    for n in ("attention.mhsa_forward", "attention.attention_logits"):
        out[n + ".s"] = (incl_s[n], "s")
    for kind in BLOCK_KINDS:
        out[f"blocks.{kind}.s"] = (blk_s[kind], "s")
        out[f"blocks.{kind}.gmac_per_s"] = (_gmacs(blk_macs[kind], blk_s[kind]), "GMAC/s")
    for s in ("s0", "s1", "s2"):
        out[f"blocks.{STAGE_MODEL}.{s}.gmac_per_s"] = (_gmacs(stage_macs[s], stage_s[s]), "GMAC/s")
    out["models.model_forward.s"] = (incl_s["models.model_forward"], "s")
    out["models.layer_plan.calls"] = (calls["models.layer_plan"], "count")
    out["models.layer_plan.s"] = (incl_s["models.layer_plan"], "s")
    out["models.build.s"] = (incl_s["models.build"], "s")
    out["data.synth_dataset.s"] = (incl_s["data.synth_dataset"], "s")
    out["data.augment_batch.s"] = (incl_s["data.augment_batch"], "s")
    for part in ("data_s", "forward_s", "backward_s", "optimizer_s"):
        out["train.step." + part] = (step[part], "s")
    out["train.gradcheck.s"] = (incl_s["train.gradcheck"], "s")
    out["train.finite_diff.calls"] = (calls["train.finite_diff"], "count")
    for n in ("checkpoint.save_bytes", "checkpoint.load_bytes", "checkpoint.model_from_checkpoint"):
        out[n + ".s"] = (incl_s[n], "s")
    out["checkpoint.bytes"] = (saved_bytes, "B")
    out["fp16.scores_f16.s"] = (incl_s["fp16.scores_f16"], "s")
    out["fp16.scores_f16.calls"] = (calls["fp16.scores_f16"], "count")
    out["fp16.exact_logits.s"] = (incl_s["fp16.exact_logits"], "s")
    return out


# ROADMAP re-anchor baseline (2-core box, min of 3 runs), printed beside the traced numbers.
ANCHOR = {"eval_b1_ms": {"visformer_ti": 198, "deit_s": 470, "resnet50_shape": 284},
          "fwd_bwd_b50_ms": {"visformer_ti-micro": 118, "deit_s-micro": 218,
                             "resnet50_shape-micro": 193},
          "visformer_ti_b8_gmac_per_s": "blocks 5.9 / 6.5 / 11.3 (s0/s1/s2), embeds 15-35",
          "deit_s_b8_gmac_per_s": "blocks 11.3, patch embed 65"}


def _block_rates(spans, block_macs, model, batch):
    """{group: (seconds, MACs)} over one model's block spans at one batch size,
    grouped as '<stage>.blocks' and '<stage>.embed'."""
    groups = defaultdict(lambda: [0.0, 0])
    for i, macs in block_macs.items():
        rec = spans[i]
        config, _, b = spans[rec[PARENT]][INFO]
        if config.name != model or b != batch:
            continue
        prefix = rec[INFO][0]
        stage = prefix.split(".", 1)[0]
        if "." not in prefix:
            group = prefix
        elif prefix.endswith(".embed"):
            group = f"{stage}.embed"
        else:
            group = f"{stage}.blocks"
        groups[group][0] += _dur(rec)
        groups[group][1] += macs
    return {g: _gmacs(m, s) for g, (s, m) in sorted(groups.items())}


def anchor_lines(spans, block_macs) -> list:
    """Traced counterparts of the ROADMAP re-anchor table."""
    lines = []
    b1 = defaultdict(list)
    per_train = defaultdict(lambda: [None, 0.0, 0])  # train span -> [model, seconds, steps]
    for rec in spans:
        name = rec[NAME]
        if name == "models.model_forward" and rec[INFO] is not None and rec[INFO][2] == 1:
            b1[rec[INFO][0].name].append(1e3 * _dur(rec))
        parent = rec[PARENT]
        if (parent >= 0 and spans[parent][NAME] == "train.train"
                and name in ("models.model_forward", "tensor.cross_entropy", "tensor.backward")):
            acc = per_train[parent]
            acc[1] += _dur(rec)
            if name == "models.model_forward":
                acc[0] = rec[INFO][0].name
                acc[2] += 1
    step = defaultdict(lambda: [0.0, 0])
    for model, s, n in per_train.values():
        step[model][0] += s
        step[model][1] += n
    for model, ms in sorted(b1.items()):
        ref = ANCHOR["eval_b1_ms"].get(model)
        lines.append(f"anchor eval b1 {model}: traced {min(ms):.1f} ms"
                     + (f" (re-anchor {ref} ms)" if ref else ""))
    for model, (s, n) in sorted(step.items()):
        ref = ANCHOR["fwd_bwd_b50_ms"].get(model)
        lines.append(f"anchor fwd+bwd {model}: traced {1e3 * s / max(n, 1):.1f} ms per step"
                     + (f" (re-anchor {ref} ms at batch 50)" if ref else ""))
    for model, key in (("visformer_ti", "visformer_ti_b8_gmac_per_s"),
                       ("deit_s", "deit_s_b8_gmac_per_s")):
        rates = _block_rates(spans, block_macs, model, 8)
        if rates:
            text = ", ".join(f"{g} {r:.1f}" for g, r in rates.items())
            lines.append(f"anchor {model} b8 GMAC/s: traced {text} (re-anchor {ANCHOR[key]})")
    return lines
