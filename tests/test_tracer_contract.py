"""The benchmark's span tracer must keep seeing every block forward and every
op's backward.

perfbench/spans.py replaces the named block forwards on visarch.blocks and
visarch.models.model_forward while it is installed. The layer table must call
those module-level names, not hold the function objects, or the traced spans
miss blocks and the MAC join against complexity_report fails. The join also
fails wherever layer_plan predicts a shape the forward does not produce.
It also replaces each recorded op output's _backward with a timed wrapper
after the op returns, so backward() must call the _backward it finds when its
walk reaches a node, and free the node only after that.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from visarch import build, layer_plan, models, preset
from visarch import tensor as T

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_join(name, res):
    spans = load_spans()
    model = build(preset(name), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, res, res)).astype(np.float32)
    with spans.Tracer() as tracer:
        models.model_forward(model, x)
    return spans.mac_join(tracer.spans)


def test_traced_forward_joins_complexity_report():
    # visformer_v2_ti-micro adds the relative-position attention path;
    # deit_s-micro and resnet50_shape-micro are the audit workload's presets,
    # whose gradchecks run the plan entry by entry and so join no forward
    for name in ("visformer_ti-micro", "visformer_v2_ti-micro", "deit_s-micro",
                 "resnet50_shape-micro"):
        checked, errors, block_macs = traced_join(name, preset(name).input_resolution)
        assert (checked, errors) == (1, []), name
        assert block_macs, name


def test_plan_matches_forward_at_odd_stage_resolutions():
    # at 40 the strided stages of resnet50_shape-micro see 5x5 and 3x3 inputs,
    # which a 3x3 pad-1 stride-2 conv maps to 3x3 and 2x2
    checked, errors, _ = traced_join("resnet50_shape-micro", 40)
    assert (checked, errors) == (1, [])
    out = {e.prefix: e.out_shape for e in layer_plan(preset("resnet50_shape-micro"), 40)}
    assert out["s2.b0"][1:] == (3, 3)
    assert out["s3.b0"][1:] == (2, 2)


def test_every_recorded_op_gets_one_traced_backward():
    spans = load_spans()
    model = build(preset("visformer_ti-micro"), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
    with spans.Tracer() as tracer:
        loss = T.cross_entropy(models.model_forward(model, x, training=True), np.array([0, 1]))
        T.backward(loss)
        with pytest.raises(T.GraphError, match="already ran through this graph"):
            T.backward(loss)
    names = Counter(rec[spans.NAME] for rec in tracer.spans)
    ops = {n: c for n, c in names.items() if n.startswith("tensor.") and n != "tensor.backward"
           and not n.endswith(".bwd")}
    # in a train-mode forward every op has a parameter upstream, so each records
    assert ops and {n: names[n + ".bwd"] for n in ops} == ops
    assert {n for n in names if n.endswith(".bwd")} == {n + ".bwd" for n in ops}
