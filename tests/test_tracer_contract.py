"""The benchmark's span tracer must keep seeing every block forward.

perfbench/spans.py replaces the named block forwards on visarch.blocks and
visarch.models.model_forward while it is installed. The layer table must call
those module-level names, not hold the function objects, or the traced spans
miss blocks and the MAC join against complexity_report fails.
"""

import importlib.util
from pathlib import Path

import numpy as np

from visarch import build, models, preset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_forward_joins_complexity_report():
    spans = load_spans()
    model = build(preset("visformer_ti-micro"), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
    with spans.Tracer() as tracer:
        models.model_forward(model, x)
    checked, errors, block_macs = spans.mac_join(tracer.spans)
    assert (checked, errors) == (1, [])
    assert block_macs
