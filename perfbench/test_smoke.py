"""Smoke test of the benchmark itself, at minimum size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced and must report every metric named in
BENCHMARK.json with a unit; a run fed deliberately corrupted outputs must
count them as failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SMALL = {
    "eval224": dict(presets=("visformer_ti-micro", "deit_s-micro", "resnet50_shape-micro"),
                    batches=(1, 2), setup_reps=1),
    "train_micro": dict(epochs=2, setup_reps=1),
    "audit": dict(presets=("visformer_ti-micro",), tokens=(49,), mags=(48.0, 192.0),
                  setup_reps=1),
}


PRINTED = {  # the workload's own metrics, printed before the JSON line
    "eval224": [f"eval_b1_ms.{p}" for p in SMALL["eval224"]["presets"]]
    + [f"eval_b2_img_per_s.{p}" for p in SMALL["eval224"]["presets"]],
    "train_micro": ["train_samples_per_s", "resume_ms"],
    "audit": ["gradcheck_entries_per_s", "fp16_instances_per_s"],
}


def _bench(capsys, workload, trace=0, perturb=None):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)], perturb, **SMALL[workload])
    out = capsys.readouterr().out.splitlines()
    assert code == 0, out[-20:]
    return json.loads(out[-1]), out


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(capsys, workload, trace, kind):
    result, lines = _bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(kind)
    assert set(result["metrics"]) == set(declared)
    for name, m in result["metrics"].items():
        assert m["unit"] == declared[name]
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = {line.split()[1]: line.split() for line in lines if line.startswith("metric ")}
        for name in PRINTED[workload] + ["setup_s", "peak_rss_mb", "failed_share"]:
            fields = printed.get(name)
            assert fields and fields[3] and fields[-1].startswith("n="), (name, sorted(printed))
    else:
        assert any(line.startswith("note MAC join: ") and line.endswith(" 0 mismatched")
                   for line in lines)


def _shift(x):
    return x + 1e-2


def _flip_byte(blob):
    return blob[:-5] + bytes([blob[-5] ^ 1]) + blob[-4:]


class _Fake:
    path, index, analytic, numeric, rel = "fake.w", 0, 1.0, 2.0, 0.5


PERTURB = {
    "eval224": {"eval.repeat": _shift, "eval.float64": _shift},
    "train_micro": {"train.checkpoint": _flip_byte, "train.losses": lambda v: v[::-1]},
    "audit": {"gradcheck.failures": lambda v: v + [_Fake()],
              "fp16.outcome": lambda v: dict(v, digest="0" * 64)},
}
CAUGHT = {
    "eval224": ("logits differ from the first call", "off the float64 run"),
    "train_micro": ("save_bytes(load(save(x))) != save_bytes(x)", "not below the first"),
    "audit": ("fake.w[0]", "differs from the recorded outcome"),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_perturbed_outputs_count_as_failed(capsys, workload):
    table = PERTURB[workload]
    result, lines = _bench(capsys, workload,
                           perturb=lambda tag, v: table[tag](v) if tag in table else v)
    assert not result["correct"]
    assert result["failed"] >= len(table)
    failed = [line for line in lines if line.startswith("failed ")]
    for message in CAUGHT[workload]:
        assert any(message in line for line in failed), (message, failed)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
