"""visarch benchmark: one workload per process, results as one JSON line.

    python3 perfbench/run.py --workload eval224 --seed 1 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs a fixed list of calls untraced and then
traced, prints the per-layer metrics and writes every span to
``.perfbench_out/``. Lines before the last describe the run (environment,
every metric with its unit, median, tail percentile and sample count, check
failures); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("eval224", "train_micro", "audit")
END_TO_END = ("latency_ms", "throughput_per_s", "setup_s", "peak_rss_mb")
TRACE_OUT = ROOT / ".perfbench_out"
IMPORT_REPS = 3


def import_seconds(src: Path) -> float:
    """Median wall time of `import visarch` in a fresh interpreter, part of set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    times = []
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import visarch"], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded; None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> dict:
    """What the timings depend on; timing covers only the benchmark's own processes."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "limits": "wall-clock timing of the benchmark's own processes only; "
                  "no hardware counters, no machine-wide tracing",
    }


def tail(samples, better):
    """Highest percentile (on the slow side) with at least 10 samples beyond it."""
    ordered = sorted(samples, reverse=(better == "higher"))
    k = len(ordered) - 10
    if k < 1:
        return None
    pct = 100.0 * k / len(ordered)
    return (pct if better == "lower" else 100.0 - pct), ordered[k - 1]


def metric_line(name, m) -> str:
    line = f"metric {name} {m['value']:.6g} {m['unit']}"
    samples = m["samples"]
    if samples:
        line += f" median={statistics.median(samples):.6g}"
        t = tail(samples, m["better"])
        line += f" p{t[0]:.0f}={t[1]:.6g}" if t else " tail=n/a(<11 samples)"
        line += f" n={len(samples)}"
    else:
        line += " n=1"
    return line


def main(argv=None, perturb=None, **sizes) -> int:
    """Run one workload; `perturb` and `sizes` let the smoke test shrink and corrupt it."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "visarch" / "__init__.py").is_file():
        print(f"perfbench: no visarch package under {src}", file=sys.stderr)
        return 2
    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    import spans
    import workloads

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    run = workloads.Run(perturb)
    tracer = spans.Tracer() if args.trace else None
    workloads.WORKLOADS[args.workload](run, args.seed, args.seconds, tracer, import_s=import_s,
                                       **sizes)

    if tracer is None:
        run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        wanted = END_TO_END
    else:
        checked, errors, block_macs = spans.mac_join(tracer.spans)
        run.attempted += checked
        run.failed += len(errors)
        run.errors += [f"MAC join: {e}" for e in errors]
        run.notes.append(f"MAC join: {checked} traced forwards, {len(errors)} mismatched")
        layers = spans.per_layer(tracer.spans, block_macs)
        for name, (value, unit) in layers.items():
            run.metric(name, value, unit)
        if "models.peak_traced_mb" not in run.metrics:
            run.metric("models.peak_traced_mb", 0.0, "MB")
        run.notes += spans.anchor_lines(tracer.spans, block_macs)
        path = TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        run.notes.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        wanted = (*layers, "models.peak_traced_mb", "trace.overhead_share")

    share = (run.failed + len(run.known)) / max(run.attempted, 1)
    run.metric("failed_share", share, "share")
    for name, m in run.metrics.items():
        print(metric_line(name, m))
    for note in run.notes:
        print("note " + note)
    for line in run.known:
        print("known-failure " + line)
    for line in run.errors:
        print("failed " + line)
    missing = [n for n in wanted if n not in run.metrics]
    if missing or run.attempted == 0:
        print(f"perfbench: run did not produce {missing or 'any checked operation'}",
              file=sys.stderr)
        return 1
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {n: {"value": run.metrics[n]["value"], "unit": run.metrics[n]["unit"]}
                          for n in wanted}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
