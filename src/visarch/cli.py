"""Command-line surface: describe, flops, train, gradcheck, fp16.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 runtime
failure (shape errors, non-finite training, failed gradcheck), 2 unknown
preset or bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, checkpoint, models
from .fp16 import compare_modes, scores_f16
from .attention import SCORE_MODES
from .blocks import LAYERS
from .tensor import NonFiniteError, ShapeError, check_count
from .train import TrainConfig, gradcheck, load_run, save_run, train


def _fmt_shape(shape) -> str:
    return "x".join(str(d) for d in shape)


def cmd_describe(args) -> int:
    config = models.preset(args.preset)
    plan = models.layer_plan(config)
    counts = [sum(n for _, _, n in LAYERS[e.kind].rows(e, config)) for e in plan]
    width = max(len(e.prefix) for e in plan)
    print(f"{config.name}: {config.input_resolution}x{config.input_resolution} input, "
          f"{config.num_classes} classes")
    for e, n in zip(plan, counts):
        print(f"{e.prefix.ljust(width)}  {_fmt_shape(e.in_shape):>12} -> "
              f"{_fmt_shape(e.out_shape):<12}  {n:>12,}")
    print(f"total params ≈ {sum(counts) / 1e6:.1f}M")
    return 0


def cmd_flops(args) -> int:
    config = models.preset(args.preset)
    report = analysis.complexity_report(config, resolution=args.res)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.table())
    return 0


def cmd_train(args) -> int:
    with open(args.config, "rb") as f:  # from_json decodes, so bad bytes say 'not JSON'
        config = TrainConfig.from_json(f.read())
    result = train(config, resume_state=load_run(args.resume) if args.resume else None,
                   stop_after=args.stop_after, log=print)
    out = args.out or f"{config.preset}.vsfm"
    save_run(result, out)
    if result.losses:
        print(f"final loss {result.losses[-1]:.4f}  acc {result.accuracies[-1]:.3f}")
    print(f"saved {out}")
    return 0


def cmd_gradcheck(args) -> int:
    given = {k: v for k, v in vars(args).items() if k in ("tolerance", "samples_per_param")}
    report = gradcheck(args.preset, **given)  # an absent flag keeps gradcheck's default
    print(report.table())
    return 0 if report.passed else 1


def _report_text(rep) -> str:
    d = rep.to_dict()
    width = max(len(k) for k in d)
    return "\n".join(f"{k.ljust(width)} : {v}" for k, v in d.items())


def cmd_fp16(args) -> int:
    check_count("--d", args.d, 1)
    check_count("--tokens", args.tokens, 1)
    rng = np.random.default_rng(check_count("--seed", args.seed, 0))
    if not np.isfinite(2 * args.mag if args.random else args.mag):  # uniform's high - low
        also = ", and so must 2*|mag| with --random" if args.random else ""
        raise ValueError(f"--mag must be finite{also}, got {args.mag!r}")
    if args.random:
        q = rng.uniform(-args.mag, args.mag, (args.tokens, args.d))
        k = rng.uniform(-args.mag, args.mag, (args.tokens, args.d))
    else:
        q = np.full((args.tokens, args.d), args.mag)
        k = np.full((args.tokens, args.d), args.mag)
    if args.mode == "all":
        out = compare_modes(q, k)
        if args.json:
            payload = {m: dict(e["report"].to_dict(),
                               softmax_divergence=e["softmax_divergence"])
                       for m, e in out.items()}
            print(json.dumps(payload, indent=2))
        else:
            for m, e in out.items():
                print(_report_text(e["report"]))
                print(f"{'softmax_divergence'.ljust(18)} : {e['softmax_divergence']}")
                print()
        return 0
    _, _, rep = scores_f16(q, k, args.mode)
    print(json.dumps(rep.to_dict(), indent=2) if args.json else _report_text(rep))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="visarch",
                                     description="hybrid conv/attention model kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="layer-by-layer shape and param table")
    p.add_argument("preset")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("flops", help="MAC/param complexity report")
    p.add_argument("preset")
    p.add_argument("--res", type=int, default=None, help="input resolution")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("train", help="run the training loop from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="checkpoint path")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--stop-after", type=int, default=None,
                   help="interrupt after this many total epochs (for resuming)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("preset")
    p.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS, dest="samples_per_param",
                   help="entries per parameter")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("fp16", help="half-precision attention score emulation")
    p.add_argument("--mode", default="all", choices=SCORE_MODES + ("all",))
    p.add_argument("--d", type=int, required=True, help="head width")
    p.add_argument("--mag", type=float, required=True, help="entry magnitude")
    p.add_argument("--tokens", type=int, default=4)
    p.add_argument("--random", action="store_true",
                   help="uniform entries in [-mag, mag] instead of constant")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fp16)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    except (ShapeError, NonFiniteError, checkpoint.CheckpointError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
