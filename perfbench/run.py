"""Repository benchmark: tuning-session throughput, search quality and
serving latency, with a traced run that splits time by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload model-search --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload untraced and traced and reports the
per-layer metrics.  The human-readable report and a ``report`` JSON
line (host stamp, per-endpoint counts, checks) come first; the last
line of standard output is the result object.  Any failed correctness
check sets ``"correct": false`` and a non-zero exit code.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import benchutil

WORKLOADS = ("model-search", "population-search", "serve-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every session and request count "
                             "(the benchmark's own tests use it)")
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload in-process; returns result plus report."""
    spans_path = None
    if trace:
        os.makedirs(benchutil.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(benchutil.OUT_DIR,
                                  f"spans-{workload}.jsonl")
    if workload == "serve-mix":
        from serve_load import run_serve_workload

        return run_serve_workload(seed, seconds, trace, size, spans_path)
    from search_load import run_search_workload

    return run_search_workload(workload, seed, seconds, trace, size,
                               spans_path=spans_path)


def result_line(outcome: dict, trace: bool) -> dict:
    """The result object printed last: correct, attempted, failed, metrics."""
    from layers import PER_LAYER_UNITS

    metrics = {}
    for name, value in outcome["metrics"].items():
        unit = PER_LAYER_UNITS[name] if trace else value[1]
        number = value if trace else value[0]
        metrics[name] = {"value": float(number), "unit": unit}
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    benchutil.use_repo_sources()
    if args.setup_probe:
        if args.workload == "serve-mix":
            from serve_load import setup_probe
        else:
            from search_load import setup_probe
        setup_probe(args.workload, args.seed, args.size, args.setup_probe)
        return 0
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace,
                           args.size)
    line = result_line(outcome, trace)
    report = {"stamp": benchutil.stamp(args.workload, args.seed),
              "trace": trace, **outcome["report"]}
    for name, metric in line["metrics"].items():
        print(f"{args.workload:18s} {name:34s} {metric['value']:14.4f} "
              f"{metric['unit']}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(line))
    sys.stdout.flush()
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
