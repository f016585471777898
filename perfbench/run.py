"""Benchmark entry point.

    python3 perfbench/run.py --workload single_query --seed 1 --seconds 25 --trace 0

Runs one workload against the program in ``src/`` of the checkout it
sits in, checks every output, prints each metric by name with its unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The exit code is 1 when a check fails and
2 when the program cannot be found or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Everything the benchmark writes (backbone cache, span files).
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics, measured with tracing off, in every workload.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "goodput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  Each is measured on the
#: workload it is expected to move (see README.md) and reads 0 on the
#: others.
PER_LAYER = {
    "serve.fleet.overhead_ms": "ms",
    "serve.engine.wait_ms": "ms",
    "text.encode_ms": "ms",
    "lang.parse_ms": "ms",
    "core.backbone_ms": "ms",
    "core.encoder_ms": "ms",
    "core.rel2att_ms": "ms",
    "core.rel2att_clause_ms": "ms",
    "core.detector_ms": "ms",
    "graph.forward_ms": "ms",
    "graph.eager_forward_ms": "ms",
    "graph.eager_frac": "ratio",
    "graph.compile_ms": "ms",
    "graph.plans": "count",
    "detection.decode_ms": "ms",
    "detection.nms_ms": "ms",
    "clause_latency_p50_ms": "ms",
    "serve.fleet.hit_rate": "ratio",
    "serve.fleet.depth_max": "count",
    "serve.fleet.balance": "ratio",
    "serve.fleet.retries": "count",
    "serve.fleet.shed": "count",
    "serve.engine.batch_mean": "count",
    "serve.engine.hit_rate": "ratio",
    "serve.replica.cpu_ms_per_req": "ms",
    "serve.replica.threads": "count",
    "loadgen.late_p99_ms": "ms",
    "serve.mix.latency_p50_ms": "ms",
    "serve.mix.latency_p90_ms": "ms",
    "data.loader.encode_ms": "ms",
    "core.forward_ms": "ms",
    "core.losses_ms": "ms",
    "autograd.backward_ms": "ms",
    "optim.step_ms": "ms",
    "autograd.conv2d_fwd_ms": "ms",
    "autograd.conv2d_bwd_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.reconcile_gap_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("single_query", "train_step"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Put the checkout's ``src`` on the path; keep every write inside it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise FileNotFoundError(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    # The backbone weight cache defaults to the home directory.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(OUTPUT_DIR, "cache")


def report(result, args) -> dict:
    """Print the run for a reader; return the final JSON object."""
    import common

    names = PER_LAYER if args.trace else END_TO_END
    unknown = set(result.metrics) - set(names)
    missing = set() if args.trace else set(names) - set(result.metrics)
    if unknown or missing:
        raise KeyError(f"metrics not measured {sorted(missing)}, "
                       f"not declared {sorted(unknown)}")
    metrics = {name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
               for name, unit in names.items()}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>12.4f} {entry['unit']}")
    for name, value in result.notes.items():
        print(f"  {name:<28} {value}")
    print(f"  attempted {result.attempted}  failed {result.failed}")
    for line in result.checks:
        print(f"  check {line}")
    print("environment " + json.dumps(common.environment(), sort_keys=True))
    if args.trace:
        path = os.path.join(OUTPUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        print(f"spans ({len(result.spans.spans)}) written to "
              f"{os.path.relpath(result.spans.write(path), ROOT)}")
    return {"correct": bool(result.correct), "attempted": int(result.attempted),
            "failed": int(result.failed), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_environment()
        from common import fill_backbone_cache, stop_resource_tracker
        from workloads import WORKLOADS

        try:
            fill_backbone_cache()
            result = WORKLOADS[args.workload](args.seed, args.seconds,
                                              bool(args.trace))
        finally:
            stop_resource_tracker()
        summary = report(result, args)
    except Exception:  # report why, print no result, fail the run
        traceback.print_exc()
        return 2
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
