#!/usr/bin/env python3
"""Run one benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload closed_128sm --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics
(profiling off); ``--trace 1`` adds one profiled execution and reports the
per-layer metrics.  Standard output carries a provenance line, one
``name value unit`` line per metric and, last, the result as one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
missing simulator or a failed run exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Import the simulator before any clock starts: interpreter and import
    # time belong to neither set-up nor the run.
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path.pop(0)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        from perfbench.harness import measure
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report any failed run, print no result
        traceback.print_exc()
        return 1

    for note in result.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if args.trace:
        print(json.dumps({"spans": result.spans.to_dicts()}), file=sys.stderr)
    print("provenance " + json.dumps(result.provenance, sort_keys=True))
    for name, value in result.metrics.items():
        print(f"{name} {value} {result.units[name]}")
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
