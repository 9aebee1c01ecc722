#!/usr/bin/env python
"""Compare benchmark result files and fail on throughput regressions.

Reads the ``scale_bench``, ``serving_bench``, ``fleet_bench``,
``obs_bench`` and ``loadgen_bench`` sections of
a baseline and one or more candidate ``BENCH_results.json`` files (either
the merged file or a bare section payload) and compares ``events_per_sec``
per entry.  Exits non-zero when any entry present in both sides regresses by
more than ``--max-regression`` (default 25%).

Multiple candidate files are combined per entry before comparison — by
default the *best* (highest) events/sec wins, ``--stat median`` takes the
median instead — so CI can run the benchmark script N times and gate on a
noise-resistant aggregate rather than a single sample::

    PYTHONPATH=src python benchmarks/bench_scale.py --preset small --output /tmp/r1.json
    PYTHONPATH=src python benchmarks/bench_scale.py --preset small --output /tmp/r2.json
    PYTHONPATH=src python benchmarks/compare_bench.py benchmarks/BENCH_baseline.json /tmp/r1.json /tmp/r2.json

CI runs this against the committed ``benchmarks/BENCH_baseline.json``;
refresh that baseline by copying fresh ``bench_scale``/``bench_serving``/
``bench_fleet`` runs when the hardware or an intentional trade-off changes
the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List


#: Gated sections of a merged ``BENCH_results.json`` document.
SECTIONS = (
    "scale_bench",
    "serving_bench",
    "fleet_bench",
    "obs_bench",
    "loadgen_bench",
)


def load_document(path: str) -> Dict:
    """The whole JSON document of a bench file, validated to be an object."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return document


def load_results(path: str) -> Dict[str, Dict]:
    """Per-entry results of a bench file (merged document or bare payload).

    Entries from every gated section are pooled into one mapping (the entry
    keys — ``large_gpu_*``, ``serving_*`` — are disjoint by construction).
    """
    return _results_of(load_document(path), path)


def _results_of(document: Dict, path: str) -> Dict[str, Dict]:
    """Pool the gated per-entry results out of a loaded bench document."""
    results: Dict[str, Dict] = {}
    for section in SECTIONS:
        payload = document.get(section)
        if isinstance(payload, dict) and isinstance(payload.get("results"), dict):
            results.update(payload["results"])
    if not results and isinstance(document.get("results"), dict):
        # A bare section payload (e.g. bench_scale --output to a fresh file).
        results = document["results"]
    if not results:
        raise ValueError(
            f"{path}: no {' / '.join(SECTIONS)} results found"
        )
    return results


def combine_candidates(
    candidates: List[Dict[str, Dict]], *, stat: str = "best"
) -> Dict[str, Dict]:
    """Fold N candidate runs into one result set, entry by entry.

    ``best`` keeps the highest ``events_per_sec`` seen for each entry (the
    usual benchmarking convention: the fastest run is the least perturbed);
    ``median`` takes the per-entry median instead (robust when a machine is
    noisy in both directions).  Entries missing from some runs are combined
    over the runs that have them.
    """
    if stat not in ("best", "median"):
        raise ValueError(f"unknown stat {stat!r} (expected 'best' or 'median')")
    combined: Dict[str, Dict] = {}
    samples: Dict[str, List[float]] = {}
    for candidate in candidates:
        for key, entry in candidate.items():
            samples.setdefault(key, []).append(float(entry["events_per_sec"]))
            if key not in combined:
                combined[key] = dict(entry)
    for key, values in samples.items():
        if stat == "best":
            combined[key]["events_per_sec"] = max(values)
        else:
            combined[key]["events_per_sec"] = statistics.median(values)
    return combined


def check_sharding_speedup(
    documents: List[Dict], *, min_speedup: float = 1.0
) -> int:
    """Gate the ``fleet_bench`` ``sharding_speedup`` where it can exist.

    Sharding runs fleet shards in worker processes, so on a multi-core
    machine the sharded epoch must actually beat serial (best recorded
    speedup >= ``min_speedup``).  A 1-CPU box cannot speed anything up —
    the workers time-share one core and the IPC overhead records a <1x
    "speedup" that is not a regression — so the expectation is SKIPPED
    when the recorded ``cpu_count`` is 1 (or absent).  Returns the number
    of failed expectations (0 or 1).
    """
    observed: List[float] = []
    for document in documents:
        payload = document.get("fleet_bench")
        if not isinstance(payload, dict) or "sharding_speedup" not in payload:
            continue
        cpu_count = int(payload.get("cpu_count") or 0)
        speedup = float(payload["sharding_speedup"])
        if cpu_count <= 1:
            print(
                f"fleet sharding_speedup {speedup:.2f}x: SKIPPED "
                f"(cpu_count={cpu_count}: a 1-CPU box records IPC-bound <1x)"
            )
            continue
        observed.append(speedup)
    if not observed:
        return 0
    best = max(observed)
    status = "ok" if best >= min_speedup else "TOO SLOW"
    print(f"fleet sharding_speedup: best {best:.2f}x (need >= {min_speedup:.2f}x) [{status}]")
    return 0 if best >= min_speedup else 1


def compare(
    baseline: Dict[str, Dict], candidate: Dict[str, Dict], *, max_regression: float
) -> int:
    """Print the per-preset comparison; return the number of regressions.

    Raises :class:`ValueError` when the two files share no presets — that is
    a comparison that never happened, not a throughput regression.
    """
    shared = [key for key in baseline if key in candidate]
    if not shared:
        raise ValueError("baseline and candidate share no presets")
    regressions = 0
    for key in sorted(shared):
        old = float(baseline[key]["events_per_sec"])
        new = float(candidate[key]["events_per_sec"])
        change = (new - old) / old if old else 0.0
        status = "ok"
        if old and new < old * (1.0 - max_regression):
            status = "REGRESSION"
            regressions += 1
        print(
            f"{key}: {old:,.0f} -> {new:,.0f} events/s ({change:+.1%}) [{status}]"
        )
    only = sorted(set(baseline) - set(candidate))
    if only:
        print(f"note: presets only in baseline (not compared): {', '.join(only)}")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline bench file (committed reference)")
    parser.add_argument(
        "candidates",
        nargs="+",
        help="fresh bench file(s) to check; several runs are combined per "
        "entry with --stat before comparison",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional events/sec drop per preset (default: 0.25)",
    )
    parser.add_argument(
        "--stat",
        choices=("best", "median"),
        default="best",
        help="how to combine several candidate runs per entry (default: best)",
    )
    parser.add_argument(
        "--min-sharding-speedup",
        type=float,
        default=1.0,
        help="required fleet_bench sharding_speedup on multi-core machines; "
        "skipped when the candidate recorded cpu_count == 1 (default: 1.0)",
    )
    args = parser.parse_args(argv)
    try:
        documents = [load_document(path) for path in args.candidates]
        candidate_results = [
            _results_of(document, path)
            for document, path in zip(documents, args.candidates)
        ]
        regressions = compare(
            load_results(args.baseline),
            combine_candidates(candidate_results, stat=args.stat),
            max_regression=args.max_regression,
        )
        regressions += check_sharding_speedup(
            documents, min_speedup=args.min_sharding_speedup
        )
    except (OSError, ValueError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    if regressions:
        print(
            f"ERROR: {regressions} preset(s) regressed more than "
            f"{args.max_regression:.0%} in events/s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
