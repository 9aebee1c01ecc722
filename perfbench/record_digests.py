"""Recompute ``perfbench/digests.json``, the stored simulated-output digests.

Run from the repository root after a change that deliberately alters
simulated results (every workload then reports ``correct: false`` until the
digests are recomputed)::

    PYTHONPATH=src python3 -m perfbench.record_digests --seeds 32

Seeded workloads store one digest per seed ``0 .. seeds-1``; the closed
loops store one digest for their fixed preset.  Seeds outside the table are
still checked, run against run, within each benchmark invocation.
"""

from __future__ import annotations

import argparse

from perfbench.harness import record_digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32, help="seeds 0 .. N-1 to record")
    args = parser.parse_args(argv)
    table = record_digests(range(args.seeds))
    for family, digests in table.items():
        print(f"{family}: {len(digests)} digest(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
