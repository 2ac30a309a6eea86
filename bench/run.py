#!/usr/bin/env python3
"""Run one workload of the omegastream benchmark and print its metrics.

    python3 bench/run.py --workload live-fixtures --seed 1 --seconds 30 --trace 0

Workloads: live-fixtures, wide-machine, verify-batch (see bench/README.md).
The library is imported from src/ next to this directory; nothing needs
building.  One process, one thread, closed loop with one client: each live
session hands the next letter over only when the CLI asks for it.

--trace 0 measures for about --seconds seconds and prints the end-to-end
metrics, with times in host-normalised virtual time (hostclock.py).
--trace 1 runs a fixed unit of work (a few set-ups, one batch,
one untraced and one traced round of live sessions) with the library's
public functions wrapped, prints the per-layer metrics, and writes the
spans to .bench_work/.  A human-readable report comes first; the last
line is one JSON object with the keys correct, attempted, failed and
metrics ({name: {"value", "unit"}}).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("live-fixtures", "wide-machine", "verify-batch")


def report(args, ledger, metrics, notes) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  {'error_rate':36s} {rate:14.6g} ratio  "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for f in ledger.failures:
        tag = "  [known defect]" if f.known_defect else ""
        print(f"  failed: {f.kind} {f.name}: {f.detail}{tag}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "omegastream", "__init__.py")):
        print(f"error: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    import workloads

    os.makedirs(WORK_DIR, exist_ok=True)
    plan = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR)
    ledger = workloads.Ledger()
    if args.trace:
        out = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        metrics, notes = measure.traced(plan, ledger, out)
    else:
        metrics, notes = measure.measure(plan, ledger, args.seconds)
    report(args, ledger, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
