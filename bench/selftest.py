#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size (about a minute).

    python3 bench/selftest.py

Checks that:
* every metric that BENCHMARK.json names is emitted, with its unit, by the
  untraced and by the traced run of every workload;
* a deliberately wrong reference is counted as a failed operation;
* verify-batch counts the documented sst_to_twoway defect as failures
  while the run stays correct;
* the same seed gives the same exact counts in two traced runs;
* run.py, in a directory holding only BENCHMARK.json and bench/, exits
  with an error and prints no result.
Exits 1 and names the failed checks if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".bench_work")
TINY = {
    "live-fixtures": dict(n_letters=300),
    "wide-machine": dict(k=6, n_letters=100),
    "verify-batch": dict(n_letters=60, pipeline_letters=40, oracle_words=1,
                         check_words=1),
}
EXACT = ("determinize.mode_switches", "determinize.trace_records",
         "annotator.cover_calls", "analysis.is_compatible_calls",
         "convert.out_states", "convert.out_registers", "cli.lines_flushed")

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def plan(name: str, seed: int = 7):
    return workloads.WORKLOADS[name](seed, WORK_DIR, **TINY[name])


def untraced(name: str, p=None):
    ledger = workloads.Ledger()
    metrics, _ = measure.measure(p or plan(name), ledger, seconds=0)
    return ledger, metrics


def traced(name: str):
    ledger = workloads.Ledger()
    path = os.path.join(WORK_DIR, f"selftest-{name}.jsonl")
    metrics, _ = measure.traced(plan(name), ledger, path)
    return ledger, metrics


def same_units(metrics, declared) -> bool:
    return ({k: u for k, (_, u) in metrics.items()}
            == {m["name"]: m["unit"] for m in declared})


def main() -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    expect(sorted(names) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json names the three workloads")
    for name in names:
        ledger, metrics = untraced(name)
        expect(same_units(metrics, bench["end_to_end"]),
               f"{name}: every end-to-end metric emitted with its unit")
        expect(all(v > 0 for v, _ in metrics.values()),
               f"{name}: no end-to-end metric is 0")
        first, traced_metrics = traced(name)
        expect(same_units(traced_metrics, bench["per_layer"]),
               f"{name}: every per-layer metric emitted with its unit")
        second, again = traced(name)
        expect(all(traced_metrics[k][0] == again[k][0] for k in EXACT),
               f"{name}: exact counts repeat for the same seed")
        expect(untraced(name)[1]["out_gap_letters_max"]
               == metrics["out_gap_letters_max"],
               f"{name}: out_gap_letters_max repeats for the same seed")
        if name == "verify-batch":
            known = [f for f in ledger.failures if f.known_defect]
            expect(ledger.correct and len(known) == len(workloads.KFLUSH_KS)
                   and ledger.failed == len(known),
                   f"{name}: the sst_to_twoway defect is counted, "
                   f"run correct")
        else:
            expect(ledger.correct and ledger.failed == 0,
                   f"{name}: no operation fails")

    p = plan("live-fixtures")
    prefix, period = p.streams[0].ref  # replace's output has no letter x
    p.streams[0].ref = (prefix, "x" + period[1:])
    ledger, _ = untraced("live-fixtures", p)
    expect(ledger.failed >= 1 and not ledger.correct,
           "a wrong reference is counted as a failure")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "live-fixtures",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        expect(r.returncode != 0 and not r.stdout.strip(),
               "without the library sources run.py fails and prints nothing")

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
