#!/usr/bin/env python3
"""Scaling sweep of the live path (not a workload of the benchmark).

    python3 bench/sweep.py

Two axes, each point one live session through cli.main:

* stream length: replace.json on (001)^w with --theta-policy lcm, at
  2k, 8k and 32k letters;
* machine size: replace_k for k = 2..12 on a seeded word of 0-runs of
  length 1 and 2 closed by each of the k letters.

For each point it prints microseconds per letter after set-up (untraced),
and the share of self time of the three busiest layers in a traced repeat
of the same session.  Takes a few minutes; the 32k point needs ~200 MB.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import generators as gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from omegastream import fixture_path, nft  # noqa: E402

LENGTHS = (2000, 8000, 32000)
KS = range(2, 13)
SEED = 1


def letters_for(k: int) -> int:
    return 2000 if k <= 8 else 1000 if k <= 10 else 600


def point(stream: workloads.Stream):
    ledger = workloads.Ledger()
    session = workloads.live_session(stream, ledger)
    if session is None:
        return None, ledger.failures[0].detail
    us = session.stream_s() / session.letters * 1e6
    tracer = spans.Tracer()
    ledger.on_op = tracer.begin_op
    spans.install(tracer)
    try:
        workloads.live_session(stream, ledger)
    finally:
        tracer.uninstall()
    shares = tracer.self_time(lambda kind: True)
    total = sum(shares.values())
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
    return us, "  ".join(f"{k} {v / total:.0%}" for k, v in top)


def main() -> int:
    work_dir = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    print("stream length: replace.json on (001)^w, --theta-policy lcm")
    replace = nft.load(fixture_path("replace.json"))
    word = gen.BlockWord((), ((2, "1"),))
    for n in LENGTHS:
        s = workloads.Stream("replace", fixture_path("replace.json"), replace,
                             word, word.image(gen.replace_out), n,
                             ("--theta-policy", "lcm"))
        us, note = point(s)
        print(f"  {n:6d} letters  {us:9.1f} us/letter  {note}", flush=True)
    print("machine size: replace_k, 0-runs of 1 and 2")
    for k in KS:
        doc = gen.replace_k(k)
        path = workloads.write_machine(work_dir, f"replace_{k}", doc)
        w = gen.wide_word(random.Random(SEED), k)
        s = workloads.Stream(f"replace_{k}", path, nft.from_dict(doc), w,
                             w.image(gen.replace_out), letters_for(k))
        us, note = point(s)
        print(f"  k={k:2d} {len(s.letters):5d} letters  {us:9.1f} us/letter"
              f"  {note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
