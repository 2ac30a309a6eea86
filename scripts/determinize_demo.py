#!/usr/bin/env python3
"""Streaming-evaluation demo: watch the deterministic machine emit output
letter by letter, next to the exact oracle."""

import argparse

from omegastream import fixture_path, nft
from omegastream.determinize import one_bounded_trace, run_pipeline
from omegastream.words import format_upword, parse_upword


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--machine", default=fixture_path("replace.json"))
    ap.add_argument("--input", default="(001)^w")
    ap.add_argument("--letters", type=int, default=40)
    args = ap.parse_args()

    T = nft.load(args.machine)
    x = parse_upword(args.input)
    y = nft.oracle_eval(T, x)
    print(f"input : {args.input}")
    print(f"oracle: {format_upword(y) if y else 'undefined'}")
    r = run_pipeline(T, x, args.letters, check_invariants=True)
    print(f"run   : {args.letters} letters consumed, "
          f"{len(r.emitted)} letters emitted")
    for rec in r.trace:
        if rec.letter is None:
            continue
        delta = "".join(map(str, rec.emitted_delta)) or "-"
        print(f"  [{rec.index:3d}] read {rec.letter}  mode={rec.mode:6s} "
              f"C={{{','.join(rec.C)}}}  emit {delta}")
    print(f"emitted: {''.join(map(str, r.emitted))}")
    print(f"trace 1-bounded: {one_bounded_trace(r.trace)}")


if __name__ == "__main__":
    main()
