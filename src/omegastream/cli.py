"""Command-line front end.

Subcommands: check, analyze, annotate, determinize (run), run, convert,
oracle.  annotate, run and determinize run take exactly one of
``--input`` and ``--stdin``.  ``run --letters n`` reads exactly n input
letters and ``annotate --letters n`` prints C0 and n annotated letters;
n must be >= 0.  check, analyze and run run the continuity search, which
has no options.  ``--max-lookahead`` (>= 0) is an opt-in lookahead cap,
with no default.  Exit status:

- 0 on success;
- 1 on negative verdicts (among them a machine given to analyze or run
  that is not continuous) or inputs outside a domain (among them a letter
  outside the machine's input alphabet);
- 2 on contract violations (among them an ambiguous machine given to
  analyze or annotate), malformed files, or an analysis search that ran
  out of its node budget (BudgetExceeded).

An exception mapped to 1 or 2 prints one ``error: ...`` line to stderr,
never a traceback.  A reader that closes stdout early (``run --stdin |
head -n 2``) ends the command quietly with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice

from . import convert as conv
from . import nft, sst, twoway
from .analysis import (
    AnalysisContext,
    BudgetExceeded,
    ContinuityViolation,
    is_continuous,
)
from .annotator import (DivergedError, UnknownLetterError, annotate,
                        check_letters)
from .determinize import InvariantError, StreamSession, prepare
from .nft import AmbiguityError, ContractError
from .words import format_upword, parse_upword

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONTRACT = 2


def _fmt_word(w) -> str:
    return "".join(map(str, w))


def _add_common(p):
    p.add_argument("--format", choices=["text", "json"], default="text")


def _add_source(p):
    """--input or --stdin: exactly one of them."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None, help='UP word, e.g. "001(01)^w"')
    source.add_argument("--stdin", action="store_true",
                        help="read letters from stdin, one per line")


def _check_counts(args):
    """ContractError for a numeric option below its least value."""
    for flag, dest, least in (("--letters", "letters", 0),
                              ("--max-lookahead", "max_lookahead", 0),
                              ("--k", "k", 1)):
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise ContractError(f"{flag} must be >= {least}")


def _input_letters(args):
    """The UP word of --input, or the letters of stdin, one per line."""
    if args.input is not None:
        return parse_upword(args.input)

    def from_stdin():
        for line in sys.stdin:
            tok = line.strip()
            if tok:
                yield tok

    return from_stdin()


# -- check --------------------------------------------------------------------


def cmd_check(args) -> int:
    T = nft.load(args.machine)
    verdicts = {
        "trim": nft.is_trim(T),
        "clean": nft.is_clean(T),
        "unambiguous": nft.is_unambiguous(T),
        "productive": nft.is_productive(T),
    }
    ok, witness = is_continuous(T)
    if args.format == "json":
        doc = dict(verdicts)
        doc["continuous"] = ok
        if witness is not None:
            doc["witness"] = {
                "u": _fmt_word(witness.u),
                "u_loop": _fmt_word(witness.u_loop),
                "words": [format_upword(w) for w in witness.words],
            }
        print(json.dumps(doc))
    else:
        for k, v in verdicts.items():
            print(f"{k}: {str(v).lower()}")
        if ok:
            print("continuous: true")
        else:
            print(
                f"continuous: false (witness u={_fmt_word(witness.u)}, "
                f"u'={_fmt_word(witness.u_loop)})"
            )
    return EXIT_OK if ok else EXIT_NEGATIVE


# -- analyze --------------------------------------------------------------------


def _load_unambiguous(path):
    """The normalized machine; AmbiguityError before any analysis, whose
    searches assume an unambiguous machine."""
    T = nft.normalize(nft.load(path))
    if not nft.is_unambiguous(T):
        raise AmbiguityError(f"{path}: the machine is ambiguous")
    return T


def cmd_analyze(args) -> int:
    ctx = prepare(_load_unambiguous(args.machine))
    T = ctx.T
    C0 = frozenset(T.initial)
    rows = []
    for C in ctx.comp_subsets(C0):
        sep = ctx.is_separable(C)
        rows.append(
            {
                "set": sorted(C),
                "separable": sep is not None,
                "unequal_pair": sorted(sep.unequal_pair) if sep else None,
            }
        )
    doc = {
        "states": sorted(T.states),
        "initial": sorted(T.initial),
        "final": sorted(T.final),
        "theta_length": ctx.theta_length(),
        "compatible_subsets_of_initial": rows,
    }
    if args.format == "json":
        print(json.dumps(doc))
    else:
        print(f"states: {len(doc['states'])}")
        print(f"initial: {{{','.join(doc['initial'])}}}")
        print(f"final: {{{','.join(doc['final'])}}}")
        print(f"theta length: {doc['theta_length']}")
        for row in rows:
            tag = "separable" if row["separable"] else "not separable"
            extra = (
                f" (loop lengths differ at {row['unequal_pair']})"
                if row["separable"]
                else ""
            )
            print(f"compatible {{{','.join(row['set'])}}}: {tag}{extra}")
    return EXIT_OK


# -- annotate --------------------------------------------------------------------


def cmd_annotate(args) -> int:
    _check_counts(args)
    T = _load_unambiguous(args.machine)
    ctx = AnalysisContext(T)
    source = _input_letters(args)
    ann = annotate(ctx, source, max_lookahead=args.max_lookahead)
    ann = islice(ann, None if args.letters is None else args.letters + 1)
    C0 = next(ann, None)
    if C0 is None:  # stdin ended before C0 was fixed
        return EXIT_OK

    def show(C):
        return "{" + ",".join(sorted(C)) + "}"

    if args.format == "json":
        print(json.dumps({"C0": sorted(C0)}))
    else:
        print(f"C0 {show(C0)}")
    for i, (a, C) in enumerate(ann, start=1):
        if args.format == "json":
            print(json.dumps({"i": i, "letter": a, "C": sorted(C)}))
        else:
            print(f"{a}\t{show(C)}")
    return EXIT_OK


# -- determinize run / run ---------------------------------------------------------


def _trace_line(rec) -> str:
    return json.dumps(
        {
            "i": rec.index,
            "letter": rec.letter,
            "mode": rec.mode,
            "C": sorted(rec.C),
            "lag": {q: _fmt_word(w) for q, w in rec.lag.items()},
            "max_lag": _fmt_word(rec.max_lag),
            "nb": {
                name: dict(vals) for name, vals in sorted(rec.nb.items())
            },
            "emitted": _fmt_word(rec.emitted_delta),
        }
    )


class _PrintedTrace:
    """A step-record sink that prints each record as a JSON line and keeps
    only their count."""

    def __init__(self):
        self.n = 0

    def append(self, rec) -> None:
        print(_trace_line(rec))
        self.n += 1

    def __len__(self) -> int:
        return self.n


def cmd_determinize(args) -> int:
    """--stdin flushes each output increment, then prints the whole output;
    --input prints only the whole output.  --trace prints one record per
    step, the init record included, in place of the increments.

    With --format json each flushed increment is a line {"i": letters
    consumed, "delta": output}, and the run ends, in both modes, with the
    summary {"steps": letters consumed, "emitted": whole output}.

    When stdin ends while the annotator is still looking ahead to fix the
    cover of the last letters, those letters stay unconsumed and the run
    ends normally (exit 0) with the output of the letters before them.
    A stream that goes on but has no compatible cover still exits 1."""
    T = nft.load(args.machine)
    source = _input_letters(args)
    x = source if args.input is not None else None
    if x is not None and args.letters is None:
        raise ContractError("--letters is required with --input")
    _check_counts(args)
    ctx = prepare(T)
    session = StreamSession(ctx, x, args.check_invariants,
                            trace=_PrintedTrace() if args.trace else None)
    ann = annotate(ctx, source, max_lookahead=args.max_lookahead)
    for _, delta in session.run(ann, args.letters):
        if x is None and delta and not args.trace:
            line = _fmt_word(delta)
            if args.format == "json":
                line = json.dumps({"i": session.steps, "delta": line})
            print(line, flush=True)
    if args.format == "json":
        print(json.dumps(
            {"steps": session.steps, "emitted": _fmt_word(session.emitted)}))
    elif x is not None or not args.trace:
        print(_fmt_word(session.emitted))
    return EXIT_OK


# -- oracle --------------------------------------------------------------------


def cmd_oracle(args) -> int:
    T = nft.load(args.machine)
    x = parse_upword(args.input)
    check_letters(x, T.input_alphabet)
    y = nft.oracle_eval(T, x)
    if y is None:
        print("undefined")
        return EXIT_NEGATIVE
    print(format_upword(y))
    return EXIT_OK


# -- convert --------------------------------------------------------------------


def cmd_convert(args) -> int:
    _check_counts(args)
    pair = (args.source, args.target)
    if pair == ("2dt", "sst"):
        machine = conv.twoway_to_sst(twoway.load(args.infile))
        sst.save(machine, args.outfile)
    elif pair == ("sst", "2dt"):
        machine = conv.sst_to_twoway(sst.load(args.infile))
        twoway.save(machine, args.outfile)
    elif pair == ("ksst", "copyless"):
        if args.k is None:
            raise ContractError("--k is required for ksst inputs")
        machine = conv.kbounded_to_copyless(sst.load(args.infile), args.k)
        sst.save(machine, args.outfile)
    else:
        raise ContractError(
            f"unsupported conversion {args.source} -> {args.target}"
        )
    print(f"wrote {args.outfile}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="omegastream",
        description="Continuity analysis and streaming evaluation of "
        "transducers over infinite words.",
    )
    subs = root.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="structural and continuity verdicts")
    p.add_argument("machine")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("analyze", help="compatible-set analysis")
    p.add_argument("machine")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("annotate", help="compatible-set annotations of a stream")
    p.add_argument("machine")
    _add_source(p)
    p.add_argument("--letters", type=int, default=None)
    p.add_argument("--max-lookahead", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_annotate)

    def det_parser(name, with_action):
        p = subs.add_parser(
            name, help="stream the deterministic evaluation of a machine"
        )
        if with_action:
            p.add_argument("action", choices=["run"])
        p.add_argument("machine")
        _add_source(p)
        p.add_argument("--letters", type=int, default=None)
        p.add_argument("--max-lookahead", type=int, default=None)
        p.add_argument("--check-invariants", action="store_true")
        p.add_argument("--trace", action="store_true")
        # ignored: Theta is always the lcm period, but bench/sweep.py passes it
        p.add_argument("--theta-policy", choices=["lcm"], help=argparse.SUPPRESS)
        _add_common(p)
        p.set_defaults(func=cmd_determinize)

    det_parser("determinize", with_action=True)
    det_parser("run", with_action=False)

    p = subs.add_parser("convert", help="convert between machine models")
    p.add_argument("--from", dest="source", required=True,
                   choices=["2dt", "sst", "ksst"])
    p.add_argument("--to", dest="target", required=True,
                   choices=["sst", "2dt", "copyless"])
    p.add_argument("--k", type=int, default=None,
                   help="copy bound K for ksst inputs")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=cmd_convert)

    p = subs.add_parser("oracle", help="exact evaluation on a UP word")
    p.add_argument("machine")
    p.add_argument("input", help='UP word, e.g. "(001)^w"')
    p.set_defaults(func=cmd_oracle)

    return root


# One parser per process: the cmd_* it binds look up their helpers at call time.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ContinuityViolation, DivergedError, UnknownLetterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (
        ContractError,
        AmbiguityError,
        BudgetExceeded,
        InvariantError,
        conv.ConversionError,
        ValueError,
        KeyError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
