"""The benchmark's workloads and the loop that runs them.

Each workload has two parts:

* streams: live sessions of ``omegastream run --stdin``, called in-process
  through ``cli.main`` with stdin and stdout replaced by objects that
  timestamp every letter handed over and every line flushed;
* a batch: a fixed list of whole-machine operations (verdicts, oracle
  calls, pipeline runs, conversions) whose duration is ``batch_s``.

Every operation is checked against a reference that the library does not
compute (see ``generators``) and recorded in a ``Ledger``; a failure is
counted, never raised.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import generators as gen
from omegastream import cli, convert, determinize, fixture_path, nft, sst, twoway
from omegastream import analysis
from omegastream.words import canonicalize

clock = time.perf_counter


# -- operations and their outcomes --------------------------------------------------


@dataclass
class Failure:
    kind: str
    name: str
    detail: str
    known_defect: bool


class Ledger:
    """Outcome of each distinct operation, keyed by (kind, name).

    A workload repeats its operations to time them; an operation counts
    once, and it fails if any of its repetitions fails.  ``known(detail)``
    marks a failure as the documented ``sst_to_twoway`` defect (README.md):
    it is counted like any other failure but does not make the run
    incorrect.
    """

    def __init__(self):
        self.outcomes: Dict[Tuple[str, str], Optional[Failure]] = {}
        self.on_op: Optional[Callable[[str], None]] = None

    def check(self, kind: str, name: str, fn: Callable[[], Optional[str]],
              known: Optional[Callable[[str], bool]] = None) -> None:
        """Run one operation; fn returns None on success or a reason."""
        if self.on_op is not None:
            self.on_op(kind)
        try:
            detail = fn()
        except Exception as e:  # a raising operation is a failed operation
            detail = f"raised {type(e).__name__}: {e}"
        failure = None
        if detail is not None:
            failure = Failure(kind, name, detail,
                              bool(known and known(detail)))
        key = (kind, name)
        if self.outcomes.get(key) is None:
            self.outcomes[key] = failure

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[Failure]:
        return [f for f in self.outcomes.values() if f is not None]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f.known_defect for f in self.failures)


# -- live sessions ---------------------------------------------------------------


class _Stdin:
    """Letters one per line; records when each one is handed over."""

    def __init__(self, letters: List[str]):
        self.letters = letters
        self.times: List[float] = []

    def __iter__(self):
        times = self.times
        for a in self.letters:
            times.append(clock())
            yield a + "\n"
        times.append(clock())  # the request that found the end


class _Stdout:
    """Records each flushed line with its time and the letters read."""

    def __init__(self, stdin: _Stdin):
        self.stdin = stdin
        self.parts: List[str] = []
        self.lines: List[Tuple[float, int, str]] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        return len(s)

    def flush(self) -> None:
        if self.parts:
            read = min(len(self.stdin.times), len(self.stdin.letters))
            self.lines.append((clock(), read, "".join(self.parts).strip()))
            self.parts = []


@dataclass
class Stream:
    """One live session: a machine file for the CLI and a block word."""

    name: str
    path: str
    machine: object  # the OneWayTransducer, for the verdict and the oracle
    word: gen.BlockWord
    ref: Tuple[str, str]  # reference output (prefix, period)
    n_letters: int
    flags: Tuple[str, ...] = ()
    expected: Optional[Tuple[str, str]] = None  # oracle_eval's output

    def __post_init__(self):
        self.letters = self.word.stream(self.n_letters)
        self.x = canonicalize(*self.word.letters())


def _wall(t: float) -> float:
    return t


@dataclass
class Session:
    """Raw clock readings of one live session, kept in arrays so that a
    run's sessions add little to the peak resident memory.  The durations
    take the clock map v of the run (hostclock), wall time by default."""

    pulls: array  # hand-over of each letter, then the request at the end
    end: float  # when cli.main returned
    flush_times: array  # per flushed line
    flush_reads: array  # letters read when the line was flushed

    @property
    def letters(self) -> int:
        return len(self.pulls) - 1

    @property
    def late_from(self) -> int:
        return 3 * self.letters // 4

    @property
    def lines(self) -> int:
        return len(self.flush_reads)

    @property
    def gap_max(self) -> int:
        """Most letters read between two consecutive flushed lines."""
        if not self.flush_reads:
            return self.letters
        gap, prev = 0, 0
        for read in self.flush_reads:
            gap = max(gap, read - prev)
            prev = read
        return gap

    def stream_s(self, v=_wall) -> float:
        return v(self.end) - v(self.pulls[0])

    def late_s(self, v=_wall) -> float:
        return v(self.end) - v(self.pulls[self.late_from])

    def latencies(self, v=_wall) -> List[float]:
        return [v(t) - v(self.pulls[read - 1])
                for t, read in zip(self.flush_times, self.flush_reads)
                if read > 0]


def run_live(stream: Stream, letters: List[str]):
    """cli.main on the stream's machine; returns (rc, t0, t1, stdin, stdout)."""
    stdin = _Stdin(letters)
    stdout = _Stdout(stdin)
    saved = sys.stdin, sys.stdout
    gc.collect()
    sys.stdin, sys.stdout = stdin, stdout
    t0 = clock()
    try:
        rc = cli.main(["run", stream.path, "--stdin", *stream.flags])
    finally:
        t1 = clock()
        sys.stdin, sys.stdout = saved
    return rc, t0, t1, stdin, stdout


def _check_output(stream: Stream, rc: int, stdout: _Stdout) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    final = "".join(stdout.parts).strip()
    if "".join(text for _, _, text in stdout.lines) != final:
        return "flushed lines differ from the final output"
    expected = stream.expected or stream.ref
    if gen.up_letters(*expected, len(final)) != final:
        return "output is not a prefix of the oracle's"
    return None


def setup_session(stream: Stream, ledger: Ledger):
    """Set-up: from cli.main's entry to its first request for input.
    Returns the two raw clock readings, or None if the operation failed."""
    result = {}

    def op():
        rc, t0, _, stdin, stdout = run_live(stream, [])
        result["setup"] = (t0, stdin.times[0])
        return _check_output(stream, rc, stdout)

    ledger.check("setup", stream.name, op)
    return result.get("setup")


def live_session(stream: Stream, ledger: Ledger) -> Optional[Session]:
    result = {}

    def op():
        rc, _, t1, stdin, stdout = run_live(stream, stream.letters)
        result["s"] = Session(
            array("d", stdin.times), t1,
            array("d", [t for t, _, _ in stdout.lines]),
            array("l", [read for _, read, _ in stdout.lines]))
        return _check_output(stream, rc, stdout)

    ledger.check("stream", stream.name, op)
    return result.get("s")


# -- workload plans ----------------------------------------------------------------


@dataclass
class Plan:
    streams: List[Stream]
    batch: Callable[[Ledger], None]


def _fixture(name: str):
    return nft.load(fixture_path(name))


def write_machine(work_dir: str, name: str, doc: dict) -> str:
    """Write a generated machine where the CLI can load it."""
    path = os.path.join(work_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _verdict(ledger: Ledger, name: str, T, expected: bool) -> None:
    def op():
        ok, _ = analysis.is_continuous(T)
        return None if ok == expected else f"continuous={ok}, expected {expected}"

    ledger.check("verdict", name, op)


def _oracle(ledger: Ledger, name: str, T, x, ref, store=None) -> None:
    def op():
        y = nft.oracle_eval(T, x)
        if not gen.up_agrees(y, ref):
            return "oracle_eval disagrees with the reference"
        if store is not None:
            store.expected = (y.prefix, y.period)
        return None

    ledger.check("oracle", name, op)


def _stream_batch(streams: List[Stream]) -> Callable[[Ledger], None]:
    """Verification batch of a streaming workload: the continuity verdict
    and the oracle output of every stream's machine and word."""

    def batch(ledger: Ledger) -> None:
        for s in streams:
            _verdict(ledger, s.name, s.machine, True)
            _oracle(ledger, s.name, s.machine, s.x, s.ref, store=s)

    return batch


def live_fixtures(seed: int, work_dir: str, n_letters: int = 4000) -> Plan:
    rng = random.Random(seed)
    word = gen.fixture_word(rng)
    streams = [
        Stream("replace", fixture_path("replace.json"), _fixture("replace.json"),
               word, word.image(gen.replace_out), n_letters),
        Stream("double", fixture_path("double.json"), _fixture("double.json"),
               word, word.image(gen.double_out), n_letters),
    ]
    return Plan(streams, _stream_batch(streams))


def wide_machine(seed: int, work_dir: str, k: int = 12,
                 n_letters: int = 1500) -> Plan:
    # About 33 lines of the first periods pay first-call analysis (0.7 to
    # 1.2 ms each, against 0.15 ms for the others).  With 1500 letters they
    # are over 2% of the lines, so the p99 emit latency lies well inside
    # them: near 1% it would jump between the two groups from run to run.
    rng = random.Random(seed)
    doc = gen.replace_k(k)
    word = gen.wide_word(rng, k)
    streams = [
        Stream(f"replace_{k}", write_machine(work_dir, f"replace_{k}", doc),
               nft.from_dict(doc), word, word.image(gen.replace_out),
               n_letters),
    ]
    return Plan(streams, _stream_batch(streams))


# The K-flush conversions: K=2 with two registers takes minutes, so the
# family uses one register.  K=4 is the costliest member kept.
KFLUSH_KS = (2, 3, 4)


def _initial_unentered(S) -> bool:
    """Whether no transition of S enters its initial state."""
    return S.initial not in set(S.delta.values())


def verify_batch(seed: int, work_dir: str, n_letters: int = 300,
                 pipeline_letters: int = 300, oracle_words: int = 3,
                 check_words: int = 2) -> Plan:
    rng = random.Random(seed)
    fixtures = {n: _fixture(f"{n}.json") for n in ("replace", "double",
                                                    "normalize")}
    small_k = {k: nft.from_dict(gen.replace_k(k)) for k in (3, 4, 5, 6)}

    # live sessions with the invariant checker on; several words per
    # machine, so that no one block order sets the round's latency tail
    r3_path = write_machine(work_dir, "replace_3", gen.replace_k(3))
    flags = ("--check-invariants",)
    streams = []
    for i in range(check_words):
        check_word = gen.small_word(rng, "12", max_run=6)
        r3_word = gen.small_word(rng, gen.SYMBOLS[:3], max_run=4)
        streams += [
            Stream(f"replace+check#{i}", fixture_path("replace.json"),
                   fixtures["replace"], check_word,
                   check_word.image(gen.replace_out), n_letters, flags),
            Stream(f"double+check#{i}", fixture_path("double.json"),
                   fixtures["double"], check_word,
                   check_word.image(gen.double_out), n_letters, flags),
            Stream(f"replace_3+check#{i}", r3_path, small_k[3], r3_word,
                   r3_word.image(gen.replace_out), n_letters, flags),
        ]

    # oracle inputs: seeded in-domain words with short periods
    oracle_cases = []
    for name, T, closers, f in (
        ("replace", fixtures["replace"], "12", gen.replace_out),
        ("double", fixtures["double"], "12", gen.double_out),
        ("replace_4", small_k[4], gen.SYMBOLS[:4], gen.replace_out),
    ):
        for i in range(oracle_words):
            w = gen.small_word(rng, closers, max_run=4)
            oracle_cases.append((f"{name}#{i}", T,
                                 canonicalize(*w.letters()), w.image(f)))

    pipeline_cases = []
    for name, T, closers, f in (
        ("replace", fixtures["replace"], "12", gen.replace_out),
        ("double", fixtures["double"], "12", gen.double_out),
        ("replace_3", small_k[3], gen.SYMBOLS[:3], gen.replace_out),
    ):
        w = gen.small_word(rng, closers)
        pipeline_cases.append((name, T, canonicalize(*w.letters()),
                               w.image(f)))

    kflush_words = [gen.kflush_word(rng) for _ in range(3)]
    kflush = [(K, sst.from_dict(gen.kflush_sst(1, K))) for K in KFLUSH_KS]
    conv_words = [gen.small_word(rng, "12") for _ in range(3)]
    sst_fixtures = [(n, sst.load(fixture_path(f"{n}_sst.json")), f)
                    for n, f in (("replace", gen.replace_out),
                                 ("double", gen.double_out))]
    twoway_fixtures = [(n, twoway.load(fixture_path(f"{n}_2dt.json")), f)
                       for n, f in (("replace", gen.replace_out),
                                    ("double", gen.double_out))]

    def agree_2dt(T2, words, f, n=40) -> Optional[str]:
        for w in words:
            x = canonicalize(*w.letters())
            got = twoway.eval_2dt(T2, x, n)
            if got.status != "ok":
                return f"eval_2dt {got.status} after {got.steps} steps"
            if "".join(got.output) != gen.up_letters(*w.image(f), n):
                return "eval_2dt output differs from the reference"
        return None

    def agree_limit(S, words, f) -> Optional[str]:
        for w in words:
            if not gen.up_agrees(sst.eval_limit(S, canonicalize(*w.letters())),
                                 w.image(f)):
                return "eval_limit disagrees with the reference"
        return None

    def batch(ledger: Ledger) -> None:
        for name, T in fixtures.items():
            _verdict(ledger, name, T, name != "normalize")
        for k, T in small_k.items():
            _verdict(ledger, f"replace_{k}", T, True)
        for name, T, x, ref in oracle_cases:
            _oracle(ledger, name, T, x, ref)
        for name, T, x, ref in pipeline_cases:
            def op(T=T, x=x, ref=ref):
                r = determinize.run_pipeline(T, x, pipeline_letters,
                                             check_invariants=True)
                out = "".join(r.emitted)
                if gen.up_letters(*ref, len(out)) != out:
                    return "pipeline output is not a prefix of the reference"
                if not determinize.one_bounded_trace(r.trace):
                    return "trace is not 1-bounded"
                return None

            ledger.check("pipeline", name, op)
        for K, S in kflush:
            f = gen.kflush_out(K)
            copyless = {}

            def to_copyless(S=S, K=K, f=f):
                C = convert.kbounded_to_copyless(S, K)
                copyless["C"] = C
                return (agree_limit(S, kflush_words, f)
                        or agree_limit(C, kflush_words, f))

            ledger.check("convert", f"kflush{K}.kbounded_to_copyless",
                         to_copyless)
            if "C" not in copyless:
                continue
            C = copyless["C"]

            def to_twoway(C=C, f=f):
                return agree_2dt(convert.sst_to_twoway(C), kflush_words, f)

            # the documented defect: sst_to_twoway gives a machine that is
            # undefined everywhere when no edge enters the initial state
            ledger.check("convert", f"kflush{K}.sst_to_twoway", to_twoway,
                         known=lambda d, C=C: _initial_unentered(C)
                         and d.startswith("eval_2dt undefined"))
        for name, S, f in sst_fixtures:
            ledger.check("convert", f"{name}_sst.sst_to_twoway",
                         lambda S=S, f=f: agree_limit(S, conv_words, f)
                         or agree_2dt(convert.sst_to_twoway(S), conv_words, f))
        for name, T2, f in twoway_fixtures:
            ledger.check("convert", f"{name}_2dt.twoway_to_sst",
                         lambda T2=T2, f=f: agree_2dt(T2, conv_words, f)
                         or agree_limit(convert.twoway_to_sst(T2),
                                        conv_words, f))
        # references for the live sessions
        for s in streams:
            _oracle(ledger, s.name, s.machine, s.x, s.ref, store=s)

    return Plan(streams, batch)


WORKLOADS = {
    "live-fixtures": live_fixtures,
    "wide-machine": wide_machine,
    "verify-batch": verify_batch,
}
