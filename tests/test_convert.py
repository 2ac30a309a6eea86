"""Model conversions between two-way and streaming transducers."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omegastream import convert as conv
from omegastream import sst, twoway
from omegastream.sst import (
    Reg,
    Substitution,
    check_bounded,
    check_copyless,
    eval_limit,
    eval_prefix,
)
from omegastream.twoway import (ENDMARKER, LEFT, RIGHT, LookbehindDFA,
                                TwoWayTransducer, eval_2dt)
from omegastream.words import parse_upword, up_equal

from conftest import (identity_sst, in_domain_corpus, random_upword,
                      scattered_one_state_ssts, two_bounded_machine)
from machines import copyless_ssts, kflush_sst, validate_forest

CORPUS = [
    "(001)^w", "(012)^w", "002(02)^w", "(2)^w", "1(01)^w",
    "(0102)^w", "21(002)^w", "(102)^w", "0(12)^w", "(0011)^w",
]


def _up(s):
    return parse_upword(s)


# -- twoway_to_sst ------------------------------------------------------------


def test_twoway_to_sst_fixtures(replace_2dt_m, double_2dt_m):
    for T2 in (replace_2dt_m, double_2dt_m):
        S = conv.twoway_to_sst(T2)
        assert check_bounded(S, 1)
        for s in CORPUS:
            x = _up(s)
            ref = eval_2dt(T2, x, 60)
            if ref.status != "ok":
                continue
            y = eval_limit(S, x)
            assert y is not None
            assert y.first(60) == ref.output


def test_twoway_to_sst_identity():
    T2 = TwoWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("ab"),
        states=frozenset({"s"}),
        initial="s",
        delta={
            ("s", ENDMARKER): ("s", RIGHT),
            ("s", "a"): ("s", RIGHT),
            ("s", "b"): ("s", RIGHT),
        },
        out={("s", ENDMARKER): (), ("s", "a"): ("a",), ("s", "b"): ("b",)},
    )
    S = conv.twoway_to_sst(T2)
    assert eval_prefix(S, tuple("abba")).out == tuple("abba")


# -- sst_to_twoway ------------------------------------------------------------


def test_sst_to_twoway_requires_copyless():
    with pytest.raises(conv.ConversionError):
        conv.sst_to_twoway(two_bounded_machine())


def test_sst_to_twoway_append_only_never_moves_left():
    T2 = conv.sst_to_twoway(identity_sst("ab"))
    assert all(move == RIGHT for _, move in T2.delta.values())
    r = eval_2dt(T2, _up("(ab)^w"), 8)
    assert (r.status, r.output) == ("ok", tuple("abababab"))


def test_sst_to_twoway_fixtures(replace_sst_m, double_sst_m):
    for S in (replace_sst_m, double_sst_m):
        T2 = conv.sst_to_twoway(S)
        for s in CORPUS:
            x = _up(s)
            y = eval_limit(S, x)
            if y is None:
                continue
            r = eval_2dt(T2, x, 60)
            assert r.status == "ok"
            assert r.output == y.first(60)


def test_round_trip_sst_2dt_sst(replace_sst_m, double_sst_m):
    for S in (replace_sst_m, double_sst_m):
        S2 = conv.twoway_to_sst(conv.sst_to_twoway(S))
        assert check_bounded(S2, 1)
        for s in CORPUS:
            x = _up(s)
            y = eval_limit(S, x)
            if y is None:
                continue
            y2 = eval_limit(S2, x)
            assert y2 is not None
            assert y.first(100) == y2.first(100)


ab_words = st.builds(
    lambda u, v: parse_upword(f"{u}({v})^w"),
    st.text("ab", max_size=4), st.text("ab", min_size=1, max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scattered_one_state_ssts(), st.lists(ab_words, min_size=3, max_size=3))
def test_sst_to_twoway_many_registers_one_state(S, xs):
    T2 = conv.sst_to_twoway(S)
    for x in xs:
        # passing cases take at most a few hundred steps; a small budget
        # keeps shrinking a failure fast
        r = eval_2dt(T2, x, 20, step_budget=20_000)
        assert r.status == "ok"
        assert r.output == eval_limit(S, x).first(20)


def _full_row_twoway(S):
    """The reference: sst_to_twoway with a walk row for every register in
    every cell, an empty image's walk returning at once, so the last update
    written to a cell replaces all its walk rows.  It builds the lookbehind
    pairs as sst_to_twoway does, so it writes the cells in the same order."""
    sink = conv._SINK
    lb_init = (sink, S.initial)
    lb_states = {lb_init, (sink, sink)}
    lb_delta = {}
    frontier = [lb_init]
    alphabet = sorted(S.input_alphabet, key=str)
    while frontier:
        (p, q) = frontier.pop()
        for a in alphabet:
            if q != sink and (q, a) in S.delta:
                tgt = (q, S.delta[(q, a)])
            else:
                tgt = (sink, sink)
            lb_delta[((p, q), a)] = tgt
            if tgt not in lb_states:
                lb_states.add(tgt)
                frontier.append(tgt)
    for a in alphabet:
        lb_delta[((sink, sink), a)] = (sink, sink)
    regs = sorted(S.registers)
    others = [r for r in regs if r != S.out]
    delta, out = {}, {}

    def row(sub, c, i):
        chunks, refs = sub.parts[c]
        if i < len(refs):
            return (f"w:{refs[i]}", LEFT), chunks[i]
        if c == S.out:
            return (f"w:{S.out}", RIGHT), chunks[i]
        return (f"ret:{c}", RIGHT), chunks[i]

    for (p, q) in lb_states:
        for a in alphabet:
            if p == sink or (p, a) not in S.updates:
                continue
            lbst = lb_delta[((p, q), a)]
            if lbst == (sink, sink):
                continue
            sub = S.updates[(p, a)]
            cell = (a, f"{lbst[0]}>{lbst[1]}")
            for c in regs:
                delta[(f"w:{c}", *cell)], out[(f"w:{c}", *cell)] = (
                    row(sub, c, int(c == S.out)) if c in sub.parts
                    else ((f"ret:{c}", RIGHT), ()))
            for c, (_, refs) in sub.parts.items():
                for i, r in enumerate(refs):
                    if r != S.out:
                        delta[(f"ret:{r}", *cell)], out[(f"ret:{r}", *cell)] = (
                            row(sub, c, i + 1))
    for r in others:
        delta[(f"w:{r}", ENDMARKER)], out[(f"w:{r}", ENDMARKER)] = (
            (f"ret:{r}", RIGHT), ())
    delta[(f"w:{S.out}", ENDMARKER)], out[(f"w:{S.out}", ENDMARKER)] = (
        (f"w:{S.out}", RIGHT), ())
    lb = LookbehindDFA(
        states=frozenset(f"{p}>{q}" for p, q in lb_states),
        initial=f"{sink}>{S.initial}",
        delta={(f"{p}>{q}", a): f"{t[0]}>{t[1]}"
               for ((p, q), a), t in lb_delta.items()},
    )
    return TwoWayTransducer(
        input_alphabet=frozenset(S.input_alphabet),
        output_alphabet=frozenset(S.output_alphabet),
        states=frozenset([f"w:{c}" for c in regs] + [f"ret:{r}" for r in others]),
        initial=f"w:{S.out}",
        delta=delta,
        out=out,
        lookbehind=lb,
    )


def _assert_same_as_full_rows(S, xs):
    """sst_to_twoway(S) answers every lookup at every cell the full-row
    construction writes as that construction does, runs every word in xs
    step for step as it does, and writes no walk row that returns at once."""
    T2, ref = conv.sst_to_twoway(S), _full_row_twoway(S)
    cells = {key[1:] for key in ref.delta if len(key) == 3}
    for a, lb in cells:
        for q in T2.states:
            assert T2.lookup(q, a, lb) == ref.lookup(q, a, lb), (q, a, lb)
    for key, (q2, move) in T2.delta.items():
        if len(key) == 3 and key[0].startswith("w:"):
            assert (q2, move, T2.out[key]) != (f"ret:{key[0][2:]}", RIGHT, ()), key
    for x in xs:
        r, r_ref = eval_2dt(T2, x, 30), eval_2dt(ref, x, 30)
        assert (r.status, r.steps, r.output) == (r_ref.status, r_ref.steps, r_ref.output)


def test_sst_to_twoway_matches_full_rows(replace_sst_m, double_sst_m):
    rng = random.Random(7)
    for S in (replace_sst_m, double_sst_m):
        _assert_same_as_full_rows(S, [_up(s) for s in CORPUS]
                                  + [random_upword(rng, "012") for _ in range(10)])
    for K in (2, 3, 4):
        C = conv.kbounded_to_copyless(kflush_sst(1, K), K)
        _assert_same_as_full_rows(C, [random_upword(rng, "1b") for _ in range(10)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(copyless_ssts(), st.lists(ab_words, min_size=3, max_size=3))
def test_sst_to_twoway_matches_full_rows_generated(S, xs):
    _assert_same_as_full_rows(S, xs)


# -- kbounded_to_copyless ------------------------------------------------------


def test_kbounded_guard():
    with pytest.raises(conv.ConversionError):
        conv.kbounded_to_copyless(two_bounded_machine(), 1)


def test_kbounded_on_copyless_input(replace_sst_m):
    S2 = conv.kbounded_to_copyless(replace_sst_m, 1)
    assert check_copyless(S2)
    for s in CORPUS:
        x = _up(s)
        y = eval_limit(replace_sst_m, x)
        if y is None:
            continue
        y2 = eval_limit(S2, x)
        assert y2 is not None and up_equal(y, y2)


def test_kbounded_two_bounded_machine():
    S = two_bounded_machine()
    C = conv.kbounded_to_copyless(S, 2)
    assert check_copyless(C)
    inputs = ["(aab)^w", "(ab)^w", "(b)^w", "a(ab)^w", "(aabb)^w",
              "bb(aaab)^w", "(abab)^w"]
    for s in inputs:
        x = _up(s)
        y, y2 = eval_limit(S, x), eval_limit(C, x)
        assert y is not None and y2 is not None
        assert up_equal(y, y2)
    assert up_equal(eval_limit(C, _up("(aab)^w")), _up("(aaaab)^w"))


# sha256 of the sorted JSON of the copyless machine: a change in any state,
# register name or image shows.  Speed-ups of the construction keep them.
PINNED_COPYLESS = [
    (lambda: kflush_sst(1, 2), 2,
     "707b8c0276bec60725bf0733d33651c2f59bc513744836c87a81c97f5a8f7d0c"),
    (lambda: kflush_sst(1, 3), 3,
     "185ec7c5c28ab3ad06547a3351bc4e1e180909f5c0edb8cc187854ac05e17160"),
    (lambda: kflush_sst(1, 4), 4,
     "05a1f261117e0693d34e97bbccf99dcbc29a04f41340a7aaf9b15f1c6980ea48"),
    (lambda: kflush_sst(2, 1), 1,
     "599bc4a60d059e570bd2aac7c38e700e3bdbc31fe49ef90dc00db5653fd89bfd"),
    (two_bounded_machine, 2,
     "019e14b8af89d734bd019915489a051b243eef682643f9e531cc0927a677db0c"),
]


@pytest.mark.parametrize("build, K, digest", PINNED_COPYLESS,
                         ids=["kflush1-K2", "kflush1-K3", "kflush1-K4",
                              "kflush2-K1", "two_bounded-K2"])
def test_kbounded_to_copyless_pinned(build, K, digest):
    C = conv.kbounded_to_copyless(build(), K)
    text = json.dumps(sst.to_dict(C), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _lists_only_non_empty_images(S):
    return all(mw for sub in S.updates.values() for mw in sub.assignment.values())


@pytest.mark.parametrize("registers, K", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)],
                         ids=["kflush1-K2", "kflush1-K3", "kflush1-K4",
                              "kflush1-K5", "kflush2-K2"])
def test_copyless_output_lists_only_non_empty_images(registers, K):
    """Each update of the output lists only the registers it writes
    non-empty; to_dict writes the others as "", and from_dict reads the
    JSON back to the same JSON."""
    C = conv.kbounded_to_copyless(kflush_sst(registers, K), K)
    assert _lists_only_non_empty_images(C)
    doc = sst.to_dict(C)
    assert all(doc_update["assign"].keys() == C.registers
               for doc_update in doc["updates"])
    assert sst.to_dict(sst.from_dict(doc)) == doc


def test_twoway_to_sst_lists_only_non_empty_images(replace_2dt_m, double_2dt_m):
    for T2 in (replace_2dt_m, double_2dt_m):
        S = conv.twoway_to_sst(T2)
        assert _lists_only_non_empty_images(S)
        doc = sst.to_dict(S)
        assert sst.to_dict(sst.from_dict(doc)) == doc


@st.composite
def one_register_ksst(draw):
    """(S, K): 1-2 states, registers out and r, letters 1 and b, K <= 3.
    Each update appends up to K copies of r and a b to out; r is kept or
    appended to only when it is not copied, and may be doubled, so a
    doubling on a loop makes S unbounded: only K-bounded draws are kept."""
    K = draw(st.sampled_from([3, 2, 1]))
    states = [f"q{i}" for i in range(draw(st.integers(1, 2)))]
    r = Reg("r")
    delta, updates = {}, {}
    for q in states:
        for a in "1b":
            copies = draw(st.sampled_from(range(K, -1, -1)))
            tail = draw(st.permutations([r] * copies + ["b"]))
            keeps = [] if copies else [(r, "1"), (r,)]
            r_img = draw(st.sampled_from(keeps + [(), ("1",), (r, r)]))
            delta[(q, a)] = draw(st.sampled_from(states))
            updates[(q, a)] = Substitution(
                {"out": (Reg("out"), *tail, a), "r": r_img})
    S = sst.StreamingTransducer(
        input_alphabet=frozenset("1b"),
        output_alphabet=frozenset("1b"),
        states=frozenset(states),
        initial="q0",
        registers=frozenset({"out", "r"}),
        out="out",
        delta=delta,
        updates=updates,
    )
    assume(check_bounded(S, K))
    return S, K


one_b_words = st.builds(
    lambda u, v: parse_upword(f"{u}({v})^w"),
    st.text("1b", max_size=4), st.text("1b", min_size=1, max_size=4))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(one_register_ksst(), st.lists(one_b_words, min_size=3, max_size=3))
def test_kbounded_to_copyless_generated(machine, xs):
    S, K = machine
    C = conv.kbounded_to_copyless(S, K)
    assert check_copyless(C)
    for x in xs:
        y, y2 = eval_limit(S, x), eval_limit(C, x)
        assert (y is None) == (y2 is None)
        assert y is None or up_equal(y, y2)


# -- decomposition forests -----------------------------------------------------


FIG_LEVELS = [
    [{"r": 5, "s": 0}, {"r": 3, "s": 0}],
    [{"r": 1, "s": 4}, {"r": 3, "s": 2}, {"r": 1, "s": 2}],
    [{"r": 2, "s": 1}, {"r": 1, "s": 3}, {"r": 1, "s": 1}],
]
FIG_SIGMAS = [
    Substitution({"r": ("a", Reg("r")), "s": (Reg("r"), "b")}),
    Substitution({"r": (Reg("s"), "a", Reg("s")), "s": (Reg("r"), "b")}),
]


def test_validate_forest_accepts_reference():
    assert validate_forest(FIG_LEVELS, FIG_SIGMAS, K=5)


def test_validate_forest_reads_an_unlisted_register_as_empty():
    # sigma: r := r, and s, unlisted, is empty; so a label's parent has
    # the label's r and no s
    levels = [[{"r": 2, "s": 0}], [{"r": 2, "s": 1}, {"r": 2, "s": 0}]]
    for sigma in (Substitution({"r": (Reg("r"),)}),
                  Substitution({"r": (Reg("r"),), "s": ()})):
        assert validate_forest(levels, [sigma], K=2)
        with pytest.raises(conv.ConversionError):
            validate_forest([[{"r": 2, "s": 1}], levels[1]], [sigma], K=2)


def test_validate_forest_rejects_broken():
    broken = [list(level) for level in FIG_LEVELS]
    broken[2] = [{"r": 2, "s": 2}] + broken[2][1:]
    with pytest.raises(conv.ConversionError):
        validate_forest(broken, FIG_SIGMAS, K=5)
    out_of_range = [[{"r": 9, "s": 0}]]
    with pytest.raises(conv.ConversionError):
        validate_forest(out_of_range, [], K=5)


# -- module footprint ------------------------------------------------------------


def test_convert_does_not_load_the_determinizer():
    """The conversions need no streaming machinery: importing them in a
    fresh interpreter loads neither the determinizer nor its analyses."""
    import omegastream

    root = os.path.dirname(os.path.dirname(os.path.abspath(omegastream.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    script = "import sys, omegastream.convert; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "omegastream.convert" in loaded
    for name in ("analysis", "annotator", "determinize"):
        assert f"omegastream.{name}" not in loaded
