"""Model conversions and the restricted composition evaluator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegastream import convert as conv
from omegastream import nft, sst, twoway
from omegastream.analysis import AnalysisContext
from omegastream.annotator import annotate
from omegastream.determinize import run_pipeline
from omegastream.nft import AmbiguityError, OneWayTransducer
from omegastream.sst import (
    Reg,
    Substitution,
    check_bounded,
    check_copyless,
    eval_limit,
    eval_prefix,
)
from omegastream.twoway import ENDMARKER, RIGHT, TwoWayTransducer, eval_2dt
from omegastream.words import parse_upword, up_equal, word

from conftest import identity_sst, in_domain_corpus, two_bounded_machine

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


@st.composite
def scattered_one_state_ssts(draw):
    """One state, 1-12 registers, letters a and b.  Each update moves every
    register into at most one image, mixes in constants and appends the
    letter to out."""
    regs = [f"r{i}" for i in range(1, draw(st.integers(1, 12)) + 1)]
    images = ["out"] + regs
    updates = {}
    for a in "ab":
        imgs = {r: [] for r in images}
        for r in draw(st.permutations(regs)):
            home = draw(st.sampled_from(images + [None]))
            if home is not None:
                imgs[home].append(Reg(r))
            imgs[draw(st.sampled_from(images))].extend(
                draw(st.sampled_from(["", "x", "y", "xy"])))
        imgs["out"] = [Reg("out")] + imgs["out"] + [a]
        updates[("p", a)] = Substitution({r: tuple(v) for r, v in imgs.items()})
    return sst.StreamingTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("abxy"),
        states=frozenset({"p"}),
        initial="p",
        registers=frozenset(images),
        out="out",
        delta={("p", "a"): "p", ("p", "b"): "p"},
        updates=updates,
    )


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
    assert conv.validate_forest(FIG_LEVELS, FIG_SIGMAS, K=5)


def test_validate_forest_rejects_broken():
    broken = [list(level) for level in FIG_LEVELS]
    broken[2] = [{"r": 2, "s": 2}] + broken[2][1:]
    with pytest.raises(conv.ConversionError):
        conv.validate_forest(broken, FIG_SIGMAS, K=5)
    out_of_range = [[{"r": 9, "s": 0}]]
    with pytest.raises(conv.ConversionError):
        conv.validate_forest(out_of_range, [], K=5)


# -- restricted composition ----------------------------------------------------


def _identity_nt(alphabet):
    return OneWayTransducer(
        input_alphabet=frozenset(alphabet),
        output_alphabet=frozenset(alphabet),
        states=frozenset({"s"}),
        initial=frozenset({"s"}),
        final=frozenset({"s"}),
        transitions={("s", a, "s"): (a,) for a in alphabet},
    )


def test_compose_identity_degenerates(replace_sst_m):
    ev = conv.compose_restricted(_identity_nt("012"), replace_sst_m)
    out = ev.run(_up("(001)^w"), 30)
    assert out == eval_prefix(replace_sst_m, _up("(001)^w").first(30)).out
    assert ev.max_nodes() <= 2


def test_compose_wrong_guess_trimmed():
    N = OneWayTransducer(
        input_alphabet=frozenset("01"),
        output_alphabet=frozenset("01"),
        states=frozenset({"s", "g1", "g2"}),
        initial=frozenset({"s"}),
        final=frozenset({"s", "g1", "g2"}),
        transitions={
            ("s", "0", "g1"): word("1"),
            ("s", "0", "g2"): word("11"),
            ("g1", "1", "s"): word("0"),
        },
    )
    ev = conv.compose_restricted(N, identity_sst("01"))
    inc0 = ev.feed("0")
    assert inc0 == ()  # both guesses alive, nothing confirmed
    inc1 = ev.feed("1")
    assert inc1 == tuple("10")  # g2 died, g1's branch is confirmed
    assert ev.max_nodes() <= 4
    fresh = conv.compose_restricted(N, identity_sst("01"))
    out = fresh.run(_up("(01)^w"), 20)
    assert out == tuple("10" * 10)


def test_compose_requires_restricted(replace_t, replace_sst_m):
    # replace has final = {q0} != all states
    Tn = nft.normalize(replace_t)
    if set(Tn.final) != set(Tn.states):
        with pytest.raises(conv.ConversionError):
            conv.compose_restricted(Tn, replace_sst_m)


def test_compose_domain_error():
    N = _identity_nt("0")
    ev = conv.compose_restricted(N, identity_sst("01"))
    ev.feed("0")
    with pytest.raises(conv.DomainError):
        ev.feed("1")


def test_compose_ambiguity_error():
    N = OneWayTransducer(
        input_alphabet=frozenset("0"),
        output_alphabet=frozenset("xy"),
        states=frozenset({"s", "a", "b", "t"}),
        initial=frozenset({"s"}),
        final=frozenset({"s", "a", "b", "t"}),
        transitions={
            ("s", "0", "a"): word("x"),
            ("s", "0", "b"): word("y"),
            ("a", "0", "t"): (),
            ("b", "0", "t"): (),
        },
    )
    ev = conv.compose_restricted(N, identity_sst("xy"))
    ev.feed("0")
    with pytest.raises(AmbiguityError):
        ev.feed("0")


def test_piped_annotator_matches_pipeline(replace_t, double_t):
    for T, xs in ((replace_t, "(001)^w"), (double_t, "(02)^w")):
        Tn = nft.normalize(T)
        ctx = AnalysisContext(Tn)
        core = conv.DeterminizerCore(ctx)
        piped = conv.compose_restricted(
            lambda stream, ctx=ctx: annotate(ctx, stream), core
        )
        out = piped.run(_up(xs), 40)
        ref = run_pipeline(T, _up(xs), 40)
        assert out == ref.emitted


def test_determinizer_core_is_the_stream_session():
    from omegastream.determinize import StreamSession

    assert conv.DeterminizerCore is StreamSession


def test_piped_evaluator_reads_n_letters(replace_t):
    Tn = nft.normalize(replace_t)
    ctx = AnalysisContext(Tn)
    for n in (0, 1, 5):
        piped = conv.compose_restricted(
            lambda stream: annotate(ctx, stream), conv.DeterminizerCore(ctx))
        assert piped.run(_up("(1)^w"), n) == ("1",) * n
