"""Compatible-set analysis: steps, separability, looping futures, and the
continuity decision."""

import random

import pytest

from omegastream import nft
from omegastream.analysis import (
    AdvanceProfile,
    AnalysisContext,
    ContinuityViolation,
    advance_profile,
    is_continuous,
)
from omegastream.words import (
    canonicalize,
    concat_up,
    parse_upword,
    strip_prefix,
    up_equal,
    up_starts_with,
    UPWord,
)

from conftest import random_upword


@pytest.fixture(scope="module")
def dctx(double_t):
    return AnalysisContext(nft.normalize(double_t))


@pytest.fixture(scope="module")
def rctx(replace_t):
    return AnalysisContext(nft.normalize(replace_t))


# -- steps -------------------------------------------------------------------


def test_analyze_step_golden(dctx):
    C, D = frozenset({"q0"}), frozenset({"q1", "q2"})
    sa = dctx.analyze_step(C, tuple("00"), D)
    assert sa is not None and sa.is_step and sa.initial
    assert sa.val == {"q1": tuple("00"), "q2": tuple("0000")}
    assert sa.pre == {"q1": "q0", "q2": "q0"}
    ap = advance_profile(sa)
    assert ap.common == tuple("00")
    assert ap.advance == {"q1": (), "q2": tuple("00")}
    assert ap.max_advance == tuple("00")


def test_analyze_step_rejects_non_steps(dctx):
    # no run from q0 over "2" reaches q1
    assert dctx.analyze_step(frozenset({"q0"}), ("2",), frozenset({"q1"})) is None


def test_end_words(dctx):
    ew = dctx.end_words(frozenset({"q1", "q2"}))
    assert set(ew) == {"q1", "q2"}
    for w in ew.values():
        assert up_equal(w, parse_upword("(0)^w"))


# -- compatibility and separability ------------------------------------------


def test_compatible_subsets(dctx, rctx):
    subs = dctx.comp_subsets(frozenset({"q1", "q2"}))
    assert frozenset({"q1", "q2"}) in subs
    assert frozenset({"q1"}) in subs and frozenset({"q2"}) in subs
    # q1 and q2 of replace have no common input future with an accepting run
    assert rctx.is_compatible(frozenset({"q1", "q2"})) is None


def test_separability_golden(dctx, rctx):
    sep = dctx.is_separable(frozenset({"q1", "q2"}))
    assert sep is not None
    p, q = sep.unequal_pair
    assert len(sep.loop_outputs[p]) != len(sep.loop_outputs[q])
    for q in ("q0", "q1", "q2"):
        assert dctx.is_separable(frozenset({q})) is None
    for C in rctx.comp_subsets(frozenset({"q0"})):
        assert rctx.is_separable(C) is None


def test_separability_brute_force_crosscheck(dctx):
    """A loop at {q1,q2} whose two productions have different lengths
    exists (confirming separability); no singleton can spread."""
    C = frozenset({"q1", "q2"})
    spreads = []
    for u in ["0", "00", "000"]:
        sa = dctx.analyze_step(C, tuple(u), C)
        if sa is not None and sa.is_step:
            lens = {len(sa.val[q]) for q in C}
            spreads.append(len(lens) > 1)
    assert any(spreads)


def test_looping_future_contains_step_productions(dctx, double_t):
    Tn = dctx.T
    I = frozenset(Tn.initial)
    D = frozenset({"q1", "q2"})
    sa = dctx.analyze_step(I, ("0",), D)
    prof = advance_profile(sa)
    lf = dctx.looping_future(D, prof)
    base = UPWord(lf.tau, lf.theta)
    for u in ["0", "00", "0002", "01"]:
        E = frozenset(nft.push(Tn, D, tuple(u)))
        if not E:
            continue
        sa2 = dctx.analyze_step(D, tuple(u), E)
        if sa2 is None or not sa2.is_step:
            continue
        for q in E:
            stripped = strip_prefix(base, prof.advance[sa2.pre[q]])
            assert up_starts_with(stripped, sa2.val[q])


def test_looping_future_memo_keeps_continuity_check(double_t):
    ctx = AnalysisContext(nft.normalize(double_t))
    D = frozenset({"q1", "q2"})
    prof = advance_profile(
        ctx.analyze_step(frozenset(ctx.T.initial), ("0",), D))
    lf = ctx.looping_future(D, prof)
    assert ctx.looping_future(D, prof) == lf
    # same C and zero-advance state, so the memo answers, but this max
    # advance leaves the looping future and must still be refused
    escaping = AdvanceProfile(prof.common, prof.advance,
                              lf.tau + lf.theta[:2] + ("#",))
    with pytest.raises(ContinuityViolation):
        ctx.looping_future(D, escaping)
    assert ctx.looping_future(D, prof) == lf


def test_theta_policies(double_t):
    Tn = nft.normalize(double_t)
    assert AnalysisContext(Tn).theta_length() == 2


# -- continuity --------------------------------------------------------------


def test_continuity_verdicts(replace_t, double_t, normalize_t):
    assert is_continuous(replace_t)[0]
    assert is_continuous(double_t)[0]
    ok, w = is_continuous(normalize_t)
    assert not ok
    assert w.u == ("0",) and w.u_loop == ("1",)
    assert not up_equal(w.words[0], w.words[1])
    # witness internal consistency
    assert up_equal(canonicalize(w.outputs[0], w.loop_outputs[0]), w.words[0])


def test_discontinuity_probe(normalize_t):
    """Inputs 0 1^k 0 (0)^w converge to 0(1)^w, but their outputs start
    with 0 while the limit's output starts with 1."""
    limit = nft.oracle_eval(normalize_t, parse_upword("0(1)^w"))
    assert limit.first(1) == ("1",)
    for k in range(1, 7):
        x = parse_upword("0" + "1" * k + "(0)^w")
        y = nft.oracle_eval(normalize_t, x)
        assert y is not None
        assert y.first(1) == ("0",)


def test_continuity_random_consistency(replace_t):
    """On a continuous fixture, outputs of inputs sharing a long common
    prefix are mutually comparable on that horizon's common part."""
    rng = random.Random(7)
    T = replace_t
    for _ in range(20):
        stem = "".join(rng.choice("012") for _ in range(8))
        x = parse_upword(stem + "(1)^w")
        y = parse_upword(stem + "(2)^w")
        ox, oy = nft.oracle_eval(T, x), nft.oracle_eval(T, y)
        assert ox is not None and oy is not None
        # blocks completed inside the shared stem produce identical output
        outlen = 0
        run = 0
        for a in stem:
            if a == "0":
                run += 1
            else:
                outlen += run + 1
                run = 0
        assert ox.first(outlen) == oy.first(outlen)
