"""The compatible-subset lattice: AnalysisContext.comp_subsets against
brute-force enumeration (including machines where a compatible set has an
incompatible subset), immutability of the memoized result, and a guard
against 2^k subset enumeration."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings

from omegastream import nft
from omegastream.analysis import AnalysisContext
from omegastream.annotator import annotate
from omegastream.determinize import Determinizer
from omegastream.words import parse_upword

from machines import lasso_branch_machines, replace_k, small_machines


def brute_force(ctx, S):
    """Every subset of S, by size then combinations order, that is
    compatible: the enumeration the lattice must reproduce."""
    S = sorted(S)
    return [
        frozenset(sub)
        for r in range(1, len(S) + 1)
        for sub in itertools.combinations(S, r)
        if ctx.is_compatible(sub) is not None
    ]


def check_every_subset(T):
    ctx = AnalysisContext(T)
    states = sorted(T.states)
    for r in range(len(states) + 1):
        for S in itertools.combinations(states, r):
            expected = brute_force(ctx, S)
            assert list(ctx.comp_subsets(S)) == expected


def test_lattice_matches_brute_force_on_fixtures(replace_t, double_t,
                                                 normalize_t):
    for T in (replace_t, double_t, normalize_t):
        check_every_subset(nft.normalize(T))


def test_lattice_matches_brute_force_on_replace_k():
    for k in range(2, 8):
        check_every_subset(nft.normalize(replace_k(k)))


def not_closed_machine() -> nft.OneWayTransducer:
    """The constant function o^w, guessed three ways: p reads a^w, q reads
    a*b^w, r reads a*ba^w.  {p, q, r} is compatible through the a-loop (p
    is final on it) while {q, r} is not: from (q, r) only (qf, r2) is
    reachable, and it has no common letter."""
    edges = [("i", "a", "p"), ("i", "a", "q"), ("i", "a", "r"),
             ("p", "a", "p"), ("q", "a", "q"), ("q", "b", "qf"),
             ("qf", "b", "qf"), ("r", "a", "r"), ("r", "b", "r2"),
             ("r2", "a", "r2")]
    return nft.from_dict({
        "input_alphabet": ["a", "b"],
        "output_alphabet": ["o"],
        "states": ["i", "p", "q", "qf", "r", "r2"],
        "initial": ["i"],
        "final": ["p", "qf", "r2"],
        "transitions": [{"from": f, "letter": a, "to": t, "out": "o"}
                        for f, a, t in edges],
    })


def test_lattice_keeps_sets_with_an_incompatible_subset():
    T = nft.normalize(not_closed_machine())
    ctx = AnalysisContext(T)
    assert ctx.is_compatible({"p", "q", "r"}) is not None
    assert ctx.is_compatible({"q", "r"}) is None
    check_every_subset(T)
    ann = annotate(ctx, parse_upword("(a)^w").letters())
    assert next(ann) == frozenset({"i"})
    for _, (a, C) in zip(range(5), ann):
        assert (a, C) == ("a", frozenset({"p", "q", "r"}))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(small_machines())
def test_lattice_matches_brute_force_on_generated_machines(T):
    assume(nft.is_unambiguous(T))
    Tn = nft.normalize(T)
    assume(Tn.states)
    check_every_subset(Tn)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(lasso_branch_machines())
def test_lattice_matches_brute_force_on_guessing_machines(T):
    assume(nft.is_unambiguous(T))
    check_every_subset(nft.normalize(T))


def test_memoized_result_cannot_be_mutated(double_t):
    ctx = AnalysisContext(nft.normalize(double_t))
    S = frozenset({"q1", "q2"})
    first = ctx.comp_subsets(S)
    expected = list(first)
    with pytest.raises(AttributeError):
        first.append(frozenset({"q0"}))
    with pytest.raises(TypeError):
        first[0] = frozenset({"q0"})
    assert list(ctx.comp_subsets(S)) == expected


def test_wide_frontier_does_not_enumerate_every_subset():
    k = 10
    ctx = AnalysisContext(nft.normalize(replace_k(k)))
    seen = set()
    is_compatible = ctx.is_compatible

    def counting(C):
        seen.add(frozenset(C))
        return is_compatible(C)

    ctx.is_compatible = counting
    blocks = "".join("0" * (1 + i % 3) + c
                     for i, c in enumerate("123456789a"))
    letters = parse_upword(f"({blocks})^w").letters()
    ann = annotate(ctx, letters)
    det = Determinizer(ctx)
    det.init(next(ann))
    for _, (a, C) in zip(range(300), ann):
        det.step(a, C)
    assert det.steps == 301
    # the 0-frontier {q1..q10} alone has 2^10 - 1 nonempty subsets
    assert len(seen) <= (k + 1) ** 2
