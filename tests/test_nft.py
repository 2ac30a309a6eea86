"""One-way transducers: structure predicates, normalization, and the
exact oracle on ultimately periodic inputs."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegastream import nft
from omegastream.nft import AmbiguityError, OneWayTransducer
from omegastream.words import UPWord, parse_upword, up_equal, word

from conftest import random_upword
from machines import ambiguous_machine


# -- structure ---------------------------------------------------------------


def test_fixture_shapes(replace_t, double_t, normalize_t):
    assert double_t.initial == frozenset({"q0"})
    assert double_t.final == frozenset({"q0", "q1"})
    assert normalize_t.initial == frozenset({"q0", "q2"})
    assert normalize_t.final == frozenset({"q0", "q1"})
    assert replace_t.initial == replace_t.final == frozenset({"q0"})


def test_push(double_t):
    assert frozenset(nft.push(double_t, {"q0"}, ("0",))) == frozenset({"q1", "q2"})
    assert frozenset(nft.push(double_t, {"q0"}, ("1",))) == frozenset({"q0"})
    assert frozenset(nft.push(double_t, {"q1"}, ("2",))) == frozenset()


def test_predicates_on_fixtures(replace_t, double_t, normalize_t):
    for T in (replace_t, double_t, normalize_t):
        assert nft.is_trim(T)
        assert nft.is_clean(T)
        assert nft.is_unambiguous(T)
        assert nft.is_productive(T)


def test_normalization_idempotent(replace_t, double_t, normalize_t):
    for T in (replace_t, double_t, normalize_t):
        Tn = nft.normalize(T)
        assert nft.is_trim(Tn) and nft.is_clean(Tn) and nft.is_productive(Tn)
        Tn2 = nft.normalize(Tn)
        assert set(Tn2.states) == set(Tn.states)
        assert Tn2.transitions == Tn.transitions


def test_trim_removes_dead_states(replace_t):
    T = replace_t
    trans = dict(T.transitions)
    trans[("dead", "0", "dead")] = word("0")
    bigger = OneWayTransducer(
        input_alphabet=T.input_alphabet,
        output_alphabet=T.output_alphabet,
        states=T.states | {"dead"},
        initial=T.initial,
        final=T.final,
        transitions=trans,
    )
    assert not nft.is_trim(bigger)
    assert set(nft.trim(bigger).states) == set(T.states)


def test_ambiguity_detected():
    M = ambiguous_machine()
    assert not nft.is_unambiguous(M)
    with pytest.raises(AmbiguityError):
        nft.oracle_eval(M, parse_upword("(a)^w"))


@st.composite
def tiny_machines(draw):
    """1 to 5 states over a, b: each state gets zero to two targets per
    letter, some of them with empty output."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    transitions = {}
    for q in states:
        for a in "ab":
            for q2 in draw(st.sets(st.sampled_from(states), max_size=2)):
                transitions[(q, a, q2)] = word(draw(st.sampled_from(["", "x"])))
    some = st.sets(st.sampled_from(states), min_size=1, max_size=3)
    return OneWayTransducer(frozenset("ab"), frozenset("x"), frozenset(states),
                            frozenset(draw(some)), frozenset(draw(some)),
                            transitions)


def _reach_matrix(nodes, edges):
    """R[u][v]: a nonempty path leads from u to v (Warshall)."""
    R = {u: {v: (u, v) in edges for v in nodes} for u in nodes}
    for k in nodes:
        for u in nodes:
            if R[u][k]:
                for v in nodes:
                    R[u][v] = R[u][v] or R[k][v]
    return R


def _reference_trim(T):
    """States reachable from an initial state that reach a final state on
    a cycle."""
    R = _reach_matrix(T.states, {(q, q2) for q, _, q2 in T.transitions})
    live = {f for f in T.final if R[f][f]}
    return {q for q in T.states
            if any(q == i or R[i][q] for i in T.initial)
            and any(q == f or R[q][f] for f in live)}


def _reference_clean(T):
    """No final state on a cycle of empty-output transitions."""
    R = _reach_matrix(T.states, {(q, q2) for (q, _, q2), out
                                 in T.transitions.items() if not out})
    return not any(R[f][f] for f in T.final)


def _reference_unambiguous(T):
    """The all-pairs construction: ambiguous iff a pair reached after the
    two runs split reaches a cyclic SCC of the whole pair graph that holds
    a pair with a final first state and one with a final second state."""
    pairs = list(itertools.product(sorted(T.states), repeat=2))
    edges = {((p, q), (p2, q2)) for (p, a, p2) in T.transitions
             for (q, b, q2) in T.transitions if a == b}
    R = _reach_matrix(pairs, edges)
    seen = {(p, q, p != q) for p in T.initial for q in T.initial}
    while True:
        more = {(p2, q2, d or p2 != q2) for p, q, d in seen
                for (s, (p2, q2)) in edges if s == (p, q)} - seen
        if not more:
            break
        seen |= more
    diverged = {(p, q) for p, q, d in seen if d}

    def scc(v):
        return [w for w in pairs if R[v][w] and R[w][v]]

    good = [v for v in pairs if R[v][v]
            and any(w[0] in T.final for w in scc(v))
            and any(w[1] in T.final for w in scc(v))]
    return not any(d == v or R[d][v] for d in diverged for v in good)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tiny_machines())
def test_normal_form_predicates_match_references(T):
    keep = _reference_trim(T)
    assert nft.is_trim(T) == (keep == T.states)
    trimmed = nft.trim(T)
    assert trimmed.states == keep
    assert (trimmed.initial, trimmed.final) == (T.initial & keep, T.final & keep)
    assert trimmed.transitions == {
        (q, a, q2): out for (q, a, q2), out in T.transitions.items()
        if q in keep and q2 in keep}
    assert nft.is_clean(T) == _reference_clean(T)
    assert nft.is_unambiguous(T) == _reference_unambiguous(T)


# -- the oracle --------------------------------------------------------------


def test_oracle_goldens(replace_t, double_t, normalize_t):
    assert up_equal(nft.oracle_eval(replace_t, parse_upword("(001)^w")),
                    parse_upword("(111)^w"))
    assert up_equal(nft.oracle_eval(double_t, parse_upword("002(0)^w")),
                    parse_upword("00002(0)^w"))
    assert up_equal(nft.oracle_eval(double_t, parse_upword("(0)^w")),
                    parse_upword("(0)^w"))
    assert up_equal(nft.oracle_eval(normalize_t, parse_upword("0(1)^w")),
                    parse_upword("1(0)^w"))
    assert nft.oracle_eval(replace_t, parse_upword("(0)^w")) is None
    assert nft.oracle_eval(normalize_t, parse_upword("(1)^w")) is None


def test_oracle_run_structure(replace_t):
    rl = nft.oracle_run(replace_t, parse_upword("(001)^w"))
    assert up_equal(rl.output, parse_upword("(1)^w"))
    assert rl.stem_states[0] in replace_t.initial
    assert rl.loop_states[0] == rl.loop_states[-1]
    assert set(rl.loop_states) & replace_t.final


def test_oracle_preserved_by_normalization(replace_t, double_t, normalize_t):
    rng = random.Random(11)
    for T, alpha in ((replace_t, "012"), (double_t, "012"), (normalize_t, "01")):
        Tn = nft.normalize(T)
        for _ in range(25):
            x = random_upword(rng, alpha)
            y1 = nft.oracle_eval(T, x)
            y2 = nft.oracle_eval(Tn, x)
            if y1 is None:
                assert y2 is None
            else:
                assert y2 is not None and up_equal(y1, y2)


def test_accepting_future(replace_t):
    Tn = nft.normalize(replace_t)
    for q in Tn.states:
        fut = nft.accepting_future(Tn, q)
        assert isinstance(fut, UPWord)


# -- JSON round trip ---------------------------------------------------------


def test_json_roundtrip(tmp_path, double_t):
    p = tmp_path / "m.json"
    nft.save(double_t, str(p))
    T2 = nft.load(str(p))
    assert T2.states == double_t.states
    assert T2.transitions == double_t.transitions
    assert T2.initial == double_t.initial and T2.final == double_t.final
