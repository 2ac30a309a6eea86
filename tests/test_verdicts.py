"""The whole-machine verdicts: is_continuous and nft.is_unambiguous.

is_continuous searches each anchor's simple loops once, however many
paths reach the anchor, and skips a (path, loop) pair whose two sides have
equal outputs; is_unambiguous reads T.square().  Copies of the earlier
searches, kept here as references, must give the same verdicts, the same
witnesses and BudgetExceeded on the same machines.  Then the counts that
show the work is not repeated."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegastream import analysis, nft
from omegastream.analysis import (ContinuityWitness, _diverging_future,
                                  _preorder, _reverse, is_continuous)
from omegastream.nft import BudgetExceeded, OneWayTransducer, closure
from omegastream.words import canonicalize, up_equal, word

from machines import (ambiguous_machine, branch, cycle_branch_machines,
                      lasso_branch_machines, period_branch_machines,
                      random_machine, replace_k, root_branch_machines,
                      small_machines)

BUDGET = 20_000  # tuples or paths a search may visit here


# -- the earlier searches ---------------------------------------------------------


def reference_pair_paths(rows, starts):
    def children(node):
        pair, visited, out1, out2, letters = node
        for a, nxt, (o1, o2) in rows[pair]:
            if nxt not in visited:
                yield nxt, visited | {nxt}, out1 + o1, out2 + o2, letters + (a,)

    count = 0
    for s in starts:
        if s not in rows:
            continue
        for pair, _, out1, out2, letters in _preorder((s, {s}, (), (), ()), children):
            count += 1
            if count > BUDGET:
                raise BudgetExceeded("continuity path search too large")
            yield pair, out1, out2, letters


def reference_is_continuous(T):
    """The loop over the square that searched an anchor's loops again for
    every path to it and compared the limits of every pair."""
    T = nft.clean(nft.trim(T))
    rows = T.square()
    starts = sorted(itertools.product(T.initial, repeat=2), key=str)
    checked = set()
    rev = _reverse(rows)
    for anchor, out1, out2, path in reference_pair_paths(rows, starts):
        f, q = anchor
        if f not in T.final or (anchor, out1, out2) in checked:
            continue
        checked.add((anchor, out1, out2))
        back = closure([anchor], lambda pair: rev.get(pair, ()))
        loop_rows = {pair: [e for e in rows[pair] if e[1] in back]
                     for pair in back}
        for pair, l1, l2, letters in reference_pair_paths(loop_rows, [anchor]):
            for a, nxt, (o1, o2) in loop_rows[pair]:
                if nxt != anchor:
                    continue
                c1, c2 = l1 + o1, l2 + o2
                w1 = canonicalize(out1, c1)
                w2 = (canonicalize(out2, c2) if c2
                      else _diverging_future(T, q, out2, w1))
                if w2 is not None and not up_equal(w1, w2):
                    return False, ContinuityWitness(
                        u=path, u_loop=letters + (a,), outputs=(out1, out2),
                        loop_outputs=(c1, c2), words=(w1, w2))
    return True, None


def reference_is_unambiguous(T):
    """The forward search over every pair reachable from I x I."""
    def step(node):
        p, q, d = node
        return [(p2, q2, d or p2 != q2) for _, (p2, q2), _ in T.tuple_succ((p, q))]

    start = [(p, q, p != q) for p in T.initial for q in T.initial]
    diverged = {(p, q) for p, q, d in closure(start, step) if d}
    reach = closure(diverged, lambda pq: [t for _, t, _ in T.tuple_succ(pq)])
    adj = {pq: {t for _, t, _ in T.tuple_succ(pq)} for pq in reach}
    return not any(
        nft._cyclic(comp, adj)
        and any(p in T.final for p, _ in comp)
        and any(q in T.final for _, q in comp)
        for comp in nft._sccs(adj)
    )


def outcome(search, T):
    try:
        return search(T)
    except BudgetExceeded:
        return "budget"


def assert_same_verdicts(T):
    """Both continuity searches give the same verdict and witness, or both
    run out of budget; both unambiguity searches agree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nft, "NODE_BUDGET", BUDGET)
        mp.setattr(analysis, "NODE_BUDGET", BUDGET)
        assert outcome(is_continuous, T) == outcome(reference_is_continuous, T)
        assert nft.is_unambiguous(T) == reference_is_unambiguous(T)
        Tc = nft.clean(nft.trim(T))
        assert nft.is_unambiguous(Tc) == reference_is_unambiguous(Tc)


# -- differential tests -------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.one_of(small_machines(), lasso_branch_machines(),
                 period_branch_machines(), cycle_branch_machines(),
                 root_branch_machines(continuous=True),
                 root_branch_machines(continuous=False)))
def test_same_verdicts_as_the_earlier_searches_on_generated_machines(T):
    assert_same_verdicts(T)


def test_same_verdicts_as_the_earlier_searches_on_random_machines():
    rng = random.Random(3)
    for _ in range(1000):
        assert_same_verdicts(random_machine(rng))


def test_same_verdicts_as_the_earlier_searches_on_named_families():
    for k in range(2, 9):
        assert_same_verdicts(replace_k(k))
    for k in range(2, 6):
        assert_same_verdicts(branch(k))
    assert_same_verdicts(ambiguous_machine())
    assert nft.is_unambiguous(ambiguous_machine()) is False


# -- no repeated work ------------------------------------------------------------------


def fan_machine(k):
    """i --a_j / x^j--> f for j = 1..k, and f --c/z--> f, with f final:
    k simple paths with k different outputs reach the anchor (f, f)."""
    letters = [f"a{j}" for j in range(1, k + 1)]
    transitions = {("i", a, "f"): word("x" * j) for j, a in enumerate(letters, 1)}
    transitions[("f", "c", "f")] = word("z")
    return OneWayTransducer(
        input_alphabet=frozenset(letters + ["c"]),
        output_alphabet=frozenset("xz"),
        states=frozenset({"i", "f"}),
        initial=frozenset({"i"}),
        final=frozenset({"f"}),
        transitions=transitions,
    )


def test_equal_output_pairs_build_no_words(monkeypatch):
    """The square of replace_k holds only pairs (q, q), so every path and
    loop has equal outputs on both sides."""
    calls = []

    def counting(*args):
        calls.append(args)
        return canonicalize(*args)

    monkeypatch.setattr(analysis, "canonicalize", counting)
    assert is_continuous(replace_k(12)) == (True, None)
    assert calls == []


def test_each_anchor_searches_its_loops_once(monkeypatch):
    anchors = []
    search = analysis._simple_pair_loops

    def recording(rows, anchor):
        anchors.append(anchor)
        return search(rows, anchor)

    monkeypatch.setattr(analysis, "_simple_pair_loops", recording)
    k = 6
    assert is_continuous(fan_machine(k)) == (True, None)
    # k paths (i, i) -a_j-> (f, f), one per output x^j
    assert anchors == [("f", "f")]
    anchors.clear()
    assert is_continuous(branch(5)) == (True, None)
    assert len(anchors) == len(set(anchors))


def test_unambiguity_stays_in_the_square(monkeypatch):
    """The forward search expanded all 901 pairs reachable from
    (q0, q0) on replace_k(30); the square holds 31 of them."""
    expanded = {"tuple_succ": set(), "tuple_pred": set()}
    for name in expanded:
        index = getattr(nft.OneWayTransducer, name)

        def recording(self, t, index=index, seen=expanded[name]):
            seen.add(t)
            return index(self, t)

        monkeypatch.setattr(nft.OneWayTransducer, name, recording)
    k = 30
    T = replace_k(k)
    assert nft.is_unambiguous(T) is True
    assert expanded["tuple_succ"] <= T.square().keys()
    assert len(expanded["tuple_succ"]) + len(expanded["tuple_pred"]) <= 4 * k + 1
