"""nft.product_between and the searches that run over its rows.

The continuity, constant-state and separability searches used to run
forward over the whole product.  Copies of those forward searches, kept
here as references, must give the same continuity verdicts and witnesses,
constant-state witnesses, separability witnesses and Theta.  Then the
machines whose forward products are too large: the pair square of
replace_k, and the separability of branch(k)."""

import itertools
import random
import tracemalloc
from collections import deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegastream import nft
from omegastream.analysis import (AnalysisContext, ContinuityWitness,
                                  SeparabilityWitness, _diverging_future,
                                  _preorder, is_continuous)
from omegastream.determinize import prepare
from omegastream.nft import BudgetExceeded, ContractError, closure, product_path
from omegastream.words import canonicalize, up_equal

from machines import (branch, cycle_branch_machines, deterministic_machines,
                      lasso_branch_machines, period_branch_machines,
                      random_machine, replace_k, ring, root_branch_machines,
                      small_machines)

REFERENCE_BUDGET = 20_000  # tuples or paths a reference search may visit


# -- the forward searches over the whole product --------------------------------


def forward_bfs(T, starts):
    parents = {t: None for t in starts}
    queue = deque(starts)
    while queue:
        t = queue.popleft()
        for a, nxt, outs in T.tuple_succ(t):
            if nxt not in parents:
                if len(parents) >= REFERENCE_BUDGET:
                    raise BudgetExceeded("reference search too large")
                parents[nxt] = (t, a, outs)
                queue.append(nxt)
    return parents


def forward_walk(T, start, goals, keep=None):
    parents = {start: None}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for a, nxt, outs in T.tuple_succ(t):
            if keep is not None and not keep(outs):
                continue
            if nxt in goals:
                letters, outputs, _ = product_path(parents, t)
                return (letters + (a,),
                        [o + x for o, x in zip(outputs, outs)], nxt)
            if nxt not in parents:
                if len(parents) >= REFERENCE_BUDGET:
                    raise BudgetExceeded("reference search too large")
                parents[nxt] = (t, a, outs)
                queue.append(nxt)
    return None


def forward_pair_paths(T, starts):
    def children(node):
        pair, visited, out1, out2, letters = node
        for a, nxt, (o1, o2) in T.tuple_succ(pair):
            if nxt not in visited:
                yield nxt, visited | {nxt}, out1 + o1, out2 + o2, letters + (a,)

    count = 0
    for s in starts:
        for pair, _, out1, out2, letters in _preorder((s, {s}, (), (), ()), children):
            count += 1
            if count > REFERENCE_BUDGET:
                raise BudgetExceeded("reference search too large")
            yield pair, out1, out2, letters


def forward_is_continuous(T):
    T = nft.clean(nft.trim(T))
    starts = sorted(itertools.product(T.initial, repeat=2), key=str)
    checked = set()
    for anchor, out1, out2, path in forward_pair_paths(T, starts):
        f, q = anchor
        if f not in T.final or (anchor, out1, out2) in checked:
            continue
        checked.add((anchor, out1, out2))
        for pair, l1, l2, letters in forward_pair_paths(T, [anchor]):
            for a, nxt, (o1, o2) in T.tuple_succ(pair):
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


def forward_constant_witnesses(T):
    reach = forward_bfs(T, list(itertools.product(sorted(T.initial), repeat=2)))
    found = {}
    for f, q in reach:
        if f in T.final and q not in T.final and q not in found:
            loop = forward_walk(T, (f, q), {(f, q)}, keep=lambda outs: not outs[1])
            if loop is not None:
                _, (a1, a2), _ = product_path(reach, (f, q))
                found[q] = (a1, loop[1][0], a2)
    return {q: found[q] for q in sorted(found)}


def forward_unequal_loop(T, t, i, j, rev):
    def w(outs):
        return len(outs[i]) - len(outs[j])

    parents = forward_bfs(T, [t])
    pot = {}
    for v, edge in parents.items():
        pot[v] = 0 if edge is None else pot[edge[0]] + w(edge[2])
    comp = parents.keys() & closure([t], lambda v: rev.get(v, ()))
    for u in parents:
        if u not in comp:
            continue
        for _, v, outs in T.tuple_succ(u):
            if v not in comp or pot[u] + w(outs) == pot[v]:
                continue
            back = ([()] * len(t) if v == t
                    else forward_walk(T, v, {t})[1])
            _, to_u, _ = product_path(parents, u)
            _, to_v, _ = product_path(parents, v)
            for loop in ([x + o + y for x, o, y in zip(to_u, outs, back)],
                         [x + y for x, y in zip(to_v, back)]):
                if len(loop[i]) != len(loop[j]):
                    return loop
    return None


class ForwardContext(AnalysisContext):
    """An analysis context whose separability search runs forward from
    I^|C| over the whole product."""

    def _search_separable(self, C):
        if len(C) < 2 or self.is_compatible(C) is None:
            return None
        T = self.T
        order = tuple(sorted(C))
        starts = list(itertools.product(sorted(T.initial), repeat=len(order)))
        fwd = forward_bfs(T, starts)
        if order not in fwd:
            return None
        rev = {}
        for t in fwd:
            for _, nxt, _ in T.tuple_succ(t):
                rev.setdefault(nxt, set()).add(t)
        anchors = sorted(closure([order], lambda t: rev.get(t, ())), key=str)
        for i, j in itertools.combinations(range(len(order)), 2):
            for t in anchors:
                loop_outs = forward_unequal_loop(T, t, i, j, rev)
                if loop_outs is not None:
                    return SeparabilityWitness(
                        loop_outputs={q: tuple(o) for q, o in zip(order, loop_outs)},
                        unequal_pair=(order[i], order[j]))
        return None


def assert_same_answers(T):
    """The searches over product_between's rows answer as the forward
    references do, wherever a reference answers."""
    try:
        expected = forward_is_continuous(T)
    except BudgetExceeded:
        expected = None
    if expected is not None:
        assert is_continuous(T) == expected
    Tc = nft.clean(nft.trim(T))
    assert nft._constant_witnesses(Tc) == forward_constant_witnesses(Tc)
    if not nft.is_unambiguous(Tc):
        return
    try:
        Tn = nft.normalize(Tc)
    except ContractError:  # a constant state of a machine not continuous
        return
    ctx, ref = AnalysisContext(Tn), ForwardContext(Tn)
    try:
        subsets = ref.comp_subsets(Tn.states)
        witnesses = [ref.is_separable(C) for C in subsets]
        theta = ref.theta_length()
    except BudgetExceeded:
        return
    assert [ctx.is_separable(C) for C in subsets] == witnesses
    assert ctx.theta_length() == theta


# -- product_between against its definition ------------------------------------------


def reference_between(T, starts, goals):
    """The rows product_between promises, from two closures over
    tuple_succ."""
    def succ(t):
        return [nxt for _, nxt, _ in T.tuple_succ(t)]

    reach = closure(starts, succ)
    keep = {t for t in reach if closure([t], succ) & set(goals)}
    return {t: [e for e in T.tuple_succ(t) if e[1] in keep] for t in keep}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_machines(), lasso_branch_machines(),
                 deterministic_machines()), st.randoms(use_true_random=False))
def test_product_between_keeps_the_tuples_between_starts_and_goals(T, rng):
    states = sorted(T.states)
    for width in (1, 2, 3):
        tuples = list(itertools.product(states, repeat=width))
        starts = rng.sample(tuples, min(len(tuples), rng.randint(1, 3)))
        goals = rng.sample(tuples, min(len(tuples), rng.randint(1, 4)))
        rows = nft.product_between(T, starts, goals)
        assert rows == reference_between(T, starts, goals)


def test_product_between_closes_the_smaller_side():
    """On a ring the forward side closes, on replace_k the backward one;
    either way the rows are the same as their definition's."""
    n = 60
    T = ring(n)
    rows = T.square()
    assert sorted(rows) == sorted((q, q) for q in T.states)
    # the n reachable pairs, and a bounded share of the n² that reach a
    # pair with a final first state
    assert len(T._succ_rows) == n
    assert len(T._pred_rows) <= (nft.BACKWARD_SHARE + 1) * n
    assert rows == reference_between(T, [("s0", "s0")], list(
        itertools.product(sorted(T.final), sorted(T.states))))
    T = replace_k(6)
    rows = T.square()
    assert len(rows) == 7  # (q0, q0) and every (qi, qi)
    assert len(T._pred_rows) == 3 * 6 + 1 and len(T._succ_rows) <= 1
    assert rows == reference_between(T, [("q0", "q0")], list(
        itertools.product(sorted(T.final), sorted(T.states))))


# -- differential tests -------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.one_of(small_machines(), lasso_branch_machines(),
                 period_branch_machines(), cycle_branch_machines(),
                 root_branch_machines(continuous=True),
                 root_branch_machines(continuous=False)))
def test_same_answers_as_the_forward_searches_on_generated_machines(T):
    assert_same_answers(T)


def test_same_answers_as_the_forward_searches_on_random_machines():
    rng = random.Random(27)
    for _ in range(200):
        assert_same_answers(random_machine(rng))


def test_same_answers_as_the_forward_searches_on_named_families():
    for k in range(2, 9):
        assert_same_answers(replace_k(k))
    for k in range(2, 6):
        assert_same_answers(branch(k))


# -- scale ------------------------------------------------------------------------


def test_the_continuity_square_of_replace_k_grows_linearly(monkeypatch):
    """The forward pair search expanded (q0, q0) and all k² guess pairs
    (qi, qj); of those, only the k pairs (qi, qi) reach a final pair."""
    expanded = set()
    for name in ("tuple_succ", "tuple_pred"):
        index = getattr(nft.OneWayTransducer, name)

        def recording(self, t, index=index):
            expanded.add(t)
            return index(self, t)

        monkeypatch.setattr(nft.OneWayTransducer, name, recording)
    k = 12
    assert is_continuous(replace_k(k)) == (True, None)
    assert len(expanded) <= 4 * k + 1


def test_branch_machines_past_the_forward_budget():
    """branch(7) and branch(8) raised BudgetExceeded in the forward
    separability search, whose tuples grow like k^|C|."""
    assert prepare(branch(7)).theta_length() == 420
    assert prepare(branch(8)).theta_length() == 840


def test_branch_6_analysis_memory():
    """The forward separability search of branch(6) held about 270 MB."""
    tracemalloc.start()
    try:
        assert prepare(branch(6)).theta_length() == 60
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
