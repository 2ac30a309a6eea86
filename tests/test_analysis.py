"""Compatible-set analysis: steps, separability, looping futures, and the
continuity decision."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from omegastream import nft
from omegastream.analysis import (
    AdvanceProfile,
    AnalysisContext,
    ContinuityViolation,
    StepAnalysis,
    advance_profile,
    analyze_step,
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
from machines import (cycle_branch_machines, lasso_branch_machines,
                      loop_before_anchor_machine, period_branch_machines,
                      small_machines)


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


def reference_analyze_step(T, C, u, D):
    """The walk analyze_step used to make: every state keeps one entry per
    (start, output word) with its run count capped at 2, and rebuilds each
    output at every letter.  A state with two entries already has two runs,
    and so has every state it leads to, so keeping two entries per state
    changes no result; it keeps ambiguous machines from doubling the
    entries at every letter."""
    C, D, u = frozenset(C), frozenset(D), tuple(u)
    entries = {q: {(q, ()): 1} for q in C}
    for a in u:
        nxt = {}
        for q, cell in entries.items():
            for q2, out in T.succ(q, a):
                tgt = nxt.setdefault(q2, {})
                for (start, w), mult in cell.items():
                    key = (start, w + out)
                    tgt[key] = min(2, tgt.get(key, 0) + mult)
        entries = {q: dict(itertools.islice(cell.items(), 2))
                   for q, cell in nxt.items()}
    pre, val = {}, {}
    for q in D:
        cell = entries.get(q, {})
        if sum(cell.values()) != 1:
            return None
        (start, w), _ = next(iter(cell.items()))
        pre[q], val[q] = start, w
    is_step = set(pre.values()) == set(C)
    return StepAnalysis(source=C, word=u, target=D, pre=pre, val=val,
                        is_step=is_step, initial=is_step and C <= T.initial)


@st.composite
def step_queries(draw):
    """A generated machine (normalized or not, ambiguous ones included), a
    source set, a word of 0-40 letters and a target set.  Each letter is
    drawn among those some run survives, when there are any, and the target
    set half the time among the states the word reaches."""
    T = draw(st.one_of(small_machines(), lasso_branch_machines()))
    if draw(st.booleans()) and nft.is_unambiguous(T):
        Tn = nft.normalize(T)
        T = Tn if Tn.states else T
    states, letters = sorted(T.states), sorted(T.input_alphabet)
    C = draw(st.sets(st.sampled_from(states)))
    u, reached = [], set(C)
    for _ in range(draw(st.integers(0, 40))):
        live = [a for a in letters if any(T.succ(q, a) for q in reached)]
        u.append(draw(st.sampled_from(live or letters)))
        reached = {q2 for q in reached for q2, _ in T.succ(q, u[-1])}
    pool = sorted(reached) if reached and draw(st.booleans()) else states
    D = draw(st.sets(st.sampled_from(pool)))
    return T, C, tuple(u), D


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(step_queries())
def test_analyze_step_matches_the_reference_walk(query):
    T, C, u, D = query
    # StepAnalysis equality covers None-ness, pre, val, is_step and initial
    assert analyze_step(T, C, u, D) == reference_analyze_step(T, C, u, D)


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


def test_separable_through_a_loop_before_the_set():
    """{q1, q2} loops on c with outputs of one length, but the runs that
    reach it spread apart on the a-loop of (p1, p2) before: a separating
    loop may sit on any tuple from which C's tuple is reached."""
    edges = [("i", "a", "p1", "y"), ("p1", "a", "p1", "y"), ("p1", "b", "q1", ""),
             ("q1", "c", "q1", "z"), ("i", "a", "p2", "yy"), ("p2", "a", "p2", "yy"),
             ("p2", "b", "q2", ""), ("q2", "c", "q2", "z")]
    T = nft.from_dict({
        "input_alphabet": ["a", "b", "c"], "output_alphabet": ["y", "z"],
        "states": ["i", "p1", "p2", "q1", "q2"], "initial": ["i"],
        "final": ["q1"],
        "transitions": [{"from": p, "letter": a, "to": p2, "out": o}
                        for p, a, p2, o in edges],
    })
    ctx = AnalysisContext(T)
    assert ctx.is_compatible({"q1", "q2"}) is not None
    sep = ctx.is_separable({"q1", "q2"})
    assert sep is not None and sep.unequal_pair == ("q1", "q2")
    assert sep.loop_outputs == {"q1": ("y",), "q2": ("y", "y")}
    assert ctx.theta_length() == 2


def reference_unequal_pair(T, C):
    """The first pair (i, j), i < j, of C's sorted states such that a
    closed walk through an anchor (a tuple reachable from I^|C| that
    reaches C's tuple) outputs words of different lengths at components i
    and j; None when there is none.

    A breadth-first search over (tuple, length difference) pairs with
    |difference| <= 2·N·M, N the tuples reachable from the anchor and M
    the longest output.  The bound loses nothing: when such a walk exists,
    one of at most 2·N edges exists too (through an edge that breaks the
    potentials, along shortest paths), and its differences stay within
    it."""
    order = tuple(sorted(C))

    def succ(t):
        return [nxt for _, nxt, _ in T.tuple_succ(t)]

    reach = nft.closure(itertools.product(sorted(T.initial), repeat=len(order)), succ)
    anchors = [t for t in reach if order in nft.closure([t], succ)]
    longest = max((len(o) for o in T.transitions.values()), default=0)
    for i, j in itertools.combinations(range(len(order)), 2):
        for t in anchors:
            bound = 2 * len(nft.closure([t], succ)) * longest
            seen = {(t, 0)}
            queue = [(t, 0)]
            for tup, diff in queue:
                for _, nxt, outs in T.tuple_succ(tup):
                    d2 = diff + len(outs[i]) - len(outs[j])
                    if nxt == t and d2 != 0:
                        return order[i], order[j]
                    if abs(d2) <= bound and (nxt, d2) not in seen:
                        seen.add((nxt, d2))
                        queue.append((nxt, d2))
    return None


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.one_of(small_machines(), lasso_branch_machines(),
                 period_branch_machines(), cycle_branch_machines()))
def test_separability_matches_a_length_difference_search(T):
    assume(nft.is_unambiguous(T))
    Tn = nft.normalize(T)
    ctx = AnalysisContext(Tn)
    for C in ctx.comp_subsets(Tn.states):
        sep = ctx.is_separable(C)
        assert (sep and sep.unequal_pair) == reference_unequal_pair(Tn, C), C
        if sep is not None:
            p, q = sep.unequal_pair
            assert len(sep.loop_outputs[p]) != len(sep.loop_outputs[q])


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


def test_a_dead_branch_is_no_continuity_witness():
    """i --a/a--> i is the only accepting run; i --a/b--> d --a/b--> d is a
    dead branch.  is_continuous trims it away itself."""
    T = nft.from_dict({
        "input_alphabet": ["a"], "output_alphabet": ["a", "b"],
        "states": ["i", "d"], "initial": ["i"], "final": ["i"],
        "transitions": [{"from": "i", "letter": "a", "to": "i", "out": "a"},
                        {"from": "i", "letter": "a", "to": "d", "out": "b"},
                        {"from": "d", "letter": "a", "to": "d", "out": "b"}],
    })
    assert not nft.is_trim(T)
    assert is_continuous(T) == (True, None)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the search follows "
                   "only simple paths from I x I, and this witness loops "
                   "on x before its anchor")
def test_a_loop_before_the_anchor_is_a_continuity_witness():
    assert is_continuous(loop_before_anchor_machine())[0] is False


def random_machine(rng: random.Random) -> nft.OneWayTransducer:
    """2-4 states over a, b, c.  Each state reads each letter into zero to
    two targets with outputs '', x, y or xy; one or two states are initial,
    and at least one state is not final."""
    n = rng.randint(2, 4)
    states = [f"s{i}" for i in range(n)]
    transitions = {}
    for q in states:
        for a in "abc":
            for q2 in rng.sample(states, rng.choice([0, 1, 1, 2])):
                transitions[(q, a, q2)] = tuple(rng.choice(["", "x", "y", "xy"]))
    return nft.OneWayTransducer(
        input_alphabet=frozenset("abc"),
        output_alphabet=frozenset("xy"),
        states=frozenset(states),
        initial=frozenset(rng.sample(states, rng.randint(1, 2))),
        final=frozenset(rng.sample(states, rng.randint(1, n - 1))),
        transitions=transitions,
    )


def test_continuity_witnesses_on_generated_machines():
    """On 2,000 unambiguous generated machines, every witness of a "not
    continuous" verdict holds: u u'^w is accepted with the first word as
    its output, and the second word differs from it."""
    rng = random.Random(1)
    machines = negative = silent = 0
    while machines < 2000:
        T = random_machine(rng)
        if not nft.is_unambiguous(T):
            continue
        machines += 1
        ok, w = is_continuous(T)
        if ok:
            continue
        negative += 1
        silent += not w.loop_outputs[1]
        x = UPWord(w.u, w.u_loop)
        assert nft.oracle_eval(nft.clean(nft.trim(T)), x) == w.words[0]
        assert not up_equal(*w.words)
    assert negative >= 25 and silent >= 5
