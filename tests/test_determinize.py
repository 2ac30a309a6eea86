"""The streaming determinizer: initialization, stepping, the toolbox, the
full pipeline, and trace 1-boundedness."""

import dataclasses
import itertools
import random
import tracemalloc
from functools import reduce
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from omegastream import analysis, determinize, nft
from omegastream.analysis import (
    AnalysisContext,
    ContinuityViolation,
    is_continuous,
)
from omegastream.annotator import annotate
from omegastream.determinize import (
    RECOMPUTE_EVERY,
    Determinizer,
    InvariantChecker,
    InvariantError,
    StreamSession,
    _Recorder,
    one_bounded_trace,
    path_register,
    prepare,
    run_pipeline,
)
from omegastream.nft import ContractError
from omegastream.sst import Reg, compose_counting, counting_matrix
from omegastream.words import (UPWord, canonicalize, lcp_finite, parse_upword,
                               up_starts_with)

from conftest import flushy_corpus
from machines import (branch, from_edges, lagging_preimage_machine,
                      lasso_branch_machines, multitail_machine,
                      nonclose_machine,
                      period_branch_machines, small_machines,
                      unconstrained_future_machine)


@pytest.fixture()
def ddet(double_t):
    ctx = AnalysisContext(nft.normalize(double_t))
    det = Determinizer(ctx)
    det.init(frozenset({"q0"}))
    return det


def test_path_register():
    C = frozenset({"q1", "q2"})
    assert path_register((C,)) == "out"
    assert path_register((C, frozenset({"q1"}))) == "out@{q1,q2}>{q1}"


def test_init(ddet, replace_t):
    assert ddet.mode == "nonsep"
    assert ddet.lag == {"q0": ()}
    assert ddet.emitted == []
    rctx = AnalysisContext(nft.normalize(replace_t))
    rdet = Determinizer(rctx)
    rdet.init(frozenset({"q0"}))
    assert rdet.mode == "nonsep"


def test_init_rejects_incompatible(replace_t):
    rctx = AnalysisContext(nft.normalize(replace_t))
    det = Determinizer(rctx)
    with pytest.raises(ContractError):
        det.init(frozenset({"q1", "q2"}))


def test_first_step_double(ddet):
    delta = ddet.step("0", frozenset({"q1", "q2"}))
    assert delta == ("0",)
    assert ddet.mode == "sep"
    # remainders: q1 caught up, q2 holds one pending 0 (split between the
    # transient lag and the sub-theta last)
    assert ddet.lag["q1"] + ddet.last["q1"] == ()
    assert ddet.lag["q2"] + ddet.last["q2"] == ("0",)


def test_step_replace(replace_t):
    rctx = AnalysisContext(nft.normalize(replace_t))
    det = Determinizer(rctx)
    det.init(frozenset({"q0"}))
    delta = det.step("1", frozenset({"q0"}))
    assert delta == ("1",)
    assert det.mode == "nonsep"
    assert det.lag == {"q0": ()}


def test_step_rejects_non_prestep(ddet):
    with pytest.raises(ContractError):
        ddet.step("0", frozenset({"q0"}))


# -- toolbox -----------------------------------------------------------------


def _sep_state(double_t):
    ctx = AnalysisContext(nft.normalize(double_t))
    det = Determinizer(ctx)
    det.init(frozenset({"q0"}))
    det.step("0", frozenset({"q1", "q2"}))
    assert det.mode == "sep"
    return det


def _run_resize(det):
    rec = _Recorder({"out": tuple(det.emitted), **det.out_regs})
    from omegastream.sst import Reg

    for name in det.out_regs:
        rec.sym[name] = [Reg(name)]
    det._resize_last(rec)
    _, contents = rec.finish()
    det.emitted = list(contents.pop("out"))
    det.out_regs = contents


def test_resize_factors_theta_powers(double_t):
    det = _sep_state(double_t)
    th = det.theta
    root = (det.C,)
    assert det.nb[root] == {"q1": 0, "q2": 0}
    tail = det.last["q2"]
    det.last["q2"] = th * 2 + tail
    _run_resize(det)
    # last(q2) = theta^2 w with |w| < |theta|  ->  last(q2) = w, nb += 2
    # (q1's counter is 0, so nothing is emitted and nothing overflows)
    assert det.last["q2"] == tail
    assert det.nb[root]["q2"] == 2


def test_down_clamps_and_pushes_overflow(double_t):
    det = _sep_state(double_t)
    th = det.theta
    root = (det.C,)
    p1 = (det.C, frozenset({"q1"}))
    det.nb[root]["q1"] = 4
    det.nb[root]["q2"] = 0
    _run_resize(det)
    # min is 0, so the root clamps q1 to 2 and sends 2 to the singleton
    # child, which immediately turns them into theta-powers in its register
    assert det.nb[root]["q1"] == 2
    assert det.nb[p1]["q1"] == 0
    assert det.out_regs[path_register(p1)] == th * 2
    for m in det.nb.values():
        assert all(0 <= v <= 2 for v in m.values())


def test_down_emits_common_minimum(double_t):
    det = _sep_state(double_t)
    th = det.theta
    root = (det.C,)
    if det.max_lag == ():
        before = len(det.emitted)
        det.nb[root] = {q: 1 for q in det.C}
        _run_resize(det)
        assert tuple(det.emitted[before:]) == th
        assert all(v == 0 for v in det.nb[root].values())


# -- pipeline ----------------------------------------------------------------


def test_pipeline_goldens(replace_t, double_t):
    r = run_pipeline(replace_t, parse_upword("(001)^w"), 30)
    assert r.emitted == ("1",) * 30
    assert len(r.emitted) >= 20
    r2 = run_pipeline(double_t, parse_upword("002(0)^w"), 40)
    assert r2.emitted == tuple("00002" + "0" * 37)
    assert up_starts_with(parse_upword("00002(0)^w"), r2.emitted)


def test_pipeline_rejects_discontinuous(normalize_t):
    with pytest.raises(ContinuityViolation):
        run_pipeline(normalize_t, parse_upword("(01)^w"), 10)


def test_pipeline_lookahead_beyond_ten_n(replace_t):
    # The first cover must read past the 1500 zeros: far more letters than
    # 10 * n + 1000 for n = 1, and more than 10 * |Q|^|Q| = 270; the
    # lookahead has no cap.
    x = parse_upword("0" * 1500 + "1(01)^w")
    r = run_pipeline(replace_t, x, 1)
    assert r.steps == 1
    assert up_starts_with(nft.oracle_eval(replace_t, x), r.emitted)


def test_prefix_soundness_and_invariants(replace_t, double_t):
    for T in (replace_t, double_t):
        for x in flushy_corpus(5):
            y = nft.oracle_eval(T, x)
            assert y is not None
            r = run_pipeline(T, x, 80, check_invariants=True)
            emitted = ()
            for rec in r.trace:
                emitted = emitted + rec.emitted_delta
                assert up_starts_with(y, emitted)


def test_one_bounded_traces(replace_t, double_t):
    for T in (replace_t, double_t):
        for x in flushy_corpus(4):
            r = run_pipeline(T, x, 60)
            assert one_bounded_trace(r.trace)


def _one_bounded_unmemoized(trace):
    """one_bounded_trace without its memo of composed window products."""
    cap = 2
    window_products = set()
    for rec in trace:
        m = counting_matrix(rec.assign, cap)
        frozen = tuple(sorted(m.items()))
        new_products = {frozen}
        for p in window_products:
            new_products.add(
                tuple(sorted(compose_counting(dict(p), m, cap).items())))
        window_products = new_products
        if any(c > 1 for p in window_products for _, c in p):
            return False
    return True


def test_one_bounded_trace_matches_unmemoized(replace_t, double_t):
    # records that copy r into s1 and s2, keep them and join them back into
    # r: no record copies on its own, their window does.  The window ending
    # at keep equals split, so a memo keyed by the window alone misses it.
    split = {"s1": (Reg("r"),), "s2": (Reg("r"),)}
    keep = {"s1": (Reg("s1"),), "s2": (Reg("s2"),)}
    join = {"r": (Reg("s1"), Reg("s2"))}
    traces = [run_pipeline(T, x, 60).trace
              for T in (replace_t, double_t)
              for x in flushy_corpus(4) + [parse_upword("(0010001)^w")]]
    for trace in traces:
        assert one_bounded_trace(trace) == _one_bounded_unmemoized(trace)
        mid = len(trace) // 2
        copying = (trace[:mid]
                   + [dataclasses.replace(trace[mid], assign=a)
                      for a in (split, keep, join)]
                   + trace[mid:])
        assert one_bounded_trace(copying) is False
        assert _one_bounded_unmemoized(copying) is False


@st.composite
def continuous_runs(draw, machines=None):
    """An unambiguous continuous machine (from `machines`, by default small,
    lasso-branch and period-branch machines), an input in its domain and
    the oracle's output on it."""
    if machines is None:
        machines = st.one_of(small_machines(), lasso_branch_machines(),
                             period_branch_machines())
    T = draw(machines)
    assume(nft.is_unambiguous(T) and is_continuous(T)[0])
    rng = draw(st.randoms(use_true_random=False))
    letters = sorted(T.input_alphabet)
    for _ in range(20):  # the first of 20 random words that is in the domain
        # half of them end in a^w, the longest a-run there is
        period = rng.choices(letters, k=rng.randint(1, 4))
        x = UPWord(tuple(rng.choices(letters, k=rng.randint(0, 4))),
                   tuple(period) if rng.random() < 0.5 else ("a",))
        y = nft.oracle_eval(T, x)
        if y is not None:
            return T, x, y
    assume(False)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(continuous_runs())
def test_streamed_output_is_a_prefix_of_the_oracle(run):
    T, x, y = run
    r = run_pipeline(T, x, 60, check_invariants=True)
    assert up_starts_with(y, r.emitted)
    assert one_bounded_trace(r.trace)


def test_invariant_checker_catches_corruption(double_t):
    ctx = AnalysisContext(nft.normalize(double_t))
    det = Determinizer(ctx)
    det.init(frozenset({"q0"}))
    checker = InvariantChecker(det)
    x = parse_upword("(001)^w")
    ann_C = [frozenset({"q1", "q2"}), frozenset({"q1", "q2"}), frozenset({"q0"})]
    for a, C in zip("001", ann_C):
        det.step(a, C)
        checker.after_step(a)
    det.lag = {q: det.lag[q] + ("2",) for q in det.lag}
    with pytest.raises(InvariantError):
        checker.check()


def test_trace_records(double_t):
    r = run_pipeline(double_t, parse_upword("(012)^w"), 12)
    assert r.trace[0].letter is None
    assert [rec.index for rec in r.trace] == list(range(len(r.trace)))
    for rec in r.trace[1:]:
        assert rec.mode in ("sep", "nonsep")
        assert isinstance(rec.assign, dict) and "out" in rec.assign


def test_pipeline_reads_exactly_n_letters(replace_t):
    x = parse_upword("(1)^w")
    for n in (0, 1, 3):
        r = run_pipeline(replace_t, x, n)
        assert r.steps == n
        assert r.emitted == ("1",) * n
        assert len(r.trace) == len(r.annotations) == n + 1


def test_stream_session_matches_pipeline(double_t):
    x = parse_upword("0(012)^w")
    ref = run_pipeline(double_t, x, 30, check_invariants=True)
    session = StreamSession(prepare(double_t), x, check_invariants=True)
    out = []
    for item in ref.annotations:
        out.extend(session.feed(item))
    assert tuple(out) == session.emitted == ref.emitted
    assert session.steps == 30
    assert session.checker is not None


def test_stream_session_pulls_no_item_beyond_n(replace_t):
    x = parse_upword("(001)^w")
    ctx = prepare(replace_t)
    ann = annotate(ctx, x.letters())
    session = StreamSession(ctx)
    fed = [item for item, _ in session.run(ann, 5)]
    assert len(fed) == 6 and session.steps == 5
    # the next annotation still carries the sixth letter
    assert next(ann)[0] == x.letter_at(5)


class _NoIterList(list):
    """A list that fails when anything reads it back."""

    def __iter__(self):
        raise AssertionError("emitted output was iterated")

    def __getitem__(self, key):
        raise AssertionError("emitted output was indexed")


def test_long_stream_never_reads_past_output(replace_t):
    n = 20_000
    x = parse_upword("(001)^w")
    ctx = prepare(replace_t)
    ann = annotate(ctx, x.letters())
    session = StreamSession(ctx)
    session.feed(next(ann))
    session.det.emitted = _NoIterList()
    # C0 is already fed, so the n items run pulls are all letters
    for _, delta in session.run(ann, n - 1):
        assert delta == ("1",)
    assert session.steps == n and len(session.det.emitted) == n
    assert set(list.copy(session.det.emitted)) == {"1"}
    # the default session keeps no records
    assert len(session.det.trace) == 0
    assert len(run_pipeline(replace_t, x, 300).trace) == 301


def test_step_records_are_built_only_for_a_trace(replace_t, monkeypatch):
    n = 1000
    x = parse_upword("(001)^w")
    ctx = prepare(replace_t)
    built = []
    real = determinize.StepRecord

    def counted(**kw):
        built.append(kw["index"])
        return real(**kw)

    monkeypatch.setattr(determinize, "StepRecord", counted)
    for trace, records in ((None, 0), ([], n + 1)):
        built.clear()
        session = StreamSession(ctx, trace=trace)
        for _ in session.run(annotate(ctx, x.letters()), n):
            pass
        assert session.steps == n
        assert len(built) == records
        # the trace stays sized whether or not it keeps records
        assert len(session.det.trace) == records


def test_recorder_keeps_an_untouched_register_as_is():
    w = ("a", "b")
    rec = _Recorder({"out": (), "r": w, "s": w})
    rec.sym["r"] = [Reg("r")]
    rec.sym["s"] = [Reg("s")]
    rec.append_letters("s", ("c",))
    assign, contents = rec.finish()
    assert contents["r"] is w and contents["s"] == ("a", "b", "c")
    assert assign == {"out": (Reg("out"),), "r": (Reg("r"),),
                      "s": (Reg("s"), "c")}
    assert isinstance(contents["s"], tuple)
    assert rec.finish(False) == (None, contents)


def test_recorder_keeps_out_append_only():
    rec = _Recorder({"out": (), "r": ("a",)})
    with pytest.raises(InvariantError):
        rec.fresh("out")
    with pytest.raises(InvariantError):
        rec.splice("r", "out")
    for mapping in ({"out": None}, {"out": "out", "r": "out"}, {"r": "r"}):
        with pytest.raises(InvariantError):
            rec.remap(mapping)


# -- invariant checker ---------------------------------------------------------


def _checked_session(T, x, n):
    """A StreamSession over the first n letters of x with the checker on."""
    ctx = prepare(T)
    session = StreamSession(ctx, x, check_invariants=True)
    for _ in session.run(annotate(ctx, x.letters()), n):
        pass
    return session


def _corrupt_lag(det):
    det.lag["q1"] = det.lag["q1"] + ("0",)


def _corrupt_max_lag(det):
    det.max_lag = det.max_lag + ("0",)


def _corrupt_last(det):
    det.last["q1"] = ()


def _corrupt_nb(det):
    det.nb[(det.C,)]["q2"] += 1


def _corrupt_out_pi(det):
    det.out_regs["out@{q1,q2}>{q2}"] = det.theta


def _corrupt_emitted(det):
    det.emitted.append("0")


@pytest.mark.parametrize("corrupt", [
    _corrupt_lag, _corrupt_max_lag, _corrupt_last, _corrupt_nb,
    _corrupt_out_pi, _corrupt_emitted,
])
def test_invariant_checker_catches_separable_corruption(double_t, corrupt):
    # after 00 of (001)^w, double is in its separable mode with
    # last = {q1: 0, q2: 0} and a theta counter of 1 on q2
    session = _checked_session(double_t, parse_upword("(001)^w"), 2)
    det = session.det
    assert det.mode == "sep" and det.nb[(det.C,)]["q2"] == 1
    session.checker.check()
    corrupt(det)
    with pytest.raises(InvariantError):
        session.checker.check()


def _out_pi_not_a_theta_power(det):
    det.out_regs["out@{q1,q2}>{q2}"] = det.theta + det.theta[:1]


def _last_a_whole_theta(det):
    det.last["q1"] = det.theta


def _lagging_state_with_a_branch_register(det):
    # q2 reaches a max_lag of one theta and q1 lags behind it with no last
    # and no theta counters, but q1's branch register holds a theta
    det.max_lag = det.lag["q2"] = det.theta
    det.last["q1"] = ()
    det.out_regs["out@{q1,q2}>{q1}"] = det.theta


@pytest.mark.parametrize("corrupt, which", [
    (_out_pi_not_a_theta_power, "4b"), (_last_a_whole_theta, "4c"),
    (_lagging_state_with_a_branch_register, "4d"),
])
def test_invariant_checker_names_the_broken_family(double_t, corrupt, which):
    """Each corruption breaks one family, and the checker names it."""
    session = _checked_session(double_t, parse_upword("(001)^w"), 2)
    session.checker.check()
    corrupt(session.det)
    with pytest.raises(InvariantError) as err:
        session.checker.check()
    assert err.value.which == which


def held_back_machine():
    """On a^n (n >= 2) the runs through p1 and p3 have both output z y^(n-2)
    and p1 one more y, so the non-separable set {p1, p3} holds back p1's
    y; p1 is final, p3 leaves on b."""
    edges = [("q0", "a", "p1", "z"), ("q0", "a", "p2", ""),
             ("p1", "a", "p1", "y"), ("p2", "a", "p3", "z"),
             ("p3", "a", "p3", "y"), ("p3", "b", "q0", "y")]
    return from_edges(edges, {"q0"}, {"p1"})


def test_invariant_checker_names_output_held_back():
    """Dropping p3 from {p1, p3} leaves p1's held-back y certain: out is
    no longer the common production of the runs (3a)."""
    session = _checked_session(held_back_machine(), parse_upword("(a)^w"), 4)
    det = session.det
    assert det.mode == "nonsep" and det.C == {"p1", "p3"}
    assert det.lag == {"p1": ("y",), "p3": ()}
    session.checker.check()
    det.C = frozenset({"p1"})
    with pytest.raises(InvariantError) as err:
        session.checker.check()
    assert err.value.which == "3a"


def test_resize_names_an_unclamped_counter(double_t):
    """A tree walk that misses a subtree leaves its overflowed theta
    counter above 2, and the toolbox says so."""
    det = _sep_state(double_t)
    det._children_cache[det.C] = ()  # the walk sees no subtree
    det.nb[(det.C, frozenset({"q2"}))]["q2"] = 3
    with pytest.raises(InvariantError) as err:
        _run_resize(det)
    assert err.value.which == "toolbox"


def test_invariant_checker_catches_a_wrong_output_letter(double_t):
    x = parse_upword("(001)^w")
    ctx = prepare(double_t)
    session = StreamSession(ctx, x, check_invariants=True)
    ann = annotate(ctx, x.letters())
    session.feed(next(ann))
    a, C = next(ann)
    det = session.det
    det.step(a, C)
    assert det.emitted == ["0"]
    # the right length with the wrong letter: every rest keeps its length
    det.emitted[-1] = "1"
    with pytest.raises(InvariantError):
        session.checker.after_step(a)

def test_three_branch_separability():
    T = branch(3)
    ctx = AnalysisContext(T)
    unequal = {
        frozenset({"q1", "q2"}): ("q1", "q2"),
        frozenset({"q1", "q3"}): ("q1", "q3"),
        frozenset({"q1", "q2", "q3"}): ("q1", "q2"),
    }
    # no singleton and no set holding q0 is separable, nor is {q2, q3}
    for r in range(1, len(T.states) + 1):
        for C in itertools.combinations(sorted(T.states), r):
            sep = ctx.is_separable(C)
            assert (sep and sep.unequal_pair) == unequal.get(frozenset(C)), C


def test_four_branch_machine_streams():
    """A fourth branch, yyyy closed by e: every compatible set is decided
    and the machine streams under the invariant checker."""
    T = branch(4)
    ctx = AnalysisContext(T)
    # the separable sets are those holding the final q1 and another branch
    for r in range(1, len(T.states) + 1):
        for C in itertools.combinations(sorted(T.states), r):
            sep = ctx.is_separable(C)
            expected = None
            if "q1" in C and "q0" not in C and r > 1:
                expected = ("q1", min(q for q in C if q != "q1"))
            assert (sep and sep.unequal_pair) == expected, C
    x = parse_upword("(aaab)^w")
    r = run_pipeline(T, x, 60, check_invariants=True)
    assert up_starts_with(nft.oracle_eval(T, x), r.emitted)
    assert len(r.emitted) > 0
    assert one_bounded_trace(r.trace)


@pytest.mark.parametrize("k, theta", [(3, 6), (4, 12), (5, 60)])
def test_branch_theta(k, theta):
    """Theta is the lcm of the loop lengths 1..k."""
    assert AnalysisContext(branch(k)).theta_length() == theta


def test_invariant_4g_finds_split_points_of_non_close_paths(monkeypatch):
    T, x = branch(3), parse_upword("(a)^w")
    found = []
    find = InvariantChecker._find_decomposition

    def counting(self, Cn, bound):
        found.append(find(self, Cn, bound))
        return found[-1]

    monkeypatch.setattr(InvariantChecker, "_find_decomposition", counting)
    session = _checked_session(T, x, 20)
    assert found and all(found)
    assert session.emitted == ("y",) * 19
    assert up_starts_with(nft.oracle_eval(T, x), session.emitted)
    # with the spread of the past forgotten, no split point is left
    checker = session.checker
    checker.spread = dict.fromkeys(checker.spread, 0)
    with pytest.raises(InvariantError) as err:
        checker.check()
    assert err.value.which == "4g"


def test_preprocess_of_a_non_close_pre_image(monkeypatch):
    """On a^n b (a)^w the b keeps p1 and p2 of nonclose_machine, whose
    counters below {p1, p2} overflow from n = 10 on: the stream stays a
    prefix of the oracle through the branch that keeps the subtree."""
    T = nonclose_machine()
    assert nft.is_unambiguous(T) and is_continuous(T) == (True, None)
    ctx = prepare(T)
    assert ctx.theta_length() == 2
    non_close = []
    preprocess = Determinizer._preprocess

    def spy(self, rec, sa, a):
        pi = (self.C, frozenset(sa.pre.values()))
        non_close.append(any(
            any(self.nb[p].values()) or self.out_regs.get(path_register(p))
            for p in self.nb if len(p) > 2 and p[:2] == pi))
        return preprocess(self, rec, sa, a)

    monkeypatch.setattr(Determinizer, "_preprocess", spy)
    for n in range(1, 41):
        x = parse_upword("a" * n + "b(a)^w")
        r = run_pipeline(T, x, n + 30, check_invariants=True)
        assert up_starts_with(nft.oracle_eval(T, x), r.emitted), n
    assert any(non_close)


def test_invariant_checker_state_is_bounded(double_t):
    x = parse_upword("(001)^w")
    ctx = prepare(double_t)
    session = StreamSession(ctx, x, check_invariants=True)
    held = {}
    for item, _ in session.run(annotate(ctx, x.letters()), 2000):
        if session.steps in (500, 2000):
            checker = session.checker
            held[session.steps] = (max(map(len, checker.rest.values())),
                                   len(checker.spread))
    assert held[2000] == held[500]
    assert session.emitted == run_pipeline(double_t, x, 2000).emitted


def test_checked_memory_does_not_grow_with_a_zero_run(double_t):
    """On (0)^w the run of double that outputs 00 per 0 holds back a rest
    that grows with the stream: the checker holds it once, not per letter."""
    x = parse_upword("(0)^w")
    ctx = prepare(double_t)
    session = StreamSession(ctx, x, check_invariants=True)
    ann = annotate(ctx, x.letters())
    tracemalloc.start()
    try:
        for _ in session.run(ann, 1000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert session.steps == 1000
    assert max(map(len, session.checker.rest.values())) > 900
    assert peak < 1_000_000


def _walked_spread(history, Cn):
    """The widest spread (longest minus common prefix) of the rests of Cn's
    runs at any letter so far, by a walk back through one (rests, pre)
    snapshot per letter."""
    states, widest = {q: q for q in Cn}, 0
    for rests, pre in reversed(history):
        ws = [rests[states[q]] for q in Cn]
        widest = max(widest, max(map(len, ws)) - len(reduce(lcp_finite, ws)))
        states = {q: pre[states[q]] for q in Cn}
    return widest


class _WalkedChecker(InvariantChecker):
    """The invariant checker plus a per-letter history.  Every check asks
    _find_decomposition about C and the last set of each tree path at the
    widest spread the walk finds and one above it."""

    def __init__(self, det, x=None):
        self.history = [({q: () for q in det.C}, {q: q for q in det.C})]
        self.pending = None
        self.widest = []  # every nonzero widest spread compared
        super().__init__(det, x)

    def after_step(self, a):
        self.pending = (self.C, a)
        super().after_step(a)

    def check(self):
        det = self.det
        if self.pending is not None:
            C, a = self.pending
            self.pending = None
            self.history.append((self.rest, self._step(C, a, det.C).pre))
        for Cn in {det.C, *(p[-1] for p in det.nb)}:
            widest = _walked_spread(self.history, Cn)
            assert not self._find_decomposition(Cn, widest + 1), Cn
            if widest:
                assert self._find_decomposition(Cn, widest), Cn
                self.widest.append(widest)
        super().check()


def _walked_run(T, word, n=40):
    x = parse_upword(word) if isinstance(word, str) else word
    y = nft.oracle_eval(T, x)
    assert y is not None, word
    with mock.patch.object(determinize, "InvariantChecker", _WalkedChecker):
        session = _checked_session(T, x, n)
    assert isinstance(session.checker, _WalkedChecker)
    assert up_starts_with(y, session.emitted), word
    return session.checker.widest


def test_pair_spreads_answer_as_the_history_walk(replace_t, double_t):
    runs = [(replace_t, w) for w in ("(001)^w", "0000(0002)^w", "1(0001)^w")]
    runs += [(double_t, w) for w in ("(001)^w", "000(00002)^w", "(0)^w")]
    runs += [(branch(k), w) for k in range(2, 6)
             for w in ("(a)^w", "(aaab)^w", "aaaaaaab(a)^w")]
    runs += [(nonclose_machine(), "a" * n + "b(a)^w") for n in (3, 10, 12)]
    runs += [(multitail_machine(), w)
             for w in ("aaaad(a)^w", "aaaaaaad(a)^w", "aaaaade(e)^w")]
    widest = [w for T, word in runs for w in _walked_run(T, word)]
    assert len(widest) > 1000 and max(widest) >= 40


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(continuous_runs(period_branch_machines()))
def test_pair_spreads_answer_as_the_history_walk_on_period_branches(run):
    T, x, _ = run
    _walked_run(T, x)


def _up_words(letters, max_u, max_v):
    """The UP words u(v)^w over letters with |u| <= max_u and
    1 <= |v| <= max_v, each once in canonical form."""
    return {canonicalize(u, v)
            for nu in range(max_u + 1)
            for u in itertools.product(letters, repeat=nu)
            for nv in range(1, max_v + 1)
            for v in itertools.product(letters, repeat=nv)}


def test_invariant_4f_constrains_only_steps_into_compatible_sets():
    """On (aab)^w a run that b sends from s2 to s1 dies in the next period:
    it is in no compatible set with runs from all of C, so 4f must not hold
    its future to max_lag theta^w."""
    T = unconstrained_future_machine()
    assert nft.is_unambiguous(T) and is_continuous(T) == (True, None)
    checked = 0
    for x in sorted(_up_words("ab", 5, 3), key=repr):
        y = nft.oracle_eval(T, x)
        if y is not None:
            r = run_pipeline(T, x, 12, check_invariants=True)
            assert up_starts_with(y, r.emitted), x
            checked += 1
    assert checked == 44


def test_invariant_4f_catches_a_wrong_theta(double_t, monkeypatch):
    """After the first 0 of (0)^w double is separable with every counter at
    0, so only the future reads theta: a wrong theta breaks 4f alone."""
    session = _checked_session(double_t, parse_upword("(0)^w"), 1)
    det, checker = session.det, session.checker
    assert det.mode == "sep" and det.theta == ("0", "0")
    assert not any(v for m in det.nb.values() for v in m.values())
    det.theta = ("0", "1")
    with pytest.raises(InvariantError) as err:
        checker.check()
    assert err.value.which == "4f"
    monkeypatch.setattr(InvariantChecker, "_check_future", lambda self: None)
    checker.check()


def test_aligned_step_into_a_multi_tail_path(monkeypatch):
    """On a^n d (a)^w with n >= 4, multitail_machine's d is an aligned step
    from {p1, p2} into {p1, p2, r}, and a tree path there ends in two sets
    whose pre-image is {p1}: the path gets fresh counters and an empty
    register, and the stream stays a prefix of the oracle."""
    T = multitail_machine()
    assert nft.is_unambiguous(T) and is_continuous(T) == (True, None)
    multi = []
    aligned = Determinizer._step_sep_aligned

    def spy(self, rec, sa):
        for path in self.tree(sa.target):
            pres = {frozenset(sa.pre[q] for q in D) for D in path[-2:]}
            multi.append(len(path) > 1 and len(pres) == 1)
        return aligned(self, rec, sa)

    monkeypatch.setattr(Determinizer, "_step_sep_aligned", spy)
    for n in range(1, 9):
        for word in ("a" * n + "d(a)^w", "a" * n + "dae(e)^w"):
            x = parse_upword(word)
            y = nft.oracle_eval(T, x)
            assert y is not None, word
            for check in (False, True):
                r = run_pipeline(T, x, n + 20, check_invariants=check)
                assert up_starts_with(y, r.emitted), (word, check)
    assert any(multi)


def test_preprocess_into_a_close_preimage_with_a_lagging_state(monkeypatch):
    """On s 0^n y (0)^w, lagging_preimage_machine's y is a pre-step from
    the separable {p, r, z} whose pre-image {r} is close (a singleton has
    no tree paths below it) and holds r, whose lag 1 falls short of
    max_lag 12; on the other words the stream leaves {p, r, z} by e.
    Every stream stays a prefix of the oracle's output, checked and
    unchecked."""
    T = lagging_preimage_machine()
    assert nft.is_unambiguous(T) and is_continuous(T) == (True, None)
    lagging = []
    preprocess = Determinizer._preprocess

    def spy(self, rec, sa, a):
        Cp = frozenset(sa.pre.values())
        lagging.append(len(Cp) == 1 and any(map(self.lagging, Cp)))
        return preprocess(self, rec, sa, a)

    monkeypatch.setattr(Determinizer, "_preprocess", spy)
    for n in range(4):
        for word in ("s" + "0" * n + "y(0)^w", "s" + "0" * n + "e0y(0)^w",
                     "s" + "0" * n + "e0x(0)^w", "s" + "0" * n + "e(0)^w"):
            x = parse_upword(word)
            y = nft.oracle_eval(T, x)
            assert y is not None, word
            for check in (False, True):
                r = run_pipeline(T, x, n + 20, check_invariants=check)
                assert up_starts_with(y, r.emitted), (word, check)
    assert any(lagging)


# -- the checkpointed re-derivation of val ----------------------------------------


def starting_inside_a_run(T):
    """A period branch machine whose words may start inside an a-run: q0's
    guesses q1 and q2 are the initial states, so J holds both until the
    run closes and then shrinks."""
    return dataclasses.replace(T, initial=frozenset({"q1", "q2"}))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.one_of(
    continuous_runs(),
    continuous_runs(period_branch_machines().map(starting_inside_a_run))))
def test_folds_match_a_walk_from_J_over_the_whole_prefix(run):
    """At every checkpoint the folded pre and val equal analyze_step(J,
    x[1:i], C) from position 0, with a checkpoint every 3 letters."""
    T, x, _ = run
    ctx = prepare(T)
    session = StreamSession(ctx, x, check_invariants=True)
    fold = determinize.InvariantChecker._fold
    checked = []

    def compared(checker):
        det = checker.det
        before = tuple(det.emitted[:checker.n_base])
        folded = fold(checker)
        sa = analysis.analyze_step(ctx.T, frozenset(checker.pre_total.values()),
                                   x.first(session.steps), det.C)
        assert sa is not None and sa.is_step
        assert {q: s for q, (s, _) in folded.items()} == sa.pre
        assert {q: before + w for q, (_, w) in folded.items()} == sa.val
        checked.append(session.steps)
        return folded

    with mock.patch.object(determinize, "RECOMPUTE_EVERY", 3), \
            mock.patch.object(determinize.InvariantChecker, "_fold", compared):
        for _ in session.run(annotate(ctx, x.letters()), 30):
            pass
    assert checked == list(range(3, 31, 3))


def test_spot_recompute_catches_a_drift_only_it_can_see(replace_t,
                                                        monkeypatch):
    """A one-letter analysis that reads q0 --2/2--> q0 as q0 --2/1--> q0:
    the machine and the checker's incremental vals drift together, so no
    per-step invariant sees it, and the re-derivation from T raises at the
    first checkpoint after the first 2."""
    x = parse_upword("1" * 30 + "(2)^w")
    ctx = prepare(replace_t)
    analyze_step = ctx.analyze_step

    def misread(C, u, D):
        sa = analyze_step(C, u, D)
        if sa is not None and u == ("2",):
            sa.val = {q: ("1",) * len(w) for q, w in sa.val.items()}
        return sa

    monkeypatch.setattr(ctx, "analyze_step", misread)
    session = StreamSession(ctx, x, check_invariants=True)
    with pytest.raises(InvariantError) as err:
        for _ in session.run(annotate(ctx, x.letters()), 100):
            pass
    assert err.value.which == "2"
    assert session.steps == 2 * RECOMPUTE_EVERY
    assert session.emitted == ("1",) * session.steps


def test_recompute_folds_walk_each_letter_once(double_t, monkeypatch):
    n = 2000
    walked = []
    fold = InvariantChecker._fold

    def counting(checker):
        walked.append(len(checker.window))
        return fold(checker)

    monkeypatch.setattr(InvariantChecker, "_fold", counting)
    session = _checked_session(double_t, parse_upword("(001)^w"), n)
    assert len(walked) == n // RECOMPUTE_EVERY
    assert sum(walked) <= 2 * n
