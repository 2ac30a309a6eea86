"""Acceptance gate: one pass/fail line per criterion (run with -s to see
them as they complete)."""

import functools
import random

import pytest

from omegastream import convert as conv
from omegastream import fixture_path, nft, sst
from omegastream.analysis import AnalysisContext, is_continuous
from omegastream.determinize import (
    Determinizer,
    _Recorder,
    one_bounded_trace,
    path_register,
    run_pipeline,
)
from omegastream.sst import (
    Reg,
    Substitution,
    check_copyless,
    eval_limit,
)
from omegastream.words import (
    UPWord,
    concat_up,
    is_prefix,
    parse_upword,
    strip_prefix,
    up_equal,
    up_starts_with,
)

from conftest import flushy_corpus, two_bounded_machine
from machines import advances, domain_automaton, validate_forest


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nCRITERION {num} ({title}): FAIL")
                raise
            print(f"\nCRITERION {num} ({title}): PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def machines():
    return {
        "replace": nft.load(fixture_path("replace.json")),
        "double": nft.load(fixture_path("double.json")),
        "normalize": nft.load(fixture_path("normalize.json")),
    }


# -- 1: continuity classification ---------------------------------------------


@criterion(1, "continuity classification")
def test_criterion_1(machines):
    verdicts = {name: is_continuous(T)[0] for name, T in machines.items()}
    assert verdicts == {"replace": True, "double": True, "normalize": False}
    _, witness = is_continuous(machines["normalize"])
    assert not up_equal(witness.words[0], witness.words[1])


# -- 2: oracle closed forms -----------------------------------------------------


def _blocks_input(rng, nblocks_pre, nblocks_per):
    pre = [(rng.randint(0, 3), rng.choice("12")) for _ in range(nblocks_pre)]
    per = [(rng.randint(0, 3), rng.choice("12")) for _ in range(nblocks_per)]
    return pre, per


@criterion(2, "oracle closed forms")
def test_criterion_2(machines):
    rng = random.Random(2024)
    # replace: 0^n a -> a^{n+1}
    for _ in range(20):
        pre, per = _blocks_input(rng, rng.randint(0, 3), rng.randint(1, 3))
        x = UPWord(
            tuple("".join("0" * n + a for n, a in pre)),
            tuple("".join("0" * n + a for n, a in per)),
        )
        want = UPWord(
            tuple("".join(a * (n + 1) for n, a in pre)),
            tuple("".join(a * (n + 1) for n, a in per)),
        )
        got = nft.oracle_eval(machines["replace"], x)
        assert got is not None and up_equal(got, want), x
    # double: 0^n a -> 0^{a*n} a; tail 0^w maps to 0^w
    for _ in range(17):
        pre, per = _blocks_input(rng, rng.randint(0, 3), rng.randint(1, 3))
        x = UPWord(
            tuple("".join("0" * n + a for n, a in pre)),
            tuple("".join("0" * n + a for n, a in per)),
        )
        want = UPWord(
            tuple("".join("0" * (int(a) * n) + a for n, a in pre)),
            tuple("".join("0" * (int(a) * n) + a for n, a in per)),
        )
        got = nft.oracle_eval(machines["double"], x)
        assert got is not None and up_equal(got, want), x
    for xs, ys in [("(0)^w", "(0)^w"), ("002(0)^w", "00002(0)^w"),
                   ("1(0)^w", "1(0)^w")]:
        got = nft.oracle_eval(machines["double"], parse_upword(xs))
        assert got is not None and up_equal(got, parse_upword(ys))
    # normalize: identity unless the input ends with 1^w, in which case the
    # last 0 becomes a 1 and everything after it becomes 0^w
    count = 0
    while count < 14:
        p = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        if "0" not in v:
            continue
        x = UPWord(tuple(p), tuple(v))
        got = nft.oracle_eval(machines["normalize"], x)
        assert got is not None and up_equal(got, x), x
        count += 1
    for _ in range(6):
        p = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        if "0" not in p:
            p = p + "0"
        i = p.rindex("0")
        x = UPWord(tuple(p), ("1",))
        want = UPWord(tuple(p[:i] + "1"), ("0",))
        got = nft.oracle_eval(machines["normalize"], x)
        assert got is not None and up_equal(got, want), x


# -- 3: structural lemmas as properties ----------------------------------------


@criterion(3, "structural lemmas on randomized initial steps")
def test_criterion_3(machines):
    rng = random.Random(31)
    future_checks = 0
    sep_cases = []
    for name in ("replace", "double"):
        Tn = nft.normalize(machines[name])
        ctx = AnalysisContext(Tn)
        I = frozenset(Tn.initial)
        done = 0
        while done < 100:
            u = tuple(rng.choice("012") for _ in range(rng.randint(1, 12)))
            D = frozenset(nft.push(Tn, I, u))
            if not D or ctx.is_compatible(D) is None:
                continue
            sa = ctx.analyze_step(I, u, D)
            if sa is None or not sa.is_step:
                continue
            done += 1
            # mutual-prefix property of the productions
            states = sorted(D)
            for i, p in enumerate(states):
                for q in states[i + 1:]:
                    x, y = sa.val[p], sa.val[q]
                    assert is_prefix(x, y) or is_prefix(y, x)
            # ends equation: val(p) end(p) = val(q) end(q) as omega-words
            ends = ctx.end_words(D)
            ref = concat_up(sa.val[states[0]], ends[states[0]])
            for q in states[1:]:
                assert up_equal(concat_up(sa.val[q], ends[q]), ref)
            # remember separable targets for the looping-future phase
            if ctx.is_separable(D) is not None:
                sep_cases.append((Tn, ctx, D, advances(sa)))
    # looping-future containment, 100 sampled future steps
    assert sep_cases
    while future_checks < 100:
        Tn, ctx, D, prof = rng.choice(sep_cases)
        lf = ctx.looping_future(D, prof)
        base = UPWord(lf.tau, lf.theta)
        v = tuple(rng.choice("012") for _ in range(rng.randint(1, 10)))
        E = frozenset(nft.push(Tn, D, v))
        if not E:
            continue
        sa2 = ctx.analyze_step(D, v, E)
        if sa2 is None or not sa2.is_step:
            continue
        for q in sorted(E):
            stripped = strip_prefix(base, prof[sa2.pre[q]])
            assert up_starts_with(stripped, sa2.val[q])
        future_checks += 1


# -- 4: separability -------------------------------------------------------------


@criterion(4, "separability of {q1,q2} in double")
def test_criterion_4(machines):
    ctx = AnalysisContext(nft.normalize(machines["double"]))
    sep = ctx.is_separable(frozenset({"q1", "q2"}))
    assert sep is not None
    p, q = sep.unequal_pair
    assert len(sep.loop_outputs[p]) != len(sep.loop_outputs[q])
    for s in ("q0", "q1", "q2"):
        assert ctx.is_separable(frozenset({s})) is None


# -- 5 & 6: determinizer soundness and 1-boundedness -----------------------------


@pytest.fixture(scope="module")
def pipeline_runs(machines):
    corpus = flushy_corpus(30)
    runs = []
    for name in ("replace", "double"):
        T = machines[name]
        for x in corpus:
            y = nft.oracle_eval(T, x)
            assert y is not None, (name, x)
            r = run_pipeline(T, x, 200, check_invariants=True)
            runs.append((name, x, y, r))
    return runs


@criterion(5, "determinizer soundness over the corpus")
def test_criterion_5(pipeline_runs):
    assert len(pipeline_runs) == 60
    for name, x, y, r in pipeline_runs:
        # (a) invariants checked at every step by construction (the run
        # would have raised); (b) prefix of the oracle at every step
        emitted = ()
        lengths = []
        for rec in r.trace:
            emitted = emitted + rec.emitted_delta
            assert up_starts_with(y, emitted), (name, x)
            lengths.append(len(emitted))
        # (c) emitted length reaches n within 20n letters for all n <= 50
        for n in range(1, 51):
            deadline = min(20 * n, len(lengths) - 1)
            assert lengths[deadline] >= n, (name, x, n)


@criterion(6, "1-bounded traces")
def test_criterion_6(pipeline_runs):
    for name, x, _, r in pipeline_runs:
        assert one_bounded_trace(r.trace), (name, x)


# -- 7: conversions ---------------------------------------------------------------


@criterion(7, "model conversions")
def test_criterion_7():
    corpus = [parse_upword(s) for s in [
        "(001)^w", "(012)^w", "002(02)^w", "(2)^w", "1(01)^w",
        "(0102)^w", "21(002)^w", "(102)^w", "0(12)^w", "(0011)^w",
    ]]
    # (a) sst -> 2dt -> sst round trip, exact on 100-letter prefixes
    for fname in ("replace_sst.json", "double_sst.json"):
        S = sst.load(fixture_path(fname))
        S2 = conv.twoway_to_sst(conv.sst_to_twoway(S))
        for x in corpus:
            y = eval_limit(S, x)
            if y is None:
                continue
            y2 = eval_limit(S2, x)
            assert y2 is not None
            assert y.first(100) == y2.first(100)
    # (b) the reference decomposition forest validates exactly, and the
    # copyless construction is equivalent on the corpus
    levels = [
        [{"r": 5, "s": 0}, {"r": 3, "s": 0}],
        [{"r": 1, "s": 4}, {"r": 3, "s": 2}, {"r": 1, "s": 2}],
        [{"r": 2, "s": 1}, {"r": 1, "s": 3}, {"r": 1, "s": 1}],
    ]
    sigmas = [
        Substitution({"r": ("a", Reg("r")), "s": (Reg("r"), "b")}),
        Substitution({"r": (Reg("s"), "a", Reg("s")), "s": (Reg("r"), "b")}),
    ]
    assert validate_forest(levels, sigmas, K=5)
    broken = [list(lv) for lv in levels]
    broken[0] = [{"r": 4, "s": 0}, {"r": 3, "s": 0}]
    with pytest.raises(conv.ConversionError):
        validate_forest(broken, sigmas, K=5)

    S = sst.load(fixture_path("replace_sst.json"))
    C1 = conv.kbounded_to_copyless(S, 1)
    assert check_copyless(C1)
    for x in corpus:
        y = eval_limit(S, x)
        if y is None:
            continue
        y2 = eval_limit(C1, x)
        assert y2 is not None and up_equal(y, y2)
    S2b = two_bounded_machine()
    C2 = conv.kbounded_to_copyless(S2b, 2)
    assert check_copyless(C2)
    for xs in ["(aab)^w", "(ab)^w", "a(aabb)^w", "bb(ab)^w"]:
        x = parse_upword(xs)
        assert up_equal(eval_limit(S2b, x), eval_limit(C2, x))
    # (c) substitution composition
    s1 = Substitution({"r": ("b",), "s": ("b", Reg("r"), Reg("s"), "b")})
    s2 = Substitution({"r": (Reg("r"), "b"), "s": (Reg("r"), Reg("s"))})
    c = s1.compose(s2)
    assert c.assignment["r"] == ("b", "b")
    assert c.assignment["s"] == ("b", "b", Reg("r"), Reg("s"), "b")


# -- 8: resize_last preserves the stored decompositions ---------------------------


def _clone(det):
    d = Determinizer(det.ctx)
    d.C = det.C
    d.lag = dict(det.lag)
    d.max_lag = det.max_lag
    d.emitted = list(det.emitted)
    d.mode = det.mode
    d.theta = det.theta
    d.nb = {p: dict(m) for p, m in det.nb.items()}
    d.last = dict(det.last)
    d.out_regs = dict(det.out_regs)
    return d


def _rhs_values(det):
    """Right-hand sides of the per-state production decomposition, one per
    singleton-ending tree path."""
    out = tuple(det.emitted)
    th = det.theta
    res = {}
    for p in det.nb:
        if len(p[-1]) != 1:
            continue
        (q,) = p[-1]
        if det.lagging(q):
            w = out + det.lag[q]
        else:
            w = out + det.max_lag + th * det.nb[(det.C,)][q]
            for i in range(1, len(p)):
                sub = p[: i + 1]
                w = (
                    w
                    + det.out_regs.get(path_register(sub), ())
                    + th * det.nb[sub][q]
                )
            w = w + det.last[q]
        res[(p, q)] = w
    return res


def _run_resize(det):
    rec = _Recorder({"out": tuple(det.emitted), **det.out_regs})
    for name in det.out_regs:
        rec.sym[name] = [Reg(name)]
    det._resize_last(rec)
    _, contents = rec.finish()
    det.emitted = list(contents.pop("out"))
    det.out_regs = contents


def _collect_sep_states(machines):
    T = machines["double"]
    ctx = AnalysisContext(nft.normalize(T))
    states = []
    for xs in ["(0)^w", "(001)^w", "(0002)^w", "(02)^w", "0(010)^w",
               "(00012)^w"]:
        x = parse_upword(xs)
        r = run_pipeline(T, x, 25)
        # replay on a live determinizer to snapshot every separable state
        det = Determinizer(ctx)
        det.init(frozenset(r.annotations[0]))
        if det.mode == "sep":
            states.append(_clone(det))
        for a, C in r.annotations[1:]:
            det.step(a, C)
            if det.mode == "sep":
                states.append(_clone(det))
    return states


@criterion(8, "resize preserves decompositions, counters clamped")
def test_criterion_8(machines):
    base_states = _collect_sep_states(machines)
    assert base_states
    rng = random.Random(808)
    for trial in range(100):
        det = _clone(rng.choice(base_states))
        th = det.theta
        root = (det.C,)
        nonlagging = [q for q in det.C if not det.lagging(q)]
        for q in nonlagging:
            if rng.random() < 0.6:
                det.last[q] = th * rng.randint(1, 3) + det.last[q]
            if rng.random() < 0.5:
                det.nb[root][q] += rng.randint(1, 2)
        for p in det.nb:
            if len(p) == 1:
                continue
            if any(det.lagging(q) for q in p[-1]):
                continue
            for q in p[-1]:
                if rng.random() < 0.4:
                    det.nb[p][q] += rng.randint(1, 2)
            if rng.random() < 0.3:
                name = path_register(p)
                det.out_regs[name] = det.out_regs.get(name, ()) + th
        before = _rhs_values(det)
        sizes = {n: len(w) for n, w in det.out_regs.items()}
        _run_resize(det)
        after = _rhs_values(det)
        assert after == before, trial
        for p, m in det.nb.items():
            if len(p) > 1:
                assert all(0 <= v <= 2 for v in m.values()), trial
        for n, w in det.out_regs.items():
            assert len(w) >= sizes.get(n, 0), trial


# -- 9: domain automaton -----------------------------------------------------------


@criterion(9, "domain automaton of the replace machine")
def test_criterion_9():
    dba = domain_automaton(sst.load(fixture_path("replace_sst.json")))
    assert dba.accepts(parse_upword("(001)^w"))
    assert not dba.accepts(parse_upword("(0)^w"))
