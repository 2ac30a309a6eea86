"""Streaming register machines: substitutions, evaluation, boundedness,
and the domain automaton."""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegastream import fixture_path, sst
from omegastream.sst import (
    EMPTY_PARTS,
    Reg,
    StreamingTransducer,
    Substitution,
    check_bounded,
    check_copyless,
    compose_counting,
    counting_matrix,
    eval_limit,
    eval_prefix,
    format_mixed,
    parse_mixed,
)
from omegastream.nft import ContractError
from omegastream.words import canonicalize, parse_upword, up_equal, word

from conftest import scattered_one_state_ssts
from machines import copyless_ssts, domain_automaton, kflush_sst


# -- substitutions -------------------------------------------------------------


def test_compose_golden():
    s1 = Substitution({"r": ("b",), "s": ("b", Reg("r"), Reg("s"), "b")})
    s2 = Substitution({"r": (Reg("r"), "b"), "s": (Reg("r"), Reg("s"))})
    c = s1.compose(s2)
    assert c.assignment["r"] == ("b", "b")
    assert c.assignment["s"] == ("b", "b", Reg("r"), Reg("s"), "b")


def _random_subst(rng, regs, letters="ab", max_len=4):
    def mixed():
        toks = []
        for _ in range(rng.randint(0, max_len)):
            if rng.random() < 0.5:
                toks.append(Reg(rng.choice(regs)))
            else:
                toks.append(rng.choice(letters))
        return tuple(toks)

    return Substitution({r: mixed() for r in regs})


def test_compose_associative_and_identity():
    rng = random.Random(3)
    regs = ["r", "s", "t"]
    ident = Substitution.identity(regs)
    for _ in range(30):
        a, b, c = (_random_subst(rng, regs) for _ in range(3))
        lhs = a.compose(b).compose(c)
        rhs = a.compose(b.compose(c))
        assert lhs.assignment == rhs.assignment
        assert a.compose(ident).assignment == a.assignment
        assert ident.compose(a).assignment == a.assignment


def test_parse_format_mixed_roundtrip():
    for s in ["ab$r c", "$out xy$r1", ""]:
        toks = parse_mixed(s)
        assert parse_mixed(format_mixed(toks)) == toks
    assert parse_mixed("a$r b") == ("a", Reg("r"), "b")


# -- evaluation ----------------------------------------------------------------


def test_eval_prefix_goldens(replace_sst_m, double_sst_m):
    assert eval_prefix(replace_sst_m, tuple("001")).out == tuple("111")
    assert eval_prefix(double_sst_m, tuple("002")).out == tuple("00002")


def test_eval_prefix_monotone(replace_sst_m, double_sst_m):
    rng = random.Random(9)
    for S in (replace_sst_m, double_sst_m):
        for _ in range(15):
            p = tuple(rng.choice("012") for _ in range(rng.randint(0, 10)))
            e = tuple(rng.choice("012") for _ in range(rng.randint(0, 6)))
            a, b = eval_prefix(S, p), eval_prefix(S, p + e)
            if a.blocked_at is None and b.blocked_at is None:
                assert b.out[: len(a.out)] == a.out


def test_eval_limit_goldens(replace_sst_m, double_sst_m):
    assert up_equal(eval_limit(replace_sst_m, parse_upword("(001)^w")),
                    parse_upword("(111)^w"))
    assert up_equal(eval_limit(double_sst_m, parse_upword("002(0)^w")),
                    parse_upword("00002(0)^w"))
    assert eval_limit(replace_sst_m, parse_upword("(0)^w")) is None


# -- boundedness ---------------------------------------------------------------


from conftest import two_bounded_machine


def test_check_copyless_and_bounded(replace_sst_m, double_sst_m):
    for S in (replace_sst_m, double_sst_m):
        assert check_copyless(S)
        assert check_bounded(S, 1)
    S2 = two_bounded_machine()
    assert not check_copyless(S2)
    assert not check_bounded(S2, 1)
    assert check_bounded(S2, 2)


def _brute_max_count(S, max_window):
    """Exact max register multiplicity over composed update windows."""
    reach = {S.initial}
    frontier = [S.initial]
    while frontier:
        q = frontier.pop()
        for a in S.input_alphabet:
            if (q, a) in S.delta and S.delta[(q, a)] not in reach:
                reach.add(S.delta[(q, a)])
                frontier.append(S.delta[(q, a)])
    best = 0
    for start in sorted(reach):
        for L in range(1, max_window + 1):
            for w in itertools.product(sorted(S.input_alphabet), repeat=L):
                q = start
                comp = Substitution.identity(sorted(S.registers))
                ok = True
                for a in w:
                    if (q, a) not in S.updates:
                        ok = False
                        break
                    comp = comp.compose(S.updates[(q, a)])
                    q = S.delta[(q, a)]
                if not ok:
                    continue
                for r in S.registers:
                    for img in comp.assignment.values():
                        best = max(best, sum(isinstance(t, Reg) and t == r
                                             for t in img))
    return best


def test_bounded_vs_brute_force(replace_sst_m):
    S2 = two_bounded_machine()
    assert _brute_max_count(S2, 4) == 2
    assert _brute_max_count(replace_sst_m, 3) <= 1
    # random machines: check_bounded(S, K) true implies no short window
    # exceeds K; a short window exceeding K implies check_bounded false
    rng = random.Random(17)
    regs = ["out", "r", "s"]
    for _ in range(15):
        updates = {}
        for a in "ab":
            assign = {
                "r": _random_subst(rng, ["r", "s"], max_len=2).assignment["r"],
                "s": _random_subst(rng, ["r", "s"], max_len=2).assignment["s"],
            }
            assign["out"] = (Reg("out"),) + tuple(
                t for t in _random_subst(rng, ["r", "s"], max_len=2).assignment["r"]
            )
            updates[("p", a)] = Substitution(assign)
        S = StreamingTransducer(
            input_alphabet=frozenset("ab"),
            output_alphabet=frozenset("ab"),
            states=frozenset({"p"}),
            initial="p",
            registers=frozenset(regs),
            out="out",
            delta={("p", "a"): "p", ("p", "b"): "p"},
            updates=updates,
        )
        for K in (1, 2, 3):
            brute = _brute_max_count(S, 5)
            if check_bounded(S, K):
                assert brute <= K
            if brute > K:
                assert not check_bounded(S, K)


def _bounded_by_closure(S, K):
    """check_bounded spelled out: every window matrix, no shortcut."""
    return all(c <= K for m in sst._matrix_closure(S, K + 1) for _, c in m)


def _permuting_sst(n):
    """One state: a rotates the n registers, b swaps the first two, and
    both append to out.  Copyless, with n! window matrices."""
    regs = [f"r{i}" for i in range(n)]
    rotate = {r: (Reg(s),) for r, s in zip(regs, regs[1:] + regs[:1])}
    swap = {regs[0]: (Reg(regs[1]),), regs[1]: (Reg(regs[0]),)}
    return _one_state_sst("ab", ["out"] + regs, {
        "a": {"out": (Reg("out"), "a"), **rotate},
        "b": {"out": (Reg("out"), "b"), **swap}})


def test_check_bounded_answers_a_copyless_machine_at_once():
    import time

    S = _permuting_sst(9)
    assert check_copyless(S)
    start = time.perf_counter()
    assert check_bounded(S, 1)
    assert time.perf_counter() - start < 0.05
    assert not check_bounded(S, 0)
    # the shortcut gives the closure's answer where the closure is small
    for n in (2, 3, 4):
        for K in (0, 1, 2):
            assert check_bounded(_permuting_sst(n), K) == _bounded_by_closure(
                _permuting_sst(n), K)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(copyless_ssts())
def test_check_bounded_agrees_with_the_closure_on_copyless_machines(S):
    for K in (0, 1, 2):
        assert check_bounded(S, K) == _bounded_by_closure(S, K)


@pytest.mark.parametrize("registers, K", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
def test_check_bounded_agrees_with_the_closure_on_kflush_machines(registers, K):
    S = kflush_sst(registers, K)
    assert check_copyless(S) == (K == 1)
    for bound in (1, 2, 3):
        assert check_bounded(S, bound) == _bounded_by_closure(S, bound)
        assert check_bounded(S, bound) == (bound >= K)


def test_counting_matrices():
    s1 = Substitution({"r": (Reg("r"), Reg("s")), "s": (Reg("s"),)})
    s2 = Substitution({"r": (Reg("r"),), "s": (Reg("r"), Reg("s"))})
    cap = 10
    m1, m2 = counting_matrix(s1.assignment, cap), counting_matrix(s2.assignment, cap)
    comp = s1.compose(s2)
    assert compose_counting(m1, m2, cap) == counting_matrix(comp.assignment, cap)


@st.composite
def small_ssts(draw):
    """SSTs of 1-4 states, 0-3 registers besides out and letters a, b.

    Each update either scatters the registers over the images at most once
    each or draws its images freely, so copying within one image, copying
    split across two images and copying confined to unreachable states all
    occur."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    regs = [f"r{i}" for i in range(draw(st.integers(0, 3)))]
    tokens = st.sampled_from([Reg(r) for r in regs] + ["x"])
    delta, updates = {}, {}
    for q in states:
        for a in "ab":
            target = draw(st.sampled_from(states + [None]))
            if target is None:
                continue
            if draw(st.booleans()):
                imgs = {r: [] for r in ["out"] + regs}
                for r in draw(st.permutations(regs)):
                    home = draw(st.sampled_from(["out", None] + regs))
                    if home is not None:
                        imgs[home].append(Reg(r))
                imgs = {r: tuple(img) for r, img in imgs.items()}
            else:
                imgs = {r: tuple(draw(st.lists(tokens, max_size=3)))
                        for r in ["out"] + regs}
            imgs["out"] = (Reg("out"),) + imgs["out"] + (a,)
            delta[(q, a)] = target
            updates[(q, a)] = Substitution(imgs)
    return StreamingTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("abx"),
        states=frozenset(states),
        initial="q0",
        registers=frozenset(["out"] + regs),
        out="out",
        delta=delta,
        updates=updates,
    )


def _copyless_by_windows(S, max_window=3):
    """Reference: every reachable window of at most max_window updates uses
    each register at most once, by composing exact counting matrices."""

    def matrix(sub):
        m = {(r, s): 0 for r in S.registers for s in S.registers}
        for s, img in sub.assignment.items():
            for t in img:
                if isinstance(t, Reg):
                    m[(t, s)] += 1
        return m

    def product(m1, m2):
        return {(r, s): sum(m1[(r, t)] * m2[(t, s)] for t in S.registers)
                for r in S.registers for s in S.registers}

    reach, frontier = {S.initial}, [S.initial]
    while frontier:
        q = frontier.pop()
        for a in S.input_alphabet:
            if (q, a) in S.delta and S.delta[(q, a)] not in reach:
                reach.add(S.delta[(q, a)])
                frontier.append(S.delta[(q, a)])
    windows = [(q, None) for q in reach]
    for _ in range(max_window):
        longer = []
        for q, m in windows:
            for a in sorted(S.input_alphabet):
                if (q, a) not in S.delta:
                    continue
                step = matrix(S.updates[(q, a)])
                m2 = step if m is None else product(m, step)
                if any(sum(m2[(r, s)] for s in S.registers) > 1
                       for r in S.registers):
                    return False
                longer.append((S.delta[(q, a)], m2))
        windows = longer
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_ssts())
def test_check_copyless_matches_window_reference(S):
    assert check_copyless(S) == _copyless_by_windows(S)


def test_check_copyless_split_copy_and_unreachable_copy():
    # q1's update copies r into both r and s
    def machine(q0_target):
        keep = {"out": (Reg("out"), "a"), "r": (Reg("r"),), "s": (Reg("s"),)}
        split = {"out": (Reg("out"), "a"), "r": (Reg("r"),), "s": (Reg("r"),)}
        return StreamingTransducer(
            input_alphabet=frozenset("a"),
            output_alphabet=frozenset("a"),
            states=frozenset({"q0", "q1"}),
            initial="q0",
            registers=frozenset({"out", "r", "s"}),
            out="out",
            delta={("q0", "a"): q0_target, ("q1", "a"): "q0"},
            updates={("q0", "a"): Substitution(keep),
                     ("q1", "a"): Substitution(split)},
        )

    for q0_target, copyless in (("q0", True), ("q1", False)):
        S = machine(q0_target)
        assert check_copyless(S) == _copyless_by_windows(S) == copyless


def _eval_by_tokens(S, prefix):
    """Reference: (state, valuation) after prefix, every image substituted
    token by token; stops where S blocks."""
    q, val = S.initial, {r: () for r in S.registers}
    for a in prefix:
        if (q, a) not in S.delta:
            break
        new = {}
        for r, img in S.updates[(q, a)].assignment.items():
            w = []
            for t in img:
                if isinstance(t, Reg):
                    w.extend(val[t])
                else:
                    w.append(t)
            new[r] = tuple(w)
        q, val = S.delta[(q, a)], new
    return q, val


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(small_ssts(), scattered_one_state_ssts()),
       st.text("ab", max_size=8))
def test_parts_and_evaluator_match_token_reference(S, prefix):
    for sub in S.updates.values():
        for r, img in sub.assignment.items():
            chunks, refs = sub.parts.get(r, EMPTY_PARTS)
            assert (r in sub.parts) == bool(img)
            assert len(chunks) == len(refs) + 1
            assert all(isinstance(t, Reg) for t in refs)
            rebuilt = list(chunks[0])
            for t, c in zip(refs, chunks[1:]):
                rebuilt += [t, *c]
            assert tuple(rebuilt) == img
    got = eval_prefix(S, prefix)
    assert (got.state, got.valuation) == _eval_by_tokens(S, prefix)
    assert got.out == got.valuation[S.out]


# -- domain --------------------------------------------------------------------


def test_domain_automaton(replace_sst_m):
    dba = domain_automaton(replace_sst_m)
    assert dba.accepts(parse_upword("(001)^w"))
    assert not dba.accepts(parse_upword("(0)^w"))


def test_out_prefix_form_enforced():
    with pytest.raises(ValueError):
        StreamingTransducer(
            input_alphabet=frozenset("a"),
            output_alphabet=frozenset("a"),
            states=frozenset({"p"}),
            initial="p",
            registers=frozenset({"out"}),
            out="out",
            delta={("p", "a"): "p"},
            updates={("p", "a"): Substitution({"out": ("a", Reg("out"))})},
        )


def test_json_roundtrip(tmp_path, replace_sst_m):
    p = tmp_path / "s.json"
    sst.save(replace_sst_m, str(p))
    S2 = sst.load(str(p))
    assert S2.states == replace_sst_m.states
    assert S2.updates == replace_sst_m.updates
    assert eval_prefix(S2, tuple("0012")).out == eval_prefix(
        replace_sst_m, tuple("0012")
    ).out


# -- exact limits ----------------------------------------------------------------


def _one_state_sst(letters, registers, updates):
    return StreamingTransducer(
        input_alphabet=frozenset(letters),
        output_alphabet=frozenset("abx"),
        states=frozenset({"p"}),
        initial="p",
        registers=frozenset(registers),
        out="out",
        delta={("p", a): "p" for a in letters},
        updates={("p", a): Substitution(img) for a, img in updates.items()},
    )


def _shift_sst(n):
    """u loads r1..r(n-1) with b and rn with a; each v appends r1 to out,
    shifts r_i := r_(i+1) and sets rn := b."""
    regs = [f"r{i}" for i in range(1, n + 1)]
    load = {r: ("b",) for r in regs[:-1]}
    load[regs[-1]] = ("a",)
    load["out"] = (Reg("out"),)
    shift = {r: (Reg(s),) for r, s in zip(regs, regs[1:])}
    shift[regs[-1]] = ("b",)
    shift["out"] = (Reg("out"), Reg("r1"))
    return _one_state_sst("uv", ["out"] + regs, {"u": load, "v": shift})


@pytest.mark.parametrize("n", range(1, 13))
def test_eval_limit_register_chains(n):
    got = eval_limit(_shift_sst(n), parse_upword("u(v)^w"))
    assert got == canonicalize("b" * (n - 1) + "a", "b")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
           small_ssts().filter(lambda S: check_copyless(S) or check_bounded(S, 3)),
           scattered_one_state_ssts()),
       st.text("ab", max_size=4), st.text("ab", min_size=1, max_size=4))
def test_eval_limit_agrees_with_prefix_and_domain(S, u, v):
    x = canonicalize(u, v)
    y = eval_limit(S, x)
    assert (y is None) == (not domain_automaton(S).accepts(x))
    if y is not None:
        periods = 3 * len(S.registers) + 10
        out = eval_prefix(S, x.first(len(x.prefix) + periods * len(x.period))).out
        assert y.first(len(out)) == out


def test_eval_limit_raises_contract_error_on_unsettled_registers():
    from omegastream.analysis import BudgetExceeded as reexported
    from omegastream.nft import BudgetExceeded

    assert reexported is BudgetExceeded
    x = parse_upword("(v)^w")
    # out reads r, which grows forever: out is x xx xxx ..., no UP word
    growing = _one_state_sst("v", ["out", "r"], {"v": {
        "out": (Reg("out"), Reg("r")), "r": (Reg("r"), "x")}})
    with pytest.raises(ContractError, match="copies without bound"):
        eval_limit(growing, x)
    # copying without bound, yet the values settle at once
    settled = _one_state_sst("v", ["out", "r"], {"v": {
        "out": (Reg("out"), Reg("r"), "b"), "r": (Reg("r"),)}})
    assert eval_limit(settled, x) == canonicalize("", "b")


# -- sparse updates ----------------------------------------------------------------


def _sparse(S):
    """S with every empty image left out of its updates."""
    return dataclasses.replace(S, updates={
        key: Substitution({r: mw for r, mw in sub.assignment.items() if mw})
        for key, sub in S.updates.items()})


def _listed(S):
    """S with every register listed in every update, the unlisted ones empty."""
    empty = dict.fromkeys(S.registers, ())
    return dataclasses.replace(S, updates={
        key: Substitution({**empty, **sub.assignment})
        for key, sub in S.updates.items()})


def test_compose_reads_an_unlisted_register_as_empty():
    s1 = Substitution({"r": ("b",)})
    s2 = Substitution({"r": (Reg("s"), "a", Reg("r")), "s": (Reg("s"),)})
    listed = Substitution({"r": ("b",), "s": ()})
    assert s1.compose(s2).assignment == {"r": ("a", "b"), "s": ()}
    assert listed.compose(s2).assignment == s1.compose(s2).assignment
    # r is the only register s1 lists, so it is the only one the
    # composition lists
    assert s2.compose(s1).assignment == {"r": ("b",)}


def test_unknown_registers_are_rejected_by_the_machine():
    def machine(image):
        return StreamingTransducer(
            input_alphabet=frozenset("a"), output_alphabet=frozenset("a"),
            states=frozenset({"p"}), initial="p",
            registers=frozenset({"out", "r"}), out="out",
            delta={("p", "a"): "p"},
            updates={("p", "a"): Substitution({"out": (Reg("out"), "a"), **image})})

    # a substitution on its own may read a register it does not list
    assert Substitution({"r": (Reg("z"),)}).parts["r"] == (((), ()), ("z",))
    assert machine({"r": (Reg("r"), "a")}).registers == {"out", "r"}
    with pytest.raises(ValueError, match="reads unknown register 'z'"):
        machine({"r": (Reg("z"),)})
    with pytest.raises(ValueError, match="writes unknown register 'z'"):
        machine({"z": ("a",)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
           small_ssts().filter(lambda S: check_copyless(S) or check_bounded(S, 3)),
           scattered_one_state_ssts()),
       st.text("ab", max_size=6), st.text("ab", max_size=3),
       st.text("ab", min_size=1, max_size=3))
def test_unlisted_registers_are_empty(S, prefix, u, v):
    """Leaving the empty images out of every update changes no answer."""
    sparse, listed = _sparse(S), _listed(_sparse(S))
    assert all(mw for sub in sparse.updates.values()
               for mw in sub.assignment.values())
    x = canonicalize(u, v)
    for T in (sparse, listed):
        assert eval_prefix(T, prefix) == eval_prefix(S, prefix)
        assert eval_limit(T, x) == eval_limit(S, x)
        assert check_copyless(T) == check_copyless(S)
        # the window matrices of a dozen scattered registers are too many
        if len(S.registers) <= 4:
            for K in (1, 2):
                assert check_bounded(T, K) == check_bounded(S, K)
        assert domain_automaton(T) == domain_automaton(S)


def test_unlisted_registers_are_empty_on_the_fixtures(replace_sst_m, double_sst_m):
    for S in (replace_sst_m, double_sst_m, two_bounded_machine()):
        sparse = _sparse(S)
        for p in ("", "0", "0012", "00201", "1210"):
            assert eval_prefix(sparse, tuple(p)) == eval_prefix(S, tuple(p))
        for w in ("(001)^w", "2(012)^w", "(0)^w", "(ab)^w", "a(aab)^w"):
            x = parse_upword(w)
            if set(x.prefix + x.period) <= S.input_alphabet:
                assert eval_limit(sparse, x) == eval_limit(S, x)
        assert check_copyless(sparse) == check_copyless(S)
        assert check_bounded(sparse, 2) == check_bounded(S, 2)
        assert domain_automaton(sparse) == domain_automaton(S)


@pytest.mark.parametrize("name", ["replace_sst.json", "double_sst.json"])
def test_to_dict_round_trip_on_the_fixtures(name):
    """to_dict writes an unlisted register as "", and from_dict reads the
    result back to the same JSON, sparse or not."""
    S = sst.load(fixture_path(name))
    doc = sst.to_dict(S)
    assert sst.to_dict(_sparse(S)) == doc
    assert json.dumps(sst.to_dict(sst.from_dict(doc))) == json.dumps(doc)
