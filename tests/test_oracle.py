"""The exact oracle on ultimately periodic words: agreement with a direct
simulation on deterministic machines, genuine accepting runs on guessing
machines, long-period goldens, and the ambiguity it reports."""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from omegastream import fixture_path, nft
from omegastream.nft import AmbiguityError, OneWayTransducer
from omegastream.words import UPWord, canonicalize, parse_upword, word

from machines import (ambiguous_machine, coprime_rings, deterministic_machines,
                      lasso_branch_machines, nondeterministic_machines,
                      random_machine)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])

up_words = st.builds(
    lambda p, v: UPWord(tuple(p), tuple(v)),
    st.text("ab", max_size=8),
    st.text("ab", min_size=1, max_size=8),
)


def _concat(outs):
    return tuple(b for out in outs for b in out)


# -- deterministic machines -------------------------------------------------


def simulate(T, x):
    """f(x) on a deterministic machine: follow its one run until a
    (state, phase) node repeats; accepted iff the loop meets a final
    state, defined iff the loop also outputs something."""
    (q,) = T.initial
    u, v = x.prefix, x.period
    states, outs, seen = [q], [], {}
    i = 0
    while True:
        if i >= len(u):
            node = (q, (i - len(u)) % len(v))
            if node in seen:
                break
            seen[node] = i
        succ = T.succ(q, x.letter_at(i))
        if not succ:
            return None
        q, out = succ[0]
        states.append(q)
        outs.append(out)
        i += 1
    j = seen[node]
    loop_out = _concat(outs[j:])
    if not set(states[j:]) & T.final or not loop_out:
        return None
    return canonicalize(_concat(outs[:j]), loop_out)


@SETTINGS
@given(deterministic_machines(), up_words)
def test_oracle_matches_direct_simulation(T, x):
    assert nft.oracle_eval(T, x) == simulate(T, x)


# -- guess-and-verify machines ---------------------------------------------


def has_accepting_run(T, x):
    """Some phase node reachable after the prefix lies on a cycle through
    a final state."""
    u, v = x.prefix, x.period

    def succ(node):
        q, j = node
        return [(q2, (j + 1) % len(v)) for q2, _ in T.succ(q, v[j])]

    def reach(starts):
        seen, stack = set(starts), list(starts)
        while stack:
            for m in succ(stack.pop()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    starts = {(q, 0) for q in nft.push(T, T.initial, u)}
    return any(
        node in reach(succ(node))
        for node in reach(starts)
        if node[0] in T.final
    )


def assert_accepting_run(T, x, run):
    stem, loop = run.stem_states, run.loop_states
    assert stem[0] in T.initial
    assert stem[-1] == loop[0] == loop[-1]
    # phase-aligned: the loop starts after the prefix and spans periods
    assert len(stem) - 1 >= len(x.prefix)
    assert (len(loop) - 1) % len(x.period) == 0 and len(loop) > 1
    assert set(loop) & T.final
    path = stem + loop[1:]
    outs = [T.transitions[(path[i], x.letter_at(i), path[i + 1])]
            for i in range(len(path) - 1)]
    loop_out = _concat(outs[len(stem) - 1:])
    if loop_out:
        assert run.output == canonicalize(_concat(outs[:len(stem) - 1]),
                                          loop_out)
    else:
        assert run.output is None


# every branch starts on an a; short periods make accepting runs common
guess_words = st.builds(
    lambda p, v: UPWord(tuple("a" + p), tuple(v)),
    st.text("ab", max_size=6),
    st.text("ab", min_size=1, max_size=3),
)


@SETTINGS
@given(lasso_branch_machines(), guess_words)
def test_oracle_run_is_an_accepting_run(T, x):
    assume(nft.is_unambiguous(T))
    run = nft.oracle_run(T, x)
    assert (run is not None) == has_accepting_run(T, x)
    if run is not None:
        assert_accepting_run(T, x, run)


# -- the phase-graph reference --------------------------------------------


def _phase_graph(T, v):
    """Nodes (q, j) for j < |v|; edges consume v[j]."""
    n = len(v)
    return {
        (q, j): [(q2, (j + 1) % n) for q2, _ in T.succ(q, v[j])]
        for q in T.states
        for j in range(n)
    }


def reference_live_nodes(T, v):
    """Phase-graph nodes where an accepting run on v^w starts: those that
    reach a cyclic component holding a final state."""
    adj = _phase_graph(T, v)
    live = set()
    for comp in nft._sccs(adj):  # successors' components come first
        if (
            nft._cyclic(comp, adj) and any(q in T.final for q, _ in comp)
        ) or any(m in live for node in comp for m in adj[node]):
            live.update(comp)
    return live


def reference_oracle_run(T, x):
    """oracle_run over the |Q|·|v| phase graph: live nodes by Tarjan, a
    backward pass over the prefix, and the forward walk."""
    u, v = x.prefix, x.period
    live = reference_live_nodes(T, v)
    live_at = [{q for q in T.states if (q, 0) in live}]
    for a in reversed(u):
        nxt = live_at[-1]
        live_at.append(
            {q for q in T.states if any(q2 in nxt for q2, _ in T.succ(q, a))}
        )
    live_at.reverse()

    def is_live(q, i):
        if i <= len(u):
            return q in live_at[i]
        return (q, (i - len(u)) % len(v)) in live

    states = sorted(T.initial & live_at[0])
    if not states:
        return None
    if len(states) > 1:
        raise AmbiguityError(
            f"accepting runs start in both {states[0]} and {states[1]}"
        )
    outs, seen, i = [], {}, 0
    while True:
        q = states[-1]
        if i >= len(u):
            node = (q, (i - len(u)) % len(v))
            if node in seen:
                break
            seen[node] = i
        nexts = [(q2, out) for q2, out in T.succ(q, x.letter_at(i))
                 if is_live(q2, i + 1)]
        if len(nexts) > 1:
            raise AmbiguityError(
                f"two accepting runs part after {i + 1} letters, in "
                f"{nexts[0][0]} and {nexts[1][0]}"
            )
        states.append(nexts[0][0])
        outs.append(nexts[0][1])
        i += 1
    j = seen[node]
    loop_out = _concat(outs[j:])
    output = canonicalize(_concat(outs[:j]), loop_out) if loop_out else None
    return nft.RunLasso(states[: j + 1], states[j:], output)


def outcome(run, T, x):
    """run(T, x), or the message of the AmbiguityError it raised."""
    try:
        return run(T, x)
    except AmbiguityError as e:
        return f"AmbiguityError: {e}"


def assert_matches_reference(T, x):
    names = sorted(T.states)
    live = {
        (q, j)
        for j, mask in enumerate(nft._live_masks(T, x.period))
        for p, q in enumerate(names)
        if mask >> p & 1
    }
    assert live == reference_live_nodes(T, x.period)
    assert outcome(nft.oracle_run, T, x) == outcome(reference_oracle_run, T, x)


@SETTINGS
@given(nondeterministic_machines, up_words)
def test_block_graph_liveness_matches_the_phase_graph(T, x):
    assert_matches_reference(T, x)


def test_block_graph_liveness_on_a_2000_letter_period(replace_t, double_t):
    """The fixtures on blocks 0^n c, and seeded random_machine draws on a
    random word over {a, b}."""
    rng = random.Random(11)
    blocks = "".join("0" * rng.randint(0, 6) + rng.choice("12")
                     for _ in range(500))
    cases = [(T, parse_upword(f"01({blocks[:2000]})^w"))
             for T in (replace_t, double_t)]
    for _ in range(6):
        T = random_machine(rng)
        period = "".join(rng.choice("ab") for _ in range(2000))
        cases.append((T, parse_upword(f"ab({period})^w")))
    kinds = set()
    for T, x in cases:
        assert len(x.period) >= 2000
        assert_matches_reference(T, x)
        result = outcome(nft.oracle_run, T, x)
        kinds.add(type(result).__name__)
    assert kinds == {"RunLasso", "str", "NoneType"}, kinds


# -- the per-call memos ------------------------------------------------------


def _misses(monkeypatch, name):
    """The argument tuples of every call of nft.<name>; the oracle calls
    _transfer and _pre only when a memo misses."""
    calls = []
    real = getattr(nft, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nft, name, spy)
    return calls


def test_memo_keys_repeat_in_the_stem_and_the_loop(monkeypatch, replace_t,
                                                   double_t):
    """A prefix and a period each made of one short block repeated: the
    backward passes meet most (letter, mask) keys again, in the prefix and
    in the period, and the runs are the reference's."""
    rng = random.Random(12)
    cases = [(T, UPWord(word("001" * 40), word("0102" * 75)))
             for T in (replace_t, double_t)]
    cases += [(random_machine(rng), UPWord(word("ab" * 40), word("aab" * 100)))
              for _ in range(12)]
    transfer = _misses(monkeypatch, "_transfer")
    pre = _misses(monkeypatch, "_pre")
    kinds = set()
    for T, x in cases:
        del transfer[:], pre[:]
        kinds.add(type(outcome(nft.oracle_run, T, x)).__name__)
        # fewer misses than letters in either pass: both had hits
        assert len(transfer) < len(x.period)
        assert len(pre) < min(len(x.prefix), len(x.period))
        assert_matches_reference(T, x)
    assert kinds == {"RunLasso", "str", "NoneType"}, kinds


def _forked_machine():
    """i reads a back to i and forks on b into p and q, which both read a
    back to i: every b parts two accepting runs."""
    edges = [("i", "a", "i", "x"), ("i", "b", "p", "x"), ("i", "b", "q", "y"),
             ("p", "a", "i", "x"), ("q", "a", "i", "y")]
    return OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("xy"),
        states=frozenset("ipq"),
        initial=frozenset("i"),
        final=frozenset("ipq"),
        transitions={(p, a, q): word(out) for p, a, q, out in edges},
    )


def test_two_live_successors_at_a_repeated_key(monkeypatch):
    """The runs part at the first b, whose (letter, live mask) key the
    backward pass met at a later b: in the prefix, and at a loop phase."""
    M = _forked_machine()
    pre = _misses(monkeypatch, "_pre")
    for x, after in ((UPWord(word("abab"), word("a")), 2),
                     (UPWord(word("aa"), word("abab")), 4)):
        del pre[:]
        message = f"two accepting runs part after {after} letters, in p and q"
        with pytest.raises(AmbiguityError, match=f"^{message}$"):
            nft.oracle_run(M, x)
        assert len(pre) < len(x.prefix) + len(x.period)
        assert_matches_reference(M, x)


def test_memo_keys_that_never_repeat(monkeypatch):
    """On coprime_rings a suffix of the period moves each ring on by its
    number of a's plus twice its number of b's, a different amount for
    every suffix, so every transfer key is new; the image is the word."""
    T = coprime_rings()
    rng = random.Random(13)
    x = UPWord(word("ba"), word("".join(rng.choice("ab") for _ in range(400))))
    transfer = _misses(monkeypatch, "_transfer")
    assert nft.oracle_eval(T, x) == canonicalize(x.prefix, x.period)
    assert len(transfer) == len(x.period)
    assert_matches_reference(T, x)


def _footprint(obj) -> int:
    """The number of entries reachable through the containers in obj."""
    if isinstance(obj, dict):
        return len(obj) + sum(_footprint(k) + _footprint(v)
                              for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return len(obj) + sum(_footprint(e) for e in obj)
    return 0


def test_no_per_word_state_is_kept_after_a_call():
    """A second word leaves the machine's cached attributes as the first
    left them: every memo lives for one call."""
    T = nft.load(fixture_path("replace.json"))
    sizes = []
    for w in ("0102(001)^w", "1(0000201)^w"):
        nft.oracle_eval(T, parse_upword(w))
        sizes.append({k: _footprint(v) for k, v in vars(T).items()})
    assert sizes[0] == sizes[1]
    assert "_numbered" in sizes[0]


# -- long periods -----------------------------------------------------------


def test_long_period_goldens(replace_t, double_t):
    """Blocks 0^n c on a period of over 1000 letters, against the image
    computed block by block: replace writes c^(n+1), double writes
    0^n 1 for c = 1 and 0^2n 2 for c = 2."""
    rng = random.Random(5)

    def blocks(min_letters):
        out = []
        while sum(n + 1 for n, _ in out) < min_letters:
            out.append((rng.randint(0, 6), rng.choice("12")))
        return out

    prefix, period = blocks(20), blocks(1000)

    def letters(bs):
        return "".join("0" * n + c for n, c in bs)

    x = parse_upword(f"{letters(prefix)}({letters(period)})^w")
    assert len(x.period) >= 1000
    images = (
        (replace_t, lambda n, c: c * (n + 1)),
        (double_t, lambda n, c: "0" * n * int(c) + c),
    )
    for T, image in images:
        expected = canonicalize("".join(image(*b) for b in prefix),
                                "".join(image(*b) for b in period))
        assert nft.oracle_eval(T, x) == expected
        assert_accepting_run(T, x, nft.oracle_run(T, x))


# -- ambiguity --------------------------------------------------------------


def _machine(initial, final, edges):
    """Machine over {a} from (source, target, output) edges."""
    states = {s for e in edges for s in e[:2]}
    return OneWayTransducer(
        input_alphabet=frozenset("a"),
        output_alphabet=frozenset("xy"),
        states=frozenset(states),
        initial=frozenset(initial),
        final=frozenset(final),
        transitions={(p, "a", q): word(out) for p, q, out in edges},
    )


def test_parallel_runs_raise():
    with pytest.raises(AmbiguityError):
        nft.oracle_run(ambiguous_machine(), parse_upword("(a)^w"))


def test_merging_runs_raise():
    # i -> p -> r and i -> q -> r, then one run on r
    M = _machine({"i"}, {"r"}, [("i", "p", "x"), ("i", "q", "y"),
                                ("p", "r", "x"), ("q", "r", "x"),
                                ("r", "r", "x")])
    assert not nft.is_unambiguous(M)
    with pytest.raises(AmbiguityError):
        nft.oracle_eval(M, parse_upword("(a)^w"))


def test_equal_output_runs_raise():
    """Two accepting runs with the same output are still two runs."""
    parallel = _machine({"p", "q"}, {"p", "q"},
                        [("p", "p", "x"), ("q", "q", "x")])
    # runs part and meet again once per round, forever
    diamond = _machine({"i"}, {"i"}, [("i", "p", "x"), ("i", "q", "x"),
                                      ("p", "i", "x"), ("q", "i", "x")])
    for M in (parallel, diamond):
        assert not nft.is_unambiguous(M)
        with pytest.raises(AmbiguityError):
            nft.oracle_eval(M, parse_upword("(a)^w"))


def test_dead_branch_is_no_ambiguity():
    """A second run that cannot accept does not count: only q's branch
    reaches the final loop."""
    M = _machine({"i"}, {"r"}, [("i", "p", "x"), ("i", "q", "y"),
                                ("p", "p", "x"), ("q", "r", "y"),
                                ("r", "r", "x")])
    run = nft.oracle_run(M, parse_upword("(a)^w"))
    assert run.output == parse_upword("yy(x)^w")
    assert run.stem_states[:3] == ["i", "q", "r"]
