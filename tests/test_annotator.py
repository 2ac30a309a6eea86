"""The online annotator producing the compatible-set stream."""

import random

import pytest

from omegastream import nft
from omegastream.analysis import AnalysisContext
from omegastream.annotator import DivergedError, annotate
from omegastream.determinize import run_pipeline
from omegastream.words import canonicalize, parse_upword, up_starts_with

from conftest import in_domain_corpus, random_upword
from test_lattice import replace_k


def _annotations(ctx, x, n):
    ann = annotate(ctx, (x.letter_at(i) for i in range(10 * n + 500)))
    C0 = next(ann)
    items = [next(ann) for _ in range(n)]
    return C0, items


def test_golden_double(double_t):
    ctx = AnalysisContext(nft.normalize(double_t))
    C0, items = _annotations(ctx, parse_upword("(001)^w"), 6)
    assert C0 == frozenset({"q0"})
    expect = [
        ("0", {"q1", "q2"}),
        ("0", {"q1", "q2"}),
        ("1", {"q0"}),
        ("0", {"q1", "q2"}),
        ("0", {"q1", "q2"}),
        ("1", {"q0"}),
    ]
    assert [(a, set(C)) for a, C in items] == expect


def test_golden_replace(replace_t):
    ctx = AnalysisContext(nft.normalize(replace_t))
    C0, items = _annotations(ctx, parse_upword("(1)^w"), 4)
    assert C0 == frozenset({"q0"})
    assert all((a, set(C)) == ("1", {"q0"}) for a, C in items)


def test_deterministic(double_t):
    ctx = AnalysisContext(nft.normalize(double_t))
    x = parse_upword("01(0012)^w")
    a = _annotations(ctx, x, 30)
    b = _annotations(ctx, x, 30)
    assert a == b


def test_divergence(replace_t):
    """On (0)^w the cover can never be verified: replace needs a non-0
    letter to disambiguate its guess."""
    ctx = AnalysisContext(nft.normalize(replace_t))
    ann = annotate(ctx, ("0" for _ in range(10 ** 6)), max_lookahead=50)
    with pytest.raises(DivergedError):
        next(ann)
        for _ in range(200):
            next(ann)


def test_divergence_on_a_up_word_needs_no_cap(replace_t):
    """The UPWord (0)^w is outside the domain, so annotate rejects it
    before C0, with no cap."""
    ctx = AnalysisContext(nft.normalize(replace_t))
    with pytest.raises(DivergedError, match="outside the domain"):
        next(annotate(ctx, parse_upword("(0)^w")))


def _long_run_words(rng, alphabet, count):
    """Random UP words with a run of 300-600 zeros put in front of the
    prefix or of the period: longer than 10 * |Q|^|Q| = 270 on replace."""
    for _ in range(count):
        x = random_upword(rng, alphabet, max_prefix=4, max_period=4)
        run = ("0",) * rng.randint(300, 600)
        if rng.random() < 0.5:
            yield canonicalize(run + x.prefix, x.period)
        else:
            yield canonicalize(x.prefix, run + x.period)


def _pipeline_contract(T, x, n):
    """DivergedError exactly when x is outside the domain; otherwise the
    output of n letters is a prefix of the oracle's.  Returns whether x is
    in the domain."""
    ref = nft.oracle_eval(T, x)
    try:
        r = run_pipeline(T, x, n)
    except DivergedError:
        assert ref is None, str(x)
        return False
    assert ref is not None, str(x)
    assert up_starts_with(ref, r.emitted), str(x)
    return True


def test_pipeline_contract_on_long_runs(replace_t):
    """With no lookahead cap: the pipeline raises DivergedError if and only
    if the word is outside the domain, and otherwise its output is a
    prefix of the oracle's."""
    rng = random.Random(19)
    seen = {True: 0, False: 0}
    for T, alphabet in ((replace_t, "012"), (replace_k(3), "0123")):
        for x in _long_run_words(rng, alphabet, 20):
            n = len(x.prefix) + len(x.period) + 5
            seen[_pipeline_contract(T, x, n)] += 1
    assert seen[True] >= 20 and seen[False] >= 2, seen


def _random_machine(rng, deterministic):
    """2-5 states over {a, b}.  A deterministic machine computes a
    sequential, hence continuous, function; a nondeterministic one only
    outputs x, so its function is the constant x^w on its domain, which
    is continuous too."""
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    outs = ["", "x", "y", "xy"] if deterministic else ["", "x"]
    fanout = [0, 1, 1, 1] if deterministic else [0, 1, 1, 2]
    transitions = {
        (q, a, q2): tuple(rng.choice(outs))
        for q in states
        for a in "ab"
        for q2 in rng.sample(states, rng.choice(fanout))
    }
    return nft.OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("xy"),
        states=frozenset(states),
        initial=frozenset(rng.sample(states, 1 if deterministic else 2)),
        final=frozenset(rng.sample(states, rng.randint(1, len(states)))),
        transitions=transitions,
    )


def test_pipeline_diverges_exactly_outside_the_domain():
    """The same equivalence on 100 generated unambiguous machines with a
    nonempty domain, 4 UP words each, on all of which the pipeline reads
    three periods past the prefix."""
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    machines = 0
    while machines < 100:
        T = _random_machine(rng, deterministic=machines % 2 == 0)
        if not nft.is_unambiguous(T) or not nft.normalize(T).initial:
            continue
        machines += 1
        for _ in range(4):
            x = random_upword(rng, "ab", max_prefix=4, max_period=4)
            n = len(x.prefix) + 3 * len(x.period) + 5
            seen[_pipeline_contract(T, x, n)] += 1
    assert seen[True] >= 100 and seen[False] >= 100, seen


def test_prestep_chain_and_run_containment(replace_t, double_t):
    """Consecutive annotations form pre-steps, each C is compatible, and
    the accepting run's state at every position lies in the annotation."""
    rng = random.Random(23)
    for T in (replace_t, double_t):
        Tn = nft.normalize(T)
        ctx = AnalysisContext(Tn)
        for x in in_domain_corpus(Tn, rng, "012", 6):
            C0, items = _annotations(ctx, x, 30)
            rl = nft.oracle_run(Tn, x)
            stem, loop = rl.stem_states, rl.loop_states

            def run_state(i):
                if i < len(stem):
                    return stem[i]
                return loop[(i - (len(stem) - 1)) % (len(loop) - 1)]

            assert ctx.is_compatible(C0) is not None
            assert run_state(0) in C0
            prev = C0
            for i, (a, C) in enumerate(items, start=1):
                assert ctx.is_compatible(C) is not None
                sa = ctx.analyze_step(prev, (a,), C)
                assert sa is not None and set(sa.pre) == set(C)
                assert run_state(i) in C
                prev = C
