"""The online annotator producing the compatible-set stream."""

import collections
import dataclasses
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from omegastream import annotator, nft
from omegastream.analysis import AnalysisContext, is_continuous
from omegastream.annotator import DivergedError, _Buffer, annotate, cover
from omegastream.determinize import run_pipeline
from omegastream.words import (UPWord, canonicalize, parse_upword, up_equal,
                                up_starts_with)

from conftest import in_domain_corpus, random_upword
from machines import (from_edges, nondeterministic_machines, reference_cover,
                      replace_k, ring, tagged_machines)


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
        r = run_pipeline(T, x, n, check_invariants=True)
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


def test_tagged_machines_agree_with_the_oracle():
    """On generated machines whose construction fixes whether they are
    continuous, is_continuous returns the tag.  On a continuous machine,
    on four random UP words, the checked pipeline reads three periods past
    the prefix and raises DivergedError exactly when the word is outside
    the domain.  On one that is not, the oracle gives u u'^w the first
    witness word, and the second one differs."""
    seen = collections.Counter()

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.too_slow])
    @given(tagged_machines(), st.randoms(use_true_random=False))
    def check(tagged, rng):
        T, continuous = tagged
        assume(nft.is_unambiguous(T))
        Tn = nft.normalize(T)
        assume(Tn.initial)
        ok, w = is_continuous(T)
        assert ok == continuous
        seen["machines"] += 1
        if not ok:
            x = UPWord(w.u, w.u_loop)
            assert nft.oracle_eval(nft.clean(nft.trim(T)), x) == w.words[0]
            assert not up_equal(*w.words)
            return
        ctx = AnalysisContext(Tn)
        seen["separable"] += sum(ctx.is_separable(C) is not None
                                 for C in ctx.comp_subsets(Tn.states))
        for _ in range(4):
            x = random_upword(rng, sorted(T.input_alphabet), max_prefix=4,
                              max_period=4)
            n = len(x.prefix) + 3 * len(x.period) + 5
            seen[_pipeline_contract(T, x, n)] += 1

    check()
    assert seen["machines"] >= 300 and seen["separable"] >= 50, seen
    assert seen[True] >= 100 and seen[False] >= 100, seen
    assert seen[True] + seen[False] >= 400, seen


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


# -- cover on state masks ----------------------------------------------------


def _outcome(find, ctx, S, letters, position, cap):
    """find's (j, C) or None, or the message of the DivergedError it
    raised."""
    try:
        return find(ctx, S, _Buffer(letters, ctx.T.input_alphabet), position,
                    cap)
    except DivergedError as e:
        return str(e)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.one_of(nondeterministic_machines,
                 tagged_machines().map(lambda tagged: tagged[0])),
       st.data())
def test_cover_matches_the_state_set_reference(T, data):
    """cover, on state masks, gives reference_cover's (j, C), None or
    error on drawn frontiers, words, start positions and caps.  A
    compatible frontier covers itself at once, so only incompatible ones
    are drawn.  The machine's alphabet gains "#", which no transition
    reads."""
    T = dataclasses.replace(T, input_alphabet=T.input_alphabet | {"#"})
    ctx = AnalysisContext(T)
    S = data.draw(st.sets(st.sampled_from(sorted(T.states)), min_size=1))
    assume(ctx.is_compatible(S) is None)
    letters = data.draw(st.lists(
        st.sampled_from(sorted(T.input_alphabet, key=str)), max_size=12))
    position = data.draw(st.integers(0, 2))
    cap = data.draw(st.none() | st.integers(0, 6))
    assert (_outcome(cover, ctx, S, letters, position, cap)
            == _outcome(reference_cover, ctx, S, letters, position, cap))


def test_cover_on_masks_wider_than_64_bits():
    """ring(100) numbers its states up to 99: 300 letters go round it
    three times."""
    ann = annotate(AnalysisContext(ring(100)), iter("a" * 300))
    assert next(ann) == {"s0"}
    assert list(ann) == [("a", {f"s{i % 100}"}) for i in range(1, 301)]


def test_cover_looks_ahead_over_70_guess_branches():
    """replace_k with 70 branches: on a 0, q0 guesses the letter c1..c70
    that closes the 0-run.  The frontier of a 0-run holds q1..q70, whose
    bits run past 64, and the closing letter picks one branch."""
    k = 70
    T = from_edges([edge for i in range(1, k + 1) for edge in (
        ("q0", "0", f"q{i}", "x"), ("q0", f"c{i}", "q0", "x"),
        (f"q{i}", "0", f"q{i}", "x"), (f"q{i}", f"c{i}", "q0", "x"))],
        {"q0"}, {"q0"})
    ctx = AnalysisContext(T)
    run = frozenset(f"q{i}" for i in range(1, k + 1))
    for i in range(1, k + 1):
        letters = ["0", "0", f"c{i}"]
        found = cover(ctx, run, _Buffer(letters, T.input_alphabet), 0, None)
        assert found == (3, {f"q{i}"})
        assert found == reference_cover(
            ctx, run, _Buffer(letters, T.input_alphabet), 0, None)


def test_annotate_pushes_once_per_letter(monkeypatch):
    """cover advances masks; only annotate's step from the committed set
    pushes, once per letter, on replace_12 over 1,000 block letters."""
    calls = []
    push = nft.push

    def counted(T, S, u):
        calls.append(u)
        return push(T, S, u)

    monkeypatch.setattr(nft, "push", counted)
    monkeypatch.setattr(annotator, "push", counted)
    rng = random.Random(12)
    letters = []
    while len(letters) < 1000:
        letters += ["0"] * rng.randint(0, 6) + [rng.choice("123456789abc")]
    ctx = AnalysisContext(nft.normalize(replace_k(12)))
    assert sum(1 for _ in annotate(ctx, iter(letters))) == len(letters) + 1
    assert 0 < len(calls) <= len(letters)
