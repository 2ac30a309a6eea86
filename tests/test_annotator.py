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
    """On the UPWord (0)^w the cover of the first 0 repeats its scan
    configuration at once, so DivergedError comes with no cap."""
    ctx = AnalysisContext(nft.normalize(replace_t))
    ann = annotate(ctx, parse_upword("(0)^w"))
    assert next(ann) == frozenset({"q0"})
    with pytest.raises(DivergedError, match="no compatible cover of"):
        next(ann)


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


def test_pipeline_contract_on_long_runs(replace_t):
    """With no lookahead cap: on a word in the domain the pipeline raises
    nothing and its output is a prefix of the oracle's; DivergedError only
    ever comes on a word outside the domain.  (Only this direction holds:
    a machine may stream a word outside its domain without raising.)"""
    rng = random.Random(19)
    seen = {"in": 0, "diverged": 0}
    for T, alphabet in ((replace_t, "012"), (replace_k(3), "0123")):
        for x in _long_run_words(rng, alphabet, 20):
            ref = nft.oracle_eval(T, x)
            n = len(x.prefix) + len(x.period) + 5
            try:
                r = run_pipeline(T, x, n)
            except DivergedError:
                assert ref is None, str(x)
                seen["diverged"] += 1
                continue
            if ref is not None:
                assert up_starts_with(ref, r.emitted), str(x)
                seen["in"] += 1
    assert seen["in"] >= 20 and seen["diverged"] >= 2, seen


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
