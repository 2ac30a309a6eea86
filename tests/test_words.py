"""Word and ultimately-periodic word primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegastream.words import (
    InfiniteLcpError,
    NotAPrefixError,
    UPWord,
    canonicalize,
    concat_up,
    format_upword,
    format_word,
    is_prefix,
    lcp,
    lcp_finite,
    parse_upword,
    parse_word,
    primitive_root,
    strip_prefix,
    up_equal,
    up_starts_with,
    word,
)

letters = st.sampled_from("ab")
words_s = st.lists(letters, max_size=8).map(tuple)
periods_s = st.lists(letters, min_size=1, max_size=6).map(tuple)


# -- canonicalize ------------------------------------------------------------


def test_canonicalize_examples():
    assert canonicalize("ab", "ab") == UPWord((), tuple("ab"))
    assert canonicalize("a", "ba") == UPWord((), tuple("ab"))
    assert canonicalize("0", "1010") == UPWord((), tuple("01"))


@given(words_s, periods_s)
def test_canonicalize_idempotent(p, v):
    x = canonicalize(p, v)
    assert canonicalize(x.prefix, x.period) == x


@given(words_s, periods_s)
def test_canonicalize_unroll_invariance(p, v):
    x = canonicalize(p, v)
    assert canonicalize(p + v, v) == x
    assert canonicalize(p, v + v) == x


@given(words_s, periods_s)
def test_canonical_form_preserves_letters(p, v):
    x = canonicalize(p, v)
    raw = UPWord(p, v)
    assert x.first(30) == raw.first(30)


def test_canonicalize_absorbs_long_aligned_prefix():
    # x 2 (012)^3333: every letter after x continues (012)^w backwards,
    # 10^4 of them, so the period rotates by 10^4 mod 3 = 1
    prefix = "x2" + "012" * 3333
    assert canonicalize(prefix, "012") == UPWord(("x",), tuple("201"))
    assert canonicalize("01" * 5000, "01") == UPWord((), tuple("01"))


# -- up_equal ----------------------------------------------------------------


@given(words_s, periods_s)
def test_up_equal_reflexive_and_canonical(p, v):
    x = UPWord(p, v)
    assert up_equal(x, x)
    assert up_equal(x, canonicalize(p, v))


@given(words_s, periods_s, words_s, periods_s)
def test_up_equal_iff_equal_canonical(p1, v1, p2, v2):
    x, y = UPWord(p1, v1), UPWord(p2, v2)
    assert up_equal(x, y) == (canonicalize(p1, v1) == canonicalize(p2, v2))
    assert up_equal(x, y) == up_equal(y, x)


def test_up_equal_distinguishes():
    assert not up_equal(parse_upword("(01)^w"), parse_upword("(10)^w"))
    assert up_equal(parse_upword("01(01)^w"), parse_upword("(01)^w"))


# -- parsing / formatting ----------------------------------------------------


def test_parse_format_roundtrip():
    for s in ["(001)^w", "0(1)^w", "2101(0102)^w"]:
        x = parse_upword(s)
        assert up_equal(parse_upword(format_upword(x)), x)
    assert parse_word("abc") == tuple("abc")
    assert format_word(tuple("abc")) == "abc"
    assert word("xy") == ("x", "y")


# -- lcp / prefixes ----------------------------------------------------------


def test_lcp_examples():
    assert lcp(parse_upword("(01)^w"), parse_upword("0(01)^w")) == ("0",)
    assert lcp(word("abc"), word("abd")) == ("a", "b")
    assert lcp_finite(word("abc"), word("abd")) == ("a", "b")
    with pytest.raises(InfiniteLcpError):
        lcp(parse_upword("(0)^w"), parse_upword("0(0)^w"))


@given(words_s, words_s)
def test_lcp_finite_symmetric_and_prefix(x, y):
    c = lcp_finite(x, y)
    assert c == lcp_finite(y, x)
    assert is_prefix(c, x) and is_prefix(c, y)
    if len(c) < len(x) and len(c) < len(y):
        assert x[len(c)] != y[len(c)]


def test_strip_prefix():
    assert up_equal(strip_prefix(parse_upword("ab(cd)^w"), "abc"),
                    parse_upword("(dc)^w"))
    assert strip_prefix(word("abc"), "ab") == ("c",)
    with pytest.raises(NotAPrefixError):
        strip_prefix(word("abc"), "x")


@given(words_s, periods_s, st.integers(min_value=0, max_value=8))
def test_strip_prefix_inverts_concat(p, v, k):
    x = UPWord(p, v)
    w = x.first(k)
    assert up_equal(concat_up(w, strip_prefix(x, w)), x)


def test_up_starts_with():
    x = parse_upword("ab(c)^w")
    assert up_starts_with(x, word("abcc"))
    assert not up_starts_with(x, word("abd"))
    assert up_starts_with(x, ())


@given(words_s, periods_s, st.integers(min_value=0, max_value=20))
def test_up_starts_with_first(p, v, k):
    x = UPWord(p, v)
    assert up_starts_with(x, x.first(k))


# -- misc --------------------------------------------------------------------


def test_primitive_root():
    assert primitive_root(word("abab")) == ("a", "b")
    assert primitive_root(word("aba")) == ("a", "b", "a")
    assert primitive_root(word("aaaa")) == ("a",)


@given(periods_s, st.integers(min_value=1, max_value=4))
def test_primitive_root_generates(v, k):
    r = primitive_root(v * k)
    assert len(v * k) % len(r) == 0
    assert r * (len(v * k) // len(r)) == v * k


@given(words_s, periods_s)
def test_first_matches_letter_at(p, v):
    x = UPWord(p, v)
    for n in range(len(p) + 3 * len(v) + 2):
        assert x.first(n) == tuple(x.letter_at(i) for i in range(n))


def test_concat_up_and_letter_at():
    x = concat_up("x", parse_upword("(y)^w"))
    assert format_upword(x) == "x(y)^w"
    assert [x.letter_at(i) for i in range(4)] == ["x", "y", "y", "y"]
    y = parse_upword("ab(cd)^w")
    assert y.first(5) == tuple("abcdc")
