"""Finite words and ultimately periodic omega-words with exact arithmetic.

Finite words are plain tuples of letters (any hashable token: single-char
strings for ordinary alphabets, frozensets for annotated streams).  An
ultimately periodic word ``u . v^w`` is stored in canonical form: the period
is primitive and the prefix is the shortest representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence, Tuple, Union

Letter = object
Word = Tuple[Letter, ...]

EMPTY: Word = ()


class InfiniteLcpError(Exception):
    """Raised when the lcp of two equal omega-words is requested."""


class NotAPrefixError(ValueError):
    """Raised by strip_prefix when the argument is not a prefix."""


def word(letters: Union[str, Sequence[Letter]]) -> Word:
    """Coerce a string or sequence into a word (tuple of letters)."""
    return tuple(letters)


def primitive_root(v: Word) -> Word:
    """Shortest word p such that v = p^k."""
    n = len(v)
    if n == 0:
        return v
    for d in range(1, n + 1):
        if n % d == 0 and v == v[:d] * (n // d):
            return v[:d]
    return v  # unreachable


def is_prefix(p: Word, x: Word) -> bool:
    return x[: len(p)] == tuple(p)


def lcp_finite(x: Word, y: Word) -> Word:
    n = 0
    for a, b in zip(x, y):
        if a != b:
            break
        n += 1
    return x[:n]


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


@dataclass(frozen=True)
class UPWord:
    """Canonical ultimately periodic word prefix . period^w."""

    prefix: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")

    # -- basic access ------------------------------------------------------

    def letter_at(self, i: int) -> Letter:
        """0-based letter access."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def first(self, n: int) -> Word:
        """The first n letters, as a finite word."""
        p, v = self.prefix, self.period
        if n <= len(p):
            return tuple(p[:n])
        q, r = divmod(n - len(p), len(v))
        return tuple(p + v * q + v[:r])

    def letters(self) -> Iterator[Letter]:
        """Infinite letter stream."""
        yield from self.prefix
        while True:
            yield from self.period

    def __str__(self) -> str:
        return format_upword(self)


WordLike = Union[Word, UPWord]


def canonicalize(prefix: Union[str, Word], period: Union[str, Word]) -> UPWord:
    """Canonical representative of prefix . period^w.

    The period is reduced to its primitive root, then trailing letters of the
    prefix that align with the period are absorbed by rotating the period.
    This makes canonical forms unroll- and rotation-invariant.
    """
    u = word(prefix)
    v = word(period)
    if not v:
        raise ValueError("period must be nonempty")
    v = primitive_root(v)
    n = len(v)
    k = 0  # trailing letters of u that continue v^w backwards
    while k < len(u) and u[-1 - k] == v[-1 - k % n]:
        k += 1
    r = k % n
    return UPWord(u[: len(u) - k], v[n - r:] + v[: n - r])


def up_equal(x: UPWord, y: UPWord) -> bool:
    """Letterwise equality, decided by comparing a sufficient finite window.

    Two ultimately periodic words agreeing on |p1| + |p2| + lcm(|v1|, |v2|)
    letters are equal everywhere, by periodicity.
    """
    n = len(x.prefix) + len(y.prefix) + lcm(len(x.period), len(y.period))
    return x.first(n) == y.first(n)


def lcp(x: WordLike, y: WordLike) -> Word:
    """Longest common prefix; raises InfiniteLcpError on two equal UPWords."""
    if isinstance(x, UPWord) and isinstance(y, UPWord):
        if up_equal(x, y):
            raise InfiniteLcpError("lcp of two equal omega-words is infinite")
        n = len(x.prefix) + len(y.prefix) + lcm(len(x.period), len(y.period))
        return lcp_finite(x.first(n), y.first(n))
    if isinstance(x, UPWord):
        return lcp_finite(x.first(len(y)), tuple(y))
    if isinstance(y, UPWord):
        return lcp_finite(tuple(x), y.first(len(x)))
    return lcp_finite(tuple(x), tuple(y))


def strip_prefix(x: WordLike, p: Union[str, Word]) -> WordLike:
    """Left quotient p^-1 x; errors if p is not a prefix of x."""
    p = word(p)
    if isinstance(x, UPWord):
        if x.first(len(p)) != p:
            raise NotAPrefixError(f"{p!r} is not a prefix")
        k = len(p)
        if k <= len(x.prefix):
            return canonicalize(x.prefix[k:], x.period)
        shift = (k - len(x.prefix)) % len(x.period)
        return canonicalize((), x.period[shift:] + x.period[:shift])
    x = tuple(x)
    if x[: len(p)] != p:
        raise NotAPrefixError(f"{p!r} is not a prefix")
    return x[len(p):]


def up_starts_with(x: UPWord, p: Word) -> bool:
    return x.first(len(p)) == tuple(p)


def concat_up(w: Union[str, Word], x: UPWord) -> UPWord:
    """Finite word concatenated with an omega-word."""
    return canonicalize(word(w) + x.prefix, x.period)


# -- text serialization ----------------------------------------------------


def format_word(w: Word) -> str:
    toks = [str(a) for a in w]
    if all(len(t) == 1 for t in toks):
        return "".join(toks)
    return " ".join(toks)


def parse_word(s: str) -> Word:
    s = s.strip()
    if not s:
        return ()
    if " " in s:
        return tuple(s.split())
    return tuple(s)


def format_upword(x: UPWord) -> str:
    return f"{format_word(x.prefix)}({format_word(x.period)})^w"


def parse_upword(s: str) -> UPWord:
    """Parse the ``prefix(period)^w`` syntax."""
    s = s.strip()
    if not (s.endswith("^w") and "(" in s):
        raise ValueError(f"not an ultimately periodic word: {s!r}")
    body = s[:-2]
    if not body.endswith(")"):
        raise ValueError(f"not an ultimately periodic word: {s!r}")
    open_idx = body.index("(")
    prefix = parse_word(body[:open_idx])
    period = parse_word(body[open_idx + 1:-1])
    if not period:
        raise ValueError("empty period")
    return canonicalize(prefix, period)


_KINDS = {  # the kinds of field that json_object checks, by description
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: (
        isinstance(v, list) and all(isinstance(s, str) for s in v)),
    "a list": lambda v: isinstance(v, list),
    "a JSON object of strings": lambda v: (
        isinstance(v, dict) and all(isinstance(s, str) for s in v.values())),
}


def json_object(doc, what: str, *strings, lists=(), entries=(), maps=(),
                optional=()) -> None:
    """ValueError unless doc is a JSON object holding every named field,
    each of its kind: `strings` a string, `lists` a list of strings,
    `entries` a list (whose items the caller checks), `maps` an object of
    strings, and those `optional` fields that it holds a string.  The
    message names `what` and the first field missing or of another kind."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    for names, kind in ((strings, "a string"), (lists, "a list of strings"),
                        (entries, "a list"), (maps, "a JSON object of strings")):
        for name in names:
            if name not in doc:
                raise ValueError(f"{what} has no field {name!r}")
            if not _KINDS[kind](doc[name]):
                raise ValueError(f"{what} field {name!r} must be {kind}")
    for name in optional:
        if name in doc and not isinstance(doc[name], str):
            raise ValueError(f"{what} field {name!r} must be a string")
