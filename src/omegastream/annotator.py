"""Streaming annotator: turns an input stream into the compatible-set
stream C0 x[1] C1 x[2] C2 ...

The emitted sets follow the Good/cover semantics: after each letter the
frontier is the push-image of the previous set, and the committed set is the
first compatible subset whose future push-images coincide with the
frontier's — found by consuming lookahead letters, smallest subset order
(lexicographic on sorted state names) breaking ties.  On the domain the
cover always stabilizes, so the lookahead has no cap unless one is asked
for; on an ultimately periodic word, a scan configuration (frontier,
candidate images) that repeats at a period start proves that it never does.

The doubly-exponential automaton realizing the same sequence is never
materialized; the lookahead buffer plays its role.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Union

from .analysis import AnalysisContext
from .nft import push
from .words import UPWord


class DivergedError(Exception):
    """No compatible cover of the frontier stabilizes: the input is outside
    the domain, or, with `cap`, the opt-in lookahead cap came first."""

    def __init__(self, position, frontier, cap: Optional[int] = None):
        within = "" if cap is None else f" within {cap} lookahead letters"
        super().__init__(
            f"no compatible cover of {sorted(frontier)} stabilizes{within} "
            f"at position {position}"
        )


class UnknownLetterError(Exception):
    """The stream holds a letter outside the machine's input alphabet."""

    def __init__(self, letter, index):
        super().__init__(
            f"letter {letter!r} at index {index} is not in the input alphabet"
        )


class _Buffer:
    """Letter source with absolute-position random access; each letter is
    checked against the alphabet as it is read.  `word` is the UPWord when
    the source is one, else None."""

    def __init__(self, source: Union[UPWord, Iterable], alphabet):
        self.word = source if isinstance(source, UPWord) else None
        self._it = iter(source) if self.word is None else source.letters()
        self._alphabet = alphabet
        self._buf: List = []
        self._base = 0  # absolute position of _buf[0]

    def get(self, pos: int):
        """Letter at absolute position pos (0-based); None when exhausted."""
        while self._base + len(self._buf) <= pos:
            try:
                a = next(self._it)
            except StopIteration:
                return None
            if a not in self._alphabet:
                raise UnknownLetterError(a, self._base + len(self._buf))
            self._buf.append(a)
        return self._buf[pos - self._base]

    def phase(self, pos: int) -> Optional[int]:
        """Offset of position pos in the period of a UP source; None in its
        prefix and on a stream."""
        x = self.word
        if x is None or pos < len(x.prefix):
            return None
        return (pos - len(x.prefix)) % len(x.period)

    def drop_before(self, pos: int):
        if pos > self._base:
            cut = pos - self._base
            del self._buf[:cut]
            self._base = pos


def cover(
    ctx: AnalysisContext,
    S,
    buffer: _Buffer,
    position: int,
    max_lookahead: Optional[int],
):
    """Smallest-lookahead compatible cover of the frontier S at `position`.

    Returns (j, C): j is the absolute position where some compatible C
    subset of S satisfies push_w(C) = push_w(S) for w = letters
    (position..j]; C is the order-minimal such set.  Returns None when
    the stream ends before a cover stabilizes.  Raises DivergedError when
    no cover can stabilize, or when max_lookahead letters (None: no cap)
    were read without one.
    """
    S = frozenset(S)
    # evolving images (push_w(C), push_w(S))
    pairs = [[c, c] for c in ctx.comp_subsets(S)]
    frontier = S
    seen = None if buffer.word is None else set()
    T = ctx.T
    j = position
    while pairs:
        done = [c for img, c in pairs if img == frontier]
        if done:
            return j, min(done, key=sorted)
        if max_lookahead is not None and j - position >= max_lookahead:
            raise DivergedError(position, S, max_lookahead)
        if seen is not None and buffer.phase(j) == 0:
            # the same letters follow every period start: a repeat loops
            key = (frontier, frozenset(img for img, _ in pairs))
            if key in seen:
                break
            seen.add(key)
        a = buffer.get(j)
        if a is None:
            return None
        frontier = push(T, frontier, (a,))
        for entry in pairs:
            entry[0] = push(T, entry[0], (a,))
        pairs = [e for e in pairs if e[0]]
        j += 1
    raise DivergedError(position, S)


def annotate(
    ctx: AnalysisContext,
    source: Union[UPWord, Iterable],
    max_lookahead: Optional[int] = None,
) -> Iterator:
    """Yield C0, then (letter, C) pairs, following the input.

    `source` is a UPWord, on which a cover that never stabilizes raises
    DivergedError, or any iterable of letters, read as a stream.  Emissions
    lag the input by the current cover lookahead; the lag is finite on the
    domain of the machine's function.  max_lookahead is an opt-in cap on
    that lag (None: no cap).  A finite stream ends the annotations at its
    last letter, or at the letter whose cover was still looking ahead when
    the stream ended.  A letter outside the machine's input alphabet raises
    UnknownLetterError when it is read.
    """
    T = ctx.T
    buf = _Buffer(source, T.input_alphabet)
    pos = 0
    found = cover(ctx, T.initial, buf, 0, max_lookahead)
    if found is None:
        return
    good = found[1]
    yield good
    while True:
        a = buf.get(pos)
        if a is None:
            return
        frontier = push(T, good, (a,))
        if not frontier:
            raise DivergedError(pos + 1, good)
        pos += 1
        found = cover(ctx, frontier, buf, pos, max_lookahead)
        if found is None:
            return
        good = found[1]
        buf.drop_before(pos)
        yield (a, good)
