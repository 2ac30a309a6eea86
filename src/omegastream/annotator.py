"""Streaming annotator: turns an input stream into the compatible-set
stream C0 x[1] C1 x[2] C2 ...

The emitted sets follow the Good/cover semantics: after each letter the
frontier is the push-image of the previous set, and the committed set is the
first compatible subset whose future push-images coincide with the
frontier's — found by consuming lookahead letters, smallest subset order
(lexicographic on sorted state names) breaking ties.

The doubly-exponential automaton realizing the same sequence is never
materialized; the lookahead buffer plays its role.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from .analysis import AnalysisContext
from .nft import OneWayTransducer, push


class DivergedError(Exception):
    """Lookahead exhausted before a cover stabilized (input likely outside
    the domain, or the budget too small)."""

    def __init__(self, position, frontier, budget):
        super().__init__(
            f"no compatible cover of {sorted(frontier)} stabilized within "
            f"{budget} lookahead letters at position {position}"
        )
        self.position = position
        self.frontier = frozenset(frontier)
        self.budget = budget


class UnknownLetterError(Exception):
    """The stream holds a letter outside the machine's input alphabet."""

    def __init__(self, letter, index):
        super().__init__(
            f"letter {letter!r} at index {index} is not in the input alphabet"
        )


def default_max_lookahead(T: OneWayTransducer) -> int:
    nq = max(1, len(T.states))
    return min(10 * nq ** nq, 100_000)


def set_order_key(C) -> Tuple:
    """The fixed total order on state sets: lexicographic on sorted names."""
    return tuple(sorted(C))


class _Buffer:
    """Letter stream with absolute-position random access; each letter is
    checked against the alphabet as it is read."""

    def __init__(self, stream: Iterable, alphabet):
        self._it = iter(stream)
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
    max_lookahead: int,
):
    """Smallest-lookahead compatible cover of the frontier S at `position`.

    Returns (j, C): j is the absolute position where some compatible C
    subset of S satisfies push_w(C) = push_w(S) for w = letters
    (position..j]; C is the order-minimal such set.  Returns None when
    the stream ends before a cover stabilizes.
    """
    S = frozenset(S)
    candidates = ctx.comp_subsets(S)
    if not candidates:
        raise DivergedError(position, S, 0)
    # evolving images (push_w(C), push_w(S))
    pairs = [[c, c] for c in candidates]
    frontier = S
    j = position
    while True:
        done = [c for img, c in pairs if img == frontier]
        if done:
            return j, min(done, key=set_order_key)
        if j - position >= max_lookahead:
            raise DivergedError(position, S, max_lookahead)
        a = buffer.get(j)
        if a is None:
            return None
        T = ctx.T
        frontier = push(T, frontier, (a,))
        if not frontier:
            raise DivergedError(position, S, j - position)
        for entry in pairs:
            entry[0] = push(T, entry[0], (a,))
        pairs = [e for e in pairs if e[0]]
        if not pairs:
            raise DivergedError(position, S, j - position)
        j += 1


def annotate(
    ctx: AnalysisContext,
    stream: Iterable,
    max_lookahead: Optional[int] = None,
) -> Iterator:
    """Yield C0, then (letter, C) pairs, following the input stream.

    Emissions lag the input by the current cover lookahead; the lag is
    finite on the domain of the machine's function.  A finite stream ends
    the annotations at its last letter, or at the letter whose cover was
    still looking ahead when the stream ended.  A letter outside the
    machine's input alphabet raises UnknownLetterError when it is read.
    """
    T = ctx.T
    if max_lookahead is None:
        max_lookahead = default_max_lookahead(T)
    buf = _Buffer(stream, T.input_alphabet)
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
            raise DivergedError(pos + 1, good, 0)
        pos += 1
        found = cover(ctx, frontier, buf, pos, max_lookahead)
        if found is None:
            return
        good = found[1]
        buf.drop_before(pos)
        yield (a, good)
