"""Streaming annotator: turns an input stream into the compatible-set
stream C0 x[1] C1 x[2] C2 ...

The emitted sets follow the Good/cover semantics: after each letter the
frontier is the push-image of the previous set, and the committed set is the
first compatible subset whose future push-images coincide with the
frontier's — found by consuming lookahead letters, smallest subset order
(lexicographic on sorted state names) breaking ties.  On a word with an
accepting run the cover always stabilizes: each frontier holds a state of
that run, the frontier states whose runs go on for ever along the rest of
the word form a compatible set, and the others die after finitely many
letters.  So the lookahead has no cap unless one is asked for.  On an
ultimately periodic word the whole input is known, and the exact oracle
decides its membership in the domain before C0; the machine must be
unambiguous for that.  A stream cannot be decided up front, so a word
outside the domain may stream without an error.

The doubly-exponential automaton realizing the same sequence is never
materialized; the lookahead buffer plays its role.  While it looks ahead,
cover keeps each image as an int whose bits are states, numbered as in the
machine's per-letter target masks, and advances it by OR-ing the target
masks of its states; annotate pushes the committed set once per letter.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Union

from .analysis import AnalysisContext
from .nft import oracle_run, push
from .words import UPWord


class DivergedError(Exception):
    """The input is outside the domain: a UP input has no accepting run
    with infinite output, or a stream left every compatible cover of the
    frontier, or, with a lookahead cap, the cap came first."""


def _no_cover(position, frontier, cap: Optional[int] = None) -> DivergedError:
    within = "" if cap is None else f" within {cap} lookahead letters"
    return DivergedError(
        f"no compatible cover of {sorted(frontier)} stabilizes{within} "
        f"at position {position}"
    )


class UnknownLetterError(Exception):
    """The stream holds a letter outside the machine's input alphabet."""

    def __init__(self, letter, index):
        super().__init__(
            f"letter {letter!r} at index {index} is not in the input alphabet"
        )


def check_letters(x: UPWord, alphabet) -> None:
    """Raise UnknownLetterError at the first letter of x's prefix and
    period that is outside alphabet."""
    for i, a in enumerate(x.prefix + x.period):
        if a not in alphabet:
            raise UnknownLetterError(a, i)


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

    def drop_before(self, pos: int):
        if pos > self._base:
            cut = pos - self._base
            del self._buf[:cut]
            self._base = pos


def _image(row, m: int) -> int:
    """The bits of the states that the states with bits m reach on one
    letter, row[p] being the bits of p's targets on it."""
    img = 0
    for p in range(m.bit_length()):
        if m >> p & 1:
            img |= row[p]
    return img


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
    no candidate is left, or when max_lookahead letters (None: no cap)
    were read without a cover.

    The images are state masks (AnalysisContext.subset_masks), advanced
    one letter at a time through the machine's per-letter target masks.
    """
    S = frozenset(S)
    frontier, masks = ctx.subset_masks(S)
    # evolving images (push_w(C) and, in frontier, push_w(S)) as masks
    pairs = list(zip(masks, ctx.comp_subsets(S)))
    rows = ctx.T._masks[1]
    j = position
    while pairs:
        done = [c for img, c in pairs if img == frontier]
        if done:
            return j, min(done, key=sorted)
        if max_lookahead is not None and j - position >= max_lookahead:
            raise _no_cover(position, S, max_lookahead)
        a = buffer.get(j)
        if a is None:
            return None
        row = rows.get(a)
        if row is None:  # no transition reads a: every image is empty
            break
        frontier = _image(row, frontier)
        pairs = [(img, c) for m, c in pairs if (img := _image(row, m))]
        j += 1
    raise _no_cover(position, S)


def annotate(
    ctx: AnalysisContext,
    source: Union[UPWord, Iterable],
    max_lookahead: Optional[int] = None,
) -> Iterator:
    """Yield C0, then (letter, C) pairs, following the input.

    `source` is a UPWord, or any iterable of letters, read as a stream.
    On a UPWord every letter is checked first, and a word outside the
    domain (no accepting run with infinite output) raises DivergedError
    before C0.  That check runs the exact oracle, which needs an
    unambiguous machine: on an ambiguous one it raises AmbiguityError
    before C0.  Emissions
    lag the input by the current cover lookahead; the lag is finite on the
    domain of the machine's function.  max_lookahead is an opt-in cap on
    that lag (None: no cap).  A finite stream ends the annotations at its
    last letter, or at the letter whose cover was still looking ahead when
    the stream ended.  A letter outside the machine's input alphabet raises
    UnknownLetterError when it is read.
    """
    T = ctx.T
    buf = _Buffer(source, T.input_alphabet)
    x = buf.word
    if x is not None:
        check_letters(x, T.input_alphabet)
        run = oracle_run(T, x)
        if run is None or run.output is None:
            raise DivergedError(
                f"{x} is outside the domain: it has no accepting run with "
                "infinite output"
            )
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
            raise _no_cover(pos + 1, good)
        pos += 1
        found = cover(ctx, frontier, buf, pos, max_lookahead)
        if found is None:
            return
        good = found[1]
        buf.drop_before(pos)
        yield (a, good)
