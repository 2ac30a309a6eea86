"""Seeded inputs for the benchmark.

Every input is built from blocks.  A block of a one-way machine's input is
``0^n c``: a run of n zeros closed by a letter c.  A block of a K-flush
streaming transducer's input is ``1^n b``.  An ultimately periodic (UP)
word is a prefix of blocks followed by a period of blocks repeated forever.

The period is a seeded shuffle of a fixed multiset of blocks.  The seed
therefore changes the order of the blocks but not how many there are of
each kind, so every seed gives the same amount of work per period, and the
longest 0-run (which fixes how many letters the annotator must look ahead)
is the same for every seed.

The reference output of each machine family is computed here block by
block, without calling the library, so it is an oracle independent of the
code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, List, Sequence, Tuple

# Letter i of replace_k (1 <= i <= k) is SYMBOLS[i - 1]; single characters
# keep the CLI's output lines unambiguous.
SYMBOLS = "123456789abcdefghijklmnopqrstuvwxyz"

Block = Tuple[int, str]  # (n, c): the letters 0^n c, or 1^n b for K-flush


# -- machines -------------------------------------------------------------------


def replace_k(k: int) -> dict:
    """One-way machine replacing each 0-run by its closing letter.

    k guess branches and k+1 states: on a 0, q0 guesses the letter i that
    will close the run and outputs it; branch q_i only accepts that closing
    letter.  replace_k(2) is the bundled replace.json.
    """
    if not 1 <= k <= len(SYMBOLS):
        raise ValueError(f"k must be in 1..{len(SYMBOLS)}")
    letters = SYMBOLS[:k]
    transitions = []
    for i, a in enumerate(letters, start=1):
        qi = f"q{i}"
        transitions += [
            {"from": "q0", "letter": "0", "to": qi, "out": a},
            {"from": "q0", "letter": a, "to": "q0", "out": a},
            {"from": qi, "letter": "0", "to": qi, "out": a},
            {"from": qi, "letter": a, "to": "q0", "out": a},
        ]
    alphabet = ["0"] + list(letters)
    return {
        "input_alphabet": alphabet,
        "output_alphabet": alphabet,
        "states": ["q0"] + [f"q{i}" for i in range(1, k + 1)],
        "initial": ["q0"],
        "final": ["q0"],
        "transitions": transitions,
    }


def kflush_sst(registers: int, K: int) -> dict:
    """K-bounded streaming transducer in the JSON form of ``sst.load``.

    Letter i (1 <= i <= registers) appends i to register r_i; letter b
    appends every register K times to out, then b, and empties the
    registers.  With K >= 2 the machine copies, so it is K-bounded but not
    copyless.
    """
    regs = [f"r{i}" for i in range(1, registers + 1)]
    letters = [str(i) for i in range(1, registers + 1)]
    updates = []
    for a in letters:
        assign = {"out": "$out"}
        for i, r in enumerate(regs, start=1):
            assign[r] = f"${r} {a}" if str(i) == a else f"${r}"
        updates.append({"state": "p", "letter": a, "assign": assign})
    flush = "$out" + "".join(f"${r}" * K for r in regs) + " b"
    assign = {"out": flush, **{r: "" for r in regs}}
    updates.append({"state": "p", "letter": "b", "assign": assign})
    alphabet = letters + ["b"]
    return {
        "input_alphabet": alphabet,
        "output_alphabet": alphabet,
        "states": ["p"],
        "initial": "p",
        "registers": ["out"] + regs,
        "out": "out",
        "delta": [{"state": "p", "letter": a, "to": "p"} for a in alphabet],
        "updates": updates,
    }


# -- reference functions, block by block ------------------------------------------


def replace_out(block: Block) -> str:
    n, c = block
    return c * (n + 1)


def double_out(block: Block) -> str:
    n, c = block
    return "0" * n + "1" if c == "1" else "0" * (2 * n) + "2"


def kflush_out(K: int) -> Callable[[Block], str]:
    def out(block: Block) -> str:
        n, _ = block
        return "1" * (n * K) + "b"

    return out


# -- UP words made of blocks -------------------------------------------------------


def _block_letters(block: Block, zero: str) -> str:
    n, c = block
    return zero * n + c


@dataclass(frozen=True)
class BlockWord:
    """prefix . period^w, both sequences of whole blocks."""

    prefix: Tuple[Block, ...]
    period: Tuple[Block, ...]
    zero: str = "0"  # the letter repeated inside a block

    def blocks(self):
        yield from self.prefix
        while True:
            yield from self.period

    def stream(self, n: int) -> List[str]:
        """The shortest run of whole blocks with at least n letters."""
        out: List[str] = []
        for b in self.blocks():
            if len(out) >= n:
                return out
            out.extend(_block_letters(b, self.zero))
        return out  # unreachable: the period is nonempty

    def letters(self) -> Tuple[str, str]:
        """(prefix, period) as letter strings."""
        return (
            "".join(_block_letters(b, self.zero) for b in self.prefix),
            "".join(_block_letters(b, self.zero) for b in self.period),
        )

    def image(self, f: Callable[[Block], str]) -> Tuple[str, str]:
        """(prefix, period) of the output, f applied block by block."""
        return (
            "".join(f(b) for b in self.prefix),
            "".join(f(b) for b in self.period),
        )


def shuffled_word(rng: random.Random, kinds: Sequence[Block], copies: int,
                  prefix_blocks: int, zero: str = "0") -> BlockWord:
    """Period: `copies` of each block kind in seeded order; prefix: seeded
    draws of `prefix_blocks` kinds."""
    period = [b for b in kinds for _ in range(copies)]
    rng.shuffle(period)
    prefix = [rng.choice(list(kinds)) for _ in range(prefix_blocks)]
    return BlockWord(tuple(prefix), tuple(period), zero)


def fixture_word(rng: random.Random) -> BlockWord:
    """Long-period input for replace.json and double.json: 0-runs of 1..6
    closed by 1 or 2, three of each kind, a 162-letter period."""
    kinds = [(n, c) for n in range(1, 7) for c in "12"]
    return shuffled_word(rng, kinds, copies=3, prefix_blocks=3)


def wide_word(rng: random.Random, k: int) -> BlockWord:
    """Input for replace_k: 0-runs of 1 and 2 closed by each of the k
    letters (a 60-letter period for k=12)."""
    kinds = [(n, c) for c in SYMBOLS[:k] for n in (1, 2)]
    return shuffled_word(rng, kinds, copies=1, prefix_blocks=2)


def small_word(rng: random.Random, closers: str, max_run: int = 3) -> BlockWord:
    """Short-period input for the batch checks."""
    kinds = [(n, c) for c in closers for n in range(0, max_run + 1)]
    return shuffled_word(rng, kinds, copies=1, prefix_blocks=2)


def kflush_word(rng: random.Random) -> BlockWord:
    """Input for the K-flush family: blocks 1^n b with n in 0..3."""
    kinds = [(n, "b") for n in range(4)]
    return shuffled_word(rng, kinds, copies=2, prefix_blocks=2, zero="1")


# -- comparing UP words without the library ---------------------------------------


def up_letters(prefix: Sequence, period: Sequence, n: int) -> str:
    """First n letters of prefix . period^w."""
    out = list(prefix[:n])
    i = 0
    while len(out) < n:
        out.append(period[i % len(period)])
        i += 1
    return "".join(map(str, out))


def up_agrees(y, ref: Tuple[str, str]) -> bool:
    """Whether the library's UPWord y equals the reference (prefix, period)."""
    if y is None:
        return False
    p, v = ref
    n = len(y.prefix) + len(p) + (
        len(y.period) * len(v) // gcd(len(y.period), len(v))
    )
    return up_letters(y.prefix, y.period, n) == up_letters(p, v, n)
