"""Shared fixtures and corpus helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from omegastream import fixture_path, nft, sst, twoway
from omegastream.words import UPWord, parse_upword


@pytest.fixture(scope="session")
def replace_t():
    return nft.load(fixture_path("replace.json"))


@pytest.fixture(scope="session")
def double_t():
    return nft.load(fixture_path("double.json"))


@pytest.fixture(scope="session")
def normalize_t():
    return nft.load(fixture_path("normalize.json"))


@pytest.fixture(scope="session")
def replace_sst_m():
    return sst.load(fixture_path("replace_sst.json"))


@pytest.fixture(scope="session")
def double_sst_m():
    return sst.load(fixture_path("double_sst.json"))


@pytest.fixture(scope="session")
def replace_2dt_m():
    return twoway.load(fixture_path("replace_2dt.json"))


@pytest.fixture(scope="session")
def double_2dt_m():
    return twoway.load(fixture_path("double_2dt.json"))


def random_upword(rng: random.Random, alphabet: str,
                  max_prefix: int = 6, max_period: int = 6) -> UPWord:
    prefix = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_prefix)))
    period = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_period)))
    return UPWord(tuple(prefix), tuple(period))


def in_domain_corpus(T, rng: random.Random, alphabet: str, count: int,
                     max_prefix: int = 6, max_period: int = 6):
    """`count` distinct UP words in Dom f, found by rejection sampling."""
    out = []
    seen = set()
    while len(out) < count:
        x = random_upword(rng, alphabet, max_prefix, max_period)
        key = (x.prefix, x.period)
        if key in seen:
            continue
        seen.add(key)
        if nft.oracle_eval(T, x) is not None:
            out.append(x)
    return out


# Inputs whose periods contain non-0 letters, so output is produced at a
# steady rate (long 0-blocks legitimately defer emission on double).
FLUSHY_PERIODS = [
    "1", "2", "01", "02", "12", "001", "002", "011", "012", "021",
    "022", "101", "102", "120", "201", "202", "210", "0102", "0011", "0201",
    "1202", "2101", "00102", "01012", "02021",
]
FLUSHY_PREFIXES = ["", "0", "1", "2", "01", "002", "012", "2101", "00", "21"]


def two_bounded_machine():
    """'a' appends to r; 'b' flushes r twice into out.  2-bounded, not
    copyless."""
    Reg, Substitution = sst.Reg, sst.Substitution
    return sst.StreamingTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("ab"),
        states=frozenset({"p"}),
        initial="p",
        registers=frozenset({"out", "r"}),
        out="out",
        delta={("p", "a"): "p", ("p", "b"): "p"},
        updates={
            ("p", "a"): Substitution(
                {"out": (Reg("out"),), "r": (Reg("r"), "a")}
            ),
            ("p", "b"): Substitution(
                {"out": (Reg("out"), Reg("r"), Reg("r"), "b"), "r": ()}
            ),
        },
    )


def identity_sst(alphabet: str):
    """Appends every input letter to out."""
    Reg, Substitution = sst.Reg, sst.Substitution
    return sst.StreamingTransducer(
        input_alphabet=frozenset(alphabet),
        output_alphabet=frozenset(alphabet),
        states=frozenset({"p"}),
        initial="p",
        registers=frozenset({"out"}),
        out="out",
        delta={("p", a): "p" for a in alphabet},
        updates={
            ("p", a): Substitution({"out": (Reg("out"), a)}) for a in alphabet
        },
    )


def flushy_corpus(count: int):
    out = []
    i = 0
    while len(out) < count:
        p = FLUSHY_PREFIXES[i % len(FLUSHY_PREFIXES)]
        v = FLUSHY_PERIODS[i % len(FLUSHY_PERIODS)]
        i += 1
        out.append(parse_upword(f"{p}({v})^w"))
    return out


@st.composite
def scattered_one_state_ssts(draw):
    """One state, 1-12 registers, letters a and b.  Each update moves every
    register into at most one image, mixes in constants and appends the
    letter to out."""
    Reg, Substitution = sst.Reg, sst.Substitution
    regs = [f"r{i}" for i in range(1, draw(st.integers(1, 12)) + 1)]
    images = ["out"] + regs
    updates = {}
    for a in "ab":
        imgs = {r: [] for r in images}
        for r in draw(st.permutations(regs)):
            home = draw(st.sampled_from(images + [None]))
            if home is not None:
                imgs[home].append(Reg(r))
            imgs[draw(st.sampled_from(images))].extend(
                draw(st.sampled_from(["", "x", "y", "xy"])))
        imgs["out"] = [Reg("out")] + imgs["out"] + [a]
        updates[("p", a)] = Substitution({r: tuple(v) for r, v in imgs.items()})
    return sst.StreamingTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("abxy"),
        states=frozenset({"p"}),
        initial="p",
        registers=frozenset(images),
        out="out",
        delta={("p", "a"): "p", ("p", "b"): "p"},
        updates=updates,
    )
