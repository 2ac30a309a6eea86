"""The machines the tests and CI share: named families built from a size,
hypothesis strategies, seeded generators, and tagged_machines, whose
constructions fix whether the machine is continuous.  Also the references
the tests compare the library against, which the library itself never
calls: the annotator and its cover on state sets, a domain automaton
for SSTs and a decomposition-forest checker.

CI builds its machines from here too, e.g.
    PYTHONPATH=tests python -c "import sys, machines; from omegastream import nft; nft.save(machines.ring(1500), sys.argv[1])" ring.json
"""

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, FrozenSet, Sequence, Tuple

from hypothesis import assume
from hypothesis import strategies as st

from omegastream import nft, sst
from omegastream.annotator import _Buffer, _no_cover
from omegastream.convert import ConversionError
from omegastream.nft import OneWayTransducer
from omegastream.sst import EMPTY_PARTS, StreamingTransducer, Substitution
from omegastream.words import UPWord, lcp_finite, word


# -- named families ----------------------------------------------------------


def replace_k(k: int) -> OneWayTransducer:
    """k guess branches: on a 0, q0 guesses the letter that will close the
    0-run and outputs it; branch qi accepts only that closing letter."""
    letters = "123456789abcdefghijklmnopqrstu"[:k]
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
    return nft.from_dict({
        "input_alphabet": alphabet,
        "output_alphabet": alphabet,
        "states": ["q0"] + [f"q{i}" for i in range(1, k + 1)],
        "initial": ["q0"],
        "final": ["q0"],
        "transitions": transitions,
    })


def ring(n: int) -> OneWayTransducer:
    """s_i --a/a--> s_(i+1 mod n), with s0 initial and final."""
    return nft.from_dict({
        "input_alphabet": ["a"], "output_alphabet": ["a"],
        "states": [f"s{i}" for i in range(n)],
        "initial": ["s0"], "final": ["s0"],
        "transitions": [{"from": f"s{i}", "letter": "a",
                         "to": f"s{(i + 1) % n}", "out": "a"}
                        for i in range(n)],
    })


def coprime_rings(lengths=(31, 37, 41)) -> OneWayTransducer:
    """Disjoint rings r<k>_<i> of the given lengths over {a, b}: a moves
    one step round the ring, b two, and each move outputs the letter it
    reads.  Every state is final and r0_0 is initial, so the image of a
    word is the word itself.  A run from r<k>_<i> on a suffix ends at
    i + (its number of a's) + 2·(its number of b's), so along a period
    shorter than the product of the lengths, which are coprime, the
    state-to-state relation of the suffix never repeats."""
    transitions = {}
    for k, n in enumerate(lengths):
        for i in range(n):
            for a, d in (("a", 1), ("b", 2)):
                transitions[(f"r{k}_{i}", a, f"r{k}_{(i + d) % n}")] = (a,)
    return OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("ab"),
        states=frozenset(q for q, _, _ in transitions),
        initial=frozenset({"r0_0"}),
        final=frozenset(q for q, _, _ in transitions),
        transitions=transitions,
    )


def branch(k: int, loops=None) -> OneWayTransducer:
    """double.json with k branches: on an a, q0 guesses q1..qk, and qi
    outputs loops[i - 1] (by default y^i) per a until the i-th of b, c,
    d, ... closes the run; q0 and q1 are final.  For k = 3 the compatible
    sets nest three deep, so on a long a-run theta counters overflow below
    {q1, q3}, a path that is then not close."""
    if loops is None:
        loops = ["y" * i for i in range(1, k + 1)]
    closers = "bcdefghij"[:k]
    transitions = {}
    for i, (c, loop) in enumerate(zip(closers, loops), start=1):
        q = f"q{i}"
        transitions[("q0", c, "q0")] = (c,)
        transitions[("q0", "a", q)] = transitions[(q, "a", q)] = tuple(loop)
        transitions[(q, c, "q0")] = (c,)
    return OneWayTransducer(
        input_alphabet=frozenset("a" + closers),
        output_alphabet=frozenset("".join(loops) + closers),
        states=frozenset(f"q{i}" for i in range(k + 1)),
        initial=frozenset({"q0"}),
        final=frozenset({"q0", "q1"}),
        transitions=transitions,
    )


def kflush_sst(registers: int, K: int) -> sst.StreamingTransducer:
    """One state p.  Letter i (1 <= i <= registers) appends i to register
    r_i; letter b appends every register K times to out, then b, and
    empties the registers.  With K >= 2 the machine copies, so it is
    K-bounded but not copyless.  The benchmark builds the same machine."""
    regs = [f"r{i}" for i in range(1, registers + 1)]
    letters = [str(i) for i in range(1, registers + 1)]
    updates = [{"state": "p", "letter": a,
                "assign": {r: f"${r} {a}" for r, b in zip(regs, letters) if b == a}}
               for a in letters]
    flush = "$out" + "".join(f"${r}" * K for r in regs) + " b"
    updates.append({"state": "p", "letter": "b",
                    "assign": {"out": flush, **{r: "" for r in regs}}})
    alphabet = letters + ["b"]
    return sst.from_dict({
        "input_alphabet": alphabet,
        "output_alphabet": alphabet,
        "states": ["p"],
        "initial": "p",
        "registers": ["out"] + regs,
        "out": "out",
        "delta": [{"state": "p", "letter": a, "to": "p"} for a in alphabet],
        "updates": updates,
    })


def ambiguous_machine() -> OneWayTransducer:
    # two accepting runs over (a)^w
    return OneWayTransducer(
        input_alphabet=frozenset("a"),
        output_alphabet=frozenset("xy"),
        states=frozenset({"p", "q"}),
        initial=frozenset({"p", "q"}),
        final=frozenset({"p", "q"}),
        transitions={
            ("p", "a", "p"): word("x"),
            ("q", "a", "q"): word("y"),
        },
    )


def from_edges(edges, initial, final) -> OneWayTransducer:
    """The machine with transitions (p, a, q, out), out a string; the
    alphabets and states are those the edges use."""
    return OneWayTransducer(
        input_alphabet=frozenset(a for _, a, _, _ in edges),
        output_alphabet=frozenset("".join(out for *_, out in edges)),
        states=frozenset(q for p, _, q2, _ in edges for q in (p, q2)),
        initial=frozenset(initial),
        final=frozenset(final),
        transitions={(p, a, q): word(out) for p, a, q, out in edges},
    )


def nonclose_machine() -> OneWayTransducer:
    """Continuous, with theta length 2: on an a, q0 guesses p1, p2 or p3,
    which output y, yy and y per a; b sends p1 and p2 on to s1 and s2, c
    sends p3 to s3.  p1 and s1 are final.  On a^n b (a)^w the b drops p3
    but keeps p1 and p2 under a subtree whose theta counters overflowed
    on a long a-run (n >= 10), so the determinizer preprocesses a pre-image
    that is not close."""
    edges = [("q0", "a", "p1", "y"), ("q0", "a", "p2", "y"),
             ("q0", "a", "p3", "y"), ("p1", "a", "p1", "y"),
             ("p2", "a", "p2", "yy"), ("p3", "a", "p3", "y"),
             ("p1", "b", "s1", "y"), ("p2", "b", "s2", ""),
             ("p3", "c", "s3", "y"), ("s1", "a", "s1", "y"),
             ("s2", "a", "s2", "y"), ("s2", "h", "q0", "y"),
             ("s3", "i", "q0", "")]
    return from_edges(edges, {"q0"}, {"p1", "s1"})


def multitail_machine() -> OneWayTransducer:
    """Continuous, with theta length 2: on an a, q0 guesses p1 or p2, which
    output y and yy per a; on a d, p1 also guesses r, whose run needs e's.
    On a^n d (a)^w with n >= 4 the d is an aligned step from {p1, p2} into
    {p1, p2, r}, and a tree path there ends in two sets whose pre-image is
    {p1}: the determinizer gives that path fresh counters and an empty
    register."""
    edges = [("q0", "a", "p1", "y"), ("q0", "a", "p2", "yy"),
             ("q0", "b", "q0", "b"), ("q0", "c", "q0", "c"),
             ("p1", "a", "p1", "y"), ("p1", "b", "q0", "b"),
             ("p1", "d", "p1", "y"), ("p1", "d", "r", "y"),
             ("p2", "a", "p2", "yy"), ("p2", "c", "q0", "c"),
             ("p2", "d", "p2", "yy"), ("r", "a", "r", "y"),
             ("r", "e", "s", "y"), ("s", "e", "s", "y")]
    return from_edges(edges, {"q0"}, {"q0", "p1", "s"})


def lagging_preimage_machine() -> OneWayTransducer:
    """Continuous, with the output 12 0^w on every word of its domain: on
    an s, q0 guesses p (output 12), r (output 1) or z (no output).  p
    outputs 0 per 0 and r and z nothing, so {p, r, z} is separable, and
    the only lasso on which all three run, e 0^w, gives z the future
    12 0^w: the looping future has the transient 12, which r has half
    output and z not at all.  On s 0^n y (0)^w the y keeps only r: the
    pre-image {r} is close, having no tree paths below it, and r lags.
    A lagging state needs a looping future with a transient, made here
    by loops that output nothing; 5,000 random_machine and branch draws
    of at most 6 states never gave one."""
    edges = [("q0", "s", "p", "12"), ("q0", "s", "r", "1"),
             ("q0", "s", "z", ""),
             ("p", "0", "p", "0"), ("p", "e", "p2", ""),
             ("p2", "0", "p2", "0"),
             ("r", "0", "r", ""), ("r", "e", "r2", "2"),
             ("r", "y", "g", "2"), ("r2", "0", "r2", "0"),
             ("r2", "y", "g", "0"),
             ("z", "0", "z", ""), ("z", "e", "z2", "12"),
             ("z2", "0", "z2", "0"), ("z2", "x", "g", "0"),
             ("g", "0", "g", "0")]
    return from_edges(edges, {"q0"}, {"p2", "g"})


def unconstrained_future_machine() -> OneWayTransducer:
    """Unambiguous and continuous.  On (aab)^w a run that b sends from s2
    to s1 (with yy) is back at s2 after the next b, and s2 reads no a, so
    it dies: the invariant checker must not hold such a run's future to
    max_lag theta^w, since no step of the determinizer follows it."""
    edges = [("s0", "a", "s0", "yy"), ("s0", "a", "s2", ""),
             ("s1", "a", "s1", "y"), ("s1", "b", "s2", "xyx"),
             ("s2", "b", "s0", ""), ("s2", "b", "s1", "yy")]
    return from_edges(edges, {"s0"}, {"s0"})


def loop_before_anchor_machine() -> OneWayTransducer:
    """Not continuous, and the pair (i, j) must loop on x before the anchor
    (f, g) is reached: the inputs x y z^n w^w tend to x y z^w, whose output
    is a b c^w, but their outputs are b c^n d^w.  A search over simple
    paths from I x I misses it (ROADMAP item 5)."""
    edges = [("i", "x", "i", "a"), ("j", "x", "j", ""), ("i", "y", "f", "b"),
             ("j", "y", "g", "b"), ("f", "z", "f", "c"), ("g", "z", "g", "c"),
             ("g", "w", "h", "d"), ("h", "w", "h", "d")]
    return from_edges(edges, "ij", "fh")


def loop_at_the_anchor_machine() -> OneWayTransducer:
    """Not continuous, with two states: the inputs b a^n c a^w tend to
    b a^w, whose output is yy x^w, but their outputs yyy x^n y x^w tend to
    yyy x^w.  The pair (s0, s1) must take its b-loop before the a-loop at
    the same anchor, and a simple path takes neither (ROADMAP item 5)."""
    edges = [("s0", "a", "s0", "x"), ("s0", "b", "s0", "yy"),
             ("s1", "a", "s1", "x"), ("s1", "b", "s1", "yyy"),
             ("s1", "c", "s0", "y")]
    return from_edges(edges, {"s0", "s1"}, {"s0"})


def diamond(n: int) -> OneWayTransducer:
    """Unambiguous and continuous: two chains p0 ... pn and q0 ... qn from
    I = {p0, q0}, with a/x and b/y at every step, so the pair square has
    2^n simple paths to (pn, qn).  pn loops on c/x and qn on d/x, and both
    are final; c after qn, and d after pn, lead to non-final loops.  Every
    output after the chain is x^w (ROADMAP item 5)."""
    edges = [(f"{s}{i}", a, f"{s}{i + 1}", out) for s in "pq"
             for i in range(n) for a, out in (("a", "x"), ("b", "y"))]
    edges += [(f"p{n}", "c", f"p{n}", "x"), (f"q{n}", "d", f"q{n}", "x"),
              (f"q{n}", "c", "qc", "x"), ("qc", "c", "qc", "x"),
              (f"p{n}", "d", "pd", "x"), ("pd", "d", "pd", "x")]
    return from_edges(edges, {"p0", "q0"}, {f"p{n}", f"q{n}"})


# Ambiguous and not continuous: on a b^w the runs from s0 and s1 output
# x y^w and y^w.  Which constant-state witness the pair search found first
# used to depend on the iteration order of the alphabet and initial-state
# frozensets, so the normal form changed with the hash seed.
HASH_ORDER_MACHINE = {
    "input_alphabet": ["a", "b"],
    "output_alphabet": ["x", "y"],
    "states": ["s0", "s1"],
    "initial": ["s0", "s1"],
    "final": ["s0", "s1"],
    "transitions": [
        {"from": "s0", "letter": "a", "to": "s0", "out": ""},
        {"from": "s0", "letter": "a", "to": "s1", "out": "x"},
        {"from": "s0", "letter": "b", "to": "s0", "out": ""},
        {"from": "s0", "letter": "b", "to": "s1", "out": "x"},
        {"from": "s1", "letter": "a", "to": "s1", "out": ""},
        {"from": "s1", "letter": "b", "to": "s1", "out": "y"},
    ],
}


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def small_machines(draw):
    """A partial, possibly nondeterministic machine: each state gets zero
    to two targets per letter.  Sets whose subsets are incompatible are
    rare among these; lasso_branch_machines below is built to have them."""
    n = draw(st.integers(2, 5))
    states = [f"s{i}" for i in range(n)]
    outs = st.sampled_from(["", "x", "y", "xy"])
    transitions = {}
    for q in states:
        for a in "ab":
            for q2 in sorted(draw(st.sets(st.sampled_from(states), max_size=2))):
                transitions[(q, a, q2)] = tuple(draw(outs))
    initial = draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))
    final = draw(st.sets(st.sampled_from(states), min_size=1, max_size=n))
    return nft.OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("xy"),
        states=frozenset(states),
        initial=frozenset(initial),
        final=frozenset(final),
        transitions=transitions,
    )


@st.composite
def lasso_branch_machines(draw):
    """i guesses one of 2-4 branches on an a.  A branch is a final state
    looping on one letter, or a non-final stem looping on one letter that
    leaves on another into a final state looping on a third.  Stems loop
    together while their finals cannot, which is where compatibility fails
    to be downward closed; random machines almost never show it."""
    shape = st.tuples(st.booleans(), *[st.sampled_from("ab")] * 3)
    shapes = draw(st.sets(shape, min_size=2, max_size=4))
    states, final, transitions = ["i"], [], {}
    for j, (stem_final, loop, exit_, fin_loop) in enumerate(sorted(shapes)):
        stem, acc = f"q{j}", f"f{j}"
        states.append(stem)
        transitions[("i", "a", stem)] = ("x",)
        transitions[(stem, loop, stem)] = ("x",)
        if stem_final:
            final.append(stem)
        else:
            states.append(acc)
            final.append(acc)
            transitions[(stem, exit_, acc)] = ("x",)
            transitions[(acc, fin_loop, acc)] = ("x",)
    return nft.OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("x"),
        states=frozenset(states),
        initial=frozenset({"i"}),
        final=frozenset(final),
        transitions=transitions,
    )


@st.composite
def period_branch_machines(draw):
    """double.json with drawn loops: on an a, q0 guesses q1 or q2, which
    output r^m per a until b or c closes the run, for r = x or xy; q1 and
    q2 may be final.  Where {q1, q2} is compatible, an a-run puts the
    determinizer in its separable mode, with Theta up to 12."""
    root = draw(st.sampled_from(["x", "xy"]))
    transitions = {("q0", "b", "q0"): ("b",), ("q0", "c", "q0"): ("c",)}
    for q, c in (("q1", "b"), ("q2", "c")):
        loop = tuple(root * draw(st.integers(1, 3)))
        transitions[("q0", "a", q)] = transitions[(q, "a", q)] = loop
        transitions[(q, c, "q0")] = tuple(draw(st.sampled_from(["", c, "x" + c])))
    return nft.OneWayTransducer(
        input_alphabet=frozenset("abc"),
        output_alphabet=frozenset("xybc"),
        states=frozenset({"q0", "q1", "q2"}),
        initial=frozenset({"q0"}),
        final=frozenset({"q0"} | draw(st.sets(st.sampled_from(["q1", "q2"])))),
        transitions=transitions,
    )


@st.composite
def cycle_branch_machines(draw):
    """On an a, q0 guesses one of two or three branches.  Branch i runs an
    a-cycle through one or two states with drawn outputs and returns to q0
    on its own letter; any branch state may be final.  Their separable
    sets can need loops of several edges."""
    letters = "bcd"[:draw(st.integers(2, 3))]
    states, transitions = ["q0"], {}
    outs = st.sampled_from(["x", "y", "yy", "xyx"])
    for i, c in enumerate(letters, start=1):
        cycle = [f"q{i}", f"r{i}"][:draw(st.integers(1, 2))]
        states += cycle
        transitions[("q0", c, "q0")] = (c,)
        transitions[("q0", "a", cycle[0])] = tuple(draw(st.sampled_from(["", "x"])))
        for p, p2 in zip(cycle, cycle[1:] + cycle[:1]):
            transitions[(p, "a", p2)] = tuple(draw(outs))
        transitions[(cycle[-1], c, "q0")] = (c,)
    return nft.OneWayTransducer(
        input_alphabet=frozenset("a" + letters),
        output_alphabet=frozenset("xy" + letters),
        states=frozenset(states),
        initial=frozenset({"q0"}),
        final=frozenset({"q0"} | draw(st.sets(st.sampled_from(states[1:])))),
        transitions=transitions,
    )


@st.composite
def deterministic_machines(draw):
    """One initial state and at most one transition per state and letter."""
    n = draw(st.integers(1, 5))
    states = [f"s{i}" for i in range(n)]
    transitions = {}
    for q in states:
        for a in "ab":
            q2 = draw(st.sampled_from(states + [None]))
            if q2 is not None:
                transitions[(q, a, q2)] = tuple(
                    draw(st.sampled_from(["", "x", "y", "xy"])))
    return OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("xy"),
        states=frozenset(states),
        initial=frozenset({draw(st.sampled_from(states))}),
        final=frozenset(draw(st.sets(st.sampled_from(states), min_size=1))),
        transitions=transitions,
    )


@st.composite
def copyless_ssts(draw):
    """A copyless SST over a and b: 2-3 states, a total delta, out and 1-3
    registers.  Some state is entered from two different reachable states,
    so lookbehind pairs (p, q) with different p share q.  Each update moves
    every register into at most one image, mixes in constants and appends
    the letter to out."""
    states = [f"q{i}" for i in range(draw(st.integers(2, 3)))]
    regs = [f"r{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    images = ["out"] + regs
    delta, updates = {}, {}
    for q in states:
        for a in "ab":
            delta[(q, a)] = draw(st.sampled_from(states))
            imgs = {r: [] for r in images}
            for r in draw(st.permutations(regs)):
                home = draw(st.sampled_from(images + [None]))
                if home is not None:
                    imgs[home].append(sst.Reg(r))
                imgs[draw(st.sampled_from(images))].extend(
                    draw(st.sampled_from(["", "x", "y", "xy"])))
            imgs["out"] = [sst.Reg("out")] + imgs["out"] + [a]
            updates[(q, a)] = sst.Substitution(
                {r: tuple(v) for r, v in imgs.items()})
    reached = ["q0"]
    for q in reached:
        reached += sorted({delta[(q, a)] for a in "ab"} - set(reached))
    preds = {}
    for (p, _), q in delta.items():
        if p in reached:
            preds.setdefault(q, set()).add(p)
    assume(any(len(ps) > 1 for ps in preds.values()))
    return sst.StreamingTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("abxy"),
        states=frozenset(states),
        initial="q0",
        registers=frozenset(images),
        out="out",
        delta=delta,
        updates=updates,
    )


# -- seeded generators -------------------------------------------------------


def random_machine(rng, max_states=6):
    """1 to max_states states over {a, b}, zero to two targets per state
    and letter, one or two initial states and any nonempty final set:
    ambiguous machines and states with no move on a letter are common."""
    states = [f"s{i}" for i in range(rng.randint(1, max_states))]
    fanout = min(2, len(states))
    return OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("xy"),
        states=frozenset(states),
        initial=frozenset(rng.sample(states, rng.randint(1, fanout))),
        final=frozenset(rng.sample(states, rng.randint(1, len(states)))),
        transitions={(q, a, q2): word(rng.choice(["", "x", "y", "xy"]))
                     for q in states for a in "ab"
                     for q2 in rng.sample(states, rng.randint(0, fanout))},
    )


nondeterministic_machines = st.randoms(use_true_random=False).map(
    random_machine)


def constant_output_machine(rng):
    """2-5 states over {a, b}, two of them initial, zero to two targets
    per state and letter.  It only outputs x, so its function is the
    constant x^w on its domain, which is continuous."""
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    transitions = {
        (q, a, q2): tuple(rng.choice(["", "x"]))
        for q in states
        for a in "ab"
        for q2 in rng.sample(states, rng.choice([0, 1, 1, 2]))
    }
    return OneWayTransducer(
        input_alphabet=frozenset("ab"),
        output_alphabet=frozenset("xy"),
        states=frozenset(states),
        initial=frozenset(rng.sample(states, 2)),
        final=frozenset(rng.sample(states, rng.randint(1, len(states)))),
        transitions=transitions,
    )


# -- machines tagged continuous or not --------------------------------------


@st.composite
def normalize_like_machines(draw):
    """normalize.json with drawn outputs; not continuous.  0 1^w has one
    accepting run, q0 -0/a1-> q1 and then the loop 1/b1, with b1 = 0 or
    00.  The inputs 0 1^k 0 (0)^w tend to 0 1^w, but their runs go
    q0 -0/a2-> q2 and loop on 1/b3 there, and every b3 holds a 1, so their
    outputs do not tend to a1 b1^w."""
    a0 = draw(st.sampled_from(["0", "1", "01"]))
    a1, a2, b2 = (draw(st.sampled_from(["", "0", "1"])) for _ in range(3))
    b1 = draw(st.sampled_from(["0", "00"]))
    b3 = draw(st.sampled_from(["1", "01", "11"]))
    edges = [("q0", "0", "q0", a0), ("q0", "0", "q1", a1),
             ("q0", "0", "q2", a2), ("q1", "1", "q1", b1),
             ("q2", "1", "q0", b2), ("q2", "1", "q2", b3)]
    return OneWayTransducer(
        input_alphabet=frozenset("01"),
        output_alphabet=frozenset("01"),
        states=frozenset({"q0", "q1", "q2"}),
        initial=frozenset({"q0", "q2"}),
        final=frozenset({"q0", "q1"}),
        transitions={(p, a, q): word(out) for p, a, q, out in edges},
    )


# distinct primitive words, so no two have the same omega-power
ROOTS = ["x", "y", "xy", "yx", "xxy"]


@st.composite
def root_branch_machines(draw, continuous):
    """branch(k), 2 <= k <= 4, whose loops are drawn powers of one drawn
    root: a^n c_i and a^w then output powers of that root, a continuous
    function, and sets of branches whose loops differ in length are
    separable.  When not `continuous`, the loop of one branch other than
    the final q1 is a power of another root: the outputs of a^n c_i tend
    to its omega-power, not to the output of a^w."""
    k = draw(st.integers(2, 4))
    root = draw(st.sampled_from(ROOTS))
    loops = [root * draw(st.integers(1, 3)) for _ in range(k)]
    if not continuous:
        other = draw(st.sampled_from([r for r in ROOTS if r != root]))
        loops[draw(st.integers(1, k - 1))] = other * draw(st.integers(1, 3))
    return branch(k, loops)


def tagged_machines():
    """(machine, continuous) pairs, where the construction fixes the tag.
    Continuous: deterministic machines (sequential functions), constant
    x^w machines, and branch machines on one root.  Not continuous:
    normalize.json with drawn outputs, and branch machines on two roots.
    Constant x^w machines may be ambiguous."""
    return st.one_of(
        deterministic_machines().map(lambda T: (T, True)),
        st.randoms(use_true_random=False).map(
            lambda rng: (constant_output_machine(rng), True)),
        root_branch_machines(continuous=True).map(lambda T: (T, True)),
        normalize_like_machines().map(lambda T: (T, False)),
        root_branch_machines(continuous=False).map(lambda T: (T, False)),
    )


# -- references the tests compare against ------------------------------------


def reference_cover(ctx, S, buffer, position, max_lookahead):
    """annotator.cover on state sets: each image is one nft.push per
    letter, where cover ORs per-letter target masks."""
    S = frozenset(S)
    pairs = [[c, c] for c in ctx.comp_subsets(S)]
    frontier = S
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
        frontier = nft.push(ctx.T, frontier, (a,))
        for entry in pairs:
            entry[0] = nft.push(ctx.T, entry[0], (a,))
        pairs = [e for e in pairs if e[0]]
        j += 1
    raise _no_cover(position, S)


def reference_annotate(ctx, source, max_lookahead=None):
    """annotator.annotate on a stream, on state sets: the committed set
    is pushed with nft.push, and each cover is reference_cover's, where
    annotate advances the committed set's bits and hands cover the
    frontier's."""
    T = ctx.T
    buf = _Buffer(source, T.input_alphabet)
    found = reference_cover(ctx, T.initial, buf, 0, max_lookahead)
    if found is None:
        return
    good = found[1]
    yield good
    pos = 0
    while True:
        a = buf.get(pos)
        if a is None:
            return
        frontier = nft.push(T, good, (a,))
        if not frontier:
            raise _no_cover(pos + 1, good)
        pos += 1
        found = reference_cover(ctx, frontier, buf, pos, max_lookahead)
        if found is None:
            return
        good = found[1]
        buf.drop_before(pos)
        yield (a, good)


def advances(sa):
    """A step's productions less their common prefix."""
    common = reduce(lcp_finite, sa.val.values())
    return {q: w[len(common):] for q, w in sa.val.items()}


@dataclass(frozen=True)
class BuchiAutomaton:
    """Deterministic Buchi automaton; partial delta (missing = reject)."""

    alphabet: FrozenSet[object]
    states: FrozenSet[object]
    initial: object
    accepting: FrozenSet[object]
    delta: Dict[Tuple[object, object], object] = field(hash=False)

    def accepts(self, x: UPWord) -> bool:
        u, v = x.prefix, x.period
        q = self.initial
        for a in u:
            q = self.delta.get((q, a))
            if q is None:
                return False
        seen = {q: 0}
        accept_positions = []
        k = 0
        while True:
            hit = False
            for a in v:
                nxt = self.delta.get((q, a))
                if nxt is None:
                    return False
                hit = hit or (q in self.accepting)
                q = nxt
            hit = hit or (q in self.accepting)
            accept_positions.append(hit)
            k += 1
            if q in seen:
                k0 = seen[q]
                return any(accept_positions[k0:])
            seen[q] = k


def domain_automaton(S: StreamingTransducer) -> BuchiAutomaton:
    """DBA for the domain of S: the machine's state plus the emptiness vector
    of its registers; accepting right after a transition appended a
    non-empty value to out."""
    init = (S.initial, frozenset(), False)
    states = {init}
    delta = {}
    stack = [init]
    while stack:
        st = stack.pop()
        q, nonempty, _ = st
        for a in S.input_alphabet:
            key = (q, a)
            if key not in S.delta:
                continue
            parts = S.updates[key].parts

            def grows(r, skip=0):
                """Whether r's image, past its first skip tokens, is non-empty."""
                chunks, refs = parts.get(r, EMPTY_PARTS)
                return any(chunks) or any(t in nonempty for t in refs[skip:])

            emitted = grows(S.out, skip=1)
            new_nonempty = frozenset(r for r in parts if r != S.out and grows(r))
            if emitted or S.out in nonempty:
                new_nonempty |= {S.out}
            nxt = (S.delta[key], new_nonempty, emitted)
            delta[(st, a)] = nxt
            if nxt not in states:
                states.add(nxt)
                stack.append(nxt)
    return BuchiAutomaton(
        alphabet=S.input_alphabet,
        states=frozenset(states),
        initial=init,
        accepting=frozenset(s for s in states if s[2]),
        delta=delta,
    )


def validate_forest(
    levels: Sequence[Sequence[Dict[str, int]]],
    sigmas: Sequence[Substitution],
    K: int,
) -> bool:
    """Check a decomposition forest given as per-depth label sets.

    ``sigmas[d]`` is the segment substitution between depth d and depth d+1.
    Verifies distinct in-range labels per depth, the parent equation for
    every node below the roots, and that non-leaf nodes have a child.
    """
    if len(sigmas) != len(levels) - 1:
        raise ConversionError("need one substitution per consecutive depth pair")
    regs = sorted(r for r in levels[0][0]) if levels[0] else []
    for d, level in enumerate(levels):
        seen = set()
        for g in level:
            key = tuple(g[r] for r in regs)
            if key in seen:
                raise ConversionError(f"duplicate label at depth {d}: {g}")
            seen.add(key)
            if any(not (0 <= v <= K) for v in key):
                raise ConversionError(f"label out of range at depth {d}: {g}")
    for d in range(1, len(levels)):
        sigma = sigmas[d - 1]
        parents = {
            tuple(g[r] for r in regs) for g in levels[d - 1]
        }
        with_child = set()
        for h in levels[d]:
            par = tuple(
                sum(
                    sigma.parts.get(s, EMPTY_PARTS)[1].count(r) * h[s]
                    for s in regs
                )
                for r in regs
            )
            if par not in parents:
                raise ConversionError(
                    f"node {h} at depth {d} has no parent {par} at depth {d-1}"
                )
            with_child.add(par)
        if with_child != parents:
            raise ConversionError(
                f"childless non-leaf node(s) at depth {d-1}: "
                f"{sorted(parents - with_child)}"
            )
    return True
