"""Structural analysis of unambiguous transducers over omega-words.

Everything here works on a normalized (unambiguous, clean, trim) machine:
compatible state sets and their witnesses, pre-steps/steps with predecessor
and production maps, end-words, separability and looping futures (tau,
theta).
The continuity decision takes any machine and normalizes it itself.

An AnalysisContext memoizes the expensive searches (tuple-product lassos,
compatible subsets and their state masks, theta) for one machine.  The
continuity and separability searches run over nft.product_between's rows,
the tuples between their start tuples and the tuples they look for, and
meet the tuples that matter in the same order as over the whole product.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Dict, FrozenSet, List, Optional, Tuple

from .nft import (  # BudgetExceeded is re-exported for existing imports
    NODE_BUDGET,
    BudgetExceeded,
    ContractError,
    OneWayTransducer,
    accepting_future,
    clean,
    closure,
    product_between,
    product_bfs,
    product_path,
    product_walk,
    trim,
)
from .words import (
    UPWord,
    Word,
    canonicalize,
    concat_up,
    lcm,
    strip_prefix,
    up_equal,
    up_starts_with,
    word,
)


class ContinuityViolation(Exception):
    """Production words that should be mutual prefixes are not."""


@dataclass
class CompatibleSet:
    states: FrozenSet[str]
    d: Dict[str, str]
    u: Word
    u_loop: Word
    alphas: Dict[str, Word]       # outputs along u, per source state
    loop_alphas: Dict[str, Word]  # outputs along the loop, per source state


@dataclass
class StepAnalysis:
    target: FrozenSet[str]
    pre: Dict[str, str]
    val: Dict[str, Word]
    is_step: bool


@dataclass
class LoopingFuture:
    tau: Word
    theta: Word


@dataclass
class SeparabilityWitness:
    loop_outputs: Dict[str, Word]
    unequal_pair: Tuple[str, str]


@dataclass
class ContinuityWitness:
    u: Word
    u_loop: Word
    outputs: Tuple[Word, Word]
    loop_outputs: Tuple[Word, Word]
    words: Tuple[UPWord, UPWord]


# -- tuple-product searches ---------------------------------------------------


def _reverse(rows) -> Dict[tuple, list]:
    """tuple -> its predecessors in the rows of nft.product_between."""
    rev: Dict[tuple, list] = {}
    for t, row in rows.items():
        for _, nxt, _ in row:
            rev.setdefault(nxt, []).append(t)
    return rev


def _unequal_loop(rows, t, i: int, j: int, rev):
    """Per-component outputs of a closed walk through t whose outputs at
    components i and j differ in length; None when there is none.

    Every closed walk through t stays in t's strongly connected component,
    so one exists exactly when the length difference w = |out_i| - |out_j|
    is not a potential difference there.  pot[v] is w summed along the
    breadth-first path t ⇝ v.  An edge u -> v of the component with
    pot[u] + w != pot[v] closes the two walks t ⇝ u -> v ⇝ t and
    t ⇝ v ⇝ t, whose differences differ by that amount; the first of them,
    in that order, with a nonzero difference is the witness (theta_length
    reads its lengths).  rows are product_between's and hold t's
    component; rev is _reverse(rows)."""

    def w(outs):
        return len(outs[i]) - len(outs[j])

    succ = rows.__getitem__
    parents = product_bfs(succ, [t])
    pot = {}
    for v, edge in parents.items():
        pot[v] = 0 if edge is None else pot[edge[0]] + w(edge[2])
    comp = parents.keys() & closure([t], lambda v: rev.get(v, ()))
    for u in parents:
        if u not in comp:
            continue
        for _, v, outs in rows[u]:
            if v not in comp or pot[u] + w(outs) == pot[v]:
                continue
            back = ([()] * len(t) if v == t
                    else product_walk(succ, v, {t})[1])
            _, to_u, _ = product_path(parents, u)
            _, to_v, _ = product_path(parents, v)
            for loop in ([x + o + y for x, o, y in zip(to_u, outs, back)],
                         [x + y for x, y in zip(to_v, back)]):
                if len(loop[i]) != len(loop[j]):
                    return loop
    return None


# -- context -------------------------------------------------------------------


class AnalysisContext:
    """Memoized analysis session for one normalized transducer."""

    def __init__(self, T: OneWayTransducer):
        self.T = T
        self._compat: Dict[FrozenSet[str], Optional[CompatibleSet]] = {}
        self._lattices: Dict[FrozenSet[str], Tuple[FrozenSet[str], ...]] = {}
        self._subset_masks: Dict[FrozenSet[str], Tuple[int, tuple]] = {}
        self._separ: Dict[FrozenSet[str], Optional[SeparabilityWitness]] = {}
        self._ends: Dict[FrozenSet[str], Dict[str, UPWord]] = {}
        self._theta: Optional[int] = None
        self._futures: Dict[Tuple[FrozenSet[str], str], Tuple[Word, Word]] = {}

    # compatible sets ---------------------------------------------------------

    def is_compatible(self, C) -> Optional[CompatibleSet]:
        C = frozenset(C)
        if not C:
            return None
        if C in self._compat:
            return self._compat[C]
        order = tuple(sorted(C))
        res = None
        parents = product_bfs(self.T.tuple_succ, [order])
        for t in sorted(parents, key=str):
            if not any(q in self.T.final for q in t):
                continue
            cyc = product_walk(self.T.tuple_succ, t, {t})
            if cyc is None:
                continue
            u, alphas, _ = product_path(parents, t)
            u_loop, loop_alphas, _ = cyc
            res = CompatibleSet(
                states=C,
                d={order[i]: t[i] for i in range(len(order))},
                u=u,
                u_loop=u_loop,
                alphas={order[i]: tuple(alphas[i]) for i in range(len(order))},
                loop_alphas={order[i]: tuple(loop_alphas[i]) for i in range(len(order))},
            )
            break
        self._compat[C] = res
        return res

    def comp_subsets(self, S) -> Tuple[FrozenSet[str], ...]:
        """The compatible subsets of S, memoized per frontier.

        Order: by size, then ``itertools.combinations`` order over the
        sorted states (the order the determinizer's tree is built in).

        Compatibility is not downward closed: only one component of the
        witness lasso has to be final, so dropping that state can make a
        subset incompatible.  It is downward closed around that state,
        though: if C is compatible through a lasso whose component q is
        final, then every subset of C that contains q is compatible through
        the same lasso.  So a compatible C of size r has at least r - 1
        compatible subsets of size r - 1 (all C - {x} with x != q), and a
        compatible level is never followed by an empty one.  The lattice is
        built level by level on that condition: a candidate is tested only
        when enough of its one-smaller subsets were compatible, and the
        search stops at the first level with no compatible set.  On a
        frontier whose compatible sets are small, this tests polynomially
        many sets instead of all 2^|S| subsets.

        The result is an immutable tuple shared by every caller.
        """
        return self._lattice(frozenset(S))

    def subset_masks(self, S: FrozenSet[str]) -> Tuple[int, Tuple[int, ...]]:
        """(m, masks): the bits of S, and those of each set of
        comp_subsets(S) in its order, over the machine's state numbering
        (OneWayTransducer._masks).  The annotator's cover advances them.
        Built once per frontier, next to its lattice."""
        hit = self._subset_masks.get(S)
        if hit is None:
            names = self.T._masks[0]
            bit = {q: 1 << bisect_left(names, q) for q in S}
            hit = self._subset_masks[S] = (
                sum(bit.values()),
                tuple(sum(bit[q] for q in C) for C in self._lattice(S)))
        return hit

    def _lattice(self, S: FrozenSet[str]) -> Tuple[FrozenSet[str], ...]:
        hit = self._lattices.get(S)
        if hit is None:
            hit = self._lattices[S] = self._build_lattice(sorted(S))
        return hit

    def _build_lattice(self, states) -> Tuple[FrozenSet[str], ...]:
        found: List[Tuple[str, ...]] = []
        level = [(q,) for q in states if self.is_compatible((q,)) is not None]
        while level:
            found.extend(level)
            # support[C]: how many compatible one-smaller subsets C has
            support: Dict[Tuple[str, ...], int] = {}
            for sub in level:
                for q in states:
                    if q not in sub:
                        cand = tuple(sorted(sub + (q,)))
                        support[cand] = support.get(cand, 0) + 1
            need = len(level[0])
            level = [cand for cand in sorted(support)
                     if support[cand] >= need
                     and self.is_compatible(cand) is not None]
        return tuple(frozenset(t) for t in found)

    # steps --------------------------------------------------------------------

    def analyze_step(self, C, u, D) -> Optional[StepAnalysis]:
        return analyze_step(self.T, C, u, D)

    # ends ----------------------------------------------------------------------

    def end_words(self, C) -> Dict[str, UPWord]:
        C = frozenset(C)
        if C in self._ends:
            return self._ends[C]
        w = self.is_compatible(C)
        if w is None:
            raise ContractError(f"{sorted(C)} is not compatible")
        ends = {}
        for q in sorted(C):
            a, al = w.alphas[q], w.loop_alphas[q]
            if len(al) > 0:
                ends[q] = canonicalize(a, al)
            else:
                beta = accepting_future(self.T, w.d[q])
                if beta is None:
                    raise ContractError(f"state {w.d[q]} has no accepting future")
                ends[q] = concat_up(a, beta)
        self._ends[C] = ends
        return ends

    # separability ----------------------------------------------------------------

    def is_separable(self, C) -> Optional[SeparabilityWitness]:
        C = frozenset(C)
        if C in self._separ:
            return self._separ[C]
        res = self._search_separable(C)
        self._separ[C] = res
        return res

    def _search_separable(self, C) -> Optional[SeparabilityWitness]:
        """A cycle through a tuple reachable from I^|C| that reaches C's
        sorted tuple, with outputs of unequal lengths at some pair of
        components; None when there is none.  A cycle's length difference
        at (j, i) is minus its difference at (i, j), so only i < j is
        searched.  Every search runs over product_between's rows from
        I^|C| to C's tuple: a cycle through such a tuple stays among
        them."""
        if len(C) < 2 or self.is_compatible(C) is None:
            return None
        T = self.T
        order = tuple(sorted(C))
        starts = list(itertools.product(sorted(T.initial), repeat=len(order)))
        rows = product_between(T, starts, [order])
        rev = _reverse(rows)
        anchors = sorted(rows, key=str)
        for i_idx, j_idx in itertools.combinations(range(len(order)), 2):
            for t in anchors:
                loop_outs = _unequal_loop(rows, t, i_idx, j_idx, rev)
                if loop_outs is not None:
                    return SeparabilityWitness(
                        loop_outputs={q: tuple(o) for q, o in zip(order, loop_outs)},
                        unequal_pair=(order[i_idx], order[j_idx]),
                    )
        return None

    # theta ---------------------------------------------------------------------

    def theta_length(self) -> int:
        """The global period length Theta shared by all looping futures.

        Computed once per machine: the lcm of every loop-output length and
        end-word period length arising from separable compatible sets.  It
        is the shortest length that all of them divide, so the determinizer
        releases output as soon as it is certain.
        """
        if self._theta is None:
            pool = {1}
            for C in self.comp_subsets(self.T.states):
                w = self.is_separable(C)
                if w is None:
                    continue
                compat = self.is_compatible(C)
                pool |= {len(o) for o in w.loop_outputs.values() if len(o) > 0}
                pool |= {len(o) for o in compat.loop_alphas.values() if len(o) > 0}
                pool |= {len(e.period) for e in self.end_words(C).values()}
            self._theta = reduce(lcm, pool)
        return self._theta

    def looping_future(self, C, advance: Dict[str, Word]) -> LoopingFuture:
        """(tau, theta) bounding all future productions from separable C,
        given each state's advance: its production less the part common to
        all of C.

        Both come from the end-word of a zero-advance state r: the step's
        remaining output is exactly advance(q) . end(q) for every q, and the
        zero-advance instance makes that word directly available.  tau is
        its transient prefix, theta the canonical period unrolled to the
        global Theta length.  (tau, theta) is memoized per (C, zero-advance
        state); the check that the longest advance is a prefix of that
        end-word, which fails only on a machine that is not continuous,
        runs on every call.
        """
        C = frozenset(C)
        if self.is_separable(C) is None:
            raise ContractError(f"{sorted(C)} is not separable")
        zero = [q for q in sorted(C) if len(advance[q]) == 0]
        if not zero:
            raise ContractError("no zero-advance state")
        y = self.end_words(C)[zero[0]]
        key = (C, zero[0])
        if key not in self._futures:
            big_theta = self.theta_length()
            if big_theta % len(y.period) != 0:
                raise ContractError("theta pool missed an end-word period")
            k = len(y.prefix)
            self._futures[key] = (y.prefix, y.first(k + big_theta)[k:])
        tau, theta = self._futures[key]
        if not up_starts_with(y, max(advance.values(), key=len)):
            raise ContinuityViolation(
                "max advance escapes the looping future; machine not continuous?"
            )
        return LoopingFuture(tau=tau, theta=theta)


# -- step analysis (context-free) ----------------------------------------------


def analyze_step(T: OneWayTransducer, C, u, D) -> Optional[StepAnalysis]:
    """pre/val maps of the (pre-)step C, u, D; None when some target state
    has no u-run from C or the run is not unique."""
    C = frozenset(C)
    D = frozenset(D)
    u = word(u)
    # per state: (start, runs capped at 2, output chain), where a chain is
    # None or (previous chain, one transition's output); a state reached
    # twice is ambiguous whatever its runs' starts and outputs, so one
    # entry per state suffices and each letter costs O(transitions)
    runs: Dict[str, tuple] = {q: (q, 1, None) for q in C}
    index = T._by_letter  # T.succ inlined, no key tuple: the hot path
    for a in u:
        nxt: Dict[str, tuple] = {}
        for q, (start, count, chain) in runs.items():
            for q2, out in index.get(q, {}).get(a, ()):
                if q2 in nxt:
                    nxt[q2] = (start, 2, chain)
                else:
                    nxt[q2] = (start, count, (chain, out) if out else chain)
        runs = nxt
    pre = {}
    val = {}
    for q in D:
        start, count, chain = runs.get(q, (None, 0, None))
        if count != 1:
            return None
        outs = []
        while chain is not None:
            chain, out = chain
            outs.append(out)
        outs.reverse()
        pre[q] = start
        val[q] = tuple(itertools.chain.from_iterable(outs))
    return StepAnalysis(target=D, pre=pre, val=val,
                        is_step=set(pre.values()) == C)


# -- continuity ------------------------------------------------------------------


def _preorder(root, children):
    """The nodes of the tree below root in depth-first preorder, without
    recursion: a node's children(node) are expanded after it is yielded."""
    stack = [iter([root])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        else:
            yield node
            stack.append(children(node))


def _simple_pair_paths(rows, starts):
    """DFS over the simple paths of the pair graph `rows` (product_between's)
    from each start in it in turn; yields (end pair, out1, out2, letters)
    for every path, the empty path at each start included.  Raises
    BudgetExceeded past NODE_BUDGET paths."""

    def children(node):
        pair, visited, out1, out2, letters = node
        for a, nxt, (o1, o2) in rows[pair]:
            if nxt not in visited:
                yield nxt, visited | {nxt}, out1 + o1, out2 + o2, letters + (a,)

    count = 0
    for s in starts:
        if s not in rows:
            continue
        for pair, _, out1, out2, letters in _preorder((s, {s}, (), (), ()), children):
            count += 1
            if count > NODE_BUDGET:
                raise BudgetExceeded("continuity path search too large")
            yield pair, out1, out2, letters


def _simple_pair_loops(rows, anchor):
    """Simple loops at anchor, each a simple path from it plus one edge
    back to it, in the pair graph `rows`: yields (out1, out2, letters)."""
    for pair, out1, out2, letters in _simple_pair_paths(rows, [anchor]):
        for a, nxt, (o1, o2) in rows[pair]:
            if nxt == anchor:
                yield out1 + o1, out2 + o2, letters + (a,)


def _replay(found, more):
    """The items of `found`, then those the generator `more` goes on to
    yield, each appended to `found` as it comes.  So a second pass over a
    search repeats what the first one met without searching again, and
    goes on where it stopped; the search meets its items, and its
    BudgetExceeded point, once."""
    yield from found
    for item in more:
        found.append(item)
        yield item


def _diverging_future(T: OneWayTransducer, q: str, head: Word,
                      w: UPWord) -> Optional[UPWord]:
    """head.gamma.beta for the first run from q, breadth-first, whose output
    gamma makes head.gamma no prefix of w, beta an accepting future of the
    run's end state; None when no run from q does.

    The search is over (state, rest of w after head.gamma).  The rests are
    canonical suffixes of the ultimately periodic w, so there are finitely
    many of them."""
    if not up_starts_with(w, head):
        return concat_up(head, accepting_future(T, q))
    start = (q, strip_prefix(w, head))
    seen = {start}
    queue = deque([(start, head)])
    while queue:
        (p, rest), out = queue.popleft()
        for _, p2, o in T.out_edges(p):
            if not up_starts_with(rest, o):
                return concat_up(out + o, accepting_future(T, p2))
            node = (p2, strip_prefix(rest, o))
            if node not in seen:
                seen.add(node)
                queue.append((node, out + o))
    return None


def is_continuous(T: OneWayTransducer) -> Tuple[bool, Optional[ContinuityWitness]]:
    """Continuity of T by the synchronized-loop criterion, decided on
    clean(trim(T)), where every run extends to an accepting one with an
    infinite output.

    It searches every simple path u of the pair graph from I x I to an
    anchor (f, q) with f final, with outputs out1 and out2, and every
    simple loop u' at the anchor, with outputs c1 and c2; c1 is not empty,
    since the loop passes the final f of a clean machine.  The inputs
    u u'^n v converge to u u'^w, whose output is w1 = out1 c1^w, so
    - when c2 is not empty, out2 c2^w must be w1;
    - when c2 is empty, every run from q must output a prefix of
      out2^-1 w1, which `_diverging_future` decides exactly.
    The first pair of different words is the witness.  Paths that take a
    loop before they reach the anchor are not simple and are not searched.

    The paths run over T.square(), the pairs on a walk from I x I to a
    pair with a final first state, and the loops over its pairs that
    reach the anchor.  Every pair on a path to an anchor, or on a loop
    through it, is among them, so the searches meet the same paths in the
    same order as over the whole pair graph (see nft.product_between).

    Each anchor's loops are searched once, however many paths reach it:
    the loops found so far are kept with the search that goes on from
    there (`_replay`), never the whole list, so a witness among the first
    loops still comes before the search's BudgetExceeded point.  A pair
    with out1 = out2 and c1 = c2 is skipped before any word is built:
    c1 is not empty, so it is no silent loop, and equal words have equal
    limits.  On replace_k, whose square holds only pairs (q, q), that is
    every pair.
    """
    T = clean(trim(T))
    rows = T.square()
    starts = sorted(itertools.product(T.initial, repeat=2), key=str)
    checked = set()
    rev = _reverse(rows)
    loops: Dict[tuple, tuple] = {}  # anchor -> (loops found, their search)
    for anchor, out1, out2, path in _simple_pair_paths(rows, starts):
        f, q = anchor
        if f not in T.final or (anchor, out1, out2) in checked:
            continue
        checked.add((anchor, out1, out2))
        if anchor not in loops:
            back = closure([anchor], lambda pair: rev.get(pair, ()))
            loops[anchor] = [], _simple_pair_loops(
                {pair: [e for e in rows[pair] if e[1] in back] for pair in back},
                anchor)
        for c1, c2, letters in _replay(*loops[anchor]):
            if c1 == c2 and out1 == out2:
                continue
            w1 = canonicalize(out1, c1)
            w2 = (canonicalize(out2, c2) if c2
                  else _diverging_future(T, q, out2, w1))
            if w2 is not None and not up_equal(w1, w2):
                return False, ContinuityWitness(
                    u=path, u_loop=letters, outputs=(out1, out2),
                    loop_outputs=(c1, c2), words=(w1, w2),
                )
    return True, None
