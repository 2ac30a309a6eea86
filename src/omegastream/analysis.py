"""Structural analysis of unambiguous transducers over omega-words.

Everything here works on a normalized (unambiguous, clean, trim) machine:
compatible state sets and their witnesses, pre-steps/steps with predecessor
and production maps, the common/advance split of an initial step's
productions, end-words, separability, looping futures (tau, theta), and the
continuity decision itself.

An AnalysisContext memoizes the expensive searches (tuple-product lassos,
compatible subsets, theta) for one machine.
"""

from __future__ import annotations

import itertools
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
    closure,
    product_bfs,
    product_path,
)
from .words import (
    UPWord,
    Word,
    canonicalize,
    concat_up,
    lcp_finite,
    lcm,
    mutual_prefixes,
    up_equal,
    up_starts_with,
    word,
)

FUTURES_LIMIT = 4  # accepting futures compared per anchor by is_continuous


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
    source: FrozenSet[str]
    word: Word
    target: FrozenSet[str]
    pre: Dict[str, str]
    val: Dict[str, Word]
    is_step: bool
    initial: bool


@dataclass
class AdvanceProfile:
    common: Word
    advance: Dict[str, Word]
    max_advance: Word


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


def _tuple_cycle(T: OneWayTransducer, t, weight_idx=None):
    """A cycle t ->+ t in the tuple graph.

    weight_idx: if set to (i, j), require that the cycle's outputs at
    components i and j have different total lengths; the search space then
    carries the running length difference.
    """
    # node: (tuple, weight_diff)
    start = (t, 0)
    parents = {start: None}
    queue = deque([start])
    wcap = None
    if weight_idx is not None:
        wcap = 4 * _max_out_len(T) * (len(T.states) ** len(t) + 2)
    while queue:
        node = queue.popleft()
        tup, diff = node
        for a, nxt, outs in T.tuple_succ(tup):
            d2 = diff
            if weight_idx is not None:
                i, j = weight_idx
                d2 = diff + len(outs[i]) - len(outs[j])
                if abs(d2) > wcap:
                    continue
            key = (nxt, d2)
            if nxt == t and (weight_idx is None or d2 != 0):
                # the bare tuple t is no search key: it marks the end
                # and gives product_path the tuple width
                parents[t] = (node, a, outs)
                letters, outputs, _ = product_path(parents, t)
                return letters, outputs
            if key not in parents:
                if len(parents) >= NODE_BUDGET:
                    raise BudgetExceeded("tuple-cycle search too large")
                parents[key] = (node, a, outs)
                queue.append(key)
    return None


def _max_out_len(T: OneWayTransducer) -> int:
    return max((len(o) for o in T.transitions.values()), default=0)


# -- context -------------------------------------------------------------------


class AnalysisContext:
    """Memoized analysis session for one normalized transducer."""

    def __init__(self, T: OneWayTransducer):
        self.T = T
        self._compat: Dict[FrozenSet[str], Optional[CompatibleSet]] = {}
        self._lattices: Dict[FrozenSet[str], Tuple[FrozenSet[str], ...]] = {}
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
        parents = product_bfs(self.T, [order])
        for t in sorted(parents, key=str):
            if not any(q in self.T.final for q in t):
                continue
            cyc = _tuple_cycle(self.T, t)
            if cyc is None:
                continue
            u, alphas, _ = product_path(parents, t)
            u_loop, loop_alphas = cyc
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
        S = frozenset(S)
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
        searched."""
        if len(C) < 2 or self.is_compatible(C) is None:
            return None
        T = self.T
        order = tuple(sorted(C))
        starts = [tuple(c) for c in itertools.product(sorted(T.initial), repeat=len(order))]
        fwd = product_bfs(T, starts)
        if order not in fwd:
            return None
        rev: Dict[tuple, set] = {}
        for t in fwd:
            for _, nxt, _ in T.tuple_succ(t):
                rev.setdefault(nxt, set()).add(t)
        anchors = sorted(closure([order], lambda t: rev.get(t, ())), key=str)
        for i_idx, j_idx in itertools.combinations(range(len(order)), 2):
            for t in anchors:
                cyc = _tuple_cycle(T, t, weight_idx=(i_idx, j_idx))
                if cyc is not None:
                    _, loop_outs = cyc
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

    def looping_future(self, C, profile: AdvanceProfile) -> LoopingFuture:
        """(tau, theta) bounding all future productions from separable C.

        Both come from the end-word of a zero-advance state r: the step's
        remaining output is exactly advance(q) . end(q) for every q, and the
        zero-advance instance makes that word directly available.  tau is
        its transient prefix, theta the canonical period unrolled to the
        global Theta length.  (tau, theta) is memoized per (C, zero-advance
        state); the profile's continuity check runs on every call.
        """
        C = frozenset(C)
        if self.is_separable(C) is None:
            raise ContractError(f"{sorted(C)} is not separable")
        zero = [q for q in sorted(C) if len(profile.advance[q]) == 0]
        if not zero:
            raise ContractError("no zero-advance state in profile")
        y = self.end_words(C)[zero[0]]
        key = (C, zero[0])
        if key not in self._futures:
            big_theta = self.theta_length()
            if big_theta % len(y.period) != 0:
                raise ContractError("theta pool missed an end-word period")
            k = len(y.prefix)
            self._futures[key] = (y.prefix, y.first(k + big_theta)[k:])
        tau, theta = self._futures[key]
        if not up_starts_with(y, profile.max_advance):
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
    succ = T._by_src().get  # T.succ inlined: this loop is the hot path
    for a in u:
        nxt: Dict[str, tuple] = {}
        for q, (start, count, chain) in runs.items():
            for q2, out in succ((q, a), ()):
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
    image = set(pre.values())
    is_step = image == set(C)
    return StepAnalysis(
        source=C,
        word=u,
        target=D,
        pre=pre,
        val=val,
        is_step=is_step,
        initial=is_step and C <= T.initial,
    )


def advance_profile(sa: StepAnalysis) -> AdvanceProfile:
    """common/advance split of an initial step's productions."""
    if not sa.initial:
        raise ContractError("advance profile requires an initial step")
    vals = [sa.val[q] for q in sorted(sa.target)]
    for x, y in zip(vals, vals[1:]):
        if not mutual_prefixes(x, y):
            raise ContinuityViolation(
                f"productions {x!r} and {y!r} are not mutual prefixes"
            )
    common = reduce(lcp_finite, vals)
    advance = {q: sa.val[q][len(common):] for q in sa.target}
    max_advance = max(advance.values(), key=len)
    return AdvanceProfile(common=common, advance=advance, max_advance=max_advance)


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


def _simple_pair_paths(T: OneWayTransducer, bound: int):
    """DFS over simple product paths from I x I; yields
    (end pair, out1, out2, letters) for every prefix endpoint."""
    starts = sorted(
        {(p, q) for p in T.initial for q in T.initial}, key=str
    )

    def children(node):
        pair, visited, out1, out2, letters = node
        if len(visited) > bound:
            return
        for a, nxt, (o1, o2) in T.tuple_succ(pair):
            if nxt not in visited:
                yield nxt, visited | {nxt}, out1 + o1, out2 + o2, letters + (a,)

    count = 0
    for s in starts:
        for pair, _, out1, out2, letters in _preorder((s, {s}, (), (), ()), children):
            count += 1
            if count > NODE_BUDGET:
                raise BudgetExceeded("continuity path search too large")
            yield pair, out1, out2, letters


def _simple_pair_cycles(T: OneWayTransducer, anchor, bound: int):
    """Simple product cycles at anchor: yields (out1, out2, letters)."""

    def children(node):
        pair, visited, out1, out2, letters = node
        if pair is None or len(letters) > bound:  # a closed cycle, or too long
            return
        for a, nxt, (o1, o2) in T.tuple_succ(pair):
            if nxt == anchor:
                yield None, None, out1 + o1, out2 + o2, letters + (a,)
            elif nxt not in visited:
                yield nxt, visited | {nxt}, out1 + o1, out2 + o2, letters + (a,)

    count = 0
    for pair, _, out1, out2, letters in _preorder(
            (anchor, set(), (), (), ()), children):
        if pair is None:
            yield out1, out2, letters
            continue
        count += 1
        if count > NODE_BUDGET:
            raise BudgetExceeded("continuity cycle search too large")


def accepting_futures(T: OneWayTransducer, q: str) -> List[UPWord]:
    """Up to FUTURES_LIMIT distinct outputs of accepting runs from q."""
    results: List[UPWord] = []
    seen_pref = set()
    frontier = deque([(q, ())])
    visited = {q: 0}
    while frontier and len(results) < FUTURES_LIMIT:
        p, out = frontier.popleft()
        fut = accepting_future(T, p)
        if fut is not None:
            cand = concat_up(out, fut)
            if not any(up_equal(cand, r) for r in results):
                results.append(cand)
        for a, p2, o in T.out_edges(p):
            k = visited.get(p2, 0)
            if k < 2 and (p2, out + o) not in seen_pref:
                visited[p2] = k + 1
                seen_pref.add((p2, out + o))
                frontier.append((p2, out + o))
    return results


def is_continuous(
    T: OneWayTransducer, bound: Optional[int] = None
) -> Tuple[bool, Optional[ContinuityWitness]]:
    """Decide continuity via the synchronized-loop criterion.

    Searches product paths u from a pair of initial states to an anchor
    (q1', q2') with q1' final, and product loops u' at the anchor; the two
    resulting omega-outputs must coincide.  Simple paths/cycles up to
    `bound` (default |Q|^2) suffice in practice; raise the bound to the
    pumping bound for a certificate.
    """
    if bound is None:
        bound = max(4, len(T.states) ** 2)
    checked = set()
    for anchor, out1, out2, path in _simple_pair_paths(T, bound):
        f, q = anchor
        if f not in T.final:
            continue
        key = (anchor, out1, out2)
        if key in checked:
            continue
        checked.add(key)
        for c1, c2, letters in _simple_pair_cycles(T, anchor, bound):
            if len(c1) == 0:
                # a final-visiting silent loop would violate cleanliness;
                # nothing to check against
                continue
            w1 = canonicalize(out1, c1)
            if len(c2) > 0:
                candidates = [canonicalize(out2, c2)]
            else:
                candidates = [concat_up(out2, beta)
                              for beta in accepting_futures(T, q)]
            for w2 in candidates:
                if not up_equal(w1, w2):
                    return False, ContinuityWitness(
                        u=path, u_loop=letters, outputs=(out1, out2),
                        loop_outputs=(c1, c2), words=(w1, w2),
                    )
    return True, None
