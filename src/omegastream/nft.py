"""One-way nondeterministic Buchi transducers.

Machines are loaded from JSON, kept immutable, and evaluated exactly on
ultimately periodic inputs u v^w.  One backward pass over v builds the
block graph of the period on Q, an SCC pass over its |Q| nodes finds the
states where accepting runs start, and one forward walk follows the run:
O((|u| + |v|)·deg·|Q|) integer operations on |Q|-bit masks, deg the
largest number of transitions from one state on one letter.  Two
accepting runs on the input, whatever their outputs, raise
AmbiguityError.  Normalization passes (trim, clean, make_productive)
preserve the computed function; each has a matching predicate so
already-normal machines are returned unchanged.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .words import (
    UPWord,
    Word,
    canonicalize,
    format_word,
    json_object,
    strip_prefix,
    word,
)

Transition = Tuple[str, object, str]  # (source, letter, target)

NODE_BUDGET = 400_000  # nodes a product-graph search may visit


class AmbiguityError(Exception):
    """Two distinct accepting runs were found on the same input."""


class ContractError(Exception):
    """A precondition of an operation was violated."""


class BudgetExceeded(Exception):
    """A bounded search ran out of its budget."""


@dataclass(frozen=True)
class OneWayTransducer:
    input_alphabet: FrozenSet[object]
    output_alphabet: FrozenSet[object]
    states: FrozenSet[str]
    initial: FrozenSet[str]
    final: FrozenSet[str]
    transitions: Dict[Transition, Word] = field(hash=False)

    def __post_init__(self):
        for (q, a, q2), out in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"transition {q}-{a}->{q2} references unknown state")
            if a not in self.input_alphabet:
                raise ValueError(f"unknown input letter {a!r}")
            for b in out:
                if b not in self.output_alphabet:
                    raise ValueError(f"unknown output letter {b!r}")
        if not self.initial <= self.states or not self.final <= self.states:
            raise ValueError("initial/final not subsets of states")

    # -- indexes -------------------------------------------------------------

    def succ(self, q: str, a: object) -> List[Tuple[str, Word]]:
        """(target, output) pairs for transitions q -a-> ."""
        return self._by_src().get((q, a), [])

    def out_edges(self, q: str) -> List[Tuple[object, str, Word]]:
        return self._edges().get(q, [])

    def tuple_succ(self, t: Tuple[str, ...]) -> List[Tuple[object, tuple, tuple]]:
        """(letter, next tuple, per-component outputs) for the state tuple t
        in the product of the machine with itself |t| times.

        Ordered by letter (sorted by str), then by each component's succ
        order, the first component varying slowest.  Only letters every
        component can read are visited.  Built once per tuple and cached.
        """
        cache = self.__dict__.get("_tuple_succ_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_tuple_succ_cache", cache)
        hit = cache.get(t)
        if hit is None:
            rows = self._by_letter()
            first, *rest = (rows.get(q, {}) for q in t)
            hit = []
            for a, succ in first.items():
                per = [succ] + [row.get(a) for row in rest]
                if all(per):
                    hit.extend(
                        (a, tuple(c[0] for c in combo), tuple(c[1] for c in combo))
                        for combo in itertools.product(*per)
                    )
            cache[t] = hit
        return hit

    def _by_src(self):
        cache = self.__dict__.get("_by_src_cache")
        if cache is None:
            cache = {}
            for (q, a, q2), out in self.transitions.items():
                cache.setdefault((q, a), []).append((q2, out))
            for v in cache.values():
                v.sort(key=lambda t: (t[0], t[1]))
            object.__setattr__(self, "_by_src_cache", cache)
        return cache

    def _numbered(self):
        """(names, final, succ, masks) with the states numbered in sorted
        order: final has the bits of the final states, succ[a][p] lists
        p's (target number, output) pairs on a in succ order, and
        masks[a][p] has the bits of those targets."""
        cache = self.__dict__.get("_numbered_cache")
        if cache is None:
            names = sorted(self.states)
            num = {q: p for p, q in enumerate(names)}
            succ: Dict[object, List[tuple]] = {}
            for (q, a), row in self._by_src().items():
                succ.setdefault(a, [()] * len(names))[num[q]] = tuple(
                    (num[q2], out) for q2, out in row)
            masks = {a: [sum({1 << p for p, _ in row}) for row in rows]
                     for a, rows in succ.items()}
            final = sum(1 << num[q] for q in self.final)
            cache = (names, final, succ, masks)
            object.__setattr__(self, "_numbered_cache", cache)
        return cache

    def _by_letter(self):
        """q -> {letter: succ(q, letter)}, letters sorted by str."""
        cache = self.__dict__.get("_by_letter_cache")
        if cache is None:
            cache = {}
            for q, edges in self._edges().items():
                row = cache[q] = {}
                for a, _, _ in edges:
                    row.setdefault(a, self.succ(q, a))
            object.__setattr__(self, "_by_letter_cache", cache)
        return cache

    def _edges(self):
        cache = self.__dict__.get("_edges_cache")
        if cache is None:
            cache = {}
            for (q, a, q2), out in self.transitions.items():
                cache.setdefault(q, []).append((a, q2, out))
            for v in cache.values():
                v.sort(key=lambda t: (str(t[0]), t[1]))
            object.__setattr__(self, "_edges_cache", cache)
        return cache


# -- JSON format -------------------------------------------------------------


def from_dict(doc: dict) -> OneWayTransducer:
    json_object(doc, "transducer", entries=("transitions",), lists=(
        "input_alphabet", "output_alphabet", "states", "initial", "final"))
    transitions = {}
    for t in doc["transitions"]:
        json_object(t, "transition", "from", "letter", "to", optional=("out",))
        key = (t["from"], t["letter"], t["to"])
        if key in transitions:
            raise ValueError(f"duplicate transition {key}")
        transitions[key] = word(t.get("out", ""))
    return OneWayTransducer(
        input_alphabet=frozenset(doc["input_alphabet"]),
        output_alphabet=frozenset(doc["output_alphabet"]),
        states=frozenset(doc["states"]),
        initial=frozenset(doc["initial"]),
        final=frozenset(doc["final"]),
        transitions=transitions,
    )


def to_dict(T: OneWayTransducer) -> dict:
    return {
        "input_alphabet": sorted(map(str, T.input_alphabet)),
        "output_alphabet": sorted(map(str, T.output_alphabet)),
        "states": sorted(T.states),
        "initial": sorted(T.initial),
        "final": sorted(T.final),
        "transitions": [
            {"from": q, "letter": a, "to": q2, "out": format_word(out)}
            for (q, a, q2), out in sorted(
                T.transitions.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
            )
        ],
    }


def load(path: str) -> OneWayTransducer:
    with open(path) as fh:
        return from_dict(json.load(fh))


def save(T: OneWayTransducer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(T), fh, indent=2)
        fh.write("\n")


# -- reachability and normal forms -------------------------------------------


def push(T: OneWayTransducer, S, u) -> FrozenSet[str]:
    """Image of the state set S under runs labelled by u."""
    cur = set(S)
    for a in word(u):
        cur = {q2 for q in cur for q2, _ in T.succ(q, a)}
    return frozenset(cur)


def closure(starts, succ) -> FrozenSet:
    """The nodes reachable from `starts` (the starts included) in the graph
    node -> succ(node)."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for n in succ(stack.pop()):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return frozenset(seen)


def _on_cycle(q, succ) -> bool:
    """Whether q lies on a cycle: some successor of q reaches q."""
    return q in closure(succ(q), succ)


def _targets(T: OneWayTransducer):
    """The successor function q -> targets of q's transitions."""
    return lambda q: [q2 for _, q2, _ in T.out_edges(q)]


def is_trim(T: OneWayTransducer) -> bool:
    return _trim_keep(T) == T.states


def _trim_keep(T: OneWayTransducer) -> FrozenSet[str]:
    succ = _targets(T)
    rev: Dict[str, set] = {}
    for (q, _, q2) in T.transitions:
        rev.setdefault(q2, set()).add(q)
    # live final states: finals lying on a cycle (reachable from themselves)
    live = [f for f in T.final if _on_cycle(f, succ)]
    return closure(T.initial, succ) & closure(live, lambda q: rev.get(q, ()))


def trim(T: OneWayTransducer) -> OneWayTransducer:
    keep = _trim_keep(T)
    if keep == T.states:
        return T
    return OneWayTransducer(
        input_alphabet=T.input_alphabet,
        output_alphabet=T.output_alphabet,
        states=keep,
        initial=T.initial & keep,
        final=T.final & keep,
        transitions={
            (q, a, q2): out
            for (q, a, q2), out in T.transitions.items()
            if q in keep and q2 in keep
        },
    )


def is_clean(T: OneWayTransducer) -> bool:
    """No cycle through a final state with empty total output."""
    eps: Dict[str, List[str]] = {}
    for (q, _, q2), out in T.transitions.items():
        if len(out) == 0:
            eps.setdefault(q, []).append(q2)
    return not any(_on_cycle(f, lambda q: eps.get(q, ())) for f in T.final)


def clean(T: OneWayTransducer) -> OneWayTransducer:
    """Equivalent clean transducer via the two-layer construction.

    Layer 1 is "must still produce"; leaving a final state drops to layer 0,
    which climbs back to layer 1 only through a producing transition.  Final
    states live in layer 1, so any accepting cycle produces output.  A
    clean T is returned unchanged; the result is trim when T is.
    """
    if is_clean(T):
        return T

    def name(q, layer):
        return f"{q}~{layer}"

    states = {name(q, i) for q in T.states for i in (0, 1)}
    transitions = {}
    for (q, a, q2), out in T.transitions.items():
        # from layer 1
        target_layer = 0 if q in T.final else 1
        transitions[(name(q, 1), a, name(q2, target_layer))] = out
        # from layer 0
        back_layer = 1 if len(out) > 0 else 0
        transitions[(name(q, 0), a, name(q2, back_layer))] = out
    T2 = OneWayTransducer(
        input_alphabet=T.input_alphabet,
        output_alphabet=T.output_alphabet,
        states=frozenset(states),
        initial=frozenset(name(q, 1) for q in T.initial),
        final=frozenset(name(q, 1) for q in T.final),
        transitions=transitions,
    )
    return trim(T2)


# -- product graphs ------------------------------------------------------------


def product_bfs(T: OneWayTransducer, starts):
    """Breadth-first search over state tuples from `starts`, following
    T.tuple_succ; parents[t] = (previous tuple, letter, outputs), None at
    a start.  Raises BudgetExceeded past NODE_BUDGET tuples."""
    parents = {t: None for t in starts}
    queue = deque(starts)
    while queue:
        t = queue.popleft()
        for a, nxt, outs in T.tuple_succ(t):
            if nxt not in parents:
                if len(parents) >= NODE_BUDGET:
                    raise BudgetExceeded("tuple-product search too large")
                parents[nxt] = (t, a, outs)
                queue.append(nxt)
    return parents


def product_path(parents, node):
    """(letters, per-component outputs, start) of the path to node in the
    parents map of a breadth-first tuple search."""
    letters: List = []
    outs_rev: List = []
    cur = node
    while parents[cur] is not None:
        prev, a, outs = parents[cur]
        letters.append(a)
        outs_rev.append(outs)
        cur = prev
    letters.reverse()
    outs_rev.reverse()
    outputs = [tuple(b for step in outs_rev for b in step[i])
               for i in range(len(node))]
    return tuple(letters), outputs, cur


def product_walk(T: OneWayTransducer, start, goals, keep=None):
    """(letters, per-component outputs, end tuple) of a shortest nonempty
    walk from the tuple `start` to a tuple in `goals`, or None.

    Breadth-first in T.tuple_succ order, following only the edges whose
    outputs pass `keep` (all edges when it is None).  Raises
    BudgetExceeded past NODE_BUDGET tuples."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for a, nxt, outs in T.tuple_succ(t):
            if keep is not None and not keep(outs):
                continue
            if nxt in goals:
                letters, outputs, _ = product_path(parents, t)
                return (letters + (a,),
                        [o + x for o, x in zip(outputs, outs)], nxt)
            if nxt not in parents:
                if len(parents) >= NODE_BUDGET:
                    raise BudgetExceeded("tuple-product search too large")
                parents[nxt] = (t, a, outs)
                queue.append(nxt)
    return None


# -- unambiguity ---------------------------------------------------------------


def _sccs(adj) -> List[List]:
    """Strongly connected components of the graph node -> successors, in
    the order an iterative Tarjan closes them: every edge leads to a node
    of the same or an earlier component."""
    index: Dict = {}
    low: Dict = {}
    stack: List = []
    on_stack = set()
    comps = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    comps.append(comp)
    return comps


def _cyclic(comp, adj) -> bool:
    """Whether a strongly connected component holds a cycle; a self-loop
    counts."""
    return len(comp) > 1 or comp[0] in adj[comp[0]]


def is_unambiguous(T: OneWayTransducer) -> bool:
    """No input labels two distinct accepting runs.

    Searched on the self-product: track pairs (p, q) plus a divergence bit
    that flips once the two run histories differ.  The input is ambiguous iff
    a diverged pair reaches a nontrivial product SCC containing both a pair
    with first component final and a pair with second component final (a
    single product cycle can then visit both kinds).
    """
    def step(node):
        p, q, d = node
        return [(p2, q2, d or p2 != q2) for _, (p2, q2), _ in T.tuple_succ((p, q))]

    start = [(p, q, p != q) for p in T.initial for q in T.initial]
    diverged = {(p, q) for p, q, d in closure(start, step) if d}
    # an SCC that holds a pair reachable from a diverged one is reachable
    # as a whole, so the SCCs of that closure are all the search needs
    reach = closure(diverged, lambda pq: [t for _, t, _ in T.tuple_succ(pq)])
    adj = {pq: {t for _, t, _ in T.tuple_succ(pq)} for pq in reach}
    return not any(
        _cyclic(comp, adj)
        and any(p in T.final for p, _ in comp)
        and any(q in T.final for _, q in comp)
        for comp in _sccs(adj)
    )


# -- lasso evaluation ----------------------------------------------------------


@dataclass
class RunLasso:
    """An accepting lasso run over a UP word.

    stem_states[i] is the state after reading i letters; loop_states starts
    and ends at stem_states[-1]'s node (phase-aligned), letters-per-loop =
    len(loop_states) - 1.
    """

    stem_states: List[str]
    loop_states: List[str]
    output: Optional[UPWord]  # None when the run output is finite


def _pre(masks: Optional[List[int]], live: int) -> int:
    """Bits of the states with a move on one letter into `live`, given
    that letter's per-state target masks (None: no state reads it)."""
    return sum(1 << p for p, m in enumerate(masks or ()) if m & live)


def _live_masks(T: OneWayTransducer, v: Word) -> List[int]:
    """For each phase j of v, the bits (over T._numbered()'s order) of the
    states where an accepting run on v[j:] v^w starts.

    One backward pass over v gives the block graph G on Q: p -> q when a
    run reads v from p to q, an F-edge when such a run visits a final
    state before its last letter.  Every cycle of the (state, phase) graph
    passes phase 0, so the live states at phase 0 are those that reach a
    cyclic component of G with an F-edge inside it.  A second backward
    pass carries them to every phase."""
    names, final, succ, masks = T._numbered()
    n = len(names)
    none = [()] * n
    # runs from each p at phase j: reach[p] ends at the next period start,
    # freach[p] holds the ends of those that meet a final state on the way
    reach = [1 << p for p in range(n)]
    freach = [0] * n
    for a in reversed(v):
        nr, nf = [], []
        for p, row in enumerate(succ.get(a, none)):
            r = f = 0
            for q, _ in row:
                r |= reach[q]
                f |= freach[q]
            nr.append(r)
            nf.append(r if final >> p & 1 else f)
        reach, freach = nr, nf
    adj = {p: [q for q in range(n) if reach[p] >> q & 1] for p in range(n)}
    live = 0
    for comp in _sccs(adj):  # successors' components come first
        bits = sum(1 << p for p in comp)
        # an F-edge inside a component lies on a cycle, a self-loop included
        if any(freach[p] & bits or reach[p] & live for p in comp):
            live |= bits
    out = [0] * len(v)
    for j in reversed(range(len(v))):
        live = out[j] = _pre(masks.get(v[j]), live)
    return out


def oracle_run(T: OneWayTransducer, x: UPWord) -> Optional[RunLasso]:
    """The unique accepting run on x = u v^w as a lasso, or None.

    O((|u| + |v|)·deg·|Q|) integer operations on |Q|-bit masks, deg the
    largest number of transitions from one state on one letter, plus an
    SCC pass over |Q| nodes: _live_masks gives the live states at each
    phase of v, where an accepting run on the rest of x starts; one
    backward pass over u gives them before each prefix letter; one
    forward walk from the live initial state follows the live successor
    until a (state, phase) node repeats, which closes the loop.

    Raises AmbiguityError when x has two accepting runs: two live initial
    states, or a step with two live successors.  Runs are compared, not
    outputs, so two accepting runs with equal outputs raise as well; on
    an unambiguous machine nothing raises.
    """
    u, v = x.prefix, x.period
    names, _, succ, masks = T._numbered()
    live = _live_masks(T, v)
    live_at = [live[0]]
    for a in reversed(u):
        live_at.append(_pre(masks.get(a), live_at[-1]))
    live_at.reverse()

    def live_after(i):
        """Bits of the states where an accepting run on x starts after i
        letters."""
        return live_at[i] if i < len(u) else live[(i - len(u)) % len(v)]

    states = [p for p, q in enumerate(names)
              if q in T.initial and live_at[0] >> p & 1]
    if not states:
        return None
    if len(states) > 1:
        raise AmbiguityError(
            f"accepting runs start in both {names[states[0]]} and "
            f"{names[states[1]]}"
        )
    outs: List[Word] = []
    seen: Dict[Tuple[int, int], int] = {}  # phase node -> first position
    i = 0
    while True:
        p = states[-1]
        if i >= len(u):
            node = (p, (i - len(u)) % len(v))
            if node in seen:
                break
            seen[node] = i
        nxt = live_after(i + 1)
        nexts = [(q, out) for q, out in succ[x.letter_at(i)][p]
                 if nxt >> q & 1]
        if len(nexts) > 1:
            raise AmbiguityError(
                f"two accepting runs part after {i + 1} letters, in "
                f"{names[nexts[0][0]]} and {names[nexts[1][0]]}"
            )
        states.append(nexts[0][0])
        outs.append(nexts[0][1])
        i += 1
    j = seen[node]
    loop_out = tuple(b for out in outs[j:] for b in out)
    output = (
        canonicalize(tuple(b for out in outs[:j] for b in out), loop_out)
        if loop_out
        else None
    )
    path = [names[p] for p in states]
    return RunLasso(path[: j + 1], path[j:], output)


def oracle_eval(T: OneWayTransducer, x: UPWord) -> Optional[UPWord]:
    """f(x) on a UP input, or None when undefined (no run / finite output)."""
    run = oracle_run(T, x)
    if run is None:
        return None
    return run.output


def accepting_future(T: OneWayTransducer, q: str) -> Optional[UPWord]:
    """Output of some accepting infinite-output run from q, as a UPWord.

    States m reachable from q are tried breadth-first; the run reaches m,
    walks to the nearest final f (staying put when m is final) and back to
    m by a shortest nonempty walk, and the first m whose loop outputs
    something gives the lasso."""
    finals = {(f,) for f in T.final}
    seen = {q}
    frontier = deque([(q, ())])
    while frontier:
        m, pref = frontier.popleft()
        walk = ((), [()], (m,)) if m in T.final else product_walk(T, (m,), finals)
        back = walk and product_walk(T, walk[2], {(m,)})
        if back:
            loop = walk[1][0] + back[1][0]
            if loop:
                return canonicalize(pref, loop)
        for _, m2, out in T.out_edges(m):
            if m2 not in seen:
                seen.add(m2)
                frontier.append((m2, pref + out))
    return None


# -- productivity ---------------------------------------------------------------


def _constant_witnesses(T: OneWayTransducer) -> Dict[str, tuple]:
    """(alpha1, alpha1_loop, alpha2) for every constant state q, by name.

    A witness is a pair of runs from I x I over the same word reaching
    (f, q) with f final and q not, then a synchronized loop at (f, q)
    whose second-component output is empty; alpha1 and alpha2 are the
    two runs' outputs, alpha1_loop the first component's loop output.
    Pairs are tried in breadth-first order from the sorted initial pairs,
    the first with a loop giving q's witness.  The pair graph is searched
    once for all states.
    """
    reach = product_bfs(T, list(itertools.product(sorted(T.initial), repeat=2)))
    found = {}
    for f, q in reach:
        if f in T.final and q not in T.final and q not in found:
            loop = product_walk(T, (f, q), {(f, q)}, keep=lambda outs: not outs[1])
            if loop is not None:
                _, (a1, a2), _ = product_path(reach, (f, q))
                found[q] = (a1, loop[1][0], a2)
    return {q: found[q] for q in sorted(found)}


def is_productive(T: OneWayTransducer) -> bool:
    return not _constant_witnesses(T)


def make_productive(T: OneWayTransducer) -> OneWayTransducer:
    """Replace constant states' futures by gadgets with steady output.

    A non-final state q is constant when some final run shadows it over a
    shared input with an ε-producing loop on q's side: every final run from
    q then outputs the single word α_q α'_q^ω.  The gadget re-emits that
    word at one α'_q per letter, which removes the ε loops.

    Requires a continuous input function (otherwise α_q is ill-defined).
    """
    constants = {}
    for q, (a1, loop1, a2) in _constant_witnesses(T).items():
        if len(loop1) == 0:
            # final-side loop silent too: cleanliness violated upstream
            raise ContractError("clean precondition violated")
        target = canonicalize(a1, loop1)
        if target.first(len(a2)) != a2:
            raise ContractError(
                "constant-state output ill-defined: input not continuous"
            )
        constants[q] = strip_prefix(target, a2)
    if not constants:
        return trim(T)

    states = set(T.states)
    transitions = dict(T.transitions)
    final = set(T.final)
    succ = _targets(T)
    for q, beta in constants.items():
        alpha, alpha_loop = beta.prefix, beta.period
        # states reachable from q (in the original machine)
        reach = closure(succ(q), succ)

        def gname(p, q=q):
            return f"{p}!{q}"

        states.update(gname(p) for p in reach)
        final.update(gname(p) for p in reach if p in T.final)
        # remove q's original outgoing transitions
        for (p, a, p2) in list(transitions):
            if p == q:
                del transitions[(p, a, p2)]
        # first transition emits alpha . alpha_loop, later ones alpha_loop
        for a, p2, _ in T.out_edges(q):
            transitions[(q, a, gname(p2))] = alpha + alpha_loop
        for p in reach:
            for a, p2, _ in T.out_edges(p):
                if p2 in reach:
                    transitions[(gname(p), a, gname(p2))] = alpha_loop
    T2 = OneWayTransducer(
        input_alphabet=T.input_alphabet,
        output_alphabet=T.output_alphabet,
        states=frozenset(states),
        initial=T.initial,
        final=frozenset(final),
        transitions=transitions,
    )
    return trim(T2)


def normalize(T: OneWayTransducer) -> OneWayTransducer:
    """trim + clean + make_productive, the evaluation-ready form."""
    return make_productive(clean(trim(T)))
