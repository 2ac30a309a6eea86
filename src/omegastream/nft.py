"""One-way nondeterministic Buchi transducers.

Machines are loaded from JSON, kept immutable, and evaluated exactly on
ultimately periodic inputs u v^w.  One backward pass over v builds the
block graph of the period on Q, an SCC pass over its |Q| nodes finds the
states where accepting runs start, and one forward walk follows the run:
at most O((|u| + |v|)·deg·|Q|) integer operations on |Q|-bit masks, deg
the largest number of transitions from one state on one letter, and one
dictionary hit per letter where the backward passes meet a key again.  Two
accepting runs on the input, whatever their outputs, raise
AmbiguityError.  Normalization passes (trim, clean, make_productive)
preserve the computed function; each has a matching predicate so
already-normal machines are returned unchanged.

A machine keeps one transition index per direction: _by_letter (state
-> letter -> targets) and its mirror _into (state -> letter -> sources).
succ, out_edges, the oracle's target tuples, trim and the rows of
tuple_succ and tuple_pred, which every search over the product of a
machine with itself reads, are built from them.  _masks, the per-letter
target masks by state number that the oracle and the annotator read, is
built from the transitions.  product_between keeps the tuples on a walk
from given starts to given goals, searching backward and forward in
turn, so the continuity, constant-state and separability searches never
expand a tuple that cannot lead to what they look for.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
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
BACKWARD_SHARE = 4  # edges product_between builds backward per forward edge


class AmbiguityError(Exception):
    """Two distinct accepting runs were found on the same input."""


class ContractError(Exception):
    """A precondition of an operation was violated."""


class BudgetExceeded(Exception):
    """A bounded search ran out of its budget."""


@dataclass(frozen=True)
class OneWayTransducer:
    """An immutable transducer.  What derives from its transitions alone is
    a cached property, built on first use; product rows, per tuple."""

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
        # the rows tuple_succ and tuple_pred have built, by tuple
        object.__setattr__(self, "_succ_rows", {})
        object.__setattr__(self, "_pred_rows", {})

    # -- indexes -------------------------------------------------------------

    def succ(self, q: str, a: object) -> List[Tuple[str, Word]]:
        """(target, output) pairs for transitions q -a-> , targets sorted."""
        return self._by_letter.get(q, {}).get(a, [])

    def out_edges(self, q: str) -> List[Tuple[object, str, Word]]:
        """(letter, target, output) from q: letters by str, then targets."""
        return [(a, q2, out) for a, row in self._by_letter.get(q, {}).items()
                for q2, out in row]

    def tuple_succ(self, t: Tuple[str, ...]) -> List[Tuple[object, tuple, tuple]]:
        """(letter, next tuple, per-component outputs) for the state tuple t
        in the product of the machine with itself |t| times.

        Ordered by letter (sorted by str), then by each component's succ
        order, the first component varying slowest.  Only letters every
        component can read are visited.  Built once per tuple and cached.
        """
        hit = self._succ_rows.get(t)
        if hit is None:
            hit = self._succ_rows[t] = _tuple_row(self._by_letter, t)
        return hit

    def tuple_pred(self, t: Tuple[str, ...]) -> List[Tuple[object, tuple, tuple]]:
        """(letter, previous tuple, per-component outputs) for the state
        tuple t: the mirror of tuple_succ, over the transitions into each
        component.  Ordered by letter (sorted by str), then by each
        component's sources, sorted, the first component varying slowest.
        Built once per tuple and cached."""
        hit = self._pred_rows.get(t)
        if hit is None:
            hit = self._pred_rows[t] = _tuple_row(self._into, t)
        return hit

    def square(self) -> Dict[tuple, list]:
        """product_between(self, I x I, the pairs with a final first
        state): the pair graph that the continuity and constant-state
        searches share.  Built once per machine."""
        return self._square

    @cached_property
    def _square(self) -> Dict[tuple, list]:
        return product_between(
            self, sorted(itertools.product(self.initial, repeat=2)),
            [(f, q) for f in sorted(self.final) for q in sorted(self.states)])

    @cached_property
    def _by_letter(self) -> Dict[str, Dict[object, List[Tuple[str, Word]]]]:
        """q -> {letter: [(target, output)]}: letters sorted by str,
        targets sorted.  succ, out_edges and tuple_succ read it."""
        return _index(self.transitions, 0, 2)

    @cached_property
    def _into(self) -> Dict[str, Dict[object, List[Tuple[str, Word]]]]:
        """q2 -> {letter: [(source, output)]}, the mirror of _by_letter:
        letters sorted by str, sources sorted."""
        return _index(self.transitions, 2, 0)

    @cached_property
    def _masks(self) -> Tuple[List[str], Dict[object, List[int]]]:
        """(names, masks): the states in sorted order, which numbers them,
        and for each letter a that some transition reads, masks[a][p], the
        bits of p's targets on a.  The oracle's tables and the annotator's
        images share this numbering."""
        names = sorted(self.states)
        num = {q: p for p, q in enumerate(names)}
        masks: Dict[object, List[int]] = {}
        for q, a, q2 in self.transitions:
            row = masks.get(a)
            if row is None:
                row = masks[a] = [0] * len(names)
            row[num[q]] |= 1 << num[q2]
        return names, masks

    @cached_property
    def _numbered(self):
        """(names, initial, final, targets, masks, outs), the oracle's
        tables, with the states numbered as in _masks, which gives names
        and masks: initial and final have the bits of the initial and
        final states, targets[a][p] is the tuple of p's target numbers on
        a, and outs[a, p, q] is the output of p -a-> q.  Nothing in them
        depends on a word."""
        names, masks = self._masks
        num = {q: p for p, q in enumerate(names)}
        targets: Dict[object, List[tuple]] = {}
        for q, row in self._by_letter.items():
            for a, succ in row.items():
                targets.setdefault(a, [()] * len(names))[num[q]] = tuple(
                    num[q2] for q2, _ in succ)
        outs = {(a, num[q], num[q2]): out
                for (q, a, q2), out in self.transitions.items()}
        return (names, sum(1 << num[q] for q in self.initial),
                sum(1 << num[q] for q in self.final), targets, masks, outs)

    @cached_property
    def _useful(self) -> FrozenSet[str]:
        """The states trim keeps: reachable from an initial state, and
        reaching a final state that lies on a cycle."""
        succ = _targets(self)
        live = [f for f in self.final if _on_cycle(f, succ)]
        return closure(self.initial, succ) & closure(live, lambda q: [
            p for row in self._into.get(q, {}).values() for p, _ in row])

    @cached_property
    def _clean(self) -> bool:
        """is_clean's verdict, found once per machine."""
        eps: Dict[str, List[str]] = {}
        for (q, _, q2), out in self.transitions.items():
            if len(out) == 0:
                eps.setdefault(q, []).append(q2)
        return not any(_on_cycle(f, lambda q: eps.get(q, ())) for f in self.final)


def _index(transitions, src: int, dst: int):
    """key[src] -> {letter: [(key[dst], output)]} over the transition keys
    (source, letter, target): letters sorted by str, then key[dst]."""
    index: Dict = {}
    for key, out in sorted(transitions.items(),
                           key=lambda kv: (str(kv[0][1]), kv[0][dst])):
        index.setdefault(key[src], {}).setdefault(key[1], []).append((key[dst], out))
    return index


def _tuple_row(index, t) -> List[Tuple[object, tuple, tuple]]:
    """The edges of the tuple t in the product over `index`, which maps a
    state to {letter: [(other state, output)]}, letters in order: per
    letter, the product of the components' lists, the first varying
    slowest.  Only letters every component has are visited."""
    first, *rest = (index.get(q, {}) for q in t)
    row = []
    if len(rest) == 1:  # pairs, which every set-up search reads
        (second,) = rest
        for a, succ in first.items():
            succ2 = second.get(a)
            if succ2:
                row += [(a, (q1, q2), (o1, o2))
                        for q1, o1 in succ for q2, o2 in succ2]
    else:
        for a, succ in first.items():
            per = [succ] + [other.get(a) for other in rest]
            if all(per):
                row.extend(
                    (a, tuple(c[0] for c in combo), tuple(c[1] for c in combo))
                    for combo in itertools.product(*per)
                )
    return row


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
    return T._useful == T.states


def trim(T: OneWayTransducer) -> OneWayTransducer:
    keep = T._useful
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
    return T._clean


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


def product_bfs(succ, starts):
    """Breadth-first search over state tuples from `starts`, following
    succ (T.tuple_succ, or the rows of product_between); parents[t] =
    (previous tuple, letter, outputs), None at a start.  Raises
    BudgetExceeded past NODE_BUDGET tuples."""
    parents = {t: None for t in starts}
    queue = deque(starts)
    while queue:
        t = queue.popleft()
        for a, nxt, outs in succ(t):
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


def product_walk(succ, start, goals, keep=None):
    """(letters, per-component outputs, end tuple) of a shortest nonempty
    walk from the tuple `start` to a tuple in `goals`, or None.

    Breadth-first in succ order (T.tuple_succ, or the rows of
    product_between), following only the edges whose
    outputs pass `keep` (all edges when it is None).  Raises
    BudgetExceeded past NODE_BUDGET tuples."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for a, nxt, outs in succ(t):
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


def _fanout(index, t) -> int:
    """len(_tuple_row(index, t)), without building the row."""
    first, *rest = (index.get(q, {}) for q in t)
    total = 0
    for a, succ in first.items():
        n = len(succ)
        for other in rest:
            n *= len(other.get(a, ()))
        total += n
    return total


def _edge_order(edge):
    """tuple_succ's order on the edges of one tuple: letter by str, then
    the next tuple, whose components' targets vary the first slowest."""
    return str(edge[0]), edge[1]


def product_between(T: OneWayTransducer, starts, goals) -> Dict[tuple, list]:
    """The tuples on a walk from one of `starts` to one of `goals`, each
    with its edges among them: {t: [(letter, next tuple, outputs), ...]},
    each list in T.tuple_succ order.

    A search backward from the goals over tuple_pred and one forward from
    the starts over tuple_succ take turns.  The backward side expands its
    next tuple while it would then have built at most BACKWARD_SHARE times
    as many edges as the forward side; otherwise the forward side does.
    A row built earlier costs nothing.  A new row is counted by _fanout
    before it is built, except a pair's, which costs no more to build than
    to count.  So a small square, where both sides are alike, is searched
    backward only.

    The first side to run out of tuples holds all it can reach: every
    tuple that reaches a goal, or every tuple reachable from a start.  A
    closure over the rows it built then keeps the ones that meet the other
    condition.  The work thus follows the smaller of the two sets: most
    pairs of a k-guess machine reach no final pair, most pairs of a ring
    are never reached, and a tuple of initial states of a k-guess machine
    has k^|t| successors but few predecessors.

    Every tuple on a walk to a goal reaches that goal, and every one on
    a walk from a start is reachable.  So a search over these rows from a
    start meets, of the tuples that lead to a goal, the same ones in the
    same order and with the same parents as over tuple_succ: depth-first
    over simple paths, or breadth-first, where a tuple's parent reaches
    whatever it reaches.  Raises BudgetExceeded when a side passes
    NODE_BUDGET tuples."""
    index = (T._by_letter, T._into)
    expand = (T.tuple_succ, T.tuple_pred)
    built = (T._succ_rows, T._pred_rows)
    seen = (dict.fromkeys(starts), dict.fromkeys(goals))
    queue = (deque(seen[0]), deque(seen[1]))
    spent = [0, 0]
    ahead = [None, None]  # each side's edges after its next expansion
    while queue[0] and queue[1]:
        for s in (0, 1):
            if ahead[s] is None:
                t = queue[s][0]
                ahead[s] = spent[s] + (0 if t in built[s]
                                       else len(expand[s](t)) if len(t) == 2
                                       else _fanout(index[s], t))
        s = int(ahead[1] <= BACKWARD_SHARE * ahead[0])
        spent[s], ahead[s] = ahead[s], None
        row = expand[s](queue[s].popleft())
        for _, t, _ in row:
            if t not in seen[s]:
                if len(seen[s]) >= NODE_BUDGET:
                    raise BudgetExceeded("tuple-product search too large")
                seen[s][t] = None
                queue[s].append(t)
    if not queue[1]:  # seen[1]: every tuple that reaches a goal
        rows: Dict[tuple, list] = {t: [] for t in seen[1]}
        for t in seen[1]:
            for a, prev, outs in T.tuple_pred(t):
                rows[prev].append((a, t, outs))
        keep = closure([t for t in seen[0] if t in rows],
                       lambda t: [e[1] for e in rows[t]])
        return {t: sorted(rows[t], key=_edge_order) for t in keep}
    meet = [t for t in seen[1] if t in seen[0]]  # seen[0]: every reachable tuple
    if not meet:
        return {}
    rev: Dict[tuple, list] = {}
    for t in seen[0]:
        for _, nxt, _ in T.tuple_succ(t):
            rev.setdefault(nxt, []).append(t)
    keep = closure(meet, lambda t: rev.get(t, ()))
    return {t: [e for e in T.tuple_succ(t) if e[1] in keep] for t in keep}


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

    The search reads T.square(), the pairs on a walk from I x I to a pair
    with a final first state, which the continuity and constant-state
    searches share.  That is exact: such an SCC holds a pair with a final
    first state, and every pair in it, or on a walk from I x I into it,
    reaches that pair, so all of them lie in the square.  Raises
    BudgetExceeded when building the square does.
    """
    rows = T.square()

    def step(node):
        p, q, d = node
        return [(p2, q2, d or p2 != q2) for _, (p2, q2), _ in rows[p, q]]

    start = [(p, q, p != q) for p in T.initial for q in T.initial
             if (p, q) in rows]
    diverged = {(p, q) for p, q, d in closure(start, step) if d}
    # an SCC that holds a pair reachable from a diverged one is reachable
    # as a whole, so the SCCs of that closure are all the search needs
    reach = closure(diverged, lambda pq: [t for _, t, _ in rows[pq]])
    adj = {pq: {t for _, t, _ in rows[pq]} for pq in reach}
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


def _backward(masks, w: Word, live: int) -> List[int]:
    """The live masks before each letter of w, given `live` after its
    last letter: one _pre per letter, memoized by (letter, live mask)
    for this call, so a repeated key costs one dictionary hit."""
    memo: Dict[tuple, int] = {}
    out = [0] * len(w)
    for j in range(len(w) - 1, -1, -1):
        key = (w[j], live)
        pre = memo.get(key)
        if pre is None:
            pre = memo[key] = _pre(masks.get(w[j]), live)
        out[j] = live = pre
    return out


def _transfer(rows, is_final, reach, freach) -> Tuple[tuple, tuple]:
    """(reach, freach) one letter earlier, rows[p] being p's targets on
    that letter: a run from p goes on from one of them, and from a final
    p it has met a final state."""
    nr, nf = [], []
    for qs, fin in zip(rows, is_final):
        r = f = 0
        for q in qs:
            r |= reach[q]
            f |= freach[q]
        nr.append(r)
        nf.append(r if fin else f)
    return tuple(nr), tuple(nf)


def _live_masks(T: OneWayTransducer, v: Word) -> List[int]:
    """For each phase j of v, the bits (over T._numbered's order) of the
    states where an accepting run on v[j:] v^w starts.

    One backward pass over v gives the block graph G on Q: p -> q when a
    run reads v from p to q, an F-edge when such a run visits a final
    state before its last letter.  Every cycle of the (state, phase) graph
    passes phase 0, so the live states at phase 0 are those that reach a
    cyclic component of G with an F-edge inside it.  A second backward
    pass carries them to every phase.

    The first pass carries, for each p, the mask reach[p] of the states a
    run from p is in at the next period start and the mask freach[p] of
    those it reaches through a final state.  Each distinct (reach,
    freach) pair gets a number, and the one-letter transfer is memoized
    by (letter, number) for this call: a repeated key costs one
    dictionary hit, a new one deg·|Q| integer operations and one hash of
    the 2|Q| masks.  The second pass memoizes _pre (see _backward)."""
    names, _, final, targets, masks, _ = T._numbered
    n = len(names)
    none = ((),) * n
    is_final = [final >> p & 1 for p in range(n)]
    vecs = [(tuple(1 << p for p in range(n)), (0,) * n)]
    number = {vecs[0]: 0}
    step: Dict[tuple, int] = {}
    k = 0  # the number of the pair after the letters read so far
    for a in reversed(v):
        key = (a, k)
        nk = step.get(key)
        if nk is None:
            vec = _transfer(targets.get(a, none), is_final, *vecs[k])
            nk = step[key] = number.setdefault(vec, len(vecs))
            if nk == len(vecs):
                vecs.append(vec)
        k = nk
    reach, freach = vecs[k]
    adj = {p: [q for q in range(n) if reach[p] >> q & 1] for p in range(n)}
    live = 0
    for comp in _sccs(adj):  # successors' components come first
        bits = sum(1 << p for p in comp)
        # an F-edge inside a component lies on a cycle, a self-loop included
        if any(freach[p] & bits or reach[p] & live for p in comp):
            live |= bits
    return _backward(masks, v, live)


def _low_two(m: int) -> Tuple[int, int]:
    """The two lowest bit positions of m, which has at least two bits."""
    rest = m & (m - 1)
    return (m & -m).bit_length() - 1, (rest & -rest).bit_length() - 1


def _parted(names, m: int, i: int) -> AmbiguityError:
    """Two live successors, the bits of m, after i letters."""
    q, q2 = _low_two(m)
    return AmbiguityError(f"two accepting runs part after {i} letters, in "
                          f"{names[q]} and {names[q2]}")


def oracle_run(T: OneWayTransducer, x: UPWord) -> Optional[RunLasso]:
    """The unique accepting run on x = u v^w as a lasso, or None.

    _live_masks gives the live states at each phase of v, where an
    accepting run on the rest of x starts, and one more backward pass
    gives them before each prefix letter.  The forward walk steps through
    u, then through v phase by phase: from p on letter a it takes
    m = masks[a][p] & (live states after a), whose one bit is the
    successor, and reads the output from the per-machine table outs.  It
    walks whole periods until a state repeats at phase 0.  The walk from
    a (state, phase) node is fixed, so it repeats from the first node it
    met twice, and that node opens the loop: the lasso a check at every
    phase would close, after at most |v| - 1 more letters.

    Cost: the backward passes do one dictionary hit per letter whose
    memo key repeats, and deg·|Q| integer operations on |Q|-bit masks
    per new key, deg the largest number of transitions from one state on
    one letter; the SCC pass is over |Q| nodes; the walk does a few bit
    operations and one table read per letter.  The per-letter tables are
    built once per machine by T._numbered; every memo and mask list is
    built per call and dropped when it returns.

    Raises AmbiguityError when x has two accepting runs: two live initial
    states, or a step with two live successors.  Runs are compared, not
    outputs, so two accepting runs with equal outputs raise as well; on
    an unambiguous machine nothing raises.
    """
    u, v = x.prefix, x.period
    names, initial, _, _, masks, outs = T._numbered
    live = _live_masks(T, v)
    live_u = _backward(masks, u, live[0]) + [live[0]]
    starts = initial & live_u[0]
    if not starts:
        return None
    if starts & (starts - 1):
        p, q = _low_two(starts)
        raise AmbiguityError(
            f"accepting runs start in both {names[p]} and {names[q]}")
    path = [starts.bit_length() - 1]
    words: List[Word] = []

    def walk(letters, nexts) -> int:
        """Follow the run over letters, nexts[i] being the live states
        after letters[i]; return the last state."""
        p = path[-1]
        for a, nxt in zip(letters, nexts):
            m = masks[a][p] & nxt
            if m & (m - 1):
                raise _parted(names, m, len(path))
            q = m.bit_length() - 1
            words.append(outs[a, p, q])
            path.append(q)
            p = q
        return p

    p = walk(u, live_u[1:])
    after = live[1:] + live[:1]  # live states after each phase's letter
    seen = 0  # states the walk met at phase 0
    while not seen >> p & 1:
        seen |= 1 << p
        p = walk(v, after)
    # the walk repeats with period `size` from its last phase-0 node back
    # to the first node it met twice, at `start`
    end = len(path) - 1
    size = len(v)
    while path[end - size] != p:
        size += len(v)
    start = end - size
    while start > len(u) and path[start - 1] == path[start - 1 + size]:
        start -= 1
    loop_out = tuple(itertools.chain.from_iterable(words[start:start + size]))
    output = (
        canonicalize(tuple(itertools.chain.from_iterable(words[:start])),
                     loop_out)
        if loop_out
        else None
    )
    states = [names[p] for p in path]
    return RunLasso(states[: start + 1], states[start:start + size + 1],
                    output)


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
        walk = (((), [()], (m,)) if m in T.final
                else product_walk(T.tuple_succ, (m,), finals))
        back = walk and product_walk(T.tuple_succ, walk[2], {(m,)})
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
    the first with a loop giving q's witness.  Both searches run over
    T.square(), which holds every pair such a run and loop pass through,
    so the pair graph is searched once per machine, for all states and
    for the continuity check.
    """
    rows = T.square()
    reach = product_bfs(rows.__getitem__, [
        t for t in itertools.product(sorted(T.initial), repeat=2) if t in rows])
    found = {}
    for f, q in reach:
        if f in T.final and q not in T.final and q not in found:
            loop = product_walk(rows.__getitem__, (f, q), {(f, q)},
                                keep=lambda outs: not outs[1])
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
