"""Conversions between machine models.

Three constructions live here:

* ``twoway_to_sst`` -- crossing-sequence simulation of a two-way transducer
  by a 1-bounded streaming transducer;
* ``sst_to_twoway`` -- recursive register evaluation of a copyless streaming
  transducer by a two-way transducer with a lookbehind DFA;
* ``kbounded_to_copyless`` -- removal of bounded copying by guessing a
  decomposition forest of copy-count labels and storing virtual copies.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Sequence, Tuple

from .sst import (
    EMPTY_PARTS,
    MixedWord,
    Reg,
    StreamingTransducer,
    Substitution,
    check_bounded,
    check_copyless,
    count_ref,
    substitute,
)
from .twoway import ENDMARKER, LEFT, RIGHT, LookbehindDFA, TwoWayTransducer
from .words import Word


class ConversionError(Exception):
    pass


# =============================================================================
# Two-way -> streaming
# =============================================================================
#
# At position i the streaming machine knows, for the two-way machine T2:
#   - first: the state in which T2 first enters position i+1 (or None);
#   - next[q]: the state in which T2, started at (q, i), first enters i+1;
#   - register out: the output along the run behind `first`;
#   - register o_q: the output along the run behind `next[q]`.
# Reading a letter extends every such run through the new cell: starting at
# the new cell, follow transitions; each left move into state p consumes the
# stored run o_p and resumes from next[p]; more than |Q| left moves means a
# loop, i.e. the crossing run does not exist.

_SINK = "~sink"


def _walk_crossing(Q_size, look, next_map, token_of):
    """Extend a crossing run through the freshly read cell.

    `look(q)` gives T2's transition at the new cell; `token_of(p)` the mixed
    tokens standing for the stored run o_p.  Returns (tokens, exit_state) or
    None when the run dies or loops.
    """

    def walk(q):
        toks: List = []
        tr, lam = look(q)
        if tr is None:
            return None
        toks.extend(lam)
        count = 0
        while True:
            q2, move = tr
            if move == RIGHT:
                return toks, q2
            p = q2
            count += 1
            if count > Q_size:
                return None  # revisits a state at this cell: loops forever
            nxt = next_map.get(p)
            if nxt is None:
                return None
            toks.extend(token_of(p))
            tr, lam = look(nxt)
            if tr is None:
                return None
            toks.extend(lam)

    return walk


def twoway_to_sst(T2: TwoWayTransducer) -> StreamingTransducer:
    """1-bounded streaming transducer computing the same function as T2."""
    Q = sorted(T2.states)
    lb = T2.lookbehind
    d0 = lb.initial if lb is not None else None
    reg_of = {q: f"o_{q}" for q in Q}

    # Position 0: the endmarker has been crossed.
    tr0, lam0 = T2.lookup(T2.initial, ENDMARKER, d0)
    if tr0 is None:
        raise ConversionError("initial endmarker transition is undefined")
    first0 = tr0[0]
    init_next = {}
    init_out = {}
    for q in Q:
        tr, lam = T2.lookup(q, ENDMARKER, d0)
        if tr is not None:
            init_next[q] = tr[0]
            init_out[q] = tuple(lam)

    def state_name(first, nxt, d, fresh):
        nx = ",".join(f"{q}>{nxt.get(q, '~')}" for q in Q)
        return f"{first}|{nx}|{d}|{'i' if fresh else '.'}"

    init_key = (first0, tuple(sorted(init_next.items())), d0, True)
    names = {init_key: state_name(first0, init_next, d0, True)}
    queue = [init_key]
    delta: Dict[Tuple[str, object], str] = {}
    updates: Dict[Tuple[str, object], Substitution] = {}
    registers = frozenset(["out"] + [reg_of[q] for q in Q])

    while queue:
        key = queue.pop()
        first, nxt_items, d, fresh = key
        next_map = dict(nxt_items)
        src = names[key]
        for a in sorted(T2.input_alphabet, key=str):
            d2 = lb.step(d, a) if lb is not None else None

            def look(q, a=a, d2=d2):
                if q is None:
                    return None, None
                return T2.lookup(q, a, d2)

            def token_of(p, fresh=fresh):
                # In the fresh state the registers are still empty; the
                # conceptual o_p value is the endmarker output, a constant.
                if fresh:
                    return init_out.get(p, ())
                return (Reg(reg_of[p]),)

            walk = _walk_crossing(len(Q), look, next_map, token_of)
            res_first = walk(first)
            if res_first is None:
                continue  # the main run dies: no transition
            out_toks, new_first = res_first
            out_prefix = tuple(lam0) if fresh else ()
            assign: Dict[str, MixedWord] = {
                "out": (Reg("out"),) + out_prefix + tuple(out_toks)
            }
            new_next = {}
            for q in Q:
                res = walk(q)
                if res is None:
                    assign[reg_of[q]] = ()
                else:
                    toks, q2 = res
                    new_next[q] = q2
                    assign[reg_of[q]] = tuple(toks)
            key2 = (new_first, tuple(sorted(new_next.items())), d2, False)
            if key2 not in names:
                names[key2] = state_name(new_first, new_next, d2, False)
                queue.append(key2)
            delta[(src, a)] = names[key2]
            updates[(src, a)] = Substitution(assign)

    return StreamingTransducer(
        input_alphabet=frozenset(T2.input_alphabet),
        output_alphabet=frozenset(T2.output_alphabet),
        states=frozenset(names.values()),
        initial=names[init_key],
        registers=registers,
        out="out",
        delta=delta,
        updates=updates,
    )


# =============================================================================
# Copyless streaming -> two-way
# =============================================================================
#
# The two-way machine replays, at each position i, the material appended to
# out by the i-th update.  A register token r inside that material is
# expanded by moving left and walking the image of r at the previous cell,
# recursively; the empty registers at the endmarker end the recursion.  On
# the way back, copylessness makes the calling context recoverable: the
# finished register occurs in exactly one image at the current cell.
#
# States: ("w", r) entered when moving left to expand r at the new cell,
# ("w", "out") for the rightward main sweep, and ("ret", r) entered when
# moving right after finishing r.  The substitution at each cell is fetched
# through a lookbehind DFA tracking (previous state, current state) of the
# streaming machine.
#
# Cost: the rows (state, move, letters) that one update gives the walk states
# of the registers it writes and the return states of the registers its
# images read are built once, from the parts of its images, in O(Σ|image|);
# each cell (lookbehind pair, letter) then writes its update's rows under its
# own lookbehind key.  The walk of a register that an update leaves empty
# returns at once; that row is stored once per letter, without a lookbehind
# key, and `lookup` falls back to it.  So the build is
# O(Σ|image| over updates + cells · (written + returns) + |R|·|Σ|).


def sst_to_twoway(S: StreamingTransducer) -> TwoWayTransducer:
    """Two-way transducer (with lookbehind) computing eval_limit(S)."""
    if not check_copyless(S):
        raise ConversionError("sst_to_twoway requires a copyless machine")

    # Lookbehind DFA over (previous state, current state) pairs.
    lb_init = (_SINK, S.initial)
    lb_states = {lb_init, (_SINK, _SINK)}
    lb_delta = {}
    frontier = [lb_init]
    alphabet = sorted(S.input_alphabet, key=str)
    while frontier:
        (p, q) = frontier.pop()
        for a in alphabet:
            if q != _SINK and (q, a) in S.delta:
                tgt = (q, S.delta[(q, a)])
            else:
                tgt = (_SINK, _SINK)
            lb_delta[((p, q), a)] = tgt
            if tgt not in lb_states:
                lb_states.add(tgt)
                frontier.append(tgt)
    for a in alphabet:
        lb_delta[((_SINK, _SINK), a)] = (_SINK, _SINK)

    # DFA state names must survive a JSON round trip: use strings.
    def lbname(t):
        return f"{t[0]}>{t[1]}"

    lb = LookbehindDFA(
        states=frozenset(lbname(t) for t in lb_states),
        initial=lbname(lb_init),
        delta={
            (lbname(src), a): lbname(tgt)
            for (src, a), tgt in lb_delta.items()
        },
    )

    regs = sorted(S.registers)
    others = [r for r in regs if r != S.out]
    wname = {c: f"w:{c}" for c in regs}
    rname = {r: f"ret:{r}" for r in others}
    states = set(wname.values()) | set(rname.values())
    delta: Dict[Tuple, Tuple[str, str]] = {}
    out: Dict[Tuple, Word] = {}

    # The walk of an empty image returns at once, whatever the cell.
    for r in others:
        for a in alphabet:
            delta[(wname[r], a)] = (rname[r], RIGHT)
            out[(wname[r], a)] = ()

    def rows(sub: Substitution):
        """(states, walks, moves, letters) at a cell updated by sub: the walk
        state of every register sub writes starts its image, and the return
        state of every register in an image resumes after its unique
        occurrence there; the first `walks` rows are the walks."""

        def row(c, i):
            """Chunk i of c's image, then a left move to expand token i, or
            the end of the walk of c."""
            chunks, refs = sub.parts[c]
            if i < len(refs):
                return (wname[refs[i]], LEFT), chunks[i]
            if c == S.out:
                return (wname[S.out], RIGHT), chunks[i]
            return (rname[c], RIGHT), chunks[i]

        # the walk of out skips its leading out token
        written = sorted(sub.parts)
        found = [row(c, int(c == S.out)) for c in written]
        back = {r: row(c, i + 1) for c, (_, refs) in sub.parts.items()
                for i, r in enumerate(refs) if r != S.out}
        returns = sorted(back)
        found += [back[r] for r in returns]
        return ([wname[c] for c in written] + [rname[r] for r in returns],
                len(written), [move for move, _ in found],
                [letters for _, letters in found])

    rows_of = {key: rows(sub) for key, sub in S.updates.items()}
    walks_at: Dict[Tuple, List[Tuple]] = {}  # cell -> its walk rows' keys
    for (p, q) in lb_states:
        if p == _SINK:
            continue
        for a in alphabet:
            if (p, a) not in S.updates:
                continue
            lbst = lb_delta[((p, q), a)]
            if lbst == (_SINK, _SINK):
                continue
            lbst = lbname(lbst)
            names, walks, moves, letters = rows_of[(p, a)]
            keys = [(state, a, lbst) for state in names]
            # the last update written to a cell owns all its walk rows: a
            # walk it leaves empty falls back to the row without lookbehind
            for key in walks_at.get((a, lbst), ()):
                del delta[key], out[key]
            walks_at[(a, lbst)] = keys[:walks]
            delta.update(zip(keys, moves))
            out.update(zip(keys, letters))

    # Endmarker: registers are empty there, every expansion returns at once.
    for r in others:
        key = (wname[r], ENDMARKER)
        delta[key] = (rname[r], RIGHT)
        out[key] = ()
    key = (wname[S.out], ENDMARKER)
    delta[key] = (wname[S.out], RIGHT)
    out[key] = ()

    return TwoWayTransducer(
        input_alphabet=frozenset(S.input_alphabet),
        output_alphabet=frozenset(S.output_alphabet),
        states=frozenset(states),
        initial=wname[S.out],
        delta=delta,
        out=out,
        lookbehind=lb,
    )


# =============================================================================
# K-bounded -> copyless
# =============================================================================
#
# copies(r) at position i -- the number of times the current value of r is
# still needed by the future of the run -- is not computable online, so the
# machine maintains a forest of all candidate copy-count labels g: R' -> [0..K]
# organised by a decomposition of the history into segments with stored
# substitutions sigma_1..sigma_m.  Labels at consecutive depths satisfy
#     g(r) = sum_s |sigma(s)|_r * h(s)
# for the segment substitution between them.  For every node labelled g at
# depth l the machine stores g(r) physical copies of the constant chunks of
# sigma_l(r), one register per chunk, which makes every update copyless.


Label = Tuple[int, ...]


@dataclass(frozen=True)
class _Level:
    """One stored segment: register skeletons of its substitution plus the
    surviving labels at its (lower) depth."""

    shapes: Tuple[Tuple[str, ...], ...]  # per register (R' order): ref tokens
    labels: Tuple[Label, ...]  # sorted


@dataclass(frozen=True)
class _ForestState:
    q: str
    roots: Tuple[Label, ...]
    levels: Tuple[_Level, ...]


def _apply_parent(shapes, regs, h: Label) -> Label:
    return tuple(
        sum(shapes[s_idx].count(r) * h[s_idx] for s_idx in range(len(regs)))
        for r in regs
    )


def _chunk_name(depth: int, g: Label, r: str, c: int, j: int) -> str:
    lbl = ",".join(map(str, g))
    return f"n{depth}@{lbl}@{r}@{c}@{j}"


def _copies(g: Label, shapes, regs) -> List[Tuple[str, int, int]]:
    """(r, c, j) of every chunk register of a node labelled g: chunk j of
    copy c of r's image in the segment with these shapes."""
    return [(r, c, j) for i, r in enumerate(regs) for c in range(g[i])
            for j in range(len(shapes[i]) + 1)]


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
                    count_ref(sigma.assignment[s], r) * h[s]
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


MAX_STATES = 20000  # forest states kbounded_to_copyless may build


def kbounded_to_copyless(S: StreamingTransducer, K: int) -> StreamingTransducer:
    """Copyless streaming transducer equivalent to the K-bounded S."""
    if not check_bounded(S, K):
        raise ConversionError(f"input machine is not {K}-bounded")
    regs = sorted(r for r in S.registers if r != S.out)
    n_regs = len(regs)
    reg_idx = {r: i for i, r in enumerate(regs)}
    L = (K + 1) ** n_regs
    all_labels: List[Label] = sorted(
        itertools.product(range(K + 1), repeat=n_regs)
    )
    # The forests of different states share most nodes, renames and merges;
    # these memos live for this call only.
    chunk = cache(_chunk_name)

    @cache
    def parent(shapes, h: Label) -> Label:
        return _apply_parent(shapes, regs, h)

    @cache
    def node(d: int, g: Label, shapes) -> Tuple[str, ...]:
        """Chunk registers of the node labelled g at depth d."""
        return tuple(chunk(d, g, *k) for k in _copies(g, shapes, regs))

    @cache
    def renames(d: int, g_old: Label, g_new: Label, shapes):
        """(new, image) pairs moving the surviving copies of a node that
        the step relabels from g_old to g_new."""
        return tuple((chunk(d, g_new, *k), (Reg(chunk(d, g_old, *k)),))
                     for k in _copies(g_new, shapes, regs))

    @cache
    def fresh(d: int, h: Label, shapes) -> Tuple[Tuple[str, int, int], ...]:
        """(name, register index, chunk index) of every chunk register of
        a new leaf: each stores that chunk of its register's image."""
        return tuple((chunk(d, h, r, c, j), reg_idx[r], j)
                     for r, c, j in _copies(h, shapes, regs))

    @cache
    def fused(l: int, h: Label, sh_low, sh_high):
        return _fused_pieces(l, h, parent(sh_high, h), sh_low, sh_high,
                             regs, reg_idx, chunk)

    def node_registers(state: _ForestState) -> List[str]:
        return [name for d, level in enumerate(state.levels, start=1)
                for g in level.labels for name in node(d, g, level.shapes)]

    def transition(state: _ForestState, a):
        if (state.q, a) not in S.delta:
            return None
        parts = S.updates[(state.q, a)].parts
        new_parts = [parts.get(r, EMPTY_PARTS) for r in regs]
        new_shapes = tuple(tuple(map(str, refs)) for _, refs in new_parts)
        alpha_chunks, alpha_refs = parts[S.out]

        m = len(state.levels)
        old_labels: List[Tuple[Label, ...]] = [state.roots] + [
            lv.labels for lv in state.levels
        ]
        shapes_at = [None] + [lv.shapes for lv in state.levels]  # depth index

        # Copies of each register consumed at each depth by this step's
        # out-production, bottom-up through the stored segments.
        used: List[Label] = [None] * (m + 1)
        used[m] = tuple(alpha_refs[1:].count(r) for r in regs)
        for d in range(m - 1, -1, -1):
            used[d] = parent(shapes_at[d + 1], used[d + 1])

        # Step 1: consume -- subtract used from every label, drop negatives.
        tilde: List[Dict[Label, Label]] = []
        for d in range(m + 1):
            ren = {}
            for g in old_labels[d]:
                g2 = tuple(map(operator.sub, g, used[d]))
                if min(g2, default=0) >= 0:
                    ren[g] = g2
            tilde.append(ren)
        inv_tilde = [{v: k for k, v in ren.items()} for ren in tilde]

        # Step 2: add depth m+1 below every surviving leaf.
        children: Dict[Label, Label] = {}  # child -> parent (tilde label)
        for h in all_labels:
            g2 = parent(new_shapes, h)
            if g2 in inv_tilde[m]:
                children[h] = g2

        # Step 3: keep only ancestors of surviving new leaves.  The parent
        # equation commutes with the subtraction, so a leaf's ancestor chain
        # is exactly the tilde chain of its old ancestors.
        keep: List[set] = [set() for _ in range(m + 2)]
        for h, par in children.items():
            chain = [par]
            for d in range(m - 1, -1, -1):
                chain.append(parent(shapes_at[d + 1], chain[-1]))
            chain.reverse()  # depth 0..m
            if all(chain[d] in inv_tilde[d] for d in range(m + 1)):
                keep[m + 1].add(h)
                for d in range(m + 1):
                    keep[d].add(chain[d])
        if not keep[m + 1]:
            return None  # every candidate decomposition died: blocked

        # Branch providing the physical copies consumed by out: the smallest
        # old leaf whose whole ancestor chain survived the subtraction, that
        # is, whose tilde label is in keep (keep holds whole chains).
        branch = [min(g for g in old_labels[m] if tilde[m].get(g) in keep[m])]
        cur = tilde[m][branch[0]]
        for d in range(m - 1, -1, -1):
            cur = parent(shapes_at[d + 1], cur)
            branch.append(inv_tilde[d][cur])
        branch.reverse()  # old labels, depth 0..m

        # Out expansion along the branch, consuming the highest copy indices.
        counters = {}  # (depth, reg index) -> next copy index to consume

        def next_copy(d, i):
            key = (d, i)
            if key not in counters:
                counters[key] = tilde[d][branch[d]][i]
            c = counters[key]
            counters[key] += 1
            if c >= branch[d][i]:
                raise ConversionError("copy consumption exceeds the label")
            return c

        def expand(r: str, d: int) -> List:
            if d == 0:
                return []
            i = reg_idx[r]
            g = branch[d]
            c = next_copy(d, i)
            shape = shapes_at[d][i]
            toks: List = [Reg(chunk(d, g, r, c, 0))]
            for k, s in enumerate(shape):
                toks.extend(expand(s, d - 1))
                toks.append(Reg(chunk(d, g, r, c, k + 1)))
            return toks

        emission: List = list(alpha_chunks[1])
        for t, letters in zip(alpha_refs[1:], alpha_chunks[2:]):
            emission += expand(str(t), m)
            emission += letters

        # Assemble the renaming of surviving copies plus the new level.
        assign: Dict[str, MixedWord] = {"out": (Reg("out"),) + tuple(emission)}
        new_level_labels: List[List[Label]] = [
            sorted(keep[d]) for d in range(m + 2)
        ]
        for d in range(1, m + 1):
            for g_old, g_new in tilde[d].items():
                if g_new in keep[d]:
                    assign.update(renames(d, g_old, g_new, shapes_at[d]))
        for h in new_level_labels[m + 1]:
            assign.update((name, new_parts[i][0][j])
                          for name, i, j in fresh(m + 1, h, new_shapes))

        levels2: List[_Level] = [
            _Level(shapes_at[d], tuple(new_level_labels[d]))
            for d in range(1, m + 1)
        ] + [_Level(new_shapes, tuple(new_level_labels[m + 1]))]
        roots2 = tuple(new_level_labels[0])

        # Merge adjacent segments while the forest is too deep.
        while len(levels2) > L:
            levels2 = _merge_levels(levels2, assign, reg_idx, parent, node, fused)

        return _ForestState(S.delta[(state.q, a)], roots2, tuple(levels2)), assign

    init = _ForestState(S.initial, tuple(all_labels), ())
    names: Dict[_ForestState, str] = {init: "f0"}
    queue = [init]
    delta: Dict[Tuple[str, object], str] = {}
    raw_updates: Dict[Tuple[str, object], Dict[str, MixedWord]] = {}
    alphabet = sorted(S.input_alphabet, key=str)
    while queue:
        st = queue.pop()
        for a in alphabet:
            res = transition(st, a)
            if res is None:
                continue
            st2, assign = res
            if st2 not in names:
                if len(names) >= MAX_STATES:
                    raise ConversionError(f"state budget {MAX_STATES} exceeded")
                names[st2] = f"f{len(names)}"
                queue.append(st2)
            delta[(names[st], a)] = names[st2]
            raw_updates[(names[st], a)] = assign

    # Every update writes the registers of its target's nodes and reads
    # those of its source's; Substitution and StreamingTransducer check it.
    registers = {"out"}
    for st in names:
        registers.update(node_registers(st))
    empty = dict.fromkeys(registers, ())
    updates = {key: Substitution({**empty, **assign})
               for key, assign in raw_updates.items()}
    return StreamingTransducer(
        input_alphabet=frozenset(S.input_alphabet),
        output_alphabet=frozenset(S.output_alphabet),
        states=frozenset(names.values()),
        initial=names[init],
        registers=frozenset(registers),
        out="out",
        delta=delta,
        updates=updates,
    )


def _fused_pieces(l, h, g, sh_low, sh_high, regs, reg_idx, chunk):
    """(name, pieces) of every chunk register of the node h that fuses
    depths l and l+1 into depth l below its single parent g: the register
    receives the concatenation of the pieces' images."""
    # Copy pools of the parent node feeding this (single) child.
    pool = dict.fromkeys(regs, 0)

    def take(t):
        c = pool[t]
        pool[t] += 1
        if c >= g[reg_idx[t]]:
            raise ConversionError("merge consumes more copies than stored")
        return c

    out = []
    for i, r in enumerate(regs):
        for c in range(h[i]):
            # Interleave sigma_{l+1}(r)'s chunks (depth l+1 registers)
            # with full expansions of sigma_l over its ref tokens.
            pieces: List[List[Reg]] = [[Reg(chunk(l + 1, h, r, c, 0))]]
            for k, t in enumerate(sh_high[i]):
                ct = take(t)
                pieces[-1].append(Reg(chunk(l, g, t, ct, 0)))
                for jj in range(len(sh_low[reg_idx[t]])):
                    pieces.append([Reg(chunk(l, g, t, ct, jj + 1))])
                pieces[-1].append(Reg(chunk(l + 1, h, r, c, k + 1)))
            if len(pieces) != sum(len(sh_low[reg_idx[t]]) for t in sh_high[i]) + 1:
                raise ConversionError("fused pieces do not match the composed shape")
            out += [(chunk(l, h, r, c, j), tuple(piece))
                    for j, piece in enumerate(pieces)]
    return tuple(out)


def _merge_levels(levels, assign, reg_idx, parent, node, fused) -> List[_Level]:
    """Fuse two adjacent segments at the smallest all-single-children depth.

    Rewrites `assign` in place so that the fused nodes' chunk registers
    receive the concatenations realising the composed substitution, and
    returns the new level list.  `parent`, `node` and `fused` are the
    caller's memoized `_apply_parent`, node registers and
    `_fused_pieces`."""
    labels_at = [None] + [lv.labels for lv in levels]
    shapes_at = [None] + [lv.shapes for lv in levels]
    depth = len(levels)
    for l in range(1, depth):
        kids = Counter(parent(shapes_at[l + 1], h) for h in labels_at[l + 1])
        if all(kids[g] == 1 for g in labels_at[l]):
            break
    else:
        raise ConversionError("no mergeable level in an overdeep forest")
    sh_low = shapes_at[l]  # sigma_l, between depth l-1 and l
    sh_high = shapes_at[l + 1]  # sigma_{l+1}, between depth l and l+1
    composed = tuple(
        tuple(s for t in sh_high[i] for s in sh_low[reg_idx[t]])
        for i in range(len(sh_high))
    )

    # Pull out the chunk registers of the two fused levels; their images are
    # inlined into the composed node's registers below.
    inner: Dict[str, MixedWord] = {}
    for d in (l, l + 1):
        for g in labels_at[d]:
            for name in node(d, g, shapes_at[d]):
                if name in assign:
                    inner[name] = assign.pop(name)
    for h in labels_at[l + 1]:
        for name, piece in fused(l, h, sh_low, sh_high):
            assign[name] = substitute(piece, inner)

    # Levels above the fused pair move down one depth; rekey their registers.
    for d in range(l + 2, depth + 1):
        for g in labels_at[d]:
            for old, new in zip(node(d, g, shapes_at[d]),
                                node(d - 1, g, shapes_at[d])):
                if old in assign:
                    assign[new] = assign.pop(old)

    return (
        list(levels[: l - 1])
        + [_Level(composed, labels_at[l + 1])]
        + list(levels[l + 1 :])
    )
