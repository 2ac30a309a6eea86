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
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .sst import (
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
# Cost: each cell (lookbehind pair, letter) reads its update's images a
# constant number of times -- the walk states scan each gap between
# register tokens once, and one index from register token to (image,
# position) places every return state -- so the build is
# O(|lookbehind pairs| · |Σ| · Σ|image|).


def _scan_image(tokens: Sequence, j: int):
    """Letters from position j up to the next register token.

    Returns (letters, next_reg or None); next_reg None means the image is
    exhausted (the walk of c is complete)."""
    letters: List = []
    for k in range(j, len(tokens)):
        t = tokens[k]
        if isinstance(t, Reg):
            return tuple(letters), t
        letters.append(t)
    return tuple(letters), None


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

    def wname(c):
        return f"w:{c}"

    def rname(r):
        return f"ret:{r}"

    regs = sorted(S.registers)
    others = [r for r in regs if r != S.out]
    states = {wname(c) for c in regs} | {rname(r) for r in others}
    delta: Dict[Tuple, Tuple[str, str]] = {}
    out: Dict[Tuple, Word] = {}

    def emit_walk(state_key, tokens, j, c):
        """One transition continuing the walk of c's image from index j."""
        letters, nxt = _scan_image(tokens, j)
        if nxt is not None:
            delta[state_key] = (wname(nxt), LEFT)
        elif c == S.out:
            delta[state_key] = (wname(S.out), RIGHT)
        else:
            delta[state_key] = (rname(c), RIGHT)
        out[state_key] = letters

    for (p, q) in lb_states:
        if p == _SINK:
            continue
        for a in alphabet:
            if (p, a) not in S.updates:
                continue
            sub = S.updates[(p, a)]
            lbst = lb_delta[((p, q), a)]
            if lbst == (_SINK, _SINK):
                continue
            lbst = lbname(lbst)
            # Walk states: start the image of c at this cell.
            for c in regs:
                tokens = sub.assignment[c]
                j = 1 if c == S.out else 0  # skip the leading out token
                emit_walk((wname(c), a, lbst), tokens, j, c)
            # Return states: resume after the unique occurrence of r.
            where = {}
            for c in regs:
                for k, t in enumerate(sub.assignment[c]):
                    if isinstance(t, Reg):
                        where[t] = (c, k)
            for r in others:
                if r in where:
                    c, k = where[r]
                    emit_walk((rname(r), a, lbst), sub.assignment[c], k + 1, c)

    # Endmarker: registers are empty there, every expansion returns at once.
    for r in others:
        key = (wname(r), ENDMARKER)
        delta[key] = (rname(r), RIGHT)
        out[key] = ()
    key = (wname(S.out), ENDMARKER)
    delta[key] = (wname(S.out), RIGHT)
    out[key] = ()

    return TwoWayTransducer(
        input_alphabet=frozenset(S.input_alphabet),
        output_alphabet=frozenset(S.output_alphabet),
        states=frozenset(states),
        initial=wname(S.out),
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


def validate_forest(
    levels: Sequence[Sequence[Dict[str, int]]],
    sigmas: Sequence[Substitution],
    K: int,
    out: str = "out",
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


def kbounded_to_copyless(
    S: StreamingTransducer, K: int, max_states: int = 20000
) -> StreamingTransducer:
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

    def node_registers(state: _ForestState) -> List[str]:
        names = []
        for d, level in enumerate(state.levels, start=1):
            for g in level.labels:
                for i, r in enumerate(regs):
                    for c in range(g[i]):
                        for j in range(len(level.shapes[i]) + 1):
                            names.append(_chunk_name(d, g, r, c, j))
        return names

    def transition(state: _ForestState, a):
        if (state.q, a) not in S.delta:
            return None
        sub = S.updates[(state.q, a)]
        alpha = sub.assignment[S.out][1:]
        new_shapes = tuple(
            tuple(str(t) for t in sub.assignment[r] if isinstance(t, Reg))
            for r in regs
        )
        new_chunks: List[List[Word]] = []
        for r in regs:
            chunks: List[Word] = []
            cur: List = []
            for t in sub.assignment[r]:
                if isinstance(t, Reg):
                    chunks.append(tuple(cur))
                    cur = []
                else:
                    cur.append(t)
            chunks.append(tuple(cur))
            new_chunks.append(chunks)

        m = len(state.levels)
        old_labels: List[Tuple[Label, ...]] = [state.roots] + [
            lv.labels for lv in state.levels
        ]
        shapes_at = [None] + [lv.shapes for lv in state.levels]  # depth index

        # Copies of each register consumed at each depth by this step's
        # out-production, bottom-up through the stored segments.
        used: List[Label] = [None] * (m + 1)
        used[m] = tuple(count_ref(alpha, r) for r in regs)
        for d in range(m - 1, -1, -1):
            used[d] = _apply_parent(shapes_at[d + 1], regs, used[d + 1])

        # Step 1: consume -- subtract used from every label, drop negatives.
        tilde: List[Dict[Label, Label]] = []
        for d in range(m + 1):
            ren = {}
            for g in old_labels[d]:
                g2 = tuple(g[i] - used[d][i] for i in range(n_regs))
                if all(v >= 0 for v in g2):
                    ren[g] = g2
            tilde.append(ren)

        # Step 2: add depth m+1 below every surviving leaf.
        children: Dict[Label, Label] = {}  # child -> parent (tilde label)
        for g2 in tilde[m].values():
            for h in all_labels:
                if _apply_parent(new_shapes, regs, h) == g2:
                    if h in children:
                        raise ConversionError("duplicate forest label")
                    children[h] = g2

        # Step 3: keep only ancestors of surviving new leaves.  The parent
        # equation commutes with the subtraction, so a leaf's ancestor chain
        # is exactly the tilde chain of its old ancestors.
        keep: List[set] = [set() for _ in range(m + 2)]
        for h, par in children.items():
            chain = [par]
            for d in range(m - 1, -1, -1):
                chain.append(_apply_parent(shapes_at[d + 1], regs, chain[-1]))
            chain.reverse()  # depth 0..m
            if all(chain[d] in tilde[d].values() for d in range(m + 1)):
                keep[m + 1].add(h)
                for d in range(m + 1):
                    keep[d].add(chain[d])
        if not keep[m + 1]:
            return None  # every candidate decomposition died: blocked

        # Branch providing the physical copies consumed by out: the smallest
        # old leaf whose whole ancestor chain survived the subtraction.
        inv_tilde = [{v: k for k, v in ren.items()} for ren in tilde]
        branch = None
        for g in sorted(old_labels[m]):
            if g not in tilde[m] or tilde[m][g] not in keep[m]:
                continue
            chain_old = [g]
            ok = tilde[m][g] in keep[m]
            cur = tilde[m][g]
            for d in range(m - 1, -1, -1):
                cur = _apply_parent(shapes_at[d + 1], regs, cur)
                if cur not in inv_tilde[d] or cur not in keep[d]:
                    ok = False
                    break
                chain_old.append(inv_tilde[d][cur])
            if ok:
                chain_old.reverse()
                branch = chain_old  # old labels, depth 0..m
                break
        if branch is None:
            return None

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
            toks: List = [Reg(_chunk_name(d, g, r, c, 0))]
            for k, s in enumerate(shape):
                toks.extend(expand(s, d - 1))
                toks.append(Reg(_chunk_name(d, g, r, c, k + 1)))
            return toks

        emission: List = []
        for t in alpha:
            if isinstance(t, Reg):
                emission.extend(expand(str(t), m))
            else:
                emission.append(t)

        # Assemble the renaming of surviving copies plus the new level.
        assign: Dict[str, MixedWord] = {"out": (Reg("out"),) + tuple(emission)}
        new_level_labels: List[List[Label]] = [
            sorted(keep[d]) for d in range(m + 2)
        ]
        for d in range(1, m + 1):
            shapes = shapes_at[d]
            for g_old, g_new in tilde[d].items():
                if g_new not in keep[d]:
                    continue
                for i, r in enumerate(regs):
                    for c in range(g_new[i]):
                        for j in range(len(shapes[i]) + 1):
                            assign[_chunk_name(d, g_new, r, c, j)] = (
                                Reg(_chunk_name(d, g_old, r, c, j)),
                            )
        for h in new_level_labels[m + 1]:
            for i, r in enumerate(regs):
                for c in range(h[i]):
                    for j in range(len(new_shapes[i]) + 1):
                        assign[_chunk_name(m + 1, h, r, c, j)] = new_chunks[i][j]

        levels2: List[_Level] = [
            _Level(shapes_at[d], tuple(new_level_labels[d]))
            for d in range(1, m + 1)
        ] + [_Level(new_shapes, tuple(new_level_labels[m + 1]))]
        roots2 = tuple(new_level_labels[0])

        # Merge adjacent segments while the forest is too deep.
        while len(levels2) > L:
            merged = _merge_levels(levels2, roots2, regs, assign)
            if merged is None:
                raise ConversionError("no mergeable level in an overdeep forest")
            levels2, assign = merged

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
                if len(names) >= max_states:
                    raise ConversionError(
                        f"state budget {max_states} exceeded"
                    )
                names[st2] = f"f{len(names)}"
                queue.append(st2)
            delta[(names[st], a)] = names[st2]
            raw_updates[(names[st], a)] = assign

    registers = {"out"}
    for st in names:
        registers.update(node_registers(st))
    for assign in raw_updates.values():
        registers.update(assign)
        for mw in assign.values():
            registers.update(str(t) for t in mw if isinstance(t, Reg))
    updates = {
        key: Substitution(
            {r: assign.get(r, ()) for r in registers}
        )
        for key, assign in raw_updates.items()
    }
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


def _merge_levels(levels, roots, regs, assign):
    """Fuse two adjacent segments at the smallest all-single-children depth.

    Rewrites `assign` so that the fused nodes' chunk registers receive the
    concatenations realising the composed substitution; returns the new
    level list and assignment, or None when no depth qualifies."""
    n_regs = len(regs)
    labels_at = [roots] + [lv.labels for lv in levels]
    shapes_at = [None] + [lv.shapes for lv in levels]
    depth = len(levels)
    pick = None
    for l in range(1, depth):
        parents_with = {}
        ok = True
        for h in labels_at[l + 1]:
            par = _apply_parent(shapes_at[l + 1], regs, h)
            parents_with.setdefault(par, []).append(h)
        for g in labels_at[l]:
            if len(parents_with.get(g, [])) != 1:
                ok = False
                break
        if ok:
            pick = l
            break
    if pick is None:
        return None
    l = pick
    sh_low = shapes_at[l]  # sigma_l, between depth l-1 and l
    sh_high = shapes_at[l + 1]  # sigma_{l+1}, between depth l and l+1
    composed = tuple(
        tuple(
            s
            for t in sh_high[i]
            for s in sh_low[regs.index(t)]
        )
        for i in range(n_regs)
    )

    new_assign = dict(assign)
    # Pull out the chunk registers of the two fused levels; their images are
    # inlined into the composed node's registers below.
    inner: Dict[str, MixedWord] = {}
    for d, lbls in ((l, labels_at[l]), (l + 1, labels_at[l + 1])):
        for g in lbls:
            for i, r in enumerate(regs):
                for c in range(g[i]):
                    for j in range(len(shapes_at[d][i]) + 1):
                        name = _chunk_name(d, g, r, c, j)
                        if name in new_assign:
                            inner[name] = new_assign.pop(name)

    for h in labels_at[l + 1]:
        g = _apply_parent(shapes_at[l + 1], regs, h)
        # Copy pools of the parent node feeding this (single) child.
        pool = {t: 0 for t in regs}

        def take(t):
            c = pool[t]
            pool[t] += 1
            if c >= g[regs.index(t)]:
                raise ConversionError("merge consumes more copies than stored")
            return c

        for i, r in enumerate(regs):
            for c in range(h[i]):
                # Interleave sigma_{l+1}(r)'s chunks (depth l+1 registers)
                # with full expansions of sigma_l over its ref tokens.
                pieces: List[List[Reg]] = [[]]

                def put_chunk(name):
                    pieces[-1].append(Reg(name))

                def boundary():
                    pieces.append([])

                put_chunk(_chunk_name(l + 1, h, r, c, 0))
                for k, t in enumerate(sh_high[i]):
                    ct = take(t)
                    ti = regs.index(t)
                    put_chunk(_chunk_name(l, g, t, ct, 0))
                    for jj in range(len(sh_low[ti])):
                        boundary()
                        put_chunk(_chunk_name(l, g, t, ct, jj + 1))
                    put_chunk(_chunk_name(l + 1, h, r, c, k + 1))
                assert len(pieces) == len(composed[i]) + 1
                for j, piece in enumerate(pieces):
                    new_assign[_chunk_name(l, h, r, c, j)] = substitute(piece, inner)

    # Levels above the fused pair move down one depth; rekey their registers.
    for d in range(l + 2, depth + 1):
        for g in labels_at[d]:
            for i, r in enumerate(regs):
                for c in range(g[i]):
                    for j in range(len(shapes_at[d][i]) + 1):
                        old = _chunk_name(d, g, r, c, j)
                        if old in new_assign:
                            new_assign[_chunk_name(d - 1, g, r, c, j)] = (
                                new_assign.pop(old)
                            )

    new_levels = (
        list(levels[: l - 1])
        + [_Level(composed, labels_at[l + 1])]
        + list(levels[l + 1 :])
    )
    return new_levels, new_assign

