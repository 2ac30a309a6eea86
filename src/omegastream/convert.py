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
from functools import cache
from typing import Dict, List, NamedTuple, Tuple

from .sst import (
    EMPTY_PARTS,
    MixedWord,
    Parts,
    Reg,
    StreamingTransducer,
    Substitution,
    check_bounded,
    check_copyless,
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
                if res is not None:
                    toks, q2 = res
                    new_next[q] = q2
                    if toks:
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
# images read are built once, in one pass over the parts of its images, in
# O(Σ|image|), and the rows of a (register, image) pair that several updates
# share are built once per call; each cell (lookbehind pair, letter) then
# writes its update's rows under its own lookbehind key.  The walk of a
# register that an update leaves empty returns at once; that row is stored
# once per letter, without a lookbehind key, and `lookup` falls back to it.
# So the build is
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

    # where the walk of c goes after its last chunk
    end = {c: (rname[c], RIGHT) for c in others}
    end[S.out] = (wname[S.out], RIGHT)
    left = {c: (wname[c], LEFT) for c in regs}

    @cache
    def image_rows(c, image: Parts):
        """The walk row of c, which starts c's image, and the return rows
        (register, move, letters) of the registers the image reads."""
        chunks, refs = image
        # after chunk i, expand token i or end the walk of c
        nxt = [left[r] for r in refs]
        nxt.append(end[c])
        # the walk of out skips its leading out token
        i0 = int(c == S.out)
        return (wname[c], nxt[i0], chunks[i0],
                tuple(zip(refs[i0:], nxt[i0 + 1:], chunks[i0 + 1:])))

    def rows(sub: Substitution):
        """(states, walks, moves, letters) at a cell updated by sub: the walk
        state of every register sub writes starts its image, and the return
        state of every register in an image resumes after its unique
        occurrence there; the first `walks` rows are the walks, in register
        order, then the returns, in register order."""
        names, moves, letters, back = [], [], [], []
        for c, image in sorted(sub.parts.items()):
            name, move, chunk, returns = image_rows(c, image)
            names.append(name)
            moves.append(move)
            letters.append(chunk)
            back += returns
        back.sort()
        for r, move, chunk in back:
            names.append(rname[r])
            moves.append(move)
            letters.append(chunk)
        return names, len(sub.parts), moves, letters

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


class _Level(NamedTuple):
    """One stored segment: register skeletons of its substitution plus the
    surviving labels at its (lower) depth."""

    shapes: Tuple[Tuple[str, ...], ...]  # per register (R' order): ref tokens
    labels: Tuple[Label, ...]  # sorted


class _ForestState(NamedTuple):
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
    def consume(shapes, labels: Tuple[Label, ...], used: Label):
        """(old, new, parent of new) for every label of a level with these
        shapes that stores the consumed copies: new is old less them.  The
        parent is None at the roots, which have no shapes."""
        if any(used):
            pairs = [(g, tuple(map(operator.sub, g, used))) for g in labels
                     if all(map(operator.ge, g, used))]
        else:
            pairs = zip(labels, labels)
        return tuple((g, g2, None if shapes is None else parent(shapes, g2))
                     for g, g2 in pairs)

    @cache
    def relabel(d: int, to: int, shapes, labels, used: Label,
                kept: Tuple[Label, ...]):
        """(new, image) pairs moving to depth `to` the surviving copies of
        every node at depth d whose label, less the consumed copies, is
        kept."""
        kept = set(kept)
        return tuple((chunk(to, g2, *k), (Reg(chunk(d, g, *k)),))
                     for g, g2, _ in consume(shapes, labels, used) if g2 in kept
                     for k in _copies(g2, shapes, regs))

    @cache
    def fused(l: int, h: Label, sh_low, sh_high):
        return _fused_pieces(l, h, parent(sh_high, h), sh_low, sh_high,
                             regs, reg_idx, chunk)

    def node_registers(state: _ForestState) -> List[str]:
        return [name for d, level in enumerate(state.levels, start=1)
                for g in level.labels for name in node(d, g, level.shapes)]

    @cache
    def step(key):
        """What the update at key gives every forest state: its target, the
        parts and shape of each register's image, out's image, the copies
        of each register out consumes, and the parent of every label."""
        parts = S.updates[key].parts
        new_parts = tuple(parts.get(r, EMPTY_PARTS) for r in regs)
        new_shapes = tuple(tuple(map(str, refs)) for _, refs in new_parts)
        out_chunks, out_refs = parts[S.out]
        used = tuple(out_refs[1:].count(r) for r in regs)
        leaves = tuple((h, parent(new_shapes, h)) for h in all_labels)
        return (S.delta[key], new_parts, new_shapes, out_chunks, out_refs,
                used, leaves)

    @cache
    def fresh(d: int, h: Label, key) -> Tuple[Tuple[str, MixedWord], ...]:
        """(name, image) of every non-empty chunk register of a new leaf
        labelled h at depth d below the update at key: copy c of register
        r stores chunk j of r's image in register (r, c, j)."""
        new_parts = step(key)[1]
        return tuple((chunk(d, h, r, c, j), w)
                     for i, r in enumerate(regs) for c in range(h[i])
                     for j, w in enumerate(new_parts[i][0]) if w)

    def transition(state: _ForestState, a):
        key = (state.q, a)
        if key not in S.delta:
            return None
        q2, _, new_shapes, out_chunks, out_refs, used_m, leaves = step(key)
        levels = state.levels
        m = len(levels)
        shapes_at = (None,) + tuple(lv.shapes for lv in levels)  # depth index

        # Copies of each register consumed at each depth by this step's
        # out-production, bottom-up through the stored segments.
        used: List[Label] = [None] * (m + 1)
        used[m] = used_m
        for d in range(m, 0, -1):
            used[d - 1] = parent(shapes_at[d], used[d])

        # Step 1: consume -- subtract used from every label, drop negatives.
        # A node survives when its whole ancestor chain does; the parent
        # equation commutes with the subtraction, so that is decided once
        # per level, top-down.
        tilde = [consume(None, state.roots, used[0])]
        alive = {g2 for _, g2, _ in tilde[0]}
        for d in range(1, m + 1):
            tilde.append(consume(*levels[d - 1], used[d]))
            alive = {g2 for _, g2, par in tilde[d] if par in alive}

        # Step 2: add depth m+1 below every surviving leaf.  Step 3: keep
        # only the ancestors of the new leaves, bottom-up.
        keep: List = [None] * (m + 2)
        keep[m + 1] = [h for h, g2 in leaves if g2 in alive]
        if not keep[m + 1]:
            return None  # every candidate decomposition died: blocked
        keep[m] = {g2 for _, g2 in leaves if g2 in alive}
        for d in range(m, 0, -1):
            kept = keep[d]
            keep[d - 1] = {par for _, g2, par in tilde[d] if g2 in kept}

        # Branch providing the physical copies consumed by out: the smallest
        # old leaf that keeps a child, and its ancestors; `cur` holds the
        # labels less the consumed copies.
        old_leaf, cur_leaf, _ = next(t for t in tilde[m] if t[1] in keep[m])
        branch, cur = [old_leaf], [cur_leaf]
        for d in range(m - 1, -1, -1):
            cur.append(parent(shapes_at[d + 1], cur[-1]))
            branch.append(tuple(map(operator.add, cur[-1], used[d])))
        branch.reverse()  # old labels, depth 0..m
        cur.reverse()

        # Out expansion along the branch, consuming the highest copy indices.
        counters = {}  # (depth, reg index) -> next copy index to consume

        def expand(r: str, d: int) -> List:
            if d == 0:
                return []
            i = reg_idx[r]
            g = branch[d]
            c = counters.get((d, i), cur[d][i])
            if c >= g[i]:
                raise ConversionError("copy consumption exceeds the label")
            counters[(d, i)] = c + 1
            toks: List = [Reg(chunk(d, g, r, c, 0))]
            for k, t in enumerate(shapes_at[d][i]):
                toks += expand(t, d - 1)
                toks.append(Reg(chunk(d, g, r, c, k + 1)))
            return toks

        emission: List = list(out_chunks[1])
        for t, letters in zip(out_refs[1:], out_chunks[2:]):
            emission += expand(str(t), m)
            emission += letters

        # Assemble the renaming of surviving copies plus the new level; an
        # empty image is left unlisted.
        assign: Dict[str, MixedWord] = {"out": (Reg("out"),) + tuple(emission)}
        inner: Dict[str, MixedWord] = {}

        # A forest one level too deep fuses the first two adjacent levels,
        # l and l+1, whose nodes each have one child: the nodes of a level
        # are exactly the parents of the level below, so those two levels
        # are equally wide.  Their registers go to `inner`, to be inlined
        # into the fused level's; the levels above move down one depth.
        fuse = None
        if m + 1 > L:
            fuse = next((d for d in range(1, m + 1)
                         if len(keep[d]) == len(keep[d + 1])), None)
            if fuse is None:
                raise ConversionError("no mergeable level in an overdeep forest")

        def target(d):
            """(where the registers of depth d go, their depth there)"""
            if fuse is None or d < fuse:
                return assign, d
            return (inner, d) if d <= fuse + 1 else (assign, d - 1)

        levels2: List[_Level] = []
        for d, lv in enumerate(levels, start=1):
            kept = tuple(sorted(keep[d]))
            images, to = target(d)
            images.update(relabel(d, to, *lv, used[d], kept))
            levels2.append(lv if kept == lv.labels else _Level(lv.shapes, kept))
        images, to = target(m + 1)
        for h in keep[m + 1]:
            images.update(fresh(to, h, key))
        levels2.append(_Level(new_shapes, tuple(keep[m + 1])))
        roots2 = tuple(sorted(keep[0]))
        if fuse is not None:
            levels2 = _fuse_levels(levels2, fuse, assign, inner, reg_idx, fused)

        return _ForestState(q2, roots2, tuple(levels2)), assign

    init = _ForestState(S.initial, tuple(all_labels), ())
    names: Dict[_ForestState, str] = {init: "f0"}
    queue = [init]
    delta: Dict[Tuple[str, object], str] = {}
    updates: Dict[Tuple[str, object], Substitution] = {}
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
            updates[(names[st], a)] = Substitution(assign)

    # Every update writes the registers of its target's nodes and reads
    # those of its source's; StreamingTransducer checks it.
    registers = {"out"}
    for st in names:
        registers.update(node_registers(st))
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


def _fuse_levels(levels, l, assign, inner, reg_idx, fused) -> List[_Level]:
    """Fuse the segments at depths l and l+1, whose nodes have one child
    each, into one at depth l.

    `inner` holds the images of the two levels' chunk registers; `assign`
    receives those of the fused nodes' chunk registers, the concatenations
    realising the composed substitution.  Returns the new level list.
    `fused` is the caller's memoized `_fused_pieces`."""
    sh_low = levels[l - 1].shapes  # sigma_l, between depth l-1 and l
    sh_high = levels[l].shapes  # sigma_{l+1}, between depth l and l+1
    composed = tuple(
        tuple(s for t in sh_high[i] for s in sh_low[reg_idx[t]])
        for i in range(len(sh_high))
    )
    labels = levels[l].labels
    for h in labels:
        for name, piece in fused(l, h, sh_low, sh_high):
            image = tuple(t for r in piece for t in inner.get(r, ()))
            if image:
                assign[name] = image
    return levels[: l - 1] + [_Level(composed, labels)] + levels[l + 1:]
