"""Deterministic streaming string transducers.

Registers hold output words and are rewritten by substitutions (mixed words
over output letters and register references).  The distinguished `out`
register is append-only: every update maps out to out followed by new
material, and out appears nowhere else.  A register an update does not
list gets the empty image; only the JSON form reads an unlisted register
as unchanged.

eval_limit decides f(u v^w) exactly, with no budget: it returns the UP
output, or None when the machine blocks or out stops growing.  It assumes
bounded copying along the input's loop, which every copyless or K-bounded
machine has, and raises ContractError when the registers feeding out never
settle.

Also here: saturated counting matrices for copyless/K-bounded checking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .nft import ContractError, closure
from .words import UPWord, Word, canonicalize, json_object, word


class Reg(str):
    """A register reference inside a mixed word."""

    def __repr__(self):
        return f"Reg({str.__repr__(self)})"


MixedWord = Tuple[object, ...]  # letters and Reg tokens


def substitute(mw: MixedWord, val: Dict[str, tuple]) -> tuple:
    """mw with every register reference replaced by its value in val."""
    out: List = []
    for t in mw:
        if isinstance(t, Reg):
            out.extend(val[t])
        else:
            out.append(t)
    return tuple(out)


Parts = Tuple[Tuple[Word, ...], Tuple[Reg, ...]]
EMPTY_PARTS: Parts = ((),), ()  # the parts of an empty image
_RENAME = ((), ())  # the chunks of an image that is one register


@dataclass(frozen=True)
class Substitution:
    """Register images.  A register the assignment does not list has the
    empty image, so an update need list only the registers it writes
    non-empty; the register set belongs to the machine, which checks it.
    `parts[r]` is the non-empty image of r parsed once into its register
    tokens and the len(tokens) + 1 letter chunks around them, so consumers
    never rescan an image."""

    assignment: Dict[str, MixedWord] = field(hash=False)
    parts: Dict[str, Parts] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = {}
        for r, mw in self.assignment.items():
            if len(mw) == 1:
                # most images are one register (a rename) or one letter
                parts[r] = (_RENAME, mw) if isinstance(mw[0], Reg) else ((mw,), ())
                continue
            if not mw:
                continue
            chunks, refs, cur = [], [], []
            for t in mw:
                if isinstance(t, Reg):
                    chunks.append(tuple(cur))
                    refs.append(t)
                    cur = []
                else:
                    cur.append(t)
            chunks.append(tuple(cur))
            parts[r] = tuple(chunks), tuple(refs)
        object.__setattr__(self, "parts", parts)

    def compose(self, other: "Substitution") -> "Substitution":
        """self . other applied as a function: (self o other)(r) = self(other(r)),
        over the registers other lists."""
        val = self.assignment
        return Substitution({
            r: tuple(_resolve([], *other.parts.get(r, EMPTY_PARTS), val))
            for r in other.assignment})

    @staticmethod
    def identity(registers) -> "Substitution":
        return Substitution({r: (Reg(r),) for r in registers})


# -- mixed-word text form ------------------------------------------------------


_NAMECHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@{},|~")


def parse_mixed(s: str) -> MixedWord:
    """Parse "ab$r1 c" style mixed words: $name is a register reference
    (name = [A-Za-z0-9_@{},|~]+), spaces separate tokens, other chars are letters."""
    out: List = []
    i = 0
    namechars = _NAMECHARS
    while i < len(s):
        c = s[i]
        if c == " ":
            i += 1
        elif c == "$":
            j = i + 1
            while j < len(s) and s[j] in namechars:
                j += 1
            if j == i + 1:
                raise ValueError(f"empty register name at {i} in {s!r}")
            out.append(Reg(s[i + 1:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return tuple(out)


def format_mixed(mw: MixedWord) -> str:
    parts = []
    for k, t in enumerate(mw):
        if isinstance(t, Reg):
            nxt = mw[k + 1] if k + 1 < len(mw) else None
            sep = " " if (nxt is not None and not isinstance(nxt, Reg)) else ""
            parts.append(f"${t}{sep}")
        else:
            parts.append(str(t))
    return "".join(parts)


# -- machines -------------------------------------------------------------------


@dataclass(frozen=True)
class StreamingTransducer:
    """A deterministic SST.  Each update lists a subset of `registers`; a
    register it leaves out gets the empty image.  Every register an update
    writes or reads must be in `registers`."""

    input_alphabet: FrozenSet[object]
    output_alphabet: FrozenSet[object]
    states: FrozenSet[str]
    initial: str
    registers: FrozenSet[str]
    out: str
    delta: Dict[Tuple[str, object], str] = field(hash=False)
    updates: Dict[Tuple[str, object], Substitution] = field(hash=False)

    def __post_init__(self):
        if self.delta.keys() != self.updates.keys():
            raise ValueError("delta and updates must share their domain")
        if self.out not in self.registers:
            raise ValueError("out not among registers")
        registers = self.registers
        for (q, a), sub in self.updates.items():
            reads = [t for _, refs in sub.parts.values() for t in refs]
            for verb, used in (("writes", sub.assignment), ("reads", reads)):
                if not registers.issuperset(used):
                    unknown = str(min(set(used) - registers))
                    raise ValueError(
                        f"update at ({q},{a}) {verb} unknown register {unknown!r}")
            chunks, refs = sub.parts.get(self.out, EMPTY_PARTS)
            if chunks[0] or not refs or refs[0] != self.out:
                raise ValueError(f"out update at ({q},{a}) must start with out")
            if reads.count(self.out) != 1:
                raise ValueError(f"out must occur exactly once at ({q},{a})")


@dataclass
class EvalResult:
    out: Word
    state: str
    valuation: Dict[str, Word]
    blocked_at: Optional[int]  # input position where delta was undefined


def eval_prefix(S: StreamingTransducer, prefix) -> EvalResult:
    ev = _Evaluator(S)
    blocked_at = None
    for i, a in enumerate(word(prefix)):
        if not ev.feed((a,)):
            blocked_at = i
            break
    out = tuple(ev.out)
    valuation = {r: ev.val.get(r, ()) for r in S.registers}
    valuation[S.out] = out
    return EvalResult(out, ev.q, valuation, blocked_at=blocked_at)


def _resolve(buf: List, chunks, refs, val) -> List:
    """buf extended by the image with these parts, its registers read in val."""
    buf += chunks[0]
    for r, c in zip(refs, chunks[1:]):
        buf += val.get(r, ())
        buf += c
    return buf


class _Evaluator:
    """Incremental register evaluation.

    out only grows, so it is one list that each update extends by the
    resolved tail of its image: a letter costs its new output, not a copy
    of all output so far.  val holds only the non-empty other registers,
    rebuilt from the parts of their images, so an empty image costs
    nothing."""

    __slots__ = ("S", "q", "out", "val")

    def __init__(self, S: StreamingTransducer):
        self.S = S
        self.q = S.initial
        self.out: List = []
        self.val: Dict[str, Word] = {}

    def feed(self, w) -> bool:
        """Run S over the letters of w; False when S blocks."""
        S, out_reg = self.S, self.S.out
        for a in w:
            key = (self.q, a)
            if key not in S.delta:
                return False
            parts, val, new = S.updates[key].parts, self.val, {}
            chunks, refs = parts[out_reg]
            _resolve(self.out, chunks[1:], refs[1:], val)
            for r, (chunks, refs) in parts.items():
                if r == out_reg:
                    continue
                # constants and renamings, most images of a copyless
                # machine, are read without a copy
                if len(chunks) == 1:
                    v = chunks[0]
                elif len(chunks) == 2 and not chunks[0] and not chunks[1]:
                    v = val.get(refs[0], ())
                else:
                    v = tuple(_resolve([], chunks, refs, val))
                if v:
                    new[r] = v
            self.val = new
            self.q = S.delta[key]
        return True


def eval_limit(S: StreamingTransducer, x: UPWord) -> Optional[UPWord]:
    """f(x) for a UP input u v^w, or None when undefined, decided exactly.

    Past u, the state at a period end repeats within |Q| + 1 periods, and
    from there every delta periods apply one fixed substitution.  Its
    register dependencies give D, the registers whose values out's
    increments read, directly or through other registers; D is closed
    under the substitution.  Once one application leaves the values of D
    unchanged, every later increment equals the one just appended, so f(x)
    is out · inc^w.  None when S blocks or inc is empty.  With bounded
    copying the dependencies have no cycle inside D, so that happens within
    |D| + 1 applications; when it does not, a register cycle feeds out and
    ContractError is raised.
    """
    u, v = x.prefix, x.period
    ev = _Evaluator(S)
    if not ev.feed(u):
        return None
    seen: Dict[str, int] = {}
    while ev.q not in seen:
        seen[ev.q] = len(seen)
        if not ev.feed(v):
            return None
    loop = v * (len(seen) - seen[ev.q])
    deps: Dict[str, set] = {r: {r} for r in S.registers}
    q = ev.q
    for a in loop:
        deps = {r: set().union(*(deps.get(t, ()) for t in refs))
                for r, (_, refs) in S.updates[(q, a)].parts.items()}
        q = S.delta[(q, a)]
    D = closure(deps[S.out] - {S.out}, lambda r: deps.get(r, ()))
    for _ in range(len(D) + 1):
        before, mark = [ev.val.get(r) for r in D], len(ev.out)
        ev.feed(loop)
        if [ev.val.get(r) for r in D] == before:
            inc = ev.out[mark:]
            return canonicalize(ev.out[:mark], inc) if inc else None
    raise ContractError(
        "eval_limit: the registers feeding out never settle on this input,"
        " so the machine copies without bound")


# -- copy bounds ------------------------------------------------------------------


def counting_matrix(assign: Dict[str, Sequence], cap: int) -> Dict[Tuple[str, str], int]:
    """Matrix m[(r, s)] = occurrences of old register r in new image of s,
    saturated at cap.  An image may be a mixed word or just its register
    tokens."""
    m = {}
    for s, mw in assign.items():
        for t in mw:
            if isinstance(t, Reg):
                k = (str(t), s)
                m[k] = min(cap, m.get(k, 0) + 1)
    return m


def compose_counting(
    m1: Dict[Tuple[str, str], int], m2: Dict[Tuple[str, str], int], cap: int
) -> Dict[Tuple[str, str], int]:
    """Counting matrix of (window1 then window2): entries
    (r, s) = sum_t m1[r, t] * m2[t, s], saturated."""
    by_row2: Dict[str, List[Tuple[str, int]]] = {}
    for (t, s), c in m2.items():
        by_row2.setdefault(t, []).append((s, c))
    out: Dict[Tuple[str, str], int] = {}
    for (r, t), c1 in m1.items():
        for s, c2 in by_row2.get(t, ()):
            k = (r, s)
            out[k] = min(cap, out.get(k, 0) + c1 * c2)
    return out


def _reachable(S: StreamingTransducer):
    """(succ, reach): outgoing (letter, target) pairs per source state, in
    S.delta order, and the states reachable from the initial one."""
    succ: Dict[str, List[Tuple[object, str]]] = {}
    for (p, a), q2 in S.delta.items():
        succ.setdefault(p, []).append((a, q2))
    return succ, closure([S.initial], lambda q: [q2 for _, q2 in succ.get(q, ())])


def _matrix_closure(S: StreamingTransducer, cap: int):
    """All window-composition matrices along reachable paths."""
    succ, reach = _reachable(S)
    step = {
        key: counting_matrix({r: refs for r, (_, refs) in sub.parts.items()}, cap)
        for key, sub in S.updates.items() if key[0] in reach
    }
    base = {}
    for (q, a), m in step.items():
        base.setdefault(S.delta[(q, a)], set()).add(_freeze(m))
    # worklist over (end_state, matrix)
    seen = {(q, m) for q, ms in base.items() for m in ms}
    work = list(seen)
    while work:
        q, m = work.pop()
        yield m
        for a, q2 in succ.get(q, ()):
            m2 = _freeze(compose_counting(dict(m), step[(q, a)], cap))
            if (q2, m2) not in seen:
                seen.add((q2, m2))
                work.append((q2, m2))


def _freeze(m):
    return tuple(sorted(m.items()))


def check_bounded(S: StreamingTransducer, K: int) -> bool:
    """Every composed update window uses each register at most K times per
    target register.

    A copyless machine is K-bounded for every K >= 1: its windows use each
    register at most once in all (see check_copyless), so that answer needs
    no walk over the window matrices, of which a machine whose letters
    permute n registers has n!."""
    if K >= 1 and check_copyless(S):
        return True
    for m in _matrix_closure(S, K + 1):
        if any(c > K for _, c in m):
            return False
    return True


def check_copyless(S: StreamingTransducer) -> bool:
    """Every composed window uses each register at most once in total.

    Checking each reachable update on its own is exact.  If every step
    uses each register at most once, every row of a step's counting matrix
    sums to at most 1, and a product of such 0/1 matrices keeps that
    property, so every longer window is copyless too; a copying step is
    itself a window of length one.
    """
    _, reach = _reachable(S)
    for (q, _), sub in S.updates.items():
        if q not in reach:
            continue
        used = [t for _, refs in sub.parts.values() for t in refs]
        if len(set(used)) != len(used):
            return False
    return True


# -- JSON format --------------------------------------------------------------------


def from_dict(doc: dict) -> StreamingTransducer:
    json_object(doc, "SST", "initial", "out", entries=("delta", "updates"), lists=(
        "input_alphabet", "output_alphabet", "states", "registers"))
    registers = frozenset(doc["registers"])
    updates = {}
    delta = {}
    for entry in doc["updates"]:
        json_object(entry, "update", "state", "letter", maps=("assign",))
        key = (entry["state"], entry["letter"])
        assign = {r: parse_mixed(s) for r, s in entry["assign"].items()}
        for r in registers:
            assign.setdefault(r, (Reg(r),))
        updates[key] = Substitution(assign)
    for entry in doc["delta"]:
        json_object(entry, "delta entry", "state", "letter", "to")
        delta[(entry["state"], entry["letter"])] = entry["to"]
    for key in delta:
        if key not in updates:
            updates[key] = Substitution.identity(registers)
    return StreamingTransducer(
        input_alphabet=frozenset(doc["input_alphabet"]),
        output_alphabet=frozenset(doc["output_alphabet"]),
        states=frozenset(doc["states"]),
        initial=doc["initial"],
        registers=registers,
        out=doc["out"],
        delta=delta,
        updates=updates,
    )


def to_dict(S: StreamingTransducer) -> dict:
    """The JSON form.  Every update writes every register, an unlisted one
    as "": in a file an unlisted register keeps its value."""
    registers = sorted(S.registers)
    updates = []
    for q, a in sorted(S.updates, key=lambda k: (k[0], str(k[1]))):
        assign = S.updates[(q, a)].assignment
        updates.append({
            "state": q,
            "letter": a,
            "assign": {r: format_mixed(assign[r]) if r in assign else ""
                       for r in registers},
        })
    return {
        "input_alphabet": sorted(map(str, S.input_alphabet)),
        "output_alphabet": sorted(map(str, S.output_alphabet)),
        "states": sorted(S.states),
        "initial": S.initial,
        "registers": registers,
        "out": S.out,
        "delta": [
            {"state": q, "letter": a, "to": S.delta[(q, a)]}
            for q, a in sorted(S.delta, key=lambda k: (k[0], str(k[1])))
        ],
        "updates": updates,
    }


def load(path: str) -> StreamingTransducer:
    with open(path) as fh:
        return from_dict(json.load(fh))


def save(S: StreamingTransducer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(S), fh, indent=2)
        fh.write("\n")
