"""Deterministic streaming string transducers.

Registers hold output words and are rewritten by substitutions (mixed words
over output letters and register references).  The distinguished `out`
register is append-only: every update maps out to out followed by new
material, and out appears nowhere else.

Also here: saturated counting matrices for copyless/K-bounded checking, and
deterministic Buchi automata for domains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .nft import BudgetExceeded
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


def count_ref(mw: MixedWord, r: str) -> int:
    return sum(1 for t in mw if isinstance(t, Reg) and t == r)


@dataclass(frozen=True)
class Substitution:
    assignment: Dict[str, MixedWord] = field(hash=False)

    @property
    def registers(self) -> FrozenSet[str]:
        return frozenset(self.assignment)

    def __post_init__(self):
        for r, mw in self.assignment.items():
            for t in mw:
                if isinstance(t, Reg) and t not in self.assignment:
                    raise ValueError(f"unknown register {t!r} in image of {r}")

    def apply_mixed(self, mw: MixedWord) -> MixedWord:
        return substitute(mw, self.assignment)

    def compose(self, other: "Substitution") -> "Substitution":
        """self . other applied as a function: (self o other)(r) = self(other(r))."""
        if self.registers != other.registers:
            raise ValueError("register sets differ")
        return Substitution(
            {r: self.apply_mixed(mw) for r, mw in other.assignment.items()}
        )

    @staticmethod
    def identity(registers) -> "Substitution":
        return Substitution({r: (Reg(r),) for r in registers})


def compose_substitutions(s1: Substitution, s2: Substitution) -> Substitution:
    return s1.compose(s2)


# -- mixed-word text form ------------------------------------------------------


def parse_mixed(s: str) -> MixedWord:
    """Parse "ab$r1 c" style mixed words: $name is a register reference
    (name = [A-Za-z0-9_@{},|]+), spaces separate tokens, other chars are letters."""
    out: List = []
    i = 0
    namechars = set(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@{},|~"
    )
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
    input_alphabet: FrozenSet[object]
    output_alphabet: FrozenSet[object]
    states: FrozenSet[str]
    initial: str
    registers: FrozenSet[str]
    out: str
    delta: Dict[Tuple[str, object], str] = field(hash=False)
    updates: Dict[Tuple[str, object], Substitution] = field(hash=False)

    def __post_init__(self):
        if set(self.delta) != set(self.updates):
            raise ValueError("delta and updates must share their domain")
        if self.out not in self.registers:
            raise ValueError("out not among registers")
        for (q, a), sub in self.updates.items():
            if sub.registers != self.registers:
                raise ValueError(f"update at ({q},{a}) has wrong register set")
            img = sub.assignment[self.out]
            if not img or img[0] != self.out or not isinstance(img[0], Reg):
                raise ValueError(f"out update at ({q},{a}) must start with out")
            occurrences = sum(count_ref(mw, self.out) for mw in sub.assignment.values())
            if occurrences != 1:
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
        if ev.feed((a,)) is None:
            blocked_at = i
            break
    return EvalResult(ev.val[S.out], ev.q, ev.val, blocked_at=blocked_at)


class _Evaluator:
    """Incremental register evaluation; out content only grows."""

    __slots__ = ("S", "q", "val")

    def __init__(self, S: StreamingTransducer, q=None, val=None):
        self.S = S
        self.q = S.initial if q is None else q
        self.val = {r: () for r in S.registers} if val is None else val

    def copy(self) -> "_Evaluator":
        return _Evaluator(self.S, self.q, dict(self.val))

    def feed(self, w) -> Optional[Word]:
        """Run S over the letters of w; returns the out-increment, or None
        when S blocks."""
        S = self.S
        before = len(self.val[S.out])
        for a in w:
            key = (self.q, a)
            if key not in S.delta:
                return None
            assign = S.updates[key].assignment
            self.val = {r: substitute(assign[r], self.val) for r in S.registers}
            self.q = S.delta[key]
        return self.val[S.out][before:]


MAX_LOOPS = 256  # period iterations eval_limit searches for a state lasso


def eval_limit(S: StreamingTransducer, x: UPWord) -> Optional[UPWord]:
    """f(x) for a UP input, or None when undefined.

    The machine state plus register-emptiness vector is eventually periodic
    over x, giving a lasso of input positions; the out-increments per lasso
    loop are then checked for stability and extrapolated.  None when the
    machine blocks or out stops growing over a full validated loop;
    BudgetExceeded when no lasso shows within MAX_LOOPS periods or the
    increments do not settle within 4·MAX_LOOPS.
    """
    u, v = x.prefix, x.period
    ev = _Evaluator(S)
    if ev.feed(u) is None:
        return None

    def key():
        empt = frozenset(r for r in S.registers if len(ev.val[r]) > 0)
        return (ev.q, empt)

    seen = {key(): 0}
    outs = [ev.val[S.out]]
    for k in range(1, MAX_LOOPS + 1):
        if ev.feed(v) is None:
            return None
        outs.append(ev.val[S.out])
        sig = key()
        if sig in seen:
            k0, delta = seen[sig], k - seen[sig]
            break
        seen[sig] = k
    else:
        raise BudgetExceeded("eval_limit: no state lasso within budget")
    # out-increments per lasso loop; require stability over a validation window
    while True:
        need = k0 + 7 * delta
        while len(outs) - 1 < need:
            if ev.feed(v) is None:
                return None
            outs.append(ev.val[S.out])
        marks = [outs[k0 + m * delta] for m in range(7)]
        incs = [marks[m + 1][len(marks[m]):] for m in range(6)]
        if all(i == incs[0] for i in incs):
            if len(incs[0]) == 0:
                return None
            return canonicalize(marks[0], incs[0])
        k0 += delta
        if k0 > MAX_LOOPS * 4:
            raise BudgetExceeded("eval_limit: out growth did not stabilize")


# -- copy bounds ------------------------------------------------------------------


def counting_matrix(assign: Dict[str, MixedWord], cap: int) -> Dict[Tuple[str, str], int]:
    """Matrix m[(r, s)] = occurrences of old register r in new image of s,
    saturated at cap."""
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
    reach = {S.initial}
    stack = [S.initial]
    while stack:
        for _, q2 in succ.get(stack.pop(), ()):
            if q2 not in reach:
                reach.add(q2)
                stack.append(q2)
    return succ, reach


def _matrix_closure(S: StreamingTransducer, cap: int):
    """All window-composition matrices along reachable paths."""
    succ, reach = _reachable(S)
    base = {}
    for (q, a), sub in S.updates.items():
        if q in reach:
            m = _freeze(counting_matrix(sub.assignment, cap))
            base.setdefault(S.delta[(q, a)], set()).add(m)
    # worklist over (end_state, matrix)
    seen = {(q, m) for q, ms in base.items() for m in ms}
    work = list(seen)
    while work:
        q, m = work.pop()
        yield m
        for a, q2 in succ.get(q, ()):
            m2 = _freeze(
                compose_counting(
                    dict(m), counting_matrix(S.updates[(q, a)].assignment, cap), cap
                )
            )
            if (q2, m2) not in seen:
                seen.add((q2, m2))
                work.append((q2, m2))


def _freeze(m):
    return tuple(sorted(m.items()))


def check_bounded(S: StreamingTransducer, K: int) -> bool:
    """Every composed update window uses each register at most K times per
    target register."""
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
        used = set()
        for mw in sub.assignment.values():
            for t in mw:
                if isinstance(t, Reg):
                    if t in used:
                        return False
                    used.add(t)
    return True


# -- domains -----------------------------------------------------------------------


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
        trace = [q]
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
            trace.append(q)


def universal_dba(alphabet) -> BuchiAutomaton:
    alphabet = frozenset(alphabet)
    return BuchiAutomaton(
        alphabet=alphabet,
        states=frozenset({"*"}),
        initial="*",
        accepting=frozenset({"*"}),
        delta={("*", a): "*" for a in alphabet},
    )


def empty_dba(alphabet) -> BuchiAutomaton:
    alphabet = frozenset(alphabet)
    return BuchiAutomaton(
        alphabet=alphabet,
        states=frozenset({"*"}),
        initial="*",
        accepting=frozenset(),
        delta={("*", a): "*" for a in alphabet},
    )


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
            sub = S.updates[key]

            def grows(mw, skip_out=False):
                toks = mw[1:] if skip_out else mw
                return any(
                    (not isinstance(t, Reg)) or (t in nonempty) for t in toks
                )

            new_nonempty = frozenset(
                r
                for r in S.registers
                if r != S.out and grows(sub.assignment[r])
            ) | (frozenset({S.out}) if (S.out in nonempty or grows(sub.assignment[S.out], skip_out=True)) else frozenset())
            emitted = grows(sub.assignment[S.out], skip_out=True)
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


def restrict_domain(S: StreamingTransducer, D: BuchiAutomaton) -> StreamingTransducer:
    """Product machine equal to S on L(D) and undefined elsewhere.

    New out-material is buffered and flushed into out only on transitions
    leaving an accepting D-state, so out grows infinitely iff D accepts.
    """
    buf = "outbuf"
    while buf in S.registers:
        buf += "_"
    registers = S.registers | {buf}
    init = (S.initial, D.initial)
    states = {init}
    delta = {}
    updates = {}
    stack = [init]
    while stack:
        q, d = stack.pop()
        for a in S.input_alphabet:
            if (q, a) not in S.delta or (d, a) not in D.delta:
                continue
            sub = S.updates[(q, a)]
            tail = sub.assignment[S.out][1:]
            assign = {
                r: sub.assignment[r] for r in S.registers if r != S.out
            }
            if d in D.accepting:
                assign[S.out] = (Reg(S.out), Reg(buf)) + tail
                assign[buf] = ()
            else:
                assign[S.out] = (Reg(S.out),)
                assign[buf] = (Reg(buf),) + tail
            st = (q, d)
            nxt = (S.delta[(q, a)], D.delta[(d, a)])
            key = (_pair_name(st), a)
            delta[key] = _pair_name(nxt)
            updates[key] = Substitution(assign)
            if nxt not in states:
                states.add(nxt)
                stack.append(nxt)
    return StreamingTransducer(
        input_alphabet=S.input_alphabet,
        output_alphabet=S.output_alphabet,
        states=frozenset(_pair_name(s) for s in states),
        initial=_pair_name(init),
        registers=registers,
        out=S.out,
        delta=delta,
        updates=updates,
    )


def _pair_name(pair) -> str:
    return f"{pair[0]}|{pair[1]}"


# -- JSON format --------------------------------------------------------------------


def from_dict(doc: dict) -> StreamingTransducer:
    json_object(doc, "SST", "input_alphabet", "output_alphabet", "states",
                "initial", "registers", "out", "delta", "updates")
    registers = frozenset(doc["registers"])
    updates = {}
    delta = {}
    for entry in doc["updates"]:
        json_object(entry, "update", "state", "letter", "assign")
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
    return {
        "input_alphabet": sorted(map(str, S.input_alphabet)),
        "output_alphabet": sorted(map(str, S.output_alphabet)),
        "states": sorted(S.states),
        "initial": S.initial,
        "registers": sorted(S.registers),
        "out": S.out,
        "delta": [
            {"state": q, "letter": a, "to": S.delta[(q, a)]}
            for q, a in sorted(S.delta, key=lambda k: (k[0], str(k[1])))
        ],
        "updates": [
            {
                "state": q,
                "letter": a,
                "assign": {
                    r: format_mixed(mw)
                    for r, mw in sorted(S.updates[(q, a)].assignment.items())
                },
            }
            for q, a in sorted(S.updates, key=lambda k: (k[0], str(k[1])))
        ],
    }


def load(path: str) -> StreamingTransducer:
    with open(path) as fh:
        return from_dict(json.load(fh))


def save(S: StreamingTransducer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(S), fh, indent=2)
        fh.write("\n")
