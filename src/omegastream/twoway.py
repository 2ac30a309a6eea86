"""Deterministic two-way transducers with a left endmarker.

The head starts on the endmarker (position 0); moves on the endmarker must
go right.  Transitions can optionally be refined by the state of a
lookbehind DFA that has read all input letters up to and including the
head cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .words import UPWord, Word, json_object, word

ENDMARKER = "^"

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class LookbehindDFA:
    states: FrozenSet[object]
    initial: object
    delta: Dict[Tuple[object, object], object] = field(hash=False)

    def step(self, d, a):
        return self.delta[(d, a)]


@dataclass(frozen=True)
class TwoWayTransducer:
    input_alphabet: FrozenSet[object]
    output_alphabet: FrozenSet[object]
    states: FrozenSet[str]
    initial: str
    # key: (state, symbol) or (state, symbol, lookbehind state)
    delta: Dict[Tuple, Tuple[str, str]] = field(hash=False)
    out: Dict[Tuple, Word] = field(hash=False)
    lookbehind: Optional[LookbehindDFA] = None

    def __post_init__(self):
        if set(self.delta) != set(self.out):
            raise ValueError("delta and out must share their domain")
        for key, (q2, move) in self.delta.items():
            if key[1] == ENDMARKER and move != RIGHT:
                raise ValueError(f"endmarker transition at {key} must move right")
            if move not in (LEFT, RIGHT):
                raise ValueError(f"bad move {move!r} at {key}")

    def lookup(self, q, sym, lb):
        """Transition at (q, sym) refined by the lookbehind state."""
        key = (q, sym, lb)
        if key in self.delta:
            return self.delta[key], self.out[key]
        key = (q, sym)
        if key in self.delta:
            return self.delta[key], self.out[key]
        return None, None


@dataclass
class TwoWayOutcome:
    status: str  # "ok" | "undefined" | "inconclusive"
    output: Word
    steps: int


def eval_2dt(
    T2: TwoWayTransducer,
    x: UPWord,
    n: int,
    step_budget: int = 500_000,
) -> TwoWayOutcome:
    """First n output letters of T2 over x.

    "undefined" when a configuration repeats (the head stays bounded, so
    the run does not scan the whole input); "inconclusive" when the step
    budget runs out first.
    """
    q = T2.initial
    i = 0
    out: List = []
    seen = {(q, i)}
    lb_states: List = [None]
    if T2.lookbehind is not None:
        lb_states = [T2.lookbehind.initial]

    def lb_at(pos: int):
        if T2.lookbehind is None:
            return None
        while len(lb_states) <= pos:
            j = len(lb_states)
            lb_states.append(
                T2.lookbehind.step(lb_states[j - 1], x.letter_at(j - 1))
            )
        return lb_states[pos]

    for step in range(step_budget):
        if len(out) >= n:
            return TwoWayOutcome("ok", tuple(out[:n]), step)
        sym = ENDMARKER if i == 0 else x.letter_at(i - 1)
        tr, lam = T2.lookup(q, sym, lb_at(i))
        if tr is None:
            return TwoWayOutcome("undefined", tuple(out), step)
        q2, move = tr
        out.extend(lam)
        q = q2
        i = i + 1 if move == RIGHT else i - 1
        if i < 0:
            raise ValueError("head moved left of the endmarker")
        cfg = (q, i)
        if cfg in seen:
            return TwoWayOutcome("undefined", tuple(out), step)
        seen.add(cfg)
    return TwoWayOutcome("inconclusive", tuple(out), step_budget)


# -- JSON format --------------------------------------------------------------


def from_dict(doc: dict) -> TwoWayTransducer:
    json_object(doc, "2DT", "input_alphabet", "output_alphabet", "states",
                "initial", "transitions")
    delta = {}
    out = {}
    for tr in doc["transitions"]:
        json_object(tr, "transition", "state", "symbol", "to", "move")
        key = (tr["state"], tr["symbol"])
        if "lookbehind" in tr:
            key = key + (tr["lookbehind"],)
        delta[key] = (tr["to"], tr["move"])
        out[key] = word(tr.get("out", ""))
    lb = None
    if "lookbehind" in doc:
        d = doc["lookbehind"]
        json_object(d, "lookbehind", "states", "initial", "delta")
        lb = LookbehindDFA(
            states=frozenset(d["states"]),
            initial=d["initial"],
            delta={(e["state"], e["letter"]): e["to"] for e in d["delta"]},
        )
    return TwoWayTransducer(
        input_alphabet=frozenset(doc["input_alphabet"]),
        output_alphabet=frozenset(doc["output_alphabet"]),
        states=frozenset(doc["states"]),
        initial=doc["initial"],
        delta=delta,
        out=out,
        lookbehind=lb,
    )


def to_dict(T2: TwoWayTransducer) -> dict:
    transitions = []
    for key in sorted(T2.delta, key=lambda k: tuple(map(str, k))):
        entry = {"state": key[0], "symbol": key[1]}
        if len(key) == 3:
            entry["lookbehind"] = key[2]
        q2, move = T2.delta[key]
        entry["to"] = q2
        entry["move"] = move
        entry["out"] = "".join(map(str, T2.out[key]))
        transitions.append(entry)
    doc = {
        "input_alphabet": sorted(map(str, T2.input_alphabet)),
        "output_alphabet": sorted(map(str, T2.output_alphabet)),
        "states": sorted(map(str, T2.states)),
        "initial": T2.initial,
        "transitions": transitions,
    }
    if T2.lookbehind is not None:
        lb = T2.lookbehind
        doc["lookbehind"] = {
            "states": sorted(map(str, lb.states)),
            "initial": lb.initial,
            "delta": [
                {"state": d, "letter": a, "to": lb.delta[(d, a)]}
                for d, a in sorted(lb.delta, key=lambda k: tuple(map(str, k)))
            ],
        }
    return doc


def load(path: str) -> TwoWayTransducer:
    with open(path) as fh:
        return from_dict(json.load(fh))


def save(T2: TwoWayTransducer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(T2), fh, indent=2)
        fh.write("\n")
