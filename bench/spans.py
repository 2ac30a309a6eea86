"""Span tracing of the library from outside.

The tracer replaces public functions of the library's modules by wrappers
that record one span per call: (span id, parent span id, operation id,
name, start, end).  A name is ``<layer>.<function>``, the layer being the
module.  Spans are kept in memory and written out by ``dump``.

A function imported by name into another module (``cli`` and
``determinize`` import ``is_continuous``; ``determinize`` imports
``normalize``; ``annotator`` imports ``push``) is patched under every
module that holds it, so a call is traced whichever name it goes through.
``uninstall`` puts the originals back.

Probes attached to some wrappers count work where it happens: annotator
lookahead, candidate-set sizes, determinizer mode switches and trace size,
conversion output sizes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: List[Tuple] = []
        self.stack: List[int] = [0]
        self.op = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.per_op: Dict[Tuple[str, int], float] = {}
        self._compat_seen = set()
        self.op_kind: Dict[int, str] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self._next_id = 1

    def begin_op(self, kind: str) -> None:
        """Start a new operation; later spans carry its id."""
        self.op += 1
        self.op_kind[self.op] = kind

    # -- installing wrappers -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, t0, t1))
            if after is not None:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def trace_function(self, module, attr: str, layer: str, **probes) -> None:
        """Wrap module.attr and every omegastream module alias of it."""
        fn = getattr(module, attr)
        wrapper = self._wrap(f"{layer}.{attr}", fn, **probes)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("omegastream") and mod is not None:
                if mod.__dict__.get(attr) is fn:
                    self._patch(mod, attr, wrapper)

    def trace_method(self, cls, attr: str, layer: str, **probes) -> None:
        fn = cls.__dict__[attr]
        self._patch(cls, attr, self._wrap(f"{layer}.{attr}", fn, **probes))

    def count_method(self, cls, attr: str, counter: str,
                     key: Callable) -> None:
        """Count calls and distinct keys without recording spans; for
        functions called thousands of times per letter."""
        fn = cls.__dict__[attr]
        counts, seen = self.counts, self._compat_seen

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            seen.add((self.op, key(args)))
            return fn(*args, **kwargs)

        self._patch(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def distinct_keys(self) -> int:
        return len(self._compat_seen)

    # -- probes ------------------------------------------------------------------

    def add(self, counter: str, value: float = 1) -> None:
        self.counts[counter] += value

    def high(self, counter: str, value: float) -> None:
        if value > self.maxima[counter]:
            self.maxima[counter] = value

    def note_op(self, counter: str, value: float) -> None:
        """Largest value of a counter seen during the current operation."""
        key = (counter, self.op)
        if value > self.per_op.get(key, -1):
            self.per_op[key] = value

    def op_total(self, counter: str) -> float:
        return sum(v for (c, _), v in self.per_op.items() if c == counter)

    # -- reading spans -----------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [t1 - t0 for _, _, _, n, t0, t1 in self.spans if n == name]

    def by_op(self, name: str) -> Dict[int, List[float]]:
        """Durations of `name` per operation, in call order."""
        out: Dict[int, List[float]] = defaultdict(list)
        for _, _, op, n, t0, t1 in self.spans:
            if n == name:
                out[op].append(t1 - t0)
        return out

    def self_time(self, kinds: Callable[[str], bool]) -> Dict[str, float]:
        """Seconds per layer, over the operations whose kind passes
        `kinds`: span durations minus the durations of their children."""
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for sid, _, op, name, t0, t1 in self.spans:
            if kinds(self.op_kind.get(op, "")):
                out[name.split(".", 1)[0]] += (t1 - t0) - child[sid]
        return out

    def dump(self, path: str) -> None:
        """One JSON array per span: id, parent, op, name, start, end."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tr: Tracer) -> None:
    """Wrap the public functions of the nine library modules."""
    from omegastream import (analysis, annotator, cli, convert, determinize,
                             nft, sst, twoway, words)

    tr.trace_method(words.UPWord, "first", "words")

    tr.trace_function(nft, "normalize", "nft")
    tr.trace_function(nft, "oracle_eval", "nft")
    tr.trace_function(nft, "push", "nft")

    ctx = analysis.AnalysisContext
    tr.trace_function(analysis, "is_continuous", "analysis")
    tr.trace_method(ctx, "comp_subsets", "analysis",
                    after=lambda a, r, s: tr.add("analysis.candidates", len(r)))
    tr.count_method(ctx, "is_compatible", "analysis.is_compatible_calls",
                    key=lambda a: frozenset(a[1]))
    for name in ("analyze_step", "looping_future", "is_separable",
                 "theta_length"):
        tr.trace_method(ctx, name, "analysis")

    def cover_after(args, result, _):
        look = result[0] - args[3]  # returned position minus start position
        tr.add("annotator.lookahead", look)
        tr.high("annotator.lookahead_max", look)

    tr.trace_function(annotator, "cover", "annotator", after=cover_after)

    det = determinize.Determinizer

    def records(d):
        tr.note_op("determinize.trace_records", len(getattr(d, "trace", ())))

    def step_after(args, result, mode_before):
        d = args[0]
        if d.mode != mode_before:
            tr.add("determinize.mode_switches")
        tr.add("determinize.emitted_letters", len(result))
        records(d)

    tr.trace_method(det, "init", "determinize",
                    after=lambda a, r, s: records(a[0]))
    tr.trace_method(det, "step", "determinize",
                    before=lambda a: a[0].mode, after=step_after)
    tr.trace_method(determinize.InvariantChecker, "after_step", "determinize")
    tr.trace_function(determinize, "run_pipeline", "determinize")
    tr.trace_function(determinize, "one_bounded_trace", "determinize")

    tr.trace_function(sst, "eval_limit", "sst")
    tr.trace_function(twoway, "eval_2dt", "twoway",
                      after=lambda a, r, s: tr.add("twoway.eval_2dt_steps",
                                                   r.steps))

    def sizes(args, result, _):
        tr.add("convert.out_states", len(result.states))
        tr.add("convert.out_registers", len(getattr(result, "registers", ())))

    for name in ("kbounded_to_copyless", "sst_to_twoway", "twoway_to_sst"):
        tr.trace_function(convert, name, "convert", after=sizes)

    tr.trace_function(cli, "main", "cli")
