"""Streaming determinizer: a 1-bounded register machine consuming the
annotated stream C0 x[1] C1 x[2] C2 ... and emitting f(x) incrementally.

The interpreter keeps the machine's state explicitly and computes each
step afresh.  The control states it reaches (everything but register
contents, caches and counters) are few in practice: 3 on `replace`, 8 on
`double` and 13 on `replace_12` over 3,000-letter random block streams.
Compiling them lazily into an explicit SST is ROADMAP.md item 4.  The
state:

- non-separable mode: out = common production of the surviving runs,
  lag(q) = the per-state remainder (bounded);
- separable mode: remainders can grow unboundedly but only by iterating a
  fixed word theta; the machine tracks a transient max_lag, per-state
  sub-theta words last(q), and theta-counters nb arranged along the tree
  of compatible subsets, with one overflow register out_pi per tree path.

Every step records the exact substitution applied to the registers
(out and the out_pi), so 1-boundedness can be checked on traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import islice
from typing import Dict, FrozenSet, List, MutableSequence, Optional, Tuple

from .analysis import (
    AdvanceProfile,
    AnalysisContext,
    ContinuityViolation,
    StepAnalysis,
    is_continuous,
)
from .annotator import annotate
from .nft import ContractError, OneWayTransducer, clean, make_productive, trim
from .sst import Reg, substitute
from .words import UPWord, Word, is_prefix, lcp_finite, up_starts_with


class InvariantError(Exception):
    def __init__(self, which: str, message: str):
        super().__init__(f"invariant {which}: {message}")
        self.which = which


@lru_cache(maxsize=1 << 14)
def path_register(path: Tuple[FrozenSet[str], ...]) -> str:
    """Register name of a tree path; the root path is the out register."""
    if len(path) == 1:
        return "out"
    return "out@" + ">".join("{" + ",".join(sorted(C)) + "}" for C in path)


class _Recorder:
    """Per-step symbolic register store.

    Tokens always reference step-start register contents, so the recorded
    assignment is the one-transition substitution the machine applies.

    out is append-only: its symbolic value always starts with Reg("out"),
    which appears nowhere else, so the resolved out is old out + this
    step's delta.  fresh, splice and remap refuse to break that."""

    def __init__(self, old: Dict[str, Word]):
        self.old = dict(old)
        self.sym: Dict[str, List] = {"out": [Reg("out")]}

    def fresh(self, name: str):
        if name == "out":
            raise InvariantError("out", "out cannot be reset")
        self.sym[name] = []

    def append_letters(self, name: str, w):
        self.sym[name].extend(w)

    def splice(self, name: str, source: str):
        """Append the current symbolic value of `source` to `name`."""
        if source == "out":
            raise InvariantError("out", "out cannot be copied")
        self.sym[name] = self.sym[name] + list(self.sym[source])

    def remap(self, mapping: Dict[str, Optional[str]]):
        """Rebuild the register set: mapping[new] = old-current name or None
        (fresh empty).  out must be mapped to itself."""
        if mapping.get("out") != "out" or any(
                src == "out" for new, src in mapping.items() if new != "out"):
            raise InvariantError("out", "out must be remapped to itself only")
        self.sym = {
            new: (list(self.sym[src]) if src is not None else [])
            for new, src in mapping.items()
        }

    def resolve(self, name: str) -> Word:
        return substitute(self.sym[name], self.old)

    def finish(self):
        assign = {name: tuple(toks) for name, toks in self.sym.items()}
        contents = {name: self.resolve(name) for name in self.sym}
        return assign, contents


@dataclass
class StepRecord:
    index: int
    letter: object
    mode: str
    C: Tuple[str, ...]
    lag: Dict[str, Word]
    max_lag: Word
    nb: Dict[str, Dict[str, int]]
    emitted_delta: Word
    assign: Dict[str, Tuple]


class Determinizer:
    """The transition system; one instance per stream.

    Each step appends a StepRecord to `trace`: by default a sink that keeps
    only the last record; pass a list to keep them all."""

    def __init__(self, ctx: AnalysisContext,
                 trace: Optional[MutableSequence[StepRecord]] = None):
        self.ctx = ctx
        self.T = ctx.T
        self.trace = deque(maxlen=1) if trace is None else trace
        self._tree_cache: Dict[FrozenSet[str], List[Tuple]] = {}
        self._children_cache: Dict[FrozenSet[str], Tuple[FrozenSet[str], ...]] = {}
        self.steps = 0
        self.emitted: List = []

    # -- structure helpers -----------------------------------------------------

    def tree(self, C: FrozenSet[str]) -> List[Tuple[FrozenSet[str], ...]]:
        C = frozenset(C)
        if C in self._tree_cache:
            return self._tree_cache[C]
        comp = self.ctx.comp_subsets(C)
        paths: List[Tuple] = []

        def extend(path):
            paths.append(path)
            for D in comp:
                if D < path[-1]:
                    extend(path + (D,))

        extend((C,))
        self._tree_cache[C] = paths
        return paths

    def _children(self, Cn: FrozenSet[str]) -> Tuple[FrozenSet[str], ...]:
        kids = self._children_cache.get(Cn)
        if kids is None:
            kids = self._children_cache[Cn] = tuple(
                D for D in self.ctx.comp_subsets(Cn) if D != Cn)
        return kids

    def lagging(self, q: str) -> bool:
        return len(self.lag[q]) < len(self.max_lag)

    # -- initialization --------------------------------------------------------

    def init(self, C0):
        C0 = frozenset(C0)
        if self.ctx.is_compatible(C0) is None:
            raise ContractError(f"initial set {sorted(C0)} is not compatible")
        self.C = C0
        self.J = C0
        self.pre_total = {q: q for q in C0}
        self.theta: Word = ()
        self.out_regs: Dict[str, Word] = {}
        rec = _Recorder({"out": ()})
        self._settle(rec, {q: () for q in C0})
        return self._commit(rec, letter=None)

    # -- the step dispatcher ---------------------------------------------------

    def step(self, a, C_next) -> Word:
        C_next = frozenset(C_next)
        # out is append-only (see _Recorder): with an empty old out, the
        # resolved out is exactly this step's delta
        rec = _Recorder({"out": (), **self.out_regs})
        for name in self.out_regs:
            rec.sym[name] = [Reg(name)]
        sa = self.ctx.analyze_step(self.C, (a,), C_next)
        if sa is None or set(sa.pre) != C_next:
            raise ContractError(
                f"annotated move {sorted(self.C)} --{a}--> {sorted(C_next)} "
                "is not a pre-step"
            )
        if self.mode == "nonsep":
            self._step_nonsep(rec, sa)
        elif sa.is_step:
            self._step_sep_aligned(rec, sa)
        else:
            self._preprocess(rec, sa, a)
        return self._commit(rec, letter=a)

    def _commit(self, rec: _Recorder, letter) -> Word:
        assign, contents = rec.finish()
        delta = contents.pop("out")
        self.emitted.extend(delta)
        self.out_regs = contents
        self.trace.append(
            StepRecord(
                index=self.steps,
                letter=letter,
                mode=self.mode,
                C=tuple(sorted(self.C)),
                lag={q: self.lag[q] for q in sorted(self.lag)},
                max_lag=self.max_lag,
                nb={
                    path_register(p): {q: m[q] for q in sorted(m)}
                    for p, m in self.nb.items()
                },
                emitted_delta=delta,
                assign=assign,
            )
        )
        self.steps += 1
        return delta

    # -- non-separable mode ----------------------------------------------------

    def _step_nonsep(self, rec: _Recorder, sa):
        delta = {
            q: self.lag[sa.pre[q]] + sa.val[q] for q in sa.target
        }
        c = reduce(lcp_finite, [delta[q] for q in sorted(sa.target)])
        rec.append_letters("out", c)
        alphas = {q: delta[q][len(c):] for q in sa.target}
        self.pre_total = {q: self.pre_total[sa.pre[q]] for q in sa.target}
        self.C = sa.target
        self.J = frozenset(self.pre_total.values())
        self._settle(rec, alphas)

    def _settle(self, rec: _Recorder, alphas: Dict[str, Word]):
        """Enter the mode of the current C with per-state remainders alphas."""
        if self.ctx.is_separable(self.C) is not None:
            self._enter_separable(rec, alphas)
        else:
            self.mode = "nonsep"
            self.lag = alphas
            self.max_lag: Word = ()
            self.last: Dict[str, Word] = {}
            self.nb: Dict[Tuple, Dict[str, int]] = {}

    def _enter_separable(self, rec: _Recorder, alphas: Dict[str, Word]):
        profile = AdvanceProfile(
            common=(),
            advance=dict(alphas),
            max_advance=max(alphas.values(), key=len),
        )
        lf = self.ctx.looping_future(self.C, profile)
        self.mode = "sep"
        self.theta = lf.theta
        k = len(lf.tau)
        self.max_lag = lf.tau
        self.lag = {q: alphas[q][:k] for q in self.C}
        self.last = {q: alphas[q][k:] for q in self.C}
        for q in self.C:
            if not is_prefix(self.lag[q], self.max_lag):
                raise InvariantError("4a", f"lag({q}) escapes max_lag")
        paths = self.tree(self.C)
        self.nb = {p: {q: 0 for q in p[-1]} for p in paths}
        for p in paths:
            if len(p) > 1:
                rec.fresh(path_register(p))
        self._resize_last(rec)

    # -- toolbox ---------------------------------------------------------------

    def _resize_last(self, rec: _Recorder):
        th = self.theta
        L = len(th)
        root = (self.C,)
        for q in self.C:
            w = self.last[q]
            n = 0
            while len(w) >= L and w[:L] == th:
                w = w[L:]
                n += 1
            if not is_prefix(w, th):
                raise InvariantError("4c", f"last({q}) is not a theta prefix")
            self.last[q] = w
            self.nb[root][q] += n
        self._down(rec, root)
        for p, m in self.nb.items():
            if any(v > 2 for v in m.values()):
                raise InvariantError("toolbox", f"nb not clamped on {p}")

    def _down(self, rec: _Recorder, path: Tuple):
        Cn = path[-1]
        m = min(self.nb[path][q] for q in Cn)
        if m > 0:
            rec.append_letters(path_register(path), self.theta * m)
            for q in Cn:
                self.nb[path][q] -= m
        for q in Cn:
            if self.nb[path][q] > 2:
                over = self.nb[path][q] - 2
                for D in self._children(Cn):
                    if q in D:
                        self.nb[path + (D,)][q] += over
                self.nb[path][q] = 2
        for D in self._children(Cn):
            self._down(rec, path + (D,))

    # -- separable mode, aligned step ------------------------------------------

    def _step_sep_aligned(self, rec: _Recorder, sa):
        pre_a, val = sa.pre, sa.val
        target = sa.target
        new_tree = self.tree(target)
        mapping: Dict[str, Optional[str]] = {"out": "out"}
        new_nb: Dict[Tuple, Dict[str, int]] = {}
        for path in new_tree:
            chain = tuple(
                frozenset(pre_a[q] for q in D) for D in path
            )
            rho = [chain[0]]
            for Ci in chain[1:]:
                if Ci != rho[-1]:
                    rho.append(Ci)
            rho = tuple(rho)
            single_tail = len(chain) == 1 or chain[-1] != chain[-2]
            name = path_register(path)
            if single_tail:
                if rho not in self.nb:
                    raise InvariantError(
                        "2", f"remapped path {rho} missing from the tree"
                    )
                new_nb[path] = {
                    q: self.nb[rho][pre_a[q]] for q in path[-1]
                }
                if name != "out":
                    mapping[name] = path_register(rho)
            else:
                new_nb[path] = {q: 0 for q in path[-1]}
                if name != "out":
                    mapping[name] = None
        rec.remap(mapping)
        new_lag = {}
        new_last = {}
        for q in target:
            p = pre_a[q]
            if not is_prefix(self.lag[p], self.max_lag):
                raise InvariantError("4a", f"lag({p}) escapes max_lag")
            k = len(self.max_lag) - len(self.lag[p])
            v = val[q]
            new_lag[q] = self.lag[p] + v[:k]
            new_last[q] = self.last[p] + v[k:]
            if not is_prefix(new_lag[q], self.max_lag):
                raise ContinuityViolation(
                    f"production at {q} leaves the looping future"
                )
        c = reduce(lcp_finite, [new_lag[q] for q in sorted(target)])
        rec.append_letters("out", c)
        self.lag = {q: new_lag[q][len(c):] for q in target}
        self.last = new_last
        self.max_lag = self.max_lag[len(c):]
        self.nb = new_nb
        self.pre_total = {q: self.pre_total[pre_a[q]] for q in target}
        self.C = target
        self.J = frozenset(self.pre_total.values())
        self._resize_last(rec)

    # -- separable mode, preprocessing -----------------------------------------

    def _preprocess(self, rec: _Recorder, sa, a):
        Cp = frozenset(sa.pre.values())
        if Cp == self.C:
            raise ContractError("preprocess requires a strict pre-image")
        pi = (self.C, Cp)
        if pi not in self.nb:
            raise ContractError(
                f"pre-image {sorted(Cp)} is not a compatible subset"
            )
        root = (self.C,)
        close = all(
            (not any(self.nb[p].values()))
            and self.out_regs.get(path_register(p), ()) == ()
            for p in self.nb
            if len(p) > 2 and p[:2] == pi
        )
        th = self.theta
        pi_name = path_register(pi)
        if close:
            nbC, nbCC = self.nb[root], self.nb[pi]
            if any(self.lagging(q) for q in Cp):
                if self.out_regs.get(pi_name, ()) != ():
                    raise InvariantError(
                        "4d", "lagging state with nonempty branch register"
                    )
                delta = {
                    q: self.lag[q] + th * (nbC[q] + nbCC[q]) + self.last[q]
                    for q in Cp
                }
                c = reduce(lcp_finite, [delta[q] for q in sorted(Cp)])
                rec.append_letters("out", c)
            else:
                delta = {
                    q: th * (nbC[q] + nbCC[q]) + self.last[q] for q in Cp
                }
                c = reduce(lcp_finite, [delta[q] for q in sorted(Cp)])
                rec.append_letters("out", self.max_lag)
                rec.splice("out", pi_name)
                rec.append_letters("out", c)
            alphas = {q: delta[q][len(c):] for q in Cp}
            # drop the separable structure; the branch registers vanish
            rec.remap({"out": "out"})
            self.pre_total = {q: self.pre_total[q] for q in Cp}
            self.C = Cp
            self.J = frozenset(self.pre_total.values())
            self._settle(rec, alphas)
        else:
            c = reduce(lcp_finite, [self.lag[q] for q in sorted(Cp)])
            rec.append_letters("out", c)
            rec.splice("out", pi_name)
            new_lag = {q: self.lag[q][len(c):] for q in Cp}
            new_last = {
                q: th * self.nb[root][q] + self.last[q] for q in Cp
            }
            self.max_lag = self.max_lag[len(c):]
            mapping: Dict[str, Optional[str]] = {"out": "out"}
            new_nb: Dict[Tuple, Dict[str, int]] = {}
            for path in self.tree(Cp):
                old = (self.C,) + path
                if path == (Cp,):
                    new_nb[path] = dict(self.nb[pi])
                else:
                    if old not in self.nb:
                        raise InvariantError(
                            "2", f"subtree path {old} missing from the tree"
                        )
                    new_nb[path] = dict(self.nb[old])
                    mapping[path_register(path)] = path_register(old)
            rec.remap(mapping)
            self.nb = new_nb
            self.lag = new_lag
            self.last = new_last
            self.pre_total = {q: self.pre_total[q] for q in Cp}
            self.C = Cp
            self.J = frozenset(self.pre_total.values())
            self._resize_last(rec)
        # the pending letter: C', a, C_next is now a step
        sa2 = self.ctx.analyze_step(self.C, (a,), sa.target)
        if sa2 is None or set(sa2.pre) != sa.target or not sa2.is_step:
            raise ContractError("preprocessed move did not become a step")
        if self.mode == "nonsep":
            self._step_nonsep(rec, sa2)
        else:
            self._step_sep_aligned(rec, sa2)


# -- invariant checking ------------------------------------------------------------

RECOMPUTE_EVERY = 25  # letters between re-derivations of val from T
FUTURE_LETTERS = 6  # input letters of lookahead for the future invariant 4f


class InvariantChecker:
    """Oracle-backed per-step verification of the determinizer invariants.

    Maintains the run productions val(q) incrementally (mirroring the
    machine), re-derives them from T's transitions every RECOMPUTE_EVERY
    letters, and checks each invariant against the machine's state.

    val(q) is held as rest(q): val(q) with the emitted output removed.
    Invariants 3a and 4e force the output to be a prefix of every val(q), so
    each step strips its output delta from the rests and raises when the
    delta does not fit.  A rest is the output the machine still holds back
    for q (its lag, theta powers and last), so a step's cost follows that,
    not the length of the stream.

    The re-derivation is as strong as the walk J, x[1:i], C from position 0,
    but it is an induction over checkpoints, so it walks only the letters
    since the last one.  `runs` holds that walk's left fold per start s in
    J: for each state reached from s, its runs capped at 2 and the
    production of a unique run.  J only shrinks, so the fold from the
    current J is the merge of the folds of its starts.  A production is
    held without the output emitted at the last checkpoint, or as None
    when it does not extend that output.  `history` still keeps one
    snapshot per letter (ROADMAP item 7)."""

    def __init__(self, det: Determinizer, x: Optional[UPWord] = None):
        self.det = det
        self.x = x
        self.n_letters = 0  # input letters consumed
        self.n_out = 0  # output letters already stripped from the rests
        # (C, a, D) -> analyze_step(C, a, D); (C, a) -> _move(C, a)
        self._steps: Dict[Tuple, Optional[StepAnalysis]] = {}
        # (start, state) -> (runs capped at 2, production after the first
        # n_base output letters, or None)
        self.runs: Dict[Tuple[str, str], Tuple[int, Optional[Word]]] = {
            (q, q): (1, ()) for q in det.J}
        self.n_base = 0
        self.window: List = []  # the letters since the last checkpoint
        self.rest = self._strip({q: () for q in det.C})
        self.history: List[Dict] = [
            {"C": det.C, "rest": self.rest, "pre": {q: q for q in det.C}}
        ]
        self.check()

    def _strip(self, vals: Dict[str, Word]) -> Dict[str, Word]:
        """Remove the output emitted since the last call from vals, which
        already lack the output before it; raise unless it is a prefix of
        each."""
        emitted = self.det.emitted
        delta = tuple(emitted[self.n_out:])
        self.n_out = len(emitted)
        k = len(delta)
        for q, w in vals.items():
            if w[:k] != delta:
                raise InvariantError("soundness", f"out diverges from val({q})")
        return {q: w[k:] for q, w in vals.items()}

    def after_step(self, a):
        det = self.det
        sa = self._step(self.history[-1]["C"], a, det.C)
        if sa is None:
            raise InvariantError("2", "consumed move is not a pre-step")
        self.n_letters += 1
        self.window.append(a)
        self.rest = self._strip(
            {q: self.rest[sa.pre[q]] + sa.val[q] for q in det.C})
        self.history.append({"C": det.C, "rest": self.rest, "pre": sa.pre})
        if len(self.window) == RECOMPUTE_EVERY:
            self._spot_recompute()
        self.check()

    def _fold(self) -> Dict[str, Tuple[str, Optional[Word]]]:
        """Advance `runs` over the window, from the starts still in J, and
        return (pre(q), production after the first n_base output letters)
        for each q in C; raise unless J, x[1:i], C is an initial step."""
        det = self.det
        runs = {key: v for key, v in self.runs.items() if key[0] in det.J}
        for a in self.window:
            nxt: Dict[Tuple[str, str], Tuple[int, Optional[Word]]] = {}
            for (s, q), (count, prod) in runs.items():
                for q2, out in det.T.succ(q, a):
                    key = (s, q2)
                    nxt[key] = (2, None) if key in nxt else (
                        count, None if prod is None else prod + out)
            runs = nxt
        self.runs = runs
        self.window = []
        folded: Dict[str, Tuple[str, Optional[Word]]] = {}
        counts: Dict[str, int] = {}
        for (s, q), (count, prod) in runs.items():
            if q in det.C:
                counts[q] = counts.get(q, 0) + count
                folded[q] = (s, prod)
        if (any(counts.get(q) != 1 for q in det.C)
                or {s for s, _ in folded.values()} != det.J):
            raise InvariantError("2", "J, x[1:i], C is not an initial step")
        return folded

    def _spot_recompute(self):
        det = self.det
        folded = self._fold()
        since = tuple(det.emitted[self.n_base:])
        for q in det.C:
            start, prod = folded[q]
            if prod != since + self.rest[q]:
                raise InvariantError(
                    "2", f"incremental val({q}) drifted from recomputation"
                )
            if start != det.pre_total[q]:
                raise InvariantError("2", f"pre({q}) drifted")
        # re-base the productions on the output emitted up to here
        k = len(since)
        self.n_base += k
        self.runs = {
            key: (count, prod[k:] if prod is not None and prod[:k] == since
                  else None)
            for key, (count, prod) in self.runs.items()
        }

    # individual invariants ----------------------------------------------------

    def check(self):
        det = self.det
        # inv 2 (shape): pre maps into J and covers it
        if frozenset(det.pre_total.values()) != det.J:
            raise InvariantError("2", "pre image differs from J")
        if len(det.emitted) != self.n_out:
            raise InvariantError("soundness", "out changed outside a step")
        if det.mode == "nonsep":
            if reduce(lcp_finite, [self.rest[q] for q in sorted(det.C)]):
                raise InvariantError("3a", "out != common production")
            for q in det.C:
                if det.lag[q] != self.rest[q]:
                    raise InvariantError("3b", f"lag({q}) != advance({q})")
        else:
            self._check_sep()

    def _check_sep(self):
        det = self.det
        th = det.theta
        if not any(len(det.lag[q]) == 0 for q in det.C):
            raise InvariantError("4a", "no state with empty lag")
        for q in det.C:
            if not is_prefix(det.lag[q], det.max_lag):
                raise InvariantError("4a", f"lag({q}) not a prefix of max_lag")
        for p in det.nb:
            if len(p) == 1:
                continue
            w = det.out_regs.get(path_register(p), ())
            if len(w) % len(th) != 0 or any(
                w[i:i + len(th)] != th for i in range(0, len(w), len(th))
            ):
                raise InvariantError("4b", f"out_{p} not a power of theta")
        for q in det.C:
            w = det.last[q]
            if len(w) >= len(th) or not is_prefix(w, th):
                raise InvariantError("4c", f"last({q}) not below theta")
        for q in det.C:
            if det.lagging(q):
                if det.last[q] != ():
                    raise InvariantError("4d", f"lagging {q} with last != eps")
                for p, m in det.nb.items():
                    if q in p[-1] and m[q] != 0:
                        raise InvariantError("4d", f"lagging {q} with nb != 0")
                    if (
                        q in p[-1]
                        and len(p) > 1
                        and det.out_regs.get(path_register(p), ()) != ()
                    ):
                        raise InvariantError(
                            "4d", f"lagging {q} with out_pi != eps"
                        )
        self._check_past()
        self._check_future()
        self._check_decompositions()

    def _check_past(self):
        det = self.det
        th = det.theta
        for p in det.nb:
            if len(p[-1]) != 1:
                continue
            (q,) = p[-1]
            if det.lagging(q):
                expected = det.lag[q]
            else:
                expected = det.max_lag + th * det.nb[(det.C,)][q]
                for i in range(1, len(p)):
                    sub = p[: i + 1]
                    expected = (
                        expected
                        + det.out_regs.get(path_register(sub), ())
                        + th * det.nb[sub][q]
                    )
                expected = expected + det.last[q]
            if expected != self.rest[q]:
                raise InvariantError(
                    "4e", f"stored decomposition of val({q}) is wrong"
                )

    def _check_future(self):
        det = self.det
        if self.x is None:
            return
        future = UPWord(prefix=det.max_lag, period=det.theta)
        i = self.n_letters
        C = det.C
        rest = self.rest
        start = {q: q for q in C}  # each run's state in det.C
        for m in range(FUTURE_LETTERS):
            sa = self._move(C, self.x.letter_at(i + m))
            if sa is None:
                break
            D = sa.target
            rest = {q: rest[sa.pre[q]] + sa.val[q] for q in D}
            start = {q: start[sa.pre[q]] for q in D}
            C = D
            # D holds every successor and each has one predecessor, so the
            # runs from det.C are unique: the extension is a step from det.C
            # exactly when they all survive, and only steps are constrained
            if set(start.values()) != det.C:
                continue
            for q in D:
                if not up_starts_with(future, rest[q]):
                    raise InvariantError(
                        "4f", f"future val({q}) escapes max_lag theta^w"
                    )

    def _step(self, C: FrozenSet[str], a,
              D: FrozenSet[str]) -> Optional[StepAnalysis]:
        """analyze_step(C, a, D), memoized: a stream asks the same few
        one-letter moves at every step."""
        key = (C, a, D)
        if key not in self._steps:
            self._steps[key] = self.det.ctx.analyze_step(C, (a,), D)
        return self._steps[key]

    def _move(self, C: FrozenSet[str], a) -> Optional[StepAnalysis]:
        """The step from C on a into all of C's a-successors; None when
        there are none or one has two runs.  Memoized under (C, a) in the
        same memo as _step."""
        key = (C, a)
        if key not in self._steps:
            D = frozenset(q2 for q in C for q2, _ in self.det.T.succ(q, a))
            self._steps[key] = self._step(C, a, D) if D else None
        return self._steps[key]

    def _check_decompositions(self):
        det = self.det
        two_theta = 2 * len(det.theta)
        for p in det.nb:
            if len(p) == 1:
                continue
            deeper = [
                p2 for p2 in det.nb if len(p2) > len(p) and p2[: len(p)] == p
            ]
            close = all(
                not any(det.nb[p2].values())
                and det.out_regs.get(path_register(p2), ()) == ()
                for p2 in deeper
            )
            if close:
                continue
            if not self._find_decomposition(p[-1], two_theta):
                raise InvariantError(
                    "4g", f"no split point found for non-close path {p}"
                )

    def _find_decomposition(self, Cn: FrozenSet[str], bound: int) -> bool:
        # walk the run states of Cn backwards through the stored pre maps,
        # looking for a past position whose advances already spread by >= bound;
        # a snapshot's vals share its output, so its rests spread as much
        states = {q: q for q in Cn}
        for j in range(len(self.history) - 1, -1, -1):
            snap = self.history[j]
            rests = [snap["rest"][states[q]] for q in sorted(Cn)]
            common = reduce(lcp_finite, rests)
            if max(len(v) for v in rests) - len(common) >= bound:
                return True
            if j > 0:
                states = {q: snap["pre"][states[q]] for q in Cn}
        return False


# -- streaming session -----------------------------------------------------------


def prepare(T: OneWayTransducer) -> AnalysisContext:
    """The analysis context of normalized T, once T is known continuous.

    make_productive comes last because it needs a continuous machine."""
    T = clean(trim(T))
    ok, witness = is_continuous(T)
    if not ok:
        raise ContinuityViolation(
            f"function is not continuous: outputs {witness.words[0]} and "
            f"{witness.words[1]} diverge on arbitrarily close inputs"
        )
    return AnalysisContext(make_productive(T))


class StreamSession:
    """One left-to-right evaluation over an annotated stream.

    Feed C0 first, then one (letter, C) pair per input letter; each feed
    returns the output it releases.  With check_invariants every step is
    verified by an InvariantChecker, which also checks futures when the
    input word x is known.  `trace` is the determinizer's step-record sink
    (default: the last record only)."""

    def __init__(self, ctx: AnalysisContext, x: Optional[UPWord] = None,
                 check_invariants: bool = False,
                 trace: Optional[MutableSequence[StepRecord]] = None):
        self.det = Determinizer(ctx, trace)
        self.x = x
        self.check_invariants = check_invariants
        self.checker: Optional[InvariantChecker] = None

    def feed(self, item) -> Word:
        det = self.det
        if det.steps == 0:
            delta = det.init(item)
            if self.check_invariants:
                self.checker = InvariantChecker(det, self.x)
            return delta
        a, C = item
        delta = det.step(a, C)
        if self.checker is not None:
            self.checker.after_step(a)
        return delta

    def run(self, annotations, n: Optional[int] = None):
        """Feed C0 and then at most n annotated letters (all when n is
        None), pulling no item beyond them; yields (item, output)."""
        for item in islice(annotations, None if n is None else n + 1):
            yield item, self.feed(item)

    @property
    def steps(self) -> int:
        """Input letters consumed (0 before C0 is fed)."""
        return max(self.det.steps - 1, 0)

    @property
    def emitted(self) -> Word:
        return tuple(self.det.emitted)


@dataclass
class PipelineResult:
    emitted: Word
    steps: int
    trace: List[StepRecord]
    transducer: OneWayTransducer = field(repr=False)
    context: AnalysisContext = field(repr=False)
    annotations: List = field(default_factory=list, repr=False)


def run_pipeline(
    T: OneWayTransducer,
    x: UPWord,
    n: int,
    check_invariants: bool = False,
) -> PipelineResult:
    """Normalize, annotate and determinize T over the first n letters of x.

    T must be continuous (ContinuityViolation otherwise) and unambiguous:
    annotate decides x's membership in the domain with the exact oracle
    before C0, and raises AmbiguityError on an ambiguous machine and
    DivergedError on a word outside the domain."""
    ctx = prepare(T)
    session = StreamSession(ctx, x, check_invariants, trace=[])
    ann = annotate(ctx, x)
    annotations = [item for item, _ in session.run(ann, n)]
    return PipelineResult(
        emitted=session.emitted,
        steps=session.steps,
        trace=session.det.trace,
        transducer=ctx.T,
        context=ctx,
        annotations=annotations,
    )


def one_bounded_trace(trace: List[StepRecord]) -> bool:
    """Whether every window of the trace's substitutions is 1-bounded."""
    from .sst import compose_counting, counting_matrix

    cap = 2
    window_products: set = set()
    for rec in trace:
        m = counting_matrix(rec.assign, cap)
        frozen = tuple(sorted(m.items()))
        new_products = {frozen}
        for p in window_products:
            new_products.add(
                tuple(sorted(compose_counting(dict(p), m, cap).items()))
            )
        window_products = new_products
        for p in window_products:
            if any(c > 1 for _, c in p):
                return False
    return True
