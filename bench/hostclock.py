"""Wall time rescaled to a reference interpreter speed.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
within a minute: a neighbour on the sibling hyperthread slows every
instruction, so a fixed pure-Python loop takes 5.3 ms in one 8-second
stretch and 8.0 ms in the next (2-vCPU x86-64 container).  CPU time drifts
exactly as much as wall time, so neither measures the program alone.

While a ``HostClock`` runs, an interval timer interrupts the program every
``EVERY_S`` seconds, wherever it is, and the signal handler times fixed
reference work (the kernel).  ``v(t)`` maps a wall-clock reading to
virtual time: the calibration pauses are cut out, and every stretch of
wall time between two pauses is scaled by ``REF_S / d``, where d is the
median kernel time of the few calibrations around that stretch.  A
duration in virtual time is the wall time the same work would take on a host where
the kernel takes ``REF_S``.  A slower program is slower in virtual time
by the same share; a slower host mostly is not (README.md, "Noise", says
where the kernel tracks the program less well).

The traced run and the sweep use plain wall time: a tracer must not see
the calibrations.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_right
from typing import List

clock = time.perf_counter

# Kernel time on the reference host: close to its median on an idle
# 2-vCPU x86-64 (Xeon) container.
REF_S = 0.6e-3
EVERY_S = 0.02  # wall time between calibrations
WINDOW = 3  # calibrations on each side whose median scales a stretch
LOOKUP_ROUNDS = 2500
COPIES = 6

_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}
_SUBSETS = [frozenset(range(i % 5, i % 5 + 1 + i % 3)) for i in range(64)]
_KNOWN = set(_SUBSETS[::3])
_OBJECTS = list(range(30000))  # about 1 MB of int objects and pointers


def _look(x: int) -> int:
    return _TABLE[x & 1023]


def core_part(rounds: int = LOOKUP_ROUNDS) -> int:
    """Dict and set lookups in small tables and small calls: bound by the
    core, and it stays in the first-level cache."""
    acc = 0
    for i in range(rounds):
        acc = (acc + _look(i ^ acc)) & 0xFFFF
        if _SUBSETS[i & 63] in _KNOWN:
            acc += 1
    return acc


def memory_part(copies: int = COPIES) -> int:
    """Copy a list of 30000 objects and drop the copy: each copy touches
    every object's reference count, about 1 MB, as the library does when it
    walks a large heap."""
    n = 0
    for _ in range(copies):
        n += len(_OBJECTS[:])
    return n


def kernel() -> float:
    """Time of one calibration: the geometric mean of the two parts' times.

    On a busy host the core part slows by more than the library and the
    memory part, on some workloads, by less; their geometric mean followed
    every workload best (README.md, "Noise").  Each part first runs briefly
    untimed, so the timed run finds its data in cache whatever the program
    was doing.  The collector is off: its cost grows with the library's
    heap, and that is the library's time, not the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        core_part(LOOKUP_ROUNDS // 10)
        t0 = clock()
        core_part()
        t1 = clock()
        memory_part(1)
        t2 = clock()
        memory_part()
        t3 = clock()
        return ((t1 - t0) * (t3 - t2)) ** 0.5
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Use as a context manager: calibrates on SIGALRM while inside."""

    def __init__(self):
        # one entry per calibration: the pause it made and the kernel's
        # time; ends is appended last, so len(ends) counts whole ones
        self.starts: List[float] = []
        self.kernel_s: List[float] = []
        self.ends: List[float] = []
        self._busy = False
        self._saved = None
        self._built = 0  # calibrations covered by the arrays below
        self._rates: List[float] = []
        self._v_end: List[float] = []

    def __enter__(self) -> "HostClock":
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm while the kernel still runs
            return
        self._busy = True
        try:
            start = clock()
            d = kernel()
            self.starts.append(start)
            self.kernel_s.append(d)
            self.ends.append(clock())
        finally:
            self._busy = False

    def _build(self, n: int) -> None:
        if self._built == n:
            return
        d, w = self.kernel_s, WINDOW
        rates = []
        for j in range(n):
            near = sorted(d[max(0, j - w):min(n, j + w + 1)])
            rates.append(REF_S / near[len(near) // 2])
        v_end, v = [], 0.0
        for j in range(n):
            if j:
                v += (self.starts[j] - self.ends[j - 1]) * rates[j - 1]
            v_end.append(v)
        self._rates, self._v_end, self._built = rates, v_end, n

    def v(self, t: float) -> float:
        """Virtual time of the wall-clock reading t."""
        n = len(self.ends)  # an alarm may add a calibration at any time
        if not n:
            return t
        self._build(n)
        j = bisect_right(self.starts, t, 0, n) - 1
        if j < 0:
            return self._v_end[0] - (self.starts[0] - t) * self._rates[0]
        if t < self.ends[j]:  # inside a calibration pause
            return self._v_end[j]
        return self._v_end[j] + (t - self.ends[j]) * self._rates[j]

    def summary(self) -> dict:
        n = len(self.ends)
        d = sorted(self.kernel_s[:n])
        if not d:
            return {}
        return {
            "calibrations": n,
            "kernel ms p10/p50/p90": "/".join(
                f"{d[int(q * (n - 1))] * 1e3:.3f}" for q in (0.1, 0.5, 0.9)),
            "reference kernel ms": REF_S * 1e3,
        }
