"""Running a workload plan and turning what it recorded into metrics.

``measure`` is the untraced run behind the end-to-end metrics; ``traced``
is the fixed unit of traced work behind the per-layer metrics.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

import spans
from hostclock import HostClock
from workloads import Ledger, Plan, live_session, setup_session

SETUPS = 30           # set-ups per untraced run, spread over the run
TRACE_SETUP_REPS = 3
BATCH_SHARE = 0.4     # share of the run given to batch repetitions
MIN_ROUNDS = 2

LAYERS = ("words", "nft", "analysis", "annotator", "determinize", "sst",
          "twoway", "convert", "cli")
LIVE_KINDS = ("setup", "stream")  # operation kinds of the live path

clock = time.perf_counter


def percentile(values, p):
    """Nearest-rank percentile of a nonempty list."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def p50(values, scale=1.0):
    return percentile(values, 0.5) * scale if values else 0.0


def p99(values, scale=1.0):
    return percentile(values, 0.99) * scale if values else 0.0


def timed_batch(plan: Plan, ledger: Ledger):
    """Raw clock readings at the start and the end of one batch."""
    t0 = clock()
    plan.batch(ledger)
    return t0, clock()


def run_round(plan: Plan, ledger: Ledger):
    return [live_session(s, ledger) for s in plan.streams]


def setup_rep(plan: Plan, ledger: Ledger):
    """One set-up per stream: the list of their (start, end) readings, or
    None if one failed."""
    readings = [setup_session(s, ledger) for s in plan.streams]
    return None if None in readings else readings


# -- end-to-end run ----------------------------------------------------------------


def measure(plan: Plan, ledger: Ledger, seconds: float):
    """Interleave rounds of live sessions, set-ups and batches so that every
    metric samples the whole run, for about `seconds`.  Every duration is
    in the virtual time of a HostClock."""
    with HostClock() as host:
        setups, rounds, batches = _run(plan, ledger, seconds)
    metrics, notes = end_to_end(setups, rounds, batches, host.v)
    wall, _ = end_to_end(setups, rounds, batches, lambda t: t)
    notes.update(host.summary())
    notes["wall-clock values"] = "  ".join(
        f"{k} {v:.6g}" for k, (v, _) in wall.items())
    return metrics, notes


def _run(plan: Plan, ledger: Ledger, seconds: float):
    start = clock()
    batches = [timed_batch(plan, ledger)]  # also stores the oracle outputs
    setups, rounds = [], []
    last = 0.0
    while len(rounds) < MIN_ROUNDS or clock() - start + last / 2 <= seconds:
        t0 = clock()
        rounds.append(run_round(plan, ledger))
        elapsed = clock() - start
        due = SETUPS * min(1.0, elapsed / seconds) if seconds else 0
        while len(setups) < due:
            setups.append(setup_rep(plan, ledger))
        while sum(b - a for a, b in batches) < BATCH_SHARE * elapsed:
            batches.append(timed_batch(plan, ledger))
        last = clock() - t0
    while len(setups) < SETUPS:
        setups.append(setup_rep(plan, ledger))
    return setups, rounds, batches


def end_to_end(setups, rounds, batches, v):
    """Metrics from the raw readings, with durations taken in the clock
    map v."""
    # a round counts only when all its sessions succeeded
    full = [r for r in rounds if r and None not in r]
    sessions = [s for r in full for s in r]
    # emit latency percentiles per round, then the median over rounds, so a
    # burst of host noise in one round does not set the tail
    round_latencies = [[x for s in r for x in s.latencies(v)] for r in full]
    round_latencies = [ls for ls in round_latencies if ls]
    lps = [sum(s.letters for s in r) / sum(s.stream_s(v) for s in r)
           for r in full]
    late = [sum(s.late_s(v) for s in r)
            / sum(s.letters - s.late_from for s in r) for r in full]
    setup_s = [sum(v(b) - v(a) for a, b in rep) for rep in setups
               if rep is not None]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (p50(setup_s), "s"),
        "letters_per_s": (p50(lps), "1/s"),
        "late_us_per_letter": (p50(late, 1e6), "us"),
        "emit_latency_ms_p50": (
            p50([p50(ls) for ls in round_latencies], 1e3), "ms"),
        "emit_latency_ms_p99": (
            p50([p99(ls) for ls in round_latencies], 1e3), "ms"),
        "out_gap_letters_max": (max((s.gap_max for s in sessions),
                                    default=0), "count"),
        "peak_rss_mb": (rss_mb, "MB"),
        "batch_s": (p50([v(b) - v(a) for a, b in batches]), "s"),
    }
    notes = {
        "set-ups": len(setups),
        "rounds of live sessions": len(rounds),
        "batches": len(batches),
        "emit latency samples": sum(map(len, round_latencies)),
        "letters streamed": sum(s.letters for s in sessions),
    }
    return metrics, notes


# -- traced run ----------------------------------------------------------------------


def traced(plan: Plan, ledger: Ledger, out_path: str):
    """Traced set-ups and batch, then one untraced and one traced round of
    live sessions; the two rounds give the tracing overhead."""
    tracer = spans.Tracer()
    ledger.on_op = tracer.begin_op
    spans.install(tracer)
    try:
        for _ in range(TRACE_SETUP_REPS):
            setup_rep(plan, ledger)
        timed_batch(plan, ledger)
    finally:
        tracer.uninstall()
    plain = run_round(plan, ledger)
    spans.install(tracer)
    try:
        traced_round = run_round(plan, ledger)
    finally:
        tracer.uninstall()
    tracer.dump(out_path)
    notes = {"spans": len(tracer.spans), "span file": out_path}
    return per_layer(tracer, plain, traced_round), notes


def _lps(sessions) -> float:
    sessions = [s for s in sessions if s is not None]
    if not sessions:
        return 0.0
    seconds = sum(s.stream_s() for s in sessions)
    return sum(s.letters for s in sessions) / seconds


def per_layer(tr: spans.Tracer, plain, traced_round):
    d = tr.durations
    c = tr.counts
    ratios = []
    for steps in tr.by_op("determinize.step").values():
        q = len(steps) // 4
        if q >= 10:
            ratios.append(statistics.fmean(steps[-q:])
                          / statistics.fmean(steps[:q]))
    covers = d("annotator.cover")
    comp = d("analysis.comp_subsets")
    compat_calls = c["analysis.is_compatible_calls"]
    live_self = tr.self_time(lambda kind: kind in LIVE_KINDS)
    batch_self = tr.self_time(lambda kind: kind not in LIVE_KINDS)
    base = _lps(plain)

    def total_ms(name):
        return sum(d(name)) * 1e3

    m = {
        "determinize.step_us_p50": (p50(d("determinize.step"), 1e6), "us"),
        "determinize.step_us_p99": (p99(d("determinize.step"), 1e6), "us"),
        "determinize.step_late_over_early": (p50(ratios), "ratio"),
        "determinize.trace_records": (
            tr.op_total("determinize.trace_records"), "count"),
        "determinize.mode_switches": (c["determinize.mode_switches"], "count"),
        "determinize.emitted_letters": (
            c["determinize.emitted_letters"], "count"),
        "determinize.checker_us_p50": (
            p50(d("determinize.after_step"), 1e6), "us"),
        "annotator.cover_calls": (len(covers), "count"),
        "annotator.cover_us_p50": (p50(covers, 1e6), "us"),
        "annotator.cover_us_p99": (p99(covers, 1e6), "us"),
        "annotator.candidates_mean": (
            c["analysis.candidates"] / len(comp) if comp else 0.0, "count"),
        "annotator.lookahead_letters_mean": (
            c["annotator.lookahead"] / len(covers) if covers else 0.0,
            "count"),
        "annotator.lookahead_letters_max": (
            tr.maxima["annotator.lookahead_max"], "count"),
        "analysis.comp_subsets_calls": (len(comp), "count"),
        "analysis.comp_subsets_us_p50": (p50(comp, 1e6), "us"),
        "analysis.is_compatible_calls": (compat_calls, "count"),
        "analysis.is_compatible_hit_ratio": (
            1 - tr.distinct_keys() / compat_calls if compat_calls else 0.0,
            "ratio"),
        "analysis.analyze_step_us_p50": (
            p50(d("analysis.analyze_step"), 1e6), "us"),
        "analysis.looping_future_calls": (
            len(d("analysis.looping_future")), "count"),
        "analysis.looping_future_us_p50": (
            p50(d("analysis.looping_future"), 1e6), "us"),
        "analysis.is_separable_ms": (total_ms("analysis.is_separable"), "ms"),
        "analysis.theta_length_ms": (total_ms("analysis.theta_length"), "ms"),
        "analysis.is_continuous_ms": (
            total_ms("analysis.is_continuous"), "ms"),
        "words.upword_first_calls": (len(d("words.first")), "count"),
        "words.upword_first_us_p50": (p50(d("words.first"), 1e6), "us"),
        "nft.normalize_ms": (total_ms("nft.normalize"), "ms"),
        "nft.push_calls": (len(d("nft.push")), "count"),
        "nft.oracle_eval_calls": (len(d("nft.oracle_eval")), "count"),
        "nft.oracle_eval_ms_p50": (p50(d("nft.oracle_eval"), 1e3), "ms"),
        "sst.eval_limit_ms_p50": (p50(d("sst.eval_limit"), 1e3), "ms"),
        "twoway.eval_2dt_ms_p50": (p50(d("twoway.eval_2dt"), 1e3), "ms"),
        "twoway.eval_2dt_steps": (c["twoway.eval_2dt_steps"], "count"),
        "convert.kbounded_to_copyless_ms": (
            total_ms("convert.kbounded_to_copyless"), "ms"),
        "convert.sst_to_twoway_ms": (total_ms("convert.sst_to_twoway"), "ms"),
        "convert.twoway_to_sst_ms": (total_ms("convert.twoway_to_sst"), "ms"),
        "convert.out_states": (c["convert.out_states"], "count"),
        "convert.out_registers": (c["convert.out_registers"], "count"),
        "cli.main_s": (sum(d("cli.main")), "s"),
        "cli.lines_flushed": (
            sum(s.lines for s in traced_round if s is not None), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s_live"] = (live_self.get(layer, 0.0), "s")
        m[f"{layer}.self_s_batch"] = (batch_self.get(layer, 0.0), "s")
    m["trace.overhead_share"] = (
        1 - _lps(traced_round) / base if base else 0.0, "ratio")
    return m
