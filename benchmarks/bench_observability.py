"""Experiment OBSERVABILITY: the instrumentation must be ~free when off.

The simulators' hot paths (every reveal, every ball query) now carry
metric increments and a tracing guard.  This benchmark quantifies what
that costs by timing the same adversary workload under three configs:

``suppressed``
    A :class:`~repro.observability.metrics.NullRegistry` is active and
    tracing is off — the no-op reference approximating the
    pre-instrumentation hot path.
``off``
    The shipped default: a live :class:`MetricsRegistry`, tracing off.
``timers``
    Live metrics plus phase-attribution timers
    (:mod:`repro.observability.timers`) enabled — the configuration
    ``campaign run`` ships by default.
``traced``
    Full tracing to a JSON-lines file plus live metrics.

The acceptance bars (asserted here and by ``--check`` in CI): the
``off`` config — what every user pays whether or not they ever look at
a metric — stays within **3%** of ``suppressed``, and ``timers`` stays
within **5%**.  Tracing itself is allowed to cost more; its price is
reported, not bounded.  A second section checks **merge parity**: the
same deterministic workload played in two registry shards and merged
must produce counter totals and histogram event counts identical to
one serial registry — the invariant that makes worker metric snapshots
trustworthy.

Run as a script to emit machine-readable results::

    PYTHONPATH=src python benchmarks/bench_observability.py \
        --out BENCH_observability.json --check
"""

import argparse
import json
import os
import tempfile
import time

from repro.adversaries.grid import GridAdversary
from repro.analysis.tables import render_table
from repro.core.baselines import GreedyOnlineColorer
from repro.graphs.traversal import BallCache
from repro.observability.metrics import (
    MetricsRegistry,
    NullRegistry,
    scoped_registry,
)
from repro.observability.timers import timed_phases
from repro.observability.trace import tracing

#: Overhead bound for the tracing-off configuration.
MAX_OFF_OVERHEAD = 0.03
#: Overhead bound for phase timers on (the campaign-run default).
MAX_TIMERS_OVERHEAD = 0.05


def play_games(localities=(1, 2), rounds=2):
    """The fixed workload: Theorem 1 games against greedy (deterministic,
    reveal-heavy — the exact paths the instrumentation touches)."""
    for _ in range(rounds):
        for locality in localities:
            result = GridAdversary(locality=locality).run(
                GreedyOnlineColorer()
            )
            assert result.won, "workload game must be a win"


def _timed(workload) -> float:
    start = time.perf_counter()
    workload()
    return time.perf_counter() - start


def _run_once(mode: str, workload, trace_dir: str, attempt: int) -> float:
    if mode == "suppressed":
        with scoped_registry(NullRegistry()):
            return _timed(workload)
    if mode == "off":
        with scoped_registry():
            return _timed(workload)
    if mode == "timers":
        with scoped_registry():
            with timed_phases():
                return _timed(workload)
    if mode == "traced":
        trace_file = os.path.join(trace_dir, f"trace-{attempt}.jsonl")
        with scoped_registry():
            with tracing(trace_file):
                return _timed(workload)
    raise ValueError(f"unknown mode {mode!r}")


def time_configs(modes, workload, trace_dir: str, repeats: int) -> dict:
    """Best-of-``repeats`` wall-clock per configuration.

    Repeats are **interleaved** round-robin over the configs (not run as
    consecutive blocks) so slow drift — thermal, page cache, a noisy
    neighbor — hits every config alike instead of biasing whichever
    block it landed on; the minimum then suppresses the remaining
    point noise.
    """
    best = {mode: None for mode in modes}
    for attempt in range(repeats):
        for mode in modes:
            seconds = _run_once(mode, workload, trace_dir, attempt)
            current = best[mode]
            best[mode] = seconds if current is None else min(current, seconds)
    return best


def _mergeable_view(snapshot) -> dict:
    """The deterministic projection of a snapshot merge parity is judged
    on: counter totals, gauge values, and histogram *event counts* —
    histogram sums are wall-clock and legitimately differ run to run."""
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histogram_counts": {
            name: summary.get("count", 0)
            for name, summary in snapshot.get("histograms", {}).items()
        },
    }


def check_merge_parity(localities=(1,), rounds=1, shards=2) -> dict:
    """Shard the workload across ``shards`` fresh registries, merge the
    snapshots into one parent, and compare against the same workload
    played serially under a single registry.

    This is exactly what the campaign worker pool does per ack: every
    worker folds its games into a private registry and ships the
    snapshot; the parent merges.  The workload is deterministic, so any
    divergence is a merge bug, not noise.  Both passes start from a cold
    ball pool, so they compare real hit/miss counts.
    """
    with timed_phases():
        BallCache.clear_shared_store()
        with scoped_registry() as serial:
            for _ in range(shards):
                play_games(localities, rounds)
            serial_view = _mergeable_view(serial.snapshot())

        BallCache.clear_shared_store()
        parent = MetricsRegistry()
        for _ in range(shards):
            with scoped_registry() as shard:
                play_games(localities, rounds)
                parent.merge(shard.snapshot())
        merged_view = _mergeable_view(parent.snapshot())

    return {
        "shards": shards,
        "instruments": len(serial_view["counters"])
        + len(serial_view["gauges"])
        + len(serial_view["histogram_counts"]),
        "identical": merged_view == serial_view,
    }


def run_bench(localities=(1, 2), rounds=2, repeats=9):
    workload = lambda: play_games(localities, rounds)  # noqa: E731
    workload()  # warm-up: imports, allocator, branch predictors

    with tempfile.TemporaryDirectory(prefix="bench-observability-") as tmp:
        timings = time_configs(
            ("suppressed", "off", "timers", "traced"), workload, tmp, repeats
        )
    parity = check_merge_parity(localities=localities[:1], rounds=1)

    def overhead(mode, reference):
        return timings[mode] / timings[reference] - 1.0

    return {
        "experiment": "observability-overhead",
        "localities": list(localities),
        "rounds": rounds,
        "repeats": repeats,
        "seconds": timings,
        "off_overhead_vs_suppressed": overhead("off", "suppressed"),
        "timers_overhead_vs_suppressed": overhead("timers", "suppressed"),
        "traced_overhead_vs_off": overhead("traced", "off"),
        "max_off_overhead": MAX_OFF_OVERHEAD,
        "max_timers_overhead": MAX_TIMERS_OVERHEAD,
        "off_within_bound": overhead("off", "suppressed") < MAX_OFF_OVERHEAD,
        "timers_within_bound": (
            overhead("timers", "suppressed") < MAX_TIMERS_OVERHEAD
        ),
        "merge_parity": parity,
    }


def test_tracing_off_overhead_under_3_percent():
    report = run_bench(localities=(1, 2), rounds=2, repeats=9)
    assert report["off_within_bound"], (
        f"tracing-off overhead {report['off_overhead_vs_suppressed']:.2%} "
        f"exceeds the {MAX_OFF_OVERHEAD:.0%} budget"
    )


def test_merged_shards_equal_serial_registry():
    parity = check_merge_parity(localities=(1,), rounds=1)
    assert parity["identical"], parity
    assert parity["instruments"] > 0, "workload recorded no instruments"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--localities", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default="BENCH_observability.json")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every gate holds (off < 3%%, timers < 5%%, "
        "merged shards identical to serial) — the CI invocation",
    )
    args = parser.parse_args(argv)

    report = run_bench(
        localities=tuple(args.localities),
        rounds=args.rounds,
        repeats=args.repeats,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(render_table(
        ["config", "seconds"],
        [[mode, f"{seconds:.4f}"]
         for mode, seconds in sorted(report["seconds"].items())],
    ))
    print(f"tracing-off overhead: {report['off_overhead_vs_suppressed']:+.2%} "
          f"(budget {MAX_OFF_OVERHEAD:.0%})")
    print(f"phase-timer overhead: "
          f"{report['timers_overhead_vs_suppressed']:+.2%} "
          f"(budget {MAX_TIMERS_OVERHEAD:.0%})")
    print(f"tracing-on overhead:  {report['traced_overhead_vs_off']:+.2%}")
    parity = report["merge_parity"]
    print(f"merge parity: {parity['shards']} shards, "
          f"{parity['instruments']} instruments, "
          f"identical={parity['identical']}")
    print(f"wrote {args.out}")
    failures = []
    if not report["off_within_bound"]:
        failures.append("tracing-off overhead exceeds budget")
    if not report["timers_within_bound"]:
        failures.append("phase-timer overhead exceeds budget")
    if not parity["identical"]:
        failures.append("merged shard snapshots diverge from serial")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures and (args.check or not report["off_within_bound"]):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
