"""Experiment TOURNAMENT: all adversaries vs all victims, clean sweep.

Also a useful regression net: any change weakening an adversary or
super-powering a victim breaks the sweep assertion immediately.

Run as a script to benchmark the campaign engine's worker pool and the
neighborhood-ball cache, emitting machine-readable results::

    PYTHONPATH=src python benchmarks/bench_tournament.py \
        --localities 1 2 3 --workers 1 2 4 --out BENCH_tournament.json

A serial pass plays the full default portfolio at every requested
locality inline (48 games for three localities) and profiles the
ball cache — both the cold first pass (with per-reveal query/hit
breakdowns) and the warm whole-session aggregate.

The ``campaign_scaling`` section exercises the supervised worker pool
(chunked leases, warm forkserver workers) at each worker count,
recording per-leg wall-clock, speedup over the serial leg, store-index
equality, a degenerate ``chunk_size=1`` leg, and the scheduling
configuration the numbers were taken under.  Reported
speedup is bounded by the host's core count.  ``--check`` turns the
report into a gate: rows must match serial, phase coverage must clear
:data:`MIN_PHASE_COVERAGE`, the parent's ack-drain share must stay
under :data:`MAX_ACK_DRAIN_SHARE`, and — only on hosts with at least
two cores, where parallelism is physically possible — the 2-worker leg
must beat serial.
"""

import argparse
import json
import os
import tempfile
import time

import pytest

from repro import api
from repro.analysis.campaign import CampaignSpec
from repro.analysis.executor import play_spec
from repro.analysis.tables import render_table
from repro.analysis.worker_pool import DEFAULT_MAX_CHUNK, pool_start_context
from repro.graphs.traversal import BallCache
from repro.observability.metrics import get_registry


def tournament_rows(locality, workers=1):
    """The pre-baked tournament at ``locality``, through the typed API."""
    spec = CampaignSpec.tournament(locality=locality)
    return api.run_tournament(api.SubmitRequest(spec=spec, workers=workers))


@pytest.mark.parametrize("locality", (1, 2))
def test_clean_sweep(locality):
    rows = tournament_rows(locality)
    print()
    print(f"Tournament at T={locality}:")
    print(render_table(
        ["adversary", "victim", "verdict"],
        [[r.adversary, r.victim, "defeated" if r.won else "SURVIVED"]
         for r in rows],
    ))
    assert api.clean_sweep(rows), [r for r in rows if not r.won]
    # 5 sweeping adversaries x 3 victims + 1 fixed-victim reduction game.
    assert len(rows) == 16


def test_parallel_sweep_matches_serial():
    assert tournament_rows(1, workers=2) == tournament_rows(1, workers=1)


def test_bench_tournament(benchmark):
    rows = benchmark(lambda: tournament_rows(1))
    assert api.clean_sweep(rows)


def sweep_specs(localities):
    """The full default portfolio at every locality, as picklable specs."""
    return CampaignSpec(localities=tuple(localities)).expand()


def serial_pass(specs):
    """Play every spec inline; returns rows in spec order.

    Each game plays under its own scoped registry, so its metrics
    snapshot is folded into the ambient registry here, as the campaign
    engine does — :meth:`BallCache.global_stats` reads those counters.
    """
    registry = get_registry()
    rows = []
    for spec in specs:
        outcome = play_spec(spec)
        registry.merge(outcome.metrics)
        rows.append(outcome.row)
    return rows


#: Phase-attribution coverage gate: timed top-level phases must explain
#: at least this share of a 2-worker campaign's wall-clock.
MIN_PHASE_COVERAGE = 0.90

#: Ack-drain gate: with chunked acks, the parent's time spent *parsing*
#: worker results (not waiting for them — that is ``ack-wait``) must be
#: a small slice of the campaign's wall-clock.
MAX_ACK_DRAIN_SHARE = 0.25


def scheduling_settings(chunk_size=None):
    """The pool configuration a benchmark run executed under — recorded
    in the JSON so a regression is attributable to a setting change."""
    return {
        "chunk_size": "adaptive" if chunk_size is None else chunk_size,
        "max_chunk": DEFAULT_MAX_CHUNK,
        "start_method": pool_start_context().get_start_method(),
        "cpu_count": os.cpu_count(),
    }


def run_campaign_scaling(worker_counts=(1, 2, 4), chunk_size=None,
                         repeats=1):
    """Supervised-pool scaling: the T=1 tournament campaign per worker
    count, plus the degenerate ``chunk_size=1`` leg at 2 workers.

    A throwaway warm-up leg boots the forkserver and parks a warm fleet
    first, so the timed legs measure scheduling rather than process
    bring-up (exactly what a long campaign session sees).  Every leg
    runs against a fresh store; ``rows_identical_to_serial`` compares
    full store indices, so a single divergent field fails it.
    """
    from repro.analysis.campaign import CampaignSpec, run_campaign
    from repro.analysis.store import ResultStore

    spec = CampaignSpec.tournament(locality=1)
    counts = sorted(set(worker_counts) | {1})

    def leg(workers, leg_chunk_size):
        best = None
        index = None
        for _ in range(repeats):
            with tempfile.TemporaryDirectory(prefix="bench-scaling-") as tmp:
                start = time.perf_counter()
                outcome = run_campaign(
                    spec, tmp, workers=workers, chunk_size=leg_chunk_size
                )
                seconds = time.perf_counter() - start
                if outcome.errors:
                    raise RuntimeError(
                        f"scaling leg ({workers} workers) errored: "
                        f"{outcome.errors}"
                    )
                index = ResultStore(tmp).index()
            best = seconds if best is None else min(best, seconds)
        return best, index

    with tempfile.TemporaryDirectory(prefix="bench-warmup-") as tmp:
        run_campaign(spec, tmp, workers=max(counts), chunk_size=chunk_size)

    serial_seconds, serial_index = leg(1, chunk_size)
    legs = {1: {"seconds": serial_seconds, "speedup": 1.0}}
    identical = True
    for workers in counts[1:]:
        seconds, index = leg(workers, chunk_size)
        identical = identical and index == serial_index
        legs[workers] = {
            "seconds": seconds,
            "speedup": serial_seconds / seconds if seconds else None,
        }
    degenerate_seconds, degenerate_index = leg(2, 1)
    return {
        "games": len(serial_index),
        "scheduling": scheduling_settings(chunk_size),
        "workers": {str(w): v for w, v in sorted(legs.items())},
        "chunk_size_1": {
            "workers": 2,
            "seconds": degenerate_seconds,
            "speedup": (
                serial_seconds / degenerate_seconds
                if degenerate_seconds
                else None
            ),
            "rows_identical_to_serial": degenerate_index == serial_index,
        },
        "rows_identical_to_serial": identical,
    }


def run_phase_attribution(workers=2, chunk_size=None):
    """Phase-attribution profile of the example tournament campaign.

    Runs the pre-baked T=1 tournament campaign through the supervised
    worker pool against a throwaway store, then reads back the run-ledger entry the scheduler recorded.  The
    interesting number is ``phase_coverage``: the share of wall-clock
    the timed top-level phases explain (worker-scoped phases overlap
    the parent's clock and are reported but never counted).
    """
    from repro.analysis.campaign import CampaignSpec, run_campaign
    from repro.analysis.store import ResultStore

    with tempfile.TemporaryDirectory(prefix="bench-phases-") as tmp:
        outcome = run_campaign(
            CampaignSpec.tournament(locality=1), tmp,
            workers=workers, chunk_size=chunk_size,
        )
        entry = ResultStore(tmp).runs()[-1]
    coverage = entry.get("phase_coverage")
    phases = entry.get("phases", {})
    wall = entry.get("wall_seconds")
    games = outcome.played
    # The parent-side IPC bill: chunk pickling + result parsing.  With
    # per-game acks this was the dominant campaign phase; chunked acks
    # amortize it across the lease.
    ipc_seconds = phases.get("pipe-send", 0.0) + phases.get("ack-drain", 0.0)
    ack_drain_share = (phases.get("ack-drain", 0.0) / wall) if wall else None
    return {
        "workers": workers,
        "games": games,
        "errors": len(outcome.errors),
        "wall_seconds": wall,
        "phases": phases,
        "scheduling": scheduling_settings(chunk_size),
        "ipc_per_game": ipc_seconds / games if games else None,
        "ack_drain_share": ack_drain_share,
        "max_ack_drain_share": MAX_ACK_DRAIN_SHARE,
        "ack_drain_ok": (
            ack_drain_share is not None
            and ack_drain_share < MAX_ACK_DRAIN_SHARE
        ),
        "phase_coverage": coverage,
        "min_phase_coverage": MIN_PHASE_COVERAGE,
        "coverage_ok": (
            coverage is not None and coverage >= MIN_PHASE_COVERAGE
        ),
    }


def run_bench(localities=(1, 2, 3), worker_counts=(1, 2, 4), repeats=3,
              chunk_size=None):
    """Profile the ball cache on a cold serial pass and over the warm
    passes after it, then measure the campaign pool's scaling and phase
    attribution.

    Each timed configuration is run ``repeats`` times and the best
    (minimum) wall-clock kept, the usual way to suppress scheduler noise.
    """
    specs = sweep_specs(localities)
    BallCache.reset()
    reveals_before = get_registry().counter("reveals_total").value
    serial_rows = serial_pass(specs)  # cold pass: the cache profile
    cache = BallCache.global_stats()
    reveals = get_registry().counter("reveals_total").value - reveals_before
    queries = cache["hits"] + cache["misses"]
    cache["per_reveal"] = {
        "reveals": reveals,
        "queries_per_reveal": queries / reveals if reveals else 0.0,
        "hits_per_reveal": cache["hits"] / reveals if reveals else 0.0,
        "misses_per_reveal": cache["misses"] / reveals if reveals else 0.0,
    }
    for _ in range(repeats):
        serial_pass(specs)  # warm passes: the whole-session profile
    session_cache = BallCache.global_stats()
    scaling = run_campaign_scaling(
        worker_counts=worker_counts, chunk_size=chunk_size, repeats=repeats
    )
    phases = run_phase_attribution(workers=2, chunk_size=chunk_size)

    return {
        "experiment": "tournament",
        "localities": list(localities),
        "games": len(serial_rows),
        "repeats": repeats,
        "clean_sweep": api.clean_sweep(serial_rows),
        "ball_cache": cache,
        "ball_cache_session": session_cache,
        "campaign_scaling": scaling,
        "phase_attribution": phases,
    }


def check_report(report):
    """The ``--check`` gates; returns a list of failure strings.

    Row identity, phase coverage, and the ack-drain share are absolute;
    the 2-worker speedup gate applies only where parallel speedup is
    physically possible (``os.cpu_count() >= 2``).
    """
    failures = []
    scaling = report["campaign_scaling"]
    if not scaling["rows_identical_to_serial"]:
        failures.append("campaign pool rows diverged from serial")
    if not scaling["chunk_size_1"]["rows_identical_to_serial"]:
        failures.append("chunk_size=1 degenerate leg diverged from serial")
    phases = report["phase_attribution"]
    if not phases["coverage_ok"]:
        failures.append(
            f"phase coverage {phases['phase_coverage']} below "
            f"{MIN_PHASE_COVERAGE:.0%}"
        )
    if not phases["ack_drain_ok"]:
        failures.append(
            f"ack-drain share {phases['ack_drain_share']} not under "
            f"{MAX_ACK_DRAIN_SHARE:.0%}"
        )
    cpu_count = os.cpu_count() or 1
    two = scaling["workers"].get("2")
    if cpu_count >= 2 and two is not None:
        if two["speedup"] is None or two["speedup"] <= 1.0:
            failures.append(
                f"2-worker campaign speedup {two['speedup']} <= 1.0 on a "
                f"{cpu_count}-core host"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--localities", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        help="worker counts to benchmark (1 = the serial baseline)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="pin the campaign pool's games-per-lease "
             "(default: adaptive; 1 = per-game acks)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless rows match serial, phase coverage and "
             "ack-drain clear their gates, and (on multi-core hosts) "
             "2 workers beat serial",
    )
    parser.add_argument("--out", default="BENCH_tournament.json")
    args = parser.parse_args(argv)

    report = run_bench(
        localities=tuple(args.localities),
        worker_counts=tuple(args.workers),
        repeats=args.repeats,
        chunk_size=args.chunk_size,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    hit = report["ball_cache"]
    print(f"ball cache (cold pass): {hit['hits']}/{hit['hits'] + hit['misses']} "
          f"hits ({hit['hit_rate']:.0%}), "
          f"{hit['per_reveal']['queries_per_reveal']:.2f} queries/reveal "
          f"over {hit['per_reveal']['reveals']} reveals")
    session = report["ball_cache_session"]
    print(f"ball cache (whole session): {session['hit_rate']:.0%} hit rate, "
          f"{session['full_flushes']} full flushes")
    scaling = report["campaign_scaling"]
    print("\ncampaign pool scaling "
          f"(chunk={scaling['scheduling']['chunk_size']}, "
          f"start={scaling['scheduling']['start_method']}, "
          f"cpus={scaling['scheduling']['cpu_count']}):")
    scaling_rows = [
        [w, f"{v['seconds']:.3f}", f"{v['speedup']:.2f}x"]
        for w, v in sorted(
            scaling["workers"].items(), key=lambda kv: int(kv[0])
        )
    ]
    degenerate = scaling["chunk_size_1"]
    scaling_rows.append(
        ["2 (chunk=1)", f"{degenerate['seconds']:.3f}",
         f"{degenerate['speedup']:.2f}x"]
    )
    print(render_table(["workers", "seconds", "speedup"], scaling_rows))
    print("campaign rows identical to serial: "
          f"{scaling['rows_identical_to_serial']} "
          f"(chunk=1 leg: {degenerate['rows_identical_to_serial']})")

    phases = report["phase_attribution"]
    from repro.observability.stats import render_phase_table

    print(f"\nphase attribution ({phases['workers']}-worker campaign, "
          f"{phases['games']} games):")
    print(render_phase_table(phases["phases"], phases["wall_seconds"]))
    print(f"ack-drain share: {phases['ack_drain_share']:.1%} "
          f"(gate < {MAX_ACK_DRAIN_SHARE:.0%}), "
          f"ipc per game: {phases['ipc_per_game'] * 1000:.2f} ms")
    if not phases["coverage_ok"]:
        print(f"WARN: phase coverage {phases['phase_coverage']} below "
              f"{MIN_PHASE_COVERAGE:.0%} target")
    print(f"wrote {args.out}")
    if args.check:
        failures = check_report(report)
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
