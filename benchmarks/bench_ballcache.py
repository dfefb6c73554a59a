"""Experiment BALLCACHE: what the shared ball pool serves.

:class:`~repro.graphs.traversal.BallCache` pools memoized balls
process-wide by the host's structural key, so independently built but
identical hosts share one ball table (see ``docs/performance.md``).
Two measurements:

1. **Tournament portfolio** — the default adversary x victim sweep at
   the requested localities, run twice in one process (a cold pass plus
   a warm pass, which is how the benchmark harness and CI smoke actually
   execute sweeps).  A single cold pass is bounded by the distinct-ball
   ceiling (every first computation of a ball is a miss by definition);
   the pool turns every repeated pass into ~100% hits.
2. **Per-family breakdown** — cold hit rates for the grid, torus, and
   gadget adversaries separately.

Run as a script to emit machine-readable results::

    PYTHONPATH=src python benchmarks/bench_ballcache.py \
        --localities 1 2 3 --out BENCH_ballcache.json

``--check`` exits non-zero unless the portfolio's aggregate hit rate
meets :data:`TARGET_HIT_RATE` and rows stay byte-identical across passes
and on a 2-worker campaign run — the CI benchmark smoke gate.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_tournament import serial_pass, sweep_specs  # noqa: E402

from repro import api  # noqa: E402
from repro.analysis.campaign import CampaignSpec  # noqa: E402
from repro.analysis.tables import render_table  # noqa: E402
from repro.graphs.traversal import BallCache  # noqa: E402

#: The acceptance bar for the pool's two-pass hit rate on the portfolio.
TARGET_HIT_RATE = 0.75

FAMILY_OF = {
    "theorem1-grid": "grid",
    "theorem2-torus": "torus",
    "theorem2-cylinder": "torus",
    "theorem3-gadget(2k-2)": "gadget",
    "corollary13-gadget(k+1)": "gadget",
    "theorem5-reduction": "reduction",
}


def _delta(after, before):
    """Counter-wise difference of two global_stats() dicts."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
        "full_flushes": after["full_flushes"] - before["full_flushes"],
    }


def run_portfolio(localities, passes=2):
    """Run the full portfolio ``passes`` times from a cold pool.

    Returns per-pass cache profiles, the aggregate, and whether every
    pass (and a 2-worker campaign run on a throwaway store) produced rows
    identical to the first serial pass.
    """
    specs = sweep_specs(localities)
    BallCache.reset()
    baseline_rows = None
    identical = True
    pass_profiles = []
    before = BallCache.global_stats()
    for _ in range(passes):
        rows = serial_pass(specs)
        after = BallCache.global_stats()
        pass_profiles.append(_delta(after, before))
        before = after
        if baseline_rows is None:
            baseline_rows = rows
        else:
            identical = identical and rows == baseline_rows
    pooled = api.SubmitRequest(
        spec=CampaignSpec(localities=tuple(localities)), workers=2
    )
    identical = identical and api.run_tournament(pooled) == baseline_rows
    aggregate = _delta(before, {k: 0 for k in before})
    return {
        "passes": pass_profiles,
        "aggregate": aggregate,
        "hit_rate": aggregate["hit_rate"],
        "cold_hit_rate": pass_profiles[0]["hit_rate"],
        "warm_hit_rate": pass_profiles[-1]["hit_rate"] if passes > 1 else None,
        "rows_identical_to_serial": identical,
        "games_per_pass": len(baseline_rows),
    }


def run_families(localities):
    """Cold hit rate per adversary family."""
    by_family = {}
    for spec in sweep_specs(localities):
        family = FAMILY_OF.get(spec.adversary, spec.adversary)
        by_family.setdefault(family, []).append(spec)
    profiles = {}
    for family, specs in sorted(by_family.items()):
        BallCache.reset()
        before = BallCache.global_stats()
        serial_pass(specs)
        profiles[family] = _delta(BallCache.global_stats(), before)
    return profiles


def run_bench(localities=(1, 2, 3), passes=2):
    portfolio = run_portfolio(localities, passes=passes)
    return {
        "experiment": "ballcache-pool",
        "localities": list(localities),
        "passes": passes,
        "portfolio": portfolio,
        "families": run_families(localities),
        "hit_rate": portfolio["hit_rate"],
        "target_hit_rate": TARGET_HIT_RATE,
        "meets_target": portfolio["hit_rate"] >= TARGET_HIT_RATE,
        "rows_identical_to_serial": portfolio["rows_identical_to_serial"],
    }


def check(report):
    """The CI gate; returns a list of failure messages (empty = pass)."""
    failures = []
    if not report["meets_target"]:
        failures.append(
            f"portfolio hit rate {report['hit_rate']:.1%} is below the "
            f"{report['target_hit_rate']:.0%} target"
        )
    if not report["rows_identical_to_serial"]:
        failures.append("rows diverged between passes or from 2-worker run")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--localities", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument(
        "--passes", type=int, default=2,
        help="portfolio passes (cold + warm)",
    )
    parser.add_argument("--out", default="BENCH_ballcache.json")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the portfolio meets the hit-rate target "
        "with identical rows",
    )
    args = parser.parse_args(argv)

    report = run_bench(localities=tuple(args.localities), passes=args.passes)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    portfolio = report["portfolio"]
    warm = portfolio["warm_hit_rate"]
    print(render_table(
        ["portfolio cold", "portfolio warm", "portfolio aggregate"],
        [[
            f"{portfolio['cold_hit_rate']:.1%}",
            f"{warm:.1%}" if warm is not None else "-",
            f"{portfolio['hit_rate']:.1%}",
        ]],
    ))
    print(f"aggregate hit rate: {report['hit_rate']:.1%} "
          f"(target {report['target_hit_rate']:.0%}: "
          f"{'met' if report['meets_target'] else 'MISSED'})")
    print(f"rows identical to serial: {report['rows_identical_to_serial']}")
    print(f"wrote {args.out}")

    if args.check:
        failures = check(report)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
