"""Experiment BALLCACHE: wholesale vs scoped ball-cache invalidation.

Measures what the incremental-invalidation rework of
:class:`~repro.graphs.traversal.BallCache` buys on three workloads
(see ``docs/performance.md`` for the methodology):

1. **Tournament portfolio** — the default adversary x victim sweep at
   the requested localities, run twice per policy in one process (a cold
   pass plus a warm pass, which is how the benchmark harness and CI
   smoke actually execute sweeps).  A single cold pass is bounded by the
   distinct-ball ceiling (every first computation of a ball is a miss by
   definition); the pooled store turns every repeated pass into ~100%
   hits, which the per-instance wholesale cache structurally cannot do.
2. **Per-family breakdown** — cold hit rates for the grid, torus, and
   gadget adversaries separately.
3. **Dynamic microbenchmark** — a genuinely mutating graph (the
   Dynamic-LOCAL workload shape): probe balls are re-queried between
   far-away edge insertions.  Scoped invalidation keeps the probes warm;
   wholesale recomputes everything after every mutation.

Run as a script to emit machine-readable results::

    PYTHONPATH=src python benchmarks/bench_ballcache.py \
        --localities 1 2 3 --out BENCH_ballcache.json

``--check`` exits non-zero unless scoped beats wholesale (on the
portfolio and on the dynamic bench) and rows stay byte-identical across
passes and on a 2-worker campaign run — the CI benchmark smoke gate.
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
from repro.graphs.graph import Graph  # noqa: E402
from repro.graphs.traversal import BallCache, set_invalidation_policy  # noqa: E402

#: The acceptance bar for the scoped policy on the tournament portfolio.
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
        "evictions": after["evictions"] - before["evictions"],
        "scoped_flushes": after["scoped_flushes"] - before["scoped_flushes"],
        "full_flushes": after["full_flushes"] - before["full_flushes"],
    }


def run_portfolio(policy, localities, passes=2):
    """Run the full portfolio ``passes`` times under ``policy``.

    Returns per-pass cache profiles, the aggregate, and whether every
    pass (and a 2-worker campaign run on a throwaway store) produced rows
    identical to the first serial pass.
    """
    previous = set_invalidation_policy(policy)
    try:
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
    finally:
        set_invalidation_policy(previous)


def run_families(policy, localities):
    """Cold hit rate per adversary family under ``policy``."""
    previous = set_invalidation_policy(policy)
    try:
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
    finally:
        set_invalidation_policy(previous)


def run_dynamic_microbench(policy, nodes=400, rounds=60, probes=12):
    """A mutating-graph workload: repeated probe queries between edge
    insertions at the far end of a long path.

    Under scoped invalidation the probes (near node 0) are disjoint from
    every mutation (near node ``nodes``), so they stay cached; wholesale
    flushes the table on every insertion.
    """
    previous = set_invalidation_policy(policy)
    try:
        BallCache.reset()
        graph = Graph(edges=[(i, i + 1) for i in range(nodes - 1)])
        cache = BallCache(graph)
        probe_nodes = list(range(0, 3 * probes, 3))
        for round_index in range(rounds):
            for probe in probe_nodes:
                cache.ball(probe, 2)
            graph.add_edge(nodes - 1, ("extra", round_index))
        for probe in probe_nodes:
            cache.ball(probe, 2)
        return dict(cache.stats(), rounds=rounds, probes=len(probe_nodes))
    finally:
        set_invalidation_policy(previous)


def run_bench(localities=(1, 2, 3), passes=2):
    portfolio = {
        policy: run_portfolio(policy, localities, passes=passes)
        for policy in ("wholesale", "scoped")
    }
    families = {
        policy: run_families(policy, localities)
        for policy in ("wholesale", "scoped")
    }
    dynamic = {
        policy: run_dynamic_microbench(policy)
        for policy in ("wholesale", "scoped")
    }
    scoped = portfolio["scoped"]
    return {
        "experiment": "ballcache-invalidation",
        "localities": list(localities),
        "passes_per_policy": passes,
        "portfolio": portfolio,
        "families": families,
        "dynamic_microbench": dynamic,
        "hit_rate": scoped["hit_rate"],
        "target_hit_rate": TARGET_HIT_RATE,
        "meets_target": scoped["hit_rate"] >= TARGET_HIT_RATE,
        "rows_identical_to_serial": scoped["rows_identical_to_serial"]
        and portfolio["wholesale"]["rows_identical_to_serial"],
    }


def check(report):
    """The CI gate; returns a list of failure messages (empty = pass)."""
    failures = []
    scoped = report["portfolio"]["scoped"]
    wholesale = report["portfolio"]["wholesale"]
    if scoped["hit_rate"] <= wholesale["hit_rate"]:
        failures.append(
            f"scoped hit rate {scoped['hit_rate']:.1%} does not beat "
            f"wholesale {wholesale['hit_rate']:.1%}"
        )
    if not report["rows_identical_to_serial"]:
        failures.append("rows diverged between passes or from 2-worker run")
    dyn_scoped = report["dynamic_microbench"]["scoped"]
    dyn_wholesale = report["dynamic_microbench"]["wholesale"]
    if dyn_scoped["hit_rate"] <= dyn_wholesale["hit_rate"]:
        failures.append("scoped does not beat wholesale on the dynamic bench")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--localities", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument(
        "--passes", type=int, default=2,
        help="portfolio passes per policy (cold + warm)",
    )
    parser.add_argument("--out", default="BENCH_ballcache.json")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless scoped beats wholesale with identical rows",
    )
    args = parser.parse_args(argv)

    report = run_bench(localities=tuple(args.localities), passes=args.passes)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rows = []
    for policy in ("wholesale", "scoped"):
        entry = report["portfolio"][policy]
        rows.append([
            policy,
            f"{entry['cold_hit_rate']:.1%}",
            f"{entry['warm_hit_rate']:.1%}" if entry["warm_hit_rate"] is not None else "-",
            f"{entry['hit_rate']:.1%}",
            f"{report['dynamic_microbench'][policy]['hit_rate']:.1%}",
        ])
    print(render_table(
        ["policy", "portfolio cold", "portfolio warm", "portfolio aggregate",
         "dynamic bench"],
        rows,
    ))
    print(f"scoped aggregate hit rate: {report['hit_rate']:.1%} "
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
