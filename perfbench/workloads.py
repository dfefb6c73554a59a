"""Seeded workload generators.

Each generator turns a seed into a campaign spec payload (the JSON form
``repro.api.campaign_from_dict`` reads), so the program only ever sees
the generated spec.  The seed picks instance parameters from fixed
ranges; the ranges are chosen so that the total work of a workload is
nearly the same for every seed, which keeps run-to-run spread down to
timing noise.  The comment above each generator says why its workload
exists.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

#: The seed whose outcomes are pinned by ``reference/<workload>.json``.
DEFAULT_SEED = 0

#: The honest victim portfolio (the registry's default victims).
HONEST_VICTIMS = ("greedy", "akbari", "local-canonical")

#: The registry's default adversary lineup.
DEFAULT_ADVERSARIES = (
    "theorem1-grid",
    "theorem2-torus",
    "theorem2-cylinder",
    "theorem3-gadget(2k-2)",
    "corollary13-gadget(k+1)",
    "theorem5-reduction",
)

#: Pinned theorem1-grid levels reserved for warm-up games.  No workload
#: draws a level this high, so warm-up games share no host with any
#: workload game.
WARMUP_LEVELS = (1001, 1002, 1003, 1004)

#: Pinned levels the many-small-games and serve-read generators draw
#: from.  Akbari and local-canonical lose within a few reveals at
#: T <= 1 whatever the level, so every draw costs about the same.
SMALL_LEVELS = range(1, 401)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _grid(level: int) -> Dict[str, Any]:
    return {"name": "theorem1-grid", "params": {"level": level}}


def _sweep(name: str, adversaries: List[Any], victims, localities) -> Dict[str, Any]:
    return {
        "version": 1,
        "kind": "sweep",
        "name": name,
        "adversaries": adversaries,
        "victims": list(victims),
        "localities": list(localities),
        "timeout": 30.0,
    }


# The paper's reproduction campaign: every default adversary against the
# three honest victims at T = 1..3, plus instance-size variants.  Games
# take 1-400 ms and each adversary host is shared by the three victims,
# so this is where game compute (adversary moves, simulator reveals,
# victim steps, ball extraction, verification) dominates.  The torus and
# cylinder sides are drawn as a pair with a fixed sum, so the seed moves
# instance sizes but not the total work.  T stops at 3: from T = 4 the
# reduction game runs past its 30 s budget.
def portfolio_sweep(seed: int) -> Dict[str, Any]:
    rng = _rng("portfolio-sweep", seed)
    torus_side = rng.choice((25, 27, 29, 31))
    adversaries: List[Any] = list(DEFAULT_ADVERSARIES) + [
        {"name": "theorem2-torus", "params": {"side": torus_side}},
        {"name": "theorem2-cylinder", "params": {"side": 56 - torus_side}},
        {"name": "theorem3-gadget(2k-2)", "params": {"k": 5}},
        {"name": "corollary13-gadget(k+1)", "params": {"k": 4, "colors": 5}},
        {"name": "theorem5-reduction", "params": {"k": 4}},
    ]
    return _sweep(
        f"portfolio-sweep-{seed}", adversaries, HONEST_VICTIMS, (1, 2, 3)
    )


# Hundreds of ~1-3 ms games, each on its own pinned-level host, against
# the two victims that lose fastest, at T in {0, 1}.  Per-game overhead
# (scheduling, the serial path's one fsync per game, lease bookkeeping,
# IPC) dominates here rather than game compute.
def many_small_games(seed: int, levels: int = 250) -> Dict[str, Any]:
    rng = _rng("many-small-games", seed)
    drawn = sorted(rng.sample(SMALL_LEVELS, levels))
    return _sweep(
        f"many-small-games-{seed}",
        [_grid(level) for level in drawn],
        ("akbari", "local-canonical"),
        (0, 1),
    )


# An adaptive search: per (pinned-level theorem1-grid, honest victim),
# the smallest T in [0, 8] at which the victim survives.  At levels 1
# and 2 akbari survives T = 8, so those combos bisect in dependent waves
# of one or two probes after a first wave of nine; the third level is
# decided by one probe.  The pool's latency per wave and the slowest
# game of each wave set the makespan, not throughput.  The drawn level
# comes from a class of near-equal cost (4 and 5).
def threshold_search(seed: int) -> Dict[str, Any]:
    rng = _rng("threshold-search", seed)
    levels = (1, 2, rng.choice((4, 5)))
    return {
        "version": 1,
        "kind": "threshold",
        "name": f"threshold-search-{seed}",
        "adversaries": [_grid(level) for level in levels],
        "victims": list(HONEST_VICTIMS),
        "low": 0,
        "high": 8,
        "timeout": 30.0,
    }


# The store behind serve-read: 1,000 real rows, played during set-up.
# The served campaign is this one, resubmitted, so every request reads a
# store of the same size for every seed.
def serve_fill(seed: int, levels: int = 250) -> Dict[str, Any]:
    rng = _rng("serve-read", seed)
    drawn = sorted(rng.sample(SMALL_LEVELS, levels))
    return _sweep(
        f"serve-read-{seed}",
        [_grid(level) for level in drawn],
        ("akbari", "local-canonical"),
        (0, 1),
    )


def warmup() -> Dict[str, Any]:
    """Four ~1 ms games on reserved hosts: enough to start both pool
    workers (and load every lazily imported module) during set-up."""
    return _sweep(
        "warm-up", [_grid(level) for level in WARMUP_LEVELS],
        ("local-canonical",), (0,),
    )


#: Workload name -> spec generator, for the game workloads.
GENERATORS = {
    "portfolio-sweep": portfolio_sweep,
    "many-small-games": many_small_games,
    "threshold-search": threshold_search,
    "serve-read": serve_fill,
}


def reference_work(side: int = 60, passes: int = 12) -> float:
    """Time a fixed pure-Python job (build a grid graph as a dict of
    tuple-node sets, then BFS it), the same kind of work a game does.

    The host this benchmark runs on drifts: the same job runs 20-40%
    slower for minutes at a time.  Each timed phase is bracketed by this
    job, and the gated metrics divide by it, so drift that slows both
    cancels while a slower program still shows.  Returns seconds.
    """
    started = time.perf_counter()
    for _ in range(passes):
        graph = {}
        for x in range(side):
            for y in range(side):
                graph[(x, y)] = {
                    (x + dx, y + dy)
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                    if 0 <= x + dx < side and 0 <= y + dy < side
                }
        dist = {(0, 0): 0}
        frontier = [(0, 0)]
        while frontier:
            nxt = []
            for node in frontier:
                for neighbour in graph[node]:
                    if neighbour not in dist:
                        dist[neighbour] = dist[node] + 1
                        nxt.append(neighbour)
            frontier = nxt
    return time.perf_counter() - started
