"""Differential property test for ball-cache invalidation.

The safety property behind ``docs/performance.md``: under *any*
interleaving of ball queries and graph mutations, a
:class:`~repro.graphs.traversal.BallCache` returns exactly what an
uncached :func:`~repro.graphs.traversal.ball` computes on the current
graph.  Every mutation rebinds the cache to the pooled table of the
graph's new structure, and a removal can return the graph to a structure
it had before, so the pool's structural keying is what is under test.
Runs 70 seeded random interleavings per family (grid, torus, k-tree),
mixing edge/node additions, batched bulk additions and occasional
removals.
"""

import random

import pytest

from repro.families.grids import SimpleGrid, ToroidalGrid
from repro.families.ktree import deterministic_ktree
from repro.graphs.traversal import BallCache, ball

FAMILIES = {
    "grid": lambda: SimpleGrid(5, 6).graph,
    "torus": lambda: ToroidalGrid(5, 5).graph,
    "ktree": lambda: deterministic_ktree(2, 14).graph,
}

#: Fixed per-family seed offsets (str hash is randomized per process).
SEED_BASE = {"grid": 1_000, "torus": 2_000, "ktree": 3_000}

#: Interleavings per family; 3 families x 70 ≈ 200 total.
INTERLEAVINGS = 70
STEPS = 25


def _mutate(graph, rng, spare_labels):
    """One random structural mutation; removals are rarer than additions."""
    roll = rng.random()
    nodes = list(graph.nodes())
    if roll < 0.45:  # add an edge between existing nodes (maybe a no-op)
        u, v = rng.sample(nodes, 2)
        if u != v:
            graph.add_edge(u, v)
    elif roll < 0.65:  # attach a brand-new node
        label = ("new", next(spare_labels))
        graph.add_edge(rng.choice(nodes), label)
    elif roll < 0.80:  # batched bulk addition
        anchor = rng.choice(nodes)
        with graph.batch():
            for _ in range(rng.randrange(1, 4)):
                label = ("bulk", next(spare_labels))
                graph.add_edge(anchor, label)
    elif roll < 0.90:  # remove an edge (forces a full flush)
        edges = list(graph.edges())
        if edges:
            u, v = rng.choice(edges)
            graph.remove_edge(u, v)
    else:  # remove a node (forces a full flush)
        victim = rng.choice(nodes)
        graph.remove_node(victim)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scoped_cache_matches_uncached_ball(family):
    build = FAMILIES[family]
    for seed in range(INTERLEAVINGS):
        rng = random.Random(SEED_BASE[family] + seed)
        graph = build()
        cache = BallCache(graph)
        spare_labels = iter(range(10_000))
        for _ in range(STEPS):
            if rng.random() < 0.55:
                nodes = list(graph.nodes())
                source = rng.choice(nodes)
                radius = rng.randrange(0, 4)
                expected = ball(graph, source, radius)
                got = cache.ball(source, radius)
                assert got == expected, (
                    f"{family} seed={seed}: cached B({source!r}, {radius}) "
                    f"= {sorted(got, key=repr)} but uncached gives "
                    f"{sorted(expected, key=repr)}"
                )
            else:
                _mutate(graph, rng, spare_labels)
        # Final sweep: every cached answer must match a fresh BFS.
        for node in list(graph.nodes())[:10]:
            for radius in (0, 1, 2, 3):
                assert cache.ball(node, radius) == ball(graph, node, radius)


def test_differential_exercises_both_flush_kinds():
    """Sanity-check that the generator's caches both flush and hit
    (otherwise the property above would be vacuous)."""
    from repro.observability.metrics import scoped_registry

    with scoped_registry():
        for family, build in sorted(FAMILIES.items()):
            for seed in range(10):
                rng = random.Random(SEED_BASE[family] + seed)
                graph = build()
                cache = BallCache(graph)
                spare_labels = iter(range(10_000))
                for _ in range(STEPS):
                    if rng.random() < 0.55:
                        nodes = list(graph.nodes())
                        cache.ball(rng.choice(nodes), rng.randrange(0, 4))
                    else:
                        _mutate(graph, rng, spare_labels)
        stats = BallCache.global_stats()
        assert stats["full_flushes"] > 0
        assert stats["hits"] > 0
