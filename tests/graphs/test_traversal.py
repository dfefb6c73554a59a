"""Tests for BFS, balls, components, diameter."""

import random
from collections import deque

import pytest

from repro.graphs.graph import LOG_CAPACITY, Graph
from repro.graphs.traversal import (
    BallCache,
    ball,
    bfs_distances,
    connected_components,
    diameter,
    eccentricity,
    is_connected,
    shortest_path,
)

# The seeded mutation interleavings the ball-cache differential test uses.
from test_invalidation_differential import FAMILIES, _mutate


class TestBfsDistances:
    def test_single_source(self, path_graph):
        dist = bfs_distances(path_graph, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}

    def test_multi_source(self, path_graph):
        dist = bfs_distances(path_graph, [0, 5])
        assert dist[2] == 2
        assert dist[3] == 2

    def test_max_dist(self, path_graph):
        dist = bfs_distances(path_graph, 0, max_dist=2)
        assert set(dist) == {0, 1, 2}

    def test_missing_source(self, path_graph):
        with pytest.raises(KeyError):
            bfs_distances(path_graph, 99)

    def test_tuple_node_treated_as_single_source(self, small_grid):
        # Grid nodes are tuples; (0, 0) must be one source, not two.
        dist = bfs_distances(small_grid.graph, (0, 0))
        assert dist[(0, 0)] == 0
        assert dist[(2, 3)] == 5


class TestBall:
    def test_radius_zero(self, path_graph):
        assert ball(path_graph, 2, 0) == {2}

    def test_radius_two(self, path_graph):
        assert ball(path_graph, 2, 2) == {0, 1, 2, 3, 4}

    def test_negative_radius(self, path_graph):
        with pytest.raises(ValueError):
            ball(path_graph, 0, -1)

    def test_grid_ball_is_diamond(self, small_grid):
        region = ball(small_grid.graph, (2, 3), 1)
        assert region == {(2, 3), (1, 3), (3, 3), (2, 2), (2, 4)}

    def test_multi_source_ball(self, path_graph):
        assert ball(path_graph, [0, 5], 1) == {0, 1, 4, 5}


def _reference_bfs(graph, sources, max_dist):
    """Distances from ``sources`` by a queue BFS over ``Graph.neighbors()``."""
    dist = {}
    queue = deque()
    for source in sources:
        if source not in dist:
            dist[source] = 0
            queue.append(source)
    while queue:
        u = queue.popleft()
        if max_dist is not None and dist[u] >= max_dist:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestKernelDifferential:
    """``ball``/``bfs_distances`` equal a reference BFS after every step of
    seeded edge/node/batched additions and rare removals."""

    #: Fixed per-family seed offsets (str hash is randomized per process).
    SEED_BASE = {"grid": 4_000, "torus": 5_000, "ktree": 6_000}
    INTERLEAVINGS = 40
    STEPS = 25

    @staticmethod
    def _check(graph, sources, radius):
        want = _reference_bfs(graph, sources, radius)
        dist = bfs_distances(graph, sources, max_dist=radius)
        assert dist == want, f"B({sources!r}, {radius})"
        # Keys go in level by level, the sources first in the order given.
        assert list(dist)[: len(set(sources))] == list(dict.fromkeys(sources))
        assert list(dist.values()) == sorted(dist.values())
        if radius is None:
            radius = graph.num_nodes
        region = ball(graph, sources, radius)
        assert region == set(want)
        # The set is filled in visit order, so it iterates in that order.
        in_visit_order = set()
        for node in bfs_distances(graph, sources, max_dist=radius):
            in_visit_order.add(node)
        assert list(region) == list(in_visit_order)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_kernel_matches_reference_bfs(self, family):
        build = FAMILIES[family]
        for seed in range(self.INTERLEAVINGS):
            rng = random.Random(self.SEED_BASE[family] + seed)
            graph = build()
            spare_labels = iter(range(10_000))
            for _ in range(self.STEPS):
                if rng.random() >= 0.55:
                    _mutate(graph, rng, spare_labels)
                nodes = list(graph.nodes())
                radius = rng.choice([0, 1, 2, 3, None])
                self._check(graph, [rng.choice(nodes)], radius)
                sources = [rng.choice(nodes) for _ in range(rng.randrange(2, 5))]
                self._check(graph, sources, radius)

    def test_empty_sources(self, small_grid):
        assert ball(small_grid.graph, [], 3) == set()
        assert bfs_distances(small_grid.graph, []) == {}


class TestComponents:
    def test_connected(self, path_graph):
        assert is_connected(path_graph)
        assert len(connected_components(path_graph)) == 1

    def test_disconnected(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        comps = connected_components(g)
        assert len(comps) == 2
        assert {frozenset(c) for c in comps} == {
            frozenset({1, 2}),
            frozenset({3, 4}),
        }

    def test_empty_graph_connected(self):
        assert is_connected(Graph())

    def test_isolated_nodes(self):
        g = Graph(nodes=[1, 2, 3])
        assert len(connected_components(g)) == 3


class TestShortestPath:
    def test_trivial(self, path_graph):
        assert shortest_path(path_graph, 3, 3) == [3]

    def test_path(self, path_graph):
        assert shortest_path(path_graph, 0, 3) == [0, 1, 2, 3]

    def test_unreachable(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        assert shortest_path(g, 1, 4) is None

    def test_missing_endpoint(self, path_graph):
        with pytest.raises(KeyError):
            shortest_path(path_graph, 0, 77)

    def test_grid_path_length(self, small_grid):
        path = shortest_path(small_grid.graph, (0, 0), (4, 6))
        assert path is not None
        assert len(path) == 11  # manhattan distance 10 + 1


class TestDiameter:
    def test_path_diameter(self, path_graph):
        assert diameter(path_graph) == 5

    def test_cycle_diameter(self, cycle_graph):
        assert diameter(cycle_graph) == 3

    def test_eccentricity(self, path_graph):
        assert eccentricity(path_graph, 0) == 5
        assert eccentricity(path_graph, 2) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diameter(Graph())

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            diameter(Graph(edges=[(1, 2), (3, 4)]))

    def test_grid_diameter(self, small_grid):
        assert diameter(small_grid.graph) == 4 + 6


class TestBallCache:
    def test_cached_ball_matches_plain_ball(self, path_graph):
        cache = BallCache(path_graph)
        for node in path_graph.nodes():
            for radius in (0, 1, 2, 5):
                assert cache.ball(node, radius) == ball(path_graph, node, radius)

    def test_hit_and_miss_counters(self, path_graph):
        cache = BallCache(path_graph)
        cache.ball(0, 2)
        cache.ball(0, 2)
        cache.ball(0, 3)
        assert cache.misses == 2
        assert cache.hits == 1
        assert cache.stats()["hit_rate"] == pytest.approx(1 / 3)

    def test_add_edge_invalidates(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        cache = BallCache(graph)
        assert cache.ball(0, 1) == {0, 1}
        graph.add_edge(0, 4)  # shortcut: 4 now inside the radius-1 ball
        assert cache.ball(0, 1) == {0, 1, 4}

    def test_remove_edge_invalidates(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        cache = BallCache(graph)
        assert cache.ball(0, 2) == {0, 1, 2}
        graph.remove_edge(1, 2)
        assert cache.ball(0, 2) == {0, 1}

    def test_remove_node_invalidates(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        cache = BallCache(graph)
        assert cache.ball(0, 2) == {0, 1, 2}
        graph.remove_node(1)
        assert cache.ball(0, 2) == {0}

    def test_add_node_invalidates(self):
        graph = Graph(edges=[(0, 1)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        graph.add_node(7)
        # The cache must notice the generation bump even though the old
        # ball's content happens to be unchanged.
        assert len(cache) == 0 or cache.ball(0, 1) == {0, 1}
        assert cache.ball(7, 3) == {7}

    def test_stale_balls_never_returned_after_many_mutations(self):
        graph = Graph(edges=[(i, i + 1) for i in range(6)])
        cache = BallCache(graph)
        for _ in range(3):
            for node in list(graph.nodes()):
                assert cache.ball(node, 2) == ball(graph, node, 2)
            graph.add_edge(0, max(graph.nodes()))
            graph.remove_edge(0, max(graph.nodes()))
        assert cache.ball(0, 2) == ball(graph, 0, 2)

    def test_idempotent_mutations_keep_cache_warm(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        graph.add_node(0)      # already present: no structural change
        graph.add_edge(0, 1)   # already present: no structural change
        cache.ball(0, 1)
        assert cache.hits == 1

    def test_unhashable_sources_fall_through(self, path_graph):
        cache = BallCache(path_graph)
        assert cache.ball([0, 5], 1) == ball(path_graph, [0, 5], 1)
        assert cache.hits == 0 and cache.misses == 0

    def test_multi_source_tuple_key_cached(self):
        graph = Graph(edges=[((0, 0), (0, 1)), ((0, 1), (0, 2))])
        cache = BallCache(graph)
        # A tuple that *is* a node caches under that node.
        assert cache.ball((0, 0), 1) == {(0, 0), (0, 1)}
        cache.ball((0, 0), 1)
        assert cache.hits == 1


class TestScopedInvalidation:
    def test_removal_full_flushes(self):
        graph = Graph(edges=[(i, i + 1) for i in range(8)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        cache.ball(6, 1)
        graph.remove_edge(6, 7)
        cache.ball(0, 1)
        assert cache.full_flushes == 1

    def test_log_overflow_full_flushes(self):
        graph = Graph(edges=[(i, i + 1) for i in range(8)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        for i in range(LOG_CAPACITY + 10):
            graph.add_node(("pad", i))
        cache.ball(0, 1)
        assert cache.full_flushes == 1

    def test_oversized_batch_full_flushes(self):
        from repro.graphs.graph import BATCH_TOUCH_LIMIT

        graph = Graph(edges=[(i, i + 1) for i in range(8)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        with graph.batch():
            for i in range(BATCH_TOUCH_LIMIT + 2):
                graph.add_node(("pad", i))
        cache.ball(0, 1)
        assert cache.full_flushes == 1

    def test_scoped_matches_uncached_through_mutations(self):
        graph = Graph(edges=[(i, i + 1) for i in range(10)])
        cache = BallCache(graph)
        for step in range(5):
            graph.add_edge(step, step + 11 + step)
            for node in (0, 4, 9):
                assert cache.ball(node, 2) == ball(graph, node, 2)


class TestSharedStore:
    def test_identical_graphs_share_balls(self):
        a = Graph(edges=[(i, i + 1) for i in range(6)])
        b = Graph(edges=[(i, i + 1) for i in range(6)])
        cache_a = BallCache(a)
        cache_b = BallCache(b)
        cache_a.ball(0, 2)
        assert cache_b.ball(0, 2) == {0, 1, 2}
        assert cache_b.hits == 1
        assert cache_b.misses == 0

    def test_different_structures_do_not_share(self):
        a = Graph(edges=[(i, i + 1) for i in range(6)])
        b = Graph(edges=[(i, i + 1) for i in range(7)])
        cache_a = BallCache(a)
        cache_b = BallCache(b)
        cache_a.ball(0, 2)
        cache_b.ball(0, 2)
        assert cache_b.misses == 1

    def test_clear_shared_store_drops_pooled_balls(self):
        graph = Graph(edges=[(0, 1)])
        BallCache(graph).ball(0, 1)
        BallCache.clear_shared_store()
        fresh = BallCache(graph)
        fresh.ball(0, 1)
        assert fresh.misses == 1

    def test_lru_bounds_the_pool(self):
        for i in range(BallCache.SHARED_STORE_CAPACITY + 5):
            BallCache(Graph(edges=[(i, i + 1)])).ball(i, 1)
        assert len(BallCache._shared_store) == BallCache.SHARED_STORE_CAPACITY


class TestAsSources:
    """Source normalization: nodes first, collections only when genuine."""

    def test_tuple_of_node_labels_is_not_expanded(self, path_graph):
        # (0, 1) is not a node even though both elements are.  The old
        # normalizer expanded it into a two-source query — silently wrong
        # on int-labeled graphs.
        with pytest.raises(KeyError, match=r"\(0, 1\)"):
            bfs_distances(path_graph, (0, 1))

    def test_missing_tuple_label_names_the_label(self, small_grid):
        with pytest.raises(KeyError, match=r"\(99, 99\)"):
            ball(small_grid.graph, (99, 99), 1)

    def test_string_is_a_label_not_a_collection(self, path_graph):
        with pytest.raises(KeyError, match="ab"):
            bfs_distances(path_graph, "ab")

    def test_string_node_still_resolves(self):
        g = Graph(edges=[("ab", "cd")])
        assert bfs_distances(g, "ab") == {"ab": 0, "cd": 1}

    def test_genuine_collections_expand(self, path_graph):
        want = bfs_distances(path_graph, [0, 5])
        assert bfs_distances(path_graph, {0, 5}) == want
        assert bfs_distances(path_graph, iter([0, 5])) == want

    def test_collection_member_missing_raises(self, path_graph):
        with pytest.raises(KeyError, match="99"):
            bfs_distances(path_graph, [0, 99])

    def test_unhashable_non_iterable_is_a_type_error(self, path_graph):
        class Opaque:
            __hash__ = None

        with pytest.raises(TypeError, match="sources"):
            bfs_distances(path_graph, Opaque())


class TestBucketReattach:
    """LRU orphan repair: a live cache whose pooled bucket was evicted
    re-inserts (or merges into) the pool on its next sync or miss."""

    @staticmethod
    def _flood_pool():
        for i in range(BallCache.SHARED_STORE_CAPACITY + 5):
            BallCache(Graph(edges=[(("flood", i), ("flood", i, 1))])).ball(
                ("flood", i), 1
            )

    def test_evicted_bucket_reattaches_on_next_miss(self):
        graph = Graph(edges=[(i, i + 1) for i in range(6)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        self._flood_pool()
        assert cache._key not in BallCache._shared_store
        assert cache.ball(0, 2) == ball(graph, 0, 2)  # miss repairs the pool
        assert cache.bucket_reattaches == 1
        assert cache._key in BallCache._shared_store
        # Cross-cache sharing works again: a twin hits the warm ball.
        twin = BallCache(Graph(edges=[(i, i + 1) for i in range(6)]))
        assert twin.ball(0, 1) == {0, 1}
        assert (twin.hits, twin.misses) == (1, 0)

    def test_hit_on_orphan_does_not_reattach(self):
        graph = Graph(edges=[(i, i + 1) for i in range(6)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        self._flood_pool()
        assert cache.ball(0, 1) == {0, 1}  # orphan still serves hits
        assert cache.bucket_reattaches == 0

    def test_orphan_merges_into_recreated_bucket(self):
        cache_a = BallCache(Graph(edges=[(i, i + 1) for i in range(6)]))
        cache_a.ball(0, 1)
        self._flood_pool()
        # A new cache for the same structure re-creates the bucket empty.
        cache_b = BallCache(Graph(edges=[(i, i + 1) for i in range(6)]))
        cache_b.ball(5, 1)
        assert cache_b.misses == 1
        # cache_a's next miss folds its orphaned balls into the pooled
        # bucket and adopts it, so both caches share one table again.
        cache_a.ball(3, 1)
        assert cache_a.bucket_reattaches == 1
        assert cache_a._balls is cache_b._balls
        assert cache_b.ball(0, 1) == {0, 1}  # a's pre-merge ball survived
        assert cache_b.hits == 1

    def test_reattach_counts_in_stats(self):
        graph = Graph(edges=[(i, i + 1) for i in range(6)])
        cache = BallCache(graph)
        cache.ball(0, 1)
        self._flood_pool()
        cache.ball(0, 2)
        assert cache.stats()["bucket_reattaches"] == 1
