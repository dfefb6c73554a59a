"""Tests for the Graph substrate."""

import random

import pytest

from repro.graphs.graph import BATCH_TOUCH_LIMIT, LOG_CAPACITY, Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_nodes_only(self):
        g = Graph(nodes=[1, 2, 3])
        assert g.num_nodes == 3
        assert g.num_edges == 0

    def test_edges_create_endpoints(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1

    def test_add_edge_idempotent(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_tuple_nodes(self):
        g = Graph(edges=[((0, 0), (0, 1))])
        assert (0, 0) in g
        assert g.has_edge((0, 0), (0, 1))

    def test_add_edges_bulk(self):
        g = Graph()
        g.add_edges([(1, 2), (2, 3), (3, 1)])
        assert g.num_edges == 3


class TestQueries:
    def test_neighbors(self):
        g = Graph(edges=[(1, 2), (1, 3)])
        assert g.neighbors(1) == frozenset({2, 3})
        assert g.neighbors(2) == frozenset({1})

    def test_neighbors_missing_node(self):
        g = Graph()
        with pytest.raises(KeyError):
            g.neighbors(42)

    def test_degree(self):
        g = Graph(edges=[(1, 2), (1, 3), (1, 4)])
        assert g.degree(1) == 3
        assert g.degree(4) == 1

    def test_max_degree(self):
        g = Graph(edges=[(1, 2), (1, 3)])
        assert g.max_degree() == 2
        assert Graph().max_degree() == 0

    def test_has_edge_absent_nodes(self):
        g = Graph(edges=[(1, 2)])
        assert not g.has_edge(1, 99)
        assert not g.has_edge(98, 99)

    def test_edges_listed_once(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        edges = list(g.edges())
        assert len(edges) == 3
        normalized = {frozenset(e) for e in edges}
        assert normalized == {
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({1, 3}),
        }

    def test_len_and_iter(self):
        g = Graph(nodes=[1, 2], edges=[(2, 3)])
        assert len(g) == 3
        assert set(g) == {1, 2, 3}

    def test_contains(self):
        g = Graph(nodes=["x"])
        assert "x" in g
        assert "y" not in g


class TestMutation:
    def test_remove_edge(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 1
        assert g.num_nodes == 3

    def test_remove_missing_edge(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(KeyError):
            g.remove_edge(1, 3)

    def test_remove_node(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_node(2)
        assert 2 not in g
        assert g.num_edges == 0

    def test_remove_missing_node(self):
        g = Graph()
        with pytest.raises(KeyError):
            g.remove_node(5)


class TestDerived:
    def test_induced_subgraph(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
        sub = g.induced_subgraph([1, 2, 3])
        assert sub.num_nodes == 3
        assert sub.has_edge(1, 2)
        assert sub.has_edge(2, 3)
        assert not sub.has_edge(3, 4)

    def test_induced_subgraph_ignores_foreign_nodes(self):
        g = Graph(edges=[(1, 2)])
        sub = g.induced_subgraph([1, 2, 99])
        assert sub.num_nodes == 2

    def test_induced_subgraph_keeps_isolated(self):
        g = Graph(nodes=[5], edges=[(1, 2)])
        sub = g.induced_subgraph([1, 5])
        assert sub.num_nodes == 2
        assert sub.num_edges == 0

    def test_copy_is_independent(self):
        g = Graph(edges=[(1, 2)])
        clone = g.copy()
        clone.add_edge(2, 3)
        assert g.num_nodes == 2
        assert clone.num_nodes == 3

    def test_copy_keeps_node_order(self, small_grid):
        graph = small_grid.graph
        assert list(graph.copy().nodes()) == list(graph.nodes())

    def test_relabel(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        relabeled = g.relabel({1: "a", 2: "b", 3: "c"})
        assert relabeled.has_edge("a", "b")
        assert relabeled.has_edge("b", "c")
        assert relabeled.num_nodes == 3

    def test_relabel_partial(self):
        g = Graph(edges=[(1, 2)])
        relabeled = g.relabel({1: "a"})
        assert relabeled.has_edge("a", 2)

    def test_relabel_collision_rejected(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(ValueError):
            g.relabel({1: "x", 2: "x"})

    def test_equality(self):
        g1 = Graph(edges=[(1, 2)])
        g2 = Graph(edges=[(1, 2)])
        g3 = Graph(edges=[(1, 3)])
        assert g1 == g2
        assert g1 != g3

    def test_repr(self):
        assert repr(Graph(edges=[(1, 2)])) == "Graph(n=2, m=1)"


class TestGeneration:
    def test_bulk_construction_is_one_generation(self):
        g = Graph(nodes=[1, 2], edges=[(2, 3), (3, 4)])
        assert g.generation == 1
        assert Graph().generation == 0

    def test_add_edges_is_one_generation(self):
        g = Graph(edges=[(1, 2)])
        g.add_edges([(2, 3), (3, 4), (4, 5)])
        assert g.generation == 2

    def test_single_mutations_bump_once_each(self):
        g = Graph()
        g.add_node(1)
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        g.remove_node(2)
        assert g.generation == 4

    def test_idempotent_mutations_do_not_bump(self):
        g = Graph(edges=[(1, 2)])
        before = g.generation
        g.add_node(1)
        g.add_edge(2, 1)
        assert g.generation == before

    def test_empty_batch_commits_nothing(self):
        g = Graph(edges=[(1, 2)])
        before = g.generation
        with g.batch():
            pass
        with g.batch():
            g.add_node(1)  # idempotent: no structural change
        assert g.generation == before

    def test_nested_batches_commit_once(self):
        g = Graph()
        with g.batch():
            g.add_edge(1, 2)
            with g.batch():
                g.add_edge(2, 3)
        assert g.generation == 1

    def test_copy_carries_generation(self):
        g = Graph(edges=[(1, 2)])
        g.add_edge(2, 3)
        clone = g.copy()
        assert clone.generation == g.generation
        assert clone.num_edges == g.num_edges
        assert clone.fingerprint == g.fingerprint

    def test_derived_graphs_have_consistent_counters(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
        sub = g.induced_subgraph([1, 2, 3])
        assert sub.generation == 1
        assert sub.num_edges == 2
        relabeled = g.relabel({1: "a"})
        assert relabeled.generation == 1
        assert relabeled.num_edges == 4


class TestChangeLog:
    def test_no_change_is_empty(self):
        g = Graph(edges=[(1, 2)])
        assert g.changes_since(g.generation) == []

    def test_records_additions_with_touched_nodes(self):
        g = Graph(edges=[(1, 2)])
        base = g.generation
        g.add_edge(2, 3)
        g.add_node(9)
        changes = g.changes_since(base)
        assert changes == [("add", (2, 3)), ("add", (9,))]

    def test_records_removals(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        base = g.generation
        g.remove_edge(1, 2)
        g.remove_node(3)
        kinds = [kind for kind, _ in g.changes_since(base)]
        assert kinds == ["remove", "remove"]

    def test_batch_coalesces_to_one_record(self):
        g = Graph(edges=[(1, 2)])
        base = g.generation
        with g.batch():
            g.add_edge(2, 3)
            g.add_edge(3, 4)
        changes = g.changes_since(base)
        assert len(changes) == 1
        kind, nodes = changes[0]
        assert kind == "add"
        assert set(nodes) == {2, 3, 4}

    def test_batch_with_removal_is_a_remove_record(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        base = g.generation
        with g.batch():
            g.add_edge(3, 4)
            g.remove_edge(1, 2)
        assert g.changes_since(base) == [("remove", ())]

    def test_oversized_batch_degrades_to_bulk(self):
        g = Graph()
        base = g.generation
        with g.batch():
            for i in range(BATCH_TOUCH_LIMIT + 2):
                g.add_node(i)
        assert g.changes_since(base) == [("bulk", ())]

    def test_unknown_generation_is_none(self):
        g = Graph(edges=[(1, 2)])
        assert g.changes_since(g.generation + 5) is None

    def test_overflow_makes_history_unknowable(self):
        g = Graph()
        base = g.generation
        for i in range(LOG_CAPACITY + 10):
            g.add_node(i)
        assert g.changes_since(base) is None
        # Post-overflow history is tracked again.
        recent = g.generation
        g.add_node("fresh")
        assert g.changes_since(recent) == [("add", ("fresh",))]

    def test_reader_within_half_capacity_keeps_every_record(self):
        """Overflow drops only the older half of the log: a reader that
        syncs at least every LOG_CAPACITY // 2 records gets exactly the
        records since its last sync, across several overflows."""
        rng = random.Random(7)
        g = Graph()
        expected = []  # every record ever written, oldest first
        synced = g.generation
        synced_at = 0
        syncs = 0
        while len(expected) < 4 * LOG_CAPACITY:  # 6 or more overflows
            for __ in range(rng.randint(1, LOG_CAPACITY // 2)):
                node = len(expected)
                if node and rng.random() < 0.5:
                    g.add_edge(node - 1, node)
                    expected.append(("add", (node - 1, node)))
                else:
                    g.add_node(node)
                    expected.append(("add", (node,)))
            assert g.changes_since(synced) == expected[synced_at:]
            synced, synced_at = g.generation, len(expected)
            syncs += 1
        assert syncs > 8

    def test_copy_starts_a_fresh_log(self):
        g = Graph(edges=[(1, 2)])
        clone = g.copy()
        assert clone.changes_since(clone.generation) == []
        assert clone.changes_since(0) is None  # pre-copy history unknowable
        clone.add_edge(2, 3)
        assert clone.changes_since(clone.generation - 1) == [("add", (2, 3))]


class TestFingerprint:
    def test_order_independent(self):
        a = Graph(edges=[(1, 2), (2, 3), (3, 4)])
        b = Graph(edges=[(3, 4), (1, 2), (2, 3)])
        assert a.fingerprint == b.fingerprint
        assert a.structural_key() == b.structural_key()

    def test_mutation_changes_and_reverting_restores(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        original = g.structural_key()
        g.add_edge(1, 3)
        assert g.structural_key() != original
        g.remove_edge(1, 3)
        assert g.structural_key() == original

    def test_different_graphs_differ(self):
        a = Graph(edges=[(1, 2), (3, 4)])
        b = Graph(edges=[(1, 2), (3, 5)])
        assert a.structural_key() != b.structural_key()

    def test_isolated_node_counts(self):
        a = Graph(edges=[(1, 2)])
        b = Graph(nodes=[7], edges=[(1, 2)])
        assert a.structural_key() != b.structural_key()


class TestNeighborMemoization:
    def test_same_object_until_mutation(self):
        g = Graph(edges=[(1, 2), (1, 3)])
        first = g.neighbors(1)
        assert g.neighbors(1) is first
        g.add_edge(1, 4)
        assert g.neighbors(1) == frozenset({2, 3, 4})

    def test_remove_node_invalidates_neighbors(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.neighbors(1)
        g.neighbors(3)
        g.remove_node(2)
        assert g.neighbors(1) == frozenset()
        assert g.neighbors(3) == frozenset()

    def test_remove_edge_invalidates_both_endpoints(self):
        g = Graph(edges=[(1, 2)])
        g.neighbors(1)
        g.neighbors(2)
        g.remove_edge(1, 2)
        assert g.neighbors(1) == frozenset()
        assert g.neighbors(2) == frozenset()

    def test_num_edges_tracks_all_mutations(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 1)])
        assert g.num_edges == 3
        g.remove_node(2)  # drops two incident edges
        assert g.num_edges == 1
        g.add_edge(1, 4)
        assert g.num_edges == 2


class TestBatchException:
    """A batch body that raises must leave the bookkeeping consistent
    with the mutations that already applied (regression: the old exit
    path committed nothing, leaving generation/change-log stale)."""

    def test_failed_batch_still_bumps_generation(self):
        g = Graph(edges=[(i, i + 1) for i in range(5)])
        base = g.generation
        with pytest.raises(RuntimeError, match="boom"):
            with g.batch():
                g.add_edge(0, 99)
                raise RuntimeError("boom")
        assert g.has_edge(0, 99)  # the mutation DID apply...
        assert g.generation == base + 1  # ...so the counter must say so

    def test_failed_batch_commits_an_opaque_record(self):
        g = Graph(edges=[(i, i + 1) for i in range(5)])
        base = g.generation
        with pytest.raises(RuntimeError):
            with g.batch():
                g.add_edge(0, 99)
                raise RuntimeError
        # Conservative: the caller aborted mid-way, so consumers must not
        # trust a scoped touched set.
        assert g.changes_since(base) == [("bulk", ())]

    def test_failed_batch_with_removal_records_remove(self):
        g = Graph(edges=[(i, i + 1) for i in range(5)])
        base = g.generation
        with pytest.raises(RuntimeError):
            with g.batch():
                g.remove_edge(0, 1)
                raise RuntimeError
        assert g.changes_since(base) == [("remove", ())]

    def test_failed_batch_without_mutations_commits_nothing(self):
        g = Graph(edges=[(0, 1)])
        base = g.generation
        with pytest.raises(RuntimeError):
            with g.batch():
                raise RuntimeError
        assert g.generation == base
        assert g.changes_since(base) == []

    def test_fingerprint_matches_directly_built_graph(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        with pytest.raises(RuntimeError):
            with g.batch():
                g.add_edge(2, 3)
                raise RuntimeError
        assert g.fingerprint == Graph(edges=[(0, 1), (1, 2), (2, 3)]).fingerprint

    def test_inner_exception_caught_outer_commits_add(self):
        g = Graph(edges=[(0, 1)])
        base = g.generation
        with g.batch():
            g.add_edge(1, 2)
            try:
                with g.batch():
                    g.add_edge(2, 3)
                    raise ValueError("inner")
            except ValueError:
                pass
            g.add_edge(3, 4)
        assert g.generation == base + 1
        changes = g.changes_since(base)
        assert len(changes) == 1
        kind, nodes = changes[0]
        assert kind == "add"
        assert {1, 2, 3, 4} <= set(nodes)

    def test_ball_cache_correct_after_failed_batch(self):
        from repro.graphs.traversal import BallCache, ball

        g = Graph(edges=[(i, i + 1) for i in range(5)])
        cache = BallCache(g)
        cache.ball(0, 2)
        with pytest.raises(RuntimeError):
            with g.batch():
                g.add_edge(1, 50)
                raise RuntimeError
        assert cache.ball(0, 2) == ball(g, 0, 2)
        assert 50 in cache.ball(0, 2)
