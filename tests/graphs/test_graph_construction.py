"""The one-pass constructor and the on-demand fingerprint.

``Graph(nodes, edges)`` fills its adjacency map directly.  The reference
adds every element through ``add_node``/``add_edge`` inside one
``batch()``, with the fingerprint live from the first element.  The two
must agree on everything a caller or cache can observe, down to dict and
neighbor-set iteration order (BFS visit order follows it).
``induced_subgraph`` and ``relabel`` build through the constructor, so
they are checked against per-element references too.
"""

import itertools
import random

import pytest

from repro.graphs.graph import BATCH_TOUCH_LIMIT, Graph


def reference_build(nodes, edges):
    graph = Graph()
    graph.fingerprint  # live from the start: every add below folds a token
    with graph.batch():
        for node in nodes:
            graph.add_node(node)
        for u, v in edges:
            graph.add_edge(u, v)
    return graph


def reference_induced(graph, nodes):
    adj = graph.adjacency()
    requested = set(nodes)
    keep = [node for node in adj if node in requested]
    keepset = set(keep)
    edges, seen = [], set()
    for u in keep:
        for v in adj[u]:
            if v in keepset and v not in seen:
                edges.append((u, v))
        seen.add(u)
    return reference_build(keep, edges)


def reference_relabel(graph, mapping):
    new_labels = {node: mapping.get(node, node) for node in graph.nodes()}
    return reference_build(
        new_labels.values(),
        [(new_labels[u], new_labels[v]) for u, v in graph.edges()],
    )


def records(graph):
    return [(kind, set(nodes)) for kind, nodes in graph.changes_since(0)]


def assert_same(built, reference):
    adj, ref = built.adjacency(), reference.adjacency()
    assert list(adj) == list(ref)
    for node in ref:
        assert list(adj[node]) == list(ref[node]), node
    assert built.num_edges == reference.num_edges
    assert built.generation == reference.generation
    assert records(built) == records(reference)
    assert built.structural_key() == reference.structural_key()


def random_case(seed, num_labels):
    """Nodes and edges over mixed int/tuple/str labels, with repeated
    nodes, repeated and reversed edges, and nodes on no edge."""
    rng = random.Random(seed)
    universe = [
        (i, i % 3) if i % 3 == 0 else f"s{i}" if i % 3 == 1 else i
        for i in range(num_labels)
    ]
    isolated = rng.sample(universe, max(1, num_labels // 10))
    wired = [label for label in universe if label not in isolated]
    nodes = rng.sample(universe, num_labels // 2)
    nodes += rng.choices(nodes, k=max(1, len(nodes) // 5))
    nodes += isolated
    rng.shuffle(nodes)
    edges = []
    for _ in range(num_labels * 2):
        u, v = rng.sample(wired, 2)
        edges.append((u, v))
        roll = rng.random()
        if roll < 0.1:
            edges.append((u, v))
        elif roll < 0.2:
            edges.append((v, u))
    return nodes, edges


SIZES = [4, 30, 120, BATCH_TOUCH_LIMIT + 100]


class TestConstructorMatchesReference:
    @pytest.mark.parametrize("num_labels", SIZES)
    @pytest.mark.parametrize("seed", range(5))
    def test_nodes_and_edges(self, seed, num_labels):
        nodes, edges = random_case(1_000 * num_labels + seed, num_labels)
        assert_same(Graph(nodes, edges), reference_build(nodes, edges))

    @pytest.mark.parametrize("seed", range(3))
    def test_edges_only_and_nodes_only(self, seed):
        nodes, edges = random_case(seed, 60)
        assert_same(Graph(edges=edges), reference_build((), edges))
        assert_same(Graph(nodes=nodes), reference_build(nodes, ()))

    def test_empty(self):
        assert_same(Graph(), reference_build((), ()))
        assert Graph().generation == 0
        assert Graph().changes_since(0) == []

    def test_record_kind_flips_to_bulk_past_the_touch_limit(self):
        small = Graph(nodes=range(BATCH_TOUCH_LIMIT))
        large = Graph(nodes=range(BATCH_TOUCH_LIMIT + 1))
        assert [kind for kind, _ in small.changes_since(0)] == ["add"]
        assert large.changes_since(0) == [("bulk", ())]

    def test_generators_are_consumed_once(self):
        nodes, edges = random_case(7, 40)
        built = Graph(iter(nodes), (edge for edge in edges))
        assert_same(built, reference_build(nodes, edges))

    @pytest.mark.parametrize(
        "edges", [[(1, 2), (3, 3)], [((0, 1), (0, 1))], [("a", "b"), ("b", "b")]]
    )
    def test_self_loop_rejected(self, edges):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(nodes=[1], edges=edges)


class TestDerivedGraphsMatchReference:
    @pytest.mark.parametrize("num_labels", SIZES)
    @pytest.mark.parametrize("seed", range(4))
    def test_induced_subgraph(self, seed, num_labels):
        rng = random.Random(seed)
        nodes, edges = random_case(2_000 * num_labels + seed, num_labels)
        graph = Graph(nodes, edges)
        universe = list(graph.nodes())
        subset = rng.sample(universe, len(universe) * 2 // 3)
        subset += ["absent", ("absent", 1)]  # ignored silently
        rng.shuffle(subset)
        assert_same(graph.induced_subgraph(subset), reference_induced(graph, subset))

    @pytest.mark.parametrize("num_labels", SIZES)
    @pytest.mark.parametrize("seed", range(4))
    def test_relabel(self, seed, num_labels):
        rng = random.Random(seed)
        nodes, edges = random_case(3_000 * num_labels + seed, num_labels)
        graph = Graph(nodes, edges)
        renamed = rng.sample(list(graph.nodes()), graph.num_nodes // 2)
        mapping = {node: ("renamed", index) for index, node in enumerate(renamed)}
        assert_same(graph.relabel(mapping), reference_relabel(graph, mapping))

    def test_relabel_still_rejects_collapsing_maps(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="injective"):
            graph.relabel({1: "x", 3: "x"})


class TestOnDemandFingerprint:
    """One twin reads ``structural_key()`` after every mutation (so it is
    maintained incrementally); the other reads it only at the end, after
    taking a ``copy()`` before its first read."""

    @staticmethod
    def mutate(graph, rng, fresh):
        nodes = list(graph.nodes())
        roll = rng.random()
        if roll < 0.3:
            u, v = rng.sample(nodes, 2)
            graph.add_edge(u, v)
        elif roll < 0.45:
            graph.add_node(("new", next(fresh)))
        elif roll < 0.6:
            anchor = rng.choice(nodes)
            with graph.batch():
                for _ in range(rng.randrange(1, 4)):
                    graph.add_edge(anchor, ("bulk", next(fresh)))
        elif roll < 0.85:
            edges = list(graph.edges())
            if edges:
                graph.remove_edge(*rng.choice(edges))
        elif len(nodes) > 3:
            graph.remove_node(rng.choice(nodes))

    @pytest.mark.parametrize("seed", range(25))
    def test_lazy_twin_ends_with_the_eager_key(self, seed):
        rng = random.Random(seed)
        nodes, edges = random_case(seed, 40)
        eager, lazy = Graph(nodes, edges), Graph(nodes, edges)
        eager.structural_key()
        steps = 60
        copy_at = rng.randrange(steps)
        clone = clone_key = None
        for step in range(steps):
            # Both twins make the same random move with the same new labels.
            state = rng.getstate()
            self.mutate(eager, rng, itertools.count(step * 10))
            rng.setstate(state)
            self.mutate(lazy, rng, itertools.count(step * 10))
            eager.structural_key()
            if step == copy_at:
                clone, clone_key = lazy.copy(), eager.structural_key()
        assert lazy.adjacency() == eager.adjacency()
        assert lazy.structural_key() == eager.structural_key()
        assert clone.structural_key() == clone_key
        rebuilt = Graph(lazy.nodes(), lazy.edges())
        assert rebuilt.structural_key() == eager.structural_key()

    def test_unread_graph_skips_fingerprint_work(self):
        graph = Graph(edges=[(1, 2)])
        graph.add_edge(2, 3)
        graph.remove_node(1)
        assert graph._fp_xor is None  # no token was folded while unread
        assert graph.structural_key() == Graph(edges=[(2, 3)]).structural_key()
