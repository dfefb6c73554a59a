"""Differential tests for the incremental clique-chain oracle.

:class:`~repro.oracles.clique_chain.CliqueChainOracle` keeps each view's
cliques between calls and grows them from the graph's change log.  The
property: one long-lived oracle answers every call exactly as a
from-scratch enumeration over the same graph does — the same partition
dict, or an :class:`OracleError` with the same message.

:class:`ReferenceCliqueChainOracle` is the from-scratch oracle the
incremental one replaced, kept verbatim as the reference.  The views grow
the way an Online-LOCAL view does (induced balls of a host graph, one
element at a time as ``ViewTracker.extend`` adds them, now and then in a
small ``batch()``), over hierarchies and random k-trees; the invalidation
cases cover every way the change log can stop describing the oracle's
state.
"""

import random
from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Set

import pytest

from repro.families.hierarchy import Hierarchy
from repro.families.ktree import random_ktree
from repro.graphs.graph import BATCH_TOUCH_LIMIT, LOG_CAPACITY, Graph
from repro.graphs.traversal import ball
from repro.oracles import CliqueChainOracle, KTreeOracle
from repro.oracles.base import OracleError, PartitionOracle

Node = Hashable


class ReferenceCliqueChainOracle(PartitionOracle):
    """The from-scratch clique-chain oracle: enumerates every clique of
    the ball on every call."""

    def __init__(self, num_parts: int, radius: int) -> None:
        self.num_parts = num_parts
        self.radius = radius

    def infer(self, graph: Graph, component: Set[Node]) -> Dict[Node, int]:
        if not component:
            raise OracleError("cannot partition an empty component")
        allowed = ball(graph, component, self.radius)
        cliques = self._cliques(graph, allowed)
        if not cliques:
            raise OracleError(
                f"no {self.num_parts}-clique in the neighborhood; wrong family?"
            )
        by_face: Dict[FrozenSet[Node], List[FrozenSet[Node]]] = {}
        for clique in cliques:
            for dropped in clique:
                by_face.setdefault(clique - {dropped}, []).append(clique)

        seed = min(cliques, key=lambda c: sorted(map(repr, c)))
        parts: Dict[Node, int] = {}
        for index, node in enumerate(sorted(seed, key=repr)):
            parts[node] = index
        assigned = {seed}
        queue = deque([seed])
        while queue:
            clique = queue.popleft()
            for dropped in clique:
                face = clique - {dropped}
                for other in by_face.get(face, ()):
                    if other in assigned:
                        continue
                    (newcomer,) = other - face
                    if newcomer in parts:
                        if parts[newcomer] != parts[dropped]:
                            raise OracleError(
                                f"clique chain forces two parts on "
                                f"{newcomer!r}; fragment outside the family"
                            )
                    else:
                        parts[newcomer] = parts[dropped]
                    assigned.add(other)
                    queue.append(other)
        missing = component - set(parts)
        if missing:
            raise OracleError(
                f"{len(missing)} component node(s) not reachable by clique "
                f"chains (e.g. {next(iter(missing))!r})"
            )
        return self._normalize(parts)

    def _cliques(self, graph: Graph, allowed: Set[Node]) -> List[FrozenSet[Node]]:
        """All ``num_parts``-cliques inside ``allowed``."""
        size = self.num_parts
        ordered = sorted(allowed, key=repr)
        rank = {node: index for index, node in enumerate(ordered)}
        result: List[FrozenSet[Node]] = []

        def extend(members: List[Node], candidates: List[Node]) -> None:
            if len(members) == size:
                result.append(frozenset(members))
                return
            # Prune: not enough candidates left to finish the clique.
            if len(members) + len(candidates) < size:
                return
            for index, node in enumerate(candidates):
                members.append(node)
                deeper = [
                    other
                    for other in candidates[index + 1:]
                    if graph.has_edge(node, other)
                ]
                extend(members, deeper)
                members.pop()

        for node in ordered:
            higher = sorted(
                (
                    other
                    for other in graph.neighbors(node)
                    if other in allowed and rank.get(other, -1) > rank[node]
                ),
                key=repr,
            )
            extend([node], higher)
        return result


def outcome(oracle, graph, component):
    """The oracle's answer: the partition dict, or the error message."""
    try:
        return oracle.infer(graph, set(component))
    except OracleError as exc:
        return f"OracleError: {exc}"


def assert_agrees(oracle, graph, component, context=""):
    reference = ReferenceCliqueChainOracle(oracle.num_parts, oracle.radius)
    expected = outcome(reference, graph, component)
    got = outcome(oracle, graph, component)
    assert got == expected, f"{context}: incremental {got!r} != reference {expected!r}"
    return got


# ----------------------------------------------------------------------
# Seeded growth
# ----------------------------------------------------------------------

#: name -> (host builder, parts, the family's radius ℓ).  Hierarchy G_k:
#: k parts at radius k, as theorem5-reduction runs it; k-trees: k+1 parts
#: at radius 1.
FAMILIES = {
    "hierarchy-k3": (lambda seed: Hierarchy(3, 6, 6).graph, 3, 3),
    "hierarchy-k4": (lambda seed: Hierarchy(4, 4, 4).graph, 4, 4),
    "2-tree": (lambda seed: random_ktree(2, 40, seed=seed).graph, 3, 1),
    "3-tree": (lambda seed: random_ktree(3, 40, seed=seed).graph, 4, 1),
}

#: Fixed per-family seed offsets (str hash is randomized per process).
SEED_BASE = {"hierarchy-k3": 1_000, "hierarchy-k4": 2_000, "2-tree": 3_000, "3-tree": 4_000}

#: Views per family and reveals per view: 4 x 16 x 30 = 1,920 checks.
VIEWS = 16
STEPS = 30


def grow(view, host, label, center, radius, rng):
    """Add the host ball ``B(center, radius)`` to ``view`` as an induced
    subgraph of everything seen, element by element (sometimes inside a
    small ``batch()``); returns the view label of ``center``."""
    fresh = [node for node in ball(host, center, radius) if label(node) not in view]
    nodes = [label(node) for node in fresh]
    edges = []
    seen = set(fresh)
    for node in fresh:
        for nbr in host.neighbors(node):
            if nbr in seen or label(nbr) in view:
                edges.append((label(node), label(nbr)))

    def add():
        for node in nodes:
            view.add_node(node)
        for u, v in edges:
            view.add_edge(u, v)

    if rng.random() < 0.2:
        with view.batch():
            add()
    else:
        add()
    return label(center)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_growing_view_matches_reference(family):
    build_host, parts, radius = FAMILIES[family]
    answers = errors = 0
    for seed in range(VIEWS):
        rng = random.Random(SEED_BASE[family] + seed)
        host = build_host(seed)
        hosts = list(host.nodes())
        # Odd seeds relabel with opaque integer ids, as adversaries hand
        # out: repr order then has nothing to do with the structure.
        ids = rng.sample(range(10 * len(hosts)), len(hosts)) if seed % 2 else hosts
        label = dict(zip(hosts, ids)).__getitem__
        # Every other pair of views reads no further than the component,
        # which leaves chains broken and exercises the failures.
        oracle = CliqueChainOracle(parts, radius if seed % 4 < 2 else 0)
        view = Graph()
        for step in range(STEPS):
            target = grow(view, host, label, rng.choice(hosts), rng.randrange(0, 3), rng)
            if rng.random() < 0.5:
                component = ball(view, target, len(view))  # the target's view component
            else:
                component = ball(view, target, rng.randrange(0, 3))
            got = assert_agrees(oracle, view, component, f"{family} seed={seed} step={step}")
            if isinstance(got, dict):
                answers += 1
            else:
                errors += 1
    # The differential is not vacuous: both outcomes occur.
    assert answers and errors, (answers, errors)


def test_graphs_outside_the_family_match_reference():
    """Off the family a chain can force two parts on one node, and which
    conflict is reported depends on the order the chains are walked.  The
    incremental oracle walks them in the reference's order (faces in each
    clique's iteration order, cliques on a face by sort key), so even the
    conflict messages agree."""
    conflicts = 0
    for seed in range(60):
        rng = random.Random(5_000 + seed)
        size = 25
        host = Graph(
            range(size),
            [(u, v) for u in range(size) for v in range(u + 1, size) if rng.random() < 0.3],
        )
        oracle = CliqueChainOracle(rng.choice((3, 4)), rng.randrange(0, 3))
        view = Graph()
        for step in range(10):
            target = grow(view, host, lambda node: node, rng.randrange(size), 1, rng)
            component = ball(view, target, rng.randrange(0, 3))
            got = assert_agrees(oracle, view, component, f"seed={seed} step={step}")
            conflicts += "forces two parts" in str(got)
    assert conflicts


# ----------------------------------------------------------------------
# Invalidation: every way the change log stops describing the state
# ----------------------------------------------------------------------

def full_view():
    """A random 2-tree, built in one change."""
    return random_ktree(2, 40, seed=0).graph


def some_components(graph, rng, count=6):
    nodes = list(graph.nodes())
    return [ball(graph, rng.choice(nodes), rng.randrange(0, 3)) for __ in range(count)]


def check_all(oracle, graph, components, context):
    for component in components:
        if all(node in graph for node in component):
            assert_agrees(oracle, graph, component, context)


def test_remove_edge_rebuilds():
    rng = random.Random(11)
    graph = full_view()
    oracle = KTreeOracle(2)
    components = some_components(graph, rng)
    check_all(oracle, graph, components, "before")
    for round_ in range(8):
        u, v = rng.choice(list(graph.edges()))
        graph.remove_edge(u, v)
        check_all(oracle, graph, components, f"after remove_edge {round_}")


def test_remove_node_rebuilds():
    rng = random.Random(12)
    graph = full_view()
    oracle = KTreeOracle(2)
    components = some_components(graph, rng)
    check_all(oracle, graph, components, "before")
    for round_ in range(8):
        graph.remove_node(rng.choice(list(graph.nodes())))
        check_all(oracle, graph, components, f"after remove_node {round_}")


def test_removal_then_regrowth():
    """A removal followed by additions: the log holds both kinds, and the
    additions must not hide the removal."""
    rng = random.Random(13)
    graph = full_view()
    oracle = KTreeOracle(2)
    components = some_components(graph, rng)
    check_all(oracle, graph, components, "before")
    u, v = next(iter(graph.edges()))
    graph.remove_edge(u, v)
    x, y = rng.choice(list(graph.edges()))
    graph.add_edge("late", x)
    graph.add_edge("late", y)
    check_all(oracle, graph, components + [{u, v}, {"late"}], "after remove+add")


def test_one_oracle_alternating_between_two_graphs():
    """Two graphs at the same generation: the second one's log since the
    oracle's generation is empty, yet its cliques are different."""
    rng = random.Random(14)
    first = random_ktree(2, 40, seed=1).graph
    second = random_ktree(2, 40, seed=2).graph
    assert first.generation == second.generation
    oracle = KTreeOracle(2)
    views = [(first, some_components(first, rng)), (second, some_components(second, rng))]
    for round_ in range(4):
        for graph, components in views:
            check_all(oracle, graph, components, f"round {round_}")
        # Grow both while the oracle looks at the other one.
        for graph, components in views:
            u, v = rng.choice(list(graph.edges()))
            label = ("new", round_)
            graph.add_edge(label, u)
            graph.add_edge(label, v)
            components.append({label})


def test_log_overflow_rebuilds():
    """More than LOG_CAPACITY records between two calls: changes_since
    reports the history as unknowable."""
    rng = random.Random(15)
    graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    oracle = KTreeOracle(2)
    assert_agrees(oracle, graph, {0}, "seed triangle")
    records_before = graph.generation
    edges = [(0, 1)]
    label = 3
    while graph.generation - records_before <= LOG_CAPACITY:
        # Attach a new node to a random edge, one record per element.
        u, v = rng.choice(edges)
        graph.add_node(label)
        graph.add_edge(label, u)
        graph.add_edge(label, v)
        edges += [(label, u), (label, v)]
        label += 1
    assert graph.changes_since(records_before) is None
    check_all(oracle, graph, some_components(graph, rng), "after overflow")


def test_synced_oracle_keeps_its_state_across_overflows():
    """A long-lived oracle synced every few hundred records: the log keeps
    a window of at least LOG_CAPACITY // 2 records, so across several
    overflows the oracle never loses the history since its last call,
    never starts over, and still matches the reference."""
    rng = random.Random(18)
    graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    oracle = KTreeOracle(2)
    assert_agrees(oracle, graph, {0}, "seed triangle")
    resets = []
    reset = oracle._reset
    oracle._reset = lambda g: (resets.append(g.generation), reset(g))
    start = synced = graph.generation
    edges = [(0, 1)]
    label = 3
    while graph.generation - start < 4 * LOG_CAPACITY:  # 6 or more overflows
        for __ in range(rng.randint(50, 120)):
            # Attach a new node to a random edge, one record per element.
            u, v = rng.choice(edges)
            graph.add_node(label)
            graph.add_edge(label, u)
            graph.add_edge(label, v)
            edges += [(label, u), (label, v)]
            label += 1
        assert graph.changes_since(synced) is not None
        check_all(
            oracle, graph, [{label - 1}, {u, v}, {rng.randrange(label)}],
            f"generation {graph.generation}",
        )
        synced = graph.generation
    assert resets == []


def test_oversized_batch_rebuilds():
    """A batch() touching more than BATCH_TOUCH_LIMIT nodes writes one
    "bulk" record without a node list."""
    rng = random.Random(16)
    graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    oracle = KTreeOracle(2)
    assert_agrees(oracle, graph, {0}, "seed triangle")
    before = graph.generation
    with graph.batch():
        edges = [(0, 1)]
        for label in range(3, BATCH_TOUCH_LIMIT + 50):
            u, v = rng.choice(edges)
            graph.add_edge(label, u)
            graph.add_edge(label, v)
            edges += [(label, u), (label, v)]
    assert graph.changes_since(before) == [("bulk", ())]
    check_all(oracle, graph, some_components(graph, rng), "after bulk batch")


def test_copy_is_a_different_graph():
    """A copy and its source grown apart to the same generation."""
    rng = random.Random(17)
    graph = full_view()
    oracle = KTreeOracle(2)
    components = some_components(graph, rng)
    check_all(oracle, graph, components, "original")
    clone = graph.copy()
    u, v = next(iter(graph.edges()))
    graph.add_edge("original-only", u)
    graph.add_edge("original-only", v)
    check_all(oracle, graph, components + [{"original-only"}], "original, grown")
    clone.add_edge("clone-only", u)
    clone.add_edge("clone-only", v)
    assert clone.generation == graph.generation
    check_all(oracle, clone, components + [{"clone-only"}], "copy, grown")
    check_all(oracle, graph, components + [{"original-only"}], "original again")
