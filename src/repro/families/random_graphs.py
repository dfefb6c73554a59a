"""Seeded random instances for tests and benchmarks.

All generators take an explicit ``seed`` and are deterministic given it,
so test failures reproduce exactly.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Sequence

from repro.graphs.graph import Graph

Node = Hashable


def random_tree(num_nodes: int, seed: int = 0) -> Graph:
    """A uniform-ish random tree on nodes ``0 .. num_nodes-1``.

    Built by attaching node ``i`` to a uniformly random earlier node;
    trees are bipartite, making them useful inputs for the Akbari
    3-coloring algorithm tests.
    """
    if num_nodes < 1:
        raise ValueError(f"a tree needs at least one node, got {num_nodes}")
    rng = random.Random(seed)
    return Graph(
        nodes=[0], edges=[(node, rng.randrange(node)) for node in range(1, num_nodes)]
    )


def random_connected_bipartite(
    left: int, right: int, extra_edges: int, seed: int = 0
) -> Graph:
    """A connected bipartite graph with parts ``L0..`` and ``R0..``.

    A random spanning tree alternating between sides guarantees
    connectivity; ``extra_edges`` random cross edges are added on top
    (duplicates are skipped, so the result may have fewer extras).
    """
    if left < 1 or right < 1:
        raise ValueError("both sides must be non-empty")
    rng = random.Random(seed)
    left_nodes = [f"L{i}" for i in range(left)]
    right_nodes = [f"R{i}" for i in range(right)]
    # Spanning structure: connect each right node to a random left node,
    # and each left node (beyond the first) to a random right node.
    edges = [(r_node, rng.choice(left_nodes)) for r_node in right_nodes]
    edges += [(l_node, rng.choice(right_nodes)) for l_node in left_nodes[1:]]
    edges += [
        (rng.choice(left_nodes), rng.choice(right_nodes))
        for __ in range(extra_edges)
    ]
    return Graph(nodes=left_nodes + right_nodes, edges=edges)


def random_reveal_order(nodes: Sequence[Node], seed: int = 0) -> List[Node]:
    """A seeded random permutation of ``nodes`` (adversarial reveal order)."""
    order = list(nodes)
    random.Random(seed).shuffle(order)
    return order


def scattered_reveal_order(nodes: Sequence[Node], seed: int = 0) -> List[Node]:
    """A reveal order designed to maximize group merges.

    Shuffles, then interleaves the first and second halves so that widely
    separated nodes are revealed early and the gaps are filled late — the
    regime where group-merging algorithms pay their worst-case cost.
    """
    order = random_reveal_order(nodes, seed)
    half = len(order) // 2
    first, second = order[:half], order[half:]
    interleaved: List[Node] = []
    for idx in range(len(second)):
        interleaved.append(second[idx])
        if idx < len(first):
            interleaved.append(first[idx])
    return interleaved
