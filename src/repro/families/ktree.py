"""k-trees and their clique trees (paper Section 1).

A k-tree starts from a (k+1)-clique; each subsequent node attaches to an
existing k-clique.  k-trees are (k+1)-partite... more precisely they are
(k+1)-chromatic with a *unique* (k+1)-coloring up to permutation, and the
coloring is locally inferable with radius 1, so k-trees belong to
:math:`\\mathcal{L}_{k+1,1}` in the paper's notation (the paper colors
k-trees with k+2 colors via Theorem 4).

The :class:`KTree` object records the construction sequence, the canonical
coloring (each new node takes the one color absent from its attachment
clique), and the clique tree ``H`` whose nodes are the (k+1)-cliques.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, Hashable, List, Sequence, Tuple

from repro.graphs.graph import Graph

Node = Hashable


class KTree:
    """A k-tree built incrementally from attachment choices.

    Parameters
    ----------
    k:
        The clique parameter; the initial clique has ``k + 1`` nodes
        labeled ``0 .. k``.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.k = k
        initial = list(range(k + 1))
        self.graph = Graph(edges=_clique_edges(initial))
        self._canonical: Dict[Node, int] = {u: u for u in initial}
        # All (k+1)-cliques, in creation order; clique 0 is the root.
        self.cliques: List[FrozenSet[Node]] = [frozenset(initial)]
        self._next_label = k + 1

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def canonical_color(self, node: Node) -> int:
        """The canonical (k+1)-coloring (colors ``0 .. k``).

        The coloring is unique up to permutation because each node's color
        is forced by the k-clique it attached to.
        """
        return self._canonical[node]

    def attach(self, clique: Sequence[Node]) -> Node:
        """Add a new node adjacent to the given k-clique; returns its label.

        Raises
        ------
        ValueError
            If ``clique`` is not a k-clique of the current graph.
        """
        members = list(clique)
        if len(set(members)) != self.k:
            raise ValueError(f"attachment set must have exactly k={self.k} nodes")
        for u in members:
            for v in members:
                if u != v and not self.graph.has_edge(u, v):
                    raise ValueError(f"attachment set is not a clique: {u!r} !~ {v!r}")
        new = self._admit(members)
        with self.graph.batch():
            for u in members:
                self.graph.add_edge(new, u)
        return new

    def _admit(self, members: List[Node]) -> Node:
        """Label, color and record a new node attached to the k-clique
        ``members``, leaving the graph to the caller."""
        new = self._next_label
        self._next_label += 1
        used = {self._canonical[u] for u in members}
        free = [color for color in range(self.k + 1) if color not in used]
        self._canonical[new] = free[0]
        self.cliques.append(frozenset(members) | {new})
        return new

    def clique_tree(self) -> Graph:
        """The tree ``H`` on the (k+1)-cliques (adjacent iff sharing k nodes).

        Returned as a graph over clique indices (positions in
        ``self.cliques``).  For a k-tree built by :meth:`attach` this graph
        is connected; it is a tree whenever each attachment clique is a
        sub-clique of exactly one earlier (k+1)-clique, which holds for the
        generators in this module.
        """
        count = len(self.cliques)
        return Graph(
            nodes=range(count),
            edges=[
                (a, b)
                for a in range(count)
                for b in range(a + 1, count)
                if len(self.cliques[a] & self.cliques[b]) == self.k
            ],
        )


def _clique_edges(members: Sequence[Node]) -> List[Tuple[Node, Node]]:
    """Every edge of the clique on ``members``, in the order a nested
    ``u < v`` loop visits them."""
    return [(u, v) for u in members for v in members if u < v]


def _grow(k: int, num_nodes: int, pick: Callable[[KTree], List[Node]]) -> KTree:
    """A k-tree of ``num_nodes`` nodes whose every new node attaches to the
    k-clique ``pick(tree)`` returns.

    The attachments are chosen and recorded first and the graph is built
    once at the end, so the finished tree sits at generation 1 — the same
    graph :meth:`KTree.attach` would grow, element for element.
    """
    tree = KTree(k)
    if num_nodes < k + 1:
        raise ValueError(f"a k-tree needs at least k+1={k + 1} nodes")
    edges = _clique_edges(range(k + 1))
    while tree._next_label < num_nodes:
        members = pick(tree)
        new = tree._admit(members)
        edges.extend((new, u) for u in members)
    tree.graph = Graph(edges=edges)
    return tree


def deterministic_ktree(k: int, num_nodes: int) -> KTree:
    """A path-like k-tree with ``num_nodes`` nodes (a "k-path").

    Each new node attaches to the k most recently added nodes, producing a
    long, thin k-tree — the worst case for locality experiments because
    its diameter is Θ(n/k).
    """
    def newest(tree: KTree) -> List[Node]:
        latest = tree._next_label - 1
        return list(range(latest, latest - k, -1))

    return _grow(k, num_nodes, newest)


def random_ktree(k: int, num_nodes: int, seed: int = 0) -> KTree:
    """A random k-tree: each node attaches to a k-sub-clique of a random
    existing (k+1)-clique."""
    rng = random.Random(seed)

    def random_face(tree: KTree) -> List[Node]:
        members = sorted(rng.choice(tree.cliques), key=repr)
        drop = rng.randrange(len(members))
        return [u for idx, u in enumerate(members) if idx != drop]

    return _grow(k, num_nodes, random_face)
