"""The duplicate-node hierarchy :math:`G_k` of Section 5.2.

``G_2`` is a simple grid.  ``G_{m+1}`` augments ``G_m`` by adding, for
every node ``u``, a duplicate ``u*`` adjacent to ``u`` and to all of
``u``'s neighbors *in* ``G_m``.  Layer ``H_2`` is the grid; layer
``H_m`` (m >= 3) is the set of duplicates created at step ``m``.

Node labels: grid nodes are ``(2, (i, j))``; the duplicate of node ``v``
created at step ``m`` is ``(m, v)``.  This makes the ancestor maps of the
paper trivial to implement: :math:`\\pi((m, v)) = v` and
:math:`\\pi_\\diamond` iterates down to layer 2.

Structural facts implemented and tested here (Claims 5.3-5.5,
Observations 5.1-5.2):

* ``G_k`` has ``2**(k-2) * rows * cols`` nodes,
* ``G_k`` is k-partite via the canonical coloring (grid bipartition for
  layer 2, layer number otherwise),
* every node lies in a k-clique together with its base ancestor, and
* every k-clique contains exactly two layer-2 nodes and one node from each
  higher layer.
"""

from __future__ import annotations

from typing import Hashable, List, Set, Tuple

from repro.families.grids import SimpleGrid
from repro.graphs.graph import Graph

HierNode = Tuple[int, Hashable]


class Hierarchy:
    """The graph :math:`G_k` built over a ``rows x cols`` simple grid.

    Parameters
    ----------
    k:
        The partiteness parameter; ``k = 2`` yields the bare grid.
    rows, cols:
        Dimensions of the base grid ``G_2``.
    """

    def __init__(self, k: int, rows: int, cols: int) -> None:
        if k < 2:
            raise ValueError(f"the hierarchy starts at k = 2, got {k}")
        self.k = k
        self.base = SimpleGrid(rows, cols)
        nodes = [(2, node) for node in self.base.graph.nodes()]
        edges = [((2, u), (2, v)) for u, v in self.base.graph.edges()]
        graph = Graph(nodes, edges)
        # Augment layer by layer: a duplicate connects only to neighbors
        # that existed in G_m, so each layer reads them off G_m, built from
        # the edges so far.  neighbors() fixes the edge order, and with it
        # the final graph's iteration order, which game rows depend on.
        for layer in range(3, k + 1):
            for node in graph.nodes():
                dup = (layer, node)
                edges.append((dup, node))
                edges.extend((dup, nbr) for nbr in graph.neighbors(node))
            graph = Graph(nodes, edges)
        self.graph = graph

    # ------------------------------------------------------------------
    # Node structure
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``2**(k-2) * n`` where ``n`` is the base grid size (Obs. 5.1)."""
        return self.graph.num_nodes

    def layer(self, node: HierNode) -> int:
        """The layer number of ``node`` (2 for grid nodes)."""
        return node[0]

    def layer_nodes(self, layer: int) -> List[HierNode]:
        """All nodes of the given layer ``H_layer``."""
        if not 2 <= layer <= self.k:
            raise IndexError(f"layer {layer} outside [2, {self.k}]")
        return [node for node in self.graph.nodes() if node[0] == layer]

    def parent(self, node: HierNode) -> HierNode:
        """The paper's :math:`\\pi`: the node this duplicate was copied from.

        Raises
        ------
        ValueError
            For layer-2 nodes, which have no parent.
        """
        layer, inner = node
        if layer == 2:
            raise ValueError(f"layer-2 node {node!r} has no parent")
        return inner

    def base_ancestor(self, node: HierNode) -> HierNode:
        """The paper's :math:`\\pi_\\diamond`: iterate parent() into layer 2."""
        current = node
        while current[0] != 2:
            current = self.parent(current)
        return current

    def duplicate(self, node: HierNode, layer: int) -> HierNode:
        """The duplicate of ``node`` created at step ``layer``.

        Only valid when ``node`` already existed in ``G_{layer-1}``, i.e.,
        its own layer is below ``layer``.
        """
        if not node[0] < layer <= self.k:
            raise ValueError(
                f"node {node!r} has no duplicate at layer {layer} (k={self.k})"
            )
        return (layer, node)

    def canonical_color(self, node: HierNode) -> int:
        """The k-coloring of Observation 5.2 (colors ``0 .. k-1``).

        Layer-2 nodes use the grid bipartition (colors 0 and 1); a node of
        layer ``m >= 3`` gets color ``m - 1``.
        """
        layer, inner = node
        if layer == 2:
            return self.base.bipartition_color(inner)
        return layer - 1

    # ------------------------------------------------------------------
    # Clique structure (Claims 5.3-5.5)
    # ------------------------------------------------------------------
    def witness_clique(self, node: HierNode) -> Set[HierNode]:
        """A k-clique containing both ``node`` and its base ancestor.

        Implements the recursive construction in the proof of Claim 5.3:
        if ``node`` lives in the top layer, recurse on its parent and add
        ``node``; otherwise recurse on ``node`` one level down and add
        ``node``'s own duplicate at the current level.
        """
        return self._witness_clique(node, self.k)

    def _witness_clique(self, node: HierNode, level: int) -> Set[HierNode]:
        if level == 2:
            # `node` is a grid node here; any incident grid edge is a 2-clique.
            neighbor = min(self.base.graph.neighbors(node[1]))
            return {node, (2, neighbor)}
        if node[0] == level:
            clique = self._witness_clique(self.parent(node), level - 1)
            clique.add(node)
        else:
            clique = self._witness_clique(node, level - 1)
            clique.add((level, node))
        return clique

    def __repr__(self) -> str:
        return (
            f"Hierarchy(k={self.k}, base={self.base.rows}x{self.base.cols}, "
            f"n={self.num_nodes})"
        )
