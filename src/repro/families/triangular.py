"""Triangular grids (paper Section 1, Figure 1).

The triangular grid of side length ``d`` has node set
``{(x, y) : 0 <= x + y <= d}`` and edges between ``(x, y)`` and
``(x', y')`` when ``|x-x'| + |y-y'| = 1`` or ``x-x' = y-y' ∈ {-1, 1}``.

Triangular grids are 3-partite, admit a *unique* 3-coloring up to
permutation, and that coloring is locally inferable with radius 1
(Definition 1.4) — the paper's flagship example of
:math:`\\mathcal{L}_{3,1}`.  The canonical tripartition is
``(x + y) mod 3``: every edge changes ``x + y`` by 1 or 2, never by a
multiple of 3.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.graphs.graph import Graph

TriNode = Tuple[int, int]


class TriangularGrid:
    """The triangular grid of side length ``d``.

    Deviation from the paper's literal definition: the two hypotenuse
    corners ``(0, d)`` and ``(d, 0)`` have degree 1 under the paper's
    edge rule (the anti-diagonal is not an edge direction), so they lie
    in no triangle and their color is *not* uniquely inferable — the
    Figure 1 argument implicitly assumes every node lies in a triangle.
    We therefore exclude those two degenerate nodes by default; pass
    ``include_degenerate_corners=True`` to get the literal node set.
    """

    def __init__(self, side: int, include_degenerate_corners: bool = False) -> None:
        if side < 2 and not include_degenerate_corners:
            raise ValueError(
                "side length must be at least 2 (removing the degenerate "
                "corners of a side-1 grid leaves a single node)"
            )
        if side < 1:
            raise ValueError(f"side length must be positive, got {side}")
        self.side = side
        self.include_degenerate_corners = include_degenerate_corners
        nodes = list(self._iter_nodes())
        present = set(nodes)
        self.graph = Graph(
            nodes=nodes,
            # Right, up, and the (+1, +1) diagonal cover every edge once.
            edges=[
                ((x, y), (x + dx, y + dy))
                for x, y in nodes
                for dx, dy in ((1, 0), (0, 1), (1, 1))
                if (x + dx, y + dy) in present
            ],
        )

    def _iter_nodes(self) -> Iterator[TriNode]:
        skipped = (
            set()
            if self.include_degenerate_corners
            else {(0, self.side), (self.side, 0)}
        )
        for x in range(self.side + 1):
            for y in range(self.side + 1 - x):
                if (x, y) not in skipped:
                    yield (x, y)

    @property
    def num_nodes(self) -> int:
        """``(d+1)(d+2)/2`` nodes, minus the two excluded corners."""
        return self.graph.num_nodes

    def canonical_color(self, node: TriNode) -> int:
        """The canonical tripartition ``(x + y) mod 3`` (colors 0, 1, 2)."""
        x, y = node
        return (x + y) % 3

    def triangles(self) -> List[Tuple[TriNode, TriNode, TriNode]]:
        """All unit triangles (3-cliques), each listed once.

        Each lattice cell contributes an "upward" triangle
        ``{(x,y), (x+1,y), (x+1,y+1)}`` and a "downward" triangle
        ``{(x,y), (x,y+1), (x+1,y+1)}`` when all corners exist.
        """
        result: List[Tuple[TriNode, TriNode, TriNode]] = []
        for x, y in self._iter_nodes():
            up = ((x, y), (x + 1, y), (x + 1, y + 1))
            down = ((x, y), (x, y + 1), (x + 1, y + 1))
            for tri in (up, down):
                if all(corner in self.graph for corner in tri):
                    result.append(tri)
        return result

    def __repr__(self) -> str:
        return f"TriangularGrid(side={self.side}, n={self.num_nodes})"
