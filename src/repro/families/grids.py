"""Grid topologies from Section 2.1 of the paper.

All three families use 0-based ``(row, col)`` node labels (the paper is
1-based; 0-based is the Python convention and makes the modular wraparound
of cylinders and tori natural).

* :class:`SimpleGrid` — rows and columns induce paths.
* :class:`CylindricalGrid` — left/right borders joined; rows induce
  cycles, columns induce paths.
* :class:`ToroidalGrid` — both border pairs joined; rows and columns both
  induce cycles.

Each class exposes the generated :class:`~repro.graphs.graph.Graph`, the
row/column node sequences (as *directed* traversal orders, which is what
the b-value machinery of Section 3 consumes), and the automorphisms the
adversaries exploit (horizontal reflection, translations).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.graphs.graph import Edge, Graph

GridNode = Tuple[int, int]


class _GridBase:
    """Shared helpers for the three grid families."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.graph = Graph(
            nodes=[(i, j) for i in range(rows) for j in range(cols)],
            edges=self._edges(),
        )

    # Subclasses override to define wraparound behavior.
    def _wrap_row(self) -> bool:
        raise NotImplementedError

    def _wrap_col(self) -> bool:
        raise NotImplementedError

    def _edges(self) -> Iterator[Edge]:
        wrap_row = self._wrap_row() and self.cols > 2
        wrap_col = self._wrap_col() and self.rows > 2
        for i in range(self.rows):
            for j in range(self.cols):
                if j + 1 < self.cols:
                    yield (i, j), (i, j + 1)
                elif wrap_row:
                    yield (i, j), (i, 0)
                if i + 1 < self.rows:
                    yield (i, j), (i + 1, j)
                elif wrap_col:
                    yield (i, j), (0, j)

    # ------------------------------------------------------------------
    # Node helpers
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of nodes, the paper's ``n``."""
        return self.rows * self.cols

    def node(self, i: int, j: int) -> GridNode:
        """The node at row ``i``, column ``j`` (bounds-checked)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols} grid")
        return (i, j)

    def row(self, i: int) -> List[GridNode]:
        """The nodes of row ``i`` in increasing column order."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside grid with {self.rows} rows")
        return [(i, j) for j in range(self.cols)]

    def column(self, j: int) -> List[GridNode]:
        """The nodes of column ``j`` in increasing row order."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside grid with {self.cols} columns")
        return [(i, j) for i in range(self.rows)]

    def row_path(self, i: int, j_start: int, j_end: int) -> List[GridNode]:
        """The directed path along row ``i`` from ``j_start`` to ``j_end``.

        ``j_start`` may exceed ``j_end``, in which case the path runs
        leftward.  Endpoints are inclusive.
        """
        step = 1 if j_end >= j_start else -1
        return [(i, j) for j in range(j_start, j_end + step, step)]

    def column_path(self, j: int, i_start: int, i_end: int) -> List[GridNode]:
        """The directed path along column ``j`` between the given rows."""
        step = 1 if i_end >= i_start else -1
        return [(i, j) for i in range(i_start, i_end + step, step)]

    def reflect_horizontal(self) -> Dict[GridNode, GridNode]:
        """The automorphism mirroring columns: ``(i, j) -> (i, cols-1-j)``.

        This is the "reverse the direction of a fragment" move the
        adversary uses in the proofs of Theorems 1 and 2.
        """
        return {
            (i, j): (i, self.cols - 1 - j)
            for i in range(self.rows)
            for j in range(self.cols)
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols})"


class SimpleGrid(_GridBase):
    """The :math:`(a \\times b)` simple grid; bipartite, rows/columns are paths."""

    def _wrap_row(self) -> bool:
        return False

    def _wrap_col(self) -> bool:
        return False

    def bipartition_color(self, node: GridNode) -> int:
        """The canonical 2-coloring: ``(i + j) mod 2`` (colors 0 and 1)."""
        i, j = node
        return (i + j) % 2


class CylindricalGrid(_GridBase):
    """A grid whose left and right borders are joined; rows induce cycles.

    With an odd number of columns the row cycles are odd, so the graph is
    not bipartite — the regime where Theorem 2 applies.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if cols < 3:
            raise ValueError("cylindrical grids need at least 3 columns")
        super().__init__(rows, cols)

    def _wrap_row(self) -> bool:
        return True

    def _wrap_col(self) -> bool:
        return False

    def row_cycle(self, i: int) -> List[GridNode]:
        """Row ``i`` as a directed cycle traversal (first node not repeated)."""
        return self.row(i)


class ToroidalGrid(_GridBase):
    """A grid with both border pairs joined; rows and columns induce cycles."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 3 or cols < 3:
            raise ValueError("toroidal grids need at least 3 rows and 3 columns")
        super().__init__(rows, cols)

    def _wrap_row(self) -> bool:
        return True

    def _wrap_col(self) -> bool:
        return True

    def row_cycle(self, i: int) -> List[GridNode]:
        """Row ``i`` as a directed cycle traversal (first node not repeated)."""
        return self.row(i)

    def column_cycle(self, j: int) -> List[GridNode]:
        """Column ``j`` as a directed cycle traversal."""
        return self.column(j)
