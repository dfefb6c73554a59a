"""The gadget :math:`A(k)` and hard instance :math:`G^*` of Section 4.

A gadget has node set ``[k] x [k]`` (we use 0-based indices); two nodes are
adjacent iff they differ in *both* coordinates (neither same row nor same
column).  The hard instance :math:`G^*` chains ``n' = n / k^2`` gadgets,
connecting nodes of consecutive gadgets under the same
"different row *and* different column" rule.

Key structural facts implemented and tested here:

* :math:`G^*` is k-partite — rows give a proper k-coloring
  (Proposition 4.1).
* Transposing every gadget — ``(ℓ, i, j) -> (ℓ, j, i)`` — is an
  automorphism, which is the move the Theorem 3 adversary uses to flip a
  fragment from row-colorful to column-colorful.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.graphs.graph import Edge, Graph

GadgetNode = Tuple[int, int]
ChainNode = Tuple[int, int, int]


class Gadget:
    """A standalone gadget :math:`A(k)` with nodes ``(i, j)``, 0-based."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError(f"gadgets need k >= 2, got {k}")
        self.k = k
        cells = [(i, j) for i in range(k) for j in range(k)]
        self.graph = Graph(
            nodes=cells,
            edges=[
                (u, v)
                for u in cells
                for v in cells
                if v[0] != u[0] and v[1] != u[1] and u < v
            ],
        )

    def row(self, i: int) -> List[GadgetNode]:
        """Nodes of row ``i``."""
        return [(i, j) for j in range(self.k)]

    def column(self, j: int) -> List[GadgetNode]:
        """Nodes of column ``j``."""
        return [(i, j) for i in range(self.k)]

    def __repr__(self) -> str:
        return f"Gadget(k={self.k})"


class GadgetChain:
    """The hard instance :math:`G^*`: a chain of gadgets.

    Parameters
    ----------
    k:
        Gadget dimension; the chain is k-partite and the hard coloring
        budget is ``2k - 2`` colors.
    length:
        Number of gadgets ``n'``; total nodes ``n = length * k**2``.
    """

    def __init__(self, k: int, length: int) -> None:
        if k < 2:
            raise ValueError(f"gadget chains need k >= 2, got {k}")
        if length < 1:
            raise ValueError(f"chain length must be positive, got {length}")
        self.k = k
        self.length = length
        self.graph = Graph(
            nodes=[
                (idx, i, j)
                for idx in range(length)
                for i in range(k)
                for j in range(k)
            ],
            edges=self._edges(),
        )

    def _edges(self) -> Iterator[Edge]:
        for idx in range(self.length):
            yield from self._connect(idx, idx)
            if idx + 1 < self.length:
                yield from self._connect(idx, idx + 1)

    def _connect(self, a: int, b: int) -> Iterator[Edge]:
        """Edges between gadgets ``a`` and ``b`` (or within one if a == b)."""
        k = self.k
        for i in range(k):
            for j in range(k):
                for i2 in range(k):
                    for j2 in range(k):
                        if i2 == i or j2 == j:
                            continue
                        u, v = (a, i, j), (b, i2, j2)
                        if a != b or u < v:
                            yield u, v

    @property
    def num_nodes(self) -> int:
        """``n = length * k**2``."""
        return self.length * self.k * self.k

    def gadget_nodes(self, idx: int) -> List[ChainNode]:
        """All nodes of the ``idx``-th gadget."""
        if not 0 <= idx < self.length:
            raise IndexError(f"gadget index {idx} outside chain of length {self.length}")
        return [(idx, i, j) for i in range(self.k) for j in range(self.k)]

    def row(self, idx: int, i: int) -> List[ChainNode]:
        """Row ``i`` of gadget ``idx``."""
        return [(idx, i, j) for j in range(self.k)]

    def column(self, idx: int, j: int) -> List[ChainNode]:
        """Column ``j`` of gadget ``idx``."""
        return [(idx, i, j) for i in range(self.k)]

    def canonical_color(self, node: ChainNode) -> int:
        """The row coloring of Proposition 4.1: color = row index."""
        __, i, __ = node
        return i

    def transpose(self) -> Dict[ChainNode, ChainNode]:
        """The automorphism swapping rows and columns in every gadget.

        Adjacency ``i != i' and j != j'`` is symmetric under swapping the
        coordinate pair, so this is an automorphism of the whole chain —
        and it maps row-colorful colorings to column-colorful ones, which
        is exactly what the Theorem 3 adversary needs.
        """
        return {
            (idx, i, j): (idx, j, i)
            for idx in range(self.length)
            for i in range(self.k)
            for j in range(self.k)
        }

    def __repr__(self) -> str:
        return f"GadgetChain(k={self.k}, length={self.length}, n={self.num_nodes})"
