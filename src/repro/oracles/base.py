"""The oracle interface of Section 5.1.2.

An oracle for :math:`\\mathcal{L}_{k,\\ell}` takes a connected node set
``C`` inside the algorithm's view graph and returns the unique
k-partition of ``C`` (parts ``0 .. k-1``, normalized deterministically;
the *labeling* of parts carries no meaning — types handle that).  The
oracle may inspect the view up to distance ``radius`` (= ℓ) beyond ``C``,
which the model prices at ℓ extra locality.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Set

from repro.graphs.graph import Graph
from repro.robustness.errors import ReproError

Node = Hashable


class OracleError(ReproError):
    """The partition could not be inferred (wrong family, or the
    neighborhood genuinely does not determine it).

    A :class:`~repro.robustness.errors.ReproError`, so the game
    supervisor classifies an oracle failure as structured: the game
    ends in a ``forfeit:harness-error`` row carrying the message, not in
    a traceback."""


class PartitionOracle(ABC):
    """Infers the unique k-partition of connected view fragments."""

    #: Number of parts (the k of the k-partite family).
    num_parts: int
    #: The inference radius ℓ of Definition 1.4.
    radius: int

    @abstractmethod
    def infer(self, graph: Graph, component: Set[Node]) -> Dict[Node, int]:
        """The partition of ``component`` into parts ``0 .. num_parts-1``.

        ``component`` must induce a connected subgraph of ``graph``; the
        oracle may read ``graph`` up to ``radius`` hops beyond it.  The
        returned dict covers at least every node of ``component`` (it may
        include further nodes whose parts were inferred along the way).

        Raises
        ------
        OracleError
            If the inference fails.
        """

    def _normalize(
        self,
        parts: Dict[Node, int],
        node_repr: Callable[[Node], str] = repr,
    ) -> Dict[Node, int]:
        """Relabel parts so the smallest node gets part 0, the next new
        part seen (in node order) gets 1, and so on — a deterministic
        function of the partition itself.

        Nodes are ordered by ``repr``; an oracle that caches its nodes'
        reprs passes its lookup as ``node_repr``."""
        relabel: Dict[int, int] = {}
        for node in sorted(parts, key=node_repr):
            part = parts[node]
            if part not in relabel:
                relabel[part] = len(relabel)
        return {node: relabel[part] for node, part in parts.items()}
