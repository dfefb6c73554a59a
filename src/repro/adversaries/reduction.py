"""The Lemma 5.7 reduction: lower bounds for the hierarchy :math:`G_k`.

Given a black-box Online-LOCAL algorithm A that (k+2)-colors
:math:`G_{k+1}`, the wrapper :class:`HierarchyReduction` is an algorithm
A' that (k+1)-colors :math:`G_k` with the *same* locality:

* When node ``u`` of G_k is revealed, A' reveals ``u`` in a synthesized
  G_{k+1} instance (every seen node gains a duplicate adjacent to it and
  its seen neighbors) and asks A for its color ``c``.
* If ``c ≤ k+1``, A' outputs ``c``; if ``c = k+2``, A' reveals the
  duplicate ``u*`` to A and outputs the duplicate's color.

Distances in G_{k+1} equal distances in G_k (a duplicate sits at the same
distance as its original), so the synthesized balls are exactly the balls
A would see on the real G_{k+1} — the simulation is faithful, and a
proper run of A yields a proper run of A'.  Chaining the wrapper down to
``k = 2`` (:func:`reduce_to_grid`) turns any (k+1)-colorer of G_k into a
3-colorer of the grid, which the Theorem 1 adversary then defeats — the
executable form of Theorem 5.
"""

from __future__ import annotations

from itertools import islice
from typing import Mapping, Tuple

from repro.models.base import (
    AlgorithmView,
    Color,
    NodeId,
    OnlineAlgorithm,
    ViewTracker,
)

# Synthetic node labels for the simulated G_{k+1} instance.
_BASE = "b"
_DUP = "d"


class HierarchyReduction(OnlineAlgorithm):
    """A' built from a black-box A per the proof of Lemma 5.7."""

    def __init__(self, inner: OnlineAlgorithm) -> None:
        self.inner = inner
        self.name = f"reduced({inner.name})"

    def reset(self, n: int, locality: int, num_colors: int) -> None:
        super().reset(n, locality, num_colors)
        # A colors G_{k+1}: twice the nodes, one more color.
        self._tracker = ViewTracker(
            self.inner,
            n=2 * n,
            locality=locality,
            num_colors=num_colors + 1,
        )
        self._known: set = set()

    def step(self, view: AlgorithmView, target: NodeId) -> Mapping[NodeId, Color]:
        self._sync(view)
        scratch = self.num_colors + 1
        color = self._tracker.reveal((_BASE, target))
        if color == scratch:
            color = self._tracker.reveal((_DUP, target))
            if color == scratch:
                # A colored both u and u* with k+2 — already improper on
                # its side; play a (losing) legal color and move on.
                color = 1
        return {target: color}

    def _sync(self, view: AlgorithmView) -> None:
        """Mirror the G_k view into the synthetic G_{k+1} view.

        For every newly seen node ``u``: add base and duplicate nodes,
        the edge u*-u, and for every seen edge {u, v} the edges
        u-v, u*-v, u-v* (duplicates are pairwise non-adjacent).  The
        view graph only appends nodes, so the newly seen ones are those
        after the first ``len(self._known)``.
        """
        new_nodes = list(islice(view.graph.nodes(), len(self._known), None))
        synthetic_nodes = []
        synthetic_edges = []
        for u in new_nodes:
            synthetic_nodes.append((_BASE, u))
            synthetic_nodes.append((_DUP, u))
            synthetic_edges.append(((_BASE, u), (_DUP, u)))
        self._known.update(new_nodes)
        for u in new_nodes:
            for v in view.graph.neighbors(u):
                if v in self._known:
                    synthetic_edges.append(((_BASE, u), (_BASE, v)))
                    synthetic_edges.append(((_DUP, u), (_BASE, v)))
                    synthetic_edges.append(((_BASE, u), (_DUP, v)))
        self._tracker.extend(synthetic_nodes, synthetic_edges)

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def synthetic_coloring(self) -> Mapping[Tuple[str, NodeId], Color]:
        """A's coloring of the synthesized G_{k+1} instance."""
        return dict(self._tracker.colors)


def reduce_to_grid(algorithm: OnlineAlgorithm, k: int) -> OnlineAlgorithm:
    """Chain HierarchyReduction from G_k down to the grid G_2.

    ``algorithm`` must be a (k+1)-colorer of G_k; the result is a
    3-colorer of the simple grid with the same locality — run the
    Theorem 1 adversary on it to realize Theorem 5.
    """
    if k < 2:
        raise ValueError(f"the hierarchy starts at k = 2, got {k}")
    current = algorithm
    for __ in range(k - 2):
        current = HierarchyReduction(current)
    return current
