"""The Online-LOCAL simulator over a fixed host graph (Section 2.2).

Nodes are processed in an adversarial sequence σ.  When node ``v_i`` is
revealed, the algorithm must color it based on the prefix
``(v_1 .. v_i)`` and the induced subgraph
:math:`G_i = G[\\bigcup_j \\mathcal{B}(v_j, T)]`.

The simulator anonymizes host nodes: the algorithm sees opaque integer
ids assigned in first-seen order (deterministic), never host labels such
as grid coordinates.  This matters — a 3-coloring algorithm that could
read grid coordinates would trivially evade the paper's adversaries (see
the coordinate-cheat ablation in ``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, Optional

from repro.graphs.graph import Graph
from repro.graphs.traversal import BallCache
from repro.models.base import (
    Color,
    NodeId,
    OnlineAlgorithm,
    ViewTracker,
    reveal_ball,
)
from repro.robustness.errors import RevealOrderError, UnknownHostNodeError

HostNode = Hashable


class OnlineLocalSimulator:
    """Run an Online-LOCAL algorithm against a fixed host graph.

    Parameters
    ----------
    host:
        The true input graph ``G``.
    algorithm:
        The algorithm under test.
    locality:
        The locality budget ``T``.
    num_colors:
        Colors available, ``1 .. num_colors``.
    """

    def __init__(
        self,
        host: Graph,
        algorithm: OnlineAlgorithm,
        locality: int,
        num_colors: int,
        leak_labels: bool = False,
    ) -> None:
        self.host = host
        self.locality = locality
        self.leak_labels = leak_labels
        self._balls = BallCache(host)
        self._id_of: Dict[HostNode, NodeId] = {}
        # The inverse of _id_of, rebuilt on read when the view has grown.
        self._node_of: Dict[NodeId, HostNode] = {}
        self._ids = itertools.count()
        self._seen: set = set()
        self._revealed: set = set()
        self.tracker = ViewTracker(
            algorithm,
            n=host.num_nodes,
            locality=locality,
            num_colors=num_colors,
        )

    # ------------------------------------------------------------------
    # Id management
    # ------------------------------------------------------------------
    def id_of(self, node: HostNode) -> NodeId:
        """The view id of a host node (must already be seen)."""
        return self._id_of[node]

    def host_node(self, node_id: NodeId) -> HostNode:
        """The host node behind a view id."""
        return self._host_nodes()[node_id]

    def _host_nodes(self) -> Dict[NodeId, HostNode]:
        if len(self._node_of) != len(self._id_of):
            self._node_of = {node_id: node for node, node_id in self._id_of.items()}
        return self._node_of

    # ------------------------------------------------------------------
    # The game
    # ------------------------------------------------------------------
    def reveal(self, node: HostNode) -> Color:
        """Reveal a host node; returns the color the algorithm assigns it.

        Revealing extends the seen region by :math:`\\mathcal{B}(v, T)`
        and runs one algorithm step.  Re-revealing an already revealed
        node is an error (σ is a permutation).
        """
        if node not in self.host:
            raise UnknownHostNodeError(
                f"{node!r} is not a node of the host graph"
            )
        # Validate σ *before* any side effects: a double reveal must not
        # leave extended view state behind.
        if node in self._revealed:
            raise RevealOrderError(f"node {node!r} was already revealed")
        new_ball = self._balls.ball(node, self.locality)
        fresh = new_ball - self._seen
        self._seen |= new_ball
        self._revealed.add(node)
        # leak_labels is an out-of-model ablation: every node is its own id
        # (e.g. grid coordinates), which real adversaries would never hand
        # an algorithm.
        ids = iter(fresh) if self.leak_labels else self._ids
        return reveal_ball(
            self.tracker, self._id_of, fresh, self.host.neighbors, node, ids,
            None, model="online-local", seen=len(self._seen),
        )

    def run(self, order: Iterable[HostNode]) -> Dict[HostNode, Color]:
        """Reveal every node in ``order``; returns the full host coloring.

        ``order`` must enumerate every host node exactly once.
        """
        count = 0
        for node in order:
            self.reveal(node)
            count += 1
        if count != self.host.num_nodes:
            raise RevealOrderError(
                f"reveal order covered {count} of {self.host.num_nodes} nodes"
            )
        return self.coloring()

    def coloring(self) -> Dict[HostNode, Color]:
        """The partial coloring translated back to host nodes."""
        node_of = self._host_nodes()
        return {
            node_of[node_id]: color
            for node_id, color in self.tracker.colors.items()
        }

    def color_of(self, node: HostNode) -> Optional[Color]:
        """The committed color of a host node, or None."""
        node_id = self._id_of.get(node)
        if node_id is None:
            return None
        return self.tracker.colors.get(node_id)
