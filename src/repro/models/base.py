"""Shared types for the model simulators.

Colors are 1-based integers (the paper's ``{1, 2, 3}`` with color 3 playing
a special role in the b-value machinery).  Node identifiers in algorithm
views are opaque integers assigned by the adversary/simulator; algorithms
must not read anything into them beyond equality.

The central contract is :class:`OnlineAlgorithm`:

* ``reset(n, locality, num_colors)`` starts a fresh execution; the
  algorithm is told ``n`` (the paper assumes algorithms know ``n``), its
  locality budget, and the color budget.
* ``step(view, target)`` is called when the adversary reveals the node
  with id ``target``.  The view contains the abstract graph :math:`G_i`
  (the induced subgraph of the union of revealed balls), all previously
  committed colors, and the reveal sequence.  The algorithm returns a
  mapping ``id -> color`` that *must* color ``target`` and *may* color any
  other seen, currently uncolored node (the paper's algorithms commit
  whole boundary layers during parity flips).

The :class:`ViewTracker` enforces the rules: colors are final, only seen
nodes may be colored, colors lie in ``1..num_colors``.  The fixed-host
simulator and the adaptive adversarial instances reveal every node
through :func:`reveal_ball`, the one implementation of the view rule, so
every algorithm runs under identical views and legality checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.graphs.graph import Graph
from repro.observability.metrics import BoundCounter
from repro.observability.trace import TRACER
from repro.robustness.errors import (
    InvalidColorError,
    LocalityViolation,
    ProtocolViolation,
    RecoloringError,
)

Color = int
NodeId = int

#: One ``(target id, fresh ids)`` record per reveal, in play order.
RevealLog = List[Tuple[NodeId, FrozenSet[NodeId]]]

_REVEALS = BoundCounter("reveals_total")

#: Raised when an algorithm violates the model contract — coloring an
#: unseen node (exceeding its locality), recoloring a node, using a color
#: outside ``1..num_colors``, or failing to color the revealed node.
#: An alias of :class:`~repro.robustness.errors.ProtocolViolation`, so
#: ``except AlgorithmError`` catches every specific violation subclass
#: (:class:`InvalidColorError`, :class:`LocalityViolation`, ...).
AlgorithmError = ProtocolViolation


@dataclass
class AlgorithmView:
    """What an Online-LOCAL algorithm sees when a node is revealed.

    Attributes
    ----------
    graph:
        The abstract seen region :math:`G_i` — ids and edges only.
        Treat as read-only; it is shared with the simulator.
    colors:
        Colors committed so far, ``id -> color``.  Treat as read-only.
    reveal_sequence:
        Ids in the order the adversary revealed them (prefix of σ).
    n:
        Number of nodes of the host graph.
    locality:
        The locality budget ``T`` the view was generated with.
    """

    graph: Graph
    colors: Dict[NodeId, Color]
    reveal_sequence: List[NodeId]
    n: int
    locality: int

    def uncolored(self) -> List[NodeId]:
        """Seen ids with no committed color."""
        return [node for node in self.graph.nodes() if node not in self.colors]


class OnlineAlgorithm(ABC):
    """A deterministic Online-LOCAL algorithm.

    Subclasses may keep arbitrary global memory between steps — that is
    the defining power of the Online-LOCAL model.
    """

    #: Human-readable name used in benchmark tables.
    name: str = "online-algorithm"

    def reset(self, n: int, locality: int, num_colors: int) -> None:
        """Start a fresh execution.  Subclasses overriding this should call
        ``super().reset(...)``."""
        self.n = n
        self.locality = locality
        self.num_colors = num_colors

    @abstractmethod
    def step(self, view: AlgorithmView, target: NodeId) -> Mapping[NodeId, Color]:
        """Color the revealed node ``target`` (and optionally others)."""


class ViewTracker:
    """Maintains the abstract view and enforces algorithm legality.

    The tracker owns the view graph; simulators feed it ``(new nodes, new
    edges)`` increments as balls are revealed, then call :meth:`reveal` to
    run one algorithm step.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        n: int,
        locality: int,
        num_colors: int,
    ) -> None:
        if locality < 0:
            raise ValueError(f"locality must be non-negative, got {locality}")
        if num_colors < 1:
            raise ValueError(f"need at least one color, got {num_colors}")
        self.algorithm = algorithm
        self.n = n
        self.locality = locality
        self.num_colors = num_colors
        self.view_graph = Graph()
        self.colors: Dict[NodeId, Color] = {}
        self.reveal_sequence: List[NodeId] = []
        #: The assignment returned by the most recent step (adversaries
        #: use it to detect freshly created improper edges cheaply).
        self.last_assignment: Dict[NodeId, Color] = {}
        algorithm.reset(n=n, locality=locality, num_colors=num_colors)

    # ------------------------------------------------------------------
    # Growing the view
    # ------------------------------------------------------------------
    def extend(
        self,
        new_nodes: Iterable[NodeId],
        new_edges: Iterable[Tuple[NodeId, NodeId]],
    ) -> None:
        """Add nodes and edges to the seen region (idempotent).

        The view graph only grows, and only by appending: a node keeps
        its place in ``view_graph.nodes()`` once added.  Algorithms rely
        on this — :class:`~repro.core.akbari.AkbariBipartiteColoring` and
        :class:`~repro.adversaries.reduction.HierarchyReduction` read the
        nodes a step added as the tail after the nodes they already know.
        """
        for node in new_nodes:
            self.view_graph.add_node(node)
        for u, v in new_edges:
            self.view_graph.add_edge(u, v)

    # ------------------------------------------------------------------
    # Stepping the algorithm
    # ------------------------------------------------------------------
    def reveal(self, target: NodeId) -> Color:
        """Run one algorithm step for the revealed id ``target``.

        The seen region must already contain ``target`` (the simulator
        extends the view with the ball before calling this).

        Returns the color assigned to ``target``.
        """
        if target not in self.view_graph:
            raise ValueError(
                f"simulator bug: revealed id {target} not added to view first"
            )
        self.reveal_sequence.append(target)
        view = AlgorithmView(
            graph=self.view_graph,
            colors=self.colors,
            reveal_sequence=self.reveal_sequence,
            n=self.n,
            locality=self.locality,
        )
        raw = self.algorithm.step(view, target)
        if not isinstance(raw, _MappingABC):
            raise ProtocolViolation(
                f"{self.algorithm.name}: step returned "
                f"{type(raw).__name__}, expected a node->color mapping"
            )
        assignment = dict(raw)
        self._apply(assignment, target)
        self.last_assignment = assignment
        return self.colors[target]

    def monochromatic_in_last_step(self) -> bool:
        """Whether the latest assignment created a monochromatic edge."""
        for node, color in self.last_assignment.items():
            for neighbor in self.view_graph.neighbors(node):
                if self.colors.get(neighbor) == color:
                    return True
        return False

    def _apply(self, assignment: Dict[NodeId, Color], target: NodeId) -> None:
        if target not in assignment and target not in self.colors:
            raise ProtocolViolation(
                f"{self.algorithm.name}: revealed node {target} was not colored"
            )
        for node, color in assignment.items():
            if node not in self.view_graph:
                raise LocalityViolation(
                    f"{self.algorithm.name}: colored unseen node {node} "
                    f"(locality violation)"
                )
            if node in self.colors:
                if self.colors[node] != color:
                    raise RecoloringError(
                        f"{self.algorithm.name}: recolored node {node} "
                        f"({self.colors[node]} -> {color})"
                    )
                continue
            if not isinstance(color, int) or not 1 <= color <= self.num_colors:
                raise InvalidColorError(
                    f"{self.algorithm.name}: color {color!r} outside "
                    f"1..{self.num_colors}"
                )
            self.colors[node] = color


def reveal_ball(
    tracker: ViewTracker,
    frame: Dict[Hashable, NodeId],
    fresh: Collection[Hashable],
    neighbors: Callable[[Hashable], Iterable[Hashable]],
    target: Hashable,
    ids: Iterator[NodeId],
    log: Optional[RevealLog],
    **trace: Any,
) -> Color:
    """Reveal ``target``: grow the view by its T-ball, step the algorithm.

    ``frame`` maps every seen node (host, or a fragment's own frame) to
    its view id.  ``fresh`` lists the ball's nodes the frame lacks, in
    the caller's order, which fixes their ids (drawn from ``ids``).  Each
    new edge reaches the view once, from its first fresh endpoint in
    ``fresh`` and ``neighbors`` order.  After the step, ``(target id,
    fresh ids)`` goes to ``log`` (unless None), ``reveals_total`` counts
    one, and a ``"reveal"`` event carries ``trace`` plus ``node``, ``id``,
    ``color`` and ``fresh``.  Returns ``target``'s color.
    """
    fresh_ids = []
    for node in fresh:
        frame[node] = node_id = next(ids)
        fresh_ids.append(node_id)
    edges = []
    scanned = set()
    for node, node_id in zip(fresh, fresh_ids):
        for nbr in neighbors(node):
            nbr_id = frame.get(nbr)
            if nbr_id is not None and nbr_id not in scanned:
                edges.append((node_id, nbr_id))
        scanned.add(node_id)
    tracker.extend(fresh_ids, edges)
    target_id = frame[target]
    color = tracker.reveal(target_id)
    if log is not None:
        log.append((target_id, frozenset(fresh_ids)))
    _REVEALS.inc()
    if TRACER.enabled:
        TRACER.event(
            "reveal", **trace, node=target, id=target_id, color=color,
            fresh=len(fresh_ids),
        )
    return color
