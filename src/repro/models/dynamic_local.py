"""The (incremental) Dynamic-LOCAL model [AEL+23], see Section 1.

The adversary constructs the graph dynamically: each step *inserts* a new
node together with its edges to existing nodes.  Following each
insertion, an algorithm with locality ``T`` may adjust the solution —
recolor nodes — only within the ``T``-radius neighborhood of the point of
change, and the solution must be valid (a proper coloring of the current
graph) after every step.

This completes the library's coverage of the paper's five-model
landscape: LOCAL, SLOCAL, Dynamic-LOCAL (incremental, here) and
Dynamic-LOCAL± (with deletions, :class:`FullyDynamicLocalSimulator`),
and Online-LOCAL are all executable.  Since Online-LOCAL is the
strongest model, the paper's Ω-lower bounds transfer to Dynamic-LOCAL;
the demonstration here is the upper-bound side — dynamic algorithms
whose adjustment radius is tracked and enforced.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Optional, Set

from repro.graphs.graph import Graph
from repro.graphs.traversal import ball

Node = Hashable
Color = int


class DynamicViolation(Exception):
    """The algorithm recolored outside the allowed radius, produced an
    improper intermediate coloring, or exceeded its color budget."""


@dataclass
class DynamicView:
    """What the algorithm sees after an insertion: the T-ball around the
    new node in the *current* graph, with the current colors inside."""

    graph: Graph
    new_node: Node
    colors: Dict[Node, Color]
    locality: int


class DynamicAlgorithm(ABC):
    """A deterministic incremental Dynamic-LOCAL algorithm."""

    name: str = "dynamic-algorithm"

    def reset(self, locality: int, num_colors: int) -> None:
        self.locality = locality
        self.num_colors = num_colors

    @abstractmethod
    def update(self, view: DynamicView) -> Mapping[Node, Color]:
        """Colors to (re)assign within the ball; must cover the new node."""


class DynamicLocalSimulator:
    """Drives a dynamic algorithm through a sequence of node insertions.

    Enforces the model: every recolored node lies within
    :math:`\\mathcal{B}(v, T)` of the inserted node ``v``, colors stay in
    budget, and the coloring is proper after every step (violations raise
    :class:`DynamicViolation` — in lower-bound experiments a violation is
    the adversary's win).
    """

    def __init__(
        self,
        algorithm: DynamicAlgorithm,
        locality: int,
        num_colors: int,
    ) -> None:
        if locality < 0:
            raise ValueError(f"locality must be non-negative, got {locality}")
        self.algorithm = algorithm
        self.locality = locality
        self.num_colors = num_colors
        # The graph changes on every insert, so each insertion's one
        # ball is computed fresh rather than through a BallCache: a
        # cache would rebind to a new structure's pooled table every
        # step, never hit, and fill the process-wide pool.
        self.graph = Graph()
        self.colors: Dict[Node, Color] = {}
        self.recolor_counts: Dict[Node, int] = {}
        algorithm.reset(locality=locality, num_colors=num_colors)

    def insert(self, node: Node, neighbors: Iterable[Node] = ()) -> Color:
        """Insert ``node`` adjacent to existing ``neighbors``; run one
        update; enforce the model; return the new node's color."""
        if node in self.graph:
            raise ValueError(f"node {node!r} already inserted")
        neighbors = list(neighbors)
        for nbr in neighbors:
            if nbr not in self.graph:
                raise ValueError(f"neighbor {nbr!r} not in the graph yet")
        with self.graph.batch():  # one generation bump per insertion
            self.graph.add_node(node)
            for nbr in neighbors:
                self.graph.add_edge(node, nbr)

        allowed = frozenset(ball(self.graph, node, self.locality))
        view = DynamicView(
            graph=self.graph.induced_subgraph(allowed),
            new_node=node,
            colors={u: self.colors[u] for u in allowed if u in self.colors},
            locality=self.locality,
        )
        assignment = dict(self.algorithm.update(view))
        if node not in assignment:
            raise DynamicViolation(
                f"{self.algorithm.name}: inserted node {node!r} not colored"
            )
        for target, color in assignment.items():
            if target not in allowed:
                raise DynamicViolation(
                    f"{self.algorithm.name}: recolored {target!r} outside "
                    f"the {self.locality}-ball of the insertion point"
                )
            if not 1 <= color <= self.num_colors:
                raise DynamicViolation(
                    f"{self.algorithm.name}: color {color} outside "
                    f"1..{self.num_colors}"
                )
            if target in self.colors and self.colors[target] != color:
                self.recolor_counts[target] = (
                    self.recolor_counts.get(target, 0) + 1
                )
            self.colors[target] = color
        self._check_proper(assignment)
        return self.colors[node]

    def _check_proper(self, changed: Optional[Mapping[Node, Color]] = None) -> None:
        """Properness check; colors only change around the modification
        point, so checking edges incident to ``changed`` suffices (a full
        scan is done when ``changed`` is None)."""
        if changed is None:
            candidates = self.graph.nodes()
        else:
            candidates = changed
        for u in candidates:
            if u not in self.graph:
                continue
            color_u = self.colors.get(u)
            if color_u is None:
                continue
            for v in self.graph.neighbors(u):
                if self.colors.get(v) == color_u:
                    raise DynamicViolation(
                        f"improper intermediate coloring: {u!r} ~ {v!r} "
                        f"share color {color_u}"
                    )

    def total_recolorings(self) -> int:
        """How many color *changes* (not initial assignments) occurred."""
        return sum(self.recolor_counts.values())


class FullyDynamicLocalSimulator(DynamicLocalSimulator):
    """The Dynamic-LOCAL± variant [AEL+23]: deletions are allowed too.

    Deleting a node is a modification whose point of change is the set of
    its former neighbors; the algorithm may adjust labels within the
    T-ball of that set.  For coloring problems a deletion never breaks
    properness, so the default repair hook does nothing — but the hook is
    part of the model, and algorithms for other labeling problems (e.g.
    maximal matching, dominating set) would need it.
    """

    def delete(self, node: Node) -> None:
        """Remove ``node``; run the algorithm's repair hook around the
        former neighborhood; enforce the model."""
        if node not in self.graph:
            raise ValueError(f"node {node!r} not in the graph")
        former_neighbors = set(self.graph.neighbors(node))
        self.graph.remove_node(node)
        self.colors.pop(node, None)
        self.recolor_counts.pop(node, None)
        if not former_neighbors:
            return
        allowed = ball(self.graph, former_neighbors, self.locality)
        repair = getattr(self.algorithm, "repair_after_deletion", None)
        if repair is None:
            self._check_proper()
            return
        view = DynamicView(
            graph=self.graph.induced_subgraph(allowed),
            new_node=min(former_neighbors, key=repr),
            colors={u: self.colors[u] for u in allowed if u in self.colors},
            locality=self.locality,
        )
        assignment = dict(repair(view, frozenset(former_neighbors)))
        for target, color in assignment.items():
            if target not in allowed:
                raise DynamicViolation(
                    f"{self.algorithm.name}: repaired {target!r} outside the "
                    f"deletion's {self.locality}-ball"
                )
            if not 1 <= color <= self.num_colors:
                raise DynamicViolation(
                    f"{self.algorithm.name}: color {color} outside "
                    f"1..{self.num_colors}"
                )
            if target in self.colors and self.colors[target] != color:
                self.recolor_counts[target] = (
                    self.recolor_counts.get(target, 0) + 1
                )
            self.colors[target] = color
        self._check_proper(assignment)


class DynamicGreedy(DynamicAlgorithm):
    """Locality-0 greedy: color the new node, never recolor.

    Proper whenever ``num_colors > max degree`` — the dynamic analogue of
    the SLOCAL greedy example, and a baseline showing (Δ+1)-coloring is
    trivial in every model of the sandwich.
    """

    name = "dynamic-greedy"

    def update(self, view: DynamicView) -> Mapping[Node, Color]:
        used = {
            view.colors.get(v)
            for v in view.graph.neighbors(view.new_node)
        }
        for color in range(1, self.num_colors + 1):
            if color not in used:
                return {view.new_node: color}
        raise DynamicViolation("dynamic-greedy needs degree+1 colors")


class DynamicBipartiteRecolor(DynamicAlgorithm):
    """Best-effort dynamic 3-coloring of incrementally built bipartite
    graphs: 2-color via the parity visible in the ball, recoloring the
    smaller conflicting side within the ball when parities clash.

    With locality ``T`` this survives insertion sequences whose
    components stay within diameter ~T of each merge point, and fails on
    adversarial sequences — as it must: Theorem 1's Ω(log n) transfers to
    Dynamic-LOCAL through the model sandwich, and
    ``tests/models/test_dynamic_local.py`` exhibits a failing sequence.
    """

    name = "dynamic-bipartite-recolor"

    def update(self, view: DynamicView) -> Mapping[Node, Color]:
        from repro.graphs.traversal import bfs_distances

        node = view.new_node
        neighbor_colors = {
            view.colors[v]
            for v in view.graph.neighbors(node)
            if v in view.colors
        }
        available = [c for c in (1, 2) if c not in neighbor_colors]
        if available:
            return {node: available[0]}
        # Both 1 and 2 blocked: fragments with clashing parities meet
        # here.  Flip 1 <-> 2 on every component holding a 1-colored
        # neighbor, provided all of them are strictly inside the ball
        # (a component touching the ball boundary may continue outside,
        # where we are not allowed to recolor).  Otherwise fall back to
        # color 3 for the new node — and if 3 is blocked too, the
        # algorithm has genuinely lost (the simulator will flag it).
        distances = bfs_distances(view.graph, node)
        flip: Set[Node] = set()
        safe = True
        for v in sorted(view.graph.neighbors(node), key=repr):
            if view.colors.get(v) != 1 or v in flip:
                continue
            component = self._colored_component(view, v, exclude=node)
            if any(
                distances.get(u, view.locality + 1) >= view.locality
                for u in component
            ):
                safe = False
                break
            flip |= component
        if safe and flip:
            assignment = {
                u: (2 if view.colors[u] == 1 else 1)
                for u in flip
                if view.colors.get(u) in (1, 2)
            }
            assignment[node] = 1
            return assignment
        return {node: 3}

    @staticmethod
    def _colored_component(
        view: DynamicView, start: Node, exclude: Node
    ) -> Set[Node]:
        """The colored connected component of ``start`` inside the ball,
        not passing through ``exclude``."""
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for nbr in view.graph.neighbors(current):
                if nbr == exclude or nbr in seen:
                    continue
                if nbr in view.colors:
                    seen.add(nbr)
                    stack.append(nbr)
        return seen
