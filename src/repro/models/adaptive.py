"""Adaptive Online-LOCAL instances: the host graph is committed lazily.

The lower-bound proofs exploit the defining power of the Online-LOCAL
adversary: while two discovered regions are disconnected *from the
viewpoint of the algorithm*, the adversary may still decide how they fit
together in the final input graph — their relative distances, directions,
and labelings (Section 3.2: "the adversary has the flexibility to adjust
the directions of these components and the distances between these
components").

Two mechanisms cover everything the paper's adversaries need:

* :class:`FloatingGridInstance` — fragments of an (effectively unbounded)
  simple grid, each with its own local coordinate frame.  The adversary
  reveals nodes inside fragments, then *merges* fragments by committing a
  relative translation and optional horizontal reflection.  Used by the
  Lemma 3.6 path builder and the Theorem 1 adversary, where the gap
  length ℓ ∈ {2, 3} between discovered regions is chosen after the
  colors are seen.

* :class:`LateAutomorphismInstance` — a fixed host graph with declared
  *fragment regions*; each region comes with a set of full-host
  automorphisms that fix it setwise.  While reveals stay inside a region,
  all candidate automorphisms generate literally identical views, so the
  adversary may pick one after seeing the colors.  Used by the Theorem 2
  (reflect one row band of a torus/cylinder) and Theorem 3 (transpose the
  suffix gadget fragment) adversaries.

Both classes reveal through :func:`~repro.models.base.reveal_ball`, the
one implementation of the view rule, and differ only in the frame a
reveal is resolved in and in how a fragment's frame is fixed at commit:
by a translation and reflection, or by a named automorphism.  Both log
every reveal, and their :meth:`audit` hands the log to
:func:`audit_reveals`, which replays the whole game against the
committed host graph and verifies that every view shown to the
algorithm was exactly the induced subgraph :math:`G_i` required by the
model — adversary wins are machine-checked, never asserted.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import AbstractSet, Callable, Dict, Hashable, Optional, Set, Tuple

from repro.families.grids import SimpleGrid
from repro.graphs.graph import Graph
from repro.graphs.traversal import BallCache
from repro.models.base import (
    Color,
    NodeId,
    OnlineAlgorithm,
    RevealLog,
    ViewTracker,
    reveal_ball,
)
from repro.observability.trace import TRACER

Coord = Tuple[int, int]
HostNode = Hashable


class ConsistencyError(Exception):
    """Raised when an adversary move would falsify an earlier view."""


@lru_cache(maxsize=None)
def _diamond_offsets(radius: int) -> Tuple[Coord, ...]:
    """All L1 offsets of norm ≤ ``radius`` (translation-invariant, so
    memoized once per radius instead of rebuilt per reveal)."""
    return tuple(
        (dx, dy)
        for dx in range(-radius, radius + 1)
        for dy in range(-(radius - abs(dx)), radius - abs(dx) + 1)
    )


def _plane_ball(center: Coord, radius: int) -> Set[Coord]:
    """The L1 ball (diamond) around ``center`` in the infinite grid Z^2."""
    x0, y0 = center
    return {(x0 + dx, y0 + dy) for dx, dy in _diamond_offsets(radius)}


def _plane_neighbors(coord: Coord) -> Tuple[Coord, ...]:
    """The four grid neighbours of ``coord`` in Z^2."""
    x, y = coord
    return ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))


def audit_reveals(
    log: RevealLog,
    id_of: Dict[HostNode, NodeId],
    node_of: Dict[NodeId, HostNode],
    ball: Callable[[HostNode], AbstractSet[HostNode]],
    view: Graph,
    host: Graph,
) -> None:
    """Replay a reveal log against the committed host graph.

    ``id_of`` and ``node_of`` map host nodes to view ids and back;
    ``ball(node)`` is a host node's T-ball.  Raises
    :class:`ConsistencyError` unless every reveal, in play order, added
    exactly the ids of its ball's unseen host nodes, and ``view`` is the
    host-induced subgraph :math:`G[seen]` with every host node ``u``
    renamed to ``id_of[u]`` — ``host.induced_subgraph(seen).relabel(id_of)
    == view``, decided on the adjacency maps without building either graph.
    """
    seen: Set[HostNode] = set()
    for target_id, fresh_ids in log:
        node = node_of.get(target_id)
        if node is None:
            raise ConsistencyError(
                f"revealed id {target_id} has no committed host position"
            )
        region = ball(node)
        recomputed = frozenset(id_of[u] for u in region if u not in seen)
        if recomputed != fresh_ids:
            raise ConsistencyError(
                f"view growth at {node!r} was {sorted(fresh_ids)} but host "
                f"replay gives {sorted(recomputed)}"
            )
        seen |= region
    host_adj = host.adjacency()
    expected = {
        id_of[u]: {id_of[v] for v in host_adj[u] if v in seen} for u in seen
    }
    if expected != view.adjacency():
        raise ConsistencyError("final view differs from host-induced subgraph")


class FloatingGridInstance:
    """A simple-grid instance whose geometry is committed lazily.

    Parameters
    ----------
    algorithm:
        The Online-LOCAL algorithm under attack.
    locality:
        The algorithm's locality budget ``T``.
    num_colors:
        Color budget (3 for the paper's grid adversaries).
    declared_n:
        The value of ``n`` told to the algorithm.  The adversaries
        declare the paper's :math:`\\sqrt{n} \\times \\sqrt{n}` grid but
        only materialize the bounding box actually touched, which is
        sound because every revealed node stays ≥ T away from the
        materialized boundary.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        locality: int,
        num_colors: int,
        declared_n: int,
    ) -> None:
        self.locality = locality
        self.tracker = ViewTracker(
            algorithm, n=declared_n, locality=locality, num_colors=num_colors
        )
        #: Live fragment handle -> its frame: local coordinate -> view id.
        self._fragments: Dict[int, Dict[Coord, NodeId]] = {}
        self._next_fragment = 0
        self._ids = itertools.count()
        self._log: RevealLog = []
        # Populated by commit():
        self.host: Optional[SimpleGrid] = None
        self._host_id_of: Dict[Coord, NodeId] = {}
        self._host_node_of_id: Dict[NodeId, Coord] = {}

    # ------------------------------------------------------------------
    # Fragment phase
    # ------------------------------------------------------------------
    def new_fragment(self) -> int:
        """Declare a fresh fragment; returns its handle."""
        if self.host is not None:
            raise ConsistencyError("cannot create fragments after commit")
        handle = self._next_fragment
        self._next_fragment += 1
        self._fragments[handle] = {}
        return handle

    def _frame(self, fragment: int) -> Dict[Coord, NodeId]:
        frame = self._fragments.get(fragment)
        if frame is None:
            raise ConsistencyError(
                f"fragment {fragment} is not live (merged away or never created)"
            )
        return frame

    def reveal(self, fragment: int, coord: Coord) -> Color:
        """Reveal the node at ``coord`` in the fragment's local frame.

        Extends the fragment's seen region by the T-ball (a full diamond
        — fragments are implicitly far from every grid border until
        commit) and runs one algorithm step.
        """
        if self.host is not None:
            raise ConsistencyError("use reveal_committed after commit")
        frame = self._frame(fragment)
        fresh = sorted(c for c in _plane_ball(coord, self.locality) if c not in frame)
        return reveal_ball(
            self.tracker, frame, fresh, _plane_neighbors, coord, self._ids,
            self._log, model="floating-grid", fragment=fragment,
        )

    def fragment_color(self, fragment: int, coord: Coord) -> Optional[Color]:
        """The committed color at a fragment-frame coordinate, or None."""
        node_id = self._frame(fragment).get(coord)
        if node_id is None:
            return None
        return self.tracker.colors.get(node_id)

    def fragment_row_extent(self, fragment: int, y: int = 0) -> Tuple[int, int]:
        """The (min x, max x) of the fragment's seen nodes on row ``y``."""
        xs = [x for (x, yy) in self._frame(fragment) if yy == y]
        if not xs:
            raise ValueError(f"fragment {fragment} has no seen nodes on row {y}")
        return min(xs), max(xs)

    def merge(
        self,
        frag_a: int,
        frag_b: int,
        dx: int,
        dy: int,
        reflect: bool = False,
    ) -> None:
        """Fold fragment ``frag_b`` into ``frag_a``'s frame.

        A node at ``(x, y)`` in b's frame lands at ``(dx - x, dy + y)``
        when ``reflect`` else ``(dx + x, dy + y)``.  The two seen regions
        must end up at L1 distance ≥ 2 (disjoint and non-adjacent) —
        otherwise earlier views, which showed the fragments as
        disconnected, would be falsified.

        Raises
        ------
        ConsistencyError
            If the placement would overlap or touch the regions, or a
            handle is not live.
        """
        if self.host is not None:
            raise ConsistencyError("cannot merge after commit")
        if frag_a == frag_b:
            raise ValueError("cannot merge a fragment with itself")
        a = self._frame(frag_a)
        b = self._frame(frag_b)
        moved = {
            ((dx - x) if reflect else (dx + x), dy + y): node_id
            for (x, y), node_id in b.items()
        }
        for coord in moved:
            for ox, oy in _diamond_offsets(1):
                existing = (coord[0] + ox, coord[1] + oy)
                if existing in a:
                    raise ConsistencyError(
                        f"merge places b-node at {coord} within distance 1 of "
                        f"a-node at {existing}; earlier views showed them "
                        f"disconnected"
                    )
        a.update(moved)
        del self._fragments[frag_b]
        if TRACER.enabled:
            TRACER.event(
                "fragment-merge",
                into=frag_a,
                merged=frag_b,
                dx=dx,
                dy=dy,
                reflect=reflect,
            )

    # ------------------------------------------------------------------
    # Commit phase
    # ------------------------------------------------------------------
    def commit(self, reference: Optional[int] = None) -> SimpleGrid:
        """Fix the host grid: bounding box of all seen nodes plus a T margin.

        Remaining fragments are stacked vertically with gaps of
        ``2T + 2`` so no earlier view is falsified.  After commit, use
        :meth:`reveal_committed` with ``(x, y)`` coordinates in the
        *reference* fragment's frame (default: the lowest live handle).
        """
        if self.host is not None:
            raise ConsistencyError("already committed")
        # Stack fragments: the reference fragment keeps its frame;
        # others are translated below it.  A fragment with no revealed
        # node constrains nothing and takes no place in the stack.
        handles = sorted(self._fragments)
        if reference is not None:
            if reference not in self._fragments:
                raise ConsistencyError(
                    f"reference fragment {reference} is not alive"
                )
            handles.remove(reference)
            handles.insert(0, reference)
        frames = [self._fragments[h] for h in handles if self._fragments[h]]
        if not frames:
            raise ConsistencyError("nothing revealed; nothing to commit")
        global_seen: Dict[Coord, NodeId] = {}
        floor = None
        for frame in frames:
            shift = 0
            if floor is not None:
                shift = floor - max(y for _, y in frame) - (2 * self.locality + 2)
            for (x, y), node_id in frame.items():
                global_seen[(x, y + shift)] = node_id
            floor = min(y for _, y in frame) + shift

        xs = [c[0] for c in global_seen]
        ys = [c[1] for c in global_seen]
        margin = self.locality
        min_x, max_x = min(xs) - margin, max(xs) + margin
        min_y, max_y = min(ys) - margin, max(ys) + margin
        rows = max_y - min_y + 1
        cols = max_x - min_x + 1
        self.host = SimpleGrid(rows, cols)
        # The host is fixed from here on: every post-commit reveal and the
        # final audit query balls on it, so they share one cache.
        self._balls = BallCache(self.host.graph)
        self._origin = (min_x, min_y)
        for (x, y), node_id in global_seen.items():
            host_coord = (y - min_y, x - min_x)
            self._host_id_of[host_coord] = node_id
            self._host_node_of_id[node_id] = host_coord
        self._fragments.clear()
        return self.host

    def to_host(self, coord: Coord) -> Coord:
        """The host ``(row, col)`` of a reference-frame ``(x, y)``."""
        if self.host is None:
            raise ConsistencyError("commit() first")
        min_x, min_y = self._origin
        return (coord[1] - min_y, coord[0] - min_x)

    def reveal_committed(self, coord: Coord) -> Color:
        """Reveal a node after commit, by reference-frame coordinates."""
        host_coord = self.to_host(coord)
        id_of = self._host_id_of
        fresh = sorted(
            c for c in self._balls.ball(host_coord, self.locality) if c not in id_of
        )
        color = reveal_ball(
            self.tracker, id_of, fresh, self.host.graph.neighbors, host_coord,
            self._ids, self._log, model="floating-grid", phase="committed",
        )
        for c in fresh:
            self._host_node_of_id[id_of[c]] = c
        return color

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def coloring(self) -> Dict[Coord, Color]:
        """Committed colors keyed by host ``(row, col)`` coordinates."""
        if self.host is None:
            raise ConsistencyError("commit() before reading the host coloring")
        return {
            self._host_node_of_id[node_id]: color
            for node_id, color in self.tracker.colors.items()
        }

    def color_at(self, fragment_coord: Coord) -> Optional[Color]:
        """Color of a node given in reference-frame coordinates."""
        if self.host is None:
            raise ConsistencyError("commit() before reading colors by frame")
        node_id = self._host_id_of.get(self.to_host(fragment_coord))
        if node_id is None:
            return None
        return self.tracker.colors.get(node_id)

    def audit(self) -> None:
        """Replay the whole game against the committed host grid
        (:func:`audit_reveals`); raises :class:`ConsistencyError` on any
        mismatch."""
        if self.host is None:
            raise ConsistencyError("commit() before audit")
        audit_reveals(
            self._log, self._host_id_of, self._host_node_of_id,
            lambda node: self._balls.ball(node, self.locality),
            self.tracker.view_graph, self.host.graph,
        )


class LateAutomorphismInstance:
    """A fixed host whose fragment labelings are committed lazily.

    The adversary declares *fragment regions* up front, each with a named
    set of full-host automorphisms fixing the region setwise.  While all
    reveals keep their balls inside a region, the views generated under
    any candidate automorphism are identical, so the adversary may pick
    the automorphism after seeing the algorithm's colors.  Once every
    fragment is committed the rest of the graph can be revealed freely.
    """

    def __init__(
        self,
        host: Graph,
        algorithm: OnlineAlgorithm,
        locality: int,
        num_colors: int,
        declared_n: Optional[int] = None,
    ) -> None:
        self.host = host
        self.locality = locality
        self._balls = BallCache(host)
        self.tracker = ViewTracker(
            algorithm,
            n=declared_n if declared_n is not None else host.num_nodes,
            locality=locality,
            num_colors=num_colors,
        )
        self._regions: Dict[int, Set[HostNode]] = {}
        self._autos: Dict[int, Dict[str, Dict[HostNode, HostNode]]] = {}
        self._committed: Dict[int, str] = {}
        self._next_fragment = 0
        #: Fragment handle -> its frame: *pre-image* host label -> view id.
        self._frames: Dict[int, Dict[HostNode, NodeId]] = {}
        # After commits, ids map to true host nodes.
        self._id_of_host: Dict[HostNode, NodeId] = {}
        self._host_of_id: Dict[NodeId, HostNode] = {}
        self._ids = itertools.count()
        self._log: RevealLog = []

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def add_fragment(
        self,
        region: Set[HostNode],
        automorphisms: Dict[str, Dict[HostNode, HostNode]],
    ) -> int:
        """Declare a fragment region with candidate automorphisms.

        Every automorphism must be a full-host automorphism fixing the
        region setwise; ``"identity"`` is always available implicitly.
        Regions must be pairwise disjoint and non-adjacent.
        """
        region = set(region)
        for node in region:
            if node not in self.host:
                raise ValueError(f"region node {node!r} not in host")
        for other in self._regions.values():
            if region & other:
                raise ValueError("fragment regions must be disjoint")
            for u in region:
                for v in self.host.neighbors(u):
                    if v in other:
                        raise ValueError("fragment regions must be non-adjacent")
        for name, mapping in automorphisms.items():
            self._check_automorphism(mapping, region, name)
        handle = self._next_fragment
        self._next_fragment += 1
        self._regions[handle] = region
        autos = dict(automorphisms)
        autos.setdefault("identity", {node: node for node in self.host.nodes()})
        self._autos[handle] = autos
        self._frames[handle] = {}
        return handle

    def _check_automorphism(
        self,
        mapping: Dict[HostNode, HostNode],
        region: Set[HostNode],
        name: str,
    ) -> None:
        if set(mapping) != set(self.host.nodes()):
            raise ValueError(f"automorphism {name!r} must cover every host node")
        if set(mapping.values()) != set(self.host.nodes()):
            raise ValueError(f"automorphism {name!r} is not a bijection")
        if {mapping[node] for node in region} != region:
            raise ValueError(f"automorphism {name!r} does not fix the region setwise")
        for u, v in self.host.edges():
            if not self.host.has_edge(mapping[u], mapping[v]):
                raise ValueError(f"automorphism {name!r} does not preserve edges")

    def _all_committed(self) -> bool:
        return len(self._committed) == len(self._regions)

    # ------------------------------------------------------------------
    # Fragment phase
    # ------------------------------------------------------------------
    def reveal_in_fragment(self, fragment: int, node: HostNode) -> Color:
        """Reveal a node whose T-ball lies inside the fragment's region."""
        if fragment in self._committed:
            raise ConsistencyError(f"fragment {fragment} already committed")
        region = self._regions[fragment]
        ball_nodes = self._balls.ball(node, self.locality)
        if not ball_nodes <= region:
            outside = next(iter(ball_nodes - region))
            raise ConsistencyError(
                f"ball of {node!r} leaves the fragment region at {outside!r}"
            )
        frame = self._frames[fragment]
        fresh = sorted((u for u in ball_nodes if u not in frame), key=repr)
        return reveal_ball(
            self.tracker, frame, fresh, self.host.neighbors, node, self._ids,
            self._log, model="late-automorphism", fragment=fragment,
        )

    def fragment_color(self, fragment: int, pre_node: HostNode) -> Optional[Color]:
        """The committed color of a pre-image node of an uncommitted
        fragment (the adversary inspects colors before choosing the
        automorphism)."""
        node_id = self._frames[fragment].get(pre_node)
        if node_id is None:
            return None
        return self.tracker.colors.get(node_id)

    def commit_fragment(self, fragment: int, automorphism: str) -> None:
        """Fix a fragment's labeling to the named automorphism."""
        if fragment in self._committed:
            raise ConsistencyError(f"fragment {fragment} already committed")
        mapping = self._autos[fragment][automorphism]
        self._committed[fragment] = automorphism
        if TRACER.enabled:
            TRACER.event(
                "fragment-commit", fragment=fragment, automorphism=automorphism
            )
        for pre_node, node_id in self._frames[fragment].items():
            true_node = mapping[pre_node]
            self._id_of_host[true_node] = node_id
            self._host_of_id[node_id] = true_node

    # ------------------------------------------------------------------
    # Free phase
    # ------------------------------------------------------------------
    def reveal(self, node: HostNode) -> Color:
        """Reveal any host node; all fragments must be committed first."""
        if not self._all_committed():
            raise ConsistencyError("commit every fragment before free reveals")
        id_of = self._id_of_host
        fresh = sorted(
            (u for u in self._balls.ball(node, self.locality) if u not in id_of),
            key=repr,
        )
        color = reveal_ball(
            self.tracker, id_of, fresh, self.host.neighbors, node, self._ids,
            self._log, model="late-automorphism", phase="free",
        )
        for u in fresh:
            self._host_of_id[id_of[u]] = u
        return color

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def color_of(self, node: HostNode) -> Optional[Color]:
        """The committed color of a true host node, or None."""
        node_id = self._id_of_host.get(node)
        if node_id is None:
            return None
        return self.tracker.colors.get(node_id)

    def coloring(self) -> Dict[HostNode, Color]:
        """Committed colors keyed by true host nodes."""
        if not self._all_committed():
            raise ConsistencyError("commit every fragment before reading colors")
        return {
            self._host_of_id[node_id]: color
            for node_id, color in self.tracker.colors.items()
        }

    def audit(self) -> None:
        """Replay the whole game against the host (:func:`audit_reveals`);
        raises :class:`ConsistencyError` on any mismatch."""
        if not self._all_committed():
            raise ConsistencyError("commit every fragment before audit")
        audit_reveals(
            self._log, self._id_of_host, self._host_of_id,
            lambda node: self._balls.ball(node, self.locality),
            self.tracker.view_graph, self.host,
        )
