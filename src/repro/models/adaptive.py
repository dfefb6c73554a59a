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

Both classes log every reveal and provide :meth:`audit`, which replays
the whole game against the committed host graph and verifies that every
view shown to the algorithm was exactly the induced subgraph
:math:`G_i` required by the model — adversary wins are machine-checked,
never asserted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.families.grids import SimpleGrid
from repro.graphs.graph import Graph
from repro.graphs.traversal import BallCache
from repro.models.base import Color, NodeId, OnlineAlgorithm, ViewTracker
from repro.observability.metrics import BoundCounter
from repro.observability.trace import TRACER

Coord = Tuple[int, int]
HostNode = Hashable

_REVEALS = BoundCounter("reveals_total")


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


def _l1(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _is_induced_view(
    view: Graph,
    host: Graph,
    seen: Set[HostNode],
    id_of: Dict[HostNode, NodeId],
) -> bool:
    """Whether ``view`` is the host-induced subgraph :math:`G[seen]` with
    every host node ``u`` renamed to ``id_of[u]``.

    The same equality as ``host.induced_subgraph(seen).relabel(id_of) ==
    view``, decided on the adjacency maps without building either graph.
    """
    host_adj = host.adjacency()
    expected = {
        id_of[u]: {id_of[v] for v in host_adj[u] if v in seen} for u in seen
    }
    return expected == view.adjacency()


class _Fragment:
    """A connected-ish revealed region with its own integer frame."""

    __slots__ = ("seen", "revealed", "alive")

    def __init__(self) -> None:
        self.seen: Dict[Coord, NodeId] = {}
        self.revealed: List[Coord] = []
        self.alive = True


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
        self._fragments: Dict[int, _Fragment] = {}
        self._next_fragment = 0
        self._log: List[Tuple[NodeId, FrozenSet[NodeId]]] = []
        # Populated by commit():
        self.host: Optional[SimpleGrid] = None
        self._host_id_of: Dict[Coord, NodeId] = {}
        self._host_node_of_id: Dict[NodeId, Coord] = {}
        self._committed_offsets: Dict[int, Coord] = {}

    # ------------------------------------------------------------------
    # Fragment phase
    # ------------------------------------------------------------------
    def new_fragment(self) -> int:
        """Declare a fresh fragment; returns its handle."""
        if self.host is not None:
            raise ConsistencyError("cannot create fragments after commit")
        handle = self._next_fragment
        self._next_fragment += 1
        self._fragments[handle] = _Fragment()
        return handle

    def reveal(self, fragment: int, coord: Coord) -> Color:
        """Reveal the node at ``coord`` in the fragment's local frame.

        Extends the fragment's seen region by the T-ball (a full diamond
        — fragments are implicitly far from every grid border until
        commit) and runs one algorithm step.
        """
        if self.host is not None:
            raise ConsistencyError("use reveal_committed after commit")
        frag = self._fragments[fragment]
        if not frag.alive:
            raise ConsistencyError(f"fragment {fragment} was merged away")
        fresh = [
            c for c in sorted(_plane_ball(coord, self.locality)) if c not in frag.seen
        ]
        fresh_ids = []
        for c in fresh:
            node_id = self._new_id(frag, c)
            fresh_ids.append(node_id)
        edges = []
        for c in fresh:
            c_id = frag.seen[c]
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nbr = (c[0] + dx, c[1] + dy)
                nbr_id = frag.seen.get(nbr)
                if nbr_id is not None:
                    edges.append((c_id, nbr_id))
        self.tracker.extend(fresh_ids, edges)
        frag.revealed.append(coord)
        target = frag.seen[coord]
        color = self.tracker.reveal(target)
        self._log.append((target, frozenset(fresh_ids)))
        _REVEALS.inc()
        if TRACER.enabled:
            TRACER.event(
                "reveal",
                model="floating-grid",
                fragment=fragment,
                node=coord,
                id=target,
                color=color,
                fresh=len(fresh_ids),
            )
        return color

    def _new_id(self, frag: _Fragment, coord: Coord) -> NodeId:
        node_id = self._id_counter = getattr(self, "_id_counter", -1) + 1
        frag.seen[coord] = node_id
        return node_id

    def fragment_color(self, fragment: int, coord: Coord) -> Optional[Color]:
        """The committed color at a fragment-frame coordinate, or None."""
        frag = self._fragments[fragment]
        node_id = frag.seen.get(coord)
        if node_id is None:
            return None
        return self.tracker.colors.get(node_id)

    def fragment_row_extent(self, fragment: int, y: int = 0) -> Tuple[int, int]:
        """The (min x, max x) of the fragment's seen nodes on row ``y``."""
        xs = [x for (x, yy) in self._fragments[fragment].seen if yy == y]
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
            If the placement would overlap or touch the regions.
        """
        if self.host is not None:
            raise ConsistencyError("cannot merge after commit")
        if frag_a == frag_b:
            raise ValueError("cannot merge a fragment with itself")
        a = self._fragments[frag_a]
        b = self._fragments[frag_b]
        if not (a.alive and b.alive):
            raise ConsistencyError("merge involves a dead fragment")

        def transform(coord: Coord) -> Coord:
            x, y = coord
            return (dx - x, dy + y) if reflect else (dx + x, dy + y)

        moved = {transform(c): node_id for c, node_id in b.seen.items()}
        for coord in moved:
            for existing in self._near(a.seen, coord, 1):
                raise ConsistencyError(
                    f"merge places b-node at {coord} within distance 1 of "
                    f"a-node at {existing}; earlier views showed them "
                    f"disconnected"
                )
        a.seen.update(moved)
        a.revealed.extend(transform(c) for c in b.revealed)
        b.alive = False
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

    @staticmethod
    def _near(seen: Dict[Coord, NodeId], coord: Coord, radius: int) -> List[Coord]:
        """Seen coords within L1 distance ``radius`` of ``coord``."""
        x, y = coord
        hits = []
        for ddx in range(-radius, radius + 1):
            for ddy in range(-(radius - abs(ddx)), radius - abs(ddx) + 1):
                candidate = (x + ddx, y + ddy)
                if candidate in seen:
                    hits.append(candidate)
        return hits

    # ------------------------------------------------------------------
    # Commit phase
    # ------------------------------------------------------------------
    def commit(self, reference: Optional[int] = None) -> SimpleGrid:
        """Fix the host grid: bounding box of all seen nodes plus a T margin.

        Remaining fragments are stacked vertically with gaps of
        ``2T + 2`` so no earlier view is falsified.  After commit, use
        :meth:`reveal_committed` with ``(x, y)`` coordinates in the
        *reference* fragment's frame (default: the lowest live handle;
        other fragments' offsets are available via
        :meth:`committed_offset`).
        """
        if self.host is not None:
            raise ConsistencyError("already committed")
        if not self._fragments:
            raise ConsistencyError("nothing revealed; nothing to commit")
        # Stack fragments: the reference fragment keeps its frame;
        # others are translated below it.
        handles = sorted(self._fragments)
        if reference is not None:
            if reference not in self._fragments:
                raise ConsistencyError(
                    f"reference fragment {reference} is not alive"
                )
            handles.remove(reference)
            handles.insert(0, reference)
        global_seen: Dict[Coord, NodeId] = {}
        global_revealed: List[Coord] = []
        floor = None
        for handle in handles:
            frag = self._fragments[handle]
            ys = [c[1] for c in frag.seen]
            xs = [c[0] for c in frag.seen]
            if floor is None:
                offset = (0, 0)
            else:
                offset = (0, floor - max(ys) - (2 * self.locality + 2))
            self._committed_offsets[handle] = offset
            for (x, y), node_id in frag.seen.items():
                global_seen[(x + offset[0], y + offset[1])] = node_id
            global_revealed.extend(
                (x + offset[0], y + offset[1]) for (x, y) in frag.revealed
            )
            floor = min(c[1] + offset[1] for c in frag.seen)

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

        def to_host(coord: Coord) -> Coord:
            return (coord[1] - min_y, coord[0] - min_x)

        self._to_host = to_host
        for coord, node_id in global_seen.items():
            host_coord = to_host(coord)
            self._host_id_of[host_coord] = node_id
            self._host_node_of_id[node_id] = host_coord
        self._host_revealed = [to_host(c) for c in global_revealed]
        self._fragments.clear()
        return self.host

    def committed_offset(self, fragment: int) -> Coord:
        """The translation applied to a fragment's frame at commit time."""
        return self._committed_offsets[fragment]

    def reveal_committed(self, coord: Coord) -> Color:
        """Reveal a node after commit, by fragment-0 frame coordinates."""
        if self.host is None:
            raise ConsistencyError("commit() first")
        host_coord = self._to_host(coord)
        return self._reveal_host(host_coord)

    def _reveal_host(self, host_coord: Coord) -> Color:
        region = self._balls.ball(host_coord, self.locality)
        fresh = sorted(c for c in region if c not in self._host_id_of)
        fresh_ids = []
        for c in fresh:
            node_id = self._id_counter = getattr(self, "_id_counter", -1) + 1
            self._host_id_of[c] = node_id
            self._host_node_of_id[node_id] = c
            fresh_ids.append(node_id)
        edges = []
        for c in fresh:
            c_id = self._host_id_of[c]
            for nbr in self.host.graph.neighbors(c):
                nbr_id = self._host_id_of.get(nbr)
                if nbr_id is not None:
                    edges.append((c_id, nbr_id))
        self.tracker.extend(fresh_ids, edges)
        target = self._host_id_of[host_coord]
        self._host_revealed.append(host_coord)
        color = self.tracker.reveal(target)
        self._log.append((target, frozenset(fresh_ids)))
        _REVEALS.inc()
        if TRACER.enabled:
            TRACER.event(
                "reveal",
                model="floating-grid",
                phase="committed",
                node=host_coord,
                id=target,
                color=color,
                fresh=len(fresh_ids),
            )
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
        """Color of a node given in fragment-0 frame coordinates."""
        if self.host is None:
            raise ConsistencyError("commit() before reading colors by frame")
        node_id = self._host_id_of.get(self._to_host(fragment_coord))
        if node_id is None:
            return None
        return self.tracker.colors.get(node_id)

    def audit(self) -> None:
        """Replay the whole game against the committed host grid.

        Verifies that every reveal added exactly the recorded fresh ids
        and that the final view equals the host-induced subgraph on the
        seen region.  Raises :class:`ConsistencyError` on any mismatch.
        """
        if self.host is None:
            raise ConsistencyError("commit() before audit")
        # Derive the true host-coordinate reveal order from the log (the
        # log is in play order; per-fragment bookkeeping is not).
        seen: Set[Coord] = set()
        for target_id, fresh_ids in self._log:
            host_coord = self._host_node_of_id.get(target_id)
            if host_coord is None:
                raise ConsistencyError(
                    f"revealed id {target_id} has no committed host position"
                )
            region = self._balls.ball(host_coord, self.locality)
            recomputed = frozenset(
                self._host_id_of[c] for c in region if c not in seen
            )
            if recomputed != fresh_ids:
                raise ConsistencyError(
                    f"view growth at {host_coord} was "
                    f"{sorted(fresh_ids)} but host replay gives "
                    f"{sorted(recomputed)}"
                )
            seen |= region
        if not _is_induced_view(
            self.tracker.view_graph, self.host.graph, seen, self._host_id_of
        ):
            raise ConsistencyError("final view differs from host-induced subgraph")


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
        # During the fragment phase, ids map to *pre-image* host labels.
        self._pre_id_of: Dict[Tuple[int, HostNode], NodeId] = {}
        self._pre_node_of: Dict[NodeId, Tuple[int, HostNode]] = {}
        self._frag_seen: Dict[int, Set[HostNode]] = {}
        self._frag_revealed: Dict[int, List[HostNode]] = {}
        # After commits, ids map to true host nodes.
        self._id_of_host: Dict[HostNode, NodeId] = {}
        self._host_of_id: Dict[NodeId, HostNode] = {}
        self._id_counter = -1
        self._log: List[Tuple[NodeId, FrozenSet[NodeId]]] = []
        self._host_revealed: List[HostNode] = []
        self._free_phase = False

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
        self._frag_seen[handle] = set()
        self._frag_revealed[handle] = []
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
        seen = self._frag_seen[fragment]
        fresh = sorted(ball_nodes - seen, key=repr)
        fresh_ids = []
        for u in fresh:
            self._id_counter += 1
            self._pre_id_of[(fragment, u)] = self._id_counter
            self._pre_node_of[self._id_counter] = (fragment, u)
            fresh_ids.append(self._id_counter)
        seen |= ball_nodes
        edges = []
        for u in fresh:
            u_id = self._pre_id_of[(fragment, u)]
            for v in self.host.neighbors(u):
                if v in seen:
                    edges.append((u_id, self._pre_id_of[(fragment, v)]))
        self.tracker.extend(fresh_ids, edges)
        target = self._pre_id_of[(fragment, node)]
        self._frag_revealed[fragment].append(node)
        color = self.tracker.reveal(target)
        self._log.append((target, frozenset(fresh_ids)))
        _REVEALS.inc()
        if TRACER.enabled:
            TRACER.event(
                "reveal",
                model="late-automorphism",
                fragment=fragment,
                node=node,
                id=target,
                color=color,
                fresh=len(fresh_ids),
            )
        return color

    def fragment_color(self, fragment: int, pre_node: HostNode) -> Optional[Color]:
        """The committed color of a pre-image node of an uncommitted
        fragment (the adversary inspects colors before choosing the
        automorphism)."""
        node_id = self._pre_id_of.get((fragment, pre_node))
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
        for pre_node in self._frag_seen[fragment]:
            node_id = self._pre_id_of[(fragment, pre_node)]
            true_node = mapping[pre_node]
            self._id_of_host[true_node] = node_id
            self._host_of_id[node_id] = true_node
        for pre_node in self._frag_revealed[fragment]:
            self._host_revealed.append(mapping[pre_node])

    # ------------------------------------------------------------------
    # Free phase
    # ------------------------------------------------------------------
    def reveal(self, node: HostNode) -> Color:
        """Reveal any host node; all fragments must be committed first."""
        if set(self._regions) - set(self._committed):
            raise ConsistencyError("commit every fragment before free reveals")
        self._free_phase = True
        region = self._balls.ball(node, self.locality)
        fresh = sorted((u for u in region if u not in self._id_of_host), key=repr)
        fresh_ids = []
        for u in fresh:
            self._id_counter += 1
            self._id_of_host[u] = self._id_counter
            self._host_of_id[self._id_counter] = u
            fresh_ids.append(self._id_counter)
        edges = []
        for u in fresh:
            u_id = self._id_of_host[u]
            for v in self.host.neighbors(u):
                v_id = self._id_of_host.get(v)
                if v_id is not None:
                    edges.append((u_id, v_id))
        self.tracker.extend(fresh_ids, edges)
        target = self._id_of_host[node]
        self._host_revealed.append(node)
        color = self.tracker.reveal(target)
        self._log.append((target, frozenset(fresh_ids)))
        _REVEALS.inc()
        if TRACER.enabled:
            TRACER.event(
                "reveal",
                model="late-automorphism",
                phase="free",
                node=node,
                id=target,
                color=color,
                fresh=len(fresh_ids),
            )
        return color

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def coloring(self) -> Dict[HostNode, Color]:
        """Committed colors keyed by true host nodes."""
        if set(self._regions) - set(self._committed):
            raise ConsistencyError("commit every fragment before reading colors")
        return {
            self._host_of_id[node_id]: color
            for node_id, color in self.tracker.colors.items()
        }

    def audit(self) -> None:
        """Replay against the host; raise ConsistencyError on any mismatch."""
        if set(self._regions) - set(self._committed):
            raise ConsistencyError("commit every fragment before audit")
        if len(self._log) != len(self._host_revealed):
            raise ConsistencyError("reveal log length mismatch")
        # The per-fragment reveals were logged in play order globally, but
        # _host_revealed groups fragment reveals at commit time.  Rebuild
        # the true host order from the log via the final id map.
        ordered_hosts = [self._host_of_id[target] for target, __ in self._log]
        seen: Set[HostNode] = set()
        for (target_id, fresh_ids), node in zip(self._log, ordered_hosts):
            region = self._balls.ball(node, self.locality)
            recomputed = frozenset(
                self._id_of_host[u] for u in region if u not in seen
            )
            if recomputed != fresh_ids:
                raise ConsistencyError(
                    f"view growth at {node!r} was {sorted(fresh_ids)} but "
                    f"host replay gives {sorted(recomputed)}"
                )
            seen |= region
        if not _is_induced_view(
            self.tracker.view_graph, self.host, seen, self._id_of_host
        ):
            raise ConsistencyError("final view differs from host-induced subgraph")
