"""The Akbari et al. O(log n) Online-LOCAL 3-coloring of bipartite graphs.

This is the upper-bound algorithm whose optimality the paper proves
(Section 5.1.1 reviews it; Theorem 1 shows its Θ(log n) locality is
tight).  The algorithm 2-colors the *groups* (connected components of the
seen region) with colors {1, 2}, and when two groups with incompatible
parities merge, it flips the smaller one by laying three boundary layers
(2, then 3, then 1) around its colored core — the only place color 3 is
used.

With locality ``T ≥ 3·log2(n) + c`` the algorithm produces a proper
3-coloring of any bipartite graph under any reveal order.  Run with a
smaller budget it is a fair member of the adversary's victim portfolio:
flips that would overrun the seen region are truncated, and improper
edges eventually appear — exactly the behavior Theorem 1 predicts must
occur for *every* algorithm with ``T ∈ o(log n)``.

Implementation notes
--------------------
* Group parities are maintained with a parity union-find
  (:class:`~repro.core.parity_uf.ParityUnionFind`); each group root
  stores the color assigned to parity-0 nodes (its *type*) and the set of
  nodes the algorithm has colored in the group.
* When a reveal merges groups, the types of the smaller groups are
  rebased into the merged parity frame and physically flipped where they
  disagree with the largest group's type.
* On a parity contradiction (non-bipartite input, e.g. an odd cycle of a
  torus) the component is marked odd and colored greedily — the algorithm
  keeps playing, and loses, rather than crashing.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.parity_uf import ParityUnionFind
from repro.models.base import AlgorithmView, Color, NodeId, OnlineAlgorithm

_FLIP_SCHEDULE: Tuple[Tuple[Color, Color], ...] = ((1, 2), (2, 3), (3, 1))


class _Group:
    """Per-root group metadata."""

    __slots__ = ("colored", "type_color")

    def __init__(self) -> None:
        # Nodes this algorithm has committed colors to, in this group.
        self.colored: Set[NodeId] = set()
        # The color in {1, 2} assigned to parity-0 nodes (the "type").
        self.type_color: Optional[Color] = None


class AkbariBipartiteColoring(OnlineAlgorithm):
    """Online-LOCAL 3-coloring of bipartite graphs, per Akbari et al.

    Parameters
    ----------
    flip_larger:
        Ablation knob.  The paper flips the *smaller* group on a parity
        conflict, which caps per-node flip participation at log2(n).
        Setting this to True flips the larger group instead — correct,
        but the flip count per node can grow linearly, so the required
        locality explodes (see ``benchmarks/bench_ablations.py``).
    """

    name = "akbari-bipartite"

    def __init__(self, flip_larger: bool = False) -> None:
        self.flip_larger = flip_larger
        if flip_larger:
            self.name = "akbari-flip-larger"

    def reset(self, n: int, locality: int, num_colors: int) -> None:
        super().reset(n, locality, num_colors)
        if num_colors < 3:
            raise ValueError("the Akbari algorithm needs 3 colors")
        self._uf = ParityUnionFind()
        self._groups: Dict[NodeId, _Group] = {}
        self._known: Set[NodeId] = set()
        self._colors: Dict[NodeId, Color] = {}
        self.flip_count = 0  # instrumentation for the benchmarks

    # ------------------------------------------------------------------
    # Step
    # ------------------------------------------------------------------
    def step(self, view: AlgorithmView, target: NodeId) -> Mapping[NodeId, Color]:
        assignment: Dict[NodeId, Color] = {}
        old_groups = self._absorb_new_nodes(view, target)
        root, __ = self._uf.find(target)

        if self._uf.is_odd(target):
            # Non-bipartite component: play on greedily (and lose later).
            self._greedy_color(view, target, assignment)
            self._record(root, assignment)
            return assignment

        group = self._groups.setdefault(root, _Group())
        if not old_groups:
            # Case 1: a brand-new group.  Color the target 1 and anchor
            # the type so that the target's parity maps to color 1.
            __, target_parity = self._uf.find(target)
            group.type_color = 1 if target_parity == 0 else 2
            self._commit(target, 1, assignment)
        else:
            # Cases 2 and 3: rebase every old group's type into the
            # merged parity frame; flip the ones disagreeing with the
            # largest group.
            rebased = self._rebase(old_groups)
            if self.flip_larger:
                rebased.sort(key=lambda item: (item[0], item[1]))
            else:
                rebased.sort(key=lambda item: (-item[0], item[1]))
            __, reference_type, __ = rebased[0]
            for __, type_color, old_colored in rebased[1:]:
                if type_color != reference_type:
                    self._flip(view, old_colored, assignment)
                    self.flip_count += 1
                group.colored |= old_colored
            group.colored |= rebased[0][2]
            group.type_color = reference_type
            if target not in self._colors:
                __, target_parity = self._uf.find(target)
                color = reference_type if target_parity == 0 else 3 - reference_type
                self._commit(target, color, assignment)
        self._record(root, assignment)
        return assignment

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------
    def _absorb_new_nodes(
        self, view: AlgorithmView, target: NodeId
    ) -> List[Tuple[int, NodeId, Color, Set[NodeId]]]:
        """Register nodes that appeared this step; returns snapshots of
        the distinct old groups being merged: (size, root, type, colored).

        "Old groups" are the existing groups adjacent to the new nodes,
        plus the target's own group when the target was already seen.
        The view graph only appends nodes, so the new ones are those
        after the first ``len(self._known)``.
        """
        new_nodes = list(islice(view.graph.nodes(), len(self._known), None))
        touched_roots: Dict[NodeId, Tuple[int, Optional[Color], Set[NodeId]]] = {}

        def touch(old_node: NodeId) -> None:
            root, __ = self._uf.find(old_node)
            if root not in touched_roots:
                old = self._groups.get(root)
                touched_roots[root] = (
                    self._uf.size(old_node),
                    old.type_color if old else None,
                    set(old.colored) if old else set(),
                )

        for u in new_nodes:
            self._uf.add(u)
        if target in self._known:
            touch(target)
        for u in new_nodes:
            for v in view.graph.neighbors(u):
                if v in self._known:
                    touch(v)
        for u in new_nodes:
            self._known.add(u)
            for v in view.graph.neighbors(u):
                if v in self._known:
                    self._uf.union_opposite(u, v)
        return [
            (size, root, type_color, colored)
            for root, (size, type_color, colored) in touched_roots.items()
            if type_color is not None
        ]

    def _rebase(
        self, old_groups: List[Tuple[int, NodeId, Color, Set[NodeId]]]
    ) -> List[Tuple[int, Color, Set[NodeId]]]:
        """Express each old group's type in the merged parity frame.

        A witness node's committed color pins the type: in the old frame
        the witness's color followed the old type; whatever parity the
        witness now has, the rebased type is the color its parity class
        must take for the witness's color to stay consistent.  Witnesses
        colored 3 (flip barriers) are skipped — frontier nodes are never
        colored 3 when the budget is honored.
        """
        rebased: List[Tuple[int, Color, Set[NodeId]]] = []
        for size, old_root, type_color, colored in old_groups:
            witness = None
            for node in colored:
                if self._colors[node] in (1, 2):
                    witness = node
                    break
            if witness is None:
                # Degenerate: everything colored 3; keep the stored type.
                rebased.append((size, type_color, colored))
                continue
            __, parity = self._uf.find(witness)
            witness_color = self._colors[witness]
            new_type = witness_color if parity == 0 else 3 - witness_color
            rebased.append((size, new_type, colored))
        return rebased

    # ------------------------------------------------------------------
    # Physical operations
    # ------------------------------------------------------------------
    def _flip(
        self,
        view: AlgorithmView,
        core: Set[NodeId],
        assignment: Dict[NodeId, Color],
    ) -> None:
        """Flip a group's parity with three boundary layers (2, 3, 1).

        ``core`` is the group's colored set.  Each pass colors the
        currently uncolored seen neighbors of sources with the pass's
        source color.  Unseen neighbors cannot be colored — with an
        honest budget there are none; with a truncated budget this is
        where the algorithm starts losing.
        """
        current = set(core)
        for source_color, layer_color in _FLIP_SCHEDULE:
            layer: Set[NodeId] = set()
            for u in current:
                if self._color_of(u, assignment) != source_color:
                    continue
                for v in view.graph.neighbors(u):
                    if self._color_of(v, assignment) is None:
                        layer.add(v)
            for v in layer:
                self._commit(v, layer_color, assignment)
            current |= layer

    def _greedy_color(
        self,
        view: AlgorithmView,
        target: NodeId,
        assignment: Dict[NodeId, Color],
    ) -> None:
        """Fallback for odd components: first color unused by neighbors."""
        used = {
            self._color_of(v, assignment)
            for v in view.graph.neighbors(target)
        }
        for color in range(1, self.num_colors + 1):
            if color not in used:
                self._commit(target, color, assignment)
                return
        self._commit(target, 1, assignment)  # improper; the adversary won

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _color_of(
        self, node: NodeId, assignment: Dict[NodeId, Color]
    ) -> Optional[Color]:
        color = assignment.get(node)
        if color is not None:
            return color
        return self._colors.get(node)

    def _commit(
        self, node: NodeId, color: Color, assignment: Dict[NodeId, Color]
    ) -> None:
        if self._color_of(node, assignment) is not None:
            return
        assignment[node] = color
        self._colors[node] = color

    def _record(self, root: NodeId, assignment: Dict[NodeId, Color]) -> None:
        root, __ = self._uf.find(root)
        group = self._groups.setdefault(root, _Group())
        group.colored |= set(assignment)
        if group.type_color is None:
            group.type_color = 1
