"""Clique-chain partition inference (the engine behind two oracles).

Whenever a family guarantees that every node of a connected fragment
``C`` lies in an s-clique within :math:`\\mathcal{B}(C, r)` and that any
two such cliques are linked by a chain of s-cliques consecutively sharing
``s - 1`` nodes, fixing the parts of one clique forces the part of every
node: two cliques sharing ``s - 1`` nodes force their two non-shared
nodes into the same part.

The paper uses this argument twice:

* k-trees — (k+1)-cliques, radius 1 (Section 1); and
* the hierarchy :math:`G_k` — k-cliques, radius k-1 ≤ k (Claims 5.3-5.5),
  which is how :math:`G_k \\in \\mathcal{L}_{k,\\ell}` with ℓ ∈ O(1) is
  established (Lemma 5.6).

:class:`CliqueChainOracle` implements it generically.  An Online-LOCAL
view only grows, so the oracle keeps the view's cliques and their
shared-face links between calls and grows them from the graph's change
log (see ``docs/performance.md``, "Incremental clique-chain oracle").
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.traversal import ball
from repro.oracles.base import OracleError, PartitionOracle

Node = Hashable
Clique = FrozenSet[Node]
#: A clique's sort key: the sorted reprs of its nodes.
Key = Tuple[str, ...]
#: One clique on a shared face: ``(sort key, clique, the clique's node
#: outside the face)``.
FaceEntry = Tuple[Key, Clique, Node]


class CliqueChainOracle(PartitionOracle):
    """Infer the unique ``num_parts``-partition via clique chains.

    Parameters
    ----------
    num_parts:
        Number of parts k; cliques of exactly this size carry one node of
        each part.
    radius:
        The inference radius ℓ of Definition 1.4 for the family.

    The oracle keeps the k-cliques of the last graph it was handed
    (compared by identity) and brings them up to date from
    :meth:`~repro.graphs.graph.Graph.changes_since` on every call; a
    removal, an oversized batch, an overflowed log or a different graph
    rebuilds them from scratch.  Each call still reads only the cliques
    inside :math:`\\mathcal{B}(C, ℓ)`.
    """

    def __init__(self, num_parts: int, radius: int) -> None:
        if num_parts < 2:
            raise ValueError(f"need at least 2 parts, got {num_parts}")
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.num_parts = num_parts
        self.radius = radius
        self._reset(None)

    def infer(self, graph: Graph, component: Set[Node]) -> Dict[Node, int]:
        if not component:
            raise OracleError("cannot partition an empty component")
        allowed = ball(graph, component, self.radius)
        self._sync(graph)

        # The seed: the least clique inside the ball by its sorted reprs.
        # Every clique is listed under its least node, so each is weighed
        # once.
        seed: Optional[Clique] = None
        seed_key: Key = ()
        for node in allowed:
            for key, clique in self._led.get(node, ()):
                if (seed is None or key < seed_key) and clique <= allowed:
                    seed, seed_key = clique, key
        if seed is None:
            raise OracleError(
                f"no {self.num_parts}-clique in the neighborhood; wrong family?"
            )

        reprs = self._reprs
        parts: Dict[Node, int] = {}
        for index, node in enumerate(sorted(seed, key=reprs.__getitem__)):
            parts[node] = index
        links = self._links
        assigned = {seed}
        queue = deque([seed])
        while queue:
            clique = queue.popleft()
            for dropped, entries in links[clique]:
                for __, other, newcomer in entries:
                    if other in assigned or not other <= allowed:
                        continue
                    if newcomer in parts:
                        if parts[newcomer] != parts[dropped]:
                            raise OracleError(
                                f"clique chain forces two parts on "
                                f"{newcomer!r}; fragment outside the family"
                            )
                    else:
                        parts[newcomer] = parts[dropped]
                    assigned.add(other)
                    queue.append(other)
        missing = component - set(parts)
        if missing:
            raise OracleError(
                f"{len(missing)} component node(s) not reachable by clique "
                f"chains (e.g. {next(iter(missing))!r})"
            )
        return self._normalize(parts, reprs.__getitem__)

    # ------------------------------------------------------------------
    # Clique state
    # ------------------------------------------------------------------
    def _reset(self, graph: Optional[Graph]) -> None:
        """Forget every clique and start tracking ``graph``."""
        self._graph = graph
        self._synced = 0
        #: Each node's ``repr``, computed once.
        self._reprs: Dict[Node, str] = {}
        #: Every clique with its sort key, listed under its least node.
        self._led: Dict[Node, List[Tuple[Key, Clique]]] = {}
        #: Every (k-1)-node face, with the cliques on it in key order.
        self._face_index: Dict[Clique, List[FaceEntry]] = {}
        #: Every clique's links, in the clique's own iteration order: the
        #: node it drops, and the entries of the face that remains.
        self._links: Dict[Clique, List[Tuple[Node, List[FaceEntry]]]] = {}

    def _sync(self, graph: Graph) -> None:
        """Bring the clique state up to ``graph``'s current generation.

        A clique that additions created holds a new edge, and both ends
        of a new edge are touched, so an ``"add"``-only history is
        replayed from the cliques holding two touched nodes; anything
        else starts over.
        """
        changes = (
            graph.changes_since(self._synced) if graph is self._graph else None
        )
        if changes is None or any(kind != "add" for kind, __ in changes):
            self._reset(graph)
            touched = dict.fromkeys(graph.nodes())
        else:
            touched = dict.fromkeys(
                node for __, nodes in changes for node in nodes
            )
        reprs = self._reprs
        for node in touched:
            if node not in reprs:
                reprs[node] = repr(node)
        adj = graph.adjacency()
        links = self._links
        visited: Set[Node] = set()
        for node in touched:
            # A clique through an already visited touched node was found
            # from that node.
            for members in self._cliques_through(adj, node, touched, visited):
                if frozenset(members) not in links:
                    self._admit(members)
            visited.add(node)
        self._synced = graph.generation

    def _cliques_through(
        self,
        adj: Dict[Node, Set[Node]],
        node: Node,
        touched: Dict[Node, None],
        visited: Set[Node],
    ) -> List[List[Node]]:
        """The ``num_parts``-cliques holding ``node``, another node of
        ``touched`` and no node of ``visited``, each once."""
        size = self.num_parts
        result: List[List[Node]] = []

        def extend(members: List[Node], candidates: List[Node]) -> None:
            if len(members) == size:
                result.append(list(members))
                return
            # Prune: not enough candidates left to finish the clique.
            if len(members) + len(candidates) < size:
                return
            for index, other in enumerate(candidates):
                members.append(other)
                nbrs = adj[other]
                extend(members, [w for w in candidates[index + 1:] if w in nbrs])
                members.pop()

        candidates = [other for other in adj[node] if other not in visited]
        fresh = [other for other in candidates if other in touched]
        # With the touched candidates listed first, a clique holds one
        # exactly when its first candidate is touched.
        candidates = fresh + [other for other in candidates if other not in touched]
        for index, other in enumerate(fresh):
            nbrs = adj[other]
            extend([node, other], [w for w in candidates[index + 1:] if w in nbrs])
        return result

    def _admit(self, members: List[Node]) -> None:
        """Record one new clique and link it to its faces."""
        reprs = self._reprs
        members.sort(key=reprs.__getitem__)
        clique = frozenset(members)
        key = tuple([reprs[node] for node in members])
        self._led.setdefault(members[0], []).append((key, clique))
        links: List[Tuple[Node, List[FaceEntry]]] = []
        for dropped in clique:
            face = clique - {dropped}
            entries = self._face_index.get(face)
            if entries is None:
                entries = self._face_index[face] = []
            # Keep the face's cliques in key order (keys alone decide it).
            index = len(entries)
            while index and entries[index - 1][0] > key:
                index -= 1
            entries.insert(index, (key, clique, dropped))
            links.append((dropped, entries))
        self._links[clique] = links
