"""A minimal undirected simple graph with hashable node labels.

The class stores an adjacency map ``node -> set(neighbors)``.  It supports
exactly the operations the rest of the library needs: incremental
construction, neighborhood queries, induced subgraphs, and edge iteration.
Nodes may be any hashable value; the graph families in
:mod:`repro.families` use structured tuples such as ``(row, col)`` for grid
nodes or ``(layer, base)`` for hierarchy nodes, which keeps the geometry
readable in tests and adversary code.

Beyond the adjacency map the graph maintains derived bookkeeping that the
hot paths rely on (see ``docs/performance.md``):

* a monotone :attr:`~Graph.generation` counter, bumped once per structural
  change (or once per :meth:`~Graph.batch` block);
* a bounded **structural change log** so derived state can catch up
  from the nodes a mutation touched instead of rebuilding
  (:meth:`~Graph.changes_since`; its reader is the clique-chain oracle);
* an order-independent **structural fingerprint** so caches can recognize
  independently built but identical graphs (:attr:`~Graph.fingerprint`),
  computed on first read and kept up to date from then on;
* an O(1) edge counter and memoized per-node neighbor frozensets.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

Node = Hashable
Edge = Tuple[Node, Node]

#: Change-log records kept before the log overflows and drops its older
#: half, so a reader that syncs at least every ``LOG_CAPACITY // 2``
#: records never falls back to a full flush.  Bulk construction goes
#: through ``batch()`` and costs one record regardless of size.
LOG_CAPACITY = 4096

#: Touched-node sets larger than this are recorded as an opaque ``bulk``
#: record (consumers rebuild) instead of an explicit node list —
#: replaying a huge touched set would cost more than the rebuild it
#: avoids.
BATCH_TOUCH_LIMIT = 512

_FP_MASK = (1 << 64) - 1


def _node_token(node: Node) -> int:
    return hash(("repro.graph.node", node))


def _edge_token(u: Node, v: Node) -> int:
    hu, hv = hash(u), hash(v)
    if hu > hv:
        hu, hv = hv, hu
    return hash(("repro.graph.edge", hu, hv))


class Graph:
    """An undirected simple graph.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes (may be empty; isolated nodes
        are preserved).
    edges:
        Optional iterable of 2-tuples.  Endpoints are added as nodes
        automatically.

    The constructor fills the adjacency map in one pass and commits it
    as one change: a freshly built graph sits at generation 1 (0 if
    empty) with one ``"add"`` record over every node, or one ``"bulk"``
    record past :data:`BATCH_TOUCH_LIMIT` nodes — the same state, down
    to dict and neighbor-set iteration order, as adding every element
    inside one :meth:`batch`.
    """

    __slots__ = (
        "_adj",
        "_generation",
        "_num_edges",
        "_nbr_cache",
        "_log",
        "_log_floor",
        "_fp_xor",
        "_fp_add",
        "_batch_depth",
        "_batch_mutated",
        "_batch_removal",
        "_batch_touched",
    )

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()) -> None:
        adj: Dict[Node, Set[Node]] = {}
        for node in nodes:
            if node not in adj:
                adj[node] = set()
        num_edges = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r} is not allowed")
            nbrs_u = adj.get(u)
            if nbrs_u is None:
                nbrs_u = adj[u] = set()
            nbrs_v = adj.get(v)
            if nbrs_v is None:
                nbrs_v = adj[v] = set()
            if v not in nbrs_u:
                nbrs_u.add(v)
                nbrs_v.add(u)
                num_edges += 1
        self._adj = adj
        self._num_edges = num_edges
        self._nbr_cache: Dict[Node, FrozenSet[Node]] = {}
        self._log: List[Tuple[int, str, Tuple[Node, ...]]] = []
        self._log_floor = 0
        if adj:
            # Every node is touched, exactly as a batch() over the same
            # elements would record it.
            self._generation = 1
            if len(adj) > BATCH_TOUCH_LIMIT:
                self._log.append((1, "bulk", ()))
            else:
                self._log.append((1, "add", tuple(adj)))
        else:
            self._generation = 0
        # Fingerprint halves; None until the first read computes them.
        self._fp_xor: Optional[int] = None
        self._fp_add: Optional[int] = None
        self._batch_depth = 0
        self._batch_mutated = False
        self._batch_removal = False
        self._batch_touched: Optional[Set[Node]] = None

    # ------------------------------------------------------------------
    # Change accounting
    # ------------------------------------------------------------------
    def _record(self, kind: str, nodes: Tuple[Node, ...]) -> None:
        """Account for one structural change: bump the generation and log
        it, or fold it into the enclosing :meth:`batch` block."""
        if self._batch_depth:
            self._batch_mutated = True
            if kind != "add":
                self._batch_removal = True
            elif self._batch_touched is not None:
                self._batch_touched.update(nodes)
                if len(self._batch_touched) > BATCH_TOUCH_LIMIT:
                    self._batch_touched = None  # too big: degrade to bulk
            return
        self._generation += 1
        self._append_log(kind, nodes)

    def _append_log(self, kind: str, nodes: Tuple[Node, ...]) -> None:
        if len(self._log) >= LOG_CAPACITY:
            # Overflow: drop the older half and raise the floor to the
            # last dropped generation, so changes_since() reports history
            # before it as "unknowable" and appends stay amortised O(1).
            drop = LOG_CAPACITY // 2
            self._log_floor = self._log[drop - 1][0]
            del self._log[:drop]
        self._log.append((self._generation, kind, nodes))

    def _fold(self, token: int, sign: int) -> None:
        """Add (``sign=1``) or remove (``sign=-1``) one node or edge token
        from the fingerprint.  Callers skip it while the fingerprint has
        not been read yet."""
        self._fp_xor ^= token
        self._fp_add = (self._fp_add + sign * token) & _FP_MASK

    @contextmanager
    def batch(self):
        """Coalesce a block of mutations into one generation bump.

        Code that grows an existing graph by many elements wraps the loop
        in ``with graph.batch():`` so the growth costs one generation (and
        one change-log record) instead of one per element.  Blocks nest;
        only the outermost exit commits.  A block that performed no
        structural change commits nothing.

        A block that raises after mutating still bumps the generation
        (the mutations *did* apply — adjacency and fingerprint already
        reflect them), but commits a conservative ``"remove"``/``"bulk"``
        record instead of the touched set: the caller aborted mid-way,
        so consumers must treat the partial state as an opaque change
        and rebuild.  The exception is re-raised.
        """
        self._batch_depth += 1
        if self._batch_depth == 1:
            self._batch_mutated = False
            self._batch_removal = False
            self._batch_touched = set()
        try:
            yield self
        except BaseException:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._batch_mutated:
                self._generation += 1
                self._append_log("remove" if self._batch_removal else "bulk", ())
                self._batch_touched = None
            raise
        self._batch_depth -= 1
        if self._batch_depth == 0 and self._batch_mutated:
            self._generation += 1
            if self._batch_removal:
                self._append_log("remove", ())
            elif self._batch_touched is None:
                self._append_log("bulk", ())
            else:
                self._append_log("add", tuple(self._batch_touched))
            self._batch_touched = None

    def changes_since(self, generation: int) -> Optional[List[Tuple[str, Tuple[Node, ...]]]]:
        """The ``(kind, nodes)`` records after ``generation``, oldest first.

        Returns ``None`` when the history is unknowable — ``generation``
        predates the log floor (records were dropped on overflow) or does
        not correspond to a state this graph has been in.  Consumers must
        then rebuild.  ``kind`` is ``"add"`` (nodes/edges added; ``nodes``
        lists every touched endpoint), ``"remove"`` (at least one
        removal), or ``"bulk"`` (an oversized batch recorded without a
        node list).
        """
        if generation == self._generation:
            return []
        if generation < self._log_floor or generation > self._generation:
            return None
        # The log holds one record per generation from the floor on.
        return [
            (kind, nodes)
            for _, kind, nodes in self._log[generation - self._log_floor:]
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` if not already present (idempotent)."""
        if node not in self._adj:
            self._adj[node] = set()
            if self._fp_xor is not None:
                self._fold(_node_token(node), 1)
            self._record("add", (node,))

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Raises
        ------
        ValueError
            If ``u == v`` (self-loops are not allowed in simple graphs).
        """
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        adj = self._adj
        live_fp = self._fp_xor is not None
        for node in (u, v):
            if node not in adj:
                adj[node] = set()
                if live_fp:
                    self._fold(_node_token(node), 1)
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            self._num_edges += 1
            self._nbr_cache.pop(u, None)
            self._nbr_cache.pop(v, None)
            if live_fp:
                self._fold(_edge_token(u, v), 1)
            # One atomic change (and one record) even when the edge also
            # created its endpoints — they are covered by (u, v).
            self._record("add", (u, v))

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges`` (one generation bump total)."""
        with self.batch():
            for u, v in edges:
                self.add_edge(u, v)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges.

        Raises
        ------
        KeyError
            If ``node`` is not in the graph.
        """
        neighbors = self._adj.pop(node)
        live_fp = self._fp_xor is not None
        for neighbor in neighbors:
            self._adj[neighbor].discard(node)
            self._nbr_cache.pop(neighbor, None)
            if live_fp:
                self._fold(_edge_token(node, neighbor), -1)
        self._num_edges -= len(neighbors)
        self._nbr_cache.pop(node, None)
        if live_fp:
            self._fold(_node_token(node), -1)
        self._record("remove", (node,))

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        KeyError
            If the edge is not present.
        """
        if v not in self._adj.get(u, ()):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._nbr_cache.pop(u, None)
        self._nbr_cache.pop(v, None)
        if self._fp_xor is not None:
            self._fold(_edge_token(u, v), -1)
        self._record("remove", (u, v))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone mutation counter; bumps once per structural change
        (or once per :meth:`batch` block).

        Derived-data caches key their validity on this: one built at
        generation ``g`` is stale exactly when ``graph.generation != g``.
        :class:`~repro.graphs.traversal.BallCache` then rebinds to its
        pool's table for the new structure; the clique-chain oracle
        reads :meth:`changes_since` to update only what the change
        touched.
        """
        return self._generation

    @property
    def fingerprint(self) -> Tuple[int, int]:
        """An order-independent structural fingerprint of the labeled graph.

        XOR and sum (mod 2^64) of per-node and per-edge hash tokens.  The
        first read computes it in one O(n + m) pass; from then on every
        mutation updates it in O(1).  The program reads it only for
        graphs a :class:`~repro.graphs.traversal.BallCache` serves, so
        views and induced balls never pay for it.  Two graphs built in
        different orders from the same nodes and edges fingerprint
        identically; collisions between *different* labeled graphs require
        simultaneous 64-bit XOR and sum collisions at equal node and edge
        counts (see :meth:`structural_key`) and are vanishingly unlikely.
        """
        if self._fp_xor is None:
            self._compute_fingerprint()
        return (self._fp_xor, self._fp_add)

    def _compute_fingerprint(self) -> None:
        fp_xor = fp_add = 0
        for node in self._adj:
            token = _node_token(node)
            fp_xor ^= token
            fp_add += token
        for u, v in self.edges():
            token = _edge_token(u, v)
            fp_xor ^= token
            fp_add += token
        self._fp_xor = fp_xor
        self._fp_add = fp_add & _FP_MASK

    def structural_key(self) -> Tuple[int, int, int, int]:
        """``(num_nodes, num_edges, *fingerprint)`` — the key under which
        shared caches pool structurally identical graphs."""
        return (len(self._adj), self._num_edges, *self.fingerprint)

    @property
    def num_nodes(self) -> int:
        """Number of nodes, the paper's ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (O(1); maintained incrementally)."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: Set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def adjacency(self) -> Dict[Node, Set[Node]]:
        """The raw adjacency mapping ``node -> set(neighbors)``.

        The accessor traversal hot loops read instead of reaching into
        ``_adj``: the BFS kernel in :mod:`repro.graphs.traversal` walks
        this mapping directly.  Treat the returned mapping (and its
        sets) as **read-only** — mutating it bypasses the generation
        counter, change log, and fingerprint that every cache keys on.
        """
        return self._adj

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """The neighbor set of ``node`` (memoized frozenset).

        The frozenset is cached per node and invalidated only when one of
        the node's incident edges changes, so BFS inner loops stop paying
        an O(deg) allocation per visit.

        Raises
        ------
        KeyError
            If ``node`` is not in the graph.
        """
        cached = self._nbr_cache.get(node)
        if cached is None:
            cached = frozenset(self._adj[node])
            self._nbr_cache[node] = cached
        return cached

    def degree(self, node: Node) -> int:
        """The degree of ``node``."""
        return len(self._adj[node])

    def max_degree(self) -> int:
        """The maximum degree Δ, or 0 for an empty graph."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        return v in self._adj.get(u, ())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The subgraph induced by ``nodes`` (the paper's ``G[U]``).

        Nodes not present in the graph are ignored silently; this matches
        the common idiom of inducing on a ball that was computed on the
        same graph.

        Kept nodes are inserted in the parent graph's insertion order, so
        derived structures keyed on node order (e.g. BFS visit order)
        are deterministic functions of the parent, not of set iteration.
        """
        requested = set(nodes)
        adj = self._adj
        keep = [node for node in adj if node in requested]
        edge_list: List[Edge] = []
        seen: Set[Node] = set()
        for u in keep:
            for v in adj[u]:
                # v is a node of this graph, so "requested" means "kept".
                if v in requested and v not in seen:
                    edge_list.append((u, v))
            seen.add(u)
        return Graph(nodes=keep, edges=edge_list)

    def copy(self) -> "Graph":
        """A deep copy (adjacency sets are duplicated).

        The copy carries the source's generation and fingerprint — caches
        keyed on either keep working — but starts a fresh change log, so
        ``changes_since`` on the copy only answers for post-copy history.
        """
        clone = Graph()
        clone._adj = {node: set(nbrs) for node, nbrs in self._adj.items()}
        clone._generation = self._generation
        clone._num_edges = self._num_edges
        clone._fp_xor = self._fp_xor
        clone._fp_add = self._fp_add
        clone._log_floor = self._generation
        return clone

    def relabel(self, mapping: Dict[Node, Node]) -> "Graph":
        """A new graph with every node ``u`` renamed to ``mapping[u]``.

        The mapping must be injective on the node set; nodes missing from
        the mapping keep their labels.

        Raises
        ------
        ValueError
            If the mapping collapses two nodes onto the same label.
        """
        new_labels = {node: mapping.get(node, node) for node in self._adj}
        if len(set(new_labels.values())) != len(new_labels):
            raise ValueError("relabel mapping is not injective on the node set")
        return Graph(
            nodes=new_labels.values(),
            edges=(
                (new_labels[u], new_labels[v]) for u, v in self.edges()
            ),
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
