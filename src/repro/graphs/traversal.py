"""Breadth-first traversal utilities: distances, balls, components.

These implement the paper's neighborhood notation: ``ball(G, U, T)`` is
:math:`\\mathcal{B}(U, T)`, the set of all nodes within distance ``T`` of
some node of ``U`` (Section 2).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.graphs.graph import Graph
from repro.observability.metrics import BoundCounter, get_registry

Node = Hashable

_BALL_HITS = BoundCounter("ball_cache_hits")
_BALL_MISSES = BoundCounter("ball_cache_misses")
_FULL_FLUSHES = BoundCounter("ball_cache_full_flushes")
_BUCKET_REATTACHES = BoundCounter("ball_cache_bucket_reattach")

#: Names of the registry counters the cache maintains, in reporting order.
_CACHE_COUNTERS = (
    "ball_cache_hits",
    "ball_cache_misses",
    "ball_cache_full_flushes",
    "ball_cache_bucket_reattach",
)


def _as_sources(sources: Union[Node, Iterable[Node]], graph: Graph) -> List[Node]:
    """Normalize a single node or an iterable of nodes into a list.

    Node labels may themselves be iterable (grid nodes are tuples), so a
    value that is a node of the graph is always treated as a single
    source.  A tuple or string that is *not* a node is a mistyped label,
    never a source collection — expanding ``(50, 50)`` element-wise
    either raises a baffling ``KeyError: 50`` or, on int-labeled
    families, silently computes the wrong multi-source ball — so those
    raise a :class:`KeyError` naming the missing node.  Only genuine
    collections (lists, sets, generators, ...) are expanded.
    """
    try:
        if sources in graph:
            return [sources]
        hashable = True
    except TypeError:
        hashable = False
    if isinstance(sources, (str, bytes, tuple)):
        raise KeyError(f"source node {sources!r} not in graph")
    if not isinstance(sources, Iterable):
        if hashable:
            raise KeyError(f"source node {sources!r} not in graph")
        raise TypeError(
            f"sources must be a node or an iterable of nodes, got {sources!r}"
        )
    candidates = list(sources)
    for node in candidates:
        if node not in graph:
            raise KeyError(f"source node {node!r} not in graph")
    return candidates


def _sweep(
    graph: Graph, srcs: List[Node], radius: Optional[int]
) -> Tuple[Set[Node], List[List[Node]]]:
    """The traversal kernel: a level-synchronous BFS over ``graph.adjacency()``.

    Visits the sources first, deduplicated in the order given, then each
    BFS level in adjacency order, and stops after level ``radius`` (or
    when a level comes up empty; ``None`` means no bound).  Returns
    ``(reached, levels)``: the visited nodes as a set filled in visit
    order, and ``levels[d]``, the nodes at distance ``d`` in visit order.
    """
    # Hot path: this loop dominates every simulator reveal.
    adj = graph.adjacency()
    reached: Set[Node] = set()
    frontier: List[Node] = []
    for source in srcs:
        if source not in reached:
            reached.add(source)
            frontier.append(source)
    levels = [frontier]
    while frontier and (radius is None or len(levels) <= radius):
        nxt: List[Node] = []
        for u in frontier:
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    nxt.append(v)
        levels.append(nxt)
        frontier = nxt
    return reached, levels


def bfs_distances(
    graph: Graph,
    sources: Union[Node, Iterable[Node]],
    max_dist: Optional[int] = None,
) -> Dict[Node, int]:
    """Multi-source BFS distances from ``sources``.

    Parameters
    ----------
    graph:
        The graph to traverse.
    sources:
        A node or iterable of nodes; distances are measured to the nearest
        source.
    max_dist:
        If given, traversal stops at this radius (nodes farther away are
        absent from the result).

    Returns
    -------
    dict
        ``node -> distance`` for every reached node (sources map to 0).
        Keys are inserted level by level: the sources in the order given,
        then each level in adjacency order.
    """
    _, levels = _sweep(graph, _as_sources(sources, graph), max_dist)
    dist: Dict[Node, int] = {}
    for d, level in enumerate(levels):
        dist.update(dict.fromkeys(level, d))
    return dist


def ball(graph: Graph, sources: Union[Node, Iterable[Node]], radius: int) -> Set[Node]:
    """The paper's :math:`\\mathcal{B}(U, T)`: all nodes within ``radius``.

    ``radius`` must be non-negative; ``ball(G, U, 0)`` is ``set(U)``.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return _sweep(graph, _as_sources(sources, graph), radius)[0]


class BallCache:
    """Memoized :func:`ball` queries over one graph.

    The simulators and adversaries recompute the same radius-T balls for
    every reveal and again during audits; on a fixed host that BFS work
    is identical each time.  Each ball is stored as a frozenset keyed by
    ``(source, radius)``.

    Storage is pooled process-wide by the graph's structural key
    (``(n, m, fingerprint)``): independently built but identical hosts —
    e.g. the same torus constructed by consecutive tournament games —
    share one ball table, so the second game's reveals hit immediately.
    The pool is LRU-bounded; :meth:`reset` clears it.

    Every game's host is fixed before its first ball query, so the cache
    carries no ball across a change to its graph: when
    :attr:`~repro.graphs.graph.Graph.generation` moves, it rebinds to the
    pooled table of the graph's new structure (a *full flush*).  That is
    sound because the pool is keyed by structure, and it means a graph
    that returns to an earlier structure finds that structure's table.

    Cached balls are **frozensets shared between callers** — treat them
    as immutable (every set-algebra reader in the codebase already does).
    Unhashable source specs (lists/sets of nodes) fall through to an
    uncached BFS.

    Instances count ``hits``/``misses``/``full_flushes``/bucket
    reattaches; the process-wide aggregates live in the active metrics
    registry (``ball_cache_hits``, ``ball_cache_misses``,
    ``ball_cache_full_flushes``, ``ball_cache_bucket_reattach``), so
    benchmarks can report hit rates without threading every simulator's
    cache out, and parallel sweeps ship worker counts back to the parent
    as registry snapshots.
    """

    #: Process-wide pool: structural key -> {(source, radius): frozenset}.
    _shared_store: "OrderedDict[tuple, Dict[tuple, FrozenSet[Node]]]" = OrderedDict()
    #: Distinct graph structures kept before LRU eviction.
    SHARED_STORE_CAPACITY = 128

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._generation = graph.generation
        self.hits = 0
        self.misses = 0
        self.full_flushes = 0
        self.bucket_reattaches = 0
        self._key = graph.structural_key()
        self._balls = self._bucket_for(self._key)

    @classmethod
    def _bucket_for(cls, key: tuple) -> Dict[tuple, FrozenSet[Node]]:
        """The shared ball table for one graph structure (LRU-tracked)."""
        store = cls._shared_store
        bucket = store.get(key)
        if bucket is None:
            bucket = {}
            store[key] = bucket
            if len(store) > cls.SHARED_STORE_CAPACITY:
                store.popitem(last=False)
        else:
            store.move_to_end(key)
        return bucket

    def _reattach_bucket(self) -> None:
        """Repair a bucket orphaned by the pool's LRU eviction.

        :meth:`_bucket_for` can evict a bucket a live cache still holds
        as ``self._balls``; the orphan keeps serving *this* cache
        correctly but new caches for the same structural key start
        empty, silently losing cross-game sharing.  Called on every miss
        (one dict lookup, dwarfed by the BFS the miss already pays):
        re-inserts the orphan — or, when another cache already re-created
        the bucket, merges into and adopts the pooled one — and counts
        the repair in ``ball_cache_bucket_reattach``.
        """
        store = type(self)._shared_store
        pooled = store.get(self._key)
        if pooled is self._balls:
            return
        if pooled is None:
            store[self._key] = self._balls
            if len(store) > self.SHARED_STORE_CAPACITY:
                store.popitem(last=False)
        else:
            # Both tables hold sound balls for the same structure; fold
            # the orphan's entries in and share the pooled dict from now on.
            pooled.update(self._balls)
            self._balls = pooled
        self.bucket_reattaches += 1
        _BUCKET_REATTACHES.inc()

    def _sync(self) -> None:
        """Rebind to the pooled table of the graph's current structure."""
        self._key = self.graph.structural_key()
        self._balls = self._bucket_for(self._key)
        self._generation = self.graph.generation
        self.full_flushes += 1
        _FULL_FLUSHES.inc()

    def ball(
        self, sources: Union[Node, Iterable[Node]], radius: int
    ) -> FrozenSet[Node]:
        """A (possibly cached) :func:`ball`; same semantics, frozen result."""
        if self.graph.generation != self._generation:
            self._sync()
        try:
            key = (sources, radius)
            cached = self._balls.get(key)
        except TypeError:  # unhashable source collection: compute uncached
            return frozenset(ball(self.graph, sources, radius))
        if cached is not None:
            self.hits += 1
            _BALL_HITS.inc()
            return cached
        self.misses += 1
        _BALL_MISSES.inc()
        self._reattach_bucket()
        result = frozenset(ball(self.graph, sources, radius))
        self._balls[key] = result
        return result

    def stats(self) -> Dict[str, float]:
        """This cache's counters and hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "full_flushes": self.full_flushes,
            "bucket_reattaches": self.bucket_reattaches,
        }

    def __len__(self) -> int:
        return len(self._balls)

    @classmethod
    def global_stats(cls) -> Dict[str, float]:
        """Aggregate counters across every cache recorded in the active
        metrics registry."""
        registry = get_registry()
        hits = registry.counter("ball_cache_hits").value
        misses = registry.counter("ball_cache_misses").value
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "full_flushes": registry.counter("ball_cache_full_flushes").value,
            "bucket_reattaches": registry.counter("ball_cache_bucket_reattach").value,
        }

    @classmethod
    def clear_shared_store(cls) -> None:
        """Drop every pooled ball table (counters are left alone)."""
        cls._shared_store.clear()

    @classmethod
    def reset(cls) -> None:
        """Zero the registry-held aggregate counters and drop the shared
        ball pool.

        Benchmarks call this between configurations so repeated runs in
        one process never accumulate stale counts or pre-warmed balls.
        """
        registry = get_registry()
        for name in _CACHE_COUNTERS:
            registry.counter(name).value = 0
        cls.clear_shared_store()


def connected_components(graph: Graph) -> List[Set[Node]]:
    """All connected components, each as a set of nodes."""
    remaining: Set[Node] = set(graph.nodes())
    components: List[Set[Node]] = []
    while remaining:
        start = next(iter(remaining))
        component = set(bfs_distances(graph, start))
        components.append(component)
        remaining -= component
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.num_nodes == 0:
        return True
    start = next(iter(graph.nodes()))
    return len(bfs_distances(graph, start)) == graph.num_nodes


def shortest_path(graph: Graph, source: Node, target: Node) -> Optional[List[Node]]:
    """A shortest path from ``source`` to ``target`` (inclusive), or None.

    Returns ``[source]`` when ``source == target``.
    """
    if source not in graph or target not in graph:
        raise KeyError("source and target must be nodes of the graph")
    if source == target:
        return [source]
    parent: Dict[Node, Node] = {source: source}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in graph.neighbors(u):
            if v in parent:
                continue
            parent[v] = u
            if v == target:
                path = [v]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            frontier.append(v)
    return None


def eccentricity(graph: Graph, node: Node) -> int:
    """Maximum distance from ``node`` to any reachable node."""
    return max(bfs_distances(graph, node).values())


def diameter(graph: Graph) -> int:
    """Exact diameter of a connected graph (O(n·m); intended for tests).

    Raises
    ------
    ValueError
        If the graph is empty or disconnected.
    """
    if graph.num_nodes == 0:
        raise ValueError("diameter of the empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("diameter is undefined for a disconnected graph")
    return max(eccentricity(graph, node) for node in graph.nodes())
