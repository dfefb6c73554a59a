"""Span recording for the benchmark's traced runs.

The traced run times the program layer by layer without changing the
program: :func:`install` wraps the public functions listed in
:data:`LAYER_FUNCTIONS` from outside, and every call through a wrapper
records one span ``(id, parent, name, game, start, end)`` in memory.
Spans are written out once, when the traced process finishes
(:meth:`SpanRecorder.write`), and folded into per-layer self times by
:func:`layer_totals`.

A layer's *self time* is the time its spans cover minus the time their
child spans cover, so nested layers (a victim step inside a simulator
reveal inside an adversary move) are never counted twice.  All spans of
one game carry the game's index; :meth:`SpanRecorder.write` maps that
index to the game's content hash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: ``(layer, module, attribute)`` for every function the traced run
#: wraps.  Attributes are module-level functions or ``Class.method``.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("adversaries", "repro.adversaries.grid", "GridAdversary.run"),
    ("adversaries", "repro.adversaries.torus", "TorusAdversary.run"),
    ("adversaries", "repro.adversaries.gadget", "GadgetAdversary.run"),
    ("adversaries", "repro.adversaries.path_builder", "PathBuilder.build"),
    ("models", "repro.models.adaptive", "FloatingGridInstance.reveal"),
    ("models", "repro.models.adaptive", "FloatingGridInstance.reveal_committed"),
    ("models", "repro.models.adaptive", "FloatingGridInstance.merge"),
    ("models", "repro.models.adaptive", "FloatingGridInstance.commit"),
    ("models", "repro.models.adaptive", "LateAutomorphismInstance.reveal"),
    ("models", "repro.models.adaptive",
     "LateAutomorphismInstance.reveal_in_fragment"),
    ("models", "repro.models.adaptive",
     "LateAutomorphismInstance.commit_fragment"),
    ("models", "repro.models.online_local", "OnlineLocalSimulator.reveal"),
    ("models", "repro.models.base", "ViewTracker.reveal"),
    ("models", "repro.models.simulation", "LocalAsOnline.step"),
    ("core", "repro.core.baselines", "GreedyOnlineColorer.step"),
    ("core", "repro.core.baselines", "CanonicalLocalColorer.color"),
    ("core", "repro.core.akbari", "AkbariBipartiteColoring.step"),
    ("core", "repro.core.unify", "UnifyColoring.step"),
    # The Theorem 5 reduction's victim: the reduced hierarchy colorer.
    ("core", "repro.adversaries.reduction", "HierarchyReduction.step"),
    ("oracles", "repro.oracles.clique_chain", "CliqueChainOracle.infer"),
    ("graphs", "repro.graphs.traversal", "BallCache.ball"),
    ("graphs", "repro.graphs.traversal", "ball"),
    ("graphs", "repro.graphs.traversal", "bfs_distances"),
    ("verify", "repro.verify.coloring", "find_monochromatic_edge"),
    ("verify", "repro.verify.gadget_props", "classify_gadget"),
    ("verify", "repro.models.adaptive", "FloatingGridInstance.audit"),
    ("verify", "repro.models.adaptive", "LateAutomorphismInstance.audit"),
    ("supervisor", "repro.robustness.supervisor", "SupervisedGame.run"),
    ("supervisor", "repro.robustness.supervisor", "SupervisedAlgorithm.step"),
    ("executor", "repro.analysis.executor", "play_spec"),
    ("campaign", "repro.analysis.campaign", "run_campaign"),
    ("campaign", "repro.analysis.campaign", "run_threshold_search"),
    ("campaign", "repro.analysis.campaign", "CampaignScheduler.run"),
    ("campaign", "repro.analysis.campaign", "hash_of"),
    ("campaign", "repro.analysis.campaign", "covered_rows"),
    ("store", "repro.analysis.store", "ResultStore.add_many"),
    ("store", "repro.analysis.store", "ResultStore.rows"),
    ("store", "repro.analysis.store", "ResultStore.index"),
    ("worker_pool", "repro.analysis.worker_pool", "SupervisedWorkerPool.run"),
    ("server", "repro.server.routes", "read_request"),
    ("server", "repro.server.routes", "json_response"),
    ("server", "repro.server.routes", "Response.encode"),
)

#: Every layer name, in reporting order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_FUNCTIONS))

#: The span name of the per-game entry point (coverage is measured
#: inside it).
GAME_SPAN = "executor:play_spec"

#: Functions that call themselves (``build`` recurses once per level);
#: their spans cover the outermost call only.
RECURSIVE = frozenset({"adversaries:PathBuilder.build"})

#: Ball-cache counters summed from the metric snapshots ``play_spec``
#: returns.
BALL_COUNTERS = ("ball_cache_hits", "ball_cache_misses", "ball_cache_shm_hits")

#: Doubles per span record: id, parent, name, game, start, end.
_FIELDS = 6


class _ThreadSpans:
    """One thread's stack of open span ids and its finished spans.

    Records are six doubles per span (id, parent, name, game, start,
    end) in a flat ``array('d')``, so recording allocates no tracked
    object and does not drive the garbage collector.
    """

    __slots__ = ("ids", "records")

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.records = array("d")


class SpanRecorder:
    """In-memory span store shared by every wrapper of one process.

    Each thread records into its own :class:`_ThreadSpans`, so a span's
    parent is the innermost open span of the same thread and executor
    threads never interleave their records.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._threads: List[_ThreadSpans] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: Index of the game ``play_spec`` is playing (-1 outside games).
        self.game = -1
        #: The spec of every game played, by game index.
        self.games: List[Any] = []
        #: Ball-cache counters summed over the games' metric snapshots.
        self.counters: Dict[str, float] = {name: 0.0 for name in BALL_COUNTERS}
        #: Rows handed to ``ResultStore.add_many``, summed over calls.
        self.rows_written = 0
        #: Span name -> the unwrapped function (filled by :func:`install`).
        self.originals: Dict[str, Callable] = {}

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _thread(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            self._threads.append(state)
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A span-recording stand-in for ``fn``."""
        name_id = float(self._name_id(name))
        ids, perf, thread = self._ids, time.perf_counter, self._thread

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one thread, so they never become
            # parents: their spans are roots and the stack is untouched.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                ident = next(ids)
                start = perf()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf()
                    records = thread().records
                    records.append(ident)
                    records.append(-1.0)
                    records.append(name_id)
                    records.append(-1.0)
                    records.append(start)
                    records.append(end)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = thread()
            stack = state.ids
            ident = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(ident)
            game = self.game
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                records = state.records
                records.append(ident)
                records.append(parent)
                records.append(name_id)
                records.append(game)
                records.append(start)
                records.append(end)

        return wrapper

    def wrap_recursive(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, for a function that calls itself: only the
        outermost call records a span, and the inner calls pay one
        counter test.  Game code runs on one thread, so a plain counter
        suffices."""
        inner = self.wrap(name, fn)
        depth = [0]

        @functools.wraps(fn)
        def recursive_wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] = 0

        return recursive_wrapper

    def wrap_game(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, for ``play_spec``: numbers the game, so
        every span inside it carries the game's index, and sums the
        ball-cache counters of the metric snapshot the game returns."""
        inner = self.wrap(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def game_wrapper(spec, *args, **kwargs):
            self.game = len(self.games)
            self.games.append(spec)
            try:
                result = inner(spec, *args, **kwargs)
            finally:
                self.game = -1
            snapshot = getattr(result, "metrics", None) or {}
            for counter in BALL_COUNTERS:
                counters[counter] += snapshot.get("counters", {}).get(counter, 0)
            return result

        return game_wrapper

    def wrap_store_write(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, for ``ResultStore.add_many``: also counts
        the rows each write carries."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def write_wrapper(store, rows, *args, **kwargs):
            self.rows_written += len(rows)
            return inner(store, rows, *args, **kwargs)

        return write_wrapper

    # ------------------------------------------------------------------
    def spans(self) -> Iterable[Tuple[int, int, str, int, float, float]]:
        """Every recorded span as ``(id, parent, name, game, start, end)``."""
        names = self.names
        for state in self._threads:
            records = state.records
            for offset in range(0, len(records), _FIELDS):
                ident, parent, name, game, start, end = records[offset:offset + _FIELDS]
                yield int(ident), int(parent), names[int(name)], int(game), start, end

    def write(self, path: str, game_id: Callable[[Any], str]) -> None:
        """Write every span as one JSON line; ``game_id`` maps a game's
        spec to the content hash its spans share."""
        ids = [game_id(spec) for spec in self.games]
        quoted = [json.dumps(game) for game in ids]
        with open(path, "w", encoding="utf-8") as handle:
            for ident, parent, name, game, start, end in self.spans():
                handle.write(
                    f'{{"id":{ident},"parent":{parent if parent >= 0 else "null"},'
                    f'"name":"{name}","game":{quoted[game] if game >= 0 else "null"},'
                    f'"start":{start:.7f},"end":{end:.7f}}}\n'
                )


def _rebind(original: Any, replacement: Any) -> None:
    """Point every module-level name bound to ``original`` at
    ``replacement``: ``from x import f`` copies ``f`` by value, so
    patching the defining module alone would miss those callers."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = replacement


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every function of :data:`LAYER_FUNCTIONS` with ``recorder``.
    Call before the program runs any game; returns a function that
    restores the unwrapped originals."""
    patched = []
    for layer, module_name, attribute in LAYER_FUNCTIONS:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        name = f"{layer}:{attribute}"
        if name == GAME_SPAN:
            replacement = recorder.wrap_game(name, original)
        elif name in RECURSIVE:
            replacement = recorder.wrap_recursive(name, original)
        elif attribute == "ResultStore.add_many":
            replacement = recorder.wrap_store_write(name, original)
        else:
            replacement = recorder.wrap(name, original)
        setattr(owner, leaf, replacement)
        _rebind(original, replacement)
        recorder.originals[name] = original
        patched.append((owner, leaf, original, replacement))

    def uninstall() -> None:
        for owner, leaf, original, replacement in reversed(patched):
            setattr(owner, leaf, original)
            _rebind(replacement, original)

    return uninstall


# ----------------------------------------------------------------------
# Folding spans into per-layer numbers
# ----------------------------------------------------------------------


def span_totals(
    spans: Iterable[Tuple[int, int, str, int, float, float]],
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (summed duration) and
    ``self_s`` (duration minus the time child spans cover)."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, Dict[str, float]] = {}
    for ident, _, name, _, start, end in spans:
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(ident, 0.0)
    return totals


def layer_totals(
    by_name: Mapping[str, Mapping[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Fold :func:`span_totals` into layers (``calls``, ``self_s``)."""
    out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, entry in by_name.items():
        layer = name.split(":", 1)[0]
        out[layer]["calls"] += entry["calls"]
        out[layer]["self_s"] += entry["self_s"]
    return out


def game_coverage(by_name: Mapping[str, Mapping[str, float]]) -> Optional[float]:
    """The share of time inside ``play_spec`` spent in named layers
    below it: 1 - self/total of the game span (None without games)."""
    entry = by_name.get(GAME_SPAN)
    if not entry or entry["total_s"] <= 0:
        return None
    return 1.0 - entry["self_s"] / entry["total_s"]
