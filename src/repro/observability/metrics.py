"""Process-local metrics: counters, gauges, and timing histograms.

The harness plays thousands of reveals per tournament but, before this
module, kept almost no numbers about them — and the few it did keep
(:class:`~repro.graphs.traversal.BallCache`'s hit counters) lived in
class globals that never crossed a multiprocessing boundary.  The
:class:`MetricsRegistry` fixes both problems:

* **Named instruments** — ``registry.inc("reveals_total")``,
  ``registry.observe("game_wall_seconds", 0.41)`` — are created lazily
  and returned as stable objects, so call sites never need set-up code.
* **Snapshot / merge** — :meth:`MetricsRegistry.snapshot` produces a
  plain JSON-able dict; :meth:`MetricsRegistry.merge` folds a snapshot
  back in.  Merge is associative and commutative (counters add, gauges
  keep the max, histograms add counts/sums and widen min/max), so
  parallel workers can ship their per-game snapshots to the parent in
  any order and the folded totals equal a serial run's.

Instrument names used across the harness (see ``docs/observability.md``):

==========================  ============================================
``reveals_total``           Online-LOCAL reveals (all simulator kinds)
``ball_cache_hits``         :class:`BallCache` memoized ball hits
``ball_cache_misses``       :class:`BallCache` BFS recomputations
``ball_cache_full_flushes``  :class:`BallCache` rebinds after its graph changed
``ball_cache_bucket_reattach``  shared-pool buckets repaired after LRU orphaning
``adversary_rounds``        b-value concatenation / commitment rounds
``supervisor_forfeits``     games decided by forfeit, not on the board
``local_outputs_total``     LOCAL-model node outputs computed
``slocal_steps_total``      SLOCAL sequential steps served
``gkm_emulations_total``    GKM ball emulations executed
``game_wall_seconds``       histogram of supervised game durations
``campaign_games_played``   campaign games actually played this run
``campaign_games_deduped``  campaign games answered from the result store
``campaign_game_retries``   supervised re-attempts inside campaign games
``campaign_game_errors``    campaign games that exhausted their retries
``campaign_worker_restarts``    pool workers respawned after a death/hang
``campaign_lease_expirations``  leases expired (hung worker SIGKILLed)
``campaign_games_requeued``     in-flight games requeued after worker loss
``campaign_games_quarantined``  poison games stored as forfeit rows
``campaign_pool_degradations``  pools that fell back to serial execution
``campaign_worker_heartbeats``  worker heartbeat acks received by the parent
``campaign_queue_depth``    gauge: max pending games observed by the pool
``campaign_in_flight``      gauge: max leased (in-flight) games observed
``phase_seconds.<phase>``   histograms: per-phase wall-clock attribution
                            (:mod:`repro.observability.timers`)
==========================  ============================================

The process-local default registry is reached through
:func:`get_registry`; :func:`scoped_registry` swaps in a fresh one for a
delimited stretch of work (one worker game, one benchmark config) and
restores the previous registry afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-set value with high-water-mark merge semantics.

    Merging snapshots keeps the maximum, which is the only choice that
    stays associative and commutative across arbitrarily ordered worker
    snapshots.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A streaming summary of observed values: count, sum, min, max."""

    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class MetricsRegistry:
    """A process-local collection of named instruments.

    Instruments are created on first use and the same object is returned
    on every subsequent request, so hot call sites may cache the handle
    or just call the :meth:`inc`/:meth:`observe` conveniences.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    # Conveniences for one-shot call sites.
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain JSON-able dict of every instrument's current state."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
                if g.value is not None
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.minimum,
                    "max": h.maximum,
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, gauges keep the maximum, histograms add counts and
        sums and widen min/max — all associative and commutative, so any
        merge order over any partition of the work yields identical
        totals.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if gauge.value is None or value > gauge.value:
                gauge.value = value
        for name, summary in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            hist.count += summary.get("count", 0)
            hist.total += summary.get("sum", 0.0)
            for bound, pick in (("min", min), ("max", max)):
                incoming = summary.get(bound)
                if incoming is None:
                    continue
                attr = "minimum" if bound == "min" else "maximum"
                current = getattr(hist, attr)
                setattr(
                    hist,
                    attr,
                    incoming if current is None else pick(current, incoming),
                )

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        for counter in self.counters.values():
            counter.value = 0
        for gauge in self.gauges.values():
            gauge.value = None
        for hist in self.histograms.values():
            hist.count = 0
            hist.total = 0.0
            hist.minimum = None
            hist.maximum = None


class _NullCounter(Counter):
    """A shared sink counter whose :meth:`inc` discards the increment."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    """A shared sink gauge whose :meth:`set` discards the value."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    """A shared sink histogram whose :meth:`observe` discards the value."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — the benchmark's reference point
    for measuring what the instrumentation itself costs.

    Both the name-based conveniences and the instrument getters are
    no-ops: the getters hand back shared sink instruments (never stored,
    so :meth:`~MetricsRegistry.snapshot` stays empty), which keeps
    :class:`BoundCounter` call sites suppressed too.
    """

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


#: The process-local default registry.
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The currently active registry (process-local)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


class BoundCounter:
    """A counter handle that re-binds itself to the active registry.

    The hottest call sites (every reveal, every ball query) run millions
    of times per sweep; going through ``get_registry().inc(name)`` each
    time pays a function call plus a dict lookup per event, which
    measurably drags the tracing-*off* configuration.  A module-level
    ``BoundCounter`` instead caches the underlying :class:`Counter` and
    pays only an identity check against the active registry per event,
    re-resolving whenever :func:`set_registry` / :func:`scoped_registry`
    swaps registries — so scoped workers and benchmarks still see
    exactly their own deltas, and a :class:`NullRegistry` (whose
    ``counter()`` returns a shared sink) still suppresses recording.
    """

    __slots__ = ("name", "_registry", "_counter")

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: Optional[MetricsRegistry] = None
        self._counter: Optional[Counter] = None

    def inc(self, amount: int = 1) -> None:
        registry = _registry
        if registry is not self._registry:
            self._counter = registry.counter(self.name)
            self._registry = registry
        self._counter.inc(amount)


class BoundHistogram:
    """A histogram handle that re-binds itself to the active registry.

    The phase timers (:mod:`repro.observability.timers`) observe a
    duration on every timed phase exit; like :class:`BoundCounter` they
    cache the underlying :class:`Histogram` and pay only an identity
    check against the active registry per observation, re-resolving
    whenever the registry is swapped.  A :class:`NullRegistry` (whose
    ``histogram()`` returns a shared sink) suppresses recording.
    """

    __slots__ = ("name", "_registry", "_histogram")

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: Optional[MetricsRegistry] = None
        self._histogram: Optional[Histogram] = None

    def observe(self, value: float) -> None:
        registry = _registry
        if registry is not self._registry:
            self._histogram = registry.histogram(self.name)
            self._registry = registry
        self._histogram.observe(value)


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Activate a fresh (or given) registry for the dynamic extent.

    Parallel workers scope each game so its snapshot is exactly that
    game's delta; benchmarks scope each configuration so repeated runs
    in one process never accumulate stale counts.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
