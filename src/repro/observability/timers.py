"""Phase-attribution timers: where does campaign wall-clock actually go?

``BENCH_tournament.json`` records multi-core campaigns at ~1× speedup,
and the ROADMAP blames per-game IPC — but until now nothing in the repo
could attribute a campaign's wall-clock to dispatch vs. pipe IPC vs.
worker compute vs. store fsync.  This module is that attribution layer:
named *phases* are timed with monotonic clocks and fed into registry
:class:`~repro.observability.metrics.Histogram` instruments, so the
per-worker snapshots merge associatively in the parent exactly like
every other metric and a finished campaign can print a phase table.

Design constraints (mirroring the tracer):

* **Off by default, ~free when off.**  A disabled :class:`PhaseTimer`
  pays one module-global check per ``with`` entry and never touches a
  clock; ``benchmarks/bench_observability.py`` holds the off-path
  overhead under 3% and the timers-on overhead under 5%.
* **BoundCounter-style handles.**  Call sites cache a module-level
  :func:`phase_timer` handle; on observation it re-binds to the active
  registry (:class:`~repro.observability.metrics.BoundHistogram`), so
  scoped workers and benchmarks see exactly their own deltas.
* **Scoped names across processes.**  Pool workers call
  :func:`set_phase_scope` (``"worker:"``) so their phases merge into the
  parent under distinct names — ``worker:compute`` is worker-side CPU,
  ``ack-drain`` is the parent waiting on pipes — which is precisely the
  IPC-vs-compute split the ROADMAP's scheduler rework needs.

Phases instrumented across the harness (see ``docs/observability.md``):

==================  ====================================================
``spec-expand``     campaign spec → GameSpec list expansion
``store-index``     ResultStore shard loads for dedupe/result lookups
``pipe-send``       parent dispatch (chunk pickling + pipe write); under
                    ``worker:`` the result-ack send
``ack-wait``        parent blocked waiting for any worker message — the
                    phase that *should* dominate a healthy parallel
                    campaign (workers computing while the parent idles)
``ack-drain``       parent reading + folding worker acks (recv, row and
                    metrics bookkeeping) — actual IPC cost, so the bench
                    gates it below 25% of parent wall-clock
``lease-sweep``     lease bookkeeping: health sweep, expiry, respawn
``pool-spawn``      forking worker processes
``compute``         playing the game (supervisor + simulators); recorded
                    as ``worker:compute`` in pool workers, bare in
                    serial runs
``store-fsync``     ResultStore row append + fsync
``ball-extract``    miss-path neighborhood-ball extraction (BFS sweep)
``worker:pipe-recv``  worker idle, waiting for the next leased game
==================  ====================================================

The sum of the *top-level* parent phases (:data:`TOP_LEVEL_PHASES`) must
account for ≥90% of a campaign's measured wall-clock —
:func:`attribution_coverage` computes that share, the campaign run
ledger records it, and ``benchmarks/bench_tournament.py`` gates on it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.observability.metrics import BoundHistogram

#: Registry-name prefix shared by every phase histogram.
PHASE_METRIC_PREFIX = "phase_seconds."

#: Scope prefix pool workers apply so their phases merge under distinct
#: names in the parent registry.
WORKER_SCOPE = "worker:"

#: Parent-side phases that partition a campaign run's wall-clock; their
#: sum over the run is the numerator of :func:`attribution_coverage`.
#: Worker-scoped phases are deliberately absent — worker processes run
#: concurrently with the parent, so adding their time would double count
#: (they overlap the parent's ``ack-drain`` wait).
TOP_LEVEL_PHASES = (
    "spec-expand",
    "store-index",
    "pool-spawn",
    "pipe-send",
    "ack-wait",
    "ack-drain",
    "lease-sweep",
    "compute",
    "store-fsync",
)

#: Off until :func:`set_phase_timers` or :func:`timed_phases` turns the
#: timers on (``repro campaign run``/``resume`` do, unless ``--no-timers``).
_enabled = False
_scope = ""
#: Bumped whenever the scope changes so cached handles re-derive their
#: metric names (scope changes are once-per-process events).
_scope_epoch = 0


def phase_timers_enabled() -> bool:
    """Whether phase timers are currently recording in this process."""
    return _enabled


def set_phase_timers(enabled: bool) -> bool:
    """Enable/disable the timers process-wide; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def set_phase_scope(scope: str) -> str:
    """Prefix every subsequently recorded phase name (``"worker:"``).

    Returns the previous scope.  Called once at pool-worker start so
    worker-side phases never collide with the parent's when their
    snapshots merge.
    """
    global _scope, _scope_epoch
    previous = _scope
    _scope = scope
    _scope_epoch += 1
    return previous


def get_phase_scope() -> str:
    """The scope prefix active in this process."""
    return _scope


@contextmanager
def timed_phases(enabled: bool = True) -> Iterator[None]:
    """Enable (or disable) the timers for a dynamic extent, restoring
    the previous state afterwards — the benchmark/test discipline."""
    previous = set_phase_timers(enabled)
    try:
        yield
    finally:
        set_phase_timers(previous)


class PhaseTimer:
    """A reusable timing handle for one named phase.

    Use as a context manager around the phase's code::

        _T_COMPUTE = phase_timer("worker-compute")
        with _T_COMPUTE:
            play(...)

    Entry checks one module global; when the timers are disabled no
    clock is read and exit is a single ``None`` test.  When enabled, the
    elapsed ``time.perf_counter`` interval is observed into the registry
    histogram ``phase_seconds.<scope><name>`` through a cached
    :class:`~repro.observability.metrics.BoundHistogram` (re-bound when
    the active registry or the scope changes).  Handles are not
    reentrant — nest *different* phases, never the same one.
    """

    __slots__ = ("name", "_epoch", "_bound", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self._epoch = -1
        self._bound: Optional[BoundHistogram] = None
        self._t0: Optional[float] = None

    def observe(self, seconds: float) -> None:
        """Record one measured interval (ignores the enabled flag —
        callers timing manually already paid the clock reads)."""
        if self._epoch != _scope_epoch:
            self._bound = BoundHistogram(
                PHASE_METRIC_PREFIX + _scope + self.name
            )
            self._epoch = _scope_epoch
        self._bound.observe(seconds)

    def __enter__(self) -> "PhaseTimer":
        self._t0 = time.perf_counter() if _enabled else None
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t0 = self._t0
        if t0 is not None:
            self._t0 = None
            self.observe(time.perf_counter() - t0)
        return False


class NullTimer:
    """The structural no-op timer: same interface, never records.

    Served where timing is configured away entirely (as opposed to a
    :class:`PhaseTimer` that is merely disabled right now).
    """

    __slots__ = ()

    def observe(self, seconds: float) -> None:
        pass

    def __enter__(self) -> "NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared sink instance.
NULL_TIMER = NullTimer()

_timers: Dict[str, PhaseTimer] = {}


def phase_timer(name: str) -> PhaseTimer:
    """The process-wide :class:`PhaseTimer` for ``name`` (created once;
    hot call sites should still cache the returned handle)."""
    timer = _timers.get(name)
    if timer is None:
        timer = _timers[name] = PhaseTimer(name)
    return timer


# ----------------------------------------------------------------------
# Attribution over snapshots
# ----------------------------------------------------------------------
def phase_attribution(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """Total seconds per phase from a registry snapshot.

    Keys keep their scope prefix (``worker:compute``); values are the
    histogram sums.  Input is the plain dict produced by
    :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`.
    """
    out: Dict[str, float] = {}
    for name, summary in snapshot.get("histograms", {}).items():
        if not name.startswith(PHASE_METRIC_PREFIX):
            continue
        out[name[len(PHASE_METRIC_PREFIX):]] = float(summary.get("sum", 0.0))
    return out


def phase_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    """Per-phase seconds accumulated between two attribution snapshots
    (how one campaign run isolates itself inside a shared registry)."""
    out: Dict[str, float] = {}
    for name, total in after.items():
        gained = total - before.get(name, 0.0)
        if gained > 0.0:
            out[name] = gained
    return out


def attribution_coverage(
    phases: Mapping[str, float], wall_seconds: float
) -> Optional[float]:
    """The share of ``wall_seconds`` the top-level parent phases account
    for (None when the wall-clock is degenerate).

    This is the honesty metric the bench gates on: attribution that
    explains only half the run is worse than none, because it invites
    optimizing the measured half while the real cost hides in the gap.
    """
    if wall_seconds <= 0.0:
        return None
    covered = sum(
        seconds
        for name, seconds in phases.items()
        if name in TOP_LEVEL_PHASES
    )
    return covered / wall_seconds
