"""One instrumentation primitive: :func:`span` and :func:`event`.

The paper's lower bounds are adaptive *processes* — to understand why
an adversary defeats a victim you need the reveal sequence, the b-value
evolution, and the commitment decisions, not just the final verdict;
to understand where a campaign's wall-clock went you need its phases.
Every instrumented harness site goes through two calls, and one rule
decides where each measurement lands:

* :func:`span` brackets a stretch of work (``"game"``, ``"ack-wait"``,
  ``"store-fsync"``).  It **always** records its wall-clock into the
  registry histogram ``phase_seconds.<scope><name>``, so every run
  ledger carries its phase split.  **While tracing** it also writes a
  ``span-start`` record and a ``span-end`` record carrying ``seconds``,
  the body's :meth:`Span.note` fields, and ``status="error"`` /
  ``error_type`` when the body raises.  A span entered before tracing
  turned on writes neither.
* :func:`event` marks one transition (``"worker-spawned"``,
  ``"fault"``).  It **always** goes into the flight-recorder ring
  (:data:`~repro.observability.flightrec.FLIGHT`), and **while
  tracing** it is also written as an ``event`` record stamped with the
  innermost open span (``in_span``) — how ``repro stats`` groups
  reveals per game.  No span feeds the ring, so per-message phases
  never push the pool's history out of it.

The game-level events of the simulators and adversaries (``reveal``,
``bvalue-round``, …) are trace-only and run millions of times, so they
keep the one-attribute guard ``if TRACER.enabled: TRACER.event(...)``;
``benchmarks/bench_observability.py`` holds that path under 3%.

A final ``metrics`` record holding a
:meth:`~repro.observability.metrics.MetricsRegistry.snapshot` is
appended when :func:`tracing` exits, so one trace file carries both the
event stream and the aggregate counters.

Files are written append-only, one self-contained JSON object per line,
flushed per record — the same kill-safety discipline as
:class:`~repro.robustness.journal.SweepJournal`, whose tolerant loader
and shard/merge machinery this module reuses: a kill mid-write loses at
most the in-flight record, a partial trailing line is skipped on load
and repaired before the next append, and parallel workers write
``<trace>.shard-<pid>`` files that :func:`merge_trace_shards` folds into
the main trace.

The phases instrumented across the harness (``spec-expand``,
``ack-wait``, ``compute``, ``game``, ...) are tabulated in
``docs/observability.md``.

The sum of the *top-level* parent phases (:data:`TOP_LEVEL_PHASES`)
accounts for a campaign's measured wall-clock; :func:`attribution_coverage`
computes that share, the run ledger records it, and
``benchmarks/bench_tournament.py`` gates it at ≥90%.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.observability.flightrec import FLIGHT
from repro.observability.metrics import BoundHistogram
from repro.robustness.journal import SweepJournal

#: Fields identifying one trace record across shard merges: the writing
#: process plus its per-process sequence number.
TRACE_KEY_FIELDS = ("src", "seq")

#: Per-process sequence numbers, shared by every recorder the process
#: opens, so ``(src, seq)`` stays unique even when one worker records
#: many games through separate recorder instances.
_SEQUENCE = itertools.count()

#: Registry-name prefix shared by every span's histogram.
PHASE_METRIC_PREFIX = "phase_seconds."

#: Scope prefix pool workers apply so their phases merge under distinct
#: names in the parent registry.
WORKER_SCOPE = "worker:"

#: Parent-side phases that partition a campaign run's wall-clock; their
#: sum over the run is the numerator of :func:`attribution_coverage`.
#: Worker-scoped phases are deliberately absent — worker processes run
#: concurrently with the parent, so adding their time would double count
#: (they overlap the parent's ``ack-wait``) — and so are the spans that
#: nest others (``campaign``, ``worker-pool``, ``game``).
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


class JsonlTraceRecorder:
    """Appends trace records to a JSON-lines file, one flush per record.

    Open recorders keep their file handle; records are stamped with the
    writing process id (``src``) and a process-unique sequence number
    (``seq``).  Appending to a file whose previous writer was killed
    mid-line first repairs the missing newline, exactly like
    :meth:`SweepJournal.append`.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._src = os.getpid()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        repair = ""
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    repair = "\n"
        self._handle = open(self.path, "a", encoding="utf-8")
        if repair:
            self._handle.write(repair)
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        record = dict(record)
        record["src"] = self._src
        record["seq"] = next(_SEQUENCE)
        self._handle.write(
            json.dumps(record, sort_keys=True, default=str) + "\n"
        )
        self._handle.flush()
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class Tracer:
    """The process-local trace sink.

    Disabled by default; :meth:`activate` attaches a recorder and flips
    :attr:`enabled`, which is the single attribute the hot paths check.
    Records come only from the thread that activated it, so a server
    thread reading the store never lands inside a campaign's trace.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._recorder: Optional[JsonlTraceRecorder] = None
        self._thread: Optional[int] = None
        self._spans = itertools.count()
        self._open_spans: List[int] = []

    def activate(self, recorder: JsonlTraceRecorder) -> None:
        if self.enabled:
            raise RuntimeError(
                f"tracing already active on {self._recorder.path!r}"
            )
        self._recorder = recorder
        self._thread = threading.get_ident()
        self._open_spans = []
        self.enabled = True

    def deactivate(self) -> Optional[JsonlTraceRecorder]:
        """Detach and close the recorder; returns it (already closed)."""
        recorder = self._recorder
        self.enabled = False
        self._recorder = None
        self._open_spans = []
        if recorder is not None:
            recorder.close()
        return recorder

    def _recording(self) -> bool:
        return self.enabled and threading.get_ident() == self._thread

    def event(self, kind: str, **fields: Any) -> None:
        """Write one event record (no-op when disabled)."""
        if not self._recording():
            return
        record = {"type": "event", "kind": kind, **fields}
        if self._open_spans:
            record["in_span"] = self._open_spans[-1]
        self._recorder.write(record)

    def start_span(self, kind: str, fields: Mapping[str, Any]) -> Optional[int]:
        """Write a span's start record; returns its id (None when not
        recording, in which case the span writes no end record)."""
        if not self._recording():
            return None
        span_id = next(self._spans)
        self._recorder.write(
            {"type": "span-start", "kind": kind, "span": span_id, **fields}
        )
        self._open_spans.append(span_id)
        return span_id

    def end_span(
        self, span_id: int, kind: str, seconds: float, notes: Mapping[str, Any]
    ) -> None:
        """Write a span's end record, unless its recorder has since been
        replaced (the id is then no longer open)."""
        if span_id not in self._open_spans:
            return
        self._open_spans.remove(span_id)
        self._recorder.write(
            {
                "type": "span-end",
                "kind": kind,
                "span": span_id,
                "seconds": round(seconds, 6),
                **notes,
            }
        )

    def metrics(self, snapshot: Dict[str, Any]) -> None:
        """Write a metrics-registry snapshot (no-op when disabled)."""
        if not self._recording():
            return
        self._recorder.write({"type": "metrics", "snapshot": snapshot})


#: The module singleton every instrumented call site goes through.
TRACER = Tracer()

# A fork-started pool worker must not write through the recorder it
# inherited from a traced parent: its records would carry the parent's
# pid and reuse the parent's sequence numbers.
os.register_at_fork(after_in_child=TRACER.deactivate)

_scope = ""
#: One histogram handle per span name under the current scope.
_histograms: Dict[str, BoundHistogram] = {}


def set_phase_scope(scope: str) -> str:
    """Prefix every subsequently recorded span histogram (``"worker:"``).

    Returns the previous scope.  Called once at pool-worker start so
    worker-side phases never collide with the parent's when their
    snapshots merge.
    """
    global _scope
    previous = _scope
    _scope = scope
    _histograms.clear()
    return previous


class Span:
    """One stretch of work; :func:`span` returns it for a ``with``.

    After the body, :attr:`seconds` holds the measured wall-clock.
    """

    __slots__ = ("name", "fields", "notes", "seconds", "_id", "_started")

    def __init__(self, name: str, fields: Dict[str, Any]) -> None:
        self.name = name
        self.fields = fields
        self.notes: Dict[str, Any] = {}
        self.seconds: Optional[float] = None

    def note(self, **fields: Any) -> None:
        """Attach outcome fields, known only after the work ran, to the
        end record."""
        self.notes.update(fields)

    def __enter__(self) -> "Span":
        self._id = TRACER.start_span(self.name, self.fields)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = seconds = time.perf_counter() - self._started
        histogram = _histograms.get(self.name)
        if histogram is None:
            histogram = _histograms[self.name] = BoundHistogram(
                PHASE_METRIC_PREFIX + _scope + self.name
            )
        histogram.observe(seconds)
        if self._id is not None:
            if exc_type is not None:
                # A vanished end record is indistinguishable from a
                # kill; explicit notes win over the inferred status.
                self.notes.setdefault("status", "error")
                self.notes.setdefault("error_type", exc_type.__name__)
            TRACER.end_span(self._id, self.name, seconds, self.notes)
        return False


def span(name: str, /, **fields: Any) -> Span:
    """Time a stretch of work: ``with span("ack-wait"): ...``.

    Spans nest, but a name must not nest inside itself.
    """
    return Span(name, fields)


def event(kind: str, /, **fields: Any) -> None:
    """Record one transition into the flight ring and, while tracing,
    the trace."""
    FLIGHT.record(kind, **fields)
    if TRACER.enabled:
        TRACER.event(kind, **fields)


@contextmanager
def tracing(path, append: bool = False) -> Iterator[JsonlTraceRecorder]:
    """Activate tracing to ``path`` for the dynamic extent.

    On exit, the active metrics registry's snapshot is appended as a
    final ``metrics`` record (so ``repro.cli stats`` can report cache
    hit rates from the trace alone) and the recorder is closed.  Unless
    ``append`` is set, an existing file at ``path`` is removed first —
    a trace file describes one run.
    """
    from repro.observability.metrics import get_registry

    path = os.fspath(path)
    if not append and os.path.exists(path):
        os.remove(path)
    recorder = JsonlTraceRecorder(path)
    TRACER.activate(recorder)
    try:
        yield recorder
    finally:
        TRACER.metrics(get_registry().snapshot())
        TRACER.deactivate()


@contextmanager
def shard_recording(trace_path) -> Iterator[None]:
    """Record this process's spans and events to its shard of
    ``trace_path`` for the dynamic extent, unless ``trace_path`` is None
    or a tracer is already active (a traced campaign's serial games
    write through the campaign's recorder).  The recorder closes on
    every exit path; the caller merges the shards."""
    activate = trace_path is not None and not TRACER.enabled
    if activate:
        TRACER.activate(
            JsonlTraceRecorder(shard_path(trace_path, os.getpid()))
        )
    try:
        yield
    finally:
        if activate:
            TRACER.deactivate()


def read_trace(path) -> List[Dict[str, Any]]:
    """Every complete record of a trace file, in write order.

    Reuses the journal's tolerant loader: partial trailing lines (a kill
    landed mid-write) are skipped, not fatal.
    """
    return SweepJournal(path, TRACE_KEY_FIELDS).load()


def merge_trace_shards(path) -> int:
    """Fold worker shard files (``<path>.shard-*``) into the main trace.

    Returns the number of records merged.  Deduplication is by
    ``(src, seq)``, so re-merging after a kill mid-merge is safe.
    """
    return SweepJournal(path, TRACE_KEY_FIELDS).merge_shards()


def shard_path(path, worker_id) -> str:
    """The shard file a worker process should record to."""
    return f"{os.fspath(path)}.shard-{worker_id}"


# ----------------------------------------------------------------------
# Attribution over snapshots
# ----------------------------------------------------------------------
def phase_attribution(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """Total seconds per phase from a registry snapshot.

    Keys keep their scope prefix (``worker:compute``); values are the
    histogram sums.
    """
    out: Dict[str, float] = {}
    for name, summary in snapshot.get("histograms", {}).items():
        if name.startswith(PHASE_METRIC_PREFIX):
            out[name[len(PHASE_METRIC_PREFIX):]] = float(summary.get("sum", 0.0))
    return out


def attribution_coverage(
    phases: Mapping[str, float], wall_seconds: float
) -> Optional[float]:
    """The share of ``wall_seconds`` the top-level parent phases account
    for (None when the wall-clock is degenerate).

    Attribution that explains only half the run is worse than none: it
    invites optimizing the measured half while the real cost hides in
    the gap.
    """
    if wall_seconds <= 0.0:
        return None
    covered = sum(
        seconds for name, seconds in phases.items() if name in TOP_LEVEL_PHASES
    )
    return covered / wall_seconds
