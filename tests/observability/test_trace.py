"""Tests for the one instrumentation primitive (``span``/``event`` and
their fan-out rule), the trace recorder's round-trips, kill-safety and
shard merges, and the phase attribution over registry snapshots."""

import json

import pytest

from repro.observability.flightrec import FLIGHT
from repro.observability.metrics import MetricsRegistry, scoped_registry
from repro.observability.trace import (
    PHASE_METRIC_PREFIX,
    TOP_LEVEL_PHASES,
    TRACER,
    WORKER_SCOPE,
    JsonlTraceRecorder,
    attribution_coverage,
    event,
    merge_trace_shards,
    phase_attribution,
    read_trace,
    set_phase_scope,
    shard_path,
    span,
    tracing,
)


@pytest.fixture(autouse=True)
def _tracer_is_quiescent():
    """Every test starts and must end with the tracer disabled."""
    assert not TRACER.enabled
    yield
    if TRACER.enabled:  # pragma: no cover - cleanup after a failed test
        TRACER.deactivate()
        pytest.fail("test leaked an active tracer")


def test_disabled_tracer_is_a_no_op():
    TRACER.event("reveal", node=(0, 0))
    with span("game", adversary="x") as game:
        game.note(reason="ok")
    # Nothing raised, no recorder attached.
    assert not TRACER.enabled


# ----------------------------------------------------------------------
# The fan-out rule
# ----------------------------------------------------------------------


def _trace_records(path):
    return [r for r in read_trace(path) if r["type"] != "metrics"]


def test_span_untraced_records_histogram_only():
    with scoped_registry() as registry:
        with span("busy", adversary="x") as busy:
            busy.note(reason="ok")
        with span("busy"):
            pass
        summary = registry.snapshot()["histograms"][PHASE_METRIC_PREFIX + "busy"]
    assert summary["count"] == 2
    assert summary["sum"] >= busy.seconds >= 0.0
    assert not TRACER.enabled


def test_span_traced_records_histogram_and_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    with scoped_registry() as registry:
        with tracing(path):
            with span("busy", adversary="x") as busy:
                busy.note(reason="ok")
        histogram = registry.snapshot()["histograms"][PHASE_METRIC_PREFIX + "busy"]
    assert histogram["count"] == 1
    start, end = _trace_records(path)
    assert (start["type"], start["kind"], start["adversary"]) == (
        "span-start", "busy", "x",
    )
    assert (end["type"], end["kind"], end["reason"]) == ("span-end", "busy", "ok")
    assert end["span"] == start["span"]
    assert end["seconds"] == round(busy.seconds, 6)
    assert "status" not in end


def test_span_entered_before_tracing_writes_no_records(tmp_path):
    """A span opened while tracing was off stays untraced even if a
    recorder turns on (and off) inside it — the worker's ``compute``
    span around a game that records its own trace."""
    path = tmp_path / "t.jsonl"
    with scoped_registry() as registry:
        with span("compute"):
            with tracing(path):
                with span("game"):
                    pass
        histograms = registry.snapshot()["histograms"]
    assert [(r["type"], r["kind"]) for r in _trace_records(path)] == [
        ("span-start", "game"), ("span-end", "game"),
    ]
    assert histograms[PHASE_METRIC_PREFIX + "compute"]["count"] == 1


def test_span_outliving_its_recorder_writes_no_end(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    with tracing(first):
        outer = span("outer")
        outer.__enter__()
    with tracing(second):
        outer.__exit__(None, None, None)
    assert [r["type"] for r in _trace_records(first)] == ["span-start"]
    assert _trace_records(second) == []


def test_event_untraced_goes_to_the_ring_only():
    FLIGHT.clear()
    event("worker-spawned", worker=0, pid=123)
    (recorded,) = FLIGHT.events()
    assert (recorded["kind"], recorded["worker"], recorded["pid"]) == (
        "worker-spawned", 0, 123,
    )
    FLIGHT.clear()


def test_event_traced_goes_to_ring_and_trace(tmp_path):
    FLIGHT.clear()
    path = tmp_path / "t.jsonl"
    with tracing(path):
        with span("worker-pool") as pool:
            event("worker-spawned", worker=0, pid=123)
    assert [e["kind"] for e in FLIGHT.events()] == ["worker-spawned"]
    FLIGHT.clear()
    start, spawned, _end = _trace_records(path)
    assert (spawned["type"], spawned["kind"], spawned["pid"]) == (
        "event", "worker-spawned", 123,
    )
    assert spawned["in_span"] == start["span"]
    assert pool.seconds is not None


def test_no_span_feeds_the_ring(tmp_path):
    FLIGHT.clear()
    with tracing(tmp_path / "t.jsonl"):
        with span("ack-wait"):
            pass
    assert FLIGHT.events() == []


def test_other_threads_time_but_never_trace(tmp_path):
    """Tracing belongs to the thread that turned it on: a server thread
    reading the store during a traced campaign times its span but
    writes nothing into that campaign's trace."""
    import threading

    path = tmp_path / "t.jsonl"
    with scoped_registry() as registry:
        with tracing(path):
            reader = threading.Thread(target=_span_and_event)
            reader.start()
            reader.join()
        histograms = registry.snapshot()["histograms"]
    assert _trace_records(path) == []
    assert histograms[PHASE_METRIC_PREFIX + "store-index"]["count"] == 1
    FLIGHT.clear()


def _span_and_event():
    with span("store-index"):
        event("read")


def test_worker_scope_prefixes_the_histogram():
    with scoped_registry() as registry:
        previous = set_phase_scope(WORKER_SCOPE)
        try:
            with span("compute"):
                pass
        finally:
            set_phase_scope(previous)
        with span("compute"):
            pass
        names = sorted(registry.snapshot()["histograms"])
    assert names == [
        PHASE_METRIC_PREFIX + "compute", PHASE_METRIC_PREFIX + "worker:compute",
    ]


def test_span_lands_in_the_active_registry():
    """The cached histogram handle re-binds whenever the registry is
    swapped — the worker/benchmark scoping contract."""
    name = PHASE_METRIC_PREFIX + "rebind-check"
    with scoped_registry() as first:
        with span("rebind-check"):
            pass
    with scoped_registry() as second:
        with span("rebind-check"):
            pass
    assert first.snapshot()["histograms"][name]["count"] == 1
    assert second.snapshot()["histograms"][name]["count"] == 1


# ----------------------------------------------------------------------
# Attribution over snapshots
# ----------------------------------------------------------------------


def test_phase_attribution_extracts_sums():
    registry = MetricsRegistry()
    registry.histogram(PHASE_METRIC_PREFIX + "ack-drain").observe(0.5)
    registry.histogram(PHASE_METRIC_PREFIX + "ack-drain").observe(0.25)
    registry.histogram(PHASE_METRIC_PREFIX + "worker:compute").observe(1.0)
    registry.histogram("unrelated_seconds").observe(9.0)
    phases = phase_attribution(registry.snapshot())
    assert phases == {"ack-drain": 0.75, "worker:compute": 1.0}


def test_attribution_coverage_counts_top_level_only():
    phases = {"ack-drain": 0.6, "compute": 0.3, "worker:compute": 5.0,
              "campaign": 1.0, "game": 0.3}
    assert attribution_coverage(phases, 1.0) == pytest.approx(0.9)
    assert attribution_coverage(phases, 0.0) is None
    for nested in ("worker:compute", "campaign", "worker-pool", "game"):
        assert nested not in TOP_LEVEL_PHASES


def test_merged_worker_snapshot_keeps_scopes_distinct():
    """A worker-scoped snapshot merged into the parent must not collide
    with the parent's own phases — the cross-process naming contract."""
    parent = MetricsRegistry()
    parent.histogram(PHASE_METRIC_PREFIX + "compute").observe(1.0)
    with scoped_registry() as worker:
        previous = set_phase_scope(WORKER_SCOPE)
        try:
            with span("compute"):
                pass
        finally:
            set_phase_scope(previous)
        parent.merge(worker.snapshot())
    phases = phase_attribution(parent.snapshot())
    assert phases["compute"] == 1.0
    assert "worker:compute" in phases


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------


def test_event_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    with tracing(path):
        TRACER.event("reveal", node=[0, 1], color=2)
        TRACER.event("fragment-merge", dx=3)
    records = read_trace(path)
    # Two events plus the final metrics snapshot.
    assert [r["type"] for r in records] == ["event", "event", "metrics"]
    reveal = records[0]
    assert reveal["kind"] == "reveal"
    assert reveal["node"] == [0, 1]
    assert reveal["color"] == 2
    assert "src" in reveal and "seq" in reveal


def test_span_round_trip_and_in_span_stamping(tmp_path):
    path = tmp_path / "t.jsonl"
    with tracing(path):
        TRACER.event("outside")
        with span("game", adversary="theorem1") as game:
            TRACER.event("reveal", node=1)
            game.note(reason="monochromatic-edge", won=True)
    records = read_trace(path)
    by_type = {r["type"]: r for r in records if r["type"] != "event"}
    start, end = by_type["span-start"], by_type["span-end"]
    assert start["kind"] == end["kind"] == "game"
    assert start["span"] == end["span"]
    assert start["adversary"] == "theorem1"
    assert end["reason"] == "monochromatic-edge"
    assert end["won"] is True
    assert end["seconds"] >= 0

    events = [r for r in records if r["type"] == "event"]
    outside = next(r for r in events if r["kind"] == "outside")
    inside = next(r for r in events if r["kind"] == "reveal")
    assert "in_span" not in outside
    assert inside["in_span"] == start["span"]


def test_tracing_appends_metrics_snapshot(tmp_path):
    path = tmp_path / "t.jsonl"
    with scoped_registry() as registry:
        with tracing(path):
            registry.inc("reveals_total", 9)
    final = read_trace(path)[-1]
    assert final["type"] == "metrics"
    assert final["snapshot"]["counters"]["reveals_total"] == 9


def test_tracing_truncates_by_default(tmp_path):
    path = tmp_path / "t.jsonl"
    with tracing(path):
        TRACER.event("first-run")
    with tracing(path):
        TRACER.event("second-run")
    kinds = [r.get("kind") for r in read_trace(path) if r["type"] == "event"]
    assert kinds == ["second-run"]


def test_mid_write_kill_is_survivable(tmp_path):
    """A partial trailing line (kill landed mid-write) is skipped on
    load and repaired before the next append."""
    path = tmp_path / "t.jsonl"
    recorder = JsonlTraceRecorder(path)
    recorder.write({"type": "event", "kind": "reveal", "node": 1})
    recorder.close()
    # Simulate the kill: a truncated record with no newline.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "event", "kind": "rev')

    records = read_trace(path)
    assert len(records) == 1  # partial line skipped, not fatal
    assert records[0]["node"] == 1

    repaired = JsonlTraceRecorder(path)
    repaired.write({"type": "event", "kind": "reveal", "node": 2})
    repaired.close()
    records = read_trace(path)
    # The new record is not glued onto the partial line.
    assert [r.get("node") for r in records] == [1, 2]


def test_shard_merge_folds_worker_files(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with tracing(path):
        TRACER.event("parent-event")

    for worker in ("a", "b"):
        shard = JsonlTraceRecorder(shard_path(path, worker))
        shard.write({"type": "event", "kind": f"from-{worker}"})
        shard.close()

    merged = merge_trace_shards(path)
    assert merged == 2
    kinds = {r["kind"] for r in read_trace(path) if r["type"] == "event"}
    assert kinds == {"parent-event", "from-a", "from-b"}
    # Shards are consumed; a re-merge finds nothing.
    assert merge_trace_shards(path) == 0


def test_shard_merge_deduplicates_by_src_seq(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with tracing(path):
        TRACER.event("original")
    duplicate = read_trace(path)[0]

    shard = shard_path(path, "dup")
    with open(shard, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(duplicate) + "\n")
        handle.write(
            json.dumps({**duplicate, "seq": duplicate["seq"] + 10_000,
                        "kind": "fresh"}) + "\n"
        )
    before = len(read_trace(path))
    assert merge_trace_shards(path) == 1  # the duplicate is skipped
    assert len(read_trace(path)) == before + 1


def test_span_body_raising_still_emits_error_end(tmp_path):
    """A span whose body raises must still close in the trace, with the
    inferred ``status="error"`` and the exception type — a vanished end
    record would be indistinguishable from a kill."""
    path = tmp_path / "t.jsonl"
    with tracing(path):
        with pytest.raises(ValueError, match="boom"):
            with span("game", adversary="x"):
                raise ValueError("boom")
    by_type = {r["type"]: r for r in read_trace(path)}
    end = by_type["span-end"]
    assert end["kind"] == "game"
    assert end["status"] == "error"
    assert end["error_type"] == "ValueError"
    assert end["seconds"] >= 0
    assert end["span"] == by_type["span-start"]["span"]


def test_span_body_error_keeps_explicit_notes(tmp_path):
    """Notes set before the raise survive; an explicit ``status`` note
    wins over the inferred error status."""
    path = tmp_path / "t.jsonl"
    with tracing(path):
        with pytest.raises(RuntimeError):
            with span("game") as game:
                game.note(status="forfeit", reason="budget")
                raise RuntimeError("late failure")
    end = next(r for r in read_trace(path) if r["type"] == "span-end")
    assert end["status"] == "forfeit"
    assert end["reason"] == "budget"
    assert end["error_type"] == "RuntimeError"


def test_activate_twice_rejected(tmp_path):
    with tracing(tmp_path / "t.jsonl"):
        with pytest.raises(RuntimeError, match="already active"):
            TRACER.activate(JsonlTraceRecorder(tmp_path / "u.jsonl"))


def test_instrumented_simulator_emits_reveal_events(tmp_path):
    """The Online-LOCAL hot path records one reveal event per reveal
    when tracing is on."""
    from repro.core.baselines import GreedyOnlineColorer
    from repro.families.grids import SimpleGrid
    from repro.models.online_local import OnlineLocalSimulator

    grid = SimpleGrid(3, 3)
    path = tmp_path / "t.jsonl"
    with scoped_registry() as registry:
        with tracing(path):
            sim = OnlineLocalSimulator(
                grid.graph, GreedyOnlineColorer(), locality=1, num_colors=4
            )
            sim.run(sorted(grid.graph.nodes()))
        reveals = [
            r for r in read_trace(path)
            if r["type"] == "event" and r["kind"] == "reveal"
        ]
        assert len(reveals) == grid.graph.num_nodes
        assert registry.counter("reveals_total").value == grid.graph.num_nodes
        assert all(r["model"] == "online-local" for r in reveals)
