"""Tests for trace aggregation and the stats report rendering."""

import json

from repro.observability.metrics import scoped_registry
from repro.observability.stats import (
    aggregate,
    aggregate_file,
    format_metrics,
    render_stats,
)
from repro.observability.trace import (
    TRACER,
    JsonlTraceRecorder,
    merge_trace_shards,
    shard_path,
    span,
    tracing,
)


def _synthetic_records():
    return [
        {"type": "span-start", "kind": "game", "span": 0, "src": 1, "seq": 0,
         "adversary": "theorem1", "victim": "greedy"},
        {"type": "event", "kind": "reveal", "in_span": 0, "src": 1, "seq": 1},
        {"type": "event", "kind": "reveal", "in_span": 0, "src": 1, "seq": 2},
        {"type": "span-end", "kind": "game", "span": 0, "src": 1, "seq": 3,
         "seconds": 0.25, "reason": "monochromatic-edge", "won": True},
        {"type": "span-start", "kind": "game", "span": 0, "src": 2, "seq": 0,
         "adversary": "theorem2", "victim": "akbari"},
        {"type": "event", "kind": "reveal", "in_span": 0, "src": 2, "seq": 1},
        {"type": "span-end", "kind": "game", "span": 0, "src": 2, "seq": 2,
         "seconds": 0.5, "reason": "forfeit:timeout", "won": True,
         "forfeit": True},
        {"type": "event", "kind": "reveal", "src": 3, "seq": 0},  # unspanned
        {"type": "metrics", "src": 3, "seq": 1, "snapshot": {
            "counters": {"ball_cache_hits": 3, "ball_cache_misses": 1},
        }},
    ]


def test_aggregate_counts_and_joins_spans():
    stats = aggregate(_synthetic_records())
    assert stats.records == 9
    assert stats.event_counts == {"reveal": 4}
    assert stats.reveals_total == 4
    assert stats.unspanned_reveals == 1

    assert len(stats.games) == 2
    by_adversary = {g.adversary: g for g in stats.games}
    first = by_adversary["theorem1"]
    assert (first.victim, first.reveals, first.seconds) == ("greedy", 2, 0.25)
    assert first.won and not first.forfeit
    second = by_adversary["theorem2"]
    assert second.forfeit
    assert second.reason == "forfeit:timeout"

    assert stats.cache_hit_rate() == 0.75


def test_aggregate_tolerates_unjoined_spans():
    records = [
        {"type": "span-start", "kind": "game", "span": 7, "src": 1, "seq": 0,
         "adversary": "theorem3", "victim": "greedy"},
        # no span-end: the game was killed mid-flight
    ]
    stats = aggregate(records)
    assert len(stats.games) == 1
    game = stats.games[0]
    assert game.seconds is None
    assert game.reason == ""


def test_cache_hit_rate_none_without_cache_traffic():
    assert aggregate([]).cache_hit_rate() is None


def test_render_stats_sections():
    report = render_stats(aggregate(_synthetic_records()))
    assert "trace records: 9" in report
    assert "reveals total: 4" in report
    assert "games by adversary:" in report
    assert "theorem1" in report and "theorem2" in report
    assert "reveals per game: min=1 median=2 max=2" in report
    assert "slowest games" in report
    assert "ball cache hit rate: 75.0% (3/4)" in report


def test_render_stats_empty_trace():
    report = render_stats(aggregate([]))
    assert "trace records: 0" in report
    assert "reveals total: 0" in report


def test_format_metrics_renders_all_instrument_kinds():
    snapshot = {
        "counters": {"reveals_total": 12},
        "gauges": {"depth": 3.5},
        "histograms": {"seconds": {"count": 2, "sum": 3.0,
                                   "min": 1.0, "max": 2.0}},
    }
    table = format_metrics(snapshot)
    assert "reveals_total" in table and "12" in table
    assert "depth" in table and "gauge" in table
    assert "count=2 mean=1.5000" in table
    assert format_metrics({}) == "(no metrics recorded)"


def _write_worker_shard(records, path, monkeypatch, pid):
    """Record ``records`` into a shard file as a fake worker process
    would: the recorder stamps ``src`` from the pid at construction."""
    import os

    monkeypatch.setattr(os, "getpid", lambda: pid)
    recorder = JsonlTraceRecorder(path)
    for record in records:
        recorder.write(record)
    recorder.close()


def test_aggregation_over_merged_worker_shards(tmp_path, monkeypatch):
    """Aggregating a parent trace after ``merge_trace_shards`` — two
    worker shards with distinct ``src``, one record duplicated across
    them — must equal aggregating the same rows recorded serially:
    game counts, slowest ordering, and cache hit rate all agree."""
    game_a = [
        {"type": "span-start", "kind": "game", "span": 0,
         "adversary": "theorem1", "victim": "greedy"},
        {"type": "event", "kind": "reveal", "in_span": 0},
        {"type": "event", "kind": "reveal", "in_span": 0},
        {"type": "span-end", "kind": "game", "span": 0,
         "seconds": 0.25, "reason": "monochromatic-edge", "won": True},
        {"type": "metrics", "snapshot": {
            "counters": {"ball_cache_hits": 3, "ball_cache_misses": 1}}},
    ]
    game_b = [
        {"type": "span-start", "kind": "game", "span": 0,
         "adversary": "theorem2", "victim": "akbari"},
        {"type": "event", "kind": "reveal", "in_span": 0},
        {"type": "span-end", "kind": "game", "span": 0,
         "seconds": 0.5, "reason": "forfeit:timeout", "won": True,
         "forfeit": True},
        {"type": "metrics", "snapshot": {
            "counters": {"ball_cache_hits": 5, "ball_cache_misses": 3}}},
    ]

    parent = str(tmp_path / "t.jsonl")
    JsonlTraceRecorder(parent).close()  # empty parent trace
    _write_worker_shard(
        game_a, shard_path(parent, "w1"), monkeypatch, pid=111_111
    )
    _write_worker_shard(
        game_b, shard_path(parent, "w2"), monkeypatch, pid=222_222
    )
    # Duplicate one of w1's records into w2's shard — a requeued game
    # acked by two workers.  The (src, seq) dedupe must drop the copy.
    with open(shard_path(parent, "w1"), encoding="utf-8") as handle:
        duplicate = handle.readline()
    with open(shard_path(parent, "w2"), "a", encoding="utf-8") as handle:
        handle.write(duplicate)

    assert merge_trace_shards(parent) == len(game_a) + len(game_b)
    merged = aggregate_file(parent)
    # The serial reference: one recorder plays both games back to back,
    # so every record shares a src and span ids are distinct per game.
    serial_records = []
    for span, game in enumerate((game_a, game_b)):
        for record in game:
            record = dict(record, src=9, seq=len(serial_records))
            for field in ("span", "in_span"):
                if field in record:
                    record[field] = span
            serial_records.append(record)
    serial = aggregate(serial_records)

    assert merged.records == serial.records == len(game_a) + len(game_b)
    assert merged.event_counts == serial.event_counts == {"reveal": 3}

    def game_key(game):
        return (game.adversary, game.victim, game.seconds, game.reason,
                game.won, game.forfeit, game.reveals)

    assert sorted(map(game_key, merged.games)) == \
        sorted(map(game_key, serial.games))
    slowest = sorted(merged.games, key=lambda g: -(g.seconds or 0))
    assert [g.adversary for g in slowest] == ["theorem2", "theorem1"]
    assert merged.cache_hit_rate() == serial.cache_hit_rate() == 8 / 12
    # Distinct src per worker kept the two span-0 games separate.
    assert len(merged.games) == 2


def test_aggregate_file_round_trip(tmp_path):
    """End to end: record a real traced stretch, aggregate from disk."""
    path = tmp_path / "t.jsonl"
    with scoped_registry() as registry:
        with tracing(path):
            with span("game", adversary="theorem1", victim="greedy"):
                TRACER.event("reveal", node=1)
                registry.inc("reveals_total")
    stats = aggregate_file(path)
    assert stats.reveals_total == 1
    assert len(stats.games) == 1
    assert stats.games[0].reveals == 1
    assert stats.metrics.counter("reveals_total").value == 1
