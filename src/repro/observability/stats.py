"""Aggregate a trace file into human-readable reports.

This is the reporting surface behind ``repro.cli stats``: it reads a
JSON-lines trace (written by :mod:`repro.observability.trace`), joins
span starts to span ends, folds every embedded metrics snapshot, and
renders per-event counts, per-adversary game tables, reveal histograms,
cache hit rates, and the slowest games.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import render_table
from repro.observability.metrics import MetricsRegistry
from repro.observability.timers import TOP_LEVEL_PHASES
from repro.observability.trace import read_trace


@dataclass
class GameSummary:
    """One joined ``game`` span: labels from the start record, outcome
    and duration from the end record, reveal count from stamped events."""

    adversary: str
    victim: str
    seconds: Optional[float] = None
    reason: str = ""
    won: Optional[bool] = None
    forfeit: bool = False
    reveals: int = 0
    steps: Optional[int] = None


@dataclass
class TraceStats:
    """Everything :func:`aggregate` extracts from one trace file."""

    records: int = 0
    record_types: Dict[str, int] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    games: List[GameSummary] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Reveal events that occurred outside any game span (bare CLI runs).
    unspanned_reveals: int = 0

    @property
    def reveals_total(self) -> int:
        return self.event_counts.get("reveal", 0)

    def cache_hit_rate(self) -> Optional[float]:
        hits = self.metrics.counter("ball_cache_hits").value
        misses = self.metrics.counter("ball_cache_misses").value
        total = hits + misses
        return hits / total if total else None


def aggregate(records: List[Dict[str, Any]]) -> TraceStats:
    """Fold a list of trace records (see :func:`read_trace`) into stats."""
    stats = TraceStats(records=len(records))
    types: TallyCounter = TallyCounter()
    events: TallyCounter = TallyCounter()
    reveals_by_span: TallyCounter = TallyCounter()
    starts: Dict[Tuple[Any, int], Dict[str, Any]] = {}
    ends: Dict[Tuple[Any, int], Dict[str, Any]] = {}

    for record in records:
        kind = record.get("kind", "")
        rtype = record.get("type", "?")
        types[rtype] += 1
        if rtype == "event":
            events[kind] += 1
            if kind == "reveal":
                span = record.get("in_span")
                if span is None:
                    stats.unspanned_reveals += 1
                else:
                    reveals_by_span[(record.get("src"), span)] += 1
        elif rtype == "span-start" and kind == "game":
            starts[(record.get("src"), record.get("span"))] = record
        elif rtype == "span-end" and kind == "game":
            ends[(record.get("src"), record.get("span"))] = record
        elif rtype == "metrics":
            stats.metrics.merge(record.get("snapshot", {}))

    for key, start in sorted(starts.items(), key=lambda kv: kv[1]["seq"]):
        end = ends.get(key, {})
        stats.games.append(
            GameSummary(
                adversary=str(start.get("adversary", "?")),
                victim=str(start.get("victim", "?")),
                seconds=end.get("seconds"),
                reason=str(end.get("reason", "")),
                won=end.get("won"),
                forfeit=bool(end.get("forfeit", False)),
                reveals=reveals_by_span.get(key, 0),
                steps=end.get("steps"),
            )
        )
    stats.record_types = dict(types)
    stats.event_counts = dict(events)
    return stats


def aggregate_file(path) -> TraceStats:
    """:func:`aggregate` over the records of a trace file on disk."""
    return aggregate(read_trace(path))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_stats(stats: TraceStats, top: int = 5) -> str:
    """The full ``repro.cli stats`` report as one printable string."""
    sections: List[str] = []

    sections.append(
        f"trace records: {stats.records} "
        f"({', '.join(f'{k}={v}' for k, v in sorted(stats.record_types.items()))})"
    )

    if stats.event_counts:
        sections.append("\nevents:")
        sections.append(render_table(
            ["kind", "count"],
            [[kind, count]
             for kind, count in sorted(stats.event_counts.items())],
        ))

    sections.append(f"\nreveals total: {stats.reveals_total}")

    if stats.games:
        per_adversary: Dict[str, List[GameSummary]] = {}
        for game in stats.games:
            per_adversary.setdefault(game.adversary, []).append(game)
        sections.append("\ngames by adversary:")
        sections.append(render_table(
            ["adversary", "games", "won", "forfeits", "reveals", "seconds"],
            [
                [
                    name,
                    len(games),
                    sum(1 for g in games if g.won),
                    sum(1 for g in games if g.forfeit),
                    sum(g.reveals for g in games),
                    sum(g.seconds or 0.0 for g in games),
                ]
                for name, games in sorted(per_adversary.items())
            ],
        ))
        reveal_counts = sorted(g.reveals for g in stats.games)
        sections.append(
            "\nreveals per game: "
            f"min={reveal_counts[0]} "
            f"median={reveal_counts[len(reveal_counts) // 2]} "
            f"max={reveal_counts[-1]}"
        )
        timed = [g for g in stats.games if g.seconds is not None]
        if timed:
            slowest = sorted(timed, key=lambda g: -(g.seconds or 0.0))[:top]
            sections.append(f"\nslowest games (top {len(slowest)}):")
            sections.append(render_table(
                ["adversary", "victim", "seconds", "reveals", "reason"],
                [[g.adversary, g.victim, f"{g.seconds:.3f}", g.reveals,
                  g.reason] for g in slowest],
            ))

    rate = stats.cache_hit_rate()
    if rate is not None:
        hits = stats.metrics.counter("ball_cache_hits").value
        misses = stats.metrics.counter("ball_cache_misses").value
        sections.append(
            f"\nball cache hit rate: {rate:.1%} ({hits}/{hits + misses})"
        )
        full = stats.metrics.counter("ball_cache_full_flushes").value
        if full:
            sections.append(f"ball cache full flushes: {full}")

    snapshot = stats.metrics.snapshot()
    if any(snapshot.values()):
        sections.append("\nmetrics:")
        sections.append(format_metrics(snapshot))
    return "\n".join(sections)


def render_phase_table(
    phases: Dict[str, float], wall_seconds: Optional[float] = None
) -> str:
    """The phase-attribution table ``campaign status``/``run`` print.

    One row per phase (sorted by time, descending) with its share of
    ``wall_seconds`` when known; top-level phases — the ones whose sum
    the ≥90% coverage gate is computed over — are marked, and a summary
    line reports the covered share.  Worker-scoped phases overlap the
    parent's wall-clock (they ran concurrently), so they are listed but
    never counted toward coverage.
    """
    if not phases:
        return "(no phase timings recorded; run with timers enabled)"
    rows: List[List[Any]] = []
    for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        share = (
            f"{seconds / wall_seconds:.1%}"
            if wall_seconds and wall_seconds > 0
            else "-"
        )
        marker = "*" if name in TOP_LEVEL_PHASES else ""
        rows.append([name + marker, f"{seconds:.4f}", share])
    table = render_table(["phase", "seconds", "share"], rows)
    if wall_seconds and wall_seconds > 0:
        covered = sum(
            seconds
            for name, seconds in phases.items()
            if name in TOP_LEVEL_PHASES
        )
        table += (
            f"\n* top-level phases: {covered:.4f}s of "
            f"{wall_seconds:.4f}s wall-clock "
            f"({covered / wall_seconds:.1%} attributed)"
        )
    return table


def format_metrics(snapshot: Dict[str, Any]) -> str:
    """Render a registry snapshot as aligned tables (used by the CLI's
    ``--metrics`` flag and the ``stats`` report)."""
    rows: List[List[Any]] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        rows.append([name, "counter", value])
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        rows.append([name, "gauge", value])
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        count = summary.get("count", 0)
        mean = (summary.get("sum", 0.0) / count) if count else 0.0
        rows.append([
            name,
            "histogram",
            f"count={count} mean={mean:.4f} "
            f"min={summary.get('min')} max={summary.get('max')}",
        ])
    if not rows:
        return "(no metrics recorded)"
    return render_table(["instrument", "type", "value"], rows)
