"""Tests for the supervised campaign worker pool: crash recovery,
lease expiry, poison-game quarantine, graceful degradation, and the
chaos-vs-serial zero-loss guarantee."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.campaign import (
    CampaignScheduler,
    CampaignSpec,
    campaign_status,
    hash_of,
    run_campaign,
)
from repro.analysis.store import (
    QUARANTINE_CAUSE,
    QUARANTINE_REASON,
    ResultStore,
)
from repro.analysis.worker_pool import (
    SupervisedWorkerPool,
    chunk_target,
    quarantine_row,
    shutdown_warm_pool,
    warm_pool_size,
)
from repro.observability.metrics import scoped_registry
from repro.robustness.chaos import ChaosPolicy

#: Four fast, deterministic games.
FAST = dict(
    name="fast",
    adversaries=("theorem1-grid", "theorem2-cylinder"),
    victims=("greedy", "akbari"),
    localities=(1,),
    timeout=10.0,
)


def work_of(spec: CampaignSpec):
    return [(hash_of(game), game) for game in spec.expand()]


def find_policy(rates: str, predicate, limit: int = 5000) -> ChaosPolicy:
    """The first seed whose deterministic draw pattern satisfies
    ``predicate`` — how tests pin down *which* faults fire without any
    nondeterminism."""
    for seed in range(limit):
        policy = ChaosPolicy.parse(rates, seed=seed)
        if predicate(policy):
            return policy
    pytest.fail(f"no chaos seed under {limit} fits the wanted pattern")


def counters(registry) -> dict:
    return registry.snapshot()["counters"]


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc to find the worker pids to SIGKILL",
)
def test_external_sigkill_of_one_worker_does_not_hang(tmp_path):
    """Regression for the all-workers-dead-only detection: SIGKILL one
    of two workers mid-game and the run must still complete, with the
    lost in-flight game replayed (or reported), not hung forever."""
    store = tmp_path / "store"
    script = (
        "from repro.analysis.campaign import CampaignSpec, run_campaign\n"
        "spec = CampaignSpec(\n"
        "    name='kill-regression',\n"
        "    adversaries=('theorem1-grid', 'theorem2-cylinder'),\n"
        "    victims=('faulty-infinite-loop',),\n"
        "    localities=(1,),\n"
        "    timeout=1.5,\n"
        ")\n"
        f"outcome = run_campaign(spec, {os.fspath(store)!r}, workers=2)\n"
        "assert not outcome.errors, outcome.errors\n"
        "print('rows', len(outcome.rows))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    env.pop("REPRO_CHAOS", None)
    # Pin the fork start method: the /proc children walk below assumes
    # workers are direct children of the campaign process, which is not
    # true under the default forkserver (workers are the *server's*
    # children there — killing kids[0] would hit the server or tracker).
    env["REPRO_POOL_START"] = "fork"
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )

    def children_of(pid):
        try:
            path = f"/proc/{pid}/task/{pid}/children"
            with open(path, "r", encoding="ascii") as handle:
                return [int(tok) for tok in handle.read().split()]
        except OSError:
            return []

    victim_pid = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        kids = children_of(proc.pid)
        if len(kids) >= 2:
            time.sleep(0.3)  # both leased games are now in flight
            victim_pid = kids[0]
            os.kill(victim_pid, signal.SIGKILL)
            break
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    assert victim_pid is not None, "worker pool never spawned two workers"

    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, f"run failed:\n{out}\n{err}"
    assert "rows 2" in out
    assert len(ResultStore(store).index()) == 2


def test_chaos_self_kill_game_is_requeued_and_replayed(tmp_path):
    """A worker that SIGKILLs itself mid-game (chaos ``kill``) loses
    only that dispatch: the parent reaps it, respawns, requeues, and
    the replay lands the row."""
    spec = CampaignSpec(**FAST)
    digests = [digest for digest, _ in work_of(spec)]

    def kills_once(policy):
        first = [d for d in digests if policy.action_for(d, 1) == "kill"]
        clean_later = all(
            policy.action_for(d, attempt) is None
            for d in digests
            for attempt in (2, 3, 4)
        )
        return len(first) == 1 and clean_later

    policy = find_policy("kill:0.4", kills_once)
    store = ResultStore(tmp_path / "store")
    pool = SupervisedWorkerPool(
        store, workers=2, chaos=policy, heartbeat=0.05
    )
    with scoped_registry() as registry:
        outcome = pool.run(work_of(spec))
    assert set(outcome.rows) == set(digests)
    assert not outcome.errors and not outcome.quarantined
    assert not outcome.degraded
    assert outcome.restarts == 1
    assert outcome.requeues == 1
    snap = counters(registry)
    assert snap["campaign_worker_restarts"] == 1
    assert snap["campaign_games_requeued"] == 1


def test_stalled_worker_lease_expires_and_game_replays(tmp_path):
    """A worker stalled inside one game (chaos ``stall``) is SIGKILLed
    when its lease deadline passes; the game replays cleanly."""
    spec = CampaignSpec(
        name="stall",
        adversaries=("theorem1-grid",),
        victims=("greedy",),
        localities=(1,),
        timeout=0.5,
    )
    (digest, game), = work_of(spec)

    def stalls_once(policy):
        return (
            policy.action_for(digest, 1) == "stall"
            and all(policy.action_for(digest, k) is None for k in (2, 3))
        )

    policy = find_policy("stall:0.6", stalls_once)
    store = ResultStore(tmp_path / "store")
    pool = SupervisedWorkerPool(
        store,
        workers=1,
        chaos=policy,
        lease_grace=1.0,
        lease_slack=0.3,
        heartbeat=0.05,
    )
    with scoped_registry() as registry:
        outcome = pool.run([(digest, game)])
    assert set(outcome.rows) == {digest}
    assert outcome.lease_expirations == 1
    assert outcome.rows[digest].get("cause") != QUARANTINE_CAUSE
    assert counters(registry)["campaign_lease_expirations"] == 1


# ----------------------------------------------------------------------
# Poison quarantine
# ----------------------------------------------------------------------


def test_poison_game_is_quarantined_and_never_replayed(tmp_path):
    """A game that kills its worker on every dispatch is quarantined as
    a structured forfeit row; resume dedupes it instead of replaying."""
    spec = CampaignSpec(
        name="poison",
        adversaries=("theorem1-grid",),
        victims=("greedy",),
        localities=(1,),
        timeout=5.0,
    )
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(
        store,
        workers=2,
        poison_threshold=2,
        max_worker_restarts=16,
        chaos=ChaosPolicy.parse("kill:1.0"),
    )
    with scoped_registry() as registry:
        rows, deduped, errors = scheduler.run(work_of(spec))
    assert not errors
    (digest,) = rows
    row = rows[digest]
    assert row["reason"] == QUARANTINE_REASON
    assert row["cause"] == QUARANTINE_CAUSE
    assert row["forfeit"] is True and row["won"] is True
    assert counters(registry)["campaign_games_quarantined"] == 1

    quarantined = store.quarantined()
    assert [q["spec_hash"] for q in quarantined] == [digest]

    # Resume: the quarantine row dedupes — the poison game is not
    # replayed forever.
    rows2, deduped2, errors2 = scheduler.run(work_of(spec))
    assert (rows2, deduped2, errors2) == ({}, 1, [])


def test_quarantine_surfaces_in_campaign_status(tmp_path):
    spec = CampaignSpec(**FAST)
    store_dir = tmp_path / "store"
    outcome = run_campaign(spec, store_dir, workers=1)
    assert len(outcome.rows) == 4
    # Overwrite one game with a hand-built quarantine row, as the pool
    # would after repeated worker loss.
    digest, game = work_of(spec)[0]
    ResultStore(store_dir).add(quarantine_row(digest, game, losses=3))
    statuses, _runs = campaign_status(store_dir)
    (status,) = statuses
    assert status.done == 4
    assert status.quarantined == 1
    assert len(ResultStore(store_dir).quarantined()) == 1


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------


def test_exhausted_restart_budget_degrades_to_serial(tmp_path):
    """When chaos kills every worker and the restart budget runs out,
    the scheduler finishes the queue in-process instead of raising —
    and the parent never applies chaos, so it completes."""
    spec = CampaignSpec(**FAST)
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(
        store,
        workers=2,
        max_worker_restarts=1,
        poison_threshold=100,
        chaos=ChaosPolicy.parse("kill:1.0"),
    )
    with scoped_registry() as registry:
        rows, deduped, errors = scheduler.run(work_of(spec))
    assert not errors
    assert len(rows) == 4
    snap = counters(registry)
    assert snap["campaign_pool_degradations"] == 1
    assert snap["campaign_worker_restarts"] == 1
    # Every row is a real play (serial fallback), not a quarantine.
    assert all(row.get("cause") != QUARANTINE_CAUSE for row in rows.values())
    assert len(store.index()) == 4


# ----------------------------------------------------------------------
# Corrupt-result-row chaos
# ----------------------------------------------------------------------


def test_corrupt_result_write_reports_error_and_keeps_shard_parseable(
    tmp_path,
):
    """A failed/torn result write (chaos ``corrupt``) surfaces as a
    structured error — the worker survives, the shard stays parseable,
    and the next run replays the unacknowledged game."""
    spec = CampaignSpec(
        name="corrupt",
        adversaries=("theorem1-grid",),
        victims=("greedy",),
        localities=(1,),
        timeout=5.0,
    )
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(
        store, workers=2, chaos=ChaosPolicy.parse("corrupt:1.0")
    )
    rows, deduped, errors = scheduler.run(work_of(spec))
    assert rows == {} and deduped == 0
    assert len(errors) == 1
    assert "result store write failed" in errors[0]["error"]
    # The torn fragment does not break the store.
    assert store.index() == {}

    clean = CampaignScheduler(store, workers=2, chaos=None)
    rows2, _deduped2, errors2 = clean.run(work_of(spec))
    assert not errors2
    assert len(rows2) == 1 and len(store.index()) == 1


# ----------------------------------------------------------------------
# The acceptance gate: chaos loses nothing vs a serial run
# ----------------------------------------------------------------------


def test_chaos_run_matches_serial_run(tmp_path):
    """A 2-worker campaign under kill chaos terminates, loses zero
    acknowledged games, replays every lost in-flight game, and its
    surviving rows match a serial no-chaos run of the same spec."""
    spec = CampaignSpec(**FAST)
    digests = [digest for digest, _ in work_of(spec)]

    def a_few_kills_then_clean(policy):
        first = sum(policy.action_for(d, 1) == "kill" for d in digests)
        clean_later = all(
            policy.action_for(d, attempt) is None
            for d in digests
            for attempt in (2, 3)
        )
        return first >= 2 and clean_later

    policy = find_policy("kill:0.5", a_few_kills_then_clean)
    store_chaos = ResultStore(tmp_path / "chaos-store")
    scheduler = CampaignScheduler(
        store_chaos, workers=2, max_worker_restarts=16, chaos=policy
    )
    rows, _deduped, errors = scheduler.run(work_of(spec))
    assert not errors

    store_serial = ResultStore(tmp_path / "serial-store")
    serial_rows, _d, serial_errors = CampaignScheduler(
        store_serial, workers=1
    ).run(work_of(spec))
    assert not serial_errors

    chaos_index = store_chaos.index()
    serial_index = store_serial.index()
    lost = [d for d in serial_index if d not in chaos_index]
    assert lost == []
    for digest, serial_row in serial_index.items():
        chaos_row = chaos_index[digest]
        if chaos_row.get("cause") == QUARANTINE_CAUSE:
            continue  # quarantined counts as covered, not lost
        assert (chaos_row["won"], chaos_row["reason"], chaos_row["forfeit"]) \
            == (serial_row["won"], serial_row["reason"], serial_row["forfeit"])


# ----------------------------------------------------------------------
# Chunked leases
# ----------------------------------------------------------------------


def test_chunk_target_halves_toward_one():
    """Adaptive chunks split the queue ~2× per worker and shrink to
    per-game leases at the tail, capped by ``max_chunk``."""
    assert chunk_target(1024, 2, 32) == 32  # deep queue: cap wins
    assert chunk_target(100, 4, 8) == 8
    assert chunk_target(7, 2, 32) == 2  # ceil(7 / 4)
    assert chunk_target(5, 1, 32) == 3  # ceil(5 / 2)
    assert chunk_target(4, 2, 32) == 1  # tail: degenerate per-game mode
    assert chunk_target(0, 2, 32) == 1


def test_worker_kill_mid_chunk_requeues_only_unacked_games(tmp_path):
    """Losing a worker mid-chunk requeues exactly that chunk's games:
    the sibling's acknowledged chunk is never replayed, so the store
    holds no duplicate raw rows."""
    spec = CampaignSpec(**FAST)
    digests = [digest for digest, _ in work_of(spec)]
    # With chunk_size=2 pinned, the queue splits into chunks
    # [0, 1] and [2, 3]; the kill fires on the second chunk's first game.
    target = digests[2]

    def kills_second_chunk_once(policy):
        return all(
            (policy.action_for(d, a) == "kill")
            == (d == target and a == 1)
            for d in digests
            for a in (1, 2, 3)
        )

    policy = find_policy("kill:0.4", kills_second_chunk_once)
    store = ResultStore(tmp_path / "store")
    pool = SupervisedWorkerPool(
        store, workers=2, chunk_size=2, chaos=policy, heartbeat=0.05
    )
    with scoped_registry() as registry:
        outcome = pool.run(work_of(spec))
    assert not outcome.errors and not outcome.quarantined
    assert set(outcome.rows) == set(digests)
    # Only the dead worker's chunk (2 games) was requeued, with one
    # respawn; the acked chunk stayed acked.
    assert outcome.restarts == 1
    assert outcome.requeues == 2
    snap = counters(registry)
    assert snap["campaign_worker_restarts"] == 1
    assert snap["campaign_games_requeued"] == 2
    # No duplicates at the raw-shard level: each game landed exactly once.
    raw = [row["spec_hash"] for row in store.rows()]
    assert sorted(raw) == sorted(digests)


def test_poison_quarantines_only_the_offending_chunk_game(tmp_path):
    """Inside a chunk, blame is per-game: the game that keeps killing
    its worker is quarantined, while its chunk-mates replay cleanly and
    land real rows."""
    spec = CampaignSpec(**FAST)
    digests = [digest for digest, _ in work_of(spec)]

    def one_double_killer(policy):
        killers = [
            d
            for d in digests
            if policy.action_for(d, 1) == "kill"
            and policy.action_for(d, 2) == "kill"
        ]
        if len(killers) != 1:
            return False
        return all(
            policy.action_for(d, a) is None
            for d in digests
            if d != killers[0]
            for a in (1, 2, 3)
        )

    policy = find_policy("kill:0.5", one_double_killer)
    (bad,) = [d for d in digests if policy.action_for(d, 1) == "kill"]
    store = ResultStore(tmp_path / "store")
    pool = SupervisedWorkerPool(
        store,
        workers=2,
        chunk_size=2,
        poison_threshold=2,
        max_worker_restarts=16,
        chaos=policy,
        heartbeat=0.05,
    )
    with scoped_registry() as registry:
        outcome = pool.run(work_of(spec))
    assert not outcome.errors
    assert set(outcome.rows) == set(digests)
    assert outcome.rows[bad]["cause"] == QUARANTINE_CAUSE
    for digest in digests:
        if digest != bad:
            assert outcome.rows[digest].get("cause") != QUARANTINE_CAUSE
    assert counters(registry)["campaign_games_quarantined"] == 1
    assert [q["spec_hash"] for q in store.quarantined()] == [bad]


def test_pinned_and_adaptive_chunking_match_serial_rows(tmp_path):
    """The degenerate ``chunk_size=1`` mode, adaptive chunking, and the
    serial path must produce identical stores."""
    spec = CampaignSpec(**FAST)
    serial = run_campaign(spec, tmp_path / "serial", workers=1)
    adaptive = run_campaign(spec, tmp_path / "adaptive", workers=2)
    pinned = run_campaign(
        spec, tmp_path / "pinned", workers=2, chunk_size=1
    )
    assert not serial.errors and not adaptive.errors and not pinned.errors
    base = ResultStore(tmp_path / "serial").index()
    assert ResultStore(tmp_path / "adaptive").index() == base
    assert ResultStore(tmp_path / "pinned").index() == base


# ----------------------------------------------------------------------
# Warm worker pool
# ----------------------------------------------------------------------


def test_warm_pool_parks_and_adopts_across_campaigns(tmp_path):
    """A finished campaign parks its healthy workers; the next campaign
    adopts them (one configure message) instead of forking afresh."""
    shutdown_warm_pool()  # start from a clean slate
    spec = CampaignSpec(**FAST)
    try:
        with scoped_registry() as registry:
            first = run_campaign(spec, tmp_path / "a", workers=2)
            assert not first.errors
            parked = warm_pool_size()
            second = run_campaign(spec, tmp_path / "b", workers=2)
            assert not second.errors
        assert parked == 2
        assert counters(registry)["campaign_warm_adoptions"] == 2
        assert (
            ResultStore(tmp_path / "a").index().keys()
            == ResultStore(tmp_path / "b").index().keys()
        )
    finally:
        shutdown_warm_pool()
    assert warm_pool_size() == 0


# ----------------------------------------------------------------------
# Telemetry: heartbeats, live status, flight-recorder dumps
# ----------------------------------------------------------------------


def test_heartbeats_gauges_and_live_status(tmp_path):
    """A pool run counts worker heartbeats, records queue high-water
    gauges, and leaves a final ``done`` live-status file behind."""
    from repro.observability.export import read_live_status

    spec = CampaignSpec(**FAST)
    store = ResultStore(tmp_path / "store")
    with scoped_registry() as registry:
        rows, _deduped, errors = CampaignScheduler(store, workers=2).run(
            work_of(spec)
        )
    assert not errors and len(rows) == 4

    snapshot = registry.snapshot()
    # One heartbeat per lease pickup: at least one per game played.
    assert snapshot["counters"]["campaign_worker_heartbeats"] >= 4
    gauges = snapshot["gauges"]
    assert 1 <= gauges["campaign_queue_depth"] <= 4
    assert 1 <= gauges["campaign_in_flight"] <= 2

    status = read_live_status(store.root)
    assert status is not None
    assert status["done"] is True
    assert status["games_played"] == 4
    assert status["games_total"] == 4
    assert status["queue_depth"] == 0 and status["in_flight"] == 0


def test_quarantine_dumps_flight_recorder(tmp_path):
    """Poison quarantine — a supervisor fault — must leave a parseable
    flight-recorder dump next to the store."""
    from repro.observability.flightrec import (
        find_flight_dumps,
        read_flight_dump,
    )

    spec = CampaignSpec(
        name="poison",
        adversaries=("theorem1-grid",),
        victims=("greedy",),
        localities=(1,),
        timeout=5.0,
    )
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(
        store,
        workers=2,
        poison_threshold=2,
        max_worker_restarts=16,
        chaos=ChaosPolicy.parse("kill:1.0"),
    )
    with scoped_registry():
        rows, _deduped, errors = scheduler.run(work_of(spec))
    assert not errors and len(rows) == 1

    dumps = find_flight_dumps(store.root)
    assert dumps, "quarantine left no flight dump"
    records = list(read_flight_dump(dumps[-1]))
    header = records[0]
    assert header["kind"] == "flight-dump"
    assert header["reason"] == "game-quarantined"
    kinds = {r["kind"] for r in records[1:]}
    # The ring holds the pool's recent life: dispatches, worker deaths,
    # and the fault that triggered the dump.
    assert "fault" in kinds
    assert "worker-died" in kinds or "dispatch" in kinds
    faults = [r for r in records if r.get("kind") == "fault"]
    assert any(f.get("reason") == "game-quarantined" for f in faults)
