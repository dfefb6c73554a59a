"""Tests for the picklable game unit (GameSpec/play_spec) and for the
worker-count independence of what it ships back."""

import pickle

import pytest

from repro import api
from repro.analysis.campaign import CampaignSpec, run_campaign
from repro.analysis.executor import GameSpec, play_spec
from repro.analysis.tournament import TournamentRow
from repro.observability.metrics import scoped_registry
from repro.registry import FIXED_VICTIM
from repro.robustness.supervisor import GamePolicy

POLICY = GamePolicy(timeout=30.0)


def test_game_spec_is_picklable():
    spec = GameSpec(
        adversary="theorem3-gadget(2k-2)",
        victim="greedy",
        locality=1,
        policy=POLICY,
        trace_path="/tmp/x.jsonl",
        params=(("k", 4),),
    )
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_play_spec_inline_matches_tournament_row():
    spec = GameSpec("theorem1-grid", "greedy", 1, POLICY)
    outcome = play_spec(spec)
    row = outcome.row
    assert isinstance(row, TournamentRow)
    assert (row.adversary, row.victim, row.locality) == (
        "theorem1-grid", "greedy", 1,
    )
    assert row.won
    # The game ships its exact metric delta back with the row.
    assert outcome.metrics["counters"]["reveals_total"] > 0
    assert outcome.metrics["histograms"]["phase_seconds.game"]["count"] == 1


def test_play_spec_fixed_victim():
    row = play_spec(
        GameSpec("theorem5-reduction", FIXED_VICTIM, 1, POLICY)
    ).row
    assert row.victim == FIXED_VICTIM
    assert row.won


def test_play_spec_rejects_mismatched_fixed_victim():
    with pytest.raises(ValueError, match="fixed-victim"):
        play_spec(GameSpec("theorem5-reduction", "greedy", 1, POLICY))


def test_parallel_rows_identical_to_serial():
    """The acceptance property: same order, same outcomes."""
    spec = CampaignSpec.tournament(locality=1)
    serial = api.run_tournament(api.SubmitRequest(spec=spec, workers=1))
    parallel = api.run_tournament(api.SubmitRequest(spec=spec, workers=2))
    assert parallel == serial
    assert len(parallel) == 16


def test_parallel_metrics_match_serial(tmp_path):
    """Game snapshots folded into the parent must reproduce the same
    counter totals at one worker (inline) and at two (pooled).

    Ball-cache hit/miss *splits* are the one exception: the ball pool is
    per-process, so how queries divide into hits vs misses depends on
    which process played which games.  The query total and every
    simulation counter are partition-independent and must match exactly.
    ``campaign_*`` counters are scheduler bookkeeping (the pool adds
    heartbeats and warm-pool adoptions); of those only the game tallies
    are compared.
    """
    spec = CampaignSpec.tournament(locality=1)
    snapshots = {}
    for workers in (1, 2):
        with scoped_registry() as registry:
            run_campaign(spec, tmp_path / f"store-{workers}", workers=workers)
            snapshots[workers] = registry.snapshot()
    serial, pooled = snapshots[1], snapshots[2]

    def split(counters):
        cache = {k: v for k, v in counters.items()
                 if k.startswith("ball_cache_")}
        game = {k: v for k, v in counters.items()
                if not k.startswith(("ball_cache_", "campaign_"))}
        tallies = {k: counters.get(k, 0) for k in (
            "campaign_games_played", "campaign_games_deduped",
            "campaign_game_errors",
        )}
        return cache, game, tallies

    serial_cache, serial_game, serial_tallies = split(serial["counters"])
    pooled_cache, pooled_game, pooled_tallies = split(pooled["counters"])
    assert serial_game == pooled_game
    assert serial_game["reveals_total"] > 0
    assert serial_tallies == pooled_tallies
    assert serial_tallies["campaign_games_played"] == 16
    queries = lambda c: c.get("ball_cache_hits", 0) + c.get("ball_cache_misses", 0)  # noqa: E731
    assert queries(serial_cache) == queries(pooled_cache) > 0
    # Every game is timed by its span: bare in the serial run, under the
    # worker scope in the pooled one.
    serial_games = serial["histograms"]["phase_seconds.game"]
    pooled_games = pooled["histograms"]["phase_seconds.worker:game"]
    assert serial_games["count"] == pooled_games["count"] == 16
