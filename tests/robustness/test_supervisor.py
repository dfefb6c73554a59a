"""The supervised execution boundary: budgets, timeouts, forfeits."""

import time

import pytest

from repro.adversaries.result import AdversaryError, AdversaryResult
from repro.core.baselines import GreedyOnlineColorer
from repro.families.grids import SimpleGrid
from repro.models.online_local import OnlineLocalSimulator
from repro.robustness.errors import (
    GameTimeout,
    StepBudgetExceeded,
    VictimCrash,
)
from repro.robustness.faults import (
    CrashingAlgorithm,
    InfiniteLoopAlgorithm,
    NoneReturningAlgorithm,
)
from repro.robustness.supervisor import (
    GamePolicy,
    SupervisedAlgorithm,
    SupervisedGame,
)


def run_grid_game(victim):
    """A minimal 'adversary': run the victim over a small grid."""
    grid = SimpleGrid(4, 4)
    sim = OnlineLocalSimulator(grid.graph, victim, locality=1, num_colors=4)
    sim.run(sorted(grid.graph.nodes()))
    return AdversaryResult(won=False, reason="survived")


def test_honest_victim_passes_through():
    result = SupervisedGame(run_grid_game, GamePolicy(timeout=10.0)).run(
        GreedyOnlineColorer()
    )
    assert not result.forfeit
    assert result.reason == "survived"
    assert result.stats["steps_taken"] == 16


def test_crash_becomes_forfeit():
    result = SupervisedGame(run_grid_game, GamePolicy()).run(
        CrashingAlgorithm(trigger_step=3)
    )
    assert result.won and result.forfeit
    assert result.reason == "forfeit:victim-crash"
    assert result.stats["error_type"] == "VictimCrash"
    assert "injected crash at step 3" in result.stats["error"]
    # The structured cause carries the reveal index the game reached.
    assert result.stats["failed_at_step"] == 3


def test_step_budget_forfeit_records_failure_position():
    result = SupervisedGame(run_grid_game, GamePolicy(step_budget=5)).run(
        GreedyOnlineColorer()
    )
    assert result.stats["failed_at_step"] == 6  # the budget-busting step


def test_forfeit_metrics_and_wall_seconds_recorded():
    from repro.observability.metrics import scoped_registry

    with scoped_registry() as registry:
        SupervisedGame(run_grid_game, GamePolicy()).run(
            CrashingAlgorithm(trigger_step=3)
        )
        SupervisedGame(run_grid_game, GamePolicy(timeout=10.0)).run(
            GreedyOnlineColorer()
        )
        assert registry.counter("supervisor_forfeits").value == 1
        # The game span's histogram times every game.
        assert registry.histogram("phase_seconds.game").count == 2


def test_game_span_carries_labels_and_outcome(tmp_path):
    from repro.observability.trace import read_trace, tracing

    path = tmp_path / "t.jsonl"
    with tracing(path):
        SupervisedGame(
            run_grid_game,
            GamePolicy(),
            labels={"adversary": "mini-grid"},
        ).run(CrashingAlgorithm(trigger_step=3))
    records = read_trace(path)
    start = next(r for r in records if r["type"] == "span-start")
    end = next(r for r in records if r["type"] == "span-end")
    assert start["adversary"] == "mini-grid"
    assert start["victim"].startswith("crash-on-step")
    assert end["reason"] == "forfeit:victim-crash"
    assert end["forfeit"] is True
    assert end["steps"] == 3


def test_none_return_becomes_model_violation_forfeit():
    result = SupervisedGame(run_grid_game, GamePolicy()).run(
        NoneReturningAlgorithm(trigger_step=2)
    )
    assert result.won and result.forfeit
    assert result.reason == "forfeit:model-violation"


def test_step_budget_forfeit():
    result = SupervisedGame(run_grid_game, GamePolicy(step_budget=5)).run(
        GreedyOnlineColorer()
    )
    assert result.won and result.forfeit
    assert result.reason == "forfeit:step-budget"


def test_wall_clock_timeout_interrupts_infinite_loop():
    started = time.monotonic()
    result = SupervisedGame(run_grid_game, GamePolicy(timeout=0.5)).run(
        InfiniteLoopAlgorithm(trigger_step=2, max_spin_seconds=20.0)
    )
    elapsed = time.monotonic() - started
    assert result.won and result.forfeit
    assert result.reason == "forfeit:timeout"
    assert elapsed < 5.0, "preemptive alarm did not fire"


def test_supervised_algorithm_classifies_crash():
    victim = SupervisedAlgorithm(CrashingAlgorithm(trigger_step=1))
    victim.reset(n=4, locality=1, num_colors=3)
    with pytest.raises(VictimCrash):
        victim.step(None, 0)


def test_supervised_algorithm_step_budget():
    victim = SupervisedAlgorithm(
        GreedyOnlineColorer(), GamePolicy(step_budget=0)
    )
    victim.reset(n=4, locality=1, num_colors=3)
    with pytest.raises(StepBudgetExceeded):
        victim.step(None, 0)


def test_adversary_error_is_not_swallowed():
    def buggy_adversary(_victim):
        raise AdversaryError("certificate holds but no improper edge")

    with pytest.raises(AdversaryError):
        SupervisedGame(buggy_adversary, GamePolicy()).run(GreedyOnlineColorer())


def test_alarm_guard_inner_fires_under_an_outer_timer():
    from repro.robustness.supervisor import alarm_guard

    started = time.monotonic()
    with alarm_guard(10.0):
        with pytest.raises(GameTimeout):
            with alarm_guard(0.2):
                time.sleep(5.0)
    assert time.monotonic() - started < 2.0


def test_alarm_guard_restores_outer_timer_with_remaining_time():
    from repro.robustness.supervisor import alarm_guard

    started = time.monotonic()
    with pytest.raises(GameTimeout):
        with alarm_guard(0.4):
            with alarm_guard(5.0):
                time.sleep(0.05)  # inner exits cleanly, well under both
            # Before the fix the inner guard's exit zeroed ITIMER_REAL,
            # silently cancelling the outer 0.4s deadline — this sleep
            # would then run its full 5 seconds.
            time.sleep(5.0)
    assert time.monotonic() - started < 2.0


def test_alarm_guard_outer_deadline_elapsed_inside_inner_still_fires():
    from repro.robustness.supervisor import alarm_guard

    started = time.monotonic()
    with pytest.raises(GameTimeout):
        with alarm_guard(0.2):
            with alarm_guard(5.0):
                time.sleep(0.35)  # outer deadline passes in here
            time.sleep(5.0)  # re-armed to fire (near) immediately
    assert time.monotonic() - started < 2.0
