"""One game as a picklable unit of work.

The campaign engine (:mod:`repro.analysis.campaign`) distributes games
over its supervised worker pool (:mod:`repro.analysis.worker_pool`) or
plays them inline, and a single game (:func:`repro.api.run_game`, the
``adversary`` and ``upper-bound`` commands) is the one game of a
one-game campaign spec; either way the unit is a :class:`GameSpec` — a
*picklable description* of one game (adversary name, victim name,
locality, policy), never a live adversary or algorithm object.
:func:`play_spec` resolves the names through the factory registries
(:mod:`repro.registry` — builtins plus anything third-party code
registered before the workers started), plays the game inside the usual
:class:`~repro.robustness.supervisor.SupervisedGame` boundary, and
returns the finished :class:`~repro.analysis.tournament.TournamentRow`.

Guarantees:

* **Per-game policies wherever the game runs** — the game plays under
  the spec's :class:`~repro.robustness.supervisor.GamePolicy`; pool
  workers, the serial campaign path, :func:`repro.api.run_game` and the
  single-game CLI commands all play on their process's main thread,
  where the preemptive ``SIGALRM`` watchdog works.
* **Metrics survive the process boundary** — each game plays under a
  fresh :func:`~repro.observability.metrics.scoped_registry`, and the
  registry snapshot travels back alongside the row
  (:class:`WorkerResult`).  The caller folds every snapshot into its
  ambient registry; because
  :meth:`~repro.observability.metrics.MetricsRegistry.merge` is
  associative and commutative, the folded totals are the same however
  the games were partitioned.  One caveat: the ball cache pools balls
  per *process* (see ``docs/performance.md``), so while the query total
  (``ball_cache_hits + ball_cache_misses``) and every simulation counter
  are partition-independent, the hit/miss *split* — and the
  bucket-reattach counter that rides along the same snapshots — depends
  on which process played which games.
* **Traces shard per process** — with ``GameSpec.trace_path`` set (and
  no tracer already active), records go to this process's shard file,
  which the campaign merges into the main trace when the run drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.adversaries.result import AdversaryResult
from repro.observability.metrics import scoped_registry
from repro.observability.trace import shard_recording
from repro.robustness.supervisor import GamePolicy, SupervisedGame


@dataclass(frozen=True)
class GameSpec:
    """A picklable description of one campaign game.

    ``adversary`` and ``victim`` are registry names
    (:mod:`repro.registry`); ``victim`` is
    :data:`~repro.registry.FIXED_VICTIM` for fixed-victim entries (the
    Theorem 5 reduction chain), whose victim is built by the adversary
    itself.  ``params`` carries extra adversary-factory keyword
    arguments as a sorted, hashable ``((key, value), ...)`` tuple —
    campaign specs use it to sweep instance-size knobs (``k``, ``side``,
    ``length``) without registering a name per configuration.
    """

    adversary: str
    victim: str
    locality: int
    policy: GamePolicy
    trace_path: Optional[str] = None
    params: tuple = ()


@dataclass
class WorkerResult:
    """One finished game: the row, the game's metrics-registry snapshot
    (its exact metric delta, thanks to the per-game
    :func:`scoped_registry`) and the game's
    :class:`~repro.adversaries.result.AdversaryResult`.

    ``result`` is the evidence the row leaves out — the witness edge and
    the adversary's stats — for in-process callers that print it (the
    single-game CLI commands).  Pool workers send rows only, so it never
    crosses a pipe and never reaches the store."""

    row: Any
    metrics: Dict[str, Any] = field(default_factory=dict)
    result: Optional[AdversaryResult] = None


def play_spec(spec: GameSpec) -> WorkerResult:
    """Play one game described by ``spec``; returns its row, metric
    snapshot and :class:`~repro.adversaries.result.AdversaryResult` as a
    :class:`WorkerResult`.

    Runs inside a pool worker or inline (the campaign's serial path and
    the tests).  Adversary and victim are resolved by name through
    :mod:`repro.registry`, so anything registered — builtin or
    third-party — can cross the process boundary.

    The game plays under a fresh scoped metrics registry whose snapshot
    is returned with the row; callers fold it into their own registry.
    When ``spec.trace_path`` is set (and no tracer is already active in
    this process), trace records go to this process's shard file for the
    caller to merge.
    """
    from repro.analysis.tournament import _row_from_result
    from repro.registry import (
        FIXED_VICTIM,
        FixedVictimGame,
        get_adversary,
        get_victim,
    )

    with shard_recording(spec.trace_path), scoped_registry() as registry:
        entry = get_adversary(spec.adversary)(
            spec.locality, **dict(spec.params)
        )
        labels = {"adversary": spec.adversary}
        if isinstance(entry, FixedVictimGame):
            if spec.victim != FIXED_VICTIM:
                raise ValueError(
                    f"{spec.adversary} is a fixed-victim game; spec named "
                    f"victim {spec.victim!r}"
                )
            game = SupervisedGame(
                lambda _victim, e=entry: e.play(), spec.policy, labels=labels
            )
            result = game.run(None)
        else:
            factory = get_victim(spec.victim)
            result = SupervisedGame(
                entry, spec.policy, labels=labels
            ).run(factory())
        row = _row_from_result(
            spec.adversary, spec.victim, spec.locality, result
        )
        snapshot = registry.snapshot()
    return WorkerResult(row=row, metrics=snapshot, result=result)
