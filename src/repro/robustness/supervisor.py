"""The game supervisor: a hardened boundary around adversary-vs-victim games.

The paper's lower bounds are adversary strategies that must defeat *any*
algorithm — including buggy, cheating, or crashing ones.  The supervisor
makes the harness live up to that: every simulator/adversary/victim
interaction runs inside an execution boundary that

* enforces a per-game **step budget** and a **wall-clock timeout**
  (preemptive via ``SIGALRM`` where available, cooperative otherwise),
* converts any exception escaping the victim into a structured
  :class:`~repro.robustness.errors.VictimCrash`, and
* converts every classified failure into a *forfeit*
  :class:`~repro.adversaries.result.AdversaryResult` (the adversary wins
  with a machine-readable reason) instead of aborting the sweep.

Every game runs through :class:`SupervisedGame`, by way of
:func:`~repro.analysis.executor.play_spec`: campaign games, the
tournament, :func:`repro.api.run_game` and the single-game CLI commands
(``adversary``, and ``upper-bound`` through the registered
``scattered-order`` game).
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Optional

from repro.adversaries.result import AdversaryResult, forfeit_result
from repro.models.base import Color, NodeId, OnlineAlgorithm
from repro.observability.metrics import get_registry
from repro.observability.trace import span
from repro.robustness.errors import (
    GameTimeout,
    ProtocolViolation,
    ReproError,
    StepBudgetExceeded,
    VictimCrash,
)


@dataclass(frozen=True)
class GamePolicy:
    """Resource limits for one supervised game.

    Attributes
    ----------
    step_budget:
        Maximum algorithm steps per game (None = unlimited).
    timeout:
        Wall-clock budget per game in seconds (None = unlimited).
    """

    step_budget: Optional[int] = None
    timeout: Optional[float] = None

    def deadline(self) -> Optional[float]:
        """The monotonic-clock deadline implied by :attr:`timeout`."""
        if self.timeout is None:
            return None
        return time.monotonic() + self.timeout


@contextmanager
def alarm_guard(timeout: Optional[float]) -> Iterator[None]:
    """Preemptively raise :class:`GameTimeout` after ``timeout`` seconds.

    Uses ``SIGALRM``/``setitimer`` when running on the main thread of a
    platform that supports it; otherwise a no-op (the cooperative
    per-step deadline check in :class:`SupervisedAlgorithm` still
    applies).  The preemptive path is what rescues games from victims
    that never return from a single ``step`` call.

    Nests correctly: if an ``ITIMER_REAL`` timer was already armed (an
    outer guard — e.g. a scheduler-level budget around a supervised
    game), exiting the inner guard restores the outer timer with its
    *remaining* time rather than zeroing it, so the outer deadline
    still fires.  An outer deadline that elapsed entirely inside the
    inner guard is re-armed to fire immediately.
    """
    usable = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise GameTimeout(f"wall-clock budget of {timeout}s exhausted")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, timeout
    )
    armed_at = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            remaining = outer_delay - (time.monotonic() - armed_at)
            # An outer deadline that passed while we ran must still
            # fire — as soon as possible — not be silently cancelled.
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), outer_interval
            )


class SupervisedAlgorithm(OnlineAlgorithm):
    """A proxy that polices the algorithm under test.

    Wraps ``inner`` so that every ``step``

    1. charges the step budget and checks the wall-clock deadline,
    2. re-raises structured :class:`ReproError` failures untouched,
    3. wraps any other exception in :class:`VictimCrash`, and
    4. rejects non-mapping return values (``None`` included) with
       :class:`ProtocolViolation` before they reach the view tracker.
    """

    def __init__(
        self,
        inner: OnlineAlgorithm,
        policy: GamePolicy = GamePolicy(),
        deadline: Optional[float] = None,
    ) -> None:
        self.inner = inner
        self.policy = policy
        self.deadline = deadline if deadline is not None else policy.deadline()
        self.name = f"supervised({inner.name})"
        self.steps_taken = 0

    def reset(self, n: int, locality: int, num_colors: int) -> None:
        super().reset(n=n, locality=locality, num_colors=num_colors)
        self.steps_taken = 0
        self.inner.reset(n=n, locality=locality, num_colors=num_colors)

    def step(self, view, target: NodeId) -> Mapping[NodeId, Color]:
        self.steps_taken += 1
        budget = self.policy.step_budget
        if budget is not None and self.steps_taken > budget:
            raise StepBudgetExceeded(
                f"{self.inner.name}: step budget of {budget} exhausted"
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise GameTimeout(
                f"{self.inner.name}: wall-clock budget of "
                f"{self.policy.timeout}s exhausted"
            )
        try:
            assignment = self.inner.step(view, target)
        except ReproError:
            raise
        except Exception as exc:
            raise VictimCrash(
                f"{self.inner.name} crashed on step {self.steps_taken}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(assignment, Mapping):
            raise ProtocolViolation(
                f"{self.inner.name}: step returned "
                f"{type(assignment).__name__!s}, expected a node->color mapping"
            )
        return assignment


class SupervisedGame:
    """Run one adversary game to a guaranteed structured outcome.

    ``play`` is a callable mapping a victim algorithm to an
    :class:`AdversaryResult` (the shape of the tournament's adversary
    entries).  :meth:`run` wraps the victim in
    :class:`SupervisedAlgorithm`, arms the preemptive alarm, and maps
    every classified failure to a forfeit result, so the caller *always*
    gets a result row:

    ========================  =========================================
    failure                   forfeit reason
    ========================  =========================================
    step budget exhausted     ``forfeit:step-budget``
    wall-clock exhausted      ``forfeit:timeout``
    victim raised             ``forfeit:victim-crash``
    protocol violation        ``forfeit:model-violation``
    other structured error    ``forfeit:harness-error``
    ========================  =========================================

    Adversaries already convert :class:`ProtocolViolation` they observe
    into ``model-violation`` wins; under supervision those results are
    normalized to ``forfeit:model-violation`` with ``forfeit=True`` so
    sweeps can count every non-honest loss uniformly.

    Failures that indicate harness bugs (``AdversaryError``, arbitrary
    exceptions raised by adversary code itself) are *not* swallowed —
    they propagate, because masking them would fake a clean sweep.
    """

    def __init__(
        self,
        play: Callable[[OnlineAlgorithm], AdversaryResult],
        policy: GamePolicy = GamePolicy(),
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.play = play
        self.policy = policy
        #: Extra fields stamped on the game's trace span (the tournament
        #: passes ``adversary``/``victim`` so traces are self-describing).
        self.labels = dict(labels) if labels else {}

    def run(self, victim: Optional[OnlineAlgorithm]) -> AdversaryResult:
        """Play against ``victim`` (None for fixed-victim games)."""
        if victim is None:
            contender: Optional[SupervisedAlgorithm] = None
        else:
            contender = SupervisedAlgorithm(victim, self.policy)
        span_fields = {"victim": victim.name if victim else "(fixed)"}
        span_fields.update(self.labels)
        with span("game", **span_fields) as game:
            result = self._run_guarded(contender)
            game.note(
                reason=result.reason,
                won=result.won,
                forfeit=result.forfeit,
                steps=contender.steps_taken if contender else None,
            )
        result.stats.setdefault("game_seconds", round(game.seconds, 6))
        if contender is not None:
            result.stats.setdefault("steps_taken", contender.steps_taken)
        if result.forfeit:
            get_registry().inc("supervisor_forfeits")
        return result

    def _run_guarded(
        self, contender: Optional["SupervisedAlgorithm"]
    ) -> AdversaryResult:
        """The play call with every classified failure mapped to a forfeit
        carrying its structured cause (exception type + reveal index)."""

        def step() -> Optional[int]:
            return contender.steps_taken if contender is not None else None

        try:
            with alarm_guard(self.policy.timeout):
                result = self.play(contender)
        except StepBudgetExceeded as exc:
            result = forfeit_result("forfeit:step-budget", exc, step())
        except GameTimeout as exc:
            result = forfeit_result("forfeit:timeout", exc, step())
        except VictimCrash as exc:
            result = forfeit_result("forfeit:victim-crash", exc, step())
        except ProtocolViolation as exc:
            result = forfeit_result("forfeit:model-violation", exc, step())
        except ReproError as exc:
            result = forfeit_result("forfeit:harness-error", exc, step())
        if result.reason == "model-violation":
            # Violations the adversary itself observed (the tracker's
            # AlgorithmError) arrive as results, not exceptions; give
            # them the same structured cause as exception-path forfeits.
            result = replace(
                result, won=True, reason="forfeit:model-violation", forfeit=True
            )
            result.stats.setdefault("error_type", "AlgorithmError")
            if step() is not None:
                result.stats.setdefault("failed_at_step", step())
        return result

