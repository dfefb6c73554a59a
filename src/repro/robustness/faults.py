"""Fault injection: deliberately broken Online-LOCAL algorithms.

Each :class:`FaultyAlgorithm` wraps an honest inner algorithm (greedy by
default) and behaves identically until a trigger step, then injects one
specific failure mode.  They serve two purposes:

* **tests** — proving the supervisor classifies every failure mode as a
  structured forfeit instead of crashing the sweep, and
* **tournament victims** — a standing victim family
  (:func:`faulty_victims`) demonstrating that every adversary degrades
  gracefully against adversarial *implementations*, not just adversarial
  *strategies*.

The paper's theorems quantify over all algorithms; a harness that dies
on the first buggy one is quantifying over less.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

from repro.core.baselines import GreedyOnlineColorer
from repro.models.base import AlgorithmView, Color, NodeId, OnlineAlgorithm


class FaultyAlgorithm(OnlineAlgorithm):
    """Base class: honest until ``trigger_step``, faulty afterwards.

    Parameters
    ----------
    inner:
        The honest algorithm to impersonate (default: first-fit greedy).
    trigger_step:
        The 1-based step index at which :meth:`inject` takes over.
    """

    #: Short identifier of the failure mode, used in victim names.
    kind: str = "faulty"

    def __init__(
        self,
        inner: Optional[OnlineAlgorithm] = None,
        trigger_step: int = 3,
    ) -> None:
        self.inner = inner if inner is not None else GreedyOnlineColorer()
        self.trigger_step = trigger_step
        self.name = f"{self.kind}({self.inner.name}@{trigger_step})"
        self.steps_taken = 0

    def reset(self, n: int, locality: int, num_colors: int) -> None:
        super().reset(n=n, locality=locality, num_colors=num_colors)
        self.steps_taken = 0
        self.inner.reset(n=n, locality=locality, num_colors=num_colors)

    def step(self, view: AlgorithmView, target: NodeId) -> Mapping[NodeId, Color]:
        self.steps_taken += 1
        if self.steps_taken >= self.trigger_step:
            return self.inject(view, target)
        return self.inner.step(view, target)

    def inject(self, view: AlgorithmView, target: NodeId):
        """The injected fault; subclasses override."""
        raise NotImplementedError


class CrashingAlgorithm(FaultyAlgorithm):
    """Raises an arbitrary exception — the classic victim crash."""

    kind = "crash-on-step"

    def inject(self, view: AlgorithmView, target: NodeId):
        raise RuntimeError(
            f"injected crash at step {self.steps_taken} (target {target})"
        )


class InvalidColorAlgorithm(FaultyAlgorithm):
    """Returns a color far outside ``1..num_colors``."""

    kind = "invalid-color"

    def inject(self, view: AlgorithmView, target: NodeId):
        return {target: self.num_colors + 97}


class NoneReturningAlgorithm(FaultyAlgorithm):
    """Returns ``None`` instead of a node→color mapping."""

    kind = "returns-none"

    def inject(self, view: AlgorithmView, target: NodeId):
        return None


class InfiniteLoopAlgorithm(FaultyAlgorithm):
    """Spins inside a single ``step`` call, never returning.

    The supervisor's preemptive alarm is expected to interrupt the spin.
    As a safety valve for unsupervised runs, the loop gives up after
    ``max_spin_seconds`` and raises — so even a misconfigured harness
    terminates, classified as a crash rather than a hang.
    """

    kind = "infinite-loop"

    def __init__(
        self,
        inner: Optional[OnlineAlgorithm] = None,
        trigger_step: int = 3,
        max_spin_seconds: float = 10.0,
    ) -> None:
        super().__init__(inner=inner, trigger_step=trigger_step)
        self.max_spin_seconds = max_spin_seconds

    def inject(self, view: AlgorithmView, target: NodeId):
        give_up = time.monotonic() + self.max_spin_seconds
        while time.monotonic() < give_up:
            pass
        raise RuntimeError(
            f"runaway loop escaped supervision for {self.max_spin_seconds}s"
        )


class FlipFlopAlgorithm(FaultyAlgorithm):
    """Nondeterministic flip-flop: tries to recolor earlier commitments.

    Colors the target honestly but also re-submits the previous target
    with a *different* color — a recoloring violation the view tracker
    must reject.
    """

    kind = "flip-flop"

    def inject(self, view: AlgorithmView, target: NodeId):
        assignment = dict(self.inner.step(view, target))
        for earlier in reversed(view.reveal_sequence[:-1]):
            committed = view.colors.get(earlier)
            if committed is not None:
                flipped = committed % self.num_colors + 1
                assignment[earlier] = flipped
                break
        return assignment


def faulty_victims(
    trigger_step: int = 3,
    max_spin_seconds: float = 10.0,
) -> dict:
    """The standing fault-injection victim family for tournaments.

    Returns name → zero-argument factory; :mod:`repro.registry`
    registers each under its name, and ``include_faulty`` campaign specs
    (``CampaignSpec.tournament(T, include_faulty=True)``) sweep them.
    """
    return {
        "faulty-crash": lambda: CrashingAlgorithm(trigger_step=trigger_step),
        "faulty-invalid-color": lambda: InvalidColorAlgorithm(
            trigger_step=trigger_step
        ),
        "faulty-none": lambda: NoneReturningAlgorithm(trigger_step=trigger_step),
        "faulty-infinite-loop": lambda: InfiniteLoopAlgorithm(
            trigger_step=trigger_step, max_spin_seconds=max_spin_seconds
        ),
        "faulty-flip-flop": lambda: FlipFlopAlgorithm(trigger_step=trigger_step),
    }
