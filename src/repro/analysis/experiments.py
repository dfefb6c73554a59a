"""Experiment helpers shared by the benchmark harness.

The central measurement is a *locality threshold*: for a given instance
size and victim/algorithm pairing, the largest locality at which the
adversary still wins, or dually the smallest locality at which an
upper-bound algorithm survives a battery of adversarial reveal orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.robustness.errors import ReproError


@dataclass
class ExperimentRecord:
    """One measured point of a sweep, serializable into report tables."""

    experiment: str
    n: int
    parameters: Dict[str, Any] = field(default_factory=dict)
    measured: Dict[str, Any] = field(default_factory=dict)


def threshold_locality(
    survives: Callable[[int], bool],
    low: int = 0,
    high: int = 64,
) -> Optional[int]:
    """The smallest locality T in [low, high] for which ``survives(T)``.

    Assumes monotonicity (surviving at T implies surviving at T' > T),
    which holds for the algorithms in this library because a larger ball
    strictly extends the information available.  Returns None when even
    ``high`` fails.

    Binary search: O(log(high-low)) survives() evaluations.
    """
    if not survives(high):
        return None
    lo, hi = low, high
    while lo < hi:
        mid = (lo + hi) // 2
        if survives(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def survives_scattered_order(
    victim: str, locality: int, seed: int, **host: Any
) -> bool:
    """Whether ``victim`` survives one seeded scattered reveal order of a
    family's host: the registered ``scattered-order`` game, played by
    :func:`repro.api.run_game`.  ``host`` names the family and its size
    params (``family="grid", rows=16``).

    A defeat on the board and a ``forfeit:model-violation`` are losses.
    Any other forfeit (a crash, a timeout, a harness error) is an error,
    not a loss, so it raises :class:`~repro.robustness.errors.ReproError`.
    """
    from repro.api import run_game  # repro.api imports this package

    row = run_game("scattered-order", victim, locality, seed=seed, **host)
    if row.forfeit and row.reason != "forfeit:model-violation":
        raise ReproError(
            f"{victim} at T={locality}, seed {seed}: {row.reason} "
            f"({row.detail})"
        )
    return not row.won


def survival_battery(
    run_once: Callable[[int, int], bool],
    locality: int,
    seeds: List[int],
) -> bool:
    """Whether the algorithm survives ``run_once(locality, seed)`` for
    every seed in the battery."""
    return all(run_once(locality, seed) for seed in seeds)
