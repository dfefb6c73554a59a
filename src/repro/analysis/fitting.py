"""Least-squares fits of threshold curves to the paper's growth shapes.

Candidate models (all through-origin up to an additive constant):

* ``log``    — y = a·log2(x) + b   (Theorems 1, 4, 5)
* ``sqrt``   — y = a·√x + b        (Theorem 2)
* ``linear`` — y = a·x + b         (Theorem 3)
* ``const``  — y = b

Implemented with plain ``math`` (closed-form simple linear regression on
a transformed x) so the package stays dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

_MODELS: Dict[str, Callable[[float], float]] = {
    "log": lambda x: math.log2(x),
    "sqrt": lambda x: math.sqrt(x),
    "linear": lambda x: x,
    "const": lambda x: 0.0,
}


@dataclass
class FitResult:
    """A fitted growth model y ≈ slope·f(x) + intercept."""

    model: str
    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """The fitted value at ``x``."""
        return self.slope * _MODELS[self.model](x) + self.intercept


def fit_growth(
    xs: Sequence[float], ys: Sequence[float], model: str
) -> FitResult:
    """Least-squares fit of ``ys ≈ slope · f(xs) + intercept``.

    Raises
    ------
    ValueError
        On unknown model names or fewer than two points.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; pick from {sorted(_MODELS)}")
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    transform = _MODELS[model]
    ts = [transform(x) for x in xs]
    n = len(ts)
    mean_t = sum(ts) / n
    mean_y = sum(ys) / n
    var_t = sum((t - mean_t) ** 2 for t in ts)
    if var_t == 0.0:
        slope = 0.0
        intercept = mean_y
    else:
        cov = sum((t - mean_t) * (y - mean_y) for t, y in zip(ts, ys))
        slope = cov / var_t
        intercept = mean_y - slope * mean_t
    ss_res = sum(
        (y - (slope * t + intercept)) ** 2 for t, y in zip(ts, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(model=model, slope=slope, intercept=intercept, r_squared=r_squared)


def best_growth_model(
    xs: Sequence[float],
    ys: Sequence[float],
    candidates: Tuple[str, ...] = ("const", "log", "sqrt", "linear"),
) -> FitResult:
    """The candidate model with the highest R² on the data.

    Ties break toward the *slowest* growth (candidates order), so a flat
    series is reported as ``const`` rather than a zero-slope line.
    """
    fits: List[FitResult] = [fit_growth(xs, ys, model) for model in candidates]
    best = fits[0]
    for fit in fits[1:]:
        if fit.r_squared > best.r_squared + 1e-9:
            best = fit
    return best
