"""Shared helpers for the benchmark harness.

Each benchmark prints the table its EXPERIMENTS.md section records, then
asserts the paper-shaped property (who wins, by what growth shape), and
finally times a representative run under pytest-benchmark.
"""

import math

from repro.analysis.experiments import (
    survives_scattered_order,
    threshold_locality,
)


def akbari_threshold(side: int, seeds=range(3), high: int = 64):
    """Smallest locality at which Akbari survives the whole order battery
    on the side × side grid."""
    return threshold_locality(
        lambda T: all(
            survives_scattered_order("akbari", T, seed, family="grid", rows=side)
            for seed in seeds
        ),
        low=0,
        high=high,
    )


def paper_akbari_budget(n: int) -> int:
    return 3 * math.ceil(math.log2(max(2, n)))
