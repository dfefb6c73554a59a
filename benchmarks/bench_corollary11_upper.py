"""Experiment C1.1 (Corollary 1.1): O(log n) upper bound for 3-coloring
bipartite graphs in Online-LOCAL, and the exponential separation from
LOCAL.

Measures, per grid size, the smallest locality at which the Akbari
algorithm survives a battery of adversarial reveal orders, and checks:

* it always survives at the paper's 3·log2(n) budget (the upper bound —
  the content of Corollary 1.1),
* the measured threshold stays strictly below √n (the separation from
  the LOCAL model, where 3-coloring grids needs Θ(√n) [BHK+17]), and
* the LOCAL-model baseline (canonical full-view colorer, run through the
  sandwich adapter) needs Θ(√n)-scale locality on the same orders.

Note on shapes: with n ≤ a few thousand the asymptotic log-vs-polynomial
regime is not separable from 5 data points; the budget bound and the
√n separation are the claims that are decidable at this scale, and both
are asserted.  The best-fit model is printed for the record.
"""


from conftest import akbari_threshold, paper_akbari_budget
from repro.analysis.experiments import (
    survives_scattered_order,
    threshold_locality,
)
from repro.analysis.fitting import best_growth_model
from repro.analysis.tables import render_table

# The full sweep (incl. side 32) runs in repro.analysis.report; the
# bench asserts on a faster subset.
SIDES = (8, 12, 16, 24)


def measure():
    rows = []
    for side in SIDES:
        n = side * side
        budget = paper_akbari_budget(n)
        online = akbari_threshold(side, seeds=range(2), high=budget + 4)
        local = threshold_locality(
            lambda T: all(
                survives_scattered_order(
                    "local-canonical", T, seed, family="grid", rows=side
                )
                for seed in range(2)
            ),
            low=0,
            high=2 * side + 2,
        )
        rows.append([n, side, budget, online, local])
    return rows


def test_corollary11_upper_bound_and_separation():
    rows = measure()
    print()
    print("Corollary 1.1: survival thresholds (Online-LOCAL Akbari vs "
          "LOCAL canonical baseline)")
    print(
        render_table(
            ["n", "sqrt n", "budget 3log2(n)", "akbari threshold",
             "LOCAL baseline threshold"],
            rows,
        )
    )
    for n, side, budget, online, local in rows:
        assert online is not None, f"no survival even at budget+4, n={n}"
        assert online <= budget, (
            f"threshold {online} exceeds the paper budget {budget} at n={n}"
        )
        assert online < side, (
            f"threshold {online} not below sqrt(n)={side}: no separation"
        )
        # The LOCAL baseline needs a constant fraction of the diameter.
        assert local is None or local >= side // 2
    fit = best_growth_model(
        [float(row[0]) for row in rows], [float(row[3]) for row in rows]
    )
    print(f"akbari threshold best-fit: {fit.model} (R^2 = {fit.r_squared:.3f}) "
          f"[shape not decidable at this scale; see EXPERIMENTS.md]")


def test_bench_corollary11(benchmark):
    budget = paper_akbari_budget(256)
    ok = benchmark(lambda: survives_scattered_order(
        "akbari", budget, 0, family="grid", rows=16
    ))
    assert ok
