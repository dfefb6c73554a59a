"""Regenerate EXPERIMENTS.md from live runs.

Usage::

    python -m repro.analysis.report > EXPERIMENTS.md

Each section runs the same measurement the corresponding benchmark
asserts, so the document's numbers are exactly reproducible with
``pytest benchmarks/``.  A full regeneration takes a few minutes.
"""

from __future__ import annotations

import math
import sys
from typing import List

from repro.adversaries.gadget import GadgetAdversary
from repro.adversaries.grid import GridAdversary
from repro.adversaries.path_builder import PathBuilder
from repro.adversaries.reduction import reduce_to_grid
from repro.adversaries.torus import TorusAdversary
from repro.analysis.experiments import (
    survives_scattered_order,
    threshold_locality,
)
from repro.analysis.fitting import best_growth_model, fit_growth
from repro.analysis.tables import render_table
from repro.core.akbari import AkbariBipartiteColoring
from repro.core.baselines import CanonicalLocalColorer, GreedyOnlineColorer
from repro.core.unify import UnifyColoring, recommended_locality
from repro.families.grids import SimpleGrid
from repro.families.hierarchy import Hierarchy
from repro.families.ktree import random_ktree
from repro.families.random_graphs import scattered_reveal_order
from repro.families.triangular import TriangularGrid
from repro.models.adaptive import FloatingGridInstance
from repro.models.online_local import OnlineLocalSimulator
from repro.models.simulation import LocalAsOnline
from repro.oracles import CliqueChainOracle, KTreeOracle, TriangularOracle
from repro.verify.coloring import is_proper


def section_theorem1(out: List[str]) -> None:
    out.append("## T1 — Theorem 1: Ω(log n) for 3-coloring simple grids\n")
    out.append(
        "**Paper claim.** Any Online-LOCAL algorithm 3-coloring a √n×√n grid "
        "has locality Ω(log n); the adversary forces a row path of b-value "
        "k = 4T+5 within a region of length ≤ 5^(k+1)·T, then closes a "
        "rectangle whose cycle b-value cannot be zero.\n"
    )
    out.append(
        "**Measured.** The executable adversary defeats every portfolio "
        "member at every tested locality:\n"
    )
    portfolio = {
        "greedy-online": GreedyOnlineColorer,
        "akbari-truncated": AkbariBipartiteColoring,
        "local-canonical": lambda: LocalAsOnline(CanonicalLocalColorer()),
    }
    rows = []
    for T in (1, 2):
        for name, factory in portfolio.items():
            result = GridAdversary(locality=T).run(factory())
            rows.append(
                [
                    name,
                    T,
                    "defeated" if result.won else "SURVIVED",
                    result.reason,
                    result.stats.get("b_forced", "-"),
                    result.stats.get("region_length", "-"),
                    result.stats.get("reveals", "-"),
                ]
            )
    out.append("```")
    out.append(
        render_table(
            ["victim", "T", "verdict", "how", "b forced", "region", "reveals"],
            rows,
        )
    )
    out.append("```\n")


def section_lemma36(out: List[str]) -> None:
    out.append("## L3.6 — Lemma 3.6: region needed to force b-value ≥ k\n")
    out.append(
        "**Paper claim.** An adversary strategy forces b ≥ k within a "
        "discovered region of length at most 5^(k+1)·T.\n"
    )
    out.append(
        "**Measured** (T = 1, victim = greedy, our construction follows the "
        "tighter recurrence R(k) = 2R(k-1)+3):\n"
    )
    rows = []
    for level in range(1, 9):
        instance = FloatingGridInstance(
            GreedyOnlineColorer(), locality=1, num_colors=3, declared_n=10 ** 9
        )
        builder = PathBuilder(instance)
        built = builder.build(level)
        lo, hi = instance.fragment_row_extent(built.fragment)
        region = hi - lo + 1
        rows.append(
            [
                level,
                built.b,
                region,
                2 ** level * 3 + 3 * (2 ** level - 1),
                5 ** (level + 1),
                builder.reveals,
            ]
        )
    out.append("```")
    out.append(
        render_table(
            ["k", "b achieved", "region", "2^k bound", "paper 5^(k+1)T",
             "reveals"],
            rows,
        )
    )
    out.append("```\n")


def section_corollary11(out: List[str]) -> None:
    out.append("## C1.1 — Corollary 1.1: Θ(log n) for bipartite graphs\n")
    out.append(
        "**Paper claim.** The Akbari et al. algorithm 3-colors any bipartite "
        "graph with locality O(log n) (budget 3·log2 n); Theorem 1 makes "
        "this tight.\n"
    )
    rows = []
    for side in (8, 12, 16, 24, 32):
        n = side * side
        budget = 3 * math.ceil(math.log2(n))
        online = threshold_locality(
            lambda T: all(
                survives_scattered_order(
                    "akbari", T, s, family="grid", rows=side
                )
                for s in range(3)
            ),
            low=0,
            high=budget + 4,
        )
        rows.append([n, side, budget, online])
    out.append("**Measured** (smallest locality surviving 3 scattered orders):\n")
    out.append("```")
    out.append(
        render_table(
            ["n", "sqrt n", "budget 3log2(n)", "measured threshold"], rows
        )
    )
    out.append("```\n")
    fit = best_growth_model(
        [float(r[0]) for r in rows], [float(r[3]) for r in rows]
    )
    out.append(
        f"Thresholds stay below both the paper budget and √n at every size "
        f"(the LOCAL model needs Θ(√n)).  Best-fit shape over this small "
        f"range: `{fit.model}` (R² = {fit.r_squared:.3f}); the log-vs-"
        f"polynomial asymptotic regime is not separable with n ≤ 1024, so "
        f"the budget bound and the √n separation are the decidable claims, "
        f"and both hold.\n"
    )


def section_theorem2(out: List[str]) -> None:
    out.append("## T2 — Theorem 2: Ω(√n) on toroidal and cylindrical grids\n")
    out.append(
        "**Paper claim.** On odd-column tori/cylinders, any algorithm with "
        "locality ≤ (√n−4)/4 is defeated by orienting two independently "
        "colored rows so Equation (1) fails.\n"
    )
    rows = []
    for topology in ("torus", "cylinder"):
        for T in (1, 2, 3, 4):
            adversary = TorusAdversary(locality=T, topology=topology)
            result = adversary.run(AkbariBipartiteColoring())
            rows.append(
                [
                    topology,
                    T,
                    adversary.side,
                    adversary.side ** 2,
                    "defeated" if result.won else "SURVIVED",
                    result.stats.get("b_sum", "-"),
                ]
            )
    out.append("**Measured** (victim = Akbari at the tested locality):\n")
    out.append("```")
    out.append(
        render_table(["topology", "T", "side", "n", "verdict", "b1+b2"], rows)
    )
    out.append("```\n")
    ts = [float(r[1]) for r in rows if r[0] == "torus"]
    sides = [float(r[2]) for r in rows if r[0] == "torus"]
    fit = fit_growth(ts, sides, "linear")
    out.append(
        f"Minimal defeated side grows linearly in T "
        f"(slope {fit.slope:.2f}, theory 4, R² = {fit.r_squared:.3f}) — "
        f"i.e. the defeated locality is Θ(√n).\n"
    )


def section_theorem3(out: List[str]) -> None:
    out.append("## T3 — Theorem 3: Ω(n) for (2k−2)-coloring k-partite graphs\n")
    out.append(
        "**Paper claim.** On the gadget chain G*, any algorithm with "
        "locality o(n) can be forced to make the two end gadgets disagree "
        "(row- vs column-colorful), which no proper (2k−2)-coloring allows "
        "(Lemma 4.6).\n"
    )
    rows = []
    for k in (3, 4):
        for colors in (k + 1, 2 * k - 2):
            for T in (1, 2, 4, 6):
                adversary = GadgetAdversary(k=k, locality=T, colors=colors)
                result = adversary.run(GreedyOnlineColorer())
                rows.append(
                    [
                        k,
                        colors,
                        T,
                        adversary.length,
                        k * k * adversary.length,
                        result.stats.get("tail_committed", "-"),
                        "defeated" if result.won else "SURVIVED",
                    ]
                )
    out.append(
        "**Measured** (victim = greedy; colors = k+1 realizes "
        "Corollary 1.3, colors = 2k-2 is Theorem 3):\n"
    )
    out.append("```")
    out.append(
        render_table(
            ["k", "colors", "T", "gadgets", "n", "commit", "verdict"], rows
        )
    )
    out.append("```\n")
    out.append(
        "n = k²(2T+3) suffices for every defeat at every budget "
        "c ∈ [k+1, 2k−2]: the defeated locality scales linearly with n.\n"
    )


def section_theorem4(out: List[str]) -> None:
    out.append("## T4 — Theorem 4: O(log n) for (k+1)-coloring L_{k,l} graphs\n")
    out.append(
        "**Paper claim.** With a radius-ℓ partition oracle, the "
        "type-unification algorithm (k+1)-colors any graph in L_{k,ℓ} with "
        "locality 3(k−1)log2(n)+ℓ.\n"
    )
    cases = [
        ("triangular-grid", TriangularGrid(16).graph, TriangularOracle(), 4),
        ("ktree-k2", random_ktree(2, 120, seed=3).graph, KTreeOracle(2), 4),
        ("ktree-k3", random_ktree(3, 90, seed=5).graph, KTreeOracle(3), 5),
        ("hierarchy-g3", Hierarchy(3, 7, 7).graph, CliqueChainOracle(3, 3), 4),
    ]
    rows = []
    for name, graph, oracle, colors in cases:
        n = graph.num_nodes
        budget = recommended_locality(oracle.num_parts, oracle.radius, n)
        swaps = []
        proper = True
        for seed in range(2):
            algorithm = UnifyColoring(oracle)
            sim = OnlineLocalSimulator(
                graph, algorithm, locality=budget, num_colors=colors
            )
            order = scattered_reveal_order(sorted(graph.nodes(), key=repr), seed=seed)
            coloring = sim.run(order)
            proper &= is_proper(graph, coloring)
            swaps.append(algorithm.swap_count)
        rows.append(
            [name, n, oracle.num_parts, budget, colors,
             "proper" if proper else "IMPROPER", max(swaps)]
        )
    out.append("**Measured** (2 scattered orders per family, paper budget):\n")
    out.append("```")
    out.append(
        render_table(
            ["family", "n", "k", "budget T", "colors", "outcome", "max swaps"],
            rows,
        )
    )
    out.append("```\n")


def section_theorem5(out: List[str]) -> None:
    out.append("## T5 — Theorem 5: Ω(log n) for L_{k,l} via the hierarchy G_k\n")
    out.append(
        "**Paper claim.** A (k+1)-colorer of G_k yields, through the "
        "locality-preserving Lemma 5.7 reduction, a 3-colorer of the grid — "
        "so Theorem 1's bound lifts to every constant k.\n"
    )
    rows = []
    for k in (3, 4):
        for name, factory in {
            "unify+clique-oracle": lambda k=k: UnifyColoring(
                CliqueChainOracle(k, k)
            ),
            "greedy": lambda k=k: GreedyOnlineColorer(),
        }.items():
            result = GridAdversary(locality=1).run(reduce_to_grid(factory(), k=k))
            rows.append([k, name, "defeated" if result.won else "SURVIVED"])
    out.append("**Measured** (grid adversary at T=1 vs reduced algorithms):\n")
    out.append("```")
    out.append(render_table(["k", "inner algorithm", "verdict"], rows))
    out.append("```\n")


def section_sandwich(out: List[str]) -> None:
    out.append("## SANDWICH — the five-model landscape (Section 1)\n")
    out.append(
        "**Paper claim.** LOCAL ⊆ SLOCAL, Dynamic-LOCAL ⊆ Online-LOCAL; "
        "(Δ+1)-coloring is easy everywhere, 3-coloring separates "
        "Online-LOCAL (Θ(log n)) from LOCAL (Θ(√n)).\n"
    )
    out.append(
        "**Measured.** `benchmarks/bench_model_sandwich.py`: greedy "
        "(Δ+1)-coloring is proper in SLOCAL, Dynamic-LOCAL and "
        "Online-LOCAL at locality 1 on the same adversarial order; on a "
        "40×40 grid at T = 3·log2(n) = 33 the Akbari algorithm is proper "
        "on every tested order while the LOCAL canonical baseline goes "
        "improper (its views stop short of the ~√n it needs).  "
        "Cole–Vishkin 3-colors 200-node directed cycles within the "
        "log*-scale round budget (≤ 12 rounds even for 64-bit ids), "
        "exercising the message-passing formulation of LOCAL whose "
        "equivalence with the view formulation is tested directly.\n"
    )


def section_tightness(out: List[str]) -> None:
    out.append("## TIGHT — tightness of the Section 4 machinery "
               "(the open problem)\n")
    out.append(
        "**Paper claim.** The hard-instance technique cannot extend past "
        "c = 2k−2 (else it would contradict Corollary 1.1); resolving "
        "c-coloring k-partite graphs for all (c, k) is left open.\n"
    )
    out.append(
        "**Measured.** `tests/verify/test_gadget_tightness.py` exhibits, "
        "by exhaustive enumeration on A(3) and a 2-gadget chain, proper "
        "(2k−1)-colorings that are simultaneously row- and "
        "column-colorful and chains whose consecutive gadgets disagree — "
        "Claim 4.5 and Lemma 4.6 break at exactly c = 2k−1, while at "
        "c = 2k−2 every sampled coloring obeys the dichotomy.\n"
    )


def section_gkm(out: List[str]) -> None:
    out.append("## GKM — SLOCAL inside LOCAL via network decompositions "
               "(introduction)\n")
    out.append(
        "**Paper claim (recounted).** [GKM17] simulate any SLOCAL "
        "algorithm in LOCAL using network decompositions, so with [RG20] "
        "the polylog-locality classes coincide.\n"
    )
    from repro.graphs.decomposition import (
        ball_carving_decomposition,
        check_decomposition,
    )
    from repro.models.gkm import GkmSimulation
    from repro.models.slocal import SLocalAlgorithm, SLocalView

    class _Greedy(SLocalAlgorithm):
        name = "greedy"

        def color(self, view: SLocalView) -> int:
            used = {
                view.colors.get(v) for v in view.graph.neighbors(view.center)
            }
            return min(
                c for c in range(1, self.num_colors + 1) if c not in used
            )

    rows = []
    for name, graph in (
        ("grid-5x5", SimpleGrid(5, 5).graph),
        ("grid-6x8", SimpleGrid(6, 8).graph),
    ):
        decomposition = ball_carving_decomposition(graph)
        c, d = check_decomposition(graph, decomposition)
        sim = GkmSimulation(graph, decomposition, _Greedy(), 1, 5)
        budget = sim.radius_budget()
        probes = sorted(graph.nodes())[:: max(1, graph.num_nodes // 6)]
        worst = max(
            sim.dependency_radius(node, max_radius=budget) for node in probes
        )
        rows.append([name, graph.num_nodes, c, d, budget, worst])
    out.append(
        "**Measured** (ball-carving decomposition; greedy SLOCAL at T=1; "
        "dependency radius = smallest ball pinning a node's label):\n"
    )
    out.append("```")
    out.append(
        render_table(
            ["instance", "n", "c", "d", "budget c(d+T)+T", "max measured"],
            rows,
        )
    )
    out.append("```\n")


def section_randomized(out: List[str]) -> None:
    out.append("## RAND — randomized victims (context: [ACd+24])\n")
    out.append(
        "**Context.** The paper's model is deterministic; the follow-up "
        "[ACd+24] extends the Ω(log n) bound to randomized algorithms.\n"
    )
    out.append(
        "**Measured.** Our adversaries are adaptive (they branch only on "
        "committed colors), so they defeat seeded-randomized greedy on "
        "*every* run — "
        "`tests/adversaries/test_randomized_victims.py` sweeps 5 seeds "
        "through the Theorem 1, 2, and 3 adversaries with a clean sweep.\n"
    )


def section_ablations(out: List[str]) -> None:
    out.append("## ABL — ablations (benchmarks/bench_ablations.py)\n")
    out.append(
        "* **Flip the smaller group** (Akbari): on a merge-heavy anchor "
        "order the paper's flip-smaller policy stays proper at T = 12; "
        "flip-larger performs at least as many flips and is the policy "
        "whose per-node flip count is unbounded.\n"
        "* **Gap choice ℓ ∈ {2,3}** (Lemma 3.6): the parity-driven choice "
        "always reaches the target b-value; the fixed-gap ablation stalls "
        "(recorded per-concatenation).\n"
        "* **Identifier anonymity**: with leaked grid coordinates a "
        "zero-locality memoryless colorer survives every order — the "
        "lower bounds live in anonymity + adaptive commitment.\n"
        "* **Odd columns** (Theorem 2): on an even-sided torus the "
        "two-row killer order is harmless (row b-values are even; the "
        "graph is bipartite).\n"
    )


def section_threshold_campaign(out: List[str]) -> None:
    import tempfile

    from repro.analysis.campaign import (
        ThresholdSearchSpec,
        run_threshold_search,
        threshold_table,
    )

    out.append("## CAMPAIGN — adaptive threshold search (smallest "
               "surviving locality)\n")
    out.append(
        "**Setup.** The campaign engine "
        "(`python -m repro.cli campaign run SPEC --store DIR`) "
        "binary-searches, per (adversary, victim), the smallest locality "
        "in [0, 2] at which the victim survives.  Probes flow through "
        "the content-addressed result store, so a killed search resumes "
        "with zero replayed games, and `>2` means the adversary won at "
        "every probed locality — the lower bound held over the whole "
        "range, which is what every theorem predicts.\n"
    )
    spec = ThresholdSearchSpec(name="experiments-threshold", low=0, high=2)
    with tempfile.TemporaryDirectory() as store:
        results, outcome = run_threshold_search(spec, store)
    out.append("```")
    out.append(threshold_table(results))
    out.append("```\n")
    out.append(
        f"{outcome.played} games decided {len(results)} searches "
        "(losing at the top of the range is decisive); `n` is the "
        "instance size the adversary declared at the probe.\n"
    )


def generate() -> str:
    out: List[str] = []
    out.append("# EXPERIMENTS — paper vs measured\n")
    out.append(
        "Regenerate with `python -m repro.analysis.report > EXPERIMENTS.md` "
        "(a few minutes); the same measurements are asserted by "
        "`pytest benchmarks/`.\n"
    )
    out.append(
        "The paper is a theory paper: each theorem/lemma is an experiment "
        "here, per the index in DESIGN.md.  \"Defeated\" verdicts are "
        "machine-checked (view-consistency audit + explicit monochromatic "
        "edge + b-value certificates).\n"
    )
    for section in (
        section_theorem1,
        section_lemma36,
        section_corollary11,
        section_theorem2,
        section_theorem3,
        section_theorem4,
        section_theorem5,
        section_sandwich,
        section_gkm,
        section_tightness,
        section_randomized,
        section_ablations,
        section_threshold_campaign,
    ):
        section(out)
    out.append("## Honest limitations\n")
    out.append(
        "* The theorems quantify over *all* deterministic algorithms; an "
        "executable artifact demonstrates defeat of a concrete portfolio "
        "(greedy, the paper's own upper-bound algorithm run truncated, and "
        "a LOCAL-model baseline) plus machine-checked impossibility "
        "certificates that apply to any algorithm.\n"
        "* Asymptotic shapes are asserted where laptop-scale n can decide "
        "them (linear side-vs-T for Theorem 2, linear n-vs-T for "
        "Theorem 3, budget + √n-separation for Corollary 1.1); the "
        "log-vs-polynomial distinction for thresholds is reported but not "
        "decidable at n ≤ ~10³, and is marked as such.\n"
        "* The paper's 5^(k+1)·T region bound is loose; our construction "
        "satisfies the tighter 2^k recurrence, and both bounds are checked."
        "\n"
    )
    return "\n".join(out)


if __name__ == "__main__":
    sys.stdout.write(generate())
