"""Tests for the incremental Dynamic-LOCAL model."""

import pytest

from repro.families.grids import SimpleGrid
from repro.graphs.traversal import BallCache, ball
from repro.models.dynamic_local import (
    DynamicBipartiteRecolor,
    DynamicGreedy,
    DynamicLocalSimulator,
    DynamicViolation,
    DynamicAlgorithm,
)
from repro.verify.coloring import is_proper


def grow_grid(sim, rows, cols, order=None):
    """Insert a rows x cols grid node by node (row-major by default),
    wiring each node to its already-present grid neighbors."""
    grid = SimpleGrid(rows, cols)
    nodes = order or sorted(grid.graph.nodes())
    present = set()
    for node in nodes:
        neighbors = [v for v in grid.graph.neighbors(node) if v in present]
        sim.insert(node, neighbors)
        present.add(node)
    return grid


class TestSimulatorContract:
    def test_duplicate_insert_rejected(self):
        sim = DynamicLocalSimulator(DynamicGreedy(), locality=1, num_colors=5)
        sim.insert("a")
        with pytest.raises(ValueError, match="already inserted"):
            sim.insert("a")

    def test_unknown_neighbor_rejected(self):
        sim = DynamicLocalSimulator(DynamicGreedy(), locality=1, num_colors=5)
        with pytest.raises(ValueError, match="not in the graph"):
            sim.insert("a", ["ghost"])

    def test_out_of_ball_recoloring_rejected(self):
        class Cheater(DynamicAlgorithm):
            name = "cheater"
            plan = {"far": 1, "mid": 2, "near": 1}

            def update(self, view):
                assignment = {view.new_node: self.plan[view.new_node]}
                if view.new_node == "near":
                    assignment["far"] = 2  # two hops away, ball radius 1
                return assignment

        sim = DynamicLocalSimulator(Cheater(), locality=1, num_colors=3)
        sim.insert("far")
        sim.insert("mid", ["far"])
        with pytest.raises(DynamicViolation, match="outside"):
            sim.insert("near", ["mid"])

    def test_improper_intermediate_detected(self):
        class Constant(DynamicAlgorithm):
            name = "constant"

            def update(self, view):
                return {view.new_node: 1}

        sim = DynamicLocalSimulator(Constant(), locality=1, num_colors=3)
        sim.insert(0)
        with pytest.raises(DynamicViolation, match="improper"):
            sim.insert(1, [0])

    def test_color_budget_enforced(self):
        class Loud(DynamicAlgorithm):
            name = "loud"

            def update(self, view):
                return {view.new_node: 99}

        sim = DynamicLocalSimulator(Loud(), locality=1, num_colors=3)
        with pytest.raises(DynamicViolation, match="outside 1..3"):
            sim.insert(0)


class TestDynamicGreedy:
    def test_grid_growth_stays_proper(self):
        """The paper's Section 1 example transplanted: greedy solves
        (Δ+1)-coloring with locality 1."""
        sim = DynamicLocalSimulator(DynamicGreedy(), locality=1, num_colors=5)
        grid = grow_grid(sim, 6, 6)
        assert is_proper(grid.graph, sim.colors)
        assert sim.total_recolorings() == 0

    def test_needs_degree_plus_one(self):
        sim = DynamicLocalSimulator(DynamicGreedy(), locality=1, num_colors=2)
        sim.insert(0)       # color 1
        sim.insert(1, [0])  # color 2
        with pytest.raises(DynamicViolation):
            sim.insert(2, [0, 1])  # adjacent to both colors


class TestDynamicBipartiteRecolor:
    def test_row_major_grid_growth(self):
        sim = DynamicLocalSimulator(
            DynamicBipartiteRecolor(), locality=3, num_colors=3
        )
        grid = grow_grid(sim, 6, 6)
        assert is_proper(grid.graph, sim.colors)
        assert set(sim.colors.values()) <= {1, 2}

    def test_parity_clash_triggers_recoloring(self):
        """Grow two paths with clashing parities, then join them: the
        algorithm must flip one side (within the ball) to stay proper."""
        sim = DynamicLocalSimulator(
            DynamicBipartiteRecolor(), locality=4, num_colors=3
        )
        # Path A: a0-a1; Path B: b0-b1; both endpoints get color 1.
        sim.insert("a0")
        sim.insert("a1", ["a0"])
        sim.insert("b0")
        sim.insert("b1", ["b0"])
        assert sim.colors["a1"] == sim.colors["b1"] == 2
        # Join the two color-1 ends through a fresh middle node: its
        # neighbors a0 and b0 are both 1 after this insert sequence...
        # connect to a0 (1) and b1 (2): blocked on both 1 and 2.
        sim.insert("m", ["a0", "b1"])
        assert is_proper(sim.graph, sim.colors)

    def test_distant_clash_forces_color_3(self):
        """When the clashing side extends beyond the ball the algorithm
        must burn color 3 instead of flipping."""
        sim = DynamicLocalSimulator(
            DynamicBipartiteRecolor(), locality=2, num_colors=3
        )
        # A long path whose far end is outside any radius-2 ball.
        sim.insert("p0")
        for i in range(1, 6):
            sim.insert(f"p{i}", [f"p{i - 1}"])
        # A second long path.
        sim.insert("q0")
        for i in range(1, 6):
            sim.insert(f"q{i}", [f"q{i - 1}"])
        # p5 and q5: p5 has color 2 (odd index), q5 color 2. Join via a
        # node adjacent to p4 (1) and q5 (2): blocked both ways, and the
        # 1-colored p-side stretches past the ball boundary.
        sim.insert("join", ["p4", "q5"])
        assert is_proper(sim.graph, sim.colors)
        assert sim.colors["join"] == 3

    def test_lower_bound_transfers(self):
        """An adversarial insertion sequence eventually defeats the
        best-effort recolorer at small locality — as it must, since
        Theorem 1's bound transfers down the model sandwich."""
        sim = DynamicLocalSimulator(
            DynamicBipartiteRecolor(), locality=1, num_colors=3
        )
        defeated = False
        try:
            # Many parity-clashing junctions in a row exhaust {1,2,3}.
            sim.insert("x0")
            sim.insert("x1", ["x0"])
            sim.insert("y0")
            sim.insert("y1", ["y0"])
            sim.insert("z0")
            sim.insert("z1", ["z0"])
            sim.insert("j1", ["x0", "y1"])   # forced onto 3
            sim.insert("j2", ["y0", "z1"])   # forced onto 3 again
            # A node adjacent to colors 1, 2, and 3 has nowhere to go.
            sim.insert("k", ["x1", "j1"])
            sim.insert("dead", ["x0", "x1", "j1"])
        except DynamicViolation:
            defeated = True
        if not defeated:
            assert is_proper(sim.graph, sim.colors)


def test_recolor_counter():
    sim = DynamicLocalSimulator(
        DynamicBipartiteRecolor(), locality=4, num_colors=3
    )
    sim.insert("a0")
    sim.insert("a1", ["a0"])
    sim.insert("b0")
    sim.insert("b1", ["b0"])
    before = sim.total_recolorings()
    sim.insert("m", ["a0", "b1"])
    assert sim.total_recolorings() >= before


def test_insertions_leave_the_ball_pool_alone():
    """Every insertion changes the graph's structure, so the simulator
    computes its one ball per insertion with ``ball()`` instead of
    pooling balls no later structure could hit."""
    BallCache(SimpleGrid(8, 8).graph).ball((0, 0), 1)
    pooled = list(BallCache._shared_store)
    views = []

    class Recording(DynamicGreedy):
        def update(self, view):
            views.append(frozenset(view.graph.nodes()))
            return super().update(view)

    sim = DynamicLocalSimulator(Recording(), locality=2, num_colors=3)
    for i in range(200):
        sim.insert(i, [i - 1] if i else [])
        assert views[-1] == ball(sim.graph, i, 2)
    assert len(views) == 200
    assert list(BallCache._shared_store) == pooled


class TestFullyDynamic:
    """Dynamic-LOCAL±: deletions never break a proper coloring, and the
    repair hook is radius-enforced."""

    def test_insert_delete_roundtrip(self):
        from repro.models.dynamic_local import FullyDynamicLocalSimulator

        sim = FullyDynamicLocalSimulator(DynamicGreedy(), locality=1, num_colors=5)
        grid = grow_grid(sim, 4, 4)
        sim.delete((1, 1))
        sim.delete((2, 2))
        assert (1, 1) not in sim.graph
        assert is_proper(sim.graph, sim.colors)
        # Re-insert one of them.
        sim.insert((1, 1), [(0, 1), (1, 0), (1, 2)])
        assert is_proper(sim.graph, sim.colors)

    def test_delete_unknown_rejected(self):
        from repro.models.dynamic_local import FullyDynamicLocalSimulator

        sim = FullyDynamicLocalSimulator(DynamicGreedy(), locality=1, num_colors=5)
        with pytest.raises(ValueError):
            sim.delete("ghost")

    def test_repair_hook_radius_enforced(self):
        from repro.models.dynamic_local import FullyDynamicLocalSimulator

        class OverreachingRepair(DynamicGreedy):
            name = "overreaching"

            def repair_after_deletion(self, view, former_neighbors):
                return {"z": 1}  # far from the deletion point

        sim = FullyDynamicLocalSimulator(
            OverreachingRepair(), locality=1, num_colors=5
        )
        # Path a-b-c-z; delete a: ball around {b} at radius 1 is {b,c}.
        sim.insert("a")
        sim.insert("b", ["a"])
        sim.insert("c", ["b"])
        sim.insert("z", ["c"])
        with pytest.raises(DynamicViolation, match="outside"):
            sim.delete("a")

    def test_isolated_node_deletion(self):
        from repro.models.dynamic_local import FullyDynamicLocalSimulator

        sim = FullyDynamicLocalSimulator(DynamicGreedy(), locality=1, num_colors=3)
        sim.insert("solo")
        sim.delete("solo")
        assert sim.graph.num_nodes == 0
