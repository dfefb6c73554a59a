"""Tests for the deferred-embedding grid instance (FloatingGridInstance)."""

import pytest

from repro.models.adaptive import ConsistencyError, FloatingGridInstance
from repro.models.base import OnlineAlgorithm


class Greedy3(OnlineAlgorithm):
    """First-fit greedy 3-colorer, used as a harmless victim."""

    name = "greedy3"

    def step(self, view, target):
        used = {view.colors.get(v) for v in view.graph.neighbors(target)}
        for color in (1, 2, 3):
            if color not in used:
                return {target: color}
        return {target: 1}


def make_instance(locality=1):
    return FloatingGridInstance(
        Greedy3(), locality=locality, num_colors=3, declared_n=10 ** 6
    )


class TestFragmentPhase:
    def test_reveal_builds_diamond_view(self):
        inst = make_instance(locality=2)
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        # |B((0,0),2)| in Z^2 is 13.
        assert inst.tracker.view_graph.num_nodes == 13

    def test_fragments_stay_disconnected_in_view(self):
        inst = make_instance(locality=1)
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        # Two 5-node diamonds, no cross edges.
        assert inst.tracker.view_graph.num_nodes == 10
        assert inst.tracker.view_graph.num_edges == 8

    def test_colors_queryable(self):
        inst = make_instance()
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        assert inst.fragment_color(frag, (0, 0)) in (1, 2, 3)
        assert inst.fragment_color(frag, (1, 0)) is None

    def test_row_extent(self):
        inst = make_instance(locality=2)
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        inst.reveal(frag, (5, 0))
        assert inst.fragment_row_extent(frag) == (-2, 7)


class TestMerge:
    def test_legal_merge_and_gap_fill(self):
        inst = make_instance(locality=1)
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        # a's seen row extent is [-1, 1]; placing b's (0,0) at x=4 puts
        # b's extent at [3, 5]: gap 2.
        inst.merge(a, b, dx=4, dy=0)
        inst.reveal(a, (2, 0))  # gap node; its ball touches both regions
        assert inst.fragment_color(a, (4, 0)) in (1, 2, 3)

    def test_overlapping_merge_rejected(self):
        inst = make_instance(locality=1)
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        with pytest.raises(ConsistencyError, match="distance 1"):
            inst.merge(a, b, dx=2, dy=0)  # extents [-1,1] and [1,3] touch

    def test_adjacent_merge_rejected(self):
        inst = make_instance(locality=1)
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        with pytest.raises(ConsistencyError):
            inst.merge(a, b, dx=3, dy=0)  # extents [-1,1],[2,4]: distance 1

    def test_reflected_merge(self):
        inst = make_instance(locality=1)
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        inst.reveal(b, (1, 0))
        # Reflecting b maps x -> dx - x; b's extent [-1, 2] maps under
        # dx=6 to [4, 7]: gap 2 from a's [-1, 1].
        inst.merge(a, b, dx=6, dy=0, reflect=True)
        # b's node (1,0) now sits at x=5.
        color_b1 = inst.tracker.colors[
            inst.tracker.reveal_sequence[2]
        ]  # third reveal was b's (1,0)
        assert inst.fragment_color(a, (5, 0)) == color_b1

    def test_merged_fragment_is_dead(self):
        inst = make_instance()
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        inst.merge(a, b, dx=10, dy=0)
        with pytest.raises(ConsistencyError, match="not live"):
            inst.reveal(b, (1, 0))

    def test_merge_self_rejected(self):
        inst = make_instance()
        a = inst.new_fragment()
        inst.reveal(a, (0, 0))
        with pytest.raises(ValueError):
            inst.merge(a, a, dx=10, dy=0)


class TestCommitAndAudit:
    def test_commit_builds_host_with_margin(self):
        inst = make_instance(locality=2)
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        host = inst.commit()
        # Seen bbox is 5x5 (diamond extent), margin 2 on each side.
        assert host.rows == 9
        assert host.cols == 9

    def test_commit_stacks_unmerged_fragments(self):
        inst = make_instance(locality=1)
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        inst.commit()
        inst.audit()  # stacked placement must replay consistently

    def test_reveal_after_commit(self):
        inst = make_instance(locality=1)
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        inst.commit()
        inst.reveal_committed((1, 0))
        assert inst.color_at((1, 0)) in (1, 2, 3)
        inst.audit()

    def test_audit_passes_after_honest_game(self):
        inst = make_instance(locality=1)
        a, b = inst.new_fragment(), inst.new_fragment()
        inst.reveal(a, (0, 0))
        inst.reveal(b, (0, 0))
        inst.merge(a, b, dx=4, dy=0)
        inst.reveal(a, (2, 0))
        inst.commit()
        inst.reveal_committed((3, 0))
        inst.audit()

    def test_audit_detects_tampered_log(self):
        inst = make_instance(locality=1)
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        inst.reveal(frag, (4, 0))
        inst.commit()
        target, fresh = inst._log[1]
        inst._log[1] = (target, frozenset(list(fresh)[:-1]))
        with pytest.raises(ConsistencyError):
            inst.audit()

    def test_no_fragments_after_commit(self):
        inst = make_instance()
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        inst.commit()
        with pytest.raises(ConsistencyError):
            inst.new_fragment()
        with pytest.raises(ConsistencyError):
            inst.commit()

    def test_coloring_requires_commit(self):
        inst = make_instance()
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        with pytest.raises(ConsistencyError):
            inst.coloring()


def test_commit_reference_frame_choice():
    """commit(reference=...) anchors the host frame on the chosen
    fragment even when lower-numbered stray fragments are still alive —
    the regression behind the randomized-victim Theorem 1 failure."""
    inst = make_instance(locality=1)
    stray = inst.new_fragment()
    inst.reveal(stray, (0, 0))
    main = inst.new_fragment()
    inst.reveal(main, (0, 0))
    color = inst.fragment_color(main, (0, 0))
    inst.commit(reference=main)
    # (0, 0) in the reference frame must resolve to the main fragment's
    # node, not the stray's.
    assert inst.color_at((0, 0)) == color
    inst.audit()


def test_commit_reference_must_be_alive():
    inst = make_instance()
    frag = inst.new_fragment()
    inst.reveal(frag, (0, 0))
    with pytest.raises(ConsistencyError, match="not alive"):
        inst.commit(reference=99)


class TestCommitSkipsUnrevealedFragments:
    """A declared fragment with no revealed node takes no place in the
    commit's stack, wherever it sits in the stacking order."""

    def test_only_an_empty_fragment_is_nothing_to_commit(self):
        inst = make_instance()
        inst.new_fragment()
        with pytest.raises(ConsistencyError, match="nothing revealed"):
            inst.commit()

    def test_empty_fragment_before_a_revealed_one(self):
        inst = make_instance(locality=1)
        inst.new_fragment()
        frag = inst.new_fragment()
        inst.reveal(frag, (0, 0))
        color = inst.fragment_color(frag, (0, 0))
        host = inst.commit()
        assert (host.rows, host.cols) == (5, 5)
        assert inst.color_at((0, 0)) == color
        inst.audit()

    def test_empty_fragment_after_a_revealed_one(self):
        inst = make_instance(locality=1)
        frag = inst.new_fragment()
        inst.new_fragment()
        inst.reveal(frag, (0, 0))
        host = inst.commit()
        assert (host.rows, host.cols) == (5, 5)
        inst.audit()
