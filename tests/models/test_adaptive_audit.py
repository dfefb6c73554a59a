"""Negative tests for the adaptive instances' audit.

Both instances audit through one replay, ``audit_reveals``.  Each game
below is honest, so its audit passes.  A log whose fresh set lost one id
must fail the per-reveal replay.  Each tamper in ``TAMPERS`` breaks
exactly one thing that only the final comparison — the view against the
host-induced subgraph of the seen region — can see: the per-reveal
replay still matches, because no tamper changes which ids a reveal
added.
"""

import pytest

from repro.families.grids import ToroidalGrid
from repro.models.adaptive import (
    ConsistencyError,
    FloatingGridInstance,
    LateAutomorphismInstance,
)
from repro.models.base import OnlineAlgorithm


class Greedy(OnlineAlgorithm):
    name = "greedy"

    def step(self, view, target):
        used = {view.colors.get(v) for v in view.graph.neighbors(target)}
        for color in range(1, self.num_colors + 1):
            if color not in used:
                return {target: color}
        return {target: 1}


def floating_game():
    """Two fragments, a merge, a commit and a post-commit reveal."""
    inst = FloatingGridInstance(Greedy(), locality=1, num_colors=3, declared_n=10**6)
    a, b = inst.new_fragment(), inst.new_fragment()
    inst.reveal(a, (0, 0))
    inst.reveal(b, (0, 0))
    inst.merge(a, b, dx=4, dy=0)
    inst.reveal(a, (2, 0))
    inst.commit()
    inst.reveal_committed((3, 0))
    return inst, inst._host_id_of


def late_game():
    """A mirrored torus band, then free reveals outside it."""
    side = 9
    torus = ToroidalGrid(side, side)
    inst = LateAutomorphismInstance(torus.graph, Greedy(), locality=1, num_colors=3)
    mirror = {(i, j): (i, (-j) % side) for i in range(side) for j in range(side)}
    band = {(i, j) for i in (0, 1, 2) for j in range(side)}
    frag = inst.add_fragment(band, {"mirror": mirror})
    for j in (0, 3, 4):
        inst.reveal_in_fragment(frag, (1, j))
    inst.commit_fragment(frag, "mirror")
    inst.reveal((5, 5))
    inst.reveal((5, 6))
    return inst, inst._id_of_host


def drop_view_edge(inst, id_of):
    view = inst.tracker.view_graph
    view.remove_edge(*next(iter(view.edges())))


def add_view_edge(inst, id_of):
    view = inst.tracker.view_graph
    u = next(iter(view.nodes()))
    v = next(x for x in view.nodes() if x != u and not view.has_edge(u, x))
    view.add_edge(u, v)


def add_isolated_view_node(inst, id_of):
    view = inst.tracker.view_graph
    view.add_node(max(view.nodes()) + 1)


def swap_two_ids(inst, id_of):
    # Two ids added by the same reveal, so the replay of view growth still
    # sees the same fresh id set; different view degrees make the swap
    # visible in the final adjacency.
    target, fresh = inst._log[0]
    degree = inst.tracker.view_graph.degree
    other = next(x for x in sorted(fresh) if degree(x) != degree(target))
    node_of = {node_id: node for node, node_id in id_of.items()}
    id_of[node_of[target]], id_of[node_of[other]] = other, target


GAMES = {"floating-grid": floating_game, "late-automorphism": late_game}
TAMPERS = [drop_view_edge, add_view_edge, add_isolated_view_node, swap_two_ids]


@pytest.mark.parametrize("game", sorted(GAMES))
def test_honest_game_passes_audit(game):
    inst, _ = GAMES[game]()
    inst.audit()


@pytest.mark.parametrize("game", sorted(GAMES))
def test_tampered_log_fails_replay(game):
    inst, _ = GAMES[game]()
    target, fresh = inst._log[1]
    inst._log[1] = (target, frozenset(sorted(fresh)[:-1]))
    with pytest.raises(ConsistencyError, match="view growth"):
        inst.audit()


@pytest.mark.parametrize("tamper", TAMPERS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("game", sorted(GAMES))
def test_tampered_final_view_fails_audit(game, tamper):
    inst, id_of = GAMES[game]()
    tamper(inst, id_of)
    with pytest.raises(ConsistencyError, match="final view differs"):
        inst.audit()
