"""Pinned game trajectories.

The Theorem 5 reduction game runs the clique-chain oracle inside
``UnifyColoring`` inside one or two ``HierarchyReduction`` wrappers; the
theorem1-grid game against Akbari runs ``AkbariBipartiteColoring``.  A
row records only who won, why and whether it was a forfeit, so a change
in an inferred partition, a flip or the reveal sequence could leave every
row as it was.  These tests pin the whole result instead: the verdict,
the improper edge the adversary found and every stats field.

The late-automorphism adversaries (Theorems 2 and 3, Corollary 13) and
the fixed-host simulator also pin a digest of the final view: its node
order, each node's neighbour iteration order, the reveal sequence and
the colors, so a change in how a reveal builds the view shows even when
every verdict stays.  The reduction game's inner view is left out: its
node labels are tagged strings, so its iteration orders depend on
``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.core.akbari import AkbariBipartiteColoring
from repro.core.baselines import CheatingCoordinateColorer
from repro.families.grids import SimpleGrid
from repro.families.random_graphs import scattered_reveal_order
from repro.models.base import ViewTracker
from repro.models.online_local import OnlineLocalSimulator
from repro.registry import get_adversary, get_victim

#: (adversary, params, T) -> (won, reason, improper edge, stats).
PINS = {
    ("theorem5-reduction", 3, 1): (
        True, "monochromatic-edge", ((2, 5), (2, 6)),
        {"locality": 1, "level": 9, "declared_n": 95367431640625,
         "reveals": 6, "host_rows": 5, "host_cols": 10},
    ),
    ("theorem5-reduction", 3, 2): (
        True, "monochromatic-edge", ((4, 11), (4, 12)),
        {"locality": 2, "level": 13, "declared_n": 149011611938476562500,
         "reveals": 17, "host_rows": 9, "host_cols": 29},
    ),
    ("theorem5-reduction", 3, 3): (
        True, "monochromatic-edge", ((6, 13), (6, 14)),
        {"locality": 3, "level": 17, "declared_n": 130967237055301666259765625,
         "reveals": 10, "host_rows": 13, "host_cols": 22},
    ),
    ("theorem5-reduction", 4, 1): (
        True, "monochromatic-edge", ((2, 5), (2, 6)),
        {"locality": 1, "level": 9, "declared_n": 95367431640625,
         "reveals": 6, "host_rows": 5, "host_cols": 10},
    ),
    ("theorem5-reduction", 4, 2): (
        True, "monochromatic-edge", ((4, 11), (4, 12)),
        {"locality": 2, "level": 13, "declared_n": 149011611938476562500,
         "reveals": 17, "host_rows": 9, "host_cols": 29},
    ),
    ("theorem5-reduction", 4, 3): (
        True, "monochromatic-edge", ((6, 13), (6, 14)),
        {"locality": 3, "level": 17, "declared_n": 130967237055301666259765625,
         "reveals": 10, "host_rows": 13, "host_cols": 22},
    ),
    ("theorem1-grid", None, 1): (
        True, "monochromatic-edge", ((2, 10), (2, 11)),
        {"locality": 1, "level": 9, "declared_n": 95367431640625,
         "reveals": 9, "host_rows": 5, "host_cols": 19},
    ),
    ("theorem1-grid", None, 2): (
        True, "monochromatic-edge", ((4, 16), (4, 17)),
        {"locality": 2, "level": 13, "declared_n": 149011611938476562500,
         "reveals": 13, "host_rows": 9, "host_cols": 29},
    ),
    ("theorem1-grid", None, 3): (
        True, "monochromatic-edge", ((6, 35), (6, 36)),
        {"locality": 3, "level": 17, "declared_n": 130967237055301666259765625,
         "reveals": 31, "host_rows": 13, "host_cols": 74},
    ),
}


@pytest.mark.parametrize(
    "adversary,k,locality", sorted(PINS, key=lambda pin: (pin[0], pin[1] or 0, pin[2]))
)
def test_trajectory_is_pinned(adversary, k, locality):
    if adversary == "theorem5-reduction":
        result = get_adversary(adversary)(locality, k=k).play()
    else:
        result = get_adversary(adversary)(locality)(get_victim("akbari")())
    won, reason, improper_edge, stats = PINS[(adversary, k, locality)]
    assert not result.forfeit
    assert (result.won, result.reason, result.improper_edge) == (
        won, reason, improper_edge
    )
    assert result.stats == stats


#: (adversary, victim, T) -> (won, reason, improper edge, stats, view digest).
VIEW_PINS = {
    ("theorem2-torus", "greedy", 1): (
        True, "monochromatic-edge", ((0, 1), (8, 1)),
        {"locality": 1, "side": 9, "topology": "torus", "declared_n": 81,
         "b_sum": -2},
        "44d4300dc46280573b34b6df1574562b7a1422138e02d7e33b1dc93abc04f351",
    ),
    ("theorem2-torus", "greedy", 2): (
        True, "monochromatic-edge", ((1, 11), (1, 12)),
        {"locality": 2, "side": 13, "topology": "torus", "declared_n": 169,
         "b_sum": -2},
        "8a1835409b33332384ec466adf931a59275f15559e3253c8756b766e3a2da1a2",
    ),
    ("theorem2-torus", "akbari", 1): (
        True, "monochromatic-edge", ((0, 1), (8, 1)),
        {"locality": 1, "side": 9, "topology": "torus", "declared_n": 81,
         "b_sum": -2},
        "44d4300dc46280573b34b6df1574562b7a1422138e02d7e33b1dc93abc04f351",
    ),
    ("theorem2-torus", "akbari", 2): (
        True, "monochromatic-edge", ((1, 11), (1, 12)),
        {"locality": 2, "side": 13, "topology": "torus", "declared_n": 169,
         "b_sum": -2},
        "8a1835409b33332384ec466adf931a59275f15559e3253c8756b766e3a2da1a2",
    ),
    ("theorem2-torus", "local-canonical", 1): (
        True, "monochromatic-edge", ((1, 0), (1, 1)),
        {"locality": 1, "side": 9, "topology": "torus", "declared_n": 81},
        "ff53333998081f085a82573e26b67f9f3d420e6215920965f59a31de0071746c",
    ),
    ("theorem2-torus", "local-canonical", 2): (
        True, "monochromatic-edge", ((2, 0), (2, 1)),
        {"locality": 2, "side": 13, "topology": "torus", "declared_n": 169},
        "ce5c7723657f53d5098316e27079cd81c33774c759f3bb0135a7922c24ddac83",
    ),
    ("theorem2-cylinder", "greedy", 1): (
        True, "monochromatic-edge", ((0, 7), (0, 8)),
        {"locality": 1, "side": 9, "topology": "cylinder", "declared_n": 81,
         "b_sum": -2},
        "1d4321b6347caacf38c218ce4b84e11115b2469146bc78979c091561b3bf7377",
    ),
    ("theorem2-cylinder", "greedy", 2): (
        True, "monochromatic-edge", ((1, 11), (1, 12)),
        {"locality": 2, "side": 13, "topology": "cylinder", "declared_n": 169,
         "b_sum": -2},
        "19bc6ca98f21d7e3389a76c91dd084ffe648c4daa51d7ac79719042fc24f9251",
    ),
    ("theorem2-cylinder", "akbari", 1): (
        True, "monochromatic-edge", ((0, 7), (0, 8)),
        {"locality": 1, "side": 9, "topology": "cylinder", "declared_n": 81,
         "b_sum": -2},
        "1d4321b6347caacf38c218ce4b84e11115b2469146bc78979c091561b3bf7377",
    ),
    ("theorem2-cylinder", "akbari", 2): (
        True, "monochromatic-edge", ((1, 11), (1, 12)),
        {"locality": 2, "side": 13, "topology": "cylinder", "declared_n": 169,
         "b_sum": -2},
        "19bc6ca98f21d7e3389a76c91dd084ffe648c4daa51d7ac79719042fc24f9251",
    ),
    ("theorem2-cylinder", "local-canonical", 1): (
        True, "monochromatic-edge", ((1, 0), (1, 1)),
        {"locality": 1, "side": 9, "topology": "cylinder", "declared_n": 81},
        "ff53333998081f085a82573e26b67f9f3d420e6215920965f59a31de0071746c",
    ),
    ("theorem2-cylinder", "local-canonical", 2): (
        True, "monochromatic-edge", ((2, 0), (2, 1)),
        {"locality": 2, "side": 13, "topology": "cylinder", "declared_n": 169},
        "ce5c7723657f53d5098316e27079cd81c33774c759f3bb0135a7922c24ddac83",
    ),
    ("theorem3-gadget(2k-2)", "greedy", 1): (
        True, "monochromatic-edge", ((2, 0, 0), (3, 2, 1)),
        {"k": 3, "locality": 1, "length": 5, "colors": 4, "declared_n": 45,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "3c79085c0da80df465850c5c5afff2bf5aaa09b3455ef1adddbe50fb59915102",
    ),
    ("theorem3-gadget(2k-2)", "greedy", 2): (
        True, "monochromatic-edge", ((4, 0, 0), (5, 1, 2)),
        {"k": 3, "locality": 2, "length": 7, "colors": 4, "declared_n": 63,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "1ad7edc4670969298ca36585643dc022b2d5d28cf8c143e0e016ccbe62e487cb",
    ),
    ("theorem3-gadget(2k-2)", "akbari", 1): (
        True, "monochromatic-edge", ((2, 0, 0), (3, 2, 1)),
        {"k": 3, "locality": 1, "length": 5, "colors": 4, "declared_n": 45,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "3c79085c0da80df465850c5c5afff2bf5aaa09b3455ef1adddbe50fb59915102",
    ),
    ("theorem3-gadget(2k-2)", "akbari", 2): (
        True, "monochromatic-edge", ((4, 0, 0), (5, 1, 2)),
        {"k": 3, "locality": 2, "length": 7, "colors": 4, "declared_n": 63,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "1ad7edc4670969298ca36585643dc022b2d5d28cf8c143e0e016ccbe62e487cb",
    ),
    ("theorem3-gadget(2k-2)", "local-canonical", 1): (
        True, "monochromatic-edge", ((0, 0, 1), (0, 1, 0)),
        {"k": 3, "locality": 1, "length": 5, "colors": 4, "declared_n": 45},
        "c29b285057a852f44836bdfd3dc5f1d798808262e53e1b12c6a40a90dd1e6d5d",
    ),
    ("theorem3-gadget(2k-2)", "local-canonical", 2): (
        True, "monochromatic-edge", ((0, 0, 1), (0, 1, 0)),
        {"k": 3, "locality": 2, "length": 7, "colors": 4, "declared_n": 63},
        "1a2ccd55aa9e3c8a789053806a2ca2d1ae021167f57456d93c55b992452d2d2b",
    ),
    ("corollary13-gadget(k+1)", "greedy", 1): (
        True, "monochromatic-edge", ((2, 0, 0), (3, 2, 1)),
        {"k": 3, "locality": 1, "length": 5, "colors": 4, "declared_n": 45,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "3c79085c0da80df465850c5c5afff2bf5aaa09b3455ef1adddbe50fb59915102",
    ),
    ("corollary13-gadget(k+1)", "greedy", 2): (
        True, "monochromatic-edge", ((4, 0, 0), (5, 1, 2)),
        {"k": 3, "locality": 2, "length": 7, "colors": 4, "declared_n": 63,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "1ad7edc4670969298ca36585643dc022b2d5d28cf8c143e0e016ccbe62e487cb",
    ),
    ("corollary13-gadget(k+1)", "akbari", 1): (
        True, "monochromatic-edge", ((2, 0, 0), (3, 2, 1)),
        {"k": 3, "locality": 1, "length": 5, "colors": 4, "declared_n": 45,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "3c79085c0da80df465850c5c5afff2bf5aaa09b3455ef1adddbe50fb59915102",
    ),
    ("corollary13-gadget(k+1)", "akbari", 2): (
        True, "monochromatic-edge", ((4, 0, 0), (5, 1, 2)),
        {"k": 3, "locality": 2, "length": 7, "colors": 4, "declared_n": 63,
         "head_class": "column", "tail_class": "column",
         "tail_committed": "transpose"},
        "1ad7edc4670969298ca36585643dc022b2d5d28cf8c143e0e016ccbe62e487cb",
    ),
    ("corollary13-gadget(k+1)", "local-canonical", 1): (
        True, "monochromatic-edge", ((0, 0, 1), (0, 1, 0)),
        {"k": 3, "locality": 1, "length": 5, "colors": 4, "declared_n": 45},
        "c29b285057a852f44836bdfd3dc5f1d798808262e53e1b12c6a40a90dd1e6d5d",
    ),
    ("corollary13-gadget(k+1)", "local-canonical", 2): (
        True, "monochromatic-edge", ((0, 0, 1), (0, 1, 0)),
        {"k": 3, "locality": 2, "length": 7, "colors": 4, "declared_n": 63},
        "1a2ccd55aa9e3c8a789053806a2ca2d1ae021167f57456d93c55b992452d2d2b",
    ),
}

#: T -> view digest of Akbari on SimpleGrid(12, 12) in scattered order
#: ``seed=T``.
SIM_PINS = {
    1: "af11fb287fbdd6afc106fb3551184e584f34fb4f9cc84147a43cffa0ba664be6",
    2: "eb52660f3c6e86d08bdc98a12da9254b3e32bbb36e9d7fcf9423319c109cb645",
    3: "d96a846a3a5549e146c2d49644cb9d55bfe95f1d47489633314aa0d89ab84f5d",
}

#: View digest of the coordinate cheat at T = 0 with leaked labels.
LEAK_PIN = "2858e0796994c664a589ffb6bd1cb651a92bb3f9b33508dad88bfaeada42e290"


def view_digest(tracker):
    """sha256 of the final view: node order, each node's neighbour
    iteration order, the reveal sequence and the colors."""
    view = tracker.view_graph
    blob = repr((
        [(node, list(view.neighbors(node))) for node in view.nodes()],
        tracker.reveal_sequence,
        list(tracker.colors.items()),
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture
def trackers(monkeypatch):
    """Every ViewTracker built during the test, in creation order."""
    made = []
    init = ViewTracker.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ViewTracker, "__init__", recording_init)
    return made


@pytest.mark.parametrize("adversary,victim,locality", list(VIEW_PINS))
def test_late_automorphism_view_is_pinned(adversary, victim, locality, trackers):
    result = get_adversary(adversary)(locality)(get_victim(victim)())
    won, reason, improper_edge, stats, digest = VIEW_PINS[
        (adversary, victim, locality)
    ]
    assert not result.forfeit
    assert (result.won, result.reason, result.improper_edge) == (
        won, reason, improper_edge
    )
    assert result.stats == stats
    (tracker,) = trackers
    assert view_digest(tracker) == digest


def play_scattered(algorithm, locality, seed, leak_labels=False):
    grid = SimpleGrid(12, 12)
    sim = OnlineLocalSimulator(
        grid.graph, algorithm, locality=locality, num_colors=3,
        leak_labels=leak_labels,
    )
    sim.run(scattered_reveal_order(sorted(grid.graph.nodes()), seed=seed))
    return view_digest(sim.tracker)


@pytest.mark.parametrize("locality", sorted(SIM_PINS))
def test_online_local_view_is_pinned(locality):
    digest = play_scattered(AkbariBipartiteColoring(), locality, seed=locality)
    assert digest == SIM_PINS[locality]


def test_online_local_leaked_labels_view_is_pinned():
    digest = play_scattered(CheatingCoordinateColorer(), 0, seed=0, leak_labels=True)
    assert digest == LEAK_PIN
