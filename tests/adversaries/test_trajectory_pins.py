"""Pinned game trajectories for the victims whose view reads are
incremental.

The Theorem 5 reduction game runs the clique-chain oracle inside
``UnifyColoring`` inside one or two ``HierarchyReduction`` wrappers; the
theorem1-grid game against Akbari runs ``AkbariBipartiteColoring``.  A
row records only who won, why and whether it was a forfeit, so a change
in an inferred partition, a flip or the reveal sequence could leave every
row as it was.  These tests pin the whole result instead: the verdict,
the improper edge the adversary found and every stats field.
"""

import pytest

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
