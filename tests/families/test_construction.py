"""Every family builder hands back a graph built in one change.

A freshly built family graph must sit at generation 1 with a one-record
change log, so a cache attached to it starts from one consistent
generation instead of draining thousands of per-edge records.
"""

import pytest

from repro.families.gadgets import Gadget
from repro.families.hierarchy import Hierarchy
from repro.families.ktree import deterministic_ktree, random_ktree
from repro.families.random_graphs import random_connected_bipartite, random_tree
from repro.registry import get_family, list_families

EXTRA_BUILDERS = {
    "hierarchy-k2": lambda: Hierarchy(2, 5, 6).graph,
    "hierarchy-k3": lambda: Hierarchy(3, 20, 20).graph,
    "hierarchy-k4": lambda: Hierarchy(4, 6, 6).graph,
    "gadget": lambda: Gadget(4).graph,
    "triangular-16": lambda: get_family("triangular")(side=16).graph,
    "ktree-3-90": lambda: random_ktree(3, 90).graph,
    "ktree-deterministic": lambda: deterministic_ktree(2, 40).graph,
    "ktree-clique-tree": lambda: random_ktree(2, 30, seed=4).clique_tree(),
    "random-tree": lambda: random_tree(60, seed=1),
    "random-bipartite": lambda: random_connected_bipartite(8, 9, 20, seed=2),
}


def assert_one_record(graph):
    assert graph.generation == 1
    assert len(graph.changes_since(0)) == 1


@pytest.mark.parametrize("name", list_families())
def test_registered_family_is_one_record(name):
    assert_one_record(get_family(name)().graph)


@pytest.mark.parametrize("name", sorted(EXTRA_BUILDERS))
def test_other_builders_are_one_record(name):
    assert_one_record(EXTRA_BUILDERS[name]())


def test_attach_after_building_is_one_more_generation():
    tree = random_ktree(2, 10, seed=3)
    tree.attach([0, 1])
    assert tree.graph.generation == 2
    assert tree.num_nodes == 11
