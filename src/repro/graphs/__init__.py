"""Graph substrate: adjacency-list graphs, traversal, and isomorphism tools.

Every other subsystem in :mod:`repro` is built on this package.  The graph
class is deliberately minimal — an undirected simple graph with hashable
node labels — because the paper's constructions (grids, gadgets, duplicate
hierarchies) are all plain undirected graphs whose structure we generate
programmatically.
"""

from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    BallCache,
    ball,
    bfs_distances,
    connected_components,
    diameter,
    is_connected,
    shortest_path,
)
from repro.graphs.isomorphism import find_isomorphism, is_isomorphic

__all__ = [
    "Graph",
    "BallCache",
    "ball",
    "bfs_distances",
    "connected_components",
    "diameter",
    "is_connected",
    "shortest_path",
    "find_isomorphism",
    "is_isomorphic",
]
