"""Shortest-path substrate: BFS, multi-source BFS and pruned gain BFS."""

from repro.paths.bfs import (
    UNREACHED,
    bfs_distances,
    eccentricity,
    multi_source_distances,
)
from repro.paths.csr import CSRTraversal
from repro.paths.distances import distance, set_distance, set_distance_profile
from repro.paths.truncated import gain_sum, improvements

__all__ = [
    "UNREACHED",
    "bfs_distances",
    "eccentricity",
    "multi_source_distances",
    "CSRTraversal",
    "distance",
    "set_distance",
    "set_distance_profile",
    "gain_sum",
    "improvements",
]
