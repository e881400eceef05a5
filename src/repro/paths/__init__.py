"""Shortest-path substrate: BFS, multi-source BFS and pruned gain BFS."""

from repro.paths.csr import (
    UNREACHED,
    CSRTraversal,
    bfs_distances,
    improvements,
    multi_source_distances,
)

__all__ = [
    "UNREACHED",
    "bfs_distances",
    "multi_source_distances",
    "improvements",
    "CSRTraversal",
]
