#!/usr/bin/env python3
"""Quickstart: computing neighborhood skylines.

Covers the core public API in ~60 lines:

* build a graph (from edges, a generator, or the dataset registry),
* compute its neighborhood skyline with ``neighborhood_skyline``,
* inspect the result (skyline, candidates, dominator witnesses),
* see how the skyline behaves on the paper's special graphs (Fig. 2).

Run:  python examples/quickstart.py
"""

from repro import Graph, neighborhood_skyline
from repro.core import SkylineCounters
from repro.graph import (
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    karate_club,
    path_graph,
)


def main() -> None:
    # -- 1. A tiny hand-built graph ------------------------------------
    # A hub (0) with three spokes, one of which has a pendant.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4), (1, 2)])
    result = neighborhood_skyline(g)
    print("tiny graph skyline:", result.skyline)
    for u in g.vertices():
        witness = result.dominator[u]
        status = "skyline" if witness == u else f"dominated by {witness}"
        print(f"  vertex {u} (deg {g.degree(u)}): {status}")

    # -- 2. Zachary's karate club (the paper's Fig. 13a) ---------------
    karate = karate_club()
    counters = SkylineCounters()
    # The paper's FilterRefineSky by name: the bloom counters printed
    # below exist on its bloom refine only (the default "auto" picks a
    # faster kernel with the same result).
    result = neighborhood_skyline(
        karate, algorithm="filter_refine", counters=counters
    )
    print(
        f"\nkarate club: {result.size} of {karate.num_vertices} vertices "
        f"in the skyline ({100 * result.size / karate.num_vertices:.0f}%)"
    )
    print("skyline vertices:", result.skyline)
    print(
        "work: "
        f"{counters.pair_tests} pair tests, "
        f"{counters.bloom_subset_rejects} bloom rejects, "
        f"{counters.bloom_false_positives} false positives corrected"
    )

    # -- 3. Algorithms are interchangeable -----------------------------
    for algorithm in ("auto", "base", "cset", "lc_join"):
        alt = neighborhood_skyline(karate, algorithm=algorithm)
        assert alt.skyline == result.skyline
    print(
        "The default kernel, BaseSky, BaseCSet and LC-Join all agree "
        "with FilterRefineSky."
    )

    # -- 4. Special graphs (paper Fig. 2) -------------------------------
    print("\nspecial graphs (paper Fig. 2):")
    specials = [
        ("clique K10", complete_graph(10)),
        ("complete binary tree depth 3", complete_binary_tree(3)),
        ("cycle C10", cycle_graph(10)),
        ("path P10", path_graph(10)),
    ]
    for name, graph in specials:
        r = neighborhood_skyline(graph)
        print(
            f"  {name:30s} |V|={graph.num_vertices:3d} "
            f"|C|={r.candidate_size:3d} |R|={r.size:3d}"
        )


if __name__ == "__main__":
    main()
