#!/usr/bin/env python3
"""Reproduction of the paper's case studies (Fig. 13).

Runs the default skyline (FilterRefineSky with the refine kernel picked
by candidate count) on Zachary's karate club (real, embedded) and the
Madrid-bombing contact proxy, prints which actors form the neighborhood
skyline, and verifies the paper's qualitative finding: low-degree
vertices are the ones that get dominated, so the skyline concentrates
on the structurally important actors.

Run:  python examples/karate_case_study.py
"""

from repro import neighborhood_skyline
from repro.centrality import closeness_centrality, harmonic_centrality
from repro.workloads import load


def analyze(name: str, paper_skyline_count: int) -> None:
    graph = load(name)
    result = neighborhood_skyline(graph)
    inside = result.skyline_set
    outside = [u for u in graph.vertices() if u not in inside]
    pct = 100 * result.size / graph.num_vertices

    print(f"== {name} ==")
    print(
        f"n={graph.num_vertices}, m={graph.num_edges}; skyline: "
        f"{result.size} vertices ({pct:.0f}%) — paper reports "
        f"{paper_skyline_count}"
    )

    avg = lambda xs: sum(xs) / max(1, len(xs))  # noqa: E731
    deg_in = avg([graph.degree(u) for u in inside])
    deg_out = avg([graph.degree(u) for u in outside])
    print(f"average degree: skyline {deg_in:.1f} vs dominated {deg_out:.1f}")

    # Every dominated vertex has a recorded witness; show a few.
    shown = 0
    for u in graph.vertices():
        w = result.dominator[u]
        if w != u and shown < 5:
            print(
                f"  vertex {u} (deg {graph.degree(u)}) is dominated by "
                f"{w} (deg {graph.degree(w)})"
            )
            shown += 1

    # The skyline keeps the central actors (karate: 0 = Mr. Hi,
    # 33 = John A.).
    top_by_closeness = max(
        graph.vertices(), key=lambda u: closeness_centrality(graph, u)
    )
    top_by_harmonic = max(
        graph.vertices(), key=lambda u: harmonic_centrality(graph, u)
    )
    print(
        f"most central vertices ({top_by_closeness} by closeness, "
        f"{top_by_harmonic} by harmonic) in skyline: "
        f"{top_by_closeness in inside and top_by_harmonic in inside}"
    )
    print()


def main() -> None:
    analyze("karate", paper_skyline_count=15)
    analyze("bombing_proxy", paper_skyline_count=20)


if __name__ == "__main__":
    main()
