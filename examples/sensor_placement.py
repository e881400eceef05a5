#!/usr/bin/env python3
"""Sensor placement via group closeness maximization (paper Sec. IV-A).

Scenario: place ``k`` monitoring sensors on a communication network so
that every node is as close as possible to its nearest sensor — the
group closeness maximization problem, one of the two group-centrality
applications the paper accelerates with the neighborhood skyline.

The script builds a synthetic communication network (copying model, the
package's stand-in for real hub-heavy topologies), runs the plain
greedy (``BaseGC``, the Greedy++ role) and the skyline-pruned greedy
(``NeiSkyGC``, Algorithm 4), and compares wall-clock, number of
marginal-gain evaluations, and solution quality.

Run:  python examples/sensor_placement.py [k]
"""

import sys
import time

from repro.centrality import base_gc, group_closeness, neisky_gc
from repro.core import filter_refine_sky
from repro.graph import largest_connected_component
from repro.graph.generators import copying_power_law


def main(k: int = 8) -> None:
    raw = copying_power_law(1200, 2.4, 0.88, seed=17)
    network, _ = largest_connected_component(raw)
    n = network.num_vertices
    print(
        f"communication network: {n} nodes, {network.num_edges} links; "
        f"placing k={k} sensors\n"
    )

    # Baseline greedy: evaluates every vertex every round (the eager
    # schedule, whose evaluation counts the paper compares).
    start = time.perf_counter()
    base = base_gc(network, k, strategy="eager")
    base_time = time.perf_counter() - start
    base_quality = group_closeness(network, base.group)

    # Skyline-pruned greedy: evaluate only undominated vertices.
    start = time.perf_counter()
    skyline = filter_refine_sky(network).skyline
    pruned = neisky_gc(network, k, skyline=skyline, strategy="eager")
    pruned_time = time.perf_counter() - start
    pruned_quality = group_closeness(network, pruned.group)

    print(f"{'':24s}{'BaseGC':>12s}{'NeiSkyGC':>12s}")
    print(f"{'candidate pool':24s}{base.pool_size:>12d}{pruned.pool_size:>12d}")
    print(
        f"{'gain evaluations':24s}"
        f"{base.evaluations:>12d}{pruned.evaluations:>12d}"
    )
    print(f"{'wall clock (s)':24s}{base_time:>12.3f}{pruned_time:>12.3f}")
    print(
        f"{'group closeness':24s}{base_quality:>12.5f}{pruned_quality:>12.5f}"
    )
    print(
        f"\nspeedup: {base_time / pruned_time:.2f}x with "
        f"{100 * pruned_quality / base_quality:.2f}% of the baseline quality"
    )
    print("sensors (BaseGC):  ", sorted(base.group))
    print("sensors (NeiSkyGC):", sorted(pruned.group))

    # The skyline prunes the pool without losing the high-value spots:
    shared = set(base.group) & set(pruned.group)
    print(f"{len(shared)} of {k} chosen locations coincide")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
