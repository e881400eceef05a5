"""Random and structured graph generators.

The paper's evaluation needs three generator families:

* **Special graphs** (Fig. 2): clique, complete binary tree, cycle, path —
  used to illustrate how the skyline size varies with structure.
* **Erdős–Rényi** ``G(n, p)`` graphs (Fig. 6a): on these the skyline is
  close to the whole vertex set.
* **Power-law graphs** (Fig. 6b): generated here with the Chung–Lu model
  parameterized by the degree exponent ``beta``, plus a Barabási–Albert
  generator as an alternative preferential-attachment source.  On these
  the skyline is much smaller than ``V`` — the regime the paper's pruning
  applications rely on.

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Optional

import numpy as _np

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder

__all__ = [
    "erdos_renyi",
    "chung_lu_power_law",
    "copying_power_law",
    "barabasi_albert",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_binary_tree",
    "empty_graph",
    "kronecker_graph",
    "watts_strogatz",
    "configuration_model",
]


def _check_n(n: int) -> None:
    if n < 0:
        raise ParameterError(f"number of vertices must be >= 0, got {n}")


def empty_graph(n: int) -> Graph:
    """``n`` isolated vertices, no edges."""
    _check_n(n)
    return Graph.from_edges(n, ())


def complete_graph(n: int) -> Graph:
    """The clique ``K_n`` (Fig. 2a: ``|R| = |C| = 1``)."""
    _check_n(n)
    return Graph.from_edge_arrays(n, *_np.triu_indices(n, 1))


def path_graph(n: int) -> Graph:
    """The path ``P_n`` (Fig. 2d: ``|R| = |C| = n - 2`` for ``n >= 4``)."""
    _check_n(n)
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n`` (Fig. 2c: ``|R| = |C| = n`` for ``n >= 5``)."""
    _check_n(n)
    if n == 0:
        return empty_graph(0)
    if n < 3:
        raise ParameterError(f"a cycle needs at least 3 vertices, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return Graph.from_edges(n, edges)


def star_graph(n: int) -> Graph:
    """The star ``K_{1,n-1}`` with center 0."""
    _check_n(n)
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def complete_binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth (root = vertex 0).

    Fig. 2b: the skyline is exactly the set of internal (non-leaf)
    vertices.  ``depth=0`` is a single vertex.
    """
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    n = 2 ** (depth + 1) - 1
    edges = []
    for child in range(1, n):
        edges.append(((child - 1) // 2, child))
    return Graph.from_edges(n, edges)


def erdos_renyi(n: int, p: float, *, seed: Optional[int] = None) -> Graph:
    """Sample ``G(n, p)`` using geometric edge skipping.

    Runs in ``O(n + m)`` expected time instead of ``O(n^2)`` — each
    non-edge run length is drawn from a geometric distribution, which is
    what makes the Fig. 6a sweep (``n = 10^5`` in the paper, ``10^4``
    here) affordable.
    """
    _check_n(n)
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"edge probability must be in [0, 1], got {p}")
    if p == 0.0 or n < 2:
        return empty_graph(n)
    rng = random.Random(seed)
    builder = GraphBuilder(n)
    if p == 1.0:
        return complete_graph(n)
    log_q = math.log1p(-p)
    if log_q == 0.0:
        # p so small that 1 - p rounds to 1: no edges in expectation.
        return empty_graph(n)
    # Enumerate the pairs (u, v), u < v, in lexicographic order and jump
    # ahead geometrically.
    max_pairs = n * n  # any skip beyond this exhausts the pair space
    u, v = 0, 0
    while u < n - 1:
        r = rng.random()
        skip = int(min(math.log1p(-r) / log_q, max_pairs))  # >= 0 skipped
        v += skip + 1
        while v >= n and u < n - 1:
            u += 1
            v = u + (v - n) + 1
        if u < n - 1 and v < n:
            builder.add_edge(u, v)
    return builder.build()


def _chung_lu_weights(n: int, beta: float) -> list[float]:
    """Expected-degree weights ``w_i ∝ (i + i0)^(-1/(beta-1))``.

    This is the standard construction giving a degree distribution with
    power-law exponent ``beta`` (Aiello–Chung–Lu).
    """
    gamma = 1.0 / (beta - 1.0)
    return [(i + 1.0) ** (-gamma) for i in range(n)]


def chung_lu_power_law(
    n: int,
    beta: float,
    *,
    average_degree: float = 8.0,
    seed: Optional[int] = None,
) -> Graph:
    """Power-law graph via the Chung–Lu expected-degree model.

    Parameters
    ----------
    n:
        Number of vertices.
    beta:
        Target power-law exponent of the degree distribution (the
        ``β`` axis of Fig. 6b; the paper sweeps 2.6–3.4).
    average_degree:
        Target average degree; weights are rescaled to hit it.
    seed:
        RNG seed for reproducibility.

    Implementation: weights are sorted descending; for each ``u`` the
    neighbors are sampled with the standard geometric-skipping trick of
    Miller & Hagberg, giving ``O(n + m)`` expected time.
    """
    _check_n(n)
    if beta <= 2.0:
        raise ParameterError(f"beta must be > 2 for a finite mean, got {beta}")
    if average_degree <= 0:
        raise ParameterError(
            f"average_degree must be positive, got {average_degree}"
        )
    if n < 2:
        return empty_graph(n)

    weights = _chung_lu_weights(n, beta)
    total = sum(weights)
    scale = average_degree * n / total
    w = [min(x * scale, math.sqrt(average_degree * n)) for x in weights]
    # w is already sorted descending because the raw weights are.
    s = sum(w)
    rng = random.Random(seed)
    builder = GraphBuilder(n)

    for u in range(n - 1):
        v = u + 1
        p = min(w[u] * w[v] / s, 1.0)
        while v < n and p > 0:
            if p != 1.0:
                r = rng.random()
                v += int(math.log(1.0 - r) / math.log(1.0 - p))
            if v < n:
                q = min(w[u] * w[v] / s, 1.0)
                if rng.random() < q / p:
                    builder.add_edge(u, v)
                p = q
                v += 1
    return builder.build()


def copying_power_law(
    n: int,
    degree_exponent: float = 2.5,
    copy_prob: float = 0.85,
    *,
    proto_link_prob: float = 0.0,
    max_out_degree: int = 30,
    seed: Optional[int] = None,
) -> Graph:
    """Power-law graph via the linkage-copying model (Kleinberg et al.).

    Each arriving vertex draws an out-degree ``d`` from the discrete
    power law ``P(d) ∝ d^-degree_exponent`` on ``[1, max_out_degree]``,
    picks a random *prototype* among the existing vertices, and creates
    each of its ``d`` links either by **copying** a random neighbor of
    the prototype (probability ``copy_prob``) or by linking to a uniform
    random vertex.

    Two properties make this the right stand-in for the paper's
    real-world datasets (DESIGN.md §3):

    * the degree distribution is a genuine power law with the full
      ``P(deg = 1) ≈ 1/ζ(β)`` mass of pendant vertices, and
    * copying *nests neighborhoods by construction* — a vertex whose
      links were all copied from one prototype satisfies
      ``N(u) ⊆ N[prototype]`` at birth — giving the strong
      neighborhood-inclusion structure (small skyline) that real web,
      social and communication graphs show and that independent-edge
      models like Chung–Lu lack.

    ``copy_prob`` tunes the skyline fraction: higher copying → smaller
    skyline.  ``proto_link_prob`` is the probability that the new vertex
    *additionally* links the prototype itself — a vertex whose remaining
    links were all copied then satisfies ``N[u] ⊆ N[prototype]`` (an
    *edge-constrained* inclusion, Def. 4), creating the triangle-rich
    hub-satellite structure through which the paper's filter phase does
    most of its pruning on real graphs.  The prototype is chosen
    degree-biased (a uniform half-edge endpoint), the standard
    preferential flavor of the copying model.  Deterministic for a fixed
    ``seed``.
    """
    _check_n(n)
    if not (0.0 <= copy_prob <= 1.0):
        raise ParameterError(
            f"copy_prob must be in [0, 1], got {copy_prob}"
        )
    if not (0.0 <= proto_link_prob <= 1.0):
        raise ParameterError(
            f"proto_link_prob must be in [0, 1], got {proto_link_prob}"
        )
    if degree_exponent <= 1.0:
        raise ParameterError(
            f"degree_exponent must be > 1, got {degree_exponent}"
        )
    if max_out_degree < 1:
        raise ParameterError(
            f"max_out_degree must be >= 1, got {max_out_degree}"
        )
    seed_size = 5
    if n <= seed_size:
        return complete_graph(n)
    rng = random.Random(seed)

    # Inverse-CDF sampler for the out-degree power law.
    masses = [d ** -degree_exponent for d in range(1, max_out_degree + 1)]
    total = sum(masses)
    cdf: list[float] = []
    acc = 0.0
    for mass in masses:
        acc += mass / total
        cdf.append(acc)

    def sample_out_degree() -> int:
        return bisect_left(cdf, rng.random()) + 1

    builder = GraphBuilder(n)
    adjacency: list[list[int]] = [
        [v for v in range(seed_size) if v != u] for u in range(seed_size)
    ]
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            builder.add_edge(u, v)

    for u in range(seed_size, n):
        prototype = rng.randrange(u)
        targets: set[int] = set()
        if rng.random() < proto_link_prob:
            # Linking the prototype alongside copies of its neighborhood
            # makes u a triangle-satellite: N[u] ⊆ N[prototype]-shaped
            # structure when the copies stay inside N(prototype).
            targets.add(prototype)
        for _ in range(sample_out_degree()):
            if rng.random() < copy_prob and adjacency[prototype]:
                t = rng.choice(adjacency[prototype])
            else:
                t = rng.randrange(u)
            if t != u:
                targets.add(t)
        adjacency.append(sorted(targets))
        for t in targets:
            builder.add_edge(u, t)
            adjacency[t].append(u)
    return builder.build()


def barabasi_albert(
    n: int, attach: int, *, seed: Optional[int] = None
) -> Graph:
    """Barabási–Albert preferential attachment with ``attach`` edges/vertex.

    A second power-law source (exponent ≈ 3) used by tests to confirm the
    skyline-size findings are not an artifact of the Chung–Lu sampler.
    """
    _check_n(n)
    if attach < 1:
        raise ParameterError(f"attach must be >= 1, got {attach}")
    if n <= attach:
        return complete_graph(n)
    rng = random.Random(seed)
    builder = GraphBuilder(n)
    # Seed clique of attach + 1 vertices.
    repeated: list[int] = []
    for u in range(attach + 1):
        for v in range(u + 1, attach + 1):
            builder.add_edge(u, v)
            repeated.extend((u, v))
    for u in range(attach + 1, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(rng.choice(repeated))
        for v in targets:
            builder.add_edge(u, v)
            repeated.extend((u, v))
    return builder.build()


# ----------------------------------------------------------------------
# Large-tier generators (vectorized, numpy-backed)
# ----------------------------------------------------------------------
# The million-edge workload tier needs graphs that materialize in
# seconds, which rules out the per-edge Python loops above.  These three
# generators assemble endpoint arrays with numpy and hand them to
# :meth:`repro.graph.adjacency.Graph.from_edge_arrays`, so no Python
# adjacency lists are ever built.
# All are deterministic given ``seed`` (``np.random.default_rng``).


def _edges_from_endpoints(n: int, us, vs) -> Graph:
    """Drop loops, dedupe both orientations, build the graph."""
    keep = us != vs
    us, vs = us[keep], vs[keep]
    lo = _np.minimum(us, vs)
    hi = _np.maximum(us, vs)
    codes = _np.unique(lo * _np.int64(n) + hi)
    return Graph.from_edge_arrays(n, codes // n, codes % n)


def kronecker_graph(
    scale: int,
    edge_factor: int,
    *,
    initiator: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    seed: Optional[int] = None,
) -> Graph:
    """A stochastic Kronecker (R-MAT) graph on ``2**scale`` vertices.

    ``edge_factor * 2**scale`` directed edges are sampled bit by bit:
    at each of the ``scale`` recursion levels one quadrant of the
    initiator matrix ``(a, b, c, d)`` is chosen and contributes one bit
    to each endpoint — the Graph500 construction, fully vectorized (one
    uniform draw per level across all edges at once).  Self-loops and
    duplicates are erased afterwards, so the realized edge count lands
    somewhat below the sample count — skewed initiators (large ``a``)
    collapse more samples onto the same hub pairs.
    """
    if scale < 0:
        raise ParameterError(f"scale must be >= 0, got {scale}")
    if edge_factor < 1:
        raise ParameterError(
            f"edge_factor must be >= 1, got {edge_factor}"
        )
    a, b, c, d = initiator
    if min(a, b, c, d) < 0 or abs(a + b + c + d - 1.0) > 1e-9:
        raise ParameterError(
            "initiator probabilities must be non-negative and sum to 1, "
            f"got {initiator}"
        )
    n = 1 << scale
    m = edge_factor * n
    rng = _np.random.default_rng(seed)
    us = _np.zeros(m, dtype=_np.int64)
    vs = _np.zeros(m, dtype=_np.int64)
    for _ in range(scale):
        r = rng.random(m)
        # Quadrant 0..3 = (a | b / c | d); high bit goes to u, low to v.
        quadrant = (
            (r >= a).astype(_np.int64)
            + (r >= a + b).astype(_np.int64)
            + (r >= a + b + c).astype(_np.int64)
        )
        us = (us << 1) | (quadrant >> 1)
        vs = (vs << 1) | (quadrant & 1)
    return _edges_from_endpoints(n, us, vs)


def watts_strogatz(
    n: int, k: int, beta: float, *, seed: Optional[int] = None
) -> Graph:
    """A Watts–Strogatz small world: ring lattice + random rewiring.

    Each vertex starts connected to its ``k // 2`` nearest neighbors on
    either side; every lattice edge is then rewired to a uniform random
    endpoint with probability ``beta``.  Rewiring is vectorized (one
    mask draw + one batch of replacement endpoints); rewired edges that
    collide as loops or duplicates are erased, matching the erased
    construction the other large-tier generators use.
    """
    _check_n(n)
    if k < 0 or k >= n and n > 0:
        raise ParameterError(
            f"ring degree k must satisfy 0 <= k < n, got k={k}, n={n}"
        )
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta must be in [0, 1], got {beta}")
    half = k // 2
    if n == 0 or half == 0:
        return empty_graph(n)
    rng = _np.random.default_rng(seed)
    us = _np.repeat(_np.arange(n, dtype=_np.int64), half)
    vs = (
        us + _np.tile(_np.arange(1, half + 1, dtype=_np.int64), n)
    ) % n
    rewire = rng.random(len(us)) < beta
    vs = _np.where(
        rewire, rng.integers(0, n, size=len(us), dtype=_np.int64), vs
    )
    return _edges_from_endpoints(n, us, vs)


def configuration_model(
    degrees, *, seed: Optional[int] = None
) -> Graph:
    """An erased configuration-model graph with the given degree targets.

    Stubs (half-edges) are laid out per vertex, shuffled with one
    permutation, and paired off consecutively; self-loops and parallel
    edges are erased, so realized degrees can fall slightly below the
    targets (the standard erased construction).  An odd stub total
    silently drops the last stub.
    """
    deg = _np.asarray(degrees, dtype=_np.int64)
    if len(deg) and int(deg.min()) < 0:
        raise ParameterError("degrees must be non-negative")
    n = len(deg)
    stubs = _np.repeat(_np.arange(n, dtype=_np.int64), deg)
    rng = _np.random.default_rng(seed)
    stubs = rng.permutation(stubs)
    half = len(stubs) // 2
    if half == 0:
        return empty_graph(n)
    return _edges_from_endpoints(n, stubs[:half], stubs[half : 2 * half])


def power_law_degrees(
    n: int,
    exponent: float,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    seed: Optional[int] = None,
):
    """A seeded power-law degree sequence for :func:`configuration_model`.

    Inverse-CDF sampling of ``P(deg >= x) ∝ x^(1 - exponent)`` clipped
    to ``[min_degree, max_degree]`` (default cap ``√n``, keeping the
    erased construction's loop/multi-edge loss small).
    """
    _check_n(n)
    if exponent <= 1.0:
        raise ParameterError(
            f"degree exponent must be > 1, got {exponent}"
        )
    if min_degree < 1:
        raise ParameterError(f"min_degree must be >= 1, got {min_degree}")
    if max_degree is None:
        max_degree = max(min_degree, int(math.isqrt(n)))
    rng = _np.random.default_rng(seed)
    u = rng.random(n)
    raw = min_degree * (1.0 - u) ** (-1.0 / (exponent - 1.0))
    return _np.minimum(raw.astype(_np.int64), max_degree)
