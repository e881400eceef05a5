"""Golden clique outputs: every solver's exact vertex lists, pinned.

Serve responses and the Fig. 9 / Table II reports depend on *which*
maximum clique a solver returns, not only its size, so the solvers'
vertex lists are pinned on a fixed corpus: karate, the eight n=400
copying-model graphs ``perfbench`` serves, R-MAT graphs of scale 8-10
at two seeds, and dense seeded ``G(n, p)`` graphs with many tied
maximum cliques.  ``golden_cliques.json`` holds the lists; regenerate
it (only when a change defines a new canonical tie-break) with::

    PYTHONPATH=src python tests/clique/test_golden.py

Every pinned result is also checked on its own terms: a clique (with
:mod:`repro.clique.verify`), of the size BaseMCC finds.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from repro.clique.branch_bound import base_mcc
from repro.clique.mcbrb import (
    greedy_heuristic_clique,
    max_clique_with_root,
    mc_brb,
)
from repro.clique.neisky import neisky_mc
from repro.clique.topk import base_topk_mcc, neisky_topk_mcc
from repro.clique.verify import is_clique, is_maximal_clique
from repro.graph.adjacency import Graph
from repro.graph.generators import copying_power_law, erdos_renyi, kronecker_graph
from repro.graph.karate import karate_club

FIXTURE = Path(__file__).with_name("golden_cliques.json")

#: Generator seeds of the n=400 copying-model graphs perfbench's
#: serve_mixed workload hosts.
SERVE_SEEDS = (1, 4, 6, 11, 13, 19, 30, 43)

TOP_KS = (1, 2, 3)


def coin_graph(n: int, seed: int) -> Graph:
    """Keep each pair ``u < v`` (lexicographic) on a fair coin flip."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return Graph.from_edges(n, edges)


def _corpus() -> dict:
    corpus = {"karate": karate_club}
    for s in SERVE_SEEDS:
        corpus[f"copying400_s{s}"] = lambda s=s: copying_power_law(400, seed=s)
    for scale in (8, 9, 10):
        for s in (3, 7):
            corpus[f"rmat{scale}_s{s}"] = lambda scale=scale, s=s: (
                kronecker_graph(scale, 8, seed=s)
            )
    # Dense G(n, p) graphs, each with 14-104 tied maximum cliques.
    for n, p, s in ((30, 0.5, 0), (36, 0.5, 0), (40, 0.5, 2), (28, 0.7, 0), (45, 0.4, 1)):
        corpus[f"gnp{n}_p{p}_s{s}"] = lambda n=n, p=p, s=s: erdos_renyi(n, p, seed=s)
    # Skyline-root exclusion returns a different maximum clique here.
    corpus["coin48_s2131"] = lambda: coin_graph(48, 2131)
    return corpus


CORPUS = _corpus()


@lru_cache(maxsize=None)
def corpus_graph(name: str) -> Graph:
    return CORPUS[name]()


def solve_all(graph: Graph) -> dict:
    """Every pinned solver output on ``graph``."""
    adjacency = [set(graph.neighbors(u)) for u in graph.vertices()]
    return {
        "greedy_heuristic_clique": greedy_heuristic_clique(graph),
        "mc_brb": mc_brb(graph),
        "neisky_mc": neisky_mc(graph),
        "rooted": [
            max_clique_with_root(graph, u, adjacency=adjacency)
            for u in graph.vertices()
        ],
        "base_topk": [base_topk_mcc(graph, k) for k in TOP_KS],
        "neisky_topk": [neisky_topk_mcc(graph, k) for k in TOP_KS],
    }


@lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@lru_cache(maxsize=None)
def omega(name: str) -> int:
    return len(base_mcc(corpus_graph(name)))


NAMES = sorted(CORPUS)


def test_fixture_covers_corpus():
    assert sorted(golden()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_omega_matches_networkx(name):
    import networkx as nx

    g = corpus_graph(name)
    G = nx.Graph()
    G.add_nodes_from(g.vertices())
    G.add_edges_from(g.edges())
    assert max(len(c) for c in nx.find_cliques(G)) == omega(name)


@pytest.mark.parametrize("name", NAMES)
def test_max_clique_lists(name):
    g = corpus_graph(name)
    want = golden()[name]
    for solver in (mc_brb, neisky_mc):
        clique = solver(g)
        assert clique == want[solver.__name__]
        assert is_maximal_clique(g, clique)
        assert len(clique) == omega(name)


@pytest.mark.parametrize("name", NAMES)
def test_heuristic_lists(name):
    g = corpus_graph(name)
    clique = greedy_heuristic_clique(g)
    assert clique == golden()[name]["greedy_heuristic_clique"]
    assert is_clique(g, clique)


@pytest.mark.parametrize("name", NAMES)
def test_rooted_lists(name):
    g = corpus_graph(name)
    adjacency = [set(g.neighbors(u)) for u in g.vertices()]
    got = [max_clique_with_root(g, u, adjacency=adjacency) for u in g.vertices()]
    assert got == golden()[name]["rooted"]
    for u, clique in enumerate(got):
        assert u in clique
        assert is_clique(g, clique)
        # Maximal: no vertex is adjacent to every member.
        assert not set.intersection(*(adjacency[v] for v in clique))
    assert max(map(len, got)) == omega(name)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("variant", ["base_topk", "neisky_topk"])
def test_topk_lists(name, variant):
    g = corpus_graph(name)
    solver = {"base_topk": base_topk_mcc, "neisky_topk": neisky_topk_mcc}[variant]
    for k, want in zip(TOP_KS, golden()[name][variant]):
        got = solver(g, k)
        assert got == want, k
        assert len({tuple(c) for c in got}) == len(got)
        assert all(is_clique(g, c) for c in got)
        assert len(got[0]) == omega(name)


def write_fixture() -> None:
    out = {}
    for name in NAMES:
        out[name] = solve_all(corpus_graph(name))
    lines = [f"  {json.dumps(n)}: {json.dumps(out[n], separators=(',', ':'))}" for n in NAMES]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_fixture()
