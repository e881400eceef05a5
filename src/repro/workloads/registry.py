"""Dataset registry: the paper's graphs and their scaled stand-ins.

The paper evaluates on five KONECT/SNAP graphs (Table I) plus
LiveJournal/Pokec/Orkut for scalability and clique experiments, and two
tiny case-study networks.  Real dumps are not shipped here; instead each
large graph gets a **seeded copying-model stand-in**
(:func:`~repro.graph.generators.copying_power_law`) tuned so that the
skyline fraction ``|R|/n`` lands in the paper's reported range — the
copying process reproduces the neighborhood-nesting structure of real
web/social/communication graphs that independent-edge models lack (see
DESIGN.md §3).  The two clique-experiment graphs additionally carry a
planted ladder of dense communities so the top-k clique ranks are
distinguishable.  Zachary's karate club is embedded exactly; the
Madrid-bombing contact network is replaced by a same-size proxy.

Every dataset is deterministic: same name → same graph, across runs and
machines.

>>> load("karate").num_vertices
34
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.errors import DatasetNotFoundError, ParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import (
    configuration_model,
    copying_power_law,
    kronecker_graph,
    power_law_degrees,
    watts_strogatz,
)
from repro.graph.karate import karate_club
from repro.workloads.bombing import bombing_proxy
from repro.workloads.synthetic import attach_hub_satellites, plant_cliques

__all__ = [
    "DatasetSpec",
    "PaperStats",
    "load",
    "spec",
    "names",
    "TABLE1_NAMES",
    "LARGE_TIER_NAMES",
]


@dataclass(frozen=True)
class PaperStats:
    """The row the paper's Table I reports for the original dataset."""

    num_vertices: int
    num_edges: int
    max_degree: int


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: loader plus provenance metadata."""

    name: str
    description: str
    kind: str  # "embedded" (real data shipped) or "standin" (synthetic)
    loader: Callable[[], Graph]
    paper: Optional[PaperStats] = None
    #: "standard" datasets are paper-scale and safe to load everywhere;
    #: "large" is the million-edge benchmark tier — excluded from
    #: default listings so tests and the CLI never materialize one by
    #: accident.
    tier: str = "standard"

    def load(self) -> Graph:
        """Materialize the graph (loaders are pure and seeded)."""
        return self.loader()


def _standin(
    n: int,
    degree_exponent: float,
    copy_prob: float,
    seed: int,
    *,
    proto_link_prob: float = 0.0,
    max_out_degree: int = 30,
    planted: bool = False,
    hubs: int = 0,
    satellites: int = 0,
    satellite_degree: int = 4,
) -> Callable[[], Graph]:
    def loader() -> Graph:
        graph = copying_power_law(
            n,
            degree_exponent,
            copy_prob,
            proto_link_prob=proto_link_prob,
            max_out_degree=max_out_degree,
            seed=seed,
        )
        if hubs:
            graph = attach_hub_satellites(
                graph,
                hubs,
                satellites,
                max_satellite_degree=satellite_degree,
                seed=seed,
            )
        if planted:
            graph = plant_cliques(graph, seed=seed)
        return graph

    return loader


_SPECS: dict[str, DatasetSpec] = {}


def _register(spec_: DatasetSpec) -> None:
    _SPECS[spec_.name] = spec_


# -- Table I datasets (scaled stand-ins) --------------------------------
# Parameters: a lower degree exponent / higher copy probability gives a
# hubbier graph with a smaller skyline.  WikiTalk is by far the most
# star-like of the originals (dmax = 100k on 2.4M vertices; skyline
# fraction 8%%), so its stand-in gets the most aggressive copying.
_register(
    DatasetSpec(
        name="notredame_sim",
        description="Web network stand-in (Notredame: n=325,731, m=1,090,109)",
        kind="standin",
        loader=_standin(4000, 2.3, 0.90, seed=101, hubs=2, satellites=1200),
        paper=PaperStats(325_731, 1_090_109, 10_721),
    )
)
_register(
    DatasetSpec(
        name="youtube_sim",
        description="Social network stand-in (Youtube: n=1,134,890, m=2,987,624)",
        kind="standin",
        loader=_standin(5000, 2.4, 0.88, seed=102, hubs=3, satellites=800),
        paper=PaperStats(1_134_890, 2_987_624, 28_754),
    )
)
_register(
    DatasetSpec(
        name="wikitalk_sim",
        description=(
            "Communication network stand-in "
            "(WikiTalk: n=2,394,385, m=4,659,565)"
        ),
        kind="standin",
        loader=_standin(3000, 2.9, 0.96, seed=103, hubs=3, satellites=2000),
        paper=PaperStats(2_394_385, 4_659_565, 100_029),
    )
)
_register(
    DatasetSpec(
        name="flixster_sim",
        description="Social network stand-in (Flixster: n=2,523,386, m=7,918,801)",
        kind="standin",
        loader=_standin(5000, 2.6, 0.85, seed=104, hubs=2, satellites=800),
        paper=PaperStats(2_523_386, 7_918_801, 1_474),
    )
)
_register(
    DatasetSpec(
        name="dblp_sim",
        description=(
            "Collaboration network stand-in "
            "(DBLP: n=1,843,617, m=8,350,260)"
        ),
        kind="standin",
        loader=_standin(5000, 2.1, 0.80, seed=105, max_out_degree=40, hubs=2, satellites=400),
        paper=PaperStats(1_843_617, 8_350_260, 2_213),
    )
)

# -- Scalability / clique datasets --------------------------------------
_register(
    DatasetSpec(
        name="livejournal_sim",
        description="Scalability stand-in for LiveJournal (Exp-7)",
        kind="standin",
        loader=_standin(5000, 2.4, 0.85, seed=106, hubs=2, satellites=1000),
    )
)
_register(
    DatasetSpec(
        name="pokec_sim",
        description="Clique-experiment stand-in for Pokec (Exp-6)",
        kind="standin",
        loader=_standin(3000, 1.4, 0.93, seed=107, proto_link_prob=0.5, max_out_degree=50, planted=True, hubs=2, satellites=800, satellite_degree=10),
    )
)
_register(
    DatasetSpec(
        name="orkut_sim",
        description="Clique-experiment stand-in for Orkut (Exp-6)",
        kind="standin",
        loader=_standin(3500, 1.3, 0.93, seed=108, proto_link_prob=0.5, max_out_degree=60, planted=True, hubs=2, satellites=1000, satellite_degree=10),
    )
)

# -- Case-study networks (Fig. 13) --------------------------------------
_register(
    DatasetSpec(
        name="karate",
        description="Zachary's karate club (real, embedded; 34/78)",
        kind="embedded",
        loader=karate_club,
        paper=PaperStats(34, 78, 17),
    )
)
_register(
    DatasetSpec(
        name="bombing_proxy",
        description=(
            "Proxy for the Madrid train-bombing contact network (64/243)"
        ),
        kind="standin",
        loader=bombing_proxy,
        paper=PaperStats(64, 243, 29),
    )
)

# -- Large workload tier (million-edge scale) ---------------------------
# Generated with the vectorized numpy generators, so materialization is
# seconds, not minutes; loading additionally requires numpy (the
# standard tier does not).  Excluded from names() by default.
_register(
    DatasetSpec(
        name="kron_large",
        description=(
            "Stochastic Kronecker (R-MAT) graph, scale 17, ~1.2M edges "
            "after erasure (mild skew keeps the refine scan CI-sized)"
        ),
        kind="standin",
        tier="large",
        loader=lambda: kronecker_graph(
            17, 9, initiator=(0.35, 0.25, 0.25, 0.15), seed=701
        ),
    )
)
_register(
    DatasetSpec(
        name="ws_large",
        description=(
            "Watts-Strogatz small world, n=200k, k=10, beta=0.05 "
            "(~1.0M edges)"
        ),
        kind="standin",
        tier="large",
        loader=lambda: watts_strogatz(200_000, 10, 0.05, seed=702),
    )
)
_register(
    DatasetSpec(
        name="config_large",
        description=(
            "Erased configuration model, n=250k power-law degrees "
            "(exponent 2.3, ~1.7M edges)"
        ),
        kind="standin",
        tier="large",
        loader=lambda: configuration_model(
            power_law_degrees(250_000, 2.3, min_degree=4, seed=703),
            seed=703,
        ),
    )
)

#: The five datasets of the paper's Table I, in table order.
TABLE1_NAMES: tuple[str, ...] = (
    "notredame_sim",
    "youtube_sim",
    "wikitalk_sim",
    "flixster_sim",
    "dblp_sim",
)

#: The million-edge benchmark tier, in registration order.
LARGE_TIER_NAMES: tuple[str, ...] = (
    "kron_large",
    "ws_large",
    "config_large",
)


def names(*, tier: str = "standard") -> tuple[str, ...]:
    """Registered dataset names, sorted.

    ``tier`` selects ``"standard"`` (default — the paper-scale sets
    every caller historically got), ``"large"`` (the million-edge
    benchmark tier) or ``"all"``.
    """
    if tier not in ("standard", "large", "all"):
        raise ParameterError(
            f"unknown tier {tier!r}; choose 'standard', 'large' or 'all'"
        )
    return tuple(
        sorted(
            name
            for name, s in _SPECS.items()
            if tier == "all" or s.tier == tier
        )
    )


def spec(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` for ``name``."""
    try:
        return _SPECS[name]
    except KeyError:
        raise DatasetNotFoundError(name, names()) from None


@lru_cache(maxsize=None)
def load(name: str) -> Graph:
    """Materialize the named dataset.

    Loaders are pure and seeded, and graphs are immutable, so results
    are memoized — repeated loads (CLI listings, test fixtures, bench
    modules) share one instance per dataset.
    """
    return spec(name).load()
