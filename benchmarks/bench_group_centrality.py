"""Figs. 7/8 (Exp-4/5) and 11/12 (Exp-7) — base vs NeiSky greedy.

Each pair of figures differs only in the measure, so each pair is one
test parametrized by it: closeness (Greedy++ = BaseGC vs NeiSkyGC,
Figs. 7 and 11) and harmonic (Greedy-H = BaseGH vs NeiSkyGH, Figs. 8
and 12).

* **Figs. 7/8** vary ``k`` on the five centrality instances, one
  sub-table per dataset (the paper's Fig. 7a–e).  Expected shape: both
  runtimes grow with k; NeiSky consistently faster (paper: 1.35–2.5×
  for closeness, 1.4–1.85× for harmonic), because it evaluates
  ``k(2r − k + 1)/2`` marginal gains instead of ``k(2n − k + 1)/2``.
* **Figs. 11/12** fix ``k`` and subsample the LiveJournal centrality
  instance along ``n`` and ``ρ``.  Expected shape: NeiSky faster at
  every point, growing more smoothly.

Every row times three cells, each the fastest of :data:`ROUNDS` calls:
the base greedy and NeiSky under the eager reference driver (whose
evaluation counts are the paper's), and the lazy (CELF + CSR kernels)
schedule of the same NeiSky computation, which must return the
identical group and gains (asserted).  NeiSky times include computing
the skyline.  Each lazy round runs on its own
:func:`~_datasets.cold_copy`, so every round times a cold round 0.  The
eager/lazy pair also fills the figure's "lazy" report.  All three cells
land in ``BENCH_skyline.json`` under the figure's bench name.

Instances and the k-ladder are scaled as described in
``benchmarks/_datasets.py``.
"""

import pytest

from _datasets import (
    GROUP_K_DEFAULT,
    GROUP_K_VALUES,
    SCALING_FRACTIONS,
    centrality_instance,
    cold_copy,
    scalability_centrality_instance,
)
from repro.centrality import base_gc, base_gh, neisky_gc, neisky_gh
from repro.core import filter_refine_sky
from repro.workloads import TABLE1_NAMES

#: Timed calls per cell; the tables report the fastest.
ROUNDS = 3

#: (base greedy, NeiSky greedy, base label, NeiSky label) per measure.
MEASURES = {
    "closeness": (base_gc, neisky_gc, "Greedy++", "NeiSkyGC"),
    "harmonic": (base_gh, neisky_gh, "Greedy-H", "NeiSkyGH"),
}

#: Where each measure's k-ladder rows go (Figs. 7/8).
VARY_K = {
    "closeness": dict(
        figure="Figure 7",
        bench="fig7_group_closeness",
        title="Group closeness maximization: Greedy++ (BaseGC) vs NeiSkyGC",
    ),
    "harmonic": dict(
        figure="Figure 8",
        bench="fig8_group_harmonic",
        title="Group harmonic maximization: Greedy-H (BaseGH) vs NeiSkyGH",
    ),
}

#: Where each measure's scalability rows go (Figs. 11/12).
SCALING = {
    "closeness": dict(
        figure="Figure 11",
        bench="fig11_scalability_gc",
        title=f"Scalability of group closeness (k={GROUP_K_DEFAULT}) "
        "on livejournal_sim",
    ),
    "harmonic": dict(
        figure="Figure 12",
        bench="fig12_scalability_gh",
        title=f"Scalability of group harmonic (k={GROUP_K_DEFAULT}) "
        "on livejournal_sim",
    ),
}


def _greedy_row(time_cells, figure_report, bench_json, measure, target,
                graph, k, instance, lead):
    """Time and record one row; ``lead`` maps the leading report columns
    to their cells."""
    base_fn, sky_fn, base_label, sky_label = MEASURES[measure]

    def neisky(g, strategy):
        return sky_fn(
            g, k, skyline=filter_refine_sky(g).skyline, strategy=strategy
        )

    lazy_label = "Lazy" + sky_label
    times = time_cells(
        {
            base_label: lambda: base_fn(graph, k, strategy="eager"),
            sky_label: lambda: neisky(graph, "eager"),
            lazy_label: (
                lambda g: neisky(g, "lazy"),
                lambda: cold_copy(graph),
            ),
        },
        ROUNDS,
    )
    base, eager, lazy = times.values()
    assert lazy.result.group == eager.result.group, (instance, k, "group")
    assert lazy.result.gains == eager.result.gains, (instance, k, "gains")

    evals = {label: t.result.evaluations for label, t in times.items()}
    extras = {
        base_label: {"strategy": "eager"},
        sky_label: {"strategy": "eager"},
        lazy_label: {
            "strategy": "lazy",
            "evaluations_saved": lazy.result.evaluations_saved,
            "eager_wall_s": eager.min_s,
            "speedup_vs_eager": eager.min_s / lazy.min_s,
            "eager_evaluations": evals[sky_label],
        },
    }
    for label, timing in times.items():
        bench_json(
            timing.entry(
                bench=target["bench"],
                instance=instance,
                algorithm=f"{label}(k={k})",
                extra={"k": k, "evaluations": evals[label], **extras[label]},
            )
        )

    figure = target["figure"]
    figure_report(
        figure,
        f"{target['title']} (fastest of {ROUNDS} calls)",
        tuple(lead)
        + (f"{base_label} (s)", f"{sky_label} (s)", "speedup")
        + ("base evals", "sky evals"),
    ).add_row(
        *lead.values(),
        base.min_s,
        eager.min_s,
        base.min_s / eager.min_s,
        evals[base_label],
        evals[sky_label],
    )
    figure_report(
        f"{figure} lazy",
        f"{figure}: eager vs lazy (CELF + CSR kernels) schedules of "
        f"the identical greedy computation (fastest of {ROUNDS} calls)",
        ("instance", "params", "eager (s)", "lazy (s)", "speedup")
        + ("eager evals", "lazy evals", "saved"),
    ).add_row(
        instance,
        f"k={k}",
        eager.min_s,
        lazy.min_s,
        eager.min_s / lazy.min_s,
        evals[sky_label],
        evals[lazy_label],
        lazy.result.evaluations_saved,
    )


@pytest.mark.parametrize("name", TABLE1_NAMES)
@pytest.mark.parametrize("k", GROUP_K_VALUES)
@pytest.mark.parametrize("measure", MEASURES)
def test_group_vary_k(time_cells, figure_report, bench_json, measure, k, name):
    _greedy_row(
        time_cells,
        figure_report,
        bench_json,
        measure,
        VARY_K[measure],
        centrality_instance(name),
        k,
        instance=name,
        lead={"dataset": name, "k": k},
    )


@pytest.mark.parametrize("axis", ("n", "rho"))
@pytest.mark.parametrize("fraction", SCALING_FRACTIONS)
@pytest.mark.parametrize("measure", MEASURES)
def test_group_scalability(
    time_cells, figure_report, bench_json, measure, fraction, axis
):
    _greedy_row(
        time_cells,
        figure_report,
        bench_json,
        measure,
        SCALING[measure],
        scalability_centrality_instance(axis, fraction),
        GROUP_K_DEFAULT,
        instance=f"livejournal_sim[{axis}={fraction}]",
        lead={"axis": axis, "fraction": fraction},
    )
