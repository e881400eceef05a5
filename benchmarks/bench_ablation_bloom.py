"""Ablation — the bloom filter inside FilterRefineSky (DESIGN.md §5).

Not a paper figure; this sweeps the design choices the paper fixes:

* ``bits_per_element`` — filter width per neighbor (the paper derives a
  single width from dmax).  Narrow filters trade memory for false
  positives, every one of which costs an extra exact ``NBRcheck``.
* ``exact=False`` — the "approximate skyline" variant (paper Sec. III
  remark): skip NBRcheck and accept one-sided error.

The report shows runtime (the fastest of :data:`ROUNDS` calls, also
recorded as a ``bench="ablation_bloom"`` row), false-positive counts
and (for the approximate variant) how many true skyline vertices were
lost.
"""

import pytest

from _datasets import dataset
from repro.core import SkylineCounters, filter_refine_sky

DATASET = "livejournal_sim"
BITS_PER_ELEMENT = (1, 2, 4, 8, 16)

#: Timed calls per cell; the table reports the fastest.
ROUNDS = 3

#: (bits_per_element, exact) per variant: the width sweep, then the
#: approximate mode at a narrow and a wide filter.
VARIANTS = [(bpe, True) for bpe in BITS_PER_ELEMENT] + [(1, False), (8, False)]


@pytest.mark.parametrize("bpe,exact", VARIANTS)
def test_ablation_bloom(time_cells, figure_report, bench_json, bpe, exact):
    graph = dataset(DATASET)
    counters = SkylineCounters()

    def run():
        counters.reset()
        return filter_refine_sky(
            graph, bits_per_element=bpe, exact=exact, counters=counters
        )

    label = f"{'exact' if exact else 'approx'} bpe={bpe}"
    (timing,) = time_cells({label: run}, ROUNDS).values()
    result = timing.result
    bench_json(
        timing.entry(bench="ablation_bloom", instance=DATASET, algorithm=label)
    )
    if not exact:
        lost = filter_refine_sky(graph).size - result.size
        label += f" (lost {lost})"

    report = figure_report(
        "Ablation bloom",
        f"Bloom sizing and approximation inside FilterRefineSky "
        f"({DATASET})",
        (
            "variant",
            "time (s)",
            "|R|",
            "bloom rejects",
            "false positives",
            "nbr checks",
        ),
    )
    report.add_row(
        label,
        timing.min_s,
        result.size,
        counters.bloom_subset_rejects + counters.bloom_member_rejects,
        counters.bloom_false_positives,
        counters.nbr_checks,
    )
