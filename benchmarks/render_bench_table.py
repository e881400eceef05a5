"""Render the README benchmark tables from ``BENCH_skyline.json``.

Reads the repo-root benchmark document and prints GitHub-markdown
tables pasted into README.md — the paper's Fig. 3 skyline runtimes
(``fig3_runtime`` entries), and eager vs lazy (CELF + CSR) group-centrality wall times with their
evaluation counts (``fig7_group_closeness``/``fig8_group_harmonic``
entries).  Keeping the renderer next to the data means the README
numbers are always regenerable::

    PYTHONPATH=src python benchmarks/render_bench_table.py
"""

from __future__ import annotations

import os
import sys

from repro.harness.benchjson import BENCH_FILENAME, load_bench_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: The paper's Exp-1 series, in ``bench_fig3_runtime.py``'s column order.
FIG3_SERIES = ("LC-Join", "BaseSky", "Base2Hop", "BaseCSet", "FilterRefineSky")


def render(entries) -> str:
    """Fig. 3 wall times (s) per dataset, one column per paper series."""
    by_key = {
        (e["instance"], e["algorithm"]): e
        for e in entries
        if e["bench"] == "fig3_runtime"
    }
    lines = [
        "| dataset | " + " | ".join(FIG3_SERIES) + " |",
        "|---" * (len(FIG3_SERIES) + 1) + "|",
    ]
    for name in sorted({k[0] for k in by_key}):
        cells = [by_key.get((name, a)) for a in FIG3_SERIES]
        if None in cells:
            continue
        lines.append(
            f"| {name} | "
            + " | ".join(f"{e['wall_s']:.3f}" for e in cells)
            + " |"
        )
    return "\n".join(lines)


#: (bench, objective label) pairs feeding the group-centrality table.
GREEDY_BENCHES = (
    ("fig7_group_closeness", "GC"),
    ("fig8_group_harmonic", "GH"),
)


def render_greedy(entries) -> str:
    """Eager vs lazy group-centrality table from the fig7/fig8 entries.

    Each lazy rider entry carries its eager twin's wall time and
    evaluation count in ``extra`` (written by
    ``benchmarks/_greedy_bench.py``), so one entry per row suffices.
    Returns ``""`` when no lazy entries have been recorded yet.
    """
    rows = []
    for bench, objective in GREEDY_BENCHES:
        for e in entries:
            extra = e.get("extra", {})
            if e["bench"] != bench or "speedup_vs_eager" not in extra:
                continue
            k = e["algorithm"].rsplit("k=", 1)[-1].rstrip(")")
            rows.append(
                (
                    e["instance"],
                    objective,
                    int(k),
                    extra["eager_wall_s"],
                    e["wall_s"],
                    extra["speedup_vs_eager"],
                    extra["eager_evaluations"],
                    extra["evaluations"],
                )
            )
    if not rows:
        return ""
    rows.sort()
    lines = [
        "| dataset | objective | k | eager (s) | lazy (s) | speedup "
        "| eager evals | lazy evals |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for inst, obj, k, eager_s, lazy_s, ratio, eager_ev, lazy_ev in rows:
        lines.append(
            f"| {inst} | {obj} | {k} | {eager_s:.3f} | {lazy_s:.3f} "
            f"| {ratio:.2f}x | {eager_ev} | {lazy_ev} |"
        )
    return "\n".join(lines)


def render_refine_vector(entries) -> str:
    """Filter and refine before/after table (``filter_vector`` and
    ``refine_vector`` entries).

    One row per instance: candidate count, the scalar and vectorized
    filter walls, the before row's refine wall (annotated with the path
    that ran: the bloom Alg. 3), the block kernel's refine wall, the
    measured refine speedup and the block kernel's pair tests.  Returns
    ``""`` when ``bench_refine_vector.py`` has not been run yet.
    """
    by_key = {
        (e["bench"], e["instance"], e["algorithm"]): e
        for e in entries
        if e["bench"] in ("filter_vector", "refine_vector")
    }
    rows = []
    for name in sorted({k[1] for k in by_key}):
        before = by_key.get(("refine_vector", name, "FilterRefineSky"))
        after = by_key.get(("refine_vector", name, "FilterRefineSkyBlock"))
        if before is None or after is None:
            continue
        scalar = by_key.get(("filter_vector", name, "scalar_filter_phase"))
        vector = by_key.get(("filter_vector", name, "filter_phase"))
        b_extra = before.get("extra", {})
        a_extra = after.get("extra", {})
        ratio = a_extra.get(
            "refine_speedup",
            b_extra["refine_s"] / a_extra["refine_s"],
        )
        filter_cells = (
            f"{scalar['wall_s']:.2f} | {vector['wall_s']:.2f}"
            if scalar is not None and vector is not None
            else "? | ?"
        )
        rows.append(
            f"| {name} | {a_extra.get('candidate_size', '?')} "
            f"| {filter_cells} "
            f"| {b_extra['refine_s']:.2f} "
            f"({b_extra.get('refine_path', '?')}) "
            f"| {a_extra['refine_s']:.2f} | {ratio:.1f}x "
            f"| {after.get('counters', {}).get('pair_tests', '?')} |"
        )
    if not rows:
        return ""
    return "\n".join(
        [
            "| dataset | \\|C\\| | filter scalar (s) | filter vector (s) "
            "| refine before (s) | refine block (s) | refine speedup "
            "| block pair tests |",
            "|---|---|---|---|---|---|---|---|",
            *rows,
        ]
    )


def render_large_tier(entries) -> str:
    """Million-edge tier table (``large_tier`` entries).

    One row per instance: graph shape, binary convert / memmap open
    times, and the end-to-end default skyline wall time.
    Returns ``""`` when the tier has not been benched yet.
    """
    rows = []
    for e in entries:
        if e["bench"] != "large_tier":
            continue
        extra = e.get("extra", {})
        rows.append(
            (
                e["instance"],
                f"| {e['instance']} | {extra.get('num_vertices', '?')} "
                f"| {extra.get('num_edges', '?')} "
                f"| {extra.get('convert_s', 0):.2f} "
                f"| {extra.get('memmap_open_s', 0) * 1000:.1f}ms "
                f"| {e['wall_s']:.1f} "
                f"| {extra.get('skyline_size', '?')} |",
            )
        )
    if not rows:
        return ""
    rows.sort()
    return "\n".join(
        [
            "| dataset | n | m | convert (s) | memmap open | skyline (s) "
            "| \\|R\\| |",
            "|---|---|---|---|---|---|---|",
            *[line for _, line in rows],
        ]
    )


def render_greedy_vector(entries) -> str:
    """Greedy vector-kernel before/after table (``greedy_vector`` rows).

    One row per instance: pool shape, the eager reference wall, the
    scalar-kernel and default lazy walls with the measured speedup, and
    the default's repeated (round-0 memo warm) wall.  Returns ``""`` when
    ``bench_greedy_vector.py`` has not been run yet.
    """
    by_inst = {}
    for e in entries:
        if e["bench"] == "greedy_vector":
            variant = e.get("extra", {}).get("variant")
            by_inst.setdefault(e["instance"], {})[variant] = e
    rows = []
    for name in sorted(by_inst):
        group = by_inst[name]
        before = group.get("before")
        after = group.get("after")
        if before is None or after is None:
            continue
        ref = group.get("reference")
        a_extra = after.get("extra", {})
        ratio = a_extra.get(
            "speedup_vs_scalar", before["wall_s"] / after["wall_s"]
        )
        eager_cell = f"{ref['wall_s']:.1f}" if ref is not None else "?"
        warm = group.get("warm")
        warm_cell = f"{warm['wall_s']:.1f}" if warm is not None else "?"
        rows.append(
            f"| {name} | {a_extra.get('k', '?')} "
            f"| {a_extra.get('pool_size', '?')} | {eager_cell} "
            f"| {before['wall_s']:.1f} | {after['wall_s']:.1f} "
            f"| {ratio:.1f}x | {warm_cell} |"
        )
    if not rows:
        return ""
    return "\n".join(
        [
            "| dataset | k | pool | eager (s) | lazy scalar (s) "
            "| lazy batched (s) | speedup | lazy warm (s) |",
            "|---|---|---|---|---|---|---|---|",
            *rows,
        ]
    )


def main() -> int:
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    entries = load_bench_json(path)
    if not entries:
        print(
            f"no entries in {path}; run "
            "`PYTHONPATH=src python -m pytest benchmarks/"
            "bench_fig3_runtime.py` first",
            file=sys.stderr,
        )
        return 1
    print(render(entries))
    greedy = render_greedy(entries)
    if greedy:
        print()
        print(greedy)
    refine_vector = render_refine_vector(entries)
    if refine_vector:
        print()
        print(refine_vector)
    large = render_large_tier(entries)
    if large:
        print()
        print(large)
    greedy_vector = render_greedy_vector(entries)
    if greedy_vector:
        print()
        print(greedy_vector)
    return 0


if __name__ == "__main__":
    sys.exit(main())
