"""CI smoke check for the million-edge workload tier.

End-to-end over the large-graph substrate, in one seeded run:

1. materialize the ``kron_large`` registry graph (stochastic Kronecker,
   ~1.2M edges, CSR-backed from birth);
2. convert it to the binary on-disk format and re-open it via
   ``np.memmap`` (:mod:`repro.graph.binfmt`) — the open must be
   effectively instant and the loaded graph identical in counts;
3. run the parallel block-kernel skyline on the memmap-backed graph
   through the supervised engine (shared-memory data plane where
   available);
4. assert the skyline is non-empty, sane (a subset of the filter
   candidates), that the **refine phase** stayed inside its wall-time
   budget (the block kernel's reason to exist — the bloom baseline
   takes several times longer at this scale), that its **peak RSS**
   stayed inside its memory bounds, and that **zero** shared-memory
   residue survives — no live parent segments and no ``repro_*`` file
   in ``/dev/shm``.

Wall times go into ``BENCH_skyline.json`` as ``bench="large_tier"``
rows through the same checkpoint journal the sweep harness uses, so an
interrupted smoke resumes instead of regenerating the graph.

Usage::

    PYTHONPATH=src python benchmarks/smoke_large.py [dataset ...]
"""

from __future__ import annotations

import glob
import os
import resource
import sys
import tempfile
import time

from repro.core.filter_phase import filter_phase
from repro.graph.binfmt import read_binary_graph, write_binary_graph
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.harness.checkpoint import CheckpointJournal
from repro.parallel import parallel_refine_sky
from repro.parallel.shm import live_segment_names
from repro.workloads import load, spec

DEFAULT_INSTANCES = ("kron_large",)

#: The smoke refuses to pass on anything smaller — the tier's reason to
#: exist is that the substrate handles seven-figure edge counts.
MIN_EDGES = 1_000_000

#: Wall-time budget for the refine phase (end-to-end skyline wall minus
#: a separately timed filter pass).  The block kernel clears this with
#: ample slack on ``kron_large`` while the bloom baseline is several
#: times over it, so a silent regression to scalar refine fails the
#: smoke.  Override for unusually slow CI hosts.
REFINE_BUDGET_S = float(
    os.environ.get("REPRO_SMOKE_REFINE_BUDGET_S", "20.0")
)

#: Peak-RSS bounds for the pooled block skyline, in MiB: how far the
#: parent's peak may rise during the call, and the largest worker's
#: peak.  ``ru_maxrss`` only ever grows, so the parent bound is on the
#: rise across the call (graph generation sets an earlier peak).
#: Measured on kron_large (2-vCPU Linux x86-64 VM, Python 3.11, numpy
#: 2.4.6): a rise of 18.5 MiB and a worker peak of 287 MiB, most of it
#: the forked parent image; each bound is the measurement plus 50%
#: headroom.
SKYLINE_PARENT_RISE_MB = 28.0
SKYLINE_WORKER_PEAK_MB = 430.0

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _assert_no_residue(where: str) -> None:
    assert not live_segment_names(), (
        f"{where}: live parent segments {live_segment_names()}"
    )
    leaked = glob.glob("/dev/shm/repro_*")
    assert not leaked, f"{where}: /dev/shm residue {leaked}"


def run_one(name: str, workdir: str, journal: CheckpointJournal) -> list[dict]:
    t0 = time.perf_counter()
    graph = load(name)
    t_gen = time.perf_counter() - t0
    assert graph.num_edges >= MIN_EDGES, (
        f"{name}: {graph.num_edges} edges; the large tier starts at "
        f"{MIN_EDGES}"
    )

    binary_path = os.path.join(workdir, f"{name}.rsky")
    t0 = time.perf_counter()
    write_binary_graph(graph, binary_path)
    t_convert = time.perf_counter() - t0

    t0 = time.perf_counter()
    mapped = read_binary_graph(binary_path)
    t_open = time.perf_counter() - t0
    assert mapped.num_vertices == graph.num_vertices
    assert mapped.num_edges == graph.num_edges
    # O(1) open: a million-edge graph must map in well under a second.
    assert t_open < 1.0, f"{name}: memmap open took {t_open:.3f}s"

    cell = journal.get(name, "parallel_block", 0)
    if cell is not None:
        wall = cell["wall_s"]
        refine_wall = cell["extra"]["refine_s"]
        skyline_size = cell["extra"]["skyline_size"]
        candidate_size = cell["extra"]["candidate_size"]
        print(f"{name}: resumed skyline cell from checkpoint")
    else:
        t0 = time.perf_counter()
        candidates, _ = filter_phase(mapped)
        t_filter = time.perf_counter() - t0
        peak_before = _peak_rss_mb()
        t0 = time.perf_counter()
        result = parallel_refine_sky(
            mapped, workers=2, refine="block", small_graph_edges=0
        )
        wall = time.perf_counter() - t0
        parent_rise = _peak_rss_mb() - peak_before
        # The pool's workers have exited and been reaped by now.
        worker_peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        print(
            f"{name}: skyline peak RSS rise {parent_rise:.1f} MiB "
            f"(<= {SKYLINE_PARENT_RISE_MB:.0f}), worker peak "
            f"{worker_peak:.1f} MiB (<= {SKYLINE_WORKER_PEAK_MB:.0f})"
        )
        assert parent_rise <= SKYLINE_PARENT_RISE_MB, (
            f"{name}: the skyline raised peak RSS by {parent_rise:.1f} "
            f"MiB, over the {SKYLINE_PARENT_RISE_MB:.0f} MiB bound"
        )
        assert worker_peak <= SKYLINE_WORKER_PEAK_MB, (
            f"{name}: a refine worker peaked at {worker_peak:.1f} MiB, "
            f"over the {SKYLINE_WORKER_PEAK_MB:.0f} MiB bound"
        )
        refine_wall = max(wall - t_filter, 0.0)
        assert result.size > 0, f"{name}: empty skyline"
        assert result.candidate_size is not None
        assert result.size <= result.candidate_size
        assert set(result.skyline) <= set(candidates), (
            f"{name}: skyline escaped the candidate set"
        )
        skyline_size = result.size
        candidate_size = result.candidate_size
        journal.mark_done(
            name,
            "parallel_block",
            0,
            wall_s=wall,
            refine_s=refine_wall,
            skyline_size=skyline_size,
            candidate_size=candidate_size,
        )
    assert refine_wall <= REFINE_BUDGET_S, (
        f"{name}: refine phase took {refine_wall:.1f}s, over the "
        f"{REFINE_BUDGET_S:.0f}s block-kernel budget"
    )
    _assert_no_residue(name)

    print(
        f"{name}: n={graph.num_vertices} m={graph.num_edges} "
        f"gen {t_gen:.1f}s convert {t_convert:.2f}s "
        f"memmap-open {t_open * 1000:.1f}ms skyline {wall:.1f}s "
        f"(refine {refine_wall:.1f}s <= {REFINE_BUDGET_S:.0f}s budget) "
        f"|C|={candidate_size} |R|={skyline_size}; no shm residue"
    )
    return [
        bench_entry(
            bench="large_tier",
            instance=name,
            algorithm="parallel_block_skyline",
            wall_s=wall,
            extra={
                "refine_s": round(refine_wall, 3),
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "skyline_size": skyline_size,
                "candidate_size": candidate_size,
                "generate_s": round(t_gen, 3),
                "convert_s": round(t_convert, 3),
                "memmap_open_s": round(t_open, 6),
                "description": spec(name).description,
            },
        )
    ]


def main(argv) -> int:
    instances = tuple(argv) or DEFAULT_INSTANCES
    entries = []
    journal = CheckpointJournal(
        os.path.join(REPO_ROOT, ".smoke_large_checkpoint.json")
    )
    with tempfile.TemporaryDirectory(prefix="smoke_large_") as workdir:
        for name in instances:
            entries.extend(run_one(name, workdir, journal))
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    # A clean full run retires its journal; only interrupted runs leave
    # one behind for the resume path.
    try:
        os.unlink(journal.path)
    except FileNotFoundError:
        pass
    print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
