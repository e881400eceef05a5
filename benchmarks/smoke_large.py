"""CI smoke check for the million-edge workload tier.

End-to-end over the large-graph substrate, in one seeded run:

1. materialize the ``kron_large`` registry graph (stochastic Kronecker,
   ~1.2M edges, CSR-backed from birth);
2. convert it to the binary on-disk format and re-open it via
   ``np.memmap`` (:mod:`repro.graph.binfmt`) — the open must be
   effectively instant and the loaded graph identical in counts;
3. run the default (``algorithm="auto"``) skyline on the memmap-backed
   graph — at this size the auto cutover picks the block kernel;
4. assert the skyline is non-empty, sane (a subset of the filter
   candidates), that the **refine phase** stayed inside its wall-time
   budget (the block kernel's reason to exist — the bloom baseline
   takes several times longer at this scale), and that the call's
   **peak RSS** rise stayed inside its memory bound;
5. record, ungated, the peak-RSS rise of one skyline in a fresh
   process that only maps the ``.rsky`` file — the rise a
   ``repro-sky skyline`` run on the file sees, without the in-process
   run's earlier peaks to hide it.

Wall times go into ``BENCH_skyline.json`` as ``bench="large_tier"``
rows through the same checkpoint journal the sweep harness uses, so an
interrupted smoke resumes instead of regenerating the graph.

Usage::

    PYTHONPATH=src python benchmarks/smoke_large.py [dataset ...]
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time

from repro.core import SkylineCounters, neighborhood_skyline
from repro.core.filter_phase import filter_phase
from repro.graph.binfmt import read_binary_graph, write_binary_graph
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.harness.checkpoint import CheckpointJournal
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

#: Peak-RSS bound for the in-process skyline, in MiB: how far the
#: process peak may rise during the call.  ``ru_maxrss`` only ever
#: grows, so the bound is on the rise across the call (graph generation
#: sets an earlier peak).  Measured on kron_large (2-vCPU Linux x86-64
#: VM, Python 3.11, numpy 2.4.6): a rise of 50.0 MiB in three runs,
#: the block kernel's scratch arrays; the bound is the measurement plus
#: 50% headroom.  The rise now measures 34.8–35.0 MiB.
SKYLINE_PEAK_RISE_MB = 75.0

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Run in a fresh interpreter: map the ``.rsky`` at ``argv[1]``, run one
#: counted skyline, print the peak-RSS rise in MiB.  It reads the peak
#: from ``VmHWM`` (Linux): ``ru_maxrss`` survives ``exec``, so a child
#: would start at this process's peak.
_FRESH_SKYLINE = """
import sys
from repro.core import SkylineCounters, neighborhood_skyline
from repro.graph.binfmt import read_binary_graph
def peak():
    with open("/proc/self/status") as status:
        line = next(x for x in status if x.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0
graph = read_binary_graph(sys.argv[1])
before = peak()
neighborhood_skyline(graph, counters=SkylineCounters())
print(peak() - before)
"""


def _peak_rss_mb() -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh_peak_rise_mb(binary_path: str) -> float:
    """The skyline's peak-RSS rise in a child that only maps the file."""
    src = os.path.join(REPO_ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_SKYLINE, binary_path],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout)


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
    # No-parse open: a million-edge graph must map and validate in
    # well under a second.
    assert t_open < 1.0, f"{name}: memmap open took {t_open:.3f}s"

    cell = journal.get(name, "auto_skyline", 0)
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
        result = neighborhood_skyline(mapped, counters=SkylineCounters())
        wall = time.perf_counter() - t0
        rise = _peak_rss_mb() - peak_before
        print(
            f"{name}: skyline ({result.algorithm}) "
            f"peak RSS rise {rise:.1f} MiB (<= {SKYLINE_PEAK_RISE_MB:.0f})"
        )
        assert rise <= SKYLINE_PEAK_RISE_MB, (
            f"{name}: the skyline raised peak RSS by {rise:.1f} MiB, "
            f"over the {SKYLINE_PEAK_RISE_MB:.0f} MiB bound"
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
            "auto_skyline",
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
    fresh_rise = _fresh_peak_rise_mb(binary_path)
    print(f"{name}: fresh-process skyline peak RSS rise {fresh_rise:.1f} MiB")

    print(
        f"{name}: n={graph.num_vertices} m={graph.num_edges} "
        f"gen {t_gen:.1f}s convert {t_convert:.2f}s "
        f"memmap-open {t_open * 1000:.1f}ms skyline {wall:.1f}s "
        f"(refine {refine_wall:.1f}s <= {REFINE_BUDGET_S:.0f}s budget) "
        f"|C|={candidate_size} |R|={skyline_size}"
    )
    return [
        bench_entry(
            bench="large_tier",
            instance=name,
            algorithm="auto_skyline",
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
                "fresh_peak_rise_mb": round(fresh_rise, 1),
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
