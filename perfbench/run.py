"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload skyline_rmat --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  Lines above it show each metric calibrated and raw,
side by side.  A run is a fixed number of whole passes of a seeded op
sequence (see ``pass_count``).  Every timing is calibrated against the
host (see ``calib.py``).  A run record goes to ``perfbench/out/``, and
a traced run also writes a Chrome trace-event file and a self-time table there.
Exits 1 when any timed output was wrong, 2 on a usage or set-up error.
``--tiny`` runs the same code on toy inputs in seconds (for the tests).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


@dataclass
class Record:
    kind: str
    graph: str
    pass_index: int
    start: float
    seconds: float
    latency: bool
    ok: bool = True
    status: int = 0
    nbytes: int = 0
    calibrated_ms: float = 0.0


def pass_count(workload, seconds, min_ops):
    """Passes one run measures: a fixed count, never a wall-time cut.

    Enough passes for ``seconds`` at the workload's nominal pass time,
    and at least ``min_ops`` ops.  The count depends only on the
    arguments, so every run of a workload sends the same op sequence
    and leaves the server in the same state, however fast the program.
    """
    per_pass = len(workload.pass_ops(0))
    return max(math.ceil(seconds / workload.pass_s), math.ceil(min_ops / per_pass), 1)


def measure(workload, cal, passes, first_pass=0):
    """Run passes ``first_pass .. first_pass+passes-1``; their records.

    A failing or wrong op is recorded as failed and the run goes on.
    """
    from workloads import WrongResult

    records: list[Record] = []
    for pass_index in range(first_pass, first_pass + passes):
        for op in workload.pass_ops(pass_index):
            cal.maybe_sample()
            with workload.tracer.request(f"op-{pass_index}-{len(records)}"), workload.tracer.span(f"op.{op.kind}"):
                t0 = time.perf_counter()
                try:
                    value = op.run()
                    error = None
                except Exception as exc:  # counted as a failed op
                    value, error = None, exc
                t1 = time.perf_counter()
            record = Record(op.kind, op.graph, pass_index, t0, t1 - t0, op.latency)
            if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], bytes):
                record.status, record.nbytes = value[0], len(value[1])
            if error is None:
                try:
                    op.check(value)
                except (WrongResult, ValueError, KeyError) as exc:
                    error = exc
            if error is not None:
                record.ok = False
                print(f"FAILED {op.kind} on {op.graph or '-'}: {error!r}", file=sys.stderr)
            records.append(record)
    cal.sample()
    for r in records:
        r.calibrated_ms = r.seconds * 1000.0 * cal.factor_at(r.start)
    return records


def nearest_rank(sorted_values, p):
    return sorted_values[max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)]


def end_to_end(records, setup_s, peak_rss_mb, raw=False):
    """``{metric: value}`` and ``{metric: samples}`` for one run."""
    ms = (lambda r: r.seconds * 1000.0) if raw else (lambda r: r.calibrated_ms)
    done = [r for r in records if r.ok]
    latencies = sorted(ms(r) for r in done if r.latency)
    values = {
        "ops_per_s": len(done) / (sum(ms(r) for r in records) / 1000.0),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": nearest_rank(latencies, 90),
    }
    samples = {"ops_per_s": len(records), "latency_p50_ms": len(latencies), "latency_p90_ms": len(latencies)}
    for kind in ("skyline", "group", "clique"):
        of_kind = [ms(r) for r in done if r.latency and r.kind == kind]
        # A workload without ops of this kind reports its overall p50.
        values[f"{kind}_p50_ms"] = statistics.median(of_kind) if of_kind else values["latency_p50_ms"]
        samples[f"{kind}_p50_ms"] = len(of_kind) or len(latencies)
    values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, success_ratio=len(done) / len(records))
    return values, samples


UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "skyline_p50_ms": "ms",
    "group_p50_ms": "ms",
    "clique_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
}


def run_setup(workload, reps):
    """Set up ``reps`` times; (median calibrated, median raw) seconds.

    Each set-up step is bracketed by calibration samples, so drift
    within one set-up is tracked as it is for ops.
    """
    from calib import Calibrator

    cal = Calibrator()
    calibrated, raw = [], []
    for _ in range(reps):
        total = total_raw = 0.0
        for step in workload.setup_steps():
            cal.sample()
            t0 = time.perf_counter()
            step()
            elapsed = time.perf_counter() - t0
            cal.sample()
            total_raw += elapsed
            total += elapsed * cal.factor_at(t0)
        calibrated.append(total)
        raw.append(total_raw)
    return statistics.median(calibrated), statistics.median(raw)


def traced_layers(workload, sizes, seed, work_dir, cal, tracer, serve_records):
    """Run the layer probe; returns the per-layer metrics.

    ``serve_records`` are the traced serve requests when the workload is
    the serve mix; other workloads get one probe pass of a smaller serve
    mix against a server hosting their own graphs.
    """
    import layers
    from workloads import ServeSession

    counts = layers.probe(workload.graphs(), tracer, cal, sizes.group_k)
    if serve_records:
        queue_wait = workload.session.queue_wait_p50_ms()
    else:
        paths = [p for _, p in workload.graphs()]
        session = ServeSession(
            workload.name, seed, sizes, ROOT, work_dir, paths, paths[:1],
            per_graph=(("skyline", 2), ("group", 1), ("clique", 1)),
        )
        session.verify()
        try:
            session.start()
            session.tracer = tracer
            serve_records = measure(session, cal, 1)
            queue_wait = session.queue_wait_p50_ms()
        finally:
            session.stop()
    return layers.layer_metrics(tracer, cal, counts, serve_records, queue_wait * cal.median_factor())


def main(argv=None) -> int:
    """Run, then wait for every process the run started, on every way out.

    SIGTERM becomes ``SystemExit``, so a terminated run still stops its
    server and reaps it.
    """
    import procs

    procs.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(argv)
    finally:
        procs.reap_children()


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy inputs, for the tests")
    args = parser.parse_args(argv)

    # One CPU for this process and the server it spawns: the calibration
    # kernel then measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    from calib import Calibrator
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = inputs.TINY if args.tiny else inputs.FULL
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, sizes, work_dir, ROOT)
        phase = time.perf_counter()
        setup = run_setup(workload, workload.setup_reps)
        setup_wall, phase = time.perf_counter() - phase, time.perf_counter()
        workload.verify()
        print(
            f"set-up x{workload.setup_reps} {setup_wall:.1f} s, "
            f"verification {time.perf_counter() - phase:.1f} s",
            file=sys.stderr,
        )
        gc.collect()
        gc.freeze()
        cal = Calibrator(workload.window_s)
        if args.trace:
            metrics, record, records = run_traced(workload, sizes, args, work_dir, cal, setup)
        else:
            metrics, record, records = run_plain(workload, sizes, args, cal, setup)
    except Exception as exc:
        print(f"error: {args.workload} run failed: {exc!r}", file=sys.stderr)
        return 2
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        calib_factor=cal.median_factor(),
        calibration_ms=cal.samples_ms,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_plain(workload, sizes, args, cal, setup):
    """The end-to-end run: metrics, run record and op records."""
    records = measure(workload, cal, pass_count(workload, args.seconds, sizes.min_ops))
    rss = workload.peak_rss_mb()
    values, samples = end_to_end(records, setup[0], rss)
    raw, _ = end_to_end(records, setup[1], rss, raw=True)
    samples["setup_s"] = workload.setup_reps
    print(f"{'metric':<18}{'calibrated':>14}{'raw':>14}{'samples':>9}   calib.factor {cal.median_factor():.4f}")
    for name in UNITS:
        print(f"{name:<18}{values[name]:>14.4f}{raw[name]:>14.4f}{samples.get(name, 1):>9}")
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    return metrics, {"calibrated": values, "raw": raw, "samples": samples}, records


def run_traced(workload, sizes, args, work_dir, cal, setup):
    """Half the time untraced, half traced, then the layer probe.

    The difference between the two halves' end-to-end numbers is the
    tracing overhead.  Only their medians are compared, so the halves
    are sized by ``--seconds`` alone, without the ``min_ops`` floor a
    p90 needs; that keeps a traced run well inside the time limit.
    """
    from tracing import Tracer

    half = pass_count(workload, args.seconds / 2.0, 0)
    plain = measure(workload, cal, half)
    tracer = Tracer()
    workload.tracer = tracer
    records = measure(workload, cal, half, half)
    serve_records = records if args.workload == "serve_mixed" else []
    layer = traced_layers(workload, sizes, args.seed, work_dir, cal, tracer, serve_records)
    rss = workload.peak_rss_mb()
    untraced, _ = end_to_end(plain, setup[0], rss)
    traced, _ = end_to_end(records, setup[0], rss)
    raw, _ = end_to_end(plain, setup[1], rss, raw=True)
    layer["calib.factor"] = (cal.median_factor(), "ratio")
    layer["calib.iqr_ratio"] = (cal.iqr_ratio(), "ratio")
    layer["calib.raw_latency_p50_ms"] = (raw["latency_p50_ms"], "ms")
    layer["trace.overhead_ms"] = (traced["latency_p50_ms"] - untraced["latency_p50_ms"], "ms")
    layer["trace.overhead_ops_per_s"] = (traced["ops_per_s"] - untraced["ops_per_s"], "1/s")

    stem = OUT / f"{args.workload}-seed{args.seed}"
    tracer.write_chrome_trace(f"{stem}-trace.json")
    table = tracer.self_time_table()
    Path(f"{stem}-selftime.txt").write_text(table + "\n")
    print(table)
    print(f"{'metric':<18}{'traced':>14}{'untraced':>14}{'raw':>14}   calib.factor {cal.median_factor():.4f}")
    for name in UNITS:
        print(f"{name:<18}{traced[name]:>14.4f}{untraced[name]:>14.4f}{raw[name]:>14.4f}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    record = {"per_layer": metrics, "traced": traced, "untraced": untraced, "raw_untraced": raw}
    return metrics, record, plain + records


if __name__ == "__main__":
    sys.exit(main())
