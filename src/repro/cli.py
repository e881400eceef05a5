"""Command-line interface: ``repro-sky`` / ``python -m repro``.

Subcommands mirror the paper's three workloads:

* ``datasets`` — list the registry.
* ``skyline``  — compute a neighborhood skyline with any algorithm.
* ``group``    — greedy group-centrality maximization (closeness or
  harmonic), with or without skyline pruning.
* ``clique``   — maximum clique / top-k maximum cliques, with or
  without skyline pruning.
* ``stats``    — structural statistics (degrees, triangles, clustering,
  assortativity, diameter bound).
* ``sweep``    — a datasets × algorithms × trials benchmark grid with
  optional checkpointing (``--checkpoint``) and resume (``--resume``):
  a killed sweep restarts where it left off and produces the same
  final report as an uninterrupted one.
* ``serve``    — skyline-as-a-service: an asyncio HTTP server hosting
  named graphs (each with one cached skyline) and routing
  skyline/group/clique queries through a bounded priority queue with
  per-request deadlines and 429 backpressure (see docs/serving.md).

Graphs come either from the registry (``--dataset``) or from an edge
list on disk (``--edge-list``, ``#`` comments, 0-based IDs).

Ctrl-C is handled cleanly: partial results are discarded, any
checkpoint written so far is kept, and the process exits with the
conventional code 130 — one line, no traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.centrality import base_gc, base_gh, neisky_gc, neisky_gh
from repro.clique import base_topk_mcc, mc_brb, neisky_mc, neisky_topk_mcc
from repro.core import ALGORITHMS, SkylineCounters, neighborhood_skyline
from repro.errors import ParameterError, ReproError
from repro.harness.checkpoint import CheckpointJournal
from repro.graph.adjacency import Graph
from repro.graph.io import load_graph
from repro.graph.stats import graph_stats
from repro.harness.table import format_table
from repro.workloads import load, names, spec

__all__ = ["main", "build_parser"]


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", help="named dataset from the registry"
    )
    source.add_argument(
        "--edge-list",
        help=(
            "path to a graph file: whitespace edge-list text or a "
            "binary snapshot from 'convert' (format auto-detected)"
        ),
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.dataset:
        return load(args.dataset)
    # load_graph sniffs the format: binary snapshots open via memmap,
    # anything else parses as edge-list text.
    return load_graph(args.edge_list)


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in names(tier=args.tier):
        s = spec(name)
        g = s.load()
        st = graph_stats(g)
        rows.append(
            (
                name,
                s.kind,
                s.tier,
                st.num_vertices,
                st.num_edges,
                st.max_degree,
            )
        )
    print(format_table(("name", "kind", "tier", "n", "m", "dmax"), rows))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    """Convert any loadable graph to the binary memmap format."""
    from repro.graph.binfmt import write_binary_graph

    graph = _load_graph(args)
    start = time.perf_counter()
    total = write_binary_graph(graph, args.output)
    elapsed = time.perf_counter() - start
    print(
        f"wrote {args.output}: n={graph.num_vertices} "
        f"m={graph.num_edges} ({total} bytes, {elapsed:.3f}s)"
    )
    return 0


def _cmd_skyline(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    counters = SkylineCounters() if args.stats else None
    start = time.perf_counter()
    result = neighborhood_skyline(
        graph, algorithm=args.algorithm, counters=counters
    )
    elapsed = time.perf_counter() - start
    print(
        f"{result.algorithm}: |R| = {result.size} of {graph.num_vertices} "
        f"vertices ({elapsed:.3f}s)"
    )
    if result.candidate_size is not None:
        print(f"candidate set |C| = {result.candidate_size}")
    if args.show_vertices:
        print(" ".join(map(str, result.skyline)))
    if counters is not None:
        for key, value in counters.as_dict().items():
            if value:
                print(f"  {key} = {value}")
    if args.layers:
        from repro.core.layers import layer_sets

        for depth, members in enumerate(layer_sets(graph), start=1):
            print(f"layer {depth}: {len(members)} vertices")
    if args.verify:
        from repro.core.verify import verify_skyline

        verify_skyline(graph, result)
        print("verification passed")
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    lazy = args.strategy == "lazy"
    if args.measure == "closeness":
        run = base_gc if args.no_skyline else neisky_gc
    else:
        run = base_gh if args.no_skyline else neisky_gh
    start = time.perf_counter()
    result = run(graph, args.k, strategy=args.strategy)
    elapsed = time.perf_counter() - start
    label = "Base" if args.no_skyline else "NeiSky"
    saved = (
        f", {result.evaluations_saved} saved by laziness" if lazy else ""
    )
    print(
        f"{label} group-{args.measure} k={args.k}: group = "
        f"{list(result.group)} ({elapsed:.3f}s, "
        f"{result.evaluations} gain evaluations{saved})"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graph.metrics import (
        approximate_diameter,
        average_local_clustering,
        degree_assortativity,
        global_clustering,
        triangle_count,
    )

    graph = _load_graph(args)
    stats = graph_stats(graph)
    print(f"vertices            {stats.num_vertices}")
    print(f"edges               {stats.num_edges}")
    print(f"max degree          {stats.max_degree}")
    print(f"average degree      {stats.average_degree:.2f}")
    print(f"density             {stats.density:.6f}")
    print(f"triangles           {triangle_count(graph)}")
    print(f"global clustering   {global_clustering(graph):.4f}")
    print(f"avg local clustering {average_local_clustering(graph):.4f}")
    print(f"degree assortativity {degree_assortativity(graph):.4f}")
    print(f"diameter (approx >=) {approximate_diameter(graph)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Benchmark grid over datasets × algorithms × trials, resumable.

    With ``--checkpoint``, every finished cell is journaled atomically;
    with ``--resume``, journaled cells are skipped and their recorded
    measurements are reused, so a sweep killed at cell 7 of 9 restarts
    there and the final report matches the uninterrupted run's.
    """
    if args.trials < 1:
        raise ParameterError(
            f"--trials must be a positive integer, got {args.trials}"
        )
    datasets = [s for s in (p.strip() for p in args.datasets.split(",")) if s]
    algorithms = [
        s for s in (p.strip() for p in args.algorithms.split(",")) if s
    ]
    if not datasets or not algorithms:
        raise ParameterError(
            "--datasets and --algorithms must each name at least one item"
        )
    if args.resume and not args.checkpoint:
        raise ParameterError("--resume requires --checkpoint PATH")
    journal = (
        CheckpointJournal(args.checkpoint) if args.checkpoint else None
    )

    rows = []
    resumed = 0
    for dataset in datasets:
        graph = load(dataset)
        for algorithm in algorithms:
            for trial in range(args.trials):
                cell = (
                    journal.get(dataset, algorithm, trial)
                    if journal is not None and args.resume
                    else None
                )
                if cell is not None:
                    resumed += 1
                    size = cell.get("extra", {}).get("skyline_size")
                    wall = cell.get("wall_s", 0.0)
                else:
                    start = time.perf_counter()
                    result = neighborhood_skyline(graph, algorithm=algorithm)
                    wall = time.perf_counter() - start
                    size = result.size
                    if journal is not None:
                        journal.mark_done(
                            dataset,
                            algorithm,
                            trial,
                            wall_s=wall,
                            skyline_size=size,
                        )
                rows.append((dataset, algorithm, trial, size, f"{wall:.3f}"))

    print(
        format_table(
            ("dataset", "algorithm", "trial", "|R|", "wall_s"), rows
        )
    )
    if journal is not None:
        print(f"checkpoint: {args.checkpoint} ({len(journal)} cells)")
    if args.resume:
        print(f"  resilience_resumed_cells = {resumed}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving layer until Ctrl-C/SIGTERM (or ``--max-requests``)."""
    from repro.serve import (
        GraphRegistry,
        ServeConfig,
        SupervisionConfig,
        run_server,
    )

    fault_plan = None
    if args.chaos_seed is not None:
        # Serve-level chaos (harness runs): a seeded, reproducible
        # fault plan over every hosted graph.
        from repro.harness.faults import ServeFaultPlan

        names = [spec.partition("=")[0].strip() for spec in args.graph]
        try:
            fault_plan = ServeFaultPlan.seeded(
                args.chaos_seed,
                names,
                rate=args.chaos_rate,
                kinds=tuple(args.chaos_kinds.split(",")),
                hang_seconds=args.chaos_hang_s,
            )
        except ValueError as exc:
            # A typo'd --chaos-kinds/--chaos-rate is a bad flag, not a
            # crash: surface it as the conventional `error: ...` exit.
            raise ParameterError(str(exc)) from exc
    registry = GraphRegistry()
    try:
        for spec_string in args.graph:
            entry = registry.register_spec(spec_string)
            print(
                f"hosting {entry.name}: n={entry.graph.num_vertices} "
                f"m={entry.graph.num_edges} ({entry.source})"
            )
        config = ServeConfig(
            host=args.host,
            port=args.port,
            queue_capacity=args.queue_capacity,
            default_timeout_s=args.request_timeout,
            max_requests=args.max_requests,
            supervision=SupervisionConfig(
                query_deadline_s=args.query_deadline,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown_s=args.breaker_cooldown,
                degraded_cache=not args.no_degraded_cache,
            ),
        )

        def announce(server):
            print(
                f"serving on http://{args.host}:{server.port} "
                f"(queue={config.queue_capacity})",
                flush=True,
            )

        return run_server(
            registry, config, announce=announce, fault_plan=fault_plan
        )
    finally:
        registry.close()


def _cmd_clique(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    start = time.perf_counter()
    if args.top_k == 1:
        cliques = [mc_brb(graph) if args.no_skyline else neisky_mc(graph)]
    elif args.no_skyline:
        cliques = base_topk_mcc(graph, args.top_k)
    else:
        cliques = neisky_topk_mcc(graph, args.top_k)
    elapsed = time.perf_counter() - start
    label = "Base" if args.no_skyline else "NeiSky"
    print(f"{label} top-{args.top_k} maximum cliques ({elapsed:.3f}s):")
    for i, clique in enumerate(cliques, start=1):
        print(f"  #{i} size {len(clique)}: {clique}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-sky`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sky",
        description=(
            "Neighborhood skyline on graphs (ICDE 2023 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ds = sub.add_parser("datasets", help="list registered datasets")
    p_ds.add_argument(
        "--tier",
        default="standard",
        choices=("standard", "large", "all"),
        help=(
            "which registry tier to list; 'large' materializes the "
            "million-edge benchmark graphs (default: standard)"
        ),
    )

    p_cnv = sub.add_parser(
        "convert",
        help="convert a graph to the binary memmap format (no-parse loads)",
    )
    _add_graph_arguments(p_cnv)
    p_cnv.add_argument(
        "--output",
        required=True,
        metavar="PATH",
        help="destination binary file (conventionally *.rsky)",
    )

    p_sky = sub.add_parser("skyline", help="compute a neighborhood skyline")
    _add_graph_arguments(p_sky)
    p_sky.add_argument(
        "--algorithm",
        default="auto",
        metavar="NAME",
        # Validated by neighborhood_skyline (ParameterError → exit 2) so
        # the message lists the registry instead of argparse's usage dump.
        help=(
            "skyline algorithm (default: auto, FilterRefineSky with the "
            "block refine kernel); one of "
            + ", ".join(sorted(ALGORITHMS))
        ),
    )
    p_sky.add_argument(
        "--stats", action="store_true", help="print work counters"
    )
    p_sky.add_argument(
        "--show-vertices",
        action="store_true",
        help="print the skyline vertex ids",
    )
    p_sky.add_argument(
        "--layers",
        action="store_true",
        help="also print the dominance-layer decomposition sizes",
    )
    p_sky.add_argument(
        "--verify",
        action="store_true",
        help="independently verify the result (slow on large graphs)",
    )

    p_grp = sub.add_parser(
        "group", help="greedy group-centrality maximization"
    )
    _add_graph_arguments(p_grp)
    p_grp.add_argument(
        "--measure",
        default="closeness",
        choices=("closeness", "harmonic"),
    )
    p_grp.add_argument("--k", type=int, default=10, help="group size")
    p_grp.add_argument(
        "--no-skyline",
        action="store_true",
        help="disable skyline pruning (Base* variant)",
    )
    p_grp.add_argument(
        "--strategy",
        default="lazy",
        choices=("eager", "lazy"),
        help=(
            "greedy schedule: lazy (CELF, the default) returns the "
            "identical group with far fewer gain evaluations; eager "
            "re-evaluates every candidate each round (the paper's "
            "evaluation counts)"
        ),
    )

    p_stats = sub.add_parser(
        "stats", help="structural statistics of a graph"
    )
    _add_graph_arguments(p_stats)

    p_swp = sub.add_parser(
        "sweep",
        help="resumable datasets x algorithms x trials benchmark grid",
    )
    p_swp.add_argument(
        "--datasets",
        required=True,
        metavar="A,B,...",
        help="comma-separated registry dataset names",
    )
    p_swp.add_argument(
        "--algorithms",
        default="filter_refine",
        metavar="A,B,...",
        help=(
            "comma-separated skyline algorithms (default: filter_refine)"
        ),
    )
    p_swp.add_argument(
        "--trials", type=int, default=1, help="trials per cell"
    )
    p_swp.add_argument(
        "--checkpoint",
        metavar="PATH",
        help=(
            "journal completed (dataset, algorithm, trial) cells into "
            "this JSON file, atomically, as they finish"
        ),
    )
    p_swp.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip cells already in --checkpoint and reuse their "
            "recorded measurements"
        ),
    )

    p_srv = sub.add_parser(
        "serve",
        help="skyline-as-a-service HTTP server (see docs/serving.md)",
    )
    p_srv.add_argument(
        "--graph",
        action="append",
        required=True,
        metavar="NAME|ALIAS=PATH",
        help=(
            "graph to host (repeatable): a registry dataset name, or "
            "alias=path for an edge-list file"
        ),
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (0 picks an ephemeral one, printed at startup)",
    )
    p_srv.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        metavar="N",
        help=(
            "bounded request-queue depth; a full queue rejects with "
            "429 instead of growing (default: 64)"
        ),
    )
    p_srv.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "default per-request queue-wait deadline; expired requests "
            "get 504 and never reach an engine (default: 30)"
        ),
    )
    p_srv.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="serve N queries then exit cleanly (smoke tests)",
    )
    # -- self-healing policy (PR 9) -----------------------------------
    p_srv.add_argument(
        "--query-deadline",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "per-query engine deadline: a query still running stops "
            "at its next checkpoint and is answered 503, with no "
            "retry and its cached skyline kept (default: 60)"
        ),
    )
    p_srv.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help=(
            "consecutive engine failures on one graph that open its "
            "circuit breaker (default: 3)"
        ),
    )
    p_srv.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help=(
            "seconds an open breaker waits before admitting a "
            "half-open probe query (default: 1)"
        ),
    )
    p_srv.add_argument(
        "--no-degraded-cache",
        action="store_true",
        help=(
            "disable degraded serving: an open breaker answers 503 "
            "for every kind instead of serving the cached last-known-"
            "good skyline marked degraded"
        ),
    )
    # -- chaos harness (fault injection into the live server) ----------
    p_srv.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "inject a seeded ServeFaultPlan into the engine thread "
            "(harness runs only; default: no faults)"
        ),
    )
    p_srv.add_argument(
        "--chaos-rate",
        type=float,
        default=0.15,
        metavar="P",
        help="per-dispatch fault probability under --chaos-seed",
    )
    p_srv.add_argument(
        "--chaos-kinds",
        default="engine-exception,session-poison,slow",
        metavar="K1,K2,...",
        help="comma-separated serve fault kinds under --chaos-seed",
    )
    p_srv.add_argument(
        "--chaos-hang-s",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="injected hang duration when 'hang' is among --chaos-kinds",
    )

    p_clq = sub.add_parser("clique", help="maximum clique search")
    _add_graph_arguments(p_clq)
    p_clq.add_argument(
        "--top-k", type=int, default=1, help="number of cliques"
    )
    p_clq.add_argument(
        "--no-skyline",
        action="store_true",
        help="disable skyline pruning (Base* variant)",
    )
    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "convert": _cmd_convert,
    "skyline": _cmd_skyline,
    "group": _cmd_group,
    "clique": _cmd_clique,
    "stats": _cmd_stats,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # One line, no traceback, conventional 128+SIGINT code.
        print(
            "interrupted: partial results discarded; checkpoint (if "
            "any) kept — rerun with --resume",
            file=sys.stderr,
        )
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
