"""Command-line interface: quick demos and instance solving.

Usage (also via ``python -m repro``)::

    python -m repro info                      # paper + library summary
    python -m repro solve --family cycle --n 24 --alphabet 3
    python -m repro solve --family triples --n 18 --alphabet 5 --distributed
    python -m repro solve --family triples --n 18 --scheduler process
    python -m repro solve --family triples --n 18 --scheduler process \\
        --faults seed=7,crash=0.3,deadline=1   # fault-injected, same answer
    python -m repro solve --family triples --n 18 --obs-trace run.jsonl
    python -m repro solve --family triples --n 18 --decide scalar \\
        --engine naive --graph reference     # pin the oracle backends
    python -m repro plan --family triples --n 18  # inspect the fix plan
    python -m repro stats run.jsonl           # span/counter/histogram summary
    python -m repro stats run.jsonl --json    # machine-readable summary
    python -m repro stats live.jsonl --follow # tail a running trace
    python -m repro profile run.jsonl         # flamegraph-ready hot stacks
    python -m repro bench compare --results-dir /tmp/fresh  # perf gate
    python -m repro trace run.jsonl --component fixer.rank3
    python -m repro threshold --n 32          # the phase-shift demo
    python -m repro logstar 1000000           # evaluate log*

The CLI intentionally exposes only the curated workload families of
:mod:`repro.generators`; programmatic users should build instances
directly against the library API.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis import format_table, log_star
from repro.core import solve, solve_distributed, solve_distributed_local
from repro.errors import CriterionViolationError, ReproError
from repro.generators import build_family_instance, random_regular_graph
from repro.lll import verify_solution
from repro.planes import PLANE_TABLE, planes, set_planes
from repro.runtime.schedulers import SCHEDULER_NAMES

FAMILIES = ("cycle", "regular", "torus", "triples")


def _apply_backend_args(args) -> None:
    """Install the ``--engine``/``--graph``/``--decide``/``--artifacts``
    selections into the plane config; a flag that was not given leaves
    the ambient environment selection untouched."""
    given = {
        field: getattr(args, field)
        for field, _env, _fast, _oracle in PLANE_TABLE
        if getattr(args, field, None)
    }
    set_planes(**given)


def _build_instance(args):
    return build_family_instance(
        args.family,
        args.n,
        alphabet=args.alphabet,
        degree=args.degree,
        seed=args.seed,
    )


def _command_info(args) -> int:
    print(f"repro {__version__}")
    print(
        "Reproduction of Brandt, Maus & Uitto, 'A Sharp Threshold "
        "Phenomenon for the\nDistributed Complexity of the Lovász Local "
        "Lemma' (PODC 2019)."
    )
    print()
    rows = [
        {"claim": "Theorem 1.1 (rank 2)", "api": "repro.core.solve_rank2"},
        {"claim": "Theorem 1.3 (rank 3)", "api": "repro.core.solve_rank3"},
        {"claim": "Corollary 1.2/1.4", "api": "repro.core.solve_distributed"},
        {
            "claim": "message-level protocol",
            "api": "repro.core.solve_distributed_local",
        },
        {
            "claim": "naive rank-r (Sec. 1)",
            "api": "repro.core.solve_naive",
        },
        {"claim": "Moser-Tardos baselines", "api": "repro.baselines"},
        {"claim": "applications", "api": "repro.applications"},
    ]
    print(format_table(rows))
    if getattr(args, "landscape", False):
        from repro.analysis import landscape_rows

        print()
        print(
            format_table(
                landscape_rows(),
                title="The distributed-LLL complexity landscape "
                "(as surveyed by the paper)",
            )
        )
    return 0


def _command_solve(args) -> int:
    if getattr(args, "obs_trace", None):
        from repro.obs import recording

        with recording(path=args.obs_trace):
            code = _solve_impl(args)
        print(f"observability trace written to {args.obs_trace}")
        return code
    return _solve_impl(args)


def _fault_plan_for(args):
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.faults import parse_fault_spec

    return parse_fault_spec(spec)


def _make_scheduler(args, fault_plan=None):
    name = getattr(args, "scheduler", None)
    if name is None:
        return None
    from repro.runtime import make_scheduler

    if name == "process":
        # Worker count and IPC mode resolve *here*, at construction, so
        # the run header can echo the exact backend configuration.
        kwargs = {}
        if fault_plan is not None:
            kwargs["fault_plan"] = fault_plan
        if getattr(args, "workers", None):
            kwargs["max_workers"] = args.workers
        return make_scheduler(name, **kwargs)
    return make_scheduler(name)


def _solve_impl(args) -> int:
    _apply_backend_args(args)
    instance = _build_instance(args)
    summary = instance.summary()
    print(
        f"instance: {summary['num_events']} events, "
        f"{summary['num_variables']} variables, rank {summary['rank']}, "
        f"p = {summary['p']:.6g}, d = {summary['d']}, "
        f"p*2^d = {summary['p_times_2^d']:.4g}"
    )
    fault_plan = _fault_plan_for(args)
    scheduler = _make_scheduler(args, fault_plan)
    if scheduler is not None:
        print(f"scheduler: {scheduler.describe()}")
    if scheduler is not None and args.protocol:
        raise ReproError(
            "--scheduler applies to the scheduled paths; the message-level "
            "protocol (--protocol) executes its own schedule"
        )
    if fault_plan is not None and not args.protocol and (
        getattr(args, "scheduler", None) != "process"
    ):
        raise ReproError(
            "--faults injects worker faults into the process scheduler or "
            "message faults into the protocol simulation; combine it with "
            "--scheduler process or --protocol"
        )
    if fault_plan is not None:
        print(f"fault plan: {fault_plan.describe()}")
    try:
        if args.protocol:
            result = solve_distributed_local(instance, fault_plan=fault_plan)
        elif args.distributed:
            result = solve_distributed(instance, scheduler=scheduler)
        else:
            result = solve(instance, scheduler=scheduler)
    except CriterionViolationError as error:
        print(f"REJECTED: {error}")
        return 1
    if args.distributed or args.protocol:
        print(
            f"solved in {result.total_rounds} LOCAL rounds "
            f"({result.coloring_rounds} coloring + "
            f"{result.schedule_rounds} schedule)"
        )
        assignment = result.assignment
    else:
        print(f"solved sequentially in {result.num_steps} fixing steps")
        assignment = result.assignment
    ok = verify_solution(instance, assignment).ok
    print(f"verification: {'all bad events avoided' if ok else 'FAILED'}")
    return 0 if ok else 2


def _command_serve(args) -> int:
    import asyncio

    from repro.serve import ServeConfig, run_server

    _apply_backend_args(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        scheduler=args.scheduler,
        workers=args.workers,
        max_inflight=args.max_inflight,
        deadline_s=args.deadline,
    )
    if getattr(args, "obs_trace", None):
        from repro.obs import recording

        with recording(path=args.obs_trace):
            asyncio.run(run_server(config))
        print(f"observability trace written to {args.obs_trace}")
        return 0
    asyncio.run(run_server(config))
    return 0


def _command_plan(args) -> int:
    from repro.runtime import plan_for_instance

    _apply_backend_args(args)
    instance = _build_instance(args)
    plan = plan_for_instance(instance)
    print(
        f"plan: kind={plan.kind}, palette={plan.palette}, "
        f"coloring_rounds={plan.coloring_rounds}, "
        f"local_rounds={plan.local_rounds}"
    )
    print(
        f"classes: {plan.num_classes} "
        f"({plan.num_cells} cells, {plan.num_ops} ops)"
    )
    rows = [
        {
            "class": color_class.color,
            "cells": len(color_class.cells),
            "ops": color_class.num_ops,
            "span": color_class.span,
        }
        for color_class in plan.classes
    ]
    print(format_table(rows, title="color classes"))
    print(f"critical path: {plan.critical_path} fixings")
    return 0


def _command_threshold(args) -> int:
    if getattr(args, "obs_trace", None):
        from repro.obs import recording

        with recording(path=args.obs_trace):
            code = _threshold_impl(args)
        print(f"observability trace written to {args.obs_trace}")
        return code
    return _threshold_impl(args)


def _threshold_impl(args) -> int:
    from repro.applications import (
        relaxed_sinkless_instance,
        sinkless_orientation_instance,
    )
    from repro.baselines import distributed_moser_tardos

    graph = random_regular_graph(args.n, 3, seed=args.seed)
    at = sinkless_orientation_instance(graph)
    print(f"AT the threshold (sinkless orientation, p = 2^-3):")
    try:
        solve(at)
        print("  unexpectedly accepted?!")
    except CriterionViolationError:
        print("  deterministic fixer: rejected (as the paper proves)")
    mt = distributed_moser_tardos(at, seed=args.seed)
    print(f"  distributed Moser-Tardos: {mt.rounds} rounds")
    below = relaxed_sinkless_instance(graph, labels=3)
    result = solve_distributed(below)
    print(f"BELOW the threshold (3 labels, p = 3^-3):")
    print(f"  deterministic: {result.total_rounds} LOCAL rounds")
    return 0


def _command_logstar(args) -> int:
    print(log_star(args.value))
    return 0


def _command_report(args) -> int:
    from repro.analysis import load_results, render_report

    artifacts = load_results(args.results_dir)
    print(render_report(artifacts, args.experiments or None))
    return 0


def _command_stats(args) -> int:
    import json as _json

    from repro.obs import (
        follow_trace,
        render_summary,
        summarize_trace,
        summarize_trace_file,
        summary_to_dict,
    )

    if args.follow:
        # Tail the live trace: print each snapshot as it lands, then the
        # full summary once every started run has ended.
        events = []
        for event in follow_trace(
            args.trace, idle_timeout=args.idle_timeout
        ):
            events.append(event)
            if event.get("event") == "snapshot" and not args.json:
                payload = event.get("payload") or {}
                live = {
                    **(payload.get("counters") or {}),
                    **(payload.get("gauges") or {}),
                }
                print(
                    f"snapshot @{event.get('ts_ns', 0) / 1e9:.3f}s "
                    + " ".join(
                        f"{key}={value}"
                        for key, value in sorted(live.items())
                    )
                )
        summary = summarize_trace(events)
    else:
        # Streaming single pass: multi-GB traces never materialize.
        summary = summarize_trace_file(
            args.trace, validate=not args.no_validate
        )
    if args.json:
        print(_json.dumps(summary_to_dict(summary), indent=2, default=repr))
    else:
        print(render_summary(summary))
    return 0


def _command_profile(args) -> int:
    from repro.obs import (
        collect_profiles,
        iter_trace,
        render_collapsed,
        render_profile_report,
    )

    stacks = collect_profiles(
        iter_trace(args.trace), component=args.component
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_collapsed(stacks) + "\n")
        print(f"wrote {len(stacks)} collapsed stacks to {args.out}")
        return 0
    print(render_profile_report(stacks, top=args.top))
    return 0


def _command_bench(args) -> int:
    if args.bench_command == "compare":
        from repro.analysis import compare_results

        kwargs = {}
        if args.tolerance is not None:
            kwargs["tolerance"] = args.tolerance
        report = compare_results(
            candidate_dir=args.results_dir,
            baseline_dir=args.baseline_dir,
            experiments=args.experiments or None,
            **kwargs,
        )
        print(report.render(verbose=args.verbose))
        return 0 if report.ok else 3
    raise ReproError(f"unknown bench subcommand {args.bench_command!r}")


def _command_cache(args) -> int:
    from repro.artifacts import STORE

    if args.cache_command == "stats":
        print(f"artifact cache: mode={planes().artifacts}")
        stats = STORE.stats()
        for name in sorted(stats):
            tier = stats[name]
            print(
                f"  {name:<12} size={tier['size']}/{tier['capacity']}"
                f"  hits={tier['hits']}  misses={tier['misses']}"
                f"  evictions={tier['evictions']}"
            )
        totals = STORE.totals()
        print(
            f"  {'total':<12} size={totals['size']}"
            f"  hits={totals['hits']}  misses={totals['misses']}"
            f"  evictions={totals['evictions']}"
        )
        return 0
    if args.cache_command == "clear":
        cleared = STORE.totals()["size"]
        STORE.clear()
        print(f"cleared {cleared} cached artifacts")
        return 0
    raise ReproError(f"unknown cache subcommand {args.cache_command!r}")


def _command_trace(args) -> int:
    from repro.obs import check_events, read_trace, render_trace

    events = read_trace(args.trace)
    if args.check:
        count = check_events(events)
        print(f"schema OK: {count} events")
        return 0
    print(
        render_trace(
            events,
            component=args.component,
            kind=args.event,
            limit=args.limit,
        )
    )
    return 0


def _command_surface(args) -> int:
    from repro.analysis import render_surface_ascii, surface_to_csv

    if args.csv:
        count = surface_to_csv(args.csv, resolution=args.resolution)
        print(f"wrote {count} samples of f(a, b) to {args.csv}")
    else:
        print(render_surface_ascii(width=args.width, height=args.height))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic distributed LLL below the exponential "
        "threshold (Brandt-Maus-Uitto, PODC 2019).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info_parser = commands.add_parser(
        "info", help="library and paper summary"
    )
    info_parser.add_argument(
        "--landscape", action="store_true",
        help="also print the complexity-landscape survey",
    )

    def add_instance_arguments(subparser) -> None:
        subparser.add_argument(
            "--family", choices=FAMILIES, default="cycle",
            help="workload family",
        )
        subparser.add_argument("--n", type=int, default=24, help="size")
        subparser.add_argument(
            "--alphabet", type=int, default=3, help="values per variable"
        )
        subparser.add_argument(
            "--degree", type=int, default=4, help="degree (regular family)"
        )
        subparser.add_argument("--seed", type=int, default=0)

    def add_backend_arguments(subparser) -> None:
        for field, env, fast, oracle in PLANE_TABLE:
            subparser.add_argument(
                f"--{field}", choices=(fast, oracle), default=None,
                help=f"{field} plane: {fast} or the {oracle} oracle "
                f"(default: {env}, else {fast})",
            )

    solve_parser = commands.add_parser(
        "solve", help="solve a generated workload"
    )
    add_instance_arguments(solve_parser)
    add_backend_arguments(solve_parser)
    solve_parser.add_argument(
        "--distributed", action="store_true",
        help="run the scheduled distributed algorithm",
    )
    solve_parser.add_argument(
        "--protocol", action="store_true",
        help="run the message-level LOCAL protocol",
    )
    solve_parser.add_argument(
        "--scheduler", choices=SCHEDULER_NAMES, default=None,
        help="execution-plane backend for the fix plan "
        "(default: plain serial execution)",
    )
    solve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker-process count for --scheduler process "
        "(default: the CPU count)",
    )
    solve_parser.add_argument(
        "--obs-trace", metavar="PATH",
        help="record a structured JSONL observability trace to PATH",
    )
    solve_parser.add_argument(
        "--faults", metavar="SPEC",
        help="inject deterministic faults (e.g. "
        "'seed=7,crash=0.3,hang@2,drop=0.05,deadline=1'); worker faults "
        "need --scheduler process, message faults need --protocol",
    )

    plan_parser = commands.add_parser(
        "plan",
        help="print the color-class fix plan of a generated workload",
    )
    add_instance_arguments(plan_parser)
    add_backend_arguments(plan_parser)

    serve_parser = commands.add_parser(
        "serve",
        help="run the persistent HTTP solve service (LLL-as-a-service)",
    )
    add_backend_arguments(serve_parser)
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8787,
        help="bind port (0 picks a free one, announced on stdout)",
    )
    serve_parser.add_argument(
        "--scheduler", choices=SCHEDULER_NAMES, default="serial",
        help="execution backend kept warm across requests "
        "(default: serial)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker-process count for --scheduler process "
        "(default: the CPU count)",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admission bound on queued + running requests "
        "(excess gets a typed 429)",
    )
    serve_parser.add_argument(
        "--deadline", type=float, default=60.0, metavar="SECONDS",
        help="default per-request deadline (requests may name their "
        "own via 'deadline_s')",
    )
    serve_parser.add_argument(
        "--obs-trace", metavar="PATH",
        help="record a structured JSONL observability trace to PATH "
        "(request latency quantiles, cache hit-rate gauges)",
    )

    threshold_parser = commands.add_parser(
        "threshold", help="demonstrate the phase shift"
    )
    threshold_parser.add_argument("--n", type=int, default=24)
    threshold_parser.add_argument("--seed", type=int, default=0)
    threshold_parser.add_argument(
        "--obs-trace", metavar="PATH",
        help="record a structured JSONL observability trace to PATH",
    )

    stats_parser = commands.add_parser(
        "stats", help="summarize a JSONL observability trace"
    )
    stats_parser.add_argument("trace", help="path to a .jsonl trace file")
    stats_parser.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation before summarizing",
    )
    stats_parser.add_argument(
        "--json", action="store_true",
        help="emit the summary as one machine-readable JSON object",
    )
    stats_parser.add_argument(
        "--follow", action="store_true",
        help="tail a live trace: print snapshots as they arrive, then "
        "the summary when the run ends",
    )
    stats_parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="with --follow, stop after this long without new events",
    )

    profile_parser = commands.add_parser(
        "profile",
        help="render the collapsed-stack profile events of a trace "
        "(record them with REPRO_PROFILE=sample|cprofile)",
    )
    profile_parser.add_argument(
        "trace", help="path to a .jsonl trace file"
    )
    profile_parser.add_argument(
        "--component", help="only profile events of this component"
    )
    profile_parser.add_argument(
        "--out", metavar="PATH",
        help="write a flamegraph-ready .folded file instead of a report",
    )
    profile_parser.add_argument(
        "--top", type=int, default=25,
        help="rows per report section (default 25)",
    )

    bench_parser = commands.add_parser(
        "bench", help="benchmark artifact tooling"
    )
    bench_commands = bench_parser.add_subparsers(
        dest="bench_command", required=True
    )
    compare_parser = bench_commands.add_parser(
        "compare",
        help="gate a fresh benchmark run against committed baselines",
    )
    compare_parser.add_argument(
        "--results-dir", required=True,
        help="directory of freshly produced <ID>.json artifacts",
    )
    compare_parser.add_argument(
        "--baseline-dir", default="benchmarks/results",
        help="directory of committed baseline artifacts",
    )
    compare_parser.add_argument(
        "--experiments", nargs="*",
        help="restrict the gate to these experiment ids",
    )
    compare_parser.add_argument(
        "--tolerance", type=float, default=None,
        help="relative tolerance band for speedup/overhead ratios",
    )
    compare_parser.add_argument(
        "--verbose", action="store_true",
        help="also list every passing metric",
    )

    cache_parser = commands.add_parser(
        "cache", help="inspect or clear the artifact cache"
    )
    cache_commands = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    cache_commands.add_parser(
        "stats", help="per-tier sizes, hits, misses and evictions"
    )
    cache_commands.add_parser(
        "clear", help="drop every cached artifact and reset counters"
    )

    trace_parser = commands.add_parser(
        "trace", help="list the events of a JSONL observability trace"
    )
    trace_parser.add_argument("trace", help="path to a .jsonl trace file")
    trace_parser.add_argument(
        "--component", help="only events of this component"
    )
    trace_parser.add_argument("--event", help="only events of this kind")
    trace_parser.add_argument(
        "--limit", type=int, help="show only the last N matching events"
    )
    trace_parser.add_argument(
        "--check", action="store_true",
        help="validate the schema and print a verdict instead of events",
    )

    logstar_parser = commands.add_parser(
        "logstar", help="evaluate log*(value)"
    )
    logstar_parser.add_argument("value", type=float)

    report_parser = commands.add_parser(
        "report", help="render the benchmark artifacts as one report"
    )
    report_parser.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory of <ID>.json artifacts",
    )
    report_parser.add_argument(
        "--experiments", nargs="*",
        help="restrict to these experiment ids",
    )

    surface_parser = commands.add_parser(
        "surface", help="render or export the Figure-1 surface f(a, b)"
    )
    surface_parser.add_argument(
        "--csv", help="write samples to this CSV file instead of rendering"
    )
    surface_parser.add_argument("--resolution", type=int, default=40)
    surface_parser.add_argument("--width", type=int, default=48)
    surface_parser.add_argument("--height", type=int, default=24)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": _command_info,
        "solve": _command_solve,
        "plan": _command_plan,
        "serve": _command_serve,
        "threshold": _command_threshold,
        "logstar": _command_logstar,
        "report": _command_report,
        "surface": _command_surface,
        "stats": _command_stats,
        "trace": _command_trace,
        "profile": _command_profile,
        "bench": _command_bench,
        "cache": _command_cache,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
