"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``census``
    Print the PAX/CASPER enablement-mapping census (T1).
``leftover N P``
    Final-wave arithmetic for N computations on P processors (T2).
``simulate``
    Run a built-in workload on the simulated executive and report
    makespan/utilization (optionally an ASCII Gantt chart).
``stats``
    Run a built-in workload with full telemetry and print the overlap
    admission decisions, per-processor rundown idle attribution, and the
    complete metrics snapshot.
``export-trace FILE``
    Convert a saved run (``simulate --save``) or a spans JSONL file to a
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) or
    a spans JSONL.  Streams events — peak memory stays O(1) in the trace
    size.
``profile FILE``
    Critical-path / idle-waterfall analysis of a saved run: busy time by
    category, idle time attributed to retry backoff, watchdog stalls,
    barrier (rundown) waits and startup, per phase and per processor
    (text or JSON).
``sweep WORKLOAD``
    Run a replication fan of a workload across host processes
    (``repro.sweep``): deterministic per-replication seeds, canonical
    JSON report, aggregate statistics.
``compile FILE``
    Verify and compile a PAX-language source file; print the resolved
    schedule and enablement links, optionally simulate it.
``lint FILE...``
    Run the overlap-safety analyzer (``repro.lint``) over PAX sources;
    text, JSON or SARIF findings, CI-friendly exit codes (``--fail-on``,
    ``--strict``), per-rule suppression/selection (``--disable``,
    ``--select``), a built-in ``--self-check`` corpus, and trace
    validation of a saved run against its source (``--check-run``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis import leftover_wave
from repro.core.classifier import classify_program
from repro.core.overlap import OverlapConfig
from repro.executive import ExecutiveCosts, Extensions, TaskSizer, run_program
from repro.lang import LangError, compile_program
from repro.metrics import census_table, render_gantt, rundown_reports
from repro.sim.machine import ExecutivePlacement

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Jones (1986): parallel computation rundown",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("census", help="print the PAX/CASPER mapping census")

    p_left = sub.add_parser("leftover", help="final-wave idle arithmetic")
    p_left.add_argument("computations", type=int)
    p_left.add_argument("processors", type=int)

    p_sim = sub.add_parser("simulate", help="run a built-in workload")
    _add_run_options(p_sim)
    p_sim.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p_sim.add_argument("--gantt-width", type=int, default=100)
    p_sim.add_argument("--save", metavar="FILE", help="write the run (summary + trace) to JSON")
    p_sim.add_argument(
        "--sanitize",
        action="store_true",
        help="replay the executed trace through the rundown sanitizer "
        "(repro.lint.sanitizer) and fail on ordering violations",
    )

    p_stats = sub.add_parser(
        "stats", help="run a workload with telemetry; print the metrics snapshot"
    )
    _add_run_options(p_stats, workload_optional=True)
    p_stats.add_argument("--save", metavar="FILE", help="write the run (summary + trace) to JSON")
    p_stats.add_argument(
        "--sweep",
        metavar="FILE",
        help="aggregate a sweep report (written by `repro sweep -o`) instead of running",
    )
    p_stats.add_argument(
        "--prom",
        metavar="FILE",
        help="also write the metrics snapshot in Prometheus text format",
    )
    p_stats.add_argument(
        "--metrics-jsonl",
        metavar="FILE",
        help="also append the metrics snapshot as one JSON line (tailable series)",
    )

    p_sweep = sub.add_parser(
        "sweep", help="run a replication fan of a workload across host processes"
    )
    p_sweep.add_argument("workload", choices=_workload_choices())
    p_sweep.add_argument("--replications", type=int, default=4, help="independent runs")
    p_sweep.add_argument("--seed", type=int, default=0, help="sweep-level master seed")
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="host processes (1 = run inline, serially)"
    )
    p_sweep.add_argument(
        "--sim-workers", type=int, default=8, help="simulated worker processors per run"
    )
    p_sweep.add_argument(
        "--streams", type=int, default=1, help="independent job streams per replication"
    )
    p_sweep.add_argument("--barrier", action="store_true", help="strict phase barriers")
    p_sweep.add_argument("--tasks-per-processor", type=float, default=2.0)
    p_sweep.add_argument(
        "--param",
        dest="params",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="workload factory argument (repeatable; value parsed as JSON when possible)",
    )
    grid = p_sweep.add_argument_group("parameter grids")
    grid.add_argument(
        "--grid",
        dest="grid_axes",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        help="sweep AXIS over the listed values (repeatable; the grid is the "
        "cartesian product of all --grid axes, each point replicated "
        "--replications times).  Axes: sweep fields (sim_workers, streams, "
        "tasks_per_processor, barrier, workload), control strategy (overlap, "
        "split, target_fraction, group_size, elevate), faults (fault_seed, "
        "transient_p), or any workload parameter",
    )
    grid.add_argument(
        "--share-maps",
        action="store_true",
        help="materialize the workload's selection maps once and share them "
        "with every grid cell through shared memory (zero-copy data plane; "
        "pool workers receive O(1)-size descriptors instead of the arrays)",
    )
    p_sweep.add_argument("-o", "--output", metavar="FILE", help="write the JSON report")
    p_sweep.add_argument(
        "--manifest",
        metavar="FILE",
        help="journal per-replication completion to a resumable JSONL manifest",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip replications already recorded in --manifest",
    )
    p_sweep.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        help="pool rebuilds tolerated after worker death (default: 2)",
    )
    p_sweep.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="replications (or grid cells) dispatched per pool task; default "
        "adapts from a calibration pass targeting 0.1-0.5s per task.  The "
        "canonical report is byte-identical at any batch size",
    )
    p_sweep.add_argument(
        "--cold-pool",
        action="store_true",
        help="use a throwaway process pool instead of the process-wide warm "
        "pool (workers are spawned fresh and torn down; for measuring "
        "warmup cost or isolating worker state)",
    )
    p_sweep.add_argument(
        "--kill-replication",
        dest="kill_replications",
        type=int,
        action="append",
        default=[],
        metavar="R",
        help="fault injection: kill the host worker running replication R "
        "(or grid cell R) on its first attempt (repeatable; for testing "
        "crash-safety)",
    )
    p_sweep.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the injected fault plan"
    )
    sup = p_sweep.add_argument_group("supervision & chaos")
    sup.add_argument(
        "--supervise",
        action="store_true",
        help="arm the pool supervisor: cost-model-derived per-task deadlines, "
        "worker heartbeat probes, preemptive rebuild of hung workers, and "
        "the warm → cold → narrow → serial degradation ladder when the "
        "restart budget runs out.  Implied by any flag in this group",
    )
    sup.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="explicit per-task deadline (overrides the cost-model derivation)",
    )
    sup.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="preempt a pool worker whose liveness stamp is older than this "
        "(default 30s when supervised; detects frozen processes before "
        "their task deadline)",
    )
    sup.add_argument(
        "--hang-replication",
        dest="hang_replications",
        type=int,
        action="append",
        default=[],
        metavar="R",
        help="fault injection: hang the host worker running replication R "
        "(or grid cell R) forever on its first attempt (repeatable; "
        "requires supervision to recover, which this flag arms)",
    )
    sup.add_argument(
        "--slow-replication",
        dest="slow_replications",
        action="append",
        default=[],
        metavar="R:SECONDS",
        help="fault injection: delay replication R (or grid cell R) by "
        "SECONDS on its first attempt (repeatable)",
    )
    sup.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="deterministic chaos harness: derive a randomized mix of worker "
        "kills, hangs and slowdowns over all replications (or grid cells) "
        "from SEED (env REPRO_CHAOS_SEED).  The report must stay "
        "byte-identical to the no-chaos run — that is the point",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream throughput/ETA progress lines to stderr as tasks land "
        "(supervised runs also surface stalls and ladder transitions)",
    )
    p_sweep.add_argument(
        "--profile",
        nargs="?",
        const=True,
        default=None,
        metavar="FILE",
        help="attribute pool wall time (warmup / serialization / queue wait / "
        "compute) and write a ProfileReport JSON alongside the canonical "
        "report (default: <output stem>.profile.json)",
    )

    p_export = sub.add_parser(
        "export-trace", help="convert a saved run to a Chrome trace / spans JSONL"
    )
    p_export.add_argument("file", help="JSON written by `simulate --save` (or save_trace)")
    p_export.add_argument(
        "--format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="chrome trace-event JSON (Perfetto-loadable) or spans JSONL",
    )
    p_export.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="output path (default: input stem + .trace.json / .spans.jsonl)",
    )

    p_prof = sub.add_parser(
        "profile", help="idle waterfall / critical path of a saved run"
    )
    p_prof.add_argument("file", help="JSON written by `simulate --save` (or save_trace)")
    p_prof.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_prof.add_argument(
        "-o", "--output", metavar="FILE", help="also write the JSON report to FILE"
    )

    p_gantt = sub.add_parser("gantt", help="render a saved trace as an ASCII Gantt chart")
    p_gantt.add_argument("file", help="JSON written by `simulate --save` (or save_trace)")
    p_gantt.add_argument("--width", type=int, default=100)
    p_gantt.add_argument("--from", dest="t0", type=float, default=None)
    p_gantt.add_argument("--to", dest="t1", type=float, default=None)

    p_comp = sub.add_parser("compile", help="verify/compile a PAX source file")
    p_comp.add_argument("file")
    p_comp.add_argument(
        "--set",
        dest="bindings",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="bind a branch-condition variable",
    )
    p_comp.add_argument("--run", action="store_true", help="also simulate the program")
    p_comp.add_argument("--workers", type=int, default=8)
    p_comp.add_argument(
        "--sanitize",
        action="store_true",
        help="with --run: replay the executed trace through the rundown sanitizer",
    )
    p_comp.add_argument(
        "--save",
        metavar="FILE",
        help="with --run: write the run (summary + trace) to JSON "
        "(validatable later via `repro lint --check-run`)",
    )

    p_lint = sub.add_parser("lint", help="overlap-safety analysis of PAX sources")
    p_lint.add_argument("files", nargs="*", metavar="FILE", help="PAX source files")
    p_lint.add_argument("--json", action="store_true", help="emit findings as JSON")
    p_lint.add_argument(
        "--sarif",
        action="store_true",
        help="emit findings as a SARIF 2.1.0 document (for CI code-scanning upload)",
    )
    p_lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "never"],
        default="warning",
        help="lowest severity that makes the exit code 1 (default: warning)",
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="any finding at all (including info) makes the exit code 1",
    )
    p_lint.add_argument(
        "--suppress",
        "--disable",
        action="append",
        default=[],
        metavar="RULE[,RULE...]",
        help="suppress rules by ID (repeatable; RDN000 cannot be suppressed)",
    )
    p_lint.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULE[,RULE...]",
        help="report only the listed rules (repeatable; RDN000 always reports)",
    )
    p_lint.add_argument(
        "--check-run",
        metavar="RUN.json",
        help="also validate a saved run (`simulate --save` / `compile --run`) "
        "against the single given PAX source via the rundown sanitizer",
    )
    p_lint.add_argument(
        "--set",
        dest="bindings",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="bind a branch-condition variable when compiling for --check-run",
    )
    p_lint.add_argument(
        "--self-check",
        action="store_true",
        help="lint the built-in corpus (one program per rule) and exit",
    )
    return parser


def _add_run_options(parser: argparse.ArgumentParser, workload_optional: bool = False) -> None:
    """Workload/executive options shared by ``simulate`` and ``stats``."""
    parser.add_argument(
        "workload",
        nargs="?" if workload_optional else None,
        choices=_workload_choices(),
    )
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--barrier", action="store_true", help="strict phase barriers")
    parser.add_argument("--shared-executive", action="store_true")
    parser.add_argument("--middle-managers", type=int, default=1)
    parser.add_argument("--lateral-handoff", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tasks-per-processor", type=float, default=2.0)
    fault = parser.add_argument_group("fault injection")
    fault.add_argument(
        "--crash",
        dest="crashes",
        action="append",
        default=[],
        metavar="P@T",
        help="crash worker processor P at sim-time T (repeatable)",
    )
    fault.add_argument(
        "--transient-p",
        type=float,
        default=0.0,
        metavar="PROB",
        help="per-task transient failure probability (deterministic per seed)",
    )
    fault.add_argument(
        "--watchdog-timeout",
        type=float,
        default=None,
        metavar="T",
        help="barrier watchdog timeout in sim-seconds (default: recovery policy default)",
    )
    fault.add_argument(
        "--fault-seed", type=int, default=0, help="seed for deterministic fault draws"
    )


def _workload_choices() -> list[str]:
    from repro.sweep.runner import workload_names

    return workload_names()


def _workload(name: str):
    from repro.sweep import build_workload

    return build_workload(name)


def _cmd_census(args, out) -> int:
    from repro.workloads.casper import casper_suite

    census = classify_program(casper_suite(), wrap=True)
    print(census_table(census, title="PAX/CASPER enablement mapping census"), file=out)
    return 0


def _cmd_leftover(args, out) -> int:
    w = leftover_wave(args.computations, args.processors)
    print(f"computations per processor : {w.per_processor}", file=out)
    print(f"leftover computations      : {w.leftover}", file=out)
    print(f"idle processors final wave : {w.idle_processors}", file=out)
    print(f"waves                      : {w.waves}", file=out)
    print(f"utilization bound          : {w.utilization_bound:.4%}", file=out)
    return 0


def _parse_crash(token: str):
    """``P@T`` -> (processor index, sim time)."""
    proc, sep, at = token.partition("@")
    if not sep or not proc.isdigit():
        raise ValueError(f"--crash expects P@T (e.g. 2@5.0), got {token!r}")
    return int(proc), float(at)


def _fault_arguments(args):
    """Translate fault CLI flags into run_program keyword arguments."""
    from repro.faults import (
        FaultPlan,
        ProcessorCrash,
        RecoveryPolicy,
        TransientGranuleError,
    )

    faults = [ProcessorCrash(p, t) for p, t in (_parse_crash(c) for c in args.crashes)]
    if args.transient_p > 0.0:
        faults.append(TransientGranuleError(args.transient_p))
    if not faults and args.watchdog_timeout is None:
        return {}
    kwargs = {"faults": FaultPlan(seed=args.fault_seed, faults=tuple(faults))}
    if args.watchdog_timeout is not None:
        kwargs["recovery"] = RecoveryPolicy(watchdog_timeout=args.watchdog_timeout)
    return kwargs


def _run_workload(args, telemetry=None):
    """Build and run the workload described by shared ``_add_run_options``.

    Returns ``(result, program)`` — the program so post-run validators
    (``--sanitize``) can replay the trace against the declared order.
    """
    program = _workload(args.workload)
    config = OverlapConfig.barrier() if args.barrier else OverlapConfig()
    placement = (
        ExecutivePlacement.SHARED if args.shared_executive else ExecutivePlacement.DEDICATED
    )
    extensions = Extensions(
        middle_managers=args.middle_managers,
        lateral_handoff=args.lateral_handoff,
    )
    result = run_program(
        program,
        args.workers,
        config=config,
        costs=ExecutiveCosts(0.05, 0.05, 0.05, 0.02, 0.02, 0.02, 0.001),
        sizer=TaskSizer(args.tasks_per_processor),
        placement=placement,
        seed=args.seed,
        extensions=extensions,
        telemetry=telemetry,
        **_fault_arguments(args),
    )
    return result, program


def _print_fault_lines(result, out) -> None:
    """Resilience counters, printed only when faults actually bit."""
    if getattr(result, "processor_failures", 0):
        print(f"crashed procs: {result.processor_failures}", file=out)
    if getattr(result, "retries", 0):
        print(f"retries      : {result.retries}", file=out)
    if getattr(result, "reassignments", 0):
        print(f"reassignments: {result.reassignments}", file=out)
    if getattr(result, "stalls", 0):
        print(f"stalls       : {result.stalls}", file=out)


def _sanitize_and_report(result, program, out) -> int:
    """Replay ``result`` through the rundown sanitizer; 1 on findings."""
    from repro.lint import sanitize_result

    report = sanitize_result(result, program)
    print(report.render_text(), file=out)
    return 0 if report.ok else 1


def _cmd_simulate(args, out) -> int:
    from repro.faults import PhaseAbortError

    try:
        result, program = _run_workload(args)
    except (PhaseAbortError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    mode = "barrier" if args.barrier else "next-phase overlap"
    print(f"workload     : {args.workload} ({mode})", file=out)
    print(f"makespan     : {result.makespan:.2f}", file=out)
    print(f"utilization  : {result.utilization:.1%}", file=out)
    print(f"comp/mgmt    : {result.comp_mgmt_ratio:.0f}", file=out)
    print(f"tasks        : {result.tasks_executed}", file=out)
    if result.lateral_handoffs:
        print(f"lateral hand-offs: {result.lateral_handoffs}", file=out)
    _print_fault_lines(result, out)
    reports = rundown_reports(result)
    if reports:
        mean_ru = sum(r.utilization for r in reports) / len(reports)
        print(f"mean rundown-window utilization: {mean_ru:.1%}", file=out)
    if args.gantt:
        print(render_gantt(result.trace, width=args.gantt_width), file=out)
    if args.save:
        from repro.sim.persist import save_result

        save_result(result, args.save)
        print(f"saved run to {args.save}", file=out)
    if args.sanitize:
        return _sanitize_and_report(result, program, out)
    return 0


def _export_metrics(args, registry, out) -> int:
    """Honor ``stats --prom`` / ``--metrics-jsonl`` for a filled registry."""
    if getattr(args, "prom", None):
        from repro.obs import prometheus_text

        try:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(prometheus_text(registry))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote Prometheus metrics to {args.prom}", file=out)
    if getattr(args, "metrics_jsonl", None):
        from repro.obs import append_snapshot_jsonl

        try:
            source = getattr(args, "sweep", None) or getattr(args, "workload", None)
            append_snapshot_jsonl(registry, args.metrics_jsonl, meta={"source": source})
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"appended metrics snapshot to {args.metrics_jsonl}", file=out)
    return 0


def _cmd_stats(args, out) -> int:
    from repro.metrics import merged_rundown_windows, rundown_idle_by_processor
    from repro.obs import Telemetry, record_rundown_metrics, render_snapshot

    if args.sweep:
        return _cmd_stats_sweep(args, out)
    if args.workload is None:
        print("error: a workload (or --sweep FILE) is required", file=sys.stderr)
        return 2
    from repro.faults import PhaseAbortError

    telemetry = Telemetry()
    try:
        result, _ = _run_workload(args, telemetry=telemetry)
    except (PhaseAbortError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record_rundown_metrics(result, telemetry.metrics)

    mode = "barrier" if args.barrier else "next-phase overlap"
    print(f"workload     : {args.workload} ({mode})", file=out)
    print(f"makespan     : {result.makespan:.2f}", file=out)
    print(f"utilization  : {result.utilization:.1%}", file=out)
    print(f"bus events   : {telemetry.bus.events_published}", file=out)
    _print_fault_lines(result, out)

    print("\noverlap admissions", file=out)
    if not result.admission_decisions:
        print("  (no adjacent phase pairs considered)", file=out)
    for d in result.admission_decisions:
        verdict = "admitted" if d.admitted else f"rejected: {d.reason}"
        kind = f" [{d.mapping_kind}]" if d.mapping_kind else ""
        print(f"  {d.predecessor} -> {d.successor}{kind}  {verdict}", file=out)

    windows = merged_rundown_windows(result)
    idle = rundown_idle_by_processor(result)
    window_total = sum(e - s for s, e in windows)
    print("\nrundown idle attribution", file=out)
    print(
        f"  merged windows : {len(windows)} spanning {window_total:.2f} sim-seconds",
        file=out,
    )
    for processor, seconds in idle.items():
        share = seconds / window_total if window_total > 0 else 0.0
        print(f"  {processor:<6} idle {seconds:10.2f}s  ({share:6.1%} of window)", file=out)
    print(f"  total idle     : {sum(idle.values()):.2f} processor-seconds", file=out)

    print("\nmetrics snapshot", file=out)
    print(render_snapshot(telemetry.metrics.snapshot()), file=out)
    rc = _export_metrics(args, telemetry.metrics, out)
    if rc:
        return rc
    if args.save:
        from repro.sim.persist import save_result

        save_result(result, args.save)
        print(f"\nsaved run to {args.save}", file=out)
    return 0


def _cmd_stats_sweep(args, out) -> int:
    """Aggregate a saved sweep (or grid) report into a labelled snapshot."""
    import json as _json

    from repro.obs import MetricsRegistry, record_sweep_metrics, render_snapshot
    from repro.sweep import SweepReport

    try:
        with open(args.sweep, "r", encoding="utf-8") as fh:
            text = fh.read()
        if "cells" in _json.loads(text):
            return _cmd_stats_grid(args, text, out)
        report = SweepReport.from_json(text)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    agg = report.aggregate()
    spec = report.spec
    print(f"sweep        : {spec.get('workload')} x{agg.get('replications', 0)}", file=out)
    print(f"mean util    : {agg.get('utilization_mean', 0.0):.1%}", file=out)
    print(
        f"util range   : {agg.get('utilization_min', 0.0):.1%}"
        f" .. {agg.get('utilization_max', 0.0):.1%}",
        file=out,
    )
    print(f"mean makespan: {agg.get('makespan_mean', 0.0):.2f}", file=out)
    print(
        f"overlaps     : {agg.get('overlaps_admitted', 0)}"
        f"/{agg.get('overlaps_considered', 0)} admitted",
        file=out,
    )
    registry = MetricsRegistry()
    record_sweep_metrics(report, registry)
    print("\nmetrics snapshot", file=out)
    print(render_snapshot(registry.snapshot()), file=out)
    return _export_metrics(args, registry, out)


def _cmd_stats_grid(args, text: str, out) -> int:
    """Aggregate a saved grid report: per-point table + axis-labelled snapshot."""
    from repro.obs import MetricsRegistry, record_grid_metrics, render_snapshot
    from repro.sweep import GridReport

    try:
        report = GridReport.from_json(text)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = report.spec.get("base", {})
    print(
        f"grid         : {base.get('workload')} — "
        f"{len(report.points())} points, {len(report.cells)} cells",
        file=out,
    )
    print("\nper-point aggregates", file=out)
    for agg in report.aggregate_by_point():
        point = " ".join(f"{k}={v}" for k, v in agg["point"].items())
        print(
            f"  {point:<44} util {agg['utilization_mean']:7.1%}"
            f"  makespan {agg['makespan_mean']:9.2f}",
            file=out,
        )
    registry = MetricsRegistry()
    record_grid_metrics(report, registry)
    print("\nmetrics snapshot", file=out)
    print(render_snapshot(registry.snapshot()), file=out)
    return _export_metrics(args, registry, out)


def _parse_param(binding: str):
    import json as _json

    name, sep, value = binding.partition("=")
    if not sep or not name:
        raise ValueError(f"--param expects NAME=VALUE, got {binding!r}")
    try:
        return name, _json.loads(value)
    except ValueError:
        return name, value  # bare strings stay strings


def _parse_slow(token: str) -> tuple[int, float]:
    """``R:SECONDS`` — one --slow-replication binding."""
    rep, _, secs = token.partition(":")
    try:
        return int(rep), float(secs)
    except ValueError:
        raise ValueError(
            f"--slow-replication expects R:SECONDS, got {token!r}"
        ) from None


def _sweep_chaos_seed(args) -> int | None:
    """--chaos-seed, falling back to the REPRO_CHAOS_SEED environment."""
    if args.chaos_seed is not None:
        return args.chaos_seed
    env = os.environ.get("REPRO_CHAOS_SEED", "").strip()
    return int(env) if env else None


def _sweep_supervision(args, implied: bool):
    """The SupervisionPolicy for this invocation, or None (unsupervised).

    Armed by --supervise, by any deadline/heartbeat knob, or by a fault
    flag that *needs* supervision to terminate (hangs, chaos) — an
    injected hang without a supervisor would block the sweep forever,
    which is never what the caller meant.
    """
    armed = (
        args.supervise
        or args.task_timeout is not None
        or args.heartbeat_timeout is not None
        or implied
    )
    if not armed:
        return None
    from repro.sweep import SupervisionPolicy

    kwargs = {}
    if args.task_timeout is not None:
        kwargs["task_timeout"] = args.task_timeout
    if args.heartbeat_timeout is not None:
        kwargs["heartbeat_timeout"] = args.heartbeat_timeout
    return SupervisionPolicy(**kwargs)


def _print_supervision(stats, out) -> None:
    """Outcome lines for a supervised run (sweep and grid share them)."""
    if stats is None:
        return
    if stats["hangs_detected"]:
        print(
            f"hangs        : {stats['hangs_detected']} detected "
            f"({stats['workers_preempted']} workers preempted)",
            file=out,
        )
    if stats["segments_reaped"]:
        print(
            f"shm janitor  : {stats['segments_reaped']} leaked segments reaped",
            file=out,
        )
    if stats["degradations"]:
        path = " → ".join(
            [stats["degradations"][0][0]] + [d[1] for d in stats["degradations"]]
        )
        print(f"degraded     : {path}", file=out)


def _sweep_instrumentation(args):
    """Build the optional (profiler, bus, reporter) trio for a sweep/grid run."""
    profiler = bus = reporter = None
    if args.profile is not None:
        from repro.obs import PoolProfiler

        profiler = PoolProfiler()
    if args.progress:
        from repro.obs import EventBus, ProgressReporter

        bus = EventBus()
        reporter = ProgressReporter(sys.stderr)
        reporter.subscribe(bus)
    return profiler, bus, reporter


def _write_profile_report(args, profiler, what, outcome, meta, out) -> int:
    """Freeze ``profiler`` into a ProfileReport next to the canonical report."""
    from pathlib import Path

    from repro.obs import ProfileReport

    report = ProfileReport(
        pool=profiler.profile(what, outcome.pool_workers),
        meta=meta,
    )
    if isinstance(args.profile, str):
        path = args.profile
    elif args.output:
        path = str(Path(args.output).with_suffix("")) + ".profile.json"
    else:
        path = "sweep.profile.json"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("", file=out)
    print(report.render_text(), file=out)
    print(f"saved profile to {path}", file=out)
    return 0


def _sweep_fault_plan(args, units: int):
    """``(FaultPlan or None, needs supervision)`` from the fault flags and
    the chaos harness; unit indices are replications or grid cell ids."""
    from repro.faults import (
        FaultPlan,
        SweepWorkerHang,
        SweepWorkerKill,
        SweepWorkerSlow,
        chaos_plan,
    )

    chaos_seed = _sweep_chaos_seed(args)
    slows = [_parse_slow(t) for t in args.slow_replications]
    faults = [SweepWorkerKill(r) for r in args.kill_replications]
    faults += [SweepWorkerHang(r) for r in args.hang_replications]
    faults += [SweepWorkerSlow(r, s) for r, s in slows]
    if chaos_seed is not None:
        faults += chaos_plan(chaos_seed, units).faults
    implied = bool(args.hang_replications or slows or chaos_seed is not None)
    if not faults:
        return None, implied
    seed = chaos_seed if chaos_seed is not None else args.fault_seed
    return FaultPlan(seed=seed, faults=tuple(faults)), implied


def _cmd_sweep(args, out) -> int:
    """``repro sweep``: a replication fan, or with ``--grid`` a parameter grid."""
    from repro.sweep import GridSpec, SweepSpec, materialize_maps, parse_axis, run_grid, run_sweep

    if args.resume and not args.manifest:
        print("error: --resume requires --manifest", file=sys.stderr)
        return 2
    if args.share_maps and not args.grid_axes:
        print("error: --share-maps requires --grid", file=sys.stderr)
        return 2
    try:
        spec = SweepSpec(
            workload=args.workload,
            replications=args.replications,
            seed=args.seed,
            sim_workers=args.sim_workers,
            streams=args.streams,
            barrier=args.barrier,
            tasks_per_processor=args.tasks_per_processor,
            params=dict(_parse_param(b) for b in args.params),
        )
        grid = None
        if args.grid_axes:
            grid = GridSpec(base=spec, axes=tuple(parse_axis(t) for t in args.grid_axes))
        units = grid.n_cells if grid is not None else spec.replications
        fault_plan, implied = _sweep_fault_plan(args, units)
        shared = materialize_maps(grid) if args.share_maps else None
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.share_maps and not shared:
        print("note: workload declares no selection maps; nothing to share", file=out)
    profiler, bus, reporter = _sweep_instrumentation(args)
    options = dict(
        workers=args.workers,
        fault_plan=fault_plan,
        manifest_path=args.manifest,
        resume=args.resume,
        max_restarts=args.max_restarts,
        profiler=profiler,
        bus=bus,
        batch_size=args.batch_size,
        pool="cold" if args.cold_pool else "warm",
        supervision=_sweep_supervision(args, implied),
    )
    try:
        if grid is None:
            outcome = run_sweep(spec, **options)
        else:
            outcome = run_grid(grid, shared_maps=shared, **options)
    except ValueError as exc:  # a refused argument: fault index, foreign manifest
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if reporter is not None:
            reporter.close()
    noun = "replication" if grid is None else "cell"
    hosts = f"{outcome.pool_workers} host process{'es' if outcome.pool_workers != 1 else ''}"
    if grid is None:
        agg = outcome.report.aggregate()
        mode = "barrier" if args.barrier else "next-phase overlap"
        print(f"workload     : {args.workload} ({mode})", file=out)
        print(f"replications : {agg['replications']} across {hosts}", file=out)
        print(f"mean util    : {agg['utilization_mean']:.1%}", file=out)
        print(
            f"util range   : {agg['utilization_min']:.1%} .. {agg['utilization_max']:.1%}",
            file=out,
        )
        print(f"mean makespan: {agg['makespan_mean']:.2f}", file=out)
        print(f"tasks        : {agg['tasks_total']}", file=out)
    else:
        print(f"workload     : {spec.workload}", file=out)
        print(
            f"grid         : {grid.n_points} points x {spec.replications} replications"
            f" = {grid.n_cells} cells across {hosts}",
            file=out,
        )
        for axis in grid.axes:
            print(f"  axis {axis.name:<18}: {list(axis.values)}", file=out)
        print("\nper-point aggregates", file=out)
        for agg in outcome.report.aggregate_by_point():
            point = " ".join(f"{k}={v}" for k, v in agg["point"].items())
            print(
                f"  {point:<44} util {agg['utilization_mean']:7.1%}"
                f"  makespan {agg['makespan_mean']:9.2f}",
                file=out,
            )
        print("", file=out)
    print(f"elapsed      : {outcome.elapsed_seconds:.2f}s host wall-clock", file=out)
    if outcome.pool_workers > 1:
        reuse = "reused warm" if outcome.pool_reused else ("cold" if args.cold_pool else "fresh warm")
        print(f"pool         : {reuse} pool, batch size {outcome.batch_size}", file=out)
    if outcome.shared_map_bytes:
        print(
            f"shared maps  : {outcome.shared_map_bytes} bytes in shared memory",
            file=out,
        )
    if outcome.resumed:
        print(f"resumed      : {outcome.resumed} {noun}s from manifest", file=out)
    if outcome.worker_restarts:
        print(f"restarts     : {outcome.worker_restarts} after worker death", file=out)
    _print_supervision(outcome.supervision, out)
    if args.manifest:
        print(f"manifest     : {args.manifest}", file=out)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(outcome.report.to_json())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"saved report to {args.output}", file=out)
    if profiler is not None:
        meta = {
            "command": "sweep" if grid is None else "sweep --grid",
            "workload": spec.workload,
            f"{noun}s": units,
            "pool_workers": outcome.pool_workers,
            "elapsed_seconds": outcome.elapsed_seconds,
            "batch_size": outcome.batch_size,
            "pool_reused": outcome.pool_reused,
            "pool_generation": outcome.pool_generation,
        }
        rc = _write_profile_report(args, profiler, noun, outcome, meta, out)
        if rc:
            return rc
    return 0


def _load_run_json(path: str):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return data.get("trace", data)  # accept bare traces too


def _cmd_export_trace(args, out) -> int:
    """Streaming trace conversion: events are written as they are produced.

    Both exporters emit one event per iteration step — the full event list
    (and its ``json.dumps`` string, historically a 3x RSS spike on large
    grid traces) is never materialized.  A ``.jsonl`` input is additionally
    *read* one line at a time, so spans-JSONL -> Chrome conversion runs in
    O(1) memory end to end.
    """
    import json
    from pathlib import Path

    from repro.obs import (
        export_jsonl,
        instants_from_trace,
        iter_spans_jsonl,
        iter_trace_spans,
        write_chrome_trace_streaming,
    )

    path = Path(args.file)
    suffix = ".trace.json" if args.format == "chrome" else ".spans.jsonl"
    output = args.output or str(path.with_suffix("")) + suffix
    try:
        if path.suffix == ".jsonl":
            make_spans = lambda: iter_spans_jsonl(path)  # noqa: E731
            instants = []
        else:
            from repro.sim.persist import trace_from_dict

            trace = trace_from_dict(_load_run_json(args.file))
            make_spans = lambda: iter_trace_spans(trace)  # noqa: E731
            instants = instants_from_trace(trace)
        if args.format == "chrome":
            n = write_chrome_trace_streaming(make_spans, output, instants)
        else:
            n = 0

            def counted():
                nonlocal n
                for span in make_spans():
                    n += 1
                    yield span

            export_jsonl(counted(), output)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {n} {args.format} events to {output}", file=out)
    return 0


def _cmd_profile(args, out) -> int:
    """``repro profile FILE``: idle waterfall + critical path of a saved run."""
    import json

    from repro.obs import analyze_saved

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        report = analyze_saved(data)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.render_text(), file=out)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report.to_dict(), indent=2, sort_keys=True))
                fh.write("\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"saved waterfall report to {args.output}", file=out)
    return 0


def _cmd_gantt(args, out) -> int:
    from repro.sim.persist import trace_from_dict

    try:
        trace_data = _load_run_json(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = trace_from_dict(trace_data)
    print(render_gantt(trace, width=args.width, t0=args.t0, t1=args.t1), file=out)
    return 0


def _default_map_generators(program):
    """Random selection maps for ``compile --run``.

    A PAX ``MAP`` declares shape, not contents — the paper's maps are
    "dynamically generated".  Simulating from the CLI needs *some*
    contents, so any indirect link whose map has no registered generator
    gets a uniform random one with the link-implied shape.
    """
    from repro.core.mapping import MappingKind

    gens = {}
    for (pred, succ), mapping in program.links.items():
        name = getattr(mapping, "map_name", None)
        if name is None or name in program.map_generators or name in gens:
            continue
        n_pred = program.phases[pred].n_granules
        n_succ = program.phases[succ].n_granules
        if mapping.kind is MappingKind.REVERSE_INDIRECT:
            shape, high = (mapping.fan_in, n_succ), n_pred
        else:
            shape, high = (mapping.fan_out, n_pred), n_succ
        gens[name] = lambda rng, shape=shape, high=high: rng.integers(0, high, size=shape)
    return gens


def _parse_bindings(bindings):
    """``--set NAME=INT`` tokens -> env dict; raises ``ValueError``."""
    env = {}
    for binding in bindings:
        name, _, value = binding.partition("=")
        if not value.lstrip("-").isdigit():
            raise ValueError(f"--set expects NAME=INT, got {binding!r}")
        env[name] = int(value)
    return env


def _cmd_compile(args, out) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        env = _parse_bindings(args.bindings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        program = compile_program(source, env=env)
    except LangError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    print(f"schedule : {[getattr(s, 'name', s) for s in program.schedule]}", file=out)
    for (a, b), mapping in sorted(program.links.items()):
        print(f"link     : {a} -> {b}  [{mapping.kind.value}]", file=out)
    if args.run:
        defaults = _default_map_generators(program)
        if defaults:
            program.map_generators.update(defaults)
            print(f"maps     : random default generators for {sorted(defaults)}", file=out)
        result = run_program(program, args.workers)
        print(f"makespan : {result.makespan:.2f}", file=out)
        print(f"util     : {result.utilization:.1%}", file=out)
        if args.save:
            from repro.sim.persist import save_result

            save_result(result, args.save)
            print(f"saved run to {args.save}", file=out)
        if args.sanitize:
            return _sanitize_and_report(result, program, out)
    elif args.sanitize or args.save:
        print("error: --sanitize/--save require --run", file=sys.stderr)
        return 2
    return 0


def _rule_id_set(chunks, flag):
    """Flatten repeatable ``RULE[,RULE...]`` options; validate against RULES."""
    from repro.lint import RULES

    ids = {
        token.strip().upper()
        for chunk in chunks
        for token in chunk.split(",")
        if token.strip()
    }
    unknown = sorted(ids - set(RULES))
    if unknown:
        raise ValueError(f"{flag}: unknown rule ID(s) {', '.join(unknown)}")
    return ids


def _lint_check_run(args, program_file, out) -> int:
    """``lint --check-run RUN.json FILE.pax``: sanitize a saved run."""
    import json

    from repro.lint import sanitize_saved

    try:
        with open(program_file, "r", encoding="utf-8") as fh:
            source = fh.read()
        env = _parse_bindings(args.bindings)
        program = compile_program(source, env=env)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LangError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.check_run, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        report = sanitize_saved(data, program)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_text(), file=out)
    return 0 if report.ok else 1


def _cmd_lint(args, out) -> int:
    from repro.lint import (
        Severity,
        exit_code,
        filter_suppressed,
        lint_file,
        render_json,
        render_sarif,
        render_text,
        run_self_check,
    )

    if args.self_check:
        ok, lines = run_self_check()
        print("\n".join(lines), file=out)
        return 0 if ok else 1
    if args.json and args.sarif:
        print("error: --json and --sarif are mutually exclusive", file=sys.stderr)
        return 2
    if not args.files:
        print("error: no files to lint (or use --self-check)", file=sys.stderr)
        return 2
    if args.check_run and len(dict.fromkeys(args.files)) != 1:
        print("error: --check-run validates exactly one PAX source", file=sys.stderr)
        return 2

    try:
        suppressed = _rule_id_set(args.suppress, "--suppress/--disable")
        selected = _rule_id_set(args.select, "--select")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diagnostics = []
    for path in dict.fromkeys(args.files):  # ordered dedupe
        try:
            diagnostics.extend(lint_file(path))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    diagnostics = filter_suppressed(diagnostics, suppressed)
    if selected:
        # RDN000 stays: a program that does not even compile must never
        # pass a narrowed lint run silently.
        diagnostics = [
            d for d in diagnostics if d.rule_id == "RDN000" or d.rule_id in selected
        ]

    if args.json:
        print(render_json(diagnostics), file=out)
    elif args.sarif:
        print(render_sarif(diagnostics), file=out)
    else:
        print(render_text(diagnostics), file=out)

    rc = 0
    if args.strict:
        rc = 1 if diagnostics else 0
    elif args.fail_on != "never":
        rc = exit_code(diagnostics, Severity(args.fail_on))
    if args.check_run:
        run_rc = _lint_check_run(args, next(iter(dict.fromkeys(args.files))), out)
        rc = rc or run_rc
    return rc


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "census":
            return _cmd_census(args, out)
        if args.command == "leftover":
            return _cmd_leftover(args, out)
        if args.command == "simulate":
            return _cmd_simulate(args, out)
        if args.command == "stats":
            return _cmd_stats(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "export-trace":
            return _cmd_export_trace(args, out)
        if args.command == "profile":
            return _cmd_profile(args, out)
        if args.command == "compile":
            return _cmd_compile(args, out)
        if args.command == "gantt":
            return _cmd_gantt(args, out)
        if args.command == "lint":
            return _cmd_lint(args, out)
    except BrokenPipeError:  # e.g. piping into `head`
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
