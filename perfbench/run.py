"""Benchmark of the rundown simulator: four workloads, end-to-end and per layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload rundown-wave --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run.  ``perfbench/README.md`` describes the workloads
and every metric.  This process never imports ``repro``: each measurement
runs in a fresh interpreter (``child.py``), one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the pool's temporary files, inside the checkout.
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("rundown-wave", "casper-overlap", "indirect-gather", "casper-sweep")
#: Fresh processes that only set up, besides the measuring one.
SETUP_PROBES = 3
#: Seconds one child may take beyond its measuring time before it is
#: killed and the run fails.
CHILD_MARGIN = 130

E2E_UNITS = {
    "granules_per_s": "granules/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "analyze_s": "s",
    "replications_per_s": "1/s",
    "sim_utilization": "fraction",
    "ok_fraction": "fraction",
}

#: Per-layer metric -> (unit, kind).  ``count`` values repeat exactly and
#: may back a count-based claim; ``timing`` values are host measurements.
LAYER_METRICS = {
    "engine.self_s": ("s", "timing"),
    "engine.events": ("count", "count"),
    "engine.lt_per_event": ("count/event", "count"),
    "machine.self_s": ("s", "timing"),
    "executive.self_s": ("s", "timing"),
    "executive.tasks": ("count", "count"),
    "granule.self_s": ("s", "timing"),
    "granule.ops_per_event": ("count/event", "count"),
    "granule.sorted_per_event": ("count/event", "count"),
    "trace.self_s": ("s", "timing"),
    "trace.records_per_granule": ("count/granule", "count"),
    "trace.bytes_per_granule": ("B/granule", "count"),
    "enablement.self_s": ("s", "timing"),
    "enablement.notify_calls": ("count", "count"),
    "enablement.composite_build_s": ("s", "timing"),
    "workloads.self_s": ("s", "timing"),
    "analysis.self_s": ("s", "timing"),
    "analysis.sanitize_s": ("s", "timing"),
    "analysis.profile_s": ("s", "timing"),
    "analysis.persist_s": ("s", "timing"),
    "span.build_s": ("s", "timing"),
    "span.simulate_s": ("s", "timing"),
    "span.sweep_s": ("s", "timing"),
    "sweep.compute_s": ("s", "timing"),
    "sweep.overhead_s": ("s", "timing"),
    "sweep.effective_workers": ("workers", "timing"),
    "sweep.batch_size": ("count", "timing"),
    "sweep.restarts": ("count", "timing"),
    "tracing_overhead": ("x", "timing"),
}


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def child(mode: str, args: argparse.Namespace, workers: int) -> dict[str, Any]:
    """Run one ``child.py`` in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # set iteration order must not differ between the two traced processes
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(TMP)
    cmd = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workers", str(workers),
    ]
    # its own process group, so a timeout also stops the sweep pool it spawned
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        timeout = CHILD_MARGIN + (args.seconds if mode == "measure" else 0)
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args: argparse.Namespace, workers: int) -> dict[str, Any]:
    probes = [child("setup", args, workers) for _ in range(SETUP_PROBES)]
    m = child("measure", args, workers)
    setups = [(p["setup_s"], p["scale"]) for p in probes] + [(m["setup_s"], m["setup_scale"])]
    ok = (m["attempted"] - m["failed"]) / m["attempted"]
    host = dict(m["host"], setup_s=statistics.median(s for s, _ in setups))
    values = dict(
        m["reference"],
        setup_s=statistics.median(s * k for s, k in setups),
        peak_rss_mb=m["peak_rss_mb"],
        sim_utilization=m["sim_utilization"],
        ok_fraction=ok,
    )
    print(f"workload {args.workload} seed {args.seed}: {m['operations']} timed operations, "
          f"{m['attempted']} attempted, {m['failed']} failed "
          f"(failed_fraction {1.0 - ok:.4g}), available_cores {available_cores()}, "
          f"sweep workers {workers}")
    print(f"  result summary digest(s): {', '.join(m['digests'])}")
    for err in m["errors"]:
        print(f"  failed check: {err}")
    print(f"  {'metric':<20} {'reported':>14} {'host time':>14}")
    for name in E2E_UNITS:
        raw = f"{host[name]:>14.6g}" if name in host else " " * 14
        print(f"  {name:<20} {values[name]:>14.6g} {raw} {E2E_UNITS[name]}")
    return {
        "correct": m["failed"] == 0 and len(m["digests"]) == 1,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()},
    }


def per_layer(args: argparse.Namespace, workers: int) -> dict[str, Any]:
    runs = [child("trace", args, workers) for _ in range(2)]
    first, second = runs
    exact = first["counts"] == second["counts"]
    differing = sorted(
        k for k in first["counts"].keys() | second["counts"].keys()
        if first["counts"].get(k) != second["counts"].get(k)
    )
    values = {}
    for name, (unit, kind) in LAYER_METRICS.items():
        a, b = first["metrics"][name], second["metrics"][name]
        values[name] = a if kind == "count" else (a + b) / 2
        if kind == "count" and a != b:
            differing.append(name)
            exact = False
    # the comparison of the two runs' counts is one more checked operation
    failed = sum(r["failed"] for r in runs) + (0 if exact else 1)
    attempted = sum(r["attempted"] for r in runs) + 1
    print(f"workload {args.workload} seed {args.seed}: two traced runs, "
          f"call counts {'identical' if exact else 'DIFFER'} "
          f"({len(first['counts'])} functions), available_cores {available_cores()}")
    print(f"  result summary digest: {first['digest']}")
    for name in differing[:10]:
        print(f"  differs: {name}")
    for err in first["errors"] + second["errors"]:
        print(f"  failed check: {err}")
    for name, value in values.items():
        unit, kind = LAYER_METRICS[name]
        print(f"  {name:<28} {value:>14.6g} {unit:<14} {kind}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()},
    }


def run_one(args: argparse.Namespace) -> dict[str, Any]:
    workers = max(1, min(2, available_cores()))
    TMP.mkdir(exist_ok=True)
    try:
        return per_layer(args, workers) if args.trace else end_to_end(args, workers)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each untraced then traced, each run in fresh processes."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            ok = run_one(args)["correct"] and ok
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args)
        out = run_one(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
