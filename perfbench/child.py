"""One fresh interpreter's share of a benchmark run (started by ``run.py``).

Modes:

``setup``    time set-up only: import ``repro``, build the inputs, and for
             ``casper-sweep`` spawn and calibrate the warm pool.
``measure``  set up, then repeat the workload's operation for ``--seconds``
             with tracing off, checking every operation; the reference
             kernel (``reference.py``) runs before each one.
``trace``    set up, run the operation untraced twice (a warm-up, then the
             base of the tracing overhead), once under ``cProfile`` with
             spans, then once under ``tracemalloc``.

The result is one JSON object on the last line of standard output.  Each
mode runs in its own process because ``ru_maxrss`` and import time last
for the whole process.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402

#: Operations every measurement makes at least, however long they take.
MIN_OPERATIONS = 3


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def run(self, fn: Any, *args: Any) -> dict[str, Any] | None:
        """Call one operation; a raised exception or a failed check counts
        as a failure and is reported on standard error."""
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            traceback.print_exc(file=sys.stderr)
            return None
        if out["errors"]:
            self.failed += 1
            self.errors.extend(out["errors"])
            print("check failed: " + "; ".join(out["errors"]), file=sys.stderr)
        return out


def _setup(args: argparse.Namespace) -> tuple[Any, Any, float]:
    import cases

    case = cases.make(args.workload, args.seed, args.workers)
    case.setup()
    return cases, case, time.perf_counter() - T_START


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _analysis_seconds(spans: Any) -> float:
    s = spans.seconds
    return s["sanitize"] + s["profile"] + s["persist"]


def mode_setup(args: argparse.Namespace) -> dict[str, Any]:
    _, case, setup_s = _setup(args)
    case.close()
    return {"setup_s": setup_s, "scale": reference.scale()}


def _summarize(ops: list[dict[str, Any]], analyze: list[tuple[float, float]],
               scaled: bool) -> dict[str, float]:
    """Medians over the timed operations, in host or reference seconds;
    0 where no operation completed."""
    def k(o: dict[str, Any]) -> float:
        return o["scale"] if scaled else 1.0

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    return {
        "granules_per_s": median([o["granules"] / (o["compute_s"] * k(o)) for o in ops]),
        "replications_per_s": median([o["replications"] / (o["wall_s"] * k(o)) for o in ops]),
        "analyze_s": median([s * (f if scaled else 1.0) for s, f in analyze]),
    }


def mode_measure(args: argparse.Namespace) -> dict[str, Any]:
    cases, case, setup_s = _setup(args)
    setup_scale = reference.scale()
    tally = Tally()
    ops: list[dict[str, Any]] = []
    analyze: list[tuple[float, float]] = []
    digests: set[str] = set()
    try:
        if args.workload == "casper-sweep":
            case.make_reference()
            loop = case.sweep
        else:
            # one checked warm-up operation, untimed, so lazy imports and
            # first-touch allocations are not in the figures
            tally.run(case.operation, cases.Spans())
            loop = case.operation
        t0 = time.perf_counter()
        timed = 0
        # counts attempts, not successes, so a failing program still ends
        while timed < MIN_OPERATIONS or time.perf_counter() - t0 < args.seconds:
            timed += 1
            factor = reference.scale()
            spans = cases.Spans()
            out = tally.run(loop, spans)
            if out is None:
                continue
            digests.add(out["digest"])
            s = spans.seconds
            ops.append({
                "scale": factor,
                "compute_s": s.get("simulate", s.get("sweep", 0.0)),
                "wall_s": sum(s.values()) - s.get("build", 0.0),
                "granules": out["granules"],
                "replications": out.get("replications", 1),
                "sim_utilization": out["sim_utilization"],
            })
            if "sanitize" in s:
                analyze.append((_analysis_seconds(spans), factor))
            # free the run before the next reference kernel
            out = None
            if args.workload == "casper-sweep":
                # one in-process replica after every sweep, checked against
                # the report; its analysis is this workload's analyze_s
                factor = reference.scale()
                spans = cases.Spans()
                index = (timed - 1) % case.REPLICATIONS
                if tally.run(case.replica, index, spans) is not None:
                    analyze.append((_analysis_seconds(spans), factor))
    finally:
        case.close()
    return {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:20],
        "host": _summarize(ops, analyze, scaled=False),
        "reference": _summarize(ops, analyze, scaled=True),
        "sim_utilization": statistics.median([o["sim_utilization"] for o in ops] or [0.0]),
        "peak_rss_mb": _peak_rss_mb(),
        "operations": len(ops),
        "digests": sorted(digests),
    }


def traced_operation(case: Any, cases: Any, sweep: bool) -> dict[str, Any]:
    """One operation with a ``cProfile`` profiler per span.

    Returns the operation's outcome plus its ``spans``, the ``profiles`` that
    ran and, on ``casper-sweep``, the traced sweep's ``outcome`` and ``pool``
    profile (the sweep first, then replica 0 in this process).
    """
    names = ("build", "simulate", "sanitize", "profile", "persist", "sweep")
    profiles = {name: cProfile.Profile() for name in names}
    spans = cases.Spans(profiles)
    extra: dict[str, Any] = {}
    errors: list[str] = []
    if sweep:
        profiler = cases.PoolProfiler()
        swept = case.sweep(spans, profiler)
        errors = swept["errors"]
        extra = {
            "outcome": swept["outcome"],
            "pool": profiler.profile("replication", case.workers),
        }
        op = case.replica(0, spans)
    else:
        op = case.operation(spans)
    used = {name: p for name, p in profiles.items() if name in spans.seconds}
    return dict(op, errors=errors + op["errors"], spans=spans, profiles=used, **extra)


def retained_trace_bytes(case: Any, cases: Any, sweep: bool) -> int:
    """Bytes ``tracemalloc`` finds held by ``result.trace`` alone."""
    tracemalloc.start()
    try:
        spans = cases.Spans()
        op = case.replica(0, spans) if sweep else case.operation(spans)
        trace = op["result"].trace
        del op
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return with_trace - without


def layer_metrics(op: dict[str, Any], plain: Any, trace_bytes: int,
                  package: Path) -> dict[str, Any]:
    """The per-layer metrics of one traced operation.

    ``plain`` holds the spans of the same operation run untraced, the base
    of the tracing overhead.
    """
    profiles = op["profiles"]
    exact = [p for name, p in profiles.items() if name != "sweep"]
    sim = [profiles["simulate"]]
    events = layers.count_calls(sim, package, "sim/engine.py", "push")
    per_event = 1 / max(1, events)
    self_s = layers.self_seconds(list(profiles.values()), package)
    result = op["result"]
    metrics: dict[str, Any] = {
        f"{layer}.self_s": self_s[layer]
        for layer in ("engine", "machine", "executive", "granule", "trace",
                      "enablement", "workloads", "analysis")
    }
    metrics.update({
        "engine.events": events,
        "engine.lt_per_event": layers.count_calls(sim, package, "sim/engine.py", "__lt__")
        * per_event,
        "executive.tasks": result.tasks_executed,
        "granule.ops_per_event": layers.count_module(sim, package, "core/granule.py")
        * per_event,
        "granule.sorted_per_event": layers.count_builtin(sim, "sorted") * per_event,
        "trace.records_per_granule": len(result.trace.records) / op["granules"],
        "trace.bytes_per_granule": trace_bytes / op["granules"],
        "enablement.notify_calls": layers.count_calls(
            exact, package, "core/enablement.py", "notify"
        ),
        "enablement.composite_build_s": layers.cumulative(
            exact, package, "core/enablement.py", "build"
        ),
        "tracing_overhead": sum(op["spans"].seconds.values()) / sum(plain.seconds.values()),
    })
    for span in ("sanitize", "profile", "persist"):
        metrics[f"analysis.{span}_s"] = plain.seconds.get(span, 0.0)
    for span in ("build", "simulate", "sweep"):
        metrics[f"span.{span}_s"] = plain.seconds.get(span, 0.0)
    if "pool" in op:
        totals = op["pool"].totals()
        metrics.update({
            "sweep.compute_s": totals["compute"],
            "sweep.overhead_s": sum(v for k, v in totals.items() if k != "compute"),
            "sweep.effective_workers": op["pool"].effective_workers(),
            "sweep.batch_size": op["outcome"].batch_size,
            "sweep.restarts": op["outcome"].worker_restarts,
        })
    else:
        # serial, in-process replications: the sweep layer is bypassed
        metrics.update({
            "sweep.compute_s": 0.0,
            "sweep.overhead_s": 0.0,
            "sweep.effective_workers": 1.0,
            "sweep.batch_size": 1,
            "sweep.restarts": 0,
        })
    return metrics


def mode_trace(args: argparse.Namespace) -> dict[str, Any]:
    cases, case, setup_s = _setup(args)
    import repro

    package = Path(repro.__file__).parent
    sweep = args.workload == "casper-sweep"
    tally = Tally()
    try:
        if sweep:
            case.make_reference()
        # a warm-up pass, then the untraced pass: span timings and the
        # base of the tracing overhead
        for plain in (cases.Spans(), cases.Spans()):
            if sweep:
                tally.run(case.sweep, plain)
                tally.run(case.replica, 0, plain)
            else:
                tally.run(case.operation, plain)
        op = tally.run(traced_operation, case, cases, sweep)
        trace_bytes = retained_trace_bytes(case, cases, sweep)
    finally:
        case.close()
    if op is None:
        raise SystemExit("the traced operation did not complete")
    # the sweep's parent-side calls depend on timing; everything else is
    # a deterministic function of the inputs and is compared exactly
    exact = [p for name, p in op["profiles"].items() if name != "sweep"]
    return {
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:20],
        "metrics": layer_metrics(op, plain, trace_bytes, package),
        "counts": layers.call_counts(exact, package),
        "digest": op["digest"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    modes = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace}
    out = modes[args.mode](args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
