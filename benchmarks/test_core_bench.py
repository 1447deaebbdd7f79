"""Core microbenchmarks — the repo's perf trajectory anchor.

Measures the simulator's hot paths and emits ``BENCH_core.json``
so CI can hold the line (see ``benchmarks/check_bench_regression.py`` and
docs/PERFORMANCE.md):

* ``enablement_notify`` — indirect-mapping completion processing through
  the inverted predecessor→group index, against the full-counter-scan
  reference (``indexed=False``), at the paper-sized worst case
  n_pred = n_succ = 10 000, group_size = 1;
* ``composite_build`` — vectorized composite-map generation against the
  generic per-group ``required_for`` loop;
* ``granule_algebra`` — ``union_all`` bulk union against a repeated-``|``
  fold, plus two-pointer ``|`` merge throughput;
* ``event_queue`` — push/pop/cancel throughput with tombstone compaction;
* ``sweep_scaling`` — `repro.sweep` replication fan, serial vs 4 host
  workers, with efficiency normalized by *available* cores (a 1-core CI
  runner cannot exhibit real speedup; normalizing keeps the metric
  meaningful everywhere);
* ``simulate_throughput`` — end-to-end events/s of one full simulation on
  a dispatch-heavy configuration, interleaved with the fixed reference
  kernel of ``perfbench/reference.py``.  ``events_per_kernel`` (events
  per second × kernel seconds) is host-speed-normalized;
  ``check_bench_regression.py`` holds it at >= 1.3x the closure-based
  reference executive's value recorded in the baseline.

``BENCH_QUICK=1`` shrinks problem sizes for CI. Run directly
(``python benchmarks/test_core_bench.py``) or via pytest; either path
writes ``BENCH_core.json`` to the working directory.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.enablement import CompositeGranuleMap, EnablementEngine
from repro.core.granule import GranuleSet
from repro.core.mapping import EnablementMapping, ReverseIndirectMapping
from repro.sim.engine import EventQueue
from repro.sweep import SweepSpec, run_sweep

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: n_pred = n_succ for the enablement benches.  NOT shrunk in quick mode:
#: 10 000 × group_size 1 is the acceptance-criteria configuration, and the
#: speedup ratio only grows with n — shrinking would loosen the gate.
N_NOTIFY = 10_000
N_ALGEBRA = 1_000 if QUICK else 5_000
N_EVENTS = 20_000 if QUICK else 100_000
SWEEP_REPS = 2 if QUICK else 4


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ------------------------------------------------------------------ enablement
def bench_enablement_notify() -> dict:
    """Completion-processing throughput, indexed vs full scan."""
    n = N_NOTIFY
    maps = {"M": np.random.default_rng(1).permutation(n)}
    mapping = ReverseIndirectMapping("M", fan_in=1)
    chunk = 50
    chunks = [GranuleSet.from_ranges([(i, min(i + chunk, n))]) for i in range(0, n, chunk)]

    engines = {
        "indexed": EnablementEngine(mapping, n, n, maps, group_size=1, indexed=True),
        "scan": EnablementEngine(mapping, n, n, maps, group_size=1, indexed=False),
    }
    times = {}
    for name, engine in engines.items():
        times[name] = _time(lambda e=engine: [e.notify(c) for c in chunks])
    assert engines["indexed"].enabled == engines["scan"].enabled
    speedup = times["scan"] / times["indexed"]
    return {
        "n_pred": n,
        "n_succ": n,
        "group_size": 1,
        "granules_per_second": n / times["indexed"],
        "granules_per_second_scan": n / times["scan"],
        "speedup_vs_scan": speedup,
    }


def bench_composite_build() -> dict:
    """Composite-map generation: vectorized vs generic per-group loop."""
    n = N_NOTIFY
    maps = {"M": np.random.default_rng(2).integers(0, n, size=(2, n))}
    mapping = ReverseIndirectMapping("M", fan_in=2)
    t_fast = _time(lambda: CompositeGranuleMap.build(mapping, n, n, maps, group_size=1))

    class _Generic(ReverseIndirectMapping):
        # re-expose the base-class per-group loop as the reference
        required_for_many = EnablementMapping.required_for_many

    generic = _Generic("M", fan_in=2)
    t_slow = _time(lambda: CompositeGranuleMap.build(generic, n, n, maps, group_size=1))
    return {
        "n": n,
        "groups_per_second": n / t_fast,
        "groups_per_second_generic": n / t_slow,
        "speedup_vs_generic": t_slow / t_fast,
    }


# ------------------------------------------------------------------ granules
def bench_granule_algebra() -> dict:
    """Bulk union and two-pointer merge throughput."""
    k = N_ALGEBRA
    singles = [GranuleSet.from_ranges([(3 * i, 3 * i + 2)]) for i in range(k)]

    t_bulk = _time(lambda: GranuleSet.union_all(singles))

    def fold():
        acc = GranuleSet.empty()
        for s in singles:
            acc = acc | s
        return acc

    t_fold = _time(fold)
    assert GranuleSet.union_all(singles) == fold()

    a = GranuleSet.from_ranges([(4 * i, 4 * i + 2) for i in range(k)])
    b = GranuleSet.from_ranges([(4 * i + 2, 4 * i + 4) for i in range(k)])
    rounds = 20
    t_or = _time(lambda: [a | b for _ in range(rounds)])
    return {
        "sets": k,
        "union_all_sets_per_second": k / t_bulk,
        "fold_sets_per_second": k / t_fold,
        "union_all_speedup_vs_fold": t_fold / t_bulk,
        "or_ranges_per_second": rounds * 2 * k / t_or,
    }


# ------------------------------------------------------------------ events
def bench_event_queue() -> dict:
    """Push/pop/cancel throughput with a 50% cancellation load."""
    n = N_EVENTS
    rng = np.random.default_rng(3)
    times = rng.random(n) * 1000.0
    cancel_mask = rng.random(n) < 0.5

    def run():
        q = EventQueue()
        handles = []
        for i in range(n):
            handles.append(q.push(float(times[i]), lambda: None))
            if cancel_mask[i] and handles:
                handles.pop(len(handles) // 2).cancel()
            if i % 16 == 0:
                len(q)  # the O(1) len the scheduler polls
        drained = 0
        while q.pop() is not None:
            drained += 1
        return drained

    t = _time(run)
    return {"events": n, "events_per_second": n / t}


# ------------------------------------------------------------------ sweep
def bench_sweep_scaling() -> dict:
    """Replication-fan scaling on the CASPER workload.

    Four runs of the same spec: serial reference, a **cold** throwaway
    pool (pays worker spawn on the measured path), the **warm**
    persistent pool in steady state (prewarmed and cost-calibrated by an
    untimed run — what a parameter study actually experiences from its
    second sweep on), and a profiled warm run that attributes pool
    overhead and measures *observed* concurrency from task-span overlap.

    The headline ``speedup`` is serial/warm.  Efficiency divides it by
    ``available_cores = min(pool, cpu cores)`` because a pool cannot
    outrun the machine it runs on — a 1-core CI runner cannot exhibit
    real speedup, and ``check_bench_regression.py`` scales its floor by
    the same core count.
    """
    from repro.obs import EventBus, PoolProfiler, PoolTaskCompleted, effective_workers_from_events

    pool = 4
    # streams=2 doubles per-replication work so pool startup amortizes;
    # too-small fans would measure fork overhead, not scaling
    spec = SweepSpec(
        "casper", replications=SWEEP_REPS * pool, seed=0, sim_workers=8, streams=2
    )
    serial = run_sweep(spec, workers=1)

    cold = run_sweep(spec, workers=pool, pool="cold")
    assert serial.report.to_json() == cold.report.to_json()

    # untimed prewarm: spawns the warm pool's workers and calibrates the
    # cost model, so the timed run below sees the steady state
    run_sweep(spec, workers=pool)
    warm = run_sweep(spec, workers=pool)
    assert serial.report.to_json() == warm.report.to_json()
    assert warm.pool_reused, "second warm run must reuse the pool"

    profiler = PoolProfiler()
    bus = EventBus()
    events: list[PoolTaskCompleted] = []
    bus.subscribe(PoolTaskCompleted, events.append)
    profiled = run_sweep(spec, workers=pool, profiler=profiler, bus=bus)
    assert serial.report.to_json() == profiled.report.to_json()
    profile = profiler.profile("replication", pool)
    warmup_seconds = profile.totals()["warmup"]

    available = min(pool, os.cpu_count() or 1)
    speedup = serial.elapsed_seconds / warm.elapsed_seconds
    return {
        "replications": spec.replications,
        "pool_workers": pool,
        "available_cores": available,
        "serial_seconds": serial.elapsed_seconds,
        "cold_seconds": cold.elapsed_seconds,
        "parallel_seconds": warm.elapsed_seconds,
        "speedup": speedup,
        "cold_speedup": serial.elapsed_seconds / cold.elapsed_seconds,
        "parallel_efficiency": speedup / available,
        "batch_size": warm.batch_size,
        "pool_reused": warm.pool_reused,
        "effective_workers": effective_workers_from_events(events),
        "warmup_seconds_on_reused_pool": warmup_seconds,
    }


# ------------------------------------------------------------------ simulation
def _reference_kernel():
    """The benchmark's fixed host-speed kernel, ``perfbench/reference.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_simulate_throughput() -> dict:
    """End-to-end simulation events/s, normalized by a reference kernel.

    Dispatch-heavy configuration: many small tasks on a mid-size machine,
    so per-event executive dispatch — not granule algebra — dominates.
    Each timed run is paired with one run of the reference kernel, in
    ABBA order (kernel then simulation, then simulation then kernel), so
    both halves of a pair see the same host speed.  A pair's
    ``events / run seconds × kernel seconds`` is the throughput a host
    that runs the kernel in one second would show; the gated
    ``events_per_kernel`` is the median over pairs.  The baseline records
    the same statistic for the closure-based reference executive, measured
    before it was deleted.
    """
    from repro.executive.scheduler import run_program
    from repro.executive.splitting import TaskSizer
    from repro.sweep.runner import build_workload

    reference = _reference_kernel()
    workers, tpp, n = 32, 32.0, 4096
    # odd pair counts keep the median a real middle observation
    pairs = 11 if QUICK else 21
    program = build_workload("identity", {"n": n})

    def run_once():
        return run_program(
            program, workers, seed=3, sizer=TaskSizer(tasks_per_processor=tpp)
        )

    events = len(run_once().trace.records)  # untimed warmup
    reference.kernel_seconds()
    run_seconds, per_kernel = [], []
    for k in range(pairs):
        if k % 2 == 0:
            kernel = reference.kernel_seconds()
            elapsed = _time(run_once)
        else:
            elapsed = _time(run_once)
            kernel = reference.kernel_seconds()
        run_seconds.append(elapsed)
        per_kernel.append(events / elapsed * kernel)
    q1, median, q3 = statistics.quantiles(per_kernel, n=4)
    return {
        "workers": workers,
        "tasks_per_processor": tpp,
        "n_granules": n,
        "events": events,
        "pairs": pairs,
        "events_per_second": events / min(run_seconds),
        "events_per_kernel": median,
        "events_per_kernel_q1": q1,
        "events_per_kernel_q3": q3,
    }


# ------------------------------------------------------------------ driver
BENCHES = {
    "enablement_notify": bench_enablement_notify,
    "composite_build": bench_composite_build,
    "granule_algebra": bench_granule_algebra,
    "event_queue": bench_event_queue,
    "sweep_scaling": bench_sweep_scaling,
    "simulate_throughput": bench_simulate_throughput,
}


def run_all() -> dict:
    results = {"quick": QUICK}
    for name, fn in BENCHES.items():
        results[name] = fn()
    return results


def write_report(results: dict, path: str | Path = "BENCH_core.json") -> None:
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")


# pytest entry point — also emits the report so `pytest benchmarks/` covers CI
def test_core_bench():
    from benchmarks.check_bench_regression import simulate_throughput_floor

    results = run_all()
    write_report(results)
    assert results["enablement_notify"]["speedup_vs_scan"] >= 5.0
    assert results["composite_build"]["speedup_vs_generic"] >= 1.5
    assert results["granule_algebra"]["union_all_speedup_vs_fold"] >= 2.0
    assert results["event_queue"]["events_per_second"] > 10_000
    assert results["sweep_scaling"]["parallel_efficiency"] >= 0.5
    assert results["sweep_scaling"]["pool_reused"]
    # a reused warm pool has no spawn/import cost left to attribute
    assert results["sweep_scaling"]["warmup_seconds_on_reused_pool"] < 0.1
    assert results["sweep_scaling"]["effective_workers"] >= 1.0
    baseline = json.loads(
        (Path(__file__).parent / "BENCH_core.baseline.json").read_text(encoding="utf-8")
    )
    sim = results["simulate_throughput"]
    floor = simulate_throughput_floor(baseline)
    assert sim["events_per_kernel"] >= floor, (sim, floor)
    print(json.dumps(results, indent=2, sort_keys=True))


if __name__ == "__main__":
    out = run_all()
    write_report(out)
    print(json.dumps(out, indent=2, sort_keys=True))
