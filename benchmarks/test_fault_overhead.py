"""Fault-machinery overhead benchmark — the no-fault fast path must stay fast.

PR 4 threads fault injection and recovery through the executive scheduler
(`faults=`/`recovery=` on :class:`~repro.executive.ExecutiveSimulation`)
and a replay guard through :meth:`~repro.core.enablement.EnablementEngine.
notify`.  This bench holds both lines, with the armed-vs-off comparison
gated twice:

* **deterministically** — an *armed-empty* :class:`~repro.faults.FaultPlan`
  (all recovery machinery on, zero faults fire) must produce the identical
  makespan and completion counts as ``faults=None``, and may process at
  most 15% more simulator events (the global watchdog's exponentially
  backed-off health checks are the only addition; measured ~5%).  Event
  counts are exact and host-independent, so this gate cannot flake.
* **wall-clock** — median-of-trials paired ratio (ABBA-interleaved
  batches, median per trial, median across trials) must stay under 5%.
  The pairing cancels CPU-frequency drift; the nested medians shed
  scheduler spikes that a min-of-N comparison on a shared host picks up
  as fake regressions.
* ``enablement_notify`` — the replay guard added to ``notify`` sits on
  the hottest completion-processing path; throughput must stay within the
  repo's 2x regression gate against ``BENCH_core.baseline.json``.
* ``supervision`` — arming the pool supervisor (deadlines, heartbeat
  probes, polling ``wait``) on a fault-free warm-pool sweep must stay
  inside the same 5% paired-ratio gate, and the supervised report must
  be byte-identical to the unsupervised one.

``BENCH_QUICK=1`` shrinks the simulated workload for CI.  Run directly
(``python benchmarks/test_fault_overhead.py``) or via pytest; either path
writes ``BENCH_faults.json`` to the working directory.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.enablement import EnablementEngine
from repro.core.granule import GranuleSet
from repro.core.mapping import IdentityMapping, ReverseIndirectMapping
from repro.core.phase import ConstantCost, PhaseProgram, PhaseSpec
from repro.executive import ExecutiveSimulation
from repro.faults import FaultPlan
from repro.sweep import SupervisionPolicy, SweepSpec, WarmPool, run_sweep

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Granules per phase in the simulated workload.
N_GRANULES = 512 if QUICK else 2_048
N_PHASES = 3
N_WORKERS = 8
#: Simulations per timed batch, ABBA batches per trial, trials.
BATCH = 5 if QUICK else 10
ROUNDS = 4 if QUICK else 6
TRIALS = 3
#: Wall-clock gate: armed-empty over fault-free, median-of-trials.
MAX_OVERHEAD = 0.05
#: Deterministic gate: extra simulator events the armed machinery may add.
MAX_EVENT_OVERHEAD = 0.15
N_NOTIFY = 10_000

#: Supervised-sweep overhead: a fault-free warm-pool sweep with the
#: supervisor armed (default policy: cost-model deadlines, 30s heartbeat
#: bar, 50ms polling) against the identical unsupervised sweep.
SWEEP_SPEC = SweepSpec(
    "identity", replications=4 if QUICK else 8, seed=11, sim_workers=8
)
SWEEP_BATCH = 2 if QUICK else 4


def _program() -> PhaseProgram:
    phases = [
        PhaseSpec(f"p{i}", N_GRANULES, ConstantCost(1.0)) for i in range(N_PHASES)
    ]
    return PhaseProgram.chain(phases, [IdentityMapping()] * (N_PHASES - 1))


def _run(faults: FaultPlan | None):
    sim = ExecutiveSimulation(_program(), N_WORKERS, seed=0, faults=faults)
    result = sim.run()
    return sim, result


def _timed_batch(faults: FaultPlan | None) -> float:
    t0 = time.perf_counter()
    for _ in range(BATCH):
        _run(faults)
    return time.perf_counter() - t0


def _paired_ratio_trial() -> float:
    """One trial: ABBA-interleaved batches, median(armed)/median(off)."""
    offs: list[float] = []
    arms: list[float] = []
    for _ in range(ROUNDS):
        offs.append(_timed_batch(None))
        arms.append(_timed_batch(FaultPlan()))
        arms.append(_timed_batch(FaultPlan()))
        offs.append(_timed_batch(None))
    return statistics.median(arms) / statistics.median(offs)


def bench_scheduler_fault_free() -> dict:
    """Armed-empty fault plan vs ``faults=None`` on the same workload."""
    sim_off, r_off = _run(None)
    sim_armed, r_armed = _run(FaultPlan())
    # the armed run must be *result*-identical — overhead is bookkeeping only
    assert r_armed.makespan == r_off.makespan
    assert r_armed.granules_executed == r_off.granules_executed
    events_off = sim_off.sim.events_processed
    events_armed = sim_armed.sim.events_processed
    ratios = [_paired_ratio_trial() for _ in range(TRIALS)]
    return {
        "granules": N_GRANULES * N_PHASES,
        "workers": N_WORKERS,
        "batch": BATCH,
        "rounds": ROUNDS,
        "trials": ratios,
        "events_fault_free": events_off,
        "events_armed_empty": events_armed,
        "event_overhead_fraction": events_armed / events_off - 1.0,
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "makespan": r_off.makespan,
    }


def bench_enablement_notify() -> dict:
    """Replay-guarded ``notify`` throughput (same shape as the core bench)."""
    n = N_NOTIFY
    maps = {"M": np.random.default_rng(1).permutation(n)}
    mapping = ReverseIndirectMapping("M", fan_in=1)
    chunk = 50
    chunks = [GranuleSet.from_ranges([(i, min(i + chunk, n))]) for i in range(0, n, chunk)]
    engine = EnablementEngine(mapping, n, n, maps, group_size=1, indexed=True)
    t0 = time.perf_counter()
    for c in chunks:
        engine.notify(c)
    elapsed = time.perf_counter() - t0
    assert engine.enabled == GranuleSet.universe(n)
    return {"n_pred": n, "granules_per_second": n / elapsed}


def _timed_sweep_batch(pool: WarmPool, supervision: SupervisionPolicy | None) -> float:
    t0 = time.perf_counter()
    for _ in range(SWEEP_BATCH):
        run_sweep(SWEEP_SPEC, workers=2, pool=pool, supervision=supervision)
    return time.perf_counter() - t0


def _supervision_ratio_trial(pool: WarmPool, policy: SupervisionPolicy) -> float:
    """One trial: ABBA-interleaved batches, median(supervised)/median(off)."""
    offs: list[float] = []
    arms: list[float] = []
    for _ in range(ROUNDS):
        offs.append(_timed_sweep_batch(pool, None))
        arms.append(_timed_sweep_batch(pool, policy))
        arms.append(_timed_sweep_batch(pool, policy))
        offs.append(_timed_sweep_batch(pool, None))
    return statistics.median(arms) / statistics.median(offs)


def bench_supervision_overhead() -> dict:
    """Armed supervisor vs plain dispatch on the same warm pool."""
    policy = SupervisionPolicy()
    pool = WarmPool()
    try:
        # warm the workers and the cost model before any timing
        base = run_sweep(SWEEP_SPEC, workers=2, pool=pool)
        armed = run_sweep(SWEEP_SPEC, workers=2, pool=pool, supervision=policy)
        # supervision must be invisible in the report and fire nothing
        assert armed.report.to_json() == base.report.to_json()
        assert armed.supervision["hangs_detected"] == 0
        assert armed.supervision["degradations"] == []
        ratios = [_supervision_ratio_trial(pool, policy) for _ in range(TRIALS)]
    finally:
        pool.shutdown()
    return {
        "replications": SWEEP_SPEC.replications,
        "pool_workers": 2,
        "batch": SWEEP_BATCH,
        "rounds": ROUNDS,
        "trials": ratios,
        "overhead_fraction": statistics.median(ratios) - 1.0,
    }


def run_all() -> dict:
    return {
        "quick": QUICK,
        "scheduler_fault_free": bench_scheduler_fault_free(),
        "enablement_notify": bench_enablement_notify(),
        "supervision": bench_supervision_overhead(),
    }


def write_report(results: dict, path: str | Path = "BENCH_faults.json") -> None:
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")


def test_fault_overhead():
    results = run_all()
    write_report(results)
    fast = results["scheduler_fault_free"]
    assert fast["event_overhead_fraction"] < MAX_EVENT_OVERHEAD
    assert fast["overhead_fraction"] < MAX_OVERHEAD
    # replay guard stays inside the repo-wide 2x regression gate
    baseline_path = Path(__file__).parent / "BENCH_core.baseline.json"
    baseline = json.loads(baseline_path.read_text())
    floor = float(baseline["enablement_notify"]["granules_per_second"]) / 2.0
    assert results["enablement_notify"]["granules_per_second"] >= floor
    assert results["supervision"]["overhead_fraction"] < MAX_OVERHEAD
    print(json.dumps(results, indent=2, sort_keys=True))


if __name__ == "__main__":
    out = run_all()
    write_report(out)
    print(json.dumps(out, indent=2, sort_keys=True))
