"""Warm persistent pools, batched dispatch, and observed concurrency.

The load-bearing properties:

* **Reuse** — a second sweep on the same :class:`WarmPool` runs on the
  same worker processes (same generation, same PIDs) and a profiler
  attached to it attributes ~0 warmup;
* **Recovery** — a killed worker rebuilds the pool through the salvage
  driver and the report stays byte-identical;
* **Hygiene** — ``shutdown()`` leaves no worker processes behind and a
  shared-map grid leaves ``/dev/shm`` clean;
* **Byte-identity** — serial, cold-pool, warm-pool and every batch size
  (including kill salvage mid-batch) produce identical canonical JSON.
"""

from __future__ import annotations

import os
import subprocess
import sys
from glob import glob

import pytest

from repro.faults import FaultPlan, SweepWorkerKill
from repro.obs import PoolProfiler, PoolTaskCompleted, effective_workers_from_events
from repro.sweep import (
    CostModel,
    GridSpec,
    SweepSpec,
    WarmPool,
    map_configs,
    materialize_maps,
    parse_axis,
    run_grid,
    run_sweep,
)

SPEC = SweepSpec("identity", replications=4, seed=11, sim_workers=4)


def reference_json() -> str:
    return run_sweep(SPEC, workers=1).report.to_json()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    return True


def _square(x: int) -> int:
    return x * x


class TestWarmPoolLifecycle:
    def test_second_sweep_reuses_workers(self):
        pool = WarmPool()
        try:
            first = run_sweep(SPEC, workers=2, pool=pool)
            generation = pool.generation
            pids = pool.worker_pids()
            assert generation == 1 and pids
            second = run_sweep(SPEC, workers=2, pool=pool)
            assert pool.generation == generation, "reuse must not rebuild"
            assert pool.worker_pids() == pids, "reuse must not respawn workers"
            assert not first.pool_reused and second.pool_reused
            assert first.report.to_json() == second.report.to_json()
        finally:
            pool.shutdown()

    def test_warmup_attribution_zero_on_reused_pool(self):
        pool = WarmPool()
        try:
            run_sweep(SPEC, workers=2, pool=pool)  # spawn + warm the workers
            assert len(pool.worker_pids()) == 2
            profiler = PoolProfiler()
            run_sweep(SPEC, workers=2, pool=pool, profiler=profiler, batch_size=1)
            profile = profiler.profile("replication", 2)
            assert len(profile.tasks) == SPEC.replications
            # worker init stamps predate the profiled sweep's submissions,
            # so there is no spawn/import cost left to attribute
            assert profile.totals()["warmup"] == 0.0
        finally:
            pool.shutdown()

    def test_killed_worker_rebuilds_and_stays_byte_identical(self):
        pool = WarmPool()
        try:
            plan = FaultPlan(faults=(SweepWorkerKill(1),))
            outcome = run_sweep(SPEC, workers=2, fault_plan=plan, pool=pool)
            assert outcome.report.to_json() == reference_json()
            assert outcome.worker_restarts >= 1
            assert pool.generation >= 2, "salvage must have rebuilt the pool"
            # the rebuilt pool keeps serving clean sweeps
            clean = run_sweep(SPEC, workers=2, pool=pool)
            assert clean.report.to_json() == reference_json()
            assert clean.worker_restarts == 0
        finally:
            pool.shutdown()

    def test_shutdown_leaves_no_processes(self):
        pool = WarmPool()
        run_sweep(SPEC, workers=2, pool=pool)
        pids = pool.worker_pids()
        assert pids
        pool.shutdown()
        assert not pool.active and pool.worker_pids() == []
        assert pool.max_workers == 0
        for pid in pids:
            assert not _alive(pid), f"worker {pid} outlived shutdown()"

    def test_pool_grows_but_never_shrinks(self):
        pool = WarmPool()
        try:
            run_sweep(SPEC, workers=2, pool=pool)
            assert pool.max_workers == 2
            gen = pool.generation
            run_sweep(SPEC, workers=3, pool=pool)  # grow: rebuild at width 3
            assert pool.max_workers == 3 and pool.generation == gen + 1
            run_sweep(SPEC, workers=2, pool=pool)  # narrower: reuse, windowed
            assert pool.max_workers == 3 and pool.generation == gen + 1
        finally:
            pool.shutdown()

    def test_shared_map_grid_leaves_dev_shm_clean(self):
        grid = GridSpec(
            base=SweepSpec(
                "reverse-indirect", replications=2, seed=7, sim_workers=2,
                params={"n": 64},
            ),
            axes=(parse_axis("sim_workers=2,4"),),
        )
        shared = materialize_maps(grid)
        assert shared
        pool = WarmPool()
        try:
            outcome = run_grid(grid, workers=2, shared_maps=shared, pool=pool)
            assert outcome.shared_map_bytes > 0
        finally:
            pool.shutdown()
        leftovers = [p for p in glob("/dev/shm/repro-map-*") if os.path.exists(p)]
        assert leftovers == [], f"segments leaked: {leftovers}"


class TestByteIdentityAcrossDisciplines:
    def test_serial_cold_warm_and_batch_sizes_identical(self):
        ref = reference_json()
        pool = WarmPool()
        try:
            for batch_size in (None, 1, 2, 3, 5):
                outcome = run_sweep(SPEC, workers=2, batch_size=batch_size, pool=pool)
                assert outcome.report.to_json() == ref, f"batch_size={batch_size}"
            cold = run_sweep(SPEC, workers=2, pool="cold")
            assert cold.report.to_json() == ref
            assert not cold.pool_reused
        finally:
            pool.shutdown()

    def test_kill_salvage_mid_batch_identical(self):
        pool = WarmPool()
        try:
            plan = FaultPlan(faults=(SweepWorkerKill(0), SweepWorkerKill(3)))
            outcome = run_sweep(
                SPEC, workers=2, fault_plan=plan, batch_size=2, pool=pool,
                max_restarts=4,
            )
            assert outcome.report.to_json() == reference_json()
            assert outcome.worker_restarts >= 1
        finally:
            pool.shutdown()

    def test_salvage_storm_stays_byte_identical_without_leaks(self):
        # a kill that recurs on three consecutive attempts forces three
        # full salvage/rebuild/resubmit rounds through the same pool —
        # the storm must neither corrupt the report nor strand workers
        pool = WarmPool()
        try:
            plan = FaultPlan(faults=(SweepWorkerKill(1, attempts=3),))
            before = set(pool.worker_pids())
            outcome = run_sweep(
                SPEC, workers=2, fault_plan=plan, pool=pool, max_restarts=5
            )
            assert outcome.report.to_json() == reference_json()
            assert outcome.worker_restarts == 3
            assert pool.generation >= 4, "three storms = three rebuilds"
            survivors = set(pool.worker_pids())
            assert survivors, "the pool must end the storm rebuilt and serving"
        finally:
            pool.shutdown()
        for pid in before | survivors:
            assert not _alive(pid), f"worker {pid} leaked through the storm"

    def test_grid_batched_via_warm_pool_identical(self):
        grid = GridSpec(
            base=SweepSpec("identity", replications=2, seed=5, sim_workers=4),
            axes=(parse_axis("sim_workers=4,8"),),
        )
        ref = run_grid(grid, workers=1).report.to_json()
        pool = WarmPool()
        try:
            first = run_grid(grid, workers=2, batch_size=3, pool=pool)
            second = run_grid(grid, workers=2, pool=pool)
            assert first.report.to_json() == ref
            assert second.report.to_json() == ref
            assert first.batch_size == 3 and second.batch_size >= 1
            assert not first.pool_reused and second.pool_reused
        finally:
            pool.shutdown()


class TestAtexitOrdering:
    def test_interpreter_exit_drains_pool_before_unlinking_segments(self):
        # atexit runs LIFO: warm_pool() must import repro.sweep.shm (pinning
        # its unlink guard deeper in the stack) *before* registering
        # shutdown_warm_pool, so workers drain before their attached
        # segments vanish.  Regression check is functional: a driver that
        # exits without any explicit teardown must leave /dev/shm clean
        # and die quietly (a reversed order yanks maps from live workers).
        script = """
import numpy as np
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.pool import warm_pool
from repro.sweep.shm import SharedMapStore

pool = warm_pool()
store = SharedMapStore.create({"m": np.arange(32, dtype=np.int64)})
run_sweep(SweepSpec("identity", replications=2, seed=3, sim_workers=2),
          workers=2, pool=pool)
print(" ".join(sorted(d["segment"] for d in store.descriptors().values())))
"""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.split()
        assert names, "subprocess must have created shared segments"
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}"), f"{name} leaked"
        assert "Traceback" not in proc.stderr
        assert "leaked shared_memory" not in proc.stderr


class TestCostModel:
    def test_unobserved_key_defers_to_calibration(self):
        assert CostModel().pick_batch_size("k", 10, 2) is None

    def test_cheap_items_batch_up_to_fair_share(self):
        m = CostModel()
        m.observe("k", 1.0, 100)  # 10 ms/item -> mid-band wants ~30
        assert m.pick_batch_size("k", 10, 2) == 5  # ceil(10/2) fair cap

    def test_expensive_items_stay_singletons(self):
        m = CostModel()
        m.observe("k", 10.0, 10)  # 1 s/item: already past the band
        assert m.pick_batch_size("k", 10, 2) == 1

    def test_ewma_blends_observations(self):
        m = CostModel()
        m.observe("k", 1.0, 1)
        m.observe("k", 3.0, 1)
        assert m.estimate("k") == 2.0

    def test_degenerate_observations_ignored(self):
        m = CostModel()
        m.observe("k", 1.0, 0)
        m.observe("k", -1.0, 4)
        assert m.estimate("k") is None

    def test_zero_duration_floors_instead_of_zeroing_the_ewma(self):
        # timer granularity can report 0.0s for a real batch; a zero EWMA
        # would snap batch sizes to the fair-share cap AND derive
        # floor-clamped supervision deadlines that preempt healthy tasks
        m = CostModel()
        m.observe("k", 0.0, 100)
        assert m.estimate("k") == CostModel.MIN_PER_ITEM
        assert m.pick_batch_size("k", 10, 2) == 5  # fair cap, not infinity

    def test_zero_duration_cannot_collapse_a_real_estimate(self):
        m = CostModel()
        m.observe("k", 1.0, 1)
        m.observe("k", 0.0, 1)
        assert m.estimate("k") == pytest.approx(0.5, rel=1e-3)

    def test_non_finite_durations_ignored(self):
        m = CostModel()
        m.observe("k", float("nan"), 4)
        m.observe("k", float("inf"), 4)
        assert m.estimate("k") is None


class TestEffectiveWorkers:
    def test_full_overlap_counts_both_spans(self):
        events = [
            PoolTaskCompleted(1.0, "replication", 1, 2, 0.0, 1.0),
            PoolTaskCompleted(1.1, "replication", 2, 2, 0.0, 1.0),
        ]
        assert effective_workers_from_events(events) == 2.0

    def test_sequential_spans_are_one_worker(self):
        events = [
            PoolTaskCompleted(1.0, "replication", 1, 2, 0.0, 1.0),
            PoolTaskCompleted(2.0, "replication", 2, 2, 1.0, 2.0),
        ]
        assert effective_workers_from_events(events) == 1.0

    def test_unmeasured_spans_ignored(self):
        events = [PoolTaskCompleted(1.0, "replication", 1, 1)]
        assert effective_workers_from_events(events) == 1.0


class TestMapConfigs:
    def test_order_preserved_through_warm_pool(self):
        pool = WarmPool()
        try:
            xs = list(range(7))
            out = map_configs(_square, xs, workers=2, pool=pool)
            assert out == [x * x for x in xs]
            assert pool.tasks_dispatched >= len(xs)
        finally:
            pool.shutdown()

    def test_inline_when_single_worker(self):
        assert map_configs(_square, [3, 4], workers=1) == [9, 16]
