"""Supervised pool execution: deadlines, heartbeats, ladder, chaos, janitor.

The acceptance bar from the supervision PR:

* **Detection** — a deterministically injected hang is caught within its
  deadline (or its heartbeat window), the worker is preempted, and the
  report stays *byte-identical* to the fault-free serial run;
* **Bounded wall-clock** — a hang never blocks the sweep forever, even
  when it recurs on every attempt (the degradation ladder terminates at
  in-process serial, which cannot lose a worker);
* **Chaos** — a randomized but seeded mix of kills, hangs and slowdowns
  (:func:`repro.faults.chaos_plan`) still reproduces the reference bytes;
* **Hygiene** — the shm janitor reaps orphaned ``repro-map-*`` segments
  but never live or freshly created ones.
"""

from __future__ import annotations

import io
import os
import time

import pytest

from repro.faults import (
    FaultPlan,
    SweepWorkerHang,
    SweepWorkerSlow,
    chaos_plan,
)
from repro.obs import (
    EventBus,
    PoolDegraded,
    PoolTaskCompleted,
    PoolTaskHung,
    ProgressReporter,
    format_degraded,
    format_stall,
)
from repro.sweep import (
    GridSpec,
    SupervisionPolicy,
    Supervisor,
    SweepSpec,
    audit_shm_segments,
    parse_axis,
    reap_leaked_segments,
    run_grid,
    run_sweep,
)
from repro.sweep.supervise import (
    DEGRADATION_LADDER,
    degradation_ladder,
    heartbeat_path,
    stale_heartbeats,
)

SPEC = SweepSpec("identity", replications=4, seed=11, sim_workers=4)

#: Tight-but-honest knobs for the hang tests: detect within ~a second,
#: probe heartbeats an order of magnitude faster than their staleness bar.
FAST = dict(heartbeat_interval=0.1, poll_interval=0.02)


def reference_json() -> str:
    return run_sweep(SPEC, workers=1).report.to_json()


# ------------------------------------------------------------------ deadlines
class TestDeadlineHangs:
    def test_hang_detected_preempted_and_byte_identical(self):
        plan = FaultPlan(faults=(SweepWorkerHang(1),))
        policy = SupervisionPolicy(task_timeout=1.0, heartbeat_timeout=None, **FAST)
        t0 = time.perf_counter()
        outcome = run_sweep(
            SPEC, workers=2, fault_plan=plan, supervision=policy, pool="cold"
        )
        elapsed = time.perf_counter() - t0
        assert outcome.report.to_json() == reference_json()
        assert outcome.supervision is not None
        assert outcome.supervision["hangs_detected"] >= 1
        assert outcome.supervision["workers_preempted"] >= 1
        assert outcome.worker_restarts >= 1
        assert elapsed < 60, f"hang recovery took {elapsed:.1f}s — not bounded"

    def test_hung_event_published_with_deadline_reason(self):
        bus = EventBus()
        hung: list[PoolTaskHung] = []
        bus.subscribe(PoolTaskHung, hung.append)
        plan = FaultPlan(faults=(SweepWorkerHang(2),))
        policy = SupervisionPolicy(task_timeout=1.0, heartbeat_timeout=None, **FAST)
        outcome = run_sweep(
            SPEC, workers=2, fault_plan=plan, supervision=policy, bus=bus, pool="cold"
        )
        assert outcome.report.to_json() == reference_json()
        assert hung, "preemption must publish PoolTaskHung"
        assert all(e.reason == "deadline" for e in hung)
        assert all(e.elapsed >= e.deadline for e in hung)
        assert all(e.preempted_workers >= 1 for e in hung)

    def test_slowdown_within_deadline_is_not_a_hang(self):
        plan = FaultPlan(faults=(SweepWorkerSlow(1, delay_seconds=0.2),))
        policy = SupervisionPolicy(task_timeout=30.0, heartbeat_timeout=None, **FAST)
        outcome = run_sweep(
            SPEC, workers=2, fault_plan=plan, supervision=policy, pool="cold"
        )
        assert outcome.report.to_json() == reference_json()
        assert outcome.supervision["hangs_detected"] == 0
        assert outcome.worker_restarts == 0

    def test_supervised_no_fault_run_byte_identical(self):
        outcome = run_sweep(SPEC, workers=2, supervision=True, pool="cold")
        assert outcome.report.to_json() == reference_json()
        assert outcome.supervision == {
            "hangs_detected": 0,
            "workers_preempted": 0,
            "segments_reaped": 0,
            "degradations": [],
            "final_rung": "cold",
        }


# ------------------------------------------------------------------ heartbeats
class TestHeartbeats:
    @pytest.mark.parametrize("kind", ["sweep", "grid"])
    def test_frozen_worker_found_by_heartbeat_before_deadline(self, kind):
        # freeze_heartbeat simulates a process too wedged to run even its
        # watchdog thread; the 60s task deadline would eventually catch it,
        # but the stale stamp must trip first (within ~a second).  The
        # hang recurs on a second attempt, so the unit hangs twice.
        bus = EventBus()
        hung: list[PoolTaskHung] = []
        bus.subscribe(PoolTaskHung, hung.append)
        # staleness bar 2.5s: well past the warm pool's 1.0s stamp period
        # (no false trips on healthy workers), far under the 60s deadline
        plan = FaultPlan(faults=(SweepWorkerHang(1, attempts=2, freeze_heartbeat=True),))
        policy = SupervisionPolicy(task_timeout=60.0, heartbeat_timeout=2.5, **FAST)
        run, ref = (
            (run_sweep, SPEC) if kind == "sweep" else (run_grid, TestGridSupervision.GRID)
        )
        t0 = time.perf_counter()
        outcome = run(ref, workers=2, fault_plan=plan, supervision=policy, bus=bus)
        elapsed = time.perf_counter() - t0
        assert outcome.report.to_json() == run(ref, workers=1).report.to_json()
        assert elapsed < 45, f"heartbeat detection took {elapsed:.1f}s"
        assert [e.reason for e in hung].count("heartbeat") >= 2

    def test_stale_heartbeats_probe(self, tmp_path):
        directory = str(tmp_path)
        fresh, stale_pid, absent = 101, 102, 103
        now = time.time()
        for pid, age in ((fresh, 0.0), (stale_pid, 50.0)):
            path = heartbeat_path(directory, pid)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x")
            os.utime(path, (now - age, now - age))
        got = stale_heartbeats(directory, [fresh, stale_pid, absent], timeout=10.0, now=now)
        # a missing stamp is NOT stale — lazily spawned workers have none yet
        assert got == [stale_pid]


# ------------------------------------------------------------------ the ladder
class TestDegradationLadder:
    def test_ladder_shape(self):
        assert DEGRADATION_LADDER == ("warm", "cold", "narrow", "serial")
        assert degradation_ladder("warm", 4) == [
            ("warm", 4), ("cold", 4), ("narrow", 2), ("serial", 1),
        ]
        assert degradation_ladder("cold", 2) == [
            ("cold", 2), ("narrow", 1), ("serial", 1),
        ]

    def test_persistent_hang_degrades_to_serial_and_stays_identical(self):
        # a hang that recurs on every attempt exhausts every pooled rung;
        # the serial rung runs inline and must still complete the report
        bus = EventBus()
        degraded: list[PoolDegraded] = []
        bus.subscribe(PoolDegraded, degraded.append)
        plan = FaultPlan(faults=(SweepWorkerHang(1, attempts=10),))
        policy = SupervisionPolicy(
            task_timeout=0.8, heartbeat_timeout=None, rung_budget=0, **FAST
        )
        t0 = time.perf_counter()
        outcome = run_sweep(
            SPEC, workers=2, fault_plan=plan, supervision=policy, bus=bus, pool="cold"
        )
        elapsed = time.perf_counter() - t0
        assert outcome.report.to_json() == reference_json()
        assert outcome.supervision["final_rung"] == "serial"
        assert outcome.supervision["degradations"] == [
            ["cold", "narrow"], ["narrow", "serial"],
        ]
        assert [(e.from_rung, e.to_rung) for e in degraded] == [
            ("cold", "narrow"), ("narrow", "serial"),
        ]
        assert elapsed < 60, f"ladder rundown took {elapsed:.1f}s — not bounded"

    def test_degrade_disabled_raises_like_unsupervised(self):
        plan = FaultPlan(faults=(SweepWorkerHang(1, attempts=10),))
        policy = SupervisionPolicy(
            task_timeout=0.8, heartbeat_timeout=None, rung_budget=0,
            degrade=False, **FAST,
        )
        with pytest.raises(RuntimeError, match="max_restarts"):
            run_sweep(SPEC, workers=2, fault_plan=plan, supervision=policy, pool="cold")


# ------------------------------------------------------------------ chaos
class TestChaosHarness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chaos_matrix_reproduces_reference_bytes(self, seed):
        plan = chaos_plan(seed, SPEC.replications)
        policy = SupervisionPolicy(task_timeout=1.5, heartbeat_timeout=2.5, **FAST)
        t0 = time.perf_counter()
        outcome = run_sweep(SPEC, workers=2, fault_plan=plan, supervision=policy)
        elapsed = time.perf_counter() - t0
        assert outcome.report.to_json() == reference_json(), f"chaos seed {seed}"
        assert elapsed < 120, f"chaos seed {seed} ran {elapsed:.1f}s — not bounded"

    def test_chaos_plan_is_deterministic(self):
        a, b = chaos_plan(7, 32), chaos_plan(7, 32)
        assert a.to_dict() == b.to_dict()
        assert a.faults, "seed 7 over 32 units must draw at least one fault"
        assert chaos_plan(8, 32).to_dict() != a.to_dict()


# ------------------------------------------------------------------ grids
class TestGridSupervision:
    GRID = GridSpec(
        base=SweepSpec("identity", replications=2, seed=5, sim_workers=4),
        axes=(parse_axis("sim_workers=4,8"),),
    )

    def test_hung_and_slowed_cells_recover_byte_identical(self):
        ref = run_grid(self.GRID, workers=1).report.to_json()
        policy = SupervisionPolicy(task_timeout=1.2, heartbeat_timeout=None, **FAST)
        plan = FaultPlan(faults=(SweepWorkerHang(1), SweepWorkerSlow(0, 0.2)))
        outcome = run_grid(
            self.GRID, workers=2, fault_plan=plan, supervision=policy, pool="cold"
        )
        assert outcome.report.to_json() == ref
        assert outcome.supervision["hangs_detected"] >= 1
        assert outcome.worker_restarts >= 1


# ------------------------------------------------------------------ janitor
class TestShmJanitor:
    def test_audit_and_reap_orphans_honoring_grace(self, tmp_path):
        shm_dir = str(tmp_path)
        old, young = tmp_path / "repro-map-dead00", tmp_path / "repro-map-young0"
        other = tmp_path / "psm_other"  # foreign segment: never touched
        for p in (old, young, other):
            p.write_bytes(b"x")
        stamp = time.time() - 600
        os.utime(old, (stamp, stamp))

        audit = {r["segment"]: r for r in audit_shm_segments(shm_dir=shm_dir)}
        assert set(audit) == {"repro-map-dead00", "repro-map-young0"}
        assert audit["repro-map-dead00"]["age_seconds"] > 300
        assert not audit["repro-map-dead00"]["live"]

        reaped = reap_leaked_segments(grace_seconds=300.0, shm_dir=shm_dir)
        assert reaped == ["repro-map-dead00"]
        assert not old.exists() and young.exists() and other.exists()

    def test_live_owner_segments_are_never_reaped(self):
        np = pytest.importorskip("numpy")
        from repro.sweep.shm import SharedMapStore

        store = SharedMapStore.create({"m": np.arange(16, dtype=np.int64)})
        try:
            names = {d["segment"] for d in store.descriptors().values()}
            assert names
            reaped = reap_leaked_segments(grace_seconds=0.0)
            assert not (set(reaped) & names), "janitor reaped a live owner's segment"
            for name in names:
                assert os.path.exists(os.path.join("/dev/shm", name))
        finally:
            store.unlink()

    def test_negative_grace_rejected(self):
        with pytest.raises(ValueError):
            reap_leaked_segments(grace_seconds=-1.0)


# ------------------------------------------------------------------ policy/unit
class TestSupervisionPolicy:
    def test_defaults_are_valid(self):
        p = SupervisionPolicy()
        assert p.deadline_floor <= p.deadline_ceiling
        assert p.degrade and p.task_timeout is None

    @pytest.mark.parametrize("kwargs", [
        {"task_timeout": 0.0},
        {"task_timeout": float("inf")},
        {"deadline_factor": 0.0},
        {"deadline_floor": 5.0, "deadline_ceiling": 1.0},
        {"heartbeat_timeout": -1.0},
        {"heartbeat_interval": 0.0},
        {"poll_interval": 0.0},
        {"rung_budget": -1},
        {"shm_reap_grace": -0.1},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)


class TestSupervisorDeadlines:
    def test_task_timeout_overrides_estimate(self):
        sup = Supervisor(SupervisionPolicy(task_timeout=7.0), estimate=lambda: 100.0)
        assert sup.deadline_for("k") == 7.0

    def test_no_estimate_falls_back_to_ceiling(self):
        sup = Supervisor(SupervisionPolicy(deadline_ceiling=42.0), estimate=lambda: None)
        assert sup.deadline_for("k") == 42.0

    def test_derived_deadline_scales_with_batch_and_clamps(self):
        policy = SupervisionPolicy(
            deadline_factor=10.0, deadline_floor=2.0, deadline_ceiling=50.0
        )
        sup = Supervisor(policy, estimate=lambda: 0.5)
        sup.items_of = lambda key: {"small": 1, "big": 100}[key]
        assert sup.deadline_for("small") == 5.0  # 10 × 0.5 × 1
        assert sup.deadline_for("big") == 50.0  # clamped to ceiling

    def test_microsecond_estimates_clamp_to_floor(self):
        sup = Supervisor(SupervisionPolicy(deadline_floor=2.0), estimate=lambda: 1e-6)
        assert sup.deadline_for("k") == 2.0


# ------------------------------------------------------------------ progress
class TestProgressUnderSupervision:
    def test_stall_and_ladder_lines(self):
        sink = io.StringIO()
        bus = EventBus()
        reporter = ProgressReporter(sink, min_interval=0.0)
        reporter.subscribe(bus)
        bus.publish(PoolTaskCompleted(1.0, "replication", 1, 4, 0.0, 1.0))
        bus.publish(PoolTaskHung(2.0, "replication", "batch 1", 12.1, 10.0, "deadline", 2))
        bus.publish(PoolDegraded(3.0, "replication", "warm", "cold", 3))
        bus.publish(PoolTaskCompleted(4.0, "replication", 4, 4, 3.0, 4.0))
        reporter.close()
        lines = sink.getvalue().splitlines()
        assert "stall: replication batch 1 hung after 12.1s" in lines[1]
        assert "deadline 10.0s" in lines[1] and "preempting 2 workers" in lines[1]
        assert lines[2] == "[sweep] degraded: warm → cold after 3 restarts (retry_budget)"
        assert lines[3].endswith("| rung cold | 1 preempted")
        assert reporter.stalls_seen == 1 and reporter.rung == "cold"

    def test_heartbeat_stall_wording(self):
        event = PoolTaskHung(1.0, "cell", "worker:42", 30.0, 30.0, "heartbeat", 1)
        assert format_stall(event) == (
            "[sweep] stall: cell worker:42 hung after 30.0s "
            "(worker heartbeat stale) — preempting 1 worker"
        )

    def test_degraded_line_singular_restart(self):
        event = PoolDegraded(1.0, "replication", "narrow", "serial", 1)
        assert format_degraded(event) == (
            "[sweep] degraded: narrow → serial after 1 restart (retry_budget)"
        )
