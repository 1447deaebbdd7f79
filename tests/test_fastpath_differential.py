"""Golden executive fixtures and run invariants.

The executive's inner loop (:mod:`repro.executive.hotloop` plus the
machine's slotted dispatch) once had a closure-per-action reference
implementation beside it.  The reference's canonical outputs are frozen
as data in ``tests/data/executive_golden.json``: per case, the verbatim
``result_summary`` and the sha256 of the persisted trace, captured from
the reference (which the slotted loop matched byte for byte) with
description ids numbered from 1.  Every case here must still reproduce
them exactly.

The golden cases cover every workload, a 9-config matrix on identity and
checkerboard, seeded fault plans, telemetry, the sanitizer report, the
no-op management spans and a fixed sample of 40 randomized
configurations.  A Hypothesis property test then explores the whole
configuration space for invariants the system computes itself: every
granule executes, the sanitizer is clean, the idle waterfall tiles the
makespan, and an installed admission guard never fires.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.overlap import OverlapConfig, SplitStrategy
from repro.executive.extensions import Extensions
from repro.executive.scheduler import run_program
from repro.executive.splitting import TaskSizer
from repro.faults.plan import (
    FaultPlan,
    ProcessorCrash,
    RecoveryPolicy,
    StragglerSlowdown,
    TransientGranuleError,
)
from repro.lint import sanitize_result
from repro.lint.crosscheck import AdmissionGuard
from repro.obs.profile import analyze_run
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator
from repro.sim.events import EventKind
from repro.sim.machine import ExecutivePlacement, Machine
from repro.sim.persist import trace_to_dict
from repro.sim.trace import Trace
from repro.sweep.runner import build_workload, result_summary, workload_names

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "executive_golden.json").read_text(encoding="utf-8")
)["cases"]


def trace_digest(trace: Trace) -> str:
    text = json.dumps(trace_to_dict(trace), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(result) -> tuple[str, str]:
    """The two byte-exact artifacts a run is judged by."""
    return (
        json.dumps(result_summary(result), sort_keys=True, default=str),
        trace_digest(result.trace),
    )


def golden(case: str) -> tuple[str, str]:
    entry = GOLDEN[case]
    return json.dumps(entry["summary"], sort_keys=True), entry["trace_sha256"]


def run_case(workload, *, params=None, workers=8, **kw):
    program = build_workload(workload, params)
    return program, run_program(program, workers, **kw)


def assert_golden(case, workload, **kw):
    program, result = run_case(workload, **kw)
    assert canonical(result) == golden(case), f"{case} diverged from its golden fixture"
    return program, result


def assert_invariants(result, program) -> None:
    """What every finished run must satisfy, whatever its configuration."""
    total = sum(program.phases[name].n_granules for name in program.phase_sequence())
    assert result.granules_executed == total
    report = sanitize_result(result, program)
    assert report.ok, report.render_text()
    tolerance = 1e-9 * result.makespan
    for row in analyze_run(result).resources:
        tiled = row.busy_total + row.idle_total
        assert abs(tiled - result.makespan) <= tolerance, (row.resource, tiled)


# ------------------------------------------------------------------ workloads
class TestAllWorkloads:
    @pytest.mark.parametrize("workload", workload_names())
    def test_byte_identity(self, workload):
        assert_golden(f"workload/{workload}", workload, seed=3)


# ------------------------------------------------------------------ configs
CONFIGS = {
    "shared": dict(placement=ExecutivePlacement.SHARED),
    "middle-mgmt": dict(
        placement=ExecutivePlacement.SHARED,
        extensions=Extensions(middle_managers=2),
    ),
    "proximity": dict(extensions=Extensions(data_proximity=True, proximity_scan=4)),
    "lateral": dict(extensions=Extensions(lateral_handoff=True, lateral_cost=0.1)),
    "remote": dict(extensions=Extensions(remote_penalty=1.5)),
    "presplit": dict(config=OverlapConfig(split_strategy=SplitStrategy.PRESPLIT)),
    "successor-task": dict(
        config=OverlapConfig(split_strategy=SplitStrategy.SUCCESSOR_TASK)
    ),
    "barrier": dict(config=OverlapConfig.barrier()),
    "small-tasks": dict(sizer=TaskSizer(tasks_per_processor=8.0)),
}


class TestConfigMatrix:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("workload", ["identity", "checkerboard"])
    def test_byte_identity(self, workload, name):
        assert_golden(f"config/{workload}-{name}", workload, seed=3, **CONFIGS[name])


# ------------------------------------------------------------------ faults
#: REPRO_FAULT_SEED lets CI fan the fault matrix across extra seeds; seeds
#: without a golden fixture are held to the run invariants only.
FAULT_SEEDS = [7, 11, 0, 1, 2]
FAULT_SEEDS += [
    s
    for s in (int(v) for v in os.environ.get("REPRO_FAULT_SEED", "").split(",") if v.strip())
    if s not in FAULT_SEEDS
]


def fault_plan(fault_seed: int) -> FaultPlan:
    return FaultPlan(
        seed=fault_seed,
        faults=(
            ProcessorCrash(5, 40.0),
            TransientGranuleError(0.05),
            StragglerSlowdown(0.3, 2.5),
        ),
    )


class TestFaultInjection:
    @pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
    @pytest.mark.parametrize("workload", ["casper", "identity"])
    def test_byte_identity_under_faults(self, workload, fault_seed):
        case = f"faults/{workload}-{fault_seed}"
        kw = dict(
            seed=3,
            faults=fault_plan(fault_seed),
            recovery=RecoveryPolicy(watchdog_timeout=25.0),
        )
        if case in GOLDEN:
            program, result = assert_golden(case, workload, **kw)
        else:
            program, result = run_case(workload, **kw)
        assert_invariants(result, program)

    def test_byte_identity_with_telemetry_and_faults(self):
        plan = FaultPlan(seed=11, faults=(TransientGranuleError(0.05),))
        tel = Telemetry()
        assert_golden(
            "telemetry-faults/identity", "identity", seed=3, faults=plan, telemetry=tel
        )
        expected = GOLDEN["telemetry-faults/identity"]["events_published"]
        assert tel.bus.events_published == expected, "telemetry event count moved"


# ------------------------------------------------------------------ sanitizer
class TestSanitizer:
    def test_sanitizer_verdict_and_trace_identical(self):
        program, result = assert_golden("sanitizer/checkerboard", "checkerboard", seed=3)
        report = sanitize_result(result, program)
        entry = GOLDEN["sanitizer/checkerboard"]
        assert (report.ok, report.render_text()) == (
            entry["sanitizer_ok"],
            entry["sanitizer_render"],
        )
        assert report.ok, "sanitizer must pass on a clean run"


# ------------------------------------------------------------------ description ids
class TestDescriptionIds:
    @pytest.mark.parametrize("workload", ["casper", "identity", "checkerboard"])
    def test_back_to_back_runs_trace_identically(self, workload):
        """Description ids are numbered per simulation: a run's trace
        (whose ``succ-split:`` labels carry ids) depends only on its inputs,
        not on how many runs the process made before it."""
        first = run_program(build_workload(workload), 8, seed=3)
        second = run_program(build_workload(workload), 8, seed=3)
        assert canonical(first) == canonical(second)


# ------------------------------------------------------------------ sampled configs
def kwargs_from_config(cfg: dict) -> dict:
    """Rebuild run_program arguments from a golden ``sample/NN`` config."""
    kw = {
        "workers": cfg["workers"],
        "seed": cfg["seed"],
        "placement": ExecutivePlacement(cfg["placement"]),
        "config": OverlapConfig(split_strategy=SplitStrategy(cfg["split_strategy"])),
        "sizer": TaskSizer(tasks_per_processor=cfg["tasks_per_processor"]),
        "extensions": Extensions(
            middle_managers=cfg["middle_managers"],
            lateral_handoff=cfg["lateral_handoff"],
            data_proximity=cfg["data_proximity"],
            remote_penalty=cfg["remote_penalty"],
        ),
    }
    if cfg["faults"] is not None:
        kw["faults"] = FaultPlan(
            seed=cfg["faults"]["seed"],
            faults=(TransientGranuleError(cfg["faults"]["rate"]),),
        )
    return kw


def small_params(workload: str) -> dict:
    return {"n": 48} if workload == "identity" else {"grid_side": 24}


class TestRandomizedConfigs:
    def test_byte_identity(self):
        """A fixed, seeded sample of 40 configurations drawn from the
        :func:`run_config` space, each pinned to its golden fixture."""
        samples = sorted(case for case in GOLDEN if case.startswith("sample/"))
        assert len(samples) == 40
        for case in samples:
            cfg = GOLDEN[case]["config"]
            assert_golden(
                case,
                cfg["workload"],
                params=small_params(cfg["workload"]),
                **kwargs_from_config(cfg),
            )


# ------------------------------------------------------------------ invariants
@st.composite
def run_config(draw):
    workers = draw(st.integers(1, 12))
    placement = draw(st.sampled_from(list(ExecutivePlacement)))
    mm = draw(st.integers(1, min(3, workers)))
    kw = {
        "workers": workers,
        "seed": draw(st.integers(0, 50)),
        "placement": placement,
        "config": OverlapConfig(split_strategy=draw(st.sampled_from(list(SplitStrategy)))),
        "sizer": TaskSizer(
            tasks_per_processor=draw(st.sampled_from([1.0, 2.0, 4.0, 8.0]))
        ),
        "extensions": Extensions(
            middle_managers=mm,
            lateral_handoff=draw(st.booleans()),
            data_proximity=draw(st.booleans()),
            remote_penalty=draw(st.sampled_from([1.0, 1.5])),
        ),
    }
    if draw(st.booleans()):
        kw["faults"] = FaultPlan(
            seed=draw(st.integers(0, 20)),
            faults=(TransientGranuleError(draw(st.sampled_from([0.02, 0.1]))),),
        )
    return kw


def _seeded(test):
    """Under CI's REPRO_FAULT_SEED matrix, each seed explores its own,
    reproducible part of the space; locally Hypothesis picks freely."""
    value = os.environ.get("REPRO_FAULT_SEED", "").split(",")[0].strip()
    return seed(int(value))(test) if value else test


class TestInvariants:
    @_seeded
    @settings(max_examples=20, deadline=None)
    @given(kw=run_config(), workload=st.sampled_from(["identity", "checkerboard"]))
    def test_run_invariants(self, kw, workload):
        program = build_workload(workload, small_params(workload))
        guard = AdmissionGuard(program)
        result = run_program(program, kw.pop("workers"), admission_guard=guard, **kw)
        assert guard.checked == len(result.admission_decisions)
        assert_invariants(result, program)


# ------------------------------------------------------------------ noop spans
def run_mgmt_job(dedicated: bool, **job) -> tuple[Machine, Trace, list]:
    trace = Trace()
    placement = ExecutivePlacement.DEDICATED if dedicated else ExecutivePlacement.SHARED
    machine = Machine(Simulator(), trace, 2, placement)
    fired: list[bool] = []
    machine.submit_mgmt(0.0, lambda: fired.append(True), label="assign:P0", **job)
    machine.sim.run()
    return machine, trace, fired


class TestNoopMgmtSpans:
    """A no-op assign records no span, trace or obs records, while a
    genuine zero-duration job (ExecutiveCosts.free) still records
    everything — on a dedicated executive and on one hosted by a worker."""

    @pytest.mark.parametrize("dedicated", [False, True])
    def test_noop_job_records_nothing(self, dedicated):
        machine, trace, fired = run_mgmt_job(dedicated, noop=lambda: True)
        assert fired == [True], "on_done must still fire"
        assert machine.mgmt_jobs_done == 1
        assert trace.records == []
        assert list(trace.intervals()) == []
        placement = "dedicated" if dedicated else "shared"
        assert trace_digest(trace) == GOLDEN[f"noop/noop-job-{placement}"]["trace_sha256"]

    @pytest.mark.parametrize("dedicated", [False, True])
    def test_zero_duration_genuine_job_still_records(self, dedicated):
        _, trace, fired = run_mgmt_job(dedicated)
        assert fired == [True]
        kinds = [r.kind for r in trace.records]
        assert kinds == [EventKind.MGMT_START, EventKind.MGMT_END]
        # SHARED placement adds an interval on the server's host worker
        ivs = list(trace.intervals())
        assert sorted(iv.resource for iv in ivs) == (["EXEC"] if dedicated else ["EXEC", "P0"])
        assert all(iv.duration == 0.0 for iv in ivs)
        placement = "dedicated" if dedicated else "shared"
        assert (
            trace_digest(trace)
            == GOLDEN[f"noop/zero-duration-job-{placement}"]["trace_sha256"]
        )

    def test_drained_queue_assign_leaves_no_span(self):
        """End to end: runs always retire every queued assignment, and
        no zero-length mgmt interval labelled ``assign:*`` survives
        unless it did real work (real work pays ``costs.assign`` > 0)."""
        result = run_program(build_workload("identity"), 8, seed=3)
        for iv in result.trace.intervals():
            if iv.category == "mgmt" and iv.label.startswith("assign:"):
                assert iv.duration > 0.0, f"phantom zero-length assign span {iv}"
