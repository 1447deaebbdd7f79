"""The four benchmark workloads: inputs from a seed, one operation, its checks.

A workload drives the simulator only through public entry points
(``build_workload``, ``run_program`` with its default inner-loop paths,
``sanitize_result``, ``analyze_run``, ``trace_to_dict``, ``run_sweep``), so
no metric depends on a code path that a later change may delete.

Every operation returns the host seconds it spent in each step and the list
of checks it failed; an empty list means the operation's output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from typing import Any, Iterator

from repro.analysis import leftover_wave
from repro.core.overlap import OverlapConfig
from repro.core.phase import PhaseProgram, PhaseSpec
from repro.executive import ExecutiveCosts, TaskSizer, run_program
from repro.lint import sanitize_result
from repro.metrics.rundown import rundown_report
from repro.obs.profile import PoolProfiler, analyze_run
from repro.sim.persist import result_summary, trace_to_dict
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.pool import shutdown_warm_pool
from repro.sweep.runner import build_workload
from repro.sweep.runner import result_summary as replication_summary

__all__ = ["WORKLOADS", "make", "digest", "total_granules", "Spans"]


def digest(obj: Any) -> str:
    """Short SHA-256 of ``obj``'s canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def total_granules(program: PhaseProgram) -> int:
    """Input granules of one program run: a property of the input alone."""
    return sum(spec.n_granules for spec in program.phases.values())


class Spans:
    """``perf_counter`` spans around the calls the benchmark makes.

    ``with spans("simulate"): ...`` adds the block's host seconds to
    ``spans.seconds["simulate"]``; ``profiles`` optionally maps a span name
    to a :class:`cProfile.Profile` switched on for exactly that block.
    """

    def __init__(self, profiles: dict[str, Any] | None = None) -> None:
        self.seconds: dict[str, float] = {}
        self.profiles = profiles or {}

    @contextlib.contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        prof = self.profiles.get(name)
        t0 = time.perf_counter()
        if prof is not None:
            prof.enable()
        try:
            yield
        finally:
            if prof is not None:
                prof.disable()
            elapsed = time.perf_counter() - t0
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


def _analyze(program: PhaseProgram, result: Any, spans: Spans) -> list[str]:
    """What ``repro stats --sanitize`` does after a run, plus a persist.

    Sanitize the executed trace, build the idle waterfall, and serialize
    the run the way ``save_result`` does (in memory, so disk speed is not
    measured).  Returns the failed checks.
    """
    errors = []
    with spans("sanitize"):
        report = sanitize_result(result, program)
    with spans("profile"):
        waterfall = analyze_run(result)
    with spans("persist"):
        payload = json.dumps(
            {"summary": result_summary(result), "trace": trace_to_dict(result.trace)}
        )
    if not report.ok:
        errors.append(f"sanitizer reported {len(report.findings)} finding(s)")
    tol = 1e-9 * max(1.0, waterfall.makespan)
    for row in waterfall.resources:
        if abs(row.busy_total + row.idle_total - waterfall.makespan) > tol:
            errors.append(f"waterfall row {row.resource} does not tile the makespan")
            break
    if not payload:
        errors.append("empty persisted payload")
    return errors


class InProcess:
    """A workload whose operation is one serial replication in this process:
    build the program, simulate it, check it, analyse it."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference_digest: str | None = None

    def setup(self) -> None:
        """Build the inputs once (timed as part of set-up)."""
        self.build()

    def build(self) -> PhaseProgram:
        raise NotImplementedError

    def simulate(self, program: PhaseProgram) -> Any:
        raise NotImplementedError

    def check(self, program: PhaseProgram, result: Any) -> list[str]:
        """Workload-specific checks beyond the common ones."""
        return []

    def operation(self, spans: Spans) -> dict[str, Any]:
        """One replication; returns its timings, facts and failed checks."""
        with spans("build"):
            program = self.build()
        with spans("simulate"):
            result = self.simulate(program)
        errors = self._common_checks(program, result)
        errors += self.check(program, result)
        errors += _analyze(program, result, spans)
        return {
            "granules": total_granules(program),
            "sim_utilization": result.utilization,
            "digest": self.summary_digest(result),
            "errors": errors,
            "result": result,
        }

    def summary_digest(self, result: Any) -> str:
        return digest(result_summary(result))

    def _common_checks(self, program: PhaseProgram, result: Any) -> list[str]:
        errors = []
        if result.granules_executed != total_granules(program):
            errors.append(
                f"granules_executed {result.granules_executed} != "
                f"{total_granules(program)} input granules"
            )
        # repeated operations on the same inputs must simulate identically
        d = self.summary_digest(result)
        if self.reference_digest is None:
            self.reference_digest = d
        elif d != self.reference_digest:
            errors.append(f"result summary digest {d} != first run {self.reference_digest}")
        return errors

    def close(self) -> None:
        pass


class RundownWave(InProcess):
    """The paper's T2c checkerboard phase at 1/64 scale."""

    name = "rundown-wave"
    N_PROCESSORS = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # 524 288 / 64 = 8192 computations: 8 full waves and 192 left over.
        # The seed moves the leftover within 142..242 so every run has a
        # partial final wave whose idle count the closed form predicts.
        self.n = 8192 + random.Random(seed).randint(-50, 50)

    def build(self) -> PhaseProgram:
        return PhaseProgram([PhaseSpec("checkerboard", self.n)])

    def simulate(self, program: PhaseProgram) -> Any:
        return run_program(
            program,
            self.N_PROCESSORS,
            costs=ExecutiveCosts.free(),
            sizer=TaskSizer(tasks_per_processor=1e9, max_task_size=1),
            seed=self.seed,
            max_events=20_000_000,
        )

    def check(self, program: PhaseProgram, result: Any) -> list[str]:
        wave = leftover_wave(self.n, self.N_PROCESSORS)
        errors = []
        if result.makespan != wave.waves:
            errors.append(f"makespan {result.makespan} != {wave.waves} waves")
        report = rundown_report(result, 0)
        idle = report.idle_time if report is not None else 0.0
        if abs(idle - wave.idle_processors) > 1e-9:
            errors.append(f"final-wave idle {idle} != {wave.idle_processors} processors")
        return errors


class CasperOverlap(InProcess):
    """The 22-phase CASPER suite with management costs and overlap on."""

    name = "casper-overlap"
    #: 16x the built-in granule counts on 64 processors, with executive
    #: costs at 1 % of the defaults: the executive is busy about a quarter
    #: of the makespan, so the rundown policy, not management, sets it.
    GRANULE_SCALE = 16
    N_PROCESSORS = 64
    COST_SCALE = 0.01

    def build(self) -> PhaseProgram:
        return build_workload("casper", {"granule_scale": self.GRANULE_SCALE})

    def simulate(self, program: PhaseProgram) -> Any:
        return run_program(
            program,
            self.N_PROCESSORS,
            costs=ExecutiveCosts().scaled(self.COST_SCALE),
            seed=self.seed,
        )


class IndirectGather(InProcess):
    """Two-phase reverse-indirect ``B(I) += A(IMAP(J, I))`` with a large map."""

    name = "indirect-gather"
    N = 50_000
    N_PROCESSORS = 8

    def build(self) -> PhaseProgram:
        return build_workload("reverse-indirect", {"n": self.N})

    def simulate(self, program: PhaseProgram) -> Any:
        return run_program(program, self.N_PROCESSORS, seed=self.seed)


class CasperSweep:
    """A replication fan of CASPER on the warm pool.

    The operation is one :func:`run_sweep` of :attr:`REPLICATIONS`
    replications; its report must equal, byte for byte, the serial
    (``workers=1``) report made once after set-up.  :meth:`replica`
    re-runs one replication in this process, to check it against the
    report and to analyse it like the other workloads.
    """

    name = "casper-sweep"
    REPLICATIONS = 16
    SIM_WORKERS = 8

    def __init__(self, seed: int, workers: int) -> None:
        self.seed = seed
        self.workers = workers
        self.spec = SweepSpec(
            "casper", replications=self.REPLICATIONS, seed=seed, sim_workers=self.SIM_WORKERS
        )
        self.granules_per_replication = 0
        self.reference_json: str | None = None
        self._replications: list[dict[str, Any]] = []

    def setup(self) -> None:
        """Build the inputs, then spawn the warm pool and calibrate its cost
        model with one single-replication task per worker."""
        self.granules_per_replication = total_granules(build_workload("casper"))
        if self.workers > 1:
            warmup = SweepSpec(
                "casper", replications=self.workers, seed=self.seed,
                sim_workers=self.SIM_WORKERS,
            )
            run_sweep(warmup, workers=self.workers)

    def make_reference(self) -> None:
        """The serial report every sweep must reproduce (not timed)."""
        outcome = run_sweep(self.spec, workers=1)
        self.reference_json = outcome.report.to_json()
        self._replications = outcome.report.replications

    def sweep(self, spans: Spans, profiler: PoolProfiler | None = None) -> dict[str, Any]:
        with spans("sweep"):
            outcome = run_sweep(self.spec, workers=self.workers, profiler=profiler)
        report = outcome.report
        errors = []
        if report.to_json() != self.reference_json:
            errors.append("sweep report differs from the serial report")
        for rep in report.replications:
            if rep["granules_executed"] != self.granules_per_replication:
                errors.append(
                    f"replication {rep['replication']} executed "
                    f"{rep['granules_executed']} granules"
                )
                break
        utils = [rep["utilization"] for rep in report.replications]
        return {
            "granules": self.granules_per_replication * len(report.replications),
            "replications": len(report.replications),
            "sim_utilization": sum(utils) / len(utils),
            "digest": digest(report.replications),
            "errors": errors,
            "outcome": outcome,
        }

    def replica(self, index: int, spans: Spans) -> dict[str, Any]:
        """Replication ``index`` run in this process, checked and analysed."""
        expected = self._replications[index]
        with spans("build"):
            program = build_workload("casper")
        with spans("simulate"):
            result = run_program(
                program,
                self.spec.sim_workers,
                config=OverlapConfig(),
                sizer=TaskSizer(self.spec.tasks_per_processor),
                seed=expected["seed"],
            )
        errors = []
        if result.granules_executed != total_granules(program):
            errors.append("replica executed the wrong number of granules")
        mine = {"replication": index, "seed": expected["seed"], **replication_summary(result)}
        if digest(mine) != digest(expected):
            errors.append(f"in-process replication {index} differs from the sweep report")
        errors += _analyze(program, result, spans)
        return {
            "granules": total_granules(program),
            "sim_utilization": result.utilization,
            "digest": digest(result_summary(result)),
            "errors": errors,
            "result": result,
        }

    def close(self) -> None:
        shutdown_warm_pool()


WORKLOADS = {
    cls.name: cls for cls in (RundownWave, CasperOverlap, IndirectGather, CasperSweep)
}


def make(name: str, seed: int, workers: int) -> Any:
    """The named workload for ``seed``; ``workers`` sizes the sweep pool."""
    cls = WORKLOADS[name]
    if cls is CasperSweep:
        return CasperSweep(seed, workers)
    return cls(seed)
