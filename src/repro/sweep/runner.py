"""The sweep engine: process-pool replication fans and grids with
deterministic output.

A replication fan is a grid with the single point ``{}``.  :func:`run_sweep`
and :func:`~repro.sweep.grid.run_grid` only build their units
``(unit id, point, replication, seed)`` and summary labels; one driver
runs both, with one worker entry, one cell runner, one pool loop
(:func:`run_pool_tasks`) and fault injection from a
:class:`~repro.faults.FaultPlan` only.

Design constraints, in order:

1. **Determinism.**  A report must not depend on how the work was
   scheduled.  Replication seeds are derived (never drawn), summaries are
   keyed by replication index, and serialization is canonical
   (sorted keys, fixed separators, no host timing inside the report).
2. **Picklability.**  Phase programs hold closures (cost models, map
   generators), so programs never cross the process boundary — the worker
   rebuilds its program from ``(workload name, params, seed)``.
3. **Low ceremony.**  ``run_sweep(SweepSpec("casper", replications=8),
   workers=4)`` is the whole API for the common case.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.obs.events import EventBus, PoolTaskCompleted
from repro.sweep.pool import WarmPool, cost_model, warm_pool
from repro.sweep.supervise import (
    SupervisionPolicy,
    Supervisor,
    degradation_ladder,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan
    from repro.obs.profile import PoolProfiler

__all__ = [
    "SweepSpec",
    "SweepReport",
    "SweepOutcome",
    "SweepWorkerDied",
    "run_sweep",
    "run_replication",
    "run_pool_tasks",
    "replication_seed",
    "map_configs",
    "workload_names",
]


# ---------------------------------------------------------------------- workloads
def _build_casper(params: dict[str, Any]):
    from repro.workloads.casper import casper_suite

    return casper_suite(**params)


def _build_checkerboard(params: dict[str, Any]):
    from repro.workloads.checkerboard import checkerboard_program

    defaults = dict(grid_side=96, rows_per_granule=4, n_iterations=2, cost_per_cell=0.02)
    defaults.update(params)
    return checkerboard_program(**defaults)


def _build_navier_stokes(params: dict[str, Any]):
    from repro.workloads.navier_stokes import navier_stokes_program

    defaults = dict(n=48, n_jacobi=4, rows_per_granule=2, cost_per_cell=0.02)
    defaults.update(params)
    return navier_stokes_program(**defaults)


def _build_particles(params: dict[str, Any]):
    from repro.workloads.particles import particle_program

    defaults = dict(n=96, n_neighbors=4, n_steps=3)
    defaults.update(params)
    return particle_program(**defaults)


def _build_synthetic(kind: str, params: dict[str, Any]):
    from repro.core.mapping import IdentityMapping, UniversalMapping
    from repro.core.phase import PhaseProgram, PhaseSpec

    n = int(params.get("n", 100))
    mapping = IdentityMapping() if kind == "identity" else UniversalMapping()
    return PhaseProgram.chain(
        [PhaseSpec("produce", n), PhaseSpec("consume", n)], [mapping]
    )


def _build_reverse_indirect(params: dict[str, Any]):
    """Two-phase reverse-indirect workload: ``B(I) += A(IMAP(J, I))``.

    The grid/shm studies need an indirect-map workload whose concrete map
    can be arbitrarily large (``n``) — this is the paper's reverse-indirect
    shape with a uniform random ``IMAP`` drawn from the run's map RNG
    (or overridden by a shared map store in grid sweeps).
    """
    from repro.core.mapping import ReverseIndirectMapping
    from repro.core.phase import PhaseProgram, PhaseSpec

    n = int(params.get("n", 100))
    fan_in = int(params.get("fan_in", 2))
    mapping = ReverseIndirectMapping("IMAP", fan_in=fan_in)
    generators = {"IMAP": lambda rng: rng.integers(0, n, size=(fan_in, n))}
    return PhaseProgram.chain(
        [PhaseSpec("scatter", n), PhaseSpec("gather", n)],
        [mapping],
        map_generators=generators,
    )


_WORKLOADS: dict[str, Callable[[dict[str, Any]], Any]] = {
    "casper": _build_casper,
    "checkerboard": _build_checkerboard,
    "navier-stokes": _build_navier_stokes,
    "particles": _build_particles,
    "identity": lambda p: _build_synthetic("identity", p),
    "universal": lambda p: _build_synthetic("universal", p),
    "reverse-indirect": _build_reverse_indirect,
}


def workload_names() -> list[str]:
    """Registry names accepted by :class:`SweepSpec.workload`."""
    return sorted(_WORKLOADS)


def build_workload(name: str, params: dict[str, Any] | None = None):
    """Build the named workload program (used by the CLI and the workers)."""
    params = dict(params or {})
    try:
        builder = _WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {workload_names()}"
        ) from None
    return builder(params)


# ---------------------------------------------------------------------- spec
@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: a workload, a configuration, a replication count.

    Attributes
    ----------
    workload:
        Registry name (see :func:`workload_names`).
    replications:
        Number of independent replications; replication ``i`` runs with
        master seed :func:`replication_seed` ``(seed, i)``.
    seed:
        The sweep-level seed every replication seed is derived from.
    sim_workers:
        Simulated worker-processor count inside each run.
    streams:
        Independent job streams per replication (the paper's batch
        environment); each stream is a fresh build of the workload.
    barrier:
        Strict phase barriers instead of next-phase overlap.
    tasks_per_processor:
        Task-sizing policy knob (see :class:`~repro.executive.TaskSizer`).
    params:
        Extra keyword arguments for the workload factory.
    """

    workload: str
    replications: int = 1
    seed: int = 0
    sim_workers: int = 8
    streams: int = 1
    barrier: bool = False
    tasks_per_processor: float = 2.0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if self.workload not in _WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {workload_names()}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "replications": self.replications,
            "seed": self.seed,
            "sim_workers": self.sim_workers,
            "streams": self.streams,
            "barrier": self.barrier,
            "tasks_per_processor": self.tasks_per_processor,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepSpec":
        return cls(
            workload=data["workload"],
            replications=int(data.get("replications", 1)),
            seed=int(data.get("seed", 0)),
            sim_workers=int(data.get("sim_workers", 8)),
            streams=int(data.get("streams", 1)),
            barrier=bool(data.get("barrier", False)),
            tasks_per_processor=float(data.get("tasks_per_processor", 2.0)),
            params=dict(data.get("params", {})),
        )


def replication_seed(sweep_seed: int, replication: int) -> int:
    """The master seed of replication ``replication``.

    Same stable keying as :meth:`repro.sim.rng.RngStreams.child` — a pure
    function of ``(sweep_seed, replication)``, so replication seeds never
    depend on execution order, process identity, or wall clock.
    """
    key = zlib.crc32(f"sweep-replication:{replication}".encode("utf-8"))
    return (sweep_seed * 0x9E3779B1 + key) % (2**63)


# ---------------------------------------------------------------------- worker
#: grid-point keys that override :class:`SweepSpec` fields
SPEC_AXES = frozenset({"workload", "sim_workers", "streams", "tasks_per_processor", "barrier"})
#: grid-point keys that override :class:`~repro.core.overlap.OverlapConfig`
CONFIG_AXES = frozenset({"overlap", "split", "target_fraction", "group_size", "elevate"})
#: grid-point keys that drive fault injection
FAULT_AXES = frozenset({"fault_seed", "transient_p"})

#: summary label keys of a replication fan and of a grid (see :func:`_run_unit`)
SWEEP_LABELS = ("replication",)
GRID_LABELS = ("cell", "point", "replication")


class _SharedMapGenerator:
    """Map 'generator' that ignores the RNG and returns the shared array."""

    def __init__(self, store: Mapping[str, Any], name: str) -> None:
        self._store = store
        self._name = name

    def __call__(self, rng: Any) -> Any:
        return self._store[self._name]


#: one composite-map cache per worker process: adjacent grid points that
#: share mapping/maps/group-size rebuild only the target-dependent suffix
_CELL_CACHE = None


def _cell_cache():
    global _CELL_CACHE
    if _CELL_CACHE is None:
        from repro.core.enablement import CompositeMapCache

        _CELL_CACHE = CompositeMapCache()
    return _CELL_CACHE


def _run_unit(
    spec_data: dict[str, Any],
    unit: tuple[int, Mapping[str, Any], int, int],
    labels: Sequence[str],
    maps: Mapping[str, Any] | None = None,
    instrument: bool = False,
) -> dict[str, Any]:
    """Execute one unit ``(unit id, point, replication, seed)``; returns its
    JSON-able summary — the one cell runner behind replications and grid
    cells.

    ``point`` overrides ``spec_data`` field by field; its keys resolve in
    three namespaces (:data:`SPEC_AXES`, :data:`CONFIG_AXES`,
    :data:`FAULT_AXES`), and anything else is a workload-factory
    parameter.  A replication is the point ``{}``.  The summary carries
    the ``labels`` subset of ``{"cell": unit id, "point", "replication"}``,
    the seed, and :func:`result_summary`.  ``maps`` (a shared-map store
    or plain arrays) replaces the program's map generators of the same
    name.  Every run reuses the process's composite-map cache.

    ``instrument=True`` (the ``--profile`` path) counts the finished run
    into the process-local :func:`~repro.obs.metrics.worker_registry`
    (via :func:`count_run_into_worker_registry`), so the profiler's
    envelope can carry ``faults.*`` and the other worker-side counters
    back to the parent.  Instrumentation observes, never steers — the
    returned summary is identical either way.
    """
    from repro.core.overlap import OverlapConfig, OverlapPolicy, SplitStrategy
    from repro.executive import TaskSizer, run_program

    unit_id, point, replication, seed = unit
    point = dict(point)
    spec = SweepSpec.from_dict(spec_data)
    workload = str(point.get("workload", spec.workload))
    sim_workers = int(point.get("sim_workers", spec.sim_workers))
    streams = int(point.get("streams", spec.streams))
    tasks_per_processor = float(point.get("tasks_per_processor", spec.tasks_per_processor))
    barrier = bool(point.get("barrier", spec.barrier))
    if "overlap" in point:
        barrier = not bool(point["overlap"])

    params = dict(spec.params)
    params.update(
        {
            k: v
            for k, v in point.items()
            if k not in SPEC_AXES and k not in CONFIG_AXES and k not in FAULT_AXES
        }
    )

    config_kwargs: dict[str, Any] = {
        "policy": OverlapPolicy.NONE if barrier else OverlapPolicy.NEXT_PHASE,
    }
    if "split" in point:
        config_kwargs["split_strategy"] = SplitStrategy(str(point["split"]))
    if "target_fraction" in point:
        config_kwargs["target_fraction"] = float(point["target_fraction"])
    if "group_size" in point:
        config_kwargs["composite_group_size"] = int(point["group_size"])
    if "elevate" in point:
        config_kwargs["elevate_enabling_granules"] = bool(point["elevate"])
    config = OverlapConfig(**config_kwargs)

    faults = None
    transient_p = float(point.get("transient_p", 0.0))
    if transient_p > 0.0:
        from repro.faults import FaultPlan, TransientGranuleError

        faults = FaultPlan(
            seed=int(point.get("fault_seed", 0)),
            faults=(TransientGranuleError(transient_p),),
        )

    programs = [build_workload(workload, params) for _ in range(streams)]
    if maps:
        for program in programs:
            for name in maps:
                if name in program.map_generators:
                    program.map_generators[name] = _SharedMapGenerator(maps, name)
    result = run_program(
        programs if streams > 1 else programs[0],
        sim_workers,
        config=config,
        sizer=TaskSizer(tasks_per_processor),
        seed=seed,
        faults=faults,
        composite_cache=_cell_cache(),
    )
    if instrument:
        count_run_into_worker_registry(result, workload)
    tags = {"cell": unit_id, "point": point, "replication": replication}
    return {**{k: tags[k] for k in labels}, "seed": seed, **result_summary(result)}


def run_replication(
    spec_data: dict[str, Any], replication: int, instrument: bool = False
) -> dict[str, Any]:
    """Execute one replication; returns its JSON-able summary.

    Module-level (hence picklable); everything it needs arrives as plain
    data and the phase program is rebuilt locally.  ``instrument`` is
    :func:`_run_unit`'s.
    """
    seed = replication_seed(int(spec_data.get("seed", 0)), replication)
    return _run_unit(spec_data, (replication, {}, replication, seed), SWEEP_LABELS, None, instrument)


def count_run_into_worker_registry(result: Any, workload: str) -> None:
    """Accumulate a finished run's totals into the worker registry.

    Post-run counter increments instead of live per-event telemetry: the
    whole accounting is a handful of ``inc`` calls, so a profiled sweep
    stays within single-digit percent of an unprofiled one (gated by
    ``benchmarks/test_profile_overhead.py``).  Only counters flush into
    the profiler envelope, so everything here is a monotonic total.
    """
    from repro.obs.metrics import worker_registry

    registry = worker_registry()
    registry.counter("worker.runs_total", "simulations finished in this process").inc(
        workload=workload
    )
    registry.counter("worker.granules_total", "granules executed").inc(
        result.granules_executed
    )
    registry.counter("worker.compute_seconds_total", "productive compute time").inc(
        result.compute_time
    )
    registry.counter("worker.mgmt_seconds_total", "executive busy time").inc(
        result.mgmt_time
    )
    faults = registry.counter("faults.recovered_total", "recoveries by kind")
    for kind, count in (
        ("retry", result.retries),
        ("reassignment", result.reassignments),
        ("processor_failure", result.processor_failures),
        ("stall", result.stalls),
    ):
        if count:
            faults.inc(count, kind=kind)


def result_summary(result) -> dict[str, Any]:
    """The JSON-able per-run summary shared by replication and grid cells."""
    return {
        "makespan": result.makespan,
        "utilization": result.utilization,
        "compute_time": result.compute_time,
        "mgmt_time": result.mgmt_time,
        "serial_time": result.serial_time,
        "tasks_executed": result.tasks_executed,
        "granules_executed": result.granules_executed,
        "lateral_handoffs": result.lateral_handoffs,
        "admissions": [
            {
                "predecessor": d.predecessor,
                "successor": d.successor,
                "admitted": d.admitted,
                "reason": d.reason,
                "mapping_kind": d.mapping_kind,
            }
            for d in result.admission_decisions
        ],
        "streams": [
            {
                "stream": s.stream,
                "start_time": s.start_time,
                "complete_time": s.complete_time,
                "wall_clock": s.wall_clock,
            }
            for s in result.stream_stats
        ],
    }


# ---------------------------------------------------------------------- report
@dataclass
class SweepReport:
    """The canonical, order-independent record of a finished sweep."""

    spec: dict[str, Any]
    replications: list[dict[str, Any]]

    def to_json(self) -> str:
        """Canonical serialization: identical bytes for identical sweeps.

        Host timing and pool configuration are deliberately absent — they
        would differ between a serial and a parallel execution of the
        same spec.
        """
        payload = {"spec": self.spec, "replications": self.replications}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        data = json.loads(text)
        return cls(spec=data["spec"], replications=data["replications"])

    def aggregate(self) -> dict[str, Any]:
        """Cross-replication summary statistics."""
        if not self.replications:
            return {}
        utils = [r["utilization"] for r in self.replications]
        spans = [r["makespan"] for r in self.replications]
        walls = [s["wall_clock"] for r in self.replications for s in r["streams"]]
        admitted = sum(
            1 for r in self.replications for a in r["admissions"] if a["admitted"]
        )
        considered = sum(len(r["admissions"]) for r in self.replications)
        return {
            "replications": len(self.replications),
            "utilization_mean": sum(utils) / len(utils),
            "utilization_min": min(utils),
            "utilization_max": max(utils),
            "makespan_mean": sum(spans) / len(spans),
            "makespan_min": min(spans),
            "makespan_max": max(spans),
            "stream_wall_clock_mean": sum(walls) / len(walls) if walls else 0.0,
            "overlaps_admitted": admitted,
            "overlaps_considered": considered,
            "tasks_total": sum(r["tasks_executed"] for r in self.replications),
            "granules_total": sum(r["granules_executed"] for r in self.replications),
        }


@dataclass
class SweepOutcome:
    """A finished sweep or grid: the canonical report plus host-side facts.

    ``report`` is a :class:`SweepReport` (from :func:`run_sweep`) or a
    :class:`~repro.sweep.grid.GridReport` (from
    :func:`~repro.sweep.grid.run_grid`).  ``batch_size`` /
    ``pool_reused`` / ``pool_generation`` are diagnostic host facts (how
    dispatch actually ran), recorded here — never in the canonical
    report, whose bytes must not depend on them.
    """

    report: Any
    elapsed_seconds: float
    pool_workers: int
    resumed: int = 0
    worker_restarts: int = 0
    #: units per dispatched pool task in the main batched phase
    batch_size: int = 1
    #: True when the run used an already-live warm pool
    pool_reused: bool = False
    #: warm-pool executor build count after the run (0 = no pool used)
    pool_generation: int = 0
    #: supervisor stats (hangs detected, preemptions, ladder transitions,
    #: final rung) when the run was supervised; None otherwise
    supervision: dict[str, Any] | None = None
    #: bytes of read-only map data shared with every unit (0 = none)
    shared_map_bytes: int = 0


# ---------------------------------------------------------------------- faults
class SweepWorkerDied(RuntimeError):
    """Inline-mode stand-in for a killed pool worker (same recovery path)."""


def _apply_chaos(chaos: dict[str, Any] | None, what: str) -> None:
    """Execute one task's injected misbehavior (worker side).

    ``chaos`` is the host-computed verdict for this attempt —
    ``{"slow": seconds, "kill": True, "hang": {"freeze": bool}}`` in any
    combination (all optional; ``None`` means behave).  Order matters:

    * ``slow`` sleeps *before* the batch stamps ``t_start``, so an
      injected slowdown can blow a deadline without ever polluting the
      cost model's compute-seconds EWMA;
    * ``kill`` is a hard ``os._exit`` in a pool child (the process dies
      without cleanup, exactly like an OOM kill or a segfault, and the
      parent sees :class:`BrokenProcessPool`), :class:`SweepWorkerDied`
      inline;
    * ``hang`` never returns in a pool child (the supervisor must
      preempt it); ``freeze`` first stops the liveness beat, simulating
      a process so wedged its watchdog thread is dead too — that is the
      variant only the heartbeat probe can distinguish from honest work.
      Inline it raises :class:`SweepWorkerDied`, because a single process
      cannot supervise its own hang; the retry path covers it.
    """
    if not chaos:
        return
    slow = chaos.get("slow", 0.0)
    if slow:
        time.sleep(slow)
    if chaos.get("kill"):
        if multiprocessing.parent_process() is not None:
            os._exit(17)
        raise SweepWorkerDied(f"injected kill of {what}")
    hang = chaos.get("hang")
    if hang is not None:
        if multiprocessing.parent_process() is not None:
            if hang.get("freeze"):
                from repro.sweep.supervise import suspend_heartbeat

                suspend_heartbeat()
            while True:  # pragma: no cover - only ever exits via SIGKILL
                time.sleep(3600)
        raise SweepWorkerDied(f"injected hang of {what}")


def _run_units(
    spec_data: dict[str, Any],
    units: Sequence[tuple[int, Mapping[str, Any], int, int]],
    labels: Sequence[str],
    maps: Mapping[str, Any] | None,
    chaos: dict[str, Any] | None,
    instrument: bool = False,
) -> dict[str, Any]:
    """Run a batch of units as one pool task — the one worker entry.

    One submission pickle and one result envelope amortize dispatch over
    the whole batch; the summaries themselves are exactly what
    :func:`_run_unit` returns one by one, so report bytes are independent
    of the batch size.  ``maps`` is a
    :class:`~repro.sweep.shm.SharedMapStore` in a pool (it pickles as its
    descriptors and reattaches, memoized, on the worker side) or the
    plain arrays inline.  ``chaos`` is this attempt's injected
    misbehavior, computed on the host from the fault plan (see
    :func:`_apply_chaos`).

    The envelope's ``t_start``/``t_end`` (:func:`time.perf_counter`,
    comparable across processes) and ``compute_seconds`` feed the
    host-side cost model and the concurrency-overlap accounting — host
    facts, never report content.
    """
    _apply_chaos(chaos, f"{labels[0]}s {[u[0] for u in units]}")
    t0 = time.perf_counter()
    out = [_run_unit(spec_data, unit, labels, maps, instrument) for unit in units]
    t1 = time.perf_counter()
    return {"batch": out, "compute_seconds": t1 - t0, "t_start": t0, "t_end": t1}


def _fault_injector(plan: "FaultPlan | None", total: int, noun: str):
    """The injector for ``plan``'s pool-worker faults (None when it has
    none); refuses a fault aimed past the last of ``total`` units, which
    would otherwise silently never fire."""
    if plan is None:
        return None
    faults = plan.sweep_kills + plan.sweep_hangs + plan.sweep_slows
    for f in faults:
        if f.replication >= total:
            raise ValueError(
                f"{type(f).__name__} targets {noun} {f.replication}, but the run "
                f"has only {total} {noun}s (indices 0..{total - 1})"
            )
    if not faults:
        return None
    from repro.faults import FaultInjector

    return FaultInjector(plan)


def _cost_key(spec_data: dict[str, Any]) -> str:
    """Cost-model identity of a sweep or grid spec: everything that shapes
    one unit's work, nothing that only counts or seeds the units."""

    def strip(d: dict[str, Any]) -> dict[str, Any]:
        return {k: v for k, v in d.items() if k not in ("replications", "seed")}

    d = strip(spec_data)
    if "base" in d:
        d["base"] = strip(d["base"])
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------- manifest
def _load_manifest(
    path: str | Path, spec_data: dict[str, Any], kind: str, key: str
) -> dict[int, dict[str, Any]]:
    """Completed unit summaries journaled at ``path``, keyed by ``key``.

    Returns ``{}`` when the file does not exist.  Raises when the manifest
    belongs to a different spec — resuming someone else's sweep would
    silently mix incompatible results.  A trailing partial line (the
    previous process died mid-write) is ignored.
    """
    path = Path(path)
    if not path.exists():
        return {}
    out: dict[int, dict[str, Any]] = {}
    with path.open("r", encoding="utf-8") as fh:
        header_seen = False
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail write from a crashed run; everything before it counts
            if not header_seen:
                header_seen = True
                if entry.get("kind") != kind:
                    raise ValueError(f"{path} is not a {kind}")
                if entry.get("spec") != spec_data:
                    raise ValueError(
                        f"manifest {path} was written for a different sweep spec; "
                        f"refusing to resume (delete it to start over)"
                    )
                continue
            out[int(entry[key])] = entry
    return out


def _open_manifest(
    path: str | Path, spec_data: dict[str, Any], resume: bool, kind: str
) -> IO[str]:
    """Open the journal for appending; fresh (non-resume) runs rewrite it."""
    path = Path(path)
    if resume and path.exists():
        return path.open("a", encoding="utf-8")
    fh = path.open("w", encoding="utf-8")
    fh.write(
        json.dumps(
            {"kind": kind, "spec": spec_data},
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )
    fh.flush()
    return fh


# ---------------------------------------------------------------------- pool driver
def _cold_worker_init(
    profiled: bool = False,
    heartbeat_dir: str | None = None,
    heartbeat_interval: float = 1.0,
) -> None:
    """Initializer for cold/narrow executors: profiler stamp (when a
    profiler is attached) plus the liveness heartbeat (when supervised)."""
    if profiled:
        from repro.obs.profile import _profile_worker_init

        _profile_worker_init()
    if heartbeat_dir is not None:
        from repro.sweep.supervise import start_heartbeat

        start_heartbeat(heartbeat_dir, heartbeat_interval)


def run_pool_tasks(
    keys: Sequence[Any],
    call: Callable[[Any, int], tuple[Callable[..., Any], tuple[Any, ...]]],
    record: Callable[[Any, Any], None],
    workers: int = 1,
    max_restarts: int = 2,
    what: str = "task",
    profiler: "PoolProfiler | None" = None,
    pool: "WarmPool | str" = "warm",
    supervisor: Supervisor | None = None,
) -> int:
    """Run every task in ``keys`` with crash-salvage; returns pool restarts.

    The one pool-management loop the sweep driver and :func:`map_configs`
    run on.  ``call(key, attempt)`` returns the ``(module-level function,
    picklable args)`` pair to execute for ``key``; ``record(key, result)``
    is invoked exactly once per key, in completion order.

    ``workers=1`` runs inline — no pool, no fork — which doubles as the
    reference execution for the byte-identical-report guarantee.

    ``pool`` selects the pool discipline: ``"warm"`` (default) runs on the
    process-wide :class:`~repro.sweep.pool.WarmPool` — workers persist
    across driver calls, so only the first sweep in a process pays
    start-up; a :class:`WarmPool` instance uses that pool; ``"cold"``
    builds a throwaway executor per dispatch.  Submissions are windowed:
    at most ``workers`` tasks are in flight at once, so the requested
    concurrency is honoured exactly even on a wider warm pool.

    Crash-salvage: a dead child (injected kill, real OOM/segfault) breaks
    the executor; this driver salvages every future that finished before
    the break, rebuilds the pool (the warm pool via
    :meth:`~repro.sweep.pool.WarmPool.rebuild`), and resubmits the
    missing keys with ``attempt`` incremented.  Inline kills surface as
    :class:`SweepWorkerDied` and retry through the same accounting.

    With ``profiler`` set, every submission is routed through the
    profiling envelope (see :class:`~repro.obs.profile.PoolProfiler`);
    the envelope is unwrapped *before* ``record`` runs, so downstream
    accounting — and the canonical report bytes — are untouched.

    Dispatch walks a ladder of ``(rung, width)`` pool disciplines.
    Unsupervised (``supervisor=None``) it is a single rung — the warm or
    cold pool — with a budget of ``max_restarts`` rebuilds, after which
    it raises; ``wait`` blocks until a task lands.  With ``supervisor``
    set, ``wait`` wakes every
    :attr:`~repro.sweep.supervise.SupervisionPolicy.poll_interval` to
    probe deadlines and worker heartbeats.  A detected hang preempts the
    pool's workers, which lands in the very same salvage/rebuild/resubmit
    path a crash does — so reports stay byte-identical under hangs for
    the same reason they do under kills.  When one rung exhausts its
    restart budget the driver steps down the degradation ladder
    (``warm → cold → narrow → serial``) instead of raising; the serial
    rung runs inline and always completes.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    attempts = {k: 0 for k in keys}
    done: set[Any] = set()
    restarts = 0

    def prepare(key: Any) -> tuple[Callable[..., Any], tuple[Any, ...]]:
        fn, args = call(key, attempts[key])
        if profiler is not None:
            fn, args = profiler.wrap(key, fn, args)
        return fn, args

    def note(key: Any, result: Any) -> None:
        if profiler is not None:
            result = profiler.record_result(key, result)
        done.add(key)
        record(key, result)

    def missing() -> list[Any]:
        return [k for k in keys if k not in done]

    def salvage(futs: dict[Any, Any]) -> None:
        # A dead child takes the whole executor down.  Results that
        # finished before the break are still inside their futures —
        # salvage them before resubmitting the rest.
        for fut, key in futs.items():
            if key in done or not fut.done():
                continue
            try:
                note(key, fut.result())
            except BrokenProcessPool:
                pass

    def run_inline(subset: Sequence[Any]) -> None:
        nonlocal restarts
        for key in subset:
            while True:
                try:
                    fn, args = prepare(key)
                    note(key, fn(*args))
                    break
                except SweepWorkerDied:
                    attempts[key] += 1
                    restarts += 1

    if workers == 1:
        run_inline(missing())
        return restarts

    warm = pool if isinstance(pool, WarmPool) else (warm_pool() if pool == "warm" else None)
    start = "warm" if warm is not None else "cold"
    if supervisor is None:
        rungs = [(start, workers)]
        budget, poll, heartbeat_dir, beat = max_restarts, None, None, 1.0
    else:
        if supervisor.heartbeat_dir is None and warm is not None:
            supervisor.heartbeat_dir = warm.heartbeat_dir
        start = supervisor.rung or start
        if warm is None and start == "warm":
            start = "cold"
        rungs = degradation_ladder(start, workers)
        budget = supervisor.rung_budget(max_restarts)
        poll = supervisor.policy.poll_interval
        heartbeat_dir = supervisor.heartbeat_dir
        beat = supervisor.policy.heartbeat_interval

    for rung_idx, (rung, width) in enumerate(rungs):
        pending = missing()
        if not pending:
            break
        if supervisor is not None:
            supervisor.begin(what, rung)
        if rung == "serial":
            run_inline(pending)
            break
        rung_restarts = 0
        while pending:
            futs: dict[Any, Any] = {}
            cold: ProcessPoolExecutor | None = None
            try:
                if rung == "warm":
                    assert warm is not None
                    executor = warm.executor(width)
                else:
                    cold = executor = ProcessPoolExecutor(
                        max_workers=min(width, len(pending)),
                        initializer=_cold_worker_init,
                        initargs=(profiler is not None, heartbeat_dir, beat),
                    )
                try:
                    waiting: set[Any] = set()
                    idx = 0
                    while idx < len(pending) or waiting:
                        while idx < len(pending) and len(waiting) < width:
                            key = pending[idx]
                            idx += 1
                            fn, args = prepare(key)
                            fut = executor.submit(fn, *args)
                            futs[fut] = key
                            waiting.add(fut)
                            if supervisor is not None:
                                supervisor.track(fut, key)
                            if rung == "warm":
                                warm.tasks_dispatched += 1
                        finished, waiting = wait(
                            waiting, timeout=poll, return_when=FIRST_COMPLETED
                        )
                        for fut in finished:
                            if supervisor is not None:
                                supervisor.untrack(fut)
                            note(futs[fut], fut.result())
                        if waiting and supervisor is not None:
                            supervisor.check(executor)
                finally:
                    if cold is not None:
                        # a supervised pool may hold a hung worker: never join it
                        cold.shutdown(wait=supervisor is None, cancel_futures=True)
            except BrokenProcessPool:
                salvage(futs)
                if supervisor is not None:
                    supervisor.clear_inflight()
                restarts += 1
                rung_restarts += 1
                if rung == "warm":
                    assert warm is not None
                    warm.rebuild()
                for key in missing():
                    attempts[key] += 1
                if rung_restarts > budget:
                    last = rung_idx == len(rungs) - 1
                    if supervisor is None or not supervisor.policy.degrade or last:
                        raise RuntimeError(
                            f"{what} pool died {restarts} times "
                            f"(max_restarts={max_restarts}); {what}s "
                            f"{missing()} not completed"
                        ) from None
                    supervisor.degrade(rung, rungs[rung_idx + 1][0], restarts)
                    break
            pending = missing()
    if supervisor is not None:
        supervisor.reap_shm()
    return restarts


# ---------------------------------------------------------------------- driver
def _drive(
    spec_data: dict[str, Any],
    base_data: dict[str, Any],
    units: Sequence[tuple[int, dict[str, Any], int, int]],
    labels: Sequence[str],
    report: Callable[[list[dict[str, Any]]], Any],
    manifest_kind: str,
    *,
    workers: int,
    progress: Callable[[int, int], None] | None,
    fault_plan: "FaultPlan | None",
    manifest_path: str | Path | None,
    resume: bool,
    max_restarts: int,
    profiler: "PoolProfiler | None",
    bus: EventBus | None,
    batch_size: int | None,
    pool: "WarmPool | str",
    supervision: "SupervisionPolicy | bool | None",
    shared_maps: Mapping[str, Any] | None = None,
) -> SweepOutcome:
    """The one sweep engine behind :func:`run_sweep` and
    :func:`~repro.sweep.grid.run_grid`.

    ``units`` are ``(unit id, point, replication, seed)`` tuples run
    against ``base_data``; ``labels`` are the summary label keys, the
    first of which names a unit (and keys the manifest).  ``spec_data``
    is the run's identity in the manifest header and the report, which
    ``report(summaries in unit order)`` builds.  The driver owns the
    manifest, progress and bus publishing, the supervisor, the shared-map
    store's lifetime, batching and fault injection; see :func:`run_sweep`
    for their semantics.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    noun = labels[0]
    total = len(units)
    injector = _fault_injector(fault_plan, total, noun)

    def chaos_for(batch: Sequence[tuple], attempt: int) -> dict[str, Any] | None:
        """This attempt's injected-misbehavior verdict for one batch."""
        if injector is None:
            return None
        ids = [u[0] for u in batch]
        chaos: dict[str, Any] = {}
        slow = max((injector.slows_replication(i, attempt) for i in ids), default=0.0)
        if slow:
            chaos["slow"] = slow
        if any(injector.kills_replication(i, attempt) for i in ids):
            chaos["kill"] = True
        else:
            for i in ids:
                hang = injector.hangs_replication(i, attempt)
                if hang is not None:
                    chaos["hang"] = {"freeze": hang.freeze_heartbeat}
                    break
        return chaos or None

    t0 = time.perf_counter()
    summaries: dict[int, dict[str, Any]] = {}
    if manifest_path is not None and resume:
        summaries.update(_load_manifest(manifest_path, spec_data, manifest_kind, noun))
    manifest = (
        _open_manifest(manifest_path, spec_data, resume, manifest_kind)
        if manifest_path is not None
        else None
    )
    done_count = len(summaries)
    resumed = done_count
    restarts = 0

    model = cost_model()
    ckey = _cost_key(spec_data)

    def record(bi: int, envelope: dict[str, Any]) -> None:
        nonlocal done_count
        results = envelope["batch"]
        model.observe(ckey, float(envelope["compute_seconds"]), len(results))
        # divide the pool task's measured busy span evenly across its
        # batch (units run sequentially on one worker, so even division
        # is the right first-order picture for overlap math)
        s = float(envelope["t_start"]) - t0
        e = float(envelope["t_end"]) - t0
        k = len(results)
        for j, summary in enumerate(results):
            summaries[int(summary[noun])] = summary
            done_count += 1
            if manifest is not None:
                manifest.write(json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
                manifest.flush()
            if progress is not None:
                progress(done_count, total)
            if bus is not None:
                bus.publish(
                    PoolTaskCompleted(
                        time.perf_counter() - t0,
                        noun,
                        done_count,
                        total,
                        s + (e - s) * j / k,
                        s + (e - s) * (j + 1) / k,
                    )
                )

    instrument = profiler is not None
    warm = pool if isinstance(pool, WarmPool) else (warm_pool() if pool == "warm" else None)
    supervisor: Supervisor | None = None
    if supervision:
        supervisor = Supervisor(
            supervision if isinstance(supervision, SupervisionPolicy) else None,
            estimate=lambda: model.estimate(ckey),
            bus=bus,
            metrics=profiler.metrics if profiler is not None else None,
            heartbeat_dir=warm.heartbeat_dir if warm is not None else None,
            what=noun,
            t0=t0,
        )
    store = None
    maps: Mapping[str, Any] | None = shared_maps or None

    def run_batches(batches: list[list[tuple]]) -> int:
        if supervisor is not None:
            supervisor.items_of = lambda bi: len(batches[bi])

        def call(bi: int, attempt: int):
            batch = batches[bi]
            return (
                _run_units,
                (base_data, batch, labels, maps, chaos_for(batch, attempt), instrument),
            )

        return run_pool_tasks(
            list(range(len(batches))),
            call,
            record,
            workers=workers,
            max_restarts=max_restarts,
            what=noun,
            profiler=profiler,
            pool=pool,
            supervisor=supervisor,
        )

    def chunked(items: list[tuple], size: int) -> list[list[tuple]]:
        return [items[i : i + size] for i in range(0, len(items), size)]

    pending = [u for u in units if u[0] not in summaries]
    pool_reused = bool(warm is not None and warm.active and workers > 1)
    used_batch = 1
    try:
        if maps and workers > 1:
            # zero-copy plane: the store travels as O(1)-size descriptors
            from repro.sweep.shm import SharedMapStore

            store = maps = SharedMapStore.create(maps)
        if workers == 1 or batch_size == 1:
            restarts += run_batches([[u] for u in pending])
        elif batch_size is not None:
            used_batch = batch_size
            restarts += run_batches(chunked(pending, batch_size))
        else:
            size = model.pick_batch_size(ckey, len(pending), workers)
            if size is None and len(pending) > workers:
                # calibration: one single-unit task per worker — times
                # the workload *and* spins the pool up in parallel
                restarts += run_batches([[u] for u in pending[:workers]])
                pending = pending[workers:]
                size = model.pick_batch_size(ckey, len(pending), workers)
            used_batch = size if size is not None else 1
            restarts += run_batches(chunked(pending, used_batch) if pending else [])
    finally:
        if manifest is not None:
            manifest.close()
        if store is not None:
            store.unlink()
    return SweepOutcome(
        report=report([summaries[i] for i in sorted(summaries)]),
        elapsed_seconds=time.perf_counter() - t0,
        pool_workers=workers,
        resumed=resumed,
        worker_restarts=restarts,
        batch_size=used_batch,
        pool_reused=pool_reused,
        pool_generation=warm.generation if warm is not None else 0,
        supervision=supervisor.stats() if supervisor is not None else None,
        shared_map_bytes=sum(np.asarray(a).nbytes for a in (shared_maps or {}).values()),
    )


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
    fault_plan: "FaultPlan | None" = None,
    manifest_path: str | Path | None = None,
    resume: bool = False,
    max_restarts: int = 2,
    profiler: "PoolProfiler | None" = None,
    bus: EventBus | None = None,
    batch_size: int | None = None,
    pool: "WarmPool | str" = "warm",
    supervision: "SupervisionPolicy | bool | None" = None,
) -> SweepOutcome:
    """Run every replication of ``spec``; ``workers`` host processes.

    A replication fan is a grid with the single point ``{}``: replication
    ``r`` runs with seed :func:`replication_seed` ``(spec.seed, r)`` and
    its summary is labelled with ``replication``.

    ``workers=1`` runs inline (no pool, no fork) — useful both as the
    low-overhead default and as the reference for the byte-identical
    serial-vs-parallel guarantee.  ``progress(done, total)`` is invoked
    after each replication lands.

    Dispatch: replications are shipped to the pool in *batches* — one
    pickle out, one envelope back — so tiny simulations still amortize
    submission overhead.  ``batch_size=None`` (default) adapts: if the
    process-wide :class:`~repro.sweep.pool.CostModel` already knows this
    workload's per-replication cost (an earlier sweep, or this sweep's
    calibration pass of one single-replication task per worker), the size
    targets ~100–500 ms of compute per task.  An explicit ``batch_size``
    pins it.  ``pool`` selects the warm/cold pool discipline (see
    :func:`run_pool_tasks`).  Neither knob changes report bytes — the
    byte-identity tests sweep across both.

    Crash safety: a dead pool worker (injected via ``fault_plan``'s
    :class:`~repro.faults.SweepWorkerKill`, or a real OOM/segfault) breaks
    the pool; the runner salvages every already-finished future, rebuilds
    the pool, and resubmits the missing batches with their original
    derived seeds — up to ``max_restarts`` pool rebuilds per dispatch
    phase.  A fault aimed at a replication index the sweep does not have
    raises :class:`ValueError` before anything runs.  With
    ``manifest_path`` set, each completed replication is journaled as one
    JSON line (flushed immediately); ``resume=True`` loads the journal and
    skips finished replications, so an interrupted sweep continues where
    it stopped.  Neither recovery path changes a single byte of the final
    report relative to a fault-free serial run.

    Observability: ``profiler`` attributes each pool task's wall time
    (and makes the workers run instrumented, so worker-side counters flow
    back through its registry); ``bus`` receives one
    :class:`~repro.obs.events.PoolTaskCompleted` per landed replication,
    carrying its slice of the pool task's measured busy span — the feed
    both :class:`~repro.obs.progress.ProgressReporter` and
    :func:`~repro.obs.profile.effective_workers_from_events` consume.
    Neither changes the report bytes.

    Supervision: ``supervision=True`` (default policy) or a
    :class:`~repro.sweep.supervise.SupervisionPolicy` arms the pool
    supervisor — per-task deadlines derived from this workload's
    cost-model estimate, worker heartbeat probes, hang preemption through
    the salvage path, and the warm→cold→narrow→serial degradation ladder
    (see :mod:`repro.sweep.supervise`).  Hang/slowdown faults from
    ``fault_plan`` (:class:`~repro.faults.SweepWorkerHang`,
    :class:`~repro.faults.SweepWorkerSlow`) are honoured whether or not
    supervision is armed — an unsupervised hang simply blocks, which is
    the gap supervision exists to close.  Supervision never changes
    report bytes either; its facts land on
    :attr:`SweepOutcome.supervision`.
    """
    spec_data = spec.to_dict()
    units = [(r, {}, r, replication_seed(spec.seed, r)) for r in range(spec.replications)]
    return _drive(
        spec_data,
        spec_data,
        units,
        SWEEP_LABELS,
        lambda summaries: SweepReport(spec=spec_data, replications=summaries),
        "sweep-manifest",
        workers=workers,
        progress=progress,
        fault_plan=fault_plan,
        manifest_path=manifest_path,
        resume=resume,
        max_restarts=max_restarts,
        profiler=profiler,
        bus=bus,
        batch_size=batch_size,
        pool=pool,
        supervision=supervision,
    )


def map_configs(
    fn: Callable[[Any], Any],
    configs: Sequence[Any] | Iterable[Any],
    workers: int = 1,
    max_restarts: int = 2,
    profiler: "PoolProfiler | None" = None,
    pool: "WarmPool | str" = "warm",
    supervisor: Supervisor | None = None,
) -> list[Any]:
    """Order-preserving (optionally parallel) map for figure drivers.

    Routed through :func:`run_pool_tasks`, so figure drivers inherit the
    warm pool, crash-salvage (a config whose worker dies is re-executed —
    ``fn`` must therefore be deterministic, which figure drivers already
    require for reproducibility), and optional profiling, instead of the
    bare executor this helper originally wrapped.

    ``fn`` must be a module-level callable and each config must be
    picklable when ``workers > 1``; with ``workers=1`` any callable works.
    Results come back in config order regardless of completion order, so
    a driver's output is independent of the pool size.
    """
    items = list(configs)
    if workers <= 1 or len(items) <= 1:
        return [fn(c) for c in items]
    results: dict[int, Any] = {}
    run_pool_tasks(
        list(range(len(items))),
        lambda i, attempt: (fn, (items[i],)),
        lambda i, result: results.__setitem__(i, result),
        workers=workers,
        max_restarts=max_restarts,
        what="config",
        profiler=profiler,
        pool=pool,
        supervisor=supervisor,
    )
    return [results[i] for i in range(len(items))]
