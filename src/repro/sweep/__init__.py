"""Parallel parameter sweeps and replication fans over the simulator.

One simulated execution is a pure function of ``(workload, configuration,
seed)`` — which makes replication fans and parameter sweeps embarrassingly
parallel.  This package runs them across a :class:`~concurrent.futures.
ProcessPoolExecutor` while keeping the report *bit-for-bit deterministic*:

* every replication derives its own master seed from the sweep seed with
  the same stable keying :class:`~repro.sim.rng.RngStreams` uses, so
  adding replications never perturbs existing ones;
* replication summaries are ordered by replication index, not completion
  order, and serialized canonically — a serial run and a 4-worker run of
  the same spec produce byte-identical JSON.

Entry points
------------
:func:`run_sweep`
    Execute a :class:`SweepSpec`; returns the :class:`SweepOutcome`
    (canonical report + host-timing facts kept out of the report).
:func:`run_grid`
    Execute a :class:`GridSpec` — a cartesian product (or explicit list)
    of parameter points, each replicated — optionally over the
    :class:`SharedMapStore` zero-copy map plane; also returns a
    :class:`SweepOutcome`.  Both are thin entry points over one driver:
    a replication fan is the grid with the single point ``{}``, so
    batching, crash salvage, resume, supervision and fault injection
    (``fault_plan=``, a :class:`~repro.faults.FaultPlan` whose unit
    indices are replications or cell ids) behave identically.
:func:`map_configs`
    Order-preserving parallel map for figure drivers and ad-hoc sweeps.
``repro sweep``
    The CLI front-end (see ``python -m repro sweep --help``).

All three entry points dispatch through one process-wide **warm pool**
(:func:`warm_pool`) by default: worker processes are spawned once and
reused across sweeps, grids and maps, with tasks **batched** adaptively
from a calibrated per-item cost model (:func:`cost_model`).  Pass
``pool="cold"`` for a throwaway per-call pool, or call
:func:`shutdown_warm_pool` to tear the shared workers down explicitly
(an ``atexit`` hook does it otherwise).  Neither pooling nor batching
can change report bytes.

``supervision=`` arms the pool **supervisor**
(:mod:`repro.sweep.supervise`): per-task deadlines from the cost model,
worker heartbeat probes, preemptive kill-and-rebuild of hung workers
through the crash-salvage path, and a retry-budget circuit breaker that
degrades warm → cold → narrow → serial instead of failing.  A
shared-memory janitor (:func:`audit_shm_segments` /
:func:`reap_leaked_segments`) reaps segments leaked by preempted or
killed drivers.  Supervision cannot change report bytes either — the
chaos harness (``repro.faults.chaos_plan``) proves it.

See docs/PERFORMANCE.md for usage and the scaling benchmark, and
docs/RESILIENCE.md for the degradation ladder and deadline knobs.
"""

from repro.sweep.grid import (
    GridAxis,
    GridReport,
    GridSpec,
    grid_cell_seed,
    grid_point_seed,
    materialize_maps,
    parse_axis,
    run_grid,
    run_grid_cell,
)
from repro.sweep.runner import (
    SweepOutcome,
    SweepReport,
    SweepSpec,
    SweepWorkerDied,
    build_workload,
    map_configs,
    replication_seed,
    result_summary,
    run_pool_tasks,
    run_replication,
    run_sweep,
    workload_names,
)
from repro.sweep.pool import CostModel, WarmPool, cost_model, shutdown_warm_pool, warm_pool
from repro.sweep.shm import SharedMapStore, audit_shm_segments, reap_leaked_segments
from repro.sweep.supervise import (
    DEGRADATION_LADDER,
    SupervisionPolicy,
    Supervisor,
)

__all__ = [
    "SweepSpec",
    "SweepReport",
    "SweepOutcome",
    "SweepWorkerDied",
    "run_sweep",
    "run_replication",
    "run_pool_tasks",
    "replication_seed",
    "result_summary",
    "map_configs",
    "build_workload",
    "workload_names",
    "GridAxis",
    "GridSpec",
    "GridReport",
    "run_grid",
    "run_grid_cell",
    "grid_point_seed",
    "grid_cell_seed",
    "materialize_maps",
    "parse_axis",
    "SharedMapStore",
    "audit_shm_segments",
    "reap_leaked_segments",
    "WarmPool",
    "CostModel",
    "warm_pool",
    "cost_model",
    "shutdown_warm_pool",
    "SupervisionPolicy",
    "Supervisor",
    "DEGRADATION_LADDER",
]
