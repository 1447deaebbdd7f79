"""Persistent warm process pools and the batch-size cost model.

The sweep engine's original pool discipline — one
:class:`~concurrent.futures.ProcessPoolExecutor` per ``run_sweep`` /
``run_grid`` call — pays worker start-up (interpreter boot plus the
``import repro`` tree) on *every* sweep.  The PR 6 profiler measured that
warmup at roughly a second for four workers, which is longer than many
entire sweeps; ``BENCH_core.json`` duly recorded a parallel *slowdown*.

Two fixes live here:

:class:`WarmPool`
    A process-wide pool that outlives individual sweeps.  Workers are
    spawned lazily (the ``forkserver`` start method where available, so a
    rebuilt worker forks from a pre-imported server instead of re-running
    the import tree), reused across every ``run_sweep``/``run_grid`` call
    in the process, health-checked before reuse, rebuilt after
    :class:`~concurrent.futures.process.BrokenProcessPool` by the salvage
    driver, and torn down by an explicit :meth:`WarmPool.shutdown` or the
    ``atexit`` guard.  The pool always installs the profiler's worker
    initializer, so a :class:`~repro.obs.profile.PoolProfiler` attached to
    a *later* sweep still sees correct init stamps — and attributes ~0
    warmup to tasks on already-warm workers.

:class:`CostModel`
    Per-workload estimates of per-item compute cost, fed by the batch
    envelopes the drivers already receive.  ``pick_batch_size`` targets
    ~100–500 ms of worker compute per pool task — Bone & Somogyi's point
    that granularity must come from *measured* cost, applied to our own
    host-side dispatch: tasks big enough to amortize pickling and queue
    hops, small enough to keep every worker busy and salvage cheap.

Neither changes a single report byte: batching and pooling only decide
*where and with whom* a replication runs, never its seed or its summary.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import shutil
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any

__all__ = [
    "WarmPool",
    "CostModel",
    "warm_pool",
    "cost_model",
    "shutdown_warm_pool",
]

#: Modules the forkserver pre-imports: new workers fork from a server
#: that already paid for numpy and the executive import tree, so a
#: post-crash rebuild costs a fork, not an interpreter boot.
_PRELOAD = ["repro.sweep.runner", "repro.executive", "numpy"]

#: Start methods in preference order; the first one the platform offers
#: wins.  ``fork`` is nearly as cheap as forkserver but inherits arbitrary
#: parent state; ``spawn`` is the portable worst case.
_START_METHODS = ("forkserver", "fork", "spawn")


def _worker_init(
    heartbeat_dir: str | None = None, heartbeat_interval: float = 1.0
) -> None:
    """Standing pool initializer: stamp worker readiness for the profiler
    and start the liveness heartbeat.

    Installed unconditionally (not only when a profiler is attached),
    because the whole point of a warm pool is that the profiler of sweep
    *N* observes workers started before sweep *N* began — the init stamp
    must predate the profiler for warmup attribution to read zero.  The
    heartbeat likewise always runs when the pool has a stamp directory:
    whether a given dispatch is supervised is the *parent's* choice, and
    a worker spawned under an unsupervised sweep may serve a supervised
    one minutes later.
    """
    from repro.obs.profile import _profile_worker_init

    _profile_worker_init()
    if heartbeat_dir is not None:
        from repro.sweep.supervise import start_heartbeat

        start_heartbeat(heartbeat_dir, heartbeat_interval)


class WarmPool:
    """A lazily-built, process-wide pool reused across sweep calls.

    ``executor(workers)`` returns a live :class:`ProcessPoolExecutor` with
    at least ``workers`` slots, creating or growing it only when needed.
    Callers that want a smaller effective width than the pool's size must
    window their submissions (``run_pool_tasks`` does); the pool itself
    never shrinks, because shrinking would re-pay warmup on the next wide
    sweep.

    ``generation`` counts executor (re)builds — a reused pool keeps its
    generation, which is what the lifecycle tests assert.
    """

    def __init__(self, start_method: str | None = None) -> None:
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._max_workers = 0
        self._ctx = None
        self._start_method = start_method
        self._heartbeat_dir: str | None = None
        self.heartbeat_interval = 1.0
        self.generation = 0
        self.tasks_dispatched = 0

    # ------------------------------------------------------------------ context
    def _context(self):
        if self._ctx is not None:
            return self._ctx
        available = multiprocessing.get_all_start_methods()
        wanted = (self._start_method,) if self._start_method else _START_METHODS
        for method in wanted:
            if method in available:
                ctx = multiprocessing.get_context(method)
                if method == "forkserver":
                    try:
                        ctx.set_forkserver_preload(list(_PRELOAD))
                    except (AttributeError, ValueError):  # pragma: no cover
                        pass
                self._ctx = ctx
                self.start_method = method
                return ctx
        self._ctx = multiprocessing.get_context()  # pragma: no cover
        self.start_method = self._ctx.get_start_method()
        return self._ctx

    # ------------------------------------------------------------------ state
    @property
    def active(self) -> bool:
        """True when a live executor exists (workers may still be lazy)."""
        return self._executor is not None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def heartbeat_dir(self) -> str:
        """Directory of per-PID worker liveness stamps (created on demand).

        Workers rewrite their stamp every :attr:`heartbeat_interval`
        seconds; the supervisor's staleness probe reads the mtimes.  The
        directory outlives executor rebuilds (stale stamps of dead PIDs
        are simply never probed again) and is removed by :meth:`shutdown`.
        """
        if self._heartbeat_dir is None:
            self._heartbeat_dir = tempfile.mkdtemp(prefix="repro-hb-")
        return self._heartbeat_dir

    def worker_pids(self) -> list[int]:
        """PIDs of currently-spawned pool processes (may be < max_workers)."""
        ex = self._executor
        if ex is None:
            return []
        procs = getattr(ex, "_processes", None) or {}
        return sorted(procs)

    def stats(self) -> dict[str, Any]:
        """Host-side pool facts for outcome/meta records."""
        return {
            "active": self.active,
            "max_workers": self._max_workers,
            "generation": self.generation,
            "tasks_dispatched": self.tasks_dispatched,
            "start_method": getattr(self, "start_method", None),
        }

    # ------------------------------------------------------------------ lifecycle
    def executor(self, workers: int) -> ProcessPoolExecutor:
        """A live executor with at least ``workers`` slots (health-checked)."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        with self._lock:
            ex = self._executor
            if ex is not None and getattr(ex, "_broken", False):
                # a worker died idle between sweeps; don't hand out a
                # pool that will refuse every submit
                ex.shutdown(wait=False, cancel_futures=True)
                ex = self._executor = None
            if ex is None or workers > self._max_workers:
                if ex is not None:
                    ex.shutdown(wait=True)
                self._max_workers = max(workers, self._max_workers)
                self._executor = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    mp_context=self._context(),
                    initializer=_worker_init,
                    initargs=(self.heartbeat_dir, self.heartbeat_interval),
                )
                self.generation += 1
            assert self._executor is not None
            return self._executor

    def rebuild(self) -> None:
        """Tear down a broken executor; the next :meth:`executor` call
        builds a fresh one (the salvage driver's recovery hook)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def shutdown(self) -> None:
        """Stop and join every worker (idempotent)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
            self._max_workers = 0
            if self._heartbeat_dir is not None:
                shutil.rmtree(self._heartbeat_dir, ignore_errors=True)
                self._heartbeat_dir = None


class CostModel:
    """Per-key EWMA of per-item worker compute seconds.

    Keys are workload identities (see ``runner._cost_key``); values
    come from the compute-seconds stamp each batch envelope carries.  The
    estimate steers *batch size only* — it never touches seeds, summaries
    or report bytes, so a wildly wrong estimate costs throughput, not
    correctness.
    """

    #: Target worker-compute seconds per dispatched pool task.
    TARGET_LOW = 0.1
    TARGET_HIGH = 0.5

    #: Floor on the per-item estimate.  A trivially fast workload — or a
    #: clock-quantization artifact reading 0.0 compute seconds for a real
    #: batch — must not drag the EWMA to zero: a zero estimate would snap
    #: ``pick_batch_size`` to its fair-share maximum in one step, and
    #: would hand the supervisor a floor-clamped deadline that declares
    #: perfectly healthy tasks hung.  One microsecond per item is far
    #: below any real workload, so the clamp never distorts honest data.
    MIN_PER_ITEM = 1e-6

    def __init__(self) -> None:
        self._per_item: dict[Any, float] = {}

    def observe(self, key: Any, seconds: float, items: int) -> None:
        """Fold one measured batch into the estimate for ``key``."""
        if items < 1 or seconds < 0 or not math.isfinite(seconds):
            return
        per = max(seconds / items, self.MIN_PER_ITEM)
        prev = self._per_item.get(key)
        self._per_item[key] = per if prev is None else 0.5 * prev + 0.5 * per

    def estimate(self, key: Any) -> float | None:
        """Per-item seconds, or ``None`` before the first observation."""
        return self._per_item.get(key)

    def pick_batch_size(self, key: Any, n_items: int, workers: int) -> int | None:
        """Batch size targeting :data:`TARGET_LOW`–:data:`TARGET_HIGH`
        seconds per task, capped so no worker goes idle; ``None`` when the
        key has never been observed (callers then run a calibration pass).
        """
        est = self.estimate(key)
        if est is None or n_items < 1:
            return None
        # aim mid-band; the EWMA keeps us there as costs drift.  observe()
        # floors the estimate at MIN_PER_ITEM, so no division blowup here.
        est = max(est, self.MIN_PER_ITEM)
        size = max(1, int(0.5 * (self.TARGET_LOW + self.TARGET_HIGH) / est))
        fair = max(1, -(-n_items // max(1, workers)))
        return max(1, min(size, fair))


# ---------------------------------------------------------------------- globals
_WARM_POOL: WarmPool | None = None
_COST_MODEL: CostModel | None = None
_ATEXIT_REGISTERED = False


def warm_pool() -> WarmPool:
    """The process-wide warm pool (created on first use)."""
    global _WARM_POOL, _ATEXIT_REGISTERED
    if _WARM_POOL is None:
        _WARM_POOL = WarmPool()
        if not _ATEXIT_REGISTERED:
            # atexit runs LIFO.  Importing the shm module *before*
            # registering pins its segment-unlink guard earlier in the
            # stack, so at interpreter exit shutdown_warm_pool (later
            # registration = runs first) drains the workers before any
            # owner segment is unlinked — a still-draining worker never
            # has its attached maps yanked out from under it.
            import repro.sweep.shm  # noqa: F401

            atexit.register(shutdown_warm_pool)
            _ATEXIT_REGISTERED = True
    return _WARM_POOL


def cost_model() -> CostModel:
    """The process-wide batch-size cost model."""
    global _COST_MODEL
    if _COST_MODEL is None:
        _COST_MODEL = CostModel()
    return _COST_MODEL


def shutdown_warm_pool() -> None:
    """Tear down the global pool (atexit guard; safe to call anytime)."""
    global _WARM_POOL
    if _WARM_POOL is not None:
        _WARM_POOL.shutdown()
        _WARM_POOL = None
