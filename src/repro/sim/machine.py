"""Machine model: worker processors plus one or more executive servers.

The paper's PAX executive ran on a UNIVAC 1100 where "executive computation
was done at the direct expense of worker computation"; it also notes that
"some real parallel machines may provide separate executive computing
resources".  Both placements are modelled:

``ExecutivePlacement.SHARED``
    Executive server *i* is hosted on worker processor *i*.  Management
    work and computation tasks mutually exclude each other on that
    processor, and management has priority: a queued management job blocks
    new task assignment to the host until it drains (non-preemptive — a
    task already in progress finishes first).

``ExecutivePlacement.DEDICATED``
    Executives are separate serial servers; their busy time costs the
    workers nothing.

**Middle management.**  The paper lists "a middle management scheme to
parallelize the serial management function" among its identified
strategies.  ``n_executives > 1`` provides it: worker-facing management
jobs (assignment, completion processing) are distributed over the server
pool, while *chief* jobs (phase initiation, overlap setup, serial
inter-phase actions) stay on server 0 so phase-level decisions remain
serialized.

The machine is mechanical: it executes tasks and management jobs with
given durations and fires callbacks.  All policy (who gets which task,
when to split, what to enable) lives in :mod:`repro.executive`.

Task and management completions are slotted records
(:class:`_TaskFinish`, :class:`_MgmtFinish`), and the idle workers are
kept as an incrementally sorted list, so dispatch after each event walks
it without re-sorting.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.obs.events import MgmtActionDone, ProcessorFailed, WorkerBusy, WorkerIdle
from repro.sim.engine import Event, Simulator
from repro.sim.events import EventKind
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry

__all__ = ["ExecutivePlacement", "ProcessorState", "Processor", "Machine", "CHIEF_LANE"]

#: Lane constant routing a management job to executive server 0.
CHIEF_LANE = 0


class ExecutivePlacement(enum.Enum):
    """Where executive (management) computation runs."""

    SHARED = "shared"
    DEDICATED = "dedicated"


class ProcessorState(enum.Enum):
    """What a worker processor is doing."""

    IDLE = "idle"
    COMPUTING = "computing"
    MGMT = "mgmt"
    #: Crashed — never accepts work again; in-flight work was lost.
    FAILED = "failed"


class Processor:
    """One worker processor."""

    __slots__ = ("index", "state", "tasks_completed", "current_label")

    def __init__(
        self,
        index: int,
        state: ProcessorState = ProcessorState.IDLE,
        tasks_completed: int = 0,
        current_label: str = "",
    ) -> None:
        self.index = index
        self.state = state
        self.tasks_completed = tasks_completed
        self.current_label = current_label

    @property
    def name(self) -> str:
        return f"P{self.index}"

    def __repr__(self) -> str:
        return (
            f"Processor(index={self.index!r}, state={self.state!r}, "
            f"tasks_completed={self.tasks_completed!r})"
        )


class _MgmtJob:
    """One queued executive job (slotted record, no per-job closures).

    ``noop`` is an optional zero-argument predicate evaluated once, after
    the duration resolves: when it returns True the job is a *no-op* —
    the work it was scheduled for evaporated between scheduling and
    execution (e.g. an assignment whose waiting queue drained) — and the
    machine skips recording its (zero-length) busy span and trace/obs
    records so profiler management attribution is not skewed by phantom
    actions.  The job's callback and ordering are unaffected.
    """

    __slots__ = ("duration", "on_done", "label", "category", "noop")

    def __init__(
        self,
        duration: "float | Callable[[], float]",
        on_done: Callable[[], None] | None,
        label: str,
        category: str,
        noop: Callable[[], bool] | None = None,
    ) -> None:
        self.duration = duration
        self.on_done = on_done
        self.label = label
        self.category = category
        self.noop = noop

    def resolve_duration(self) -> float:
        """Evaluate the job's duration at start time.

        Callable durations let the executive decide the work (and its
        cost) when the job actually begins — e.g. an assignment examines
        the waiting queue as it runs, not as it was requested.
        """
        d = self.duration() if callable(self.duration) else self.duration
        if d < 0:
            raise ValueError(f"management job {self.label!r} resolved a negative duration {d}")
        return d


class _ExecServer:
    """One serial executive server with urgent and background queues."""

    __slots__ = ("index", "busy", "urgent", "background", "host", "resource")

    def __init__(self, index: int, host: Processor | None) -> None:
        self.index = index
        self.busy = False
        self.urgent: deque[_MgmtJob] = deque()
        self.background: deque[_MgmtJob] = deque()
        self.host = host
        self.resource = "EXEC" if index == 0 else f"EXEC{index}"

    def pending(self) -> int:
        return len(self.urgent) + len(self.background)


class _TaskFinish:
    """Slotted completion record for one computation task.

    One allocation holding the four facts the completion needs,
    dispatched by the event loop via ``__call__``.
    """

    __slots__ = ("machine", "proc", "on_done", "label")

    def __init__(
        self,
        machine: "Machine",
        proc: Processor,
        on_done: Callable[[Processor], None],
        label: str,
    ) -> None:
        self.machine = machine
        self.proc = proc
        self.on_done = on_done
        self.label = label

    def __call__(self) -> None:
        self.machine._finish_task(self.proc, self.on_done, self.label)


class _MgmtFinish:
    """Slotted completion record for one management job."""

    __slots__ = ("machine", "server", "job", "duration", "skipped")

    def __init__(
        self,
        machine: "Machine",
        server: _ExecServer,
        job: _MgmtJob,
        duration: float,
        skipped: bool,
    ) -> None:
        self.machine = machine
        self.server = server
        self.job = job
        self.duration = duration
        self.skipped = skipped

    def __call__(self) -> None:
        self.machine._finish_mgmt(self.server, self.job, self.duration, self.skipped)


class Machine:
    """``n_workers`` processors and ``n_executives`` serial executive servers.

    Parameters
    ----------
    sim:
        The discrete-event simulator that owns the clock.
    trace:
        Receives busy intervals and log records.
    n_workers:
        Number of worker processors (>= 1).
    placement:
        Executive placement (see module docstring).
    n_executives:
        Size of the executive pool (middle management when > 1).  In
        SHARED placement, at most ``n_workers`` executives are allowed
        (server *i* is hosted on worker *i*).
    """

    def __init__(
        self,
        sim: Simulator,
        trace: Trace,
        n_workers: int,
        placement: ExecutivePlacement = ExecutivePlacement.SHARED,
        n_executives: int = 1,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if n_executives < 1:
            raise ValueError(f"need at least one executive, got {n_executives}")
        if placement is ExecutivePlacement.SHARED and n_executives > n_workers:
            raise ValueError(
                f"shared placement hosts each executive on a worker: "
                f"{n_executives} executives > {n_workers} workers"
            )
        self.sim = sim
        self.trace = trace
        self.placement = placement
        self.processors = [Processor(i) for i in range(n_workers)]
        # trace resource names, precomputed once (Processor.name is an
        # f-string property; the hot path must not re-format it per event)
        self._proc_names = [f"P{i}" for i in range(n_workers)]
        hosts: list[Processor | None]
        if placement is ExecutivePlacement.SHARED:
            hosts = [self.processors[i] for i in range(n_executives)]
        else:
            hosts = [None] * n_executives
        self._servers = [_ExecServer(i, hosts[i]) for i in range(n_executives)]
        self._host_server: dict[int, _ExecServer] = {
            s.host.index: s for s in self._servers if s.host is not None
        }
        # IDLE processor indices, kept sorted incrementally (bisect insert
        # and removal) so that dispatch after each event never re-sorts —
        # at 1000 simulated processors the difference is the feasibility
        # of the paper's full-scale example.
        self._idle_sorted: list[int] = list(range(n_workers))
        self.mgmt_jobs_done = 0
        self._obs = telemetry
        #: Hook invoked with the processor each time one returns to IDLE.
        self.on_processor_idle: Callable[[Processor], None] | None = None
        #: Hook invoked when a crash loses a processor's in-flight task.
        self.on_task_lost: Callable[[Processor], None] | None = None
        # in-flight task-completion events, so a crash can cancel them
        self._task_events: dict[int, Event] = {}

    # ------------------------------------------------------------------ helpers
    @property
    def n_workers(self) -> int:
        return len(self.processors)

    @property
    def n_executives(self) -> int:
        return len(self._servers)

    @property
    def exec_host(self) -> Processor | None:
        """The worker hosting executive 0, or ``None`` when dedicated."""
        return self._servers[0].host

    def exec_resources(self) -> list[str]:
        """Trace resource names of all executive servers."""
        return [s.resource for s in self._servers]

    def _server_for(self, proc: Processor) -> _ExecServer | None:
        return self._host_server.get(proc.index)

    def _idle_discard(self, index: int) -> None:
        lst = self._idle_sorted
        i = bisect_left(lst, index)
        if i < len(lst) and lst[i] == index:
            del lst[i]

    def idle_processors(self) -> list[Processor]:
        """Workers currently able to accept a task, in index order.

        In SHARED placement a host is excluded while its executive has
        urgent work pending or running — management has priority on its
        processor.
        """
        procs = self.processors
        if not self._host_server:
            return [procs[i] for i in self._idle_sorted]
        out = []
        for i in self._idle_sorted:
            p = procs[i]
            server = self._host_server.get(i)
            if server is not None and (server.busy or server.urgent):
                continue
            out.append(p)
        return out

    def live_workers(self) -> list[Processor]:
        """Workers that have not failed, in index order."""
        return [p for p in self.processors if p.state is not ProcessorState.FAILED]

    def failed_workers(self) -> list[Processor]:
        """Workers lost to :meth:`fail_processor`, in index order."""
        return [p for p in self.processors if p.state is ProcessorState.FAILED]

    def tasks_in_flight(self) -> int:
        """Computation tasks currently executing on live workers."""
        return len(self._task_events)

    def executive_pending(self) -> int:
        """Queued (not yet started) management jobs across all servers."""
        return sum(s.pending() for s in self._servers)

    @property
    def executive_busy(self) -> bool:
        """True when any executive server is mid-job."""
        return any(s.busy for s in self._servers)

    # ------------------------------------------------------------------ tasks
    def start_task(
        self,
        proc: Processor,
        duration: float,
        on_done: Callable[[Processor], None],
        label: str = "",
    ) -> bool:
        """Begin a computation task on ``proc``; returns False if refused.

        Refusal happens when the processor is busy, or when it hosts an
        executive with urgent management work (executive priority).
        """
        if duration < 0:
            raise ValueError(f"negative task duration {duration}")
        if proc.state is not ProcessorState.IDLE:
            return False
        index = proc.index
        if self._host_server:
            server = self._host_server.get(index)
            if server is not None and (server.busy or server.urgent):
                return False
        proc.state = ProcessorState.COMPUTING
        self._idle_discard(index)
        proc.current_label = label
        now = self.sim._now
        name = self._proc_names[index]
        self.trace.begin_logged(name, now, "compute", label, EventKind.TASK_START)
        if self._obs is not None:
            self._obs.bus.publish(WorkerBusy(now, name, "compute"))
        self._task_events[index] = self.sim.schedule_after(
            duration, _TaskFinish(self, proc, on_done, label), priority=0
        )
        return True

    def _finish_task(
        self, proc: Processor, on_done: Callable[[Processor], None], label: str
    ) -> None:
        """Close out one computation task."""
        index = proc.index
        self._task_events.pop(index, None)
        now = self.sim._now
        name = self._proc_names[index]
        self.trace.end_logged(name, now, "compute", label, EventKind.TASK_END)
        proc.state = ProcessorState.IDLE
        insort(self._idle_sorted, index)
        proc.current_label = ""
        proc.tasks_completed += 1
        if self._obs is not None:
            self._obs.bus.publish(WorkerIdle(now, name))
        on_done(proc)
        # Management may have queued while this task ran on the host.
        hs = self._host_server
        if hs:
            host_server = hs.get(index)
            if host_server is not None and (host_server.urgent or host_server.background):
                self._try_start_mgmt(host_server)
        if self.on_processor_idle is not None and proc.state is ProcessorState.IDLE:
            self.on_processor_idle(proc)

    # ------------------------------------------------------------------ faults
    def fail_processor(self, proc: Processor) -> None:
        """Crash ``proc`` at the current time; it never accepts work again.

        An in-flight computation task is lost: its completion event is
        cancelled and the ``on_task_lost`` hook fires so the executive can
        account for the orphaned granules (the busy interval up to the
        crash still counts as compute — the processor genuinely spent it,
        the work is simply wasted).  Crashing a processor that hosts an
        executive server is refused: executive failover is out of scope
        (use DEDICATED placement for crash experiments).
        """
        if proc.state is ProcessorState.FAILED:
            return
        if self._server_for(proc) is not None:
            raise ValueError(
                f"cannot crash {proc.name}: it hosts an executive server "
                f"(executive failover is not modelled; use DEDICATED placement)"
            )
        lost_label = ""
        if proc.state is ProcessorState.COMPUTING:
            ev = self._task_events.pop(proc.index, None)
            if ev is not None:
                ev.cancel()
            self.trace.end(proc.name, self.sim.now, "compute")
            lost_label = proc.current_label
            self.trace.log(
                self.sim.now, EventKind.TASK_LOST, proc.name, label=lost_label
            )
        self._idle_discard(proc.index)
        was_computing = proc.state is ProcessorState.COMPUTING
        proc.state = ProcessorState.FAILED
        proc.current_label = ""
        self.trace.log(
            self.sim.now, EventKind.PROCESSOR_FAILED, proc.name, label=lost_label
        )
        if self._obs is not None:
            self._obs.bus.publish(ProcessorFailed(self.sim.now, proc.name, lost_label))
        if was_computing and self.on_task_lost is not None:
            self.on_task_lost(proc)

    # ------------------------------------------------------------------ mgmt
    def submit_mgmt(
        self,
        duration: "float | Callable[[], float]",
        on_done: Callable[[], None] | None = None,
        label: str = "",
        category: str = "mgmt",
        background: bool = False,
        lane: int | None = None,
        noop: Callable[[], bool] | None = None,
    ) -> None:
        """Queue a serial executive job.

        ``duration`` may be a number or a zero-argument callable evaluated
        when the job starts (the executive decides the work — and its
        cost — as it runs).  Urgent jobs (``background=False``) are served
        FIFO and always before background jobs.  Background jobs model
        work the executive does "in otherwise idle time" — presplitting
        and queued successor-splitting tasks.

        ``lane`` pins the job to a specific server (``CHIEF_LANE`` = 0 for
        phase-level decisions); ``None`` lets the machine pick an idle (or
        least-loaded) server — the middle-management distribution.

        ``noop`` is an optional zero-argument predicate evaluated after
        the duration resolves; True means the job turned out to be a no-op
        (e.g. an assignment whose queue drained) and its zero-length busy
        span plus trace/obs records are skipped.  Scheduling, ordering and
        the ``on_done`` callback are unaffected.
        """
        if not callable(duration) and duration < 0:
            raise ValueError(f"negative management duration {duration}")
        self.submit_job(
            _MgmtJob(duration, on_done, label, category, noop), background, lane
        )

    def submit_job(
        self,
        job: "_MgmtJob",
        background: bool = False,
        lane: int | None = None,
    ) -> None:
        """Queue a prebuilt executive job record.

        ``job`` is any object with the :class:`_MgmtJob` interface —
        ``resolve_duration()``, ``label``, ``category``, ``on_done``
        (callable or None) and ``noop`` (predicate or None).  The
        executive's inner loop (:mod:`repro.executive.hotloop`) builds
        slotted records once per action instead of closing over locals,
        then hands them here; ``background`` and ``lane`` are as for
        :meth:`submit_mgmt`.
        """
        servers = self._servers
        if lane is not None:
            if not (0 <= lane < len(servers)):
                raise ValueError(f"lane {lane} out of range for {len(servers)} executives")
            server = servers[lane]
        elif len(servers) == 1:
            server = servers[0]
        else:
            server = self._pick_server()
        (server.background if background else server.urgent).append(job)
        self._try_start_mgmt(server)

    def _pick_server(self) -> _ExecServer:
        """Least-loaded server; deterministic tie-break by index."""
        best = self._servers[0]
        if len(self._servers) == 1:
            return best
        best_load = best.pending() + (1 if best.busy else 0)
        for s in self._servers[1:]:
            load = s.pending() + (1 if s.busy else 0)
            if load < best_load:
                best, best_load = s, load
        return best

    def _try_start_mgmt(self, server: _ExecServer) -> None:
        """Start the server's next job unless it is busy or its host computes.

        Job records' ``noop``/``on_done`` may be stored callables, methods
        or class-level ``None``.
        """
        if server.busy or not (server.urgent or server.background):
            return
        host = server.host
        if host is not None and host.state is ProcessorState.COMPUTING:
            return  # non-preemptive: wait for the host's task to finish
        job = server.urgent.popleft() if server.urgent else server.background.popleft()
        server.busy = True
        job_duration = job.resolve_duration()
        # the no-op verdict is fixed at start time so begin/end stay paired
        noop = job.noop
        skipped = noop is not None and noop()
        now = self.sim._now
        trace = self.trace
        if host is not None:
            host.state = ProcessorState.MGMT
            index = host.index
            self._idle_discard(index)
            if not skipped:
                trace.begin(self._proc_names[index], now, job.category, job.label)
                if self._obs is not None:
                    self._obs.bus.publish(
                        WorkerBusy(now, self._proc_names[index], job.category)
                    )
        if not skipped:
            trace.begin_logged(
                server.resource, now, job.category, job.label, EventKind.MGMT_START
            )
        self.sim.schedule_after(
            job_duration, _MgmtFinish(self, server, job, job_duration, skipped), priority=-1
        )

    def _finish_mgmt(
        self, server: _ExecServer, job: _MgmtJob, job_duration: float, skipped: bool
    ) -> None:
        """Close out one management job."""
        now = self.sim._now
        trace = self.trace
        host = server.host
        if not skipped:
            trace.end_logged(
                server.resource, now, job.category, job.label, EventKind.MGMT_END
            )
        if host is not None:
            if not skipped:
                trace.end(self._proc_names[host.index], now, job.category)
            host.state = ProcessorState.IDLE
            insort(self._idle_sorted, host.index)
        if self._obs is not None and not skipped:
            if host is not None:
                self._obs.bus.publish(WorkerIdle(now, self._proc_names[host.index]))
            self._obs.bus.publish(
                MgmtActionDone(now, server.resource, job.label, job_duration, job.category)
            )
        server.busy = False
        self.mgmt_jobs_done += 1
        od = job.on_done
        if od is not None:
            od()
        if server.urgent or server.background:
            self._try_start_mgmt(server)
        if (
            host is not None
            and host.state is ProcessorState.IDLE
            and not server.busy
            and not (server.urgent or server.background)
            and self.on_processor_idle is not None
        ):
            self.on_processor_idle(host)

    # ------------------------------------------------------------------ stats
    def compute_time(self) -> float:
        """Total productive computation time across all workers."""
        return sum(self.trace.busy_time(p.name, "compute") for p in self.processors)

    def mgmt_time(self) -> float:
        """Total executive busy time (management plus serial actions)."""
        total = 0.0
        for s in self._servers:
            total += self.trace.busy_time(s.resource, "mgmt")
            total += self.trace.busy_time(s.resource, "serial")
        return total
