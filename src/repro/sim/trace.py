"""Busy/idle interval recording and utilization timelines.

A :class:`Trace` collects :class:`~repro.sim.events.LogRecord` entries plus
closed busy :class:`Interval` records per resource.  The metrics layer
(:mod:`repro.metrics`) derives everything the paper reports — processor
utilization during rundown, idle loss, computation-to-management ratio —
from these intervals, so this module is the single source of truth for
"who was busy when".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from repro.sim.events import EventKind, LogRecord

__all__ = [
    "Interval",
    "TASK_EVENT_KINDS",
    "Trace",
    "TraceError",
    "utilization_timeline",
    "merge_intervals",
]

#: The record kinds that describe computation tasks (vs management work).
TASK_EVENT_KINDS = frozenset(
    (EventKind.TASK_START, EventKind.TASK_END, EventKind.TASK_LOST)
)


class TraceError(RuntimeError):
    """Interval bookkeeping misuse: double ``begin`` or unmatched ``end``.

    Subclasses :class:`RuntimeError` so pre-existing ``except
    RuntimeError`` callers (and tests) keep working.
    """


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open busy interval ``[start, end)`` on a named resource.

    ``category`` distinguishes productive computation (``"compute"``) from
    management (``"mgmt"``) and serial inter-phase actions (``"serial"``).
    """

    resource: str
    start: float
    end: float
    category: str = "compute"
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share any positive-length span."""
        return self.start < other.end and other.start < self.end


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge possibly-overlapping ``(start, end)`` spans into a disjoint list."""
    spans = sorted((s, e) for s, e in intervals if e > s)
    merged: list[tuple[float, float]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


class Trace:
    """Accumulates log records and busy intervals for one simulation run."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []
        #: TASK_START/TASK_END/TASK_LOST records in arrival order.  The
        #: trace sanitizer replays only these, and they are outnumbered
        #: ~5:1 by management records — indexing at log time spares every
        #: consumer the full-trace scan.
        self.task_records: list[LogRecord] = []
        self._intervals: dict[str, list[Interval]] = {}
        self._open: dict[tuple[str, str], tuple[float, str]] = {}

    # ------------------------------------------------------------------ logging
    def log(self, time: float, kind: EventKind, subject: str, **detail: Any) -> None:
        """Append a log record."""
        rec = LogRecord(time=time, kind=kind, subject=subject, detail=detail)
        self.records.append(rec)
        if kind in TASK_EVENT_KINDS:
            self.task_records.append(rec)

    def begin_logged(
        self, resource: str, time: float, category: str, label: str, kind: EventKind
    ) -> None:
        """Hot-path :meth:`begin` + :meth:`log` fused into one call.

        The simulation's inner loop opens an interval and logs a record for
        every task/management start; fusing them halves the call overhead
        on the hottest trace operation.  Error cases defer to
        :meth:`begin` for its diagnostic message.
        """
        key = (resource, category)
        if key in self._open:
            self.begin(resource, time, category, label)  # raises with detail
        self._open[key] = (time, label)
        rec = LogRecord(time=time, kind=kind, subject=resource, detail={"label": label})
        self.records.append(rec)
        if kind in TASK_EVENT_KINDS:
            self.task_records.append(rec)

    def end_logged(
        self, resource: str, time: float, category: str, label: str, kind: EventKind
    ) -> Interval:
        """Hot-path :meth:`end` + :meth:`log` fused into one call.

        ``label`` is the *record* label; the interval keeps the label it
        was opened with, exactly as the unfused pair does.  Error cases
        defer to :meth:`end` for its diagnostic message.
        """
        key = (resource, category)
        if key not in self._open:
            return self.end(resource, time, category)  # raises with detail
        start, open_label = self._open.pop(key)
        iv = Interval(
            resource=resource, start=start, end=time, category=category, label=open_label
        )
        self._intervals.setdefault(resource, []).append(iv)
        rec = LogRecord(time=time, kind=kind, subject=resource, detail={"label": label})
        self.records.append(rec)
        if kind in TASK_EVENT_KINDS:
            self.task_records.append(rec)
        return iv

    def begin(self, resource: str, time: float, category: str = "compute", label: str = "") -> None:
        """Open a busy interval on ``resource``.

        Raises
        ------
        TraceError
            If an interval of the same category is already open on the
            resource — a resource cannot do two things of one kind at
            once.  The message names the open interval's start time and
            label so double-``begin`` bugs are locatable.
        """
        key = (resource, category)
        if key in self._open:
            since, open_label = self._open[key]
            detail = f" ({open_label!r})" if open_label else ""
            raise TraceError(
                f"begin({resource!r}, t={time}, {category!r}): resource already "
                f"busy with {category!r}{detail} since t={since}"
            )
        self._open[key] = (time, label)

    def end(self, resource: str, time: float, category: str = "compute") -> Interval:
        """Close the open interval on ``resource`` and record it.

        Raises
        ------
        TraceError
            If no ``category`` interval is open on the resource.  When
            the resource is busy with *other* categories the message
            lists them — the usual culprit is an ``end`` with the wrong
            category, not a missing ``begin``.
        """
        key = (resource, category)
        if key not in self._open:
            open_cats = sorted(c for r, c in self._open if r == resource)
            hint = (
                f"; open categories on this resource: {open_cats}"
                if open_cats
                else "; no interval of any category is open on this resource"
            )
            raise TraceError(
                f"end({resource!r}, t={time}, {category!r}): no open "
                f"{category!r} interval{hint}"
            )
        start, label = self._open.pop(key)
        iv = Interval(resource=resource, start=start, end=time, category=category, label=label)
        self._intervals.setdefault(resource, []).append(iv)
        return iv

    def add_interval(self, interval: Interval) -> None:
        """Record a pre-built interval (used by analytic reconstructions)."""
        self._intervals.setdefault(interval.resource, []).append(interval)

    # ------------------------------------------------------------------ queries
    def resources(self) -> list[str]:
        """Sorted list of resources that recorded at least one interval."""
        return sorted(self._intervals)

    def intervals(self, resource: str | None = None, category: str | None = None) -> Iterator[Interval]:
        """Iterate recorded intervals, optionally filtered."""
        if resource is None:
            sources: Iterable[list[Interval]] = (self._intervals[r] for r in self.resources())
        else:
            sources = [self._intervals.get(resource, [])]
        for ivs in sources:
            for iv in ivs:
                if category is None or iv.category == category:
                    yield iv

    def busy_time(self, resource: str | None = None, category: str | None = None) -> float:
        """Total busy time, with overlap within a resource merged away."""
        if resource is None:
            return sum(self.busy_time(r, category) for r in self.resources())
        spans = [(iv.start, iv.end) for iv in self.intervals(resource, category)]
        return sum(e - s for s, e in merge_intervals(spans))

    def span(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` over all intervals; (0, 0) if empty."""
        starts = [iv.start for iv in self.intervals()]
        ends = [iv.end for iv in self.intervals()]
        if not starts:
            return (0.0, 0.0)
        return (min(starts), max(ends))

    def makespan(self) -> float:
        """Latest interval end (simulation finish time proxy)."""
        return self.span()[1]

    def records_of(self, kind: EventKind) -> list[LogRecord]:
        """All log records of one kind, in time order."""
        return [r for r in self.records if r.kind is kind]


def utilization_timeline(
    trace: Trace,
    n_processors: int,
    resources: Iterable[str] | None = None,
    category: str = "compute",
) -> tuple[np.ndarray, np.ndarray]:
    """Step function of the number of busy processors over time.

    Returns ``(times, busy_counts)`` where ``busy_counts[i]`` holds on
    ``[times[i], times[i+1])``.  ``n_processors`` only normalizes callers'
    utilization computations; it is returned data's ceiling, not enforced.

    Notes
    -----
    Built from interval endpoints with a sweep, so it is exact — no
    sampling grid.  This is the raw material for the paper's central
    quantity: how many processors are busy as a phase runs down.
    """
    if resources is None:
        resources = trace.resources()
    deltas: list[tuple[float, int]] = []
    for r in resources:
        for iv in trace.intervals(r, category):
            if iv.duration > 0:
                deltas.append((iv.start, +1))
                deltas.append((iv.end, -1))
    if not deltas:
        return np.array([0.0]), np.array([0])
    deltas.sort()
    times: list[float] = []
    counts: list[int] = []
    level = 0
    for t, d in deltas:
        if times and times[-1] == t:
            level += d
            counts[-1] = level
        else:
            level += d
            times.append(t)
            counts.append(level)
    return np.asarray(times, dtype=float), np.asarray(counts, dtype=int)
