"""A fixed reference kernel: how fast this host runs Python right now.

The benchmark's hosts are shared, and their speed drifts by a quarter or
more over tens of seconds as neighbours come and go.  Each timed operation
is preceded by this kernel, and its host seconds are scaled by
``NOMINAL_S / kernel seconds``: the result is the time the operation would
take on a host that runs the kernel in ``NOMINAL_S``.  The kernel is
independent of the repository's code, so a change to the program moves the
scaled figures exactly as it moves the raw ones.

The kernel does the two things the simulator spends its time on: an
event-queue loop (pop the earliest entry of a small heap, update a slotted
record and a counter, push its successor), then building and dropping many
small dicts, tuples and lists.  On a shared 2-core Xeon its time tracked the
workloads' per-operation time more closely than a sort-and-index kernel did
(per-operation spread after scaling 0.12-0.20 against 0.23-0.33).  It frees
what it allocates between rounds so it does not raise the process's peak
memory above the workload's own.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["NOMINAL_S", "kernel_seconds", "scale"]

#: Seconds the kernel takes on the reference host (an idle 2 GHz Xeon core).
NOMINAL_S = 0.117
HEAP_SIZE = 512
STEPS = 60_000
ROUNDS = 6
ITEMS = 10_000


class _Record:
    __slots__ = ("n", "busy")

    def __init__(self) -> None:
        self.n = 0
        self.busy = False


def kernel_seconds() -> float:
    """Host seconds of one run of the reference kernel.

    The cyclic garbage collector is off while it runs: a collection would
    also walk what the workload left behind, and then the kernel's time
    would depend on the program it is meant to be independent of.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    t0 = time.perf_counter()
    heap = [(float(i % 97), i, _Record()) for i in range(HEAP_SIZE)]
    heapq.heapify(heap)
    counts: dict[int, int] = {}
    seq = HEAP_SIZE
    for _ in range(STEPS):
        t, key, rec = heapq.heappop(heap)
        rec.n += 1
        rec.busy = not rec.busy
        counts[key & 255] = counts.get(key & 255, 0) + 1
        seq += 1
        heapq.heappush(heap, (t + 1.0 + seq % 7, seq, rec))
    for _ in range(ROUNDS):
        rows = [{"a": i, "b": (i, i + 1), "c": [i]} for i in range(ITEMS)]
        if sum(len(row["c"]) for row in rows) != ITEMS:
            raise RuntimeError("reference kernel lost rows")
        del rows
    if sum(counts.values()) != STEPS:
        raise RuntimeError("reference kernel lost events")
    return time.perf_counter() - t0


def scale() -> float:
    """Factor from host seconds, measured now, to reference seconds."""
    return NOMINAL_S / kernel_seconds()
