"""Zero-copy data-plane benchmark — descriptor shipping vs array pickling.

The tentpole claim of the shared-memory plane: dispatching a grid cell to
a pool worker costs O(1) pickle bytes instead of O(map size).  This bench
measures the *actual* submitted payloads — the ``(base spec, units,
labels, maps, ...)`` argument tuple exactly as ``run_grid`` submits it —
for a reverse-indirect workload whose concrete selection map holds over
a million entries, both inline (arrays ride the pickle) and through
:class:`~repro.sweep.shm.SharedMapStore` descriptors.

Gate: the descriptor payload must be at least **10x** smaller.  In
practice it is ~10,000x (an 8 MiB map against a ~100-byte descriptor);
the generous limit keeps the gate meaningful if the task tuple grows.

Also measured (reported, not gated): segment create/attach wall time and
copy throughput.  ``BENCH_QUICK`` does not shrink the map — the ≥1M-entry
size is part of the acceptance criterion and the bench runs in well under
a second.  Writes the ``shm_transfer`` section of ``BENCH_grid.json``.
"""

from __future__ import annotations

import inspect
import json
import os
import pickle
import time
from pathlib import Path

import numpy as np

from repro.sweep import GridAxis, GridSpec, SweepSpec, grid_cell_seed
from repro.sweep.runner import GRID_LABELS, _run_units
from repro.sweep.shm import SharedMapStore

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: >= 1M map entries: fan_in 4 over 262,144 successor granules.
FAN_IN = 4
N = 262_144
MIN_BYTES_RATIO = 10.0


def _task_args(maps) -> tuple:
    """The argument tuple ``run_grid`` submits to the worker entry for one
    batch of cells: a :class:`SharedMapStore` in a pool (it pickles as its
    descriptors), the plain arrays inline."""
    grid = GridSpec(
        base=SweepSpec(
            "reverse-indirect", replications=2, seed=7, params={"n": N, "fan_in": FAN_IN}
        ),
        axes=(GridAxis("sim_workers", (4, 8)),),
    )
    units = [
        (pi * 2 + r, point, r, grid_cell_seed(7, point, r))
        for pi, point in enumerate(grid.points())
        for r in range(2)
    ]
    args = (grid.base.to_dict(), units, GRID_LABELS, maps, None, False)
    # a change to the worker entry's signature must fail here, loudly
    assert len(args) == len(inspect.signature(_run_units).parameters)
    return args


def bench_shm_transfer() -> dict:
    maps = {"IMAP": np.random.default_rng(0).integers(0, N, size=(FAN_IN, N))}
    entries = int(maps["IMAP"].size)
    assert entries >= 1_000_000

    inline_bytes = len(pickle.dumps(_task_args(maps)))

    t0 = time.perf_counter()
    with SharedMapStore.create(maps) as store:
        create_seconds = time.perf_counter() - t0
        descriptor_bytes = len(pickle.dumps(_task_args(store)))
        t1 = time.perf_counter()
        attached = SharedMapStore.attach(store.descriptors())
        attach_seconds = time.perf_counter() - t1
        try:
            np.testing.assert_array_equal(attached["IMAP"], maps["IMAP"])
        finally:
            attached.close()
        nbytes = store.nbytes()

    return {
        "map_entries": entries,
        "map_bytes": nbytes,
        "inline_pickle_bytes": inline_bytes,
        "descriptor_pickle_bytes": descriptor_bytes,
        "bytes_ratio": inline_bytes / descriptor_bytes,
        "create_seconds": create_seconds,
        "attach_seconds": attach_seconds,
        "create_bytes_per_second": nbytes / create_seconds if create_seconds > 0 else 0.0,
    }


def write_report(section: dict, path: str | Path = "BENCH_grid.json") -> None:
    """Merge one section into the shared grid bench report."""
    path = Path(path)
    report = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    report["quick"] = QUICK
    report["shm_transfer"] = section
    path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")


def test_shm_transfer():
    results = bench_shm_transfer()
    write_report(results)
    assert results["bytes_ratio"] >= MIN_BYTES_RATIO, (
        f"descriptor payload only {results['bytes_ratio']:.1f}x smaller than "
        f"inline arrays (need >= {MIN_BYTES_RATIO}x)"
    )
    print(json.dumps(results, indent=2, sort_keys=True))


if __name__ == "__main__":
    out = bench_shm_transfer()
    write_report(out)
    print(json.dumps(out, indent=2, sort_keys=True))
