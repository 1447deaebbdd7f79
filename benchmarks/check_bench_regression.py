"""Fail CI when a gated benchmark regresses >2x against its committed baseline.

Usage::

    python benchmarks/check_bench_regression.py BENCH_core.json \
        [benchmarks/BENCH_core.baseline.json]
    python benchmarks/check_bench_regression.py BENCH_faults.json
    python benchmarks/check_bench_regression.py BENCH_grid.json
    python benchmarks/check_bench_regression.py BENCH_profile.json
    python benchmarks/check_bench_regression.py BENCH_lint.json

One checker, five suites — ``core``, ``faults``, ``grid``, ``profile``,
``lint`` — inferred
from the current report's filename (``BENCH_<suite>.json``); the baseline
defaults to ``benchmarks/BENCH_<suite>.baseline.json``.  Each suite gates
its *throughput* metrics (higher is better): a metric fails when it drops
below half the baseline value — generous enough to ride out shared-runner
noise, tight enough to catch an accidental re-quadratization of a hot
path.

The ``grid`` suite additionally gates ``shm_transfer.bytes_ratio``: the
pickled-payload reduction of descriptor shipping over inline arrays is a
deterministic byte count, so any drop below half the committed ratio
means the task tuple started carrying O(map size) data again.

Ratio metrics (``speedup_vs_*``, overhead fractions) and wall-clock sweep
timings are reported by the benches but not baseline-gated here: they
compare two measurements taken on the same run, so they are already
noise-normalized where it matters, and wall clock depends on how loaded
the runner is.

Two **absolute** gates ride on the core suite.  ``sweep_scaling.speedup``:
the warm-pool parallel sweep must beat serial by the core-aware floor from
:func:`sweep_scaling_floor` — 1.5x on a >=4-core runner, proportionally
less on narrower machines, and "within 15% of serial" on a single core,
where real speedup is physically impossible but pool overhead is not.
``simulate_throughput.events_per_kernel``: simulation events per
second, scaled by the seconds the fixed reference kernel of
``perfbench/reference.py`` takes on the same host, must stay >= 1.3x the
value the baseline records for the closure-based reference executive
(measured over ABBA-paired runs before that executive was deleted).
Both print the usable core count so a gate trip on a throttled runner is
explicable from the log.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

#: suite -> (bench, metric) pairs gated at >2x regression; higher is better.
SUITES: dict[str, tuple[tuple[str, str], ...]] = {
    "core": (
        ("enablement_notify", "granules_per_second"),
        ("composite_build", "groups_per_second"),
        ("granule_algebra", "union_all_sets_per_second"),
        ("granule_algebra", "or_ranges_per_second"),
        ("event_queue", "events_per_second"),
        ("simulate_throughput", "events_per_second"),
    ),
    "faults": (
        ("enablement_notify", "granules_per_second"),
    ),
    "grid": (
        ("composite_rebuild", "groups_per_second"),
        ("shm_transfer", "bytes_ratio"),
    ),
    "profile": (
        ("pool_attribution", "replications_per_second"),
        ("waterfall", "intervals_per_second"),
    ),
    "lint": (
        ("hb_build", "phases_per_second"),
        ("hb_build", "queries_per_second"),
    ),
}

MAX_REGRESSION = 2.0


def sweep_scaling_floor(available_cores: int) -> float:
    """Minimum acceptable ``sweep_scaling.speedup`` for a core count.

    The acceptance bar is an absolute **speedup > 1.5 at 4 workers** — but
    only where the hardware can express it.  On a 4-core (or wider) runner
    the full bar applies; with 2-3 usable cores it scales proportionally;
    a 1-core runner cannot beat serial at all, so the floor there only
    asserts that pool overhead stays small (warm pools + batching keep a
    1-core parallel run within ~15% of serial — the historical cold-pool
    regime sat near 0.55 and fails this gate).
    """
    if available_cores >= 4:
        return 1.5
    if available_cores >= 2:
        return max(0.85, 1.5 * available_cores / 4)
    return 0.85


def check_sweep_scaling(current: dict, baseline: dict) -> list[str]:
    """Absolute-floor gate on the warm-pool sweep speedup (core suite)."""
    bench = current.get("sweep_scaling")
    if bench is None:
        return ["sweep_scaling: missing from current report"]
    try:
        speedup = float(bench["speedup"])
        cores = int(bench["available_cores"])
    except KeyError as exc:
        return [f"sweep_scaling: missing key {exc}"]
    base_cores = (baseline.get("sweep_scaling") or {}).get("available_cores", "?")
    floor = sweep_scaling_floor(cores)
    status = "FAIL" if speedup < floor else "ok"
    print(
        f"[{status:>4}] core:sweep_scaling.speedup: "
        f"current={speedup:.2f} floor={floor:.2f} "
        f"(absolute gate; available_cores: current={cores}, baseline={base_cores})"
    )
    if speedup < floor:
        return [
            f"sweep_scaling.speedup {speedup:.2f} below the {floor:.2f} floor "
            f"for {cores} usable core(s) (baseline recorded {base_cores})"
        ]
    return []


#: ``events_per_kernel`` must beat the closure-based reference executive's
#: recorded value by this factor.  Both sides are normalized by the same
#: reference kernel, so no core-count scaling is needed.
SIMULATE_SPEEDUP_FLOOR = 1.3


def simulate_throughput_floor(baseline: dict) -> float:
    """Minimum acceptable ``simulate_throughput.events_per_kernel``."""
    reference = baseline["simulate_throughput"]["reference_events_per_kernel"]
    return SIMULATE_SPEEDUP_FLOOR * float(reference["median"])


def check_simulate_throughput(current: dict, baseline: dict) -> list[str]:
    """Absolute-floor gate on kernel-normalized simulation throughput."""
    bench = current.get("simulate_throughput")
    if bench is None:
        return ["simulate_throughput: missing from current report"]
    if "events_per_kernel" not in bench:
        return ["simulate_throughput.events_per_kernel: missing from report"]
    cores = os.cpu_count() or 1
    floor = simulate_throughput_floor(baseline)
    value = float(bench["events_per_kernel"])
    status = "FAIL" if value < floor else "ok"
    print(
        f"[{status:>4}] core:simulate_throughput.events_per_kernel: "
        f"current={value:,.0f} floor={floor:,.0f} "
        f"({SIMULATE_SPEEDUP_FLOOR}x the closure reference; available_cores={cores})"
    )
    if value < floor:
        return [
            f"simulate_throughput.events_per_kernel {value:,.0f} below the "
            f"{floor:,.0f} floor (available_cores={cores})"
        ]
    return []


def infer_suite(current_path: Path) -> str:
    """``BENCH_<suite>.json`` -> suite name (default: core)."""
    m = re.match(r"BENCH_([a-z]+)", current_path.name)
    suite = m.group(1) if m else "core"
    if suite not in SUITES:
        raise SystemExit(
            f"unknown benchmark suite {suite!r} (from {current_path.name}); "
            f"expected one of {sorted(SUITES)}"
        )
    return suite


def check(current: dict, baseline: dict, suite: str = "core") -> list[str]:
    """Return a list of failure messages (empty means the gate passes)."""
    failures: list[str] = []
    for bench, metric in SUITES[suite]:
        try:
            base = float(baseline[bench][metric])
            cur = float(current[bench][metric])
        except KeyError as exc:
            failures.append(f"{bench}.{metric}: missing key {exc}")
            continue
        ratio = base / cur if cur > 0 else float("inf")
        status = "FAIL" if ratio > MAX_REGRESSION else "ok"
        print(
            f"[{status:>4}] {suite}:{bench}.{metric}: "
            f"baseline={base:,.0f} current={cur:,.0f} "
            f"(regression {ratio:.2f}x, limit {MAX_REGRESSION:.1f}x)"
        )
        if ratio > MAX_REGRESSION:
            failures.append(
                f"{bench}.{metric} regressed {ratio:.2f}x "
                f"(baseline {base:,.0f} -> current {cur:,.0f})"
            )
    return failures


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent
    current_path = Path(argv[1]) if len(argv) > 1 else Path("BENCH_core.json")
    suite = infer_suite(current_path)
    baseline_path = (
        Path(argv[2]) if len(argv) > 2 else here / f"BENCH_{suite}.baseline.json"
    )
    current = json.loads(current_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    if current.get("quick") != baseline.get("quick"):
        print(
            f"note: quick-mode mismatch (baseline quick={baseline.get('quick')}, "
            f"current quick={current.get('quick')}); throughput gates still apply"
        )

    failures = check(current, baseline, suite)
    if suite == "core":
        failures += check_sweep_scaling(current, baseline)
        failures += check_simulate_throughput(current, baseline)
    if failures:
        print(f"\n{len(failures)} benchmark regression(s) vs {baseline_path}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nall gated {suite} benchmarks within {MAX_REGRESSION:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
