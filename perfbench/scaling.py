"""Scaling diagnostic: fit how host time grows with problem size.

Not part of the timed benchmark.  Runs ``rundown-wave`` and
``casper-overlap`` at three sizes each, each twice the last, and fits the
exponents of simulate seconds against input granules and of analysis seconds
(sanitize, waterfall, persist) against scheduled events.  ``casper-overlap``
grows its machine with its input so that the event count grows too.
Each size runs in a fresh interpreter.  An exponent of 1 is linear.

Usage, from the root of the repository::

    python3 perfbench/scaling.py [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Computations of one rundown-wave point: 1/64, 1/32 and 1/16 of T2c.
RUNDOWN_SIZES = (8192, 16384, 32768)
#: CASPER granule scales of the casper-overlap points, each run on four
#: processors per unit of scale: tasks, and so events, grow with the
#: processor count, and the work per processor stays the same.
CASPER_SCALES = (16, 32, 64)
#: Timed repetitions per point; the fastest is kept.
REPEATS = 2


def fit_exponent(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def point(workload: str, size: int, seed: int) -> dict[str, Any]:
    """Measure one size in this process (the child side)."""
    import cProfile

    import cases
    import child
    import layers
    import repro

    if workload == "rundown-wave":
        case = cases.RundownWave(seed)
        case.n = size
    else:
        case = cases.CasperOverlap(seed)
        case.GRANULE_SCALE = size
        case.N_PROCESSORS = 4 * size
    best: dict[str, float] = {}
    for _ in range(REPEATS):
        spans = cases.Spans()
        op = case.operation(spans)
        if op["errors"]:
            raise RuntimeError("; ".join(op["errors"]))
        s = spans.seconds
        sample = {
            "simulate_s": s["simulate"],
            "analyze_s": s["sanitize"] + s["profile"] + s["persist"],
        }
        for k, v in sample.items():
            best[k] = min(best.get(k, v), v)
    prof = cProfile.Profile()
    case.operation(cases.Spans({"simulate": prof}))
    package = Path(repro.__file__).parent
    events = layers.count_calls([prof], package, "sim/engine.py", "push")
    trace_bytes = child.retained_trace_bytes(case, cases, False)
    granules = op["granules"]
    return {
        "size": size,
        "granules": granules,
        "events": events,
        "bytes_per_granule": trace_bytes / granules,
        **best,
    }


def run_point(workload: str, size: int, seed: int) -> dict[str, Any]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--point", workload, str(size),
           "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--point", nargs=2, metavar=("WORKLOAD", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(point(args.point[0], int(args.point[1]), args.seed)))
        return 0
    points = {
        "rundown-wave": [run_point("rundown-wave", n, args.seed) for n in RUNDOWN_SIZES],
        "casper-overlap": [run_point("casper-overlap", k, args.seed) for k in CASPER_SCALES],
    }
    result = {}
    for name, pts in points.items():
        result[name] = {
            "points": pts,
            "simulate_s_vs_granules_exponent": fit_exponent(
                [p["granules"] for p in pts], [p["simulate_s"] for p in pts]
            ),
            "analyze_s_vs_events_exponent": fit_exponent(
                [p["events"] for p in pts], [p["analyze_s"] for p in pts]
            ),
        }
    for name, data in result.items():
        print(name)
        for p in data["points"]:
            print("  " + "  ".join(f"{k} {v:.6g}" for k, v in p.items()))
        for k, v in data.items():
            if k != "points":
                print(f"  {k}: {v:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
