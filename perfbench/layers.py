"""Attribute ``cProfile`` self time and call counts to the repository's layers.

A function belongs to the layer that owns its module.  Builtins and
standard-library functions have no layer of their own: their self time is
split across the layers of their direct callers, using the per-caller
times ``cProfile`` records, so ``sorted`` called from ``core/granule.py``
counts as GranuleSet time.
"""

from __future__ import annotations

import pstats
import re
from pathlib import Path
from typing import Any

__all__ = [
    "LAYERS", "layer_of", "self_seconds", "call_counts", "count_calls", "count_builtin",
    "count_module", "cumulative",
]

#: Module path under ``src/repro/`` -> layer.  The first matching prefix wins.
_PREFIXES: tuple[tuple[str, str], ...] = (
    ("sim/engine.py", "engine"),
    ("sim/machine.py", "machine"),
    ("sim/trace.py", "trace"),
    ("sim/persist.py", "trace"),
    ("sim/events.py", "trace"),
    ("executive/", "executive"),
    ("core/granule.py", "granule"),
    ("core/enablement.py", "enablement"),
    ("core/mapping.py", "enablement"),
    ("workloads/", "workloads"),
    ("sim/rng.py", "workloads"),
    ("lint/", "analysis"),
    ("obs/profile.py", "analysis"),
    ("metrics/", "analysis"),
    ("sweep/", "sweep"),
)

LAYERS = (
    "engine", "machine", "trace", "executive", "granule", "enablement",
    "workloads", "analysis", "sweep", "other", "external",
)

def layer_of(filename: str, package: Path) -> str | None:
    """The layer owning ``filename``, ``"other"`` for the rest of the
    package, or ``None`` when the file is not part of the package."""
    path = Path(filename)
    try:
        rel = path.relative_to(package).as_posix()
    except ValueError:
        return None
    for prefix, layer in _PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


def _stats(profile: Any) -> dict[tuple[str, int, str], tuple]:
    return pstats.Stats(profile).stats  # type: ignore[attr-defined]


def self_seconds(profiles: list[Any], package: Path) -> dict[str, float]:
    """Self time per layer, summed over ``profiles``."""
    out = {layer: 0.0 for layer in LAYERS}
    for profile in profiles:
        for (filename, _, _), (_, _, tt, _, callers) in _stats(profile).items():
            layer = layer_of(filename, package)
            if layer is not None:
                out[layer] += tt
                continue
            if not callers:
                out["external"] += tt
                continue
            for (cfile, _, _), caller_stats in callers.items():
                out[layer_of(cfile, package) or "external"] += caller_stats[2]
    return out


def call_counts(profiles: list[Any], package: Path) -> dict[str, int]:
    """Calls per function, keyed ``path:line:name`` relative to the package."""
    out: dict[str, int] = {}
    for profile in profiles:
        for (filename, line, func), (_, nc, _, _, _) in _stats(profile).items():
            try:
                name = Path(filename).relative_to(package).as_posix()
            except ValueError:
                name = filename
            # builtins of a type are named with its address, which differs
            # between processes
            key = f"{name}:{line}:{re.sub(r' at 0x[0-9a-f]+', '', func)}"
            out[key] = out.get(key, 0) + nc
    return out


def count_calls(profiles: list[Any], package: Path, module: str, func: str) -> int:
    """Calls of ``func`` defined in ``module``, a path under the package."""
    total = 0
    for profile in profiles:
        for (filename, _, name), (_, nc, _, _, _) in _stats(profile).items():
            if name == func and Path(filename) == package / module:
                total += nc
    return total


def count_builtin(profiles: list[Any], func: str) -> int:
    """Calls of the builtin function ``func``."""
    key = ("~", 0, f"<built-in method builtins.{func}>")
    return sum(_stats(profile).get(key, (0, 0))[1] for profile in profiles)


def count_module(profiles: list[Any], package: Path, module: str) -> int:
    """Calls of every function defined in ``module``."""
    total = 0
    for profile in profiles:
        for (filename, _, _), (_, nc, _, _, _) in _stats(profile).items():
            if Path(filename) == package / module:
                total += nc
    return total


def cumulative(profiles: list[Any], package: Path, module: str, func: str) -> float:
    """Seconds inside ``func`` of ``module`` including its callees; the
    outermost calls only, so recursion is not counted twice."""
    total = 0.0
    for profile in profiles:
        for (filename, _, name), (_, _, _, ct, _) in _stats(profile).items():
            if name == func and Path(filename) == package / module:
                total += ct
    return total
