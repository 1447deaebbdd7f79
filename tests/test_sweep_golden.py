"""Golden sweep and grid fixtures.

``tests/data/sweep_golden.json`` freezes the canonical report bytes of
two replication fans (the CI chaos sweep and a small CASPER fan) and two
grids (the CI grid-smoke grid over shared maps, and a grid with
``target_fraction``/``transient_p`` axes), plus the exact manifest bytes
of one inline sweep and one inline grid.  They were captured before the
sweep and grid engines were merged into one driver.  Every case must
still reproduce its bytes at 1 and 2 host workers, on the warm and on a
cold pool, and at every batch size tried.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sweep import (
    GridSpec,
    SweepSpec,
    materialize_maps,
    run_grid,
    run_sweep,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "sweep_golden.json").read_text(encoding="utf-8")
)


def run_case(name: str, **kw):
    case = GOLDEN["cases"][name]
    if case["kind"] == "sweep":
        return run_sweep(SweepSpec.from_dict(case["spec"]), **kw)
    grid = GridSpec.from_dict(case["spec"])
    maps = materialize_maps(grid) if case["share_maps"] else None
    return run_grid(grid, shared_maps=maps, **kw)


@pytest.mark.parametrize("batch_size", [None, 1, 3])
@pytest.mark.parametrize("pool", ["warm", "cold"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_report_bytes_match_golden(name, workers, pool, batch_size):
    outcome = run_case(name, workers=workers, pool=pool, batch_size=batch_size)
    assert outcome.report.to_json() == GOLDEN["cases"][name]["report"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN["manifests"]))
def test_manifest_bytes_match_golden(name, workers, tmp_path):
    path = tmp_path / "manifest.jsonl"
    run_case(name, workers=workers, manifest_path=path)
    expected = GOLDEN["manifests"][name]
    got = path.read_text(encoding="utf-8")
    if workers == 1:
        assert got == expected
    else:
        # a pool journals units in completion order; the header leads and
        # the entries are the same lines
        head, *entries = got.splitlines(keepends=True)
        ref_head, *ref_entries = expected.splitlines(keepends=True)
        assert head == ref_head
        assert sorted(entries) == sorted(ref_entries)
