"""The parameter-grid sweep engine (`repro.sweep.grid`).

The acceptance property mirrors the replication fan's: a grid report is
a pure function of ``(grid spec, shared maps)`` — byte-identical across
pool sizes, batch sizes, worker kills, and manifest resumes.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.faults import FaultPlan, SweepWorkerHang, SweepWorkerKill, SweepWorkerSlow
from repro.sweep import (
    GridAxis,
    GridSpec,
    SweepSpec,
    grid_cell_seed,
    grid_point_seed,
    materialize_maps,
    parse_axis,
    run_grid,
    run_grid_cell,
)

BASE = SweepSpec(
    "reverse-indirect", replications=2, seed=7, sim_workers=4, params={"n": 48}
)
GRID = GridSpec(
    base=BASE,
    axes=(GridAxis("sim_workers", (2, 4)), GridAxis("overlap", (True, False))),
)


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSpec:
    def test_cartesian_points_last_axis_fastest(self):
        points = GRID.points()
        assert points == [
            {"sim_workers": 2, "overlap": True},
            {"sim_workers": 2, "overlap": False},
            {"sim_workers": 4, "overlap": True},
            {"sim_workers": 4, "overlap": False},
        ]
        assert GRID.n_points == 4
        assert GRID.n_cells == 8

    def test_explicit_point_list(self):
        grid = GridSpec.from_points(BASE, [{"n": 16}, {"n": 32, "overlap": False}])
        assert grid.points() == [{"n": 16}, {"n": 32, "overlap": False}]
        assert grid.n_points == 2

    def test_spec_roundtrips_through_dict(self):
        for grid in (GRID, GridSpec.from_points(BASE, [{"n": 16}])):
            again = GridSpec.from_dict(grid.to_dict())
            assert again.points() == grid.points()
            assert again.base == grid.base

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one axis"):
            GridSpec(base=BASE)
        with pytest.raises(ValueError, match="duplicate axis"):
            GridSpec(base=BASE, axes=(GridAxis("n", (1,)), GridAxis("n", (2,))))
        with pytest.raises(ValueError, match="at least one value"):
            GridAxis("n", ())
        with pytest.raises(ValueError, match="duplicate values"):
            GridAxis("n", (1, 1))
        with pytest.raises(ValueError, match="cannot be a grid axis"):
            GridAxis("seed", (1, 2))
        with pytest.raises(ValueError, match="cannot vary per point"):
            GridSpec.from_points(BASE, [{"replications": 3}])

    def test_parse_axis(self):
        axis = parse_axis("target_fraction=0.25,1.0")
        assert axis == GridAxis("target_fraction", (0.25, 1.0))
        assert parse_axis("split=demand,presplit").values == ("demand", "presplit")
        assert parse_axis("overlap=true,false").values == (True, False)
        with pytest.raises(ValueError, match="AXIS=v1,v2"):
            parse_axis("justaname")
        with pytest.raises(ValueError, match="not a valid parameter name"):
            parse_axis("bad axis==x")


class TestSeeds:
    def test_cell_seed_is_pure_function_of_point_not_position(self):
        point = {"sim_workers": 2, "overlap": True}
        assert grid_cell_seed(7, point, 0) == grid_cell_seed(7, dict(point), 0)
        assert grid_cell_seed(7, point, 0) != grid_cell_seed(7, point, 1)
        assert grid_point_seed(7, point) != grid_point_seed(8, point)
        assert grid_point_seed(7, point) != grid_point_seed(7, {"sim_workers": 4})

    def test_adding_an_axis_value_preserves_existing_cells(self):
        small = run_grid(GRID, workers=1).report
        wider = GridSpec(
            base=BASE,
            axes=(GridAxis("sim_workers", (2, 4, 8)), GridAxis("overlap", (True, False))),
        )
        big = run_grid(wider, workers=1).report
        for cell in small.cells:
            match = [
                c
                for c in big.cells
                if c["point"] == cell["point"] and c["replication"] == cell["replication"]
            ]
            assert len(match) == 1 and match[0] == {**cell, "cell": match[0]["cell"]}


class TestDeterminism:
    def test_reports_byte_identical_across_pool_sizes(self):
        reference = run_grid(GRID, workers=1).report.to_json()
        for workers in (2, 4):
            assert run_grid(GRID, workers=workers).report.to_json() == reference

    def test_shared_maps_byte_identical_inline_vs_pool(self):
        maps = materialize_maps(GRID)
        reference = run_grid(GRID, workers=1, shared_maps=maps).report.to_json()
        assert run_grid(GRID, workers=2, shared_maps=maps).report.to_json() == reference

    def test_batch_size_does_not_change_report(self):
        reference = run_grid(GRID, workers=2).report.to_json()
        for batch_size in (1, 3, 100):
            assert (
                run_grid(GRID, workers=2, batch_size=batch_size).report.to_json()
                == reference
            )

    def test_killed_worker_byte_identical(self):
        reference = run_grid(GRID, workers=1).report.to_json()
        plan = FaultPlan(faults=(SweepWorkerKill(1),))
        outcome = run_grid(GRID, workers=2, fault_plan=plan)
        assert outcome.report.to_json() == reference
        assert outcome.worker_restarts == 1

    @pytest.mark.parametrize(
        "fault", [SweepWorkerKill(8), SweepWorkerHang(40), SweepWorkerSlow(9, 0.1)]
    )
    def test_fault_past_last_cell_is_refused(self, fault, tmp_path):
        manifest = tmp_path / "grid.jsonl"
        with pytest.raises(ValueError, match=rf"{fault.replication}\b.*only 8 cells"):
            run_grid(
                GRID, workers=1, fault_plan=FaultPlan(faults=(fault,)),
                manifest_path=manifest,
            )
        assert not manifest.exists(), "a refused run must not touch its manifest"

    def test_config_axes_change_results(self):
        grid = GridSpec(
            base=BASE, axes=(GridAxis("target_fraction", (0.25, 1.0)),)
        )
        report = run_grid(grid, workers=1).report
        utils = {
            json.dumps(p): a["utilization_mean"]
            for p, a in ((x["point"], x) for x in report.aggregate_by_point())
        }
        assert len(utils) == 2


class TestCells:
    def test_run_grid_cell_applies_overrides(self):
        summary = run_grid_cell(
            BASE.to_dict(), {"sim_workers": 2, "overlap": False, "n": 16}, 0
        )
        assert summary["seed"] == grid_cell_seed(
            7, {"sim_workers": 2, "overlap": False, "n": 16}, 0
        )
        # barrier mode admits no overlaps
        assert all(not a["admitted"] for a in summary["admissions"])
        # n=16 -> 32 granules over the two phases
        assert summary["granules_executed"] == 32

    def test_fault_axes_inject_transients(self):
        clean = run_grid_cell(BASE.to_dict(), {"n": 24}, 0)
        faulty = run_grid_cell(
            BASE.to_dict(), {"transient_p": 0.05, "fault_seed": 3, "n": 24}, 0
        )
        # same seed, same workload — only the injected transients differ;
        # retries change the schedule, so the summaries cannot coincide
        assert faulty["seed"] != clean["seed"]  # fault axes are part of the point
        assert faulty["compute_time"] != clean["compute_time"]


class TestManifestResume:
    def test_resume_completes_interrupted_grid(self, tmp_path):
        manifest = tmp_path / "grid.jsonl"
        reference = run_grid(GRID, workers=1).report.to_json()
        run_grid(GRID, workers=1, manifest_path=manifest)
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:-3]))  # drop 3 completed cells
        outcome = run_grid(GRID, workers=1, manifest_path=manifest, resume=True)
        assert outcome.resumed == GRID.n_cells - 3
        assert outcome.report.to_json() == reference

    def test_resume_refuses_mismatched_spec(self, tmp_path):
        manifest = tmp_path / "grid.jsonl"
        run_grid(GRID, workers=1, manifest_path=manifest)
        other = GridSpec(base=BASE, axes=(GridAxis("sim_workers", (2,)),))
        with pytest.raises(ValueError, match="different sweep spec"):
            run_grid(other, workers=1, manifest_path=manifest, resume=True)


class TestSharedMaps:
    def test_materialize_maps_is_deterministic(self):
        a, b = materialize_maps(GRID), materialize_maps(GRID)
        assert sorted(a) == ["IMAP"]
        np.testing.assert_array_equal(a["IMAP"], b["IMAP"])

    def test_shared_maps_actually_change_the_draw(self):
        maps = materialize_maps(GRID)
        with_shared = run_grid(GRID, workers=1, shared_maps=maps).report.to_json()
        without = run_grid(GRID, workers=1).report.to_json()
        assert with_shared != without


class TestObs:
    def test_record_grid_metrics_labels_by_axis(self):
        from repro.obs import MetricsRegistry, record_grid_metrics

        report = run_grid(GRID, workers=1).report
        registry = MetricsRegistry()
        record_grid_metrics(report, registry)
        series = registry.snapshot()["grid.utilization"]["series"]
        assert len(series) == GRID.n_cells
        assert (
            '{overlap="True",replication="0",sim_workers="2"}' in series
        ), sorted(series)


class TestCli:
    def test_cli_grid_roundtrip(self, tmp_path):
        report_path = tmp_path / "grid.json"
        code, text = run_cli(
            "sweep",
            "reverse-indirect",
            "--grid",
            "sim_workers=2,4",
            "--grid",
            "overlap=true,false",
            "--replications",
            "2",
            "--seed",
            "7",
            "--sim-workers",
            "4",
            "--param",
            "n=48",
            "-o",
            str(report_path),
        )
        assert code == 0
        assert "4 points x 2 replications = 8 cells" in text
        assert report_path.read_text() == run_grid(GRID, workers=1).report.to_json()

        code, text = run_cli("stats", "--sweep", str(report_path))
        assert code == 0
        assert "4 points, 8 cells" in text
        assert 'grid.utilization{overlap="True"' in text

    def test_cli_share_maps_requires_grid(self):
        import sys

        err = io.StringIO()
        old, sys.stderr = sys.stderr, err
        try:
            code, _ = run_cli("sweep", "identity", "--share-maps")
        finally:
            sys.stderr = old
        assert code == 2
        assert "--share-maps requires --grid" in err.getvalue()

    def test_cli_rejects_bad_axis(self):
        import sys

        err = io.StringIO()
        old, sys.stderr = sys.stderr, err
        try:
            code, _ = run_cli("sweep", "identity", "--grid", "seed=1,2")
        finally:
            sys.stderr = old
        assert code == 2
        assert "cannot be a grid axis" in err.getvalue()

    @pytest.mark.parametrize("flag", ["--kill-replication", "--hang-replication"])
    @pytest.mark.parametrize("index", ["-1", "4", "40"])
    def test_cli_fault_index_outside_grid_is_a_usage_error(self, flag, index, capsys):
        # 2 points x 2 replications = 4 cells: ids 0..3
        code, text = run_cli(
            "sweep", "identity", "--grid", "sim_workers=4,8", "--replications", "2",
            "--sim-workers", "4", flag, index,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and index.lstrip("-") in err
        assert "Traceback" not in err and "per-point aggregates" not in text
