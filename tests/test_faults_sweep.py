"""Crash-safe sweeps: worker kills, pool rebuilds, resumable manifests.

The acceptance property: a sweep whose host workers are killed and
resubmitted, or which is interrupted and resumed from its manifest, must
produce a report *byte-identical* to a fault-free serial sweep of the
same spec — derived seeds make recovery invisible in the output.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan, SweepWorkerKill
from repro.sweep import SweepSpec, run_sweep

SPEC = SweepSpec("identity", replications=4, seed=11, sim_workers=4)


def reference_json() -> str:
    """Fault-free serial report — the byte-identity baseline."""
    return run_sweep(SPEC, workers=1).report.to_json()


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestWorkerKills:
    def test_inline_kill_is_byte_identical(self):
        plan = FaultPlan(faults=(SweepWorkerKill(2),))
        outcome = run_sweep(SPEC, workers=1, fault_plan=plan)
        assert outcome.report.to_json() == reference_json()
        assert outcome.worker_restarts == 1

    def test_pool_kill_is_byte_identical(self):
        plan = FaultPlan(faults=(SweepWorkerKill(1),))
        outcome = run_sweep(SPEC, workers=2, fault_plan=plan)
        assert outcome.report.to_json() == reference_json()
        assert outcome.worker_restarts >= 1

    def test_multiple_kills_still_recover(self):
        plan = FaultPlan(faults=(SweepWorkerKill(0), SweepWorkerKill(3)))
        outcome = run_sweep(SPEC, workers=2, fault_plan=plan, max_restarts=4)
        assert outcome.report.to_json() == reference_json()

    def test_restart_cap_escalates(self):
        plan = FaultPlan(faults=(SweepWorkerKill(1),))
        with pytest.raises(RuntimeError, match="max_restarts"):
            run_sweep(SPEC, workers=2, fault_plan=plan, max_restarts=0)


class TestManifest:
    def test_manifest_journal_and_resume(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        reference = reference_json()

        # full run journals every replication
        first = run_sweep(SPEC, workers=1, manifest_path=manifest)
        lines = manifest.read_text().splitlines()
        assert len(lines) == 1 + SPEC.replications  # header + one per replication
        header = json.loads(lines[0])
        assert header["kind"] == "sweep-manifest"
        assert header["spec"] == SPEC.to_dict()

        # truncate to simulate an interrupted sweep: keep 2 replications
        manifest.write_text("\n".join(lines[:3]) + "\n")
        progressed = []
        resumed = run_sweep(
            SPEC,
            workers=1,
            manifest_path=manifest,
            resume=True,
            progress=lambda done, total: progressed.append(done),
        )
        assert resumed.resumed == 2
        assert progressed == [3, 4]  # only the missing replications ran
        assert resumed.report.to_json() == reference == first.report.to_json()
        # after resume the journal is complete again
        assert len(manifest.read_text().splitlines()) == 1 + SPEC.replications

    def test_resume_tolerates_torn_tail(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        run_sweep(SPEC, workers=1, manifest_path=manifest)
        text = manifest.read_text()
        manifest.write_text(text[: len(text) - 40])  # tear the last record
        resumed = run_sweep(SPEC, workers=1, manifest_path=manifest, resume=True)
        assert resumed.report.to_json() == reference_json()

    def test_resume_refuses_foreign_spec(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        other = SweepSpec("identity", replications=2, seed=99, sim_workers=4)
        run_sweep(other, workers=1, manifest_path=manifest)
        with pytest.raises(ValueError, match="spec"):
            run_sweep(SPEC, workers=1, manifest_path=manifest, resume=True)

    def test_resume_of_complete_manifest_runs_nothing(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        run_sweep(SPEC, workers=1, manifest_path=manifest)
        progressed = []
        resumed = run_sweep(
            SPEC,
            workers=1,
            manifest_path=manifest,
            resume=True,
            progress=lambda done, total: progressed.append(done),
        )
        assert progressed == []
        assert resumed.resumed == SPEC.replications
        assert resumed.report.to_json() == reference_json()


class TestFaultIndices:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fault_past_last_replication_is_refused(self, workers):
        plan = FaultPlan(faults=(SweepWorkerKill(SPEC.replications),))
        with pytest.raises(ValueError, match=r"replication 4\b.*only 4 replications"):
            run_sweep(SPEC, workers=workers, fault_plan=plan)

    def test_last_replication_is_a_valid_target(self):
        plan = FaultPlan(faults=(SweepWorkerKill(SPEC.replications - 1),))
        outcome = run_sweep(SPEC, workers=1, fault_plan=plan)
        assert outcome.report.to_json() == reference_json()
        assert outcome.worker_restarts == 1


class TestSweepCLI:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--kill-replication", "-1"),
            ("--kill-replication", "9"),
            ("--hang-replication", "2"),
            ("--slow-replication", "0:-1"),
            ("--slow-replication", "5:0.1"),
        ],
    )
    def test_bad_fault_flag_is_a_usage_error(self, flags, capsys):
        code, text = run_cli(
            "sweep", "identity", "--replications", "2", "--sim-workers", "4", *flags
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "mean util" not in text

    def test_kill_replication_flag(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, out = run_cli(
            "sweep", "identity", "--replications", "3", "--seed", "5",
            "--sim-workers", "4", "--kill-replication", "1",
            "-o", str(out_file),
        )
        assert code == 0
        assert "restarts     : 1" in out
        ref = run_sweep(
            SweepSpec("identity", replications=3, seed=5, sim_workers=4), workers=1
        ).report.to_json()
        assert out_file.read_text() == ref

    def test_manifest_resume_flags(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        code, _ = run_cli(
            "sweep", "identity", "--replications", "3", "--sim-workers", "4",
            "--manifest", str(manifest),
        )
        assert code == 0
        code, out = run_cli(
            "sweep", "identity", "--replications", "3", "--sim-workers", "4",
            "--manifest", str(manifest), "--resume",
        )
        assert code == 0
        assert "resumed      : 3" in out

    def test_resume_requires_manifest(self):
        code, _ = run_cli("sweep", "identity", "--resume")
        assert code == 2
