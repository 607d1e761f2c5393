"""Crash-safe durability: session recovery, checkpoint hardening, and
the SIGKILL-and-resume integration suite.

The headline guarantee under test: a streaming mine killed at *any*
injected fault point, then resumed from its ``--journal`` directory,
produces byte-identical output (rendered graph and canonical
``--state-out`` serialization) to a run that was never interrupted.
The integration class drives real subprocesses with seeded
:func:`FaultPlan.seeded_kill` plans — the same sweep CI's chaos job
runs wider.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.state import (
    load_state,
    load_state_with_fallback,
    save_state,
)
from repro.errors import CheckpointError
from repro.logs.codec import write_log_file
from repro.logs.event_log import EventLog
from repro.logs.execution import Execution
from repro.obs.recorder import ObsRecorder
from repro.resilience.faults import FaultPlan
from repro.resilience.session import DurableSession

SEQUENCES = ["ABCF", "ACDF", "ABDF", "ABCDF", "ABCF", "ACDF"] * 6


def executions(sequences=SEQUENCES):
    return [
        Execution.from_sequence(list(seq), f"e{i:04d}")
        for i, seq in enumerate(sequences)
    ]


def write_log(tmp_path, count=120, name="mine.tsv"):
    path = tmp_path / name
    rows = [SEQUENCES[i % len(SEQUENCES)] for i in range(count)]
    write_log_file(
        EventLog(executions(rows), process_name="claims"), path
    )
    return path


def canonical(state):
    return json.dumps(state.to_payload(), sort_keys=True)


class TestCheckpointHardening:
    def test_integrity_envelope_round_trips(self, tmp_path):
        session = DurableSession(tmp_path / "s", checkpoint_every=0)
        for execution in executions():
            session.fold(execution)
        state = session.finalize()
        loaded, meta = load_state(tmp_path / "s" / "checkpoint.json")
        assert meta["verified"] is True
        assert meta["journal_seq"] == len(SEQUENCES)
        assert canonical(loaded) == canonical(state)

    def test_corruption_is_detected(self, tmp_path):
        path = tmp_path / "state.json"
        from repro.core.state import MiningState

        state = MiningState()
        for execution in executions():
            state.update(execution)
        save_state(state, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_fallback_to_prev_checkpoint(self, tmp_path):
        from repro.core.state import MiningState

        path = tmp_path / "checkpoint.json"
        good = MiningState()
        for execution in executions()[:6]:
            good.update(execution)
        save_state(good, path.with_name(path.name + ".prev"))
        path.write_bytes(b"{ definitely not json")
        recorder = ObsRecorder()
        state, meta, used_fallback = load_state_with_fallback(
            path, recorder
        )
        assert used_fallback
        assert canonical(state) == canonical(good)
        assert (
            recorder.registry.counter(
                "repro_checkpoint_fallback_total"
            ).value
            == 1
        )

    def test_missing_fallback_reraises_primary(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            load_state_with_fallback(path)


class TestDurableSession:
    def test_recovery_equals_uninterrupted(self, tmp_path):
        home = tmp_path / "sess"
        session = DurableSession(home, checkpoint_every=5)
        for execution in executions()[:17]:
            session.fold(execution)
        # Simulate a crash: no finalize, just drop the session.
        session.journal.close()

        resumed = DurableSession(home, checkpoint_every=5)
        report = resumed.recover()
        assert report.resumed and report.covered == 17
        for execution in executions()[17:]:
            resumed.fold(execution)
        recovered = resumed.finalize()

        reference = DurableSession(tmp_path / "ref", checkpoint_every=5)
        for execution in executions():
            reference.fold(execution)
        assert canonical(recovered) == canonical(reference.finalize())

    def test_recover_on_fresh_directory(self, tmp_path):
        session = DurableSession(tmp_path / "new")
        report = session.recover()
        assert not report.resumed and report.covered == 0
        assert "fresh session" in report.summary()

    def test_recover_must_precede_folds(self, tmp_path):
        session = DurableSession(tmp_path / "s")
        session.fold(executions()[0])
        with pytest.raises(RuntimeError):
            session.recover()

    def test_mode_mismatch_is_an_error(self, tmp_path):
        home = tmp_path / "sess"
        session = DurableSession(home, labelled=True, checkpoint_every=0)
        session.fold(executions()[0])
        session.finalize()
        other = DurableSession(home, labelled=False)
        with pytest.raises(CheckpointError):
            other.recover()

    def test_journal_pruned_but_sufficient(self, tmp_path):
        """After many checkpoints the journal stays small, yet the
        .prev checkpoint plus the retained tail rebuild the state."""
        home = tmp_path / "sess"
        session = DurableSession(home, checkpoint_every=4)
        for execution in executions():
            session.fold(execution)
        session.journal.close()
        from repro.resilience.journal import scan_journal

        scan = scan_journal(home / "wal")
        assert len(scan.records) < len(SEQUENCES)
        # Kill the newest checkpoint: recovery must still reach the
        # exact same coverage through .prev + tail replay.
        (home / "checkpoint.json").write_bytes(b"trashed")
        resumed = DurableSession(home, checkpoint_every=4)
        report = resumed.recover()
        assert report.used_fallback
        assert report.covered == session.covered_seq


class _CliRunner:
    """Drive the real CLI in subprocesses (faults need real SIGKILL)."""

    def __init__(self, log_path):
        self.log = str(log_path)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )

    def mine(self, *extra, fault_plan=None):
        env = dict(self.env)
        env.pop("REPRO_FAULT_PLAN", None)
        if fault_plan is not None:
            env["REPRO_FAULT_PLAN"] = str(fault_plan)
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "mine",
                self.log,
                "--format",
                "edges",
                "--checkpoint-every",
                "25",
                *extra,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )


class TestKillAndResume:
    """SIGKILL at seeded fault points; resume must be byte-identical."""

    SEEDS = range(5)

    @pytest.fixture(scope="class")
    def arena(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("kill-resume")
        runner = _CliRunner(write_log(root, count=120))
        reference = runner.mine(
            "--journal",
            str(root / "ref"),
            "--state-out",
            str(root / "ref-state.json"),
        )
        assert reference.returncode == 0, reference.stderr
        return {
            "root": root,
            "runner": runner,
            "stdout": reference.stdout,
            "state": (root / "ref-state.json").read_bytes(),
        }

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_kill_then_resume(self, arena, seed):
        root, runner = arena["root"], arena["runner"]
        plan_path = root / f"plan-{seed}.json"
        FaultPlan.seeded_kill(seed).save(plan_path)
        session_dir = root / f"sess-{seed}"

        first = runner.mine(
            "--journal", str(session_dir), fault_plan=plan_path
        )
        # Either the plan killed the run (-SIGKILL) or its hit index
        # was beyond this log — then the run completed and resume
        # must be a no-op continuation.
        assert first.returncode in (-9, 0), first.stderr

        state_out = root / f"state-{seed}.json"
        resume = runner.mine(
            "--journal",
            str(session_dir),
            "--resume",
            "--state-out",
            str(state_out),
        )
        assert resume.returncode == 0, resume.stderr
        assert resume.stdout == arena["stdout"]
        assert state_out.read_bytes() == arena["state"]

    def test_double_resume_is_stable(self, arena):
        root, runner = arena["root"], arena["runner"]
        session_dir = root / "sess-twice"
        plan_path = root / "plan-twice.json"
        FaultPlan.seeded_kill(1).save(plan_path)
        runner.mine("--journal", str(session_dir), fault_plan=plan_path)
        for _ in range(2):
            again = runner.mine(
                "--journal", str(session_dir), "--resume"
            )
            assert again.returncode == 0, again.stderr
            assert again.stdout == arena["stdout"]


class TestVerifyStateCli:
    def _session(self, tmp_path):
        home = tmp_path / "sess"
        session = DurableSession(home, checkpoint_every=5)
        for execution in executions():
            session.fold(execution)
        session.finalize()
        return home

    def test_clean_session_passes(self, tmp_path, capsys):
        home = self._session(tmp_path)
        assert main(["verify-state", str(home)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint.json: ok" in out and "wal: ok" in out

    def test_state_file_passes(self, tmp_path, capsys):
        from repro.core.state import MiningState

        path = tmp_path / "state.json"
        state = MiningState()
        for execution in executions():
            state.update(execution)
        save_state(state, path)
        assert main(["verify-state", str(path)]) == 0
        assert "crc32 verified" in capsys.readouterr().out

    def test_missing_target_exits_1(self, tmp_path, capsys):
        assert main(["verify-state", str(tmp_path / "nope")]) == 1

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        home = self._session(tmp_path)
        path = home / "checkpoint.json"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["verify-state", str(home)]) == 2
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "fall back to the .prev" in out

    def test_torn_journal_tail_is_tolerated(self, tmp_path, capsys):
        from repro.resilience.journal import list_segments

        home = self._session(tmp_path)
        _, tail = list_segments(home / "wal")[-1]
        tail.write_bytes(tail.read_bytes()[:-2])
        assert main(["verify-state", str(home)]) == 0
        assert "torn tail tolerated" in capsys.readouterr().out

    def test_corrupt_journal_exits_2(self, tmp_path, capsys):
        from repro.resilience.journal import Journal, list_segments

        # A session directory holding only a journal: two segments,
        # with damage in the first — unreachable records, corruption.
        home = tmp_path / "sess"
        with Journal(home / "wal", sync=False) as journal:
            for execution in executions()[:4]:
                journal.append_execution(execution)
            journal.rotate()
            journal.append_execution(executions()[4])
        first = list_segments(home / "wal")[0][1]
        blob = bytearray(first.read_bytes())
        blob[12] ^= 0xFF
        first.write_bytes(bytes(blob))
        assert main(["verify-state", str(home)]) == 2
        assert "CORRUPT" in capsys.readouterr().out


class TestResumeCliGuards:
    def test_resume_without_journal_fails(self, tmp_path, capsys):
        log = write_log(tmp_path, count=6)
        assert main(["mine", str(log), "--stream", "--resume"]) == 1
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_fresh_run_refuses_existing_session(self, tmp_path, capsys):
        log = write_log(tmp_path, count=6)
        sess = tmp_path / "sess"
        assert main(["mine", str(log), "--journal", str(sess)]) == 0
        capsys.readouterr()
        assert main(["mine", str(log), "--journal", str(sess)]) == 1
        assert "pass --resume" in capsys.readouterr().err
