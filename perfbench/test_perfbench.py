"""Tests of the benchmark itself: each output gate fails on bad output.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import ROOT, SRC, cli_argv, run_child, traced_argv

sys.path.insert(0, str(SRC))

import daemon_workload as dw  # noqa: E402
import gates  # noqa: E402
import tracing  # noqa: E402
from inputs import TENANTS, daemon_inputs  # noqa: E402


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """A 12-vertex x 300-execution tab log and the oracle's edges."""
    from repro.core.reference import mine_general_dag_reference
    from repro.datasets.synthetic import SyntheticConfig, synthetic_dataset
    from repro.logs.codec import write_log_file

    log = synthetic_dataset(SyntheticConfig(12, 300, seed=5)).log
    path = tmp_path_factory.mktemp("log") / "small.log"
    write_log_file(log, path, durable=False)
    return path, frozenset(mine_general_dag_reference(log).edges())


def test_batch_gate_fails_on_a_dropped_edge(small_log, tmp_path):
    path, oracle = small_log
    done = run_child(cli_argv("mine", str(path), "--format", "edges"), tmp_path)
    assert done.status == 0
    assert gates.check_batch(done.stdout, oracle) is None
    lines = done.stdout.splitlines(keepends=True)
    edge_line = next(i for i, line in enumerate(lines) if b" -> " in line)
    dropped = b"".join(lines[:edge_line] + lines[edge_line + 1:])
    assert "1 missing" in gates.check_batch(dropped, oracle)


def test_merge_gate_fails_on_any_byte_difference():
    reference = b"# algorithm: general-dag\nA -> B\n"
    assert gates.check_merge(reference, reference) is None
    assert gates.check_merge(reference.replace(b"B", b"C"), reference)


@pytest.fixture()
def daemon(tmp_path):
    started, _ = dw.start_daemon(tmp_path / "daemon")
    yield started
    started.stop()


def _post_clean(daemon, ledger, count=6):
    inputs = daemon_inputs(3)
    connection = dw.Connection(daemon.port)
    try:
        for body in inputs.bodies(dw.STEADY_LINES, count):
            assert ledger.post(connection, body)
    finally:
        connection.close()
    return inputs


def test_tenant_gate_passes_on_clean_traffic(daemon, tmp_path):
    ledger = dw.Ledger()
    _post_clean(daemon, ledger)
    assert dw.check_tenants(daemon, ledger, tmp_path) is None
    assert ledger.failed == 0


def test_tenant_gate_fails_on_a_record_sent_to_the_wrong_tenant(daemon, tmp_path):
    ledger = dw.Ledger()
    inputs = _post_clean(daemon, ledger)
    body = inputs.body(TENANTS[0], dw.STEADY_LINES)
    first, rest = body.data.split(b"\n", 1)
    misrouted = first.replace(
        f'"process": "{TENANTS[0]}"'.encode(), f'"process": "{TENANTS[1]}"'.encode()
    )
    assert misrouted != first
    connection = dw.Connection(daemon.port)
    try:
        # The daemon accepts the batch (202) and dead-letters the record.
        assert ledger.post(connection, dw.Body(
            body.tenant, misrouted + b"\n" + rest, body.lines, body.executions
        ))
    finally:
        connection.close()
    problem = dw.check_tenants(daemon, ledger, tmp_path)
    assert problem is not None and "quarantined" in problem


@pytest.mark.parametrize("shift", [-1, 1])
def test_tenant_gate_fails_on_an_off_by_one_reference_slice(daemon, tmp_path, shift):
    ledger = dw.Ledger()
    inputs = _post_clean(daemon, ledger)
    acked = ledger.acked[TENANTS[0]]
    if shift < 0:
        acked.pop()  # one acknowledged batch left out of the reference
    else:
        acked.append(inputs.body(TENANTS[0], dw.STEADY_LINES).data)
    problem = dw.check_tenants(daemon, ledger, tmp_path)
    assert problem is not None and "differs" in problem


def test_self_times_subtract_direct_children():
    spans = [
        (1, 0, "core.fold", 0.0, 10.0, 0.0, 9.0),
        (2, 1, "logs.ingest", 1.0, 4.0, 1.0, 3.0),
        (3, 1, "core.update", 5.0, 6.0, 4.0, 5.0),
        (4, 3, "resilience.journal_append", 5.2, 5.6, 4.1, 4.2),
    ]
    wall = tracing.self_times(spans)
    assert wall == pytest.approx(
        {"core.fold": 6.0, "logs.ingest": 3.0, "core.update": 0.6,
         "resilience.journal_append": 0.4}
    )
    assert tracing.self_times(spans, tracing.CPU)["core.fold"] == pytest.approx(6.0)
    assert tracing.attributed_seconds(spans) == pytest.approx(10.0)
    layers = tracing.layer_seconds(spans)
    assert layers["core.fold_s"] == pytest.approx(7.0)  # fold minus ingest


def test_traced_launcher_spans_the_stream_layers(small_log, tmp_path):
    path, _ = small_log
    jsonl = tmp_path / "small.jsonl"
    assert run_child(cli_argv("convert", str(path), str(jsonl)), tmp_path).status == 0
    spans = tmp_path / "spans.json"
    done = run_child(
        traced_argv(
            spans, "mine", str(jsonl), "--stream", "--format", "edges",
            "--state-out", str(tmp_path / "state.json"),
        ),
        tmp_path / "traced",
    )
    assert done.status == 0, done.stderr
    layers = tracing.summarize([json.loads(spans.read_text())])
    for name in ("startup.import_s", "logs.ingest_s", "core.update_s",
                 "core.finish_s", "state.save_s", "render_s"):
        assert layers[name] > 0, name
    assert layers["logs.executions"] == 300
    assert layers["core.update_calls"] == 300


def test_input_cache_key_follows_the_program_sources(tmp_path, monkeypatch):
    import inputs

    source = tmp_path / "src" / "repro" / "core" / "miner.py"
    source.parent.mkdir(parents=True)
    source.write_text("EDGES = 1\n")
    monkeypatch.setattr(inputs, "SRC", tmp_path / "src")
    monkeypatch.setattr(inputs, "WORK", tmp_path / "work")
    first, cached = inputs._cache_dir("stream", 1)
    assert not cached
    (first / "done").write_text("")
    assert inputs._cache_dir("stream", 1) == (first, True)
    source.write_text("EDGES = 2\n")
    changed, cached = inputs._cache_dir("stream", 1)
    assert changed != first and not cached
    assert not first.exists()


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-batch-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == b""
