"""daemon-mixed: two tenants of skewed traffic against ``repro-miner serve``.

One load-generator process, at most two threads and two keep-alive
connections.  After a short priming, so both tenants have a model to
read, the run has two parts:

* steady (open loop, a quarter of the run): 250-line POSTs (~30 KB,
  decoded inline by the daemon) due every 25 ms, i.e. 10,000 records/s
  offered, alternating tenants.  Latency runs from each POST's *due*
  time to its 202, so a stall is charged to every POST it delays; how
  late the sender ran is reported apart.  The second connection reads
  ``GET model`` every 250 ms, also timed from its due time.
* closed loop (the rest, and at least 100 commit cycles): bulk rounds
  of 32 POSTs of 1,000 lines (~120 KB, decoded off-loop), each closed
  by a flush of both tenants so the client never reaches the 64-batch
  queue limit and never sleeps on a ``Retry-After``; after each round,
  8 commit cycles -- POST ~1,000 records of whole executions, POST
  flush, GET model, the daemon operation a client waits on.  After
  every second round a fresh daemon is started and stopped, for a
  set-up sample taken while the loaded daemon is idle.

Every POST carries whole executions with fresh ids, so no flush splits
one.  At the end every tenant is flushed and its served model and state
are checked against ``mine --stream`` over exactly the lines the daemon
acknowledged for it, in order.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import gates
import tracing
from common import (
    ROOT,
    BenchError,
    Outcome,
    at_reference_speed,
    child_env,
    cli_argv,
    percentile,
    run_child,
    speed_loop_s,
    traced_argv,
)
from inputs import TENANTS, Body, DaemonInputs, daemon_inputs

STEADY_LINES = 250
STEADY_RATE = 10_000.0
STEADY_INTERVAL_S = STEADY_LINES / STEADY_RATE
READ_INTERVAL_S = 0.25
COMMIT_LINES = 1_000
MIN_COMMIT_CYCLES = 100
COMMITS_PER_ROUND = 8
BULK_LINES = 1_000
BULK_ROUND = 32
PRIMING_BODIES = 4
#: A fresh daemon is started (and stopped) for a set-up sample after
#: every this many bulk rounds, so the samples spread over the run.
SETUP_EVERY_ROUNDS = 2
#: Ceilings used only to size the pre-serialized bodies: measured bulk
#: rates (25-47k records/s) and commit rates (15-20 cycles/s) sit below
#: them; a phase that runs out of bodies ends early.
BULK_RATE_CEILING = 45_000
COMMIT_RATE_CEILING = 25
#: Share of the run's seconds given to the steady phase; the closed-loop
#: commit and bulk work shares the rest.
STEADY_SHARE = 0.25
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_MISSING = math.inf


def _path(tenant: str, leaf: str) -> str:
    return f"/v1/{tenant}/{leaf}"


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon.

    ``repro.service.client.ServiceClient`` opens a connection per
    request; the load generator holds two for the whole run.
    """

    def __init__(self, port: int) -> None:
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/x-ndjson"} if body else {}
        self._http.request(method, path, body=body, headers=headers)
        response = self._http.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._http.close()


@dataclass
class Daemon:
    process: subprocess.Popen
    port: int
    spawned_at: float

    def _proc(self, leaf: str) -> str:
        return Path(f"/proc/{self.process.pid}/{leaf}").read_text()

    def vm_hwm_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> int:
        """SIGTERM (drain, flush, checkpoint) and wait for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def start_daemon(home: Path, spans: Optional[Path] = None) -> Tuple[Daemon, float]:
    """Spawn a daemon on an empty data dir; returns it and spawn→healthz."""
    home.mkdir(parents=True)
    port_file = home / "port"
    args = ("serve", str(home / "data"), "--port", "0", "--port-file", str(port_file))
    argv = cli_argv(*args) if spans is None else traced_argv(spans, *args)
    with open(home / "stderr", "wb") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=stderr, env=child_env(), cwd=ROOT
        )
    port = None
    try:
        while time.perf_counter() - started < 30.0:
            if process.poll() is not None:
                raise BenchError(f"daemon exited with {process.returncode}")
            if port is None and port_file.is_file():
                text = port_file.read_text().strip()
                port = int(text) if text else None
            if port is not None:
                probe = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                try:
                    probe.request("GET", "/healthz")
                    healthy = probe.getresponse().status == 200
                except OSError:
                    healthy = False
                finally:
                    probe.close()
                if healthy:
                    return Daemon(process, port, started), time.perf_counter() - started
            time.sleep(0.002)
        raise BenchError("daemon not healthy within 30 s")
    except BaseException:
        process.kill()
        process.wait()
        raise


@dataclass
class Ledger:
    """Operations attempted and failed, and what each tenant got acked."""

    acked: Dict[str, List[bytes]] = field(default_factory=lambda: defaultdict(list))
    executions: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    records: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def outcome(self, what: str, status: int, expected: int) -> bool:
        with self.lock:
            self.attempted += 1
            if status == expected:
                return True
            self.failed += 1
            if len(self.problems) < 8:
                self.problems.append(f"{what} answered {status}")
            return False

    def gate_failed(self, problem: str) -> str:
        """Count a wrong answer to a request that was answered 2xx."""
        with self.lock:
            self.failed += 1
        return problem

    def post(self, connection: Connection, body: Body) -> bool:
        status, _ = connection.request("POST", _path(body.tenant, "events"), body.data)
        if not self.outcome("POST events", status, 202):
            return False
        self.acked[body.tenant].append(body.data)
        self.executions[body.tenant] += body.executions
        self.records += body.lines
        return True

    def flush(self, connection: Connection, tenant: str) -> dict:
        status, payload = connection.request("POST", _path(tenant, "flush"))
        self.outcome("POST flush", status, 200)
        return json.loads(payload) if status == 200 else {}

    def model(self, connection: Connection, tenant: str) -> bytes:
        status, payload = connection.request("GET", _path(tenant, "model?format=edges"))
        self.outcome("GET model", status, 200)
        return payload


@dataclass
class Plan:
    """Pre-serialized bodies of every phase, built before anything runs."""

    priming: List[Body]
    steady: List[Body]
    commit: List[Body]
    bulk: List[Body]
    steady_s: float
    closed_s: float


def make_plan(inputs: DaemonInputs, seconds: float) -> Plan:
    steady_s = STEADY_SHARE * seconds
    closed_s = seconds - steady_s
    fastest_round_s = (
        BULK_ROUND * BULK_LINES / BULK_RATE_CEILING
        + COMMITS_PER_ROUND / COMMIT_RATE_CEILING
    )
    rounds = max(
        math.ceil(MIN_COMMIT_CYCLES / COMMITS_PER_ROUND),
        math.ceil(closed_s / fastest_round_s),
    )
    return Plan(
        priming=inputs.bodies(STEADY_LINES, PRIMING_BODIES),
        steady=inputs.bodies(STEADY_LINES, int(steady_s / STEADY_INTERVAL_S)),
        commit=inputs.bodies(COMMIT_LINES, rounds * COMMITS_PER_ROUND),
        bulk=inputs.bodies(BULK_LINES, rounds * BULK_ROUND),
        steady_s=steady_s,
        closed_s=closed_s,
    )


@dataclass
class PhaseResults:
    ack_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    #: Commit cycles and bulk rounds are also kept scaled to the
    #: reference host speed by the speed loops around each round.
    commit_ms: List[float] = field(default_factory=list)
    reference_commit_ms: List[float] = field(default_factory=list)
    #: Records per second of each bulk round, first POST to last flush.
    round_rates: List[float] = field(default_factory=list)
    reference_round_rates: List[float] = field(default_factory=list)
    #: Wall and daemon CPU time of the closed-loop (commit + bulk) part.
    closed_wall_s: float = 0.0
    closed_cpu_s: float = 0.0
    #: Wall time of the phases; daemon CPU time from spawn to
    #: ``cpu_read_at`` (a perf_counter reading), just before SIGTERM.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    cpu_read_at: float = 0.0
    spawned_at: float = 0.0
    #: Spawn to the first 200 from /healthz at the reference host speed:
    #: the run's own daemon, then fresh daemons between bulk rounds.
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problem: Optional[str] = None


def _reader(port: int, ledger: Ledger, stop: threading.Event, out: List[float]) -> None:
    """Second connection: GET model every 250 ms, timed from due time."""
    connection = Connection(port)
    try:
        start = time.perf_counter()
        tick = 0
        while not stop.is_set():
            due = start + tick * READ_INTERVAL_S
            delay = due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            status, _ = connection.request(
                "GET", _path(TENANTS[tick % len(TENANTS)], "model?format=edges")
            )
            done = time.perf_counter()
            ok = ledger.outcome("GET model", status, 200)
            out.append((done - due) * 1000.0 if ok else _MISSING)
            tick += 1
    finally:
        connection.close()


def run_phases(
    daemon: Daemon, plan: Plan, ledger: Ledger, setup_home: Optional[Path]
) -> PhaseResults:
    """Priming, steady and closed-loop phases against ``daemon``.

    With ``setup_home``, set-up samples are taken between bulk rounds,
    while the daemon under load is idle.
    """
    results = PhaseResults()
    connection = Connection(daemon.port)
    try:
        for body in plan.priming:
            ledger.post(connection, body)
        for tenant in TENANTS:
            ledger.flush(connection, tenant)

        # steady: open loop on this connection, reads on the second one.
        stop = threading.Event()
        reader = threading.Thread(
            target=_reader, args=(daemon.port, ledger, stop, results.read_ms)
        )
        reader.start()
        try:
            start = time.perf_counter() + 0.01
            for index, body in enumerate(plan.steady):
                due = start + index * STEADY_INTERVAL_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                ok = ledger.post(connection, body)
                done = time.perf_counter()
                results.late_ms.append((sent - due) * 1000.0)
                results.ack_ms.append((done - due) * 1000.0 if ok else _MISSING)
        finally:
            stop.set()
            reader.join()

        # commit and bulk, interleaved: each bulk round (closed by a
        # flush of both tenants) is followed by commit cycles against the
        # drained queues, so both figures sample the whole closed-loop
        # part of the run; the host's speed swings within it.  Speed
        # loops run between rounds, while the daemon is idle.
        cpu_before = daemon.cpu_seconds()
        started = time.perf_counter()
        end = started + plan.closed_s
        loop_before = speed_loop_s()
        sampling_s = time.perf_counter() - started
        for index in range(len(plan.bulk) // BULK_ROUND):
            cycles = index * COMMITS_PER_ROUND
            if cycles >= MIN_COMMIT_CYCLES and time.perf_counter() >= end:
                break
            round_started = time.perf_counter()
            records = 0
            for body in plan.bulk[index * BULK_ROUND:(index + 1) * BULK_ROUND]:
                if ledger.post(connection, body):
                    records += body.lines
            for tenant in TENANTS:
                ledger.flush(connection, tenant)
            round_s = time.perf_counter() - round_started
            commit_ms = []
            for body in plan.commit[cycles:cycles + COMMITS_PER_ROUND]:
                failed = ledger.failed
                cycle_started = time.perf_counter()
                ledger.post(connection, body)
                ledger.flush(connection, body.tenant)
                ledger.model(connection, body.tenant)
                elapsed = (time.perf_counter() - cycle_started) * 1000.0
                ok = ledger.failed == failed
                commit_ms.append(elapsed if ok else _MISSING)
            sampling = time.perf_counter()
            setup_s = None
            if setup_home is not None and index % SETUP_EVERY_ROUNDS == 0:
                setup_s = setup_seconds(setup_home / f"{len(results.setup_s)}")
            loops = (loop_before, speed_loop_s())
            loop_before = loops[1]
            sampling_s += time.perf_counter() - sampling
            if setup_s is not None:
                results.setup_s.append(at_reference_speed(setup_s, loops))
            results.round_rates.append(records / round_s)
            results.reference_round_rates.append(
                records / at_reference_speed(round_s, loops)
            )
            results.commit_ms.extend(commit_ms)
            results.reference_commit_ms.extend(
                at_reference_speed(ms, loops) for ms in commit_ms
            )
        results.closed_wall_s = time.perf_counter() - started - sampling_s
        results.closed_cpu_s = daemon.cpu_seconds() - cpu_before
    finally:
        connection.close()
    return results


def check_tenants(daemon: Daemon, ledger: Ledger, work: Path) -> Optional[str]:
    """Final flush + reads per tenant, against ``mine --stream``."""
    connection = Connection(daemon.port)
    served = {}
    try:
        for tenant in TENANTS:
            stats = ledger.flush(connection, tenant)
            model = ledger.model(connection, tenant)
            status, state = connection.request("GET", _path(tenant, "state"))
            ledger.outcome("GET state", status, 200)
            served[tenant] = (stats, model, state)
    finally:
        connection.close()
    for tenant in TENANTS:
        stats, model, state = served[tenant]
        problem = gates.check_flush(tenant, stats, ledger.executions[tenant])
        if problem is not None:
            return ledger.gate_failed(problem)
        log = work / f"acked-{tenant}.jsonl"
        with open(log, "wb") as out:
            out.writelines(ledger.acked[tenant])
        state_out = work / f"state-{tenant}.json"
        done = run_child(
            cli_argv(
                "mine", str(log), "--stream", "--format", "edges",
                "--state-out", str(state_out),
            ),
            work / f"reference-{tenant}",
        )
        if not ledger.outcome("mine --stream", done.status, 0):
            return f"{tenant}: reference mine exited {done.status}"
        problem = gates.check_served(
            tenant, model, state, done.stdout, state_out.read_bytes()
        )
        if problem is not None:
            return ledger.gate_failed(problem)
    return None


def run_daemon(
    work: Path,
    plan: Plan,
    spans: Optional[Path] = None,
    sample_setup: bool = False,
) -> Tuple[PhaseResults, Ledger]:
    """One daemon: phases, final checks, VmHWM, SIGTERM."""
    before = speed_loop_s()
    daemon, startup_s = start_daemon(work / "daemon", spans)
    startup_s = at_reference_speed(startup_s, (before, speed_loop_s()))
    ledger = Ledger()
    try:
        started = time.perf_counter()
        setup_home = work / "setup" if sample_setup else None
        results = run_phases(daemon, plan, ledger, setup_home)
        results.setup_s.insert(0, startup_s)
        results.wall_s = time.perf_counter() - started
        results.problem = check_tenants(daemon, ledger, work)
        results.peak_rss_mb = daemon.vm_hwm_mb()
        results.cpu_s = daemon.cpu_seconds()
        results.cpu_read_at = time.perf_counter()
        results.spawned_at = daemon.spawned_at
    finally:
        status = daemon.stop()
    if not ledger.outcome("serve exit", status, 0) and results.problem is None:
        results.problem = f"daemon exited {status} after SIGTERM"
    if results.problem is None and ledger.failed:
        results.problem = "; ".join(ledger.problems)
    return results, ledger


def setup_seconds(home: Path) -> float:
    """Spawn→first 200 from /healthz of a fresh daemon, then stop it."""
    daemon, seconds = start_daemon(home)
    status = daemon.stop()
    if status != 0:
        raise BenchError(f"set-up daemon exited {status} after SIGTERM")
    return seconds


def detail_metrics(results: PhaseResults) -> Dict[str, float]:
    """The daemon's own end-to-end breakdown, reported with the layers."""
    return {
        "e2e.ack_p50_ms": percentile(results.ack_ms, 0.5),
        "e2e.ack_p90_ms": percentile(results.ack_ms, 0.9),
        "e2e.model_get_p50_ms": percentile(results.read_ms, 0.5),
        "e2e.commit_p50_ms": percentile(results.commit_ms, 0.5),
        "e2e.commit_p90_ms": percentile(results.commit_ms, 0.9),
        "gen.late_p90_ms": percentile(results.late_ms, 0.9),
        "service.cpu_busy_ratio": results.closed_cpu_s / results.closed_wall_s,
    }


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """One run of daemon-mixed.

    Untraced, one daemon runs the phases over ``seconds``.  Traced, a
    plain and a traced daemon run them over half of it each: the traced
    one gives the per-layer figures, the plain one the daemon's own
    end-to-end breakdown and the overhead base.  Set-up is sampled only
    untraced; every sample is an operation.
    """
    inputs = daemon_inputs(seed)
    if not trace:
        plan = make_plan(inputs, seconds)
        runs = [run_daemon(work / "plain", plan, sample_setup=True)]
        results = runs[0][0]
        print(
            "set-up at reference speed (s): "
            + json.dumps([round(wall, 3) for wall in results.setup_s]),
            file=sys.stderr,
        )
        print(
            "bulk round rates (rec/s): "
            + json.dumps([round(rate) for rate in results.round_rates]),
            file=sys.stderr,
        )
        print(
            "as timed: commit median (s) "
            f"{statistics.median(results.commit_ms) / 1000.0:.5f}, bulk median "
            f"(rec/s) {statistics.median(results.round_rates):.0f}",
            file=sys.stderr,
        )
        values = {
            "setup_s": statistics.median(results.setup_s),
            "op_wall_s": statistics.median(results.reference_commit_ms) / 1000.0,
            "records_per_s": statistics.median(results.reference_round_rates),
            "peak_rss_mb": results.peak_rss_mb,
        }
    else:
        plans = [make_plan(inputs, seconds / 2) for _ in range(2)]
        spans = work / "traced-spans.json"
        runs = [
            run_daemon(work / "plain", plans[0]),
            run_daemon(work / "traced", plans[1], spans=spans),
        ]
        (plain, plain_ledger), (traced, traced_ledger) = runs
        values = {}
        if plain.problem is None and traced.problem is None:
            # The daemon idles between requests, so its coverage is
            # judged on CPU: daemon CPU outside every layer span, and
            # CPU per acknowledged record, traced against plain.
            document = json.loads(spans.read_text())
            values = tracing.summarize([document], until=traced.cpu_read_at)
            values["startup.interpreter_s"] = document["entered"] - traced.spawned_at
            del values["attributed_s"]
            values["unattributed_s"] = traced.cpu_s - values.pop("attributed_cpu_s")
            values["trace.wall_s"] = traced.wall_s
            values["trace.overhead_ratio"] = (
                traced.cpu_s / traced_ledger.records
            ) / (plain.cpu_s / plain_ledger.records)
            values.update(detail_metrics(plain))
    return Outcome(
        problems=[results.problem for results, _ in runs if results.problem],
        attempted=sum(
            ledger.attempted + len(results.setup_s) for results, ledger in runs
        ),
        failed=sum(ledger.failed for _, ledger in runs),
        values=values,
    )
