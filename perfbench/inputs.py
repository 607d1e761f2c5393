"""Workload inputs, made from ``--seed`` with ``repro.datasets``.

Inputs are generated during set-up (never timed) and cached under
``.perfbench-work/inputs/<name>/<seed>-<digest>/``, where the digest
covers every file under ``src/``.  The oracle and reference outputs in
the cache are made by the program, so a change to the program makes
them again rather than checking it against another version's output.
Only the newest entry of a name is kept, so repeated runs of one
seed skip generation without the cache growing run after run.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from common import SRC, WORK, BenchError, cli_argv, run_child

BATCH_VERTICES = 50
STREAM_VERTICES = 100
EXECUTIONS = 10_000
POOL_VERTICES = 50
#: The daemon's traffic mix is assumed, not measured on a real log:
#: about 100 executions per variant, a 0.99 variant-memo hit ratio.
POOL_SIZE = 200
ZIPF_S = 1.2
TENANTS = ("tenant-a", "tenant-b")
EID = "@EID@"
#: Each log is drawn from one fixed random process graph (Section 8.1's
#: generator); ``--seed`` draws the executions logged from it.  Graphs
#: differ in density from seed to seed, which would move the work per
#: run and blur run-to-run comparisons.
GRAPH_SEED = 1998


def _program_digest() -> str:
    """A digest of every file under ``src/``, names and bytes."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_dir(name: str, seed: int) -> Tuple[Path, bool]:
    """The seed's input directory and whether it is already complete."""
    base = WORK / "inputs" / name
    directory = base / f"{seed}-{_program_digest()}"
    if (directory / "done").is_file():
        return directory, True
    if base.is_dir():
        shutil.rmtree(base)
    directory.mkdir(parents=True)
    return directory, False


def _graph(vertices: int):
    from repro.graphs.random_dag import random_process_dag

    return random_process_dag(vertices, seed=GRAPH_SEED)


def _synthetic_log(vertices: int, seed: int):
    """``EXECUTIONS`` executions of the ``vertices``-vertex graph, drawn by ``seed``."""
    from repro.datasets.synthetic import generate_executions

    return generate_executions(
        _graph(vertices), EXECUTIONS, seed=seed, process_name=f"synthetic-{vertices}v"
    )


@dataclass(frozen=True)
class BatchInputs:
    log: Path
    records: int
    oracle_edges: frozenset


def batch_inputs(seed: int) -> BatchInputs:
    """The batch path: a tab log and Algorithm 2's edges from the oracle."""
    directory, cached = _cache_dir("batch", seed)
    log_path = directory / "batch.log"
    oracle_path = directory / "oracle.json"
    if not cached:
        from repro.core.reference import mine_general_dag_reference
        from repro.logs.codec import write_log_file

        log = _synthetic_log(BATCH_VERTICES, seed)
        records = write_log_file(log, log_path, durable=False)
        edges = sorted(mine_general_dag_reference(log).edges())
        oracle_path.write_text(
            json.dumps({"records": records, "edges": edges})
        )
        (directory / "done").write_text("")
    oracle = json.loads(oracle_path.read_text())
    return BatchInputs(
        log=log_path,
        records=oracle["records"],
        oracle_edges=frozenset(tuple(edge) for edge in oracle["edges"]),
    )


@dataclass(frozen=True)
class StreamInputs:
    shards: Tuple[Path, Path]
    records: int
    reference: bytes


def stream_inputs(seed: int) -> StreamInputs:
    """The stream path: a JSONL log split by execution into two shards.

    The reference is batch ``mine --no-verify --format edges`` stdout
    on the unsplit log, produced by the program itself at set-up.
    """
    directory, cached = _cache_dir("stream", seed)
    full = directory / "full.jsonl"
    shards = (directory / "shard1.jsonl", directory / "shard2.jsonl")
    reference = directory / "reference.txt"
    if not cached:
        from repro.logs.jsonl import record_to_json

        log = _synthetic_log(STREAM_VERTICES, seed)
        executions = list(log)
        half = len(executions) // 2
        parts = (executions[:half], executions[half:])
        records = 0
        with open(full, "w", encoding="utf-8") as whole:
            for part, shard in zip(parts, shards):
                with open(shard, "w", encoding="utf-8") as out:
                    for execution in part:
                        for record in execution.records:
                            line = record_to_json(record, log.process_name)
                            out.write(line + "\n")
                            whole.write(line + "\n")
                            records += 1
        done = run_child(
            cli_argv("mine", str(full), "--no-verify", "--format", "edges"),
            directory / "reference-run",
        )
        if done.status != 0:
            raise BenchError(
                f"reference mine failed: {done.stderr.decode()[-500:]}"
            )
        reference.write_bytes(done.stdout)
        (directory / "records").write_text(str(records))
        (directory / "done").write_text("")
    return StreamInputs(
        shards=shards,
        records=int((directory / "records").read_text()),
        reference=reference.read_bytes(),
    )


@dataclass(frozen=True)
class CliInputs:
    """cli-batch-stream: the batch tab log and the sharded JSONL log."""

    batch: BatchInputs
    stream: StreamInputs

    @property
    def records(self) -> int:
        """Records read by one operation: the batch log and both shards."""
        return self.batch.records + self.stream.records


def cli_inputs(seed: int) -> CliInputs:
    return CliInputs(batch_inputs(seed), stream_inputs(seed))


@dataclass(frozen=True)
class Body:
    """One pre-serialized POST body of whole executions."""

    tenant: str
    data: bytes
    lines: int
    executions: int


@dataclass
class DaemonInputs:
    """Trace templates per tenant and the seeded Zipf draw over them."""

    templates: List[Dict[str, bytes]]
    cum_weights: List[float]
    rng: random.Random
    serial: int = 0

    def body(self, tenant: str, lines: int) -> Body:
        """Whole executions, fresh ids, adding up to ``lines`` or more."""
        parts = []
        count = 0
        while count < lines:
            (index,) = self.rng.choices(
                range(len(self.templates)), cum_weights=self.cum_weights
            )
            template = self.templates[index][tenant]
            self.serial += 1
            eid = f"{tenant}-{self.serial:08d}".encode()
            parts.append(template.replace(EID.encode(), eid))
            count += template.count(b"\n")
        return Body(tenant, b"".join(parts), count, len(parts))

    def bodies(self, lines: int, n: int) -> List[Body]:
        """``n`` bodies alternating between the tenants."""
        return [self.body(TENANTS[i % len(TENANTS)], lines) for i in range(n)]


def daemon_inputs(seed: int) -> DaemonInputs:
    """daemon-mixed: a pool of distinct traces drawn Zipf(s) per execution.

    The pool and its rank order are fixed, like the graph: the Zipf
    weight of the top traces sets the records per execution, and so
    the per-record cost of the daemon's per-execution journal append.
    ``seed`` draws the sequence of executions.
    """
    from repro.datasets.synthetic import generate_executions
    from repro.logs.jsonl import record_to_json

    graph = _graph(POOL_VERTICES)
    pool = []
    seen = set()
    batch = 0
    while len(pool) < POOL_SIZE:
        log = generate_executions(graph, 500, seed=GRAPH_SEED + batch)
        batch += 1
        for execution in log:
            key = tuple(execution.sequence)
            if key not in seen and len(pool) < POOL_SIZE:
                seen.add(key)
                pool.append(execution)
        if batch > 20:
            raise BenchError("could not draw enough distinct traces")
    templates = []
    for execution in pool:
        per_tenant = {}
        for tenant in TENANTS:
            lines = []
            for record in execution.records:
                line = record_to_json(record, tenant)
                lines.append(
                    line.replace(
                        json.dumps(execution.execution_id), json.dumps(EID)
                    )
                )
            per_tenant[tenant] = ("\n".join(lines) + "\n").encode()
        templates.append(per_tenant)
    cumulative = []
    total = 0.0
    for rank in range(1, POOL_SIZE + 1):
        total += rank ** -ZIPF_S
        cumulative.append(total)
    return DaemonInputs(
        templates=templates, cum_weights=cumulative, rng=random.Random(seed)
    )
