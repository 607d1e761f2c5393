"""cli-batch-stream: the real CLI, one command at a time.

An *operation* is both ways a user gets a model from a log: batch
``mine LOG`` on the tab log, then, on the JSONL log split into two
shards, ``mine SHARD --stream --state-out`` on each shard and
``merge-states``.  Operations repeat until the run's seconds are spent
(at least :data:`MIN_OPS`), and the figures are medians over them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import gates
import tracing
from common import (
    BenchError,
    Completed,
    Outcome,
    at_reference_speed,
    cli_argv,
    run_child,
    speed_loop_s,
    traced_argv,
)
from inputs import CliInputs, cli_inputs

MIN_OPS = 3
SPANS_NAME = "spans.json"


@dataclass
class OpResult:
    """One operation: its commands, wall time and gate outcome."""

    commands: List[Completed]
    problem: Optional[str]

    @property
    def wall_s(self) -> float:
        return sum(command.wall_s for command in self.commands)

    @property
    def maxrss_mb(self) -> float:
        return max(command.maxrss_mb for command in self.commands)


def setup_seconds(work: Path) -> float:
    """Spawn to exit of ``repro-miner --help``: interpreter + import."""
    done = run_child(cli_argv("--help"), work / "setup")
    if done.status != 0:
        raise BenchError(f"--help exited {done.status}")
    return done.wall_s


class Runner:
    """Runs commands plain or under the traced launcher.

    With a ``setup`` list (the end-to-end run), a timed ``--help`` run
    precedes every command, so the set-up samples spread over the whole
    run rather than one stretch of it, and host-speed loops bracket both
    so each can be scaled to the reference speed.
    """

    def __init__(
        self, work: Path, traced: bool, setup: Optional[List[float]] = None
    ) -> None:
        self.work = work
        self.traced = traced
        self.setup = setup
        self.count = 0

    def __call__(self, *args: str) -> Completed:
        self.count += 1
        out = self.work / f"cmd-{self.count}"
        if self.traced:
            argv = traced_argv(out / SPANS_NAME, *args)
        else:
            argv = cli_argv(*args)
        if self.setup is None:
            return run_child(argv, out)
        before = speed_loop_s()
        wall = setup_seconds(self.work)
        between = speed_loop_s()
        self.setup.append(at_reference_speed(wall, (before, between)))
        done = run_child(argv, out)
        done.loops = (between, speed_loop_s())
        return done


def _failed_command(commands: List[Completed]) -> Optional[str]:
    for done in commands:
        if done.status != 0:
            tail = done.stderr.decode("utf-8", "replace")[-300:]
            return f"{' '.join(done.argv[-6:])} exited {done.status}: {tail}"
    return None


def cli_op(inputs: CliInputs, run: Runner) -> OpResult:
    """Batch ``mine``, then the two shard mines and ``merge-states``."""
    commands = [run("mine", str(inputs.batch.log), "--format", "edges")]
    states = []
    for index, shard in enumerate(inputs.stream.shards):
        state = run.work / f"shard-{index}.state.json"
        states.append(str(state))
        commands.append(
            run(
                "mine", str(shard), "--stream", "--format", "edges",
                "--state-out", str(state),
            )
        )
    commands.append(run("merge-states", *states, "--format", "edges"))
    problem = (
        _failed_command(commands)
        or gates.check_batch(commands[0].stdout, inputs.batch.oracle_edges)
        or gates.check_merge(commands[-1].stdout, inputs.stream.reference)
    )
    return OpResult(commands, problem)


def repeat(op: Callable[[], OpResult], seconds: float, minimum: int) -> List[OpResult]:
    """Run ``op`` at least ``minimum`` times, then while time remains.

    Stops at the first operation whose gate fails.
    """
    results: List[OpResult] = []
    took: List[float] = []
    start = time.perf_counter()
    while len(results) < minimum or (
        time.perf_counter() - start + statistics.median(took) <= seconds
    ):
        began = time.perf_counter()
        results.append(op())
        took.append(time.perf_counter() - began)
        if results[-1].problem is not None:
            break
    return results


def traced_layers(result: OpResult) -> Dict[str, float]:
    """Per-layer figures of one traced operation (summed over commands).

    Interpreter start (spawn to the launcher's first statement) and
    process exit (``main`` returning, the span file being written, and
    interpreter teardown) are timed on the parent's clock.
    """
    documents = [
        json.loads((done.out_dir / SPANS_NAME).read_text())
        for done in result.commands
    ]
    layers = tracing.summarize(documents)
    layers["startup.interpreter_s"] = sum(
        document["entered"] - done.started
        for document, done in zip(documents, result.commands)
    )
    layers["exit_s"] = sum(
        done.ended - document["returned"]
        for document, done in zip(documents, result.commands)
    )
    del layers["attributed_cpu_s"]
    attributed = (
        layers.pop("attributed_s")
        + layers["startup.interpreter_s"]
        + layers["exit_s"]
    )
    layers["trace.wall_s"] = result.wall_s
    layers["unattributed_s"] = result.wall_s - attributed
    return layers


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """One run of cli-batch-stream.

    Untraced, operations repeat for ``seconds``, each command after a
    timed ``--help`` run.  Traced, plain and traced operations alternate
    for ``seconds``: the traced ones give the per-layer figures, the
    plain ones the overhead base and the per-path walls.
    """
    inputs = cli_inputs(seed)
    setup: List[float] = []
    plain = Runner(work / "plain", traced=False, setup=None if trace else setup)
    traced = Runner(work / "traced", traced=True)
    setup_seconds(work)  # warms the bytecode cache; not a sample
    ops: List[OpResult] = []
    traced_ops: List[OpResult] = []

    def pair() -> OpResult:
        ops.append(cli_op(inputs, plain))
        if ops[-1].problem is not None:
            return ops[-1]
        traced_ops.append(cli_op(inputs, traced))
        return traced_ops[-1]

    if trace:
        repeat(pair, seconds, 1)
    else:
        ops = repeat(lambda: cli_op(inputs, plain), seconds, MIN_OPS)
    everything = ops + traced_ops
    problems = [op.problem for op in everything if op.problem is not None]
    print(
        "set-up at reference speed (s): "
        + json.dumps([round(wall, 3) for wall in setup]),
        file=sys.stderr,
    )
    print(
        "command walls (s): "
        + json.dumps([[round(done.wall_s, 3) for done in op.commands] for op in ops]),
        file=sys.stderr,
    )

    def command_medians(wall: Callable[[Completed], float]) -> List[float]:
        return [
            statistics.median([wall(op.commands[index]) for op in ops])
            for index in range(len(ops[0].commands))
        ]

    values: Dict[str, float] = {}
    if not trace:
        print(
            "speed loops (s): " + json.dumps(
                [[round(loop, 4) for loop in done.loops]
                 for op in ops for done in op.commands]
            ),
            file=sys.stderr,
        )
        # The sum of each command's median: host speed swings within a
        # run, and per-command medians damp it better than a median of a
        # few whole operations.
        op_wall = sum(command_medians(lambda done: done.reference_wall_s))
        print(
            f"op wall (s): {sum(command_medians(lambda done: done.wall_s)):.3f} "
            f"as timed, {op_wall:.3f} at reference speed",
            file=sys.stderr,
        )
        values = {
            "setup_s": statistics.median(setup),
            "op_wall_s": op_wall,
            "records_per_s": inputs.records / op_wall,
            "peak_rss_mb": max(op.maxrss_mb for op in ops),
        }
    elif not problems:
        per_op = [traced_layers(op) for op in traced_ops]
        values = {
            name: statistics.median([layers.get(name, 0.0) for layers in per_op])
            for name in {name for layers in per_op for name in layers}
        }
        values["trace.overhead_ratio"] = statistics.median(
            [op.wall_s for op in traced_ops]
        ) / statistics.median([op.wall_s for op in ops])
        walls = command_medians(lambda done: done.wall_s)
        values["e2e.batch_wall_s"] = walls[0]
        values["e2e.shards_wall_s"] = sum(walls[1:-1])
        values["e2e.merge_wall_s"] = walls[-1]
    commands = sum(len(op.commands) for op in everything)
    return Outcome(
        problems=problems,
        attempted=commands + len(setup) + 1,
        failed=len(problems),
        values=values,
    )
