"""Shared plumbing: checkout paths, child processes, statistics."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Inputs (cached per seed), daemon data dirs and span files.  Listed in
#: the root .gitignore; never part of a checkout.
WORK = ROOT / ".perfbench-work"
TRACED = BENCH_DIR / "traced.py"
#: Hard cap on any one child command, well under the run's 180 s limit.
CHILD_TIMEOUT_S = 120.0
SPEED_LOOP_ITERATIONS = 1_000_000
#: :func:`speed_loop_s` on the reference host: a 2-vCPU Firecracker VM
#: with Python 3.11.7, in the faster of the two speeds it swings between.
#: End-to-end times are reported at this speed.
REFERENCE_LOOP_S = 0.0667


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken setup)."""


def require_sources() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program sources at {SRC}")


def child_env() -> Dict[str, str]:
    """The environment every program process runs with.

    Settings that change how the program works (parallel jobs, kernels,
    fault plans) are dropped so every run measures the defaults.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(*args: str) -> List[str]:
    """``repro-miner ARGS`` as run from source."""
    return [sys.executable, "-m", "repro.cli", *args]


def traced_argv(spans_path: Path, *args: str) -> List[str]:
    """``repro-miner ARGS`` under the benchmark's traced launcher."""
    return [sys.executable, str(TRACED), str(spans_path), *args]


def speed_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now.

    The shared host's CPU speed swings by up to 1.5x in stretches of
    seconds to a minute, longer than a benchmark run can average over.
    The loop runs nothing from ``src/``, so only the host moves it.
    """
    started = time.perf_counter()
    total = 0
    for number in range(SPEED_LOOP_ITERATIONS):
        total += number * number % 7
    return time.perf_counter() - started


def at_reference_speed(seconds: float, loops: Sequence[float]) -> float:
    """``seconds`` of wall time scaled to the reference host's speed.

    ``loops`` are :func:`speed_loop_s` readings taken just before and
    just after the timed interval.
    """
    return seconds * REFERENCE_LOOP_S / statistics.fmean(loops)


@dataclass
class Completed:
    """One finished child: exit status, wall time, peak RSS, stdout."""

    argv: List[str]
    out_dir: Path
    status: int
    started: float
    ended: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    #: :func:`speed_loop_s` readings just before and after the child.
    loops: Tuple[float, ...] = ()

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    @property
    def reference_wall_s(self) -> float:
        return at_reference_speed(self.wall_s, self.loops)


def run_child(argv: List[str], out_dir: Path) -> Completed:
    """Spawn ``argv``, wait for it, and time spawn to exit.

    ``started``/``ended`` are ``perf_counter`` readings; on Linux that is
    the system-wide monotonic clock, so a traced child's own readings
    fall on the same time line.

    Output goes to files, not pipes, so nothing the parent does while
    the child runs can stall it; ``wait4`` gives the child's own peak
    resident set size.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout_path = out_dir / "stdout"
    stderr_path = out_dir / "stderr"
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        ended = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(status)
    return Completed(
        argv=argv,
        out_dir=out_dir,
        status=process.returncode,
        started=started,
        ended=ended,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
    )


@dataclass
class Outcome:
    """What one workload run reports: gate failures, op counts, metrics."""

    problems: List[str]
    attempted: int
    failed: int
    values: Dict[str, float]


def percentile(values: List[float], share: float) -> Optional[float]:
    """Nearest-rank percentile (``share`` in 0..1); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered) - 1e-9))
    return ordered[rank - 1]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
