"""The repository benchmark: two workloads against the real program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-batch-stream --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload again under the traced launchers and
prints every per-layer metric (a layer the workload never reaches reads
0).  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every output gate passed, 1 when one failed, and 2 when the benchmark
cannot run here (no program sources, broken set-up) -- in which case
no result is printed.  ``--workload all`` prints one such line per
workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from typing import List

import cli_workloads
import daemon_workload
from common import ROOT, SRC, WORK, BenchError, metric, require_sources

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOADS = {
    "cli-batch-stream": cli_workloads.run,
    "daemon-mixed": daemon_workload.run,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    work = WORK / "runs" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcome = WORKLOADS[name](seed, seconds, trace, work)
    for problem in outcome.problems:
        print(f"{name}: output gate failed: {problem}", file=sys.stderr)
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            entry["name"]: metric(
                float(outcome.values.get(entry["name"], 0.0)), entry["unit"]
            )
            for entry in declared
        },
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        if not BENCHMARK_JSON.is_file():
            raise BenchError(f"missing {BENCHMARK_JSON}")
        sys.path.insert(0, str(SRC))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        correct = True
        for name in names:
            started = time.perf_counter()
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(
                f"{name}: {time.perf_counter() - started:.1f} s", file=sys.stderr
            )
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
