"""CI memory-budget smoke test for ``mine --stream``.

Generates a large synthetic ``.jsonl`` log (100k executions by
default), then mines it with the CLI's streaming path inside a
subprocess whose address space is capped hard with
``resource.setrlimit(RLIMIT_AS)`` — if out-of-core mining ever regresses
into materializing the log, the run dies on ``MemoryError`` and this
script exits non-zero.

The cap is deliberately far below what materialized mining needs at
this scale (~800 MiB peak RSS for the default cell, vs ~170 MiB
streamed), so the gate has a wide margin on both sides: streamed mining
passes comfortably, a materializing regression cannot.

The capped child runs ``python -m repro.cli mine --stream`` rather than
the mining API directly, so the budget covers the whole user-facing
path: streaming ingest, parallel fold, finish, and rendering.  The same
cap then covers the out-of-core shard path: the log is split by
execution into two halves, each is mined with ``--state-out``, and
``merge-states`` folds the two state files.  That exercises the state
file loader and one-shot CLI runs with the cyclic collector paused;
the merged graph must equal the whole-log graph.

Usage::

    PYTHONPATH=src python benchmarks/memory_budget.py
    PYTHONPATH=src python benchmarks/memory_budget.py \
        --executions 100000 --limit-mb 512
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

DEFAULT_EXECUTIONS = 100_000
DEFAULT_VERTICES = 25
DEFAULT_LIMIT_MB = 512
#: Process name of the generated log; execution ids are
#: ``{PROCESS_NAME}-{index:07d}``.
PROCESS_NAME = "stream-bench"


def _capped_cli(
    arguments: List[str], limit_mb: int
) -> Tuple[Optional[List[str]], str]:
    """Run ``repro-miner ARGUMENTS`` in a child capped by RLIMIT_AS.

    Returns ``(edge lines, "")`` on success and ``(None, reason)`` when
    the child failed (its output is echoed for the CI log).
    """
    cap = limit_mb * 1024 * 1024

    def arm_limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        preexec_fn=arm_limit,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        print(completed.stdout, end="")
        print(completed.stderr, end="", file=sys.stderr)
        return None, f"exited {completed.returncode}"
    edges = [
        line
        for line in completed.stdout.splitlines()
        if line and not line.startswith("#")
    ]
    return edges, ""


def _split_log(log_path: str, first: str, second: str, marker: str) -> None:
    """Split a log by execution: lines before ``marker``'s first line
    go to ``first``, the rest to ``second``.

    :func:`stream_probe.generate_log` writes executions one after the
    other with sequential ids, so the first line naming an execution id
    is a clean shard boundary.
    """
    with open(log_path, encoding="utf-8") as source, open(
        first, "w", encoding="utf-8"
    ) as head, open(second, "w", encoding="utf-8") as tail:
        target = head
        for line in source:
            if target is head and marker in line:
                target = tail
            target.write(line)


def _capped_runs(
    log_path: str, executions: int, limit_mb: int, workdir: str
) -> int:
    """``mine --stream`` the log, then its two shards and merge-states."""
    stream, problem = _capped_cli(
        ["mine", log_path, "--stream", "--format", "edges"], limit_mb
    )
    if stream is None:
        print(
            f"FAIL: mine --stream {problem} under a {limit_mb} MiB "
            f"address-space cap — streaming mining no longer fits the "
            f"memory budget",
            file=sys.stderr,
        )
        return 1
    print(
        f"mine --stream held the {limit_mb} MiB budget "
        f"({len(stream)} edges mined)"
    )
    shards = [str(Path(workdir) / f"shard{i}.jsonl") for i in (1, 2)]
    states = [str(Path(workdir) / f"shard{i}.state.json") for i in (1, 2)]
    _split_log(
        log_path, *shards, marker=f"{PROCESS_NAME}-{executions // 2:07d}"
    )
    for shard, state in zip(shards, states):
        _, problem = _capped_cli(
            ["mine", shard, "--stream", "--format", "edges",
             "--state-out", state],
            limit_mb,
        )
        if problem:
            print(
                f"FAIL: mine --stream --state-out {problem} under a "
                f"{limit_mb} MiB cap",
                file=sys.stderr,
            )
            return 1
        Path(shard).unlink()
    merged, problem = _capped_cli(
        ["merge-states", *states, "--format", "edges"], limit_mb
    )
    if merged is None:
        print(
            f"FAIL: merge-states {problem} under a {limit_mb} MiB "
            f"address-space cap — loading and merging shard states no "
            f"longer fits the memory budget",
            file=sys.stderr,
        )
        return 1
    if merged != stream:
        print(
            "FAIL: merge-states of the two shard states does not match "
            "mine --stream over the whole log",
            file=sys.stderr,
        )
        return 1
    print(
        f"merge-states held the {limit_mb} MiB budget "
        f"({len(merged)} edges, equal to the whole-log graph)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--executions", type=int, default=DEFAULT_EXECUTIONS
    )
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument(
        "--limit-mb",
        type=int,
        default=DEFAULT_LIMIT_MB,
        help="hard RLIMIT_AS cap for the mining child (MiB)",
    )
    parser.add_argument(
        "--keep-log",
        metavar="PATH",
        help="also keep the generated log at PATH (debugging)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import stream_probe

    with tempfile.TemporaryDirectory(prefix="membudget-") as workdir:
        log_path = args.keep_log or str(Path(workdir) / "budget.jsonl")
        records = stream_probe.generate_log(
            log_path,
            executions=args.executions,
            vertices=args.vertices,
            process_name=PROCESS_NAME,
        )
        print(
            f"generated {args.executions} executions "
            f"({records} records) at {log_path}"
        )
        status = _capped_runs(
            log_path, args.executions, args.limit_mb, workdir
        )
        if status == 0:
            # Report the streamed peak for the CI log (uncapped probe).
            measured = stream_probe.measure(log_path, "stream")
            print(
                json.dumps(
                    {
                        "executions": args.executions,
                        "limit_mb": args.limit_mb,
                        "stream_peak_rss_kb": measured["ru_maxrss_kb"],
                        "stream_seconds": measured["seconds"],
                    }
                )
            )
        return status


if __name__ == "__main__":
    sys.exit(main())
