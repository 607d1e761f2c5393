"""Command-line interface.

Subcommands
-----------
``mine``
    Mine a process graph (and optionally conditions) from a log file.
``generate``
    Generate a synthetic log (Section 8.1) or a simulated Flowmark log.
``stats``
    Print summary statistics of a log file.
``conditions``
    Mine the graph, then learn and print every edge's condition.
``simulate``
    Execute a model file through the workflow engine into a log file.
``compare``
    Diff a purported model file against what a log actually shows.
``evolve``
    Produce the next model version from a log of successful executions.
``timing``
    Print duration/makespan analytics of a log.
``coverage``
    Report how thoroughly a log exercises a model's edges.
``variants``
    Print the log's distinct execution variants.
``convert``
    Convert a log between the tab-separated and JSON-lines formats.
``lint``
    Statically analyze a model file with the :mod:`repro.lint` rules.
``merge-states``
    Fold shard state files into one model (out-of-core mining).
``verify-state``
    Fsck a mining-state/checkpoint file or a ``--journal`` session
    directory (integrity envelopes, journal frames, torn tails).

The log file format is the tab-separated codec of
:mod:`repro.logs.codec` (``mine`` also accepts ``.jsonl`` logs); model
files use the line format of :mod:`repro.model.serialize`.  All results
go to stdout; diagnostics (including the ``mine --on-error`` ingest
summary) go to stderr.  Exit status: 0 on success, 1 on malformed input
or I/O errors, 2 on a ``compare`` mismatch or when ``mine``'s built-in
verification finds error-level lint diagnostics (suppress with
``--no-verify``), 3 when ``mine`` succeeded but records were
quarantined/dropped during ingestion.  ``lint`` exits with the report's
severity code: 0 clean or info-only, 1 warnings, 2 errors.
``verify-state`` exits 0 when everything verifies, 1 when the target is
missing/unreadable, 2 when corruption was detected.

Durability (``mine --stream``): ``--journal DIR`` write-ahead journals
accepted executions and checkpoints the fold so a killed run can be
continued with ``--resume`` to the same bytes an uninterrupted run
produces; ``--fold-timeout``/``--fold-retries`` supervise the parallel
fold (see :mod:`repro.resilience` and docs/RELIABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.diffing import diff_against_log
from repro.core.kernels import KERNEL_NAMES
from repro.core.miner import (
    ALGORITHM_AUTO,
    ALGORITHM_CYCLIC,
    ALGORITHM_GENERAL,
    ALGORITHM_SPECIAL,
    MiningResult,
    ProcessMiner,
)
from repro.datasets.flowmark import FLOWMARK_PROCESS_NAMES, flowmark_dataset
from repro.datasets.synthetic import SyntheticConfig, synthetic_dataset
from repro.engine.simulator import SimulationConfig, WorkflowSimulator
from repro.errors import EmptyLogError, MiningError, ReproError
from repro.lint import LintConfig, Severity, lint_model
from repro.lint.emitters import FORMATS as LINT_FORMATS
from repro.lint.emitters import model_line_map, render
from repro.lint.engine import severity_overrides
from repro.logs.codec import ingest_log_file, read_log_file, write_log_file
from repro.logs.ingest import (
    DEFAULT_STREAM_WINDOW,
    POLICIES,
    POLICY_STRICT,
    IngestLimits,
    IngestReport,
    Quarantine,
    publish_ingest_report,
)
from repro.obs import (
    FORMAT_JSONL,
    FORMATS as METRICS_FORMATS,
    NULL_RECORDER,
    ObsRecorder,
    RunManifest,
    write_manifest,
)
from repro.logs.jsonl import ingest_log_jsonl_file
from repro.logs.stats import format_statistics, summarize_log
from repro.logs.timing import format_timing_report
from repro.model.evolution import evolve_model
from repro.model.serialize import load_model, save_model


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("limit must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-miner",
        description=(
            "Mine process model graphs from workflow logs "
            "(Agrawal, Gunopulos, Leymann; EDBT 1998)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser(
        "mine", help="mine a process graph from a log file"
    )
    mine.add_argument("log", help="path to a log file (codec format)")
    mine.add_argument(
        "--algorithm",
        choices=[
            ALGORITHM_AUTO,
            ALGORITHM_SPECIAL,
            ALGORITHM_GENERAL,
            ALGORITHM_CYCLIC,
        ],
        default=ALGORITHM_AUTO,
        help="which of the paper's algorithms to run (default: auto)",
    )
    mine.add_argument(
        "--threshold",
        type=int,
        default=0,
        help="Section 6 noise threshold T (0 disables)",
    )
    mine.add_argument(
        "--format",
        choices=["ascii", "dot", "edges"],
        default="ascii",
        help="output format for the mined graph",
    )
    mine.add_argument(
        "--exact-minimize",
        action="store_true",
        help=(
            "post-process with exact conformal minimization (Section "
            "4's slow alternative; see repro.core.minimize)"
        ),
    )
    mine.add_argument(
        "--no-verify",
        action="store_true",
        help=(
            "skip the post-mining lint verification (error-level "
            "repro.lint rules run over the mined model by default)"
        ),
    )
    mine.add_argument(
        "--on-error",
        choices=list(POLICIES),
        default=POLICY_STRICT,
        help=(
            "ingest error policy: strict aborts on the first bad "
            "record (default), skip quarantines bad input, repair "
            "additionally fixes repairable traces"
        ),
    )
    mine.add_argument(
        "--quarantine",
        metavar="PATH",
        help=(
            "write quarantined records to a JSON-lines dead-letter "
            "file at PATH"
        ),
    )
    mine.add_argument(
        "--limit-executions", type=_positive_int, metavar="N",
        help="abort if the log holds more than N executions",
    )
    mine.add_argument(
        "--limit-events-per-execution", type=_positive_int, metavar="N",
        help="abort if any execution holds more than N events",
    )
    mine.add_argument(
        "--limit-activities", type=_positive_int, metavar="N",
        help="abort if the log names more than N distinct activities",
    )
    mine.add_argument(
        "--jobs", type=_positive_int, metavar="N",
        help=(
            "worker processes for pair extraction and step-5 marking "
            "(default: the REPRO_JOBS environment variable, else 1; "
            "the mined graph is identical for any value)"
        ),
    )
    mine.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help=(
            "mining kernel for the Algorithm 2/3 hot paths (default: "
            "the REPRO_KERNEL environment variable, else bitset; "
            "numpy requires numpy to be installed; the mined graph "
            "is identical for every kernel)"
        ),
    )
    mine.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-stage wall-clock timings and variant/cache "
            "statistics to stderr"
        ),
    )
    mine.add_argument(
        "--stream",
        action="store_true",
        help=(
            "out-of-core mining: fold executions into a mergeable "
            "mining state as they are read instead of materializing "
            "the log (memory stays constant in the execution count; "
            "auto resolves to general-dag or cyclic, never "
            "special-dag, and --exact-minimize is unavailable)"
        ),
    )
    mine.add_argument(
        "--stream-window",
        type=_positive_int,
        metavar="N",
        help=(
            "with --stream: an execution finalizes once N accepted "
            "records pass without extending it (default: 1024; logs "
            "written by this tool are contiguous, so any value works)"
        ),
    )
    mine.add_argument(
        "--state-out",
        metavar="PATH",
        help=(
            "with --stream: also write the folded mining state to "
            "PATH (a v3 checkpoint, usable as a merge-states shard "
            "or an incremental-miner resume point)"
        ),
    )
    mine.add_argument(
        "--journal",
        metavar="DIR",
        help=(
            "durable session directory (implies --stream): every "
            "accepted execution is write-ahead journaled into "
            "DIR/wal/ before folding and the state is checkpointed "
            "periodically, so a crashed run resumes with --resume; "
            "the fold runs serially (see docs/RELIABILITY.md)"
        ),
    )
    mine.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        metavar="N",
        default=None,
        help=(
            "with --journal: checkpoint the folded state every N "
            "executions (default: 256)"
        ),
    )
    mine.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --journal: recover the last checkpoint plus the "
            "journal tail from DIR, then continue mining the log, "
            "skipping the executions the recovered state already "
            "covers; the result is identical to an uninterrupted run"
        ),
    )
    mine.add_argument(
        "--fold-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "with --stream and --jobs > 1: supervise the parallel "
            "fold — a worker chunk not done after SECONDS is treated "
            "as hung, its pool recycled and the chunk retried"
        ),
    )
    mine.add_argument(
        "--fold-retries",
        type=int,
        metavar="N",
        default=None,
        help=(
            "with --stream and --jobs > 1: retry a failed/hung fold "
            "chunk N times (seeded exponential backoff) before "
            "quarantining its executions as poisoned-chunk records "
            "and continuing degraded (default: 2 when supervision "
            "is on)"
        ),
    )
    _add_metrics_arguments(mine)

    merge_states = commands.add_parser(
        "merge-states",
        help=(
            "merge mining-state shard files (from mine --stream "
            "--state-out or incremental checkpoints) and finish the "
            "mined graph"
        ),
    )
    merge_states.add_argument(
        "states", nargs="+", help="paths to mining-state files to merge"
    )
    merge_states.add_argument(
        "--output",
        metavar="PATH",
        help="also write the merged state to PATH (v3 checkpoint)",
    )
    merge_states.add_argument(
        "--state-only",
        action="store_true",
        help="merge and write --output without mining a graph",
    )
    merge_states.add_argument(
        "--threshold",
        type=int,
        default=0,
        help="Section 6 noise threshold T applied at finish (0 disables)",
    )
    merge_states.add_argument(
        "--format",
        choices=["ascii", "dot", "edges"],
        default="ascii",
        help="output format for the mined graph",
    )
    merge_states.add_argument(
        "--jobs", type=_positive_int, metavar="N",
        help="worker processes for the finishing step-5 marking",
    )
    merge_states.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help=(
            "mining kernel for the finishing steps (default: "
            "REPRO_KERNEL, else bitset)"
        ),
    )

    verify_state = commands.add_parser(
        "verify-state",
        help=(
            "fsck a mining-state/checkpoint file or a --journal "
            "session directory (integrity envelopes, journal frames)"
        ),
    )
    verify_state.add_argument(
        "target",
        help=(
            "a state/checkpoint file, or a durable session directory "
            "(checkpoint.json + wal/)"
        ),
    )

    generate = commands.add_parser(
        "generate", help="generate a synthetic or simulated-Flowmark log"
    )
    generate.add_argument("output", help="path to write the log to")
    generate.add_argument(
        "--kind",
        choices=["synthetic", *FLOWMARK_PROCESS_NAMES],
        default="synthetic",
        help="dataset kind (default: synthetic random DAG)",
    )
    generate.add_argument(
        "--vertices", type=int, default=10,
        help="synthetic graph size, START/END included",
    )
    generate.add_argument(
        "--executions", type=int, default=100,
        help="number of executions to log",
    )
    generate.add_argument("--seed", type=int, default=0, help="RNG seed")

    stats = commands.add_parser(
        "stats", help="print summary statistics of a log file"
    )
    stats.add_argument("log", help="path to a log file")

    conditions = commands.add_parser(
        "conditions",
        help="mine the graph, then learn each edge's Boolean condition",
    )
    conditions.add_argument("log", help="path to a log file with outputs")
    conditions.add_argument(
        "--threshold", type=int, default=0, help="noise threshold T"
    )

    simulate = commands.add_parser(
        "simulate",
        help="execute a model file through the workflow engine",
    )
    simulate.add_argument("model", help="path to a model file")
    simulate.add_argument("output", help="path to write the log to")
    simulate.add_argument(
        "--executions", type=int, default=100,
        help="number of executions to simulate",
    )
    simulate.add_argument(
        "--agents", type=int, default=2, help="agent pool size"
    )
    simulate.add_argument("--seed", type=int, default=0, help="RNG seed")

    compare = commands.add_parser(
        "compare",
        help="diff a purported model file against what a log shows",
    )
    compare.add_argument("model", help="path to the purported model file")
    compare.add_argument("log", help="path to a log file")
    compare.add_argument(
        "--threshold", type=int, default=0, help="noise threshold T"
    )

    evolve = commands.add_parser(
        "evolve",
        help="produce the next model version from a log",
    )
    evolve.add_argument("model", help="path to the current model file")
    evolve.add_argument("log", help="path to a log of executions")
    evolve.add_argument(
        "--output", help="path to write the evolved model to"
    )
    evolve.add_argument(
        "--threshold", type=int, default=0, help="noise threshold T"
    )
    evolve.add_argument(
        "--prune-unobserved",
        action="store_true",
        help="also remove model edges the log never exercised",
    )
    evolve.add_argument(
        "--learn-conditions",
        action="store_true",
        help="learn Section 7 conditions for newly added edges",
    )

    timing = commands.add_parser(
        "timing", help="print duration/makespan analytics of a log"
    )
    timing.add_argument("log", help="path to a log file")

    coverage = commands.add_parser(
        "coverage",
        help="report how thoroughly a log exercises a model's edges",
    )
    coverage.add_argument("model", help="path to a model file")
    coverage.add_argument("log", help="path to a log file")

    variants = commands.add_parser(
        "variants", help="print the log's distinct execution variants"
    )
    variants.add_argument("log", help="path to a log file")
    variants.add_argument(
        "--top", type=int, default=10, help="variants to show"
    )

    convert = commands.add_parser(
        "convert",
        help=(
            "convert a log between the tab-separated and JSON-lines "
            "formats (by file extension: .jsonl vs anything else)"
        ),
    )
    convert.add_argument("input", help="path to the input log")
    convert.add_argument("output", help="path to the output log")

    lint = commands.add_parser(
        "lint",
        help="statically analyze a model file (stable PMxxx diagnostics)",
    )
    lint.add_argument("model", help="path to a model file")
    lint.add_argument(
        "--log",
        help=(
            "event log to check the model against (enables the PM3xx "
            "log-vs-model rules)"
        ),
    )
    lint.add_argument(
        "--format",
        choices=list(LINT_FORMATS),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select",
        metavar="CODES",
        help=(
            "comma-separated code prefixes to run, e.g. PM1,PM203 "
            "(default: all rules)"
        ),
    )
    lint.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated code prefixes to skip, e.g. PM3",
    )
    lint.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="CODE=LEVEL",
        help=(
            "override one rule's severity (error/warning/info), e.g. "
            "--severity PM301=error; repeatable"
        ),
    )
    lint.add_argument(
        "--threshold",
        type=int,
        default=0,
        help="Section 6 noise threshold T for PM302 (0 disables)",
    )
    lint.add_argument(
        "--require-acyclic",
        action="store_true",
        help="DAG mode: cycles and 2-cycles (PM109/PM110) become errors",
    )
    _add_metrics_arguments(lint)

    serve = commands.add_parser(
        "serve",
        help=(
            "run the multi-tenant mining daemon (HTTP/JSONL; see "
            "docs/SERVICE.md)"
        ),
    )
    serve.add_argument(
        "data_dir",
        metavar="DATA_DIR",
        help=(
            "root directory for per-tenant durable sessions "
            "(journal + checkpoints + dead-letter files); an existing "
            "directory's tenants are recovered at boot"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 picks an ephemeral port; default: 8787)",
    )
    serve.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port to PATH once listening",
    )
    serve.add_argument(
        "--algorithm",
        choices=[ALGORITHM_AUTO, ALGORITHM_GENERAL, ALGORITHM_CYCLIC],
        default=ALGORITHM_AUTO,
        help=(
            "mining algorithm per tenant (special-dag needs the "
            "materialized log, exactly like mine --stream; "
            "default: auto)"
        ),
    )
    serve.add_argument(
        "--threshold",
        type=int,
        default=0,
        help="Section 6 noise threshold T (0 disables)",
    )
    serve.add_argument(
        "--on-error",
        choices=list(POLICIES),
        default="skip",
        help=(
            "ingest error policy per tenant (default: skip — a "
            "service quarantines bad events instead of failing the "
            "batch)"
        ),
    )
    serve.add_argument(
        "--stream-window",
        type=_positive_int,
        metavar="N",
        default=None,
        help=(
            "an execution finalizes once N accepted records pass "
            "without extending it (default: 1024)"
        ),
    )
    serve.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        metavar="N",
        default=None,
        help="checkpoint each tenant every N folds (default: 256)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=_positive_int,
        metavar="N",
        default=64,
        help=(
            "refresh a tenant's served model once N folds accumulate "
            "past the cached snapshot (default: 64)"
        ),
    )
    serve.add_argument(
        "--queue-limit",
        type=_positive_int,
        metavar="N",
        default=64,
        help=(
            "queued ingest batches per tenant before 429 "
            "backpressure (default: 64)"
        ),
    )
    serve.add_argument(
        "--idle-flush-seconds",
        type=float,
        metavar="SECONDS",
        default=30.0,
        help=(
            "finalize a tenant's open execution windows after this "
            "long without new events (0 disables; default: 30)"
        ),
    )
    serve.add_argument(
        "--max-tenants",
        type=_positive_int,
        metavar="N",
        default=1024,
        help="maximum live tenants (default: 1024)",
    )
    serve.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help="mining kernel for snapshot finishes (default: bitset)",
    )
    serve.add_argument(
        "--limit-executions", type=_positive_int, metavar="N",
        help="per tenant: abort a batch beyond N executions",
    )
    serve.add_argument(
        "--limit-events-per-execution", type=_positive_int, metavar="N",
        help="per tenant: abort a batch if an execution exceeds N events",
    )
    serve.add_argument(
        "--limit-activities", type=_positive_int, metavar="N",
        help="per tenant: abort a batch beyond N distinct activities",
    )
    _add_metrics_arguments(serve)
    return parser


def _add_metrics_arguments(subparser: argparse.ArgumentParser) -> None:
    """The shared ``repro.obs`` export flags (``mine`` and ``lint``)."""
    subparser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "enable the observability layer and write the run manifest "
            "(spans, counters, input digest, environment) to PATH"
        ),
    )
    subparser.add_argument(
        "--metrics-format",
        choices=list(METRICS_FORMATS),
        default=FORMAT_JSONL,
        help=(
            "manifest format: jsonl trace events (default), prom "
            "(Prometheus text exposition) or text (human summary)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mine":
            return _cmd_mine(args)
        if args.command == "merge-states":
            return _cmd_merge_states(args)
        if args.command == "verify-state":
            return _cmd_verify_state(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "conditions":
            return _cmd_conditions(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "timing":
            return _cmd_timing(args)
        if args.command == "coverage":
            return _cmd_coverage(args)
        if args.command == "variants":
            return _cmd_variants(args)
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "serve":
            return _cmd_serve(args)
        parser.error(f"unknown command {args.command!r}")
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _metrics_out_problem(args: argparse.Namespace) -> Optional[str]:
    """Why ``--metrics-out`` cannot be written, or None if it can.

    Checked *before* any work starts: a manifest that would only fail
    at write time — after minutes of mining — is a wasted run.  The
    durable writer stages a temp sibling in the target's directory, so
    the parent must exist and be writable/traversable.
    """
    import os
    from pathlib import Path

    target = getattr(args, "metrics_out", None)
    if not target:
        return None
    path = Path(target)
    if path.is_dir():
        return "is a directory"
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.exists():
        return f"parent directory {parent} does not exist"
    if not parent.is_dir():
        return f"parent {parent} is not a directory"
    if not os.access(parent, os.W_OK | os.X_OK):
        return f"parent directory {parent} is not writable"
    if path.exists() and not os.access(path, os.W_OK):
        return "existing file is not writable"
    return None


def _require_writable_metrics_out(
    args: argparse.Namespace,
) -> Optional[int]:
    """Fail fast (exit 2) when the manifest target is unwritable."""
    problem = _metrics_out_problem(args)
    if problem is None:
        return None
    print(
        f"error: --metrics-out {args.metrics_out}: {problem}",
        file=sys.stderr,
    )
    return 2


def _metrics_recorder(args: argparse.Namespace):
    """The run's recorder: real when ``--metrics-out`` was given.

    ``--profile`` also records: the stage sub-span breakdown (e.g.
    prepare's parse/intern/pairs) only exists as recorder spans.
    """
    if getattr(args, "metrics_out", None) or getattr(
        args, "profile", False
    ):
        return ObsRecorder()
    return NULL_RECORDER


def _write_metrics(
    args: argparse.Namespace,
    recorder,
    command: str,
    input_path: str,
    config: dict,
) -> None:
    """Snapshot ``recorder`` into a manifest file (``--metrics-out``)."""
    # The recorder may be live for --profile alone; only write a file
    # when one was asked for.
    if not recorder.enabled or not getattr(args, "metrics_out", None):
        return
    manifest = RunManifest.collect(
        recorder,
        command=command,
        input_path=input_path,
        config=config,
    )
    write_manifest(manifest, args.metrics_out, args.metrics_format)
    print(
        f"metrics: wrote {args.metrics_format} manifest to "
        f"{args.metrics_out}",
        file=sys.stderr,
    )


def _ingest_for_mine(args: argparse.Namespace, recorder=NULL_RECORDER):
    limits = IngestLimits(
        max_executions=args.limit_executions,
        max_events_per_execution=args.limit_events_per_execution,
        max_activities=args.limit_activities,
    )
    reader = (
        ingest_log_jsonl_file
        if args.log.endswith(".jsonl")
        else ingest_log_file
    )
    with recorder.span("ingest", policy=args.on_error):
        with Quarantine(args.quarantine) as quarantine:
            result = reader(
                args.log,
                policy=args.on_error,
                limits=limits,
                quarantine=quarantine,
            )
    publish_ingest_report(result.report, recorder)
    report = result.report
    if args.on_error != POLICY_STRICT or not report.clean:
        print(report.summary(), file=sys.stderr)
        if quarantine.path is not None and len(quarantine):
            print(
                f"  dead-letter file: {quarantine.path}", file=sys.stderr
            )
    return result


def _print_graph(graph, args: argparse.Namespace, name: str) -> None:
    """Emit the mined graph header + body (``mine``/``merge-states``).

    Rendering lives in :func:`repro.service.wire.render_graph_block`,
    shared with the service's model endpoint — one renderer is what
    keeps HTTP responses byte-identical to this stdout.
    """
    from repro.service.wire import render_graph_block

    sys.stdout.write(render_graph_block(graph, args.format, name=name))


def _cmd_mine_stream(args: argparse.Namespace) -> int:
    """``mine --stream``: fold the log without materializing it.

    One labelled pass resolves ``auto`` (repetition seen -> cyclic,
    else the state projects onto the plain view and finishes as
    general-dag); an explicit ``--algorithm general-dag`` folds plainly
    from the start.  The mined graph is identical to the batch path —
    except that ``auto`` never picks special-dag, whose every-activity
    precondition cannot be checked without the whole log.

    With ``--journal DIR`` the fold runs through a
    :class:`~repro.resilience.session.DurableSession`: accepted
    executions are write-ahead journaled, the state is checkpointed
    every ``--checkpoint-every`` folds, and ``--resume`` recovers a
    crashed run and continues it to the same bytes an uninterrupted
    run produces.  Without a journal, ``--fold-timeout`` /
    ``--fold-retries`` supervise the parallel fold instead (hung or
    crashed workers are retried; chunks that exhaust the budget are
    quarantined as ``poisoned-chunk`` records and the mine continues
    degraded).
    """
    from repro.core.cyclic import merge_instances
    from repro.core.general_dag import MiningTrace
    from repro.core.parallel import RetryPolicy
    from repro.core.state import fold_executions, save_state
    from repro.logs.codec import iter_ingest_log_file
    from repro.logs.ingest import REASON_POISONED_CHUNK
    from repro.logs.jsonl import iter_ingest_log_jsonl_file

    if args.algorithm == ALGORITHM_SPECIAL:
        raise MiningError(
            "--stream cannot run special-dag: Algorithm 1's "
            "every-activity-every-execution precondition needs the "
            "materialized log; use general-dag (same graph on "
            "conforming logs) or drop --stream"
        )
    if getattr(args, "exact_minimize", False):
        raise MiningError(
            "--exact-minimize replays the materialized log; "
            "drop --stream to use it"
        )
    recorder = _metrics_recorder(args)
    limits = IngestLimits(
        max_executions=args.limit_executions,
        max_events_per_execution=args.limit_events_per_execution,
        max_activities=args.limit_activities,
    )
    reader = (
        iter_ingest_log_jsonl_file
        if args.log.endswith(".jsonl")
        else iter_ingest_log_file
    )
    report = IngestReport()
    firsts: set = set()
    lasts: set = set()
    # Auto needs the labelled view to detect repetition in one pass.
    labelled = args.algorithm != ALGORITHM_GENERAL

    session = None
    journal_skip = 0
    if args.journal:
        from repro.resilience.session import (
            DEFAULT_CHECKPOINT_EVERY,
            DurableSession,
        )

        session = DurableSession(
            args.journal,
            labelled=labelled,
            threshold=args.threshold,
            checkpoint_every=(
                args.checkpoint_every
                if args.checkpoint_every is not None
                else DEFAULT_CHECKPOINT_EVERY
            ),
            recorder=recorder,
        )
        if args.resume:
            recovery = session.recover()
            print(recovery.summary(), file=sys.stderr)
            journal_skip = recovery.covered
        elif (
            session.checkpoint_path.exists()
            or session.journal.last_seq
        ):
            raise MiningError(
                f"journal directory {args.journal} already holds a "
                "session; pass --resume to continue it or remove the "
                "directory for a fresh run"
            )
    elif args.resume:
        raise MiningError("--resume requires --journal DIR")

    retry = None
    if args.fold_timeout is not None or args.fold_retries is not None:
        retry = RetryPolicy(
            timeout=args.fold_timeout,
            max_retries=(
                args.fold_retries
                if args.fold_retries is not None
                else RetryPolicy().max_retries
            ),
        )

    with Quarantine(args.quarantine) as quarantine:
        executions = reader(
            args.log,
            policy=args.on_error,
            limits=limits,
            quarantine=quarantine,
            report=report,
            window=args.stream_window or DEFAULT_STREAM_WINDOW,
            journal=session.journal if session is not None else None,
            journal_skip=journal_skip,
        )

        def tracked():
            for execution in executions:
                if len(execution):
                    firsts.add(execution.first_activity)
                    lasts.add(execution.last_activity)
                yield execution

        def on_poisoned(poisoned, reason: str) -> None:
            count = quarantine.add_poisoned_executions(
                poisoned, reason
            )
            report.quarantined_executions += count
            report.reasons[REASON_POISONED_CHUNK] += count

        with recorder.span("stream_fold", policy=args.on_error):
            if session is not None:
                # Durable path: serial write-ahead fold.  Already-
                # covered executions still flow through tracked() so
                # source/sink detection matches an uninterrupted run;
                # only their (re-)fold is skipped.
                for position, execution in enumerate(tracked(), 1):
                    if position > journal_skip:
                        session.fold(execution)
                state = session.finalize()
            else:
                state = fold_executions(
                    tracked(),
                    labelled=labelled,
                    jobs=args.jobs,
                    recorder=recorder,
                    retry=retry,
                    on_poisoned=(
                        on_poisoned if retry is not None else None
                    ),
                )
    publish_ingest_report(report, recorder)
    if args.on_error != POLICY_STRICT or not report.clean:
        print(report.summary(), file=sys.stderr)
        if quarantine.path is not None and len(quarantine):
            print(
                f"  dead-letter file: {quarantine.path}", file=sys.stderr
            )
    if state.execution_count == 0:
        raise EmptyLogError("the log contains no executions")

    if args.algorithm == ALGORITHM_CYCLIC or (
        labelled and state.has_repetition()
    ):
        algorithm = ALGORITHM_CYCLIC
    else:
        algorithm = ALGORITHM_GENERAL
        if labelled:
            state = state.to_plain()
    trace = MiningTrace(recorder=recorder)
    with recorder.span("mine", algorithm=algorithm):
        graph = state.finish(
            threshold=args.threshold,
            trace=trace,
            jobs=args.jobs,
            kernel=args.kernel,
        )
        if algorithm == ALGORITHM_CYCLIC:
            graph = merge_instances(graph)
    if args.state_out:
        save_state(state, args.state_out, threshold=args.threshold)
        print(
            f"state: wrote {state.execution_count} executions "
            f"({state.variant_count} variants) to {args.state_out}",
            file=sys.stderr,
        )
    print(f"# algorithm: {algorithm}")
    _print_graph(graph, args, name=report.process_name or "mined")
    result = MiningResult(
        graph=graph,
        algorithm=algorithm,
        trace=trace,
        source=next(iter(firsts)) if len(firsts) == 1 else None,
        sink=next(iter(lasts)) if len(lasts) == 1 else None,
    )
    verified = args.no_verify or _verify_mined(
        result,
        None,
        args.threshold,
        recorder,
        process_name=report.process_name,
    )
    if args.profile:
        _print_profile(trace)
    _write_metrics(
        args,
        recorder,
        command="mine",
        input_path=args.log,
        config={
            "algorithm": args.algorithm,
            "resolved_algorithm": algorithm,
            "threshold": args.threshold,
            "on_error": args.on_error,
            "jobs": args.jobs or 0,
            "stream": True,
        },
    )
    if not verified:
        return 2
    return 3 if report.dropped else 0


def _cmd_merge_states(args: argparse.Namespace) -> int:
    """``merge-states``: fold shard state files, then finish once."""
    from repro.core.cyclic import merge_instances
    from repro.core.state import MODE_CYCLIC, load_state, save_state

    merged = None
    mode = None
    for path in args.states:
        state, meta = load_state(path)
        if merged is None:
            merged, mode = state, meta["mode"]
        elif meta["mode"] != mode:
            raise MiningError(
                f"cannot merge {path}: its mode {meta['mode']!r} does "
                f"not match the first shard's {mode!r}"
            )
        else:
            merged.merge(state)
    print(
        f"merged {len(args.states)} state file(s): "
        f"{merged.execution_count} executions, "
        f"{merged.variant_count} variants",
        file=sys.stderr,
    )
    if args.output:
        save_state(merged, args.output, mode=mode, threshold=args.threshold)
        print(f"wrote merged state to {args.output}")
    if args.state_only:
        return 0
    graph = merged.finish(
        threshold=args.threshold,
        jobs=args.jobs,
        kernel=args.kernel,
    )
    if mode == MODE_CYCLIC:
        graph = merge_instances(graph)
    print(f"# algorithm: {mode}")
    _print_graph(graph, args, name="merged")
    return 0


def _cmd_verify_state(args: argparse.Namespace) -> int:
    """``verify-state``: fsck a checkpoint file or session directory.

    Exit codes: 0 everything verifies, 1 the target is missing or
    unreadable, 2 corruption was detected (a torn journal tail is
    *tolerated* — recovery discards it — and reported without failing).
    """
    from pathlib import Path

    from repro.core.state import load_state
    from repro.errors import CheckpointError, JournalError
    from repro.resilience.journal import scan_journal
    from repro.resilience.session import (
        CHECKPOINT_NAME,
        PREVIOUS_SUFFIX,
        WAL_DIRECTORY,
    )

    target = Path(args.target)
    if not target.exists():
        print(f"verify-state: {target}: not found", file=sys.stderr)
        return 1

    def check_file(path: Path) -> int:
        try:
            state, meta = load_state(path)
        except CheckpointError as exc:
            if not path.exists():
                print(f"{path}: missing")
                return 1
            print(f"{path}: CORRUPT ({exc})")
            return 2
        guard = (
            "crc32c verified"
            if meta.get("verified")
            else "no integrity envelope (pre-hardening checkpoint)"
        )
        print(
            f"{path}: ok — v{meta['version']} {meta['mode']}, "
            f"{state.execution_count} executions, "
            f"{state.variant_count} variants, "
            f"journal seq {meta['journal_seq']}; {guard}"
        )
        return 0

    if target.is_file():
        return check_file(target)

    status = 0
    checkpoint = target / CHECKPOINT_NAME
    prev = checkpoint.with_name(checkpoint.name + PREVIOUS_SUFFIX)
    wal = target / WAL_DIRECTORY
    if not checkpoint.exists() and not prev.exists() and not (
        wal.is_dir()
    ):
        print(
            f"verify-state: {target}: not a durable session "
            f"(no {CHECKPOINT_NAME}, no {WAL_DIRECTORY}/)",
            file=sys.stderr,
        )
        return 1
    if checkpoint.exists():
        primary = check_file(checkpoint)
        if primary == 2 and prev.exists():
            if check_file(prev) == 0:
                print(
                    "  recovery would fall back to the .prev "
                    "checkpoint plus the retained journal tail"
                )
        status = max(status, primary)
    elif prev.exists():
        status = max(status, check_file(prev))
    else:
        print(f"{checkpoint}: no checkpoint yet")
    if wal.is_dir():
        try:
            scan = scan_journal(wal)
        except JournalError as exc:
            print(f"{wal}: CORRUPT ({exc})")
            return 2
        if scan.corrupt:
            print(f"{wal}: CORRUPT ({scan.detail})")
            return 2
        note = (
            f"; torn tail tolerated ({scan.detail})"
            if scan.torn_tail
            else ""
        )
        print(
            f"{wal}: ok — {len(scan.records)} record(s) in "
            f"{scan.segments} segment(s), last seq "
            f"{scan.last_seq}{note}"
        )
    else:
        print(f"{wal}: no journal")
    return status


def _cmd_mine(args: argparse.Namespace) -> int:
    # An unwritable manifest target must fail before mining starts,
    # not after minutes of work.
    failed = _require_writable_metrics_out(args)
    if failed is not None:
        return failed
    # A journal only makes sense around the streaming fold.
    if getattr(args, "journal", None):
        args.stream = True
    if args.stream:
        return _cmd_mine_stream(args)
    if getattr(args, "resume", False):
        raise MiningError("--resume requires --journal DIR")
    recorder = _metrics_recorder(args)
    result_ingest = _ingest_for_mine(args, recorder)
    log = result_ingest.log
    miner = ProcessMiner(
        algorithm=args.algorithm,
        threshold=args.threshold,
        jobs=args.jobs,
        recorder=recorder,
        kernel=args.kernel,
    )
    result = miner.mine(log)
    graph = result.graph
    print(f"# algorithm: {result.algorithm}")
    if getattr(args, "exact_minimize", False):
        from repro.core.minimize import minimize_conformal

        before = graph.edge_count
        with recorder.span("mine/exact_minimize"):
            graph = minimize_conformal(graph, log)
        result.graph = graph
        print(
            f"# exact minimization: {before} -> {graph.edge_count} edges"
        )
    _print_graph(graph, args, name=log.process_name or "mined")
    verified = args.no_verify or _verify_mined(
        result, log, args.threshold, recorder
    )
    if args.profile:
        _print_profile(result.trace)
    _write_metrics(
        args,
        recorder,
        command="mine",
        input_path=args.log,
        config={
            "algorithm": args.algorithm,
            "resolved_algorithm": result.algorithm,
            "threshold": args.threshold,
            "on_error": args.on_error,
            "jobs": args.jobs or 0,
            "exact_minimize": bool(
                getattr(args, "exact_minimize", False)
            ),
        },
    )
    if not verified:
        return 2
    return 3 if result_ingest.report.dropped else 0


def _print_profile(trace) -> None:
    """Emit ``--profile`` throughput diagnostics to stderr.

    Algorithm 1 has no staged trace, so an empty trace prints only the
    header line.  Printed after verification, so the last row is the
    ``verify`` span: the lint rules, and within them the edge-coverage
    report the log-aware rules share.
    """
    print("profile:", file=sys.stderr)
    if trace.execution_count:
        print(
            f"  executions: {trace.execution_count}  "
            f"variants: {trace.variant_count}  "
            f"dedup ratio: {trace.dedup_ratio():.2f}x",
            file=sys.stderr,
        )
        paths = getattr(trace, "reduction_paths", None) or {}
        by_path = ", ".join(
            f"{count} {path}" for path, count in sorted(paths.items())
        )
        print(
            f"  step-5 reductions: {trace.reduction_cache_misses} "
            f"computed"
            + (f" ({by_path})" if by_path else "")
            + f", {trace.reduction_cache_hits} exact cache hits, "
            f"{trace.reduction_cache_prefix_extends} prefix extends",
            file=sys.stderr,
        )
        print(
            f"  kernel: {trace.kernel}  jobs: {trace.jobs}",
            file=sys.stderr,
        )
    # Sub-spans (e.g. prepare's parse/intern/pairs split) live on the
    # recorder, keyed under the parent stage's mine/<stage>/ prefix.
    spans = getattr(trace.recorder, "spans", ())
    sub_spans: Dict[str, List[Tuple[str, float]]] = {}
    for span in spans:
        parts = span.name.split("/")
        if len(parts) == 3 and parts[0] == "mine":
            sub_spans.setdefault(parts[1], []).append(
                (parts[2], span.wall_seconds)
            )
    for stage, seconds in trace.timings.items():
        print(f"  {stage}: {seconds * 1000:.1f} ms", file=sys.stderr)
        for name, wall in sub_spans.get(stage, ()):
            print(
                f"    {stage}/{name}: {wall * 1000:.1f} ms",
                file=sys.stderr,
            )
    walls: Dict[str, float] = {}
    for span in spans:
        walls[span.name] = walls.get(span.name, 0.0) + span.wall_seconds
    if "mine/verify" in walls:
        print(
            f"  verify: {walls['mine/verify'] * 1000:.1f} ms "
            f"(lint {walls.get('lint', 0.0) * 1000:.1f} ms, "
            f"coverage {walls.get('lint/coverage', 0.0) * 1000:.1f} ms)",
            file=sys.stderr,
        )


def _verify_mined(
    result,
    log,
    threshold: int,
    recorder=NULL_RECORDER,
    process_name: Optional[str] = None,
) -> bool:
    """Run the error-level lint rules over the mined model.

    Returns True when the model is free of error-severity diagnostics;
    otherwise the findings go to stderr.  A correctly mined model is
    always clean, so a failure here points at a miner bug or a
    pathological log, not at user error.

    Under ``--stream`` the log was never materialized, so ``log`` is
    None (``process_name`` names the model instead) and the PM3xx
    log-vs-model rules are skipped — only the structural rules run.

    Graphs that cannot even be packaged as a process model (e.g. the
    cyclic algorithm mined ambiguous endpoints) skip verification with
    a stderr note — the packaging error is the diagnosis, and
    ``mine``'s output contract predates verification.
    """
    if log is not None:
        process_name = log.process_name
    with recorder.span("mine/verify"):
        try:
            model = result.to_process_model(name=process_name or "mined")
        except ReproError as exc:
            print(f"verification: skipped ({exc})", file=sys.stderr)
            return True
        # PM108's minimal-conformal exemption (an implied edge is fine
        # when some execution requires it directly) needs per-execution
        # coverage, so without the log it would flag every such edge a
        # correct miner legitimately keeps.
        ignore = ["PM108"] if log is None else None
        report = lint_model(
            model,
            log=log,
            config=LintConfig(
                noise_threshold=max(threshold, 0), ignore=ignore
            ),
            recorder=recorder,
        )
    errors = report.at_least(Severity.ERROR)
    if not errors:
        return True
    print(
        "verification: mined model failed error-level lint checks "
        "(rerun with --no-verify to emit it anyway):",
        file=sys.stderr,
    )
    for diagnostic in errors:
        print(f"  {diagnostic.render()}", file=sys.stderr)
    return False


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synthetic":
        dataset = synthetic_dataset(
            SyntheticConfig(
                n_vertices=args.vertices,
                n_executions=args.executions,
                seed=args.seed,
            )
        )
        log = dataset.log
    else:
        log = flowmark_dataset(
            args.kind, executions=args.executions, seed=args.seed
        ).log
    lines = write_log_file(log, args.output)
    print(
        f"wrote {len(log)} executions ({lines} records) to {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    log = read_log_file(args.log)
    print(f"process: {log.process_name or '?'}")
    print(format_statistics(summarize_log(log)))
    return 0


def _cmd_conditions(args: argparse.Namespace) -> int:
    log = read_log_file(args.log)
    miner = ProcessMiner(
        threshold=args.threshold, learn_conditions=True
    )
    result = miner.mine(log)
    print(f"# algorithm: {result.algorithm}")
    for edge in sorted(result.conditions):
        print(result.conditions[edge].describe())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    simulator = WorkflowSimulator(
        model, SimulationConfig(agents=args.agents, seed=args.seed)
    )
    log = simulator.run_log(args.executions)
    lines = write_log_file(log, args.output)
    print(
        f"simulated {len(log)} executions of {model.name!r} "
        f"({lines} records) to {args.output}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    log = read_log_file(args.log)
    diff = diff_against_log(model, log, threshold=args.threshold)
    print(f"# purported model: {model.name} ({args.model})")
    print(f"# log: {args.log} ({len(log)} executions)")
    print(diff.report())
    return 0 if diff.is_clean else 2


def _cmd_evolve(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    log = read_log_file(args.log)
    result = evolve_model(
        model,
        log,
        threshold=args.threshold,
        prune_unobserved=args.prune_unobserved,
        learn_conditions=args.learn_conditions,
    )
    print(result.summary())
    if args.output:
        save_model(result.model, args.output)
        print(f"wrote evolved model to {args.output}")
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    log = read_log_file(args.log)
    print(f"process: {log.process_name or '?'}")
    print(format_timing_report(log))
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import edge_coverage
    from repro.core.state import fold_executions

    model = load_model(args.model)
    log = read_log_file(args.log)
    report = edge_coverage(model.graph, fold_executions(log))
    print(f"# model: {model.name} ({args.model})")
    print(f"# log: {args.log}")
    print(report.report())
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    from repro.logs.filters import format_variants

    log = read_log_file(args.log)
    print(f"process: {log.process_name or '?'}")
    print(format_variants(log, top=args.top))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.logs.jsonl import read_log_jsonl_file, write_log_jsonl_file

    def is_jsonl(path: str) -> bool:
        return path.endswith(".jsonl")

    log = (
        read_log_jsonl_file(args.input)
        if is_jsonl(args.input)
        else read_log_file(args.input)
    )
    if is_jsonl(args.output):
        lines = write_log_jsonl_file(log, args.output)
    else:
        lines = write_log_file(log, args.output)
    print(
        f"converted {len(log)} executions ({lines} records) "
        f"to {args.output}"
    )
    return 0


def _parse_code_list(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [code for code in text.split(",") if code.strip()]


def _parse_severity_overrides(pairs: List[str]):
    mapping = {}
    for pair in pairs:
        code, separator, level = pair.partition("=")
        if not separator or not code.strip() or not level.strip():
            raise ReproError(
                f"bad --severity {pair!r}; expected CODE=LEVEL, "
                f"e.g. PM301=error"
            )
        mapping[code] = level
    try:
        return severity_overrides(mapping)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _cmd_lint(args: argparse.Namespace) -> int:
    recorder = _metrics_recorder(args)
    with recorder.span("load_model"):
        model = load_model(args.model)
    log = read_log_file(args.log) if args.log else None
    config = LintConfig(
        select=_parse_code_list(args.select),
        ignore=_parse_code_list(args.ignore),
        severity_overrides=_parse_severity_overrides(args.severity),
        dag_mode=args.require_acyclic,
        noise_threshold=max(args.threshold, 0),
    )
    report = lint_model(model, log=log, config=config, recorder=recorder)
    with open(args.model, "r", encoding="utf-8") as handle:
        report = report.with_lines(model_line_map(handle.read()))
    print(render(report, args.format, artifact=args.model))
    _write_metrics(
        args,
        recorder,
        command="lint",
        input_path=args.model,
        config={
            "dag_mode": args.require_acyclic,
            "noise_threshold": max(args.threshold, 0),
            "format": args.format,
            "with_log": bool(args.log),
        },
    )
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the multi-tenant mining daemon until SIGTERM."""
    from pathlib import Path

    from repro.resilience.session import DEFAULT_CHECKPOINT_EVERY
    from repro.service.registry import TenantConfig
    from repro.service.server import ServiceConfig, serve

    failed = _require_writable_metrics_out(args)
    if failed is not None:
        return failed
    limits = IngestLimits(
        max_executions=args.limit_executions,
        max_events_per_execution=args.limit_events_per_execution,
        max_activities=args.limit_activities,
    )
    tenant = TenantConfig(
        policy=args.on_error,
        algorithm=args.algorithm,
        threshold=args.threshold,
        window=args.stream_window or DEFAULT_STREAM_WINDOW,
        checkpoint_every=(
            args.checkpoint_every
            if args.checkpoint_every is not None
            else DEFAULT_CHECKPOINT_EVERY
        ),
        snapshot_every=args.snapshot_every,
        kernel=args.kernel,
        limits=limits,
    )
    config = ServiceConfig(
        data_dir=Path(args.data_dir),
        host=args.host,
        port=args.port,
        tenant=tenant,
        queue_limit=args.queue_limit,
        max_tenants=args.max_tenants,
        idle_flush_seconds=args.idle_flush_seconds,
        port_file=Path(args.port_file) if args.port_file else None,
    )
    # The daemon always records: GET /metrics serves this recorder's
    # registry; --metrics-out additionally snapshots it at shutdown.
    recorder = ObsRecorder()
    with recorder.span("serve", data_dir=args.data_dir):
        status = serve(config, recorder=recorder)
    if args.metrics_out:
        _write_metrics(
            args,
            recorder,
            command="serve",
            input_path=args.data_dir,
            config={
                "algorithm": args.algorithm,
                "threshold": args.threshold,
                "on_error": args.on_error,
                "queue_limit": args.queue_limit,
            },
        )
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
