"""In-memory span tracing around the public calls of each layer.

The benchmark never edits the program: :func:`instrument` replaces
public functions and methods *where the program looks them up* (module
attributes and class attributes) with wrappers that record one span per
call.  Spans are ``(id, parent, name, start, end, cpu_start, cpu_end)``
tuples (``perf_counter`` and per-thread CPU readings) kept in memory; :meth:`Tracer.dump` writes them out once, when the traced
process ends.

Each thread keeps its own stack of open spans, so the daemon's fold
thread, decode threads and event-loop thread nest independently.  Only
synchronous calls are spanned: coroutines interleave on one thread and
would corrupt the stack.

:func:`layer_seconds` turns a span list into per-layer self times,
where a span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List

#: Span name -> the per-layer metric (seconds) its self time adds to.
#: Names missing here are roots: their self time is unattributed.
LAYER_OF_SPAN = {
    "startup.import": "startup.import_s",
    "logs.ingest": "logs.ingest_s",
    "logs.push_batch": "logs.push_batch_s",
    "core.mine": "core.mine_s",
    "core.fold": "core.fold_s",
    "core.to_plain": "core.to_plain_s",
    "core.finish": "core.finish_s",
    "core.merge": "core.merge_s",
    "core.update": "core.update_s",
    "state.save": "state.save_s",
    "state.load": "state.load_s",
    "verify.lint": "verify.lint_s",
    "verify.coverage": "verify.coverage_s",
    "render": "render_s",
    "resilience.journal_append": "resilience.journal_append_s",
    "resilience.checkpoint": "resilience.checkpoint_s",
    "service.decode": "service.decode_s",
    "service.tenant_ingest": "service.tenant_ingest_s",
    "service.flush": "service.flush_s",
    "service.snapshot": "service.snapshot_s",
}


class Tracer:
    """Collects spans and counters from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter; the daemon counts from several threads."""
        with self._count_lock:
            self.counts[name] += amount

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func: Callable, name: str) -> Callable:
        """``func`` with one span named ``name`` around every call."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu_end = time.thread_time()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, cpu_start, cpu_end)
                )

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def wrap_iter(self, iterable: Iterable, name: str, on_item=None):
        """Yield from ``iterable``, spanning each ``next()`` as ``name``."""
        iterator = iter(iterable)
        step = self.wrap(next, name)
        while True:
            try:
                item = step(iterator)
            except StopIteration:
                return
            if on_item is not None:
                on_item(item)
            yield item

    def dump(self, path: str, **extra: object) -> None:
        document = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "samples": dict(self.samples),
        }
        document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _patch(owner, attribute: str, wrapper_factory) -> None:
    setattr(owner, attribute, wrapper_factory(getattr(owner, attribute)))


def instrument(tracer: Tracer) -> None:
    """Span the public call of every layer the benchmark reports.

    Must run after ``import repro.cli``; patches module and class
    attributes, which is where the CLI and the service look them up.
    """
    import repro.analysis.coverage as coverage
    import repro.cli as cli
    import repro.core.state as state_module
    import repro.logs.jsonl as jsonl
    import repro.resilience.session as session_module
    import repro.service.wire as wire
    from repro.core.miner import ProcessMiner
    from repro.core.state import MiningState
    from repro.logs.ingest import IngestStream
    from repro.resilience.journal import Journal
    from repro.service.registry import Tenant
    from repro.service.server import ServiceApp

    def span(name):
        return lambda func: tracer.wrap(func, name)

    # repro.logs: batch ingest (tab codec) and the streaming iterator.
    def traced_ingest(func):
        wrapped = tracer.wrap(func, "logs.ingest")

        def ingest(*args, **kwargs):
            result = wrapped(*args, **kwargs)
            tracer.count("logs.executions", len(result.log))
            tracer.count("logs.records", result.report.accepted_records)
            return result

        return ingest

    _patch(cli, "ingest_log_file", traced_ingest)

    def count_execution(execution) -> None:
        tracer.count("logs.executions")
        tracer.count("logs.records", len(execution.records))

    def traced_iter(func):
        def iter_ingest(*args, **kwargs):
            return tracer.wrap_iter(
                func(*args, **kwargs), "logs.ingest", count_execution
            )

        return iter_ingest

    _patch(jsonl, "iter_ingest_log_jsonl_file", traced_iter)
    _patch(IngestStream, "push_batch", span("logs.push_batch"))

    # repro.core: miner, fold, state algebra.
    def sample_size(executions: int, variants: int) -> None:
        tracer.samples["core.executions"].append(executions)
        tracer.samples["core.variants"].append(variants)

    def traced_mine(func):
        wrapped = tracer.wrap(func, "core.mine")

        def mine(self, log):
            result = wrapped(self, log)
            trace = result.trace
            if trace is not None and trace.execution_count:
                sample_size(trace.execution_count, trace.variant_count)
            return result

        return mine

    _patch(ProcessMiner, "mine", traced_mine)
    _patch(state_module, "fold_executions", span("core.fold"))
    _patch(MiningState, "to_plain", span("core.to_plain"))
    _patch(MiningState, "merge", span("core.merge"))

    def traced_finish(func):
        wrapped = tracer.wrap(func, "core.finish")

        def finish(self, *args, **kwargs):
            tracer.count("core.finish_calls")
            sample_size(self.execution_count, self.variant_count)
            return wrapped(self, *args, **kwargs)

        return finish

    _patch(MiningState, "finish", traced_finish)
    folded_states: Dict[int, MiningState] = {}

    def traced_update(func):
        wrapped = tracer.wrap(func, "core.update")

        def update(self, execution):
            tracer.count("core.update_calls")
            folded_states.setdefault(id(self), self)
            return wrapped(self, execution)

        return update

    _patch(MiningState, "update", traced_update)

    def memo_counters() -> Dict[str, int]:
        states = list(folded_states.values())
        return {
            "memo_hits": sum(state.memo_hits for state in states),
            "memo_misses": sum(state.memo_misses for state in states),
        }

    tracer.memo_counters = memo_counters

    # repro.core.state persistence (the CLI imports these at call time;
    # the durable session bound save_state at import).
    def traced_save(func):
        wrapped = tracer.wrap(func, "state.save")

        def save(state, path, *args, **kwargs):
            result = wrapped(state, path, *args, **kwargs)
            tracer.count("state.bytes", os.path.getsize(path))
            return result

        return save

    def traced_load(func):
        wrapped = tracer.wrap(func, "state.load")

        def load(path, *args, **kwargs):
            tracer.count("state.bytes", os.path.getsize(path))
            return wrapped(path, *args, **kwargs)

        return load

    _patch(state_module, "save_state", traced_save)
    _patch(session_module, "save_state", traced_save)
    _patch(state_module, "load_state", traced_load)

    # repro.lint + repro.analysis.coverage: mine's auto-verification.
    _patch(cli, "lint_model", span("verify.lint"))
    _patch(coverage, "edge_coverage", span("verify.coverage"))

    # repro.service.wire: the one model renderer, and POST body decode.
    _patch(wire, "render_graph_block", span("render"))
    _patch(wire, "split_event_lines", span("service.decode"))

    # repro.resilience: journal appends, fsyncs, checkpoints.
    def traced_append(func):
        wrapped = tracer.wrap(func, "resilience.journal_append")

        def append_execution(self, execution):
            tracer.count("resilience.journal_appends")
            return wrapped(self, execution)

        return append_execution

    _patch(Journal, "append_execution", traced_append)

    def traced_fsync(func):
        def fsync(fd):
            tracer.count("resilience.fsyncs")
            return func(fd)

        return fsync

    _patch(os, "fsync", traced_fsync)

    def traced_checkpoint(func):
        wrapped = tracer.wrap(func, "resilience.checkpoint")

        def checkpoint(self):
            tracer.count("resilience.checkpoints")
            return wrapped(self)

        return checkpoint

    _patch(session_module.DurableSession, "checkpoint", traced_checkpoint)

    # repro.service: tenant ingest/flush/snapshot, and queue wait from
    # each batch's 202 to the start of its (FIFO-matched) fold.
    accepted_at: Dict[str, collections.deque] = collections.defaultdict(
        collections.deque
    )

    def traced_events(func):
        async def handle_events(self, request, process):
            response = await func(self, request, process)
            if response.status == 202:
                accepted_at[process].append(time.perf_counter())
            elif response.status == 429:
                tracer.count("service.rejected")
            return response

        return handle_events

    _patch(ServiceApp, "_handle_events", traced_events)

    def traced_tenant_ingest(func):
        wrapped = tracer.wrap(func, "service.tenant_ingest")

        def ingest(self, lines):
            queue = accepted_at[self.process]
            if queue:
                tracer.samples["service.queue_wait_ms"].append(
                    (time.perf_counter() - queue.popleft()) * 1000.0
                )
            return wrapped(self, lines)

        return ingest

    _patch(Tenant, "ingest", traced_tenant_ingest)
    _patch(Tenant, "flush", span("service.flush"))

    def traced_snapshot(func):
        wrapped = tracer.wrap(func, "service.snapshot")

        def refresh_snapshot(self):
            tracer.count("service.snapshots")
            return wrapped(self)

        return refresh_snapshot

    _patch(Tenant, "refresh_snapshot", traced_snapshot)


WALL = (3, 4)
CPU = (5, 6)


def self_times(spans: Iterable[tuple], clock=WALL) -> Dict[str, float]:
    """Sum of self time per span name (duration minus direct children)."""
    begin, end = clock
    spans = list(spans)
    child_time: Dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span[1]:
            child_time[span[1]] += span[end] - span[begin]
    totals: Dict[str, float] = collections.defaultdict(float)
    for span in spans:
        totals[span[2]] += (span[end] - span[begin]) - child_time[span[0]]
    return dict(totals)


def inclusive_minus(spans: List[tuple], name: str, excluded: str) -> float:
    """Total duration of ``name`` spans minus their ``excluded`` children."""
    ids = {span[0] for span in spans if span[2] == name}
    total = sum(span[4] - span[3] for span in spans if span[2] == name)
    total -= sum(
        span[4] - span[3]
        for span in spans
        if span[2] == excluded and span[1] in ids
    )
    return total


def layer_seconds(spans: List[tuple]) -> Dict[str, float]:
    """Per-layer metric -> self seconds, from one process's spans.

    ``core.fold_s`` is the fold's duration minus the ingest iterator it
    drives (so it includes the per-execution ``MiningState.update``
    calls, which ``core.update_s`` also reports on its own).
    """
    totals: Dict[str, float] = collections.defaultdict(float)
    for name, seconds in self_times(spans).items():
        layer = LAYER_OF_SPAN.get(name)
        if layer is not None:
            totals[layer] += seconds
    totals["core.fold_s"] = inclusive_minus(spans, "core.fold", "logs.ingest")
    return dict(totals)


def attributed_seconds(spans: List[tuple], clock=WALL) -> float:
    """Self time of every layer span (no double counting)."""
    return sum(
        seconds
        for name, seconds in self_times(spans, clock).items()
        if name in LAYER_OF_SPAN
    )


def summarize(documents: Iterable[dict], until: float = math.inf) -> Dict[str, float]:
    """Per-layer metrics summed over the span files of traced processes.

    Only spans that start before ``until`` count.  Also returns the self
    time of every layer span, as wall (``attributed_s``) and CPU
    (``attributed_cpu_s``) seconds, which the caller subtracts from the
    wall or CPU time it measured for ``unattributed_s``.
    """
    totals: Dict[str, float] = collections.defaultdict(float)
    sizes: List[tuple] = []
    queue_waits: List[float] = []
    memo_hits = memo_misses = 0
    for document in documents:
        spans = [tuple(span) for span in document["spans"] if span[3] < until]
        for name, seconds in layer_seconds(spans).items():
            totals[name] += seconds
        totals["attributed_s"] += attributed_seconds(spans)
        totals["attributed_cpu_s"] += attributed_seconds(spans, CPU)
        for name, count in document["counts"].items():
            totals[name] += count
        samples = document["samples"]
        sizes.extend(
            zip(samples.get("core.executions", []), samples.get("core.variants", []))
        )
        queue_waits.extend(samples.get("service.queue_wait_ms", []))
        memo_hits += document["memo_hits"]
        memo_misses += document["memo_misses"]
    if sizes:
        executions, variants = max(sizes)
        totals["core.variants"] = variants
        totals["core.dedup_ratio"] = executions / variants
    if memo_hits + memo_misses:
        totals["core.memo_hit_ratio"] = memo_hits / (memo_hits + memo_misses)
    if queue_waits:
        totals["service.queue_wait_p50_ms"] = statistics.median(queue_waits)
    return dict(totals)
