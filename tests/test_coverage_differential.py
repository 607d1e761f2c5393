"""Differential tests: variant-weighted edge coverage vs per-execution.

:func:`repro.analysis.coverage.edge_coverage` reads a folded
:class:`~repro.core.state.MiningState` and works once per distinct trace
variant.  :func:`edge_coverage_oracle` below is the per-execution
implementation it replaced, kept verbatim as the oracle: every report
must be equal, and the two must raise :class:`CycleError` on the same
inputs.
"""

import random
from typing import Dict, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.coverage import CoverageReport, EdgeUsage, edge_coverage
from repro.core.general_dag import mine_general_dag
from repro.core.state import MiningState, fold_executions
from repro.datasets.flowmark import flowmark_dataset
from repro.datasets.synthetic import SyntheticConfig, synthetic_dataset
from repro.errors import CycleError, EmptyLogError
from repro.graphs.digraph import DiGraph
from repro.graphs.transitive import transitive_reduction_edges
from repro.logs.event_log import EventLog
from repro.logs.events import end_event, start_event
from repro.logs.execution import Execution
from repro.logs.noise import NoiseConfig, NoiseInjector

Edge = Tuple[str, str]


def edge_coverage_oracle(graph: DiGraph, log: EventLog) -> CoverageReport:
    """Compute how ``log`` exercises the edges of ``graph``.

    ``graph`` may be a purported model's graph or a mined graph; edges
    between activities the log never performs report zero everywhere.
    """
    log.require_non_empty()
    edge_set = graph.edge_set()
    required: Dict[Edge, int] = {edge: 0 for edge in edge_set}
    compatible: Dict[Edge, int] = {edge: 0 for edge in edge_set}
    co_present: Dict[Edge, int] = {edge: 0 for edge in edge_set}

    for execution in log:
        activities = execution.activities
        pairs = set(execution.ordered_pairs())
        induced_edges = pairs & edge_set
        needed = transitive_reduction_edges(
            DiGraph(nodes=activities, edges=induced_edges)
        )
        for edge in edge_set:
            source, target = edge
            if source in activities and target in activities:
                co_present[edge] += 1
            if edge in pairs:
                compatible[edge] += 1
            if edge in needed:
                required[edge] += 1

    usage = {
        edge: EdgeUsage(
            required=required[edge],
            compatible=compatible[edge],
            co_present=co_present[edge],
        )
        for edge in edge_set
    }
    return CoverageReport(usage=usage, executions=len(log))


def assert_same_coverage(graph: DiGraph, log: EventLog) -> None:
    """Both implementations agree, including on raising CycleError."""
    try:
        expected = edge_coverage_oracle(graph, log)
    except CycleError:
        with pytest.raises(CycleError):
            edge_coverage(graph, fold_executions(log))
        return
    assert edge_coverage(graph, fold_executions(log)) == expected


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def sequential_logs(draw, max_activities=7, max_executions=12):
    """Sequential logs that skip interior activities and repeat traces."""
    n = draw(st.integers(min_value=1, max_value=max_activities))
    interior = [chr(ord("A") + i) for i in range(n)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    sequences = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_executions))):
        chosen = [a for a in interior if rng.random() < 0.7]
        rng.shuffle(chosen)
        sequences.append(["S", *chosen, "Z"])
    sequences += sequences[: rng.randint(0, len(sequences))]
    return EventLog.from_sequences(sequences)


@st.composite
def repeating_logs(draw, max_activities=5, max_executions=8):
    """Sequential logs whose executions repeat activities."""
    n = draw(st.integers(min_value=1, max_value=max_activities))
    activities = [chr(ord("A") + i) for i in range(n)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    sequences = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_executions))):
        middle = [rng.choice(activities) for _ in range(rng.randint(1, 8))]
        sequences.append(["S", *middle, "Z"])
    sequences += sequences[: rng.randint(0, len(sequences))]
    return EventLog.from_sequences(sequences)


@st.composite
def interval_logs(draw, max_activities=6, max_executions=8):
    """Logs with random activity intervals, overlaps included, and
    repeated executions with identical intervals."""
    n = draw(st.integers(min_value=2, max_value=max_activities))
    activities = [chr(ord("A") + i) for i in range(n)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    executions = []
    for index in range(draw(st.integers(min_value=1, max_value=max_executions))):
        chosen = [a for a in activities if rng.random() < 0.8] or [
            activities[0]
        ]
        spans = []
        for activity in chosen:
            start = rng.randint(0, 20)
            spans.append((activity, start, start + rng.randint(1, 6)))
        for copy in range(rng.randint(1, 2)):
            execution_id = f"iv-{index}-{copy}"
            records = []
            for activity, start, end in spans:
                records.append(start_event(execution_id, activity, start))
                records.append(end_event(execution_id, activity, end))
            executions.append(Execution(execution_id, records))
    return EventLog(executions)


def purported_model(log: EventLog, seed: int, acyclic: bool) -> DiGraph:
    """A random model over the log's activities plus two it never runs."""
    rng = random.Random(seed)
    nodes = sorted(log.activities()) + ["NEVER-1", "NEVER-2"]
    rng.shuffle(nodes)
    graph = DiGraph(nodes=nodes)
    for i, source in enumerate(nodes):
        for j, target in enumerate(nodes):
            if i == j or (acyclic and j < i):
                continue
            if rng.random() < 0.35:
                graph.add_edge(source, target)
    return graph


def with_extra_edges(graph: DiGraph, seed: int) -> DiGraph:
    """``graph`` plus three random edges (implied ones, or ones that
    close a cycle) and edges to activities the log never performs
    (which coverage must report as 0/0/0)."""
    rng = random.Random(seed)
    extended = graph.copy()
    nodes = sorted(extended.nodes())
    for _ in range(3):
        extended.add_edge(*rng.sample(nodes, 2))
    extended.add_edge(nodes[0], "NEVER-2")
    extended.add_edge("NEVER-2", "NEVER-3")
    return extended


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@given(sequential_logs(), st.integers(min_value=0, max_value=3))
def test_mined_graph_sequential(log, threshold):
    assert_same_coverage(mine_general_dag(log, threshold=threshold), log)


@given(
    sequential_logs(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_mined_graph_with_extra_edges(log, threshold, seed):
    mined = mine_general_dag(log, threshold=threshold)
    assert_same_coverage(with_extra_edges(mined, seed), log)


@given(interval_logs(), st.integers(min_value=0, max_value=2))
def test_mined_graph_interval_overlaps(log, threshold):
    assert_same_coverage(mine_general_dag(log, threshold=threshold), log)


@given(
    st.one_of(sequential_logs(), interval_logs(), repeating_logs()),
    st.integers(min_value=0, max_value=10_000),
)
def test_purported_acyclic_model(log, seed):
    assert_same_coverage(purported_model(log, seed, acyclic=True), log)


@given(repeating_logs(), st.integers(min_value=0, max_value=10_000))
def test_cyclic_model_repeated_activities(log, seed):
    """Cyclic models: equal reports, or CycleError from both."""
    assert_same_coverage(purported_model(log, seed, acyclic=False), log)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["swap", "drop", "insert"]),
    st.integers(min_value=0, max_value=3),
)
def test_noisy_logs(seed, kind, threshold):
    dataset = synthetic_dataset(
        SyntheticConfig(n_vertices=8, n_executions=40, seed=seed)
    )
    noise = NoiseInjector(
        NoiseConfig(seed=seed, **{f"{kind}_rate": 0.3})
    )
    log = noise.corrupt(dataset.log)
    assert_same_coverage(mine_general_dag(log, threshold=threshold), log)
    assert_same_coverage(dataset.graph, log)


# ---------------------------------------------------------------------------
# Examples
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["Upload_and_Notify", "StressSleep"])
def test_flowmark_overlapping_executions(name):
    dataset = flowmark_dataset(name, seed=11)
    log = dataset.log
    assert any(not execution.is_sequential() for execution in log)
    assert_same_coverage(dataset.model.graph, log)
    assert_same_coverage(mine_general_dag(log), log)


def test_cycle_error_on_cyclic_induced_edges():
    graph = DiGraph(edges=[("A", "B"), ("B", "A")])
    log = EventLog.from_sequences(["ABA"])
    with pytest.raises(CycleError):
        edge_coverage_oracle(graph, log)
    with pytest.raises(CycleError):
        edge_coverage(graph, fold_executions(log))


def test_self_loop_counts_presence_only():
    graph = DiGraph(edges=[("A", "A"), ("A", "B")])
    log = EventLog.from_sequences(["AAB", "AB", "B"])
    report = edge_coverage(graph, fold_executions(log))
    assert report == edge_coverage_oracle(graph, log)
    assert report.usage[("A", "A")] == EdgeUsage(0, 0, 2)


def test_empty_state_rejected():
    with pytest.raises(EmptyLogError):
        edge_coverage(DiGraph(), MiningState())


def test_labelled_state_rejected():
    log = EventLog.from_sequences(["AB"])
    with pytest.raises(ValueError):
        edge_coverage(DiGraph(), fold_executions(log, labelled=True))
