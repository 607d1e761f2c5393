#!/usr/bin/env python
"""Log analysis walkthrough: variants, timing, coverage, baselines.

Shows the analyst-facing side of the library on one simulated Flowmark
log: inspect the distinct behaviours (variants), the timing profile,
how thoroughly the log covers the deployed model's edges, and what the
related-work baselines would have reported instead of a process graph.

Run with::

    python examples/log_analysis.py
"""

from repro.analysis.coverage import edge_coverage
from repro.baselines.ktails import ktails_automaton
from repro.baselines.sequential import maximal_sequential_patterns
from repro.core.state import fold_executions
from repro.datasets.flowmark import flowmark_dataset
from repro.logs.filters import format_variants
from repro.logs.timing import busiest_activities, format_timing_report


def main() -> None:
    dataset = flowmark_dataset("Pend_Block", seed=11)
    model, log = dataset.model, dataset.log

    print(f"=== {model.name}: {len(log)} executions")
    print()

    print("=== variants")
    print(format_variants(log))
    print()

    print("=== timing")
    print(format_timing_report(log))
    print()

    print("=== busiest activities")
    for activity, busy in busiest_activities(log, top=3):
        print(f"  {activity:<10} total busy time {busy:8.1f}")
    print()

    print("=== model edge coverage")
    print(edge_coverage(model.graph, fold_executions(log)).report())
    print()

    print("=== what sequential-pattern mining would report instead")
    for pattern in maximal_sequential_patterns(log, min_support=0.25):
        print(f"  {pattern}")
    print()

    automaton = ktails_automaton(log, k=2)
    print(
        "=== what FSM discovery would report instead: "
        f"{automaton.state_count} states, "
        f"{automaton.transition_count} transitions "
        f"(vs {model.activity_count} activities / "
        f"{model.edge_count} edges in the process graph)"
    )


if __name__ == "__main__":
    main()
