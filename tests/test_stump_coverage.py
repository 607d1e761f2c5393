"""Tests for the decision-stump baseline and edge-coverage analysis."""

import pytest

from repro.analysis.coverage import edge_coverage
from repro.classifier.dataset import Dataset
from repro.classifier.stump import DecisionStump
from repro.classifier.tree import DecisionTree
from repro.core.state import fold_executions
from repro.errors import TrainingDataError
from repro.graphs.digraph import DiGraph
from repro.logs.event_log import EventLog
from repro.model.conditions import Always, Never


class TestDecisionStump:
    def test_learns_single_threshold(self):
        data = Dataset.from_pairs(
            [((float(i),), i > 10) for i in range(21)]
        )
        stump = DecisionStump.fit(data)
        assert stump.accuracy(data) == 1.0
        assert stump.predict((15.0,)) is True
        assert stump.predict((5.0,)) is False

    def test_polarity_inversion(self):
        # Positive class on the LOW side of the split.
        data = Dataset.from_pairs(
            [((float(i),), i <= 10) for i in range(21)]
        )
        stump = DecisionStump.fit(data)
        assert stump.accuracy(data) == 1.0
        assert stump.predict((3.0,)) is True

    def test_constant_fallback(self):
        data = Dataset.from_pairs([((1.0,), True), ((1.0,), True)])
        stump = DecisionStump.fit(data)
        assert stump.constant is True
        assert stump.predict((99.0,)) is True
        assert isinstance(stump.to_condition(), Always)

    def test_constant_negative(self):
        data = Dataset.from_pairs([((1.0,), False), ((1.0,), False)])
        assert isinstance(
            DecisionStump.fit(data).to_condition(), Never
        )

    def test_empty_rejected(self):
        with pytest.raises(TrainingDataError):
            DecisionStump.fit(Dataset([]))

    def test_condition_matches_predictions(self):
        data = Dataset.from_pairs(
            [((float(i), 0.0), i > 7) for i in range(15)]
        )
        stump = DecisionStump.fit(data)
        condition = stump.to_condition()
        for i in range(15):
            point = (float(i), 0.0)
            assert condition.evaluate(point) == stump.predict(point)

    def test_loses_to_tree_on_conjunctions(self):
        # Example 1's shape: a conjunction of two thresholds.  The
        # stump cannot represent it; the tree can.
        data = Dataset.from_pairs(
            [
                ((float(x), float(y)), x > 5 and y > 5)
                for x in range(11)
                for y in range(11)
            ]
        )
        stump = DecisionStump.fit(data)
        tree = DecisionTree.fit(data)
        assert tree.accuracy(data) == 1.0
        assert stump.accuracy(data) < 1.0

    def test_matches_tree_on_single_thresholds(self):
        data = Dataset.from_pairs(
            [((float(i), 3.0), i >= 12) for i in range(25)]
        )
        stump = DecisionStump.fit(data)
        tree = DecisionTree.fit(data)
        assert stump.accuracy(data) == tree.accuracy(data) == 1.0


class TestEdgeCoverage:
    def diamond(self):
        return DiGraph(
            edges=[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"),
                   ("A", "D")]
        )

    def test_full_coverage_of_exercised_edges(self):
        graph = DiGraph(edges=[("A", "B"), ("B", "C")])
        log = EventLog.from_sequences(["ABC"] * 5)
        report = edge_coverage(graph, fold_executions(log))
        assert report.coverage == 1.0
        assert report.usage[("A", "B")].required == 5
        assert report.unexercised() == []

    def test_shortcut_edge_required_only_when_needed(self):
        graph = self.diamond()
        log = EventLog.from_sequences(["ABD", "ACD", "ABCD"])
        report = edge_coverage(graph, fold_executions(log))
        # A->D is compatible everywhere but never required (some
        # interior path always present).
        usage = report.usage[("A", "D")]
        assert usage.compatible == 3
        assert usage.required == 0
        assert ("A", "D") in report.unexercised()

    def test_shortcut_required_when_interior_skipped(self):
        graph = self.diamond()
        log = EventLog.from_sequences(["ABD", "AD"])
        report = edge_coverage(graph, fold_executions(log))
        assert report.usage[("A", "D")].required == 1

    def test_unperformed_endpoints_are_zero(self):
        graph = DiGraph(edges=[("A", "B"), ("X", "Y")])
        log = EventLog.from_sequences(["AB"] * 3)
        report = edge_coverage(graph, fold_executions(log))
        usage = report.usage[("X", "Y")]
        assert usage.co_present == usage.compatible == usage.required == 0

    def test_report_text(self):
        graph = DiGraph(edges=[("A", "B")])
        log = EventLog.from_sequences(["AB"])
        text = edge_coverage(graph, fold_executions(log)).report()
        assert "edge coverage: 1/1" in text
        assert "A -> B" in text

    def test_coverage_of_edgeless_graph(self):
        graph = DiGraph(nodes=["A"])
        log = EventLog.from_sequences(["A"])
        assert edge_coverage(graph, fold_executions(log)).coverage == 1.0

    def test_empty_log_rejected(self):
        from repro.errors import EmptyLogError

        with pytest.raises(EmptyLogError):
            edge_coverage(DiGraph(), fold_executions(EventLog()))
