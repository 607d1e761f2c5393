"""Edge-coverage analysis: how thoroughly a log exercises a model.

Before trusting a mined or evolved model — and before pruning
"unobserved" edges — a workflow owner needs to know how well the log
covers the model: which edges were *required* by some execution, which
were merely compatible, and which never mattered.  This module computes
that per-edge usage from the step-5 marking machinery (an edge is *used*
by an execution when it appears in the execution's induced-subgraph
transitive reduction).

The counts come from a folded :class:`~repro.core.state.MiningState`,
the accumulator every mining entry point shares, so each distinct
trace variant is analysed once and weighted by its multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import CycleError, EmptyLogError
from repro.graphs.digraph import DiGraph
from repro.graphs.transitive import transitive_reduction_packed
from repro.graphs.traversal import topological_sort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import MiningState

Edge = Tuple[str, str]
Variant = Tuple[FrozenSet[int], FrozenSet[int], int]


@dataclass(frozen=True)
class EdgeUsage:
    """Usage of one model edge across a log.

    Attributes
    ----------
    required:
        Executions whose induced transitive reduction needed the edge.
    compatible:
        Executions ordering the edge's endpoints accordingly (superset
        of ``required``).
    co_present:
        Executions containing both endpoints.
    """

    required: int
    compatible: int
    co_present: int

    @property
    def is_exercised(self) -> bool:
        """Whether at least one execution required this edge."""
        return self.required > 0


@dataclass(frozen=True)
class CoverageReport:
    """Per-edge usage plus aggregate coverage of a model by a log.

    Attributes
    ----------
    usage:
        Per-edge :class:`EdgeUsage`.
    executions:
        Number of executions analysed.
    """

    usage: Dict[Edge, EdgeUsage]
    executions: int

    @property
    def exercised_edges(self) -> int:
        """Number of model edges required by at least one execution."""
        return sum(1 for u in self.usage.values() if u.is_exercised)

    @property
    def coverage(self) -> float:
        """Fraction of model edges exercised (1.0 for an edgeless model)."""
        if not self.usage:
            return 1.0
        return self.exercised_edges / len(self.usage)

    def unexercised(self) -> list:
        """Model edges no execution required, sorted."""
        return sorted(
            edge for edge, u in self.usage.items() if not u.is_exercised
        )

    def report(self) -> str:
        """Render a per-edge coverage table."""
        lines = [
            f"edge coverage: {self.exercised_edges}/{len(self.usage)} "
            f"({self.coverage:.0%}) over {self.executions} executions",
        ]
        width = max(
            (len(f"{a} -> {b}") for a, b in self.usage), default=10
        )
        for edge in sorted(self.usage):
            u = self.usage[edge]
            label = f"{edge[0]} -> {edge[1]}"
            lines.append(
                f"  {label:<{width}}  required={u.required:<5} "
                f"compatible={u.compatible:<5} "
                f"co-present={u.co_present}"
            )
        return "\n".join(lines)


def edge_coverage(graph: DiGraph, state: "MiningState") -> CoverageReport:
    """Compute how the log folded into ``state`` exercises ``graph``.

    ``state`` is a plain (not instance-labelled) mining state, e.g.
    ``fold_executions(log)``.  ``graph`` may be a purported model's
    graph or a mined graph; edges between activities the log never
    performs report zero everywhere.  Every count is summed over the
    distinct variants, weighted by multiplicity:

    * ``compatible`` is the state's follows-pair counter;
    * ``co_present`` counts the executions whose vertex set holds both
      endpoints;
    * ``required`` marks the edges Algorithm 4
      (:func:`~repro.graphs.transitive.transitive_reduction_packed`)
      keeps in each variant's ordered pairs that are model edges, as
      step 5 of the miner does.

    Raises :class:`~repro.errors.EmptyLogError` when nothing was folded
    in, ``ValueError`` for a labelled state, and
    :class:`~repro.errors.CycleError` when some execution orders all
    the edges of a directed cycle of ``graph``.
    """
    if state.execution_count == 0:
        raise EmptyLogError("the log contains no executions")
    if state.labelled:
        raise ValueError(
            "edge coverage needs a plain mining state, not a labelled one"
        )
    index, n, variants = state.variant_codes()
    edges = graph.edge_set()
    # Model edges between activities the log performed, packed like
    # the state's ordered pairs.
    packed: Dict[Edge, int] = {}
    for source, target in edges:
        u = index.get(source)
        v = index.get(target)
        if u is not None and v is not None:
            packed[(source, target)] = u * n + v
    model_codes = frozenset(packed.values())
    rank = _topological_rank(graph, index)

    required: Dict[int, int] = {}
    for _, pairs, count in variants:
        for code in transitive_reduction_packed(
            pairs & model_codes, n, rank
        ):
            required[code] = required.get(code, 0) + count
    co_present = _co_present(packed, n, variants)
    compatible = state.pair_frequencies()

    usage = dict.fromkeys(
        edges, EdgeUsage(required=0, compatible=0, co_present=0)
    )
    for edge, code in packed.items():
        usage[edge] = EdgeUsage(
            required=required.get(code, 0),
            compatible=compatible.get(edge, 0),
            co_present=co_present[edge],
        )
    return CoverageReport(usage=usage, executions=state.execution_count)


def _topological_rank(
    graph: DiGraph, index: Mapping[object, int]
) -> Optional[Dict[int, int]]:
    """Topological ranks of the log's vertex ids in ``graph``.

    ``None`` for a cyclic graph: the reduction then runs its own Kahn
    pass per variant, which raises :class:`CycleError` only for a
    variant whose induced edges really form a cycle.
    """
    try:
        order = topological_sort(graph)
    except CycleError:
        return None
    return {
        index[node]: position
        for position, node in enumerate(order)
        if node in index
    }


def _co_present(
    packed: Dict[Edge, int], n: int, variants: List[Variant]
) -> Dict[Edge, int]:
    """Per packed edge, the executions holding both of its endpoints.

    Each vertex gets a bitmask over the variants that contain it, and
    the multiplicities are split into bit planes (plane ``b`` marks the
    variants whose multiplicity has bit ``b`` set).  An edge's count is
    then a weighted popcount of its endpoints' intersected masks, so the
    cost is one pass over the variants plus a few big-integer ANDs per
    edge, not a pass over the variants per edge.
    """
    width = (len(variants) + 7) // 8
    rows: Dict[int, bytearray] = {}
    planes = [
        bytearray(width)
        for _ in range(max(count for _, _, count in variants).bit_length())
    ]
    for position, (vertices, _, count) in enumerate(variants):
        byte = position >> 3
        bit = 1 << (position & 7)
        for vertex in vertices:
            row = rows.get(vertex)
            if row is None:
                row = rows[vertex] = bytearray(width)
            row[byte] |= bit
        plane = 0
        while count:
            if count & 1:
                planes[plane][byte] |= bit
            count >>= 1
            plane += 1
    masks = {
        vertex: int.from_bytes(row, "little") for vertex, row in rows.items()
    }
    weights = [int.from_bytes(plane, "little") for plane in planes]
    co_present: Dict[Edge, int] = {}
    for edge, code in packed.items():
        both = masks.get(code // n, 0) & masks.get(code % n, 0)
        co_present[edge] = sum(
            (both & weight).bit_count() << plane
            for plane, weight in enumerate(weights)
        )
    return co_present
