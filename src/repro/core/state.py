"""Mergeable streaming mining state (out-of-core log mining).

The paper's Algorithms 1–3 are one-pass aggregations over executions:
everything steps 3–6 of :func:`~repro.core.general_dag.mine_general_dag`
consume — the vertex intern table, the deduplicated trace-variant table
with multiplicities, the packed follows-pair/overlap counters and the
per-vertex presence counts — is a *commutative monoid* over executions.
:class:`MiningState` materializes that monoid with three operations:

* :meth:`MiningState.update` — fold one execution in.  ``O(trace
  length²)`` worst case (``O(trace length)`` amortized for repeated
  variants), and **constant memory in the number of executions**: the
  state grows with distinct labels and distinct variants only, never
  with the raw log.
* :meth:`MiningState.merge` — fold another state in.  Associative and
  commutative up to label order (the canonical serialization erases
  even that), so a log can be sharded arbitrarily, mined per shard and
  merged in any order or grouping.  Vertex ids are relabelled across
  the two intern tables during the merge.
* :meth:`MiningState.finish` — run steps 3–6 of the packed pipeline
  over the accumulated variants, honoring the Section 6 noise
  threshold.  The result is *identical* to batch-mining the full log.

Unlike :class:`~repro.core.interning.InternTable` (immutable by
design), the state's internal label table grows as new labels stream
in.  Packed pair codes therefore use a private *capacity* modulus that
doubles when outgrown, repacking all stored codes — amortized linear,
exactly like a growing hash table.  :meth:`finish` and
:meth:`to_payload` remap those private codes onto a canonical
``InternTable`` (labels sorted by ``repr``), which is why two states
with equal content serialize byte-for-byte equal regardless of the
order anything was folded in.

The canonical serialization is also the incremental miner's
**checkpoint format v3** (:func:`save_state` / :func:`load_state`):
state files written by ``mine --stream --state-out`` are checkpoint
files, and ``merge-states`` and :meth:`IncrementalMiner.resume
<repro.core.incremental.IncrementalMiner.resume>` read v1/v2/v3 alike.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter, OrderedDict
from itertools import combinations

try:
    # CPython's C helper behind Counter.update — the same loop minus
    # Counter.update's per-call Mapping isinstance dispatch, which is
    # measurable in the per-execution fold.
    from collections import _count_elements
except ImportError:  # pragma: no cover - non-CPython fallback
    def _count_elements(mapping, iterable):
        get = mapping.get
        for element in iterable:
            mapping[element] = get(element, 0) + 1
from pathlib import Path
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.interning import InternTable, PackedVariant
from repro.core.kernels import KernelState, get_kernel
from repro.core.parallel import (
    RetryPolicy,
    process_fold,
    resolve_jobs,
    supervised_fold,
)
from repro.errors import CheckpointError
from repro.logs.execution import Execution
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.resilience.durable import PREVIOUS_SUFFIX, crc32c, durable_write
from repro.resilience.faults import maybe_fault

if TYPE_CHECKING:
    # Runtime imports would recreate the state<->general_dag cycle;
    # finish() imports these lazily inside its body instead.
    from repro.core.general_dag import MiningTrace
    from repro.graphs.digraph import DiGraph

Vertex = Hashable
Pair = Tuple[Vertex, Vertex]
PathOrStr = Union[str, Path]

#: Canonical ``(vertices, pairs, overlaps)`` key of one trace variant,
#: in the state's private packed-code space.
VariantKey = Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]

MODE_GENERAL = "general-dag"
MODE_CYCLIC = "cyclic"
_MODES = (MODE_GENERAL, MODE_CYCLIC)

CHECKPOINT_FORMAT = "repro-incremental-checkpoint"
#: Current checkpoint version.  v1 stored one JSON entry per execution
#: with label-level pair lists; v2 deduplicated into weighted trace
#: variants carrying an interning table; v3 is the canonical
#: :meth:`MiningState.to_payload` serialization (order-independent, so
#: shard states merge deterministically).  :func:`load_state` reads all
#: three.
CHECKPOINT_VERSION = 3

#: Default bound of the prepared-variant memo in :class:`MiningState`:
#: interned id tuple of a *sequential* trace -> packed variant triple,
#: LRU-evicted.  Unlike the instance-level trace cache (keyed on raw
#: timestamps), the memo keys on activity order alone, so it also hits
#: when repeated variants carry fresh timestamps — the common shape of
#: real ingest.  Entries are small (a tuple of ints plus three shared
#: frozensets), so the default bound costs a few MiB at worst.
DEFAULT_VARIANT_MEMO = 65536


def _vertex_to_json(vertex: Vertex) -> object:
    # Vertices are activity names (str) in general mode and labelled
    # instances ``(activity, occurrence)`` in cyclic mode.
    if isinstance(vertex, tuple):
        return [vertex[0], vertex[1]]
    return vertex


def _vertex_from_json(value: object) -> Vertex:
    if isinstance(value, list):
        if len(value) != 2:
            raise CheckpointError(f"bad labelled vertex {value!r}")
        return (str(value[0]), int(value[1]))
    return value


def _pairs_to_json(pairs: Iterable[Pair]) -> List[List[object]]:
    return sorted(
        [[_vertex_to_json(u), _vertex_to_json(v)] for u, v in pairs]
    )


def _pairs_from_json(values: Iterable[List[object]]) -> FrozenSet[Pair]:
    return frozenset(
        (_vertex_from_json(u), _vertex_from_json(v)) for u, v in values
    )


class MiningState:
    """Mergeable sufficient statistics of Algorithm 2/3 over a log.

    Parameters
    ----------
    labelled:
        ``False`` (default) folds the plain activity view consumed by
        Algorithm 2; ``True`` folds the instance-relabelled view of
        Algorithm 3 (vertices are ``(activity, occurrence)`` tuples) —
        :meth:`finish` then produces the instance graph, to be merged
        with :func:`~repro.core.cyclic.merge_instances`.
    memo_size:
        Bound of the prepared-variant memo (see
        :data:`DEFAULT_VARIANT_MEMO`); ``0`` disables it, restoring the
        pre-memo :meth:`update` byte for byte.  The memo is a pure
        accelerator: folded counts, merges and serializations are
        identical for every setting.

    Examples
    --------
    >>> from repro.logs.execution import Execution
    >>> state = MiningState()
    >>> for seq in ["ABCF", "ACDF"]:
    ...     state.update(Execution.from_sequence(seq))
    >>> state.execution_count, state.variant_count
    (2, 2)
    >>> sorted(state.finish().edges())[:2]
    [('A', 'B'), ('A', 'C')]
    """

    def __init__(
        self,
        labelled: bool = False,
        memo_size: int = DEFAULT_VARIANT_MEMO,
    ) -> None:
        if memo_size < 0:
            raise ValueError(f"bad memo size {memo_size!r}")
        self.labelled = bool(labelled)
        # Growable intern table: first-seen label order; codes are
        # packed ``u * _cap + v`` and repacked when the table outgrows
        # the capacity (amortized by doubling).
        self._labels: List[Vertex] = []
        self._index: Dict[Vertex, int] = {}
        self._cap = 0
        # Canonical variant table: triple -> multiplicity, plus the
        # incrementally maintained step-2 counters and presence counts.
        self._variants: Dict[VariantKey, int] = {}
        self._pair_counts: Counter = Counter()
        self._overlap_counts: Counter = Counter()
        self._presence: Counter = Counter()
        self._execution_count = 0
        # Trace-level accelerator: variant_key -> packed triple, so a
        # repeated trace skips the quadratic pair extraction.  Never
        # serialized and cleared before a worker ships its state.
        self._trace_cache: Dict[Tuple, VariantKey] = {}
        # Prepared-variant memo: interned id tuple of a *sequential*
        # trace -> packed triple.  A sequential trace's pair set is
        # fully determined by its id sequence (suffix-set trick in
        # _pack_execution), so the memo may hit across executions whose
        # timestamps — and hence variant keys — differ.  Non-sequential
        # traces always take the slow path: their pair sets depend on
        # the actual intervals.  Bounded LRU; like the trace cache it
        # is never serialized and dropped before IPC.
        self._prepared_memo: "OrderedDict[Tuple[int, ...], VariantKey]"
        self._prepared_memo = OrderedDict()
        self._memo_size = int(memo_size)
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        # Step-5 reduction memo reused across finish() calls while the
        # label set is unchanged (a DAG's transitive reduction depends
        # only on the induced edge set).
        self._memo_labels: Optional[Tuple[Vertex, ...]] = None
        self._memo: Dict[FrozenSet[int], FrozenSet[int]] = {}
        # Batched-kernel counterpart of the memo: reduced variant masks,
        # their kept-edge union and the prefix trie, valid while the
        # step-4 edge set is unchanged (KernelState resets itself).
        self._kernel_state = KernelState()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def execution_count(self) -> int:
        """Executions folded in (sum of variant multiplicities)."""
        return self._execution_count

    @property
    def variant_count(self) -> int:
        """Distinct trace variants accumulated so far."""
        return len(self._variants)

    @property
    def labels(self) -> Tuple[Vertex, ...]:
        """All vertex labels seen so far, in first-seen order."""
        return tuple(self._labels)

    def has_repetition(self) -> bool:
        """Whether any folded execution repeated an activity.

        Only meaningful for labelled states, where a second occurrence
        materializes as an ``(activity, 2)`` vertex; the streaming CLI
        uses this to resolve ``--algorithm auto``.
        """
        return self.labelled and any(
            occurrence > 1 for _, occurrence in self._labels
        )

    def pair_frequencies(self) -> Dict[Pair, int]:
        """Label-level follows-pair counters (Section 6 evidence)."""
        cap = self._cap
        labels = self._labels
        return {
            (labels[code // cap], labels[code % cap]): count
            for code, count in self._pair_counts.items()
        }

    def presence(self) -> Dict[Vertex, int]:
        """Per vertex, how many folded executions contain it."""
        labels = self._labels
        return {
            labels[vertex_id]: count
            for vertex_id, count in self._presence.items()
        }

    def variant_codes(
        self,
    ) -> Tuple[
        Mapping[Vertex, int],
        int,
        List[Tuple[FrozenSet[int], FrozenSet[int], int]],
    ]:
        """The distinct variants in the state's own id space (read-only).

        Returns ``(index, modulus, variants)``: ``index`` maps each
        label to its vertex id, an ordered pair ``(u, v)`` is packed as
        ``index[u] * modulus + index[v]``, and ``variants`` holds one
        ``(vertex ids, packed ordered pairs, multiplicity)`` triple per
        distinct variant.  Ids and codes stay valid until the next fold
        or merge.  Edge coverage
        (:func:`~repro.analysis.coverage.edge_coverage`) reads them to
        work once per variant instead of once per execution.
        """
        variants = [
            (vertices, pairs, count)
            for (vertices, pairs, _), count in self._variants.items()
        ]
        return MappingProxyType(self._index), self._cap, variants

    def __repr__(self) -> str:
        kind = "labelled" if self.labelled else "plain"
        return (
            f"MiningState({kind}, executions={self._execution_count}, "
            f"variants={len(self._variants)}, "
            f"labels={len(self._labels)})"
        )

    # ------------------------------------------------------------------
    # Growable interning
    # ------------------------------------------------------------------
    def _intern(self, label: Vertex) -> int:
        vertex_id = self._index.get(label)
        if vertex_id is None:
            vertex_id = len(self._labels)
            self._labels.append(label)
            self._index[label] = vertex_id
        return vertex_id

    def _ensure_capacity(self) -> None:
        if len(self._labels) <= self._cap:
            return
        self._repack(max(8, 2 * len(self._labels)))

    def _repack(self, new_cap: int) -> None:
        """Re-encode every stored pair code under a larger capacity."""
        old = self._cap
        self._cap = new_cap

        def remap(codes: FrozenSet[int]) -> FrozenSet[int]:
            return frozenset(
                (code // old) * new_cap + (code % old) for code in codes
            )

        if old and self._variants:
            self._variants = {
                (vertices, remap(pairs), remap(overlaps)): count
                for (vertices, pairs, overlaps), count
                in self._variants.items()
            }
            self._trace_cache = {
                key: (vertices, remap(pairs), remap(overlaps))
                for key, (vertices, pairs, overlaps)
                in self._trace_cache.items()
            }
            # Memo keys are vertex-id tuples (stable across repacks);
            # only the packed codes inside the values need remapping.
            # The comprehension preserves LRU order.
            self._prepared_memo = OrderedDict(
                (ids, (vertices, remap(pairs), remap(overlaps)))
                for ids, (vertices, pairs, overlaps)
                in self._prepared_memo.items()
            )
            self._pair_counts = Counter(
                {
                    (code // old) * new_cap + (code % old): count
                    for code, count in self._pair_counts.items()
                }
            )
            self._overlap_counts = Counter(
                {
                    (code // old) * new_cap + (code % old): count
                    for code, count in self._overlap_counts.items()
                }
            )

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _fold(self, variant: VariantKey, count: int) -> None:
        vertices, pairs, overlaps = variant
        self._variants[variant] = self._variants.get(variant, 0) + count
        if count == 1:
            _count_elements(self._presence, vertices)
            _count_elements(self._pair_counts, pairs)
            if overlaps:
                _count_elements(self._overlap_counts, overlaps)
        else:
            self._presence.update(dict.fromkeys(vertices, count))
            self._pair_counts.update(dict.fromkeys(pairs, count))
            self._overlap_counts.update(dict.fromkeys(overlaps, count))
        self._execution_count += count

    def _pack_execution(self, execution: Execution) -> VariantKey:
        """Extract one execution's packed ``(vertices, pairs, overlaps)``.

        Mirrors :func:`repro.core.general_dag._pack_chunk`: sequential
        traces (the common case) produce packed codes directly from the
        interned id sequence via the suffix-set trick; interval-
        overlapping traces fall back to the cached label-level sets.
        """
        labelled = self.labelled
        sequence = (
            execution.labelled_sequence() if labelled
            else execution.sequence
        )
        intern = self._intern
        ids = [intern(label) for label in sequence]
        self._ensure_capacity()
        cap = self._cap
        vertices = frozenset(ids)
        if execution.is_sequential():
            if len(vertices) == len(ids):
                # No repeated activity (the overwhelming majority):
                # the forward pairs are exactly all (i, j), i < j, and
                # no self-pair can arise, so one pass over
                # ``combinations`` replaces the suffix-set walk.
                return (
                    vertices,
                    frozenset(
                        [a * cap + b for a, b in combinations(ids, 2)]
                    ),
                    frozenset(),
                )
            pairs: set = set()
            later: set = set()
            for vertex_id in reversed(ids):
                if later:
                    base = vertex_id * cap
                    pairs.update(base + other for other in later)
                later.add(vertex_id)
            if not labelled:
                # The suffix pass adds (a, a) when an activity repeats;
                # same-label pairs belong only to the relabelled view.
                pairs.difference_update(
                    vertex_id * cap + vertex_id for vertex_id in later
                )
            return (vertices, frozenset(pairs), frozenset())
        if labelled:
            ordered = execution.labelled_ordered_pair_set()
            overlapping = execution.labelled_overlapping_pair_set()
        else:
            ordered = execution.ordered_pair_set()
            overlapping = execution.overlapping_pair_set()
        index = self._index
        return (
            vertices,
            frozenset(index[u] * cap + index[v] for u, v in ordered),
            frozenset(
                index[u] * cap + index[v] for u, v in overlapping
            ),
        )

    def pack_sequence(
        self, sequence: Sequence[str]
    ) -> Optional[VariantKey]:
        """Pack a strictly-sequential, repeat-free activity sequence.

        The zero-Execution packing entry for the fused ingest path
        (:mod:`repro.logs.fastfold`): when the caller has already
        proven its bucket is a clean sequential trace, the variant
        packs straight from the activity sequence.  Returns ``None``
        for labelled states or sequences with a repeated activity —
        those need the relabelling / self-pair rules that
        :meth:`_pack_execution` applies — so the caller can fall back
        to building the execution.  The returned variant is identical
        to packing the equivalent execution.
        """
        if self.labelled:
            return None
        intern = self._intern
        ids = [intern(label) for label in sequence]
        self._ensure_capacity()
        cap = self._cap
        vertices = frozenset(ids)
        if len(vertices) != len(ids):
            return None
        return (
            vertices,
            frozenset([a * cap + b for a, b in combinations(ids, 2)]),
            frozenset(),
        )

    def update(self, execution: Execution) -> None:
        """Fold one execution into the state.

        Amortized ``O(trace length)`` for repeated trace variants, two
        ways: the prepared-variant memo turns a repeated *sequential*
        activity sequence into a counter bump regardless of timestamps,
        and the per-state trace cache skips re-extraction for exact
        instance-level repeats.  Either way the cost is independent of
        how many executions were folded before.
        """
        memo_size = self._memo_size
        ids: Optional[Tuple[int, ...]] = None
        if memo_size:
            index = self._index
            sequence = (
                execution.labelled_sequence() if self.labelled
                else execution.sequence
            )
            try:
                ids = tuple([index[label] for label in sequence])
            except KeyError:
                pass  # Unseen label: certainly not memoized.
            else:
                variant = self._prepared_memo.get(ids)
                if variant is not None and execution.is_sequential():
                    self.memo_hits += 1
                    self._prepared_memo.move_to_end(ids)
                    self._fold(variant, 1)
                    return
            self.memo_misses += 1
        key = execution.variant_key()
        variant = self._trace_cache.get(key)
        if variant is None:
            variant = self._pack_execution(execution)
            self._trace_cache[key] = variant
        self._fold(variant, 1)
        if memo_size and execution.is_sequential():
            if ids is None:
                # The slow path interned the new labels; the id tuple
                # is now computable (and stable — _repack changes pair
                # codes, never vertex ids).
                index = self._index
                ids = tuple(
                    index[label]
                    for label in (
                        execution.labelled_sequence() if self.labelled
                        else execution.sequence
                    )
                )
            memo = self._prepared_memo
            memo[ids] = variant
            if len(memo) > memo_size:
                memo.popitem(last=False)
                self.memo_evictions += 1

    def add_variant(
        self,
        vertices: Iterable[Vertex],
        pairs: Iterable[Pair],
        overlaps: Iterable[Pair] = (),
        count: int = 1,
    ) -> None:
        """Fold one label-level trace variant in, ``count`` times.

        The label table covers pair and overlap endpoints as well as
        the vertex set, mirroring
        :func:`~repro.core.interning.intern_variants`.  This is the
        resume path for v1/v2 checkpoints and the constructor used by
        tests that build states directly from prepared sets.
        """
        if count < 1:
            raise ValueError(f"bad variant multiplicity {count!r}")
        intern = self._intern
        vertex_ids = [intern(label) for label in vertices]
        pair_ends = [(intern(u), intern(v)) for u, v in pairs]
        overlap_ends = [(intern(u), intern(v)) for u, v in overlaps]
        self._ensure_capacity()
        cap = self._cap
        self._fold(
            (
                frozenset(vertex_ids),
                frozenset(u * cap + v for u, v in pair_ends),
                frozenset(u * cap + v for u, v in overlap_ends),
            ),
            count,
        )

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "MiningState") -> "MiningState":
        """Fold another state into this one (in place); returns ``self``.

        Associative and order-deterministic: the other state's vertex
        ids are relabelled through this state's intern table, and the
        variant table is a multiset union, so any merge tree over the
        same shards yields a state with identical content (and an
        identical canonical serialization).
        """
        if not isinstance(other, MiningState):
            raise TypeError(
                f"can only merge MiningState, got {type(other).__name__}"
            )
        if self.labelled != other.labelled:
            raise ValueError(
                "cannot merge labelled (cyclic) and plain (general-dag) "
                "mining states"
            )
        if other is self:
            other = other.copy()
        intern = self._intern
        mapping = [intern(label) for label in other._labels]
        self._ensure_capacity()
        cap = self._cap
        other_cap = other._cap or 1

        def remap_code(code: int) -> int:
            return (
                mapping[code // other_cap] * cap
                + mapping[code % other_cap]
            )

        def remap(codes: FrozenSet[int]) -> FrozenSet[int]:
            return frozenset(remap_code(code) for code in codes)

        variants = self._variants
        for (vertices, pairs, overlaps), count in other._variants.items():
            key = (
                frozenset(mapping[v] for v in vertices),
                remap(pairs),
                remap(overlaps),
            )
            variants[key] = variants.get(key, 0) + count
        self._presence.update(
            {
                mapping[vertex_id]: count
                for vertex_id, count in other._presence.items()
            }
        )
        self._pair_counts.update(
            {
                remap_code(code): count
                for code, count in other._pair_counts.items()
            }
        )
        self._overlap_counts.update(
            {
                remap_code(code): count
                for code, count in other._overlap_counts.items()
            }
        )
        self._execution_count += other._execution_count
        # Memo traffic is observability, not content: roll the other
        # state's counters up so parallel folds report like serial ones.
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.memo_evictions += other.memo_evictions
        return self

    def to_plain(self) -> "MiningState":
        """Project a repetition-free labelled state onto the plain view.

        When no folded execution repeated an activity, every vertex is
        ``(activity, 1)`` and the instance-relabelled statistics are
        isomorphic to the plain Algorithm 2 statistics; dropping the
        occurrence index yields exactly the state a plain fold of the
        same log would have produced.  The streaming CLI uses this to
        resolve ``--algorithm auto`` after a single labelled pass.

        Raises ``ValueError`` on a state with repeated activities (mine
        those as cyclic) and returns a copy unchanged for states that
        are already plain.
        """
        if not self.labelled:
            return self.copy()
        if self.has_repetition():
            raise ValueError(
                "cannot project a state with repeated activities onto "
                "the plain view; finish it as a cyclic instance graph "
                "instead"
            )
        plain = MiningState(labelled=False)
        cap = self._cap or 1
        labels = [activity for activity, _ in self._labels]
        for (vertices, pairs, overlaps), count in self._variants.items():
            plain.add_variant(
                vertices=[labels[v] for v in vertices],
                pairs=[
                    (labels[c // cap], labels[c % cap]) for c in pairs
                ],
                overlaps=[
                    (labels[c // cap], labels[c % cap]) for c in overlaps
                ],
                count=count,
            )
        return plain

    def copy(self) -> "MiningState":
        """An independent copy (shared immutable frozensets)."""
        clone = MiningState(
            labelled=self.labelled, memo_size=self._memo_size
        )
        clone._labels = list(self._labels)
        clone._index = dict(self._index)
        clone._cap = self._cap
        clone._variants = dict(self._variants)
        clone._pair_counts = Counter(self._pair_counts)
        clone._overlap_counts = Counter(self._overlap_counts)
        clone._presence = Counter(self._presence)
        clone._execution_count = self._execution_count
        clone._trace_cache = dict(self._trace_cache)
        clone._prepared_memo = OrderedDict(self._prepared_memo)
        clone.memo_hits = self.memo_hits
        clone.memo_misses = self.memo_misses
        clone.memo_evictions = self.memo_evictions
        return clone

    # ------------------------------------------------------------------
    # Finish (steps 3–6)
    # ------------------------------------------------------------------
    def packed(self) -> Tuple[InternTable, List[PackedVariant]]:
        """The accumulated variants in the batch pipeline's packed form.

        Labels are canonicalized into an immutable
        :class:`~repro.core.interning.InternTable` (sorted by ``repr``)
        and every private capacity-packed code is remapped onto the
        table's ``u_id * n + v_id`` encoding, so the result plugs
        straight into ``_mine_packed`` — and is content-identical for
        any fold/merge order that produced the same state.
        """
        table = InternTable(self._labels)
        id_map = [table.id_of(label) for label in self._labels]
        n = max(len(table), 1)
        cap = self._cap

        def remap(codes: FrozenSet[int]) -> FrozenSet[int]:
            return frozenset(
                id_map[code // cap] * n + id_map[code % cap]
                for code in codes
            )

        variants = [
            PackedVariant(
                vertices=frozenset(id_map[v] for v in vertices),
                pairs=remap(pairs),
                overlaps=remap(overlaps),
                multiplicity=count,
            )
            for (vertices, pairs, overlaps), count
            in self._variants.items()
        ]
        return table, variants

    def _reduction_memo_for(
        self, table: InternTable
    ) -> Dict[FrozenSet[int], FrozenSet[int]]:
        # The memo keys are induced edge sets packed against the
        # canonical table, so any label-set change invalidates it.
        if self._memo_labels != table.labels:
            self._memo_labels = table.labels
            self._memo = {}
        return self._memo

    def finish(
        self,
        threshold: int = 0,
        trace: Optional["MiningTrace"] = None,
        jobs: Optional[int] = None,
        skip_scc_removal: bool = False,
        skip_execution_marking: bool = False,
        kernel: Optional[str] = None,
    ) -> "DiGraph":
        """Run steps 3–6 over the accumulated variants.

        Identical to :func:`~repro.core.general_dag.mine_general_dag`
        (or, for labelled states, to the instance graph of
        :func:`~repro.core.cyclic.mine_cyclic`) over the full log the
        state was folded from — the differential test suite asserts
        this for arbitrary shard splits and merge orders.

        Raises :class:`~repro.errors.EmptyLogError` when nothing was
        folded in yet.  Repeated calls reuse a persistent step-5
        reduction memo while the label set is unchanged — and, under a
        mask-capable ``kernel`` (``None`` defers to ``REPRO_KERNEL``,
        defaulting to ``bitset``), a persistent
        :class:`~repro.core.kernels.KernelState` of already-reduced
        variant masks — so re-materializing after a few new executions
        is cheap.
        """
        # Local import: general_dag imports interning/parallel like this
        # module does, and the incremental miner sits on top of both.
        from repro.core.general_dag import MiningTrace, _mine_packed

        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        trace = trace if trace is not None else MiningTrace()
        with trace.stage("intern"):
            table, variants = self.packed()
        return _mine_packed(
            table,
            variants,
            threshold=threshold,
            trace=trace,
            skip_scc_removal=skip_scc_removal,
            skip_execution_marking=skip_execution_marking,
            jobs=jobs,
            reduction_memo=self._reduction_memo_for(table),
            kernel=get_kernel(kernel),
            kernel_state=self._kernel_state,
        )

    # ------------------------------------------------------------------
    # Canonical serialization (checkpoint v3)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The canonical JSON-ready form of the state.

        Labels are sorted by ``repr``, codes repacked to ``n =
        len(labels)``, and variants sorted by their serialized triple —
        so equal-content states (any fold/merge order) serialize
        identically, which makes payload equality a strong merge
        associativity/commutativity check.
        """
        table = InternTable(self._labels)
        id_map = [table.id_of(label) for label in self._labels]
        n = max(len(table), 1)
        cap = self._cap

        def remap(codes: FrozenSet[int]) -> List[int]:
            return sorted(
                id_map[code // cap] * n + id_map[code % cap]
                for code in codes
            )

        entries = [
            {
                "vertices": sorted(id_map[v] for v in vertices),
                "pairs": remap(pairs),
                "overlaps": remap(overlaps),
                "count": count,
            }
            for (vertices, pairs, overlaps), count
            in self._variants.items()
        ]
        entries.sort(
            key=lambda entry: (
                entry["vertices"], entry["pairs"], entry["overlaps"]
            )
        )
        return {
            "labelled": self.labelled,
            "labels": [_vertex_to_json(label) for label in table.labels],
            "variants": entries,
            "execution_count": self._execution_count,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MiningState":
        """Rebuild a state from :meth:`to_payload` output.

        Raises ``ValueError``/``KeyError``/``TypeError`` on malformed
        payloads; :func:`load_state` wraps those into
        :class:`~repro.errors.CheckpointError`.
        """
        if not isinstance(payload, dict):
            raise ValueError("state payload must be a JSON object")
        state = cls(labelled=bool(payload["labelled"]))
        labels = [_vertex_from_json(value) for value in payload["labels"]]
        n = len(labels)
        for entry in payload["variants"]:
            state.add_variant(
                vertices=[labels[int(v)] for v in entry["vertices"]],
                pairs=[
                    (labels[int(c) // n], labels[int(c) % n])
                    for c in entry["pairs"]
                ],
                overlaps=[
                    (labels[int(c) // n], labels[int(c) % n])
                    for c in entry["overlaps"]
                ],
                count=int(entry["count"]),
            )
        declared = int(payload["execution_count"])
        if declared != state._execution_count:
            raise ValueError(
                f"execution_count {declared} does not match the sum of "
                f"variant multiplicities {state._execution_count}"
            )
        return state


# ----------------------------------------------------------------------
# State files (= incremental checkpoints, format v3)
# ----------------------------------------------------------------------
def _integrity_body(payload: dict) -> bytes:
    """The canonical bytes the integrity envelope checksums.

    Everything in the envelope *except* the ``integrity`` field itself,
    dumped with sorted keys and compact separators, so the digest is
    independent of JSON key order on disk.
    """
    body = {
        key: value for key, value in payload.items() if key != "integrity"
    }
    return json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def state_envelope(
    state: MiningState,
    mode: Optional[str] = None,
    threshold: int = 0,
    last_edges: Optional[frozenset] = None,
    stable_since: int = 0,
    journal_seq: Optional[int] = None,
) -> str:
    """Serialize ``state`` as the canonical v3 checkpoint envelope.

    This is the exact text :func:`save_state` writes — factored out so
    callers that ship the envelope over a wire (the service's
    ``GET /v1/{process}/state``) produce bytes identical to the CLI's
    ``--state-out`` file for the same state.

    ``mode`` defaults to ``"cyclic"`` for labelled states and
    ``"general-dag"`` otherwise; an explicit mode must agree with the
    state's ``labelled`` flag.  ``last_edges``/``stable_since`` carry
    the incremental miner's stability bookkeeping (zero/absent for
    plain shard states).  ``journal_seq`` — only present for durable
    sessions — records the write-ahead journal sequence number this
    state covers, so recovery knows where journal replay starts.

    The envelope carries an ``integrity`` field (CRC32C + length over
    the canonical body), verified by :func:`load_state`.
    """
    if mode is None:
        mode = MODE_CYCLIC if state.labelled else MODE_GENERAL
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if (mode == MODE_CYCLIC) != state.labelled:
        raise ValueError(
            f"mode {mode!r} does not match a "
            f"{'labelled' if state.labelled else 'plain'} mining state"
        )
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "mode": mode,
        "threshold": int(threshold),
        "state": state.to_payload(),
        "last_edges": (
            _pairs_to_json(last_edges) if last_edges is not None else None
        ),
        "stable_since": int(stable_since),
    }
    if journal_seq is not None:
        payload["journal_seq"] = int(journal_seq)
    body = _integrity_body(payload)
    payload["integrity"] = {
        "algorithm": "crc32c",
        "crc32c": f"{crc32c(body):08x}",
        "length": len(body),
    }
    return json.dumps(payload, separators=(",", ":"))


def save_state(
    state: MiningState,
    path: PathOrStr,
    mode: Optional[str] = None,
    threshold: int = 0,
    last_edges: Optional[frozenset] = None,
    stable_since: int = 0,
    journal_seq: Optional[int] = None,
) -> None:
    """Write ``state`` to ``path`` as a version-3 checkpoint, durably.

    The envelope text comes from :func:`state_envelope`; the file goes
    through :func:`~repro.resilience.durable.durable_write` (temp
    sibling, fsync, atomic replace, directory fsync) so a crash
    mid-write never leaves a torn or unsynced checkpoint behind.
    """
    durable_write(
        Path(path),
        state_envelope(
            state,
            mode=mode,
            threshold=threshold,
            last_edges=last_edges,
            stable_since=stable_since,
            journal_seq=journal_seq,
        ),
    )


def _load_v1_state(state: MiningState, entries: Iterable[dict]) -> None:
    """Fold v1's one-entry-per-execution label-level payload."""
    for entry in entries:
        state.add_variant(
            vertices=[_vertex_from_json(v) for v in entry["vertices"]],
            pairs=[
                (_vertex_from_json(u), _vertex_from_json(v))
                for u, v in entry["pairs"]
            ],
            overlaps=[
                (_vertex_from_json(u), _vertex_from_json(v))
                for u, v in entry["overlaps"]
            ],
            count=1,
        )


def _load_v2_state(
    state: MiningState, labels: Iterable[object], entries: Iterable[dict]
) -> None:
    """Fold v2's interning table + packed weighted variants."""
    table = [_vertex_from_json(label) for label in labels]
    n = len(table)
    for entry in entries:
        state.add_variant(
            vertices=[table[int(v)] for v in entry["vertices"]],
            pairs=[
                (table[int(c) // n], table[int(c) % n])
                for c in entry["pairs"]
            ],
            overlaps=[
                (table[int(c) // n], table[int(c) % n])
                for c in entry["overlaps"]
            ],
            count=int(entry["count"]),
        )


def load_state(path: PathOrStr) -> Tuple[MiningState, dict]:
    """Read a state/checkpoint file (any version) back into a state.

    Returns ``(state, meta)`` where ``meta`` carries the envelope
    fields: ``version``, ``mode``, ``threshold``, ``last_edges``
    (label-level frozenset or ``None``) and ``stable_since``.

    Raises
    ------
    CheckpointError
        When the file is unreadable, not a checkpoint, corrupt (a
        present ``integrity`` envelope fails its CRC32C/length check),
        or has an unsupported version.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!s}: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get(
        "format"
    ) != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path!s} is not an incremental-miner checkpoint"
        )
    integrity = payload.get("integrity")
    if integrity is not None:
        # Pre-hardening checkpoints have no envelope; when one is
        # present it must verify.
        try:
            declared_crc = str(integrity["crc32c"])
            declared_length = int(integrity["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path!s}: bad integrity field"
            ) from exc
        body = _integrity_body(payload)
        if (
            len(body) != declared_length
            or f"{crc32c(body):08x}" != declared_crc
        ):
            raise CheckpointError(
                f"corrupt checkpoint {path!s}: integrity check failed "
                f"(crc32c {crc32c(body):08x} != {declared_crc} or "
                f"length {len(body)} != {declared_length})"
            )
    version = payload.get("version")
    if version not in (1, 2, 3):
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}"
        )
    try:
        mode = payload["mode"]
        if mode not in _MODES:
            raise ValueError(f"bad mode {mode!r}")
        labelled = mode == MODE_CYCLIC
        if version == 3:
            state = MiningState.from_payload(payload["state"])
            if state.labelled != labelled:
                raise ValueError(
                    f"state labelled={state.labelled} does not match "
                    f"mode {mode!r}"
                )
        elif version == 2:
            state = MiningState(labelled=labelled)
            _load_v2_state(state, payload["labels"], payload["variants"])
            # v2 stored the execution count explicitly; trust it like
            # the original reader did.
            state._execution_count = int(payload["execution_count"])
        else:
            state = MiningState(labelled=labelled)
            _load_v1_state(state, payload["executions"])
        last_edges = payload["last_edges"]
        meta = {
            "version": version,
            "mode": mode,
            "threshold": int(payload["threshold"]),
            "last_edges": (
                _pairs_from_json(last_edges)
                if last_edges is not None
                else None
            ),
            "stable_since": int(payload["stable_since"]),
            "journal_seq": int(payload.get("journal_seq", 0)),
            "verified": integrity is not None,
        }
    except (
        KeyError,
        TypeError,
        ValueError,
        IndexError,
        ZeroDivisionError,
    ) as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path!s}: {exc}"
        ) from exc
    return state, meta


def load_state_with_fallback(
    path: PathOrStr,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[MiningState, dict, bool]:
    """Load ``path``, falling back to ``path.prev`` when it is corrupt.

    The durable session demotes each checkpoint to a ``.prev`` sibling
    before writing its successor, so a checkpoint that fails its
    integrity check (or is missing mid-rotation) still has one good
    predecessor on disk.  Returns ``(state, meta, used_fallback)`` and
    bumps ``repro_checkpoint_fallback_total`` when the fallback fired;
    re-raises the primary :class:`~repro.errors.CheckpointError` when
    the fallback is absent or also corrupt.
    """
    path = Path(path)
    try:
        state, meta = load_state(path)
        return state, meta, False
    except CheckpointError as primary:
        fallback = path.with_name(path.name + PREVIOUS_SUFFIX)
        if not fallback.exists():
            raise
        try:
            state, meta = load_state(fallback)
        except CheckpointError:
            raise primary from None
        recorder.count("repro_checkpoint_fallback_total")
        return state, meta, True


# ----------------------------------------------------------------------
# Streaming fold (serial or one compact state per worker chunk)
# ----------------------------------------------------------------------
def _fold_chunk(
    args: Tuple[bool, List[Execution], bool],
) -> Tuple[MiningState, int]:
    """Worker: fold a chunk of executions into one partial state.

    Returns ``(partial_state, per_item_bytes)`` where the second field
    — measured only when the chunk's ``measure`` flag is set — is the
    pickled size of the per-execution packed triples the pre-streaming
    ``process_map`` path would have shipped back instead.  Comparing it
    against ``repro_parallel_ipc_bytes_total{payload="result"}`` (the
    compact state actually sent) gives the IPC bytes saved.
    """
    labelled, executions, measure = args
    # Fault-injection choke point: worker-crash / worker-hang faults
    # fire here to drive the supervisor's recovery paths.
    maybe_fault("fold.chunk")
    # Measurement mode reproduces the per-item triples via the trace
    # cache, which the prepared-variant memo fast path bypasses — so
    # disable the memo while measuring (the folded content is the same
    # either way).
    partial = MiningState(
        labelled=labelled,
        memo_size=0 if measure else DEFAULT_VARIANT_MEMO,
    )
    per_item: Optional[List] = [] if measure else None
    for execution in executions:
        partial.update(execution)
        if per_item is not None:
            per_item.append(
                partial._trace_cache[execution.variant_key()]
            )
    per_item_bytes = (
        len(pickle.dumps(per_item)) if per_item is not None else 0
    )
    # The trace cache and prepared-variant memo are local accelerators
    # only; dropping them keeps the IPC payload at one compact state
    # per chunk.
    partial._trace_cache.clear()
    partial._prepared_memo.clear()
    return partial, per_item_bytes


def fold_executions(
    executions: Iterable[Execution],
    labelled: bool = False,
    jobs: Optional[int] = None,
    chunk_size: int = 1024,
    recorder: Recorder = NULL_RECORDER,
    state: Optional[MiningState] = None,
    retry: Optional[RetryPolicy] = None,
    on_poisoned: Optional[Callable] = None,
) -> MiningState:
    """Fold an execution *stream* into a :class:`MiningState`.

    Memory stays bounded by the state size plus (with ``jobs > 1``) a
    bounded window of in-flight chunks: the input is consumed lazily,
    never materialized as a list or :class:`~repro.logs.event_log.
    EventLog`.  With ``jobs > 1`` worker processes fold ``chunk_size``
    executions each into a partial state and ship *one compact state
    per chunk* back (see :func:`repro.core.parallel.process_fold`),
    which the parent merges in submission order — deterministic and
    identical to the serial fold.

    Passing a :class:`~repro.core.parallel.RetryPolicy` as ``retry``
    upgrades the parallel path to :func:`~repro.core.parallel.
    supervised_fold`: hung or crashed workers are detected, the chunk
    is retried under the policy's backoff budget, and chunks that
    exhaust it are skipped (the mine continues degraded) after being
    reported through ``on_poisoned(executions, reason)``.

    Folds into ``state`` when given (e.g. to continue a resumed one),
    else into a fresh state; returns the folded state either way.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if state is None:
        state = MiningState(labelled=labelled)
    elif state.labelled != labelled:
        raise ValueError(
            "state.labelled does not match the requested labelled flag"
        )
    jobs = resolve_jobs(jobs)
    before = state.execution_count
    memo_before = (
        state.memo_hits, state.memo_misses, state.memo_evictions
    )
    if jobs <= 1:
        for execution in executions:
            state.update(execution)
    else:
        measure = recorder.enabled

        def chunks() -> Iterator[Tuple[bool, List[Execution], bool]]:
            buffer: List[Execution] = []
            for execution in executions:
                buffer.append(execution)
                if len(buffer) >= chunk_size:
                    yield (labelled, buffer, measure)
                    buffer = []
            if buffer:
                yield (labelled, buffer, measure)

        def fold(result: Tuple[MiningState, int]) -> None:
            partial, per_item_bytes = result
            if per_item_bytes:
                recorder.count(
                    "repro_parallel_ipc_bytes_total",
                    per_item_bytes,
                    labels={
                        "stage": "stream_fold",
                        "payload": "per_item_equivalent",
                    },
                )
            state.merge(partial)

        if retry is not None:

            def report(
                chunk_args: Tuple[bool, List[Execution], bool],
                reason: str,
            ) -> None:
                if on_poisoned is not None:
                    # Unwrap the worker tuple back to the executions.
                    on_poisoned(chunk_args[1], reason)

            supervised_fold(
                _fold_chunk,
                chunks(),
                jobs,
                fold,
                policy=retry,
                recorder=recorder,
                stage="stream_fold",
                on_poisoned=report,
            )
        else:
            process_fold(
                _fold_chunk,
                chunks(),
                jobs,
                fold,
                recorder=recorder,
                stage="stream_fold",
            )
    recorder.count(
        "repro_stream_executions_total",
        state.execution_count - before,
    )
    # merge() rolls worker-partial memo counters up into the parent
    # state, so the deltas cover serial and parallel folds alike.
    for event, start_value, end_value in (
        ("hit", memo_before[0], state.memo_hits),
        ("miss", memo_before[1], state.memo_misses),
        ("evict", memo_before[2], state.memo_evictions),
    ):
        if end_value > start_value:
            recorder.count(
                "repro_ingest_variant_memo_total",
                end_value - start_value,
                labels={"event": event},
            )
    return state
