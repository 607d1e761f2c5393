"""State round trips that stay in the state's own id space.

A v3 payload is already canonical (labels sorted by ``repr``, codes
``u * n + v``), so :meth:`MiningState.from_payload` folds its ids in as
stored, :meth:`MiningState.to_plain` relabels a repetition-free state
without re-interning, and ``packed()``/``to_payload()`` skip the remap
on a canonical state.  These tests pin that the results are the ones
the label-level paths produced: over sequential, interval-overlapping,
repeated-activity and noisy logs, through payload round trips, the
labelled-to-plain projection and shard merges in any order.  They also
cover malformed payloads and a committed state file written with the
earlier CRC32C integrity envelope.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.core.interning import InternTable
from repro.core.state import MiningState, load_state, save_state
from repro.errors import CheckpointError
from repro.logs.event_log import EventLog
from repro.logs.events import end_event, start_event
from repro.logs.execution import Execution
from repro.logs.noise import NoiseConfig, NoiseInjector

LEGACY_STATE = Path(__file__).parent / "data" / "legacy_crc32c_state.json"


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
def _sequences(rng, activities, count, repeat):
    sequences = []
    for _ in range(count):
        if repeat:
            middle = [rng.choice(activities) for _ in range(rng.randint(1, 7))]
        else:
            middle = [a for a in activities if rng.random() < 0.7]
            rng.shuffle(middle)
        sequences.append(["S", *middle, "Z"])
    # Whole-trace duplicates exercise variant multiplicities.
    return sequences + sequences[: rng.randint(0, len(sequences))]


def _interval_executions(rng, activities, count):
    executions = []
    for index in range(count):
        chosen = [a for a in activities if rng.random() < 0.8] or activities[:1]
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
    return executions


@st.composite
def logs(draw):
    """Executions of one of four shapes: sequential, interval-
    overlapping, repeated-activity or noisy."""
    kind = draw(st.sampled_from(["sequential", "interval", "repeat", "noisy"]))
    n = draw(st.integers(min_value=1, max_value=7))
    activities = [chr(ord("A") + i) for i in range(n)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    count = draw(st.integers(min_value=1, max_value=12))
    if kind == "interval":
        return _interval_executions(rng, activities, count)
    log = EventLog.from_sequences(
        _sequences(rng, activities, count, repeat=kind == "repeat")
    )
    if kind == "noisy":
        log = NoiseInjector(
            NoiseConfig(
                swap_rate=0.3,
                drop_rate=0.3,
                insert_rate=0.3,
                seed=rng.randint(0, 10_000),
            )
        ).corrupt(log)
    return list(log)


def fold(executions, labelled=False):
    state = MiningState(labelled=labelled)
    for execution in executions:
        state.update(execution)
    return state


def assert_canonical(state):
    """Labels in canonical table order, capacity equal to their count."""
    assert state.labels == InternTable(state.labels).labels
    assert state._cap == len(state.labels)


def through_file(state):
    """A payload round trip through JSON text, as a state file makes."""
    return MiningState.from_payload(json.loads(json.dumps(state.to_payload())))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@given(logs(), st.booleans())
def test_payload_round_trip_is_a_fixed_point(executions, labelled):
    state = fold(executions, labelled)
    payload = state.to_payload()
    loaded = MiningState.from_payload(payload)
    assert_canonical(loaded)
    assert loaded.to_payload() == payload
    assert loaded.execution_count == state.execution_count
    assert loaded.pair_frequencies() == state.pair_frequencies()
    assert loaded.presence() == state.presence()
    assert loaded.finish().edge_set() == state.finish().edge_set()


@given(logs())
def test_labelled_fold_projects_onto_the_plain_fold(executions):
    labelled = fold(executions, labelled=True)
    if labelled.has_repetition():
        with pytest.raises(ValueError):
            labelled.to_plain()
        return
    plain = labelled.to_plain()
    expected = fold(executions)
    assert plain.pair_frequencies() == expected.pair_frequencies()
    assert plain.presence() == expected.presence()
    assert plain.to_payload() == expected.to_payload()
    assert plain.finish().edge_set() == expected.finish().edge_set()
    # The projection is independent of its source.
    plain.update(Execution.from_sequence("SZ", execution_id="extra"))
    assert labelled.execution_count == len(executions)


@given(
    logs(),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_loaded_shards_merge_to_the_monolith_in_any_order(
    executions, labelled, shard_count, seed
):
    rng = random.Random(seed)
    shards = [[] for _ in range(shard_count)]
    for execution in executions:
        shards[rng.randrange(shard_count)].append(execution)
    loaded = [through_file(fold(shard, labelled)) for shard in shards]
    rng.shuffle(loaded)
    merged = loaded[0]
    for state in loaded[1:]:
        merged.merge(state)
    # Merging loaded states keeps the canonical layout.
    assert_canonical(merged)
    monolith = fold(executions, labelled)
    assert merged.to_payload() == monolith.to_payload()
    assert merged.finish().edge_set() == monolith.finish().edge_set()


def test_canonical_paths_do_not_intern(monkeypatch):
    executions = _interval_executions(random.Random(7), list("ABCDE"), 6)
    executions += list(EventLog.from_sequences(["SABZ", "SBAZ", "SACZ"]))
    payload = fold(executions, labelled=True).to_payload()

    def refuse(*args, **kwargs):
        raise AssertionError("re-interned a canonical state")

    monkeypatch.setattr(MiningState, "_intern", refuse)
    monkeypatch.setattr(MiningState, "add_variant", refuse)
    loaded = MiningState.from_payload(payload)
    plain = loaded.to_plain()
    for state in (loaded, plain):
        state.packed()
        state.to_payload()
    loaded.merge(MiningState.from_payload(payload))
    assert loaded.execution_count == 2 * plain.execution_count


# ---------------------------------------------------------------------------
# Payloads that are not canonical, and malformed ones
# ---------------------------------------------------------------------------
def reference_state():
    return fold(EventLog.from_sequences(["ABCF", "ACDF", "ABDF", "ABDF"]))


@pytest.mark.parametrize(
    "reverse, unused",
    [(True, True), (True, False), (False, True)],
    ids=["out-of-order+unused", "out-of-order", "unused"],
)
def test_out_of_order_and_unused_labels_load_canonical(reverse, unused):
    state = reference_state()
    payload = state.to_payload()
    labels = payload["labels"] + (["UNUSED"] if unused else [])
    # new id -> old id: canonical table order, or its reverse.
    order = [labels.index(label) for label in InternTable(labels).labels]
    if reverse:
        order.reverse()
    position = {old: new for new, old in enumerate(order)}
    n_old, n_new = len(payload["labels"]), len(labels)

    def recode(code):
        u, v = divmod(code, n_old)
        return position[u] * n_new + position[v]

    shuffled = {
        "labelled": False,
        "labels": [labels[old] for old in order],
        "variants": [
            {
                "vertices": [position[v] for v in entry["vertices"]],
                "pairs": [recode(c) for c in entry["pairs"]],
                "overlaps": [recode(c) for c in entry["overlaps"]],
                "count": entry["count"],
            }
            for entry in payload["variants"]
        ],
        "execution_count": payload["execution_count"],
    }
    loaded = MiningState.from_payload(shuffled)
    assert_canonical(loaded)
    assert "UNUSED" not in loaded.labels
    assert loaded.to_payload() == payload
    assert loaded.finish().edge_set() == state.finish().edge_set()


def _write_unsealed(path, state_payload):
    """A v3 file without an integrity envelope (verification skipped)."""
    path.write_text(
        json.dumps(
            {
                "format": "repro-incremental-checkpoint",
                "version": 3,
                "mode": "general-dag",
                "threshold": 0,
                "state": state_payload,
                "last_edges": None,
                "stable_since": 0,
            }
        )
    )


def _malformed(kind):
    payload = reference_state().to_payload()
    n = len(payload["labels"])
    entry = payload["variants"][0]
    if kind == "negative-id":
        entry["vertices"][0] = -1
    elif kind == "id-out-of-range":
        entry["vertices"][-1] = n
    elif kind == "negative-code":
        entry["pairs"][0] = -1
    elif kind == "code-out-of-range":
        entry["pairs"][-1] = n * n
    elif kind == "negative-overlap":
        entry["overlaps"] = [-3]
    elif kind == "duplicate-labels":
        payload["labels"][1] = payload["labels"][0]
    elif kind == "zero-count":
        entry["count"] = 0
        payload["execution_count"] -= 1
    elif kind == "execution-count":
        payload["execution_count"] += 1
    return payload


MALFORMED = [
    "negative-id",
    "id-out-of-range",
    "negative-code",
    "code-out-of-range",
    "negative-overlap",
    "duplicate-labels",
    "zero-count",
    "execution-count",
]


@pytest.mark.parametrize("kind", MALFORMED)
def test_malformed_payload_raises_checkpoint_error(kind, tmp_path):
    path = tmp_path / "bad.json"
    _write_unsealed(path, _malformed(kind))
    with pytest.raises(CheckpointError):
        load_state(path)


def test_unsealed_well_formed_payload_loads(tmp_path):
    path = tmp_path / "good.json"
    state = reference_state()
    _write_unsealed(path, state.to_payload())
    loaded, meta = load_state(path)
    assert loaded.to_payload() == state.to_payload()
    assert meta["verified"] is False and meta["integrity"] is None


# ---------------------------------------------------------------------------
# Integrity envelopes: CRC-32 written, CRC32C still read
# ---------------------------------------------------------------------------
def _legacy_executions():
    """The executions the committed legacy state file was folded from."""
    executions = [
        Execution.from_sequence(seq, execution_id=f"s1-{i}")
        for i, seq in enumerate(["ABCF", "ACDF", "ABDF", "ABDF"])
    ]
    records = []
    for activity, start, end in [
        ("A", 0, 1), ("B", 2, 5), ("C", 3, 6), ("F", 7, 8)
    ]:
        records.append(start_event("s1-ov", activity, start))
        records.append(end_event("s1-ov", activity, end))
    executions.append(Execution("s1-ov", records))
    return executions


def test_new_files_carry_a_crc32_envelope(tmp_path):
    path = tmp_path / "state.json"
    save_state(reference_state(), path)
    integrity = json.loads(path.read_text())["integrity"]
    assert sorted(integrity) == ["algorithm", "crc32", "length"]
    assert integrity["algorithm"] == "crc32"
    assert load_state(path)[1]["integrity"] == "crc32"


def test_unknown_integrity_algorithm_is_rejected(tmp_path):
    path = tmp_path / "state.json"
    save_state(reference_state(), path)
    document = json.loads(path.read_text())
    document["integrity"]["algorithm"] = "md5"
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointError):
        load_state(path)


def test_legacy_crc32c_state_file_loads():
    document = json.loads(LEGACY_STATE.read_text())
    assert document["integrity"]["algorithm"] == "crc32c"
    state, meta = load_state(LEGACY_STATE)
    assert meta["verified"] is True and meta["integrity"] == "crc32c"
    assert state.to_payload() == fold(_legacy_executions()).to_payload()


def test_legacy_crc32c_state_file_fails_when_damaged(tmp_path):
    damaged = tmp_path / "damaged.json"
    damaged.write_text(LEGACY_STATE.read_text().replace('"count":2', '"count":3'))
    with pytest.raises(CheckpointError, match="crc32c"):
        load_state(damaged)


def test_verify_state_names_the_legacy_algorithm(capsys):
    assert main(["verify-state", str(LEGACY_STATE)]) == 0
    assert "crc32c verified" in capsys.readouterr().out


def test_merge_states_merges_legacy_with_new_file(tmp_path, capsys):
    shard = list(EventLog.from_sequences(["ACDF", "ABCDF", "ABF"]))
    fresh = tmp_path / "fresh.json"
    save_state(fold(shard), fresh)
    merged_path = tmp_path / "merged.json"
    assert main([
        "merge-states", str(LEGACY_STATE), str(fresh),
        "--format", "edges", "--output", str(merged_path),
    ]) == 0
    out = capsys.readouterr().out
    monolith = fold(_legacy_executions() + shard)
    merged, meta = load_state(merged_path)
    assert meta["integrity"] == "crc32"
    assert merged.to_payload() == monolith.to_payload()
    edges = {
        tuple(line.split(" -> "))
        for line in out.splitlines()
        if " -> " in line
    }
    assert edges == monolith.finish().edge_set()
