"""Output gates: each returns None when the output is right, else why not."""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

Edge = Tuple[str, str]


def edges_of(stdout: bytes) -> FrozenSet[Edge]:
    """The ``A -> B`` edge lines of a ``--format edges`` model block."""
    edges = set()
    for line in stdout.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        source, arrow, target = line.partition(" -> ")
        if not arrow:
            raise ValueError(f"not an edge line: {line!r}")
        edges.add((source, target))
    return frozenset(edges)


def check_batch(stdout: bytes, oracle: FrozenSet[Edge]) -> Optional[str]:
    """Batch mine: the mined edge set equals the reference miner's."""
    try:
        mined = edges_of(stdout)
    except (UnicodeDecodeError, ValueError) as exc:
        return f"unreadable model: {exc}"
    if mined == oracle:
        return None
    return (
        f"edge set differs from the oracle: "
        f"{len(oracle - mined)} missing, {len(mined - oracle)} extra"
    )


def check_merge(stdout: bytes, reference: bytes) -> Optional[str]:
    """Stream + merge: merged stdout is byte-identical to batch mine."""
    if stdout == reference:
        return None
    return "merge-states stdout differs from batch mine on the unsplit log"


def check_flush(tenant: str, stats: dict, pushed_executions: int) -> Optional[str]:
    """daemon-mixed: a tenant's final flush shows nothing dropped."""
    if stats.get("quarantined_lines") != 0:
        return (
            f"{tenant}: {stats.get('quarantined_lines')} lines "
            f"quarantined ({stats.get('quarantine_reasons')})"
        )
    if stats.get("executions") != pushed_executions:
        return (
            f"{tenant}: daemon folded {stats.get('executions')} "
            f"executions, {pushed_executions} were pushed"
        )
    return None


def check_served(
    tenant: str, model: bytes, state: bytes, cli_model: bytes, cli_state: bytes
) -> Optional[str]:
    """daemon-mixed: a tenant's served model and state match the CLI.

    ``cli_model``/``cli_state`` come from ``mine --stream --format edges
    --state-out`` over exactly the lines the daemon acknowledged for the
    tenant, in order.
    """
    if model != cli_model:
        return f"{tenant}: GET model differs from mine --stream stdout"
    if state != cli_state:
        return f"{tenant}: GET state differs from mine --stream --state-out"
    return None
