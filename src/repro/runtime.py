"""Process-level runtime helpers shared by the CLI and the lint engine."""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore it.

    Ingest and mining build large graphs of acyclic objects (decoded
    records, executions, tuples and frozensets of ints).  Full
    collections traverse them again and again and reclaim nothing;
    reference counting frees them either way.  Code that does leave
    reference cycles behind (the workflow simulator) must not run
    inside the block: its garbage would pile up until exit.  The collector is
    re-enabled on exit only if it was enabled on entry, so nesting is
    safe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
