"""Run one ``repro-miner`` command in-process with layer spans recorded.

Usage::

    python3 perfbench/traced.py SPANS_JSON [repro-miner arguments...]

Imports ``repro.cli`` under a ``startup.import`` span, installs the
wrappers of :func:`tracing.instrument`, runs ``repro.cli.main(argv)``
(``serve`` included: the daemon drains on SIGTERM and ``main`` returns)
and writes every span and counter to ``SPANS_JSON`` at exit, with the
``perf_counter`` readings of the launcher's first statement and of
``main``'s return, so the parent can time interpreter start and exit on
the same clock.  The exit status is the command's.  ``PYTHONPATH``
must reach ``src``.
"""

import time

ENTERED = time.perf_counter()

import sys  # noqa: E402

from tracing import Tracer, instrument  # noqa: E402


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()

    def import_cli():
        import repro.cli

        return repro.cli

    cli = tracer.wrap(import_cli, "startup.import")()
    instrument(tracer)
    try:
        status = cli.main(command)
    finally:
        tracer.dump(
            spans_path,
            entered=ENTERED,
            returned=time.perf_counter(),
            **tracer.memo_counters(),
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
