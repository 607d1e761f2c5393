"""Process-level behaviour of the CLI entry point.

One-shot commands run with the cyclic garbage collector paused and
restore it on the way out, whether the command returns or raises; the
daemon and the simulator-backed commands keep it running.
"""

import gc

import pytest

import repro.cli as cli
from repro.runtime import paused_gc


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _recording(seen, result=0, error=None):
    def command(args):
        seen.append(gc.isenabled())
        if error is not None:
            raise error
        return result

    return command


def test_collector_paused_during_command_and_restored(
    monkeypatch, collector_on
):
    seen = []
    monkeypatch.setattr(cli, "_cmd_stats", _recording(seen, result=0))
    assert cli.main(["stats", "unused.log"]) == 0
    assert seen == [False]
    assert gc.isenabled()


def test_collector_restored_when_command_raises(monkeypatch, collector_on):
    seen = []
    monkeypatch.setattr(
        cli, "_cmd_stats", _recording(seen, error=RuntimeError("boom"))
    )
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["stats", "unused.log"])
    assert seen == [False]
    assert gc.isenabled()


def test_collector_restored_after_handled_error(monkeypatch, collector_on):
    seen = []
    monkeypatch.setattr(
        cli, "_cmd_stats", _recording(seen, error=OSError("missing"))
    )
    assert cli.main(["stats", "unused.log"]) == 1
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "argv, handler",
    [
        (["serve", "unused-dir"], "_cmd_serve"),
        (["simulate", "unused.pm", "unused.log"], "_cmd_simulate"),
        (["generate", "unused.log"], "_cmd_generate"),
    ],
)
def test_collecting_commands_keep_the_collector_running(
    monkeypatch, collector_on, argv, handler
):
    seen = []
    monkeypatch.setattr(cli, handler, _recording(seen))
    assert cli.main(argv) == 0
    assert seen == [True]


def test_disabled_collector_stays_disabled(monkeypatch, collector_on):
    seen = []
    monkeypatch.setattr(cli, "_cmd_stats", _recording(seen))
    gc.disable()
    assert cli.main(["stats", "unused.log"]) == 0
    assert not gc.isenabled()


def test_paused_gc_nests():
    with paused_gc():
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()

