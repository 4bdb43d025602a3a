"""The benchmark's layer trace still finds every function it wraps.

benchmarks/layertrace.py names treekd functions by dotted path and counts a
missing one as absent; this suite fails first when a rename leaves a name
behind.  The file is read and executed in a fresh module object, so no
bytecode cache is written next to it.
"""

import types
from pathlib import Path

from treekd import cli, config_io, protocol  # cli imports every treekd module

LAYERTRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "layertrace.py"

STAR4 = """\
node 0
node 1
node 2
node 3
source 0
edge 0 1 weight=1 flip=0
edge 0 2 weight=1 flip=0
edge 0 3 weight=1 flip=0
param blocks=1
param seed=4
"""


def load_layertrace():
    module = types.ModuleType("layertrace")
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), module.__dict__)
    return module


def test_every_target_resolves_and_one_block_is_traced():
    layertrace = load_layertrace()
    unresolved = [t for t in layertrace.ALL_TARGETS if layertrace._resolve(t) is None]
    assert unresolved == []

    config = cli._protocol_config(config_io.parse_config(STAR4))
    tracer = layertrace.Tracer()
    assert tracer.absent == []
    result = tracer.record(0, lambda: protocol.run_block(config))
    counts = tracer.per_call()[0]
    assert result.status == "completed"
    assert counts["protocol.run_block.calls"] == 1
    assert counts["protocol.run_block.completed"] == 1
    rounds = 2 * config.code.m
    assert counts["subroutine.subroutine_round.calls"] == rounds
    assert counts["subroutine.reconstruct_assignment.calls"] == 1
    # render_rounds writes the rounds' lines, announcements and terminal
    # choices; every later line is one broadcast.
    broadcast_lines = len(result.transcript) - rounds * (len(config.announcers) + 1)
    assert counts["channel_sim.broadcast.calls"] == broadcast_lines
