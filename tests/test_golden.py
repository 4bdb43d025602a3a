"""Golden outputs: `treekd run` and `treekd sweep` reports pinned by SHA-256.

Identical config and seed must give byte-identical reports, across code
changes too: a change to RNG draw order, transcript rendering or report
formatting moves a digest.
"""

import hashlib

from treekd.cli import EXIT_OK, main

# 10 agents: a spanning tree of weight-1..3 edges, three heavier chords that
# Kruskal rejects, noisy links, and anti-correlated edges.
RUN_CONFIG = """\
node 0
node 1
node 2
node 3
node 4
node 5
node 6
node 7
node 8
node 9
source 0
source 3
source 6
source 8
edge 0 1 weight=1 flip=0.02
edge 0 3 weight=2 flip=0.01 anti
edge 3 4 weight=1 flip=0.03
edge 3 6 weight=3 flip=0.02
edge 2 6 weight=1 flip=0.01 anti
edge 5 6 weight=2 flip=0.04
edge 6 8 weight=1 flip=0.02
edge 7 8 weight=2 flip=0.03 anti
edge 8 9 weight=1 flip=0.01
edge 1 6 weight=7 flip=0.0
edge 4 8 weight=8 flip=0.0
edge 0 9 weight=9 flip=0.0 anti
param code=hamming7_4
param blocks=3
param delta=0.15
param seed=1
"""

RUN_DIGESTS = {
    "transcript.log": "1d0da1e78220e08f98632e14083646f528e023c713c4a17295aa6af71e0880e2",
    "summary.txt": "a14dc3dc1f6f21c8471faba9f8ca24dcf6bb16f63adc27ef9ba03e2ee7ccfb13",
    "efficiency.txt": "6fb77af0e6ab98ae82df10d4acc706f3ea0de426af47655f2c4fc2db2c969a79",
    "stats.txt": "fd38c701c6f07454ca9c859a09de215c47b813317dbb98389b25d3fb6a469f89",
}

SWEEP_CONFIG = """\
node 0
node 1
node 2
node 3
source 0
source 2
edge 0 1 weight=1 flip=0
edge 1 2 weight=2 flip=0 anti
edge 2 3 weight=1 flip=0
edge 0 3 weight=5 flip=0
param code=repetition5
param blocks=20
param delta=0.2
param seed=5
"""

SWEEP_DIGEST = "0289f0933fe652df7f6282104ada78e50af16031259236159a47e499c95d55cc"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_digests(tmp_path, config_text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
    return {name: _sha256(out_dir / name) for name in RUN_DIGESTS}


def test_run_outputs_match_golden(tmp_path, capsys):
    assert _run_digests(tmp_path, RUN_CONFIG) == RUN_DIGESTS


def test_run_outputs_ignore_anti_flags(tmp_path, capsys):
    # The endpoints correct anti-correlated links, so no output depends on
    # the flag: the config without any `anti` gives the same bytes.
    plain = RUN_CONFIG.replace(" anti", "")
    assert "anti" in RUN_CONFIG and "anti" not in plain
    assert _run_digests(tmp_path, plain) == RUN_DIGESTS


def test_sweep_table_matches_golden(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    out_dir = tmp_path / "sweep"
    argv = [
        "sweep", "--config", str(cfg), "--out", str(out_dir),
        "--flip-min", "0.0", "--flip-max", "0.15", "--flip-steps", "4",
    ]
    assert main(argv) == EXIT_OK
    assert _sha256(out_dir / "sweep.tsv") == SWEEP_DIGEST
