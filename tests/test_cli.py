import importlib.util
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edits, mutate, reference_parse_transcript
import treekd
from treekd import protocol
from treekd.cli import (
    EXIT_ALL_ABORTED,
    EXIT_CONFIG,
    EXIT_DISCONNECTED,
    EXIT_OK,
    main,
)
from treekd.config_io import ConfigError, load_config, parse_config
from treekd.eve_analysis import consistent_configurations
from treekd.linear_code import hamming_7_4

PATH3 = """\
node 0
node 1
node 2
source 1
edge 0 1 weight=1 flip=0
edge 1 2 weight=2 flip=0
"""

DISCONNECTED = """\
node 0
node 1
node 2
node 3
source 0
source 2
edge 0 1 weight=1
edge 2 3 weight=1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    return p


FUZZ_CONFIGS = [
    PATH3 + "param blocks=2\nparam delta=0.3\n",
    "# tree\nnode 0\nnode 1\nnode 2\nnode 3\nsource 1\nsource 3\n"
    "edge 0 1 weight=3/2 flip=0.01\nedge 1 2 weight=0.5 anti\n"
    "edge 2 3 weight=3/2 flip=0.02  # comment\nedge 0 3 weight=7\n"
    "param leader=1\nparam code=repetition3\nparam seed=4\nparam epsilon=0.1\n",
]


class TestParseConfig:
    def test_defaults(self):
        spec = parse_config(PATH3)
        assert spec.code == hamming_7_4()
        assert spec.delta == 0.05
        assert spec.epsilon == 0.05
        assert spec.leader == 0
        assert spec.graph.n == 3

    def test_delta_zero_rejected(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config(PATH3 + "param delta=0\n")

    def test_unknown_param_key(self):
        with pytest.raises(ConfigError, match="unknown param key"):
            parse_config(PATH3 + "param verbosity=9\n")

    def test_malformed_edge_line_has_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("node 0\nedge 0\nnode 1\n")

    def test_errors_are_collected(self):
        bad = "node 0\nnode 1\nedge 0 1 weight=-1\nparam delta=2\nparam bogus=1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.errors) == 3

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("edge 0 1 weight=1/0\n", "line 4: weight has a zero denominator"),
            ("param epsilon=nan\n", "line 4: param epsilon=nan must be finite and positive"),
            ("param epsilon=inf\n", "line 4: param epsilon=inf must be finite and positive"),
            ("param epsilon=0\n", "line 4: param epsilon=0.0 must be finite and positive"),
            ("node 2 3\n", "line 4: unexpected field '3'"),
            ("source 1 0\n", "line 4: unexpected field '0'"),
            ("param blocks=2 seed=5\n", "line 4: unexpected field 'seed=5'"),
            ("edge 0 1 flip=0.01 flip=0.02\n", "line 4: repeated edge attribute 'flip'"),
            ("edge 0 1 anti anti\n", "line 4: repeated edge attribute 'anti'"),
            ("edge 0 1 weight=2 weight=3\n", "line 4: repeated edge attribute 'weight'"),
            ("param seed=1\nparam seed=2\n", "line 5: param seed already set on line 4"),
            ("node\n", "line 4: node needs an agent id"),
            ("source\n", "line 4: source needs an agent id"),
            ("edge 0\n", "line 4: edge needs two agent ids"),
            ("param blocks\n", "line 4: param needs key=value"),
            ("param\n", "line 4: param needs key=value"),
            ("param verbosity=9\n", "line 4: unknown param key 'verbosity'"),
            ("param blocks=x\n", "line 4: param blocks must be an integer, got 'x'"),
            ("param delta=abc\n", "line 4: param delta must be a number, got 'abc'"),
            ("param blocks=0\n", "line 4: param blocks=0 must be >= 1"),
            ("param leader=5\n", "line 4: param leader=5 is not an agent id"),
            ("param code=golay\n", "line 4: unknown code name 'golay'"),
            ("param code=repetition4\n",
             "line 4: bad repetition code name 'repetition4': "
             "repetition length must be odd and positive"),
            ("edge 0 1 colour=red\n", "line 4: unknown edge attribute 'colour=red'"),
            ("edge -1 0\n", "line 4: agent ids must be non-negative"),
            ("vertex 3\n", "line 4: unknown record kind 'vertex'"),
            ("node 1\n", "line 4: node 1 already declared on line 2"),
            ("node 3\n", "node ids must be dense 0..n-1, each declared once"),
            ("node -1\n", "line 4: agent ids must be non-negative"),
            ("source -1\n", "line 4: agent ids must be non-negative"),
            ("node \u0662\n", "line 4: '\u0662' is not a plain ASCII number"),
            ("param blocks=1_0\n", "line 4: param blocks must be an integer, got '1_0'"),
            ("param seed=\u0661\n", "line 4: param seed must be an integer, got '\u0661'"),
            ("param leader=+1\n", "line 4: param leader must be an integer, got '+1'"),
            ("edge 0 1 weight=\u0661\u0660\n",
             "line 4: '\u0661\u0660' is not a plain ASCII number"),
            ("edge 0 1 flip=0_0.1\n", "line 4: '0_0.1' is not a plain ASCII number"),
            ("param delta=0_0.2\n", "line 4: param delta must be a number, got '0_0.2'"),
            ("edge 0 1 weight=1e3\n", "line 4: weight '1e3' has an exponent"),
            ("edge 0 1 weight=1E-3\n", "line 4: weight '1E-3' has an exponent"),
            # Fraction() alone would build 10**9999999 for seconds first.
            ("edge 0 1 weight=1e9999999\n", "line 4: weight '1e9999999' has an exponent"),
            ("param code=repetition+3\n",
             "line 4: bad repetition code name 'repetition+3': "
             "length '+3' is not a canonical ASCII number"),
            ("param code=repetition03\n",
             "line 4: bad repetition code name 'repetition03': "
             "length '03' is not a canonical ASCII number"),
            ("param code=repetition0_3\n",
             "line 4: bad repetition code name 'repetition0_3': "
             "length '0_3' is not a canonical ASCII number"),
            ("param code=repetition\u0663\n",
             "line 4: bad repetition code name 'repetition\u0663': "
             "length '\u0663' is not a canonical ASCII number"),
            ("param code=repetition\n",
             "line 4: bad repetition code name 'repetition': "
             "length '' is not a canonical ASCII number"),
            # U+2028 does not end the comment, so the param stays in it.
            ("# note\u2028param leader=5\nvertex 3\n",
             "line 5: unknown record kind 'vertex'"),
        ],
        ids=["zero-denominator", "epsilon-nan", "epsilon-inf", "epsilon-zero",
             "node-extra-field", "source-extra-field", "param-extra-field",
             "edge-repeated-flip", "edge-repeated-anti", "edge-repeated-weight",
             "param-repeated", "node-missing-id", "source-missing-id",
             "edge-missing-id", "param-missing-value", "param-missing-key-value",
             "param-unknown-key", "param-blocks-not-integer", "param-delta-not-number",
             "param-blocks-zero", "param-leader-not-agent", "param-code-unknown",
             "param-code-even-repetition", "edge-unknown-attribute",
             "edge-negative-id", "unknown-record-kind", "node-repeated", "node-gap",
             "node-negative-id", "source-negative-id", "node-arabic-indic-digit", "param-blocks-underscore",
             "param-seed-arabic-indic-digit", "param-leader-plus-sign",
             "edge-weight-arabic-indic-digits", "edge-flip-underscore",
             "param-delta-underscore", "edge-weight-exponent", "edge-weight-upper-exponent",
             "edge-weight-huge-exponent", "param-code-repetition-plus-sign",
             "param-code-repetition-leading-zero", "param-code-repetition-underscore",
             "param-code-repetition-arabic-indic-digit", "param-code-repetition-no-length",
             "comment-hides-param-after-ls"],
    )
    def test_bad_number_exits_1_with_error(self, tmp_path, capsys, extra, message):
        # Each case is exactly one error: a value that fails to convert
        # gets no follow-on range error.
        text = "node 0\nnode 1\nsource 0\n" + extra
        with pytest.raises(ConfigError, match=re.escape(message)) as err:
            parse_config(text)
        assert len(err.value.errors) == 1, err.value.errors
        cfg = write(tmp_path, "bad.cfg", text)
        for command in ("plan", "run"):
            assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"error: {message}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "extra, errors",
        [
            ("edge 0 1 weight\n", ["line 4: unknown edge attribute 'weight'"]),
            ("edge 0 1 flip=\n", ["line 4: could not convert string to float: ''"]),
            ("edge 0 1 anti=1\n", ["line 4: unknown edge attribute 'anti=1'"]),
            ("edge 0 1 weight=2=3\n", ["line 4: Invalid literal for Fraction: '2=3'"]),
            # A text that fails to parse is parsed again on each of its lines.
            ("edge 0 1 weight=1/0\nedge 0 1 weight=1/0\n",
             ["line 4: weight has a zero denominator",
              "line 5: weight has a zero denominator"]),
            ("edge 0 1_0\nedge 1 1_0\n",
             ["line 4: '1_0' is not a plain ASCII number",
              "line 5: '1_0' is not a plain ASCII number"]),
        ],
        ids=["weight-without-value", "flip-empty-value", "anti-with-value",
             "weight-value-with-equals", "zero-denominator-on-two-lines",
             "bad-agent-id-on-two-lines"],
    )
    def test_edge_field_errors(self, extra, errors):
        # Each agent id and weight text is parsed once per file; every line
        # still gets the error it got when each line was parsed on its own.
        with pytest.raises(ConfigError) as err:
            parse_config("node 0\nnode 1\nsource 0\n" + extra)
        assert err.value.errors == errors

    def test_repeated_texts_give_equal_values(self):
        spec = parse_config(
            "node 0\nnode 1\nnode 2\nnode 3\nsource 1\nsource 2\n"
            "edge 0 1 weight=3/2\nedge 1 2 weight=0.5\nedge 2 3 weight=3/2\n"
        )
        assert [(e.key, e.weight) for e in spec.graph.edges] == [
            ((0, 1), Fraction(3, 2)), ((1, 2), Fraction(1, 2)), ((2, 3), Fraction(3, 2)),
        ]
        assert all(type(e.weight) is Fraction for e in spec.graph.edges)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from(FUZZ_CONFIGS),
        changes=edits("0123456789 -_/.=#\n\tabdefgilnoprstwx+\u0662\u00b2"),
    )
    def test_mutated_config_raises_only_config_error(self, base, changes):
        # A config that does not parse is a ConfigError, never any other
        # exception: the CLI turns only that into a line-numbered error.
        # Its line-numbered errors come in line order, then those of no line.
        try:
            parse_config(mutate(base, changes))
        except ConfigError as exc:
            assert exc.errors
            lines = [
                int(m[1]) if (m := re.match(r"line (\d+): ", e)) else float("inf")
                for e in exc.errors
            ]
            assert lines == sorted(lines), exc.errors

    def test_records_may_name_nodes_declared_later(self):
        spec = parse_config("source 0\nedge 0 1\nnode 0\nnode 1\n")
        assert spec.graph.n == 2
        assert spec.graph.sources == {0}
        assert [e.key for e in spec.graph.edges] == [(0, 1)]

    def test_unknown_agent_is_an_undeclared_one(self):
        # Agent 2 is declared, so only agent 1 is unknown, on each line
        # that names it, in line order before the graph-wide error.
        with pytest.raises(ConfigError) as err:
            parse_config("node 0\nnode 2\nsource 1\nedge 0 1\nedge 0 2\nedge 1 2\n")
        assert err.value.errors == [
            "line 3: source 1 is not a valid agent id",
            "line 4: edge (0, 1) references unknown agent 1",
            "line 6: edge (1, 2) references unknown agent 1",
            "node ids must be dense 0..n-1, each declared once",
        ]

    def test_errors_come_in_line_order(self):
        # An endpoint check made once every line is read, a param's range
        # check and a record error, each listed by its line.
        with pytest.raises(ConfigError) as err:
            parse_config("node 0\nnode 1\nsource 0\nedge 0 5\nparam blocks=0\nvertex 3\n")
        assert err.value.errors == [
            "line 4: edge (0, 5) references unknown agent 5",
            "line 5: param blocks=0 must be >= 1",
            "line 6: unknown record kind 'vertex'",
        ]

    def test_edge_without_source_and_bad_param_reported_together(self):
        # The no-source edge is a record error like any other, so a param
        # error no longer hides it: both come, in line order.
        with pytest.raises(ConfigError) as err:
            parse_config(PATH3.replace("source 1", "source 0") + "param blocks=0\n")
        assert err.value.errors == [
            "line 6: edge (1, 2) has no endpoint in the source set",
            "line 7: param blocks=0 must be >= 1",
        ]

    def test_anti_flag_is_dropped(self):
        # The endpoints correct an anti link, so the parser keeps nothing of it.
        anti = parse_config("node 0\nnode 1\nsource 0\nedge 0 1 anti flip=0.01\n")
        plain = parse_config("node 0\nnode 1\nsource 0\nedge 0 1 flip=0.01\n")
        assert anti.graph.edges == plain.graph.edges

    def test_missing_file_names_path(self, tmp_path, capsys):
        rc = main(["plan", "--config", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_CONFIG


class TestPlan:
    def test_triangle(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "tri.cfg",
            "node 0\nnode 1\nnode 2\nsource 0\nsource 1\nsource 2\n"
            "edge 0 1 weight=1\nedge 1 2 weight=2\nedge 0 2 weight=3\n",
        )
        assert main(["plan", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "agents: 3\n"
            "minimum spanning security tree:\n"
            "  edge 0 1 weight=1\n"
            "  edge 1 2 weight=2\n"
            "total weight: 3\n"
            "terminal agents: 0,2\n"
        )

    def test_fractional_and_repeated_weights(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "frac.cfg",
            "node 0\nnode 1\nnode 2\nnode 3\nsource 1\nsource 2\n"
            "edge 0 1 weight=3/2\nedge 1 2 weight=0.5\nedge 2 3 weight=3/2\n",
        )
        assert main(["plan", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "agents: 4\n"
            "minimum spanning security tree:\n"
            "  edge 1 2 weight=1/2\n"
            "  edge 0 1 weight=3/2\n"
            "  edge 2 3 weight=3/2\n"
            "total weight: 7/2\n"
            "terminal agents: 0,3\n"
        )

    def test_star_hub_sole_non_terminal(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "star.cfg",
            "node 0\nnode 1\nnode 2\nnode 3\nsource 0\n"
            "edge 0 1\nedge 0 2\nedge 0 3\n",
        )
        assert main(["plan", "--config", str(cfg)]) == EXIT_OK
        assert "terminal agents: 1,2,3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"],
    )
    def test_comment_runs_to_the_line_break(self, tmp_path, capsys, brk):
        # str.splitlines() ends a line at brk too, which would bring the
        # commented-out weight-0 edge into the tree.
        text = "node 0\nnode 1\nnode 2\nsource 0\nsource 1\nedge 0 1\nedge 1 2\n"
        cfg = write(tmp_path, "c.cfg", text + f"# old link, removed:{brk}edge 0 2 weight=0\n")
        assert main(["plan", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "  edge 0 1 weight=1\n  edge 1 2 weight=1\ntotal weight: 2\n" in out

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_each_line_break_ends_a_record(self, tmp_path, capsys, end):
        lines = ["node 0", "node 1", "node 2", "source 0", "source 1",
                 "edge 0 1", "edge 1 2", "edge 0 2 weight=0  # kept", ""]
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(end.join(lines).encode())
        assert main(["plan", "--config", str(cfg)]) == EXIT_OK
        assert "total weight: 1\n" in capsys.readouterr().out

    def test_disconnected_names_components(self, tmp_path, capsys):
        cfg = write(tmp_path, "disc.cfg", DISCONNECTED)
        assert main(["plan", "--config", str(cfg)]) == EXIT_DISCONNECTED
        err = capsys.readouterr().err
        assert "{0,1}" in err and "{2,3}" in err

    def test_total_weight_too_long_to_print_leaves_stdout_empty(self, tmp_path, capsys):
        # Six weights with 1000-digit denominators sum to a total whose
        # denominator has more digits than Python turns into text.
        rng = random.Random(7)
        cfg = write(tmp_path, "big.cfg", "".join(f"node {v}\n" for v in range(7))
                    + "source 0\n" + "".join(
                        f"edge 0 {v} weight=1/{rng.randrange(10**999, 10**1000)}\n"
                        for v in range(1, 7)))
        assert main(["plan", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: total weight has more than {sys.get_int_max_str_digits()} digits\n"
        )

    def test_run_options_rejected(self, tmp_path, capsys):
        # plan neither writes files nor draws randomness.
        cfg = write(tmp_path, "p.cfg", PATH3)
        out_dir = tmp_path / "out"
        for option in (["--out", str(out_dir)], ["--seed", "3"]):
            assert main(["plan", "--config", str(cfg), *option]) == EXIT_CONFIG
        assert not out_dir.exists()


class TestRun:
    def test_noiseless_ten_blocks(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", PATH3 + "param blocks=10\nparam seed=1\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        stats = (out_dir / "stats.txt").read_text()
        assert "completed=10" in stats
        assert "agreement_rate=1" in stats
        assert (out_dir / "transcript.log").exists()
        assert (out_dir / "summary.txt").read_text().count("status=completed") == 10

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", PATH3 + "param blocks=5\nparam seed=4\n")
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
            outs.append(
                {
                    f.name: f.read_bytes()
                    for f in sorted(out_dir.iterdir())
                }
            )
        assert outs[0] == outs[1]

    def test_seed_flag_changes_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", PATH3 + "param blocks=3\n")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--seed", "1", "--out", str(a)])
        main(["run", "--config", str(cfg), "--seed", "2", "--out", str(b)])
        assert (a / "transcript.log").read_bytes() != (b / "transcript.log").read_bytes()

    def test_all_aborted_exit_code(self, tmp_path, capsys):
        noisy = PATH3.replace("flip=0", "flip=0.45")
        cfg = write(
            tmp_path, "noisy.cfg", noisy + "param blocks=5\nparam delta=0.01\n"
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_ALL_ABORTED
        assert "aborted=5" in capsys.readouterr().out


class TestAnalyze:
    def run_and_analyze(self, tmp_path, capsys, config_text, tamper=None):
        cfg = write(tmp_path, "a.cfg", config_text)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        log = out_dir / "transcript.log"
        if tamper:
            log.write_text(tamper(log.read_text()))
        capsys.readouterr()
        rc = main(
            ["analyze", "--transcript", str(log), "--config", str(cfg)]
        )
        return rc, capsys.readouterr().out

    def test_honest_transcript_passes(self, tmp_path, capsys):
        rc, out = self.run_and_analyze(
            tmp_path, capsys, PATH3 + "param blocks=2\nparam seed=3\n"
        )
        assert rc == EXIT_OK
        assert "PASS" in out
        assert "configurations=2" in out

    def test_structurally_tampered_transcript_fails(self, tmp_path, capsys):
        def tamper(text):
            # relabel one announced edge so the record no longer matches
            # the sender's incident edges
            return text.replace("(1,2):", "(0,2):", 1)

        rc, out = self.run_and_analyze(
            tmp_path, capsys, PATH3 + "param blocks=1\nparam seed=3\n", tamper
        )
        assert rc == EXIT_CONFIG
        assert "FAIL" in out
        assert "configurations=0" in out

    def test_two_agents_trivially_secure(self, tmp_path, capsys):
        cfg2 = "node 0\nnode 1\nsource 0\nedge 0 1 flip=0\n"
        rc, out = self.run_and_analyze(
            tmp_path, capsys, cfg2 + "param blocks=1\nparam seed=1\n"
        )
        assert rc == EXIT_OK
        assert "PASS" in out

    STAR21 = "".join(f"node {v}\n" for v in range(21)) + "source 0\n" + "".join(
        f"edge 0 {v}\n" for v in range(1, 21)
    )
    ANNOUNCE = "0 1 announcement (0,1):0,(1,2):1\n"

    @pytest.mark.parametrize(
        "graph, transcript, message",
        [
            (PATH3, ANNOUNCE + "2 0 terminal_choice 0\n",
             "transcript line 2: expected seq 1, got 2"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 1\n",
             "block 0 round 0: agent 1 is not terminal"),
            (PATH3, ANNOUNCE,
             "transcript line 1: round has no terminal_choice"),
            (PATH3, "# block 0\n" + ANNOUNCE + "1 0 check_positions 0\n",
             "transcript line 3: round from line 2 has no terminal_choice"),
            (PATH3, "# block 0\n" + ANNOUNCE + "1 1 announcement (0,1):0,(1,2):0\n"
             "2 0 terminal_choice 0\n",
             "transcript line 3: round from line 2 has a second announcement "
             "from agent 1"),
            (PATH3,
             "0 1 announcement (0,1):0,(0,1):1,(1,2):0\n1 0 terminal_choice 0\n",
             "transcript line 1: announcement repeats an edge: "
             "'(0,1):0,(0,1):1,(1,2):0'"),
            (PATH3,
             "0 1 announcement (0,1):0 junk (1,2):1 more\n1 0 terminal_choice 0\n",
             "transcript line 1: malformed announcement payload "
             "'(0,1):0 junk (1,2):1 more'"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:1/0\n",
             "transcript line 3: abort mismatch '1/0' has a zero denominator"),
            (PATH3, "1 0 terminal_choice 1\n",
             "transcript line 1: stream starts at seq 1"),
            (PATH3, "", "transcript has no rounds"),
            (PATH3, "# block 0\n", "transcript has no rounds"),
            (PATH3, "0 0 gossip x\n", "transcript line 1: unknown kind 'gossip'"),
            # --config goes through the run-config loader, params included.
            (PATH3 + "param blocks=0\n", ANNOUNCE + "1 0 terminal_choice 0\n",
             "line 7: param blocks=0 must be >= 1"),
            # Numbers are read only as the engine writes them; int() alone
            # reads each of these as a valid number.
            (PATH3, "00 1 announcement (0,1):0,(1,2):1\n1 0 terminal_choice 0\n",
             "transcript line 1: seq '00' is not a canonical ASCII number"),
            (PATH3, "0 +1 announcement (0,1):0,(1,2):1\n1 0 terminal_choice 0\n",
             "transcript line 1: sender '+1' is not a canonical ASCII number"),
            (PATH3, "0 0_1 announcement (0,1):0,(1,2):1\n1 0 terminal_choice 0\n",
             "transcript line 1: sender '0_1' is not a canonical ASCII number"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice \u0662\n",
             "transcript line 2: terminal choice '\u0662' is not a canonical "
             "ASCII number"),
            (PATH3, "0 1 announcement (\u0660,1):0,(1,2):1\n1 0 terminal_choice 0\n",
             "transcript line 1: malformed announcement payload "
             "'(\u0660,1):0,(1,2):1'"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 check_positions 0,01\n",
             "transcript line 3: check position '01' is not a canonical ASCII number"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort +1:1/7\n",
             "transcript line 3: abort agent '+1' is not a canonical ASCII number"),
            # A mismatch is read only as str() writes a Fraction in [0, 1];
            # Fraction() alone reads each of these as a valid rational.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:2/4,2:0\n",
             "transcript line 3: abort mismatch '2/4' is not a canonical fraction"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:-1/7,2:0\n",
             "transcript line 3: abort mismatch '-1/7' is not a canonical fraction"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:8/7,2:0\n",
             "transcript line 3: abort mismatch '8/7' is not a canonical fraction"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:\u0663/7,2:0\n",
             "transcript line 3: abort mismatch '\u0663/7' is not a canonical fraction"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:0.5,2:0\n",
             "transcript line 3: abort mismatch '0.5' is not a canonical fraction"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:+1/7,2:0\n",
             "transcript line 3: abort mismatch '+1/7' is not a canonical fraction"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:1_0/7,2:0\n",
             "transcript line 3: abort mismatch '1_0/7' is not a canonical fraction"),
            # Fraction() alone would first build 10**99999999, for minutes.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:1e99999999,2:0\n",
             "transcript line 3: abort mismatch '1e99999999' is not a canonical fraction"),
            # Read as a dict, the second value would silently replace the first.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:0,1:1/7\n",
             "transcript line 3: abort names agent 1 twice"),
            # Positions and abort agents are read only in the ascending
            # order format_payload writes them in.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 check_positions 3,1,1\n",
             "transcript line 3: check positions '3,1,1' are not strictly ascending"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 check_positions 1,1\n",
             "transcript line 3: check positions '1,1' are not strictly ascending"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 2:0,1:1/7\n",
             "transcript line 3: abort agents '2:0,1:1/7' are not strictly ascending"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:2:3\n",
             "transcript line 3: malformed abort item '1:2:3'"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1\n",
             "transcript line 3: malformed abort item '1'"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:0,\n",
             "transcript line 3: malformed abort item ''"),
            # Not digits at all: the error names the field, not int()'s text.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort x:1/7\n",
             "transcript line 3: abort agent 'x' is not a canonical ASCII number"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort :1/7\n",
             "transcript line 3: abort agent '' is not a canonical ASCII number"),
            (PATH3, "x 1 announcement (0,1):0,(1,2):1\n1 0 terminal_choice 0\n",
             "transcript line 1: seq 'x' is not a canonical ASCII number"),
            (PATH3, "0 x announcement (0,1):0,(1,2):1\n1 0 terminal_choice 0\n",
             "transcript line 1: sender 'x' is not a canonical ASCII number"),
            # A short line's error names its first bad field, in field order.
            (PATH3, "00\n", "transcript line 1: seq '00' is not a canonical ASCII number"),
            (PATH3, "0\n", "transcript line 1: sender '' is not a canonical ASCII number"),
            (PATH3, "0 1\n", "transcript line 1: unknown kind ''"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 check_positions 1,,2\n",
             "transcript line 3: check position '' is not a canonical ASCII number"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice\n",
             "transcript line 2: terminal choice '' is not a canonical ASCII number"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 7\n",
             "block 0 round 0: agent 7 is not terminal"),
            # The report is written only once the last block certifies, so
            # the certified round before the error prints nothing.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n"
             "2 1 announcement (0,1):1,(1,2):0\n3 0 terminal_choice 1\n",
             "block 0 round 1: agent 1 is not terminal"),
            # The config names the leader (0 by default); only it chooses.
            (PATH3, ANNOUNCE + "1 2 terminal_choice 0\n",
             "block 0 round 0: terminal_choice from agent 2, not the leader 0"),
            (PATH3 + "param leader=2\n", ANNOUNCE + "1 0 terminal_choice 0\n",
             "block 0 round 0: terminal_choice from agent 0, not the leader 2"),
            # A block's rounds come before its check phase; nothing that
            # follows a check or abort message may open or close a round.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 check_positions 0\n"
             "3 1 announcement (0,1):0,(1,2):1\n4 0 terminal_choice 0\n",
             "transcript line 4: announcement after the block's rounds"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:0,2:0\n"
             "3 0 terminal_choice 2\n",
             "transcript line 4: terminal_choice after the block's rounds"),
            # An abort or code_broadcast is the block's outcome: nothing
            # follows it until the next block's seq 0.
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 code_broadcast 1111000\n"
             "3 0 code_broadcast 0000000\n",
             "transcript line 4: code_broadcast after the block's outcome"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 code_broadcast 1111000\n"
             "3 2 check_values 0000000\n",
             "transcript line 4: check_values after the block's outcome"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 code_broadcast 1111000\n"
             "3 0 abort 1:0,2:0\n",
             "transcript line 4: abort after the block's outcome"),
            (PATH3, ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:0,2:0\n"
             "3 0 check_positions 0\n",
             "transcript line 4: check_positions after the block's outcome"),
            (PATH3, ANNOUNCE.encode() + b"1 0 terminal_choice \xff\n",
             "transcript line 2: byte 0xff is not UTF-8 text"),
            # Only LF, CRLF and CR end a line, so each comment below runs
            # past its NEL, LS, FF or PS to the line's end.
            (PATH3, "# block 0\x85" + ANNOUNCE + "1 0 terminal_choice 0\n",
             "transcript line 2: stream starts at seq 1"),
            (PATH3, ANNOUNCE + "# end\u20281 0 terminal_choice 0\n",
             "transcript line 1: round has no terminal_choice"),
            (PATH3, "# a\x0cb\n" + ANNOUNCE + "2 0 terminal_choice 0\n",
             "transcript line 3: expected seq 1, got 2"),
            (PATH3, "# a\u2029b\n".encode() + ANNOUNCE.encode() + b"1 0 terminal_choice \xff\n",
             "transcript line 3: byte 0xff is not UTF-8 text"),
        ],
        ids=["sequence-gap", "non-terminal-choice",
             "unclosed-round-at-end", "unclosed-round-before-check",
             "duplicate-announcement", "repeated-edge-key",
             "text-between-announcement-items", "abort-zero-denominator",
             "stream-starts-past-0", "empty-transcript",
             "comment-only-transcript", "unknown-kind", "config-param-error",
             "seq-leading-zero", "sender-plus-sign", "sender-underscore",
             "terminal-choice-arabic-indic-digit", "announcement-arabic-indic-digit",
             "check-position-leading-zero", "abort-agent-plus-sign",
             "abort-mismatch-not-lowest-terms", "abort-mismatch-negative",
             "abort-mismatch-above-1", "abort-mismatch-arabic-indic-digit",
             "abort-mismatch-decimal", "abort-mismatch-plus-sign",
             "abort-mismatch-underscore", "abort-mismatch-exponent", "abort-agent-twice",
             "check-positions-descending", "check-positions-repeated",
             "abort-agents-descending", "abort-item-three-fields", "abort-item-no-mismatch",
             "abort-item-after-trailing-comma", "abort-agent-letter",
             "abort-agent-empty", "seq-letter", "sender-letter",
             "short-line-seq-only-not-canonical", "short-line-seq-only",
             "short-line-no-kind",
             "check-position-empty", "terminal-choice-empty",
             "terminal-choice-not-an-agent", "second-round-choice-not-terminal",
             "terminal-choice-from-non-leader",
             "terminal-choice-from-default-leader-under-leader-2",
             "announcement-after-check-phase", "terminal-choice-after-abort",
             "code-broadcast-after-code-broadcast", "check-values-after-code-broadcast",
             "abort-after-code-broadcast", "check-positions-after-abort",
             "not-utf8-transcript", "comment-hides-announcement-after-nel",
             "comment-hides-terminal-choice-after-ls", "comment-with-form-feed-keeps-line-numbers",
             "not-utf8-transcript-after-ps-in-comment"],
    )
    def test_malformed_transcript_exits_1_with_error(
        self, tmp_path, capsys, graph, transcript, message
    ):
        cfg = write(tmp_path, "g.cfg", graph)
        log = write(tmp_path, "t.log", transcript)
        rc = main(["analyze", "--transcript", str(log), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    # Agent 1 announces over two edges and agent 2 over three; 0, 3 and 4
    # are terminals, and 0 leads.
    FORK5 = "".join(f"node {v}\n" for v in range(5)) + (
        "source 1\nsource 2\nedge 0 1\nedge 1 2\nedge 2 3\nedge 2 4\n"
    )
    # Each round as its (sender, payload) records, honest or tampered.
    FORK5_ROUNDS = {
        "honest": [(1, "(0,1):0,(1,2):1"), (2, "(1,2):0,(2,3):1,(2,4):1")],
        "honest-flipped": [(1, "(0,1):1,(1,2):0"), (2, "(1,2):0,(2,3):1,(2,4):1")],
        "missing-announcer": [(1, "(0,1):0,(1,2):1")],
        "terminal-announces": [
            (1, "(0,1):0,(1,2):1"), (2, "(1,2):0,(2,3):1,(2,4):1"), (3, "(2,3):0"),
        ],
        "extra-edge": [(1, "(0,1):0,(1,2):1,(2,3):0"), (2, "(1,2):0,(2,3):1,(2,4):1")],
        "missing-edge": [(1, "(0,1):0,(1,2):1"), (2, "(1,2):0,(2,3):1")],
    }

    def fork5_counts(self, tmp_path, capsys, blocks):
        """analyze's per-round counts on a FORK5 log of the named rounds,
        block by block, and each round's count by a fresh
        consistent_configurations call on the oracle parser's rounds."""
        lines = []
        for b, names in enumerate(blocks):
            lines.append(f"# block {b}")
            seq = 0
            for r, name in enumerate(names):
                for sender, payload in self.FORK5_ROUNDS[name]:
                    lines.append(f"{seq} {sender} announcement {payload}")
                    seq += 1
                lines.append(f"{seq} 0 terminal_choice {(3, 4)[r % 2]}")
                seq += 1
        cfg = write(tmp_path, "fork5.cfg", self.FORK5)
        log = write(tmp_path, "fork5.log", "\n".join(lines) + "\n")
        rc = main(["analyze", "--transcript", str(log), "--config", str(cfg)])
        report = capsys.readouterr().out.splitlines()
        tree = load_config(cfg).tree
        fresh = [
            consistent_configurations(announcements, tree)
            for block in reference_parse_transcript(lines)
            for announcements, _, _ in block.rounds
        ]
        assert len(report) == len(fresh) + 1
        counts = []
        for line, (b, r) in zip(report, [(b, r) for b, names in enumerate(blocks)
                                          for r in range(len(names))]):
            prefix, _, count = line.partition(": configurations=")
            count, _, entropy = count.partition(" entropy=")
            assert prefix == f"block {b} round {r}"
            assert entropy == ("1.000000" if int(count) else "0.000000")
            counts.append(int(count))
        ok = all(count == 2 for count in fresh)
        assert rc == (EXIT_OK if ok else EXIT_CONFIG)
        assert report[-1].startswith(f"{'PASS' if ok else 'FAIL'}: {len(fresh)} rounds")
        return counts, fresh

    @pytest.mark.parametrize(
        "blocks",
        [
            # One record text in rounds 0 and 2, and agent 2's records over
            # three edges, then two, then three again.
            [["honest", "missing-edge", "honest"]],
            # Agent 1 over two edges, then three; agent 3 only in round 1.
            [["honest-flipped", "extra-edge", "terminal-announces", "honest"]],
            # The same texts in two blocks, an invalid record first.
            [["missing-edge", "missing-announcer"], ["honest", "missing-edge"]],
        ],
        ids=["reused-text-and-changing-edge-set", "extra-edge-then-honest", "two-blocks"],
    )
    def test_counts_equal_a_fresh_count_per_round(self, tmp_path, capsys, blocks):
        counts, fresh = self.fork5_counts(tmp_path, capsys, blocks)
        assert counts == fresh
        assert len(set(fresh)) > 1

    def test_counts_on_random_round_sequences(self, tmp_path, capsys):
        rng = random.Random(36)
        names = sorted(self.FORK5_ROUNDS)
        for _ in range(60):
            blocks = [
                [rng.choice(names) for _ in range(rng.randrange(1, 5))]
                for _ in range(rng.randrange(1, 4))
            ]
            counts, fresh = self.fork5_counts(tmp_path, capsys, blocks)
            assert counts == fresh, blocks

    def test_noisy_tree_of_21_agents_passes(self, tmp_path, capsys):
        noisy = "".join(f"node {v}\nsource {v}\n" for v in range(21)) + "".join(
            f"edge {(v - 1) // 2} {v} flip=0.01\n" for v in range(1, 21)
        )
        rc, out = self.run_and_analyze(
            tmp_path, capsys, noisy + "param blocks=2\nparam delta=0.3\nparam seed=5\n"
        )
        assert rc == EXIT_OK
        rounds = out.splitlines()[:-1]
        assert len(rounds) == 2 * 14
        assert all(line.endswith(": configurations=2 entropy=1.000000") for line in rounds)
        assert out.splitlines()[-1].startswith("PASS: 28 rounds")

    def test_star21_without_hub_announcement_fails(self, tmp_path, capsys):
        cfg = write(tmp_path, "g.cfg", self.STAR21)
        log = write(tmp_path, "t.log", "0 0 terminal_choice 1\n")
        rc = main(["analyze", "--transcript", str(log), "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == EXIT_CONFIG
        assert "block 0 round 0: configurations=1048576 entropy=1.000000" in out
        assert "FAIL" in out


class TestGraphErrors:
    COMMAND_ARGS = {
        "plan": [],
        "run": [],
        "sweep": ["--flip-min", "0", "--flip-max", "0.1", "--flip-steps", "2"],
        "analyze": ["--transcript", "{log}"],
    }

    @pytest.mark.parametrize("command", ["plan", "run", "sweep", "analyze"])
    @pytest.mark.parametrize(
        "graph, status, errors",
        [
            ("", EXIT_CONFIG, ["agent count 0 < 2", "source set is empty"]),
            ("node 0\nsource 0\n", EXIT_CONFIG, ["agent count 1 < 2"]),
            ("node 0\nnode 1\nsource 0\nedge 0 5\n", EXIT_CONFIG,
             ["line 4: edge (0, 5) references unknown agent 5"]),
            ("node 0\nnode 1\nsource 0\nedge 0 1\nedge 1 1\n", EXIT_CONFIG,
             ["line 5: self-loop at agent 1"]),
            ("node 0\nnode 1\nsource 0\nedge 0 1\nedge 1 0\n", EXIT_CONFIG,
             ["line 5: duplicate edge (0, 1), first on line 4"]),
            ("node 0\nnode 1\nsource 0\nsource 5\nedge 0 1\n", EXIT_CONFIG,
             ["line 4: source 5 is not a valid agent id"]),
            (PATH3.replace("source 1", "source 0"), EXIT_CONFIG,
             ["line 6: edge (1, 2) has no endpoint in the source set"]),
            (DISCONNECTED, EXIT_DISCONNECTED,
             ["security graph is disconnected: components {0,1}; {2,3}"]),
            (b"node 0\nnode 1\nsource 0\r\nedge 0 1 weight=\xff\n", EXIT_CONFIG,
             ["line 4: byte 0xff is not UTF-8 text"]),
            # A 7-line config: U+2028 leaves the param in its comment.
            ("node 0\nnode 1\nnode 2\nsource 0\nedge 0 1\nedge 1 2\n"
             "# note\u2028param leader=5\n", EXIT_CONFIG,
             ["line 6: edge (1, 2) has no endpoint in the source set"]),
            ("node 0\nnode 1\n# x\x85y\nsource 0\nedge 0 1 weight=\xff\n".encode("latin-1")
             .replace(b"\x85", b"\xc2\x85"), EXIT_CONFIG,
             ["line 5: byte 0xff is not UTF-8 text"]),
        ],
        ids=["empty-config", "one-agent", "unknown-agent", "self-loop",
             "duplicate-edge", "source-not-agent", "edge-without-source",
             "disconnected", "not-utf8-config", "comment-hides-param-after-ls",
             "not-utf8-config-after-nel-in-comment"],
    )
    def test_violation_exits_with_errors_on_stderr(
        self, tmp_path, capsys, command, graph, status, errors
    ):
        cfg = write(tmp_path, "g.cfg", graph)
        log = write(tmp_path, "t.log", "")
        extra = [a.format(log=log) for a in self.COMMAND_ARGS[command]]
        assert main([command, "--config", str(cfg), *extra]) == status
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {e}" for e in errors]
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestSweep:
    def test_table_and_monotonicity(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "s.cfg", PATH3 + "param blocks=200\nparam delta=0.08\n"
        )
        out_dir = tmp_path / "sweep"
        rc = main(
            [
                "sweep", "--config", str(cfg), "--out", str(out_dir),
                "--flip-min", "0.0", "--flip-max", "0.2", "--flip-steps", "5",
            ]
        )
        assert rc == EXIT_OK
        lines = (out_dir / "sweep.tsv").read_text().strip().splitlines()
        header = lines[0].split("\t")
        assert header == [
            "flip_prob", "abort_rate", "agreement_rate",
            "mean_check_mismatch", "failure_bound",
        ]
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 5
        # flip 0 row: no aborts, full agreement
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == 1.0
        # abort rate non-decreasing across the sweep (200 blocks/point)
        aborts = [float(r[1]) for r in rows]
        assert all(b >= a - 0.05 for a, b in zip(aborts, aborts[1:]))
        assert aborts[-1] > aborts[0]
        # analytic failure_bound column present and constant in flip_prob
        assert len({r[4] for r in rows}) == 1

    def test_single_point_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", PATH3)
        rc = main(
            [
                "sweep", "--config", str(cfg),
                "--flip-min", "0.0", "--flip-max", "0.1", "--flip-steps", "1",
            ]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --flip-steps must be >= 2\n"

    @pytest.mark.parametrize(
        "flip_min, flip_max, option",
        [("0", "0.7", "--flip-max 0.7"), ("0.6", "0.1", "--flip-min 0.6"),
         ("nan", "0.1", "--flip-min nan"), ("-0.1", "0.1", "--flip-min -0.1")],
        ids=["max-above", "min-above", "min-nan", "min-negative"],
    )
    def test_out_of_range_flip_rejected_before_any_block(
        self, tmp_path, capsys, monkeypatch, flip_min, flip_max, option
    ):
        calls = []
        run_blocks = protocol.run_blocks

        def counted(config):
            calls.append(config)
            return run_blocks(config)

        monkeypatch.setattr(protocol, "run_blocks", counted)
        cfg = write(tmp_path, "s.cfg", PATH3)
        rc = main(
            [
                "sweep", "--config", str(cfg),
                "--flip-min", flip_min, "--flip-max", flip_max, "--flip-steps", "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.err == f"error: {option} must lie in [0, 0.5)\n"
        assert captured.out == ""
        assert calls == []


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_missing_config_flag(self, capsys):
        assert main(["plan"]) == EXIT_CONFIG


class TestTranscriptRoundTrip:
    def test_parse_inverts_format(self, tmp_path, capsys):
        from treekd import transcript_io
        from treekd.protocol import run_block
        from treekd.graph_core import SecurityGraph, WeightedEdge
        from treekd.protocol import ProtocolConfig

        graph = SecurityGraph(
            4,
            [WeightedEdge(0, 1), WeightedEdge(1, 2), WeightedEdge(1, 3)],
            sources={1},
        )
        config = ProtocolConfig(
            graph=graph, leader=0, code=hamming_7_4(), blocks=1,
            delta=0.05, epsilon=0.05, seed=12,
        )
        result = run_block(config)
        lines = transcript_io.transcript_lines(result.transcript)
        (parsed,) = transcript_io.parse_transcript(lines)
        assert transcript_io.transcript_lines(parsed) == lines
        assert [
            f"{m.seq} {m.sender} {m.kind} "
            + transcript_io.format_payload(m.kind, m.payload)
            for m in parsed.messages
        ] == lines

    def test_bad_line_reports_number(self):
        from treekd import transcript_io

        with pytest.raises(ValueError, match="line 2"):
            transcript_io.parse_transcript(["0 0 terminal_choice 1", "garbage"])


# Runs every command in one interpreter in which importing scipy fails.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from treekd.cli import main
cfg, out = sys.argv[1], sys.argv[2]
print([
    main(["plan", "--config", cfg]),
    main(["run", "--config", cfg, "--out", out + "/run"]),
    main(["sweep", "--config", cfg, "--out", out + "/sweep", "--flip-min", "0",
          "--flip-max", "0.1", "--flip-steps", "2"]),
    main(["analyze", "--transcript", out + "/run/transcript.log", "--config", cfg]),
])
"""


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: no command may import it.
        cfg = write(
            tmp_path,
            "noisy.cfg",
            "node 0\nnode 1\nnode 2\nsource 1\nedge 0 1 flip=0.01\n"
            "edge 1 2 flip=0.01 anti\nparam leader=2\nparam blocks=4\n",
        )
        env = dict(os.environ)
        src = str(Path(treekd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT, str(cfg), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0]", done.stderr

    def test_import_loads_no_dataclasses_inspect_or_hashlib(self):
        # The records are NamedTuples or plain classes, so importing the CLI
        # costs no dataclasses (and the inspect module it pulls in), and
        # SHA-256 comes from the interpreter's built-in module, so it costs
        # no hashlib (and the OpenSSL that _hashlib loads) either, unless
        # the interpreter was built without that module.  site may preload
        # modules, so only what the import adds counts.
        forbidden = ["dataclasses", "inspect"]
        if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
            forbidden += ["hashlib", "_hashlib"]
        src = str(Path(treekd.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "before = set(sys.modules)\n"
            "import treekd.cli\n"
            "print(sorted(set(sys.argv[2:]) & (set(sys.modules) - before)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", script, src, *forbidden],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
