import io
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HUB7,
    TIED_6_3,
    bits_of,
    path_config,
    random_tree_edges,
    reference_block,
    reference_rounds,
    word_of,
)
from treekd import cli, config_io, graph_core, linear_code, protocol, subroutine
from treekd import rng as rng_module
from treekd.bits import BitString
from treekd.channel_sim import simulate_pairwise_kd
from treekd.config_io import ConfigError, load_config, parse_config
from treekd.eve_analysis import rounds_from_transcript
from treekd.graph_core import SecurityGraph, WeightedEdge, terminal_agents
from treekd.linear_code import hamming_7_4, repetition_code
from treekd.protocol import (
    KeyResult,
    ProtocolConfig,
    code_efficiency,
    decide_abort,
    failure_bound,
    reconcile,
    run_block,
    run_blocks,
    run_rounds,
    select_check_positions,
    summarize,
)
from treekd.rng import SeededRng
from treekd.transcript_io import BroadcastMessage, parse_transcript, transcript_lines


class TestSelectCheckPositions:
    def test_half_of_two(self):
        for seed in range(10):
            picked = select_check_positions(SeededRng(seed), 2)
            assert picked in ((0,), (1,))

    def test_size_always_m(self):
        for seed in range(50):
            assert len(select_check_positions(SeededRng(seed), 14)) == 7

    def test_positions_roughly_uniform(self):
        rng = SeededRng(2)
        hits = [0] * 14
        draws = 10**4
        for _ in range(draws):
            for p in select_check_positions(rng, 14):
                hits[p] += 1
        assert all(abs(h / draws - 0.5) <= 0.03 for h in hits)

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            select_check_positions(SeededRng(0), 7)


class TestDecideAbort:
    def test_identical_strings_proceed(self):
        values = {a: BitString.from_text("1010") for a in range(3)}
        abort, mismatch = decide_abort(values, leader=0, delta=0.05)
        assert not abort
        assert all(f == 0 for f in mismatch.values())

    def test_excess_mismatch_aborts(self):
        m = 10
        delta = 0.2
        bad = BitString.from_text("111" + "0" * 7)  # 3 > ceil(0.2*10)
        values = {0: BitString.from_text("0" * m), 1: bad}
        abort, _ = decide_abort(values, leader=0, delta=delta)
        assert abort

    def test_exactly_delta_proceeds(self):
        values = {0: BitString.from_text("0000"), 1: BitString.from_text("1000")}
        abort, mismatch = decide_abort(values, leader=0, delta=0.25)
        assert mismatch[1] == Fraction(1, 4)
        assert not abort

    @pytest.mark.parametrize(
        "wrong, m, delta, aborts",
        [(3, 10, 0.3, False), (3, 20, 0.15, False), (7, 20, 0.35, False), (4, 10, 0.3, True)],
    )
    def test_decimal_delta_is_exact(self, wrong, m, delta, aborts):
        # Each float delta here is just below the fraction it is written as.
        values = {
            0: BitString.from_text("0" * m),
            1: BitString.from_text("1" * wrong + "0" * (m - wrong)),
        }
        abort, mismatch = decide_abort(values, leader=0, delta=delta)
        assert mismatch[1] == Fraction(wrong, m)
        assert abort == aborts

    def test_parsed_check_values_give_the_engine_verdict(self, tmp_path):
        # parse_transcript reads each check_values payload back as the type
        # the engine broadcasts, so decide_abort on a run transcript's
        # blocks gives the engine's verdict and fractions.
        config = path_config(n=5, flip=0.05, delta=0.3, seed=17, blocks=50, leader=2)
        cli.cmd_run(config, tmp_path, out=io.StringIO())
        blocks = parse_transcript((tmp_path / "transcript.log").read_text().splitlines())
        results = run_blocks(config)
        assert len(blocks) == len(results) == 50
        for block, result in zip(blocks, results):
            values = {
                msg.sender: msg.payload for msg in block.messages if msg.kind == "check_values"
            }
            abort, fractions = decide_abort(values, config.leader, config.delta)
            assert abort == (result.status == "aborted")
            assert fractions.pop(config.leader) == 0
            assert fractions == result.mismatch
        assert 0 < sum(r.status == "aborted" for r in results) < 50


class TestReconcile:
    def test_zero_errors_all_agree(self):
        code = hamming_7_4()
        v = 0b1011001
        indices = reconcile(
            {j: v for j in range(4)}, code, SeededRng(3), [], leader=0
        )
        assert len(set(indices.values())) == 1

    def test_all_weight_one_errors_exhaustive(self):
        # For every codeword and every placement of one single-bit error
        # per non-leader agent (n=4: 7^3 placements), all indices agree.
        code = hamming_7_4()
        singles = [1 << (6 - p) for p in range(7)]
        for index in range(16):
            rng = SeededRng(1000 + index).generator()
            v = word_of(rng.getrandbits(1) for _ in range(7))
            for p1, p2, p3 in product(range(7), repeat=3):
                agent_bits = {
                    0: v,
                    1: v ^ singles[p1],
                    2: v ^ singles[p2],
                    3: v ^ singles[p3],
                }
                indices = reconcile(
                    agent_bits, code, SeededRng(index), [], leader=0
                )
                assert len(set(indices.values())) == 1

    def test_weight_two_error_can_miscorrect(self):
        code = hamming_7_4()
        v = 0b0000000
        bad = v ^ 0b1100000
        indices = reconcile(
            {0: v, 1: bad}, code, SeededRng(0), [], leader=0
        )
        assert indices[1] != indices[0]  # outside radius t=1


class TestLeaderIsAnyKey:
    """decide_abort and reconcile give the leader a result like every other
    key: its own mismatch of 0, and the index it gets by decoding."""

    def test_decide_abort_gives_the_leader_zero(self):
        values = {
            0: BitString.from_text("0110"),
            1: BitString.from_text("1110"),
            2: BitString.from_text("0110"),
        }
        abort, mismatch = decide_abort(values, leader=2, delta=0.25)
        assert not abort
        assert mismatch == {0: Fraction(0), 1: Fraction(1, 4), 2: Fraction(0)}

    def test_reconcile_decodes_every_key_the_leader_to_its_drawn_index(
        self, monkeypatch
    ):
        code = hamming_7_4()
        v = 0b1011001
        near = v ^ 0b0000100  # within the code's radius
        inputs = []
        original = linear_code.decode_to_codeword

        def decode(code, word):
            inputs.append(word)
            return original(code, word)

        monkeypatch.setattr(protocol, "decode_to_codeword", decode)
        drawn = SeededRng(5).generator().randrange(1 << code.k)
        transcript = []
        indices = reconcile(
            {0: near, 1: v, 2: near, 3: v}, code, SeededRng(5), transcript, leader=1
        )
        masked = code.codewords[drawn] ^ v
        assert transcript_lines(transcript) == [f"0 1 code_broadcast {masked:07b}"]
        assert len(inputs) == 4  # one decode per key, no cache
        assert inputs[1] == code.codewords[drawn]  # the leader decodes c
        assert indices == {0: drawn, 1: drawn, 2: drawn, 3: drawn}

    def test_reconcile_gives_equal_code_bits_one_index(self):
        code = hamming_7_4()
        v = 0b0000000
        far = v ^ 0b1100000  # outside the radius
        indices = reconcile(
            {0: v, 1: far, 2: far, 3: v}, code, SeededRng(0), [], leader=0
        )
        assert indices[1] == indices[2] != indices[0] == indices[3]


class TestFailureBound:
    def test_reference_value(self):
        assert failure_bound(0.1, 0.1, 100) == pytest.approx(
            math.exp(-25 / 9), rel=1e-12
        )
        assert failure_bound(0.1, 0.1, 100) == pytest.approx(0.0622, abs=5e-5)

    def test_epsilon_zero_limit(self):
        assert failure_bound(0.1, 1e-12, 100) == pytest.approx(1.0)

    def test_doubling_nbits_squares(self):
        b1 = failure_bound(0.2, 0.1, 50)
        b2 = failure_bound(0.2, 0.1, 100)
        assert b2 == pytest.approx(b1**2)

    def test_monotonicity(self):
        assert failure_bound(0.1, 0.2, 100) < failure_bound(0.1, 0.1, 100)
        assert failure_bound(0.1, 0.1, 200) < failure_bound(0.1, 0.1, 100)
        # delta - delta^2 peaks at 1/2; the bound grows toward it
        assert failure_bound(0.5, 0.1, 100) > failure_bound(0.1, 0.1, 100)
        assert failure_bound(0.5, 0.1, 100) > failure_bound(0.9, 0.1, 100)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            failure_bound(0.0, 0.1, 100)
        with pytest.raises(ValueError):
            failure_bound(1.0, 0.1, 100)


class TestEfficiency:
    def test_code_efficiency_values(self):
        assert code_efficiency(2, 4, 7) == Fraction(4, 7)
        assert abs(float(code_efficiency(10**6, 4, 7)) - 2 / 7) < 1e-6
        assert abs(float(code_efficiency(10**6, 7, 7)) - 0.5) < 1e-6

    def test_report_matches_counts(self, capsys):
        # The printed report of a 3-agent path: 2m = 14 positions on each of
        # its 2 tree edges, k = 4 key bits, eta_subroutine = 3/(2*2) and
        # eta_code = 4*3 / (2 * 2 * 7), the check rounds not yielded.
        spec = parse_config(
            "node 0\nnode 1\nnode 2\nsource 1\nedge 0 1\nedge 1 2\nparam blocks=1\n"
        )
        assert cli.cmd_run(spec, None) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:6] == [
            "n=3 m=7 k=4",
            "pairwise_bits_consumed_per_block=28",
            "key_bits_per_agent_per_block=4",
            "eta_subroutine=3/4",
            "eta_code=3/7",
        ]


class TestRunBlock:
    @pytest.mark.parametrize("code", [hamming_7_4(), repetition_code(3)])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_noiseless_all_agents_share_key(self, n, code):
        result = run_block(path_config(n=n, code=code))
        assert result.status == "completed"
        assert len(set(result.key_indices.values())) == 1
        assert all(0 <= index < 2**code.k for index in result.key_indices.values())

    def test_high_noise_aborts(self):
        aborts = sum(
            run_block(path_config(n=3, flip=0.30, delta=0.05, seed=9), i).status
            == "aborted"
            for i in range(100)
        )
        assert aborts >= 99

    def test_low_noise_agreement_rate_regression(self):
        # flip 0.005 over two hops: expected code-bit errors per agent well
        # under t=1; delta=0.15 keeps aborts rare.
        config = path_config(n=3, flip=0.005, delta=0.15, seed=17, blocks=200)
        results = run_blocks(config)
        completed = [r for r in results if r.status == "completed"]
        agreed = sum(
            1 for r in completed if len(set(r.key_indices.values())) == 1
        )
        assert len(completed) == 200  # regression fixture, seed 17
        assert agreed / len(completed) > 0.95
        assert agreed == 200  # frozen exact count for this seed schedule

    def test_determinism(self):
        r1 = run_block(path_config(seed=5))
        r2 = run_block(path_config(seed=5))
        assert r1.key_indices == r2.key_indices
        assert transcript_lines(r1.transcript) == transcript_lines(r2.transcript)

    def test_aborted_block_emits_no_key(self):
        result = run_block(path_config(n=3, flip=0.30, delta=0.01, seed=2))
        assert result.status == "aborted"
        assert result.key_indices is None
        (parsed,) = parse_transcript(transcript_lines(result.transcript))
        assert parsed.messages[-1].kind == "abort"

    def test_check_bits_never_reach_the_key(self):
        # Recompute reconciliation from the block's code bits with the
        # check-position values replaced by garbage: identical keys.
        config = path_config(n=3, seed=23)
        m = config.code.m
        rng = SeededRng(config.seed).substream("block", 0)
        words, _ = run_rounds(config, rng, 2 * m)
        strings = {a: bits_of(w, 2 * m) for a, w in enumerate(words)}
        check = set(select_check_positions(rng.substream("check"), 2 * m))
        code_positions = [i for i in range(2 * m) if i not in check]

        def keys_with(strings):
            codebits = {a: word_of(s[i] for i in code_positions) for a, s in strings.items()}
            return reconcile(
                codebits, config.code, rng.substream("code"), [], leader=0
            )

        perturbed = {
            a: [b ^ 1 if i in check else b for i, b in enumerate(s)]
            for a, s in strings.items()
        }
        assert keys_with(strings) == keys_with(perturbed)

    def test_conditional_agreement_given_small_errors(self):
        # Whenever every agent's realized code-bit error weight is <= t,
        # all indices agree — checked against the simulator's ground truth.
        config = path_config(n=4, flip=0.02, delta=0.5, seed=31)
        hits = 0
        for i in range(150):
            result = run_block(config, i)
            if result.status != "completed":
                continue
            m = config.code.m
            rng = SeededRng(config.seed).substream("block", i)
            words, _ = run_rounds(config, rng, 2 * m)
            strings = {a: bits_of(w, 2 * m) for a, w in enumerate(words)}
            check = set(select_check_positions(rng.substream("check"), 2 * m))
            code_positions = [p for p in range(2 * m) if p not in check]
            leader_bits = [strings[0][p] for p in code_positions]
            weights = [
                sum(strings[a][p] != b for p, b in zip(code_positions, leader_bits))
                for a in range(1, 4)
            ]
            if max(weights) <= config.code.t:
                assert len(set(result.key_indices.values())) == 1
                hits += 1
        assert hits > 50  # the conditional case actually occurred

    def test_rejects_invalid_graph(self):
        # parse_config is the gate every run config passes, whole-graph
        # rules included: no ProtocolConfig is built from this graph.
        with pytest.raises(ConfigError) as err:
            parse_config("node 0\nnode 1\nnode 2\nedge 0 1\nedge 1 2\n")
        assert err.value.errors == ["source set is empty"]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_announcement_lines_list_edges_in_ascending_key_order(self, n, seed):
        # The renderer writes an announcement's edges in the order the
        # engine recorded them, and the edges of a random tree come in
        # random input order: the engine must record ascending keys.
        edges = random_tree_edges(n, random.Random(seed))
        config = ProtocolConfig(
            graph=SecurityGraph(n, edges, range(n)), leader=0, code=hamming_7_4(),
            blocks=1, delta=0.5, epsilon=0.05, seed=seed,
        )
        lines = transcript_lines(run_block(config).transcript)
        payloads = [line.split(" ", 3)[3] for line in lines if " announcement " in line]
        announcers = n - len(terminal_agents(config.tree))
        assert len(payloads) == 2 * config.code.m * announcers
        for payload in payloads:
            keys = [tuple(map(int, k)) for k in re.findall(r"\((\d+),(\d+)\)", payload)]
            assert len(keys) >= 2 and keys == sorted(keys), payload


class TestSummarize:
    def test_counts_and_mismatch_order(self):
        results = [
            KeyResult("completed", {0: 5, 1: 5, 2: 5},
                      {1: Fraction(0), 2: Fraction(1, 7)}, []),
            KeyResult("completed", {0: 3, 1: 3, 2: 4},
                      {1: Fraction(2, 7), 2: Fraction(3, 7)}, []),
            KeyResult("aborted", None,
                      {1: Fraction(4, 7), 2: Fraction(5, 7)}, []),
        ]
        completed, agreed, mismatches = summarize(results)
        assert (completed, agreed) == (2, 1)
        # Block order, then agent order within a block.
        assert mismatches == tuple(Fraction(i, 7) for i in range(6))


class TestRecords:
    @pytest.mark.parametrize(
        "record, fields",
        [
            (ProtocolConfig,
             ("graph", "leader", "code", "blocks", "delta", "epsilon", "seed")),
            (WeightedEdge, ("a", "b", "weight", "flip_prob")),
            (linear_code.LinearCode, ("m", "k", "t", "codewords")),
            (KeyResult, ("status", "key_indices", "mismatch", "transcript")),
            (BroadcastMessage, ("seq", "sender", "kind", "payload")),
        ],
        ids=["ProtocolConfig", "WeightedEdge", "LinearCode", "KeyResult", "BroadcastMessage"],
    )
    def test_fields_make_and_replace(self, record, fields):
        # Field order is positional construction; _make and _replace give
        # the record's own type, and its docstring names every field.
        assert record._fields == fields
        values = tuple(range(len(fields)))
        made = record._make(values)
        assert type(made) is record and made == values
        replaced = made._replace(**{fields[-1]: "x"})
        assert type(replaced) is record and replaced == values[:-1] + ("x",)
        assert all(re.search(rf"\b{name}\b", record.__doc__) for name in fields)

    def test_keywords_and_positions_build_the_same_record(self):
        by_name = KeyResult(status="aborted", key_indices=None, mismatch={}, transcript=None)
        assert by_name == KeyResult("aborted", None, {}, None)
        assert by_name.status == "aborted" and by_name.key_indices is None

    def test_protocol_config_caches_its_tree(self):
        config = parse_config("node 0\nnode 1\nnode 2\nsource 1\nedge 0 1\nedge 1 2\n")
        assert type(config) is ProtocolConfig
        assert config.tree is config.tree
        assert config.announcers is config.announcers
        other = config._replace(seed=5)
        assert type(other) is ProtocolConfig and other.seed == 5
        assert other.tree is not config.tree and other.tree.edges == config.tree.edges

    def test_sweep_steps_and_seed_override_build_their_own_tree(self, tmp_path, monkeypatch):
        # parse_config returns the config every command runs.  A sweep step
        # (its graph replaced) and --seed (its seed replaced) are new
        # configs: each builds its own tree and layout, and the loaded
        # config's cached tree is not reused.
        text = "node 0\nnode 1\nnode 2\nsource 1\nedge 0 1 flip=0.01\nedge 1 2\n"
        path = tmp_path / "path3.cfg"
        path.write_text(text + "param blocks=1\n")
        loaded, ran = [], []

        def load(config_path):
            config = load_config(config_path)
            assert type(config) is ProtocolConfig
            loaded.append((config, config.tree, config.announcers))
            return config

        def run_blocks_of(config):
            ran.append((config, config.tree, config.announcers))
            return run_blocks(config)

        monkeypatch.setattr(config_io, "load_config", load)
        monkeypatch.setattr(protocol, "run_blocks", run_blocks_of)
        assert cli.main(["sweep", "--config", str(path), "--flip-min", "0",
                         "--flip-max", "0.2", "--flip-steps", "3"]) == cli.EXIT_OK
        assert cli.main(["run", "--config", str(path), "--seed", "7"]) == cli.EXIT_OK
        assert len(loaded) == 2 and len(ran) == 4
        for (config, tree, layout), (step, step_tree, step_layout) in zip(
            [loaded[0]] * 3 + [loaded[1]], ran
        ):
            assert type(step) is ProtocolConfig and step is not config
            assert step_tree is not tree and step_layout is not layout
            assert step_layout == layout
            assert [e.key for e in step_tree.edges] == [e.key for e in tree.edges]
        flips_by_step = [[e.flip_prob for e in tree.edges] for _, tree, _ in ran]
        assert flips_by_step == [[0.0] * 2, [0.1] * 2, [0.2] * 2, [0.01, 0.0]]
        assert ran[-1][0].seed == 7 and loaded[1][0].seed == 0


class TestTreeBuiltOnce:
    def test_run_blocks_validates_and_builds_mst_once(self, monkeypatch):
        # The graph is checked once, as its config is parsed.  The tree is
        # built once, and its constructor's walk is its one check: the only
        # union-find is Kruskal's, with no second pass over the tree's edges.
        # The announcement layout comes once per config, not once per block.
        calls = Counter()
        for label, owner, name in (
            ("validate_graph", config_io, "validate_graph"),
            ("mst_kruskal", protocol, "mst_kruskal"),
            ("announcement_layout", protocol, "announcement_layout"),
            ("SpanningTree", graph_core.SpanningTree, "__init__"),
            ("_UnionFind", graph_core._UnionFind, "__init__"),
        ):
            def counted(*args, _label=label, _original=getattr(owner, name)):
                calls[_label] += 1
                return _original(*args)
            monkeypatch.setattr(owner, name, counted)
        spec = parse_config(
            "node 0\nnode 1\nnode 2\nnode 3\nsource 1\nsource 2\n"
            "edge 0 1\nedge 1 2\nedge 2 3\nparam blocks=5\n"
        )
        results = run_blocks(ProtocolConfig._make(spec))
        assert len(results) == 5
        assert calls == {
            "validate_graph": 1, "mst_kruskal": 1, "announcement_layout": 1,
            "SpanningTree": 1, "_UnionFind": 1,
        }

    def test_cli_run_checks_its_graph_once(self, monkeypatch, tmp_path, capsys):
        # Count every binding of each function, so a check made from any
        # module shows up, and every union-find: a disconnected graph's
        # components come from Kruskal's own, with no second pass.
        calls = Counter()
        for name in ("validate_graph", "mst_kruskal"):
            original = getattr(graph_core, name)

            def counted(graph, _name=name, _original=original):
                calls[_name] += 1
                return _original(graph)

            for module in (graph_core, config_io, protocol, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        union_find = graph_core._UnionFind.__init__

        def counted_union_find(self, n):
            calls["_UnionFind"] += 1
            union_find(self, n)

        monkeypatch.setattr(graph_core._UnionFind, "__init__", counted_union_find)
        config = tmp_path / "run.cfg"
        graph = "node 0\nnode 1\nnode 2\nnode 3\nsource 0\nsource 2\nedge 0 1\nedge 2 3\n"
        config.write_text(graph + "edge 1 2\nedge 0 3 weight=2\nparam blocks=3\n")
        status = cli.main(["run", "--config", str(config)])
        assert status == cli.EXIT_OK, capsys.readouterr().err
        assert calls == {"validate_graph": 1, "mst_kruskal": 1, "_UnionFind": 1}
        calls.clear()
        config.write_text(graph)
        assert cli.main(["run", "--config", str(config)]) == cli.EXIT_DISCONNECTED
        assert capsys.readouterr().err == (
            "error: security graph is disconnected: components {0,1}; {2,3}\n"
        )
        assert calls == {"validate_graph": 1, "mst_kruskal": 1, "_UnionFind": 1}


class TestWordFormula:
    """Every agent's string without reconstruction, as ROADMAP item 2 would
    compute it: agent j's word is BASE ^ P[j], where P[v] is the XOR of the
    disagreement words A ^ B on the tree path from agent 0 to v, and bit r
    of BASE is bit r of A_e ^ P[a] for round r's chosen terminal edge
    e = (a, b), A_e its a-side word."""

    def test_run_rounds_words_are_base_xor_path_parity(self):
        rng = random.Random(2276)
        for trial in range(200):
            n = rng.randrange(2, 31)
            flip = rng.choice((0.0, 0.05, 0.2, 0.45))
            edges = [
                WeightedEdge(e.a, e.b, flip_prob=flip)
                for e in random_tree_edges(n, rng)
            ]
            config = ProtocolConfig(
                graph=SecurityGraph(n, edges, range(n)), leader=rng.randrange(n),
                code=hamming_7_4(), blocks=1, delta=0.1, epsilon=0.05, seed=trial,
            )
            positions = 2 * config.code.m
            block = SeededRng(trial).substream("block", 0)
            # The edge words and the choices, redrawn from the block's streams.
            words = {
                e.key: simulate_pairwise_kd(e, positions, block.substream("edge", e.a, e.b))
                for e in edges
            }
            parity = {0: 0}
            while len(parity) < n:
                for (a, b), (word_a, word_b) in words.items():
                    if a in parity and b not in parity:
                        parity[b] = parity[a] ^ word_a ^ word_b
                    elif b in parity and a not in parity:
                        parity[a] = parity[b] ^ word_a ^ word_b
            ends = Counter(v for key in words for v in key)
            terminals = sorted(v for v in range(n) if ends[v] == 1)
            base = 0
            for r in range(positions):
                draw = block.substream("round", r).generator()
                for _ in range(n - len(terminals)):  # one mask per announcer
                    draw.getrandbits(1)
                chosen = draw.choice(terminals)
                (a, b), (word_a, _) = next(
                    item for item in words.items() if chosen in item[0]
                )
                bit = positions - 1 - r
                base |= ((word_a ^ parity[a]) >> bit & 1) << bit
            agents, _ = run_rounds(config, block, positions)
            assert agents == [base ^ parity[j] for j in range(n)], trial


class TestOneReconstructionPerBlock:
    def test_run_block_reconstructs_once_per_block(self, monkeypatch):
        # The leader's one reconstruction reads the announcements as words:
        # bit r (position 0 most significant) of each is what round r
        # broadcast.  The masks cancel in the reconstruction, so only this
        # check sees a mask bit in the wrong place.
        original = subroutine.reconstruct_assignment
        calls = []

        def counted(agent, own_bits, announcements, tree):
            calls.append((agent, announcements))
            return original(agent, own_bits, announcements, tree)

        for module in (subroutine, protocol):
            monkeypatch.setattr(module, "reconstruct_assignment", counted)
        config = path_config(n=6, flip=0.05, delta=0.5, leader=3)
        result = run_block(config)
        ((agent, words),) = calls
        assert agent == 3
        (parsed,) = parse_transcript(transcript_lines(result.transcript))
        rounds = rounds_from_transcript(parsed)
        positions = 2 * config.code.m
        assert len(rounds) == positions
        for r, (announcements, _, _) in enumerate(rounds):
            shift = positions - 1 - r
            assert announcements == {
                sender: {key: word >> shift & 1 for key, word in record.items()}
                for sender, record in words.items()
            }


class TestOncePerDistinctString:
    """At low noise most agents hold the same string, and run_block splits
    and decodes one holder's string per distinct word, not once per agent:
    each split builds one check_values payload, and the block one more
    payload, its code_broadcast."""

    def counted_block(self, monkeypatch, config):
        calls = Counter()
        original_decode = linear_code.decode_to_codeword
        original_init = BitString.__init__

        def decode(code, word):
            calls["decode"] += 1
            return original_decode(code, word)

        def init(bits, value, length):
            calls["payload"] += 1
            original_init(bits, value, length)

        for module in (linear_code, protocol):
            monkeypatch.setattr(module, "decode_to_codeword", decode)
        monkeypatch.setattr(BitString, "__init__", init)
        result = run_block(config)
        monkeypatch.undo()
        return result, calls

    def tree_config(self, flip, seed):
        edges = [
            WeightedEdge(e.a, e.b, flip_prob=flip)
            for e in random_tree_edges(12, random.Random(seed))
        ]
        return ProtocolConfig(
            graph=SecurityGraph(12, edges, range(12)), leader=0, code=hamming_7_4(),
            blocks=1, delta=0.5, epsilon=0.05, seed=seed,
        )

    def test_noiseless_block_splits_and_decodes_once(self, monkeypatch):
        result, calls = self.counted_block(monkeypatch, self.tree_config(0.0, 4))
        assert result.status == "completed"
        assert len(set(result.key_indices.values())) == 1
        assert calls == {"decode": 1, "payload": 2}

    def test_only_streams_that_draw_are_seeded(self, monkeypatch):
        # One Mersenne Twister per edge session, round, check draw and code
        # draw; the run's root stream and the block's stream only derive
        # children, and the block's stream is derived once.  generator()
        # builds each twister with Random.__new__ and seeds it in C.
        seeded, derived = Counter(), Counter()

        class CountingRandom(random.Random):
            def __new__(cls, *args, **kwargs):
                seeded["twisters"] += 1
                return super().__new__(cls, *args, **kwargs)

        original_substream = SeededRng.substream

        def substream(stream, *labels):
            derived[labels[0]] += 1
            return original_substream(stream, *labels)

        config = self.tree_config(0.0, 4)
        m = config.code.m
        monkeypatch.setattr(rng_module, "Random", CountingRandom)
        monkeypatch.setattr(SeededRng, "substream", substream)
        for i in range(3):
            seeded.clear()
            derived.clear()
            assert run_block(config, i).status == "completed"
            assert seeded["twisters"] == 11 + 2 * m + 2
            assert derived == {"block": 1, "edge": 11, "round": 2 * m, "check": 1, "code": 1}

    def test_noisy_block_decodes_each_distinct_code_string_once(self, monkeypatch):
        config = self.tree_config(0.05, 1)
        result, calls = self.counted_block(monkeypatch, config)
        assert result.status == "completed"
        m = config.code.m
        rng = SeededRng(config.seed).substream("block", 0)
        words, _ = run_rounds(config, rng, 2 * m)
        check = set(select_check_positions(rng.substream("check"), 2 * m))
        code_positions = [p for p in range(2 * m) if p not in check]
        distinct = {
            word_of(bits_of(w, 2 * m)[p] for p in code_positions)
            for agent, w in enumerate(words)
            if agent != config.leader
        }
        assert 1 < len(distinct) < 11  # strings are both shared and distinct
        # One decode per distinct word, the leader's included.
        assert calls["decode"] == len(set(words))


class TestReferenceRounds:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        flip=st.floats(0.0, 0.49),
        leader=st.integers(0, 11),
        positions=st.integers(1, 30),
        block_index=st.integers(0, 3),
        shape=st.none(),
    )
    # Two agents have no announcers, so each round is its terminal choice
    # alone; one position renders one digit per word.
    @example(n=2, seed=7, flip=0.1, leader=1, positions=5, block_index=0, shape=None)
    @example(n=9, seed=8, flip=0.1, leader=3, positions=1, block_index=1, shape=None)
    # A degree-5 announcer, and 100 agents as run_tree100 has.
    @example(n=7, seed=9, flip=0.2, leader=2, positions=14, block_index=2, shape=HUB7)
    @example(n=100, seed=10, flip=0.01, leader=57, positions=14, block_index=0,
             shape=None)
    def test_run_rounds_matches_reference(
        self, n, seed, flip, leader, positions, block_index, shape
    ):
        # shape is the tree's edges; None draws a random tree on n agents.
        rng = random.Random(seed)
        edges = [
            WeightedEdge(e.a, e.b, flip_prob=flip)
            for e in shape or random_tree_edges(n, rng)
        ]
        config = ProtocolConfig(
            graph=SecurityGraph(n, edges, range(n)),
            leader=leader % n,
            code=hamming_7_4(),
            blocks=1,
            delta=0.5,
            epsilon=0.05,
            seed=seed,
        )
        words, transcript = run_rounds(
            config, SeededRng(seed).substream("block", block_index), positions
        )
        strings = dict(enumerate(words))
        want_strings, want_lines = reference_rounds(config, block_index, positions)
        assert transcript_lines(transcript) == want_lines
        assert strings == want_strings


class TestReferenceBlock:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        flip=st.floats(0.0, 0.49),
        # Every named code up to 9 bits, and one whose decoding can tie.
        code=st.sampled_from(
            [hamming_7_4(), *map(repetition_code, (1, 3, 5, 7, 9)), TIED_6_3]
        ),
        # 0.2, 0.4, 0.6 and 0.8 are mismatches over 5 check bits, 0.5 over 6.
        delta=st.one_of(
            st.sampled_from([0.2, 0.4, 0.5, 0.6, 0.8]), st.floats(0.01, 0.99)
        ),
        leader=st.integers(0, 11),
        block_index=st.integers(0, 3),
    )
    # Random draws reach these two boundaries in about half of all runs:
    # agent 3's mismatch is exactly delta, and agent 1's word ties.
    @example(n=4, seed=0, flip=0.1, code=repetition_code(5), delta=0.2, leader=0,
             block_index=0)
    @example(n=3, seed=0, flip=0.1, code=TIED_6_3, delta=0.5, leader=0, block_index=0)
    # Random flips seldom leave agents sharing strings: here all 12 share
    # one, then shared and distinct strings mix, so run_block's memo hits
    # and misses in the same block.
    @example(n=12, seed=0, flip=0.0, code=hamming_7_4(), delta=0.5, leader=0,
             block_index=0)
    @example(n=12, seed=0, flip=0.02, code=hamming_7_4(), delta=0.5, leader=0,
             block_index=0)
    def test_run_block_matches_reference(
        self, n, seed, flip, code, delta, leader, block_index
    ):
        rng = random.Random(seed)
        edges = [
            WeightedEdge(e.a, e.b, flip_prob=flip) for e in random_tree_edges(n, rng)
        ]
        config = ProtocolConfig(
            graph=SecurityGraph(n, edges, range(n)),
            leader=leader % n,
            code=code,
            blocks=1,
            delta=delta,
            epsilon=0.05,
            seed=seed,
        )
        result = run_block(config, block_index)
        status, keys, mismatch, lines = reference_block(config, block_index)
        assert transcript_lines(result.transcript) == lines
        assert (result.status, result.key_indices, result.mismatch) == (
            status, keys, mismatch
        )
