"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import random
from fractions import Fraction
from itertools import combinations, product

import mpmath
import pytest

from conftest import (
    bfs_components,
    brute_force_configurations,
    brute_force_mst_weight,
    chi_square_uniformity,
    mst_prim,
    parsed_round,
    path_config,
    random_connected_graph,
    random_tree_edges,
    tree_weight,
)
from treekd.channel_sim import simulate_pairwise_kd
from treekd.cli import EXIT_DISCONNECTED, EXIT_OK, cmd_run, main
from treekd.config_io import parse_config
from treekd.eve_analysis import consistent_configurations, secret_entropy
from treekd.graph_core import (
    SecurityGraph,
    SpanningTree,
    WeightedEdge,
    mst_kruskal,
)
from treekd.linear_code import (
    decode_to_codeword,
    hamming_7_4,
    index_of,
    repetition_code,
)
from treekd.protocol import (
    ProtocolConfig,
    code_efficiency,
    failure_bound,
    run_block,
    select_check_positions,
)
from treekd.rng import SeededRng
from treekd.subroutine import random_efficiency
from treekd.transcript_io import parse_transcript


def test_criterion_1_efficiency_formulas(tmp_path):
    # The printed report against counts taken from each run: rounds are
    # terminal_choice messages, the code rounds are the code_broadcast's
    # length, and the heavier extra edges stay out of the tree.
    for n in (2, 3, 5, 10):
        heavier = "".join(f"edge 0 {j} weight=5\n" for j in range(2, n))
        spec = parse_config(
            "".join(f"node {i}\nsource {i}\n" for i in range(n))
            + "".join(f"edge {i} {i + 1}\n" for i in range(n - 1)) + heavier
            + f"param blocks=1\nparam seed={n}\n"
        )
        out_dir = tmp_path / f"n{n}"
        assert cmd_run(spec, out_dir, out=io.StringIO()) == EXIT_OK
        (block,) = parse_transcript((out_dir / "transcript.log").read_text().splitlines())
        kinds = [msg.kind for msg in block.messages]
        (masked,) = [msg.payload for msg in block.messages if msg.kind == "code_broadcast"]
        rounds, code_rounds = kinds.count("terminal_choice"), len(masked)
        edges = len(mst_kruskal(spec.graph).edges)
        code = spec.code
        assert (edges, rounds, code_rounds) == (n - 1, 2 * code.m, code.m)
        # one pairwise bit per tree edge per round; each agent ends a round
        # holding one shared bit, each edge's bit is held by two agents
        consumed = edges * rounds
        measured_subroutine = Fraction(n * rounds, 2 * consumed)
        measured_code = Fraction(code.k * n, 2 * edges * code_rounds)
        lines = (out_dir / "efficiency.txt").read_text().splitlines()
        assert lines[:5] == [
            f"n={n} m={code_rounds} k={code.k}",
            f"pairwise_bits_consumed_per_block={consumed}",
            f"key_bits_per_agent_per_block={code.k}",
            f"eta_subroutine={measured_subroutine}",
            f"eta_code={measured_code}",
        ]
        assert measured_subroutine == random_efficiency(n)
        assert measured_code == code_efficiency(n, code.k, code.m)
    big = 10**6
    assert abs(float(random_efficiency(big)) - 0.5) < 1e-5
    assert abs(float(code_efficiency(big, 4, 7)) - (0.5 * 4 / 7)) < 1e-5
    print("ACCEPTANCE 1 PASS: efficiency report matches run counts; limits 1/2 and (1/2)k/m")


def test_criterion_2_two_configuration_security():
    rng = random.Random(20240)
    rounds = 500
    for trial in range(rounds):
        n = rng.randrange(2, 13)
        tree = SpanningTree(n, random_tree_edges(n, rng))
        bits = {e.key: (b := rng.randrange(2), b) for e in tree.edges}
        transcript = parsed_round(tree, bits, trial)
        announcements = {
            m.sender: m.payload
            for m in transcript.messages
            if m.kind == "announcement"
        }
        chosen = next(
            m.payload for m in transcript.messages if m.kind == "terminal_choice"
        )
        configs = brute_force_configurations(announcements, tree)
        count = consistent_configurations(announcements, tree)
        assert count == len(configs)
        assert len(configs) == 2
        a, b = configs
        assert all(a[e] == b[e] ^ 1 for e in a)
        assert chosen in tree.terminal_keys and secret_entropy(count) == 1.0
    print(
        f"ACCEPTANCE 2 PASS: {rounds} honest rounds, always exactly 2 "
        "complementary configurations, entropy 1.0"
    )


def test_criterion_3_spanning_tree_necessity_sufficiency(tmp_path):
    all_pairs = list(combinations(range(4), 2))
    connected_count = disconnected_count = 0
    for subset_bits in range(64):
        pairs = [p for i, p in enumerate(all_pairs) if subset_bits >> i & 1]
        edges = [WeightedEdge(a, b) for a, b in pairs]
        graph = SecurityGraph(4, edges, sources=range(4))
        lines = ["node 0", "node 1", "node 2", "node 3"]
        lines += [f"source {v}" for v in range(4)]
        lines += [f"edge {a} {b} weight=1 flip=0" for a, b in pairs]
        cfg = tmp_path / f"g{subset_bits}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        rc = main(["plan", "--config", str(cfg)])
        if len(bfs_components(graph)) == 1:
            assert rc == EXIT_OK
            result = run_block(
                ProtocolConfig(
                    graph=graph, leader=0, code=hamming_7_4(), blocks=1,
                    delta=0.05, epsilon=0.05, seed=subset_bits,
                )
            )
            assert result.status == "completed"
            connected_count += 1
        else:
            assert rc == EXIT_DISCONNECTED
            disconnected_count += 1
    assert connected_count + disconnected_count == 64
    print(
        f"ACCEPTANCE 3 PASS: {connected_count} connected fixtures ran, "
        f"{disconnected_count} disconnected fixtures exited 2"
    )


def test_criterion_4_mst_correctness():
    rng = random.Random(4040)
    for _ in range(1000):
        n = rng.randrange(2, 13)
        g = random_connected_graph(n, rng, extra_edges=rng.randrange(0, 5))
        assert tree_weight(mst_kruskal(g)) == tree_weight(mst_prim(g, rng.randrange(n)))
    for _ in range(100):
        n = rng.randrange(2, 9)
        g = random_connected_graph(n, rng, extra_edges=3)
        assert tree_weight(mst_kruskal(g)) == brute_force_mst_weight(g)
    print(
        "ACCEPTANCE 4 PASS: Kruskal == Prim on 1000 graphs; "
        "matches brute-force enumeration on 100 instances (n <= 8)"
    )


def test_criterion_5_reconciliation_exhaustive():
    # Step 7 computes c XOR e_j per agent; with weight(e_j) <= 1 under the
    # [7,4] code every agent must decode back to c and hence to index i.
    # Exhaustive: 16 codewords x 8^3 error placements for n = 4 (8 = no
    # error or one of 7 single-bit positions per non-leader agent).
    code = hamming_7_4()
    errors = [0b0000000] + [1 << (6 - p) for p in range(7)]
    cases = 0
    for index in range(16):
        codeword = code.codewords[index]
        for e1, e2, e3 in product(errors, repeat=3):
            for e in (e1, e2, e3):
                decoded, _ = decode_to_codeword(code, codeword ^ e)
                assert decoded == codeword
                assert index_of(code, decoded) == index
            cases += 3
    assert cases == 16 * 8**3 * 3
    print(f"ACCEPTANCE 5 PASS: {cases} weight<=1 decodings all recover the key index")


def test_criterion_6_noiseless_end_to_end():
    rng = random.Random(606)
    codes = (hamming_7_4(), repetition_code(3))
    blocks = 20
    instances = 0
    for _ in range(50):
        n = rng.randrange(2, 7)
        g = random_connected_graph(n, rng, extra_edges=rng.randrange(0, 4))
        for code in codes:
            config = ProtocolConfig(
                graph=g, leader=rng.randrange(n), code=code, blocks=blocks,
                delta=0.05, epsilon=0.05, seed=rng.randrange(2**32),
            )
            agreed = 0
            for b in range(blocks):
                result = run_block(config, b)
                assert result.status == "completed"
                if len(set(result.key_indices.values())) == 1:
                    agreed += 1
            assert agreed == blocks  # agreement rate exactly 1.0
        instances += 1
    assert instances == 50
    print(
        "ACCEPTANCE 6 PASS: 50 connected graphs (n <= 6), both codes, "
        "20 blocks each, agreement rate exactly 1.0"
    )


def test_criterion_7_failure_bound():
    # closed form vs an independent high-precision evaluation
    got = failure_bound(0.1, 0.1, 100)
    mpmath.mp.dps = 50
    reference = float(mpmath.exp(mpmath.mpf(-25) / 9))
    assert abs(got - reference) / reference < 1e-9

    # Monte Carlo: frequency of {some agent has > (delta+eps)*m code-bit
    # errors AND all agents have <= delta*m check-bit errors} at m = 128,
    # flip_prob = 0.05, over 5000 blocks, vs 3x the analytic bound.  The
    # bound is asymptotic; the x3 safety factor absorbs small-m effects.
    delta = eps = 0.1
    m = 128
    blocks = 5000
    edge = WeightedEdge(0, 1, flip_prob=0.05)
    root = SeededRng(707)
    hits = 0
    for b in range(blocks):
        rng = root.substream("mcblock", b)
        word_a, word_b = simulate_pairwise_kd(edge, 2 * m, rng)
        mismatches = word_a ^ word_b
        check = set(select_check_positions(rng.substream("check"), 2 * m))
        check_errors = sum(mismatches >> (2 * m - 1 - i) & 1 for i in check)
        code_errors = mismatches.bit_count() - check_errors
        if check_errors <= delta * m and code_errors > (delta + eps) * m:
            hits += 1
    frequency = hits / blocks
    bound = failure_bound(delta, eps, m)
    assert frequency <= 3 * bound
    print(
        f"ACCEPTANCE 7 PASS: bound matches mpmath to 1e-9; measured event "
        f"frequency {frequency:.6f} <= 3 x bound ({3 * bound:.6f})"
    )


def test_criterion_8_key_uniformity():
    code = hamming_7_4()
    blocks = 16000
    config = path_config(n=3, code=code, seed=808)
    indices = []
    for b in range(blocks):
        result = run_block(config, b)
        assert result.status == "completed"
        agreed = set(result.key_indices.values())
        assert len(agreed) == 1
        indices.append(agreed.pop())
    counts = [indices.count(i) for i in range(16)]
    chi_square, p_value = chi_square_uniformity(indices, 16)
    assert p_value >= 0.001  # does not reject uniformity
    assert all(abs(c - 1000) <= 120 for c in counts)
    print(
        f"ACCEPTANCE 8 PASS: 16000 blocks, chi-square {chi_square:.2f}, "
        f"p = {p_value:.4f} (not rejected at 0.001)"
    )


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "node 0\nnode 1\nnode 2\nsource 1\n"
        "edge 0 1 weight=1 flip=0.01\nedge 1 2 weight=1 flip=0.01\n"
        "param blocks=8\nparam seed=99\nparam delta=0.2\n"
    )
    contents = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        contents.append(
            {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        )
    assert contents[0] == contents[1]
    assert set(contents[0]) == {
        "transcript.log", "summary.txt", "efficiency.txt", "stats.txt",
    }
    print("ACCEPTANCE 9 PASS: identical config+seed reproduce byte-identical outputs")
