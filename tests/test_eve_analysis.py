import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bits_of,
    brute_force_configurations,
    brute_force_entropy,
    chi_square_uniformity,
    gf2_configurations,
    gf2_key_entropy,
    parsed_round,
    random_tree_edges,
    structurally_valid,
)
from treekd.channel_sim import simulate_pairwise_kd
from treekd.eve_analysis import (
    consistent_configurations,
    rounds_from_transcript,
    secret_entropy,
)
from treekd.graph_core import SecurityGraph, SpanningTree, WeightedEdge, terminal_agents
from treekd.linear_code import code_by_name
from treekd.protocol import ProtocolConfig, run_block
from treekd.rng import SeededRng
from treekd.subroutine import announcement_layout, render_rounds
from treekd.transcript_io import parse_transcript


def honest_round(tree, rng, seed):
    """Run one honest round; return what the eavesdropper sees of it, the
    (announcements, chooser, chosen terminal) round, and the edge bits."""
    bits = {e.key: (b := rng.randrange(2), b) for e in tree.edges}
    parsed = parsed_round(tree, bits, seed)
    (announcements,) = rounds_from_transcript(parsed)
    ((_, chooser, _, chosen),) = parsed.sequence
    return (announcements, chooser, chosen), bits


def configurations(announcements, tree):
    """The oracle's consistent set, after checking the analyzer counts it."""
    configs = brute_force_configurations(announcements, tree)
    assert consistent_configurations(announcements, tree) == len(configs)
    return configs


def complementary(configs):
    if len(configs) != 2:
        return False
    a, b = configs
    return all(a[e] == b[e] ^ 1 for e in a)


class TestConsistentConfigurations:
    def test_path3_exactly_two_complements(self):
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        rng = random.Random(0)
        for seed in range(16):
            (announcements, _, _), bits = honest_round(tree, rng, seed)
            configs = configurations(announcements, tree)
            assert complementary(configs)
            truth = {e: ab[0] for e, ab in bits.items()}
            assert truth in configs

    def test_two_agents_both_configurations(self):
        tree = SpanningTree(2, [WeightedEdge(0, 1)])
        assert len(configurations({}, tree)) == 2

    def test_random_trees_up_to_12(self):
        rng = random.Random(51)
        for trial in range(60):
            n = rng.randrange(2, 13)
            tree = SpanningTree(n, random_tree_edges(n, rng))
            (announcements, _, _), _ = honest_round(tree, rng, trial)
            assert complementary(configurations(announcements, tree))

    def test_flipped_value_bit_is_invisible(self):
        # Flipping an announced *value* cannot be detected: any record over
        # the right edge set is still explainable by some mask, so the
        # consistent set stays at two complements.  This is the masking
        # guarantee itself, seen from the other side.
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        rng = random.Random(3)
        (announcements, _, _), _ = honest_round(tree, rng, 0)
        tampered = {
            agent: {**masked, min(masked): masked[min(masked)] ^ 1}
            for agent, masked in announcements.items()
        }
        assert complementary(configurations(tampered, tree))

    def test_structural_tampering_yields_no_configuration(self):
        # Relabeling an announced edge so the record no longer matches the
        # sender's incident tree edges is detected: nothing explains it.
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        rng = random.Random(3)
        (announcements, _, _), _ = honest_round(tree, rng, 0)
        (agent,) = announcements
        masked = dict(announcements[agent])
        masked[(0, 2)] = masked.pop((1, 2))  # not an edge at agent 1
        assert len(configurations({agent: masked}, tree)) == 0

    def test_terminal_announcer_is_structural_violation(self):
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        assert len(configurations({0: {(0, 1): 1}}, tree)) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        silent=st.floats(0.0, 1.0),
        tampered=st.booleans(),
    )
    def test_count_and_entropy_match_oracle(self, n, seed, silent, tampered):
        # Random announcer subsets with random values.  In a tampered round
        # senders may be terminals or not agents at all (ids n and n+1), and
        # records may drop an incident edge or carry a key that is not one
        # of the sender's edges; otherwise only non-terminals announce.
        rng = random.Random(seed)
        tree = SpanningTree(n, random_tree_edges(n, rng))
        announcements = {}
        for agent in range(n + 2):
            masked = {e.key: rng.randrange(2) for e in tree.incident_edges(agent)}
            if rng.random() < silent or not (tampered or len(masked) > 1):
                continue
            if tampered and masked and rng.random() < 0.25:
                masked.pop(rng.choice(sorted(masked)))
            if tampered and rng.random() < 0.25:
                masked[(agent, n + 2)] = rng.randrange(2)
            announcements[agent] = masked
        configs = brute_force_configurations(announcements, tree)
        count = consistent_configurations(announcements, tree)
        assert count == len(configs)
        for chosen in sorted(terminal_agents(tree)):
            assert secret_entropy(count) == brute_force_entropy(configs, chosen, tree)


def tampered_round(tree, rng, flip_rate, drop_rate):
    """One round on honest edge bits, as analyze groups it after parsing:
    each announcer's record is left out with probability drop_rate and each
    announced bit is flipped with probability flip_rate.  Records keep
    their edge sets, so every round is structurally valid."""
    bits = {e.key: rng.randrange(2) for e in tree.edges}
    layout = [entry for entry in announcement_layout(tree) if rng.random() >= drop_rate]
    masked = {}
    for agent, _, sides in layout:
        mask = rng.randrange(2)
        masked[agent] = {
            key: bits[key] ^ mask ^ (rng.random() < flip_rate) for key, _ in sides
        }
    chosen = rng.choice(tree.terminals)
    (parsed,) = parse_transcript(render_rounds(layout, masked, [chosen]))
    (announcements,) = parsed.rounds
    return announcements


class TestGf2Oracle:
    """The closed-form count against Gaussian elimination over GF(2), which,
    unlike brute force, runs at the benchmark's n = 100."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 100),
        seed=st.integers(0, 2**32 - 1),
        flip_rate=st.sampled_from([0.0, 0.1, 0.5]),
        drop_rate=st.sampled_from([0.0, 0.3]),
    )
    def test_count_matches_elimination(self, n, seed, flip_rate, drop_rate):
        rng = random.Random(seed)
        tree = SpanningTree(n, random_tree_edges(n, rng))
        announcements = tampered_round(tree, rng, flip_rate, drop_rate)
        assert structurally_valid(announcements, tree)
        count = consistent_configurations(announcements, tree)
        assert count == gf2_configurations(announcements, tree)
        if len(announcements) == n - len(tree.terminals):
            assert count == 2  # no record left out, flipped or not
        if n <= 12:
            assert count == len(brute_force_configurations(announcements, tree))

    def test_structural_rule_is_checked_apart(self):
        # Each tampered round has solutions as a linear system, yet breaks
        # the structural rule, so the analyzer and brute force count 0.
        tree = SpanningTree(4, [WeightedEdge(v, v + 1) for v in range(3)])
        honest = {1: {(0, 1): 0, (1, 2): 1}, 2: {(1, 2): 1, (2, 3): 0}}
        assert structurally_valid(honest, tree)
        assert consistent_configurations(honest, tree) == 2
        assert gf2_configurations(honest, tree) == 2
        for announcements in (
            {**honest, 0: {(0, 1): 1}},  # a terminal announces
            {**honest, 1: {(0, 1): 0}},  # a record drops an incident edge
        ):
            assert not structurally_valid(announcements, tree)
            assert gf2_configurations(announcements, tree) > 0
            assert consistent_configurations(announcements, tree) == 0
            assert brute_force_configurations(announcements, tree) == ()

    def test_contradictory_records_count_0(self):
        # A tree round's system is always consistent, as a tree has no
        # cycle; two records over one edge set close one, and these bits
        # no pair of masks explains, so elimination reads 0 = 1.
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        records = {1: {(0, 1): 0, (1, 2): 0}, 2: {(0, 1): 0, (1, 2): 1}}
        assert gf2_configurations(records, tree) == 0


class TestSecretEntropy:
    def test_two_complements_full_bit(self):
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        rng = random.Random(8)
        for seed in range(10):
            (announcements, _, _), _ = honest_round(tree, rng, seed)
            configs = configurations(announcements, tree)
            assert secret_entropy(len(configs)) == 1.0
            for chosen in terminal_agents(tree):
                assert brute_force_entropy(configs, chosen, tree) == 1.0

    def test_single_configuration_zero_entropy(self):
        tree = SpanningTree(2, [WeightedEdge(0, 1)])
        assert brute_force_entropy(({(0, 1): 1},), 0, tree) == 0.0
        assert secret_entropy(0) == 0.0

    def test_honest_random_trees_always_one_bit(self):
        rng = random.Random(13)
        for trial in range(40):
            n = rng.randrange(2, 13)
            tree = SpanningTree(n, random_tree_edges(n, rng))
            (announcements, _, chosen), _ = honest_round(tree, rng, trial)
            count = consistent_configurations(announcements, tree)
            assert chosen in tree.terminal_keys and secret_entropy(count) == 1.0


class TestLeakedEdgeBit:
    """Negative control for the reduction: a round's secret bit is safe only
    while its pairwise bits are.  An eavesdropper told one tree edge's true
    bit at every position in S pins round r's secret bit exactly when r is
    in S; every other round keeps two complementary configurations."""

    @pytest.mark.parametrize("leak", ["some", "none", "all"])
    def test_leaked_positions_fix_exactly_their_rounds(self, leak):
        rng = random.Random(8080)
        rounds = 6
        for trial in range(25):
            n = rng.randrange(3, 9)
            tree = SpanningTree(n, random_tree_edges(n, rng))
            edge = rng.choice(tree.edges).key
            leaked = {
                "some": {r for r in range(rounds) if rng.random() < 0.5},
                "none": set(),
                "all": set(range(rounds)),
            }[leak]
            for r in range(rounds):
                (announcements, _, chosen), bits = honest_round(tree, rng, trial * rounds + r)
                truth = {key: a for key, (a, _) in bits.items()}
                left = [
                    c for c in configurations(announcements, tree)
                    if r not in leaked or c[edge] == truth[edge]
                ]
                if r in leaked:
                    assert left == [truth]
                    assert brute_force_entropy(left, chosen, tree) == 0.0
                else:
                    assert len(left) == 2 and truth in left
                    assert all(left[0][key] != left[1][key] for key in truth)
                    assert brute_force_entropy(left, chosen, tree) == 1.0


class TestWholeBlockKey:
    """The paper's argument over a whole block: on noiseless links the
    transcript, every message of it, leaves the key all k of its bits, and
    an eavesdropper told one tree edge's true bits at code positions S
    learns exactly rank(G restricted to S) of them, as gf2_key_entropy
    solves the block's linear system."""

    @pytest.mark.parametrize("name", ["hamming7_4", "repetition3"])
    def test_key_keeps_k_bits_less_the_rank_a_leak_reveals(self, name):
        code, rng = code_by_name(name), random.Random(4242)
        m = code.m
        for index, codeword in enumerate(code.codewords):  # linear in the index bits
            rows = [code.codewords[1 << t] for t in range(code.k) if index >> t & 1]
            assert codeword == reduce(xor, rows, 0)
        for trial in range(6):
            n = rng.randrange(3, 7)
            config = ProtocolConfig(
                graph=SecurityGraph(n, random_tree_edges(n, rng), range(n)),
                leader=rng.randrange(n), code=code, blocks=1, delta=0.1,
                epsilon=0.05, seed=trial,
            )
            result = run_block(config)
            (block,) = parse_transcript(result.transcript)
            tree, key = config.tree, result.key_indices[config.leader]
            assert result.status == "completed"
            assert gf2_key_entropy(block, tree, code) == code.k
            # Every key fits the transcript alone; only the true one fits a
            # leak of every code position.
            assert gf2_key_entropy(block, tree, code, key=key) == 0
            assert gf2_key_entropy(block, tree, code, key=key ^ 1) == 0

            edge = rng.choice(tree.edges)
            stream = SeededRng(config.seed).substream("block", 0).substream("edge", edge.a, edge.b)
            a, b = simulate_pairwise_kd(edge, 2 * m, stream)
            assert a == b
            truth = bits_of(a, 2 * m)
            (checks,) = [p for _, _, kind, p in block.sequence if kind == "check_positions"]
            code_positions = [p for p in range(2 * m) if p not in checks]
            some = sorted(rng.sample(range(m), rng.randrange(1, m)))
            for leak in ([], some, list(range(m))):  # every code position last
                leaked = [(edge.key, code_positions[i], truth[code_positions[i]]) for i in leak]
                # 2^rank(G restricted to the leaked columns) distinct restrictions.
                seen = {tuple(c >> (m - 1 - i) & 1 for i in leak) for c in code.codewords}
                rank = len(seen).bit_length() - 1
                assert rank == {0: 0, m: code.k}.get(len(leak), rank)
                assert gf2_key_entropy(block, tree, code, leaked) == code.k - rank
                assert gf2_key_entropy(block, tree, code, leaked, key) == 0
            assert gf2_key_entropy(block, tree, code, leaked, key ^ 1) is None


class TestKeyUniformity:
    """The chi-square test that acceptance criterion 8 applies to key indices."""

    def test_uniform_sample_not_rejected(self):
        rng = SeededRng(6).generator()
        indices = [rng.randrange(16) for _ in range(4000)]
        _, p_value = chi_square_uniformity(indices, 16)
        assert p_value >= 0.001
        for bit in range(4):
            ones = sum(idx >> bit & 1 for idx in indices)
            assert abs(ones / len(indices) - 0.5) < 0.02

    def test_constant_key_rejected(self):
        chi_square, p_value = chi_square_uniformity([5] * 2000, 16)
        assert chi_square == 2000 * 15
        assert p_value < 1e-10
