import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_configurations,
    brute_force_entropy,
    chi_square_uniformity,
    parsed_round,
    random_tree_edges,
)
from treekd.eve_analysis import (
    consistent_configurations,
    rounds_from_transcript,
    secret_entropy,
)
from treekd.graph_core import SpanningTree, WeightedEdge, terminal_agents
from treekd.rng import SeededRng
from treekd.subroutine import NonTerminalChoiceError


def honest_round(tree, rng, seed):
    """Run one honest round; return what the eavesdropper sees of it, the
    (announcements, chosen terminal) pair, and the edge bits."""
    bits = {e.key: (b := rng.randrange(2), b) for e in tree.edges}
    (seen,) = rounds_from_transcript(parsed_round(tree, bits, seed))
    return seen, bits


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
            (announcements, _), bits = honest_round(tree, rng, seed)
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
            (announcements, _), _ = honest_round(tree, rng, trial)
            assert complementary(configurations(announcements, tree))

    def test_flipped_value_bit_is_invisible(self):
        # Flipping an announced *value* cannot be detected: any record over
        # the right edge set is still explainable by some mask, so the
        # consistent set stays at two complements.  This is the masking
        # guarantee itself, seen from the other side.
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        rng = random.Random(3)
        (announcements, _), _ = honest_round(tree, rng, 0)
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
        (announcements, _), _ = honest_round(tree, rng, 0)
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
            assert secret_entropy(count, chosen, tree) == brute_force_entropy(
                configs, chosen, tree
            )
        for chosen in set(range(n + 1)) - terminal_agents(tree):
            with pytest.raises(NonTerminalChoiceError):
                secret_entropy(count, chosen, tree)


class TestSecretEntropy:
    def test_two_complements_full_bit(self):
        tree = SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(1, 2)])
        rng = random.Random(8)
        for seed in range(10):
            (announcements, _), _ = honest_round(tree, rng, seed)
            count = consistent_configurations(announcements, tree)
            for chosen in terminal_agents(tree):
                assert secret_entropy(count, chosen, tree) == 1.0

    def test_single_configuration_zero_entropy(self):
        tree = SpanningTree(2, [WeightedEdge(0, 1)])
        assert brute_force_entropy(({(0, 1): 1},), 0, tree) == 0.0
        assert secret_entropy(0, 0, tree) == 0.0

    def test_honest_random_trees_always_one_bit(self):
        rng = random.Random(13)
        for trial in range(40):
            n = rng.randrange(2, 13)
            tree = SpanningTree(n, random_tree_edges(n, rng))
            (announcements, chosen), _ = honest_round(tree, rng, trial)
            count = consistent_configurations(announcements, tree)
            assert secret_entropy(count, chosen, tree) == 1.0


class TestKeyUniformity:
    """The chi-square test that acceptance criterion 8 applies to key indices."""

    def test_uniform_sample_not_rejected(self):
        rng = SeededRng(6)
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
