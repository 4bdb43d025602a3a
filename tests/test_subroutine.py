import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree_edges
from treekd.channel_sim import Transcript
from treekd.graph_core import SpanningTree, WeightedEdge, terminal_agents
from treekd.rng import SeededRng
from treekd.subroutine import (
    AgentView,
    MissingAnnouncementError,
    NonTerminalChoiceError,
    choose_secret_terminal,
    random_efficiency,
    reconstruct_assignment,
    subroutine_round,
    terminal_edge_key,
)


def path_tree(n=3):
    return SpanningTree(n, [WeightedEdge(i, i + 1) for i in range(n - 1)])


def announce_all(tree, assignment, masks):
    """Honest announcements for every non-terminal agent."""
    terminals = terminal_agents(tree)
    return {
        agent: {
            e.key: assignment[e.key] ^ masks[agent] for e in tree.incident_edges(agent)
        }
        for agent in range(tree.n)
        if agent not in terminals
    }


def copies_of(tree, position_bits, agent):
    """An agent's own copies of its incident edge bits."""
    return {
        e.key: position_bits[e.key][0 if agent == e.a else 1]
        for e in tree.incident_edges(agent)
    }


class TestReconstruction:
    def test_noiseless_path_exact_recovery(self):
        tree = path_tree()
        for b1, b2, mask in product((0, 1), repeat=3):
            truth = {(0, 1): b1, (1, 2): b2}
            announcements = announce_all(tree, truth, {1: mask})
            own = AgentView(0, {(0, 1): b1})
            assert reconstruct_assignment(own, announcements, tree) == truth

    def test_noiseless_random_trees_every_agent_recovers(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(2, 11)
            tree = SpanningTree(n, random_tree_edges(n, rng))
            truth = {e.key: rng.randrange(2) for e in tree.edges}
            masks = {a: rng.randrange(2) for a in range(n)}
            announcements = announce_all(tree, truth, masks)
            for agent in range(n):
                own = AgentView(
                    agent,
                    {e.key: truth[e.key] for e in tree.incident_edges(agent)},
                )
                assert reconstruct_assignment(own, announcements, tree) == truth

    def test_flipped_own_copy_complements_deduced_component(self):
        # Hand-propagation oracle on the path 0-1-2, reconstructing at
        # agent 2 whose copy of edge (1,2) is flipped: the deduced mask is
        # off by one, so every bit learned through that edge complements.
        tree = path_tree()
        for b1, b2, mask in product((0, 1), repeat=3):
            truth = {(0, 1): b1, (1, 2): b2}
            announcements = announce_all(tree, truth, {1: mask})
            own = AgentView(2, {(1, 2): b2 ^ 1})
            got = reconstruct_assignment(own, announcements, tree)
            assert got == {(0, 1): b1 ^ 1, (1, 2): b2 ^ 1}

    def test_missing_announcement_raises(self):
        tree = path_tree()
        with pytest.raises(MissingAnnouncementError):
            reconstruct_assignment(AgentView(0, {(0, 1): 0}), {}, tree)


class TestTerminalChoice:
    def test_singleton(self):
        assert choose_secret_terminal({4}, SeededRng(0)) == 4

    def test_uniform_over_two(self):
        rng = SeededRng(123)
        counts = {0: 0, 2: 0}
        for _ in range(10**4):
            counts[choose_secret_terminal({0, 2}, rng)] += 1
        assert abs(counts[0] - 5000) <= 300

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            choose_secret_terminal(set(), SeededRng(0))


class TestSecretBit:
    def test_path_terminals(self):
        tree = path_tree()
        assignment = {(0, 1): 1, (1, 2): 0}
        assert assignment[terminal_edge_key(tree, 0)] == 1
        assert assignment[terminal_edge_key(tree, 2)] == 0

    def test_non_terminal_rejected(self):
        with pytest.raises(NonTerminalChoiceError):
            terminal_edge_key(path_tree(), 1)


class TestSubroutineRound:
    def test_noiseless_agreement_on_random_trees(self):
        rng = random.Random(31)
        for _ in range(20):
            n = 5
            tree = SpanningTree(n, random_tree_edges(n, rng))
            bits = {e.key: (b := rng.randrange(2), b) for e in tree.edges}
            secrets = subroutine_round(tree, bits, SeededRng(rng.randrange(2**32)), Transcript())
            assert len(set(secrets.values())) == 1

    def test_two_agents_no_announcements(self):
        tree = SpanningTree(2, [WeightedEdge(0, 1)])
        transcript = Transcript()
        secrets = subroutine_round(tree, {(0, 1): (1, 1)}, SeededRng(2), transcript)
        assert secrets == {0: 1, 1: 1}
        assert [m.kind for m in transcript.messages] == ["terminal_choice"]

    def test_single_flip_splits_far_side_from_leader(self):
        # Flip agent 2's copy on edge (1,2) of the path 0-1-2: agents 0 and
        # 1 still agree with the truth, agent 2 sees the complement
        # whenever the chosen terminal's bit was deduced through that edge.
        tree = path_tree()
        bits = {(0, 1): (1, 1), (1, 2): (0, 1)}  # b-side of (1,2) flipped
        seen_disagreement = False
        for seed in range(20):
            transcript = Transcript()
            secrets = subroutine_round(tree, bits, SeededRng(seed), transcript)
            chosen = next(
                m.payload for m in transcript.messages if m.kind == "terminal_choice"
            )
            assert secrets[0] == secrets[1]
            if chosen == 0:
                # agent 2 deduced (0,1) through its flipped edge
                assert secrets[2] == secrets[0] ^ 1
                seen_disagreement = True
            else:
                # chosen == 2: everyone takes their own copy of (1,2);
                # agent 2's copy is flipped
                assert secrets[2] == secrets[0] ^ 1
                seen_disagreement = True
        assert seen_disagreement

    def test_transcript_reveals_no_unmasked_bit(self):
        # For every announcement either the masked record equals the true
        # incident bits (mask 0) or its complement (mask 1); the transcript
        # alone cannot distinguish which, so run many rounds and check only
        # that both explanations remain possible.
        rng = random.Random(77)
        tree = path_tree(4)
        truth = {e.key: rng.randrange(2) for e in tree.edges}
        bits = {k: (v, v) for k, v in truth.items()}
        transcript = Transcript()
        subroutine_round(tree, bits, SeededRng(5), transcript)
        for m in transcript.messages:
            if m.kind != "announcement":
                continue
            diffs = {truth[e] ^ b for e, b in m.payload.items()}
            assert len(diffs) == 1  # consistent with one mask, value unknown

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        flip=st.floats(0.0, 0.5),
        leader=st.integers(0, 11),
    )
    def test_every_bit_matches_own_reconstruction(self, n, seed, flip, leader):
        # Random tree, each edge's b-side copy flipped with probability
        # flip, any leader: every agent's bit equals the one its own
        # reconstruction from the broadcast records gives, and every record
        # is its sender's copies XOR one constant.
        rng = random.Random(seed)
        tree = SpanningTree(n, random_tree_edges(n, rng))
        bits = {
            e.key: (b := rng.randrange(2), b ^ (rng.random() < flip))
            for e in tree.edges
        }
        transcript = Transcript()
        secrets = subroutine_round(tree, bits, SeededRng(seed), transcript, leader % n)
        announcements = {
            m.sender: m.payload for m in transcript.messages if m.kind == "announcement"
        }
        (chosen,) = (m.payload for m in transcript.messages if m.kind == "terminal_choice")
        assert set(announcements) == set(range(n)) - terminal_agents(tree)
        for agent, masked in announcements.items():
            copies = copies_of(tree, bits, agent)
            assert set(masked) == set(copies)
            assert len({masked[e] ^ copies[e] for e in copies}) == 1
        key = terminal_edge_key(tree, chosen)
        for agent in range(n):
            own = AgentView(agent, copies_of(tree, bits, agent))
            assert secrets[agent] == reconstruct_assignment(own, announcements, tree)[key]


class TestRandomEfficiency:
    def test_small_values(self):
        assert random_efficiency(2) == 1
        assert random_efficiency(3) == Fraction(3, 4)

    def test_limit_one_half(self):
        assert abs(float(random_efficiency(10**6)) - 0.5) < 1e-5

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            random_efficiency(1)
