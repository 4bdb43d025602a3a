import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HUB7, bits_of, parsed_round, random_tree_edges
from treekd import protocol
from treekd.channel_sim import simulate_pairwise_kd
from treekd.eve_analysis import rounds_from_transcript
from treekd.graph_core import SecurityGraph, SpanningTree, WeightedEdge, terminal_agents
from treekd.linear_code import hamming_7_4
from treekd.protocol import ProtocolConfig
from treekd.rng import SeededRng
from treekd.subroutine import (
    announcement_layout,
    random_efficiency,
    reconstruct_assignment,
    render_rounds,
    subroutine_round,
)
from treekd.transcript_io import format_payload, parse_transcript, transcript_lines


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


def agent_bits(tree, position_bits, seed):
    """Every agent's secret bit for one round, each from its own
    reconstruction of the round's transcript as parsed back from its text,
    and that parsed transcript."""
    transcript = parsed_round(tree, position_bits, seed)
    (announcements,) = rounds_from_transcript(transcript)
    ((_, _, _, chosen),) = transcript.sequence
    key = tree.terminal_keys[chosen]
    bits = {}
    for agent in range(tree.n):
        own = {
            e.key: position_bits[e.key][int(agent == e.b)]
            for e in tree.incident_edges(agent)
        }
        bits[agent] = reconstruct_assignment(agent, own, announcements, tree)[key]
    return bits, transcript


class TestReconstruction:
    def test_noiseless_path_exact_recovery(self):
        tree = path_tree()
        for b1, b2, mask in product((0, 1), repeat=3):
            truth = {(0, 1): b1, (1, 2): b2}
            announcements = announce_all(tree, truth, {1: mask})
            own = {(0, 1): b1}
            assert reconstruct_assignment(0, own, announcements, tree) == truth

    def test_noiseless_random_trees_every_agent_recovers(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(2, 11)
            tree = SpanningTree(n, random_tree_edges(n, rng))
            truth = {e.key: rng.randrange(2) for e in tree.edges}
            masks = {a: rng.randrange(2) for a in range(n)}
            announcements = announce_all(tree, truth, masks)
            for agent in range(n):
                own = {e.key: truth[e.key] for e in tree.incident_edges(agent)}
                assert reconstruct_assignment(agent, own, announcements, tree) == truth

    def test_flipped_own_copy_complements_deduced_component(self):
        # Hand-propagation oracle on the path 0-1-2, reconstructing at
        # agent 2 whose copy of edge (1,2) is flipped: the deduced mask is
        # off by one, so every bit learned through that edge complements.
        tree = path_tree()
        for b1, b2, mask in product((0, 1), repeat=3):
            truth = {(0, 1): b1, (1, 2): b2}
            announcements = announce_all(tree, truth, {1: mask})
            got = reconstruct_assignment(2, {(1, 2): b2 ^ 1}, announcements, tree)
            assert got == {(0, 1): b1 ^ 1, (1, 2): b2 ^ 1}

    def test_missing_announcement_raises(self):
        tree = path_tree()
        with pytest.raises(ValueError, match="no announcement from non-terminal agent 1"):
            reconstruct_assignment(0, {(0, 1): 0}, {}, tree)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 12),
        positions=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        flip=st.floats(0.0, 0.49),
        agent=st.integers(0, 11),
    )
    def test_words_reconstruct_every_position_at_once(
        self, n, positions, seed, flip, agent
    ):
        # The reconstruction only XORs and never branches on a bit, so on
        # int words (b-side copies noisy, one mask word per announcer) it
        # gives at every position what the single-bit call gives there.
        rng = random.Random(seed)
        tree = SpanningTree(n, random_tree_edges(n, rng))
        agent %= n
        words = {}
        for e in tree.edges:
            a = rng.getrandbits(positions)
            noise = sum((rng.random() < flip) << i for i in range(positions))
            words[e.key] = (a, a ^ noise)
        announcements = {}
        for v in set(range(n)) - terminal_agents(tree):
            mask = rng.getrandbits(positions)
            announcements[v] = {
                e.key: words[e.key][int(v == e.b)] ^ mask for e in tree.incident_edges(v)
            }
        own = {e.key: words[e.key][int(agent == e.b)] for e in tree.incident_edges(agent)}
        whole = reconstruct_assignment(agent, own, announcements, tree)
        for i in range(positions):
            def at(record):
                return {key: word >> i & 1 for key, word in record.items()}

            single = reconstruct_assignment(
                agent, at(own), {v: at(r) for v, r in announcements.items()}, tree
            )
            assert at(whole) == single


class TestSecretBit:
    def test_path_terminals(self):
        tree = path_tree()
        assignment = {(0, 1): 1, (1, 2): 0}
        assert assignment[tree.terminal_keys[0]] == 1
        assert assignment[tree.terminal_keys[2]] == 0


class TestSubroutineRound:
    def test_noiseless_agreement_on_random_trees(self):
        rng = random.Random(31)
        for _ in range(20):
            n = 5
            tree = SpanningTree(n, random_tree_edges(n, rng))
            bits = {e.key: (b := rng.randrange(2), b) for e in tree.edges}
            secrets, _ = agent_bits(tree, bits, rng.randrange(2**32))
            assert len(set(secrets.values())) == 1

    def test_two_agents_no_announcements(self):
        tree = SpanningTree(2, [WeightedEdge(0, 1)])
        secrets, transcript = agent_bits(tree, {(0, 1): (1, 1)}, 2)
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
            secrets, transcript = agent_bits(tree, bits, seed)
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

    def test_chosen_terminal_uniform_on_path(self):
        # The path 0-1-2 has terminals 0 and 2; each round returns one of
        # them, about half the time each.
        tree = path_tree()
        rng = SeededRng(123)
        counts = {0: 0, 2: 0}
        for _ in range(10**4):
            chosen, _ = subroutine_round(tree, rng)
            counts[chosen] += 1
        assert abs(counts[0] - 5000) <= 300

    def test_transcript_reveals_no_unmasked_bit(self):
        # For every announcement either the masked record equals the true
        # incident bits (mask 0) or its complement (mask 1); the transcript
        # alone cannot distinguish which, so run many rounds and check only
        # that both explanations remain possible.
        rng = random.Random(77)
        tree = path_tree(4)
        truth = {e.key: rng.randrange(2) for e in tree.edges}
        bits = {k: (v, v) for k, v in truth.items()}
        for m in parsed_round(tree, bits, 5).messages:
            if m.kind != "announcement":
                continue
            diffs = {truth[e] ^ b for e, b in m.payload.items()}
            assert len(diffs) == 1  # consistent with one mask, value unknown

    def test_reads_the_given_bit_of_each_word(self):
        # Bit 2 of these words is position 0 of a 3-position block, whose
        # round 0 draws what the single-bit block's one round draws.
        rng = random.Random(5)
        tree = SpanningTree(6, random_tree_edges(6, rng))
        single = {e.key: (rng.randrange(2), rng.randrange(2)) for e in tree.edges}
        words = {
            key: (a << 2 | rng.randrange(4), b << 2 | rng.randrange(4))
            for key, (a, b) in single.items()
        }
        for leader in range(6):
            drawn, plain = rendered_block(tree, single, 1, leader)
            wide_drawn, wide = rendered_block(tree, words, 3, leader)
            assert wide_drawn[0] == drawn[0]
            assert wide[: len(plain)] == plain

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        flip=st.floats(0.0, 0.49),
        leader=st.integers(0, 11),
        positions=st.integers(1, 6),
    )
    def test_every_bit_matches_own_reconstruction(self, n, seed, flip, leader, positions):
        # The block engine against the per-agent oracle.  Random tree, each
        # edge's b-side copies flipped with probability flip, any leader:
        # every record parsed back from the transcript is its sender's
        # copies XOR one constant, and at every position every agent's
        # secret bit equals the one its own reconstruction gives.
        rng = random.Random(seed)
        edges = [
            WeightedEdge(e.a, e.b, flip_prob=flip) for e in random_tree_edges(n, rng)
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
        pairs = {}

        def recording(edge, length, edge_rng):
            words = simulate_pairwise_kd(edge, length, edge_rng)
            pairs[edge.key] = tuple(bits_of(word, length) for word in words)
            return words

        with mock.patch.object(protocol, "simulate_pairwise_kd", recording):
            words, engine_transcript = protocol.run_rounds(
                config, SeededRng(config.seed).substream("block", 0), positions
            )
        strings = {a: bits_of(w, positions) for a, w in enumerate(words)}
        tree = config.tree
        (transcript,) = parse_transcript(transcript_lines(engine_transcript))
        rounds = rounds_from_transcript(transcript)
        assert len(rounds) == positions
        choices = [chosen for _, _, _, chosen in transcript.sequence]
        for r, (announcements, chosen) in enumerate(zip(rounds, choices)):
            assert set(announcements) == set(range(n)) - terminal_agents(tree)
            key = tree.terminal_keys[chosen]
            for agent in range(n):
                copies = {
                    e.key: pairs[e.key][0 if agent == e.a else 1][r]
                    for e in tree.incident_edges(agent)
                }
                if agent in announcements:
                    masked = announcements[agent]
                    assert set(masked) == set(copies)
                    assert len({masked[e] ^ copies[e] for e in copies}) == 1
                expected = reconstruct_assignment(agent, copies, announcements, tree)
                assert strings[agent][r] == expected[key]


def dict_rendered_round(tree, words, bit, rng, leader, first=0):
    """A round drawn and rendered per bit, as reference_rounds does: a mask
    from getrandbits(1) per non-terminal agent in ascending id, each record
    a dict rendered by format_payload, then a choice of the sorted
    terminals, all drawn from rng's generator.  Returns (chosen, masks)
    and the transcript lines, numbered from `first`."""
    draw = rng.generator()
    lines, masks = [], []
    for agent in range(tree.n):
        edges = tree.incident_edges(agent)
        if len(edges) < 2:
            continue
        mask = draw.getrandbits(1)
        masks.append(mask)
        record = {e.key: words[e.key][int(agent == e.b)] >> bit & 1 ^ mask for e in edges}
        text = format_payload("announcement", record)
        lines.append(f"{first + len(lines)} {agent} announcement {text}")
    chosen = draw.choice(sorted(terminal_agents(tree)))
    lines.append(f"{first + len(lines)} {leader} terminal_choice {chosen}")
    return (chosen, masks), lines


def rendered_block(tree, words, positions, leader):
    """A block of `positions` rounds on the given (a-side, b-side) words,
    round r drawn from SeededRng(r): each announcer's words XOR its mask
    word (round r's mask at position r, the most significant bit first),
    rendered by render_rounds.  Returns every round's (chosen, masks) and
    the lines."""
    layout = announcement_layout(tree)
    drawn = [subroutine_round(tree, SeededRng(r)) for r in range(positions)]
    mask_words = [
        sum(mask << positions - 1 - r for r, mask in enumerate(column))
        for column in zip(*(masks for _, masks in drawn))
    ]
    masked = {
        agent: {key: words[key][side] ^ mask for key, side in sides}
        for (agent, _, sides), mask in zip(layout, mask_words)
    }
    return drawn, render_rounds(layout, masked, [chosen for chosen, _ in drawn], leader)


def column_case(tree, positions, top, rng):
    """The tree, random (a-side, b-side) words below 2**top (all 0 for top
    0) and the block's positions."""
    limit = 1 << top
    words = {e.key: (rng.randrange(limit), rng.randrange(limit)) for e in tree.edges}
    return tree, words, positions


COLUMN_CASES = {
    "all-zero-words": lambda rng: column_case(
        SpanningTree(8, random_tree_edges(8, rng)), 14, 0, rng
    ),
    "leading-zero-columns": lambda rng: column_case(
        SpanningTree(8, random_tree_edges(8, rng)), 14, 11, rng
    ),
    "full-words": lambda rng: column_case(
        SpanningTree(8, random_tree_edges(8, rng)), 14, 14, rng
    ),
    "one-position": lambda rng: column_case(
        SpanningTree(6, random_tree_edges(6, rng)), 1, 1, rng
    ),
    "two-agents": lambda rng: column_case(
        SpanningTree(2, [WeightedEdge(0, 1)]), 5, 5, rng
    ),
    "degree-5-announcer": lambda rng: column_case(SpanningTree(7, HUB7), 6, 6, rng),
}


class TestColumnRendering:
    @pytest.mark.parametrize("case", list(COLUMN_CASES))
    def test_lines_match_dict_rendering_at_every_position(self, case):
        # render_rounds' one % per line against a dict per record: every
        # position, the top bit included, for two leaders.  All-zero words
        # and words below 2**11 write their top digits as 0.
        tree, words, positions = COLUMN_CASES[case](random.Random(case))
        stride = len(announcement_layout(tree)) + 1
        for leader in (0, tree.n - 1):
            drawn, lines = rendered_block(tree, words, positions, leader)
            assert len(lines) == positions * stride
            for r in range(positions):
                expected, round_lines = dict_rendered_round(
                    tree, words, positions - 1 - r, SeededRng(r), leader, r * stride
                )
                assert drawn[r] == expected
                assert lines[r * stride : (r + 1) * stride] == round_lines

    def test_two_agents_have_no_announcers(self):
        tree = SpanningTree(2, [WeightedEdge(0, 1)])
        assert announcement_layout(tree) == ()
        assert render_rounds((), {}, [0, 1], leader=1) == [
            "0 1 terminal_choice 0",
            "1 1 terminal_choice 1",
        ]

    def test_degree_5_layout(self):
        (hub, template, hub_sides), (_, _, tail_sides) = announcement_layout(
            SpanningTree(7, HUB7)
        )
        assert hub == 2
        assert template == "(0,2):%s,(1,2):%s,(2,3):%s,(2,4):%s,(2,5):%s"
        assert [side for _, side in hub_sides] == [1, 1, 0, 0, 0]
        assert tail_sides == (((2, 5), 1), ((5, 6), 0))


class TestRandomEfficiency:
    def test_small_values(self):
        assert random_efficiency(2) == 1
        assert random_efficiency(3) == Fraction(3, 4)

    def test_limit_one_half(self):
        assert abs(float(random_efficiency(10**6)) - 0.5) < 1e-5

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            random_efficiency(1)
