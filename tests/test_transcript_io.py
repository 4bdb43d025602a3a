import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree_edges
from treekd.eve_analysis import rounds_from_transcript
from treekd.graph_core import SecurityGraph, WeightedEdge
from treekd.linear_code import hamming_7_4
from treekd.protocol import ProtocolConfig, run_blocks
from treekd.transcript_io import (
    _parse_payload,
    format_payload,
    parse_transcript,
    transcript_lines,
)


class TestParseOncePerDistinctText:
    """parse_transcript parses each distinct payload text once per call; every
    message must still read as if its line had been parsed on its own."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        flip=st.sampled_from([0.0, 0.02, 0.2]),
    )
    def test_messages_equal_a_fresh_parse_of_their_line(self, n, seed, flip):
        edges = [
            WeightedEdge(e.a, e.b, flip_prob=flip)
            for e in random_tree_edges(n, random.Random(seed))
        ]
        config = ProtocolConfig(
            graph=SecurityGraph(n, edges, range(n)), leader=seed % n,
            code=hamming_7_4(), blocks=3, delta=0.3, epsilon=0.05, seed=seed,
        )
        lines = [
            line for result in run_blocks(config)
            for line in transcript_lines(result.transcript)
        ]
        blocks = parse_transcript(lines)
        messages = [m for block in blocks for m in block.messages]
        assert [line for block in blocks for line in transcript_lines(block)] == lines
        assert len(messages) == len(lines)
        for message, line in zip(messages, lines):
            text = (line.split(" ", 3) + [""])[3]
            assert message.payload == _parse_payload(message.kind, text)
            rendered = format_payload(message.kind, message.payload)
            assert f"{message.seq} {message.sender} {message.kind} {rendered}" == line
        dicts = [m.payload for m in messages if isinstance(m.payload, dict)]
        assert len({id(d) for d in dicts}) == len(dicts)

    def test_repeated_texts_give_equal_but_distinct_dicts(self):
        lines = [
            "0 1 announcement (0,1):1,(1,2):0",
            "1 0 terminal_choice 0",
            "2 1 announcement (0,1):1,(1,2):0",
            "3 0 terminal_choice 2",
            "4 0 abort 1:1/2,2:0",
            "0 1 announcement (0,1):1,(1,2):0",
            "1 0 terminal_choice 0",
            "2 0 abort 1:1/2,2:0",
        ]
        blocks = parse_transcript(lines)
        for kind in ("announcement", "abort"):
            first, *rest = [m.payload for b in blocks for m in b.messages if m.kind == kind]
            assert rest and all(p == first and p is not first for p in rest)
            original = dict(first)
            rest[0].clear()
            assert first == original and all(p == original for p in rest[1:])


def regroup(messages):
    """A block's rounds, message by message: each terminal_choice closes the
    announcements since the previous terminal_choice, by sender, with its own
    sender and payload.  The oracle
    for the rounds parse_transcript keeps as it checks them."""
    rounds, pending = [], {}
    for msg in messages:
        if msg.kind == "announcement":
            pending[msg.sender] = msg.payload
        elif msg.kind == "terminal_choice":
            rounds.append((pending, msg.sender, msg.payload))
            pending = {}
    return rounds


class TestParsedRounds:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        flip=st.sampled_from([0.0, 0.01, 0.3]),
    )
    def test_rounds_equal_a_message_by_message_regrouping(self, n, seed, flip):
        # At flip 0.3, every agent but the leader mismatches on some check
        # bit in all but a few blocks, so those blocks abort at delta 0.1.
        edges = [
            WeightedEdge(e.a, e.b, flip_prob=flip)
            for e in random_tree_edges(n, random.Random(seed))
        ]
        config = ProtocolConfig(
            graph=SecurityGraph(n, edges, range(n)), leader=seed % n,
            code=hamming_7_4(), blocks=4, delta=0.1, epsilon=0.05, seed=seed,
        )
        results = run_blocks(config)
        lines = []
        for i, result in enumerate(results):
            lines.append(f"# block {i}")
            lines.extend(transcript_lines(result.transcript))
        blocks = parse_transcript(lines)
        assert len(blocks) == len(results)
        for block in blocks:
            assert block.rounds == regroup(block.messages)
            assert len(block.rounds) == 2 * config.code.m
            assert rounds_from_transcript(block) is block.rounds
        if flip == 0.3 and n > 2:
            assert "aborted" in {result.status for result in results}
