import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import edits, mutate, random_tree_edges, reference_parse_transcript
from treekd.eve_analysis import rounds_from_transcript
from treekd.graph_core import SecurityGraph, WeightedEdge
from treekd.linear_code import hamming_7_4
from treekd.protocol import ProtocolConfig, run_blocks
from treekd.transcript_io import (
    _announcement,
    _count,
    _parse_payload,
    format_payload,
    parse_transcript,
    transcript_lines,
)

# The regular expressions the parser once checked numbers and announcements
# with, kept as the oracle of the str-method checks that replaced them.
_ITEM = r"\((?:0|[1-9][0-9]*),(?:0|[1-9][0-9]*)\):[01]"
ANNOUNCEMENT = re.compile(rf"{_ITEM}(?:,{_ITEM})*")
EDGE_BIT = re.compile(r"\((\d+),(\d+)\):([01])")  # run only on a fullmatched text
NUMBER = re.compile(r"0|[1-9][0-9]*")


def pattern_count(text, what):
    if not NUMBER.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not a canonical ASCII number")
    return int(text)


def pattern_announcement(text):
    if not ANNOUNCEMENT.fullmatch(text):
        raise ValueError(f"malformed announcement payload {text!r}")
    items = EDGE_BIT.findall(text)
    record = {(int(a), int(b)): int(bit) for a, b, bit in items}
    if len(record) != len(items):
        raise ValueError(f"announcement repeats an edge: {text!r}")
    return record


def outcome(parse, *args):
    """repr of what parse(*args) returns, or the message it raises."""
    try:
        return repr(parse(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


# Digits, the announcement punctuation, a space, an Arabic-Indic two and a
# superscript two: str.isdigit() is true for both of those last two.
ALPHABET = "0123456789(),:\u0662\u00b2 "
NUMBERS = st.sampled_from(["0", "1", "2", "7", "10", "23"])
NUMBERISH = st.one_of(
    NUMBERS,
    st.sampled_from(["01", "00", "\u0662", "\u00b2", " 1", ""]),
    st.text(ALPHABET, max_size=3),
)
# Few numbers, so some announcements repeat an edge.
ANNOUNCEMENTS = st.lists(
    st.builds("({},{}):{}".format, NUMBERS, NUMBERS, st.sampled_from("01")),
    min_size=1, max_size=4,
).map(",".join)
TEXTS = st.one_of(
    st.text(ALPHABET, max_size=24),
    NUMBERISH,
    ANNOUNCEMENTS,
    st.builds(mutate, ANNOUNCEMENTS, edits(ALPHABET)),
)


class TestChecksMatchThePatterns:
    """_count and the announcement check accept exactly the texts the old
    patterns fullmatch, and fail on each other text with the same error."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(NUMBERISH, st.text(ALPHABET, max_size=6)))
    @example("0")
    @example("10")
    @example("01")
    @example("\u0662")
    @example("\u00b2")
    def test_count(self, text):
        assert outcome(_count, text, "seq") == outcome(pattern_count, text, "seq")

    @settings(max_examples=300, deadline=None)
    @given(text=TEXTS)
    @example("(0,1):0,(1,2):1")
    @example("(0,1):0,(0,1):1")
    @example("(0,1):0,")
    @example("(0,1):0,(1,2):1,(3,\u00b2):0")
    @example("(10,2):1")
    @example("(0,1):1)")
    def test_announcement(self, text):
        assert outcome(_parse_payload, "announcement", text, {}) == outcome(
            pattern_announcement, text
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
        assert [line for block in blocks for line in transcript_lines(block)] == lines
        for block in blocks:
            assert_messages_read_as_their_lines(block)
        messages = [m for block in blocks for m in block.messages]
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


class TestSharedPayloadViews:
    """The rounds hold the parser's one read-only view per distinct text;
    messages are built, each with its own dict, only when first read."""

    LINES = [
        "0 1 announcement (0,1):1,(1,2):0",
        "1 0 terminal_choice 0",
        "2 1 announcement (0,1):1,(1,2):0",
        "3 0 terminal_choice 2",
    ]

    def test_round_payloads_are_shared_read_only_views(self):
        (block,) = parse_transcript(self.LINES)
        first, second = block.rounds
        assert first[1] is second[1]
        with pytest.raises(TypeError):
            first[1][0, 1] = 0
        assert first[1] == {(0, 1): 1, (1, 2): 0}

    def test_messages_are_built_on_first_read(self):
        (block,) = parse_transcript(self.LINES)
        assert "messages" not in block.__dict__
        messages = block.messages
        assert block.__dict__["messages"] is messages and block.messages is messages
        assert [m.seq for m in messages] == [0, 1, 2, 3]
        messages[0].payload[0, 1] = 0
        (announcements, _) = block.rounds
        assert announcements[1] == {(0, 1): 1, (1, 2): 0} == messages[2].payload


def assert_messages_read_as_their_lines(block):
    """Each of block's messages equals a fresh parse of its own line and
    renders back to that line, and block's rounds regroup from its
    messages: a table of texts keyed on the wrong text fails here."""
    assert len(block.messages) == len(block)
    for message, line in zip(block.messages, block):
        *head, text = (line.split(" ", 3) + [""])[:4]
        assert message.payload == _parse_payload(message.kind, text, {})
        if message.kind == "abort" and text:
            # Read in any order, written in agent order.
            text = ",".join(sorted(text.split(","), key=lambda item: int(item.split(":")[0])))
        rendered = format_payload(message.kind, message.payload)
        assert f"{message.seq} {message.sender} {message.kind} {rendered}" == " ".join(
            head + [text]
        )
    assert grouped(block) == regroup(block.messages)


def grouped(block):
    """A parsed block's rounds and its sequence without line numbers."""
    return block.rounds, [entry[1:] for entry in block.sequence]


def regroup(messages):
    """A block's rounds and sequence, message by message: each
    terminal_choice closes the announcements since the previous
    terminal_choice, by sender, and every message but an announcement is
    one (sender, kind, payload) of the sequence.  The oracle for what
    parse_transcript keeps as it checks them."""
    rounds, sequence, pending = [], [], {}
    for msg in messages:
        if msg.kind == "announcement":
            pending[msg.sender] = msg.payload
            continue
        if msg.kind == "terminal_choice":
            rounds.append(pending)
            pending = {}
        sequence.append((msg.sender, msg.kind, msg.payload))
    return rounds, sequence


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
            assert grouped(block) == regroup(block.messages)
            assert len(block.rounds) == 2 * config.code.m
            assert rounds_from_transcript(block) is block.rounds
        if flip == 0.3 and n > 2:
            assert "aborted" in {result.status for result in results}


def honest_transcript(n, seed, flip, delta):
    """Four blocks of an honest run on a random n-agent tree, as text."""
    edges = [
        WeightedEdge(e.a, e.b, flip_prob=flip)
        for e in random_tree_edges(n, random.Random(seed))
    ]
    config = ProtocolConfig(
        graph=SecurityGraph(n, edges, range(n)), leader=seed % n,
        code=hamming_7_4(), blocks=4, delta=delta, epsilon=0.05, seed=seed,
    )
    lines = []
    for i, result in enumerate(run_blocks(config)):
        lines.append(f"# block {i}")
        lines.extend(transcript_lines(result.transcript))
    return "\n".join(lines) + "\n"


# One run whose four blocks complete, one whose four blocks abort.
FUZZ_TRANSCRIPTS = [
    honest_transcript(4, 1, 0.0, 0.3), honest_transcript(5, 2, 0.3, 0.1)
]


# The first terminal_choice's sender, rewritten: that line's text after its
# seq is new, while its kind and payload repeat on later lines.
SENDER_SWAP = [(FUZZ_TRANSCRIPTS[0].index(" terminal_choice") - 1, 1, "0")]


class TestMutatedTranscripts:
    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from(FUZZ_TRANSCRIPTS),
        changes=edits("0123456789 (),:/#\n-+_.eE\u0662\u00b2abcdeiknorstu"),
    )
    @example(base=FUZZ_TRANSCRIPTS[0], changes=SENDER_SWAP)
    def test_only_line_numbered_value_errors(self, base, changes):
        # A transcript that does not parse is a ValueError naming its line,
        # never any other exception: analyze turns only that into an error.
        # One that parses reads as its lines, line by line.
        try:
            blocks = parse_transcript(mutate(base, changes).splitlines())
        except ValueError as exc:
            assert str(exc).startswith("transcript line "), exc
            return
        for block in blocks:
            assert_messages_read_as_their_lines(block)


def parse_outcome(parse, text):
    """repr of each block's lines, rounds, sequence and messages as parse
    reads text, or the message it raises."""
    try:
        blocks = parse(text.splitlines())
    except ValueError as exc:
        return f"ValueError: {exc}"
    return repr([
        (list(block), block.rounds, block.sequence, block.messages) for block in blocks
    ])


ANNOUNCE = "0 1 announcement (0,1):0,(1,2):1\n"


class TestFastPathsMatchTheOracle:
    """parse_transcript accepts a line on one test of its seq and the round
    rules and reads an announcement's bits alone once its edge list has
    parsed; on any input it must give what the parser without those paths
    gives (conftest.reference_parse_transcript): the same blocks, rounds
    and sequences, or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from(FUZZ_TRANSCRIPTS),
        changes=edits("0123456789 (),:/#\n-+_.eE\u0662\u00b2abcdeiknorstu"),
    )
    @example(base=FUZZ_TRANSCRIPTS[0], changes=SENDER_SWAP)
    def test_mutated_transcripts(self, base, changes):
        text = mutate(base, changes)
        assert parse_outcome(parse_transcript, text) == parse_outcome(
            reference_parse_transcript, text
        )

    @pytest.mark.parametrize(
        "text",
        [
            # A second announcement from agent 1 whose seq is also wrong:
            # the second announcement is named first.
            ANNOUNCE + "2 1 announcement (0,1):1,(1,2):1\n",
            # A new block while a round is open, from the same sender.
            ANNOUNCE + "0 1 announcement (0,1):1,(1,2):1\n",
            ANNOUNCE + "1 0 check_positions 0\n",
            ANNOUNCE + "1 0 terminal_choice 0\n2 0 check_values 01\n"
            "3 1 announcement (0,1):0,(1,2):1\n",
            ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:0\n3 0 check_values 01\n",
            ANNOUNCE + "1 0 terminal_choice 0\n2 0 abort 1:0\n0 0 terminal_choice 2\n",
            ANNOUNCE + "1 0 terminal_choice 0\n3 0 terminal_choice 2\n",
            # Bits change and the edge list stays: read from the bits alone.
            ANNOUNCE + "1 0 terminal_choice 0\n2 1 announcement (0,1):1,(1,2):0\n"
            "3 0 terminal_choice 2\n4 2 announcement (0,1):1,(1,2):1\n5 0 terminal_choice 0\n",
            # Edge lists equal but for a node id's 1 and 0.
            "0 2 announcement (1,2):0,(2,3):1\n1 0 terminal_choice 0\n"
            "2 2 announcement (0,2):0,(2,3):1\n3 0 terminal_choice 0\n",
            # Cleared forms that are not that of any parsed edge list.
            ANNOUNCE + "1 0 terminal_choice 0\n2 1 announcement (0,1):10,(1,2):1\n",
            ANNOUNCE + "1 0 terminal_choice 0\n2 1 announcement (0,1):1,(1,2):1,\n",
            ANNOUNCE + "1 0 terminal_choice 0\n2 1 announcement (0,1):0,(0,1):1\n",
        ],
        ids=["second-announcement-before-seq-gap", "seq-0-in-open-round",
             "check-in-open-round", "announcement-after-checks",
             "check-after-outcome", "new-block-after-outcome", "seq-gap",
             "same-edge-list-new-bits", "edge-lists-differ-in-a-1",
             "bit-of-two-digits", "trailing-comma", "repeated-edge"],
    )
    def test_hand_written_cases(self, text):
        assert parse_outcome(parse_transcript, text) == parse_outcome(
            reference_parse_transcript, text
        )


class TestEdgeBits:
    """_announcement, with its edge-list table primed by a valid payload,
    reads every text as the old pattern does, and reads a text only by its
    bits exactly when its cleared form is the primer's."""

    @settings(max_examples=300, deadline=None)
    @given(
        primer=ANNOUNCEMENTS,
        bits=st.lists(st.sampled_from("01"), min_size=4, max_size=4),
        changes=st.one_of(st.just([]), edits(ALPHABET)),
    )
    @example(primer="(0,1):0,(1,2):1", bits=list("1011"), changes=[])
    @example(primer="(0,1):0,(1,2):1", bits=list("1011"), changes=[(7, 0, "1")])
    def test_matches_announcement_after_a_valid_primer(self, primer, bits, changes):
        assume(not outcome(pattern_announcement, primer).startswith("ValueError"))
        items = primer.split(",")
        text = ",".join(item[:-1] + bit for item, bit in zip(items, bits))
        text = mutate(text, changes) if changes else text
        table = {}
        _announcement(primer, table)
        expected = outcome(pattern_announcement, text)
        assert outcome(_announcement, text, table) == expected
        same_list = text.replace(":1", ":0") == primer.replace(":1", ":0")
        assert len(table) == (1 if same_list or "ValueError" in expected else 2)
