"""Plain-text transcript log rendering and parsing.

One line per message: ``<seq> <sender> <kind> <payload>``, where seq is the
message's position in its block.  Lines starting with ``#`` are comments.
Payload text per kind:

- announcement:      ``(a,b):bit`` pairs, comma-separated, each edge once, in
                     the order recorded (ascending edge key from the engine)
- terminal_choice:   the chosen agent id
- check_positions:   sorted position indices, comma-separated
- check_values:      the m check bits as 0/1 characters, index 0 first
- code_broadcast:    the m broadcast bits as 0/1 characters
- abort:             ``agent:mismatch`` pairs, comma-separated, each agent
                     once, each mismatch an exact rational in [0, 1] as
                     ``str(Fraction)`` writes it: ``0``, ``1`` or ``p/q`` in
                     lowest terms

Every seq, agent id and position is written ``0|[1-9][0-9]*`` in ASCII
digits, and every number is read back only in the form it is written in.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Dict, Iterable, List, NamedTuple, Tuple

from .bits import BitString
from .channel_sim import Transcript
from .graph_core import EdgeKey


class BroadcastMessage(NamedTuple):
    seq: int
    sender: int
    kind: str
    payload: Any


class ParsedTranscript(Transcript):
    """A block read back from text: its lines, the message each carries,
    and its rounds as the parser checked them, one (announcements by
    sender, the choice's sender, chosen terminal) triple per
    terminal_choice."""

    def __init__(self):
        super().__init__()
        self.messages: List[BroadcastMessage] = []
        self.rounds: List[Tuple[Dict[int, Dict[EdgeKey, int]], int, int]] = []


def format_payload(kind: str, payload) -> str:
    """The one renderer of a message payload as transcript text."""
    if kind == "announcement":
        return ",".join(f"({a},{b}):{bit}" for (a, b), bit in payload.items())
    if kind in ("terminal_choice", "check_values", "code_broadcast"):
        return str(payload)
    if kind == "check_positions":
        return ",".join(str(i) for i in payload)
    if kind == "abort":
        return ",".join(f"{agent}:{frac}" for agent, frac in sorted(payload.items()))
    raise ValueError(f"unknown kind {kind!r}")


def transcript_lines(t: Transcript) -> List[str]:
    return t.lines


_ITEM = r"\((?:0|[1-9][0-9]*),(?:0|[1-9][0-9]*)\):[01]"
_ANNOUNCEMENT = re.compile(rf"{_ITEM}(?:,{_ITEM})*")
# Only run on a payload that _ANNOUNCEMENT has matched.
_EDGE_BIT = re.compile(r"\((\d+),(\d+)\):([01])")
_NUMBER = re.compile(r"0|[1-9][0-9]*")


def _count(text: str, what: str) -> int:
    """text as a non-negative int, read only as str() writes one: int()
    alone also reads '00', '+1', '0_1' and digits such as '\u0662'."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not a canonical ASCII number")
    return int(text)


def _mismatch(text: str) -> Fraction:
    """text as an abort mismatch, read only as str() writes a Fraction in
    [0, 1]: Fraction() alone also reads '2/4', '0.5', '+1/7', '1_0/7',
    '-1/7' and non-ASCII digits."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"abort mismatch {text!r} has a zero denominator") from None
    except ValueError:
        value = None
    if value is None or not 0 <= value <= 1 or str(value) != text:
        raise ValueError(f"abort mismatch {text!r} is not a canonical fraction")
    return value


def _parse_payload(kind: str, text: str):
    if kind == "announcement":
        if not _ANNOUNCEMENT.fullmatch(text):
            raise ValueError(f"malformed announcement payload {text!r}")
        items = _EDGE_BIT.findall(text)
        record: Dict[EdgeKey, int] = {
            (int(a), int(b)): int(bit) for a, b, bit in items
        }
        if len(record) != len(items):
            raise ValueError(f"announcement repeats an edge: {text!r}")
        return record
    if kind == "terminal_choice":
        return _count(text, "terminal choice")
    if kind == "check_positions":
        return tuple(_count(x, "check position") for x in text.split(",")) if text else ()
    if kind in ("check_values", "code_broadcast"):
        return BitString.from_text(text)
    if kind == "abort":
        out: Dict[int, Fraction] = {}
        for item in text.split(",") if text else ():
            fields = item.split(":")
            if len(fields) != 2:
                raise ValueError(f"malformed abort item {item!r}")
            agent = _count(fields[0], "abort agent")
            if agent in out:
                raise ValueError(f"abort names agent {agent} twice")
            out[agent] = _mismatch(fields[1])
        return out
    raise ValueError(f"unknown kind {kind!r}")


def parse_transcript(lines: Iterable[str]) -> List[ParsedTranscript]:
    """Parse one or more concatenated block transcripts.

    This is where sequence numbers and kinds enter the program from
    outside, so they are checked here: each block's numbers run 0, 1, 2,
    ... (a 0 starts the next block), every kind is a known one, a
    terminal_choice must close every run of announcements, each agent
    announces at most once per round, and a block's rounds come before
    its other messages: once a block has carried any other message, a
    later announcement or terminal_choice in it is an error.  Each
    terminal_choice closes one of its block's rounds: the open round's
    announcements by sender, its own sender, and the terminal it names.

    Each distinct seq or sender text, and each distinct payload text of a
    kind, is parsed once per call, as a transcript repeats few texts many
    times; every message still gets its own copy of a dict payload, so no
    two messages share one.
    """
    transcripts: List[ParsedTranscript] = []
    current: ParsedTranscript | None = None
    parsed: Dict[Tuple[str, str], Any] = {}  # (kind, text) -> its payload
    numbers: Dict[str, int] = {}  # seq or sender text -> its value
    open_round = 0  # first line of a round; only a terminal_choice may follow it
    pending: Dict[int, Dict[EdgeKey, int]] = {}  # the open round's records by sender
    rounds_done = False  # the block has carried a message past its rounds
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            seq_s, sender_s, kind, payload_text = (line.split(" ", 3) + [""])[:4]
            seq = numbers.get(seq_s)
            if seq is None:
                seq = numbers[seq_s] = _count(seq_s, "seq")
            sender = numbers.get(sender_s)
            if sender is None:
                sender = numbers[sender_s] = _count(sender_s, "sender")
            key = (kind, payload_text)
            payload = parsed.get(key)
            if payload is None:
                payload = parsed[key] = _parse_payload(kind, payload_text)
            elif isinstance(payload, dict):
                payload = dict(payload)
            if open_round and (seq == 0 or kind not in ("announcement", "terminal_choice")):
                raise ValueError(f"round from line {open_round} has no terminal_choice")
            if kind == "announcement" and sender in pending:
                raise ValueError(
                    f"round from line {open_round} has a second announcement "
                    f"from agent {sender}"
                )
            if seq == 0:
                current = ParsedTranscript()
                transcripts.append(current)
                rounds_done = False
            if current is None:
                raise ValueError(f"stream starts at seq {seq}")
            if seq != len(current.lines):
                raise ValueError(f"expected seq {len(current.lines)}, got {seq}")
            if rounds_done and kind in ("announcement", "terminal_choice"):
                raise ValueError(f"{kind} after the block's rounds")
            # tuple.__new__ skips the NamedTuple's Python-level __new__.
            message = tuple.__new__(BroadcastMessage, (seq, sender, kind, payload))
            current.messages.append(message)
            current.lines.append(line)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"transcript line {lineno}: {exc}") from exc
        if kind == "announcement":
            open_round = open_round or lineno
            pending[sender] = payload
        else:
            if kind == "terminal_choice":
                current.rounds.append((pending, sender, payload))
            else:
                rounds_done = True
            open_round = 0
            pending = {}
    if open_round:
        raise ValueError(f"transcript line {open_round}: round has no terminal_choice")
    return transcripts
