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

from collections import namedtuple
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Tuple

from .bits import BitString
from .graph_core import EdgeKey


BroadcastMessage = namedtuple("BroadcastMessage", "seq sender kind payload")
BroadcastMessage.__doc__ = """One transcript line as parsed: seq and sender (int), kind (str)
and payload (its kind's parsed value)."""


class ParsedTranscript(list):
    """A block read back from text: the list of its lines, the message each
    carries, and its rounds as the parser checked them, one (announcements
    by sender, the choice's sender, chosen terminal) triple per
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


def transcript_lines(t: List[str]) -> List[str]:
    """A block transcript's lines: the transcript itself, a list of them."""
    return t


_BITS = {"0": 0, "1": 1}


def _count(text: str, what: str) -> int:
    """text as a non-negative int, read only as str() writes one: int()
    alone also reads '00', '+1', '0_1' and digits such as '\u0662'."""
    if not (text.isdigit() and text.isascii() and (text[0] != "0" or text == "0")):
        raise ValueError(f"{what} {text!r} is not a canonical ASCII number")
    return int(text)


def _announcement(text: str) -> Dict[EdgeKey, int]:
    """text as an announcement, read only as format_payload writes one:
    one or more ``(a,b):bit`` items, comma-separated, a and b canonical.

    Split at every comma, the text alternates ``(a`` and ``b):bit`` pieces,
    as each item holds one comma and one comma joins two items.  Each
    number gets _count's checks inline, as a call per number would cost
    more than the checks.
    """
    pieces = text.split(",")
    if len(pieces) % 2 or not text.isascii():
        raise ValueError(f"malformed announcement payload {text!r}")
    record: Dict[EdgeKey, int] = {}
    for left, right in zip(pieces[::2], pieces[1::2]):
        a = left[1:]
        b, close, bit = right.partition("):")
        if not (left[:1] == "(" and close and bit in _BITS
                and a.isdigit() and (a[0] != "0" or a == "0")
                and b.isdigit() and (b[0] != "0" or b == "0")):
            raise ValueError(f"malformed announcement payload {text!r}")
        record[int(a), int(b)] = _BITS[bit]
    if len(record) != len(pieces) // 2:
        raise ValueError(f"announcement repeats an edge: {text!r}")
    return record


def _mismatch(text: str) -> Fraction:
    """text as an abort mismatch, read only as str() writes a Fraction in
    [0, 1]: Fraction() alone also reads '2/4', '0.5', '+1/7', '1_0/7',
    '-1/7' and non-ASCII digits.  A text with an exponent is never one, and
    Fraction() would build 10**exponent for it: 1e9999999 takes seconds."""
    try:
        value = None if "e" in text or "E" in text else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"abort mismatch {text!r} has a zero denominator") from None
    except ValueError:
        value = None
    if value is None or not 0 <= value <= 1 or str(value) != text:
        raise ValueError(f"abort mismatch {text!r} is not a canonical fraction")
    return value


def _parse_payload(kind: str, text: str):
    if kind == "announcement":
        return _announcement(text)
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
    later announcement or terminal_choice in it is an error.  An abort or
    code_broadcast is the block's outcome, so no message may follow it in
    its block.  Each
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
    phase = "rounds"  # how far the block has got: "rounds", "checks", "outcome"
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
                phase = "rounds"
            if current is None:
                raise ValueError(f"stream starts at seq {seq}")
            if seq != len(current):
                raise ValueError(f"expected seq {len(current)}, got {seq}")
            if phase != "rounds" and kind in ("announcement", "terminal_choice"):
                raise ValueError(f"{kind} after the block's rounds")
            if phase == "outcome":
                raise ValueError(f"{kind} after the block's outcome")
            # tuple.__new__ skips the namedtuple's Python-level __new__.
            message = tuple.__new__(BroadcastMessage, (seq, sender, kind, payload))
            current.messages.append(message)
            current.append(line)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"transcript line {lineno}: {exc}") from exc
        if kind == "announcement":
            open_round = open_round or lineno
            pending[sender] = payload
        else:
            if kind == "terminal_choice":
                current.rounds.append((pending, sender, payload))
            else:
                phase = "outcome" if kind in ("abort", "code_broadcast") else "checks"
            open_round = 0
            pending = {}
    if open_round:
        raise ValueError(f"transcript line {open_round}: round has no terminal_choice")
    return transcripts
