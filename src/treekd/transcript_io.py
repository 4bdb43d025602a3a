"""Plain-text transcript log rendering and parsing.

One line per message: ``<seq> <sender> <kind> <payload>``, where seq is the
message's position in its block.  Lines starting with ``#`` are comments;
as in a config, only LF, CRLF or CR ends a line (config_io.text_lines).
Payload text per kind:

- announcement:      ``(a,b):bit`` pairs, comma-separated, each edge once, in
                     the order recorded (ascending edge key from the engine)
- terminal_choice:   the chosen agent id
- check_positions:   strictly ascending position indices, comma-separated
- check_values:      the m check bits as 0/1 characters, index 0 first
- code_broadcast:    the m broadcast bits as 0/1 characters
- abort:             ``agent:mismatch`` pairs, comma-separated, agents in
                     strictly ascending order, each mismatch an exact
                     rational in [0, 1] as ``str(Fraction)`` writes it:
                     ``0``, ``1`` or ``p/q`` in lowest terms

Every seq, agent id and position is written ``0|[1-9][0-9]*`` in ASCII
digits, and every number is read back only in the form it is written in.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .bits import BitString
from .graph_core import EdgeKey


BroadcastMessage = namedtuple("BroadcastMessage", "seq sender kind payload")
BroadcastMessage.__doc__ = """One transcript line as parsed: seq and sender (int), kind (str)
and payload (its kind's parsed value)."""


class ParsedTranscript(list):
    """A block read back from text: the list of its lines, the message each
    carries, its rounds, one dict of announcements by sender per
    terminal_choice, each announcement the parser's shared read-only view,
    and its sequence, one (line number, sender, kind, payload) per message
    that is not an announcement, in line order."""

    def __init__(self, tails: Dict[str, tuple]):
        super().__init__()
        self._tails = tails  # text after a seq -> (sender, kind, payload)
        self.rounds: List[Dict[int, Mapping[EdgeKey, int]]] = []
        self.sequence: List[Tuple[int, int, str, object]] = []

    @cached_property
    def messages(self) -> List[BroadcastMessage]:
        """Each line's message, built on first read, each with its own dict."""
        entries = [self._tails[line.partition(" ")[2]] for line in self]
        return [
            BroadcastMessage(seq, sender, kind, dict(p) if type(p) is MappingProxyType else p)
            for seq, (sender, kind, p) in enumerate(entries)
        ]


def format_payload(kind: str, payload) -> str:
    """A parsed payload as transcript text, as _parse_payload reads it back.
    The engine writes its terminal_choice, check_values and code_broadcast
    text itself."""
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


def _announcement(text: str, edge_lists: Dict[str, tuple]) -> Dict[EdgeKey, int]:
    """text as an announcement, read only as format_payload writes one:
    one or more ``(a,b):bit`` items, comma-separated, a and b canonical.

    edge_lists, one table per parse, maps each cleared payload read so
    far (every ``:1`` written ``:0``) to its edge keys and bit offsets.  A
    valid payload has ``:`` only before a bit, so a text is valid exactly
    when its cleared form is, over the same edges: only a new cleared form
    is checked, each error quoting text, and every text, the first one
    included, reads its bits at the offsets.  Split at every comma, a
    cleared text alternates ``(a`` and ``b):0`` pieces, as each item holds
    one comma and one comma joins two items.  Each number gets _count's
    checks inline, as a call per number would cost more than the checks.
    """
    cleared = text.replace(":1", ":0")
    known = edge_lists.get(cleared)
    if known is None:
        pieces = cleared.split(",")
        if len(pieces) % 2 or not cleared.isascii():
            raise ValueError(f"malformed announcement payload {text!r}")
        keys = []
        for left, right in zip(pieces[::2], pieces[1::2]):
            a = left[1:]
            b, close, bit = right.partition("):")
            if not (left[:1] == "(" and close and bit == "0"
                    and a.isdigit() and (a[0] != "0" or a == "0")
                    and b.isdigit() and (b[0] != "0" or b == "0")):
                raise ValueError(f"malformed announcement payload {text!r}")
            keys.append((int(a), int(b)))
        if len(set(keys)) != len(keys):
            raise ValueError(f"announcement repeats an edge: {text!r}")
        offsets = [i + 1 for i, c in enumerate(cleared) if c == ":"]
        known = edge_lists[cleared] = (keys, offsets)
    keys, offsets = known
    return dict(zip(keys, [_BITS[text[i]] for i in offsets]))


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


def _parse_payload(kind: str, text: str, edge_lists: Dict[str, tuple]):
    if kind == "announcement":
        return _announcement(text, edge_lists)
    if kind == "terminal_choice":
        return _count(text, "terminal choice")
    if kind == "check_positions":
        positions = [_count(x, "check position") for x in text.split(",")] if text else []
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise ValueError(f"check positions {text!r} are not strictly ascending")
        return tuple(positions)
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
        if list(out) != sorted(out):  # out names each agent once
            raise ValueError(f"abort agents {text!r} are not strictly ascending")
        return out
    raise ValueError(f"unknown kind {kind!r}")


_ROUND_KINDS = frozenset(("announcement", "terminal_choice"))


def parse_transcript(lines: Iterable[str]) -> List[ParsedTranscript]:
    """Parse one or more concatenated block transcripts.

    This is where sequence numbers and kinds enter the program from
    outside, so they are checked here: each block's numbers run 0, 1, 2,
    ... (a 0 starts the next block), every kind is a known one, a
    terminal_choice must close every run of announcements, and each agent
    announces at most once per round.  Each terminal_choice closes one of
    its block's rounds, the open round's announcements by sender; it and
    every other message that is not an announcement join the block's
    sequence, with its line number.  Which messages a block must hold, and
    in what order, depends on the config, so cli checks that.

    Each distinct thing is read once per call.  Each line's seq is checked
    first, once per distinct seq text.  The text after it, which few
    distinct texts fill, is parsed once per text into a (sender, kind,
    payload) table whose dict payloads are read-only shared views; each
    sender text is read once, and each announcement's edge list once, in
    one _announcement table per call.  A line whose seq is the one expected
    and that breaks neither round rule on its face is accepted on those
    tests; any other line goes through the checks in the order above.
    """
    transcripts: List[ParsedTranscript] = []
    current: ParsedTranscript | None = None
    tails: Dict[str, tuple] = {}  # text after a seq -> (sender, kind, payload)
    seqs: Dict[str, int] = {}  # seq text -> its value
    senders: Dict[str, int] = {}  # sender text -> its value
    edge_lists: Dict[str, tuple] = {}  # cleared payload -> (edge keys, bit offsets)
    expected = -1  # the seq the next line of the block must carry; -1 before a block
    open_round = 0  # first line of a round; only a terminal_choice may follow it
    pending: Dict[int, Mapping[EdgeKey, int]] = {}  # the open round's records by sender
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            seq_s, _, tail = line.partition(" ")
            seq = seqs.get(seq_s)
            if seq is None:
                seq = seqs[seq_s] = _count(seq_s, "seq")
            entry = tails.get(tail)
            if entry is None:  # checked in field order: sender, kind and payload
                sender_s, _, rest = tail.partition(" ")
                sender = senders.get(sender_s)
                if sender is None:
                    sender = senders[sender_s] = _count(sender_s, "sender")
                kind, _, text = rest.partition(" ")
                payload = _parse_payload(kind, text, edge_lists)
                view = MappingProxyType(payload) if type(payload) is dict else payload
                entry = tails[tail] = (sender, kind, view)
            sender, kind, payload = entry
            if seq != expected or (kind == "announcement" and sender in pending) or (
                open_round and kind not in _ROUND_KINDS
            ):
                if open_round and (seq == 0 or kind not in _ROUND_KINDS):
                    raise ValueError(f"round from line {open_round} has no terminal_choice")
                if kind == "announcement" and sender in pending:
                    raise ValueError(
                        f"round from line {open_round} has a second announcement "
                        f"from agent {sender}"
                    )
                if seq == 0:
                    current = ParsedTranscript(tails)
                    transcripts.append(current)
                    expected = 0
                if current is None:
                    raise ValueError(f"stream starts at seq {seq}")
                if seq != expected:
                    raise ValueError(f"expected seq {expected}, got {seq}")
            current.append(line)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"transcript line {lineno}: {exc}") from exc
        expected += 1
        if kind == "announcement":
            open_round = open_round or lineno
            pending[sender] = payload
            continue
        if kind == "terminal_choice":
            current.rounds.append(pending)
            open_round, pending = 0, {}
        current.sequence.append((lineno, sender, kind, payload))
    if open_round:
        raise ValueError(f"transcript line {open_round}: round has no terminal_choice")
    return transcripts
