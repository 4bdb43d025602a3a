"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from hypothesis import strategies as st
from scipy import stats

from treekd.bits import BitString
from treekd.channel_sim import simulate_pairwise_kd
from treekd.graph_core import (
    DisconnectedGraphError,
    EdgeKey,
    SecurityGraph,
    SpanningTree,
    WeightedEdge,
    terminal_agents,
)
from treekd.linear_code import LinearCode, _systematic_code, hamming_7_4
from treekd.protocol import ProtocolConfig
from treekd.rng import SeededRng
from treekd.subroutine import (
    announcement_layout,
    reconstruct_assignment,
    render_rounds,
    subroutine_round,
)
from treekd.transcript_io import (
    ParsedTranscript,
    _count,
    _parse_payload,
    format_payload,
    parse_transcript,
)

# A [6,3] code with a weight-2 codeword (001100), so some words have two
# nearest codewords and the decoder's tie rule decides: no named code has
# such words.
TIED_6_3 = _systematic_code(6, 3, 0, (0b110, 0b011, 0b100))


def word_of(bits: Iterable[int]) -> int:
    """The int word of a bit sequence, index 0 in the most significant bit,
    as the engine and the codes hold bits."""
    word = 0
    for bit in bits:
        word = word << 1 | bit
    return word


def bits_of(word: int, length: int) -> List[int]:
    """The length bits of an int word, index 0 first: word_of's inverse."""
    return [word >> (length - 1 - i) & 1 for i in range(length)]


# A degree-5 announcer (agent 2) next to a degree-2 one (agent 5).
HUB7 = [WeightedEdge(2, v) for v in (0, 1, 3, 4, 5)] + [WeightedEdge(5, 6)]


def random_tree_edges(n: int, rng: random.Random) -> List[WeightedEdge]:
    """A uniform-ish random spanning tree via random attachment."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        parent = order[rng.randrange(i)]
        edges.append(WeightedEdge(order[i], parent, weight=Fraction(1)))
    return edges


def path_config(*, n=3, code=None, flip=0.0, delta=0.05, seed=1, blocks=1, leader=0):
    """A run on the path 0 - 1 - ... - n-1 with every agent a source and the
    same flip on every edge; the code defaults to hamming7_4."""
    edges = [WeightedEdge(i, i + 1, flip_prob=flip) for i in range(n - 1)]
    return ProtocolConfig(
        graph=SecurityGraph(n, edges, sources=range(n)),
        leader=leader,
        code=code or hamming_7_4(),
        blocks=blocks,
        delta=delta,
        epsilon=0.05,
        seed=seed,
    )


def random_connected_graph(
    n: int,
    rng: random.Random,
    extra_edges: int = 3,
    max_weight: int = 20,
    flip_prob: float = 0.0,
    distinct_weights: bool = False,
) -> SecurityGraph:
    """A random connected graph: a spanning tree plus a few chords.

    Every agent is a source, so the graph always satisfies the source
    invariant and the tests focus on connectivity and weights.
    """
    keys = {(e.a, e.b) for e in random_tree_edges(n, rng)}
    candidates = [
        (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in keys
    ]
    rng.shuffle(candidates)
    keys.update(candidates[:extra_edges])
    if distinct_weights:
        weights = rng.sample(range(1, 10 * len(keys) + 1), len(keys))
    else:
        weights = [rng.randrange(1, max_weight + 1) for _ in keys]
    edges = [
        WeightedEdge(a, b, weight=Fraction(w), flip_prob=flip_prob)
        for (a, b), w in zip(sorted(keys), weights)
    ]
    return SecurityGraph(n=n, edges=edges, sources=range(n))


def tree_weight(tree: SpanningTree) -> Fraction:
    """The exact, unbounded sum of a tree's edge weights.  plan sums with
    a digit bound instead; this is the oracle sum the MST tests compare."""
    return sum((e.weight for e in tree.edges), Fraction(0))


def brute_force_mst_weight(g: SecurityGraph) -> Optional[Fraction]:
    """Minimum spanning-tree weight by enumerating all (n-1)-edge subsets,
    each one that SpanningTree accepts."""
    best = None
    for subset in combinations(g.edges, g.n - 1):
        try:
            total = tree_weight(SpanningTree(g.n, subset))
        except ValueError:
            continue
        if best is None or total < best:
            best = total
    return best


def bfs_components(g: SecurityGraph) -> List[Set[int]]:
    """The vertex sets of g's components by breadth-first search, listed by
    smallest vertex: the connectivity oracle, which shares no union-find
    with graph_core.mst_kruskal."""
    neighbours: Dict[int, List[int]] = {v: [] for v in range(g.n)}
    for e in g.edges:
        neighbours[e.a].append(e.b)
        neighbours[e.b].append(e.a)
    components: List[Set[int]] = []
    seen: Set[int] = set()
    for start in range(g.n):
        if start in seen:
            continue
        component, queue = {start}, deque([start])
        while queue:
            for v in neighbours[queue.popleft()]:
                if v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        components.append(component)
    return components


def mst_prim(g: SecurityGraph, root: int = 0) -> SpanningTree:
    """Prim's algorithm grown from root, equal weights broken by input edge
    index as in Kruskal: the oracle for graph_core.mst_kruskal."""
    index = {e: i for i, e in enumerate(g.edges)}
    in_tree = {root}
    chosen: List[WeightedEdge] = []
    while len(in_tree) < g.n:
        crossing = [e for e in g.edges if (e.a in in_tree) != (e.b in in_tree)]
        if not crossing:
            raise DisconnectedGraphError(bfs_components(g))
        e = min(crossing, key=lambda c: (c.weight, index[c]))
        chosen.append(e)
        in_tree.update((e.a, e.b))
    return SpanningTree(g.n, chosen)


def chi_square_uniformity(indices: Sequence[int], cells: int) -> Tuple[float, float]:
    """Pearson's chi-square of the index counts against the uniform law on
    range(cells), and its p-value with cells - 1 degrees of freedom."""
    counts = [0] * cells
    for idx in indices:
        counts[idx] += 1
    expected = len(indices) / cells
    chi_square = sum((c - expected) ** 2 / expected for c in counts)
    return chi_square, float(stats.chi2.sf(chi_square, cells - 1))


def structurally_valid(
    announcements: Mapping[int, Mapping[EdgeKey, int]], tree: SpanningTree
) -> bool:
    """The eavesdropper oracles' structural rule: every sender is a
    non-terminal agent whose record's edge set is exactly its incident tree
    edges.  A round that breaks it is explainable by nothing, so its count
    is 0, whatever its values say."""
    for agent, masked in announcements.items():
        incident = {e.key for e in tree.incident_edges(agent)}
        if len(incident) <= 1 or set(masked) != incident:
            return False
    return True


def gf2_basis(rows: Iterable[int], unknowns: int) -> Optional[Dict[int, int]]:
    """Gaussian elimination over GF(2) of rows, each a Python int, bit i
    for unknown i and bit `unknowns` for the right-hand side: the echelon
    basis, each row keyed on its lowest unknown bit, or None when a row
    reduces to 0 = 1."""
    lhs = (1 << unknowns) - 1
    basis: Dict[int, int] = {}
    for row in rows:
        while row & lhs and (row & -row) in basis:
            row ^= basis[row & -row]
        if row & lhs:
            basis[row & -row] = row
        elif row:
            return None
    return basis


def gf2_configurations(
    announcements: Mapping[int, Mapping[EdgeKey, int]], tree: SpanningTree
) -> int:
    """How many solutions a round's view has as a linear system over GF(2),
    by Gaussian elimination: the analyzer's oracle at any n.

    The unknowns are the n-1 edge bits and one mask bit per record; each
    (edge, bit) entry of agent v's record reads x_e ^ mu_v = bit.  Each row
    is a Python int, bit i for unknown i and the bit above them for the
    right-hand side.  The count is 2^(unknowns - rank), or 0 when
    elimination leaves a row reading 0 = 1.  A nonempty record's edges fix
    its mask, so on rounds that pass structurally_valid this is the number
    of consistent edge assignments; the linear system does not see that
    rule, so the caller checks it apart.  Every key must be a tree edge.
    """
    column = {e.key: i for i, e in enumerate(tree.edges)}
    unknowns = len(column) + len(announcements)
    basis = gf2_basis((
        (1 << column[key]) | (1 << j) | (bit << unknowns)
        for j, masked in enumerate(announcements.values(), start=len(column))
        for key, bit in masked.items()
    ), unknowns)
    return 0 if basis is None else 2 ** (unknowns - len(basis))


def gf2_key_entropy(
    block: ParsedTranscript,
    tree: SpanningTree,
    code: LinearCode,
    leaked: Iterable[Tuple[EdgeKey, int, int]] = (),
    key: Optional[int] = None,
) -> Optional[int]:
    """The bits of entropy a noiseless completed block's key keeps given the
    block as parse_transcript reads it, by Gaussian elimination over GF(2):
    the oracle for the paper's claim that the transcript leaves the key
    whole.

    The unknowns are each edge's bit at each of the 2m positions, one mask
    bit per announcer per position and the key index's k bits.  Each
    (edge, bit) entry of an announcement reads x_e,r ^ mu_v,r = bit; on
    noiseless links every agent's bit at r is the chosen terminal edge's,
    so each check_values bit reads x_e,r = bit at its check position, and
    each code_broadcast bit reads (codeword of the index)_i ^ x_e,q = bit at
    code position q, the codeword linear in the index bits.  Each leaked
    (edge key, position, true bit) and, when key is given, each of its
    index bits adds one more equation.  The key bits are the highest
    unknowns, so the rows that eliminate down to key bits alone fix
    k - entropy of them.  None when elimination reads 0 = 1.
    """
    m, positions = code.m, 2 * code.m
    names = [("edge", e.key, r) for e in tree.edges for r in range(positions)]
    names += [("mask", v, r) for r, records in enumerate(block.rounds) for v in records]
    names += [("key", t) for t in range(code.k)]
    column = {name: 1 << i for i, name in enumerate(names)}
    first_key, rhs = 1 << len(names) - code.k, 1 << len(names)
    payloads = {kind: payload for _, _, kind, payload in block.sequence}
    chosen = [p for _, _, kind, p in block.sequence if kind == "terminal_choice"]
    secret = [column["edge", tree.terminal_keys[c], r] for r, c in enumerate(chosen)]
    rows = [
        column["edge", edge, r] | column["mask", agent, r] | rhs * bit
        for r, records in enumerate(block.rounds)
        for agent, record in records.items()
        for edge, bit in record.items()
    ]
    checks = payloads["check_positions"]
    for _, _, kind, payload in block.sequence:
        if kind == "check_values":
            rows += [secret[p] | rhs * bit for p, bit in zip(checks, bits_of(payload.value, m))]
    code_positions = [p for p in range(positions) if p not in checks]
    broadcast = bits_of(payloads["code_broadcast"].value, m)
    for i, (q, bit) in enumerate(zip(code_positions, broadcast)):
        row = secret[q] | rhs * bit
        for t in range(code.k):
            row |= column["key", t] * (code.codewords[1 << t] >> (m - 1 - i) & 1)
        rows.append(row)
    rows += [column["edge", edge, p] | rhs * bit for edge, p, bit in leaked]
    if key is not None:
        rows += [column["key", t] | rhs * (key >> t & 1) for t in range(code.k)]
    basis = gf2_basis(rows, len(names))
    return None if basis is None else code.k - sum(1 for low in basis if low >= first_key)


def brute_force_configurations(
    announcements: Mapping[int, Mapping[EdgeKey, int]], tree: SpanningTree
) -> Tuple[Dict[EdgeKey, int], ...]:
    """Every edge assignment an eavesdropper cannot rule out, by enumerating
    all 2^(n-1) of them; the reference for the analyzer's closed-form count.

    An assignment is consistent when every announcement can be explained
    by a single mask bit.  A round that is not structurally_valid is
    explainable by nothing.
    """
    if not structurally_valid(announcements, tree):
        return ()
    edge_keys = sorted(e.key for e in tree.edges)
    kept: List[Dict[EdgeKey, int]] = []
    for bits in product((0, 1), repeat=len(edge_keys)):
        assignment = dict(zip(edge_keys, bits))
        if all(
            len({masked[e] ^ assignment[e] for e in masked}) == 1
            for masked in announcements.values()
        ):
            kept.append(assignment)
    return tuple(kept)


def brute_force_entropy(
    configurations: Tuple[Dict[EdgeKey, int], ...], chosen: int, tree: SpanningTree
) -> float:
    """Shannon entropy (bits) of the chosen terminal's edge bit over the set."""
    incident = tree.incident_edges(chosen)
    if len(incident) != 1:
        raise ValueError(f"agent {chosen} is not terminal")
    if not configurations:
        return 0.0
    key = incident[0].key
    p = sum(cfg[key] for cfg in configurations) / len(configurations)
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def coset_leader_decode(code: LinearCode, word: int) -> Tuple[int, int]:
    """(codeword, error) for the first error pattern, by weight and then
    ``combinations`` order, that turns the m-bit word into a codeword: the
    coset-leader rule of a syndrome table, and the reference for
    decode_to_codeword."""
    codewords = set(code.codewords)
    for weight in range(code.m + 1):
        for positions in combinations(range(code.m), weight):
            error = sum(1 << (code.m - 1 - p) for p in positions)
            if word ^ error in codewords:
                return word ^ error, error


def parsed_round(
    tree: SpanningTree,
    edge_bits: Mapping[EdgeKey, Tuple[int, int]],
    seed: int,
    leader: int = 0,
) -> ParsedTranscript:
    """One subroutine round on the given (a-side, b-side) edge copies, read
    back from the text it broadcasts, as the eavesdropper and analyze see it."""
    layout = announcement_layout(tree)
    chosen, masks = subroutine_round(tree, SeededRng(seed))
    masked = {
        agent: {key: edge_bits[key][side] ^ mask for key, side in sides}
        for (agent, _, sides), mask in zip(layout, masks)
    }
    (parsed,) = parse_transcript(render_rounds(layout, masked, [chosen], leader))
    return parsed


def reference_rounds(
    config, block_index: int, positions: int
) -> Tuple[Dict[int, int], List[str]]:
    """The rounds of a block one at a time, as the paper runs them: the
    reference for protocol.run_rounds.

    Each round draws its masks, one per non-terminal agent in ascending id,
    and renders each announcement from a dict payload with format_payload;
    then the leader draws the terminal from the sorted terminals.  Every
    agent reconstructs every round from its own bits at that position, so
    no word layout, mask word or path parity is involved.  Returns each
    agent's secret string, as an int word, and the transcript lines.
    """
    tree, leader = config.tree, config.leader
    rng = SeededRng(config.seed).substream("block", block_index)
    copies = {}
    for e in tree.edges:
        words = simulate_pairwise_kd(e, positions, rng.substream("edge", e.a, e.b))
        copies[e.key] = tuple(bits_of(word, positions) for word in words)
    terminals = terminal_agents(tree)

    def own(agent: int, r: int) -> Dict[EdgeKey, int]:
        return {
            e.key: copies[e.key][int(agent == e.b)][r]
            for e in tree.incident_edges(agent)
        }

    lines: List[str] = []
    bits: Dict[int, List[int]] = {agent: [] for agent in range(tree.n)}
    for r in range(positions):
        round_rng = rng.substream("round", r).generator()
        announcements = {}
        for agent in range(tree.n):
            if agent in terminals:
                continue
            mask = round_rng.getrandbits(1)
            announcements[agent] = {key: b ^ mask for key, b in own(agent, r).items()}
            text = format_payload("announcement", announcements[agent])
            lines.append(f"{len(lines)} {agent} announcement {text}")
        chosen = round_rng.choice(sorted(terminals))
        text = format_payload("terminal_choice", chosen)
        lines.append(f"{len(lines)} {leader} terminal_choice {text}")
        key = tree.terminal_keys[chosen]
        for agent in range(tree.n):
            assignment = reconstruct_assignment(agent, own(agent, r), announcements, tree)
            bits[agent].append(assignment[key])
    return {agent: word_of(b) for agent, b in bits.items()}, lines


def reference_block(
    config, block_index: int = 0
) -> Tuple[str, Optional[Dict[int, int]], Dict[int, Fraction], List[str]]:
    """A block step by step, as the paper runs it: the reference for
    protocol.run_block.

    The rounds come from reference_rounds.  The leader then draws m of the
    2m positions from the block's "check" substream and announces them
    sorted; every agent, in ascending id, announces its bits there.  The
    block aborts when some agent's mismatch with the leader exceeds delta
    read as an exact decimal.  Otherwise the leader draws a key index from
    the "code" substream and broadcasts its codeword XOR the leader's bits
    at the other positions; every other agent decodes that XOR its own
    bits by coset leader and looks the codeword up in the code's table.
    Returns (status, key indices, mismatches, transcript lines).
    """
    code, leader, m = config.code, config.leader, config.code.m
    words, lines = reference_rounds(config, block_index, 2 * m)
    rng = SeededRng(config.seed).substream("block", block_index)

    def send(sender: int, kind: str, payload) -> None:
        lines.append(f"{len(lines)} {sender} {kind} {format_payload(kind, payload)}")

    check = sorted(rng.substream("check").generator().sample(range(2 * m), m))
    send(leader, "check_positions", check)
    rest = [i for i in range(2 * m) if i not in check]
    checks, codebits = {}, {}
    for agent, word in words.items():
        bits = bits_of(word, 2 * m)
        checks[agent] = [bits[i] for i in check]
        codebits[agent] = word_of(bits[i] for i in rest)
        send(agent, "check_values", BitString(word_of(checks[agent]), m))
    mismatch = {
        agent: Fraction(sum(x != y for x, y in zip(bits, checks[leader])), m)
        for agent, bits in checks.items()
        if agent != leader
    }
    if any(frac > Fraction(str(config.delta)) for frac in mismatch.values()):
        send(leader, "abort", mismatch)
        return "aborted", None, mismatch, lines

    index = rng.substream("code").generator().randrange(1 << code.k)
    masked = code.codewords[index] ^ codebits[leader]
    send(leader, "code_broadcast", BitString(masked, m))
    keys = {leader: index}
    for agent, bits in codebits.items():
        if agent != leader:
            decoded, _ = coset_leader_decode(code, masked ^ bits)
            keys[agent] = code.codewords.index(decoded)
    return "completed", keys, mismatch, lines


def mutate(text, edits):
    """text with each (position, deleted count, inserted text) edit applied
    in turn, the position taken modulo the text's length plus one."""
    for position, deleted, inserted in edits:
        i = position % (len(text) + 1)
        text = text[:i] + inserted + text[i + deleted:]
    return text


def edits(alphabet):
    """One to six edits, each inserting at most three characters."""
    return st.lists(
        st.tuples(st.integers(0, 10**4), st.integers(0, 3), st.text(alphabet, max_size=3)),
        min_size=1, max_size=6,
    )


LINE_EDITS = (
    "delete", "duplicate", "swap", "move", "sender", "flip", "grow", "shrink", "abort",
)
CHECK_PHASE_KINDS = ("check_positions", "check_values", "code_broadcast", "abort")
ROUND_KINDS = ("announcement", "terminal_choice")


def line_edits():
    """One or two whole-line edits for edit_lines: (operation, whether
    its lines come from the check phases alone, line, other line or
    number), the numbers taken modulo the sizes."""
    return st.lists(
        st.tuples(st.sampled_from(LINE_EDITS), st.booleans(),
                  st.integers(0, 255), st.integers(0, 255)),
        min_size=1, max_size=2,
    )


def edit_lines(text, edits):
    """A transcript text with each line edit applied in turn to line i of
    the text, or of its check-phase lines: delete or duplicate it, swap it
    with line j, move it to position j of the text, give it sender j mod
    7, flip its payload's character j if that is a bit, put a 0 before its
    payload or drop the payload's first character, or make it an abort
    naming agent j mod 7 at mismatch 0.  Each block's seqs are then
    renumbered 0, 1, 2, ..., a block starting at each comment, so the text
    keeps the seqs a parser expects."""
    lines = text.splitlines()
    for operation, checks_only, i, j in edits:
        pool = [
            k for k, line in enumerate(lines)
            if not checks_only or (line.split(" ") + ["", ""])[2] in CHECK_PHASE_KINDS
        ]
        if not pool:
            continue
        i = pool[i % len(pool)]
        seq, _, rest = lines[i].partition(" ")
        sender, _, rest = rest.partition(" ")
        kind, _, payload = rest.partition(" ")
        if operation == "delete":
            del lines[i]
        elif operation == "duplicate":
            lines.insert(i, lines[i])
        elif operation == "swap":
            k = pool[j % len(pool)]
            lines[i], lines[k] = lines[k], lines[i]
        elif operation == "move":
            line = lines.pop(i)
            lines.insert(j % (len(lines) + 1), line)
        elif operation == "sender":
            lines[i] = f"{seq} {j % 7} {rest}"
        elif operation == "abort":
            lines[i] = f"{seq} {sender} abort {j % 7}:0"
        elif operation == "grow":
            lines[i] = f"{seq} {sender} {kind} 0{payload}"
        elif operation == "shrink":
            lines[i] = f"{seq} {sender} {kind} {payload[1:]}"
        elif operation == "flip" and payload:
            k = j % len(payload)
            bit = {"0": "1", "1": "0"}.get(payload[k], payload[k])
            lines[i] = f"{seq} {sender} {kind} {payload[:k]}{bit}{payload[k + 1:]}"
    out, seq = [], 0
    for line in lines:
        if line.startswith("#"):
            out.append(line)
            seq = 0
        else:
            out.append(f"{seq} {line.partition(' ')[2]}")
            seq += 1
    return "\n".join(out) + "\n"


def reference_parse_transcript(lines: Iterable[str]) -> List[ParsedTranscript]:
    """parse_transcript as it was before its fast paths: every line goes
    through every check in order, and every payload text, announcements
    included, through _parse_payload with a fresh edge-list table, so
    each announcement is read in full.  The oracle for the parser's fast
    paths: on any input both give the same blocks, rounds and sequences,
    or raise the same error."""
    transcripts: List[ParsedTranscript] = []
    current: Optional[ParsedTranscript] = None
    tails: Dict[str, tuple] = {}
    open_round = 0
    pending: Dict[int, Mapping[EdgeKey, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            seq_s, _, tail = line.partition(" ")
            entry = tails.get(tail)
            if entry is None:
                _count(seq_s, "seq")
                sender_s, _, rest = tail.partition(" ")
                kind, _, text = rest.partition(" ")
                sender, payload = _count(sender_s, "sender"), _parse_payload(kind, text, {})
                view = MappingProxyType(payload) if type(payload) is dict else payload
                entry = tails[tail] = (sender, kind, view)
            sender, kind, payload = entry
            seq = _count(seq_s, "seq")
            if open_round and (seq == 0 or kind not in ROUND_KINDS):
                raise ValueError(f"round from line {open_round} has no terminal_choice")
            if kind == "announcement" and sender in pending:
                raise ValueError(
                    f"round from line {open_round} has a second announcement "
                    f"from agent {sender}"
                )
            if seq == 0:
                current = ParsedTranscript(tails)
                transcripts.append(current)
            if current is None:
                raise ValueError(f"stream starts at seq {seq}")
            if seq != len(current):
                raise ValueError(f"expected seq {len(current)}, got {seq}")
            current.append(line)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"transcript line {lineno}: {exc}") from exc
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


def recognizes_honest_blocks(lines: Iterable[str], config: ProtocolConfig) -> bool:
    """True when lines hold one or more blocks that an honest run of config
    could write, judged apart from cli on the oracle parser's messages.

    Each block is its rounds' messages, then the rest, in that order.  The
    rounds are 2m, each with one announcement from every agent of tree
    degree above 1, over exactly its tree edges, and the leader's choice
    of a degree-1 agent.  The rest is the leader's m check positions below
    2m, every agent's m check bits in agent order, and the leader's
    outcome, then nothing: an abort naming each other agent's mismatch
    against the leader's bits when one exceeds delta, read as its decimal,
    and otherwise a code_broadcast of m bits."""
    try:
        blocks = reference_parse_transcript(lines)
    except ValueError:
        return False
    tree, leader, m, n = config.tree, config.leader, config.code.m, config.graph.n
    incident: Dict[int, Set[EdgeKey]] = {}
    for e in tree.edges:
        for v in (e.a, e.b):
            incident.setdefault(v, set()).add(e.key)
    layout = {v: keys for v, keys in incident.items() if len(keys) > 1}
    terminals = {v for v, keys in incident.items() if len(keys) == 1}
    limit = Fraction(str(config.delta))
    for block in blocks:
        messages = block.messages
        head = [msg for msg in messages if msg.kind in ROUND_KINDS]
        rest = messages[len(head):]
        if any(msg.kind in ROUND_KINDS for msg in rest):
            return False  # a round message after the check phase began
        choices = [msg for msg in head if msg.kind == "terminal_choice"]
        if len(block.rounds) != 2 * m:
            return False
        for announcements, choice in zip(block.rounds, choices):
            records = {sender: set(record) for sender, record in announcements.items()}
            if records != layout or choice.sender != leader or choice.payload not in terminals:
                return False
        shape = [("check_positions", leader)] + [("check_values", agent) for agent in range(n)]
        if [(msg.kind, msg.sender) for msg in rest[:-1]] != shape:
            return False
        positions, *values, outcome = rest
        bits = [str(msg.payload) for msg in values]
        if (len(positions.payload) != m or any(p >= 2 * m for p in positions.payload)
                or any(len(b) != m for b in bits) or outcome.sender != leader):
            return False
        mismatch = {
            agent: Fraction(sum(x != y for x, y in zip(b, bits[leader])), m)
            for agent, b in enumerate(bits)
            if agent != leader
        }
        if any(frac > limit for frac in mismatch.values()):
            if outcome.kind != "abort" or outcome.payload != mismatch:
                return False
        elif outcome.kind != "code_broadcast" or len(outcome.payload) != m:
            return False
    return bool(blocks)
