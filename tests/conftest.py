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


def brute_force_mst_weight(g: SecurityGraph) -> Optional[Fraction]:
    """Minimum spanning-tree weight by enumerating all (n-1)-edge subsets,
    each one that SpanningTree accepts."""
    best = None
    for subset in combinations(g.edges, g.n - 1):
        try:
            total = SpanningTree(g.n, subset).total_weight
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
    lhs, rhs = (1 << unknowns) - 1, 1 << unknowns
    basis: Dict[int, int] = {}  # lowest unknown bit -> the row leading with it
    for j, masked in enumerate(announcements.values(), start=len(column)):
        for key, bit in masked.items():
            row = (1 << column[key]) | (1 << j) | (rhs if bit else 0)
            while row & lhs and (row & -row) in basis:
                row ^= basis[row & -row]
            if row & lhs:
                basis[row & -row] = row
            elif row:
                return 0
    return 2 ** (unknowns - len(basis))


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


def reference_parse_transcript(lines: Iterable[str]) -> List[ParsedTranscript]:
    """parse_transcript as it was before its fast paths: every line goes
    through every check in order, and every payload text, announcements
    included, through _parse_payload.  The oracle for the parser's fast
    paths: on any input both give the same blocks and rounds, or raise the
    same error."""
    transcripts: List[ParsedTranscript] = []
    current: Optional[ParsedTranscript] = None
    tails: Dict[str, tuple] = {}
    open_round = 0
    pending: Dict[int, Mapping[EdgeKey, int]] = {}
    phase = "rounds"
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
                sender, payload = _count(sender_s, "sender"), _parse_payload(kind, text)
                view = MappingProxyType(payload) if type(payload) is dict else payload
                entry = tails[tail] = (sender, kind, view)
            sender, kind, payload = entry
            seq = _count(seq_s, "seq")
            if open_round and (seq == 0 or kind not in ("announcement", "terminal_choice")):
                raise ValueError(f"round from line {open_round} has no terminal_choice")
            if kind == "announcement" and sender in pending:
                raise ValueError(
                    f"round from line {open_round} has a second announcement "
                    f"from agent {sender}"
                )
            if seq == 0:
                current = ParsedTranscript(tails)
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
            current.append(line)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"transcript line {lineno}: {exc}") from exc
        if kind == "announcement":
            open_round = open_round or lineno
            pending[sender] = payload
        elif kind == "terminal_choice":
            current.rounds.append((pending, sender, payload))
            open_round, pending = 0, {}
        else:
            phase = "outcome" if kind in ("abort", "code_broadcast") else "checks"
    if open_round:
        raise ValueError(f"transcript line {open_round}: round has no terminal_choice")
    return transcripts
