"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from scipy import stats

from treekd.bits import BitString
from treekd.channel_sim import simulate_pairwise_kd
from treekd.graph_core import (
    DisconnectedGraphError,
    EdgeKey,
    SecurityGraph,
    SpanningTree,
    WeightedEdge,
    _forms_tree,
    connected_components,
    terminal_agents,
)
from treekd.linear_code import LinearCode, _systematic_code, encode_index, hamming_7_4
from treekd.protocol import ProtocolConfig
from treekd.rng import SeededRng
from treekd.subroutine import (
    NonTerminalChoiceError,
    announcement_layout,
    reconstruct_assignment,
    render_rounds,
    subroutine_round,
    terminal_edge_key,
)
from treekd.transcript_io import ParsedTranscript, format_payload, parse_transcript

# A [6,3] code with a weight-2 codeword (001100), so some words have two
# nearest codewords and the decoder's tie rule decides: no named code has
# such words.
TIED_6_3 = _systematic_code(6, 3, 0, ((1, 1, 0), (0, 1, 1), (1, 0, 0)))


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
    """Minimum spanning-tree weight by enumerating all (n-1)-edge subsets."""
    best = None
    for subset in combinations(g.edges, g.n - 1):
        if _forms_tree(g.n, subset):
            total = sum((e.weight for e in subset), Fraction(0))
            if best is None or total < best:
                best = total
    return best


def mst_prim(g: SecurityGraph, root: int = 0) -> SpanningTree:
    """Prim's algorithm grown from root, equal weights broken by input edge
    index as in Kruskal: the oracle for graph_core.mst_kruskal."""
    index = {e: i for i, e in enumerate(g.edges)}
    in_tree = {root}
    chosen: List[WeightedEdge] = []
    while len(in_tree) < g.n:
        crossing = [e for e in g.edges if (e.a in in_tree) != (e.b in in_tree)]
        if not crossing:
            raise DisconnectedGraphError(connected_components(g))
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


def brute_force_configurations(
    announcements: Mapping[int, Mapping[EdgeKey, int]], tree: SpanningTree
) -> Tuple[Dict[EdgeKey, int], ...]:
    """Every edge assignment an eavesdropper cannot rule out, by enumerating
    all 2^(n-1) of them; the reference for the analyzer's closed-form count.

    An assignment is consistent when every announcement can be explained
    by a single mask bit.  A terminal sender, or a record whose edge set is
    not exactly the sender's incident tree edges, is explainable by nothing.
    """
    for agent, masked in announcements.items():
        incident = {e.key for e in tree.incident_edges(agent)}
        if len(incident) <= 1 or set(masked) != incident:
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
        raise NonTerminalChoiceError(f"agent {chosen} is not terminal")
    if not configurations:
        return 0.0
    key = incident[0].key
    p = sum(cfg[key] for cfg in configurations) / len(configurations)
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def coset_leader_decode(
    code: LinearCode, word: BitString
) -> Tuple[BitString, BitString]:
    """(codeword, error) for the first error pattern, by weight and then
    ``combinations`` order, that turns word into a codeword: the coset-leader
    rule of a syndrome table, and the reference for decode_to_codeword."""
    codewords = {
        int(str(encode_index(code, index)), 2) for index in range(1 << code.k)
    }
    value = int(str(word), 2)
    for weight in range(code.m + 1):
        for positions in combinations(range(code.m), weight):
            error = sum(1 << (code.m - 1 - p) for p in positions)
            if value ^ error in codewords:
                return (
                    BitString.from_text(f"{value ^ error:0{code.m}b}"),
                    BitString.from_text(f"{error:0{code.m}b}"),
                )


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
) -> Tuple[Dict[int, BitString], List[str]]:
    """The rounds of a block one at a time, as the paper runs them: the
    reference for protocol.run_rounds.

    Each round draws its masks, one per non-terminal agent in ascending id,
    and renders each announcement from a dict payload with format_payload;
    then the leader draws the terminal from the sorted terminals.  Every
    agent reconstructs every round from its own bits at that position, so
    no word layout, mask word or path parity is involved.  Returns each
    agent's secret string and the transcript lines.
    """
    tree, leader = config.tree, config.leader
    rng = SeededRng(config.seed).substream("block", block_index)
    copies = {}
    for e in tree.edges:
        words = simulate_pairwise_kd(e, positions, rng.substream("edge", e.a, e.b))
        copies[e.key] = tuple(BitString(word, positions) for word in words)
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
        key = terminal_edge_key(tree, chosen)
        for agent in range(tree.n):
            assignment = reconstruct_assignment(agent, own(agent, r), announcements, tree)
            bits[agent].append(assignment[key])
    return {agent: BitString.from_bits(b) for agent, b in bits.items()}, lines


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
    strings, lines = reference_rounds(config, block_index, 2 * m)
    rng = SeededRng(config.seed).substream("block", block_index)

    def send(sender: int, kind: str, payload) -> None:
        lines.append(f"{len(lines)} {sender} {kind} {format_payload(kind, payload)}")

    check = sorted(rng.substream("check").generator().sample(range(2 * m), m))
    send(leader, "check_positions", check)
    rest = [i for i in range(2 * m) if i not in check]
    checks, codebits = {}, {}
    for agent, bits in strings.items():
        checks[agent] = BitString.from_bits(bits[i] for i in check)
        codebits[agent] = BitString.from_bits(bits[i] for i in rest)
        send(agent, "check_values", checks[agent])
    mismatch = {
        agent: Fraction(sum(x != y for x, y in zip(bits, checks[leader])), m)
        for agent, bits in checks.items()
        if agent != leader
    }
    if any(frac > Fraction(str(config.delta)) for frac in mismatch.values()):
        send(leader, "abort", mismatch)
        return "aborted", None, mismatch, lines

    index = rng.substream("code").generator().randrange(1 << code.k)
    masked = encode_index(code, index) ^ codebits[leader]
    send(leader, "code_broadcast", masked)
    keys = {leader: index}
    for agent, bits in codebits.items():
        if agent != leader:
            decoded, _ = coset_leader_decode(code, masked ^ bits)
            keys[agent] = code.codewords.index(decoded)
    return "completed", keys, mismatch, lines
