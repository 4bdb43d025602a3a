"""Security graphs, whole-graph validation, and minimum spanning trees.

Agents are dense integer ids 0..n-1.  Edges are undirected; identity is the
unordered endpoint pair, stored normalized as (min, max).  Weights are exact
rationals so tie-breaking and brute-force comparisons are reproducible.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, KeysView, List, Mapping, Sequence, Set, Tuple

EdgeKey = Tuple[int, int]
Adjacency = Mapping[int, Tuple[int, ...]]


class DisconnectedGraphError(Exception):
    """No spanning tree exists: the security graph is disconnected."""

    def __init__(self, components: List[Set[int]]):
        self.components = components
        parts = "; ".join(
            "{" + ",".join(map(str, sorted(c))) + "}" for c in components
        )
        super().__init__(f"security graph is disconnected: components {parts}")


_EdgeFields = namedtuple("_EdgeFields", "a b weight flip_prob")


class WeightedEdge(_EdgeFields):
    """An undirected edge carrying a resource cost and a noise model.

    a <= b (int) are its endpoints, weight (Fraction) its cost, and
    flip_prob (float) the per-position probability of a bit mismatch on
    this link.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, weight=Fraction(1), flip_prob: float = 0.0):
        if a < 0 or b < 0:
            raise ValueError("agent ids must be non-negative")
        if type(weight) is not Fraction:
            weight = Fraction(weight)
        if weight.numerator < 0:  # a Fraction's denominator is positive
            raise ValueError("edge weight must be non-negative")
        if not (0.0 <= flip_prob < 0.5):
            raise ValueError("flip_prob must lie in [0, 0.5)")
        # tuple.__new__ skips the namedtuple's Python-level __new__.
        return tuple.__new__(cls, (min(a, b), max(a, b), weight, flip_prob))

    @property
    def key(self) -> EdgeKey:
        return (self.a, self.b)


class SecurityGraph:
    """Agents, secure pairwise links, and the set of source-capable agents."""

    def __init__(self, n: int, edges: Sequence[WeightedEdge], sources):
        self.n = n
        self.edges = tuple(edges)
        self.sources = frozenset(sources)


class SpanningTree:
    """Exactly n-1 edges forming a connected acyclic cover of all agents.

    Its incident edges, adjacency, terminal_keys (each terminal in ascending
    id to its one edge's key) and parent_edges are built once; each agent's
    incident edge keys, once on first read.  Neighbours
    and incident edges are listed in ascending neighbour id, i.e. ascending
    edge-key order.

    The parent walk is the tree check: n-1 in-range edges without a
    self-loop that reach all n agents from agent 0 form a spanning tree.
    """

    def __init__(self, n: int, edges: Sequence[WeightedEdge]):
        edges = tuple(edges)
        incident: Dict[int, List[WeightedEdge]] = {v: [] for v in range(n)}
        for e in sorted(edges):  # at each end, key order is neighbour order
            if e.b >= n or e.a == e.b:
                raise ValueError("edges do not form a spanning tree")
            incident[e.a].append(e)
            incident[e.b].append(e)
        self._incident = {v: tuple(es) for v, es in incident.items()}
        # e.a + e.b - v is the other end of an edge e at v.
        self._adjacency = {v: tuple(e.a + e.b - v for e in es) for v, es in incident.items()}
        parents: List[Tuple[int, int, EdgeKey]] = []
        seen = {0}
        queue = deque([0] if n else [])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
                    parents.append((v, u, (min(u, v), max(u, v))))
        if not len(edges) == len(parents) == max(n - 1, 0):
            raise ValueError("edges do not form a spanning tree")
        self.n = n
        self.edges = edges
        self.terminal_keys: Mapping[int, EdgeKey] = MappingProxyType({
            v: es[0].key for v, es in self._incident.items() if len(es) == 1
        })
        self.terminals = tuple(self.terminal_keys)
        # (vertex, parent, edge key) for every vertex but 0, in BFS order
        # from agent 0, so each parent appears before its children.
        self.parent_edges: Tuple[Tuple[int, int, EdgeKey], ...] = tuple(parents)

    def adjacency(self) -> Adjacency:
        return MappingProxyType(self._adjacency)

    def incident_edges(self, agent: int) -> Tuple[WeightedEdge, ...]:
        return self._incident.get(agent, ())

    @cached_property
    def _incident_keys(self) -> Dict[int, FrozenSet[EdgeKey]]:
        return {v: frozenset(e.key for e in es) for v, es in self._incident.items()}

    def incident_keys(self, agent: int) -> FrozenSet[EdgeKey]:
        """The keys of incident_edges(agent), as a set."""
        return self._incident_keys.get(agent, frozenset())


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def validate_graph(g: SecurityGraph) -> Tuple[str, ...]:
    """The violated whole-graph rules, fewer than two agents and an empty
    source set; parse_config checks each record before these."""
    violations: List[str] = []
    if g.n < 2:
        violations.append(f"agent count {g.n} < 2")
    if not g.sources:
        violations.append("source set is empty")
    return tuple(violations)


def mst_kruskal(g: SecurityGraph) -> SpanningTree:
    """Minimum spanning tree; equal weights break ties by input edge index.
    A disconnected graph raises DisconnectedGraphError with its components."""
    # Sort on the exact Fraction weights, not on ints scaled to the lcm of
    # the denominators, which grows toward their product; the stable sort
    # keeps input order within equal weights.
    ordered = sorted(g.edges, key=lambda e: e.weight)
    uf = _UnionFind(g.n)
    chosen: List[WeightedEdge] = []
    for e in ordered:
        if uf.union(e.a, e.b):
            chosen.append(e)
            if len(chosen) == g.n - 1:
                break
    if len(chosen) != g.n - 1:
        # Every edge is unioned: list uf's components by smallest vertex.
        components: Dict[int, Set[int]] = {}
        for v in range(g.n):
            components.setdefault(uf.find(v), set()).add(v)
        raise DisconnectedGraphError(list(components.values()))
    return SpanningTree(g.n, chosen)


def terminal_agents(t: SpanningTree) -> KeysView[int]:
    """Tree vertices of degree exactly one; at least two for n >= 2."""
    return t.terminal_keys.keys()
