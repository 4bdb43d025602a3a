"""Security graphs, validation, and minimum spanning trees.

Agents are dense integer ids 0..n-1.  Edges are undirected; identity is the
unordered endpoint pair, stored normalized as (min, max).  Weights are exact
rationals so tie-breaking and brute-force comparisons are reproducible.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Sequence, Set, Tuple

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


class _EdgeFields(NamedTuple):
    a: int
    b: int
    weight: Fraction
    flip_prob: float


class WeightedEdge(_EdgeFields):
    """An undirected edge carrying a resource cost and a noise model.

    flip_prob is the per-position probability of a bit mismatch on this link.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, weight=Fraction(1), flip_prob: float = 0.0):
        if a < 0 or b < 0:
            raise ValueError("agent ids must be non-negative")
        weight = Fraction(weight)
        if weight < 0:
            raise ValueError("edge weight must be non-negative")
        if not (0.0 <= flip_prob < 0.5):
            raise ValueError("flip_prob must lie in [0, 0.5)")
        return super().__new__(cls, min(a, b), max(a, b), weight, flip_prob)

    @property
    def key(self) -> EdgeKey:
        return (self.a, self.b)


class SecurityGraph:
    """Agents, secure pairwise links, and the set of source-capable agents."""

    def __init__(self, n: int, edges: Sequence[WeightedEdge], sources):
        self.n = n
        self.edges = tuple(edges)
        self.sources = frozenset(sources)


def _adjacency(n: int, edges: Sequence[WeightedEdge]) -> Dict[int, Tuple[int, ...]]:
    """Neighbor tuples per vertex, in ascending id."""
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for e in edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    return {v: tuple(sorted(us)) for v, us in adj.items()}


class SpanningTree:
    """Exactly n-1 edges forming a connected acyclic cover of all agents.

    Its adjacency, incident edges, terminals (also as an ascending tuple),
    key index and parent table are built once.  Neighbours and incident
    edges are listed in ascending neighbour id, i.e. ascending edge-key order.
    """

    def __init__(self, n: int, edges: Sequence[WeightedEdge]):
        edges = tuple(edges)
        if n >= 2 and len(edges) != n - 1:
            raise ValueError(f"a spanning tree on {n} vertices needs {n - 1} edges")
        if not _forms_tree(n, edges):
            raise ValueError("edges do not form a spanning tree")
        self.n = n
        self.edges = edges
        self.total_weight = sum((e.weight for e in edges), Fraction(0))
        self._adjacency = _adjacency(n, edges)
        self._by_key = {e.key: e for e in edges}
        self._incident = {
            v: tuple(self._by_key[min(u, v), max(u, v)] for u in us)
            for v, us in self._adjacency.items()
        }
        self.terminals = tuple(v for v, us in self._adjacency.items() if len(us) == 1)
        self._terminals = frozenset(self.terminals)
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
        self._parents = tuple(parents)

    def adjacency(self) -> Adjacency:
        return MappingProxyType(self._adjacency)

    def edge_by_key(self, key: EdgeKey) -> WeightedEdge:
        return self._by_key[key]

    def incident_edges(self, agent: int) -> Tuple[WeightedEdge, ...]:
        return self._incident.get(agent, ())

    def parent_edges(self) -> Tuple[Tuple[int, int, EdgeKey], ...]:
        """(vertex, parent, edge key) for every vertex but 0, in BFS order
        from agent 0, so each parent appears before its children."""
        return self._parents


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


def _forms_tree(n: int, edges: Sequence[WeightedEdge]) -> bool:
    """n-1 in-range, cycle-free edges, hence one component covering all n."""
    if len(edges) != max(n - 1, 0):
        return False
    uf = _UnionFind(n)
    return all(e.b < n and e.a != e.b and uf.union(e.a, e.b) for e in edges)


def validate_graph(g: SecurityGraph) -> Tuple[str, ...]:
    """Every violated SecurityGraph invariant; empty when the graph is valid."""
    violations: List[str] = []
    if g.n < 2:
        violations.append(f"agent count {g.n} < 2")
    if not g.sources:
        violations.append("source set is empty")
    for s in g.sources:
        if not (0 <= s < g.n):
            violations.append(f"source {s} is not a valid agent id")
    seen: Set[EdgeKey] = set()
    for e in g.edges:
        if e.a == e.b:
            violations.append(f"self-loop at agent {e.a}")
            continue
        if e.b >= g.n:
            violations.append(f"edge {e.key} references unknown agent {e.b}")
        if e.key in seen:
            violations.append(f"duplicate edge {e.key}")
        seen.add(e.key)
        if g.sources and e.a not in g.sources and e.b not in g.sources:
            violations.append(f"edge {e.key} has no endpoint in the source set")
    return tuple(violations)


def connected_components(g: SecurityGraph) -> List[Set[int]]:
    """Vertex sets of the components, ordered by their smallest vertex."""
    uf = _UnionFind(g.n)
    for e in g.edges:
        uf.union(e.a, e.b)
    components: Dict[int, Set[int]] = {}
    for v in range(g.n):
        components.setdefault(uf.find(v), set()).add(v)
    return list(components.values())


def mst_kruskal(g: SecurityGraph) -> SpanningTree:
    """Minimum spanning tree; equal weights break ties by input edge index."""
    # Stable sort keeps input order within equal weights.
    ordered = sorted(g.edges, key=lambda e: e.weight)
    uf = _UnionFind(g.n)
    chosen: List[WeightedEdge] = []
    for e in ordered:
        if uf.union(e.a, e.b):
            chosen.append(e)
            if len(chosen) == g.n - 1:
                break
    if len(chosen) != g.n - 1:
        raise DisconnectedGraphError(connected_components(g))
    return SpanningTree(g.n, chosen)


def mst_prim(g: SecurityGraph, root: int = 0) -> SpanningTree:
    """Prim's algorithm grown from root, same tie-break as Kruskal."""
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    index = {e: i for i, e in enumerate(g.edges)}
    in_tree = {root}
    chosen: List[WeightedEdge] = []
    while len(in_tree) < g.n:
        best = None
        for e in g.edges:
            if (e.a in in_tree) != (e.b in in_tree):
                cand = (e.weight, index[e])
                if best is None or cand < best[0]:
                    best = (cand, e)
        if best is None:
            raise DisconnectedGraphError(connected_components(g))
        _, e = best
        chosen.append(e)
        in_tree.add(e.a)
        in_tree.add(e.b)
    return SpanningTree(g.n, chosen)


def terminal_agents(t: SpanningTree) -> FrozenSet[int]:
    """Tree vertices of degree exactly one; at least two for n >= 2."""
    return t._terminals


def tree_path(t: SpanningTree, a: int, b: int) -> List[WeightedEdge]:
    """The unique simple path from a to b; empty when a == b."""
    if not (0 <= a < t.n and 0 <= b < t.n):
        raise ValueError("endpoints out of range")
    up = {v: (parent, key) for v, parent, key in t.parent_edges()}

    def to_root(v: int) -> List[int]:
        chain = [v]
        while chain[-1] != 0:
            chain.append(up[chain[-1]][0])
        return chain

    from_a, from_b = to_root(a), to_root(b)
    # Drop the shared part above the meeting vertex, which then ends both.
    while len(from_a) > 1 and len(from_b) > 1 and from_a[-2] == from_b[-2]:
        from_a.pop()
        from_b.pop()
    below = from_a[:-1] + from_b[-2::-1]
    return [t.edge_by_key(up[v][1]) for v in below]
