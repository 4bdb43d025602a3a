import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_components,
    brute_force_mst_weight,
    mst_prim,
    random_connected_graph,
    tree_weight,
)
from treekd.config_io import ConfigError, parse_config
from treekd.graph_core import (
    DisconnectedGraphError,
    SecurityGraph,
    SpanningTree,
    WeightedEdge,
    mst_kruskal,
    terminal_agents,
    validate_graph,
)


def path_graph(weights=(1, 1), sources=(1,)):
    edges = [
        WeightedEdge(i, i + 1, weight=Fraction(w)) for i, w in enumerate(weights)
    ]
    return SecurityGraph(n=len(weights) + 1, edges=edges, sources=sources)


def star_graph(n, hub=0):
    edges = [WeightedEdge(hub, v) for v in range(n) if v != hub]
    return SecurityGraph(n=n, edges=edges, sources={hub})


def other_end(e, v):
    return e.b if v == e.a else e.a


class TestWeightedEdge:
    def test_normalizes_endpoint_order(self):
        e = WeightedEdge(3, 1)
        assert (e.a, e.b) == (1, 3)
        assert e.key == (1, 3)

    def test_rejects_negative_weight(self):
        for weight in (Fraction(-1), Fraction(-1, 3), -1, "-1/3"):
            with pytest.raises(ValueError, match="non-negative"):
                WeightedEdge(0, 1, weight=weight)

    def test_weight_is_a_fraction_kept_as_given(self):
        # A Fraction is kept as it is; any other weight becomes one.
        weight = Fraction(3, 2)
        assert WeightedEdge(0, 1, weight).weight is weight
        for other in (1.5, "3/2", Fraction(3, 2)):
            edge = WeightedEdge(0, 1, other)
            assert type(edge.weight) is Fraction and edge.weight == weight
        assert type(WeightedEdge(0, 1, 2).weight) is Fraction

    def test_rejects_flip_prob_at_half(self):
        with pytest.raises(ValueError):
            WeightedEdge(0, 1, flip_prob=0.5)


class TestValidateGraph:
    """A graph's rules: parse_config checks each record, with its line,
    and only then validate_graph's whole-graph rules."""

    def test_hub_source_covers_path(self):
        assert validate_graph(path_graph(sources={1})) == ()

    def test_edge_without_source_endpoint(self):
        with pytest.raises(ConfigError) as err:
            parse_config("node 0\nnode 1\nnode 2\nsource 0\nedge 0 1\nedge 1 2\n")
        assert err.value.errors == ["line 6: edge (1, 2) has no endpoint in the source set"]

    def test_duplicate_edge_reported(self):
        # The record error comes alone; the empty source set is reported
        # once the records are clear.
        with pytest.raises(ConfigError) as err:
            parse_config("node 0\nnode 1\nedge 0 1\nedge 1 0\n")
        assert err.value.errors == ["line 4: duplicate edge (0, 1), first on line 3"]
        g = SecurityGraph(2, [WeightedEdge(0, 1), WeightedEdge(1, 0)], sources=())
        assert validate_graph(g) == ("source set is empty",)

    def test_self_loop_and_empty_sources(self):
        with pytest.raises(ConfigError) as err:
            parse_config("node 0\nnode 1\nedge 1 1\n")
        assert err.value.errors == ["line 3: self-loop at agent 1"]
        g = SecurityGraph(2, [WeightedEdge(1, 1)], sources=())
        assert validate_graph(g) == ("source set is empty",)


class TestConnectivity:
    """mst_kruskal reads a disconnected graph's components from its own
    union-find; bfs_components is the oracle."""

    def test_path_connected(self):
        g = path_graph()
        assert bfs_components(g) == [{0, 1, 2}]
        assert len(mst_kruskal(g).edges) == 2

    def test_isolated_vertex(self):
        g = SecurityGraph(3, [WeightedEdge(0, 1)], sources={0})
        with pytest.raises(DisconnectedGraphError) as err:
            mst_kruskal(g)
        assert err.value.components == bfs_components(g) == [{0, 1}, {2}]
        assert str(err.value) == "security graph is disconnected: components {0,1}; {2}"

    def test_complete_graph(self):
        edges = [WeightedEdge(a, b) for a in range(4) for b in range(a + 1, 4)]
        g = SecurityGraph(4, edges, sources=range(4))
        assert bfs_components(g) == [{0, 1, 2, 3}]
        assert len(mst_kruskal(g).edges) == 3

    def test_components_match_bfs_on_random_graphs(self):
        # Edge density varies per graph, so both connected graphs and
        # graphs of several multi-vertex components are drawn.
        rng = random.Random(5150)
        connected = disconnected = 0
        for _ in range(600):
            n = rng.randrange(1, 12)
            density = rng.random() * 0.6
            edges = [
                WeightedEdge(a, b, weight=rng.randrange(1, 4))
                for a in range(n) for b in range(a + 1, n) if rng.random() < density
            ]
            rng.shuffle(edges)
            g = SecurityGraph(n, edges, sources=range(n))
            expected = bfs_components(g)
            if len(expected) == 1:
                assert len(mst_kruskal(g).edges) == n - 1
                connected += 1
            else:
                with pytest.raises(DisconnectedGraphError) as err:
                    mst_kruskal(g)
                assert err.value.components == expected
                disconnected += 1
        assert connected > 150 and disconnected > 150


class TestMst:
    def triangle(self):
        return SecurityGraph(
            3,
            [
                WeightedEdge(0, 1, weight=Fraction(1)),
                WeightedEdge(1, 2, weight=Fraction(2)),
                WeightedEdge(0, 2, weight=Fraction(3)),
            ],
            sources=range(3),
        )

    def test_triangle_kruskal(self):
        tree = mst_kruskal(self.triangle())
        assert {e.key for e in tree.edges} == {(0, 1), (1, 2)}
        assert tree_weight(tree) == 3

    def test_triangle_prim_any_root(self):
        for root in range(3):
            assert tree_weight(mst_prim(self.triangle(), root)) == 3

    def test_star_is_its_own_mst(self):
        g = star_graph(6)
        tree = mst_kruskal(g)
        assert tree_weight(tree) == 5
        assert {e.key for e in tree.edges} == {e.key for e in g.edges}

    def test_single_edge(self):
        g = SecurityGraph(2, [WeightedEdge(0, 1, weight=Fraction(4))], sources={0})
        assert tree_weight(mst_prim(g, 1)) == 4

    def test_disconnected_raises(self):
        g = SecurityGraph(3, [WeightedEdge(0, 1)], sources={0})
        with pytest.raises(DisconnectedGraphError):
            mst_kruskal(g)
        with pytest.raises(DisconnectedGraphError):
            mst_prim(g, 0)

    def test_matches_brute_force_on_random_8_vertex_graphs(self):
        rng = random.Random(2024)
        for _ in range(30):
            g = random_connected_graph(8, rng, extra_edges=3)
            expected = brute_force_mst_weight(g)
            assert tree_weight(mst_kruskal(g)) == expected
            assert tree_weight(mst_prim(g, rng.randrange(8))) == expected

    def test_large_distinct_denominators_sort_in_time(self):
        # A sort key scaled to the lcm of the denominators grows toward
        # their product: 299 distinct 1000-digit ones took about 3 s.
        rng = random.Random(5)
        pairs = [(a, b) for a in range(25) for b in range(a + 1, 25)][:299]
        edges = [
            WeightedEdge(a, b, Fraction(rng.randrange(1, 10**6), rng.randrange(10**999, 10**1000)))
            for a, b in pairs
        ]
        assert len({e.weight.denominator for e in edges}) == 299
        g = SecurityGraph(25, edges, sources=range(25))
        start = time.perf_counter()
        tree = mst_kruskal(g)
        assert time.perf_counter() - start < 0.5
        assert tree_weight(tree) == tree_weight(mst_prim(g))

    def test_kruskal_prim_weight_agreement(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 13)
            g = random_connected_graph(n, rng, extra_edges=rng.randrange(0, 5))
            kw = tree_weight(mst_kruskal(g))
            for root in range(n):
                assert tree_weight(mst_prim(g, root)) == kw

    def test_identical_edge_set_with_distinct_weights(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randrange(2, 10)
            g = random_connected_graph(n, rng, extra_edges=3, distinct_weights=True)
            kruskal = {e.key for e in mst_kruskal(g).edges}
            prim = {e.key for e in mst_prim(g, 0).edges}
            assert kruskal == prim


    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        extra_edges=st.integers(0, 12),
    )
    def test_integer_sort_keys_choose_the_fraction_sorted_edges(
        self, n, seed, extra_edges
    ):
        # Few distinct weights over mixed denominators, so many ties: the
        # tree is the greedy pick from the edges sorted as Fractions, with
        # ties left in input order, and its edges come in that order.
        rng = random.Random(seed)
        weights = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), Fraction(2),
                   Fraction(2, 3), Fraction(7, 4), Fraction(1)]
        edges = [
            WeightedEdge(e.a, e.b, weight=rng.choice(weights))
            for e in random_connected_graph(n, rng, extra_edges=extra_edges).edges
        ]
        rng.shuffle(edges)
        g = SecurityGraph(n, edges, sources=range(n))
        component = list(range(n))
        expected = []
        for e in sorted(g.edges, key=lambda e: e.weight):
            ca, cb = component[e.a], component[e.b]
            if ca != cb:
                expected.append(e)
                component = [ca if c == cb else c for c in component]
        assert list(mst_kruskal(g).edges) == expected


class TestTreeQueries:
    def test_path_terminals(self):
        tree = mst_kruskal(path_graph())
        assert terminal_agents(tree) == {0, 2}

    def test_star_terminals(self):
        tree = mst_kruskal(star_graph(5))
        assert terminal_agents(tree) == {1, 2, 3, 4}

    def test_two_agents_both_terminal(self):
        tree = SpanningTree(2, [WeightedEdge(0, 1)])
        assert terminal_agents(tree) == {0, 1}

    def test_terminal_count_at_least_two(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(2, 12)
            tree = mst_kruskal(random_connected_graph(n, rng))
            assert len(terminal_agents(tree)) >= 2


@st.composite
def random_trees(draw):
    """A tree on 2..12 relabeled agents, its edges in random order."""
    n = draw(st.integers(min_value=2, max_value=12))
    label = draw(st.permutations(range(n)))
    edges = [
        WeightedEdge(label[i], label[draw(st.integers(0, i - 1))]) for i in range(1, n)
    ]
    return SpanningTree(n, draw(st.permutations(edges)))


class TestPrecomputedStructure:
    @given(random_trees())
    def test_matches_edge_scan(self, tree):
        degree = {v: 0 for v in range(tree.n)}
        for e in tree.edges:
            degree[e.a] += 1
            degree[e.b] += 1
        assert terminal_agents(tree) == {v for v, d in degree.items() if d == 1}
        assert set(tree.adjacency()) == set(range(tree.n))
        for v in range(tree.n):
            incident = sorted(
                (e for e in tree.edges if v in (e.a, e.b)),
                key=lambda e: other_end(e, v),
            )
            assert list(tree.incident_edges(v)) == incident
            assert list(tree.adjacency()[v]) == [other_end(e, v) for e in incident]
        assert tree.incident_edges(tree.n) == ()
        keys = {e.key for e in tree.edges}
        reached = [0]  # BFS order: each parent is reached before its child
        for v, parent, key in tree.parent_edges:
            assert parent in reached and v not in reached
            assert key == (min(v, parent), max(v, parent)) and key in keys
            reached.append(v)
        assert sorted(reached) == list(range(tree.n))

    @given(random_trees())
    def test_terminal_keys_map_each_terminal_to_its_one_edge(self, tree):
        terminals = [v for v in range(tree.n) if len(tree.incident_edges(v)) == 1]
        assert list(tree.terminal_keys) == terminals  # ascending id
        assert dict(tree.terminal_keys) == {
            t: tree.incident_edges(t)[0].key for t in terminals
        }
        assert tree.terminals == tuple(terminals)
        assert terminal_agents(tree) == set(terminals)

    @given(random_trees())
    def test_incident_keys_are_the_incident_edge_keys(self, tree):
        for v in range(tree.n):
            assert tree.incident_keys(v) == {e.key for e in tree.incident_edges(v)}
        assert tree.incident_keys(tree.n) == frozenset()
        with pytest.raises(AttributeError):
            tree.incident_keys(0).add((0, 9))

    def test_returned_structures_are_read_only(self):
        tree = mst_kruskal(star_graph(4))
        adjacency = tree.adjacency()
        with pytest.raises(TypeError):
            adjacency[0] = ()
        with pytest.raises(AttributeError):
            adjacency[0].append(9)
        with pytest.raises(AttributeError):
            tree.incident_edges(0).append(WeightedEdge(0, 9))
        with pytest.raises(AttributeError):
            terminal_agents(tree).add(0)
        with pytest.raises(TypeError):
            tree.terminal_keys[0] = (0, 9)
        with pytest.raises(AttributeError):
            tree.parent_edges.append((9, 0, (0, 9)))
        assert tree.adjacency()[0] == (1, 2, 3)
        assert terminal_agents(tree) == {1, 2, 3}


class TestSpanningTreeType:
    @pytest.mark.parametrize(
        "n, ends",
        [
            (3, [(0, 1), (1, 1)]),
            (3, [(0, 1), (1, 3)]),
            (3, [(0, 1), (0, 1)]),
            (4, [(0, 1), (1, 2), (0, 2)]),
        ],
        ids=["self-loop", "endpoint-out-of-range", "duplicate-edge",
             "cycle-beside-isolated-agent"],
    )
    def test_rejects_edges_that_are_not_a_spanning_tree(self, n, ends):
        # Each has n - 1 edges, so the edge count alone cannot tell.
        with pytest.raises(ValueError, match="edges do not form a spanning tree"):
            SpanningTree(n, [WeightedEdge(a, b) for a, b in ends])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            SpanningTree(3, [WeightedEdge(0, 1), WeightedEdge(0, 1)])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            SpanningTree(3, [WeightedEdge(0, 1)])

    def test_total_weight_is_sum(self):
        tree = SpanningTree(
            3,
            [WeightedEdge(0, 1, weight=Fraction(3, 2)), WeightedEdge(1, 2, weight=2)],
        )
        assert tree_weight(tree) == Fraction(7, 2)
