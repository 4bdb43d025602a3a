import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_force_mst_weight, random_connected_graph
from treekd.graph_core import (
    DisconnectedGraphError,
    SecurityGraph,
    SpanningTree,
    WeightedEdge,
    connected_components,
    mst_kruskal,
    mst_prim,
    terminal_agents,
    tree_path,
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
        with pytest.raises(ValueError):
            WeightedEdge(0, 1, weight=Fraction(-1))

    def test_rejects_flip_prob_at_half(self):
        with pytest.raises(ValueError):
            WeightedEdge(0, 1, flip_prob=0.5)


class TestValidateGraph:
    def test_hub_source_covers_path(self):
        assert validate_graph(path_graph(sources={1})).ok

    def test_edge_without_source_endpoint(self):
        report = validate_graph(path_graph(sources={0}))
        assert not report.ok
        assert any("(1, 2)" in v for v in report.violations)

    def test_duplicate_edge_reported(self):
        g = SecurityGraph(
            2, [WeightedEdge(0, 1), WeightedEdge(1, 0)], sources={0}
        )
        report = validate_graph(g)
        assert not report.ok
        assert any("duplicate" in v for v in report.violations)

    def test_self_loop_and_empty_sources(self):
        g = SecurityGraph(2, [WeightedEdge(1, 1)], sources=())
        report = validate_graph(g)
        assert any("self-loop" in v for v in report.violations)
        assert any("empty" in v for v in report.violations)


class TestConnectivity:
    def test_path_connected(self):
        assert connected_components(path_graph()) == [{0, 1, 2}]

    def test_isolated_vertex(self):
        g = SecurityGraph(3, [WeightedEdge(0, 1)], sources={0})
        assert connected_components(g) == [{0, 1}, {2}]

    def test_complete_graph(self):
        edges = [WeightedEdge(a, b) for a in range(4) for b in range(a + 1, 4)]
        g = SecurityGraph(4, edges, sources=range(4))
        assert connected_components(g) == [{0, 1, 2, 3}]


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
        assert tree.total_weight == 3

    def test_triangle_prim_any_root(self):
        for root in range(3):
            assert mst_prim(self.triangle(), root).total_weight == 3

    def test_star_is_its_own_mst(self):
        g = star_graph(6)
        tree = mst_kruskal(g)
        assert tree.total_weight == 5
        assert {e.key for e in tree.edges} == {e.key for e in g.edges}

    def test_single_edge(self):
        g = SecurityGraph(2, [WeightedEdge(0, 1, weight=Fraction(4))], sources={0})
        assert mst_prim(g, 1).total_weight == 4

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
            assert mst_kruskal(g).total_weight == expected
            assert mst_prim(g, rng.randrange(8)).total_weight == expected

    def test_kruskal_prim_weight_agreement(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 13)
            g = random_connected_graph(n, rng, extra_edges=rng.randrange(0, 5))
            kw = mst_kruskal(g).total_weight
            for root in range(n):
                assert mst_prim(g, root).total_weight == kw

    def test_identical_edge_set_with_distinct_weights(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randrange(2, 10)
            g = random_connected_graph(n, rng, extra_edges=3, distinct_weights=True)
            kruskal = {e.key for e in mst_kruskal(g).edges}
            prim = {e.key for e in mst_prim(g, 0).edges}
            assert kruskal == prim


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

    def test_tree_path_on_path_graph(self):
        tree = mst_kruskal(path_graph())
        assert [e.key for e in tree_path(tree, 0, 2)] == [(0, 1), (1, 2)]
        assert tree_path(tree, 1, 1) == []

    def test_tree_path_through_star_hub(self):
        tree = mst_kruskal(star_graph(4))
        assert [e.key for e in tree_path(tree, 1, 2)] == [(0, 1), (0, 2)]


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
        for e in tree.edges:
            assert tree.edge_by_key(e.key) is e
        assert tree.incident_edges(tree.n) == ()
        with pytest.raises(KeyError):
            tree.edge_by_key((tree.n, tree.n + 1))
        reached = [0]  # BFS order: each parent is reached before its child
        for v, parent, key in tree.parent_edges():
            assert parent in reached and v not in reached
            assert tree.edge_by_key(key).key == (min(v, parent), max(v, parent))
            reached.append(v)
        assert sorted(reached) == list(range(tree.n))

    @given(random_trees(), st.data())
    def test_tree_path_is_the_simple_path(self, tree, data):
        a = data.draw(st.integers(0, tree.n - 1))
        b = data.draw(st.integers(0, tree.n - 1))
        walked = [a]
        for e in tree_path(tree, a, b):
            walked.append(other_end(e, walked[-1]))
        assert walked[-1] == b
        assert len(set(walked)) == len(walked)

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
        with pytest.raises(AttributeError):
            tree.parent_edges().append((9, 0, (0, 9)))
        assert tree.adjacency()[0] == (1, 2, 3)
        assert terminal_agents(tree) == {1, 2, 3}


class TestSpanningTreeType:
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
        assert tree.total_weight == Fraction(7, 2)
