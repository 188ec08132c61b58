"""Graph core: construction, induced subgraphs, paths, MST, connectivity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensionkit import (EdgeWeights, Graph, InfeasibleError, InputError,
                        connected_components, induced_subgraph,
                        largest_component, minimum_spanning_tree,
                        shortest_path)
from tensionkit.graph import DisjointSet, bfs_distances, path_distances

from conftest import OracleUnionFind, oracle_is_connected


# -- strategies ---------------------------------------------------------------

@st.composite
def graphs(draw, min_nodes=1, max_nodes=14, connected=False):
    n = draw(st.integers(min_nodes, max_nodes))
    edges = set()
    if connected:
        for v in range(1, n):
            u = draw(st.integers(0, v - 1))
            edges.add((u, v))
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pairs, max_size=3 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


# -- construction -------------------------------------------------------------

class TestGraphConstruction:
    def test_edges_sorted_and_deduplicated(self):
        g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 0), (1, 2)])
        assert g.edges() == [(0, 3), (1, 2)]
        assert g.edge_count == 2

    def test_neighbors_sorted(self):
        g = Graph(5, [(0, 4), (0, 2), (0, 1)])
        assert g.neighbors(0) == [1, 2, 4]
        assert g.degree(0) == 3 and g.degree(3) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InputError, match="outside node range"):
            Graph(3, [(0, 3)])

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            Graph(0, [])

    def test_single_node_no_edges(self):
        g = Graph(1, [])
        assert g.edge_count == 0 and g.neighbors(0) == []

    def test_degrees_and_edge_array(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.degrees().tolist() == [1, 2, 1]
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]
        csr = g.adjacency_csr()
        assert csr.shape == (3, 3) and csr.nnz == 4


class TestEdgeWeights:
    def test_length_mismatch_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match="does not match"):
            EdgeWeights(g, np.array([1.0]))

    def test_negative_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="nonnegative"):
            EdgeWeights(g, np.array([-0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match="finite"):
            EdgeWeights(g, np.array([0.5, bad]))

    def test_get_is_order_insensitive(self):
        g = Graph(3, [(0, 1), (1, 2)])
        w = EdgeWeights(g, np.array([0.25, 0.75]))
        assert w.get(1, 0) == 0.25 and w.get(1, 2) == 0.75

    def test_weighted_adjacency_symmetric(self):
        g = Graph(3, [(0, 1), (1, 2)])
        w = EdgeWeights(g, np.array([0.25, 0.75]))
        wadj = w.weighted_adjacency()
        assert (1, 0.25) in wadj[0] and (0, 0.25) in wadj[1]
        assert (2, 0.75) in wadj[1] and (1, 0.75) in wadj[2]

    def test_with_zeroed(self):
        g = Graph(3, [(0, 1), (1, 2)])
        w = EdgeWeights(g, np.array([0.25, 0.75]))
        z = w.with_zeroed([(2, 1)])
        assert z.get(1, 2) == 0.0 and z.get(0, 1) == 0.25
        assert w.get(1, 2) == 0.75  # original untouched


# -- induced subgraphs --------------------------------------------------------

class TestInducedSubgraph:
    def test_five_cycle_example(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sub, olds = induced_subgraph(g, [0, 4])
        assert olds == [0, 4]
        assert sub.edges() == [(0, 1)]  # the (0,4) edge, remapped

    def test_empty_selection_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InputError):
            induced_subgraph(g, [])

    @given(graphs())
    def test_matches_brute_force_edge_count(self, g):
        rng = np.random.default_rng(g.node_count * 97 + g.edge_count)
        size = int(rng.integers(1, g.node_count + 1))
        keep = sorted(rng.choice(g.node_count, size=size, replace=False).tolist())
        sub, olds = induced_subgraph(g, keep)
        assert olds == keep
        brute = [(u, v) for u, v in g.edges() if u in set(keep) and v in set(keep)]
        back = {(olds[u], olds[v]) for u, v in sub.edges()}
        assert back == set(brute)
        assert sub.edge_count == len(brute)


# -- connectivity -------------------------------------------------------------

class TestConnectivity:
    def test_components_and_largest(self):
        g = Graph(6, [(0, 1), (2, 3), (3, 4)])
        comps = connected_components(g)
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3, 4], [5]]
        assert largest_component(g) == [2, 3, 4]

    def test_largest_component_tie_prefers_lowest_ids(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert largest_component(g) == [0, 1]


# -- shortest paths -----------------------------------------------------------

class TestShortestPaths:
    def test_unit_path_graph(self):
        g = Graph(3, [(0, 1), (1, 2)])
        path, length = shortest_path(g, 0, 2)
        assert path == [0, 1, 2] and length == 2.0

    def test_src_equals_dst(self):
        g = Graph(3, [(0, 1), (1, 2)])
        path, length = shortest_path(g, 1, 1)
        assert path == [1] and length == 0.0

    def test_weighted_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = EdgeWeights.from_mapping(
            g, {(0, 1): 0.1, (1, 2): 0.1, (2, 3): 0.9, (3, 0): 0.9})
        path, length = shortest_path(g, 0, 2, weights=w)
        assert path == [0, 1, 2]
        assert length == pytest.approx(0.2, abs=1e-12)

    def test_hop_tie_broken_lexicographically(self):
        # 0-1-2 and 0-3-2 tie on hops; [0,1,2] is the smaller sequence
        g = Graph(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
        path, length = shortest_path(g, 0, 2)
        assert path == [0, 1, 2] and length == 2.0

    def test_equal_weight_tie_prefers_fewer_hops(self):
        # 0-2 direct edge weighs as much as the 0-1-2 detour
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        w = EdgeWeights.from_mapping(g, {(0, 1): 0.1, (1, 2): 0.1, (0, 2): 0.2})
        path, length = shortest_path(g, 0, 2, weights=w)
        assert path == [0, 2]
        assert length == pytest.approx(0.2, abs=1e-12)

    def test_unreachable_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dist_w, _ = path_distances(g, 0)
        assert np.isinf(dist_w[2])

    @given(graphs(max_nodes=50))
    @settings(max_examples=60)
    def test_unit_lengths_match_bfs(self, g):
        src = g.node_count // 2
        dist_w, dist_h = path_distances(g, src)
        bfs = bfs_distances(g, src)
        for v in range(g.node_count):
            if bfs[v] < 0:
                assert np.isinf(dist_w[v])
            else:
                assert dist_w[v] == float(bfs[v]) == dist_h[v]

    @given(graphs(max_nodes=30, connected=True))
    @settings(max_examples=40)
    def test_weighted_path_is_valid_and_optimal_on_small(self, g):
        rng = np.random.default_rng(5 + g.node_count)
        w = EdgeWeights(g, rng.random(g.edge_count))
        dst = g.node_count - 1
        path, length = shortest_path(g, 0, dst, weights=w)
        assert path[0] == 0 and path[-1] == dst
        total = sum(w.get(a, b) for a, b in zip(path, path[1:]))
        assert total == pytest.approx(length, rel=1e-9)
        if g.node_count <= 8:
            best = min(
                (sum(w.get(a, b) for a, b in zip(p, p[1:]))
                 for p in _all_simple_paths(g, 0, dst)),
                default=np.inf)
            assert length == pytest.approx(best, rel=1e-9)


def _all_simple_paths(g, src, dst):
    stack = [(src, [src])]
    while stack:
        u, path = stack.pop()
        if u == dst:
            yield path
            continue
        for v in g.neighbors(u):
            if v not in path:
                stack.append((v, path + [v]))


# -- minimum spanning tree ----------------------------------------------------

class TestMinimumSpanningTree:
    def test_single_node(self):
        assert minimum_spanning_tree([7], {}) == []

    def test_two_nodes_forced(self):
        assert minimum_spanning_tree([1, 4], {(1, 4): 2.5}) == [(1, 4)]

    def test_three_node_example(self):
        tree = minimum_spanning_tree([0, 1, 2], {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0})
        assert sorted(tree) == [(0, 1), (0, 2)]

    def test_unreachable_pair_rejected(self):
        with pytest.raises(InfeasibleError, match="different components"):
            minimum_spanning_tree([0, 1], {(0, 1): float("inf")})

    def test_tie_broken_lexicographically(self):
        tree = minimum_spanning_tree([0, 1, 2], {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        assert sorted(tree) == [(0, 1), (0, 2)]

    @given(st.integers(3, 6), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_total_weight_matches_brute_force(self, k, seed):
        rng = np.random.default_rng(seed)
        nodes = list(range(k))
        weights = {(a, b): float(rng.random())
                   for a, b in itertools.combinations(nodes, 2)}
        tree = minimum_spanning_tree(nodes, weights)
        assert len(tree) == k - 1
        total = sum(weights[e] for e in tree)
        best = min(
            sum(weights[e] for e in combo)
            for combo in itertools.combinations(sorted(weights), k - 1)
            if _spans(combo, nodes))
        assert total == pytest.approx(best, rel=1e-12)


def _spans(edge_combo, nodes):
    uf = OracleUnionFind(len(nodes))
    for a, b in edge_combo:
        uf.union(a, b)
    return len({uf.find(v) for v in nodes}) == 1


class TestDisjointSet:
    def test_union_and_find(self):
        ds = DisjointSet(4)
        assert ds.union(0, 1)
        assert not ds.union(1, 0)
        assert ds.find(0) == ds.find(1)
        assert ds.find(2) != ds.find(3)


# -- independent-route cross-check -------------------------------------------

@given(graphs(max_nodes=25))
def test_components_partition_matches_oracle(g):
    comps = connected_components(g)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(range(g.node_count))
    for comp in comps:
        assert oracle_is_connected(g.node_count, g.edges(), comp)
