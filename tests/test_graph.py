"""Graph core: construction, induced subgraphs, paths, MST, connectivity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensionkit import (EdgeWeights, Graph, InfeasibleError, InputError, graph,
                        induced_subgraph, largest_component, seed_connector)
from tensionkit.graph import (MAX_NODES, hop_distance_matrix, minimum_spanning_tree,
                              path_distances)
from tensionkit.synthetic import gnm_graph

from conftest import (OracleUnionFind, adjacency_lists, edge_weights,
                      random_graph_and_profiles, reference_components, reference_csr,
                      reference_graph, reference_minimum_spanning_tree,
                      reference_path_distances)


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
        assert g.indices[g.indptr[0]:g.indptr[1]].tolist() == [1, 2, 4]
        assert g.degrees()[[0, 3]].tolist() == [3, 0]

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
        assert g.edge_count == 0 and g.degrees().tolist() == [0]

    def test_degrees_and_edge_array(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.degrees().tolist() == [1, 2, 1]
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]
        csr = g.adjacency_csr()
        assert csr.shape == (3, 3) and csr.nnz == 4


@st.composite
def edge_lists(draw):
    """Node count plus raw pairs: duplicates, reversed pairs, isolated
    nodes, no edges at all, ``n = 1``."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=4 * n))
    pairs = [(u, v) for u, v in pairs if u != v]
    if draw(st.booleans()):
        pairs += [(v, u) for u, v in pairs[: len(pairs) // 2]]
    return n, pairs


class TestMatchesReferenceConstruction:
    """The CSR build against the list-of-lists constructor it replaced."""

    @given(edge_lists(), st.sampled_from(["tuples", "array", "iterator"]), st.data())
    def test_every_view_matches(self, case, form, data):
        n, pairs = case
        ref_edges, ref_adj = reference_graph(n, pairs)
        arg = {"tuples": pairs, "array": np.array(pairs, dtype=np.int64).reshape(-1, 2),
               "iterator": iter(pairs)}[form]
        g = Graph(n, arg)
        assert g.edges() == ref_edges and g.edge_count == len(ref_edges)
        assert g.edge_array().tolist() == [list(e) for e in ref_edges]
        assert adjacency_lists(g) == ref_adj
        assert g.degrees().tolist() == [len(a) for a in ref_adj]

        values = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.5]), min_size=g.edge_count,
            max_size=g.edge_count)), dtype=np.float64)
        w = EdgeWeights(g, values)
        for got, want in ((g.adjacency_csr(), reference_csr(n, ref_edges, np.ones(len(values)))),
                          (w.weighted_csr(), reference_csr(n, ref_edges, values))):
            assert got.shape == want.shape
            assert got.indptr.tolist() == want.indptr.tolist()
            assert got.indices.tolist() == want.indices.tolist()
            assert got.data.tolist() == want.data.tolist()  # explicit zeros kept

        comps = reference_components(ref_adj)
        assert largest_component(g) == max(comps, key=lambda c: (len(c), -c[0]))

        keep = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        sub, olds = induced_subgraph(g, keep)
        new = {v: k for k, v in enumerate(olds)}
        assert olds == sorted(set(keep))
        ref_sub, ref_sub_adj = reference_graph(len(olds), [
            (new[u], new[v]) for u, v in ref_edges if u in new and v in new])
        assert sub.edges() == ref_sub
        assert adjacency_lists(sub) == ref_sub_adj

    @pytest.mark.parametrize("n,pairs", [
        (3, [(0, 1), (3, 1), (2, 2)]),   # out of range comes first
        (3, [(0, 1), (2, 2), (3, 1)]),   # self-loop comes first
        (3, [(1, -1)]),
        (2, [(0, 5), (1, 1)]),
        (2, [(4, 4)]),                   # both: the range is reported
        (0, []),
    ])
    def test_errors_match(self, n, pairs):
        with pytest.raises(InputError) as want:
            reference_graph(n, pairs)
        with pytest.raises(InputError) as got:
            Graph(n, pairs)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0, "a")], [[0, 1], [2]]])
    def test_malformed_pairs_rejected(self, edges):
        with pytest.raises(InputError, match="pairs of integer node ids"):
            Graph(3, edges)

    def test_node_count_above_the_key_limit_rejected(self):
        # before allocating anything of size node_count
        with pytest.raises(InputError, match="exceeds the limit"):
            Graph(MAX_NODES + 1, [(0, 1)])
        with pytest.raises(InputError, match="exceeds the limit"):
            Graph(4_000_000_001, np.array([[0, 4_000_000_000]]))

    def test_stored_keys_are_the_sorted_edge_keys(self):
        g = Graph(5, [(4, 0), (2, 1), (1, 2), (3, 4)])
        ea = g.edge_array()
        assert g._keys.tolist() == (ea[:, 0] * 5 + ea[:, 1]).tolist()


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

    def test_with_zeroed(self):
        g = Graph(3, [(0, 1), (1, 2)])
        w = EdgeWeights(g, np.array([0.25, 0.75]))
        z = w.with_zeroed([(2, 1)])
        assert z.values.tolist() == [0.25, 0.0]
        assert w.values.tolist() == [0.25, 0.75]  # original untouched

    def test_with_zeroed_non_edge_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        w = EdgeWeights(g, np.array([0.25, 0.75]))
        with pytest.raises(InputError, match=r"cannot zero non-edge \(0, 2\)"):
            w.with_zeroed([(1, 2), (2, 0)])
        # key 0 * 3 + 5 is the key of edge (1, 2): the range check rejects it
        with pytest.raises(InputError, match="non-edge"):
            w.with_zeroed([(0, 5)])
        assert w.with_zeroed([]).values.tolist() == [0.25, 0.75]


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
        assert [g.edges()[p] for p in g.edges_within(reversed(keep))] == brute
        back = {(olds[u], olds[v]) for u, v in sub.edges()}
        assert back == set(brute)
        assert sub.edge_count == len(brute)

    def test_edges_within_matches_the_edge_mask(self):
        # a set that is most of the graph, a small scattered one, and the
        # prefixes 0..k-1 and 0..k whose blocks of edges to higher ids hold
        # just at most and just over a third of the edges (where edges_within
        # switches to the mask), against the mask over every edge
        g = gnm_graph(3000, 9000, rng_seed=4)
        ea = g.edge_array()
        rng = np.random.default_rng(4)
        below = np.searchsorted(ea[:, 0], np.arange(3000))  # block sum of 0..k-1
        k = int(np.flatnonzero(3 * below <= g.edge_count)[-1])
        assert 3 * np.searchsorted(ea[:, 0], k + 1) > g.edge_count
        for nodes in (largest_component(g), rng.choice(3000, 60, replace=False),
                      range(k), range(k + 1)):
            keep = np.zeros(g.node_count, dtype=bool)
            keep[nodes] = True
            want = np.flatnonzero(keep[ea[:, 0]] & keep[ea[:, 1]])
            assert np.array_equal(g.edges_within(nodes), want)
            assert len(want)


# -- connectivity -------------------------------------------------------------

class TestConnectivity:
    def test_components_and_largest(self):
        g = Graph(6, [(0, 1), (2, 3), (3, 4)])
        assert largest_component(g) == [2, 3, 4]

    def test_largest_component_tie_prefers_lowest_ids(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert largest_component(g) == [0, 1]


# -- shortest paths -----------------------------------------------------------

class TestShortestPaths:
    def test_unit_path_graph(self):
        g = Graph(3, [(0, 1), (1, 2)])
        path, length = _walk(g, 0, 2)
        assert path == [0, 1, 2] and length == 2.0

    def test_src_equals_dst(self):
        g = Graph(3, [(0, 1), (1, 2)])
        path, length = _walk(g, 1, 1)
        assert path == [1] and length == 0.0

    def test_weighted_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = edge_weights(g, {(0, 1): 0.1, (1, 2): 0.1, (2, 3): 0.9, (3, 0): 0.9})
        path, length = _walk(g, 0, 2, weights=w)
        assert path == [0, 1, 2]
        assert length == pytest.approx(0.2, abs=1e-12)

    def test_hop_tie_broken_lexicographically(self):
        # 0-1-2 and 0-3-2 tie on hops; [0,1,2] is the smaller sequence
        g = Graph(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
        path, length = _walk(g, 0, 2)
        assert path == [0, 1, 2] and length == 2.0

    def test_equal_weight_tie_prefers_fewer_hops(self):
        # 0-2 direct edge weighs as much as the 0-1-2 detour
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        w = edge_weights(g, {(0, 1): 0.1, (1, 2): 0.1, (0, 2): 0.2})
        path, length = _walk(g, 0, 2, weights=w)
        assert path == [0, 2]
        assert length == pytest.approx(0.2, abs=1e-12)

    def test_unreachable_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dist_w, _ = path_distances(g, 0)
        assert np.isinf(dist_w[2])

    @given(graphs(max_nodes=30, connected=True))
    @settings(max_examples=40)
    def test_weighted_path_is_valid_and_optimal_on_small(self, g):
        rng = np.random.default_rng(5 + g.node_count)
        w = EdgeWeights(g, rng.random(g.edge_count))
        dst = g.node_count - 1
        path, length = _walk(g, 0, dst, weights=w)
        assert path[0] == 0 and path[-1] == dst
        weight = dict(zip(g.edges(), w.values.tolist()))
        total = sum(weight[min(a, b), max(a, b)] for a, b in zip(path, path[1:]))
        assert total == pytest.approx(length, rel=1e-9)
        if g.node_count <= 8:
            best = min(
                (sum(weight[min(a, b), max(a, b)] for a, b in zip(p, p[1:]))
                 for p in _all_simple_paths(g, 0, dst)),
                default=np.inf)
            assert length == pytest.approx(best, rel=1e-9)


# edge-weight draws for the reference comparison: uniform floats, multiples
# of 0.1 including 0 (ties, zero plateaus, and near-ties such as
# 0.1 + 0.2 != 0.3), 0/1, and 1e17 next to 1.0, where 1e17 + 1.0 == 1e17
# absorbs the smaller weight
_WEIGHT_DRAWS = {
    "uniform": st.floats(0.0, 1.0),
    "tenths": st.integers(0, 5).map(lambda k: k / 10),
    "binary": st.sampled_from([0.0, 1.0]),
    "absorbing": st.sampled_from([0.0, 1.0, 1e17]),
}


@st.composite
def weighted_graphs(draw, kind, max_nodes=25):
    g = draw(graphs(max_nodes=max_nodes))
    values = draw(st.lists(_WEIGHT_DRAWS[kind], min_size=g.edge_count,
                           max_size=g.edge_count))
    return g, EdgeWeights(g, np.array(values, dtype=np.float64))


def _path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _broom(handle, bristles):
    """Path 0..handle-1 with ``bristles`` leaves hung on its last node."""
    last = handle - 1
    return Graph(handle + bristles, [(i, i + 1) for i in range(last)]
                 + [(last, handle + j) for j in range(bristles)])


class TestDistancesMatchReference:
    """csgraph distances equal the composite-key reference bit for bit,
    on deep, disconnected and multi-source inputs too."""

    @pytest.mark.parametrize("kind", sorted(_WEIGHT_DRAWS))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_weighted_every_source(self, kind, data):
        g, w = data.draw(weighted_graphs(kind))
        for src in range(g.node_count):
            ref_w, ref_h = reference_path_distances(g.node_count, g.edges(), src, w.values)
            dist_w, dist_h = path_distances(g, src, w)
            assert np.array_equal(dist_w, ref_w) and np.array_equal(dist_h, ref_h)

    @given(graphs(max_nodes=25))
    @settings(max_examples=40)
    def test_hops_every_source(self, g):
        for src in range(g.node_count):
            ref_w, ref_h = reference_path_distances(g.node_count, g.edges(), src)
            dist_w, dist_h = path_distances(g, src)
            assert np.array_equal(dist_w, ref_w) and np.array_equal(dist_h, ref_h)

    def test_zero_plateau_path_decided_by_hops(self):
        # 0-1-2-3 and 0-4-3 both weigh 0; lexicographic order alone would
        # pick [0, 1, 2, 3], the hop count picks [0, 4, 3].  The 0-5-3 detour
        # weighs 2, so a CSR that dropped its zero entries would pick it.
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 4), (0, 5), (3, 5)])
        w = edge_weights(g, {(0, 1): 0.0, (1, 2): 0.0, (2, 3): 0.0,
                             (0, 4): 0.0, (3, 4): 0.0, (0, 5): 1.0, (3, 5): 1.0})
        dist_w, dist_h = path_distances(g, 3, w)
        assert dist_w.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert dist_h.tolist() == [2, 2, 1, 0, 1, 1]
        assert _walk(g, 0, 3, weights=w) == ([0, 4, 3], 0.0)

    def test_near_tie_is_not_tight(self):
        # 0-3-4-1 sums to 0.3 in three hops; 0-2-1 sums to 0.1 + 0.2, one
        # ulp above 0.3, in two.  Only exact equality keeps the three hops.
        g = Graph(5, [(0, 2), (1, 2), (0, 3), (3, 4), (1, 4)])
        w = edge_weights(g, {(0, 2): 0.1, (1, 2): 0.2, (0, 3): 0.3,
                             (3, 4): 0.0, (1, 4): 0.0})
        dist_w, dist_h = path_distances(g, 0, w)
        assert dist_w[1] == 0.3 and dist_h[1] == 3
        assert _walk(g, 1, 0, weights=w) == ([1, 4, 3, 0], 0.3)

    @pytest.mark.parametrize("g", [_path_graph(3000), _broom(3000, 500)],
                             ids=["path", "broom"])
    def test_deep_graphs_from_ends_and_middle(self, g):
        n = g.node_count
        w = EdgeWeights(g, np.random.default_rng(11).random(g.edge_count))
        for src in (0, n // 2, 2999, n - 1):
            _assert_matches_reference(g, src)
            _assert_matches_reference(g, src, w)

    def test_disconnected_and_isolated_sources(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4)])  # 5 and 6 are isolated
        w = EdgeWeights(g, np.array([0.5, 0.0, 2.0]))
        for src in range(7):
            _assert_matches_reference(g, src)
            _assert_matches_reference(g, src, w)
        dist_w, dist_h = path_distances(g, 5)
        assert dist_w.tolist() == [np.inf] * 5 + [0.0, np.inf]
        assert dist_h.tolist() == [-1] * 5 + [0, -1]

    def test_hop_distance_matrix_rows(self):
        broom = _broom(40, 5)
        for g in (broom, Graph(47, broom.edges())):  # the second has 2 isolated nodes
            sources = [0, 44, 20, 0, g.node_count - 1, 20]  # duplicates
            mat = hop_distance_matrix(g, sources)
            assert mat.shape == (len(sources), g.node_count)
            for row, src in zip(mat, sources):
                assert np.array_equal(row, reference_path_distances(
                    g.node_count, g.edges(), src)[0])
            empty = hop_distance_matrix(g, [])
            assert empty.shape == (0, g.node_count) and empty.dtype == np.float64

    def test_long_zero_chain_makes_deep_tight_graph(self):
        # a 600-node zero-weight path with zero chords 0-300 and 150-450
        # (zero plateaus with cycles, so the tight graph is deep and cyclic),
        # a weight-1 edge 0-599 that no shortest path from 0 uses, and a
        # pendant node 600 behind weight 0.5
        n = 600
        zeros = [(i, i + 1) for i in range(n - 1)] + [(0, 300), (150, 450)]
        w = {e: 0.0 for e in zeros} | {(0, n - 1): 1.0, (n - 1, n): 0.5}
        g = Graph(n + 1, w)
        w = edge_weights(g, w)
        for src in (0, 75, 300, n - 1, n):
            _assert_matches_reference(g, src, w)
        assert path_distances(g, 0, w)[1].max() > 100


class TestPathWalkIsTight:
    """The path walk steps over the exact tight edges that path_distances
    counts hops over, never over a near-tie."""

    def test_near_tie_four_cycle(self):
        # 0-1-3 sums to 0.1 + 0.2 = 0.30000000000000004; 0-2-3 to exactly 0.3
        g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        w = edge_weights(g, {(0, 1): 0.1, (1, 3): 0.2, (0, 2): 0.3, (2, 3): 0.0})
        assert _walk(g, 0, 3, weights=w) == ([0, 2, 3], 0.3)
        assert seed_connector(g, [0, 3], w) == ({0, 2, 3}, {(0, 2), (2, 3)})

    @pytest.mark.parametrize("kind", ["tenths", "binary", "hops"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_smallest_tight_walk(self, kind, data):
        if kind == "hops":
            g, w = data.draw(graphs(max_nodes=8)), None
        else:
            g, w = data.draw(weighted_graphs(kind, max_nodes=8))
        src = data.draw(st.integers(0, g.node_count - 1))
        dst = data.draw(st.integers(0, g.node_count - 1))
        dw, dh = reference_path_distances(g.node_count, g.edges(), dst,
                                          None if w is None else w.values)
        if dh[src] < 0:
            with pytest.raises(InfeasibleError):
                _walk(g, src, dst, weights=w)
            return

        weight = dict(zip(g.edges(), [1.0] * g.edge_count if w is None else w.values.tolist()))

        def tight(u, v):
            w_uv = weight[min(u, v), max(u, v)]
            return dh[v] == dh[u] - 1 and dw[v] + w_uv == dw[u]

        walks = [p for p in _all_simple_paths(g, src, dst)
                 if all(tight(u, v) for u, v in zip(p, p[1:]))]
        assert _walk(g, src, dst, weights=w) == (min(walks), dw[src])


# PULL_FACTOR values that make every level of a pair search push, every
# level pull (a factor above any test graph's 2E), or leave the module's own
# choice by frontier size (None)
DIRECTIONS = {"push": 0, "pull": 10**9, "both": None}


def _directed(mp, direction):
    if DIRECTIONS[direction] is not None:
        mp.setattr(graph, "PULL_FACTOR", DIRECTIONS[direction])


class TestPairHopDistances:
    """Pair distances by bit-parallel search equal the rows of
    ``hop_distance_matrix`` read at the pairs, in and across batches and
    past the depth at which the pending pairs go one source at a time,
    whichever direction each level takes."""

    @staticmethod
    def _assert_matches_matrix(g, src, dst):
        got = graph.pair_hop_distances(g, src, dst)
        want = hop_distance_matrix(g, src)[np.arange(len(src)), dst]
        assert got.dtype == np.float64 and np.array_equal(got, want)

    @given(graphs(max_nodes=30), st.data(), st.sampled_from(list(DIRECTIONS)))
    @settings(max_examples=240)
    def test_matches_matrix(self, g, data, direction):
        # disconnected pairs, isolated nodes, source == target and duplicates
        node = st.integers(0, g.node_count - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=60))
        pairs += pairs[:data.draw(st.integers(0, len(pairs)))]
        src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        with pytest.MonkeyPatch.context() as mp:
            _directed(mp, direction)
            self._assert_matches_matrix(g, src, dst)

    @given(st.integers(0, 100_000), st.sampled_from([0, 3, 10**6]), st.sampled_from([2, 64]),
           st.sampled_from(list(DIRECTIONS)))
    @settings(max_examples=90)
    def test_matches_matrix_across_words_batches_and_depth(self, seed, per_node, depth,
                                                           direction):
        # every node of a 100-130-node graph is a source, so sources sit on
        # both sides of the 64-bit word boundaries; a budget below the CSR
        # entry count makes batches of 64 sources and, below n, a per-source
        # finish of one source a call (0) or three (3), and depth 2 sends
        # most pairs to that finish; the sparse graphs leave nodes isolated
        rng = np.random.default_rng(seed)
        g, _ = random_graph_and_profiles(rng, 100, 130, connected=bool(seed % 2),
                                         extra_p=0.004)
        n = g.node_count
        src = np.r_[np.arange(n), rng.integers(0, n, 200)]
        dst = np.r_[rng.permutation(n), rng.integers(0, n, 200)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "PAIR_ELEMENTS", max(1, per_node * n))
            mp.setattr(graph, "FINISH_DEPTH", depth)
            _directed(mp, direction)
            self._assert_matches_matrix(g, src, dst)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_levels_take_the_direction_asked(self, monkeypatch, direction):
        # 40 sources of a sparse 2 000-node graph start with a small
        # frontier that, by the module's rule, pushes first and then pulls
        want = ["push", "pull"] if direction == "both" else [direction]
        g = gnm_graph(2000, 6000, rng_seed=3)
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, 2000, 40), rng.integers(0, 2000, 40)
        levels = []
        for name in ("_push", "_pull"):
            def spy(*args, real=getattr(graph, name), name=name[1:]):
                levels.append(name)
                return real(*args)
            monkeypatch.setattr(graph, name, spy)
        _directed(monkeypatch, direction)
        self._assert_matches_matrix(g, src, dst)
        assert len(levels) > 3
        assert list(dict.fromkeys(levels)) == want  # in order of first use

    def test_path_deeper_than_64_levels_finishes_per_source(self, monkeypatch):
        n = 300
        g = _path_graph(n)
        rng = np.random.default_rng(4)
        src, dst = rng.integers(0, n, 500), rng.integers(0, n, 500)
        calls = []

        def matrix(g, sources):
            calls.append(len(sources))
            return hop_distance_matrix(g, sources)

        monkeypatch.setattr(graph, "hop_distance_matrix", matrix)
        monkeypatch.setattr(graph, "PAIR_ELEMENTS", 3 * n)  # 3 sources a finish call
        got = graph.pair_hop_distances(g, src, dst)
        assert np.array_equal(got, np.abs(src - dst).astype(np.float64))
        assert calls and max(calls) <= 3
        # the pairs within 64 hops resolve before the finish
        calls.clear()
        near = np.abs(src - dst) <= 64
        assert np.array_equal(graph.pair_hop_distances(g, src[near], dst[near]),
                              np.abs(src - dst)[near].astype(np.float64))
        assert not calls

    def test_unreachable_isolated_and_empty(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4)])  # 5 and 6 are isolated
        # isolated nodes first, between and last: empty CSR rows at each end
        h = Graph(8, [(1, 2), (2, 4), (4, 5)])
        for direction in DIRECTIONS:
            with pytest.MonkeyPatch.context() as mp:
                _directed(mp, direction)
                got = graph.pair_hop_distances(g, [0, 0, 5, 5, 3, 2], [2, 3, 5, 6, 4, 0])
                assert got.tolist() == [2.0, np.inf, 0.0, np.inf, 1.0, 2.0]
                assert graph.pair_hop_distances(g, [], []).shape == (0,)
                got = graph.pair_hop_distances(h, [1, 1, 1, 0, 7, 3], [5, 0, 7, 6, 3, 1])
                assert got.tolist() == [3.0, np.inf, np.inf, np.inf, np.inf, np.inf]

    def test_bad_pairs_rejected(self):
        g = _path_graph(4)
        with pytest.raises(InputError, match="outside"):
            graph.pair_hop_distances(g, [0, 4], [1, 2])
        with pytest.raises(InputError, match="outside"):
            graph.pair_hop_distances(g, [0], [-1])
        with pytest.raises(InputError, match="as many targets"):
            graph.pair_hop_distances(g, [0, 1], [2])


def _walk(g, src, dst, weights=None):
    """The path walk from ``src`` to ``dst`` and its length: the tight walk
    of ``graph._reconstruct_path`` over the distances ``path_distances``
    computes from ``dst``, as ``seed_connector`` runs it."""
    dw, dh = path_distances(g, dst, weights)
    return graph._reconstruct_path(g, src, dst, dw, dh, weights), float(dw[src])


def _assert_matches_reference(g, src, weights=None):
    ref_w, ref_h = reference_path_distances(
        g.node_count, g.edges(), src, None if weights is None else weights.values)
    dist_w, dist_h = path_distances(g, src, weights)
    assert np.array_equal(dist_w, ref_w) and np.array_equal(dist_h, ref_h)


def _all_simple_paths(g, src, dst):
    adj = adjacency_lists(g)
    stack = [(src, [src])]
    while stack:
        u, path = stack.pop()
        if u == dst:
            yield path
            continue
        for v in adj[u]:
            if v not in path:
                stack.append((v, path + [v]))


# -- minimum spanning tree ----------------------------------------------------

_CLOSURE_KINDS = {
    "uniform": lambda rng, shape: rng.random(shape),
    "ints": lambda rng, shape: rng.integers(0, 4, shape).astype(float),  # ties
    "plateaus": lambda rng, shape: 0.1 * rng.integers(0, 2, shape),  # zero plateaus
}


class TestMinimumSpanningTree:
    def test_single_node(self):
        assert minimum_spanning_tree(np.zeros((1, 1))) == []

    def test_empty_closure_rejected(self):
        with pytest.raises(InputError, match="empty node set"):
            minimum_spanning_tree(np.zeros((0, 0)))

    def test_two_nodes_forced(self):
        assert minimum_spanning_tree(np.array([[0.0, 2.5], [2.5, 0.0]])) == [(0, 1)]

    def test_three_node_example(self):
        tree = minimum_spanning_tree(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]))
        assert sorted(tree) == [(0, 1), (0, 2)]

    def test_unreachable_pair_rejected(self):
        with pytest.raises(InfeasibleError, match="different components"):
            minimum_spanning_tree(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    def test_tie_broken_lexicographically(self):
        tree = minimum_spanning_tree(np.ones((3, 3)))
        assert sorted(tree) == [(0, 1), (0, 2)]

    @given(st.integers(3, 6), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_total_weight_matches_brute_force(self, k, seed):
        rng = np.random.default_rng(seed)
        dist = rng.random((k, k))
        dist = np.triu(dist) + np.triu(dist, 1).T
        tree = minimum_spanning_tree(dist)
        assert len(tree) == k - 1
        total = sum(dist[e] for e in tree)
        best = min(
            sum(dist[e] for e in combo)
            for combo in itertools.combinations(itertools.combinations(range(k), 2), k - 1)
            if _spans(combo, range(k)))
        assert total == pytest.approx(best, rel=1e-12)

    @given(st.integers(0, 100_000), st.sampled_from([1, 2, 3, 7, 20, 64]),
           st.sampled_from(sorted(_CLOSURE_KINDS)), st.sampled_from([0.0, 0.3, 0.8]))
    @settings(max_examples=300)
    def test_matches_the_pair_dict_kruskal(self, seed, k, kind, absent):
        """The same index pairs in the same order, or the same error, as the
        Kruskal over a dict of seed pairs; the entries below the diagonal are
        drawn apart from those above and must not be read."""
        rng = np.random.default_rng(seed)
        dist = _CLOSURE_KINDS[kind](rng, (k, k))
        dist[rng.random((k, k)) < absent] = np.inf
        closure = {(i, j): float(dist[i, j]) for i, j in itertools.combinations(range(k), 2)}
        try:
            want = reference_minimum_spanning_tree(range(k), closure)
        except InfeasibleError as e:
            want = str(e)
        try:
            got = minimum_spanning_tree(dist)
        except InfeasibleError as e:
            got = str(e)
        assert got == want


def _spans(edge_combo, nodes):
    uf = OracleUnionFind(len(nodes))
    for a, b in edge_combo:
        uf.union(a, b)
    return len({uf.find(v) for v in nodes}) == 1

