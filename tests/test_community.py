"""Community search: proxy weights, the tree and peel strategies, scoring."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensionkit import (VARIANT_TAGS, ConvergenceError, EdgeWeights, Graph,
                        InfeasibleError, InputError, community_solver,
                        evaluate_solution, induced_subgraph, node_tension,
                        peel_community, proxy_weights, tree_community)
from tensionkit import community, graph, greedy_fixed_size, standardized_metrics
from tensionkit.community import PEEL_VARIANTS, seed_connector
from tensionkit.conformation import DENSE_LIMIT
from tensionkit.evaluation import mean_squared_weight
from tensionkit.graph import hop_distance_matrix, pair_hop_distances, path_distances

from conftest import (adjacency_lists, edge_weights, oracle_is_connected,
                      oracle_min_tension, oracle_tension, random_graph_and_profiles,
                      reference_hop_connector, reference_peel_community,
                      reference_peel_kernel, reference_tight_hops, reference_weighted_connector)


def _solve(tag, g, X, seeds, seed=0):
    return community_solver(*tag.split("-", 1), rng_seed=seed)(g, X, seeds)


# -- proxy weights -------------------------------------------------------------

class TestProxyWeights:
    def test_identical_profiles_zero(self):
        g = Graph(2, [(0, 1)])
        w = proxy_weights(g, np.array([[0.4], [0.4]]))
        assert w.values[0] == 0.0

    def test_single_attribute_absolute_difference(self):
        g = Graph(2, [(0, 1)])
        w = proxy_weights(g, np.array([[0.0], [1.0]]))
        assert w.values[0] == 1.0

    def test_two_attribute_euclidean(self):
        g = Graph(2, [(0, 1)])
        w = proxy_weights(g, np.array([[0.0, 0.0], [0.3, 0.4]]))
        assert w.values[0] == pytest.approx(0.5, abs=1e-15)

    def test_l1_and_max_norms(self):
        g = Graph(2, [(0, 1)])
        X = np.array([[0.0, 0.0], [0.3, 0.4]])
        assert proxy_weights(g, X, "l1").values[0] == pytest.approx(0.7, abs=1e-15)
        assert proxy_weights(g, X, "max").values[0] == pytest.approx(0.4, abs=1e-15)

    def test_unknown_norm_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="unknown weight norm"):
            proxy_weights(g, np.zeros((2, 1)), "l3")

    def test_row_mismatch_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InputError):
            proxy_weights(g, np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_profile_rejected(self, bad):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="NaN or infinite"):
            proxy_weights(g, np.array([[0.5], [bad]]))


# -- the variant registry --------------------------------------------------------

class TestVariantRegistry:
    def test_tags_are_the_five_paper_variants(self):
        assert VARIANT_TAGS == ("tree-hops", "tree-weights", "peel-random",
                                "peel-sum", "peel-max")

    @pytest.mark.parametrize("algorithm,variant", [("tree", "sum"), ("peel", "hops"),
                                                   ("peel", "median"), ("magic", "hops")])
    def test_unknown_pair_rejected_when_built(self, algorithm, variant):
        with pytest.raises(InputError, match="unknown algorithm and variant"):
            community_solver(algorithm, variant)

    def test_handle_matches_direct_call(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        X = np.array([[0.0], [0.3], [0.9], [0.2], [0.6]])
        for tag in VARIANT_TAGS:
            algorithm, variant = tag.split("-", 1)
            if algorithm == "tree":
                direct = tree_community(g, X, [0, 2], variant=variant)
            else:
                direct = peel_community(g, X, [0, 2], variant=variant, rng_seed=3)
            via = community_solver(algorithm, variant, rng_seed=3)(g, X, [0, 2])
            assert via == direct, tag


# -- non-finite profiles on a 4-path, for every entry point that used to
# -- misreport them

class TestNonFiniteProfiles:
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    X = np.array([[0.1], [np.nan], [0.7], [0.4]])

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_every_variant_rejects_nan(self, tag):
        with pytest.raises(InputError, match="NaN or infinite"):
            _solve(tag, self.g, self.X, [0, 3])

    def test_evaluate_solution_rejects_nan(self):
        with pytest.raises(InputError, match="NaN or infinite"):
            evaluate_solution(self.g, self.X, [0, 1, 2])


# -- inputs that used to be read silently at the library boundary

class TestWeightsOfAnotherGraph:
    """Weights of the path 0-1-2-3-4 used on the path 0-4-3-2-1: same node
    and edge counts, other edges."""
    X = np.array([[0.0], [0.3], [0.5], [0.9], [1.0]])
    PATH = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    OTHER = Graph(5, [(0, 4), (4, 3), (3, 2), (2, 1)])
    W = proxy_weights(PATH, X)
    CALLS = {
        "seed_connector": lambda g, X, w: seed_connector(g, [0, 1], w),
        "tree_community": lambda g, X, w: tree_community(g, X, [0, 1], "weights", w),
        "peel_community": lambda g, X, w: peel_community(g, X, [0, 1], "sum", weights=w),
        "greedy_fixed_size": lambda g, X, w: greedy_fixed_size(g, X, 3, weights=w),
        "standardized_metrics": lambda g, X, w: standardized_metrics(
            g, w, evaluate_solution(g, X, [2, 3, 4]), [0, 1]),
        "path_distances": lambda g, X, w: [row.tolist() for row in path_distances(g, 0, w)],
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call):
        with pytest.raises(InputError, match="different graph"):
            self.CALLS[call](self.OTHER, self.X, self.W)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_equal_graph_built_separately_accepted(self, call):
        again = Graph(5, [(4, 3), (3, 2), (2, 1), (1, 0)])
        assert self.CALLS[call](self.PATH, self.X, self.W) == self.CALLS[call](
            self.PATH, self.X, proxy_weights(again, self.X))


# public functions that take node ids, each called with the one id ``v``
TAKES_IDS = {
    "induced_subgraph": lambda g, X, v: induced_subgraph(g, [0, v]),
    "edges_within": lambda g, X, v: g.edges_within([0, v]),
    "hop_distance_matrix": lambda g, X, v: hop_distance_matrix(g, [v]),
    "pair_hop_distances": lambda g, X, v: pair_hop_distances(g, [v], [1]),
    "path_distances": lambda g, X, v: path_distances(g, v),
    "node_tension": lambda g, X, v: node_tension(g, X, X, v),
    "mean_squared_weight": lambda g, X, v: mean_squared_weight(g, proxy_weights(g, X), [1, v]),
}


def _id_cases(values: dict) -> list:
    return [pytest.param(partial(call, v=v), id=f"{name}-{label}")
            for name, call in TAKES_IDS.items() for label, v in values.items()]


class TestIntegerNodeIds:
    g = Graph(3, [(0, 1), (1, 2)])
    X = np.array([[0.0], [0.4], [1.0]])

    @pytest.mark.parametrize("call", [
        pytest.param(lambda g, X: Graph(3, [(0, 1.5)]), id="graph-float"),
        pytest.param(lambda g, X: Graph(3, [(0, "1")]), id="graph-str"),
        pytest.param(lambda g, X: Graph(3, np.array([[0, np.nan]])), id="graph-nan"),
        pytest.param(lambda g, X: seed_connector(g, [0, 2.9]), id="seed_connector"),
        pytest.param(lambda g, X: peel_community(g, X, [0, 2.5]), id="peel_community"),
        pytest.param(lambda g, X: tree_community(g, X, ["0", 2]), id="tree_community-str"),
        pytest.param(lambda g, X: evaluate_solution(g, X, [0, 1.7]), id="evaluate_solution"),
        # a single-node argument given a list
        pytest.param(lambda g, X: path_distances(g, [0, 1], proxy_weights(g, X)),
                     id="path_distances-list"),
        pytest.param(lambda g, X: node_tension(g, X, X, [1]), id="node_tension-list"),
    ] + _id_cases({"float": 1.5, "str": "1", "nan": np.nan}))
    def test_non_integer_ids_rejected(self, call):
        with pytest.raises(InputError, match="integer node ids"):
            call(self.g, self.X)

    @pytest.mark.parametrize("call", _id_cases({"negative": -1, "n": 3}))
    def test_out_of_range_ids_rejected(self, call):
        with pytest.raises(InputError, match="node range"):
            call(self.g, self.X)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64, np.float64])
    def test_integer_valued_ids_of_any_numeric_dtype_accepted(self, dtype):
        g = Graph(3, np.array([[1, 0], [2, 1]], dtype=dtype))
        assert g.edges() == self.g.edges()
        seeds = np.array([0, 2], dtype=dtype)
        assert seed_connector(g, seeds) == ({0, 1, 2}, {(0, 1), (1, 2)})
        sol = evaluate_solution(g, self.X, np.array([0, 1], dtype=dtype))
        assert sol.nodes == {0, 1} and all(type(v) is int for v in sol.nodes)


# -- solution scoring ----------------------------------------------------------

class TestEvaluateSolution:
    def test_single_node_zero_tension(self):
        g = Graph(3, [(0, 1), (1, 2)])
        sol = evaluate_solution(g, np.array([[0.1], [0.5], [0.9]]), [1])
        assert sol.tension == 0.0 and sol.sorted_nodes() == [1]
        assert sol.edges_induced == 0

    def test_single_edge_equilibrium_value(self):
        g = Graph(2, [(0, 1)])
        sol = evaluate_solution(g, np.array([[0.0], [1.0]]), [0, 1])
        assert sol.tension == pytest.approx(4 / 9, abs=1e-9)

    def test_equal_profiles_zero(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        sol = evaluate_solution(g, np.full((3, 1), 0.8), [0, 1, 2])
        assert sol.tension == pytest.approx(0.0, abs=1e-12)

    def test_disconnected_set_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InfeasibleError, match="disconnected"):
            evaluate_solution(g, np.zeros((3, 1)), [0, 2])

    def test_counts_induced_extras(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        sol = evaluate_solution(g, np.zeros((3, 1)), [0, 1, 2])
        assert sol.edges_induced == 3

    def test_unreachable_tol_above_dense_limit_fails_to_converge(self):
        # the set is solved by conjugate gradients, whose budget runs out
        n = DENSE_LIMIT + 30
        g = Graph(n + 5, [(i, i + 1) for i in range(n + 4)])
        X = np.random.default_rng(7).random((n + 5, 1))
        with pytest.raises(ConvergenceError) as exc:
            evaluate_solution(g, X, range(2, n + 2), tol=1e-300)
        err = exc.value  # carries the last iterate
        assert err.profiles.shape == (n, 1) and err.residual > 1e-300
        F = np.linalg.solve(np.eye(n) * 3 - np.eye(n, k=1) - np.eye(n, k=-1)
                            - np.diag(np.r_[1.0, np.zeros(n - 2), 1.0]), X[2:n + 2])
        assert np.abs(err.profiles - F).max() < 1e-6
        sol = evaluate_solution(g, X, range(2, n + 2))
        assert sol.edges_induced == n - 1
        assert sol.tension == pytest.approx(
            oracle_tension(g.node_count, g.edges(), X, range(2, n + 2)), rel=1e-7)


# -- bottom-up strategy ---------------------------------------------------------

class TestTreeCommunity:
    def test_single_seed(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sol = tree_community(g, np.zeros((4, 1)), [2])
        assert sol.sorted_nodes() == [2] and sol.tension == 0.0

    def test_path_graph_connector(self):
        g = Graph(3, [(0, 1), (1, 2)])
        sol = tree_community(g, np.zeros((3, 1)), [0, 2])
        assert sol.sorted_nodes() == [0, 1, 2]

    def test_weighted_four_cycle_prefers_light_side(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        X = np.array([[0.0], [0.1], [0.2], [0.9]])
        sol = tree_community(g, X, [0, 2], variant="weights")
        assert sol.sorted_nodes() == [0, 1, 2]
        assert sol.algorithm_tag == "tree-weights"

    def test_hop_tie_broken_lexicographically(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sol = tree_community(g, np.zeros((4, 1)), [0, 2], variant="hops")
        assert sol.sorted_nodes() == [0, 1, 2]
        assert sol.algorithm_tag == "tree-hops"

    def test_unknown_variant_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="unknown tree variant"):
            tree_community(g, np.zeros((2, 1)), [0], variant="nope")

    def test_disconnected_seeds_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleError, match="different components"):
            tree_community(g, np.zeros((4, 1)), [0, 2])

    def test_explicit_weights_override_profiles(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = edge_weights(g, {(0, 1): 0.9, (1, 2): 0.9, (2, 3): 0.1, (0, 3): 0.1})
        sol = tree_community(g, np.zeros((4, 1)), [0, 2], variant="weights", weights=w)
        assert sol.sorted_nodes() == [0, 2, 3]


class TestSeedConnector:
    def test_connector_edges_belong_to_graph(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        nodes, edges = seed_connector(g, [0, 2])
        assert edges <= set(g.edges())
        assert nodes == {0, 1, 2}

    def test_single_seed_empty_tree(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert seed_connector(g, [1]) == ({1}, set())

    def test_empty_seed_list_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="at least one seed"):
            seed_connector(g, [])

    def test_closure_reads_the_smaller_seeds_row(self):
        # float path sums are not symmetric here: read from the larger seed's
        # row, the closure would join 2 to 0 instead of to 4
        g = Graph(7, [(0, 1), (1, 4), (1, 6), (2, 3), (3, 5), (3, 6), (4, 6), (5, 6)])
        w = EdgeWeights(g, [0.1, 0.1, 0.2, 0.6, 0.7, 0.7, 0.3, 0.2])
        d = {s: path_distances(g, s, w)[0] for s in (0, 2, 4)}
        assert (d[0][2], d[2][0]) == (1.6, 1.5999999999999999)
        assert (d[2][4], d[4][2]) == (1.5999999999999999, 1.6)
        nodes, edges = seed_connector(g, [0, 2, 4], w)
        assert edges == {(0, 1), (1, 4), (4, 6), (2, 3), (3, 6)}
        assert nodes == {0, 1, 2, 3, 4, 6}


def _connector_case(rng, kind):
    """A graph of one kind and sorted seeds on it: 2 seeds, 3 to 64, 65 or
    130, at most one a node; 65 and 130 seeds take two and three words of
    the joint hop search."""
    if kind == "gnm":  # often disconnected
        n = int(rng.integers(3, 121))
        edges = rng.integers(0, n, (int(rng.integers(n // 2, 3 * n)), 2))
    elif kind == "tree":
        n = int(rng.integers(3, 151))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    elif kind == "grid":
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(3, 13))
        n, at = rows * cols, np.arange(rows * cols).reshape(rows, cols)
        edges = np.r_[np.c_[at[:, :-1].ravel(), at[:, 1:].ravel()],
                      np.c_[at[:-1].ravel(), at[1:].ravel()]]
    elif kind == "star":  # many pairs of equal length: Kruskal's ties
        n = int(rng.integers(4, 101))
        edges = np.r_[np.c_[np.zeros(n - 1, int), np.arange(1, n)],
                      rng.integers(1, n, (int(rng.integers(0, n)), 2))]
    else:  # a path deeper than FINISH_DEPTH
        n = int(rng.integers(130, 401))
        edges = [(v, v + 1) for v in range(n - 1)]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    g = Graph(n, edges[edges[:, 0] != edges[:, 1]])
    k = min(n, int(rng.choice([2, rng.integers(3, 65), 65, 130])))
    if kind == "path" and rng.random() < 0.5:
        # the last seed lies more than 64 hops past the others: the fallback
        k = min(k, n // 3)
        return g, sorted(rng.choice(n // 3, k - 1, replace=False).tolist() + [n - 1])
    return g, sorted(rng.choice(n, k, replace=False).tolist())


def _spy_weighted_rows(monkeypatch):
    """Record the weighted connector's Dijkstra rows as ``(sources,
    limit)``, its nearest-seed pass as ``(sources, "nearest")`` and its
    tight-edge hop rows as ``(source, nodes of the mask)``, a list of
    sources where one call serves several."""
    rows, hops = [], []

    def dijkstra(W, indices, limit=np.inf, min_only=False, return_predecessors=False,
                 real=graph.csgraph.dijkstra):
        rows.append((np.ravel(indices).tolist(), "nearest" if min_only else limit))
        return real(W, indices=indices, limit=limit, min_only=min_only,
                    return_predecessors=return_predecessors)

    def tight_hops(W, dw, src, mask, real=graph._tight_hops):
        hops.append((np.asarray(src).tolist(), np.flatnonzero(mask).tolist()))
        return real(W, dw, src, mask)

    monkeypatch.setattr(graph.csgraph, "dijkstra", dijkstra)
    monkeypatch.setattr(graph, "_tight_hops", tight_hops)
    return rows, hops


class TestJointHopConnector:
    """In hop mode, 3 or more seeds are connected by one bit-parallel search,
    a word per 64 seeds, that stops once its resolved pairs connect them;
    the answer, or the InfeasibleError, is the per-seed connector's."""

    @given(st.integers(0, 100_000), st.sampled_from(["gnm", "tree", "grid", "star", "path"]),
           st.sampled_from([0, 10**9, None]))
    @settings(max_examples=200)
    def test_matches_the_per_seed_connector(self, seed, kind, pull_factor):
        g, seeds = _connector_case(np.random.default_rng(seed), kind)
        try:
            want = reference_hop_connector(g, seeds)
        except InfeasibleError as e:
            want = str(e)
        with pytest.MonkeyPatch.context() as mp:
            if pull_factor is not None:  # every level pushes (0) or pulls
                mp.setattr(graph, "PULL_FACTOR", pull_factor)
            try:
                got = seed_connector(g, seeds)
            except InfeasibleError as e:
                got = str(e)
        assert got == want

    def test_routes(self, monkeypatch):
        calls = []

        def spy(g, src, weights=None):
            calls.append(src)
            return path_distances(g, src, weights)

        monkeypatch.setattr(community, "path_distances", spy)
        g = Graph(200, [(v, v + 1) for v in range(199)])
        assert seed_connector(g, [0, 60, 120])[0] == set(range(121))
        assert calls == []  # joint: all pairs within 64 levels
        assert seed_connector(g, [0, 100, 199])[0] == set(range(200))
        assert calls == [0, 100, 199]  # 100 hops apart: per-seed after 64 levels
        calls.clear()
        seed_connector(g, [0, 5])
        assert calls == [0, 5]  # two seeds: per-seed
        calls.clear()
        seeds = list(range(0, 195, 3))  # 65 seeds, two words: joint
        assert seed_connector(g, seeds) == reference_hop_connector(g, seeds)
        assert calls == []
        rows, hops = _spy_weighted_rows(monkeypatch)
        seed_connector(g, [0, 5, 10], EdgeWeights(g, np.ones(199)))
        # weighted: the nearest-seed pass, whose boundary bottleneck (5)
        # limits every seed's row in one call, hop rows for the walk targets
        # over their corridors, the nodes between each target and its head
        assert calls == []
        limit = 5 * (1 + graph._orientation_margin(200)) * graph._corridor_slack(200)
        assert rows == [([0, 5, 10], "nearest"), ([0, 5, 10], limit)]
        assert hops == [(5, [0, 1, 2, 3, 4, 5]), (10, [5, 6, 7, 8, 9, 10])]

    def test_search_stops_at_the_level_that_connects_the_seeds(self, monkeypatch):
        levels = []

        def spy(g, sources, real=graph._bit_levels):
            for level in real(g, sources):
                levels.append(level)
                yield level

        monkeypatch.setattr(graph, "_bit_levels", spy)
        # seeds 0, 2 and 7 on a 40-node path: pairs at 2 and 5 hops connect them
        g = Graph(40, [(v, v + 1) for v in range(39)])
        nodes, edges = seed_connector(g, [0, 2, 7])
        assert len(levels) == 5 and nodes == set(range(8))
        assert edges == {(v, v + 1) for v in range(7)}


_WEIGHT_KINDS = {  # edge weights of a graph
    "ints": lambda rng, g: rng.integers(0, 3, g.edge_count).astype(float),  # ties, zero plateaus
    "uniform": lambda rng, g: rng.random(g.edge_count),
    "tenths": lambda rng, g: np.round(rng.random(g.edge_count), 1),  # orientation asymmetry
    # |x_u - x_v| of one profile column, as comm-large weighs: every monotone
    # path ties in exact arithmetic, so float rounding picks the tight paths
    "gaps": lambda rng, g: np.abs(np.diff(rng.random(g.node_count)[g.edge_array()])).ravel(),
    # one zero-weight plateau per component: the closure's star route
    "zeros": lambda rng, g: np.zeros(g.edge_count),
}


class TestWeightedConnector:
    """With weights, only the nearest-seed pass, every seed's row up to its
    boundary bottleneck's reach times the corridor slack (in one call) and
    the walk targets' hop rows over their corridors are computed, all rows
    again in full only where the reach falls short.  Seeds on one
    zero-weight plateau take one row limited at 0 and one hop search from
    every walk target instead.  The answer, or the InfeasibleError, is the
    per-seed connector's."""

    @given(st.integers(0, 100_000), st.sampled_from(["gnm", "tree", "grid", "star", "path"]),
           st.sampled_from(sorted(_WEIGHT_KINDS)))
    @settings(max_examples=300)
    def test_matches_the_per_seed_connector(self, seed, kind, weight_kind):
        rng = np.random.default_rng(seed)
        g, seeds = _connector_case(rng, kind)
        w = EdgeWeights(g, _WEIGHT_KINDS[weight_kind](rng, g))
        try:
            want = reference_weighted_connector(g, seeds, w)
        except InfeasibleError as e:
            want = str(e)
        try:
            got = seed_connector(g, seeds, w)
        except InfeasibleError as e:
            got = str(e)
        assert got == want

    @given(st.integers(0, 100_000), st.sampled_from(["gnm", "tree", "grid", "star", "path"]),
           st.sampled_from(sorted(_WEIGHT_KINDS)))
    @settings(max_examples=200)
    def test_recompute_matches_the_per_seed_connector(self, seed, kind, weight_kind):
        """A margin of ``1 / slack - 1`` takes the row limit to about the
        boundary bottleneck and the reach below it, so on most float closures
        a walk starts past the reach, or the limited closure does not span,
        and every row is computed again in full."""
        rng = np.random.default_rng(seed)
        g, seeds = _connector_case(rng, kind)
        w = EdgeWeights(g, _WEIGHT_KINDS[weight_kind](rng, g))
        try:
            want = reference_weighted_connector(g, seeds, w)
        except InfeasibleError as e:
            want = str(e)
        with pytest.MonkeyPatch.context() as mp:
            slack = graph._corridor_slack
            mp.setattr(graph, "_orientation_margin", lambda n: 1 / slack(n) - 1)
            try:
                got = seed_connector(g, seeds, w)
            except InfeasibleError as e:
                got = str(e)
        assert got == want

    @given(st.integers(0, 100_000), st.sampled_from(["gnm", "tree", "grid", "star", "path"]),
           st.sampled_from(sorted(_WEIGHT_KINDS)))
    @settings(max_examples=200)
    def test_corridor_hops_match_the_ball_on_tight_paths(self, seed, kind, weight_kind):
        """Each tree edge ``(a, b)``'s hop row, over ``b``'s corridor, equals
        the ball rule's on every node of every tight ``b -> a`` path, the
        nodes its walk can read."""
        rng = np.random.default_rng(seed)
        g, seeds = _connector_case(rng, kind)
        w = EdgeWeights(g, _WEIGHT_KINDS[weight_kind](rng, g))
        try:
            tree, rows = graph._seed_weight_closure(g, seeds, w)
        except InfeasibleError:
            return
        W = w.weighted_csr()
        for (i, j), (dw, dh) in zip(tree, rows):
            a, b = seeds[i], seeds[j]
            on_paths, stack = {a}, [a]  # a and every node with a tight path on to a
            while stack:
                v = stack.pop()
                for at in range(W.indptr[v], W.indptr[v + 1]):
                    u = W.indices[at]
                    if u not in on_paths and dw[u] + W.data[at] == dw[v]:
                        on_paths.add(u)
                        stack.append(u)
            assert b in on_paths
            on_paths = sorted(on_paths)
            want = reference_tight_hops(W, dw, b, dw[a])
            assert dh[on_paths].tolist() == want[on_paths].tolist()

    # the graph of test_closure_reads_the_smaller_seeds_row: the tree edge
    # (2, 4) reads d(2 -> 4) = 1.5999999999999999, its walk d(4 -> 2) = 1.6
    G7 = Graph(7, [(0, 1), (1, 4), (1, 6), (2, 3), (3, 5), (3, 6), (4, 6), (5, 6)])
    W7 = EdgeWeights(G7, [0.1, 0.1, 0.2, 0.6, 0.7, 0.7, 0.3, 0.2])

    def test_margin_covers_the_reverse_orientation(self, monkeypatch):
        rows, hops = _spy_weighted_rows(monkeypatch)
        got = seed_connector(self.G7, [0, 2, 4], self.W7)
        # the boundary bottleneck is the closure's, d(2 -> 4), via the edge (3, 6)
        limit = 1.5999999999999999 * (1 + graph._orientation_margin(7)) * graph._corridor_slack(7)
        assert rows == [([0, 2, 4], "nearest"), ([0, 2, 4], limit)]  # each row once
        # 4's corridor joins its paths to 0 and to 2 (and 1, a near-tie on
        # the way to 2), where its ball d(4 -> .) <= 1.6 also held 5
        assert hops == [(4, [0, 1, 2, 3, 4, 6])]
        assert got == reference_weighted_connector(self.G7, [0, 2, 4], self.W7)

    def test_row_past_the_limit_is_recomputed(self, monkeypatch):
        # without the margin, the walk from 2 reads 4's row at d(4 -> 2) =
        # 1.6, past the bottleneck d(2 -> 4): every row is computed again
        monkeypatch.setattr(graph, "_orientation_margin", lambda n: 0.0)
        rows, hops = _spy_weighted_rows(monkeypatch)
        got = seed_connector(self.G7, [0, 2, 4], self.W7)
        limit = 1.5999999999999999 * graph._corridor_slack(7)
        assert rows == [([0, 2, 4], "nearest"), ([0, 2, 4], limit), ([0, 2, 4], np.inf)]
        assert hops == [(4, [0, 1, 2, 3, 4, 6])]
        assert got == reference_weighted_connector(self.G7, [0, 2, 4], self.W7)

    def test_head_row_past_the_limit_is_recomputed(self, monkeypatch):
        # G7 plus the pendant edge (0, 7): with seeds 2 < 4 < 7, the walk
        # from 2 reads 4's row at d(4 -> 2) = 1.6, past the bottleneck
        # d(2 -> 4), and the walk from 4 reads 7's row within it
        g = Graph(8, self.G7.edges() + [(0, 7)])
        w = EdgeWeights(g, np.insert(self.W7.values, 1, 0.1))  # (0, 7) sorts second
        monkeypatch.setattr(graph, "_orientation_margin", lambda n: 0.0)
        rows, hops = _spy_weighted_rows(monkeypatch)
        got = seed_connector(g, [2, 4, 7], w)
        limit = 1.5999999999999999 * graph._corridor_slack(8)
        assert rows == [([2, 4, 7], "nearest"), ([2, 4, 7], limit), ([2, 4, 7], np.inf)]
        assert hops == [(7, [0, 1, 4, 7]), (4, [1, 2, 3, 4, 6])]
        assert got == reference_weighted_connector(g, [2, 4, 7], w)

    def test_closure_short_of_the_bottleneck_is_recomputed(self, monkeypatch):
        # the path 0 - 3 - 1 - 2: d(0 -> 2) = (0.4 + 0.8) + 0.1 rounds to
        # 1.3000000000000003, the boundary sum 0.1 + 0.8 + 0.4 at (1, 3) to
        # 1.3; a negative margin takes the limit below both, so the limited
        # closure does not span
        g = Graph(4, [(0, 3), (1, 2), (1, 3)])
        w = EdgeWeights(g, [0.4, 0.1, 0.8])
        monkeypatch.setattr(graph, "_orientation_margin", lambda n: -1e-14)
        rows, hops = _spy_weighted_rows(monkeypatch)
        got = seed_connector(g, [0, 2], w)
        limit = 1.3 * (1 - 1e-14) * graph._corridor_slack(4)
        assert limit < 1.3
        assert rows == [([0, 2], "nearest"), ([0, 2], limit), ([0, 2], np.inf)]
        # 2 lies on its own path to 0 only by the slack: d(2 -> 2) + d(0 -> 2)
        # is 1.3000000000000003, d(2 -> 0) is 1.3
        assert hops == [(2, [0, 1, 2, 3])]
        assert got == reference_weighted_connector(g, [0, 2], w)

    def test_corridor_reads_a_head_row_past_the_bottleneck(self, monkeypatch):
        # a cycle of two paths from 0 to 1: 0 - 3 - 4 - 2 - 1 (weights 0.2,
        # 0.4, 0.3, 1e-16) and 0 - 5 - ... - 9 - 1 (six edges, 0.9).  Without
        # the margin the reach is the bottleneck d(0 -> 1) = 0.9, and the
        # walk from 0 reads 1's row at d(1 -> 0) = 0.9000000000000001, past
        # it, so every row is computed again
        g = Graph(10, [(0, 3), (0, 5), (1, 2), (1, 9), (2, 4),
                       (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)])
        w = EdgeWeights(g, [0.2, 0.2, 1e-16, 0.1, 0.3, 0.4, 0.1, 0.2, 0.1, 0.2])
        monkeypatch.setattr(graph, "_orientation_margin", lambda n: 0.0)
        rows, hops = _spy_weighted_rows(monkeypatch)
        got = seed_connector(g, [0, 1], w)
        limit = 0.9 * graph._corridor_slack(10)
        assert rows == [([0, 1], "nearest"), ([0, 1], limit), ([0, 1], np.inf)]
        # both paths are tight, d(1 -> 0) = 0.9000000000000001, and fill 1's
        # corridor, which reads 0's row at 2 past the bottleneck, d(0 -> 2) =
        # 0.9000000000000001
        assert hops == [(1, list(range(10)))]
        assert got == ({0, 1, 2, 3, 4}, {(0, 3), (3, 4), (2, 4), (1, 2)})
        assert got == reference_weighted_connector(g, [0, 1], w)

    # two tight paths from 1 to 0, d(1 -> 0) = 0.6: 1 - 2 - 3 - 4 - 0
    # (weights 6e-17, 0.3, 0.2, 0.1), which the walk takes for its fewer
    # hops, and 1 - 9 - ... - 5 - 0 (six edges of 0.1).  d(0 -> 1) and the
    # boundary bottleneck are 0.6 too, but d(0 -> 2) = (0.1 + 0.2) + 0.3 is
    # 0.6000000000000001: 2 lies in 1's corridor only by 0's row past them
    G10 = Graph(10, [(0, 4), (0, 5), (1, 2), (1, 9), (2, 3),
                     (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)])
    W10 = EdgeWeights(G10, [0.1, 0.1, 6e-17, 0.1, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1])

    @pytest.mark.parametrize("recomputed", [False, True])
    def test_corridor_reads_a_head_row_past_the_reach(self, monkeypatch, recomputed):
        # without the margin, the rows reach past the bottleneck by the slack
        # alone; with the limit at the bottleneck itself, the walk from 0
        # starts past the reach and every row is computed again
        slack = graph._corridor_slack
        margin = (lambda n: 1 / slack(n) - 1) if recomputed else (lambda n: 0.0)
        monkeypatch.setattr(graph, "_orientation_margin", margin)
        rows, hops = _spy_weighted_rows(monkeypatch)
        got = seed_connector(self.G10, [0, 1], self.W10)
        assert got == ({0, 1, 2, 3, 4}, {(0, 4), (1, 2), (2, 3), (3, 4)})
        limit = 0.6 * (1 + margin(10)) * slack(10)
        assert rows == [([0, 1], "nearest"), ([0, 1], limit)] + [([0, 1], np.inf)] * recomputed
        assert hops == [(1, list(range(10)))]
        assert got == reference_weighted_connector(self.G10, [0, 1], self.W10)

    def test_zero_plateau_takes_one_row_and_one_hop_search(self, monkeypatch):
        # the path 0 - 1 - ... - 7 plus the chord (1, 5): the edges from 1 to
        # 6 weigh 0, so seeds 1, 3 and 5 share the plateau {1, ..., 6} and
        # the boundary bottleneck is 0.  One row from seed 1, limited at 0,
        # holds the plateau, and one hop search over its zero edges serves
        # both walk targets; the chord (0.5) is no tight edge
        g = Graph(8, [(v, v + 1) for v in range(7)] + [(1, 5)])
        w = edge_weights(g, {(0, 1): 1.0, (1, 5): 0.5, (6, 7): 1.0,
                             **{(v, v + 1): 0.0 for v in range(1, 6)}})
        rows, hops = _spy_weighted_rows(monkeypatch)
        got = seed_connector(g, [1, 3, 5], w)
        assert rows == [([1, 3, 5], "nearest"), ([1], 0.0)]
        assert hops == [([3, 5], [1, 2, 3, 4, 5, 6])]
        assert graph._seed_weight_closure(g, [1, 3, 5], w)[0] == [(0, 1), (0, 2)]
        assert got == ({1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (4, 5)})
        assert got == reference_weighted_connector(g, [1, 3, 5], w)

    def test_seeds_apart_compute_no_rows(self, monkeypatch):
        # no boundary edge joins the two components: the nearest-seed pass raises
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        rows, hops = _spy_weighted_rows(monkeypatch)
        with pytest.raises(InfeasibleError, match="^seeds in different components$"):
            seed_connector(g, [0, 2, 4], EdgeWeights(g, np.ones(3)))
        assert rows == [([0, 2, 4], "nearest")]
        assert hops == []

    @given(st.integers(0, 100_000), st.sampled_from(["gnm", "tree", "grid", "star", "path"]),
           st.sampled_from(sorted(_WEIGHT_KINDS)), st.integers(2, 70))
    @settings(max_examples=200)
    def test_boundary_bottleneck_bounds_the_closure_tree(self, seed, kind, weight_kind, k):
        """Mehlhorn (1988): the boundary bottleneck ``U`` is the bottleneck
        ``R`` of the closure's tree, exactly where sums are exact (integer
        weights), and within the orientation margin otherwise."""
        rng = np.random.default_rng(seed)
        g, _ = _connector_case(rng, kind)
        w = EdgeWeights(g, _WEIGHT_KINDS[weight_kind](rng, g))
        seeds = sorted(rng.choice(g.node_count, min(k, g.node_count), replace=False).tolist())
        dist = np.array([path_distances(g, s, w)[0][seeds] for s in seeds])
        tree = graph._kruskal(dist)
        if tree is None:  # seeds in different components
            with pytest.raises(InfeasibleError, match="^seeds in different components$"):
                graph._boundary_bottleneck(g, w, np.array(seeds))
            with pytest.raises(InfeasibleError, match="^seeds in different components$"):
                seed_connector(g, seeds, w)
            return
        U = graph._boundary_bottleneck(g, w, np.array(seeds))
        R = max(dist[i, j] for i, j in tree)
        assert U * (1 + graph._orientation_margin(g.node_count)) >= R
        if weight_kind == "ints":
            assert U == R


# -- top-down strategy -----------------------------------------------------------

class TestPeelCommunity:
    def test_single_seed_node_graph(self):
        g = Graph(1, [])
        sol = peel_community(g, np.array([[0.4]]), [0])
        assert sol.sorted_nodes() == [0] and sol.tension == 0.0

    def test_star_keeps_center(self):
        # center 0 with leaves 1..3; seeds are two leaves: the center is
        # unremovable and the remaining leaf is pruned
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        X = np.array([[0.1], [0.2], [0.9], [0.5]])
        for variant in PEEL_VARIANTS:
            sol = peel_community(g, X, [1, 2], variant=variant, rng_seed=7)
            assert sol.sorted_nodes() == [0, 1, 2]
            assert sol.algorithm_tag == f"peel-{variant}"

    def test_sum_variant_peels_heavy_side(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        X = np.array([[0.0], [0.1], [0.2], [0.9]])
        sol = peel_community(g, X, [0, 2], variant="sum")
        assert sol.sorted_nodes() == [0, 1, 2]

    def test_random_variant_deterministic_per_seed(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
        X = np.random.default_rng(1).random((6, 1))
        a = peel_community(g, X, [0, 3], variant="random", rng_seed=11)
        b = peel_community(g, X, [0, 3], variant="random", rng_seed=11)
        assert a.nodes == b.nodes and a.tension == b.tension

    def test_unknown_variant_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="unknown peel variant"):
            peel_community(g, np.zeros((2, 1)), [0], variant="median")

    def test_empty_seeds_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="at least one seed"):
            peel_community(g, np.zeros((2, 1)), [])

    def test_seed_out_of_range_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="node range"):
            peel_community(g, np.zeros((2, 1)), [5])

    def test_disconnected_seeds_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleError, match="different components"):
            peel_community(g, np.zeros((4, 1)), [0, 2])

    def test_isolated_bystanders_are_dropped(self):
        g = Graph(5, [(0, 1), (1, 2)])  # 3 and 4 are isolated non-seeds
        X = np.array([[0.0], [0.5], [1.0], [0.3], [0.7]])
        sol = peel_community(g, X, [0, 2], variant="max")
        assert sol.sorted_nodes() == [0, 1, 2]


# -- exact peel scores ----------------------------------------------------------

def _two_routes(n, weights):
    """Seeds 0 and 1 joined through node 2 and through one more node, on the
    edges of ``weights`` over ``n`` nodes: whichever route node the peel
    picks first goes and the other is kept, so the answer shows which of the
    two scored higher."""
    g = Graph(n, list(weights))
    return g, EdgeWeights(g, [weights[e] for e in g.edges()])


def _peel_matches_reference(g, weights, variant, want):
    X = np.zeros((g.node_count, 1))
    sol = peel_community(g, X, [0, 1], variant=variant, weights=weights)
    assert sol.sorted_nodes() == want
    assert sol.nodes == reference_peel_community(g, X, [0, 1], variant=variant,
                                                 weights=weights).nodes


class TestPeelScoresAreExact:
    @pytest.mark.parametrize("lead", [False, True])
    def test_sum_adds_in_ascending_neighbour_order(self, lead):
        # node 3 sums 0.1 + 0.2 + 0.3 = 0.6000000000000001 in neighbour order
        # and beats node 2's 0.6; summed the other way round it would tie,
        # and node 2 would go.  With ``lead``, leaf 5 goes first, so the
        # sums are recomputed before nodes 2 and 3 compare.
        weights = {(0, 2): 0.6, (1, 2): 0.0, (0, 3): 0.1, (1, 3): 0.2, (3, 4): 0.3}
        if lead:
            weights[(0, 5)] = 5.0
        g, w = _two_routes(5 + lead, weights)
        assert 0.1 + 0.2 + 0.3 > 0.6 and 0.3 + 0.2 + 0.1 == 0.6
        _peel_matches_reference(g, w, "sum", [0, 1, 2])

    def test_sum_is_recomputed_not_decremented(self):
        # node 4's 0.25 + 0.25 is absorbed by its 1e17 edge to node 3; once
        # node 3 goes, node 4 sums 0.5 and beats node 2's 0.3, while
        # subtracting 1e17 from the absorbed total would leave 0.0
        g, w = _two_routes(5, {
            (0, 2): 0.3, (1, 2): 0.0, (0, 4): 0.25, (1, 4): 0.25, (3, 4): 1e17})
        assert (0.25 + 0.25 + 1e17) - 1e17 == 0.0
        _peel_matches_reference(g, w, "sum", [0, 1, 2])

    def test_max_moves_past_a_removed_neighbour(self):
        # node 3 goes first (0.9, tied with node 4, lowest id); node 4's max
        # then falls to its tied 0.5 edges, below node 2's 0.7, so node 2
        # goes before node 4; zero-weight tail 5-6 and isolated node 7 score
        # 0.0
        g, w = _two_routes(8, {
            (0, 2): 0.7, (1, 2): 0.0, (0, 4): 0.5, (1, 4): 0.5, (3, 4): 0.9,
            (4, 5): 0.0, (5, 6): 0.0})
        _peel_matches_reference(g, w, "max", [0, 1, 4])

    def test_max_lowers_stale_bounds_until_one_holds(self):
        # node 5 goes first (0.99); nodes 3 and 4 then hold stale bounds of
        # 0.95 and 0.9 from their edges to it.  The next pick lowers node 3
        # to 0.5, then node 4 to 0.4, before node 2's exact 0.7 holds: node 2
        # goes, then node 3, and node 4 is kept.  Picking node 4 on its stale
        # 0.9 would keep node 3 instead.
        g, w = _two_routes(6, {
            (0, 2): 0.7, (1, 2): 0.0, (0, 3): 0.5, (1, 3): 0.5, (0, 4): 0.4,
            (1, 4): 0.4, (0, 5): 0.99, (3, 5): 0.95, (4, 5): 0.9})
        _peel_matches_reference(g, w, "max", [0, 1, 4])

    @pytest.mark.parametrize("variant", PEEL_VARIANTS)
    @pytest.mark.parametrize("n,edges,seeds", [
        pytest.param(1, [], [0], id="single-node"),
        pytest.param(4, [], [2], id="edgeless"),
        pytest.param(7, [(1, 3), (3, 5)], [1, 5], id="isolated-non-seeds"),
    ])
    def test_rows_without_neighbours(self, variant, n, edges, seeds):
        # empty rows score 0.0 under max and sum; every non-seed off the
        # seeds' path goes
        g = Graph(n, edges)
        X = np.linspace(0.0, 1.0, n)[:, None]
        sol = peel_community(g, X, seeds, variant=variant, rng_seed=4)
        assert sol.sorted_nodes() == list(range(seeds[0], seeds[-1] + 1, 2))
        for reference in (reference_peel_community, reference_peel_kernel):
            assert sol.nodes == reference(g, X, seeds, variant=variant, rng_seed=4).nodes

    @pytest.mark.parametrize("variant", ["sum", "max"])
    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_ties_go_to_the_lowest_id(self, variant, weight):
        # nodes 2 and 3 score the same, so node 2 goes and node 3 is kept
        g, w = _two_routes(4, {
            (0, 2): weight, (1, 2): weight, (0, 3): weight, (1, 3): weight})
        _peel_matches_reference(g, w, variant, [0, 1, 3])


# -- the witness of seed connectivity ---------------------------------------------

PEEL_FAMILIES = ("components", "single-seed", "all-seeds", "path", "tree", "tied-weights",
                 "order-weights")
ORDER_WEIGHTS = np.array([0.0, 0.1, 0.2, 0.3, 0.6, 0.25, 1e17])


def _peel_case(rng, family):
    """A graph, profiles, seeds and edge weights (None: proxy weights) of one
    family; the seeds always share a component."""
    if family == "components":
        # two or three disjoint random graphs, seeds from one of them
        parts, offset, edges = [], 0, []
        for _ in range(int(rng.integers(2, 4))):
            part, _ = random_graph_and_profiles(rng, 1, 8)
            edges += [(u + offset, v + offset) for u, v in part.edges()]
            parts.append(range(offset, offset + part.node_count))
            offset += part.node_count
        g = Graph(offset, edges)
        home = list(parts[int(rng.integers(len(parts)))])
        seeds = rng.choice(home, size=int(rng.integers(1, min(3, len(home)) + 1)),
                           replace=False)
        return g, rng.random((g.node_count, 2)), sorted(seeds.tolist()), None
    if family == "order-weights":
        # seeds 0 and 1 joined through hubs, each with a pendant; a hub's
        # weights are 0.1, 0.2 and 0.3 in some neighbour order, so its sum is
        # 0.6 or 0.6000000000000001 by the order alone, and the order of the
        # hub picks decides which hub is kept.  Hubs 2 and 3 also share an
        # edge of 1e17, which absorbs the rest of a sum, so a sum kept by
        # subtracting the removed weights goes wrong.  A few extra edges weigh
        # ORDER_WEIGHTS values; ids are shuffled.
        m = int(rng.integers(2, 7))
        n = 2 + 2 * m
        w = {(2, 3): 1e17}
        for h in range(2, 2 + m):
            for end, x in zip((0, 1, h + m), rng.permutation([0.1, 0.2, 0.3])):
                w[(min(end, h), max(end, h))] = float(x)
        for _ in range(int(rng.integers(0, 4))):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            w[(u, v)] = float(rng.choice(ORDER_WEIGHTS))
        ids = rng.permutation(n).tolist()
        w = {(min(ids[u], ids[v]), max(ids[u], ids[v])): x for (u, v), x in w.items()}
        g = Graph(n, list(w))
        return g, rng.random((n, 1)), sorted([ids[0], ids[1]]), edge_weights(g, w)
    if family == "path":
        n = int(rng.integers(2, 16))
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        X = rng.random((n, 1))
    elif family == "tree":
        g, X = random_graph_and_profiles(rng, 2, 20, extra_p=0.0)
    else:
        g, X = random_graph_and_profiles(rng, 2, 20, extra_p=0.2)
    n = g.node_count
    if family == "single-seed":
        seeds = [int(rng.integers(n))]
    elif family == "all-seeds":
        seeds = list(range(n))
    else:
        seeds = sorted(rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)),
                                  replace=False).tolist())
    weights = None
    if family == "tied-weights":
        weights = EdgeWeights(g, rng.choice([0.0, 0.0, 0.5, 1.0], size=g.edge_count))
    return g, X, seeds, weights


class TestSeedWitness:
    @given(st.integers(0, 100_000), st.sampled_from(PEEL_FAMILIES))
    @settings(max_examples=120)
    def test_peel_matches_full_search_per_pick(self, seed, family):
        rng = np.random.default_rng(seed)
        g, X, seeds, weights = _peel_case(rng, family)
        for variant in PEEL_VARIANTS:
            got = peel_community(g, X, seeds, variant=variant, rng_seed=seed,
                                 weights=weights)
            for reference in (reference_peel_community, reference_peel_kernel):
                want = reference(g, X, seeds, variant=variant, rng_seed=seed,
                                 weights=weights)
                assert got.nodes == want.nodes, variant
                assert got.edges_induced == want.edges_induced, variant
                assert got.tension == want.tension, variant

    @given(st.integers(0, 100_000))
    @settings(max_examples=80)
    def test_witness_is_a_connected_set_of_survivors_holding_every_seed(self, seed):
        rng = np.random.default_rng(seed)
        g, _ = random_graph_and_profiles(rng, 2, 20, connected=False, extra_p=0.15)
        n = g.node_count
        seeds = set(rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)),
                               replace=False).tolist())
        alive = (rng.random(n) < 0.7).tolist()
        for s in seeds:
            alive[s] = True
        survivors = [v for v in range(n) if alive[v]]
        witness = community._seeds_reachable(g, alive, min(seeds), seeds)
        # the seeds share a component of the survivors exactly when some
        # connected set of survivors holds them all
        adj = adjacency_lists(g)
        component = {min(seeds)}
        frontier = [min(seeds)]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if alive[v] and v not in component:
                    component.add(v)
                    frontier.append(v)
        if not seeds <= component:
            assert witness is None
            return
        assert witness is not None
        assert seeds <= witness <= set(survivors)
        assert oracle_is_connected(n, g.edges(), witness)

    def test_cut_off_seed_has_no_witness(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert community._seeds_reachable(g, [True, True, False, True], 0, {0, 3}) is None
        assert community._seeds_reachable(g, [True] * 4, 0, {0, 3}) == {0, 1, 2, 3}
        assert community._seeds_reachable(g, [True, False, False, False], 0, {0}) == {0}

    def test_alive_flags_may_be_an_array(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
        for alive in ([True, True, False, True, True], [True, False, True, True, False]):
            assert (community._seeds_reachable(g, np.array(alive), 0, {0, 3})
                    == community._seeds_reachable(g, alive, 0, {0, 3}))

    def test_most_picks_skip_the_search(self, monkeypatch):
        # every non-seed hangs off a seed, so nothing is ever pruned and each
        # of the 196 non-seeds is picked exactly once
        rng = np.random.default_rng(5)
        n, seeds = 200, [0, 1, 2, 3]
        edges = {(v % 4, v) for v in range(4, n)}
        for u in range(4, n):
            for v in range(u + 1, n):
                if rng.random() < 0.03:
                    edges.add((u, v))
        g = Graph(n, sorted(edges))
        X = rng.random((n, 2))
        searches = 0
        search = community._seeds_reachable

        def counted(*args):
            nonlocal searches
            searches += 1
            return search(*args)

        monkeypatch.setattr(community, "_seeds_reachable", counted)
        picks = n - len(seeds)
        for variant in PEEL_VARIANTS:
            searches = 0
            sol = peel_community(g, X, seeds, variant=variant, rng_seed=2)
            assert sol.nodes == reference_peel_community(
                g, X, seeds, variant=variant, rng_seed=2).nodes
            assert 1 <= searches < picks, variant


# -- properties over random instances -------------------------------------------

class TestSolverProperties:
    @given(st.integers(0, 100_000))
    @settings(max_examples=60)
    def test_feasibility_all_variants(self, seed):
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 2, 20)
        q = sorted(rng.choice(g.node_count,
                              size=int(rng.integers(1, min(4, g.node_count) + 1)),
                              replace=False).tolist())
        for tag in VARIANT_TAGS:
            sol = _solve(tag, g, X, q, seed=seed)
            assert set(q) <= sol.nodes
            assert oracle_is_connected(g.node_count, g.edges(), sol.nodes)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25)
    def test_tension_never_beats_brute_force_optimum(self, seed):
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 3, 9)
        q = sorted(rng.choice(g.node_count,
                              size=int(rng.integers(1, 3)),
                              replace=False).tolist())
        opt = oracle_min_tension(g.node_count, g.edges(), X, q)
        for tag in VARIANT_TAGS:
            sol = _solve(tag, g, X, q, seed=seed)
            assert sol.tension >= opt - 1e-9
            # and the reported tension matches the independent scorer
            recomputed = oracle_tension(g.node_count, g.edges(), X, sol.nodes)
            assert sol.tension == pytest.approx(recomputed, rel=1e-7, abs=1e-10)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30)
    def test_weight_blind_variants_ignore_profile_shuffles(self, seed):
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 3, 15)
        q = sorted(rng.choice(g.node_count,
                              size=int(rng.integers(1, 4)),
                              replace=False).tolist())
        perm = rng.permutation(g.node_count)
        Y = X[perm]
        base_tree = tree_community(g, X, q, variant="hops")
        base_peel = peel_community(g, X, q, variant="random", rng_seed=3)
        assert tree_community(g, Y, q, variant="hops").nodes == base_tree.nodes
        assert peel_community(g, Y, q, variant="random", rng_seed=3).nodes == base_peel.nodes

    @given(st.integers(0, 100_000))
    @settings(max_examples=30)
    def test_tree_connector_is_a_tree_when_expanded_paths_are_disjoint(self, seed):
        rng = np.random.default_rng(seed)
        g, _ = random_graph_and_profiles(rng, 2, 15)
        q = sorted(rng.choice(g.node_count,
                              size=int(rng.integers(1, min(4, g.node_count) + 1)),
                              replace=False).tolist())
        nodes, edges = seed_connector(g, q)
        assert set(q) <= nodes
        assert edges <= set(g.edges())
        # the connector spans the seeds
        assert oracle_is_connected(g.node_count, sorted(edges), nodes) or len(nodes) == 1
