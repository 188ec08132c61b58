"""Standardized measures, seed-set sampling, and profile generators."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence
from hypothesis import given, settings
from hypothesis import strategies as st

from tensionkit import (ConvergenceError, EdgeWeights, Graph, InfeasibleError, InputError,
                        evaluate_solution, generate_profiles, largest_component,
                        proxy_weights, sample_seed_groups, standardized_metrics,
                        tree_community)
from tensionkit import evaluation
from tensionkit.evaluation import (_exponential_raw, _top_left_singular_vectors,
                                   mean_squared_weight, seed_tree_edge_count)
from tensionkit.synthetic import block_incidence

from conftest import random_graph_and_profiles, reference_sample_seed_groups

SRC = Path(__file__).resolve().parents[1] / "src"


# -- mean squared weight ---------------------------------------------------------

class TestMeanSquaredWeight:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        w = EdgeWeights(g, [0.5])
        assert mean_squared_weight(g, w) == pytest.approx(0.25, abs=1e-15)

    def test_equal_weights_give_square(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        w = EdgeWeights(g, [0.3] * g.edge_count)
        assert mean_squared_weight(g, w) == pytest.approx(0.09, abs=1e-15)

    def test_induced_subset(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        w = EdgeWeights(g, [0.9, 0.1, 0.3])  # edges (0, 1), (1, 2), (2, 3)
        got = mean_squared_weight(g, w, nodes={1, 2, 3})
        assert got == pytest.approx((0.01 + 0.09) / 2, abs=1e-15)

    def test_no_edges_rejected(self):
        g = Graph(3, [(0, 1)])
        w = EdgeWeights(g, [0.5])
        with pytest.raises(InputError, match="no edges"):
            mean_squared_weight(g, w, nodes={2})


# -- standardized metrics ---------------------------------------------------------

class TestStandardizedMetrics:
    def test_seed_tree_edge_count_on_path(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert seed_tree_edge_count(g, [0, 2]) == 2

    def test_single_edge_graph_fixture(self):
        # x = (0.2, 0.8): tension is (4/9) * 0.6^2 and every ratio is exact
        g = Graph(2, [(0, 1)])
        X = np.array([[0.2], [0.8]])
        w = proxy_weights(g, X)
        sol = evaluate_solution(g, X, {0, 1})
        m = standardized_metrics(g, w, sol, [0, 1])
        assert m.tree_edges == 1
        assert m.tau == pytest.approx(2 / 9, rel=1e-7)  # tension is solved to tolerance
        assert m.mpe == pytest.approx(1.0, abs=1e-15)
        assert m.mpc == pytest.approx(1.0, abs=1e-15)
        assert not m.edgeless

    def test_exact_connector_has_unit_mpe(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        X = np.linspace(0.0, 1.0, 5)[:, None]
        w = proxy_weights(g, X)
        sol = tree_community(g, X, [0, 4], variant="hops")
        m = standardized_metrics(g, w, sol, [0, 4])
        assert m.tree_edges == 4
        assert m.mpe == pytest.approx(1.0, abs=1e-15)

    def test_zero_weight_induced_edges_give_zero_mpc(self):
        g = Graph(3, [(0, 1), (1, 2)])
        X = np.array([[0.5], [0.5], [0.9]])
        w = proxy_weights(g, X)
        sol = evaluate_solution(g, X, {0, 1})
        m = standardized_metrics(g, w, sol, [0, 1])
        assert m.mpc == 0.0
        assert not m.edgeless

    def test_single_node_solution_is_edgeless(self):
        g = Graph(3, [(0, 1), (1, 2)])
        X = np.array([[0.1], [0.5], [0.9]])
        w = proxy_weights(g, X)
        sol = evaluate_solution(g, X, {1})
        m = standardized_metrics(g, w, sol, [1])
        assert m.edgeless and m.mpc == 0.0
        assert m.tau == 0.0 and m.mpe == 1.0  # no seed tree, no tension

    def test_single_seed_with_spread_solution_is_flagged_infinite(self):
        g = Graph(3, [(0, 1), (1, 2)])
        X = np.array([[0.1], [0.5], [0.9]])
        w = proxy_weights(g, X)
        sol = evaluate_solution(g, X, {0, 1})
        m = standardized_metrics(g, w, sol, [1])
        assert m.tau == math.inf and m.mpe == math.inf

    def test_identical_profiles_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        X = np.full((3, 2), 0.4)
        w = proxy_weights(g, X)
        sol = evaluate_solution(g, X, {0, 1})
        with pytest.raises(InputError, match="degenerate profile distribution"):
            standardized_metrics(g, w, sol, [0, 1])

    @given(st.integers(0, 100_000))
    @settings(max_examples=30)
    def test_affine_profile_invariance(self, seed):
        # rescaling and shifting every profile leaves all three measures alone
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 4, 20, m_attrs=2)
        seeds = sorted(rng.choice(g.node_count, size=2, replace=False).tolist())
        sol = tree_community(g, X, seeds, variant="hops")
        a, b = 0.35, 0.2
        Xt = a * X + b
        m0 = standardized_metrics(g, proxy_weights(g, X), sol, seeds)
        m1 = standardized_metrics(
            g, proxy_weights(g, Xt),
            evaluate_solution(g, Xt, sol.nodes, algorithm_tag=sol.algorithm_tag), seeds)
        assert m1.tau == pytest.approx(m0.tau, rel=1e-6, abs=1e-9)
        assert m1.mpe == m0.mpe
        assert m1.mpc == pytest.approx(m0.mpc, rel=1e-9)


# -- seed-set sampling -------------------------------------------------------------

class TestSampleSeedGroups:
    def test_clique_degenerate_bands_still_fill(self):
        g = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        groups = sample_seed_groups(g, 2, n_candidates=50, per_group=5, rng_seed=0)
        assert tuple(gr.label for gr in groups) == ("D1", "D2", "D3")
        for gr in groups:
            assert len(gr.sets) == 5
            for s in gr.sets:
                assert len(s) == 2 and list(s) == sorted(s)
                assert all(0 <= v < 6 for v in s)

    def test_singleton_sets(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        groups = sample_seed_groups(g, 1, n_candidates=30, per_group=4, rng_seed=2)
        for gr in groups:
            assert len(gr.sets) == 4 and all(len(s) == 1 for s in gr.sets)

    def test_path_graph_d3_spreads_wider_than_d1(self):
        n = 40
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        d1, _, d3 = sample_seed_groups(g, 2, n_candidates=500,
                                       per_group=25, rng_seed=1)
        # on a path the hop distance between two nodes is their id gap
        spread = lambda s: abs(s[0] - s[1])
        assert len(d1.sets) == len(d3.sets) == 25
        assert max(map(spread, d1.sets)) < min(map(spread, d3.sets))

    def test_reproducible(self):
        g = Graph(12, [(i, i + 1) for i in range(11)] + [(0, 11)])
        a = sample_seed_groups(g, 3, n_candidates=60, per_group=6, rng_seed=7)
        b = sample_seed_groups(g, 3, n_candidates=60, per_group=6, rng_seed=7)
        assert a == b

    def test_restricted_to_largest_component(self):
        edges = [(i, i + 1) for i in range(9)] + [(10, 11)]
        g = Graph(12, edges)
        groups = sample_seed_groups(g, 3, n_candidates=40, per_group=4, rng_seed=3)
        for gr in groups:
            for s in gr.sets:
                assert all(v <= 9 for v in s)

    def test_set_size_exceeding_component_rejected(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        with pytest.raises(InfeasibleError, match="largest component"):
            sample_seed_groups(g, 4, n_candidates=10, per_group=2)

    def test_bad_parameters_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            sample_seed_groups(g, 0)
        with pytest.raises(InputError):
            sample_seed_groups(g, 2, n_candidates=0)

    @pytest.mark.parametrize("per_group", [-1, -3])
    def test_negative_per_group_rejected(self, per_group):
        g = Graph(6, [(i, i + 1) for i in range(5)])
        with pytest.raises(InputError, match="nonnegative"):
            sample_seed_groups(g, 2, n_candidates=50, per_group=per_group)

    def test_zero_per_group_gives_empty_groups(self):
        g = Graph(6, [(i, i + 1) for i in range(5)])
        groups = sample_seed_groups(g, 2, n_candidates=50, per_group=0)
        assert [gr.sets for gr in groups] == [(), (), ()]

    @given(st.integers(0, 100_000))
    @settings(max_examples=80)
    def test_matches_distance_matrix_reference(self, seed):
        rng = np.random.default_rng(seed)
        g, _ = random_graph_and_profiles(rng, 1, 40, connected=bool(seed % 3),
                                         extra_p=float(rng.choice([0.02, 0.1, 0.4])))
        comp = len(largest_component(g))
        args = (int(rng.integers(1, min(comp, 8) + 1)), int(rng.integers(1, 120)),
                int(rng.integers(0, 12)), seed)
        assert sample_seed_groups(g, *args) == reference_sample_seed_groups(g, *args)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the address space size from /proc/self/statm")
    def test_memory_stays_bounded_at_the_default_candidate_count(self):
        # 1000 candidates of 7 on a 20 000-node graph touch about 5 900
        # distinct nodes: a sources x nodes float matrix would be 0.94 GB,
        # nearly twice the headroom the child gets above its size after set-up
        script = textwrap.dedent("""
            import os, resource
            from tensionkit import sample_seed_groups
            from tensionkit.synthetic import gnm_graph
            g = gnm_graph(20_000, 100_000, rng_seed=1)
            size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            limit = size + (512 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            groups = sample_seed_groups(g, 7, n_candidates=1000, per_group=30, rng_seed=1)
            print(sum(len(gr.sets) for gr in groups))
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["90"]


# -- profile generators -------------------------------------------------------------

class TestGenerateProfiles:
    def test_uniform_shape_range_and_reproducibility(self):
        X = generate_profiles(50, 3, "uniform", rng_seed=5)
        assert X.shape == (50, 3)
        assert np.all((X >= 0.0) & (X < 1.0))
        assert np.array_equal(X, generate_profiles(50, 3, "uniform", rng_seed=5))
        assert not np.array_equal(X, generate_profiles(50, 3, "uniform", rng_seed=6))

    def test_thresholded_zero_fraction(self):
        X = generate_profiles(10, 2, "thresholded", rng_seed=1, alpha=0.6)
        zero_rows = int(np.sum(np.all(X == 0.0, axis=1)))
        assert zero_rows == 6
        X_all = generate_profiles(10, 2, "thresholded", rng_seed=1, alpha=1.0)
        assert np.all(X_all == 0.0)
        X_none = generate_profiles(10, 2, "thresholded", rng_seed=1, alpha=0.0)
        assert not np.any(np.all(X_none == 0.0, axis=1))

    def test_exponential_mean_and_clamp(self):
        draws = _exponential_raw(np.random.default_rng(3), 100_000, 1, 6.0)
        se = (1 / 6.0) / math.sqrt(draws.size)
        assert abs(float(draws.mean()) - 1 / 6.0) < 3 * se
        X = generate_profiles(100_000, 1, "exponential", rng_seed=3, lam=6.0)
        assert float(X.max()) <= 1.0 and float(X.min()) >= 0.0
        clamped = int(np.sum(X == 1.0))
        expect = 100_000 * math.exp(-6.0)
        assert abs(clamped - expect) < 3 * math.sqrt(expect) + 1

    def test_eigenvector_separates_unequal_blocks(self):
        labels = np.array([0, 0, 0, 1, 1])
        M, _ = block_incidence(labels, rng_seed=0, noise_per_node=0)
        X = generate_profiles(5, 2, "eigenvector", incidence=M)
        assert np.allclose(X[:, 0], [1, 1, 1, 0, 0], atol=1e-12)
        assert np.allclose(X[:, 1], [0, 0, 0, 1, 1], atol=1e-12)

    def test_eigenvector_columns_are_rescaled_singular_vectors(self):
        rng = np.random.default_rng(8)
        dense = rng.random((40, 25)) * (rng.random((40, 25)) < 0.3)
        M = sp.csr_matrix(dense)
        X = generate_profiles(40, 3, "eigenvector", incidence=M)
        U, _, _ = np.linalg.svd(dense, full_matrices=False)
        for j in range(3):
            r = np.corrcoef(X[:, j], U[:, j])[0, 1]
            assert abs(abs(r) - 1.0) < 1e-9

    def test_eigenvector_constant_vector_rescales_to_zero(self):
        M = sp.csr_matrix(np.ones((4, 1)))
        X = generate_profiles(4, 1, "eigenvector", incidence=M)
        assert np.all(X == 0.0)

    def test_error_paths(self):
        with pytest.raises(InputError):
            generate_profiles(0, 2, "uniform")
        with pytest.raises(InputError, match="unknown profile scheme"):
            generate_profiles(5, 2, "zipf")
        with pytest.raises(InputError, match="incidence"):
            generate_profiles(5, 2, "eigenvector")
        with pytest.raises(InputError, match="does not match"):
            generate_profiles(5, 2, "eigenvector",
                              incidence=sp.csr_matrix(np.ones((4, 3))))
        with pytest.raises(InputError, match="only supports"):
            generate_profiles(4, 2, "eigenvector",
                              incidence=sp.csr_matrix(np.ones((4, 1))))
        with pytest.raises(InputError, match="alpha"):
            generate_profiles(5, 2, "thresholded", alpha=1.5)
        with pytest.raises(InputError, match="rate"):
            generate_profiles(5, 2, "exponential", lam=0.0)


class TestSingularVectorHelpers:
    def test_sparse_branch_matches_dense_svd_on_equal_blocks(self):
        # four equal blocks of 500 nodes padded with empty columns to
        # 2 000 x 2 001, past the dense limit: the three near-equal block
        # singular values defeat a power iteration; the padding adds only
        # zero singular values, so the unpadded matrix is the reference
        M, _ = block_incidence(np.arange(2000) // 500, rng_seed=0)
        f = M.shape[1]
        padded = sp.hstack([M, sp.csr_matrix((2000, 2001 - f))]).tocsr()
        U, S = _top_left_singular_vectors(padded, 4)
        S_d = np.linalg.svd(M.toarray(), compute_uv=False)
        assert np.allclose(S, S_d[:4], rtol=1e-12, atol=0)
        for j in range(4):
            u = U[:, j]
            assert np.linalg.norm(padded @ (padded.T @ u) - S[j] ** 2 * u) < 1e-12 * S[j] ** 2
        X = generate_profiles(2000, 4, "eigenvector", incidence=padded)
        assert X.shape == (2000, 4) and X.min() == 0.0 and X.max() == 1.0

    def test_as_many_columns_as_the_short_side_solve_densely(self):
        # svds needs k below min(n, f): a 4 000 001 x 1 incidence past the
        # dense limit, asked for its one column, takes the dense branch
        M = sp.csr_matrix(([3.0, 4.0], ([0, 4_000_000], [0, 0])), shape=(4_000_001, 1))
        U, S = _top_left_singular_vectors(M, 1)
        assert S.tolist() == [5.0]
        assert np.allclose(U[[0, 4_000_000], 0], [0.6, 0.8], rtol=0, atol=1e-15)
        assert np.count_nonzero(U) == 2

    def test_sign_convention_is_deterministic(self):
        M = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        U, S = _top_left_singular_vectors(M, 2)
        assert np.allclose(S, [2.0, 1.0], atol=1e-12)
        # the dominant entry of each vector comes out nonnegative
        assert U[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert U[1, 1] == pytest.approx(1.0, abs=1e-12)


class TestSingularVectorFailures:
    """A decomposition that fails to converge, or whose vectors fail the
    residual check, raises ConvergenceError in both branches."""

    def test_dense_residual_failure(self, monkeypatch):
        real_svd = np.linalg.svd

        def perturbed(a, full_matrices=True):
            U, S, Vt = real_svd(a, full_matrices=full_matrices)
            return U + 1e-3, S, Vt

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        with pytest.raises(ConvergenceError, match="residual check") as exc:
            _top_left_singular_vectors(sp.csr_matrix(np.arange(12.0).reshape(4, 3)), 1)
        assert exc.value.residual >= 1e-6

    def test_small_singular_value_passes_the_check(self):
        # sigma_2 / sigma_1 is about 1e-10: the correct second vector's
        # residual is tiny next to sigma_1^2 but not next to its own sigma_2^2
        M = np.array([[0.0, 1e-3, 0.0], [2.0, 4e3, 1e-3]])
        U, S = _top_left_singular_vectors(M, 2)
        want_U, want_S, _ = np.linalg.svd(M, full_matrices=False)
        assert S[1] / S[0] < 1e-9
        np.testing.assert_array_equal(S, want_S)
        np.testing.assert_array_equal(np.abs(U), np.abs(want_U))

    @pytest.mark.parametrize("failure", ["no-convergence", "perturbed"])
    def test_sparse_branch(self, monkeypatch, failure):
        # 2500 x 2000 is above the dense branch's 4 000 000 entries
        M = sp.random(2500, 2000, density=1e-3, format="csr", random_state=0)
        real_svds = evaluation.svds

        def fake(A, k, v0):
            if failure == "no-convergence":
                raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                          np.empty(0), np.empty((0, 0)))
            U, S, Vt = real_svds(A, k, v0=v0)
            return U + 1e-3, S, Vt

        monkeypatch.setattr(evaluation, "svds", fake)
        with pytest.raises(ConvergenceError, match="No convergence|residual check"):
            _top_left_singular_vectors(M, 2)
