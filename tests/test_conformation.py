"""Conformation process, equilibrium oracle, and tension accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensionkit import (ConvergenceError, Graph, InputError, conform,
                        equilibrium_solve, node_tension, social_tension)
from tensionkit.conformation import (DENSE_LIMIT, default_max_iter,
                                     equilibrium_tensions)

from conftest import oracle_tension, random_graph_and_profiles


def _rand_instance(seed, n_hi=60, m=1):
    rng = np.random.default_rng(seed)
    return random_graph_and_profiles(rng, 2, n_hi, m_attrs=m, connected=False)


# -- frozen fixtures ----------------------------------------------------------

class TestConformFixtures:
    def test_isolated_node_fixes_immediately(self):
        g = Graph(1, [])
        res = conform(g, np.array([[0.7]]))
        assert res.conformed[0, 0] == 0.7
        assert res.iterations == 1

    def test_constant_profiles_are_a_fixed_point(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        res = conform(g, np.full((4, 2), 0.35))
        assert np.allclose(res.conformed, 0.35, atol=1e-12)

    def test_single_edge_analytic_values(self):
        g = Graph(2, [(0, 1)])
        X = np.array([[0.0], [1.0]])
        res = conform(g, X, tol=1e-10)
        assert np.allclose(res.conformed[:, 0], [1 / 3, 2 / 3], atol=1e-9)

    def test_edgeless_graph_returns_input(self):
        g = Graph(3, [])
        X = np.array([[0.1], [0.5], [0.9]])
        res = conform(g, X)
        assert np.array_equal(res.conformed, X)

    def test_residual_reported_below_tolerance(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        X = np.random.default_rng(3).random((5, 2))
        res = conform(g, X, tol=1e-9)
        assert res.residual <= 1e-9


class TestEquilibriumSolveFixtures:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        F = equilibrium_solve(g, np.array([[0.0], [1.0]]))
        assert np.allclose(F[:, 0], [1 / 3, 2 / 3], atol=1e-12)

    def test_triangle_solved_values_have_zero_residual(self):
        # one corner at 1, the symmetric pair settles at 1/4 and the
        # distinguished corner at 1/2 (verified by the residual check)
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        X = np.array([[0.0], [0.0], [1.0]])
        F = equilibrium_solve(g, X)
        assert np.allclose(F[:, 0], [0.25, 0.25, 0.5], atol=1e-12)
        L = np.diag(g.degrees()) - g.adjacency_csr().toarray()
        assert np.abs(F + L @ F - X).max() < 1e-12  # (I + L) F = X

    def test_edgeless_graph_identity(self):
        g = Graph(3, [])
        X = np.array([[0.2], [0.4], [0.9]])
        assert np.allclose(equilibrium_solve(g, X), X, atol=1e-15)


class TestTensionFixtures:
    def test_node_tension_with_unconformed_profiles(self):
        g = Graph(3, [(0, 1), (0, 2)])
        X = np.array([[0.2], [0.5], [0.9]])
        t = node_tension(g, X, X, 0)
        assert t == pytest.approx((0.2 - 0.5) ** 2 + (0.2 - 0.9) ** 2, abs=1e-15)

    def test_node_tension_isolated(self):
        g = Graph(2, [])
        X = np.array([[0.3], [0.6]])
        F = np.array([[0.8], [0.6]])
        assert node_tension(g, X, F, 0) == pytest.approx(0.25, abs=1e-15)

    def test_node_tension_single_edge_equilibrium(self):
        g = Graph(2, [(0, 1)])
        X = np.array([[0.0], [1.0]])
        F = np.array([[1 / 3], [2 / 3]])
        assert node_tension(g, X, F, 0) == pytest.approx(2 / 9, abs=1e-12)

    def test_node_tension_invalid_id(self):
        g = Graph(2, [(0, 1)])
        X = np.zeros((2, 1))
        with pytest.raises(InputError):
            node_tension(g, X, X, 5)

    def test_social_tension_single_edge_equilibrium(self):
        g = Graph(2, [(0, 1)])
        X = np.array([[0.0], [1.0]])
        F = equilibrium_solve(g, X)
        assert social_tension(g, X, F) == pytest.approx(4 / 9, abs=1e-12)

    def test_social_tension_edgeless_equilibrium_is_zero(self):
        g = Graph(3, [])
        X = np.array([[0.1], [0.2], [0.3]])
        assert social_tension(g, X, equilibrium_solve(g, X)) == 0.0

    def test_social_tension_equal_profiles_zero(self):
        g = Graph(3, [(0, 1), (1, 2)])
        X = np.full((3, 1), 0.4)
        assert social_tension(g, X, equilibrium_solve(g, X)) == pytest.approx(0.0, abs=1e-15)


# -- validation ---------------------------------------------------------------

class TestValidation:
    def test_zero_attribute_profiles_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError):
            conform(g, np.empty((2, 0)))

    def test_row_count_mismatch_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InputError):
            conform(g, np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_profiles_rejected_before_iterating(self, bad):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        X = np.array([[0.1], [bad], [0.7], [0.4]])
        with pytest.raises(InputError, match="NaN or infinite"):
            conform(g, X)
        with pytest.raises(InputError, match="NaN or infinite"):
            equilibrium_solve(g, X)

    def test_non_finite_conformed_rejected(self):
        g = Graph(2, [(0, 1)])
        X = np.array([[0.0], [1.0]])
        with pytest.raises(InputError, match="NaN or infinite"):
            social_tension(g, X, np.array([[0.5], [np.nan]]))

    def test_conformed_shape_must_match_latent(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="does not match the latent"):
            social_tension(g, np.zeros((2, 2)), np.zeros((2, 1)))

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="tol must be positive and finite"):
            conform(g, np.zeros((2, 1)), tol=tol)

    def test_nonpositive_tol_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError):
            conform(g, np.zeros((2, 1)), tol=0.0)

    def test_single_node_allowed(self):
        g = Graph(1, [])
        res = conform(g, np.array([[0.5]]))
        assert res.conformed[0, 0] == 0.5

    def test_one_dimensional_input_accepted(self):
        g = Graph(2, [(0, 1)])
        res = conform(g, np.array([0.0, 1.0]), tol=1e-10)
        assert np.allclose(res.conformed[:, 0], [1 / 3, 2 / 3], atol=1e-9)

    @pytest.mark.parametrize("max_iter", [0, -4])
    def test_budget_below_one_iteration_rejected(self, max_iter):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match=f"max_iter must be at least 1, not {max_iter}"):
            conform(g, np.array([0.0, 1.0]), max_iter=max_iter)

    def test_default_max_iter_floor(self):
        assert default_max_iter(1) == 10_000
        assert default_max_iter(500) == 50_000


class TestNonConvergence:
    def test_error_carries_last_iterate(self):
        g = Graph(30, [(i, i + 1) for i in range(29)])
        X = np.random.default_rng(0).random((30, 1))
        with pytest.raises(ConvergenceError) as exc:
            conform(g, X, tol=1e-12, max_iter=2)
        err = exc.value
        assert err.iterations == 2
        assert err.profiles is not None and err.profiles.shape == (30, 1)
        assert err.residual > 0


# -- properties ---------------------------------------------------------------

class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_oracle_equivalence_within_ten_tolerances(self, seed):
        g, X = _rand_instance(seed, n_hi=200, m=2)
        tol = 1e-9
        res = conform(g, X, tol=tol)
        F = equilibrium_solve(g, X)
        assert np.max(np.abs(res.conformed - F)) < 10 * tol

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_fixed_point_residual_below_tolerance(self, seed):
        g, X = _rand_instance(seed)
        res = conform(g, X, tol=1e-9)
        assert np.abs(res.conformed - equilibrium_solve(g, X)).max() <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_stationarity_at_equilibrium(self, seed):
        g, X = _rand_instance(seed, m=2)
        F = conform(g, X, tol=1e-11).conformed
        eps = 1e-4
        for i in range(g.node_count):
            nbrs = g.indices[g.indptr[i]:g.indptr[i + 1]]
            grad = 2 * (F[i] - X[i]) + 2 * sum((F[i] - F[j]) for j in nbrs)
            assert np.max(np.abs(grad)) < 1e-6
            base = node_tension(g, X, F, i)
            for delta in (eps, -eps):
                Fp = F.copy()
                Fp[i] += delta
                assert node_tension(g, X, Fp, i) >= base - 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_conformed_values_stay_in_column_hull(self, seed):
        g, X = _rand_instance(seed, m=3)
        F = conform(g, X).conformed
        lo, hi = X.min(axis=0), X.max(axis=0)
        assert np.all(F >= lo - 1e-12) and np.all(F <= hi + 1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_tension_additive_over_attribute_columns(self, seed):
        g, X = _rand_instance(seed, m=4)
        F = equilibrium_solve(g, X)
        whole = social_tension(g, X, F)
        parts = sum(social_tension(g, X[:, [a]], F[:, [a]]) for a in range(4))
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_both_tension_forms_agree(self, seed):
        g, X = _rand_instance(seed, m=2)
        F = equilibrium_solve(g, X)
        node_form = sum(node_tension(g, X, F, i) for i in range(g.node_count))
        edge_form = social_tension(g, X, F)
        assert edge_form == pytest.approx(node_form, rel=1e-12, abs=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_matches_independent_dense_oracle(self, seed):
        g, X = _rand_instance(seed, n_hi=40, m=2)
        F = equilibrium_solve(g, X)
        t = social_tension(g, X, F)
        assert t == pytest.approx(oracle_tension(g.node_count, g.edges(), X),
                                  rel=1e-9, abs=1e-12)


# -- the exact solver ----------------------------------------------------------

class TestExactSolver:
    """``equilibrium_solve`` and ``equilibrium_tensions`` against a dense
    solve done here, on both sides of ``DENSE_LIMIT``."""

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=30)
    def test_closed_form_tension(self, seed, large):
        # at the equilibrium (I + L) F = X, so L F = X - F and the tension
        # ||X - F||^2 + 2 F.(L F) equals ||X||^2 - ||F||^2
        rng = np.random.default_rng(seed)
        lo, hi = (DENSE_LIMIT + 1, 2 * DENSE_LIMIT) if large else (2, DENSE_LIMIT)
        g, X = random_graph_and_profiles(rng, lo, hi, m_attrs=int(rng.integers(1, 5)),
                                         extra_p=0.01)
        n = g.node_count
        ea = np.array(g.edges()).reshape(-1, 2)
        A = np.zeros((n, n))
        A[ea[:, 0], ea[:, 1]] = A[ea[:, 1], ea[:, 0]] = 1.0
        F_star = np.linalg.solve(np.eye(n) + np.diag(A.sum(axis=1)) - A, X)
        closed = float((X ** 2).sum() - (F_star ** 2).sum())
        tol = 1e-9
        assert np.abs(equilibrium_solve(g, X) - F_star).max() <= tol
        tension, edges = equilibrium_tensions(g, X, [range(n)], tol=tol)
        assert edges.tolist() == [g.edge_count]
        # rounding of the closed form, plus (above the limit) the first-order
        # change of the tension, gradient 2 L F* = 2 (X - F*), within tol
        slack = 1e-12 * float((X ** 2).sum())
        if large:
            slack += 2 * tol * float(np.abs(X - F_star).sum())
        assert abs(tension[0] - closed) <= slack

    def test_equal_profiles_conform_exactly(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        X = np.full((5, 2), 0.3)
        assert np.array_equal(equilibrium_solve(g, X), X)
        tension, _ = equilibrium_tensions(g, X, [[0, 1, 2], [1, 2, 3], [0, 3, 4]])
        assert tension.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("sets", [[[0, 0]], [[1, 0]], [[0, 4]], [[-1, 0]], [0, 1], [[]],
                                      [[0, 1.5]], [[0, np.nan]], [[0, 1], [2]]])
    def test_malformed_sets_rejected(self, sets):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InputError, match="ascending distinct ids"):
            equilibrium_tensions(g, np.zeros((4, 1)), sets)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_bad_tol_rejected(self, tol):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError, match="tol must be positive and finite"):
            equilibrium_tensions(g, np.zeros((2, 1)), [[0, 1]], tol=tol)
