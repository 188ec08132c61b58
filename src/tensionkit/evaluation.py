"""Standardized measures, seed-set sampling, and latent profile generators.

The three solution measures are normalized against the working graph so
they compare across datasets and seed sets:

* ``tau``: tension divided by ``2 * tree_edges * avgC(V)``, where
  ``tree_edges`` counts the edges of the hop-metric spanning tree
  connecting the seeds and ``avgC`` is the mean squared edge weight.
* ``mpe``: induced edge count over ``tree_edges``.
* ``mpc``: mean squared edge weight inside the solution over ``avgC(V)``.

Seed-set sampling buckets uniformly drawn candidate sets into three groups
(D1/D2/D3) by the 10-33, 33-66 and 66-90 percentile bands of their maximum
pairwise hop distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, svds

from .community import Solution, seed_connector
from .errors import ConvergenceError, InfeasibleError, InputError
from .graph import EdgeWeights, Graph, largest_component, pair_hop_distances

PROFILE_SCHEMES = ("uniform", "exponential", "thresholded", "eigenvector")


@dataclass(frozen=True)
class Metrics:
    """Normalized measures of one solution (see module docstring).

    ``edgeless`` flags a solution without induced edges, whose ``mpc`` is
    reported as 0 rather than left undefined.
    """

    tau: float
    mpe: float
    mpc: float
    raw_tension: float
    tree_edges: int
    edgeless: bool = False


@dataclass(frozen=True)
class SeedGroup:
    label: str
    sets: tuple[tuple[int, ...], ...]


def mean_squared_weight(g: Graph, weights: EdgeWeights,
                        nodes: Iterable[int] | None = None) -> float:
    """Average squared edge weight, over the whole graph or over the edges
    induced by ``nodes``.  Raises :class:`InputError` when no edges apply."""
    vals = weights.values
    if nodes is not None:
        vals = vals[g.edges_within(nodes)]
    if not len(vals):
        raise InputError("no edges to average over")
    return float(np.mean(vals ** 2))


def seed_tree_edge_count(g: Graph, seeds) -> int:
    """Edge count of the hop-metric spanning tree connecting the seeds."""
    _, edges = seed_connector(g, seeds, weights=None)
    return len(edges)


def standardized_metrics(g: Graph, weights: EdgeWeights, solution: Solution,
                         seeds) -> Metrics:
    """Score one solution against its working graph and seed set."""
    base = mean_squared_weight(g, weights)
    if base == 0.0:
        raise InputError("degenerate profile distribution: every edge weight is zero")
    tree_edges = seed_tree_edge_count(g, seeds)
    if solution.edges_induced:
        mpc = mean_squared_weight(g, weights, solution.nodes) / base
        edgeless = False
    else:
        mpc = 0.0
        edgeless = True
    if tree_edges:
        tau = solution.tension / (2.0 * tree_edges * base)
        mpe = solution.edges_induced / tree_edges
    else:
        # single-seed degenerate case: the seed tree has no edges
        tau = 0.0 if solution.tension == 0.0 else math.inf
        mpe = 1.0 if solution.edges_induced == 0 else math.inf
    return Metrics(tau=tau, mpe=mpe, mpc=mpc, raw_tension=solution.tension,
                   tree_edges=tree_edges, edgeless=edgeless)


# -- seed-set sampling -------------------------------------------------------

def sample_seed_groups(g: Graph, set_size: int, n_candidates: int = 1000,
                       per_group: int = 30, rng_seed: int = 0
                       ) -> tuple[SeedGroup, SeedGroup, SeedGroup]:
    """Sample candidate seed sets and bucket them by dispersion.

    Candidates are uniform ``set_size``-subsets of the largest component.
    Their maximum pairwise hop distances define the 10-33 / 33-66 / 66-90
    percentile bands; the first ``per_group`` candidates falling in each
    band become groups D1, D2 and D3.  The spreads come from
    :func:`~tensionkit.graph.pair_hop_distances` on each candidate's member
    pairs ``i < j``: a bit-parallel BFS from the members whose arrays stay
    within ``graph.PAIR_ELEMENTS`` words (32 MB) at any candidate count.
    Each level pushes from a small frontier and pulls over every CSR row
    once the frontier covers much of the graph, and pairs deeper than 64
    levels finish with one BFS per source (see the ``graph`` design notes).
    """
    if set_size < 1:
        raise InputError("seed set size must be at least 1")
    if n_candidates < 1:
        raise InputError("need at least one candidate seed set")
    if per_group < 0:
        raise InputError(f"sets per group must be nonnegative, not {per_group}")
    comp = largest_component(g)
    if set_size > len(comp):
        raise InfeasibleError(
            f"seed set size {set_size} exceeds the largest component ({len(comp)} nodes)")
    rng = np.random.default_rng(rng_seed)
    comp_arr = np.array(comp, dtype=np.int64)
    candidates = [tuple(sorted(comp_arr[rng.choice(len(comp_arr), size=set_size,
                                                   replace=False)].tolist()))
                  for _ in range(n_candidates)]
    cand = np.array(candidates, dtype=np.int64)
    i, j = np.triu_indices(set_size, 1)
    spreads = np.zeros(n_candidates)
    if len(i):  # a singleton set spreads 0
        spreads = pair_hop_distances(g, cand[:, i], cand[:, j]).reshape(
            n_candidates, -1).max(axis=1)
    p10, p33, p66, p90 = np.percentile(spreads, [10, 33, 66, 90])
    bounds = [("D1", p10, p33), ("D2", p33, p66), ("D3", p66, p90)]
    groups = []
    for label, lo, hi in bounds:
        picked = [cand for cand, s in zip(candidates, spreads) if lo <= s <= hi]
        groups.append(SeedGroup(label, tuple(picked[:per_group])))
    return tuple(groups)


# -- profile generators ------------------------------------------------------

def _exponential_raw(rng: np.random.Generator, n: int, m: int, lam: float) -> np.ndarray:
    if lam <= 0:
        raise InputError("exponential rate must be positive")
    return rng.exponential(scale=1.0 / lam, size=(n, m))


def _top_left_singular_vectors(M, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k left singular vectors (columns) and singular values of M."""
    n, f = M.shape
    if k > min(n, f):
        raise InputError(
            f"requested {k} attribute columns but the incidence matrix only supports {min(n, f)}")
    if not np.isfinite(M.data if sp.issparse(M) else M).all():  # LAPACK can hang on inf
        raise InputError("incidence entries must be finite (summed counts included)")
    # svds needs k < min(n, f); at k == min(n, f) the dense matrix holds
    # only k * max(n, f) entries
    try:
        if n * f <= 4_000_000 or k == min(n, f):
            dense = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=np.float64)
            U, S, _ = np.linalg.svd(dense, full_matrices=False)
            U, S = U[:, :k], S[:k]
        else:
            U, S, _ = svds(M, k, v0=np.random.default_rng(0x5EED).standard_normal(min(n, f)))
            order = np.argsort(-S, kind="stable")
            U, S = U[:, order], S[order]
    except (np.linalg.LinAlgError, ArpackNoConvergence) as e:
        raise ConvergenceError(f"singular vectors: {e}", None, math.nan, 0) from None
    # deterministic sign: the largest-magnitude entry of each vector is nonnegative
    U *= np.where(U[np.abs(U).argmax(axis=0), range(k)] < 0, -1.0, 1.0)
    # verify the eigen-residual of M M^T on each returned vector, with M
    # and S over the top singular value so that no product overflows; the
    # residual is a backward error relative to sigma_1^2 (1 after the
    # scaling), since a correct vector's error scales with sigma_1^2, not
    # with its own sigma_j^2
    top = S.max(initial=0.0) or 1.0
    M = M / top
    for j in range(k):
        sigma2 = (S[j] / top) ** 2
        if sigma2 <= 0:
            continue
        u = U[:, j]
        resid = np.linalg.norm(M @ (M.T @ u) - sigma2 * u)
        if not resid < 1e-6:  # NaN fails too
            raise ConvergenceError(f"singular vector {j} failed the residual check "
                                   f"({resid:.2e})", U, resid, 0)
    return U, S


def generate_profiles(n: int, m: int, scheme: str, rng_seed: int = 0,
                      lam: float = 6.0, alpha: float = 0.6,
                      incidence=None) -> np.ndarray:
    """Generate an (n, m) latent profile matrix with entries in [0, 1].

    Schemes: ``uniform`` draws; ``exponential`` draws with rate ``lam``
    clamped to 1; ``thresholded`` zeroes the profiles of a fraction
    ``alpha`` of the nodes and draws the rest uniformly; ``eigenvector``
    rescales the top-``m`` left singular vectors of a node-by-feature
    ``incidence`` matrix into the unit interval.
    """
    if n < 1 or m < 1:
        raise InputError("profile generation needs n >= 1 and m >= 1")
    if scheme not in PROFILE_SCHEMES:
        raise InputError(f"unknown profile scheme {scheme!r} (expected one of {PROFILE_SCHEMES})")
    rng = np.random.default_rng(rng_seed)
    if scheme == "uniform":
        return rng.random((n, m))
    if scheme == "exponential":
        return np.minimum(_exponential_raw(rng, n, m, lam), 1.0)
    if scheme == "thresholded":
        if not 0.0 <= alpha <= 1.0:
            raise InputError("thresholded fraction alpha must lie in [0, 1]")
        X = rng.random((n, m))
        zeroed = rng.choice(n, size=round(alpha * n), replace=False)
        X[zeroed] = 0.0
        return X
    if incidence is None:
        raise InputError("eigenvector scheme needs an incidence matrix")
    if incidence.shape[0] != n:
        raise InputError("incidence matrix row count does not match n")
    U, _ = _top_left_singular_vectors(incidence, m)
    lo, span = U.min(axis=0), np.ptp(U, axis=0)
    return np.where(span > 0, (U - lo) / np.where(span > 0, span, 1.0), 0.0)
