"""Profile conformation: repeated neighborhood averaging and its fixed point.

Every node repeatedly replaces its expressed profile with the average of its
own latent profile and its neighbors' current expressed profiles.  The
process contracts in max-norm with per-step factor ``deg/(1+deg)``, so it
converges to the unique solution of ``(I + L) F = X``, ``L = D - A``,
column by column (``D`` the degree diagonal, ``A`` the adjacency matrix).
``conform`` runs that process, as the paper describes it.

Answers are scored at the fixed point itself by ``equilibrium_tensions``,
over a batch of node sets.  A set of up to ``DENSE_LIMIT`` nodes finds its
induced edges by binary search of its node pairs among the graph's sorted
edges (``graph._find_edges``), and each chunk of at most ``BATCH_ELEMENTS``
entries of ``(B, k, k)`` is one stacked dense solve.  A larger set runs
conjugate gradients on the sparse ``I + L`` until ``||X - (I+L)F||_2 <=
tol`` in each column; ``(I + L)^-1`` is non-negative with unit row sums, so
then ``||F - F*||_inf <= tol``.  ``DENSE_LIMIT`` is the measured crossover:
for one connected set with 4 columns and mean degree 4 on a shared 2-core
x86-64, dense against conjugate gradients took 3.1 vs 4.7 ms at k = 200,
4.7 vs 4.6 ms at k = 250, 6.5 vs 5.1 ms at k = 300 and 56 vs 8.8 ms at
k = 800 (medians of 21 calls).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .errors import ConvergenceError, InfeasibleError, InputError
from .graph import Graph, _edges_among, _find_edges, _integer_ids

DENSE_LIMIT = 250  # largest set solved densely (see the module docstring)
BATCH_ELEMENTS = 1 << 18  # cap on B * k * k in one stacked dense solve


@dataclass(frozen=True)
class ConformationResult:
    """Converged expressed profiles plus iteration diagnostics."""

    conformed: np.ndarray
    iterations: int
    residual: float


def profile_matrix(g: Graph, values, like: np.ndarray | None = None) -> np.ndarray:
    """``values`` as a float64 (nodes x attributes) matrix; a vector is one
    attribute column.

    Raises :class:`InputError` unless there is one row per node of ``g``, at
    least one column, every entry is finite, and (given ``like``) the shape
    is that of ``like``.
    """
    X = np.asarray(values, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] != g.node_count:
        raise InputError(
            f"profile matrix shape {X.shape} does not match {g.node_count} nodes")
    if X.shape[1] == 0:
        raise InputError("profile matrix must have at least one attribute column")
    if like is not None and X.shape != like.shape:
        raise InputError("conformed matrix shape does not match the latent matrix")
    if not np.isfinite(X).all():
        raise InputError("profile matrix holds a NaN or infinite value")
    return X


def _check_tol(tol: float) -> None:
    if not (tol > 0 and np.isfinite(tol)):
        raise InputError("tol must be positive and finite")


def default_max_iter(n: int) -> int:
    return max(100 * n, 10_000)


def conform(g: Graph, latent, tol: float = 1e-9,
            max_iter: int | None = None) -> ConformationResult:
    """Iterate synchronous neighborhood averaging to its fixed point.

    Stops once the max-norm step falls below ``tol / (1 + max_degree)``,
    which bounds the max-norm distance of the returned profiles to the true
    equilibrium by ``tol`` (the contraction factor is ``deg/(1+deg)``).
    Raises :class:`ConvergenceError` carrying the last iterate when the
    iteration budget runs out first, and :class:`InputError` for a budget
    below one iteration.
    """
    X = profile_matrix(g, latent)
    _check_tol(tol)
    if max_iter is None:
        max_iter = default_max_iter(g.node_count)
    elif max_iter < 1:
        raise InputError(f"max_iter must be at least 1, not {max_iter}")
    deg = g.degrees().astype(np.float64)
    denom = (1.0 + deg)[:, None]
    stop_tol = tol / (1.0 + deg.max()) if g.node_count else tol
    A = g.adjacency_csr()
    F = X.copy()
    step = 0.0
    for it in range(1, max_iter + 1):
        F_new = (X + A @ F) / denom
        step = float(np.abs(F_new - F).max())
        F = F_new
        if step < stop_tol:
            return ConformationResult(F, it, step)
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (last step {step:.3e})",
        profiles=F, residual=step, iterations=max_iter)


def _induced_edges(g: Graph, sets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Edges induced by each row of ``sets`` as ``(b, i, j)``: row ``b``
    holds an edge between its ``i``-th and ``j``-th nodes, ``i < j``."""
    k = sets.shape[1]
    if k > DENSE_LIMIT:  # a chunk of one set
        e = np.searchsorted(sets[0], _edges_among(g, sets[0]))
        return np.zeros(len(e), np.int64), e[:, 0], e[:, 1]
    i, j = np.triu_indices(k, 1)
    b, p = np.nonzero(_find_edges(g, sets[:, i], sets[:, j])[1])
    return b, i[p], j[p]


def _solve(Xs: np.ndarray, b, i, j, tol: float) -> np.ndarray:
    """Equilibria (B, k, m) of the subgraphs with induced edges ``(b, i, j)``
    and latent blocks ``Xs``; above ``DENSE_LIMIT``, B is 1."""
    B, k, _ = Xs.shape
    # I + L fixes constant columns, so solve for the offsets from the first
    # node: equal profiles then conform exactly and tie exactly
    shift = Xs[:, :1]
    Xs = Xs - shift
    if k <= DENSE_LIMIT:
        M = np.zeros((B, k, k))
        M[b, i, j] = M[b, j, i] = -1.0
        M[:, range(k), range(k)] = 1.0 - M.sum(axis=2)
        return shift + np.linalg.solve(M, Xs)
    A = sp.csr_matrix((np.ones(2 * len(i)), (np.r_[i, j], np.r_[j, i])), shape=(k, k))
    M = (sp.diags(1.0 + A.sum(axis=1).A1) - A).tocsr()
    F = np.column_stack([spla.cg(M, x, atol=tol, rtol=0.0, maxiter=10 * k)[0]
                         for x in Xs[0].T])
    # the true residual: the recursive one that cg stops on can drift
    residual = float(np.linalg.norm(Xs[0] - M @ F, axis=0).max())
    if not residual <= tol:
        raise ConvergenceError(
            f"conjugate gradients left residual {residual:.3e} above {tol:.3e} "
            f"(budget {10 * k} iterations)", profiles=shift[0] + F, residual=residual,
            iterations=10 * k)
    return shift + F[None]


def equilibrium_tensions(g: Graph, latent, sets, tol: float = 1e-9
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Tension at equilibrium and induced edge count of the subgraph each
    row of ``sets`` (ascending distinct node ids) induces.

    Raises :class:`InfeasibleError` when a subgraph is disconnected, and
    :class:`ConvergenceError` when a set above ``DENSE_LIMIT`` misses ``tol``.
    """
    X = profile_matrix(g, latent)
    _check_tol(tol)
    try:
        sets = _integer_ids(sets, "node", g.node_count, ndim=2)
    except InputError:  # worded below, as every malformed batch
        sets = None
    if sets is None or not sets.size or (np.diff(sets) <= 0).any():
        raise InputError("node sets must be rows of ascending distinct ids in the graph")
    B, k = sets.shape
    tension, edges = np.empty(B), np.empty(B, np.int64)
    per_chunk = 1 if k > DENSE_LIMIT else max(1, BATCH_ELEMENTS // (k * k))
    for lo in range(0, B, per_chunk):
        chunk = sets[lo:lo + per_chunk]
        c = len(chunk)
        b, i, j = _induced_edges(g, chunk)
        adj = sp.csr_matrix((np.ones(len(b)), (b * k + i, b * k + j)), shape=(c * k, c * k))
        if csgraph.connected_components(adj, directed=False)[0] > c:
            raise InfeasibleError("disconnected node set cannot be scored as a community")
        Xs = X[chunk]
        F = _solve(Xs, b, i, j, tol)
        # edge form, as social_tension: internal gaps plus both edge ends
        social = np.bincount(b, ((F[b, i] - F[b, j]) ** 2).sum(axis=1), minlength=c)
        tension[lo:lo + c] = ((Xs - F) ** 2).sum(axis=(1, 2)) + 2.0 * social
        edges[lo:lo + c] = np.bincount(b, minlength=c)
    return tension, edges


def equilibrium_solve(g: Graph, latent) -> np.ndarray:
    """Equilibrium profiles of the whole graph by the solver of
    :func:`equilibrium_tensions`: exact up to ``DENSE_LIMIT`` nodes, within
    1e-9 in max-norm above."""
    X = profile_matrix(g, latent)
    ea = g.edge_array()
    return _solve(X[None], np.zeros(len(ea), np.int64), ea[:, 0], ea[:, 1], 1e-9)[0]


def node_tension(g: Graph, latent, conformed, i: int) -> float:
    """Tension felt by node ``i``: squared internal gap to its own latent
    profile plus squared disagreement with each neighbor, over all
    attributes."""
    X = profile_matrix(g, latent)
    F = profile_matrix(g, conformed, like=X)
    i = int(_integer_ids(i, "node", g.node_count, ndim=0))
    internal = float(np.sum((X[i] - F[i]) ** 2))
    social = 0.0
    for j in g.indices[g.indptr[i]:g.indptr[i + 1]].tolist():
        social += float(np.sum((F[i] - F[j]) ** 2))
    return internal + social


def social_tension(g: Graph, latent, conformed) -> float:
    """Total tension: sum of squared internal gaps plus twice the sum of
    squared disagreements over the edges (each edge is felt at both ends)."""
    X = profile_matrix(g, latent)
    F = profile_matrix(g, conformed, like=X)
    internal = float(np.sum((X - F) ** 2))
    ea = g.edge_array()
    if len(ea):
        diffs = F[ea[:, 0]] - F[ea[:, 1]]
        return internal + 2.0 * float(np.sum(diffs ** 2))
    return internal
