"""Profile conformation: repeated neighborhood averaging and its fixed point.

Every node repeatedly replaces its expressed profile with the average of its
own latent profile and its neighbors' current expressed profiles.  The
process contracts in max-norm with per-step factor ``deg/(1+deg)``, so it
converges to the unique solution of ``(I + D - A) F = X`` applied column by
column (``D`` the degree diagonal, ``A`` the adjacency matrix).  ``conform``
iterates synchronously; ``equilibrium_solve`` solves the linear system
directly and serves as the exact cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, InputError
from .graph import Graph


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


def default_max_iter(n: int) -> int:
    return max(100 * n, 10_000)


def conform(g: Graph, latent, tol: float = 1e-9,
            max_iter: int | None = None) -> ConformationResult:
    """Iterate synchronous neighborhood averaging to its fixed point.

    Stops once the max-norm step falls below ``tol / (1 + max_degree)``,
    which bounds the max-norm distance of the returned profiles to the true
    equilibrium by ``tol`` (the contraction factor is ``deg/(1+deg)``).
    Raises :class:`ConvergenceError` carrying the last iterate when the
    iteration budget runs out first.
    """
    X = profile_matrix(g, latent)
    if not (tol > 0 and np.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    if max_iter is None:
        max_iter = default_max_iter(g.node_count)
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


def equilibrium_solve(g: Graph, latent) -> np.ndarray:
    """Exact equilibrium profiles via a sparse direct solve of
    ``(I + D - A) F = X`` (one right-hand side per attribute column)."""
    X = profile_matrix(g, latent)
    n = g.node_count
    deg = g.degrees().astype(np.float64)
    L = sp.diags(1.0 + deg) - g.adjacency_csr()
    lu = spla.splu(sp.csc_matrix(L))
    return lu.solve(X)


def equilibrium_residual(g: Graph, latent, conformed) -> float:
    """Max-norm fixed-point residual of ``conformed`` under one averaging
    step (0 at the exact equilibrium)."""
    X = profile_matrix(g, latent)
    F = profile_matrix(g, conformed, like=X)
    denom = (1.0 + g.degrees().astype(np.float64))[:, None]
    return float(np.abs((X + g.adjacency_csr() @ F) / denom - F).max())


def node_tension(g: Graph, latent, conformed, i: int) -> float:
    """Tension felt by node ``i``: squared internal gap to its own latent
    profile plus squared disagreement with each neighbor, over all
    attributes."""
    X = profile_matrix(g, latent)
    F = profile_matrix(g, conformed, like=X)
    if not (0 <= i < g.node_count):
        raise InputError(f"node id {i} outside the graph")
    internal = float(np.sum((X[i] - F[i]) ** 2))
    social = 0.0
    for j in g.neighbors(i):
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
