"""Seeded synthetic fixtures: random graphs, planted communities, and
block-structured incidence matrices for profile generation."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .graph import Graph


def _row_draws(n: int, rng: np.random.Generator, prob) -> list[tuple[int, int]]:
    """Pairs ``i < j``, drawn row by row: pair ``(i, j)`` is kept with
    probability ``prob(i)``, a scalar or one value per ``j > i``."""
    return [(i, j) for i in range(n - 1)
            for j in (np.flatnonzero(rng.random(n - i - 1) < prob(i)) + i + 1).tolist()]


def gnp_graph(n: int, p: float, rng_seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p), drawn row by row for memory friendliness."""
    if not 0.0 <= p <= 1.0:
        raise InputError("edge probability must lie in [0, 1]")
    return Graph(n, _row_draws(n, np.random.default_rng(rng_seed), lambda i: p))


def gnm_graph(n: int, m: int, rng_seed: int = 0) -> Graph:
    """Uniform random graph with exactly ``m`` distinct edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise InputError(f"{m} edges do not fit in a simple graph on {n} nodes")
    rng = np.random.default_rng(rng_seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        batch = rng.integers(0, n, size=(max(1024, 2 * (m - len(chosen))), 2))
        for u, v in batch.tolist():
            if u != v:
                chosen.add((min(u, v), max(u, v)))
                if len(chosen) == m:
                    break
    return Graph(n, chosen)


def planted_partition_graph(n_blocks: int, block_size: int, p_in: float,
                            p_out: float, rng_seed: int = 0
                            ) -> tuple[Graph, np.ndarray]:
    """Equal-size planted communities: edge probability ``p_in`` inside a
    block, ``p_out`` across.  Returns the graph and the block label of each
    node."""
    n = n_blocks * block_size
    labels = np.arange(n) // block_size
    edges = _row_draws(n, np.random.default_rng(rng_seed),
                       lambda i: np.where(labels[i + 1:] == labels[i], p_in, p_out))
    return Graph(n, edges), labels


def block_incidence(labels: np.ndarray, rng_seed: int = 0,
                    block_count: int = 4, noise_pool: int = 30,
                    noise_per_node: int = 2) -> tuple[sp.csr_matrix, list[str]]:
    """Node-by-feature incidence mirroring a block structure.

    Every node gets its block's feature with count ``block_count`` plus
    ``noise_per_node`` distinct shared noise features with count 1.
    """
    n = len(labels)
    n_blocks = int(labels.max()) + 1
    features = [f"b{k}" for k in range(n_blocks)] + [f"n{j}" for j in range(noise_pool)]
    rng = np.random.default_rng(rng_seed)
    rows, cols, data = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(int(labels[i]))
        data.append(block_count)
        picks = rng.choice(noise_pool, size=noise_per_node, replace=False)
        for j in picks:
            rows.append(i)
            cols.append(n_blocks + int(j))
            data.append(1)
    M = sp.csr_matrix((data, (rows, cols)), shape=(n, len(features)), dtype=np.float64)
    return M, features
