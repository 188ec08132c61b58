"""Shared fixtures, independent oracles, and hypothesis strategies.

The oracles here deliberately avoid the package's own graph and solver
machinery: connectivity is re-derived from raw edge lists, equilibria from a
dense linear solve, shortest-path distances from a pure-Python heap Dijkstra
and BFS, so the tests cross-check two independent routes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np
from hypothesis import HealthCheck, settings

from tensionkit import Graph

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# -- independent oracles ------------------------------------------------------

def oracle_is_connected(n: int, edges, nodes) -> bool:
    """BFS connectivity of a node subset, straight from the raw edge list."""
    keep = set(nodes)
    if not keep:
        return False
    adj = {v: [] for v in keep}
    for u, v in edges:
        if u in keep and v in keep:
            adj[u].append(v)
            adj[v].append(u)
    start = next(iter(keep))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(keep)


def oracle_tension(n: int, edges, latent, nodes=None) -> float:
    """Equilibrium social tension of the subgraph induced by ``nodes``
    (whole graph when None), via a dense solve of (I + D - A) f = x."""
    X = np.asarray(latent, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if nodes is None:
        nodes = range(n)
    order = sorted(nodes)
    pos = {v: i for i, v in enumerate(order)}
    k = len(order)
    A = np.zeros((k, k))
    sub_edges = []
    for u, v in edges:
        if u in pos and v in pos:
            A[pos[u], pos[v]] = 1.0
            A[pos[v], pos[u]] = 1.0
            sub_edges.append((pos[u], pos[v]))
    Xs = X[order]
    F = np.linalg.solve(np.eye(k) + np.diag(A.sum(axis=1)) - A, Xs)
    total = float(((Xs - F) ** 2).sum())
    for u, v in sub_edges:
        total += 2.0 * float(((F[u] - F[v]) ** 2).sum())
    return total


def connected_supersets(n: int, edges, q):
    """Every superset of q (within 0..n-1) inducing a connected subgraph."""
    q = set(q)
    rest = [v for v in range(n) if v not in q]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = q | set(combo)
            if oracle_is_connected(n, edges, s):
                yield s


def oracle_min_tension(n: int, edges, latent, q) -> float:
    """Brute-force optimum over all connected supersets of q."""
    best = np.inf
    for s in connected_supersets(n, edges, q):
        t = oracle_tension(n, edges, latent, s)
        if t < best:
            best = t
    return best


def oracle_steiner_edges(n: int, edges, q) -> int:
    """Fewest edges of any tree spanning q: min |S| - 1 over connected
    supersets S (a spanning tree of the induced subgraph realizes it)."""
    best = None
    for s in connected_supersets(n, edges, q):
        if best is None or len(s) < best:
            best = len(s)
    if best is None:
        raise AssertionError("seeds not connectable")
    return best - 1


def reference_path_distances(n: int, edges, src: int, weights=None):
    """``(dist_w, dist_h)`` from ``src`` under the composite key (weight,
    hops): a heap Dijkstra on ``(weight, hops, node)`` over the raw edge list
    with per-edge ``weights`` (unit lengths and a plain BFS when None).
    Unreachable nodes carry ``(inf, -1)``."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        wt = 1.0 if weights is None else weights[k]
        adj[u].append((v, wt))
        adj[v].append((u, wt))
    dw = np.full(n, math.inf)
    dh = np.full(n, -1, dtype=np.int64)
    dw[src] = 0.0
    dh[src] = 0
    if weights is None:
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if dh[v] < 0:
                    dh[v] = dh[u] + 1
                    dw[v] = float(dh[v])
                    queue.append(v)
        return dw, dh
    done = [False] * n
    heap: list[tuple[float, int, int]] = [(0.0, 0, src)]
    while heap:
        w, h, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, wt in adj[u]:
            if done[v]:
                continue
            cw, ch = w + wt, h + 1
            if cw < dw[v] or (cw == dw[v] and (dh[v] < 0 or ch < dh[v])):
                dw[v] = cw
                dh[v] = ch
                heapq.heappush(heap, (cw, ch, v))
    return dw, dh


class OracleUnionFind:
    """Plain union-find, independent of the package's implementation."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


# -- random instance helpers --------------------------------------------------

def random_graph_and_profiles(rng: np.random.Generator, n_lo: int, n_hi: int,
                              m_attrs: int = 1, connected: bool = True,
                              extra_p: float = 0.3):
    """A random (connected) graph plus uniform latent profiles."""
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = set()
    if connected:
        for v in range(1, n):
            u = int(rng.integers(0, v))
            edges.add((u, v))
    if n > 1:
        for u in range(n - 1):
            mask = rng.random(n - u - 1) < extra_p
            for j in np.nonzero(mask)[0]:
                edges.add((u, u + 1 + int(j)))
    g = Graph(n, sorted(edges))
    X = rng.random((n, m_attrs))
    return g, X
