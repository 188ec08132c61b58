"""Shared fixtures, independent oracles, and hypothesis strategies.

The oracles here deliberately avoid the package's own graph and solver
machinery: connectivity is re-derived from raw edge lists, equilibria from a
dense linear solve, shortest-path distances from a pure-Python heap Dijkstra
and BFS, so the tests cross-check two independent routes.  The reference
peel keeps the package's scoring but asks a full breadth-first search after
every pick, the reference graph is the list-of-lists construction that
the CSR ``Graph`` replaced, and the reference greedy growth runs one Python
heap per start.  The reference peel and growth loop over Python lists read
off the CSR arrays (``adjacency_lists``).  The reference seed sampling reads
its spreads off a sources x nodes hop distance matrix.  The reference
connector computes a full distance row per seed, hops or weights.  The
reference edge-list and profile readers are the per-line loops that ran
before the numpy parse.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

from tensionkit import (EdgeWeights, Graph, InfeasibleError, InputError, SeedGroup,
                        evaluate_solution, largest_component, proxy_weights)
from tensionkit.graph import (_reconstruct_path, hop_distance_matrix,
                              minimum_spanning_tree, path_distances)

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


def reference_graph(node_count: int, edges):
    """The list-of-lists ``Graph`` constructor as it was before the CSR
    arrays, same errors included: the sorted canonical edge list and the
    sorted neighbor lists."""
    if node_count < 1:
        raise InputError("empty graph: node_count must be at least 1")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise InputError(f"edge ({u}, {v}) outside node range 0..{node_count - 1}")
        if u == v:
            raise InputError(f"self-loop at node {u} is not allowed")
        seen.add((u, v) if u < v else (v, u))
    edge_list = sorted(seen)
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    return edge_list, adj


def reference_csr(n: int, edge_list, values) -> sp.csr_matrix:
    """Symmetric CSR built through COO with ``values[k]`` on edge ``k``."""
    ea = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
    return sp.csr_matrix((np.concatenate([values, values]),
                          (np.r_[ea[:, 0], ea[:, 1]], np.r_[ea[:, 1], ea[:, 0]])),
                         shape=(n, n))


def adjacency_lists(g: Graph, weights=None):
    """Per-node lists read off the CSR arrays, neighbours ascending: the
    neighbour ids, or with ``weights`` the ``(neighbour, weight)`` pairs with
    Python floats."""
    flat = g.indices.tolist()
    if weights is not None:
        flat = list(zip(flat, weights.values[g.edge_ids].tolist()))
    ptr = g.indptr.tolist()
    return [flat[a:b] for a, b in zip(ptr, ptr[1:])]


def reference_components(adj) -> list[list[int]]:
    """Sorted node lists ordered by smallest member: a BFS from each unseen
    node in id order."""
    seen = [False] * len(adj)
    comps: list[list[int]] = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comp.sort()
        comps.append(comp)
    return comps


def reference_peel_community(g: Graph, latent, seeds, variant: str = "sum",
                             rng_seed: int = 0, weights=None):
    """The top-down peel as it ran before the connectivity witness: the same
    scores, tie-break and pruning as ``peel_community``, with a full BFS over
    the survivors after every pick.  Takes sorted, distinct, in-range seeds."""
    seed_set = set(seeds)
    n = g.node_count
    adj = adjacency_lists(g)

    def seeds_reachable(alive):
        missing = len(seed_set) - 1
        if missing == 0:
            return True
        seen = [False] * n
        seen[seeds[0]] = True
        queue = deque([seeds[0]])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if alive[v] and not seen[v]:
                    seen[v] = True
                    if v in seed_set:
                        missing -= 1
                        if missing == 0:
                            return True
                    queue.append(v)
        return False

    static = wadj = by_weight = None
    if variant == "random":
        static = np.random.default_rng(rng_seed).random(n).tolist()
    else:
        if weights is None:
            weights = proxy_weights(g, latent)
        wadj = adjacency_lists(g, weights)
        if variant == "max":
            by_weight = [sorted(pairs, key=lambda t: -t[1]) for pairs in wadj]

    alive = [True] * n
    if not seeds_reachable(alive):
        raise InfeasibleError("seeds in different components")

    pool = [v for v in range(n) if v not in seed_set]
    deg = g.degrees().tolist()
    kept: list[int] = []

    while pool:
        best_v = -1
        best_s = -math.inf
        survivors: list[int] = []
        for v in pool:
            if not alive[v]:
                continue
            survivors.append(v)
            if static is not None:
                s = static[v]
            elif by_weight is not None:
                s = 0.0
                for u, w in by_weight[v]:
                    if alive[u]:
                        s = w
                        break
            else:
                s = 0.0
                for u, w in wadj[v]:
                    if alive[u]:
                        s += w
            if s > best_s:
                best_s = s
                best_v = v
        if best_v < 0:
            break
        v = best_v
        survivors.remove(v)
        pool = survivors
        alive[v] = False
        if seeds_reachable(alive):
            for u in adj[v]:
                if alive[u]:
                    deg[u] -= 1
                    if deg[u] == 0 and u not in seed_set:
                        alive[u] = False
        else:
            alive[v] = True
            kept.append(v)

    return evaluate_solution(g, latent, set(kept) | seed_set,
                             algorithm_tag=f"peel-{variant}")


def reference_greedy_sets(g: Graph, weights, k: int, starts) -> np.ndarray:
    """The sets ``greedy_fixed_size`` scores, grown as before the lockstep
    growth: one heap per start over ``(neighbour, weight)`` tuples, stale
    entries skipped.  Returns the distinct grown sets as ascending node
    tuples in lexicographic order, one row each (empty when none grew)."""
    wadj = adjacency_lists(g, weights)
    grown: set[frozenset[int]] = set()
    for start in starts:
        members = {start}
        delta: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for u, w in wadj[start]:
            delta[u] = w * w
            heapq.heappush(heap, (delta[u], u))
        while len(members) < k and heap:
            d, u = heapq.heappop(heap)
            if u in members or d != delta[u]:
                continue  # stale entry; the current one is still queued
            members.add(u)
            for x, w in wadj[u]:
                if x not in members:
                    delta[x] = delta.get(x, 0.0) + w * w
                    heapq.heappush(heap, (delta[x], x))
        if len(members) == k:
            grown.add(frozenset(members))
    return np.array(sorted(tuple(sorted(nodes)) for nodes in grown), dtype=np.int64)


def reference_sample_seed_groups(g: Graph, set_size: int, n_candidates: int = 1000,
                                 per_group: int = 30, rng_seed: int = 0):
    """``sample_seed_groups`` as it ran before the pair distances: the same
    draws and bands, with spreads read off one ``hop_distance_matrix`` row
    per distinct candidate node (a sources x nodes matrix).  Takes valid
    parameters."""
    comp = largest_component(g)
    rng = np.random.default_rng(rng_seed)
    comp_arr = np.array(comp, dtype=np.int64)
    candidates = [tuple(sorted(comp_arr[rng.choice(len(comp_arr), size=set_size,
                                                   replace=False)].tolist()))
                  for _ in range(n_candidates)]
    cand = np.array(candidates, dtype=np.int64)
    used, row = np.unique(cand, return_inverse=True)
    dist = hop_distance_matrix(g, used)
    spreads = dist[row.reshape(cand.shape)[:, :, None], cand[:, None, :]].max(axis=(1, 2))
    p10, p33, p66, p90 = np.percentile(spreads, [10, 33, 66, 90])
    groups = []
    for label, lo, hi in [("D1", p10, p33), ("D2", p33, p66), ("D3", p66, p90)]:
        picked = [c for c, s in zip(candidates, spreads) if lo <= s <= hi]
        groups.append(SeedGroup(label, tuple(picked[:per_group])))
    return tuple(groups)


def reference_hop_connector(g: Graph, seeds):
    """``seed_connector`` in hop mode as it ran before the joint search."""
    return reference_weighted_connector(g, seeds, None)


def reference_weighted_connector(g: Graph, seeds, weights):
    """``seed_connector`` as it ran before the joint hop search and the
    weighted closure: a full ``path_distances`` row per seed, weights and
    tight-edge hops alike, Kruskal on the whole closure (the smaller seed's
    row), and each tree edge walked on its larger seed's row.  Takes sorted,
    distinct, in-range seeds."""
    if len(seeds) == 1:
        return {seeds[0]}, set()
    dists = {s: path_distances(g, s, weights) for s in seeds}
    closure = {(a, b): float(dists[a][0][b]) for a, b in itertools.combinations(seeds, 2)}
    nodes, edges = set(seeds), set()
    for a, b in minimum_spanning_tree(seeds, closure):
        dw, dh = dists[b]
        path = _reconstruct_path(g, a, b, dw, dh, weights)
        nodes.update(path)
        edges.update((min(e), max(e)) for e in zip(path, path[1:]))
    return nodes, edges


def _reference_data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            payload = raw.split("#", 1)[0].strip()
            if payload:
                yield lineno, payload


def reference_read_edge_list(path) -> Graph:
    """``fileio.read_edge_list`` as it ran before the numpy parse: Python's
    ``split`` and ``int`` on every line."""
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, payload in _reference_data_lines(path):
        parts = payload.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected two node ids, got {payload!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: node ids must be integers") from None
        if u < 0 or v < 0:
            raise InputError(f"{path}:{lineno}: node ids must be nonnegative")
        if u == v:
            raise InputError(f"{path}:{lineno}: self-loop at node {u} rejected")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise InputError(f"{path}: no edges found")
    return Graph(max_id + 1, edges)


def reference_read_profiles(path, expected_nodes: int | None = None) -> np.ndarray:
    """``fileio.read_profiles`` as it ran before the numpy parse: Python's
    ``float`` on every value."""
    rows: list[list[float]] = []
    width = None
    for lineno, payload in _reference_data_lines(path):
        parts = payload.split()
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise InputError(f"{path}:{lineno}: attribute values must be numbers") from None
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputError(
                f"{path}:{lineno}: row has {len(vals)} values, expected {width}")
        for v in vals:
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{path}:{lineno}: value {v} outside [0, 1]")
        rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no profile rows found")
    if expected_nodes is not None and len(rows) != expected_nodes:
        raise InputError(
            f"{path}: {len(rows)} profile rows do not match {expected_nodes} graph nodes")
    return np.array(rows, dtype=np.float64)


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


def edge_weights(g: Graph, mapping) -> EdgeWeights:
    """``EdgeWeights`` from a weight for every edge of ``g``, keyed by its
    ends in either order."""
    w = {(min(e), max(e)): x for e, x in mapping.items()}
    assert sorted(w) == g.edges(), "the mapping must key exactly the graph's edges"
    return EdgeWeights(g, [w[e] for e in g.edges()])
