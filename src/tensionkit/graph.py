"""Undirected graph core: construction, subgraphs, traversal, spanning trees.

Design notes
------------
Nodes are contiguous ids ``0..n-1`` and adjacency lists are kept sorted, so
every traversal (and every tie-break built on top of one) is deterministic.
Shortest paths are resolved by the composite key ``(total weight, hop count,
node sequence)``: among minimum-weight paths the fewest-hop ones win, and
among those the lexicographically smallest node sequence wins.  The hop
component is what keeps reconstruction well-defined on zero-weight plateaus.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import InfeasibleError, InputError

_REL_TOL = 1e-9  # slack for float equality in weighted path reconstruction


class Graph:
    """Immutable simple undirected graph over node ids ``0..n-1``."""

    __slots__ = ("node_count", "edge_count", "_adj", "_edges", "_degrees",
                 "_csr", "_edge_array")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if node_count < 1:
            raise InputError("empty graph: node_count must be at least 1")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InputError(f"edge ({u}, {v}) outside node range 0..{node_count - 1}")
            if u == v:
                raise InputError(f"self-loop at node {u} is not allowed")
            seen.add((u, v) if u < v else (v, u))
        self.node_count = node_count
        self._edges = sorted(seen)
        self.edge_count = len(self._edges)
        adj: list[list[int]] = [[] for _ in range(node_count)]
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        self._adj = adj
        self._degrees = None
        self._csr = None
        self._edge_array = None

    # -- basic accessors -------------------------------------------------

    def neighbors(self, i: int) -> list[int]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return self._edges

    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = np.array([len(a) for a in self._adj], dtype=np.int64)
        return self._degrees

    def edge_array(self) -> np.ndarray:
        """Edges as an (E, 2) int array (empty (0, 2) when there are none)."""
        if self._edge_array is None:
            if self._edges:
                self._edge_array = np.array(self._edges, dtype=np.int64)
            else:
                self._edge_array = np.empty((0, 2), dtype=np.int64)
        return self._edge_array

    def adjacency_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            ea = self.edge_array()
            n = self.node_count
            rows = np.concatenate([ea[:, 0], ea[:, 1]])
            cols = np.concatenate([ea[:, 1], ea[:, 0]])
            data = np.ones(2 * len(ea), dtype=np.float64)
            self._csr = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        return self._csr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.node_count}, m={self.edge_count})"


class EdgeWeights:
    """Nonnegative real weights keyed on the unordered edges of one graph."""

    __slots__ = ("graph", "values", "_index", "_wadj")

    def __init__(self, graph: Graph, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (graph.edge_count,):
            raise InputError("edge weight vector does not match the graph's edge list")
        if not np.isfinite(values).all():
            raise InputError("edge weights must be finite")
        if len(values) and values.min() < 0:
            raise InputError("edge weights must be nonnegative")
        self.graph = graph
        self.values = values
        self._index = None
        self._wadj = None

    def _edge_index(self) -> dict[tuple[int, int], int]:
        if self._index is None:
            self._index = {e: k for k, e in enumerate(self.graph.edges())}
        return self._index

    @classmethod
    def from_mapping(cls, graph: Graph, mapping: Mapping[tuple[int, int], float]) -> "EdgeWeights":
        values = np.zeros(graph.edge_count, dtype=np.float64)
        index = {e: k for k, e in enumerate(graph.edges())}
        for (u, v), w in mapping.items():
            key = (u, v) if u < v else (v, u)
            if key not in index:
                raise InputError(f"weight given for non-edge {key}")
            values[index[key]] = w
        return cls(graph, values)

    def get(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        return self.values[self._edge_index()[key]]

    def __getitem__(self, pair: tuple[int, int]) -> float:
        return self.get(*pair)

    def weighted_adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-node list of (neighbor, weight), neighbors ascending."""
        if self._wadj is None:
            wadj: list[list[tuple[int, float]]] = [[] for _ in range(self.graph.node_count)]
            for (u, v), w in zip(self.graph.edges(), self.values):
                wadj[u].append((v, w))
                wadj[v].append((u, w))
            for lst in wadj:
                lst.sort()
            self._wadj = wadj
        return self._wadj

    def with_zeroed(self, pairs: Iterable[tuple[int, int]]) -> "EdgeWeights":
        """Copy with the given edges' weights set to zero."""
        values = self.values.copy()
        index = self._edge_index()
        for u, v in pairs:
            key = (u, v) if u < v else (v, u)
            values[index[key]] = 0.0
        return EdgeWeights(self.graph, values)


class DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


# -- subgraphs and components ---------------------------------------------

def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``nodes``.

    Returns the new graph plus the sorted list of original ids, i.e. new id
    ``k`` corresponds to original id ``olds[k]``.
    """
    olds = sorted(set(nodes))
    if not olds:
        raise InputError("empty node set")
    if olds[0] < 0 or olds[-1] >= g.node_count:
        raise InputError("node set contains ids outside the graph")
    keep = set(olds)
    remap = {old: new for new, old in enumerate(olds)}
    edges = [(remap[u], remap[v]) for u, v in g.edges() if u in keep and v in keep]
    return Graph(len(olds), edges), olds


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted node lists, ordered by smallest member."""
    seen = [False] * g.node_count
    comps: list[list[int]] = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comp.sort()
        comps.append(comp)
    return comps


def largest_component(g: Graph) -> list[int]:
    """Nodes of the largest component (ties: smallest minimum id), sorted."""
    comps = connected_components(g)
    return max(comps, key=lambda c: (len(c), -c[0]))


# -- distances and shortest paths ------------------------------------------

def bfs_distances(g: Graph, src: int, alive: Sequence[bool] | None = None) -> np.ndarray:
    """Hop distances from ``src`` (-1 where unreachable), optionally
    restricted to nodes flagged in ``alive``."""
    dist = np.full(g.node_count, -1, dtype=np.int64)
    if alive is not None and not alive[src]:
        raise InputError(f"seed outside candidate set: {src}")
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        for v in g.neighbors(u):
            if dist[v] < 0 and (alive is None or alive[v]):
                dist[v] = d
                queue.append(v)
    return dist


def hop_distance_matrix(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """Hop distances from each source to every node (inf where unreachable)."""
    if not len(sources):
        return np.empty((0, g.node_count))
    mat = csgraph.shortest_path(g.adjacency_csr(), method="D", unweighted=True,
                                indices=np.asarray(sources, dtype=np.int64))
    return np.atleast_2d(mat)


def path_distances(g: Graph, src: int,
                   weights: EdgeWeights | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Single-source distances under the (weight, hops) composite key.

    Returns ``(dist_w, dist_h)``; unreachable nodes carry ``(inf, -1)``.
    With ``weights=None`` every edge counts 1 and the two arrays agree.
    """
    n = g.node_count
    if weights is None:
        dh = bfs_distances(g, src)
        dw = dh.astype(np.float64)
        dw[dh < 0] = math.inf
        return dw, dh
    dw = np.full(n, math.inf)
    dh = np.full(n, -1, dtype=np.int64)
    dw[src] = 0.0
    dh[src] = 0
    wadj = weights.weighted_adjacency()
    done = [False] * n
    heap: list[tuple[float, int, int]] = [(0.0, 0, src)]
    while heap:
        w, h, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, wt in wadj[u]:
            if done[v]:
                continue
            cw, ch = w + wt, h + 1
            if cw < dw[v] or (cw == dw[v] and (dh[v] < 0 or ch < dh[v])):
                dw[v] = cw
                dh[v] = ch
                heapq.heappush(heap, (cw, ch, v))
    return dw, dh


def _reconstruct_path(g: Graph, src: int, dst: int,
                      dist_w_from_dst: np.ndarray, dist_h_from_dst: np.ndarray,
                      weights: EdgeWeights | None) -> list[int]:
    """Lexicographically smallest (weight, hops)-optimal path src -> dst,
    given distances computed *from dst*."""
    total_w = dist_w_from_dst[src]
    total_h = dist_h_from_dst[src]
    if not math.isfinite(total_w):
        raise InfeasibleError(f"disconnected pair: no path from {src} to {dst}")
    tol = _REL_TOL * max(1.0, abs(total_w))
    wadj = weights.weighted_adjacency() if weights is not None else None
    path = [src]
    cw, ch, u = 0.0, 0, src
    while u != dst:
        nxt = -1
        nxt_wt = 0.0
        if wadj is None:
            for v in g.neighbors(u):
                if dist_h_from_dst[v] == total_h - ch - 1:
                    nxt, nxt_wt = v, 1.0
                    break
        else:
            for v, wt in wadj[u]:
                if dist_h_from_dst[v] != total_h - ch - 1:
                    continue
                if abs(cw + wt + dist_w_from_dst[v] - total_w) <= tol:
                    nxt, nxt_wt = v, wt
                    break
        if nxt < 0:  # cannot happen on consistent distance arrays
            raise RuntimeError("shortest-path reconstruction lost the trail")
        cw += nxt_wt
        ch += 1
        u = nxt
        path.append(u)
    return path


def shortest_path(g: Graph, src: int, dst: int,
                  weights: EdgeWeights | None = None) -> tuple[list[int], float]:
    """Shortest path and its length; unit lengths when ``weights`` is None.

    Ties are broken by fewest hops, then by lexicographically smallest node
    sequence.  Raises :class:`InfeasibleError` for a disconnected pair.
    """
    if not (0 <= src < g.node_count and 0 <= dst < g.node_count):
        raise InputError("path endpoints outside the graph")
    if src == dst:
        return [src], 0.0
    dw, dh = path_distances(g, dst, weights)
    path = _reconstruct_path(g, src, dst, dw, dh, weights)
    return path, float(dw[src])


# -- spanning trees ---------------------------------------------------------

def minimum_spanning_tree(nodes: Sequence[int],
                          weight: Mapping[tuple[int, int], float]) -> list[tuple[int, int]]:
    """Kruskal MST of the complete graph over ``nodes`` with the given pair
    weights (keyed on (min, max) tuples; ``inf`` marks an absent edge).

    Ties are broken by lexicographic edge order.  Raises
    :class:`InfeasibleError` when the finite-weight edges cannot connect all
    nodes.
    """
    nodes = sorted(set(nodes))
    if not nodes:
        raise InputError("empty node set")
    if len(nodes) == 1:
        return []
    remap = {v: k for k, v in enumerate(nodes)}
    cand = []
    for ia, a in enumerate(nodes):
        for b in nodes[ia + 1:]:
            w = weight[(a, b)]
            if math.isfinite(w):
                cand.append((w, a, b))
    cand.sort()
    ds = DisjointSet(len(nodes))
    tree = []
    for w, a, b in cand:
        if ds.union(remap[a], remap[b]):
            tree.append((a, b))
            if len(tree) == len(nodes) - 1:
                return tree
    raise InfeasibleError("seeds in different components")
