"""Undirected graph core: construction, subgraphs, traversal, spanning trees.

Design notes
------------
Nodes are contiguous ids ``0..n-1``.  A ``Graph`` is CSR arrays built in one
vectorized pass: the canonical edges ``u < v`` sorted by their keys ``u * n
+ v`` (kept for binary search), ``indptr`` / ``indices`` with columns
ascending in each row, and ``edge_ids``, the edge of each CSR entry, so a
weight vector becomes CSR data as ``values[edge_ids]``.  Sorted neighbors
make every traversal, and every tie-break on top of one, deterministic.
``_up`` holds where each node's block of edges to higher ids starts in the
edge order, so ``edges_within`` reads a member's block with no search.
scipy copies the index arrays to int32 in each ``csr_matrix`` it hands to
``csgraph``, hence ``MAX_NODES``, which also keeps the keys within int64;
below it, a graph still allocates O(node count).
Shortest paths are resolved by the composite key ``(total weight, hop count,
node sequence)``: among minimum-weight paths the fewest-hop ones win, and
among those the lexicographically smallest node sequence wins.  The hop
component is what keeps reconstruction well-defined on zero-weight plateaus.

Distances come from ``scipy.sparse.csgraph``.  Every full-row hop search is
``_hop_rows``: a ``breadth_first_order`` per source, whose levels follow
from the order and the BFS parents by pointer jumping in O(k log depth) for
k reachable nodes.  On a 2-core x86-64 that beats a unit-weight Dijkstra on
a 20 k-node random graph (2.1 vs 6.4 ms a source) and loses on a 200 k-node
path (25 vs 8 ms), a bounded factor.
``pair_hop_distances`` answers a list of ``(source, target)`` pairs, as seed
sampling needs, without a row per source: a multi-source BFS with one bit
per source (Then et al., VLDB 2014).  A batch of ``64 * words`` sources
keeps ``seen``, an ``(n, words)`` uint64 array, and a frontier of nodes
with the words they gained at the last level.  A level expands the frontier
rows over the CSR arrays, ORs the words arriving at each neighbour, masks
them with ``~seen`` and keeps the nonzero rows; a pair resolves at the
level where its target's row gains its source's bit.  ``words`` is sized
so that ``seen`` and the expanded rows hold at most ``PAIR_ELEMENTS`` words
(32 MB; one word per node or CSR entry on larger graphs).  A level costs
the frontier's CSR entries times ``words`` plus the pairs of the targets it
reaches, never n or the pair count.  On a deep graph the words would be
expanded once per level, about n * depth * S / 64 word operations for S
sources, so after ``FINISH_DEPTH`` (64) levels a batch finishes its
pending pairs with ``_hop_rows`` per source, in matrices of at most
``PAIR_ELEMENTS`` entries (one row on larger graphs).  The 64 levels before
cost at most 2E word operations per source, about one BFS each.
Weights come from ``dijkstra``, then hops from a BFS over the *tight* edges
``u -> v`` with ``dist_w[u] + w_uv == dist_w[v]``.  The equality is exact:
a float Dijkstra sets ``dist_w[v]`` to the smallest rounded sum ``dist_w[u]
+ w_uv``, so exactly the edges that realise it are tight, zero-weight
plateaus and absorbed weights (``d + w == d``) included.  A tolerance would
admit near-ties that no minimum-weight path uses and change hop counts.
The path walk obeys the same rule: each step goes to the smallest neighbour
one hop nearer the target over a tight edge, in hop and weighted mode alike.
Zero weights are edges, kept as explicit CSR entries.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import InfeasibleError, InputError

MAX_NODES = 2**31 - 1  # csgraph's int32 index limit (see the design notes)
PAIR_ELEMENTS = 1 << 22  # cap on nodes (or CSR entries) x source words in one batch
FINISH_DEPTH = 64  # levels a pair batch runs before its pending pairs go per source


class Graph:
    """Immutable simple undirected graph over node ids ``0..n-1``, from
    ``(u, v)`` pairs or an ``(E, 2)`` array; duplicate and reversed pairs
    collapse into one edge."""

    __slots__ = ("node_count", "edge_count", "indptr", "indices", "edge_ids",
                 "_edge_array", "_keys", "_up", "_edges", "_csr")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if node_count < 1:
            raise InputError("empty graph: node_count must be at least 1")
        if node_count > MAX_NODES:
            raise InputError(f"node_count {node_count} exceeds the limit of {MAX_NODES}")
        n = node_count
        try:
            ea = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), np.int64)
            ea = ea.reshape(0, 2) if ea.size == 0 else ea
        except (OverflowError, TypeError, ValueError):
            ea = None
        if ea is None or ea.ndim != 2 or ea.shape[1] != 2:
            raise InputError("edges must be pairs of integer node ids")
        u, v = ea[:, 0], ea[:, 1]
        outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad = outside | (u == v)
        if bad.any():  # report the first bad edge, range before self-loop
            k = int(np.argmax(bad))
            if outside[k]:
                raise InputError(f"edge ({u[k]}, {v[k]}) outside node range 0..{n - 1}")
            raise InputError(f"self-loop at node {u[k]} is not allowed")
        # deduplicate by a sort: np.unique hashes first, 50x slower on 1 M keys
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        lo, hi = np.divmod(keys, n)
        m = len(keys)
        # each edge at both ends, ordered by the (unique) entry keys row * n + col
        rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.argsort(rows * n + cols)
        self.node_count = n
        self.edge_count = m
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.indices = cols[order]
        self.edge_ids = order % max(m, 1)  # entry k of either half is edge k
        self._edge_array = np.column_stack([lo, hi])
        self._keys = keys
        self._up = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lo, minlength=n), out=self._up[1:])
        self._edges = self._csr = None

    # -- basic accessors -------------------------------------------------

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        if self._edges is None:
            self._edges = list(zip(*self._edge_array.T.tolist()))
        return self._edges

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_array(self) -> np.ndarray:
        """Edges as an (E, 2) int array, rows in :meth:`edges` order."""
        return self._edge_array

    def edges_within(self, nodes: Iterable[int]) -> np.ndarray:
        """Ascending positions in :meth:`edge_array` of the edges with both
        ends in ``nodes``: each member's block of edges to higher ids,
        filtered by its other end."""
        keep = np.zeros(self.node_count, dtype=bool)
        keep[np.fromiter(nodes, dtype=np.int64)] = True
        members = np.flatnonzero(keep)
        pos = _ranges(self._up[members], self._up[members + 1])
        return pos[keep[self._edge_array[pos, 1]]]

    def adjacency_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = _symmetric_csr(self, np.ones(self.edge_count))
        return self._csr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The ranges ``lo[i]:hi[i]`` concatenated, without a Python loop."""
    cnt = hi - lo
    first = cnt.cumsum() - cnt
    return np.arange(cnt.sum()) + (lo - first).repeat(cnt)


def _symmetric_csr(g: Graph, values: np.ndarray) -> sp.csr_matrix:
    """Symmetric CSR with ``values[k]`` at both entries of edge ``k``;
    columns ascend in each row, and zeros stay explicit entries (edges)."""
    n = g.node_count
    return sp.csr_matrix((values[g.edge_ids], g.indices, g.indptr), shape=(n, n))


class EdgeWeights:
    """Nonnegative real weights keyed on the unordered edges of one graph."""

    __slots__ = ("graph", "values", "_csr")

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
        self._csr = None

    @classmethod
    def from_mapping(cls, graph: Graph, mapping: Mapping[tuple[int, int], float]) -> "EdgeWeights":
        values = np.zeros(graph.edge_count, dtype=np.float64)
        values[_edge_positions(graph, mapping, "weight given for")] = list(mapping.values())
        return cls(graph, values)

    def get(self, u: int, v: int) -> float:
        return self.values[_edge_positions(self.graph, [(u, v)], "no weight for")[0]]

    def weighted_csr(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency; zero weights stay explicit entries."""
        if self._csr is None:
            self._csr = _symmetric_csr(self.graph, self.values)
        return self._csr

    def with_zeroed(self, pairs: Iterable[tuple[int, int]]) -> "EdgeWeights":
        """Copy with the edges ``pairs`` (tuples or a (k, 2) array) set to zero."""
        values = self.values.copy()
        values[_edge_positions(self.graph, pairs, "cannot zero")] = 0.0
        return EdgeWeights(self.graph, values)


def _find_edges(g: Graph, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``g.edges()`` of the pairs ``u < v`` (arrays of any one
    shape), and whether each pair is an edge: a binary search of the sorted
    edge keys ``u * n + v``."""
    n, keys = g.node_count, g._keys
    want = u * n + v
    at = np.searchsorted(keys, want)
    found = (u >= 0) & (v < n) & (at < len(keys))
    found[found] = keys[at[found]] == want[found]
    return at, found


def _edge_positions(g: Graph, pairs, what: str) -> np.ndarray:
    """Positions in ``g.edges()`` of the unordered ``pairs``; a pair that is
    no edge raises :class:`InputError`."""
    uv = np.array(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    uv = np.sort(uv.reshape(-1, 2), axis=1)
    at, found = _find_edges(g, uv[:, 0], uv[:, 1])
    if not found.all():
        raise InputError(f"{what} non-edge {tuple(uv[np.argmin(found)].tolist())}")
    return at


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
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[olds] = np.arange(len(olds))
    inside = remap[g.edge_array()[g.edges_within(olds)]]
    return Graph(len(olds), inside), olds


def _component_labels(g: Graph) -> np.ndarray:
    """Each node's component, the components numbered by smallest member."""
    count, labels = csgraph.connected_components(g.adjacency_csr(), directed=False)
    first = np.full(count, g.node_count)
    np.minimum.at(first, labels, np.arange(g.node_count))
    return np.argsort(np.argsort(first))[labels]


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted node lists, ordered by smallest member."""
    labels = _component_labels(g)
    nodes = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [nodes[a:b] for a, b in zip([0] + ends, ends)]


def largest_component(g: Graph) -> list[int]:
    """Nodes of the largest component (ties: smallest minimum id), sorted."""
    labels = _component_labels(g)
    return np.flatnonzero(labels == np.argmax(np.bincount(labels))).tolist()


# -- distances and shortest paths ------------------------------------------

def _hop_rows(adj: sp.csr_matrix, sources) -> np.ndarray:
    """Unweighted distances over the directed ``adj`` from ``sources`` (inf:
    unreachable): one row per source, 1-D for a scalar source."""
    out = np.full((np.size(sources), adj.shape[0]), np.inf)
    pos = np.empty(adj.shape[0], dtype=np.int64)
    for row, s in zip(out, np.ravel(sources).tolist()):
        order, pred = csgraph.breadth_first_order(adj, s, return_predecessors=True)
        pred[s] = s
        pos[order] = np.arange(len(order))
        up = pos[pred[order]]  # each node's parent, as a position in the order
        level = np.minimum(np.arange(len(order)), 1)  # 0 at the source
        while up[-1]:  # the last node is deepest, so it reaches the source last
            level += level[up]
            up = up[up]
        row[order] = level
    return out if np.ndim(sources) else out[0]


def _as_hops(dist: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(dist), dist, -1).astype(np.int64)


def hop_distance_matrix(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """Hop distances from each source to every node (inf where unreachable)."""
    return _hop_rows(g.adjacency_csr(), np.asarray(sources, dtype=np.int64).reshape(-1))


def pair_hop_distances(g: Graph, sources, targets) -> np.ndarray:
    """Hop distance of each pair ``(sources[k], targets[k])`` (inf where
    unreachable): one breadth-first search from many sources at once, a bit
    per source, in batches of at most ``64 * words`` sources (see the design
    notes)."""
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    dst = np.asarray(targets, dtype=np.int64).reshape(-1)
    if src.shape != dst.shape:
        raise InputError("pair distances need as many targets as sources")
    n = g.node_count
    if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise InputError("pair endpoints outside the graph")
    out = np.where(src == dst, 0.0, np.inf)
    todo = np.flatnonzero(src != dst)
    used, col = np.unique(src[todo], return_inverse=True)
    by_src = np.argsort(col, kind="stable")  # batches of sources are slices
    todo, col = todo[by_src], col[by_src]
    per_batch = 64 * max(1, PAIR_ELEMENTS // max(n, len(g.indices)))
    for b in range(0, len(used), per_batch):
        a, z = np.searchsorted(col, [b, b + per_batch])
        out[todo[a:z]] = _bit_bfs(g, used[b:b + per_batch], col[a:z] - b, dst[todo[a:z]])
    return out


def _bit_bfs(g: Graph, sources: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Hop distances from ``sources[q[k]]`` to ``t[k]`` (distinct ends) over
    the CSR arrays: bit ``j`` of a node's row of words marks source ``j``,
    and a pair resolves at the level where its target's row gains its bit."""
    n, words = g.node_count, -(-len(sources) // 64)
    indptr, indices = g.indptr, g.indices
    dist = np.full(len(q), np.inf)
    by_t = np.argsort(t, kind="stable")  # a node's pairs are one slice of ts
    ts, word = t[by_t], q[by_t] >> 6
    bit = np.left_shift(np.uint64(1), (q[by_t] & 63).astype(np.uint64))
    k = np.arange(len(sources))
    front = sources  # ascending and distinct
    fw = np.zeros((len(sources), words), dtype=np.uint64)
    fw[k, k >> 6] = np.left_shift(np.uint64(1), (k & 63).astype(np.uint64))
    seen = np.zeros((n, words), dtype=np.uint64)
    seen[front] = fw
    pending, level = len(q), 0
    while pending and len(front):
        if level == FINISH_DEPTH:  # deep: finish the rest one source at a time
            left = np.flatnonzero(np.isinf(dist))
            left = left[np.argsort(q[left], kind="stable")]
            rows, row_of = np.unique(q[left], return_inverse=True)
            step = max(1, PAIR_ELEMENTS // n)
            for c in range(0, len(rows), step):
                a, z = np.searchsorted(row_of, [c, c + step])
                d = hop_distance_matrix(g, sources[rows[c:c + step]])
                dist[left[a:z]] = d[row_of[a:z] - c, t[left[a:z]]]
            break
        level += 1
        # the frontier's CSR rows, their words OR-combined per neighbour
        lo, hi = indptr[front], indptr[front + 1]
        nbr = indices[_ranges(lo, hi)]
        if not len(nbr):
            break
        order = nbr.argsort()
        nbr = nbr[order]
        head = np.empty(len(nbr), dtype=bool)
        head[0] = True
        np.not_equal(nbr[1:], nbr[:-1], out=head[1:])
        head = head.nonzero()[0]
        node = nbr[head]
        new = np.bitwise_or.reduceat(fw[np.arange(len(front)).repeat(hi - lo)[order]],
                                     head, axis=0) & ~seen[node]
        keep = new.any(axis=1)
        front, fw = node[keep], new[keep]
        seen[front] |= fw
        # pairs whose target just gained bits: resolved where it gained theirs
        lo, hi = ts.searchsorted(front), ts.searchsorted(front, side="right")
        p = _ranges(lo, hi)
        if len(p):
            hit = p[(fw[np.arange(len(front)).repeat(hi - lo), word[p]] & bit[p]) != 0]
            dist[by_t[hit]] = level
            pending -= len(hit)
    return dist


def path_distances(g: Graph, src: int,
                   weights: EdgeWeights | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Single-source distances under the (weight, hops) composite key.

    Returns ``(dist_w, dist_h)``; unreachable nodes carry ``(inf, -1)``.
    With ``weights=None`` every edge counts 1 and the two arrays agree.
    """
    if weights is None:
        dw = _hop_rows(g.adjacency_csr(), src)
        return dw, _as_hops(dw)
    W = weights.weighted_csr()
    dw = csgraph.dijkstra(W, indices=src)
    # hop counts: fewest tight edges from src (see the module design notes)
    tight = np.flatnonzero(np.repeat(dw, g.degrees()) + W.data == dw[g.indices])
    T = sp.csr_matrix((np.ones(len(tight)), W.indices[tight], np.searchsorted(tight, W.indptr)),
                      shape=W.shape)
    return dw, _as_hops(_hop_rows(T, src))


def _reconstruct_path(g: Graph, src: int, dst: int, dw: np.ndarray, dh: np.ndarray,
                      weights: EdgeWeights | None) -> list[int]:
    """Lexicographically smallest (weight, hops)-optimal path src -> dst,
    given the distances ``(dw, dh)`` computed *from dst*: each step takes the
    smallest neighbour ``v`` one hop nearer ``dst`` over a tight edge,
    ``dw[v] + w_uv == dw[u]`` exactly (see the module design notes)."""
    if not math.isfinite(dw[src]):
        raise InfeasibleError(f"disconnected pair: no path from {src} to {dst}")
    adj = g.adjacency_csr() if weights is None else weights.weighted_csr()
    path = [src]
    u = src
    while u != dst:
        lo, hi = adj.indptr[u], adj.indptr[u + 1]
        nbrs = adj.indices[lo:hi]
        hits = np.flatnonzero((dh[nbrs] == dh[u] - 1) & (dw[nbrs] + adj.data[lo:hi] == dw[u]))
        if not len(hits):  # cannot happen on consistent distance arrays
            raise RuntimeError("shortest-path reconstruction lost the trail")
        u = int(nbrs[hits[0]])  # neighbours ascend, so the first is smallest
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
    cand = []
    for ia, a in enumerate(nodes):
        for b in nodes[ia + 1:]:
            w = weight[(a, b)]
            if math.isfinite(w):
                cand.append((w, a, b))
    cand.sort()
    fragment = {v: v for v in nodes}  # each node's fragment label
    tree = []
    for w, a, b in cand:
        fa, fb = fragment[a], fragment[b]
        if fa != fb:
            for v in nodes:
                if fragment[v] == fb:
                    fragment[v] = fa
            tree.append((a, b))
            if len(tree) == len(nodes) - 1:
                return tree
    raise InfeasibleError("seeds in different components")
