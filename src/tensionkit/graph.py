"""Undirected graph core: construction, subgraphs, traversal, spanning trees.

Design notes
------------
Nodes are contiguous ids ``0..n-1``.  A ``Graph`` is CSR arrays built in one
vectorized pass: the canonical edges ``u < v`` sorted by their keys ``u * n
+ v`` (kept for binary search), ``indptr`` / ``indices`` with columns
ascending in each row, and ``edge_ids``, the edge of each CSR entry, so a
weight vector becomes CSR data as ``values[edge_ids]``.  Sorted neighbors
make every traversal, and every tie-break on top of one, deterministic.
``edges_within`` finds a member's block of edges to higher ids by a binary
search of the keys.
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
per source (Then et al., VLDB 2014).  One level iterator, ``_bit_levels``,
runs it for pair distances and for the hop seed connector below.  A batch
of ``64 * words`` sources keeps ``seen``, an ``(n, words)`` uint64 array,
and a frontier of nodes with the words they gained at the last level.  A
level finds the words arriving at each node, masks them with ``~seen`` and
keeps the nonzero rows; a pair resolves at the level where its target's
row gains its source's bit.  Each level picks a direction (Beamer, Asanovic and Patterson,
SC 2012).  A *push* expands the frontier rows over the CSR arrays, sorts the
entries by neighbour and ORs the words arriving at each: it costs the
frontier's CSR entries times ``words`` plus a sort.  Once ``PULL_FACTOR``
(4) times those entries exceeds all 2E, the level *pulls* instead: every
nonempty row ORs its neighbours' ``seen`` words over its own CSR entries,
one ``reduceat`` per word, with no sort, and masks them with its own
``~seen``; a neighbour's bit from an earlier level has already reached the
row, so only the last level's bits survive.  A pull costs 2E times
``words`` plus n, at most ``PULL_FACTOR`` times what the push would expand.
On a small-world graph the frontier covers the graph after two or three
levels, and a pull then costs about half a push or less (timings in
CHANGES.md).
``words`` is sized so that ``seen`` and the expanded rows hold at most
``PAIR_ELEMENTS`` words each (32 MB; one word per node or CSR entry on
larger graphs).  Beyond that a level costs the pairs of the targets it
reaches, never the pair count.  On a deep graph the words would be
expanded once per level, about n * depth * S / 64 word operations for S
sources, so after ``FINISH_DEPTH`` (64) levels a batch finishes its
pending pairs with ``_hop_rows`` per source, in matrices of at most
``PAIR_ELEMENTS`` entries (one row on larger graphs).  The 64 levels before
cost at most 2E word operations per source, about one BFS each.
The hop seed connector (``_seed_hop_closure``, behind ``seed_connector``)
runs the same levels from 3 to 64 seeds, one bit each in a single word.  A
seed pair resolves at the level where one seed's row gains the other's
bit, and the search stops at the first level whose resolved pairs connect
all seeds.  Kruskal on that closure, unresolved pairs ``inf``, returns the
tree Kruskal returns on the full closure: the resolved pairs sort first
and already connect the seeds, and every unresolved pair is longer.  Each
level's ``(front, words)`` is kept, and the walk of a tree edge ``(a, b)``
reads ``b``'s distances rebuilt from the levels below ``d(a, b)`` plus
``a`` itself, ``inf`` elsewhere, never past the stop level.  That is exact
for the walk: from a node at distance ``t`` it steps only to a neighbour at
``t - 1``, which the rebuilt row holds, and a neighbour shown ``inf`` lies
at ``t`` or ``t + 1``.  A node gains bits at most once a level and once a
seed, so the kept levels hold at most n * min(k, levels) entries for k
seeds, never more than the k full ``(dist_w, dist_h)`` rows of the
per-seed route.  Two seeds take that route (the joint search lost to two
BFS up to about n = 5 000), as do more than 64 seeds and seeds that
``FINISH_DEPTH`` levels leave unconnected.  A node joins at most one
frontier a seed, so the 64 levels before cost at most ``PULL_FACTOR``
BFS a seed in word operations (3.4 ms against 178 ms for the seven rows on
a 200 k-node path).
Weights come from ``dijkstra``, then hops from a BFS over the *tight* edges
``u -> v`` with ``dist_w[u] + w_uv == dist_w[v]``.  The equality is exact:
a float Dijkstra sets ``dist_w[v]`` to the smallest rounded sum ``dist_w[u]
+ w_uv``, so exactly the edges that realise it are tight, zero-weight
plateaus and absorbed weights (``d + w == d``) included.  A tolerance would
admit near-ties that no minimum-weight path uses and change hop counts.
The path walk obeys the same rule: each step goes to the smallest neighbour
one hop nearer the target over a tight edge, in hop and weighted mode alike.
Zero weights are edges, kept as explicit CSR entries.

The weighted seed connector (``_seed_weight_closure``) computes only the
rows its closure and walks read.  The closure of seeds ``a < b`` reads
``a``'s row at ``b``, so every seed but the largest gets one ``dijkstra``
row and no hop row.  The walk of a tree edge ``(a, b)`` starts at ``a`` and
steps to ever nearer nodes of ``b``'s row, so it reads that row only where
``dw_b <= dw_b[a]``.  A walk target ``b`` therefore gets its tight-edge hop
row (``_tight_hops``) only over the ball ``dw_b <= reach_b``, ``reach_b``
the largest ``dw_b[a]`` over its tree edges, read from ``b``'s own row.
That is exact: ``dw`` never decreases along a tight edge, so every tight
path from ``b`` to a node in the ball stays in the ball, and a neighbour
outside it has ``dw > dw[u]`` and is never tight.  The largest seed's row
comes last, with a ``dijkstra`` ``limit`` (inclusive): the largest closure
distance ``d(a -> b)`` among its tree edges, times ``1 +
_orientation_margin(n)``.  A limited row holds the full row's values within
the limit, because the relaxation that sets ``dw[v]`` comes from a node with
``dw <= dw[v]`` and a rounded sum of nonnegative terms is no smaller than
either.  The walk reads ``d(b -> a)``, the other orientation.  A float
Dijkstra distance is at most the rounded running sum along any path, and a
path of at most ``n - 1`` edges rounds at most ``n - 2`` times in either
orientation, each time by a relative ``u = 2**-53`` at most; so ``d(b -> a)
<= d(a -> b) (1 + 2(n - 2)u)`` to first order.  The margin ``2nu`` covers
that and the rounding of the limit itself up to about ``2**26`` nodes.  If a
walk source still reads ``inf``, the row is computed again without a limit,
so a limited row never yields a false disconnected pair.  On comm-large's
seed sets (20 k nodes, 100 k edges, 7 seeds) that is 6 full rows, one
limited row and about 4 hop rows over a median 22 % of the nodes, where
the per-seed route computed 7 full rows of each: 84 against 63 ms a
connector on a 2-core x86-64.
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
FINISH_DEPTH = 64  # levels a bit-parallel search runs before it goes per source
PULL_FACTOR = 4  # a level pulls once this times the frontier's CSR entries exceeds 2E


class Graph:
    """Immutable simple undirected graph over node ids ``0..n-1``, from
    ``(u, v)`` pairs or an ``(E, 2)`` array; duplicate and reversed pairs
    collapse into one edge."""

    __slots__ = ("node_count", "edge_count", "indptr", "indices", "edge_ids",
                 "_keys", "_csr")

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
        self._keys = keys
        self._csr = None

    # -- basic accessors -------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return list(zip(*self.edge_array().T.tolist()))

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_array(self) -> np.ndarray:
        """Edges as an (E, 2) int array, rows in :meth:`edges` order."""
        return np.column_stack(np.divmod(self._keys, self.node_count))

    def edges_within(self, nodes: Iterable[int]) -> np.ndarray:
        """Ascending positions in :meth:`edge_array` of the edges with both
        ends in ``nodes``: each member's block of edges to higher ids,
        filtered by its other end, or a mask over every edge when those
        blocks hold more than a third of them, about where the mask was
        timed to become the cheaper of the two."""
        keep = np.zeros(self.node_count, dtype=bool)
        keep[np.fromiter(nodes, dtype=np.int64)] = True
        members = np.flatnonzero(keep)
        lo, hi = self._keys.searchsorted(np.stack([members, members + 1]) * self.node_count)
        if 3 * (hi - lo).sum() > self.edge_count:
            u, v = np.divmod(self._keys, self.node_count)
            return np.flatnonzero(keep[u] & keep[v])
        pos = _ranges(lo, hi)
        return pos[keep[self._keys[pos] % self.node_count]]

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

    def weighted_csr(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency; zero weights stay explicit entries."""
        if self._csr is None:
            self._csr = _symmetric_csr(self.graph, self.values)
        return self._csr

    def with_zeroed(self, pairs: Iterable[tuple[int, int]]) -> "EdgeWeights":
        """Copy with the edges ``pairs`` (tuples or a (k, 2) array) set to
        zero; a pair that is no edge raises :class:`InputError`."""
        uv = np.array(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        uv = np.sort(uv.reshape(-1, 2), axis=1)
        at, found = _find_edges(self.graph, uv[:, 0], uv[:, 1])
        if not found.all():
            raise InputError(f"cannot zero non-edge {tuple(uv[np.argmin(found)].tolist())}")
        values = self.values.copy()
        values[at] = 0.0
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
    inside = remap[np.column_stack(np.divmod(g._keys[g.edges_within(olds)], g.node_count))]
    return Graph(len(olds), inside), olds


def largest_component(g: Graph) -> list[int]:
    """Nodes of the largest component (ties: smallest minimum id), sorted."""
    _, labels = csgraph.connected_components(g.adjacency_csr(), directed=False)
    size = np.bincount(labels)[labels]
    # the lowest id in a largest component names the component to keep
    return np.flatnonzero(labels == labels[np.argmax(size == size.max())]).tolist()


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


def _bit_levels(g: Graph, sources: np.ndarray):
    """The levels of one breadth-first search from all ``sources``
    (ascending, distinct) over the CSR arrays, bit ``j`` of a node's row of
    words marking ``sources[j]``: yields, for levels 1, 2, ..., the nodes
    that gained bits (ascending) and the words they gained, and stops at the
    first level where no node gains one.  Each level pushes or pulls (see
    the design notes)."""
    n, words = g.node_count, -(-len(sources) // 64)
    indptr, indices = g.indptr, g.indices
    k = np.arange(len(sources))
    front = sources
    fw = np.zeros((len(sources), words), dtype=np.uint64)
    fw[k, k >> 6] = np.left_shift(np.uint64(1), (k & 63).astype(np.uint64))
    seen = np.zeros((n, words), dtype=np.uint64)
    seen[front] = fw
    while True:
        lo, hi = indptr[front], indptr[front + 1]
        if PULL_FACTOR * (hi - lo).sum() > len(indices):
            front, fw = _pull(indptr, indices, seen)
        else:
            front, fw = _push(indices, lo, hi, fw, seen)
        if not len(front):
            return
        seen[front] |= fw
        yield front, fw


def _bit_bfs(g: Graph, sources: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Hop distances from ``sources[q[k]]`` to ``t[k]`` (distinct ends): a
    pair resolves at the level of :func:`_bit_levels` where its target's row
    gains its source's bit."""
    n = g.node_count
    dist = np.full(len(q), np.inf)
    by_t = np.argsort(t, kind="stable")  # a node's pairs are one slice of ts
    ts, word = t[by_t], q[by_t] >> 6
    bit = np.left_shift(np.uint64(1), (q[by_t] & 63).astype(np.uint64))
    pending = len(q)
    for level, (front, fw) in enumerate(_bit_levels(g, sources), 1):
        # pairs whose target just gained bits: resolved where it gained theirs
        lo, hi = ts.searchsorted(front), ts.searchsorted(front, side="right")
        p = _ranges(lo, hi)
        if len(p):
            hit = p[(fw[np.arange(len(front)).repeat(hi - lo), word[p]] & bit[p]) != 0]
            dist[by_t[hit]] = level
            pending -= len(hit)
        if not pending:
            break
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
    return dist


def _seed_hop_closure(g: Graph, seeds: Sequence[int]):
    """Hop closure of 2 to 64 ascending, distinct seeds from one search over
    :func:`_bit_levels`, stopped at the first level whose resolved pairs
    connect every seed (see the design notes).  Returns the ``(k, k)`` seed
    distances, ``inf`` for a pair unresolved at the stop, and ``walks(tree)``:
    for each tree edge ``(a, b)``, what the walk from seed ``a`` to seed
    ``b`` reads of ``b``'s distances, rebuilt from the recorded levels below
    ``d(a, b)`` plus ``a`` itself (``inf`` elsewhere), as one float row that
    serves :func:`_reconstruct_path` for both weights and hops.  Returns None
    when ``FINISH_DEPTH`` levels leave the seeds unconnected."""
    s = np.asarray(seeds, dtype=np.int64)
    k = len(s)
    bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    hops = np.full((k, k), np.inf)
    np.fill_diagonal(hops, 0.0)
    fronts, words = [s], [bits]  # level 0: each seed holds its own bit
    resolved = 0  # ordered pairs: each pair resolves at both of its seeds
    for level, (front, fw) in enumerate(_bit_levels(g, s), 1):
        fronts.append(front)
        words.append(fw[:, 0])
        at = front.searchsorted(s)
        on = np.flatnonzero(front.take(at, mode="clip") == s)
        if len(on):  # seeds that gained other seeds' bits: pairs at this level
            i, j = np.nonzero(fw[at[on]] & bits)
            hops[on[i], j] = level
            resolved += len(i)
            if resolved >= 2 * (k - 1) and _spans(hops):  # enough pairs for a tree
                break
        if level == FINISH_DEPTH:
            return None
    sizes = [len(f) for f in fronts]
    nodes, got = np.concatenate(fronts), np.concatenate(words)
    level_of, ends = np.repeat(np.arange(float(len(sizes))), sizes), np.cumsum(sizes)

    def walks(tree: list[tuple[int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for a, b in tree:
            ia, ib = s.searchsorted([a, b])
            d = int(hops[ia, ib])
            hit = np.flatnonzero(got[:ends[d - 1]] & bits[ib])
            dist = np.full(g.node_count, np.inf)
            dist[nodes[hit]] = level_of[hit]
            dist[a] = d
            out.append((dist, dist))
        return out

    return hops, walks


def _spans(hops: np.ndarray) -> bool:
    """Whether the finite entries of a symmetric distance matrix connect
    all its rows: the rows joined to the first, grown to a fixed point."""
    joined = np.isfinite(hops[0])
    while not joined.all():
        grown = np.isfinite(hops[joined]).any(axis=0)
        if (grown == joined).all():
            return False
        joined = grown
    return True


def _push(indices, lo, hi, fw, seen):
    """One level from the frontier (CSR rows ``lo:hi`` with words ``fw``):
    its entries sorted by neighbour, their words OR-combined per neighbour
    and masked with ``~seen``; returns the nodes that gained bits and their
    new words."""
    nbr = indices[_ranges(lo, hi)]
    if not len(nbr):
        return nbr, fw[:0]
    order = nbr.argsort()
    nbr = nbr[order]
    head = np.empty(len(nbr), dtype=bool)
    head[0] = True
    np.not_equal(nbr[1:], nbr[:-1], out=head[1:])
    head = head.nonzero()[0]
    node = nbr[head]
    new = np.bitwise_or.reduceat(fw.take(np.arange(len(lo)).repeat(hi - lo)[order], axis=0),
                                 head, axis=0) & ~seen[node]
    keep = new.any(axis=1)
    return node[keep], new[keep]


def _pull(indptr, indices, seen):
    """The same level read the other way, with no sort: each nonempty CSR
    row ORs its neighbours' ``seen`` words and masks them with its own
    ``~seen``.  A neighbour that held a bit before the last level passed it
    to this row at the last level at the latest, so only the bits the
    neighbours gained at the last level survive, as in a push.  One reduceat
    per word beats one over ``(2E, words)`` rows, which numpy walks column
    by column."""
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])  # reduceat takes no empty row
    new = np.empty((seen.shape[1], len(rows)), dtype=np.uint64)
    for word, out in zip(seen.T, new):
        np.bitwise_or.reduceat(word.take(indices), indptr[rows], out=out)
    new = new.T & ~seen[rows]
    keep = new.any(axis=1)
    return rows[keep], new[keep]


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
    return dw, _tight_hops(W, dw, src)


def _tight_hops(W: sp.csr_matrix, dw: np.ndarray, src: int, reach: float = math.inf
                ) -> np.ndarray:
    """Fewest tight edges from ``src`` to each node of the ball ``dw <=
    reach``, given ``src``'s weighted row ``dw``; -1 outside the ball and
    where unreachable.  Only the ball's CSR rows are read: a tight path never
    leaves it (see the module design notes)."""
    ball = np.flatnonzero(dw <= reach)
    lo, hi = W.indptr[ball], W.indptr[ball + 1]
    at = _ranges(lo, hi)
    end = dw[W.indices[at]]
    tight = at[(dw[ball].repeat(hi - lo) + W.data[at] == end) & (end <= reach)]
    T = sp.csr_matrix((np.ones(len(tight)), W.indices[tight], np.searchsorted(tight, W.indptr)),
                      shape=W.shape)
    return _as_hops(_hop_rows(T, src))


def _orientation_margin(n: int) -> float:
    """Relative bound on how far the two orientations of a path sum differ
    on ``n`` nodes: ``2n`` unit roundoffs (see the module design notes)."""
    return 2 * n * (np.finfo(np.float64).eps / 2)


def _seed_weight_closure(g: Graph, seeds: Sequence[int], weights: EdgeWeights):
    """Weighted closure of 2 or more ascending, distinct seeds, computing
    only what the closure and the walks read (see the module design notes).
    Returns the ``(k, k)`` seed distances, the largest seed's row ``inf``
    because the closure reads only the smaller seed's row, and
    ``walks(tree)``: for each edge ``(a, b)`` of a spanning tree of that
    closure, the ``(dw, dh)`` of ``b`` that the walk from ``a`` reads, its
    hops only within the ball ``dw <= max dw[a]`` over ``b``'s tree edges."""
    W = weights.weighted_csr()
    s = np.asarray(seeds, dtype=np.int64)
    head = csgraph.dijkstra(W, indices=s[:-1])
    rows = dict(zip(s[:-1].tolist(), head))
    dist = np.vstack([head[:, s], np.full(len(s), np.inf)])
    last = int(s[-1])

    def walks(tree: list[tuple[int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
        ends = [a for a, b in tree if b == last]  # the largest seed is in every tree
        at = s.searchsorted(ends)
        limit = dist[at, -1].max() * (1.0 + _orientation_margin(g.node_count))
        rows[last] = csgraph.dijkstra(W, indices=last, limit=limit)
        if np.isinf(rows[last][ends]).any():  # rounded past the margin
            rows[last] = csgraph.dijkstra(W, indices=last)
        reach: dict[int, float] = {}
        for a, b in tree:
            reach[b] = max(reach.get(b, 0.0), rows[b][a])
        hops = {b: _tight_hops(W, rows[b], b, r) for b, r in reach.items()}
        return [(rows[b], hops[b]) for _, b in tree]

    return dist, walks


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
