"""Seed-centered low-tension community search.

Two strategies over an attributed graph:

* ``tree_community`` (bottom-up): connect the seeds by a minimum spanning
  tree of their metric closure — path lengths counted either in hops
  (``"hops"``) or in summed profile-difference weights (``"weights"``) — and
  expand the tree edges back into their graph paths.  Each route returns
  the tree with the distance row that each tree edge's walk reads, and
  computes only those distances and the closure's, out to one bound, with
  weighted hop counts only between each walk's two seeds (see
  ``seed_connector``).
* ``peel_community`` (top-down): start from the whole graph and repeatedly
  remove the highest-scoring node whose removal keeps the seeds connected,
  pruning nodes that become isolated along the way.  Scores are either
  static random draws (``"random"``), the sum of the node's surviving
  incident weights (``"sum"``), or their maximum (``"max"``), all in one
  score array: max scores are upper bounds checked at the pick, sum scores
  are rescanned (see the function).  Whether the seeds stay connected is
  decided from a witness, the nodes on breadth-first-search tree paths from
  the first seed to the others: a pick off the witness keeps the seeds
  connected, so only a pick on it runs a new ``csgraph`` search over the
  survivors, which also yields the next witness.

Returned node sets are scored by the tension at the exact equilibrium of
the induced subgraph, induced non-tree edges included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .conformation import equilibrium_tensions, profile_matrix
from .errors import InfeasibleError, InputError
from .graph import (EdgeWeights, Graph, minimum_spanning_tree, path_distances, _check_weights,
                    _integer_ids, _reconstruct_path, _seed_hop_closure, _seed_weight_closure)

TREE_VARIANTS = ("hops", "weights")
PEEL_VARIANTS = ("random", "sum", "max")
# the paper's five variants as ``algorithm-variant`` tags, trees first
VARIANT_TAGS = (tuple(f"tree-{v}" for v in TREE_VARIANTS)
                + tuple(f"peel-{v}" for v in PEEL_VARIANTS))

WEIGHT_NORMS = ("l2", "l1", "max")


@dataclass(frozen=True)
class Solution:
    """A connected node set with its induced-subgraph tension."""

    nodes: frozenset[int]
    edges_induced: int
    tension: float
    algorithm_tag: str

    def sorted_nodes(self) -> list[int]:
        return sorted(self.nodes)


def proxy_weights(g: Graph, latent, norm: str = "l2") -> EdgeWeights:
    """Per-edge profile difference: ``|x_u - x_v|`` for a single attribute,
    a vector norm of the difference for several (``l2`` by default)."""
    X = profile_matrix(g, latent)
    if norm not in WEIGHT_NORMS:
        raise InputError(f"unknown weight norm {norm!r} (expected one of {WEIGHT_NORMS})")
    ea = g.edge_array()
    diffs = X[ea[:, 0]] - X[ea[:, 1]]
    if norm == "l2":
        vals = np.linalg.norm(diffs, axis=1)
    elif norm == "l1":
        vals = np.abs(diffs).sum(axis=1)
    else:
        vals = np.abs(diffs).max(axis=1) if len(diffs) else np.zeros(0)
    return EdgeWeights(g, vals)


def _check_ids(g: Graph, nodes, what: str = "seed") -> list[int]:
    """``nodes``, a flat list of node ids of ``g`` (``graph._integer_ids``),
    as sorted distinct ints; :class:`InputError` otherwise or when empty."""
    ids = _integer_ids(nodes, what, g.node_count, ndim=1)
    if not len(ids):
        raise InputError(f"empty node set: at least one {what} is required")
    return np.unique(ids).tolist()


def evaluate_solution(g: Graph, latent, nodes, algorithm_tag: str = "custom",
                      tol: float = 1e-9) -> Solution:
    """Score a connected node set by the tension of its induced subgraph at
    equilibrium: :func:`equilibrium_tensions` on a batch of one (exact up to
    ``DENSE_LIMIT`` nodes, within ``tol`` in max-norm above)."""
    olds = _check_ids(g, nodes, "node")
    tension, edges = equilibrium_tensions(g, latent, [olds], tol=tol)
    return Solution(frozenset(olds), int(edges[0]), float(tension[0]), algorithm_tag)


Solver = Callable[[Graph, np.ndarray, list[int], EdgeWeights | None], Solution]


def community_solver(algorithm: str, variant: str, rng_seed: int = 0) -> Solver:
    """A uniform solver handle ``solve(g, latent, seeds, weights=None)`` for
    one of the :data:`VARIANT_TAGS`; ``rng_seed`` fixes ``peel-random``.

    Raises :class:`InputError` for an unknown pair at once.
    """
    tag = f"{algorithm}-{variant}"
    if tag not in VARIANT_TAGS:
        raise InputError(f"unknown algorithm and variant {tag!r} "
                         f"(expected one of {VARIANT_TAGS})")
    if algorithm == "tree":
        def solve(g, latent, seeds, weights=None):
            return tree_community(g, latent, seeds, variant=variant, weights=weights)
    else:
        def solve(g, latent, seeds, weights=None):
            return peel_community(g, latent, seeds, variant=variant,
                                  rng_seed=rng_seed, weights=weights)
    return solve


# -- bottom-up: metric-closure spanning tree --------------------------------

def seed_connector(g: Graph, seeds, weights: EdgeWeights | None = None
                   ) -> tuple[set[int], set[tuple[int, int]]]:
    """Connect the seeds through a metric-closure MST expanded into paths.

    Path lengths are hop counts when ``weights`` is None, else summed edge
    weights (ties: fewest hops, then lexicographically smallest sequence).
    Float path sums need not be symmetric, so the orientation is fixed: the
    closure of seeds ``a < b`` reads ``a``'s row, and the walk reads ``b``'s.
    With weights, one Dijkstra call computes every seed's row just past the
    bottleneck of the seeds' Voronoi-boundary graph (one multi-source
    Dijkstra), the closure tree's longest edge up to rounding, and all again
    in full where that falls short.  The walk on ``b``'s row counts tight
    edges only over ``b``'s corridor, the nodes ``v`` with ``d(b, v) + d(a,
    v)`` within a rounding slack of ``d(b, a)`` for the seeds ``a`` it is
    walked from.  When that bottleneck is 0, the seeds share one zero-weight
    plateau: the tree is the star from the first seed, over one row limited
    at 0 and one hop search from all the other seeds.  In hop mode, 3 or
    more seeds share one bit-parallel search that stops at the first level
    where Kruskal on the resolved pairs spans them; two seeds, or seeds that
    64 levels leave unconnected, take one :func:`path_distances` row per
    seed and :func:`minimum_spanning_tree` of their ``(k, k)`` closure.
    Every route returns the tree, as seed index pairs, with the row each
    tree edge's walk reads, and gives the per-seed route's answer (see the
    ``graph`` design notes).  Returns the union of path nodes and of path
    edges.
    """
    seeds = _check_ids(g, seeds)
    if len(seeds) == 1:
        return {seeds[0]}, set()
    if weights is not None:
        joint = _seed_weight_closure(g, seeds, weights)
    else:
        joint = _seed_hop_closure(g, seeds) if len(seeds) >= 3 else None
    if joint is None:
        rows = [path_distances(g, s) for s in seeds]
        tree = minimum_spanning_tree(np.array([dw[seeds] for dw, _ in rows]))
        rows = [rows[j] for _, j in tree]
    else:
        tree, rows = joint
    nodes: set[int] = set(seeds)
    edges: set[tuple[int, int]] = set()
    for (i, j), (dw, dh) in zip(tree, rows):
        path = _reconstruct_path(g, seeds[i], seeds[j], dw, dh, weights)
        nodes.update(path)
        edges.update((min(e), max(e)) for e in zip(path, path[1:]))
    return nodes, edges


def tree_community(g: Graph, latent, seeds, variant: str = "hops",
                   weights: EdgeWeights | None = None) -> Solution:
    """Bottom-up community search; see the module docstring."""
    if variant not in TREE_VARIANTS:
        raise InputError(f"unknown tree variant {variant!r} (expected one of {TREE_VARIANTS})")
    lengths = None
    if variant == "weights":
        lengths = weights if weights is not None else proxy_weights(g, latent)
    nodes, _ = seed_connector(g, seeds, lengths)
    return evaluate_solution(g, latent, nodes, algorithm_tag=f"tree-{variant}")


# -- top-down: score-guided peeling -----------------------------------------

def _seeds_reachable(g: Graph, alive, start: int, targets: set[int]) -> set[int] | None:
    """The witness of the targets' connectivity over the surviving nodes
    (``alive``: a flag per node, list or array): the nodes on the paths from
    ``start`` to every target in a breadth-first-search tree, or None when
    some target cannot be reached."""
    if len(targets) == 1:  # start is itself a target
        return {start}
    # an entry into a dead node leads back to start, which the search has
    # already visited; a dead node's own row is never reached
    into = np.where(np.asarray(alive, dtype=bool)[g.indices], g.indices, start)
    adj = sp.csr_matrix((np.ones(len(into)), into, g.indptr), shape=(g.node_count,) * 2)
    _, parent = csgraph.breadth_first_order(adj, start, return_predecessors=True)
    if any(parent[t] < 0 for t in targets if t != start):
        return None
    witness = {start}
    for t in targets:
        while t not in witness:
            witness.add(t)
            t = int(parent[t])
    return witness


def _best_sum(candidates: list[int], wadj, live: list[bool]) -> int:
    """The candidate whose surviving weights, summed in neighbor order, are
    largest (ties: lowest id; -1: none)."""
    best_v, best_s = -1, -math.inf
    for v in candidates:
        s = 0.0
        for u, w in wadj[v]:
            if live[u]:
                s += w
        if s > best_s:
            best_v, best_s = v, s
    return best_v


def peel_community(g: Graph, latent, seeds, variant: str = "sum",
                   rng_seed: int = 0, weights: EdgeWeights | None = None) -> Solution:
    """Top-down community search; see the module docstring.

    ``score`` is the only candidate structure: a candidate is a finite
    entry; seeds, picks, kept and pruned nodes are ``-inf``.  A pick is the
    first maximum of the exact scores (ties: lowest id).  ``"random"`` draws
    are static.  ``"max"`` starts each row at its largest weight (``0.0`` when
    empty); a removal only lowers a largest surviving weight, so a stale
    entry is an upper bound, and an ``argmax`` whose entry is not its node's
    largest surviving weight is lowered to it and the ``argmax`` taken again.
    Only a removed neighbor makes an entry stale, so there are at most ``2E``
    lowerings (about 2.2 k for 1.6 k picks per seed set on the benchmark's
    2 000-node planted graph).  ``"sum"`` rescans the candidates in Python,
    summing in neighbor order: a sparse product gives the same sums faster,
    but too close to the max variant's time for the runtime ordering the
    paper reports.
    """
    if variant not in PEEL_VARIANTS:
        raise InputError(f"unknown peel variant {variant!r} (expected one of {PEEL_VARIANTS})")
    seeds = _check_ids(g, seeds)
    seed_set = set(seeds)
    n = g.node_count
    indptr, indices = g.indptr, g.indices

    if variant == "random":
        score = np.random.default_rng(rng_seed).random(n)
    else:
        if weights is None:
            weights = proxy_weights(g, latent)
        _check_weights(g, weights)
        wdata = weights.weighted_csr().data
        score = np.zeros(n)
        if variant == "sum":
            pairs = list(zip(indices.tolist(), wdata.tolist()))
            bounds = indptr.tolist()
            wadj = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]
        else:
            rows = np.flatnonzero(g.degrees())
            score[rows] = np.maximum.reduceat(wdata, indptr[rows])
    is_seed = np.isin(np.arange(n), seeds)
    score[seeds] = -np.inf

    alive, live = np.ones(n, dtype=bool), [True] * n  # live: for the sum loop
    witness = _seeds_reachable(g, alive, seeds[0], seed_set)
    if witness is None:
        raise InfeasibleError("seeds in different components")
    deg = g.degrees().copy()  # surviving neighbors of each surviving node
    kept: list[int] = []  # V': nodes whose removal would split the seeds

    while True:
        if variant == "sum":
            v = _best_sum(np.flatnonzero(score > -np.inf).tolist(), wadj, live)
            if v < 0:
                break
        else:
            v = int(score.argmax())
            if score[v] == -np.inf:
                break
            if variant == "max":
                row = slice(indptr[v], indptr[v + 1])
                top = wdata[row][alive[indices[row]]].max(initial=0.0)
                if top != score[v]:
                    score[v] = top
                    continue
        score[v] = -np.inf
        alive[v] = live[v] = False
        if v in witness:
            fresh = _seeds_reachable(g, alive, seeds[0], seed_set)
            if fresh is None:
                alive[v] = live[v] = True
                kept.append(v)  # essential: survives, but leaves the candidates
                continue
            witness = fresh
        # committed; prune the candidates it isolated: none lies on a witness
        # path, and no other node's degree or score depends on them
        nbrs = indices[indptr[v]:indptr[v + 1]]
        nbrs = nbrs[alive[nbrs]]
        deg[nbrs] -= 1
        gone = nbrs[deg[nbrs] == 0]
        if gone.size:
            gone = gone[~is_seed[gone]]
            alive[gone] = False
            score[gone] = -np.inf
            for u in gone.tolist():
                live[u] = False

    result = set(kept) | seed_set
    return evaluate_solution(g, latent, result, algorithm_tag=f"peel-{variant}")
