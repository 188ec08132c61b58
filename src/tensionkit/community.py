"""Seed-centered low-tension community search.

Two strategies over an attributed graph:

* ``tree_community`` (bottom-up): connect the seeds by a minimum spanning
  tree of their metric closure — path lengths counted either in hops
  (``"hops"``) or in summed profile-difference weights (``"weights"``) — and
  expand the tree edges back into their graph paths.
* ``peel_community`` (top-down): start from the whole graph and repeatedly
  remove the highest-scoring node whose removal keeps the seeds connected,
  pruning nodes that become isolated along the way.  Scores are either
  static random draws (``"random"``), the sum of the node's surviving
  incident weights (``"sum"``), or their maximum (``"max"``).  Whether the
  seeds stay connected is decided from a witness, the nodes on
  breadth-first-search tree paths from the first seed to the others: a pick
  off the witness keeps the seeds connected, so only a pick on it runs a new
  search, which also yields the next witness.

Returned node sets are scored by the tension at the exact equilibrium of
the induced subgraph, induced non-tree edges included.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conformation import equilibrium_tensions, profile_matrix
from .errors import InfeasibleError, InputError
from .graph import (EdgeWeights, Graph, minimum_spanning_tree, path_distances,
                    _reconstruct_path)

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


def _check_seeds(g: Graph, seeds) -> list[int]:
    uniq = sorted(set(seeds))
    if not uniq:
        raise InputError("empty node set: at least one seed is required")
    if uniq[0] < 0 or uniq[-1] >= g.node_count:
        raise InputError("seed outside the graph's node range")
    return uniq


def evaluate_solution(g: Graph, latent, nodes, algorithm_tag: str = "custom",
                      tol: float = 1e-9) -> Solution:
    """Score a connected node set by the tension of its induced subgraph at
    equilibrium: :func:`equilibrium_tensions` on a batch of one (exact up to
    ``DENSE_LIMIT`` nodes, within ``tol`` in max-norm above)."""
    olds = sorted(set(nodes))
    if not olds:
        raise InputError("empty node set")
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
    Returns the union of path nodes and the union of path edges.
    """
    seeds = _check_seeds(g, seeds)
    if len(seeds) == 1:
        return {seeds[0]}, set()
    dists = {s: path_distances(g, s, weights) for s in seeds}
    closure: dict[tuple[int, int], float] = {}
    for ia, a in enumerate(seeds):
        dist_a = dists[a][0]
        for b in seeds[ia + 1:]:
            closure[(a, b)] = float(dist_a[b])
    tree = minimum_spanning_tree(seeds, closure)
    nodes: set[int] = set(seeds)
    edges: set[tuple[int, int]] = set()
    for a, b in tree:
        dw, dh = dists[b]
        path = _reconstruct_path(g, a, b, dw, dh, weights)
        nodes.update(path)
        for u, v in zip(path, path[1:]):
            edges.add((u, v) if u < v else (v, u))
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

def _seeds_reachable(g: Graph, alive: list[bool], start: int,
                     targets: set[int]) -> set[int] | None:
    """BFS over the surviving nodes from ``start``.

    Returns the witness of the targets' connectivity, the nodes on the
    BFS-tree paths from ``start`` to every target, or None when some target
    cannot be reached.
    """
    missing = len(targets) - 1  # start is itself a target
    if missing == 0:
        return {start}
    parent = [-1] * g.node_count
    parent[start] = start
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if alive[v] and parent[v] < 0:
                parent[v] = u
                if v in targets:
                    missing -= 1
                    if missing == 0:
                        witness = {start}
                        for t in targets:
                            while t not in witness:
                                witness.add(t)
                                t = parent[t]
                        return witness
                queue.append(v)
    return None


def peel_community(g: Graph, latent, seeds, variant: str = "sum",
                   rng_seed: int = 0, weights: EdgeWeights | None = None) -> Solution:
    """Top-down community search; see the module docstring.

    Every pick rescans the remaining candidates, scoring each against the
    current survivors (ties: lowest node id).  A witness of the seeds'
    connectivity, the nodes on breadth-first-search tree paths from the first
    seed to the others, is kept across picks: a pick outside it leaves those
    paths intact and is removed at once, a pick on it runs one fresh search,
    whose paths become the new witness, or is kept as essential when the
    search fails.  Seeds are never candidates for removal; nodes isolated by a
    removal are pruned away.  ``rng_seed`` fixes the draws of the ``"random"``
    variant.
    """
    if variant not in PEEL_VARIANTS:
        raise InputError(f"unknown peel variant {variant!r} (expected one of {PEEL_VARIANTS})")
    seeds = _check_seeds(g, seeds)
    seed_set = set(seeds)
    n = g.node_count

    static = wadj = by_weight = None
    if variant == "random":
        static = np.random.default_rng(rng_seed).random(n).tolist()
    else:
        if weights is None:
            weights = proxy_weights(g, latent)
        wadj = weights.weighted_adjacency()
        if variant == "max":
            # descending weight order lets the max score stop at the first
            # surviving neighbor
            by_weight = [sorted(pairs, key=lambda t: -t[1]) for pairs in wadj]

    alive = [True] * n
    witness = _seeds_reachable(g, alive, seeds[0], seed_set)
    if witness is None:
        raise InfeasibleError("seeds in different components")

    pool = [v for v in range(n) if v not in seed_set]  # K, ascending id
    deg = g.degrees().tolist()
    kept: list[int] = []  # V': nodes whose removal would split the seeds

    while pool:
        # argmax score over the surviving candidates, rescored per pick
        best_v = -1
        best_s = -math.inf
        survivors: list[int] = []
        for v in pool:
            if not alive[v]:
                continue  # pruned since the last pick
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
        if v in witness:
            fresh = _seeds_reachable(g, alive, seeds[0], seed_set)
            if fresh is None:
                alive[v] = True
                kept.append(v)  # essential: stays in the survivors, leaves K
                continue
            witness = fresh
        # committed; prune candidates the removal isolated (they have no
        # surviving neighbors left, so none lies on a witness path and
        # pruning them isolates nobody else)
        for u in g.neighbors(v):
            if alive[u]:
                deg[u] -= 1
                if deg[u] == 0 and u not in seed_set:
                    alive[u] = False

    result = set(kept) | seed_set
    return evaluate_solution(g, latent, result, algorithm_tag=f"peel-{variant}")
