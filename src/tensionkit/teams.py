"""Low-tension team formation over a skill-annotated graph.

``form_team`` reduces team formation to community search in two steps:
first the graph is extended with one node per skill (connected to every
holder of that skill, carrying the holders' mean latent profile, with the
new edges weight-zeroed in the proxy overlay) and the community solver is
run with the project's skill nodes as seeds; then the skill nodes are
stripped and the solver is re-run on the original graph with the surviving
individuals as seeds, which yields the final team.

``greedy_fixed_size`` grows connected sets of an exact target size from
many starts, steering by proxy-weight increments and scoring the finished
sets together at the exact equilibrium.  Each step adds the frontier node
with the smallest ``(delta, id)``: ``delta`` is the sum of the squared proxy
weights from the node to the members, accumulated in pick order, and ties
go to the lowest id.  All starts grow in lockstep on the CSR arrays, one
pick per start per step:

* A start's row of slots holds its start and every node it has seen, as
  the complex number ``delta + 1j * id``; a ``(start, node) -> slot`` map
  finds them.  numpy orders complex numbers by real, then imaginary part,
  so one ``min`` applies the ``(delta, id)`` rule.  A row needs at most
  ``C = min(n, 1 + the k - 1 largest degrees summed)`` slots.
* Rows are cut into blocks that keep their ``(delta, id)`` minimum.  A step
  refreshes only the blocks it touched, each once (a stamp array keeps one
  occurrence of each), then reads the row's smallest block minimum.  Per row and step, that is
  ``size`` entries for each touched block plus ``C / size`` block minima.
  A step touches the pick's block, the one or two blocks its new neighbors
  are appended to, and the blocks of neighbors already seen.  Hence
  ``size = sqrt(16 C / max degree)``; a flat scan of the row (one block)
  made the growth quadratic in ``k``.
* One batch holds as many starts as ``GROWTH_ELEMENTS`` allows for the
  dense map (starts x nodes entries, 32 MB of int32 at the cap).  That is
  every start of the ``all_starts_limit`` default, and up to 41 starts at
  200 k nodes, so the per-step numpy overhead is paid once per step.  The
  slot rows add 16 bytes per slot, B x C slots for B starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# ``community_solver`` is re-exported: callers also look it up here
from .community import Solution, Solver, community_solver, proxy_weights
from .conformation import equilibrium_tensions, profile_matrix
from .errors import InfeasibleError, InputError
from .graph import EdgeWeights, Graph, largest_component, _check_weights, _integer_ids, _ranges

GROWTH_ELEMENTS = 1 << 23  # cap on starts x nodes grown in one batch
# block size sqrt(BLOCK_FACTOR * C / max degree): of 1, 4, 16 and 64, 16 ran
# fastest at 200 k nodes for k = 3000 and no slower for k = 3..10 at 500
BLOCK_FACTOR = 16


@dataclass(frozen=True)
class SkillMap:
    """Which nodes hold which skills.

    ``labels`` is the sorted skill universe; ``holders[k]`` is the set of
    nodes holding ``labels[k]``.
    """

    labels: tuple[str, ...]
    holders: tuple[frozenset[int], ...]

    @classmethod
    def from_counts(cls, node_count: int,
                    entries: Iterable[tuple[int, str, int]],
                    threshold: int = 4) -> "SkillMap":
        """Build from (node, label, count) rows; a node holds a skill when
        its accumulated count reaches ``threshold``."""
        if threshold < 1:
            raise InputError("skill threshold must be at least 1")
        totals: dict[tuple[int, str], int] = {}
        labels: set[str] = set()
        for node, label, count in entries:
            labels.add(label)
            totals[(node, label)] = totals.get((node, label), 0) + count
        _integer_ids({node for node, _ in totals}, "skill entry node", node_count)
        ordered = tuple(sorted(labels))
        pos = {lab: k for k, lab in enumerate(ordered)}
        holder_sets: list[set[int]] = [set() for _ in ordered]
        for (node, label), count in totals.items():
            if count >= threshold:
                holder_sets[pos[label]].add(int(node))
        return cls(ordered, tuple(frozenset(h) for h in holder_sets))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown skill {label!r}") from None

    def holders_of(self, label: str) -> frozenset[int]:
        return self.holders[self.index(label)]


@dataclass(frozen=True)
class TeamResult:
    """Final team plus diagnostics of the two-step reduction."""

    solution: Solution
    step1_individuals: frozenset[int]
    step2_noop: bool


def skill_extended_graph(g: Graph, skills: SkillMap, latent
                         ) -> tuple[Graph, dict[str, int], np.ndarray]:
    """Extend the graph with one node per skill, adjacent to every holder.

    A skill node carries the attribute-wise mean latent profile of its
    holders (zeros when nobody holds the skill).  Returns the extended
    graph, the label -> skill-node-id map, and the extended latent matrix.
    """
    X = profile_matrix(g, latent)
    n = g.node_count
    ids = {label: n + k for k, label in enumerate(skills.labels)}
    holders = [np.array(sorted(h), dtype=np.int64) for h in skills.holders]
    skill_edges = np.column_stack([
        np.concatenate([np.empty(0, np.int64), *holders]),
        np.repeat(np.arange(n, n + len(holders)), [len(h) for h in holders])])
    rows = [X] + [X[h].mean(axis=0, keepdims=True) if len(h) else np.zeros((1, X.shape[1]))
                  for h in holders]
    ext = Graph(n + len(skills.labels), np.concatenate([g.edge_array(), skill_edges]))
    return ext, ids, np.vstack(rows)


def form_team(g: Graph, latent, skills: SkillMap, required: Iterable[str],
              solver: Solver, weights: EdgeWeights | None = None,
              weight_norm: str = "l2") -> TeamResult:
    """Find a connected team covering all ``required`` skills (see module
    docstring for the two-step reduction)."""
    labels = sorted(set(required))
    if not labels:
        raise InputError("a project must require at least one skill")
    for label in labels:
        if not skills.holders_of(label):
            raise InfeasibleError(f"uncoverable skill: {label!r}")

    # step 1: community of skill nodes in the extended graph
    ext, ids, ext_latent = skill_extended_graph(g, skills, latent)
    # the base edges keep their order among the extended graph's edges;
    # the skill edges, whose upper end is a skill node, weigh zero
    base = proxy_weights(g, latent, weight_norm)
    ext_values = np.zeros(ext.edge_count)
    ext_values[ext.edge_array()[:, 1] < g.node_count] = base.values
    ext_weights = EdgeWeights(ext, ext_values)
    seed_nodes = [ids[label] for label in labels]
    step1 = solver(ext, ext_latent, seed_nodes, ext_weights)
    individuals = {v for v in step1.nodes if v < g.node_count}
    if not individuals:
        # single-skill degenerate case: the skill-node community is the bare
        # seed, so fall back to the smallest-id holder (optimal on its own)
        individuals = {min(skills.holders_of(labels[0]))}

    # step 2: community of those individuals in the original graph
    final = solver(g, latent, sorted(individuals), base if weights is None else weights)
    for label in labels:
        if not (skills.holders_of(label) & final.nodes):
            raise InfeasibleError(f"team formation lost coverage of skill {label!r}")
    return TeamResult(solution=final,
                      step1_individuals=frozenset(individuals),
                      step2_noop=final.nodes == frozenset(individuals))


def greedy_fixed_size(g: Graph, latent, k: int,
                      weights: EdgeWeights | None = None,
                      rng_seed: int = 0, all_starts_limit: int = 500,
                      sampled_starts: int = 32) -> Solution:
    """Best connected set of exactly ``k`` nodes found by greedy growth.

    From every candidate start (all nodes when the graph has at most
    ``all_starts_limit``, otherwise a seeded sample of ``sampled_starts``),
    repeatedly add the frontier node with the smallest ``(delta, id)``,
    where ``delta`` sums the squared proxy weights of its edges to the
    members in pick order; a start whose frontier runs out first drops out.
    All starts grow in lockstep (see the module docstring).  The distinct
    grown sets are scored together by :func:`equilibrium_tensions` and the
    lowest tension wins (ties: lexicographically smallest node tuple).
    """
    if k < 1:
        raise InputError("team size k must be at least 1")
    if sampled_starts < 1:
        raise InputError("sampled_starts must be at least 1")
    if weights is None:
        weights = proxy_weights(g, latent)
    _check_weights(g, weights)
    n = g.node_count
    if n <= all_starts_limit:
        starts = np.arange(n)
    else:
        rng = np.random.default_rng(rng_seed)
        starts = rng.choice(n, size=min(sampled_starts, n), replace=False)

    per_batch = max(1, GROWTH_ELEMENTS // n)
    grown = np.empty((0, k), np.int64)
    if k <= n:  # _grow needs k nodes to size its rows
        grown = np.concatenate([_grow(g, weights.values, k, starts[i:i + per_batch])
                                for i in range(0, len(starts), per_batch)])
    if not len(grown):  # only now find the component, to word the error
        comp = largest_component(g)
        if k > len(comp):
            raise InfeasibleError(
                f"requested size {k} exceeds the largest component ({len(comp)} nodes)")
        raise InfeasibleError("no start grew to the requested size")
    # distinct ascending node tuples in lexicographic order, so argmin
    # breaks tension ties by the smallest
    grown.sort(axis=1)
    grown = grown[np.lexsort(grown.T[::-1])]
    sets = grown[np.r_[True, (grown[1:] != grown[:-1]).any(axis=1)]]
    tension, edges = equilibrium_tensions(g, latent, sets)
    best = int(np.argmin(tension))
    return Solution(frozenset(sets[best].tolist()), int(edges[best]),
                    float(tension[best]), "greedy")


@np.errstate(over="ignore")  # w * w may round to inf, as Python floats do
def _grow(g: Graph, values: np.ndarray, k: int, starts: np.ndarray) -> np.ndarray:
    """Members, in pick order, of the starts that grew to ``k`` nodes: one
    ``(B', k)`` row each, all rows grown in lockstep."""
    n, B = g.node_count, len(starts)
    members = np.empty((B, k), dtype=np.int64)
    members[:, 0] = starts
    if k == 1:
        return members
    indptr, indices, edge_ids = g.indptr, g.indices, g.edge_ids
    deg = np.diff(indptr)
    # a row's slots hold its start and the neighbors of its first k - 1 members
    cap = min(n, 1 + int(np.partition(deg, n - k + 1)[n - k + 1:].sum()))
    size = min(cap, math.isqrt(BLOCK_FACTOR * cap // int(deg.max())))
    nb = -(-cap // size)
    width = nb * size
    # slot s of row r is entry r * width + s, the complex ``delta + 1j * id``
    # of a frontier node: numpy orders complex numbers by real part, then
    # imaginary part, which is the (delta, id) rule.  Free and member slots
    # hold ``inf + 1j * n``, which loses to every frontier node.  Blocks of
    # ``size`` slots keep their minimum.
    S = np.full(B * width, complex(np.inf, n))
    block = np.full(B * nb, complex(np.inf, n))
    # at r * n + v: 1 + the entry of node v in row r, 0 when unseen
    slot_of = np.zeros(B * n, dtype=np.int32 if B * width < 2**31 - 1 else np.int64)
    live = np.arange(B)
    slot_of[live * n + starts] = live * width + 1
    free = live * width + 1  # each row's next free entry
    stamp = np.zeros(B * nb, dtype=np.int64)
    last, touched = starts, np.empty(0, dtype=np.int64)

    for step in range(1, k):
        # the last pick's neighbors join (or gain weight in) the frontier
        pos = _ranges(indptr[last], indptr[last + 1])
        r = np.repeat(live, deg[last])
        nbr = indices[pos]
        at = r * n + nbr
        f = slot_of[at] - 1
        new = f < 0
        rn = r[new]  # rows ascend, so a row's new entries are consecutive
        fn = free[rn] + np.arange(len(rn)) - np.searchsorted(rn, rn)
        free += np.bincount(rn, minlength=B)
        f[new] = fn
        slot_of[at[new]] = fn + 1
        S[fn] = 1j * nbr[new]
        w = values[edge_ids[pos]]
        S[f] += w * w  # in pick order: 0.0 + w * w, then + w * w

        # refresh the minima of the blocks that changed, each once
        keys = np.concatenate([touched, f // size])
        i = np.arange(len(keys))
        stamp[keys] = i
        keys = keys[stamp[keys] == i]
        block[keys] = S.reshape(-1, size)[keys].min(axis=1)

        # each row takes its smallest (delta, id); an empty frontier drops out
        best = block.reshape(B, nb)
        if len(live) < B:  # rows rarely drop out; the gather is a copy
            best = best[live]
        pick = best.min(axis=1).imag.astype(np.int64)
        ok = pick < n
        live, last = live[ok], pick[ok]
        members[live, step] = last
        if not len(live):
            break
        f = slot_of[live * n + last] - 1
        S[f] = complex(np.inf, n)
        touched = f // size
    return members[live]
