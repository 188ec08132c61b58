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
sets together at the exact equilibrium.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# ``community_solver`` is re-exported: callers also look it up here
from .community import Solution, Solver, community_solver, proxy_weights
from .conformation import equilibrium_tensions, profile_matrix
from .errors import InfeasibleError, InputError
from .graph import EdgeWeights, Graph, largest_component


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
            if not (0 <= node < node_count):
                raise InputError(f"skill entry names node {node} outside the graph")
            labels.add(label)
            totals[(node, label)] = totals.get((node, label), 0) + count
        ordered = tuple(sorted(labels))
        pos = {lab: k for k, lab in enumerate(ordered)}
        holder_sets: list[set[int]] = [set() for _ in ordered]
        for (node, label), count in totals.items():
            if count >= threshold:
                holder_sets[pos[label]].add(node)
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
            raise RuntimeError(f"team formation lost coverage of skill {label!r}")
    return TeamResult(solution=final,
                      step1_individuals=frozenset(individuals),
                      step2_noop=final.nodes == frozenset(individuals))


def greedy_fixed_size(g: Graph, latent, k: int,
                      weights: EdgeWeights | None = None,
                      rng_seed: int = 0, all_starts_limit: int = 500,
                      sampled_starts: int = 32) -> Solution:
    """Best connected set of exactly ``k`` nodes found by greedy growth.

    From every candidate start (all nodes when the graph has at most
    ``all_starts_limit``, otherwise a seeded sample), repeatedly add the
    frontier node with the smallest proxy-weight increment (ties: lowest
    id); the finished sets are scored together by
    :func:`equilibrium_tensions` and the lowest tension wins (ties:
    lexicographically smallest node tuple).
    """
    if k < 1:
        raise InputError("team size k must be at least 1")
    comp = largest_component(g)
    if k > len(comp):
        raise InfeasibleError(
            f"requested size {k} exceeds the largest component ({len(comp)} nodes)")
    if weights is None:
        weights = proxy_weights(g, latent)
    wadj = weights.weighted_adjacency()
    n = g.node_count
    if n <= all_starts_limit:
        starts = range(n)
    else:
        rng = np.random.default_rng(rng_seed)
        starts = sorted(rng.choice(n, size=min(sampled_starts, n), replace=False).tolist())

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

    if not grown:
        raise InfeasibleError("no start grew to the requested size")
    # ascending node tuples, so argmin breaks tension ties by the smallest
    sets = np.array(sorted(tuple(sorted(nodes)) for nodes in grown))
    tension, edges = equilibrium_tensions(g, latent, sets)
    best = int(np.argmin(tension))
    return Solution(frozenset(sets[best].tolist()), int(edges[best]),
                    float(tension[best]), "greedy")
