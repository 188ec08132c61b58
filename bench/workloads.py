"""The four benchmark workloads: set-up and the operations of one round.

An operation (op) is the work behind one CSV row of the command-line tool,
repeated here row for row from ``cli.run_comm``, ``cli.run_team`` and
``cli.run_cardinality`` with the same named seed streams, but without
calling the ``cli``, ``synthetic`` or ``rng`` modules.  Library functions
are always looked up through their module (``community.tree_community``),
so the timing wrappers of a traced run see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from tensionkit import community, evaluation, fileio, graph, teams

import gen

COMM_VARIANTS = ("tree-hops", "tree-weights", "peel-random", "peel-sum", "peel-max")
TREE_VARIANTS = ("tree-hops", "tree-weights")
CARDINALITY_KS = tuple(range(3, 11))


def derive_seed(master_seed: int, name: str) -> int:
    """The command-line tool's named child seed: a ``SeedSequence`` keyed on
    the master seed and the UTF-8 bytes of ``name``."""
    seq = np.random.SeedSequence([master_seed & 0xFFFFFFFFFFFFFFFF, *name.encode("utf-8")])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class Answer:
    """What one op returned, in working-graph ids."""

    nodes: frozenset
    seeds: tuple
    tension: float
    edges_induced: int
    skills: tuple = ()
    k: int | None = None


@dataclass
class Op:
    key: str          # the CSV row it stands for, e.g. "D2-004/peel-sum"
    variant: str      # row label used for per-variant latency
    run: Callable[[], Answer]


@dataclass
class Prepared:
    """The working graph and everything the ops of one workload share."""

    g: object
    olds: list
    X: np.ndarray
    weights: object
    master_seed: int
    seed_groups: list = field(default_factory=list)   # [(label, [seed tuple, ...])]
    skills: object = None
    projects: list = field(default_factory=list)
    variants: tuple = ()


# -- set-up -----------------------------------------------------------------

def _restrict(g):
    """Largest-component working graph plus each node's original id."""
    comp = graph.largest_component(g)
    if len(comp) == g.node_count:
        return g, list(range(g.node_count))
    return graph.induced_subgraph(g, comp)


def _working_graph(inputs: gen.Inputs, seed: int, variants) -> Prepared:
    g_full = fileio.read_edge_list(inputs.graph_path)
    g, olds = _restrict(g_full)
    X = fileio.read_profiles(inputs.profiles_path, g_full.node_count)[olds]
    weights = community.proxy_weights(g, X, "l2")
    return Prepared(g, olds, X, weights, seed, variants=variants)


def setup_comm(variants, n_candidates):
    def setup(inputs: gen.Inputs, seed: int) -> Prepared:
        prep = _working_graph(inputs, seed, variants)
        sampled = evaluation.sample_seed_groups(
            prep.g, 7, n_candidates, 30, rng_seed=derive_seed(seed, "seed-sampling"))
        prep.seed_groups = [(grp.label, list(grp.sets)) for grp in sampled if grp.sets]
        return prep
    return setup


def setup_team(inputs: gen.Inputs, seed: int) -> Prepared:
    prep = _working_graph(inputs, seed, TREE_VARIANTS)
    new_of = {old: new for new, old in enumerate(prep.olds)}
    entries = [(new_of[node], label, count)
               for node, label, count in fileio.read_skill_counts(inputs.skills_path)
               if node in new_of]
    prep.skills = teams.SkillMap.from_counts(prep.g.node_count, entries,
                                             threshold=gen.SKILL_THRESHOLD)
    prep.projects = [fileio.read_project(p) for p in inputs.project_paths()]
    return prep


def setup_cardinality(inputs: gen.Inputs, seed: int) -> Prepared:
    return _working_graph(inputs, seed, ("greedy",))


# -- ops ------------------------------------------------------------------------

def _comm_op(prep: Prepared, run_id: str, seeds: tuple, tag: str) -> Op:
    algorithm, variant = tag.split("-", 1)
    seeds = list(seeds)

    def run() -> Answer:
        if algorithm == "tree":
            sol = community.tree_community(prep.g, prep.X, seeds, variant=variant,
                                           weights=prep.weights)
        else:
            sol = community.peel_community(
                prep.g, prep.X, seeds, variant=variant,
                rng_seed=derive_seed(prep.master_seed, f"peel-random:{run_id}"),
                weights=prep.weights)
        evaluation.standardized_metrics(prep.g, prep.weights, sol, seeds)
        return Answer(sol.nodes, tuple(seeds), sol.tension, sol.edges_induced)

    return Op(f"{run_id}/{tag}", tag, run)


def _team_op(prep: Prepared, p_idx: int, labels: list, tag: str) -> Op:
    algorithm, variant = tag.split("-", 1)
    run_id = f"P{p_idx:03d}"

    def run() -> Answer:
        solver = teams.community_solver(
            algorithm, variant,
            rng_seed=derive_seed(prep.master_seed, f"peel-random:{run_id}"))
        team = teams.form_team(prep.g, prep.X, prep.skills, labels, solver,
                               weights=prep.weights, weight_norm="l2")
        seeds = sorted(team.step1_individuals)
        evaluation.standardized_metrics(prep.g, prep.weights, team.solution, seeds)
        sol = team.solution
        return Answer(sol.nodes, tuple(seeds), sol.tension, sol.edges_induced,
                      skills=tuple(labels))

    return Op(f"{run_id}/{tag}", tag, run)


def _cardinality_op(prep: Prepared, k: int) -> Op:
    def run() -> Answer:
        sol = teams.greedy_fixed_size(
            prep.g, prep.X, k, weights=prep.weights,
            rng_seed=derive_seed(prep.master_seed, "cardinality-starts"))
        return Answer(sol.nodes, (), sol.tension, sol.edges_induced, k=k)

    return Op(f"k{k}", "greedy", run)


def comm_round(prep: Prepared, r: int) -> list[Op]:
    """One seed set from each dispersion group, every variant on each."""
    ops = []
    for label, sets in prep.seed_groups:
        idx = r % len(sets)
        ops.extend(_comm_op(prep, f"{label}-{idx:03d}", sets[idx], tag)
                   for tag in prep.variants)
    return ops


def team_round(prep: Prepared, r: int) -> list[Op]:
    """One project, every variant on it."""
    p_idx = r % len(prep.projects)
    return [_team_op(prep, p_idx, prep.projects[p_idx], tag) for tag in prep.variants]


def cardinality_round(prep: Prepared, r: int) -> list[Op]:
    return [_cardinality_op(prep, k) for k in CARDINALITY_KS]


WORKLOADS = {
    "comm-planted": (gen.planted, setup_comm(COMM_VARIANTS, 1000), comm_round),
    # 50 candidates (``comm --n-candidates 50``): the default 1000 make the
    # seed-sampling distance matrix 5 900 x 20 000, about 30 s per set-up.
    "comm-large": (gen.large, setup_comm(TREE_VARIANTS, 50), comm_round),
    "team-skills": (gen.skills, setup_team, team_round),
    "cardinality-small": (gen.small, setup_cardinality, cardinality_round),
}
