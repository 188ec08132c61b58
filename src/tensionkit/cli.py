"""Command-line harness around the library.

Subcommands: ``conform``, ``comm``, ``team``, ``cardinality``, ``bench``,
``gen-profiles``, ``sample-seeds``.  Exit codes: 0 success, 1 input error
(usage errors and running out of memory included), 2 infeasible request,
3 non-convergence.

Every flag is declared once, in ``FLAGS``: its name, parsing, default and
the subcommands that accept it.  ``--config FILE`` supplies flags as the
keys of a JSON object, and the same parser checks their values; explicit
flags win over the file, which wins over the defaults.

Disconnected input graphs are restricted to their largest component (with a
logged warning) for every command except ``conform`` and ``gen-profiles``,
whose profile files keep one row per node of the input graph.  All
randomness derives from the single ``--seed`` through named streams, and
with ``--no-timing`` the CSV outputs are byte-identical across repeated
runs of the same configuration.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import fileio
from .community import VARIANT_TAGS, WEIGHT_NORMS, community_solver, proxy_weights
from .conformation import conform, social_tension
from .errors import ConvergenceError, InfeasibleError, InputError
from .evaluation import (PROFILE_SCHEMES, generate_profiles,
                         sample_seed_groups, standardized_metrics)
from .graph import EdgeWeights, Graph, induced_subgraph, largest_component
from .rng import derive_rng, derive_seed
from .teams import SkillMap, form_team, greedy_fixed_size

log = logging.getLogger("tensionkit")

METRIC_COLUMNS = ("run_id", "algorithm", "variant", "group", "tau", "mpe", "mpc",
                  "raw_tension", "nodes", "edges", "seconds", "status")
TEAM_COLUMNS = METRIC_COLUMNS + ("step2_noop",)
BENCH_COLUMNS = ("graph", "nodes", "edges", "algorithm", "variant", "runs",
                 "mean_seconds", "std_seconds")


class Flag(NamedTuple):
    """One ``--name`` flag and the subcommands (space-separated) that take it."""

    name: str
    commands: str
    help: str
    default: object = None
    type: Callable | None = None
    choices: tuple | None = None
    action: object = None  # "append" for a repeatable flag, or a switch


_GENERATING = "comm team cardinality bench gen-profiles"
_SAMPLING = "comm bench sample-seeds"
_SEARCHING = "comm team cardinality bench"

FLAGS = (
    Flag("graph", "conform comm team cardinality gen-profiles sample-seeds",
         "edge list file"),
    Flag("graph", "bench", "edge list file (repeatable)", action="append"),
    Flag("profiles", "conform comm team cardinality", "latent profile matrix file"),
    Flag("scheme", "comm team cardinality gen-profiles",
         "generate profiles instead of reading them", choices=PROFILE_SCHEMES),
    Flag("scheme", "bench", "profile scheme to generate (bench takes no --incidence)",
         choices=tuple(s for s in PROFILE_SCHEMES if s != "eigenvector")),
    Flag("attrs", _GENERATING, "attribute count for generated profiles", 1, int),
    Flag("lam", _GENERATING, "rate of the exponential scheme", 6.0, float),
    Flag("alpha", _GENERATING, "zeroed fraction of the thresholded scheme", 0.6, float),
    Flag("incidence", "comm team cardinality gen-profiles",
         "incidence file for the eigenvector scheme"),
    Flag("seeds", "comm", "seed sets file"),
    Flag("seed-size", _SAMPLING, "size of sampled seed sets", 7, int),
    Flag("n-candidates", _SAMPLING, "candidate pool for seed sampling", 1000, int),
    Flag("per-group", _SAMPLING, "max seed sets kept per dispersion group", 30, int),
    Flag("skills", "team", "skill counts file"),
    Flag("skill-threshold", "team", "count needed to hold a skill", 4, int),
    Flag("project", "team", "project file (one line of skills)"),
    Flag("n-projects", "team", "number of sampled projects", 80, int),
    Flag("k", "cardinality", "team size", type=int),
    Flag("repeats", "bench", "timed repetitions per bench cell", 3, int),
    Flag("variant", "comm team bench", "algorithm variant (repeatable; default all)",
         VARIANT_TAGS, choices=VARIANT_TAGS, action="append"),
    Flag("tol", "conform", "conformation tolerance", 1e-9, float),
    Flag("max-iter", "conform", "conformation iteration budget", type=int),
    Flag("weight-norm", _SEARCHING, "norm for multi-attribute edge weights", "l2",
         choices=WEIGHT_NORMS),
    Flag("seed", _SEARCHING + " gen-profiles sample-seeds", "master random seed", 0, int),
    Flag("timing", "comm team cardinality",
         "record wall-clock seconds in CSV rows (--no-timing for "
         "byte-reproducible outputs)", True, action=argparse.BooleanOptionalAction),
    Flag("out", "conform " + _SEARCHING + " gen-profiles sample-seeds", "output path"),
)


def _flags_of(command: str) -> list[Flag]:
    return [f for f in FLAGS if command in f.commands.split()]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# -- shared loading steps ----------------------------------------------------

def _load_graph(path) -> Graph:
    if path is None:
        raise InputError("a graph file is required (--graph)")
    try:
        return fileio.read_edge_list(path)
    except OSError as e:
        raise InputError(f"cannot read graph file {path}: {e}") from None


def _restrict(g: Graph) -> tuple[Graph, list[int]]:
    """Largest-component working graph plus the original id of each node."""
    comp = largest_component(g)
    if len(comp) == g.node_count:
        return g, list(range(g.node_count))
    log.warning("graph is disconnected: restricting to its largest component "
                "(%d of %d nodes)", len(comp), g.node_count)
    return induced_subgraph(g, comp)


def _scheme_profiles(args, node_count: int, olds: list[int]) -> np.ndarray:
    """Profiles generated by ``--scheme`` for the nodes ``olds`` of a
    ``node_count``-node graph."""
    scheme = args.scheme or "uniform"
    incidence = None
    if scheme == "eigenvector":
        if args.incidence is None:
            raise InputError("the eigenvector scheme needs --incidence")
        M, _ = fileio.read_incidence(args.incidence, node_count)
        incidence = M[olds]
    return generate_profiles(len(olds), args.attrs, scheme,
                             rng_seed=derive_seed(args.seed, "profiles"),
                             lam=args.lam, alpha=args.alpha, incidence=incidence)


def _working_inputs(args) -> tuple[Graph, np.ndarray, np.ndarray, EdgeWeights]:
    """The working (largest-component) graph, the working id of each input
    node (-1 outside it), the working profiles and proxy weights."""
    g_full = _load_graph(args.graph)
    g, olds = _restrict(g_full)
    new_id = np.full(g_full.node_count, -1, dtype=np.int64)
    new_id[olds] = np.arange(len(olds))
    if args.profiles is None:
        X = _scheme_profiles(args, g_full.node_count, olds)
    elif args.scheme is not None:
        raise InputError("give either a profiles file or a generation scheme, not both")
    else:
        X = fileio.read_profiles(args.profiles, g_full.node_count)[olds]
    return g, new_id, X, proxy_weights(g, X, args.weight_norm)


# errors that fail one row of a batch and let the others run
_ROW_ERRORS = (InfeasibleError, InputError, ConvergenceError)


def _variant_rows(args, columns: tuple[str, ...], runs, solve
                  ) -> tuple[tuple[str, ...], list[list[str]]]:
    """One row of ``columns`` per run and ``--variant``.

    ``runs`` holds ``(run_id, group, item)`` triples, and ``solve(solver,
    item)`` returns the solution, its metrics and the cells after ``status``.
    A ``_ROW_ERRORS`` error fails only its row: empty cells, the error as
    ``status``.
    """
    rows: list[list[str]] = []
    for run_id, group, item in runs:
        for tag in args.variant:
            algorithm, variant = tag.split("-", 1)
            row = [run_id, algorithm, variant, group]
            t0 = time.perf_counter()
            try:
                solver = community_solver(
                    algorithm, variant,
                    rng_seed=derive_seed(args.seed, f"peel-random:{run_id}"))
                sol, met, extra = solve(solver, item)
            except _ROW_ERRORS as e:
                status = f"non-convergence: {e}" if isinstance(e, ConvergenceError) else str(e)
                row += [""] * 7 + [status]
                rows.append(row + [""] * (len(columns) - len(row)))
                continue
            seconds = f"{time.perf_counter() - t0:.4f}" if args.timing else ""
            rows.append(row + [_fmt(met.tau), _fmt(met.mpe), _fmt(met.mpc),
                               _fmt(met.raw_tension), str(len(sol.nodes)),
                               str(sol.edges_induced), seconds, "ok", *extra])
    return columns, rows


# -- subcommands: the CSV-writing ones return (columns, rows) -----------------

def cmd_conform(args) -> None:
    g = _load_graph(args.graph)  # no component restriction here
    if args.profiles is None:
        raise InputError("conform needs a profiles file (--profiles)")
    X = fileio.read_profiles(args.profiles, g.node_count)
    res = conform(g, X, tol=args.tol, max_iter=args.max_iter)
    tension = social_tension(g, X, res.conformed)
    if args.out:
        fileio.ensure_parent(args.out)
        fileio.write_profiles(args.out, res.conformed, tension=tension)
    print(f"converged in {res.iterations} iterations; social tension {tension:.12f}")


def run_comm(args) -> tuple[tuple[str, ...], list[list[str]]]:
    g, new_id, X, weights = _working_inputs(args)
    if args.seeds is not None:
        # file sets name input ids; a set with one outside the working graph is None
        sets = [new_id[list(s)] for s in fileio.read_seed_sets(args.seeds, len(new_id))]
        groups = [("file", [s.tolist() if s.min() >= 0 else None for s in sets])]
    else:
        sampled = sample_seed_groups(g, args.seed_size, args.n_candidates,
                                     args.per_group,
                                     rng_seed=derive_seed(args.seed, "seed-sampling"))
        groups = [(grp.label, [list(s) for s in grp.sets]) for grp in sampled]

    def solve(solver, seeds):
        if seeds is None:
            raise InfeasibleError("disconnected seeds")
        sol = solver(g, X, seeds, weights)
        return sol, standardized_metrics(g, weights, sol, seeds), []

    runs = [(f"{label}-{idx:03d}", label, seeds)
            for label, sets in groups for idx, seeds in enumerate(sets)]
    return _variant_rows(args, METRIC_COLUMNS, runs, solve)


def run_team(args) -> tuple[tuple[str, ...], list[list[str]]]:
    if args.n_projects < 0:
        raise InputError(f"--n-projects must be nonnegative, not {args.n_projects}")
    g, new_id, X, weights = _working_inputs(args)
    if args.skills is None:
        raise InputError("team mode needs a skills file (--skills)")
    entries = fileio.read_skill_counts(args.skills, len(new_id))
    nodes = new_id[[node for node, _, _ in entries]].tolist()
    dropped = sum(v < 0 for v in nodes)
    if dropped:
        log.warning("%d skill entries reference nodes outside the working component", dropped)
    # a dropped entry keeps its label, held by no one: its skill is uncoverable
    entries = [(v, label, count) if v >= 0 else (0, label, 0)
               for v, (_, label, count) in zip(nodes, entries)]
    skills = SkillMap.from_counts(g.node_count, entries, threshold=args.skill_threshold)

    if args.project is not None:
        projects = [fileio.read_project(args.project)]
    else:
        rng = derive_rng(args.seed, "projects")
        available = [lab for lab, holders in zip(skills.labels, skills.holders) if holders]
        if len(available) < 3:
            raise InfeasibleError("fewer than three coverable skills: cannot sample projects")
        projects = []
        for _ in range(args.n_projects):
            size = min(int(rng.integers(3, 14)), len(available))
            picks = rng.choice(len(available), size=size, replace=False)
            projects.append([available[i] for i in sorted(picks)])

    def solve(solver, labels):
        team = form_team(g, X, skills, labels, solver,
                         weights=weights, weight_norm=args.weight_norm)
        met = standardized_metrics(g, weights, team.solution, sorted(team.step1_individuals))
        return team.solution, met, ["1" if team.step2_noop else "0"]

    runs = [(f"P{idx:03d}", "team", labels) for idx, labels in enumerate(projects)]
    return _variant_rows(args, TEAM_COLUMNS, runs, solve)


def run_cardinality(args) -> tuple[tuple[str, ...], list[list[str]]]:
    if args.k is None:
        raise InputError("cardinality mode needs a team size (--k)")
    g, _, X, weights = _working_inputs(args)
    t0 = time.perf_counter()
    sol = greedy_fixed_size(g, X, args.k, weights=weights,
                            rng_seed=derive_seed(args.seed, "cardinality-starts"))
    seconds = f"{time.perf_counter() - t0:.4f}" if args.timing else ""
    row = [f"k{args.k}", "greedy", "-", "-", "", "", "", _fmt(sol.tension),
           str(len(sol.nodes)), str(sol.edges_induced), seconds, "ok"]
    return METRIC_COLUMNS, [row]


def run_bench(args) -> tuple[tuple[str, ...], list[list[str]]]:
    if not args.graph:
        raise InputError("bench mode needs at least one graph file (--graph)")
    if args.repeats < 1:
        raise InputError(f"--repeats must be at least 1, not {args.repeats}")
    rows: list[list[str]] = []
    for path in args.graph:
        name = Path(path).name
        g, _ = _restrict(_load_graph(path))
        X = generate_profiles(g.node_count, args.attrs, args.scheme or "uniform",
                              rng_seed=derive_seed(args.seed, f"bench-profiles:{name}"),
                              lam=args.lam, alpha=args.alpha)
        weights = proxy_weights(g, X, args.weight_norm)
        groups = sample_seed_groups(g, args.seed_size, args.n_candidates, args.per_group,
                                    rng_seed=derive_seed(args.seed, f"bench-seeds:{name}"))
        pool = [s for grp in groups for s in grp.sets][:args.repeats]
        if not pool:
            raise InfeasibleError(f"no seed sets could be sampled for {name}")
        for tag in args.variant:
            algorithm, variant = tag.split("-", 1)
            times = []
            for ridx, seeds in enumerate(pool):
                solve = community_solver(
                    algorithm, variant,
                    rng_seed=derive_seed(args.seed, f"peel-random:bench-{name}-{ridx:03d}"))
                t0 = time.perf_counter()
                solve(g, X, list(seeds), weights)
                times.append(time.perf_counter() - t0)
            rows.append([name, str(g.node_count), str(g.edge_count), algorithm,
                         variant, str(len(times)), f"{np.mean(times):.6f}",
                         f"{np.std(times):.6f}"])
    return BENCH_COLUMNS, rows


def cmd_gen_profiles(args) -> None:
    if args.out is None:
        raise InputError("gen-profiles needs an output path (--out)")
    n = _load_graph(args.graph).node_count
    X = _scheme_profiles(args, n, list(range(n)))
    fileio.ensure_parent(args.out)
    fileio.write_profiles(args.out, X)
    print(f"wrote {X.shape[0]}x{X.shape[1]} profile matrix to {args.out}")


def cmd_sample_seeds(args) -> None:
    if args.out is None:
        raise InputError("sample-seeds needs an output prefix (--out)")
    g_full = _load_graph(args.graph)
    g, olds = _restrict(g_full)
    groups = sample_seed_groups(g, args.seed_size, args.n_candidates, args.per_group,
                                rng_seed=derive_seed(args.seed, "seed-sampling"))
    fileio.ensure_parent(args.out)
    for grp in groups:
        path = f"{args.out}.{grp.label}"
        fileio.write_seed_sets(path, [tuple(olds[v] for v in s) for s in grp.sets])
        print(f"wrote {len(grp.sets)} seed sets to {path}")


COMMANDS = {
    "conform": (cmd_conform, "iterate profiles to equilibrium, report tension"),
    "comm": (run_comm, "community search around seed sets, one CSV row per run"),
    "team": (run_team, "team formation for skill projects"),
    "cardinality": (run_cardinality, "best connected team of exactly k members"),
    "bench": (run_bench, "mean and stddev runtime per (graph, variant)"),
    "gen-profiles": (cmd_gen_profiles, "write a generated latent profile matrix"),
    "sample-seeds": (cmd_sample_seeds, "sample seed sets, bucketed by dispersion"),
}


# -- argument parsing ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an :class:`InputError` (exit code 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tensionkit",
        description="Low-tension community search and team formation in attributed networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in COMMANDS.items():
        p = sub.add_parser(command, help=summary, description=summary)
        p.add_argument("--config", help="JSON file of flags; explicit flags win")
        for flag in _flags_of(command):
            extra = {key: getattr(flag, key) for key in ("type", "choices", "action")
                     if getattr(flag, key) is not None}
            # absent flags stay unset, so config values and defaults can fill in
            p.add_argument(f"--{flag.name}", help=flag.help,
                           default=argparse.SUPPRESS, **extra)
    return parser


def _config_argv(path: str, command: str) -> list[str]:
    """The JSON object in ``path`` as the flags of ``command`` it spells."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read config file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise InputError("the config file must hold a JSON object")
    flags = {f.name: f for f in _flags_of(command)}
    argv: list[str] = []
    for key, value in obj.items():
        flag = flags.get(key.replace("_", "-"))
        if flag is None:
            raise InputError(f"config key {key!r} is not a flag of {command}")
        if flag.action == "append":
            if not isinstance(value, list):
                raise InputError(f"config key {key!r} takes a list, not {value!r}")
            items = value
        else:
            items = [value]
        for item in items:
            if flag.action is argparse.BooleanOptionalAction:
                kind, ok = "true or false", isinstance(item, bool)
                token = f"--{flag.name}" if item else f"--no-{flag.name}"
            else:
                numeric = flag.type in (int, float)
                kind = "a number" if numeric else "a string"
                ok = (not isinstance(item, bool)
                      and isinstance(item, (int, float) if numeric else str))
                token = f"--{flag.name}={item}"
            if not ok:
                raise InputError(f"config key {key!r} takes {kind}, not {item!r}")
            argv.append(token)
    return argv


def parse_args(argv=None) -> argparse.Namespace:
    """Flags of one subcommand: explicit flags, then ``--config`` keys, then
    the defaults of ``FLAGS``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    values = {f.name.replace("-", "_"): f.default for f in _flags_of(args.command)}
    if args.config is not None:
        tokens = _config_argv(args.config, args.command)
        try:
            values.update(vars(parser.parse_args([args.command, *tokens])))
        except InputError as e:
            raise InputError(f"config file {args.config}: {e}") from None
    values.update(vars(args))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = parse_args(argv)
        result = COMMANDS[args.command][0](args)
        if result is not None:
            fileio.write_csv(args.out, *result)
        return 0
    except InputError as e:
        log.error("input error: %s", e)
        return 1
    except InfeasibleError as e:
        log.error("infeasible: %s", e)
        return 2
    except ConvergenceError as e:
        log.error("non-convergence: %s", e)
        return 3
    except OSError as e:
        log.error("i/o error: %s", e)
        return 1
    except MemoryError as e:
        log.error("out of memory: %s", e)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
