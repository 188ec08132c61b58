"""Golden corpus: the answers of the current code, pinned.

Three fixtures:

* the README ring session, run through ``main(argv)`` with ``--no-timing``
  for ``comm``, ``team`` and ``cardinality``; the CSVs are committed;
* the planted-community graph of ``test_07``, built exactly as that test
  builds it, with three distinct sampled seed sets; each of the five
  variants is called through the library;
* a seeded 500-node / 1 750-edge ``gnm`` graph with 4-column uniform
  profiles, answered by ``greedy_fixed_size`` from every start for k = 1..12
  and from 32 sampled starts for k = 5 and 20.

Ids, counts, node lists and status strings must match exactly, metric
floats to a relative tolerance of 1e-8.  A change that means to change
answers regenerates the corpus (and says so) with::

    PYTHONPATH=src python3 tests/test_golden.py

which rewrites only the files that are missing or whose test fails, so
float drift within the tolerance leaves no diff.
"""

import csv
import io
import json
import tempfile
from pathlib import Path

import pytest

from tensionkit import (community_solver, generate_profiles, greedy_fixed_size,
                        induced_subgraph, largest_component, proxy_weights,
                        sample_seed_groups, standardized_metrics)
from tensionkit.cli import main
from tensionkit.rng import derive_seed
from tensionkit.synthetic import block_incidence, gnm_graph, planted_partition_graph

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-8
FLOAT_COLUMNS = {"tau", "mpe", "mpc", "raw_tension"}
FLOAT_KEYS = ("tension", "tau", "mpe", "mpc")
ALL_TAGS = ("tree-hops", "tree-weights", "peel-random", "peel-sum", "peel-max")


# -- the README ring session ------------------------------------------------

def ring_outputs(directory: Path) -> dict[str, list[list[str]]]:
    """CSV rows of ``comm``, ``team`` and ``cardinality`` on the README ring."""
    d = directory
    edges = [(i, (i + 1) % 16) for i in range(16)] + [(0, 8), (4, 12)]
    (d / "ring.edges").write_text("".join(f"{u} {v}\n" for u, v in edges))
    (d / "ring.skills").write_text("0 a 4\n3 b 4\n6 c 4\n9 a 5\n")
    (d / "ring.project").write_text("a b c\n")
    graph, profiles = str(d / "ring.edges"), str(d / "ring.profiles")
    runs = {
        "gen-profiles": ["gen-profiles", "--graph", graph, "--scheme", "uniform",
                         "--attrs", "2", "--seed", "7", "--out", profiles],
        "sample-seeds": ["sample-seeds", "--graph", graph, "--seed-size", "2",
                         "--n-candidates", "100", "--per-group", "5", "--seed", "7",
                         "--out", str(d / "ring.seeds")],
        "comm": ["comm", "--graph", graph, "--profiles", profiles,
                 "--seeds", str(d / "ring.seeds.D2"), "--seed", "7"],
        "team": ["team", "--graph", graph, "--profiles", profiles,
                 "--skills", str(d / "ring.skills"),
                 "--project", str(d / "ring.project")],
        "cardinality": ["cardinality", "--graph", graph, "--profiles", profiles,
                        "--k", "4"],
    }
    rows = {}
    for name, argv in runs.items():
        if name in ("comm", "team", "cardinality"):
            out = d / f"{name}.csv"
            argv = argv + ["--no-timing", "--out", str(out)]
        assert main(argv) == 0, f"{name} failed"
        if name in ("comm", "team", "cardinality"):
            with open(out, newline="") as fh:
                rows[name] = list(csv.reader(fh))
    return rows


def ring_golden_path(name: str) -> Path:
    return GOLDEN / f"ring_{name}.csv"


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    return ring_outputs(tmp_path_factory.mktemp("ring"))


def read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


@pytest.mark.parametrize("name", ["comm", "team", "cardinality"])
def test_ring_session_matches_corpus(name, ring):
    check_ring(ring[name], read_csv(ring_golden_path(name).read_text()))


def check_ring(got, want):
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g_row, w_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], g_row, w_row):
            if column in FLOAT_COLUMNS and w:
                assert float(g) == pytest.approx(float(w), rel=REL), (column, w_row)
            else:
                assert g == w, (column, w_row)


# -- the test_07 planted graph ------------------------------------------------

def planted_fixture():
    """Working graph, profiles, weights and seed groups, as ``test_07``."""
    g_full, labels = planted_partition_graph(8, 250, p_in=0.02, p_out=0.001,
                                             rng_seed=42)
    M, _ = block_incidence(labels, rng_seed=7)
    X_full = generate_profiles(g_full.node_count, 4, "eigenvector",
                               rng_seed=11, incidence=M)
    g, olds = induced_subgraph(g_full, largest_component(g_full))
    X = X_full[olds]
    weights = proxy_weights(g, X)
    groups = {grp.label: grp.sets
              for grp in sample_seed_groups(g, 7, n_candidates=1000, per_group=30,
                                            rng_seed=3)}
    return g, X, weights, groups


def solve_case(g, X, weights, label: str, index: int, seeds) -> dict:
    """Every variant's answer on one seed set, in the corpus's JSON shape."""
    seeds = list(seeds)
    rng_seed = derive_seed(0, f"peel-random:{label}-{index:03d}")
    answers = {}
    for tag in ALL_TAGS:
        solve = community_solver(*tag.split("-", 1), rng_seed=rng_seed)
        sol = solve(g, X, seeds, weights)
        met = standardized_metrics(g, weights, sol, seeds)
        answers[tag] = {"nodes": sol.sorted_nodes(), "edges_induced": sol.edges_induced,
                        "tension": sol.tension, "tau": met.tau, "mpe": met.mpe,
                        "mpc": met.mpc}
    return answers


def pick_cases(groups) -> list[tuple[str, int, tuple[int, ...]]]:
    """The first set of each group that no earlier pick equals."""
    picked: list[tuple[str, int, tuple[int, ...]]] = []
    for label in ("D1", "D2", "D3"):
        index = next(i for i, s in enumerate(groups[label])
                     if all(s != p[2] for p in picked))
        picked.append((label, index, groups[label][index]))
    return picked


@pytest.fixture(scope="module")
def planted():
    return planted_fixture()


def read_cases(text: str) -> list[dict]:
    return json.loads(text)["cases"]


def load_planted_corpus() -> list[dict]:
    return read_cases((GOLDEN / "planted.json").read_text())


@pytest.mark.parametrize("position", range(3))
def test_planted_variants_match_corpus(position, planted):
    g, X, weights, groups = planted
    case = load_planted_corpus()[position]
    seeds = tuple(case["seeds"])
    assert groups[case["group"]][case["index"]] == seeds
    check_planted(solve_case(g, X, weights, case["group"], case["index"], seeds), case)


def check_planted(got, case):
    assert set(got) == set(case["variants"])
    for tag, want in case["variants"].items():
        have = got[tag]
        assert have["nodes"] == want["nodes"], tag
        assert have["edges_induced"] == want["edges_induced"], tag
        for key in FLOAT_KEYS:
            assert have[key] == pytest.approx(want[key], rel=REL), (tag, key)


def test_planted_cases_are_distinct():
    seeds = [tuple(c["seeds"]) for c in load_planted_corpus()]
    assert len(seeds) == 3 and len(set(seeds)) == 3


# -- greedy fixed-size teams on a gnm graph ------------------------------------

# (mode, k, keyword arguments): every start, then 32 starts sampled from 500
CARDINALITY_CASES = [("all", k, {}) for k in range(1, 13)] + [
    ("sampled", k, {"all_starts_limit": 100, "sampled_starts": 32, "rng_seed": 5})
    for k in (5, 20)]


def cardinality_fixture():
    """The whole graph (isolated nodes and small components included)."""
    g = gnm_graph(500, 1750, rng_seed=17)
    return g, generate_profiles(g.node_count, 4, "uniform", rng_seed=19)


def solve_cardinality(g, X) -> list[dict]:
    cases = []
    for mode, k, kwargs in CARDINALITY_CASES:
        sol = greedy_fixed_size(g, X, k, **kwargs)
        cases.append({"mode": mode, "k": k, "nodes": sol.sorted_nodes(),
                      "edges_induced": sol.edges_induced, "tension": sol.tension})
    return cases


def test_cardinality_matches_corpus():
    check_cardinality(solve_cardinality(*cardinality_fixture()),
                      read_cases((GOLDEN / "cardinality_gnm.json").read_text()))


def check_cardinality(got, want):
    assert len(got) == len(want)
    for have, case in zip(got, want):
        where = (case["mode"], case["k"])
        assert (have["mode"], have["k"]) == where
        assert have["nodes"] == case["nodes"], where
        assert have["edges_induced"] == case["edges_induced"], where
        assert have["tension"] == pytest.approx(case["tension"], rel=REL), where


# -- regeneration --------------------------------------------------------------

def write_if_stale(path: Path, text: str, read, check) -> None:
    """Write ``text`` to ``path`` unless the file exists and its own test,
    ``check(read(text), read(file))``, passes: answers that drift within
    ``REL`` leave the corpus as it is."""
    if path.exists():
        try:
            check(read(text), read(path.read_text()))
            return
        except AssertionError:
            pass
    path.write_text(text)


def check_planted_cases(got, want):
    assert len(got) == len(want)
    for have, case in zip(got, want):
        assert [have[key] for key in ("group", "index", "seeds")] == [
            case[key] for key in ("group", "index", "seeds")]
        check_planted(have["variants"], case)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for name, rows in ring_outputs(Path(d)).items():
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(rows)
            write_if_stale(ring_golden_path(name), text.getvalue(), read_csv, check_ring)
    g, X, weights, groups = planted_fixture()
    cases = [{"group": label, "index": index, "seeds": list(seeds),
              "variants": solve_case(g, X, weights, label, index, seeds)}
             for label, index, seeds in pick_cases(groups)]
    write_if_stale(GOLDEN / "planted.json", json.dumps({"cases": cases}, indent=1) + "\n",
                   read_cases, check_planted_cases)
    cases = solve_cardinality(*cardinality_fixture())
    write_if_stale(GOLDEN / "cardinality_gnm.json",
                   json.dumps({"cases": cases}, indent=1) + "\n", read_cases, check_cardinality)


if __name__ == "__main__":
    regenerate()
