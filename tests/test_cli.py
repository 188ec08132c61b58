"""Command-line harness: subcommands, exit codes, CSV shapes, determinism.

Everything runs in-process through ``main(argv)`` for speed; one subprocess
test runs the ``tensionkit`` entry point declared in ``pyproject.toml`` end to
end: the installed executable when it is on PATH, otherwise the declared
target launched from the source tree the way pip's generated launcher does.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensionkit import cli, community
from tensionkit.cli import BENCH_COLUMNS, METRIC_COLUMNS, TEAM_COLUMNS, main
from tensionkit.conformation import DENSE_LIMIT
from tensionkit.errors import ConvergenceError
from tensionkit.fileio import read_profiles, read_seed_sets

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def path5(tmp_path):
    """A 5-node path graph file."""
    return write(tmp_path / "path5.edges", "0 1\n1 2\n2 3\n3 4\n")


@pytest.fixture
def edge_pair(tmp_path):
    """Single-edge graph with opposite latent profiles."""
    g = write(tmp_path / "pair.edges", "0 1\n")
    x = write(tmp_path / "pair.profiles", "0.0\n1.0\n")
    return g, x


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConform:
    def test_single_edge_output(self, edge_pair, tmp_path, capsys):
        g, x = edge_pair
        out = tmp_path / "conformed.profiles"
        rc = main(["conform", "--graph", g, "--profiles", x,
                   "--tol", "1e-10", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# tension 0.444444444" in text
        X = read_profiles(out, expected_nodes=2)
        assert np.allclose(X[:, 0], [1 / 3, 2 / 3], atol=1e-9)
        assert "social tension 0.4444444444" in capsys.readouterr().out

    def test_disconnected_graph_keeps_row_alignment(self, tmp_path):
        g = write(tmp_path / "g.edges", "0 1\n2 3\n")
        x = write(tmp_path / "x.profiles", "0.0\n1.0\n0.5\n0.5\n")
        out = tmp_path / "out.profiles"
        assert main(["conform", "--graph", g, "--profiles", x, "--out", str(out)]) == 0
        assert read_profiles(out).shape == (4, 1)

    def test_iteration_budget_exhaustion_exits_3(self, edge_pair):
        g, x = edge_pair
        assert main(["conform", "--graph", g, "--profiles", x,
                     "--tol", "1e-12", "--max-iter", "1"]) == 3

    @pytest.mark.parametrize("max_iter", ["0", "-4"])
    def test_budget_below_one_iteration_exits_1(self, edge_pair, max_iter, caplog):
        g, x = edge_pair
        assert main(["conform", "--graph", g, "--profiles", x, "--max-iter", max_iter]) == 1
        assert f"max_iter must be at least 1, not {max_iter}" in caplog.text

    def test_malformed_profiles_exit_1(self, tmp_path, path5):
        x = write(tmp_path / "bad.profiles", "0.1\nnope\n")
        assert main(["conform", "--graph", path5, "--profiles", x]) == 1

    def test_missing_graph_file_exits_1(self, tmp_path):
        x = write(tmp_path / "x.profiles", "0.5\n")
        assert main(["conform", "--graph", str(tmp_path / "absent.edges"),
                     "--profiles", x]) == 1

    def test_non_utf8_profiles_name_the_line(self, tmp_path, path5, caplog):
        x = tmp_path / "x.profiles"
        x.write_bytes(b"0.1\n0.2\n0.\xff3\n0.4\n0.5\n")
        assert main(["conform", "--graph", path5, "--profiles", str(x)]) == 1
        assert "x.profiles:3: not valid UTF-8 text" in caplog.text


class TestComm:
    def test_seed_file_rows(self, tmp_path, path5):
        seeds = write(tmp_path / "q.seeds", "0 4\n")
        out = tmp_path / "comm.csv"
        rc = main(["comm", "--graph", path5, "--scheme", "uniform",
                   "--seeds", seeds, "--out", str(out), "--seed", "1"])
        assert rc == 0
        rows = read_rows(out)
        assert tuple(rows[0]) == METRIC_COLUMNS
        body = rows[1:]
        assert len(body) == 5  # five variants for the one seed set
        assert {(r[1], r[2]) for r in body} == {
            ("tree", "hops"), ("tree", "weights"),
            ("peel", "random"), ("peel", "sum"), ("peel", "max")}
        for r in body:
            assert r[0] == "file-000" and r[3] == "file" and r[-1] == "ok"
            assert float(r[8]) >= 2  # every solution spans both seeds
            assert r[10] != ""  # timing on by default

    def test_no_timing_is_byte_reproducible(self, tmp_path, path5):
        seeds = write(tmp_path / "q.seeds", "0 3\n1 4\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["comm", "--graph", path5, "--scheme", "uniform",
                "--seeds", seeds, "--seed", "3", "--no-timing"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert all(r[10] == "" for r in read_rows(a)[1:])

    def test_seeds_outside_working_component_reported(self, tmp_path):
        g = write(tmp_path / "g.edges", "0 1\n1 2\n3 4\n")
        seeds = write(tmp_path / "q.seeds", "0 3\n")
        out = tmp_path / "comm.csv"
        assert main(["comm", "--graph", g, "--scheme", "uniform",
                     "--seeds", seeds, "--out", str(out)]) == 0
        for r in read_rows(out)[1:]:
            assert r[-1] == "disconnected seeds" and r[4] == ""

    def test_sampled_groups_and_stdout(self, tmp_path, capsys):
        n = 12
        g = write(tmp_path / "cyc.edges",
                  "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        rc = main(["comm", "--graph", g, "--scheme", "uniform", "--seed", "2",
                   "--seed-size", "2", "--n-candidates", "40", "--per-group", "2",
                   "--variant", "tree-hops"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(METRIC_COLUMNS)
        groups = {line.split(",")[3] for line in lines[1:]}
        assert groups <= {"D1", "D2", "D3"} and len(lines) >= 4

    def test_sampled_seeds_match_the_sample_seeds_files(self, tmp_path):
        # a triangle on ids 0-2 beside a 14-node cycle with a chord on ids
        # 3-16: the working graph renumbers, so its ids differ from the files'
        edges = ["0 1", "1 2", "0 2", "3 10"] + [f"{3 + i} {3 + (i + 1) % 14}"
                                                for i in range(14)]
        g = write(tmp_path / "g.edges", "\n".join(edges) + "\n")
        common = ["--graph", g, "--seed", "4", "--seed-size", "3",
                  "--n-candidates", "60", "--per-group", "3"]
        prefix = tmp_path / "q"
        assert main(["sample-seeds", *common, "--out", str(prefix)]) == 0
        own = tmp_path / "own.csv"
        assert main(["comm", *common, "--scheme", "uniform", "--no-timing",
                     "--out", str(own)]) == 0
        by_group = {}
        for r in read_rows(own)[1:]:
            by_group.setdefault(r[3], []).append(r)
        assert set(by_group) == {"D1", "D2", "D3"}
        for label, rows in by_group.items():
            out = tmp_path / f"{label}.csv"
            assert main(["comm", *common, "--scheme", "uniform", "--no-timing",
                         "--seeds", f"{prefix}.{label}", "--out", str(out)]) == 0
            from_file = read_rows(out)[1:]
            assert len(from_file) == len(rows)
            for a, b in zip(rows, from_file):
                assert a[0] == b[0].replace("file", label) and b[3] == "file"
                if (a[1], a[2]) != ("peel", "random"):  # its stream is keyed on the run id
                    assert a[1:3] + a[4:] == b[1:3] + b[4:]

    def test_non_convergence_fails_only_its_row(self, tmp_path, path5, monkeypatch):
        # every community containing node 0 (profile 0.0) fails to converge
        real_solver = community.equilibrium_tensions

        def solver(g, latent, sets, **kw):
            if (latent[np.asarray(sets)] == 0.0).any():
                raise ConvergenceError("stuck", profiles=latent, residual=1.0,
                                       iterations=7)
            return real_solver(g, latent, sets, **kw)

        monkeypatch.setattr(community, "equilibrium_tensions", solver)
        x = write(tmp_path / "x.profiles", "0.0\n0.2\n0.4\n0.6\n0.8\n")
        seeds = write(tmp_path / "q.seeds", "0 1\n3 4\n")
        out = tmp_path / "comm.csv"
        assert main(["comm", "--graph", path5, "--profiles", x,
                     "--seeds", seeds, "--out", str(out)]) == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 10
        for r in rows:
            if r[0] == "file-000":
                assert r[-1] == "non-convergence: stuck" and r[4] == ""
            else:
                assert r[-1] == "ok"

    def test_exhausted_solver_budget_fails_its_row(self, tmp_path, monkeypatch):
        # the whole path is the tree-hops community, above the dense limit,
        # and no residual reaches tol 1e-300
        n = DENSE_LIMIT + 20
        g = write(tmp_path / "long.edges", "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        seeds = write(tmp_path / "q.seeds", f"0 {n - 1}\n0 1\n")
        real_solver = community.equilibrium_tensions
        monkeypatch.setattr(community, "equilibrium_tensions",
                            lambda g, latent, sets, tol: real_solver(g, latent, sets, tol=1e-300))
        out = tmp_path / "comm.csv"
        assert main(["comm", "--graph", g, "--scheme", "uniform", "--seeds", seeds,
                     "--variant", "tree-hops", "--out", str(out)]) == 0
        far, near = read_rows(out)[1:]
        assert far[-1].startswith("non-convergence: conjugate gradients") and far[4] == ""
        assert near[-1] == "ok" and near[8] == "2"

    def test_id_beyond_the_node_limit_exits_1(self, tmp_path, caplog):
        g = write(tmp_path / "far.edges", "0 4000000000\n")
        assert main(["comm", "--graph", g, "--scheme", "uniform"]) == 1
        assert "exceeds the limit" in caplog.text

    def test_non_utf8_graph_names_the_line(self, tmp_path, caplog):
        g = tmp_path / "g.edges"
        g.write_bytes(b"0 1\n1 \xff2\n")
        assert main(["comm", "--graph", str(g), "--scheme", "uniform"]) == 1
        assert "g.edges:2: not valid UTF-8 text" in caplog.text

    def test_profiles_and_scheme_together_exit_1(self, tmp_path, path5):
        x = write(tmp_path / "x.profiles", "0.1\n0.2\n0.3\n0.4\n0.5\n")
        assert main(["comm", "--graph", path5, "--profiles", x,
                     "--scheme", "uniform"]) == 1


class TestTeam:
    def test_path_project(self, tmp_path, path5):
        skills = write(tmp_path / "s.skills", "0 a 4\n4 b 4\n")
        proj = write(tmp_path / "p.project", "a b\n")
        out = tmp_path / "team.csv"
        rc = main(["team", "--graph", path5, "--scheme", "uniform",
                   "--skills", skills, "--project", proj,
                   "--out", str(out), "--no-timing"])
        assert rc == 0
        rows = read_rows(out)
        assert tuple(rows[0]) == TEAM_COLUMNS
        assert len(rows) == 6
        for r in rows[1:]:
            assert r[0] == "P000" and r[11] == "ok"
            assert r[8] == "5"  # the whole path connects the two end holders
            assert r[12] == "1"  # step 2 kept step 1's individuals

    def test_unknown_skill_becomes_failed_row(self, tmp_path, path5):
        skills = write(tmp_path / "s.skills", "0 a 4\n")
        proj = write(tmp_path / "p.project", "a zz\n")
        out = tmp_path / "team.csv"
        assert main(["team", "--graph", path5, "--scheme", "uniform",
                     "--skills", skills, "--project", proj,
                     "--variant", "tree-hops", "--out", str(out)]) == 0
        r = read_rows(out)[1]
        assert "unknown skill" in r[11] and r[4] == ""

    @pytest.mark.parametrize("c_entry, dropped", [("6 c 4", 1), ("1 c 3", 0)])
    def test_skill_held_only_outside_the_component_is_uncoverable(
            self, tmp_path, caplog, c_entry, dropped):
        # c held only by node 6, off the working cycle, reads as c held below
        # --skill-threshold does: uncoverable, not unknown
        g = write(tmp_path / "g.edges", "0 1\n1 2\n2 3\n3 0\n5 6\n")
        skills = write(tmp_path / "s.skills", f"0 a 4\n2 b 4\n{c_entry}\n")
        proj = write(tmp_path / "p.project", "a c\n")
        out = tmp_path / "team.csv"
        assert main(["team", "--graph", g, "--scheme", "uniform", "--skills", skills,
                     "--project", proj, "--variant", "tree-hops", "--out", str(out)]) == 0
        assert read_rows(out)[1][11] == "uncoverable skill: 'c'"
        warning = "1 skill entries reference nodes outside the working component"
        assert (warning in caplog.text) == bool(dropped)

    def test_skill_node_beyond_the_input_graph_exits_1(self, tmp_path, caplog):
        g = write(tmp_path / "cyc.edges", "0 1\n1 2\n2 3\n3 0\n")
        skills = write(tmp_path / "s.skills", "999 c 4\n")
        assert main(["team", "--graph", g, "--scheme", "uniform", "--skills", skills]) == 1
        assert "s.skills:1: node id 999 outside the graph's node range" in caplog.text

    def test_single_holder_project_yields_singleton(self, tmp_path, path5):
        skills = write(tmp_path / "s.skills", "2 solo 9\n")
        proj = write(tmp_path / "p.project", "solo\n")
        out = tmp_path / "team.csv"
        assert main(["team", "--graph", path5, "--scheme", "uniform",
                     "--skills", skills, "--project", proj,
                     "--variant", "peel-sum", "--out", str(out)]) == 0
        assert read_rows(out)[1][8] == "1"

    def test_sampled_projects(self, tmp_path, path5):
        skills = write(tmp_path / "s.skills",
                       "0 a 4\n1 b 4\n2 c 4\n3 d 4\n4 e 4\n")
        out = tmp_path / "team.csv"
        rc = main(["team", "--graph", path5, "--scheme", "uniform",
                   "--skills", skills, "--n-projects", "4",
                   "--variant", "tree-hops", "--out", str(out), "--seed", "4"])
        assert rc == 0
        rows = read_rows(out)[1:]
        assert [r[0] for r in rows] == ["P000", "P001", "P002", "P003"]
        assert all(r[11] == "ok" for r in rows)

    def test_non_convergence_becomes_failed_row(self, tmp_path, path5, monkeypatch):
        def solver(g, latent, sets, **kw):
            raise ConvergenceError("stuck", profiles=latent, residual=1.0, iterations=7)

        monkeypatch.setattr(community, "equilibrium_tensions", solver)
        skills = write(tmp_path / "s.skills", "0 a 4\n4 b 4\n")
        proj = write(tmp_path / "p.project", "a b\n")
        out = tmp_path / "team.csv"
        assert main(["team", "--graph", path5, "--scheme", "uniform",
                     "--skills", skills, "--project", proj,
                     "--variant", "tree-hops", "--out", str(out)]) == 0
        r = read_rows(out)[1]
        assert r[11] == "non-convergence: stuck" and r[4] == "" and r[12] == ""

    def test_lost_coverage_becomes_failed_row(self, tmp_path, path5, monkeypatch):
        def dropping(algorithm, variant, rng_seed=0):
            def solve(g, latent, seeds, weights=None):  # keeps only the smallest seed
                return community.evaluate_solution(g, latent, [min(seeds)])
            return solve

        monkeypatch.setattr(cli, "community_solver", dropping)
        skills = write(tmp_path / "s.skills", "0 a 4\n4 b 4\n")
        proj = write(tmp_path / "p.project", "a b\n")
        out = tmp_path / "team.csv"
        assert main(["team", "--graph", path5, "--scheme", "uniform",
                     "--skills", skills, "--project", proj,
                     "--variant", "tree-hops", "--out", str(out)]) == 0
        r = read_rows(out)[1]
        assert r[11] == "team formation lost coverage of skill 'b'" and r[4] == ""

    def test_stdout_rows_are_quoted_like_the_file(self, tmp_path, path5, capsys):
        # the unknown label "x,y" reaches the status column of both outputs
        skills = write(tmp_path / "s.skills", "0 a 4\n")
        proj = write(tmp_path / "p.project", "a x,y\n")
        argv = ["team", "--graph", path5, "--scheme", "uniform", "--skills", skills,
                "--project", proj, "--variant", "tree-hops", "--no-timing"]
        out = tmp_path / "team.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(printed)))
        assert all(len(r) == len(TEAM_COLUMNS) for r in rows)
        assert rows == read_rows(out) and rows[1][11] == "unknown skill 'x,y'"
        assert "\r" not in printed

    def test_too_few_skills_to_sample_exits_2(self, tmp_path, path5):
        skills = write(tmp_path / "s.skills", "0 a 4\n1 b 4\n")
        assert main(["team", "--graph", path5, "--scheme", "uniform",
                     "--skills", skills]) == 2

    def test_negative_project_count_exits_1(self, tmp_path, path5, caplog):
        skills = write(tmp_path / "s.skills", "0 a 4\n1 b 4\n2 c 4\n")
        out = tmp_path / "team.csv"
        assert main(["team", "--graph", path5, "--scheme", "uniform", "--skills", skills,
                     "--n-projects", "-3", "--out", str(out)]) == 1
        assert "--n-projects must be nonnegative, not -3" in caplog.text
        assert not out.exists()
        # no projects is allowed, as no sets per group is
        assert main(["team", "--graph", path5, "--scheme", "uniform", "--skills", skills,
                     "--n-projects", "0", "--out", str(out)]) == 0
        assert read_rows(out) == [list(TEAM_COLUMNS)]

    def test_missing_skills_file_exits_1(self, path5):
        assert main(["team", "--graph", path5, "--scheme", "uniform"]) == 1


class TestCardinality:
    def test_basic_row(self, tmp_path, path5):
        out = tmp_path / "card.csv"
        rc = main(["cardinality", "--graph", path5, "--scheme", "uniform",
                   "--k", "2", "--out", str(out), "--seed", "5"])
        assert rc == 0
        r = read_rows(out)[1]
        assert r[0] == "k2" and r[1] == "greedy" and r[8] == "2" and r[11] == "ok"
        assert float(r[7]) >= 0.0

    def test_oversized_k_exits_2(self, path5):
        assert main(["cardinality", "--graph", path5, "--scheme", "uniform",
                     "--k", "10"]) == 2

    def test_missing_k_exits_1(self, path5):
        assert main(["cardinality", "--graph", path5, "--scheme", "uniform"]) == 1


class TestBench:
    def test_two_graphs_all_variants(self, tmp_path, path5):
        n = 8
        cyc = write(tmp_path / "cyc8.edges",
                    "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--graph", path5, "--graph", cyc,
                   "--scheme", "uniform", "--seed-size", "2",
                   "--n-candidates", "30", "--per-group", "3",
                   "--repeats", "1", "--out", str(out), "--seed", "6"])
        assert rc == 0
        rows = read_rows(out)
        assert tuple(rows[0]) == BENCH_COLUMNS
        assert len(rows) == 11  # 2 graphs x 5 variants
        assert {r[0] for r in rows[1:]} == {"path5.edges", "cyc8.edges"}
        for r in rows[1:]:
            assert r[5] == "1"
            assert float(r[6]) >= 0.0

    def test_eigenvector_scheme_is_a_usage_error(self, path5, caplog):
        # bench takes no --incidence, which the eigenvector scheme needs
        assert main(["bench", "--graph", path5, "--scheme", "eigenvector"]) == 1
        assert "invalid choice: 'eigenvector'" in caplog.text

    def test_bench_needs_a_graph(self):
        assert main(["bench", "--scheme", "uniform"]) == 1

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_non_positive_repeats_exit_1(self, path5, repeats, caplog):
        assert main(["bench", "--graph", path5, "--scheme", "uniform",
                     "--seed-size", "2", "--n-candidates", "20",
                     "--repeats", repeats]) == 1
        assert "--repeats must be at least 1" in caplog.text


class TestGenProfilesAndSampleSeeds:
    def test_gen_profiles_shape_and_determinism(self, tmp_path, path5):
        a, b = tmp_path / "a.profiles", tmp_path / "b.profiles"
        argv = ["gen-profiles", "--graph", path5, "--scheme", "uniform",
                "--attrs", "2", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        X = read_profiles(a, expected_nodes=5)
        assert X.shape == (5, 2)

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_incidence_count_exits_1(self, tmp_path, path5, count, caplog):
        inc = write(tmp_path / "x.incidence", f"0 f 1\n1 f {count}\n2 g 2\n")
        out = tmp_path / "x.profiles"
        assert main(["gen-profiles", "--graph", path5, "--scheme", "eigenvector",
                     "--incidence", inc, "--out", str(out)]) == 1
        assert f"x.incidence:2: count {count} is not finite" in caplog.text
        assert not out.exists()

    def test_counts_summing_past_the_float_range_exit_1(self, tmp_path, path5):
        # node 0's two "f" counts sum to inf; a dense SVD of this matrix
        # with inf in it never returned, so it runs in a child with a timeout
        inc = write(tmp_path / "x.incidence",
                    "0 f 1e200\n0 f 1e308\n0 h 0.5\n1 h 2\n0 f 1e308\n4 h -3\n2 g 0.5\n")
        out = tmp_path / "x.profiles"
        run = subprocess.run(
            [sys.executable, "-m", "tensionkit.cli", "gen-profiles", "--graph", path5,
             "--scheme", "eigenvector", "--attrs", "2", "--incidence", inc, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=60)
        assert run.returncode == 1
        assert "incidence entries must be finite" in run.stderr
        assert not out.exists()

    def test_failed_singular_vector_exits_3(self, tmp_path, path5, monkeypatch, caplog):
        real_svd = np.linalg.svd

        def perturbed(a, full_matrices=True):
            U, S, Vt = real_svd(a, full_matrices=full_matrices)
            return U + 1e-3, S, Vt

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        inc = write(tmp_path / "x.incidence", "0 f\n1 f\n2 g\n3 g 2\n4 h\n")
        out = tmp_path / "x.profiles"
        assert main(["gen-profiles", "--graph", path5, "--scheme", "eigenvector",
                     "--incidence", inc, "--out", str(out)]) == 3
        assert "non-convergence: singular vector 0 failed the residual check" in caplog.text
        assert not out.exists()

    def test_gen_profiles_needs_out(self, path5):
        assert main(["gen-profiles", "--graph", path5, "--scheme", "uniform"]) == 1

    def test_sample_seeds_writes_three_groups(self, tmp_path):
        n = 14
        g = write(tmp_path / "p.edges",
                  "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        prefix = tmp_path / "sets"
        rc = main(["sample-seeds", "--graph", g, "--seed-size", "2",
                   "--n-candidates", "60", "--per-group", "4",
                   "--out", str(prefix), "--seed", "11"])
        assert rc == 0
        for label in ("D1", "D2", "D3"):
            sets = read_seed_sets(f"{prefix}.{label}", n)
            assert 1 <= len(sets) <= 4
            assert all(len(s) == 2 for s in sets)

    @pytest.mark.parametrize("command", [
        ["comm", "--scheme", "uniform"],
        ["bench", "--scheme", "uniform"],
        ["sample-seeds", "--out", "sets"]])
    def test_negative_per_group_exits_1(self, tmp_path, path5, command, caplog):
        argv = command[:1] + ["--graph", path5] + command[1:]
        argv = [str(tmp_path / a) if a == "sets" else a for a in argv]
        assert main(argv + ["--seed-size", "2", "--n-candidates", "20",
                            "--per-group", "-3"]) == 1
        assert "sets per group must be nonnegative, not -3" in caplog.text
        assert not list(tmp_path.glob("sets*"))


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, path5):
        cfg = write(tmp_path / "cfg.json", json.dumps({"scheme": "uniform", "attrs": 3}))
        out1 = tmp_path / "c1.profiles"
        assert main(["gen-profiles", "--graph", path5, "--config", cfg,
                     "--out", str(out1)]) == 0
        assert read_profiles(out1).shape == (5, 3)
        out2 = tmp_path / "c2.profiles"
        assert main(["gen-profiles", "--graph", path5, "--config", cfg,
                     "--attrs", "2", "--out", str(out2)]) == 0
        assert read_profiles(out2).shape == (5, 2)

    def test_dashed_keys_accepted(self, tmp_path, path5):
        cfg = write(tmp_path / "cfg.json",
                    json.dumps({"scheme": "uniform", "n-candidates": 20,
                                "seed-size": 2, "per-group": 2}))
        out = tmp_path / "comm.csv"
        assert main(["comm", "--graph", path5, "--config", cfg,
                     "--variant", "tree-hops", "--out", str(out)]) == 0
        assert len(read_rows(out)) >= 2

    def test_unknown_key_exits_1(self, tmp_path, path5):
        cfg = write(tmp_path / "cfg.json", json.dumps({"scheem": "uniform"}))
        assert main(["gen-profiles", "--graph", path5, "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 1

    def test_invalid_json_exits_1(self, tmp_path, path5):
        cfg = write(tmp_path / "cfg.json", "{not json")
        assert main(["gen-profiles", "--graph", path5, "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 1


class TestConfigValuesParsedLikeFlags:
    def test_list_switch_and_underscored_keys(self, tmp_path, path5):
        cfg = write(tmp_path / "cfg.json", json.dumps(
            {"scheme": "uniform", "variant": ["tree-hops", "peel-sum"],
             "timing": False, "seed_size": 2, "n_candidates": 20, "per_group": 2}))
        out = tmp_path / "comm.csv"
        assert main(["comm", "--graph", path5, "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)[1:]
        assert rows and {(r[1], r[2]) for r in rows} == {("tree", "hops"), ("peel", "sum")}
        assert all(r[10] == "" for r in rows)

    def test_flag_replaces_config_list(self, tmp_path, path5):
        cfg = write(tmp_path / "cfg.json", json.dumps(
            {"scheme": "uniform", "variant": ["tree-hops", "peel-sum"],
             "seed-size": 2, "n-candidates": 20, "per-group": 2}))
        out = tmp_path / "comm.csv"
        assert main(["comm", "--graph", path5, "--config", cfg,
                     "--variant", "peel-max", "--out", str(out)]) == 0
        assert {r[2] for r in read_rows(out)[1:]} == {"max"}


class TestUsageErrors:
    @pytest.mark.parametrize("extra", [
        ["--variant", "bogus"],
        ["--weight-norm", "l3"],
        ["--frobnicate"],
        ["--seed", "1.5"],
        ["--tol", "5"],  # a conform flag
        ["--k", "3"],  # a cardinality flag
    ])
    def test_bad_comm_flag_exits_1(self, path5, extra):
        assert main(["comm", "--graph", path5, "--scheme", "uniform"] + extra) == 1

    def test_nan_tolerance_exits_1(self, edge_pair):
        g, x = edge_pair
        assert main(["conform", "--graph", g, "--profiles", x, "--tol", "nan"]) == 1

    def test_flag_of_another_subcommand_exits_1(self, edge_pair):
        g, x = edge_pair
        assert main(["conform", "--graph", g, "--profiles", x, "--k", "3"]) == 1

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1

    @pytest.mark.parametrize("config", [
        {"k": "3"},
        {"attrs": "two"},
        {"seed": 1.5},
        {"seed": True},
        {"variant": "tree-hops"},
        {"variant": ["bogus"]},
        {"weight_norm": "l3"},
        {"timing": "no"},
        {"out": ["a", "b"]},
        {"tol": 1e-6},  # a conform flag
        {"config": "other.json"},
    ])
    def test_bad_config_value_exits_1(self, tmp_path, path5, config):
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        assert main(["cardinality", "--graph", path5, "--scheme", "uniform",
                     "--k", "2", "--config", cfg]) == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["comm", "--help"])
        assert exc.value.code == 0
        assert "--seed-size" in capsys.readouterr().out


HELP_FLAGS = {
    "conform": "graph profiles tol max-iter out",
    "comm": "graph profiles scheme attrs lam alpha incidence seeds seed-size "
            "n-candidates per-group variant weight-norm seed timing out",
    "team": "graph profiles scheme attrs lam alpha incidence skills skill-threshold "
            "project n-projects variant weight-norm seed timing out",
    "cardinality": "graph profiles scheme attrs lam alpha incidence k weight-norm "
                   "seed timing out",
    "bench": "graph scheme attrs lam alpha seed-size n-candidates per-group repeats "
             "variant weight-norm seed out",
    "gen-profiles": "graph scheme attrs lam alpha incidence seed out",
    "sample-seeds": "graph seed-size n-candidates per-group seed out",
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_exactly_the_subcommands_flags(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    assert listed == ["--config"] + [f"--{name}" for name in HELP_FLAGS[command].split()]


# -- hostile files: a documented exit code, never an exception --------------

COUNTS = ["1", "2", "0", "-3", "0.5", "1e10", "1e-10", "1e200", "1e308", "1e400",
          "nan", "NaN", "inf", "-inf", "x", "1.5.2", ""]
LABELS = st.text(alphabet='ab,"', min_size=1, max_size=3)


def run_main(argv):
    """``main(argv)``'s return code and what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = main(argv)
    return rc, printed.getvalue()


@st.composite
def incidence_files(draw):
    """Incidence text for a 5-node graph: ids out of range and non-finite,
    negative, huge or malformed counts; returns it and whether some count
    parses to a non-finite float."""
    lines, non_finite = [], False
    for _ in range(draw(st.integers(1, 8))):
        node, count = draw(st.integers(-1, 6)), draw(st.sampled_from(COUNTS))
        lines.append(f"{node} {draw(st.sampled_from('fgh'))} {count}".rstrip())
        try:
            non_finite |= not math.isfinite(float(count))
        except ValueError:
            pass
    return "\n".join(lines) + "\n", non_finite


@given(incidence_files(), st.sampled_from(["1", "2"]))
@settings(max_examples=80)
def test_hostile_incidence_files(case, attrs):
    text, non_finite = case
    with tempfile.TemporaryDirectory() as tmp:
        graph = write(Path(tmp) / "g.edges", "0 1\n1 2\n2 3\n3 4\n")
        inc = write(Path(tmp) / "x.incidence", text)
        out = Path(tmp) / "x.profiles"
        rc, _ = run_main(["gen-profiles", "--graph", graph, "--scheme", "eigenvector",
                          "--attrs", attrs, "--incidence", inc, "--out", str(out)])
        assert rc in (0, 1, 2, 3)
        if non_finite:
            assert rc == 1
        if rc == 0:
            assert read_profiles(out, 5).shape == (5, int(attrs))


@given(st.lists(st.tuples(st.integers(0, 4), LABELS, st.sampled_from(["1", "4", "9"]))
                | st.just(None), min_size=1, max_size=6),
       st.lists(LABELS, min_size=1, max_size=4), st.booleans())
@settings(max_examples=60)
def test_hostile_team_files(entries, project, blank_lines):
    gap = "\n" if blank_lines else ""
    skills = "".join(gap + ("" if e is None else " ".join(map(str, e))) + "\n"
                     for e in entries)
    with tempfile.TemporaryDirectory() as tmp:
        graph = write(Path(tmp) / "g.edges", "0 1\n1 2\n2 3\n3 4\n")
        sk = write(Path(tmp) / "s.skills", skills)
        proj = write(Path(tmp) / "p.project", gap + " ".join(project) + "\n" + gap)
        rc, printed = run_main(["team", "--graph", graph, "--scheme", "uniform",
                                "--skills", sk, "--project", proj, "--variant", "tree-hops",
                                "--variant", "peel-sum"])
    assert rc in (0, 1, 2, 3)
    rows = list(csv.reader(io.StringIO(printed)))
    assert all(len(r) == len(TEAM_COLUMNS) for r in rows)
    if rc == 0:
        assert rows[0] == list(TEAM_COLUMNS) and len(rows) == 3


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the address space size from /proc/self/statm")
@pytest.mark.parametrize("argv, size", [
    (["cardinality", "--k", "2", "--attrs", "1000000000"], "37.3 GiB"),  # profiles
    (["comm", "--scheme", "uniform"], "14.9 GiB"),  # the CSR row pointers of id 2e9
])
def test_running_out_of_memory_exits_1(tmp_path, path5, argv, size):
    graph = write(tmp_path / "far.edges", "0 2000000000\n") if argv[0] == "comm" else path5
    # the child may grow 512 MB past its size after import, far below either request
    script = textwrap.dedent("""
        import os, resource, sys
        from tensionkit.cli import main
        size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        limit = size + (512 << 20)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        sys.exit(main(sys.argv[1:]))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--graph", graph],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert f"out of memory: Unable to allocate {size}" in proc.stderr


def console_script_command(name):
    """argv prefix that runs console script ``name``.

    The installed executable if it is on PATH; otherwise the
    ``[project.scripts]`` target from ``pyproject.toml``, run in a fresh
    interpreter as pip's launcher does."""
    exe = shutil.which(name)
    if exe:
        return [exe]
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())"]


class TestConsoleScript:
    def test_entry_point_runs(self, edge_pair, tmp_path):
        cmd = console_script_command("tensionkit")
        g, x = edge_pair
        out = tmp_path / "conformed.profiles"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(cmd + ["conform", "--graph", g, "--profiles", x,
                                     "--out", str(out)],
                              capture_output=True, text=True, timeout=120,
                              cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "social tension" in proc.stdout
        assert out.exists()
