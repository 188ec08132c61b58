"""End-to-end acceptance checks.

One test per go/no-go criterion; ``pytest -v`` prints a pass/fail line for
each.  Criteria 7 and 8 reproduce protocol shapes (quality trade-off on a
planted-community graph; runtime ordering across graph sizes) and together
take a few minutes; everything else is seconds.  Measured numbers are
printed, so ``pytest -v -s`` shows them inline.
"""

import time

import numpy as np
import pytest

from tensionkit import (Graph, community_solver, conform, equilibrium_solve,
                        generate_profiles, induced_subgraph, largest_component,
                        node_tension, proxy_weights, sample_seed_groups,
                        seed_connector, social_tension, standardized_metrics)
from tensionkit.cli import main
from tensionkit.rng import derive_seed
from tensionkit.synthetic import (block_incidence, gnm_graph, gnp_graph,
                                  planted_partition_graph)
from tensionkit.teams import SkillMap, form_team

from conftest import (oracle_is_connected, oracle_min_tension,
                      oracle_steiner_edges, random_graph_and_profiles)

ALL_TAGS = ("tree-hops", "tree-weights", "peel-random", "peel-sum", "peel-max")
AWARE_TAGS = ("tree-weights", "peel-sum", "peel-max")
OBLIVIOUS_TAGS = ("tree-hops", "peel-random")


def test_01_conformation_matches_direct_solve():
    """Iterative averaging at tol 1e-9 stays within 1e-7 of the exact
    equilibrium on 50 random graphs, in under 30 seconds total."""
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 201))
        p = float(rng.uniform(0.02, 0.5))
        m = int(rng.choice([1, 6]))
        g = gnp_graph(n, p, rng_seed=int(rng.integers(2 ** 32)))
        X = rng.random((n, m))
        F = conform(g, X, tol=1e-9).conformed
        worst = max(worst, float(np.abs(F - equilibrium_solve(g, X)).max()))
    elapsed = time.perf_counter() - t0
    print(f"\n  worst gap {worst:.3e}, total {elapsed:.2f}s")
    assert worst < 1e-7, f"iterative/direct gap {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_single_edge_closed_form():
    """Opposite latent profiles on one edge settle at (1/3, 2/3) with
    tension 4/9; the per-node and per-edge tension totals agree."""
    g = Graph(2, [(0, 1)])
    X = np.array([[0.0], [1.0]])
    F = conform(g, X, tol=1e-10).conformed
    assert float(np.abs(F[:, 0] - [1 / 3, 2 / 3]).max()) < 1e-9
    edge_total = social_tension(g, X, F)
    assert abs(edge_total - 4 / 9) < 1e-9
    node_total = node_tension(g, X, F, 0) + node_tension(g, X, F, 1)
    assert edge_total == pytest.approx(node_total, rel=1e-12)


def test_03_equilibrium_is_nash_stationary():
    """No node can lower its own cost by moving its expressed profile:
    the per-node gradient vanishes, and central differences agree."""
    rng = np.random.default_rng(30)
    worst_grad = worst_diff = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 61))
        g = gnp_graph(n, float(rng.uniform(0.05, 0.4)),
                      rng_seed=int(rng.integers(2 ** 32)))
        X = rng.random((n, int(rng.choice([1, 3]))))
        F = conform(g, X, tol=1e-10).conformed
        deg = g.degrees().astype(np.float64)[:, None]
        S1 = g.adjacency_csr() @ F
        grad = 2.0 * (F - X) + 2.0 * (deg * F - S1)
        worst_grad = max(worst_grad, float(np.abs(grad).max()))
        # o_i(t) = (t - x_i)^2 + sum_j (t - f_j)^2 is quadratic in t, so the
        # central difference is exact up to rounding
        eps = 1e-5
        S2 = g.adjacency_csr() @ (F ** 2)

        def own_cost(t):
            return (t - X) ** 2 + deg * t ** 2 - 2.0 * t * S1 + S2

        numeric = (own_cost(F + eps) - own_cost(F - eps)) / (2.0 * eps)
        worst_diff = max(worst_diff, float(np.abs(numeric - grad).max()))
    print(f"\n  max |gradient| {worst_grad:.3e}, max central-difference gap {worst_diff:.3e}")
    assert worst_grad < 1e-6
    assert worst_diff < 1e-4


def test_04_every_variant_returns_feasible_communities():
    """200 random (graph, seeds) instances, all five variants: each answer
    contains the seeds and induces a connected subgraph."""
    rng = np.random.default_rng(40)
    checked = 0
    for inst in range(200):
        g, X = random_graph_and_profiles(rng, 5, 40)
        q = set(int(v) for v in
                rng.choice(g.node_count, size=int(rng.integers(1, 5)), replace=False))
        weights = proxy_weights(g, X)
        for tag in ALL_TAGS:
            sol = community_solver(*tag.split("-", 1), rng_seed=inst)(
                g, X, sorted(q), weights)
            assert q <= sol.nodes, f"{tag}: seeds dropped"
            assert oracle_is_connected(g.node_count, g.edges(), sol.nodes), \
                f"{tag}: disconnected answer"
            checked += 1
    assert checked == 1000


def test_05_variants_track_brute_force_optimum():
    """Against exhaustive enumeration on small instances: no variant beats
    the optimum, and the best of the five lands within 2x of it on at
    least 80% of instances."""
    rng = np.random.default_rng(50)
    within = 0
    for inst in range(100):
        g, X = random_graph_and_profiles(rng, 4, 12)
        q = sorted(int(v) for v in
                   rng.choice(g.node_count, size=int(rng.integers(1, 4)), replace=False))
        opt = oracle_min_tension(g.node_count, g.edges(), X, q)
        weights = proxy_weights(g, X)
        best = min(community_solver(*tag.split("-", 1), rng_seed=inst)(
                       g, X, q, weights).tension
                   for tag in ALL_TAGS)
        assert best >= opt - 1e-7, f"tension {best} beats the optimum {opt}"
        if best <= 2.0 * opt + 1e-9:
            within += 1
    print(f"\n  best variant within 2x of optimum on {within}/100 instances")
    assert within >= 80


def test_06_seed_connector_is_steiner_two_approximation():
    """The hop-metric connector uses at most twice the minimum possible
    number of tree edges on every small instance."""
    rng = np.random.default_rng(60)
    for _ in range(100):
        g, _ = random_graph_and_profiles(rng, 4, 10)
        q = sorted(int(v) for v in
                   rng.choice(g.node_count, size=int(rng.integers(1, 5)), replace=False))
        _, edges = seed_connector(g, q, weights=None)
        minimum = oracle_steiner_edges(g.node_count, g.edges(), q)
        assert len(edges) <= 2 * minimum, \
            f"connector {len(edges)} edges vs minimum {minimum}"


@pytest.mark.slow
def test_07_planted_communities_show_aware_vs_oblivious_tradeoff():
    """On a 2000-node planted-community graph with spectrally structured
    profiles, weight-aware variants reach strictly lower mean normalized
    tension than weight-oblivious ones in every dispersion group, while
    each family's oblivious member keeps mean solution size no larger
    than its aware siblings'."""
    g_full, labels = planted_partition_graph(8, 250, p_in=0.02, p_out=0.001,
                                             rng_seed=42)
    M, _ = block_incidence(labels, rng_seed=7)
    X_full = generate_profiles(g_full.node_count, 4, "eigenvector",
                               rng_seed=11, incidence=M)
    comp = largest_component(g_full)
    g, olds = induced_subgraph(g_full, comp)
    X = X_full[olds]
    weights = proxy_weights(g, X)
    groups = sample_seed_groups(g, 7, n_candidates=1000, per_group=30, rng_seed=3)

    mean_tau: dict[tuple[str, str], float] = {}
    mean_mpe: dict[tuple[str, str], float] = {}
    for grp in groups:
        assert len(grp.sets) == 30, f"group {grp.label} has {len(grp.sets)} sets"
        taus = {tag: [] for tag in ALL_TAGS}
        mpes = {tag: [] for tag in ALL_TAGS}
        for idx, seeds in enumerate(grp.sets):
            for tag in ALL_TAGS:
                rng_seed = derive_seed(0, f"peel-random:{grp.label}-{idx:03d}")
                sol = community_solver(*tag.split("-", 1), rng_seed=rng_seed)(
                    g, X, list(seeds), weights)
                met = standardized_metrics(g, weights, sol, list(seeds))
                taus[tag].append(met.tau)
                mpes[tag].append(met.mpe)
        for tag in ALL_TAGS:
            mean_tau[(tag, grp.label)] = float(np.mean(taus[tag]))
            mean_mpe[(tag, grp.label)] = float(np.mean(mpes[tag]))

    lines = ["", "  mean tau / mean size ratio by group:"]
    for tag in ALL_TAGS:
        cells = ", ".join(
            f"{lab}: {mean_tau[(tag, lab)]:.3f}/{mean_mpe[(tag, lab)]:.2f}"
            for lab in ("D1", "D2", "D3"))
        lines.append(f"    {tag:<12} {cells}")
    print("\n".join(lines))

    for lab in ("D1", "D2", "D3"):
        worst_aware = max(mean_tau[(t, lab)] for t in AWARE_TAGS)
        best_oblivious = min(mean_tau[(t, lab)] for t in OBLIVIOUS_TAGS)
        assert worst_aware < best_oblivious, (
            f"{lab}: aware tau up to {worst_aware:.4f} not below "
            f"oblivious tau {best_oblivious:.4f}")
        # the size cost of weight-awareness shows within each family
        assert mean_mpe[("tree-hops", lab)] <= mean_mpe[("tree-weights", lab)]
        assert mean_mpe[("peel-random", lab)] <= mean_mpe[("peel-sum", lab)]
        assert mean_mpe[("peel-random", lab)] <= mean_mpe[("peel-max", lab)]


@pytest.mark.slow
def test_08_runtime_ordering_across_sizes():
    """Mean runtimes order tree-hops < tree-weights < peel-random <
    peel-max <= peel-sum at every size, and both tree variants beat
    peel-sum by 10x or more at n = 2500."""
    plans = ((500, 1750, 3), (2500, 8750, 2), (5000, 17500, 1))
    report = [""]
    ratios_at_2500 = None
    for n, m, reps in plans:
        g_full = gnm_graph(n, m, rng_seed=n)
        g, _ = induced_subgraph(g_full, largest_component(g_full))
        X = generate_profiles(g.node_count, 1, "uniform",
                              rng_seed=derive_seed(0, f"bench-profiles:{n}"))
        weights = proxy_weights(g, X)
        groups = sample_seed_groups(g, 7, n_candidates=40, per_group=reps,
                                    rng_seed=derive_seed(0, f"bench-seeds:{n}"))
        pool = [s for grp in groups for s in grp.sets][:reps]
        assert pool, f"no seed sets sampled at n={n}"
        means = {}
        for tag in ALL_TAGS:
            times = []
            for ridx, seeds in enumerate(pool):
                t0 = time.perf_counter()
                community_solver(
                    *tag.split("-", 1),
                    rng_seed=derive_seed(0, f"peel-random:bench-{n}-{ridx}"))(
                    g, X, list(seeds), weights)
                times.append(time.perf_counter() - t0)
            means[tag] = float(np.mean(times))
        report.append("  n=%d: %s" % (
            n, ", ".join(f"{tag} {means[tag] * 1e3:.1f}ms" for tag in ALL_TAGS)))
        order = (means["tree-hops"], means["tree-weights"], means["peel-random"],
                 means["peel-max"], means["peel-sum"])
        assert order[0] < order[1] < order[2] < order[3] <= order[4], \
            f"ordering violated at n={n}: {means}"
        if n == 2500:
            ratios_at_2500 = (means["peel-sum"] / means["tree-hops"],
                              means["peel-sum"] / means["tree-weights"])
    print("\n".join(report))
    assert ratios_at_2500 is not None
    assert min(ratios_at_2500) >= 10.0, (
        f"peel-sum only {ratios_at_2500[0]:.1f}x / {ratios_at_2500[1]:.1f}x "
        f"slower than the tree variants at n=2500")


def test_09_teams_cover_projects_and_stay_connected():
    """100 random (graph, skills, project) instances: every returned team
    covers the project and is connected in the original graph; the
    three-node path fixture returns exactly its whole path."""
    rng = np.random.default_rng(90)
    variants = [("tree", "hops"), ("tree", "weights"), ("peel", "random"),
                ("peel", "sum"), ("peel", "max")]
    for inst in range(100):
        g, X = random_graph_and_profiles(rng, 4, 20)
        n_skills = int(rng.integers(2, 5))
        entries = []
        for k in range(n_skills):
            holders = rng.choice(g.node_count,
                                 size=int(rng.integers(1, 4)), replace=False)
            entries.extend((int(h), f"s{k}", 4) for h in holders)
        skills = SkillMap.from_counts(g.node_count, entries)
        required = [f"s{k}" for k in range(int(rng.integers(1, n_skills + 1)))]
        algorithm, variant = variants[inst % len(variants)]
        team = form_team(g, X, skills, required,
                         community_solver(algorithm, variant, rng_seed=inst))
        members = team.solution.nodes
        for label in required:
            assert members & skills.holders_of(label), f"skill {label} uncovered"
        assert oracle_is_connected(g.node_count, g.edges(), members)

    path = Graph(3, [(0, 1), (1, 2)])
    X = np.array([[0.1], [0.5], [0.9]])
    skills = SkillMap.from_counts(3, [(0, "a", 4), (2, "b", 4)])
    for algorithm, variant in variants:
        team = form_team(path, X, skills, ["a", "b"],
                         community_solver(algorithm, variant, rng_seed=1))
        assert team.solution.sorted_nodes() == [0, 1, 2]


def test_10_csv_outputs_are_byte_identical(tmp_path):
    """Re-running any CSV-producing command with the same master seed and
    timing disabled reproduces the output byte for byte."""
    n = 16
    graph = tmp_path / "ring.edges"
    graph.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n))
                     + "0 8\n4 12\n")
    skills = tmp_path / "ring.skills"
    skills.write_text("0 a 4\n3 b 4\n6 c 4\n9 d 4\n12 e 4\n")

    batches = {
        "comm": ["comm", "--graph", str(graph), "--scheme", "uniform",
                 "--seed-size", "2", "--n-candidates", "40", "--per-group", "2"],
        "team": ["team", "--graph", str(graph), "--scheme", "uniform",
                 "--skills", str(skills), "--n-projects", "3"],
        "cardinality": ["cardinality", "--graph", str(graph),
                        "--scheme", "uniform", "--k", "3"],
    }
    for name, argv in batches.items():
        outs = []
        for run in ("first", "second"):
            out = tmp_path / f"{name}-{run}.csv"
            rc = main(argv + ["--seed", "7", "--no-timing", "--out", str(out)])
            assert rc == 0, f"{name} run failed"
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{name} outputs differ between runs"
        assert outs[0], f"{name} wrote an empty file"
