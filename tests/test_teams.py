"""Team formation: skill maps, the extended-graph reduction, greedy sizing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensionkit import (Graph, InfeasibleError, InputError, SkillMap,
                        community_solver, conformation, evaluate_solution,
                        form_team, greedy_fixed_size, largest_component,
                        proxy_weights, teams)
from tensionkit.community import PEEL_VARIANTS, TREE_VARIANTS
from tensionkit.teams import skill_extended_graph

from conftest import (edge_weights, oracle_is_connected, oracle_tension,
                      random_graph_and_profiles, reference_greedy_sets)

ALL_SOLVERS = [("tree", v) for v in TREE_VARIANTS] + [("peel", v) for v in PEEL_VARIANTS]


# -- skill ingestion -----------------------------------------------------------

class TestSkillMap:
    def test_threshold_filters_holders(self):
        skills = SkillMap.from_counts(
            3, [(0, "db", 5), (1, "db", 3), (2, "ml", 4)], threshold=4)
        assert skills.labels == ("db", "ml")
        assert skills.holders_of("db") == {0}
        assert skills.holders_of("ml") == {2}

    def test_duplicate_entries_accumulate(self):
        skills = SkillMap.from_counts(
            2, [(0, "db", 2), (0, "db", 2)], threshold=4)
        assert skills.holders_of("db") == {0}

    def test_unknown_label_rejected(self):
        skills = SkillMap.from_counts(2, [(0, "db", 4)])
        with pytest.raises(InputError, match="unknown skill"):
            skills.index("ml")

    def test_node_out_of_range_rejected(self):
        with pytest.raises(InputError, match="outside the graph"):
            SkillMap.from_counts(2, [(5, "db", 4)])

    @pytest.mark.parametrize("node", [1.5, "1", np.nan])
    def test_non_integer_node_rejected(self, node):
        # kept as a holder, it would make form_team report a lost skill
        with pytest.raises(InputError, match="integer node ids"):
            SkillMap.from_counts(4, [(0, "a", 4), (node, "a", 4)])

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(InputError):
            SkillMap.from_counts(2, [(0, "db", 4)], threshold=0)


# -- extended graph --------------------------------------------------------------

class TestSkillExtendedGraph:
    def test_single_holder_adjacency(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        skills = SkillMap.from_counts(4, [(3, "db", 4)])
        ext, ids, ext_X = skill_extended_graph(g, skills, np.zeros((4, 1)))
        s = ids["db"]
        assert s == 4
        assert ext.indices[ext.indptr[s]:ext.indptr[s + 1]].tolist() == [3]

    def test_two_holders_degree_two(self):
        g = Graph(3, [(0, 1), (1, 2)])
        skills = SkillMap.from_counts(3, [(0, "a", 4), (2, "a", 4)])
        ext, ids, _ = skill_extended_graph(g, skills, np.zeros((3, 1)))
        assert ext.degrees()[ids["a"]] == 2

    def test_skill_node_profile_is_holder_mean(self):
        g = Graph(3, [(0, 1), (1, 2)])
        X = np.array([[0.2], [0.4], [0.8]])
        skills = SkillMap.from_counts(3, [(0, "a", 4), (2, "a", 4)])
        _, ids, ext_X = skill_extended_graph(g, skills, X)
        assert ext_X[ids["a"], 0] == pytest.approx(0.5, abs=1e-15)

    def test_unheld_skill_gets_zero_profile(self):
        g = Graph(2, [(0, 1)])
        skills = SkillMap.from_counts(2, [(0, "a", 1), (0, "ghost", 1)], threshold=2)
        # "ghost" stays in the universe but nobody reaches the threshold
        skills = SkillMap(skills.labels, (frozenset({0}), frozenset()))
        _, ids, ext_X = skill_extended_graph(g, skills, np.full((2, 1), 0.9))
        assert ext_X[ids["ghost"], 0] == 0.0


    @given(st.integers(0, 100_000))
    @settings(max_examples=40)
    def test_edges_and_profiles_match_a_pairwise_build(self, seed):
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 1, 12, m_attrs=2, connected=False)
        n = g.node_count
        holders = tuple(frozenset(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                             replace=False).tolist())
                        for _ in range(int(rng.integers(0, 4))))
        skills = SkillMap(tuple(f"s{k}" for k in range(len(holders))), holders)
        ext, ids, ext_X = skill_extended_graph(g, skills, X)
        pairs = g.edges() + [(h, n + k) for k, hs in enumerate(holders) for h in hs]
        assert ext.node_count == n + len(holders)
        assert ext.edges() == sorted(pairs)
        assert ids == {f"s{k}": n + k for k in range(len(holders))}
        for k, hs in enumerate(holders):
            want = X[sorted(hs)].mean(axis=0) if hs else np.zeros(2)
            assert ext_X[n + k].tolist() == want.tolist()
        assert ext_X[:n].tolist() == X.tolist()


# -- the two-step reduction -------------------------------------------------------

class TestFormTeam:
    def test_single_skill_single_holder(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        X = np.random.default_rng(0).random((5, 1))
        skills = SkillMap.from_counts(5, [(2, "db", 4)])
        solver = community_solver("tree", "hops")
        team = form_team(g, X, skills, ["db"], solver)
        assert team.solution.sorted_nodes() == [2]

    def test_two_skills_same_holder(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        X = np.random.default_rng(1).random((4, 1))
        skills = SkillMap.from_counts(4, [(1, "a", 4), (1, "b", 4), (3, "a", 4)])
        solver = community_solver("tree", "hops")
        team = form_team(g, X, skills, ["a", "b"], solver)
        assert team.solution.sorted_nodes() == [1]

    def test_path_graph_two_end_skills(self):
        g = Graph(3, [(0, 1), (1, 2)])
        X = np.array([[0.1], [0.5], [0.9]])
        skills = SkillMap.from_counts(3, [(0, "a", 4), (2, "b", 4)])
        for algorithm, variant in ALL_SOLVERS:
            solver = community_solver(algorithm, variant, rng_seed=5)
            team = form_team(g, X, skills, ["a", "b"], solver)
            assert team.solution.sorted_nodes() == [0, 1, 2]
            assert team.step2_noop  # step 2 returns step 1's individuals

    def test_uncoverable_skill_rejected(self):
        g = Graph(2, [(0, 1)])
        # "zz" is in the universe but its count never reaches the threshold
        skills = SkillMap.from_counts(2, [(0, "a", 4), (1, "zz", 1)])
        solver = community_solver("tree", "hops")
        with pytest.raises(InfeasibleError, match="uncoverable skill"):
            form_team(g, np.zeros((2, 1)), skills, ["zz"], solver)

    def test_label_outside_universe_rejected(self):
        g = Graph(2, [(0, 1)])
        skills = SkillMap.from_counts(2, [(0, "a", 4)])
        solver = community_solver("tree", "hops")
        with pytest.raises(InputError, match="unknown skill"):
            form_team(g, np.zeros((2, 1)), skills, ["zz"], solver)

    def test_empty_project_rejected(self):
        g = Graph(2, [(0, 1)])
        skills = SkillMap.from_counts(2, [(0, "a", 4)])
        with pytest.raises(InputError):
            form_team(g, np.zeros((2, 1)), skills, [], community_solver("tree", "hops"))

    def test_lost_coverage_is_infeasible(self):
        # a solver that keeps only the smallest seed: step 1 yields no
        # individual, step 2 keeps the holder of "a" alone and loses "b"
        def solver(g, latent, seeds, weights=None):
            return evaluate_solution(g, latent, [min(seeds)])

        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        skills = SkillMap.from_counts(5, [(0, "a", 4), (4, "b", 4)])
        with pytest.raises(InfeasibleError, match="lost coverage of skill 'b'"):
            form_team(g, np.zeros((5, 1)), skills, ["a", "b"], solver)

    def test_step1_includes_unique_holders(self):
        # each required skill held by exactly one node: step 1 must pick them all
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        X = np.random.default_rng(2).random((6, 1))
        skills = SkillMap.from_counts(6, [(0, "a", 4), (5, "b", 4), (3, "c", 4)])
        solver = community_solver("tree", "hops")
        team = form_team(g, X, skills, ["a", "b", "c"], solver)
        assert {0, 3, 5} <= team.step1_individuals

    @given(st.integers(0, 100_000), st.sampled_from(["l2", "l1", "max"]), st.booleans())
    @settings(max_examples=40)
    def test_weights_are_those_of_the_zeroed_overlay(self, seed, norm, given_weights):
        # step 1 weighs the extended graph exactly as proxy weights on it with
        # the skill edges zeroed; step 2 uses the base proxy weights or the
        # caller's
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 2, 14, m_attrs=3)
        entries = [(int(h), f"s{k}", 4) for k in range(3)
                   for h in rng.choice(g.node_count, size=2, replace=False)]
        skills = SkillMap.from_counts(g.node_count, entries)
        weights = proxy_weights(g, rng.random((g.node_count, 3))) if given_weights else None
        calls = []
        inner = community_solver("tree", "weights")

        def solver(graph, latent, seeds, w):
            calls.append((graph, latent, w))
            return inner(graph, latent, seeds, w)

        form_team(g, X, skills, ["s0", "s1", "s2"], solver, weights=weights,
                  weight_norm=norm)
        (ext, ext_X, w1), (base, _, w2) = calls
        ea = ext.edge_array()
        want = proxy_weights(ext, ext_X, norm).with_zeroed(ea[ea[:, 1] >= g.node_count])
        assert w1.graph is ext
        assert w1.values.tobytes() == want.values.tobytes()
        assert base is g
        if given_weights:
            assert w2 is weights
        else:
            assert w2.values.tobytes() == proxy_weights(g, X, norm).values.tobytes()

    @given(st.integers(0, 100_000))
    @settings(max_examples=40)
    def test_coverage_and_original_graph_connectivity(self, seed):
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 4, 18)
        n_skills = int(rng.integers(2, 5))
        entries = []
        for k in range(n_skills):
            holders = rng.choice(g.node_count,
                                 size=int(rng.integers(1, 4)), replace=False)
            entries.extend((int(h), f"s{k}", 4) for h in holders)
        skills = SkillMap.from_counts(g.node_count, entries)
        required = [f"s{k}" for k in range(int(rng.integers(1, n_skills + 1)))]
        algorithm, variant = ALL_SOLVERS[seed % len(ALL_SOLVERS)]
        solver = community_solver(algorithm, variant, rng_seed=seed)
        team = form_team(g, X, skills, required, solver)
        members = team.solution.nodes
        for label in required:
            assert members & skills.holders_of(label), f"{label} uncovered"
        assert oracle_is_connected(g.node_count, g.edges(), members)
        assert max(members) < g.node_count  # no scaffolding ids leak through


# -- fixed-size greedy -------------------------------------------------------------

class TestGreedyFixedSize:
    def test_k1_all_starts_returns_lowest_id(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        X = np.random.default_rng(3).random((4, 1))
        sol = greedy_fixed_size(g, X, 1)
        assert sol.sorted_nodes() == [0] and sol.tension == 0.0

    def test_k_equals_n_takes_whole_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        X = np.random.default_rng(4).random((4, 1))
        sol = greedy_fixed_size(g, X, 4)
        assert sol.sorted_nodes() == [0, 1, 2, 3]

    def test_four_path_picks_matching_pair(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        sol = greedy_fixed_size(g, X, 2)
        assert sol.sorted_nodes() == [0, 1]
        assert sol.tension == pytest.approx(0.0, abs=1e-12)

    def test_k_larger_than_component_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleError, match="largest component"):
            greedy_fixed_size(g, np.zeros((4, 1)), 3)

    def test_k_below_one_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InputError):
            greedy_fixed_size(g, np.zeros((2, 1)), 0)

    def test_sampled_start_mode_is_deterministic(self):
        rng = np.random.default_rng(9)
        g, X = random_graph_and_profiles(rng, 30, 30)
        a = greedy_fixed_size(g, X, 5, rng_seed=2, all_starts_limit=10, sampled_starts=4)
        b = greedy_fixed_size(g, X, 5, rng_seed=2, all_starts_limit=10, sampled_starts=4)
        assert a.nodes == b.nodes

    @pytest.mark.parametrize("sampled", [0, -3])
    def test_sampled_starts_below_one_rejected(self, sampled):
        g, X = random_graph_and_profiles(np.random.default_rng(9), 30, 30)
        with pytest.raises(InputError, match="sampled_starts"):
            greedy_fixed_size(g, X, 5, all_starts_limit=10, sampled_starts=sampled)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40)
    def test_exact_size_and_connected(self, seed):
        rng = np.random.default_rng(seed)
        g, X = random_graph_and_profiles(rng, 3, 16)
        k = int(rng.integers(1, g.node_count + 1))
        sol = greedy_fixed_size(g, X, k)
        assert len(sol.nodes) == k
        assert oracle_is_connected(g.node_count, g.edges(), sol.nodes)
        assert sol.tension == pytest.approx(
            oracle_tension(g.node_count, g.edges(), X, sol.nodes),
            rel=1e-7, abs=1e-10)


def capture_scored_sets(monkeypatch, score: bool = True) -> list[np.ndarray]:
    """Record every array of sets ``greedy_fixed_size`` hands to the scorer;
    with ``score=False`` the sets are not scored (all tensions 0)."""
    batches = []
    real = teams.equilibrium_tensions

    def capture(g, latent, sets, **kw):
        batches.append(np.asarray(sets))
        if score:
            return real(g, latent, sets, **kw)
        return np.zeros(len(sets)), np.zeros(len(sets), dtype=np.int64)

    monkeypatch.setattr(teams, "equilibrium_tensions", capture)
    return batches


def reference_starts(n: int, rng_seed: int = 0, all_starts_limit: int = 500,
                     sampled_starts: int = 32):
    """The starts ``greedy_fixed_size`` documents: every node, or a seeded
    sample of ``sampled_starts``."""
    if n <= all_starts_limit:
        return range(n)
    rng = np.random.default_rng(rng_seed)
    return rng.choice(n, size=min(sampled_starts, n), replace=False).tolist()


def assert_grows_like_reference(g, X, k, weights=None, **kwargs):
    """The sets ``greedy_fixed_size`` scores are, to the last row, those of
    the per-start heap loop (``reference_greedy_sets``)."""
    weights = proxy_weights(g, X) if weights is None else weights
    want = reference_greedy_sets(g, weights, k, reference_starts(g.node_count, **kwargs))
    with pytest.MonkeyPatch.context() as mp:
        batches = capture_scored_sets(mp, score=False)
        if not len(want):
            with pytest.raises(InfeasibleError, match="no start grew"):
                greedy_fixed_size(g, X, k, weights=weights, **kwargs)
            return
        greedy_fixed_size(g, X, k, weights=weights, **kwargs)
    (got,) = batches
    assert np.array_equal(got, want), k


def shuffled_components(rng, sizes, extra_p=0.3):
    """Connected random components of the given sizes, ids interleaved."""
    n = sum(sizes)
    perm = rng.permutation(n)
    edges, offset = [], 0
    for size in sizes:
        ids = perm[offset:offset + size]
        for v in range(1, size):
            edges.append((ids[int(rng.integers(0, v))], ids[v]))
        for u in range(size):
            for v in range(u + 1, size):
                if rng.random() < extra_p:
                    edges.append((ids[u], ids[v]))
        offset += size
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


class TestLockstepGrowthMatchesReference:
    """The lockstep growth scores exactly the sets of the per-start heap
    loop it replaced: same picks, same tie rule, same drop-outs."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=30)
    def test_several_components_every_k(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(x) for x in rng.integers(1, 12, int(rng.integers(2, 5)))]
        g = shuffled_components(rng, sizes, extra_p=float(rng.uniform(0.05, 0.5)))
        X = rng.random((g.node_count, int(rng.integers(1, 4))))
        for k in range(1, max(sizes) + 1):
            assert_grows_like_reference(g, X, k)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30)
    def test_integer_profiles_tie_exactly(self, seed):
        rng = np.random.default_rng(seed)
        g, _ = random_graph_and_profiles(rng, 2, 24, extra_p=float(rng.uniform(0.05, 0.4)))
        X = rng.integers(0, 3, (g.node_count, int(rng.integers(1, 3)))).astype(float)
        for k in range(1, g.node_count + 1):
            assert_grows_like_reference(g, X, k)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30)
    def test_sampled_starts(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(x) for x in rng.integers(1, 16, int(rng.integers(1, 4)))]
        g = shuffled_components(rng, sizes)
        X = rng.integers(0, 4, (g.node_count, 2)).astype(float)
        kwargs = {"all_starts_limit": int(rng.integers(0, g.node_count)),
                  "sampled_starts": int(rng.integers(1, g.node_count + 3)),
                  "rng_seed": int(rng.integers(0, 1000))}
        for k in range(1, max(sizes) + 1):
            assert_grows_like_reference(g, X, k, **kwargs)

    @given(st.integers(0, 100_000))
    @settings(max_examples=20)
    def test_star_hub_spans_several_blocks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        hub = int(rng.integers(0, n))
        edges = [(hub, v) for v in range(n) if v != hub]
        edges += [(int(u), int(v)) for u, v in rng.integers(0, n, (n // 4, 2)) if u != v]
        g = Graph(n, edges)
        X = rng.integers(0, 3, (n, 1)).astype(float) if seed % 2 else rng.random((n, 2))
        for k in range(1, n + 1, 3):
            assert_grows_like_reference(g, X, k)

    @given(st.integers(0, 100_000))
    @settings(max_examples=20)
    def test_overflowing_increments_tie_by_id(self, seed):
        # max-norm weights near 1e200 are finite, their squares are inf
        rng = np.random.default_rng(seed)
        g, _ = random_graph_and_profiles(rng, 2, 20)
        X = rng.integers(0, 3, (g.node_count, 2)) * 1e200
        weights = proxy_weights(g, X, "max")
        assume(weights.values.max() > 1e155)  # so some w * w is inf
        for k in range(1, g.node_count + 1):
            assert_grows_like_reference(g, X, k, weights=weights)

    @given(st.integers(0, 100_000))
    @settings(max_examples=15)
    def test_starts_split_into_batches(self, seed):
        rng = np.random.default_rng(seed)
        g = shuffled_components(rng, [int(x) for x in rng.integers(1, 14, 3)])
        X = rng.integers(0, 3, (g.node_count, 2)).astype(float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(teams, "GROWTH_ELEMENTS", g.node_count * int(rng.integers(1, 4)))
            for k in range(1, 8):
                if k <= len(largest_component(g)):
                    assert_grows_like_reference(g, X, k)

    def test_increments_accumulate_in_pick_order(self):
        # start 9 reaches x = 5 with w*w = 1 first, then 2**-54 three times
        # through 1, 2, 3: 1.0 in pick order, 1 + 2**-52 in ascending member
        # order, which would tie with y = 4 (1 + 2**-52) and lose on id
        eps = 2.0 ** -27  # eps * eps = 2**-54
        w = {(9, 5): 1.0, (1, 9): 0.0, (2, 9): 0.0, (3, 9): 0.0,
             (1, 5): eps, (2, 5): eps, (3, 5): eps,
             (4, 9): 1.0, (1, 4): 2.0 ** -26}
        g = Graph(10, list(w))
        weights = edge_weights(g, w)
        X = np.zeros((10, 1))
        assert_grows_like_reference(g, X, 5, weights=weights)
        with pytest.MonkeyPatch.context() as mp:
            batches = capture_scored_sets(mp, score=False)
            greedy_fixed_size(g, X, 5, weights=weights)
        assert [1, 2, 3, 5, 9] in batches[0].tolist()
        assert [1, 2, 3, 4, 9] not in batches[0].tolist()


class TestBatchedGreedyScoring:
    """``greedy_fixed_size`` scores its grown sets in one batched call; the
    answer must be the one the per-set path picks from the same sets."""

    @pytest.mark.parametrize("k", range(1, 25))
    def test_matches_best_per_set_evaluation(self, k, monkeypatch):
        g, X = random_graph_and_profiles(np.random.default_rng(21), 24, 24,
                                         m_attrs=3, extra_p=0.15)
        batches = capture_scored_sets(monkeypatch)
        sol = greedy_fixed_size(g, X, k)
        (sets,) = batches
        scored = [evaluate_solution(g, X, row.tolist()) for row in sets]
        best = min(scored, key=lambda s: (s.tension, s.sorted_nodes()))
        assert sol.nodes == best.nodes
        assert sol.edges_induced == best.edges_induced
        assert sol.tension == pytest.approx(best.tension, rel=1e-12)

    def test_exact_tie_goes_to_the_lowest_node_tuple(self):
        n = 12
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        X = np.full((n, 2), 0.3)  # every arc of the cycle has tension 0
        for k in range(1, n + 1):
            sol = greedy_fixed_size(g, X, k)
            assert sol.sorted_nodes() == list(range(k)) and sol.tension == 0.0

    def test_batch_spanning_several_chunks(self, monkeypatch):
        g, X = random_graph_and_profiles(np.random.default_rng(5), 40, 40,
                                         m_attrs=2, extra_p=0.1)
        k = 6
        whole = greedy_fixed_size(g, X, k)
        batches = capture_scored_sets(monkeypatch)
        monkeypatch.setattr(conformation, "BATCH_ELEMENTS", 3 * k * k)
        chunked = greedy_fixed_size(g, X, k)
        assert len(batches[0]) > 3  # so the batch ran in more than one chunk
        assert (chunked.nodes, chunked.edges_induced, chunked.tension) == \
            (whole.nodes, whole.edges_induced, whole.tension)

    @pytest.mark.parametrize("cap", [1, 4, 1 << 18])
    def test_disconnected_set_in_any_chunk_is_infeasible(self, cap, monkeypatch):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        monkeypatch.setattr(conformation, "BATCH_ELEMENTS", cap)
        with pytest.raises(InfeasibleError, match="disconnected"):
            conformation.equilibrium_tensions(
                g, np.zeros((5, 1)), [[0, 1], [1, 2], [2, 3], [3, 4], [1, 3]])


class TestCommunitySolverHandle:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InputError, match="unknown algorithm"):
            community_solver("magic", "hops")

    def test_handle_passes_weights_through(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        X = np.array([[0.0], [0.1], [0.2], [0.9]])
        w = proxy_weights(g, X)
        solver = community_solver("tree", "weights")
        sol = solver(g, X, [0, 2], w)
        assert sol.sorted_nodes() == [0, 1, 2]
