"""Plain-text formats: parsing, validation messages, and round trips."""

import numpy as np
import pytest

from tensionkit import Graph, InputError
from tensionkit.fileio import (read_edge_list, read_incidence, read_profiles,
                               read_project, read_seed_sets,
                               read_skill_counts, write_csv, write_edge_list,
                               write_profiles, write_seed_sets)


class TestEdgeList:
    def test_comments_blanks_and_duplicates(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# a comment\n0 1\n\n1 0  # duplicate, reversed\n2 1\n")
        g = read_edge_list(p)
        assert g.node_count == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_gap_ids_widen_the_graph(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 5\n")
        assert read_edge_list(p).node_count == 6

    def test_self_loop_names_the_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n2 2\n")
        with pytest.raises(InputError, match=r"g\.edges:2: self-loop"):
            read_edge_list(p)

    def test_bad_token_count(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 2\n")
        with pytest.raises(InputError, match="expected two node ids"):
            read_edge_list(p)

    def test_non_integer_ids(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 x\n")
        with pytest.raises(InputError, match="must be integers"):
            read_edge_list(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# nothing\n")
        with pytest.raises(InputError, match="no edges found"):
            read_edge_list(p)

    def test_id_beyond_the_node_limit_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 4000000000\n")
        with pytest.raises(InputError, match="exceeds the limit"):
            read_edge_list(p)

    def test_roundtrip(self, tmp_path):
        g = Graph(5, [(0, 3), (1, 2), (2, 4)])
        p = tmp_path / "g.edges"
        write_edge_list(p, g)
        assert read_edge_list(p).edges() == g.edges()


class TestProfiles:
    def test_basic_read(self, tmp_path):
        p = tmp_path / "x.profiles"
        p.write_text("0.1 0.2\n0.3 0.4  # node 1\n")
        X = read_profiles(p)
        assert np.allclose(X, [[0.1, 0.2], [0.3, 0.4]])

    def test_width_mismatch_names_the_line(self, tmp_path):
        p = tmp_path / "x.profiles"
        p.write_text("0.1 0.2\n0.3\n")
        with pytest.raises(InputError, match=r"x\.profiles:2: row has 1 values, expected 2"):
            read_profiles(p)

    def test_out_of_range_value(self, tmp_path):
        p = tmp_path / "x.profiles"
        p.write_text("0.1\n1.5\n")
        with pytest.raises(InputError, match=r":2: value 1.5 outside"):
            read_profiles(p)

    def test_expected_nodes_enforced(self, tmp_path):
        p = tmp_path / "x.profiles"
        p.write_text("0.1\n0.2\n")
        with pytest.raises(InputError, match="do not match 3 graph nodes"):
            read_profiles(p, expected_nodes=3)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "x.profiles"
        p.write_text("0.1 abc\n")
        with pytest.raises(InputError, match="must be numbers"):
            read_profiles(p)

    def test_roundtrip_with_tension_line(self, tmp_path):
        X = np.array([[1 / 3, 2 / 3], [0.25, 0.75]])
        p = tmp_path / "x.profiles"
        write_profiles(p, X, tension=4 / 9)
        text = p.read_text()
        assert "# tension 0.444444444444" in text
        back = read_profiles(p, expected_nodes=2)  # the comment is skipped
        assert np.allclose(back, X, atol=1e-12)


class TestSeedSets:
    def test_read_sorts_and_dedupes(self, tmp_path):
        p = tmp_path / "q.seeds"
        p.write_text("3 1 3\n0 2\n")
        assert read_seed_sets(p, 4) == [(1, 3), (0, 2)]

    def test_out_of_range_seed(self, tmp_path):
        p = tmp_path / "q.seeds"
        p.write_text("0 9\n")
        with pytest.raises(InputError, match=r":1: seed 9 outside node range"):
            read_seed_sets(p, 4)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "q.seeds"
        p.write_text("")
        with pytest.raises(InputError, match="no seed sets"):
            read_seed_sets(p, 4)

    def test_roundtrip(self, tmp_path):
        sets = [(0, 2, 5), (1, 3)]
        p = tmp_path / "q.seeds"
        write_seed_sets(p, sets)
        assert read_seed_sets(p, 6) == sets


class TestSkillsAndProject:
    def test_skill_counts(self, tmp_path):
        p = tmp_path / "skills.txt"
        p.write_text("0 db 5\n1 ml 2  # below any threshold is fine here\n")
        assert read_skill_counts(p) == [(0, "db", 5), (1, "ml", 2)]

    def test_skill_bad_shape(self, tmp_path):
        p = tmp_path / "skills.txt"
        p.write_text("0 db\n")
        with pytest.raises(InputError, match="expected 'node_id skill_label count'"):
            read_skill_counts(p)

    def test_skill_negative_count(self, tmp_path):
        p = tmp_path / "skills.txt"
        p.write_text("0 db -1\n")
        with pytest.raises(InputError, match="nonnegative"):
            read_skill_counts(p)

    def test_project_single_line(self, tmp_path):
        p = tmp_path / "proj.txt"
        p.write_text("# required\ndb ml stats\n")
        assert read_project(p) == ["db", "ml", "stats"]

    def test_project_multiple_lines_rejected(self, tmp_path):
        p = tmp_path / "proj.txt"
        p.write_text("db\nml\n")
        with pytest.raises(InputError, match="exactly one line"):
            read_project(p)


class TestIncidence:
    def test_columns_ordered_by_label(self, tmp_path):
        p = tmp_path / "inc.txt"
        p.write_text("0 zeta\n1 alpha 3\n1 zeta 2\n")
        M, labels = read_incidence(p)
        assert labels == ["alpha", "zeta"]
        assert M.shape == (2, 2)
        dense = M.toarray()
        assert dense[0, 1] == 1.0 and dense[1, 0] == 3.0 and dense[1, 1] == 2.0

    def test_node_count_bound(self, tmp_path):
        p = tmp_path / "inc.txt"
        p.write_text("5 f\n")
        with pytest.raises(InputError, match="outside the graph's node range"):
            read_incidence(p, node_count=3)

    def test_explicit_node_count_pads_rows(self, tmp_path):
        p = tmp_path / "inc.txt"
        p.write_text("0 f\n")
        M, _ = read_incidence(p, node_count=4)
        assert M.shape == (4, 1)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "inc.txt"
        p.write_text("# none\n")
        with pytest.raises(InputError, match="no incidence entries"):
            read_incidence(p)


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(p, ("a", "b"), [(1, "x"), (2.5, "")])
        # read_text translates the csv module's \r\n line endings
        assert p.read_text() == "a,b\n1,x\n2.5,\n"
