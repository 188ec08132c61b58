"""Plain-text formats: parsing, validation messages, and round trips."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_read_edge_list, reference_read_profiles
from tensionkit import Graph, InputError
from tensionkit.fileio import (read_edge_list, read_incidence, read_profiles,
                               read_project, read_seed_sets,
                               read_skill_counts, write_csv, write_edge_list,
                               write_profiles, write_seed_sets)

# separators Python's str.split() takes as whitespace, and line endings
SEPS = [" ", "  ", "\t", " \t ", "\xa0", "\x0b", "\x0c", "\x1c", "\u2003"]
ENDS = ["\n", "\r\n", "\r"]
# lines that are no data: blank, comment-only, whitespace-only
FILLER = ["", "# a comment", "   ", "\t# indented comment", "\xa0"]


@st.composite
def edge_files(draw):
    """Edge-list text mixing valid pairs in the spellings Python's ``int``
    takes (some numpy rejects) with comments and every kind of bad line."""
    def node_id(v):
        return draw(st.sampled_from([str(v), f"+{v}", f"0{v}", "-0" if v == 0 else str(v),
                                     "1_0" if v == 10 else str(v),
                                     "\u0663" if v == 3 else str(v)]))

    kinds = draw(st.lists(st.sampled_from(["pair"] * 4 + ["filler", "comment"]), max_size=10))
    if draw(st.booleans()):  # one bad line, anywhere
        kinds.insert(draw(st.integers(0, len(kinds))), draw(st.sampled_from(
            ["one", "three", "negative", "loop", "word", "float", "large", "huge"])))
    lines = []
    for kind in kinds:
        u, v = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        sep = draw(st.sampled_from(SEPS))
        if kind == "pair":
            v = v if v != u else u + 1
            line = node_id(u) + sep + node_id(v)
        elif kind == "filler":
            line = draw(st.sampled_from(FILLER))
        elif kind == "comment":
            line = f"{u}{sep}{u + 1} # inline{sep}comment"
        elif kind == "one":
            line = str(u)
        elif kind == "three":
            line = f"{u}{sep}{u + 1}{sep}{v}"
        elif kind == "negative":
            line = f"{u}{sep}-{v + 1}"
        elif kind == "loop":
            line = f"{u}{sep}{u}"
        elif kind == "word":
            line = f"{u}{sep}x"
        elif kind == "float":
            line = f"{u}{sep}{v}.0"
        elif kind == "large":  # past the node limit, within int64
            line = f"{u}{sep}{2**31 - 1 + v}"
        else:  # past int64
            line = f"{2**63 + v}{sep}{u}"
        lines.append(line + draw(st.sampled_from(ENDS)))
    return "".join(lines)


@st.composite
def profile_files(draw):
    """Profile text mixing values in the spellings Python's ``float`` takes
    (some numpy rejects) with comments and every kind of bad row."""
    width = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["row"] * 4 + ["filler", "comment"]), max_size=8))
    if draw(st.booleans()):  # one bad row, anywhere
        kinds.insert(draw(st.integers(0, len(kinds))),
                     draw(st.sampled_from(["ragged", "outside", "word"])))
    lines = []
    for kind in kinds:
        row = [draw(st.floats(0, 1)) for _ in range(width)]
        cells = [draw(st.sampled_from([repr(x), f"{x:.12f}", f"{x:+.3e}", f"{x:.6g}"]))
                 for x in row]
        if kind == "row":
            k = draw(st.integers(0, width - 1))
            cells[k] = draw(st.sampled_from(
                [cells[k]] * 4 + ["0", "1", "-0.0", "+.5", "5e-1", "1_0e-1", "\u0660.\u0665"]))
        elif kind == "ragged":
            cells = cells + cells[:1] if draw(st.booleans()) else cells[:-1] or ["0.5", "0.5"]
        elif kind == "outside":
            cells[-1] = draw(st.sampled_from(["1.5", "-0.1", "nan", "inf", "-inf", "1e400"]))
        elif kind == "word":
            cells[0] = "abc"
        sep = draw(st.sampled_from(SEPS))
        line = sep.join(cells)
        if kind == "filler":
            line = draw(st.sampled_from(FILLER))
        elif kind == "comment":
            line += " # node"
        lines.append(line + draw(st.sampled_from(ENDS)))
    return "".join(lines)


def outcome(read, path, *args):
    try:
        return read(path, *args)
    except InputError as e:
        return str(e)


class TestAgainstTheLineReaders:
    """The numpy parse keeps the line readers' results and messages."""

    @given(edge_files())
    @example("0 1\n2 -3\n")  # every line parses: the checks decide
    @example("0 1 2\n3 4 5\n")
    @example("7\n")
    @settings(max_examples=200)
    def test_edge_list_matches_the_reference(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("edges") / "g.edges"
        p.write_bytes(text.encode("utf-8"))
        want, got = outcome(reference_read_edge_list, p), outcome(read_edge_list, p)
        if isinstance(want, str):
            assert isinstance(got, str) and got == want
        else:
            assert got.node_count == want.node_count
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.edge_array(), want.edge_array())

    @given(profile_files(), st.sampled_from([None, 0, 0, -1, 1]))
    @example("0.5\n1.5\n", None)  # every row parses: the checks decide
    @example("0.5\nnan\n", 0)
    @example("0.5\n0.25\n", 1)
    @settings(max_examples=200)
    def test_profiles_match_the_reference(self, tmp_path_factory, text, rows_off):
        p = tmp_path_factory.mktemp("profiles") / "x.profiles"
        p.write_bytes(text.encode("utf-8"))
        rows = sum(1 for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                   if line.split("#")[0].strip())
        expected = None if rows_off is None else max(rows + rows_off, 0)
        want = outcome(reference_read_profiles, p, expected)
        got = outcome(read_profiles, p, expected)
        if isinstance(want, str):
            assert isinstance(got, str) and got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # bit for bit

    @pytest.mark.parametrize("read", [read_edge_list, read_profiles])
    @pytest.mark.parametrize("text", ["", "# only a comment\n", "0 1\n"])
    def test_no_warning_leaks(self, tmp_path, read, text):
        p = tmp_path / "in.txt"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" included
            try:
                read(p)
            except InputError:
                pass

    @pytest.mark.parametrize("read, text, table, want", [
        # numpy before the deprecation expired read "1.5" as 1, with a warning
        (read_edge_list, "0 1.5\n", [[0, 1]], r"in\.txt:1: node ids must be integers"),
        (read_profiles, "0.5\n2\n", [[0.5], [1.0]], r"in\.txt:2: value 2.0 outside \[0, 1\]"),
    ])
    def test_a_numpy_warning_rejects_the_table(self, tmp_path, monkeypatch,
                                               read, text, table, want):
        def loadtxt(*args, **kwargs):
            warnings.warn("parsing via a float is deprecated", DeprecationWarning)
            return np.array(table)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        p = tmp_path / "in.txt"
        p.write_text(text)
        with pytest.raises(InputError, match=want):
            read(p)

    @pytest.mark.parametrize("read, reference, text", [
        (read_edge_list, reference_read_edge_list, "0 1\n2 x\n"),
        (read_edge_list, reference_read_edge_list, "0 1\n1_0 2\n"),
        (read_profiles, reference_read_profiles, "0.5\nabc\n"),
        (read_profiles, reference_read_profiles, "0.5\n1_0e-1\n"),
    ])
    def test_a_pipe_is_read_once(self, tmp_path, read, reference, text):
        """The line reader gets the bytes numpy saw, not a drained pipe
        (the input of ``--graph <(zcat g.gz)``)."""
        plain = tmp_path / "in.txt"
        plain.write_text(text)
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        try:
            pipe = f"/dev/fd/{r}"
            got = outcome(read, pipe)
        finally:
            os.close(r)
        want = outcome(reference, plain)
        if isinstance(want, str):
            assert got == want.replace(str(plain), pipe)
        elif read is read_edge_list:
            assert np.array_equal(got.edge_array(), want.edge_array())
        else:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("read, good", [
    (read_edge_list, "0 1\n"),
    (read_profiles, "0.5\n"),
    (lambda p: read_seed_sets(p, 4), "0 1\n"),
    (read_skill_counts, "0 db 5\n"),
    (read_project, "db\n"),
    (read_incidence, "0 f\n"),
])
def test_non_utf8_line_is_named(tmp_path, read, good):
    p = tmp_path / "in.txt"
    p.write_bytes(b"# header\n" + b"# caf\xc3\xa9 is fine\n" + good.encode() + b"\xff\n")
    with pytest.raises(InputError, match=r"in\.txt:4: not valid UTF-8 text"):
        read(p)


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

    def test_skill_node_outside_the_given_node_count(self, tmp_path):
        p = tmp_path / "skills.txt"
        p.write_text("0 db 5\n3 ml 4\n")
        assert read_skill_counts(p, node_count=4) == [(0, "db", 5), (3, "ml", 4)]
        with pytest.raises(InputError,
                           match="skills.txt:2: node id 3 outside the graph's node range"):
            read_skill_counts(p, node_count=3)

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
        p.write_text("0 f\n5 f\n")
        with pytest.raises(InputError, match="inc.txt:2: node id 5 outside the graph's node range"):
            read_incidence(p, node_count=3)

    def test_explicit_node_count_pads_rows(self, tmp_path):
        p = tmp_path / "inc.txt"
        p.write_text("0 f\n")
        M, _ = read_incidence(p, node_count=4)
        assert M.shape == (4, 1)

    @pytest.mark.parametrize("count", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_count_rejected(self, tmp_path, count):
        p = tmp_path / "inc.txt"
        p.write_text(f"0 f 2\n# note\n1 g {count}\n")
        with pytest.raises(InputError, match=f"inc.txt:3: count {count} is not finite"):
            read_incidence(p)

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
