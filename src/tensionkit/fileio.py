"""Plain-text file formats used by the command-line tools.

All formats are UTF-8, whitespace-separated text with ``#`` starting a
comment; parse errors name the offending line, and so does a line that is
not valid UTF-8.

Edge lists and profiles are read once, parsed by one ``np.loadtxt`` call and
checked with array tests.  When numpy rejects the text or warns, or a check
fails, the line reader runs on the same bytes instead: it words the error,
or returns its own result for what Python's ``int`` / ``float`` accept and
numpy does not (``1_0``, non-ASCII digits).  numpy never decides what is
valid; it only makes valid input fast.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import warnings
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .graph import Graph


def _read_bytes(path) -> bytes:
    """The whole input, read once, so a pipe serves numpy and the line
    reader alike."""
    with open(path, "rb") as fh:
        return fh.read()


def _data_lines(path, data: bytes | None = None):
    """Yield (line_number, payload) for non-blank, non-comment content of
    ``path``, or of ``data`` when the file was already read."""
    # undecodable bytes become lone surrogates, so the bad line is known by
    # its number and lines still end at \n, \r\n or \r
    source = open(path, "rb") if data is None else io.BytesIO(data)
    with io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{path}:{lineno}: not valid UTF-8 text") from None
            payload = raw.split("#", 1)[0].strip()
            if payload:
                yield lineno, payload


def _load_table(data: bytes, dtype) -> np.ndarray | None:
    """``data`` as a 2-D ``dtype`` array parsed by numpy, or None where
    numpy rejects it or warns."""
    # numpy gets a handle, not the path: its own opener would decompress a
    # .gz path and look for sibling or remote files.  Any warning rejects:
    # older numpy truncates "1.5" to an integer with only a warning, and an
    # empty table (which warns) is an error the line reader words.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(fh, dtype=dtype, comments="#", ndmin=2)
        except (ValueError, OverflowError, Warning):  # UnicodeDecodeError is a ValueError
            return None


def read_edge_list(path) -> Graph:
    """Read an undirected edge list: one ``i j`` pair per line, 0-based ids.

    Duplicate and reversed pairs are deduplicated; self-loops are rejected.
    The node count is the largest id plus one.
    """
    data = _read_bytes(path)
    E = _load_table(data, np.int64)
    if (E is None or E.shape[1] != 2 or not len(E) or E.min() < 0
            or (E[:, 0] == E[:, 1]).any()):
        return _read_edge_list_lines(path, data)
    return Graph(int(E.max()) + 1, E)


def _read_edge_list_lines(path, data: bytes) -> Graph:
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, payload in _data_lines(path, data):
        parts = payload.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected two node ids, got {payload!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: node ids must be integers") from None
        if u < 0 or v < 0:
            raise InputError(f"{path}:{lineno}: node ids must be nonnegative")
        if u == v:
            raise InputError(f"{path}:{lineno}: self-loop at node {u} rejected")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise InputError(f"{path}: no edges found")
    return Graph(max_id + 1, edges)


def write_edge_list(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_profiles(path, expected_nodes: int | None = None) -> np.ndarray:
    """Read a latent profile matrix: row ``i`` holds node ``i``'s attribute
    values, whitespace-separated, each in [0, 1]."""
    data = _read_bytes(path)
    X = _load_table(data, np.float64)
    if (X is None or not len(X) or not ((0 <= X) & (X <= 1)).all()
            or (expected_nodes is not None and len(X) != expected_nodes)):
        return _read_profile_lines(path, data, expected_nodes)
    return X


def _read_profile_lines(path, data: bytes, expected_nodes: int | None) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, payload in _data_lines(path, data):
        parts = payload.split()
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise InputError(f"{path}:{lineno}: attribute values must be numbers") from None
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputError(
                f"{path}:{lineno}: row has {len(vals)} values, expected {width}")
        for v in vals:
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{path}:{lineno}: value {v} outside [0, 1]")
        rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no profile rows found")
    if expected_nodes is not None and len(rows) != expected_nodes:
        raise InputError(
            f"{path}: {len(rows)} profile rows do not match {expected_nodes} graph nodes")
    return np.array(rows, dtype=np.float64)


def write_profiles(path, X: np.ndarray, tension: float | None = None) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in X:
            fh.write(" ".join(f"{v:.12f}" for v in row) + "\n")
        if tension is not None:
            fh.write(f"# tension {tension:.12f}\n")


def read_seed_sets(path, node_count: int) -> list[tuple[int, ...]]:
    """Read seed sets: one set of space-separated node ids per line."""
    sets: list[tuple[int, ...]] = []
    for lineno, payload in _data_lines(path):
        try:
            ids = [int(p) for p in payload.split()]
        except ValueError:
            raise InputError(f"{path}:{lineno}: seed ids must be integers") from None
        for v in ids:
            if not 0 <= v < node_count:
                raise InputError(f"{path}:{lineno}: seed {v} outside node range")
        sets.append(tuple(sorted(set(ids))))
    if not sets:
        raise InputError(f"{path}: no seed sets found")
    return sets


def write_seed_sets(path, sets: Iterable[Sequence[int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sets:
            fh.write(" ".join(str(v) for v in s) + "\n")


def read_skill_counts(path, node_count: int | None = None) -> list[tuple[int, str, int]]:
    """Read skill annotations: ``node_id skill_label count`` per line, with
    node ids below ``node_count`` when it is given."""
    entries: list[tuple[int, str, int]] = []
    for lineno, payload in _data_lines(path):
        parts = payload.split()
        if len(parts) != 3:
            raise InputError(
                f"{path}:{lineno}: expected 'node_id skill_label count', got {payload!r}")
        try:
            node, count = int(parts[0]), int(parts[2])
        except ValueError:
            raise InputError(f"{path}:{lineno}: node id and count must be integers") from None
        if node < 0 or count < 0:
            raise InputError(f"{path}:{lineno}: node id and count must be nonnegative")
        if node_count is not None and node >= node_count:
            raise InputError(f"{path}:{lineno}: node id {node} outside the graph's node range")
        entries.append((node, parts[1], count))
    if not entries:
        raise InputError(f"{path}: no skill entries found")
    return entries


def read_project(path) -> list[str]:
    """Read a project: exactly one line of required skill labels."""
    lines = list(_data_lines(path))
    if len(lines) != 1:
        raise InputError(f"{path}: a project file must contain exactly one line of skill labels")
    return lines[0][1].split()


def read_incidence(path, node_count: int | None = None
                   ) -> tuple[sp.csr_matrix, list[str]]:
    """Read a node-by-feature incidence: ``node_id feature_label [count]``
    per line (count defaults to 1).  Feature columns are ordered by label."""
    raw: list[tuple[int, str, float]] = []
    labels: set[str] = set()
    for lineno, payload in _data_lines(path):
        parts = payload.split()
        if len(parts) not in (2, 3):
            raise InputError(
                f"{path}:{lineno}: expected 'node_id feature_label [count]', got {payload!r}")
        try:
            node = int(parts[0])
            count = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad node id or count") from None
        if node < 0:
            raise InputError(f"{path}:{lineno}: node ids must be nonnegative")
        if node_count is not None and node >= node_count:
            raise InputError(f"{path}:{lineno}: node id {node} outside the graph's node range")
        if not np.isfinite(count):
            raise InputError(f"{path}:{lineno}: count {parts[2]} is not finite")
        raw.append((node, parts[1], count))
        labels.add(parts[1])
    if not raw:
        raise InputError(f"{path}: no incidence entries found")
    ordered = sorted(labels)
    col_of = {lab: j for j, lab in enumerate(ordered)}
    rows = [r for r, _, _ in raw]
    n = node_count if node_count is not None else max(rows) + 1
    cols = [col_of[lab] for _, lab, _ in raw]
    data = [c for _, _, c in raw]
    M = sp.csr_matrix((data, (rows, cols)), shape=(n, len(ordered)), dtype=np.float64)
    return M, ordered


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV to ``path`` (its folder made as needed), or to stdout with ``\\n``
    line ends when ``path`` is None."""
    if path is not None:
        ensure_parent(path)
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        csv.writer(fh, lineterminator="\n" if path is None else "\r\n").writerows([columns, *rows])


def ensure_parent(path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
