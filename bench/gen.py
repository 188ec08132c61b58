"""Seeded input generator for the benchmark workloads (numpy only).

The graph and profile models mirror the ones the test suite uses (planted
partition, uniform random ``G(n, m)``, block incidence with spectral
profiles), but they are re-implemented here so that an edit to the
package's own fixture code cannot change what the benchmark measures.
Everything is drawn from one ``numpy`` generator per workload seed, so the
same seed always writes byte-identical files.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SKILL_THRESHOLD = 4  # count at which a node holds a skill (the CLI default)


@dataclass
class Inputs:
    """Paths of the generated files plus the raw arrays the oracle uses."""

    directory: Path
    edges: np.ndarray            # (E, 2) int64, original ids, u < v, no duplicates
    node_count: int              # rows of the profile file (largest id + 1)
    profiles: np.ndarray         # (node_count, m) exactly as written to disk
    skill_rows: list | None = None      # (node, label, count) as written
    projects: list | None = None        # list of skill-label lists
    digest: str = ""

    @property
    def graph_path(self) -> Path:
        return self.directory / "graph.edges"

    @property
    def profiles_path(self) -> Path:
        return self.directory / "profiles.txt"

    @property
    def skills_path(self) -> Path:
        return self.directory / "skills.txt"

    def project_paths(self) -> list[Path]:
        return [self.directory / f"project-{i:03d}.txt"
                for i in range(len(self.projects or ()))]


# -- models -------------------------------------------------------------------

def planted_partition_edges(rng, n_blocks: int, block_size: int,
                            p_in: float, p_out: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges of an equal-block planted partition and each node's block."""
    n = n_blocks * block_size
    labels = np.arange(n) // block_size
    us, vs = [], []
    for i in range(n - 1):
        probs = np.where(labels[i + 1:] == labels[i], p_in, p_out)
        js = np.nonzero(rng.random(n - i - 1) < probs)[0] + i + 1
        us.append(np.full(len(js), i))
        vs.append(js)
    return np.column_stack([np.concatenate(us), np.concatenate(vs)]).astype(np.int64), labels


def gnm_edges(rng, n: int, m: int) -> np.ndarray:
    """``m`` distinct uniform random edges over ``n`` nodes, sorted."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        pairs = rng.integers(0, n, size=(2 * (m - len(keys)) + 1024, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        fresh = lo * n + hi
        # keep first occurrences in draw order, then drop keys already chosen
        _, first = np.unique(fresh, return_index=True)
        fresh = fresh[np.sort(first)]
        fresh = fresh[~np.isin(fresh, keys)]
        keys = np.concatenate([keys, fresh[:m - len(keys)]])
    keys.sort()
    return np.column_stack([keys // n, keys % n])


def spectral_profiles(rng, labels: np.ndarray, m: int, noise_pool: int = 30,
                      block_count: int = 4, noise_per_node: int = 2) -> np.ndarray:
    """Top-``m`` left singular vectors of a block incidence matrix, each
    column rescaled into [0, 1]."""
    n = len(labels)
    n_blocks = int(labels.max()) + 1
    M = np.zeros((n, n_blocks + noise_pool))
    M[np.arange(n), labels] = block_count
    for i in range(n):
        M[i, n_blocks + rng.choice(noise_pool, size=noise_per_node, replace=False)] = 1.0
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    X = np.empty((n, m))
    for j in range(m):
        col = U[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            col = -col
        lo, hi = col.min(), col.max()
        X[:, j] = (col - lo) / (hi - lo) if hi > lo else 0.0
    return X


def largest_component(n: int, edges: np.ndarray) -> np.ndarray:
    """Sorted nodes of the largest component (ties: smallest minimum id),
    found by a breadth-first search over the raw edge array."""
    adj = adjacency(n, edges)
    seen = np.zeros(n, dtype=bool)
    best: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        if len(comp) > len(best):
            best = comp
    return np.array(sorted(best), dtype=np.int64)


def adjacency(n: int, edges: np.ndarray) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


# -- writers --------------------------------------------------------------------

def _write_edges(path: Path, edges: np.ndarray) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()))


def _write_profiles(path: Path, X: np.ndarray) -> np.ndarray:
    """Write with 12 decimals and return the matrix as it will read back."""
    text = "".join(" ".join(f"{v:.12f}" for v in row) + "\n" for row in X.tolist())
    path.write_text(text)
    return np.array([[float(t) for t in line.split()] for line in text.splitlines()])


def _finish(inputs: Inputs) -> Inputs:
    h = hashlib.sha256()
    for path in sorted(inputs.directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    inputs.digest = h.hexdigest()[:16]
    return inputs


def _profiled_graph(directory: Path, edges: np.ndarray, X: np.ndarray) -> Inputs:
    """Write the model graph with every id shifted up by one, so that node 0
    is isolated.  Set-up then always restricts to the largest component:
    whether a random draw happens to be connected would otherwise choose
    between two set-up paths whose graphs traverse at different speeds."""
    edges = edges + 1
    X = np.vstack([np.full((1, X.shape[1]), 0.5), X])
    # the edge-list reader sizes the graph as largest id + 1
    node_count = int(edges.max()) + 1
    _write_edges(directory / "graph.edges", edges)
    written = _write_profiles(directory / "profiles.txt", X[:node_count])
    return Inputs(directory, edges, node_count, written)


# -- workloads ----------------------------------------------------------------------

def planted(directory: Path, seed: int) -> Inputs:
    """The planted-partition graph of the acceptance suite (8 x 250 nodes,
    p_in 0.02, p_out 0.001) with 4-column spectral profiles."""
    rng = np.random.default_rng([seed, 1])
    edges, labels = planted_partition_edges(rng, 8, 250, 0.02, 0.001)
    X = spectral_profiles(rng, labels, 4)
    return _finish(_profiled_graph(directory, edges, X))


def large(directory: Path, seed: int) -> Inputs:
    """Uniform random graph, 20 000 nodes and 100 000 edges, 1-column
    uniform profiles."""
    rng = np.random.default_rng([seed, 2])
    edges = gnm_edges(rng, 20_000, 100_000)
    X = rng.random((20_000, 1))
    return _finish(_profiled_graph(directory, edges, X))


def small(directory: Path, seed: int) -> Inputs:
    """Uniform random graph, 500 nodes and 1 750 edges, 4-column uniform
    profiles."""
    rng = np.random.default_rng([seed, 3])
    edges = gnm_edges(rng, 500, 1_750)
    X = rng.random((500, 4))
    return _finish(_profiled_graph(directory, edges, X))


def skills(directory: Path, seed: int, n_noise: int = 40,
           n_projects: int = 80) -> Inputs:
    """The planted graph plus skill counts and projects.

    Every node holds its block skill and two of ``n_noise`` noise skills,
    and carries one more noise skill below the holding threshold.  Each
    project asks for 3-13 skills held inside the largest component.
    """
    rng = np.random.default_rng([seed, 4])
    edges, labels = planted_partition_edges(rng, 8, 250, 0.02, 0.001)
    X = spectral_profiles(rng, labels, 4)
    inputs = _profiled_graph(directory, edges, X)
    n = inputs.node_count
    rows = []
    for i in range(1, n):  # node 0 is the isolated one
        rows.append((i, f"b{labels[i - 1]}", int(rng.integers(SKILL_THRESHOLD, 9))))
        picks = rng.choice(n_noise, size=3, replace=False)
        rows.append((i, f"n{picks[0]:02d}", SKILL_THRESHOLD))
        rows.append((i, f"n{picks[1]:02d}", int(rng.integers(SKILL_THRESHOLD, 7))))
        rows.append((i, f"n{picks[2]:02d}", int(rng.integers(1, SKILL_THRESHOLD))))
    (directory / "skills.txt").write_text(
        "".join(f"{i} {lab} {c}\n" for i, lab, c in rows))
    in_comp = set(largest_component(n, inputs.edges).tolist())
    coverable = sorted({lab for i, lab, c in rows if c >= SKILL_THRESHOLD and i in in_comp})
    projects = []
    for p in range(n_projects):
        size = int(rng.integers(3, 14))
        picks = sorted(rng.choice(len(coverable), size=size, replace=False).tolist())
        labs = [coverable[k] for k in picks]
        (directory / f"project-{p:03d}.txt").write_text(" ".join(labs) + "\n")
        projects.append(labs)
    inputs.skill_rows = rows
    inputs.projects = projects
    return _finish(inputs)
