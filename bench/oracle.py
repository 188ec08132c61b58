"""Correctness oracle for one op, independent of the package's graph code.

Connectivity is judged by a breadth-first search over the generated raw
edge array, and tension by a dense ``numpy.linalg.solve`` of
``(I + D - A) F = X`` on the induced subgraph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

import gen

# The package's conformation stops within 1e-9 (max-norm) of the exact
# equilibrium, so its tension agrees with the dense solve far inside this.
TENSION_RTOL = 1e-6
TENSION_ATOL = 1e-9


class OracleError(AssertionError):
    """An op returned an answer the oracle rejects."""


class Oracle:
    """Checks answers given in working-graph ids against the raw inputs.

    ``comp`` maps working ids to original ids: the sorted largest component,
    found here by the oracle's own search.
    """

    def __init__(self, inputs: gen.Inputs):
        self.inputs = inputs
        self.adj = [set(a) for a in gen.adjacency(inputs.node_count, inputs.edges)]
        self.comp = gen.largest_component(inputs.node_count, inputs.edges)
        self.holders: dict[str, set[int]] = {}
        for node, label, count in inputs.skill_rows or ():
            if count >= gen.SKILL_THRESHOLD:
                self.holders.setdefault(label, set()).add(node)

    def check_working_ids(self, olds) -> None:
        if not np.array_equal(np.asarray(olds, dtype=np.int64), self.comp):
            raise OracleError("working graph is not the largest component")

    def check(self, answer) -> None:
        nodes = sorted(self.comp[v] for v in answer.nodes)
        keep = set(nodes)
        if not keep:
            raise OracleError("empty answer")
        missing = {int(self.comp[s]) for s in answer.seeds} - keep
        if missing:
            raise OracleError(f"seeds {sorted(missing)} missing from the answer")
        if answer.k is not None and len(keep) != answer.k:
            raise OracleError(f"answer has {len(keep)} nodes, expected {answer.k}")
        for label in answer.skills:
            if not self.holders.get(label, set()) & keep:
                raise OracleError(f"skill {label!r} not covered")
        if not self.connected(keep):
            raise OracleError("answer is not connected")
        edges = self.induced_edges(nodes)
        if len(edges) != answer.edges_induced:
            raise OracleError(f"answer induces {len(edges)} edges, reported "
                              f"{answer.edges_induced}")
        expected = dense_tension(len(nodes), edges, self.inputs.profiles[nodes])
        if not abs(answer.tension - expected) <= TENSION_ATOL + TENSION_RTOL * abs(expected):
            raise OracleError(f"tension {answer.tension!r} differs from the dense "
                              f"solve {expected!r}")

    def connected(self, keep: set) -> bool:
        start = next(iter(keep))
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v in keep and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == len(keep)

    def induced_edges(self, nodes: list) -> list[tuple[int, int]]:
        """Induced edges as pairs of positions in ``nodes``."""
        pos = {v: i for i, v in enumerate(nodes)}
        return [(i, pos[v]) for i, u in enumerate(nodes)
                for v in self.adj[u] if v in pos and u < v]


def dense_tension(n: int, edges, X: np.ndarray) -> float:
    """Tension at the exact equilibrium: internal gaps plus twice the edge
    disagreements, with ``F`` from a dense solve of ``(I + D - A) F = X``."""
    X = np.asarray(X, dtype=np.float64).reshape(n, -1)
    M = np.eye(n)
    for i, j in edges:
        M[i, i] += 1.0
        M[j, j] += 1.0
        M[i, j] -= 1.0
        M[j, i] -= 1.0
    F = np.linalg.solve(M, X)
    total = float(np.sum((X - F) ** 2))
    for i, j in edges:
        total += 2.0 * float(np.sum((F[i] - F[j]) ** 2))
    return total
