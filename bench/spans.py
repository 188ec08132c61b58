"""Timing wrappers around the package's public functions, for traced runs.

A caller that did ``from .graph import path_distances`` holds its own
module-level binding, so wrapping ``graph.path_distances`` alone would miss
it.  ``Tracer.install`` therefore replaces every binding of the target
function object in every loaded ``tensionkit`` module, and ``uninstall``
puts the originals back.  Methods are wrapped on their class.  A target
that no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "tensionkit"


def _conform_counts(args, kwargs, result):
    """Iterations, and edge updates as iterations x (n + 2E) x columns."""
    g = args[0]
    latent = np.asarray(args[1])
    cols = latent.shape[1] if latent.ndim == 2 else 1
    return {"iterations": result.iterations,
            "edge_updates": result.iterations * (g.node_count + 2 * g.edge_count) * cols}


# (module, attribute path) of each traced function, plus an optional hook
# that turns a call's arguments and result into counts.
TARGETS = (
    ("fileio", "read_edge_list", None),
    ("fileio", "read_profiles", None),
    ("fileio", "read_skill_counts", None),
    ("fileio", "read_project", None),
    ("graph", "Graph.__init__", None),
    ("graph", "largest_component", None),
    ("graph", "induced_subgraph", None),
    ("graph", "path_distances", None),
    ("graph", "hop_distance_matrix", None),
    ("graph", "minimum_spanning_tree", None),
    ("graph", "EdgeWeights.with_zeroed", None),
    ("community", "proxy_weights", None),
    ("community", "seed_connector", None),
    ("community", "tree_community", None),
    ("community", "peel_community", None),
    ("community", "evaluate_solution", None),
    ("conformation", "conform", _conform_counts),
    ("conformation", "social_tension", None),
    ("evaluation", "standardized_metrics", None),
    ("evaluation", "seed_tree_edge_count", None),
    ("evaluation", "sample_seed_groups", None),
    ("teams", "form_team", None),
    ("teams", "skill_extended_graph", None),
    ("teams", "greedy_fixed_size", None),
)


def span_name(module: str, attr: str) -> str:
    """``graph.Graph`` for a constructor, ``module.attr`` otherwise."""
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Records one span per wrapped call: (id, parent id, name, start, end)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, self.clock(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return traced

    # -- installation ---------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr, hook in targets:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(leaf) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self.wrap(span_name(module_name, attr), original, hook)
            if owner_path:  # a method: one binding, on its class
                self._rebind(owner, leaf, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- aggregation ------------------------------------------------------------

    def stats(self, within: str | None = None) -> dict[str, dict[str, float]]:
        """Per name: ``calls``, ``s`` (total) and ``self_s`` (total minus the
        time covered by direct children).  With ``within``, only spans that
        descend from a span of that name count."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        counted = self._descendants(within) if within else None
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _, name, start, end in self.spans:
            if counted is not None and sid not in counted:
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_time(start, end,
                                       [(c[3], c[4]) for c in children[sid]])
        return dict(out)

    def _descendants(self, name: str) -> set[int]:
        inside: set[int] = set()
        for sid, parent, span_name_, _, _ in self.spans:
            if span_name_ == name or parent in inside:
                inside.add(sid)
        return inside


def self_time(start: float, end: float, child_intervals) -> float:
    """``end - start`` minus the union of the child intervals clipped to it."""
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(child_intervals):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered
