"""The benchmark's hooks into the package stay valid.

``bench/spans.py`` skips a traced target that no longer exists without an
error, so a rename in the package would silently zero the per-layer
metrics.  These checks make such a rename fail here instead.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", [
    (module_name, attr) for module_name, attr, _ in load_bench_module("spans").TARGETS])
def test_every_traced_target_resolves(module_name, attr):
    owner = importlib.import_module(f"tensionkit.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_workloads_find_the_solver_factory():
    from tensionkit import teams
    assert callable(teams.community_solver)


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300,
                          cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stderr
