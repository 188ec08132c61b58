"""The package namespace: ``__all__`` is the README's Library list, and
every dotted name the Library section shows exists."""

import functools
import re
from pathlib import Path

import tensionkit

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    """The README from ``## Library`` to the next section or the end."""
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_names() -> list[str]:
    """Backticked names of the first paragraph under ``## Library``."""
    paragraph = library_section().strip().split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", paragraph)


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(tensionkit.__all__) == len(set(tensionkit.__all__))
    for name in tensionkit.__all__:
        assert hasattr(tensionkit, name), name


def test_all_is_the_readme_library_list():
    names = library_names()
    assert len(names) == len(set(names))
    assert set(tensionkit.__all__) == set(names)


def test_dotted_library_names_resolve():
    # a backticked dotted name, alone or called: `graph.pair_hop_distances`,
    # `conformation.DENSE_LIMIT`, `EdgeWeights.with_zeroed()` or
    # `conformation.equilibrium_tensions(g, ...)`
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]", library_section()))
    assert "graph.pair_hop_distances" in names
    missing = []
    for name in sorted(names):
        try:
            functools.reduce(getattr, name.split("."), tensionkit)
        except AttributeError:
            missing.append(name)
    assert not missing, f"README names code that does not exist: {missing}"
