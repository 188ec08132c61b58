"""The package namespace: ``__all__`` is the README's Library list."""

import re
from pathlib import Path

import tensionkit

README = Path(__file__).resolve().parent.parent / "README.md"


def library_names() -> list[str]:
    """Backticked names of the first paragraph under ``## Library``."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    paragraph = section.strip().split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", paragraph)


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(tensionkit.__all__) == len(set(tensionkit.__all__))
    for name in tensionkit.__all__:
        assert hasattr(tensionkit, name), name


def test_all_is_the_readme_library_list():
    names = library_names()
    assert len(names) == len(set(names))
    assert set(tensionkit.__all__) == set(names)
