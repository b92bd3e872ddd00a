import doctest
from pathlib import Path

import braidnf


def test_every_public_name_resolves():
    assert [name for name in braidnf.__all__ if not hasattr(braidnf, name)] == []


def test_readme_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    results = doctest.testfile(str(readme), module_relative=False)
    assert results.attempted and not results.failed
