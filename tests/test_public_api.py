"""The package's public surface: ``bayesid.__all__`` and what the README
imports from it."""

import ast
import re
from pathlib import Path

import bayesid

_README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_imports():
    """Names the README's "Library use" code block imports from bayesid."""
    section = _README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "bayesid"
        for alias in node.names
    }


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bayesid import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(bayesid.__all__)
    assert len(set(bayesid.__all__)) == len(bayesid.__all__)
    for name in bayesid.__all__:
        assert namespace[name] is getattr(bayesid, name)


def test_readme_library_use_imports_are_public():
    names = _library_use_imports()
    assert names
    assert names <= set(bayesid.__all__)
