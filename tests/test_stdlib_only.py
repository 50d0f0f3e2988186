"""Static guards over the package source.

The package runs on the standard library alone: every absolute import in
`src/pwtree` names a standard-library module (`sys.stdlib_module_names`,
Python >= 3.10 as pyproject.toml requires).  It also holds no `assert`
statement, since `python -O` strips them and the invariants the proof
relies on must still be checked there."""

import ast
import sys
from pathlib import Path

import pwtree


def package_files():
    files = sorted(Path(pwtree.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    return files


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def assert_lines(path):
    """Line of every assert statement in a source file."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Assert))


def test_package_imports_only_the_standard_library():
    foreign = [f"{path.name}:{line} imports {module}"
               for path in package_files() for line, module in absolute_imports(path)
               if module not in sys.stdlib_module_names]
    assert foreign == []


def test_guard_sees_every_import_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json, numpy.linalg\nfrom scipy import sparse\n"
                    "from . import graphs\nfrom fractions import Fraction\n"
                    "def f():\n    import yaml\n")
    assert list(absolute_imports(path)) == [
        (1, "json"), (1, "numpy"), (2, "scipy"), (4, "fractions"), (6, "yaml")]


def test_package_has_no_assert():
    found = [f"{path.name}:{line}" for path in package_files() for line in assert_lines(path)]
    assert found == []


def test_assert_guard_sees_every_assert(tmp_path):
    # at top level, in a method and in a loop, with and without a message;
    # the string and the comment hold no statement
    path = tmp_path / "probe.py"
    path.write_text("assert x\nclass C:\n    def f(self):\n        if y:\n"
                    "            assert y, 'message'\n"
                    "s = 'assert z'\n# assert w\n"
                    "def g():\n    for _ in []:\n        assert (1, 2)\n")
    assert assert_lines(path) == [1, 5, 10]
