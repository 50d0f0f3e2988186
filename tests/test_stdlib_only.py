"""The package runs on the standard library alone: every absolute import in
`src/pwtree` names a standard-library module (`sys.stdlib_module_names`,
Python >= 3.10 as pyproject.toml requires)."""

import ast
import sys
from pathlib import Path

import pwtree


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    files = sorted(Path(pwtree.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    foreign = [f"{path.name}:{line} imports {module}"
               for path in files for line, module in absolute_imports(path)
               if module not in sys.stdlib_module_names]
    assert foreign == []


def test_guard_sees_every_import_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json, numpy.linalg\nfrom scipy import sparse\n"
                    "from . import graphs\nfrom fractions import Fraction\n"
                    "def f():\n    import yaml\n")
    assert list(absolute_imports(path)) == [
        (1, "json"), (1, "numpy"), (2, "scipy"), (4, "fractions"), (6, "yaml")]
