"""Module boundaries of the library."""

import ast
from pathlib import Path

import varseq


def test_no_module_imports_private_names_of_another():
    """A leading underscore keeps a name inside its module: no varseq module
    imports one from another (dunders such as __version__ are public)."""
    found = []
    for path in sorted(Path(varseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "varseq"):
                found += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert found == []
