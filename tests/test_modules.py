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


def _bound_private_names(tree: ast.Module) -> set[str]:
    """The private names a module binds: defs and classes, assignments to
    self._x, cls._x or a module-level _x, class-body annotations, and
    object.__setattr__(..., "_x", ...) with a literal name."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    bound = {node.name for node in ast.walk(tree) if isinstance(node, defs)}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bound |= {
                s.target.id for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            }
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                bound.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            bound.add(node.args[1].value)
    return bound


def test_no_module_reads_private_attributes_of_another():
    """A private attribute read obj._x, on anything but self or cls, names a
    _x that the reading module binds itself: no varseq module reaches into
    another's private fields (dunders are public)."""
    found = []
    for path in sorted(Path(varseq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        bound = _bound_private_names(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and node.attr not in bound
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_no_module_imports_an_unused_name():
    """Every name an import binds in a varseq module is read there, in code
    or in an annotation (the package's __init__ re-exports, so it is
    exempt): a name left over after its last use is caught."""
    found = []
    for path in sorted(Path(varseq.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), path.name)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in bound if name not in read]
    assert found == []
