"""Every definition under ``src/qdblab`` is used by the package itself, and
every name a module imports is read there.

A top-level function, class or module constant, or a method, that nothing
under ``src/qdblab`` refers to outside its own definition is code that only
the tests run; it belongs in ``tests/conftest.py``.  References are matched
by name: a bare name or an attribute of that name anywhere in the package
counts, so this is a cheap lower bound on dead code, not a call graph.  An
imported name that its module never reads is what a deletion left behind.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qdblab"
# the package version and the console-script entry point have callers outside the package
ALLOWED = {"__init__.__version__", "cli.main"}


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, name, node)`` of every top-level function, class
    and module constant of ``tree`` and of every method that is no dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, node


def _references(tree: ast.Module):
    """``(name, line)`` of every name read and every attribute taken in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced() -> list:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items() for name, line in _references(tree)]
    missing = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(module, tree):
            own = range(node.lineno, node.end_lineno + 1)
            if qualified not in ALLOWED and not any(
                n == name and not (m == module and line in own) for m, n, line in refs
            ):
                missing.append(qualified)
    return missing


def test_every_definition_has_a_reference_in_the_package():
    assert unreferenced() == []


def unread_imports() -> list:
    """``module.name`` of every name that a module imports and never reads."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unread += [
                    f"{path.stem}.{name}"
                    for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                    if name not in read
                ]
    return unread


def test_every_import_is_read():
    assert unread_imports() == []
