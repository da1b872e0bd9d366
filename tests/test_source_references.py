"""Every definition under ``src/qdblab`` is used by the package itself,
every name a module imports is read there, and every package error that the
package raises has a handler.

A top-level function, class or module constant, or a method, that nothing
under ``src/qdblab`` refers to outside its own definition is code that only
the tests run; it belongs in ``tests/conftest.py``.  References are matched
by name: a bare name or an attribute of that name anywhere in the package
counts, so this is a cheap lower bound on dead code, not a call graph.  An
imported name that its module never reads is what a deletion left behind.
The error classes of ``errors.py`` map to exit codes through the except
clauses of ``cli._run``; a class constructed under ``src/qdblab`` that no
except clause names would end in a traceback, and a class in those clauses
that nothing constructs is a stale entry.
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


def _caught(handler: ast.ExceptHandler, constants: dict) -> set:
    """Names of the classes an except clause catches, with a module-level
    tuple constant such as ``cli.MODEL_ERRORS`` read as its elements."""
    names = {node.id for node in ast.walk(handler.type) if isinstance(node, ast.Name)} if handler.type else set()
    return set().union(*(constants.get(name, {name}) for name in names))


def exit_code_map() -> tuple:
    """``(raised, run_caught, caught_elsewhere)``: the ``errors.py`` classes
    constructed or raised under ``src/qdblab``, those the except clauses of
    ``cli._run`` catch, and those any other except clause catches."""
    errors = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)}
    raised, run_caught, elsewhere = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants = {
            target.id: {elt.id for elt in node.value.elts if isinstance(elt, ast.Name)}
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        run = next((node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_run"), None)
        in_run = {id(node) for node in ast.walk(run)} if path.stem == "cli" and run else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                raised.add(node.func.id)
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name):
                raised.add(node.exc.id)
            elif isinstance(node, ast.ExceptHandler):
                (run_caught if id(node) in in_run else elsewhere).update(_caught(node, constants))
    return raised & errors, run_caught & errors, elsewhere & errors


def test_every_raised_error_has_a_handler():
    raised, run_caught, elsewhere = exit_code_map()
    assert sorted(raised - run_caught - elsewhere) == []


def test_every_error_of_the_exit_code_map_is_raised():
    raised, run_caught, _ = exit_code_map()
    assert run_caught and sorted(run_caught - raised) == []
