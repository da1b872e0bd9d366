"""Every definition under ``src/qdblab`` is used by the package itself,
every name a module imports is read there, only the command shell parses
arguments, and every package error exits with its class's code.

A top-level function, class or module constant, or a method, that nothing
under ``src/qdblab`` refers to outside its own definition is code that only
the tests run; it belongs in ``tests/conftest.py``.  References are matched
by name: a bare name or an attribute of that name anywhere in the package
counts, so this is a cheap lower bound on dead code, not a call graph.  An
imported name that its module never reads is what a deletion left behind.
The report stages take plain settings: only ``cli`` imports ``argparse``,
and no function of ``report`` takes ``args``.  Every stage takes one
``dynamics.Dynamics`` block, stacked over its points, never a list of
per-point sources: no function has a parameter named ``sources``.
``dynamics.maps_of`` takes the block and plain time tuples and runs the GKLS
test itself, so ``report`` hands it no slice or callback, and no map times
for a semigroup, whose qdb2 is a generator identity.  It judges the level
transitions it makes too, so ``exchange_grid`` takes bare ``probs`` and no
module that imports ``dynamics`` reads a ``finite`` or ``route_gap``;
``_judged`` reads all it checks from ``probs``, and the Kraus and
superoperator routes meet on a family's maps at the times, not on the grid.  A
precondition is judged once, where its value enters the package: a Kraus
stack as it loads or as its family returns it, not again in ``maps_of``,
and the stages behind that boundary raise no check of shapes or settings.
A channel family's full maps are built at its ``times`` alone, and its grid
transitions from their population entries.  The verdict and model files
are laid out by ``cli._json``, not by json's pure-Python indenting encoder.
Each named threshold states its scale in the comment above it, and each
small float literal in a comparison in a comment on its line or the line
above.  The value classes are plain classes: no module imports
``dataclasses``, and
only an ``__init__`` sets an attribute, apart from the command shell's
parsed ``args``.  Each error class of ``errors.py`` carries its exit code,
which the one except clause of ``cli._run`` for ``QdblabError`` returns; the
class to code table is pinned here, and a class that nothing under
``src/qdblab`` constructs is a stale entry.
"""

import ast
import inspect
import io
import tokenize
from pathlib import Path

from qdblab import errors
from qdblab.cli import _build_parser, _scenario
from qdblab.dynamics import _judged, maps_of
from qdblab.fluctuation import FIXED_POINT_TAUS, TAU_MAX, classify, exchange_grid

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


def importers(module: str) -> list:
    """The modules under ``src/qdblab`` that import ``module``, once per import."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import) and any(alias.name == module for alias in node.names):
                found.append(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == module:
                found.append(path.stem)
    return found


def test_only_the_command_shell_parses_arguments():
    # the report stages take plain settings, never a parsed command line
    report_args = []
    for node in ast.walk(ast.parse((SRC / "report.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            report_args += [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg) and a.arg == "args"]
    assert importers("argparse") == ["cli"]
    assert report_args == []


def test_no_module_imports_dataclasses():
    # the value classes are plain classes: a cold start neither imports dataclasses nor generates their methods
    assert importers("dataclasses") == []


def test_maps_of_takes_time_tuples_and_runs_the_gkls_test():
    # one block, whose stacked h it reads; the map times and the grid are two tuples, and the GKLS test runs
    # inside maps_of, on its tolerance
    params = inspect.signature(maps_of).parameters.values()
    assert [p.name for p in params] == ["block", "times", "grid", "tol_cptp"]
    assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    report = ast.parse((SRC / "report.py").read_text())
    names = {alias.name for node in ast.walk(report) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    assert "report" not in importers("functools")
    assert "gkls_defects" not in names


def test_analyse_hands_maps_of_no_map_times_for_a_semigroup(monkeypatch):
    # a family's maps at classify's probe times, which its qdb2 reads too; a semigroup's classify and qdb2 read
    # its generator, so it asks for no map, only the transitions on the tau grid
    from qdblab import report

    asked, original = [], report.maps_of
    monkeypatch.setattr(report, "maps_of", lambda block, times, grid, tol: asked.append((times, grid))
                        or original(block, times, grid, tol))
    parser = _build_parser()
    for name in "abc":
        block = _scenario(name, parser.parse_args(["example", name]), [{}])[0]
        report.analyse(block, (0.5, 2.0), (0.0, 1.0), 1e-9, 1e-9)
    assert asked == [(FIXED_POINT_TAUS, (0.5, 2.0)), ((), (0.5, 2.0)),
                     ((), (0.5, 2.0))]


def test_only_dynamics_judges_the_level_transitions():
    # maps_of judges the transitions as it makes them and hands on bare probabilities: no module that takes them
    # reads whether a map was finite or how far its two routes lay apart, and exchange_grid takes probs alone
    assert list(inspect.signature(exchange_grid).parameters) == ["probs", "h", "beta_i"]
    readers = {module for module in importers("dynamics")
               for name, _ in _references(ast.parse((SRC / f"{module}.py").read_text()))
               if name in ("finite", "route_gap")}
    assert sorted(readers) == []
    # and maps_of is their one producer: no second entry point reaches the transition checks
    tree = ast.parse((SRC / "dynamics.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert "transitions_of" not in {node.name for node in functions}
    callers = {node.name for node in functions for name, _ in _references(node) if name == "_judged"}
    assert callers == {"maps_of"}


def calls_in(tree: ast.AST) -> list:
    """``(function, arguments)`` of every call in ``tree`` to a bare name or
    an attribute, as source text, in the breadth-first order of
    ``ast.walk``."""
    return [(ast.unparse(node.func), [ast.unparse(a) for a in (*node.args, *node.keywords)])
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_a_family_builds_full_maps_at_its_times_and_populations_on_its_grid():
    # the grid transitions need only the maps' population entries, so maps_of builds the full d^2 x d^2 maps on
    # the times slice alone, the one the stages read whole
    calls = calls_in(function_named("dynamics", "maps_of"))
    assert [args for name, args in calls if name == "_kraus_superops"] == [["kraus[:, :t]"]]
    assert sorted(args for name, args in calls if name == "_kraus_populations") == [["kraus[:, :t]"], ["kraus[:, t:]"]]


def test_the_judge_reads_the_transitions_alone():
    # _judged reads finiteness, sign and row sums from probs itself, and maps_of hands it the grid transitions of
    # either kind straight: no whole-map finiteness mask and no route gap on the grid; the routes meet on the maps
    # at the times, the ones _kraus_superops builds
    assert list(inspect.signature(_judged).parameters) == ["probs"]
    maps = function_named("dynamics", "maps_of")
    assert sorted(args for name, args in calls_in(maps) if name == "_judged") == [
        ["_kraus_populations(kraus[:, t:]).real"], ["probs"]]
    assert not {name for name, _ in _references(maps)} & {"isfinite", "finite", "route_gap"}


def test_the_report_files_are_laid_out_by_the_one_writer():
    # json's indenting encoder is pure Python; the verdict and model files go through cli._json instead
    for name in ("write_verdict", "save_model"):
        calls = calls_in(function_named("cli", name))
        assert not [args for f, args in calls if f.endswith("dumps") and any(a.startswith("indent=") for a in args)]
        assert "_json" in {f for f, _ in calls}


def function_named(module: str, name: str) -> ast.FunctionDef:
    """The definition of the function ``name`` of ``module``."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)


def raised_classes(tree: ast.AST) -> set:
    """The names of the classes that the raise statements in ``tree`` raise."""
    return {ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            for node in ast.walk(tree) if isinstance(node, ast.Raise)}


def test_each_precondition_is_judged_where_its_value_enters():
    # a Kraus stack is judged as a single map loads or as a family returns it, not again in maps_of; behind the
    # boundary, the stages trust the shapes the package built and the settings it checked
    assert "_kraus_stacks" not in {name for name, _ in _references(function_named("dynamics", "maps_of"))}
    assert raised_classes(function_named("dynamics", "_kraus_stacks")) == {"NotTracePreserving"}
    assert raised_classes(function_named("fluctuation", "exchange_grid")) == {"InternalCheckError"}
    balance = ast.parse((SRC / "balance.py").read_text())
    assert raised_classes(balance) == set()
    assert "require_superop_dim" not in {name for name, _ in _references(balance)}
    assert [raised_classes(function_named("matlin", name)) for name in ("expm", "unvec")] == [set(), set()]


def parameters_named(name: str) -> list:
    """``module.function`` of every function or lambda under ``src/qdblab``
    with a parameter called ``name``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                if name in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}:
                    found.append(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
    return found


def test_the_stages_take_one_block_not_a_list_of_sources():
    # a sweep block is one Dynamics stacked over its points, which every stage takes whole
    assert parameters_named("sources") == []
    assert list(inspect.signature(classify).parameters) == ["block", "probes"]


# the named thresholds: each states its scale (H's spectral range, |L|_1, max|C|, a map's roundoff, a population,
# or why it is absolute) in the comment above it
THRESHOLDS = {
    "dynamics": ["TP_ATOL", "PSD_ATOL", "BASIS_ATOL", "ROUTE_AGREEMENT_ATOL", "STOCHASTIC_ATOL"],
    "fluctuation": ["RATIO_FLOOR", "GAP_GROUP_RTOL", "PROBABILITY_FLOOR", "ZERO_EIG_ATOL", "UNIT_EIG_ATOL",
                    "CONVERGENCE_ATOL", "FIXED_POINT_ATOL", "TAU_MAX"],
    "states": ["STATE_ATOL", "DEGENERACY_ATOL", "THERMAL_OFFDIAG_ATOL", "BETA_AGREE_RTOL"],
    "matlin": ["HERMITICITY_ATOL"],
}


def test_every_named_threshold_states_its_scale():
    unstated = []
    for module, names in THRESHOLDS.items():
        lines = (SRC / f"{module}.py").read_text().splitlines()
        for name in names:
            (line,) = [i for i, text in enumerate(lines) if text.startswith(f"{name} = ")]
            if not lines[line - 1].startswith("# "):
                unstated.append(f"{module}.{name}")
    assert unstated == []
    # and no other module-level threshold is left without one
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if name.endswith(("_ATOL", "_RTOL", "_FLOOR")):
                    assert name in THRESHOLDS.get(path.stem, []), f"{path.stem}.{name}"
    # and a small float literal in a comparison is a threshold too: a comment on its line or the line above
    # states its scale
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        comments = {token.start[0] for token in tokenize.generate_tokens(io.StringIO(text).readline)
                    if token.type == tokenize.COMMENT}
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Compare):
                for c in ast.walk(node):
                    if type(getattr(c, "value", None)) is float and 0 < abs(c.value) < 1e-6:
                        if not comments & {c.lineno, c.lineno - 1}:
                            unstated.append(f"{path.stem}:{c.lineno}")
    assert unstated == []


def test_the_fixed_point_taus_end_at_tau_max():
    # classify reads a channel family's last probe map as its map at TAU_MAX
    assert FIXED_POINT_TAUS[-1] == TAU_MAX


def attribute_writes() -> list:
    """``module:line`` of every statement under ``src/qdblab`` outside an
    ``__init__`` that sets or deletes an attribute, other than one of a
    command's parsed ``args``, or that calls ``setattr``, ``__setattr__`` or
    ``__delattr__``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inits = {id(node) for init in ast.walk(tree) if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                 for node in ast.walk(init)}
        for node in ast.walk(tree):
            if id(node) in inits:
                continue
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    found.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "setattr"
                or isinstance(node.func, ast.Attribute) and node.func.attr in ("__setattr__", "__delattr__")
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_fields_are_set_only_in_constructors():
    # a value's fields are set once, by its __init__; this stands in for the guard of a frozen dataclass
    assert attribute_writes() == []


def error_classes() -> dict:
    """The classes that ``errors.py`` defines, by name."""
    return {name: cls for name, cls in vars(errors).items() if isinstance(cls, type) and cls.__module__ == errors.__name__}


# 2 for a usage or configuration error, 4 for a failed internal check, 3 for every other package error
EXIT_CODES = {
    "QdblabError": 3,
    "ConfigError": 2,
    "UnknownParameter": 2,
    "InternalCheckError": 4,
    "InconclusiveHorizon": 4,
    "DimensionMismatch": 3,
    "KossakowskiNotPSD": 3,
    "NoConvergence": 3,
    "NotAState": 3,
    "NotCPTP": 3,
    "NotHermitian": 3,
    "NotTracePreserving": 3,
}


def test_every_error_class_has_its_exit_code():
    assert {name: cls.exit_code for name, cls in error_classes().items()} == EXIT_CODES


def run_handlers() -> list:
    """The set of names that each except clause of ``cli._run`` catches."""
    tree = ast.parse((SRC / "cli.py").read_text())
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_run")
    return [
        {node.id for node in ast.walk(handler.type) if isinstance(node, ast.Name)} if handler.type else set()
        for handler in ast.walk(run)
        if isinstance(handler, ast.ExceptHandler)
    ]


def test_every_raised_error_has_a_handler():
    # every package error is a QdblabError; besides argparse's SystemExit, _run has one clause, which catches
    # that base class and exits with the error's own code
    assert all(issubclass(cls, errors.QdblabError) for cls in error_classes().values())
    assert [names for names in run_handlers() if names != {"SystemExit"}] == [{"QdblabError"}]


def raised_names() -> set:
    """The names called or raised anywhere under ``src/qdblab``."""
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                raised.add(node.func.id)
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name):
                raised.add(node.exc.id)
    return raised


def test_every_error_of_the_exit_code_map_is_raised():
    # the base class is only caught
    assert sorted(error_classes().keys() - {"QdblabError"} - raised_names()) == []
