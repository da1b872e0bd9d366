"""Command-line interface: a thin shell around :mod:`qdblab.report`.

Parses a command line and checks its settings, builds the dynamics block of
a built-in scenario (:mod:`qdblab.examples`) or of a user-supplied model file
(JSON), runs the report stages on it, one scenario parameter swept or none,
and writes machine-readable reports.  Reports are byte-deterministic
for a fixed configuration: CSV floats are printed with 17 significant
digits, JSON floats as their shortest round-trip ``repr``, and rows are
ordered by (tau, gap).

Exit codes: 0 success, 2 a usage error; a package error exits with its
class's ``exit_code`` (:mod:`qdblab.errors`): 2 for a configuration error,
3 for a violated model invariant, 4 for a failed internal check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .dynamics import Dynamics, LindbladGenerator, bloch4_to_superop
from .errors import ConfigError, QdblabError, UnknownParameter
from .examples import ExampleBParams, example_b_generator, scenario_sources
from .report import analyse, build_report, fmt_float, json_float
from .states import HamiltonianSpec

EXIT_OK = 0


# ---------------------------------------------------------------------------
# settings


def check_settings(args: argparse.Namespace) -> argparse.Namespace:
    """``args``, a run's parsed arguments (grids parsed, ``out`` a ``Path``),
    once checked; the first setting out of range raises ``ConfigError``."""
    for name, grid in (("tau-grid", args.tau_grid), ("s-grid", args.s_grid)):
        if not grid:
            raise ConfigError(f"{name} must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{name} must be strictly increasing")
    if not all(0.0 <= s <= 1.0 for s in args.s_grid):
        raise ConfigError("s-grid values must lie in [0, 1]")
    if not all(_is_tau(t) for t in args.tau_grid):
        raise ConfigError("tau-grid values must be finite and nonnegative")
    tols = (("tol-qdb", args.tol_qdb), ("tol-qfr", args.tol_qfr), ("tol-cptp", args.tol_cptp))
    for name, x in (("beta-i", args.beta_i), ("beta-f", args.beta_f), *tols):
        if not math.isfinite(x):
            raise ConfigError(f"{name} must be finite")
    for name, tol in tols:
        if tol <= 0:
            raise ConfigError(f"{name} must be positive")
    if args.beta_i < 0:
        raise ConfigError("beta-i must be nonnegative")
    return args


def _is_tau(t) -> bool:
    """A finite, nonnegative number (JSON booleans excluded)."""
    return isinstance(t, (int, float)) and not isinstance(t, bool) and math.isfinite(t) and t >= 0


def parse_grid(spec: str) -> tuple:
    """Either ``log:LO:HI:N`` (log-spaced, finite positive bounds) or a
    comma-separated list."""
    try:
        if spec.startswith("log:"):
            _, lo, hi, n = spec.split(":")
            lo, hi = _finite_bounds(lo, hi)
            if min(lo, hi) <= 0:
                raise ValueError("log bounds must be positive")
            return tuple(float(x) for x in np.geomspace(lo, hi, int(n)))
        return tuple(float(x) for x in spec.split(",") if x.strip())
    except (ValueError, TypeError, MemoryError) as exc:
        raise ConfigError(f"cannot parse grid spec {spec!r}: {exc}") from exc


def parse_range(spec: str) -> tuple:
    """``START:STOP:COUNT``, linearly spaced between finite bounds; COUNT = 0
    gives an empty range.  A range with a point that is not finite, as a
    step that overflows gives, raises ``ConfigError``."""
    try:
        lo, hi, n = spec.split(":")
        with np.errstate(over="ignore", invalid="ignore"):
            values = tuple(float(x) for x in np.linspace(*_finite_bounds(lo, hi), int(n)))
        if not all(map(math.isfinite, values)):
            raise ValueError("its points must be finite")
        return values
    except (ValueError, TypeError, MemoryError) as exc:
        raise ConfigError(f"cannot parse range spec {spec!r}: {exc}") from exc


def _finite_bounds(lo: str, hi: str) -> tuple:
    """``(float(lo), float(hi))``, checked to be finite before numpy, which
    warns on a non-finite bound, sees them."""
    bounds = float(lo), float(hi)
    if not all(map(math.isfinite, bounds)):
        raise ValueError("bounds must be finite")
    return bounds


# ---------------------------------------------------------------------------
# output


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_rows(path: Path, header, columns, fmt: str) -> None:
    """Write a table of ``columns``, one per name of a nonempty ``header``,
    as CSV or as the JSON ``{"columns", "rows", "schema": 1}`` that
    ``json.dumps(..., sort_keys=True, indent=2)`` writes.  A column is a list
    or array of cells, or a tuple ``(values, index)`` whose cells are
    ``values[index]`` with a blank (None) cell at index -1.  A column of
    finite floats is formatted at C level, as ``%.17g`` in CSV and as
    ``repr`` in JSON; any other column cell by cell, as :func:`fmt_float` or
    :func:`json_float` reads it."""
    cells = [_cells(column, fmt) for column in columns]
    if fmt == "csv":
        _write_text(path, "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")
        return
    names = ",\n    ".join(map(json.dumps, header))
    rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*cells)))
    rows = "[\n    [\n      " + rows + "\n    ]\n  ]" if rows else "[]"
    _write_text(path, f'{{\n  "columns": [\n    {names}\n  ],\n  "rows": {rows},\n  "schema": 1\n}}\n')


def _cells(column, fmt: str) -> list:
    """The text of each cell of one column of :func:`write_rows`."""
    values, index = column if isinstance(column, tuple) else (column, None)
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        text = list(map("%.17g".__mod__ if fmt == "csv" else float.__repr__, values))
    elif fmt == "csv":
        text = [x if isinstance(x, str) else fmt_float(x) for x in values]
    else:
        text = [json.dumps(x if isinstance(x, str) else json_float(x)) for x in values]
    if index is None:
        return text
    return np.array([*text, "" if fmt == "csv" else "null"], dtype=object)[index].tolist()


def write_verdict(path: Path, verdict: dict) -> None:
    _write_text(path, json.dumps(verdict, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# model files


def _complex_to_pairs(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _pairs_to_complex(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed matrix entry: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError("matrix entries must be finite")
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2:
        return arr.astype(complex)
    raise ConfigError(f"matrix must be nested rows of numbers or [re, im] pairs, got shape {arr.shape}")


def save_model(gen: LindbladGenerator, path: Path) -> None:
    """Serialize a Lindblad generator, with its operator basis, to JSON."""
    obj = {
        "schema": 1,
        "kind": "lindblad",
        "hamiltonian": _complex_to_pairs(gen.hamiltonian.matrix),
        "kossakowski": _complex_to_pairs(gen.kossakowski),
        "basis": [_complex_to_pairs(f) for f in gen.basis],
    }
    _write_text(Path(path), json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_model(path: Path):
    """Parse a model file into a block of one point (validating invariants)."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 JSON, or past int()'s digit limit
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"model file {path} must hold a JSON object")
    if obj.get("schema") != 1:
        raise ConfigError(f"unsupported model schema {obj.get('schema')!r}")
    kind = obj.get("kind")
    if kind not in ("lindblad", "kraus", "bloch4"):
        raise ConfigError(f"unknown model kind {kind!r}")
    try:
        h = HamiltonianSpec.from_matrix(_pairs_to_complex(obj["hamiltonian"]))
        if h.dim < 2:
            raise ConfigError(f"the Hamiltonian has {h.dim} level; a model needs at least 2")
        if kind == "lindblad":
            # a generator without jumps has a 0 x 0 Kossakowski matrix
            c = np.zeros((0, 0)) if obj["kossakowski"] == [] else _pairs_to_complex(obj["kossakowski"])
            if "basis" not in obj:  # the canonical basis
                source = Dynamics.semigroup(h, LindbladGenerator.canonical(h, c))
            elif not isinstance(obj["basis"], list):
                raise ConfigError("basis must be a list of matrices")
            else:
                basis = [_pairs_to_complex(f) for f in obj["basis"]]
                source = Dynamics.semigroup(h, LindbladGenerator(h, c, basis))
        elif kind == "kraus":
            if not isinstance(obj["kraus_ops"], list):
                raise ConfigError("kraus_ops must be a list of matrices")
            ops = [_pairs_to_complex(g) for g in obj["kraus_ops"]]
            tau = obj.get("tau", math.nan)
            # the operators are checked before tau
            source = Dynamics.single_map(h, ops, float(tau) if _is_tau(tau) else math.nan)
            if "tau" in obj and not _is_tau(tau):
                raise ConfigError(f"tau must be a finite number >= 0, got {tau!r}")
        else:
            l4 = _pairs_to_complex(obj["generator"])
            if np.any(l4.imag):
                raise ConfigError("generator must be real: an entry has a nonzero imaginary part")
            source = Dynamics.semigroup(h, bloch4_to_superop(l4.real))
    except KeyError as exc:
        raise ConfigError(f"model file misses required field {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"model file {path}: {exc}") from exc
    # a lindblad generator of such an H overflows already; a Kraus map or bloch4 generator need not
    if not math.isfinite(float(h.eigenvalues[-1]) - float(h.eigenvalues[0])):
        raise ConfigError("the model overflows: the Hamiltonian's energy range is not finite")
    return source


# ---------------------------------------------------------------------------
# commands

# each built-in scenario's name and the parameters that a sweep of it may set
SCENARIOS = {
    "a": ("beta_i", "beta_f", "omega"),
    "b": ("beta_i", "beta_f", "omega", "gamma"),
    "c": ("beta_i", "beta_f", "omega", "mu", "eta", "nu", "alpha", "chi", "zeta"),
}


def _analyse(block: Dynamics, args) -> tuple:
    """:func:`report.analyse` of ``block`` under the run's settings ``args``."""
    return analyse(block, args.tau_grid, args.s_grid, args.tol_qdb, args.tol_cptp)


def _scenario(name: str, args, points: list) -> tuple:
    """:func:`examples.scenario_sources` of scenario ``name`` at ``points`` under the scenario flags ``args``."""
    return scenario_sources(name, points, args.beta_f, args.omega, args.gamma, args.mu, args.eta, args.nu_scale,
                            args.q_schedule)


def _emit(label: str, block: Dynamics, args, f_factor=None, **extra) -> None:
    """Write the rows and verdict, with ``extra`` entries, of a block of one
    point: a row per tau and Bohr gap, with scenario A's ``f_factor`` of the
    taus."""
    ((sections, (taus, energies, predicted, recorded, p_plus, p_minus, defined, ratio, deviation)),) = build_report(
        _analyse(block, args), args.tol_qfr, args.beta_i, args.beta_f
    )
    header = "tau E p_plus p_minus R predicted deviation".split() + ([] if f_factor is None else ["F_tau"])
    t, g = np.nonzero(recorded)  # the kept records, in (tau, gap) order
    # each row carries the ratio of its own gap record, and blank cells (index -1) where it has none
    has = defined[t, g]
    k = np.where(has, np.cumsum(has) - 1, -1)
    columns = [(taus, t), (energies, g), p_plus[t, g], p_minus[t, g],
               (ratio[t, g][has], k), (predicted, np.where(has, g, -1)), (deviation[t, g][has], k)]
    if f_factor is not None:
        columns.append((f_factor(taus)[0], t))
    tolerances = {"qdb_pass": args.tol_qdb, "qfr_pass": args.tol_qfr, "cptp": args.tol_cptp}
    grids = {"tau_grid": list(args.tau_grid), "s_grid": list(args.s_grid), "tolerances": tolerances}
    run = {**grids, "beta_i": args.beta_i, "beta_f": args.beta_f}
    verdict = {"schema": 1, "source": label, **sections, "config": run, **extra}
    rows_path, verdict_path = args.out / f"{label}_rows.{args.format}", args.out / f"{label}_verdict.json"
    write_rows(rows_path, header, columns, args.format)
    write_verdict(verdict_path, verdict)
    q1, q2 = ({None: "n/a", True: "pass", False: "fail"}[s and s["passes"]] for s in (verdict["qdb1"], verdict["qdb2"]))
    kind, qfr = verdict["classification"]["kind"], verdict["qfr_max_deviation"]
    print(f"{label}: classification={kind} qdb1={q1} qdb2={q2} qfr_max_deviation={qfr}")
    print(f"wrote {rows_path} and {verdict_path}")


def cmd_example(args) -> int:
    if args.save_model and args.name != "b":
        raise ConfigError(f"--save-model writes only scenario b, not scenario {args.name}")
    block, f_factor = _scenario(args.name, args, [{}])
    if args.save_model:
        save_model(example_b_generator(ExampleBParams(args.omega, args.gamma, args.beta_f)), Path(args.save_model))
    _emit(f"example_{args.name}", block, args, f_factor, example=args.name)
    return EXIT_OK


def cmd_check(args) -> int:
    _emit(f"check_{Path(args.model).stem}", load_model(args.model), args, model=str(args.model))
    return EXIT_OK


SWEEP_BLOCK = 32  # points stacked per pass, so that a sweep's memory does not grow with its range


def cmd_sweep(args) -> int:
    values = parse_range(args.range)
    header = ("parameter value classification beta_f qdb1_passes qdb1_max_residual qdb2_passes qdb2_max_residual"
              " qfr_max_deviation").split()
    allowed = SCENARIOS.get(args.target, ("beta_i",))  # a model file sweeps beta_i alone
    if args.parameter not in allowed:
        raise UnknownParameter(
            f"parameter {args.parameter!r} is not sweepable for {args.target!r}; choose from {allowed}"
        )
    model = None if args.target in SCENARIOS else load_model(args.target)
    shared = []  # a beta_i sweep's one analysis, of the one-point block that all its points share

    def block(values: tuple) -> list:
        """The verdicts of the points ``values``, from one exchange grid.
        When a point raises a ``QdblabError``, whatever its stage, the left
        half of the points runs again and then the right half, down to one
        point, so that the first failing point raises its first failing
        check."""
        try:
            if args.parameter != "beta_i":
                analysis = _analyse(_scenario(args.target, args, [{args.parameter: v} for v in values])[0], args)
            elif min(values) < 0:  # the one setting that a point changes and _run has not checked
                raise ConfigError("beta-i must be nonnegative")
            else:
                if not shared:
                    shared.append(_analyse(model or _scenario(args.target, args, [{}])[0], args))
                analysis = shared[0]
            # a swept beta_i or beta_f takes its value per point
            betas = {"beta_i": args.beta_i, "beta_f": args.beta_f, args.parameter: values}
            return [verdict for verdict, _ in build_report(analysis, args.tol_qfr, betas["beta_i"], betas["beta_f"])]
        except QdblabError:
            if len(values) == 1:
                raise
            return block(values[: len(values) // 2]) + block(values[len(values) // 2 :])

    verdicts = [verdict for start in range(0, len(values), SWEEP_BLOCK)
                for verdict in block(values[start : start + SWEEP_BLOCK])]
    cls = [verdict["classification"] for verdict in verdicts]
    balance = [[v[q] and v[q][key] for v in verdicts] for q in ("qdb1", "qdb2") for key in ("passes", "max_residual")]
    columns = [[args.parameter] * len(values), list(values), [c["kind"] for c in cls], [c["beta_f"] for c in cls],
               *balance, [verdict["qfr_max_deviation"] for verdict in verdicts]]
    # a scenario's name is its own stem
    path = args.out / f"sweep_{Path(args.target).stem}_{args.parameter}.{args.format}"
    write_rows(path, header, columns, args.format)
    print(f"wrote {path} ({len(values)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau-grid", default="log:0.01:50:40", help="log:LO:HI:N or comma list")
    parser.add_argument("--s-grid", default="0,0.25,0.5,0.75,1", help="comma list in [0, 1]")
    parser.add_argument("--beta-i", type=float, default=2.0)
    parser.add_argument("--beta-f", type=float, default=1.0)
    parser.add_argument("--tol-qdb", type=float, default=1e-9)
    parser.add_argument("--tol-qfr", type=float, default=1e-9)
    parser.add_argument("--tol-cptp", type=float, default=1e-9)
    parser.add_argument("--out", type=Path, default="reports")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_example_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=1.0, help="scenario b damping rate")
    parser.add_argument("--mu", type=float, default=0.5, help="scenario c base excitation rate")
    parser.add_argument("--eta", type=float, default=0.1, help="scenario c dephasing rate")
    parser.add_argument(
        "--nu-scale",
        type=float,
        default=1.1,
        help="scenario c: scale nu away from the balanced point",
    )
    parser.add_argument(
        "--q-schedule",
        choices=("default", "fpt"),
        default="default",
        help="scenario a: saturating or constant bias schedule",
    )


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdblab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_example = sub.add_parser("example", help="run a built-in scenario")
    p_example.add_argument("name", choices=SCENARIOS)
    p_example.add_argument("--save-model", default=None, help="also write the model as JSON")
    _add_example_params(p_example)
    _add_common(p_example)
    p_example.set_defaults(func=cmd_example)

    p_check = sub.add_parser("check", help="verify a model file")
    p_check.add_argument("model")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a scenario or model")
    p_sweep.add_argument("target", help="a, b, c, or a model file path")
    p_sweep.add_argument("--parameter", required=True)
    p_sweep.add_argument("--range", required=True,
                         help="START:STOP:COUNT; a negative START needs the = form, as in --range=-1:1:3")
    _add_example_params(p_sweep)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.tau_grid, args.s_grid = parse_grid(args.tau_grid), parse_grid(args.s_grid)
        return args.func(check_settings(args))
    except QdblabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv=None) -> int:
    """Run one command and return its exit code."""
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # every report is on disk before anything is printed, so a reader that
        # closed stdout early misses only the summary or the help text; stdout
        # goes to devnull so that the interpreter's last flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
