"""The benchmark's workloads: which `qdblab` commands each one runs, why, and
how the output of every command is checked.

Every op draws its parameters from the workload seed, so no two timed ops
share an argv, and every check or sweep of a fixture gets a model file of its
own.  The expected verdicts come from how each input was built, never from a
previous run.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fixtures import BETA, write_fixture

QFR_TOL = 1e-9  # the CLI's default --tol-qfr, which no op overrides
BETA_ATOL = 1e-6
DEFAULT_TAUS = 40  # points of the CLI's default --tau-grid


@dataclass(frozen=True)
class Expect:
    """Verdict an op must report.

    ``qdb1`` and ``qdb2`` are True (pass), False (fail) or None (the section
    must be n/a).  ``qfr`` is True or False, or None where the construction
    does not determine the ratio law, which is then left unchecked.
    """

    kind: str
    qdb1: bool | None
    qdb2: bool | None
    qfr: bool | None


BALANCED = Expect("fpt", True, True, True)
CIRCULATING = Expect("fpt", False, False, None)
EXAMPLE_A = Expect("thermalizing", None, False, False)
EXAMPLE_C = Expect("fpt", False, False, True)
EXAMPLES = {"a": EXAMPLE_A, "b": BALANCED, "c": EXAMPLE_C}


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    out: Path
    expect: Expect
    rows: int
    sweep: bool = False


@dataclass(frozen=True)
class OpKind:
    name: str
    why: str
    # (rng, path stem for this op's files, cycle) -> (argv without --out, expect, rows, sweep)
    make: Callable


@dataclass(frozen=True)
class Workload:
    why: str
    kinds: tuple
    cold: bool = False  # each op in a fresh interpreter instead of one cli.main call


def _num(x: float) -> str:
    return repr(float(x))


def _log_grid(rng, n: int) -> str:
    return f"log:{_num(rng.uniform(0.008, 0.012))}:{_num(rng.uniform(40.0, 60.0))}:{n}"


def _rows_per_tau(dim: int) -> int:
    """The zero gap plus one record per Bohr gap of a generic spectrum."""
    return 1 + dim * (dim - 1) // 2


def _fixture(rng, stem: Path, dim: int, circulating: bool | None, cycle: int):
    """A fresh model file; ``circulating=None`` takes turns, balanced on even cycles."""
    if circulating is None:
        circulating = cycle % 2 == 1
    path = stem.parent / "fixtures" / f"{stem.name}_d{dim}{'c' if circulating else 'b'}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_fixture(rng, dim, circulating, path)
    return path, (CIRCULATING if circulating else BALANCED)


def example(name: str, taus: int | None = None, fmt: str = "csv"):
    def make(rng, stem, cycle):
        argv = ["example", name, "--omega", _num(rng.uniform(0.8, 1.25)),
                "--beta-i", _num(rng.uniform(1.5, 2.5))]
        if name == "b":
            argv += ["--gamma", _num(rng.uniform(0.5, 2.0))]
        if name == "c":
            argv += ["--mu", _num(rng.uniform(0.3, 0.7))]
        if taus is not None:
            argv += ["--tau-grid", _log_grid(rng, taus), "--s-grid", _num(rng.choice([0.25, 0.5, 0.75]))]
        argv += ["--format", fmt]
        return argv, EXAMPLES[name], (taus or DEFAULT_TAUS) * _rows_per_tau(2), False

    return make


def check(dim: int, circulating: bool | None, grids: str = "default", fmt: str = "csv", taus: int = 0):
    """``check`` on a fresh fixture.

    ``grids`` is ``default`` (the CLI's grids), ``long`` (a ``taus``-point log
    grid and one s value) or ``balance`` (11 s values and 3 tau values).
    """

    def make(rng, stem, cycle):
        path, expect = _fixture(rng, stem, dim, circulating, cycle)
        argv = ["check", str(path), "--beta-i", _num(rng.uniform(1.5, 2.5)), "--format", fmt]
        n_tau = DEFAULT_TAUS
        if grids == "long":
            n_tau = taus
            argv += ["--tau-grid", _log_grid(rng, taus), "--s-grid", _num(rng.choice([0.25, 0.5, 0.75]))]
        elif grids == "balance":
            n_tau = 3
            tau_grid = np.sort(rng.uniform(0.1, 10.0, n_tau))
            argv += ["--s-grid", ",".join(_num(s) for s in np.linspace(0.0, 1.0, 11)),
                     "--tau-grid", ",".join(_num(t) for t in tau_grid)]
        return argv, expect, n_tau * _rows_per_tau(dim), False

    return make


def sweep(target: str, parameter: str, lo: tuple, hi: tuple, points: int, circulating: bool = False):
    """``sweep`` over a built-in scenario, or over a fresh d = 3 fixture
    (``target="fixture"``), on a 4-point tau grid; the range ends are drawn
    from ``lo`` and ``hi``."""

    def make(rng, stem, cycle):
        if target == "fixture":
            path, expect = _fixture(rng, stem, 3, circulating, cycle)
            target_arg = str(path)
        else:
            target_arg, expect = target, EXAMPLES[target]
        argv = ["sweep", target_arg, "--parameter", parameter,
                "--range", f"{_num(rng.uniform(*lo))}:{_num(rng.uniform(*hi))}:{points}",
                "--tau-grid", _log_grid(rng, 4)]
        return argv, expect, points, True

    return make


# Each cycle mixes op kinds so that the median and the 90th percentile of
# op times fall inside a group of similar ops, not in the gap between two.
WORKLOADS = {
    "cli-cold": Workload(
        why="each command in a fresh interpreter, as users run the CLI: the only workload where start-up and import show",
        cold=True,
        kinds=(
            OpKind("example a", "the channel family, thermalizing but not fixed-point", example("a")),
            OpKind("example b", "the damped qubit, a balanced semigroup", example("b")),
            OpKind("example c", "the Bloch generator, unbalanced but obeying the ratio law", example("c")),
            OpKind("check d2 balanced", "a user model file at d = 2", check(2, False)),
            OpKind("check d3, balanced and circulating by turns", "a user model file at d = 3", check(3, None)),
        ),
    ),
    "tau-grid": Workload(
        why="few sources, each evaluated on a long tau grid: per-source map caching and batched tau grids show here",
        kinds=(
            OpKind("example a, 300 taus, csv", "Kraus channel family rebuilt at every tau", example("a", 300, "csv")),
            OpKind("example b, 300 taus, json", "one semigroup generator exponentiated at every tau",
                   example("b", 300, "json")),
            OpKind("check d4 circulating, 100 taus, json", "16x16 superoperators and 7 gap rows per tau",
                   check(4, True, "long", "json", 100)),
        ),
    ),
    "balance-grid": Workload(
        why="detailed-balance checks over 11 s values: check_qdb2 and its d^4 loop dominate",
        kinds=(
            OpKind("check d3, balanced and circulating by turns, 11 s x 3 taus",
                   "qdb1 and qdb2 at d = 3, on models that pass and fail them", check(3, None, "balance")),
            OpKind("check d4 balanced, 11 s x 3 taus", "qdb1 and qdb2 at d = 4 on a model that passes them",
                   check(4, False, "balance")),
            OpKind("check d4 circulating, 11 s x 3 taus", "qdb1 and qdb2 at d = 4 on a model that fails them",
                   check(4, True, "balance")),
        ),
    ),
    "sweep": Workload(
        why="many short-lived sources on short tau grids: per-source set-up, classify and model loading show here",
        kinds=(
            OpKind("sweep a omega, 6 points", "a channel family built per point",
                   sweep("a", "omega", (0.5, 0.8), (1.6, 2.0), 6)),
            OpKind("sweep b gamma, 6 points", "a Lindblad generator built and validated per point",
                   sweep("b", "gamma", (0.5, 0.8), (1.6, 2.0), 6)),
            OpKind("sweep c nu, 6 points", "a Bloch generator and its CPTP check per point, off the balanced nu",
                   sweep("c", "nu", (0.65, 0.75), (0.85, 0.95), 6)),
            OpKind("sweep d3 balanced beta_i, 3 points", "the model file re-read at every point",
                   sweep("fixture", "beta_i", (0.5, 1.0), (2.5, 3.0), 3)),
            OpKind("sweep d3 circulating beta_i, 3 points", "the same on a model that fails both balance checks",
                   sweep("fixture", "beta_i", (0.5, 1.0), (2.5, 3.0), 3, circulating=True)),
        ),
    ),
}


def ops(workload: str, seed: int, workdir: Path):
    """Yield ``(cycle, op)`` without end; one cycle runs every kind once."""
    rng = np.random.default_rng(seed)
    index = 0
    for cycle in itertools.count():
        for kind in WORKLOADS[workload].kinds:
            stem = workdir / f"op{index}"
            argv, expect, rows, is_sweep = kind.make(rng, stem, cycle)
            yield cycle, Op(kind.name, tuple(argv) + ("--out", str(stem)), stem, expect, rows, is_sweep)
            index += 1


def describe(workload: str) -> dict:
    w = WORKLOADS[workload]
    return {"why": w.why, "ops": [{"op": k.name, "why": k.why} for k in w.kinds]}


# ---------------------------------------------------------------------------
# output checks


def report_files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def _flag(section) -> bool | None:
    return None if section is None else bool(section["passes"])


def _cell_flag(cell: str) -> bool | None:
    return {"": None, "true": True, "false": False}[cell]


def _verdict_problems(expect: Expect, kind, beta_f, qdb1, qdb2, qfr) -> list:
    got = {"kind": kind, "qdb1": qdb1, "qdb2": qdb2}
    want = {"kind": expect.kind, "qdb1": expect.qdb1, "qdb2": expect.qdb2}
    if expect.qfr is not None:
        got["qfr"], want["qfr"] = qfr, expect.qfr
    problems = [f"{k}: got {got[k]!r}, expected {want[k]!r}" for k in want if got[k] != want[k]]
    if not (isinstance(beta_f, float) and abs(beta_f - BETA) < BETA_ATOL):
        problems.append(f"beta_f: got {beta_f!r}, expected {BETA}")
    return problems


def check_output(op: Op, files: dict) -> tuple:
    """``(rows, problems)`` for the report files an op wrote."""
    try:
        if op.sweep:
            (text,) = [v.decode() for k, v in files.items() if k.startswith("sweep_")]
            table = list(csv.DictReader(text.splitlines()))
            problems = []
            for row in table:
                problems += _verdict_problems(
                    op.expect, row["classification"], float(row["beta_f"]),
                    _cell_flag(row["qdb1_passes"]), _cell_flag(row["qdb2_passes"]),
                    float(row["qfr_max_deviation"]) < QFR_TOL,
                )
            rows = len(table)
        else:
            (verdict,) = [json.loads(v) for k, v in files.items() if k.endswith("_verdict.json")]
            (rows_file,) = [k for k in files if "_rows." in k]
            if rows_file.endswith(".json"):
                rows = len(json.loads(files[rows_file])["rows"])
            else:
                rows = files[rows_file].count(b"\n") - 1
            cls = verdict["classification"]
            problems = _verdict_problems(
                op.expect, cls["kind"], cls["beta_f"], _flag(verdict["qdb1"]),
                _flag(verdict["qdb2"]), verdict["qfr_passes"],
            )
    except (ValueError, KeyError, TypeError) as exc:  # missing or malformed report
        return 0, [f"unreadable report: {type(exc).__name__}: {exc}"]
    if rows != op.rows:
        problems.append(f"rows: got {rows}, expected {op.rows}")
    return rows, problems
