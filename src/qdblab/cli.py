"""Command-line interface.

Runs the built-in scenarios, verifies user-supplied models (JSON), sweeps a
named parameter, and writes machine-readable reports.  Reports are
byte-deterministic for a fixed configuration: floats are printed with 17
significant digits and rows are ordered by (tau, gap).

Exit codes: 0 success, 2 usage or configuration error, 3 model invariant
violation, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .balance import check_qdb1, check_qdb2
from .dynamics import Dynamics, LindbladGenerator, maps_of
from .errors import (
    ConfigError,
    DimensionMismatch,
    InconclusiveHorizon,
    InternalCheckError,
    KossakowskiNotPSD,
    NoConvergence,
    NotAState,
    NotCPTP,
    NotHermitian,
    NotTracePreserving,
    ScheduleOutOfRange,
    UnknownParameter,
    until_failure,
)
from .examples import (
    ExampleAParams,
    ExampleBParams,
    bloch4_to_superop,
    example_a_channel,
    example_a_f_factor,
    example_b_generator,
    example_c_generator,
    example_c_qdb_point,
)
from .fluctuation import classify, exchange_grid, ratios
from .states import HamiltonianSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4

QDB2_TAUS = (0.1, 0.5, 1.0, 5.0)

MODEL_ERRORS = (
    NotAState,
    NotHermitian,
    KossakowskiNotPSD,
    NotTracePreserving,
    NotCPTP,
    ScheduleOutOfRange,
    DimensionMismatch,
    NoConvergence,
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    tau_grid: tuple
    s_grid: tuple
    beta_i: float
    beta_f: float
    tol_qdb: float
    tol_qfr: float
    tol_cptp: float
    out: Path
    fmt: str

    def __post_init__(self):
        for name, grid in (("tau-grid", self.tau_grid), ("s-grid", self.s_grid)):
            if not grid:
                raise ConfigError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if not all(0.0 <= s <= 1.0 for s in self.s_grid):
            raise ConfigError("s-grid values must lie in [0, 1]")
        if not all(_is_tau(t) for t in self.tau_grid):
            raise ConfigError("tau-grid values must be finite and nonnegative")
        tols = (("tol-qdb", self.tol_qdb), ("tol-qfr", self.tol_qfr), ("tol-cptp", self.tol_cptp))
        for name, x in (("beta-i", self.beta_i), ("beta-f", self.beta_f), *tols):
            if not math.isfinite(x):
                raise ConfigError(f"{name} must be finite")
        for name, tol in tols:
            if tol <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.beta_i < 0:
            raise ConfigError("beta-i must be nonnegative")


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
    gives an empty range."""
    try:
        lo, hi, n = spec.split(":")
        return tuple(float(x) for x in np.linspace(*_finite_bounds(lo, hi), int(n)))
    except (ValueError, TypeError, MemoryError) as exc:
        raise ConfigError(f"cannot parse range spec {spec!r}: {exc}") from exc


def _finite_bounds(lo: str, hi: str) -> tuple:
    """``(float(lo), float(hi))``, checked to be finite before numpy, which
    warns on a non-finite bound, sees them."""
    bounds = float(lo), float(hi)
    if not all(map(math.isfinite, bounds)):
        raise ValueError("bounds must be finite")
    return bounds


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        tau_grid=parse_grid(args.tau_grid),
        s_grid=parse_grid(args.s_grid),
        beta_i=args.beta_i,
        beta_f=args.beta_f,
        tol_qdb=args.tol_qdb,
        tol_qfr=args.tol_qfr,
        tol_cptp=args.tol_cptp,
        out=Path(args.out),
        fmt=args.format,
    )


# ---------------------------------------------------------------------------
# report pipeline


def _json_float(x):
    """``float(x)``, with a non-finite value as the text ``inf``, ``-inf`` or ``nan``; None stays."""
    return None if x is None else float(x) if math.isfinite(x) else str(float(x))


def fmt_float(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".17g")


def _balance(check, sources: list, betas: list, operators: list, config: RunConfig) -> list:
    """The verdict section of ``check`` over the s grid for each source with a
    beta and an operator, else None, from one broadcast over those sources."""
    picked = [i for i, (b, o) in enumerate(zip(betas, operators)) if b is not None and o is not None]
    sections = [None] * len(betas)
    if picked:
        fields = ("matrix", "eigenvalues", "eigenvectors")  # one Hamiltonian, stacked over the sources
        h = HamiltonianSpec(*(np.array([getattr(sources[i].h, f) for i in picked]) for f in fields))
        residuals = check(h, [betas[i] for i in picked], config.s_grid, np.array([operators[i] for i in picked]))
        keys = [fmt_float(s) for s in config.s_grid]
        for i, r in zip(picked, residuals):
            per_s = dict(zip(keys, r.tolist()))
            worst = max(per_s.values())
            sections[i] = {"passes": bool(worst < config.tol_qdb), "max_residual": worst, "per_s": per_s}
    return sections


def analyse(sources: list, config: RunConfig) -> tuple:
    """The stages that do not depend on beta_i, each stacked over ``sources``
    (of one kind and dimension), in a source's order: classify, qdb1, the
    maps on the tau grid and at the qdb2 times, and qdb2; ``(analyses,
    failure)`` of :func:`until_failure`, each ``(source, sections, beta_f, taus, maps)``."""
    classified, failure = classify(sources)
    betas = [b if b is not None and math.isfinite(b) else None for _, b, _ in classified]
    qdb1 = _balance(check_qdb1, sources, betas, [s.generator for s in sources], config)
    taus = [s.taus(config.tau_grid) for s in sources]
    qdb2_taus = [() if b is None else tuple(filter(math.isfinite, s.taus(QDB2_TAUS))) for s, b in zip(sources, betas)]
    maps, map_failure = maps_of(sources, [t + t2 for t, t2 in zip(taus, qdb2_taus)])
    # time reversal is complex conjugation in H's eigenbasis
    qdb2 = [m[len(t) :] if t2 else None for t, t2, (m, _) in zip(taus, qdb2_taus, maps)]
    qdb2 = _balance(check_qdb2, sources, betas, qdb2, config)
    classification = [{"kind": k, "beta_f": _json_float(b), "gamma_min": _json_float(g)} for k, b, g in classified]
    sections = [{"classification": c, "qdb1": q1, "qdb2": q2 and {**q2, "taus": list(t2)}}
                for c, q1, q2, t2 in zip(classification, qdb1, qdb2, qdb2_taus)]
    return list(zip(sources, sections, betas, taus, maps)), map_failure or failure


def build_report(analysis: tuple, configs: list) -> list:
    """The report of each point ``config`` of one analysed source, from one
    exchange grid over the points' beta_i, as ``(verdict, records)``: the
    sections of :func:`analyse` and the ratio law's, and the arrays the rows
    are read from.  The first point that fails a check raises."""
    source, sections, beta_f, taus, (superops, kraus) = analysis
    n, beta_i = len(taus), np.array([c.beta_i for c in configs])
    maps = superops[:n], None if kraus is None else kraus[:n]
    energies, p_plus, p_minus, recorded = exchange_grid(maps, source.h, beta_i)
    beta_for_ratios = np.array([c.beta_f for c in configs]) if beta_f is None else beta_f
    defined, ratio, predicted, deviation = ratios(energies, p_plus, p_minus, recorded, beta_i - beta_for_ratios)
    reports = []
    for config, *records in zip(configs, predicted, recorded, p_plus, p_minus, defined, ratio, deviation):
        devs = records[-1][records[-3]]  # the deviations of the records with a ratio, in row order
        # their max() as a running max over the rows takes it: a nan counts only when it comes first
        worst = None if not devs.size else devs[0] if math.isnan(devs[0]) else np.nanmax(devs)
        passes = None if worst is None else bool(worst < config.tol_qfr)
        verdict = {**sections, "qfr_max_deviation": _json_float(worst), "qfr_passes": passes}
        reports.append((verdict, (taus, energies, *records)))
    return reports


# ---------------------------------------------------------------------------
# output


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_rows(path: Path, header, rows, fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt_float(x) if not isinstance(x, str) else x for x in row))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema": 1,
            "columns": list(header),
            "rows": [[_json_float(x) if not isinstance(x, str) else x for x in row] for row in rows],
        }
        _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
    except (ValueError, TypeError) as exc:
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
    """Parse a model file into a dynamics source (validating invariants)."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
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
            source = Dynamics.semigroup(h, bloch4_to_superop(np.real(_pairs_to_complex(obj["generator"]))))
    except KeyError as exc:
        raise ConfigError(f"model file misses required field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"model file {path}: {exc}") from exc
    # a lindblad generator of such an H overflows already; a Kraus map or bloch4 generator need not
    if not math.isfinite(float(h.eigenvalues[-1]) - float(h.eigenvalues[0])):
        raise ConfigError("the model overflows: the Hamiltonian's energy range is not finite")
    return source


# ---------------------------------------------------------------------------
# commands


def _emit(label: str, source: Dynamics, config: RunConfig, f_factor=None, **extra) -> None:
    """Write the rows and verdict, with ``extra`` entries, of one source: the
    one-point case of :func:`analyse` and :func:`build_report`, a row per tau
    and Bohr gap, with scenario A's ``f_factor`` at tau."""
    analyses, failure = analyse([source], config)
    if failure is not None:
        raise failure
    ((sections, (taus, energies, predicted, *per_tau)),) = build_report(analyses[0], [config])
    header = "tau E p_plus p_minus R predicted deviation".split() + ([] if f_factor is None else ["F_tau"])
    rows, predicted = [], predicted.tolist()
    for tau, *cells in zip(taus, *(a.tolist() for a in per_tau)):
        f_cell = [] if f_factor is None else [f_factor(tau)]
        # each row carries the ratio of its own gap record
        for energy, pred, kept, p_plus, p_minus, has_ratio, r, dev in zip(energies, predicted, *cells):
            if kept:
                ratio = (r, pred, dev) if has_ratio else (None, None, None)
                rows.append([tau, energy, p_plus, p_minus, *ratio, *f_cell])
    tolerances = {"qdb_pass": config.tol_qdb, "qfr_pass": config.tol_qfr, "cptp": config.tol_cptp}
    grids = {"tau_grid": list(config.tau_grid), "s_grid": list(config.s_grid), "tolerances": tolerances}
    run = {**grids, "beta_i": config.beta_i, "beta_f": config.beta_f}
    verdict = {"schema": 1, "source": label, **sections, "config": run, **extra}
    rows_path, verdict_path = config.out / f"{label}_rows.{config.fmt}", config.out / f"{label}_verdict.json"
    write_rows(rows_path, header, rows, config.fmt)
    write_verdict(verdict_path, verdict)
    q1, q2 = ({None: "n/a", True: "pass", False: "fail"}[s and s["passes"]] for s in (verdict["qdb1"], verdict["qdb2"]))
    kind, qfr = verdict["classification"]["kind"], verdict["qfr_max_deviation"]
    print(f"{label}: classification={kind} qdb1={q1} qdb2={q2} qfr_max_deviation={qfr}")
    print(f"wrote {rows_path} and {verdict_path}")


def _example_source(args, config: RunConfig):
    """Scenario ``args.name`` as a dynamics source, with scenario A's
    correction factor (None for the others)."""
    name = args.name
    try:
        if name == "a":
            builder = ExampleAParams.fixed_point if args.q_schedule == "fpt" else ExampleAParams.default
            p = builder(args.omega, config.beta_f)
        elif name == "b":
            p = ExampleBParams(omega=args.omega, gamma=args.gamma, beta_f=config.beta_f)
        else:
            base = example_c_qdb_point(args.mu, args.eta, args.omega, config.beta_f)
            if not math.isfinite(args.nu_scale):
                raise ValueError(f"nu-scale must be finite, got {args.nu_scale}")
            # a sweep of scenario c sets the swept coefficient on the namespace
            swept = {k: v for k, v in vars(args).items() if k in ("nu", "alpha", "chi", "zeta")}
            p = dataclasses.replace(base, **{"nu": base.nu * args.nu_scale, **swept})
        # scenario b takes H from its generator, which keeps H's one eigendecomposition
        h = None if name == "b" else p.hamiltonian()
        if name == "c":
            return Dynamics.semigroup(h, example_c_generator(p, cptp_tol=config.tol_cptp)), None
    except ValueError as exc:
        raise ConfigError(f"scenario {name}: {exc}") from exc
    if name == "a":
        family = Dynamics.channel_family(h, lambda taus: example_a_channel(p, taus))
        return family, lambda tau: example_a_f_factor(p, tau)
    gen = example_b_generator(p)
    if getattr(args, "save_model", None):
        save_model(gen, Path(args.save_model))
    return Dynamics.semigroup(gen.hamiltonian, gen), None


def cmd_example(args, config: RunConfig) -> int:
    if args.save_model and args.name != "b":
        raise ConfigError(f"--save-model writes only scenario b, not scenario {args.name}")
    source, f_factor = _example_source(args, config)
    _emit(f"example_{args.name}", source, config, f_factor, example=args.name)
    return EXIT_OK


def cmd_check(args, config: RunConfig) -> int:
    _emit(f"check_{Path(args.model).stem}", load_model(args.model), config, model=str(args.model))
    return EXIT_OK


_SWEEPABLE = {
    "a": ("beta_i", "beta_f", "omega"),
    "b": ("beta_i", "beta_f", "omega", "gamma"),
    "c": ("beta_i", "beta_f", "omega", "mu", "eta", "nu", "alpha", "chi", "zeta"),
    "model": ("beta_i",),
}


SWEEP_BLOCK = 32  # points stacked per pass, so that a sweep's memory does not grow with its range


def cmd_sweep(args, config: RunConfig) -> int:
    values = parse_range(args.range)
    header = ["parameter", "value", "classification", "beta_f", "qdb1_passes", "qdb1_max_residual"]
    header += ["qdb2_passes", "qdb2_max_residual", "qfr_max_deviation"]
    allowed = _SWEEPABLE.get(args.target, _SWEEPABLE["model"])
    if args.parameter not in allowed:
        raise UnknownParameter(
            f"parameter {args.parameter!r} is not sweepable for {args.target!r}; choose from {allowed}"
        )
    # a model file is read and built once, and so is a scenario whose sweep
    # changes beta_i only; that source is analysed once, in the first block
    shared = None if args.target in ("a", "b", "c") else load_model(args.target)

    def point(value):
        nonlocal shared
        cfg = dataclasses.replace(config, **{args.parameter: value}) if args.parameter.startswith("beta") else config
        # a scenario reads a swept beta from cfg, any other swept parameter from the namespace
        ns = argparse.Namespace(**{**vars(args), "name": args.target, args.parameter: value})
        source = shared if shared is not None else _example_source(ns, cfg)[0]
        shared = source if args.parameter == "beta_i" else None
        return source, cfg

    analyses, stage_failure, rows = [], None, []
    for start in range(0, len(values), SWEEP_BLOCK):
        block = values[start : start + SWEEP_BLOCK]
        # points are built up to the first that cannot be, whose error follows those of earlier points
        points, failure = until_failure(point, block)
        if shared is None or not analyses:
            analyses, stage_failure = analyse([s for s, _ in points][: None if shared is None else 1], config)
        if shared is not None and analyses:
            groups = [(analyses[0], [cfg for _, cfg in points])]
        else:
            groups = [(a, [cfg]) for a, (_, cfg) in zip(analyses, points)]
        reports = [report for a, cfgs in groups for report in build_report(a, cfgs)]
        if stage_failure or failure:
            raise stage_failure or failure
        for value, (verdict, _) in zip(block, reports):
            cls, sections = verdict["classification"], (verdict["qdb1"], verdict["qdb2"])
            balance = [None if q is None else q[key] for q in sections for key in ("passes", "max_residual")]
            rows.append([args.parameter, value, cls["kind"], cls["beta_f"], *balance, verdict["qfr_max_deviation"]])
    target_tag = Path(args.target).stem if args.target.endswith(".json") else args.target
    path = config.out / f"sweep_{target_tag}_{args.parameter}.csv"
    write_rows(path, header, rows, "csv")
    print(f"wrote {path} ({len(rows)} rows)")
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
    parser.add_argument("--out", default="reports")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdblab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_example = sub.add_parser("example", help="run a built-in scenario")
    p_example.add_argument("name", choices=("a", "b", "c"))
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
    p_sweep.add_argument("--range", required=True, help="START:STOP:COUNT")
    _add_example_params(p_sweep)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        return args.func(args, config)
    except (ConfigError, UnknownParameter) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MODEL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (InternalCheckError, InconclusiveHorizon) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


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
