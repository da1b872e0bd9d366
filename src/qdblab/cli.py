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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .balance import TimeReversal, WeightedSpace, check_qdb1, check_qdb2
from .dynamics import Dynamics, KrausChannel, LindbladGenerator, heisenberg_dual
from .errors import (
    ConfigError,
    DegenerateGround,
    DimensionMismatch,
    InconclusiveHorizon,
    InternalCheckError,
    KossakowskiNotPSD,
    NoConvergence,
    NotAState,
    NotCompletelyPositive,
    NotCPTP,
    NotHermitian,
    NotTracePreserving,
    ScheduleOutOfRange,
    SingularWeight,
    UnknownParameter,
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
from .fluctuation import classify, exchange_distribution, qfr_ratio
from .states import HamiltonianSpec, gibbs

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
    NotCompletelyPositive,
    NotCPTP,
    ScheduleOutOfRange,
    DimensionMismatch,
    SingularWeight,
    DegenerateGround,
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
        for name, beta in (("beta-i", self.beta_i), ("beta-f", self.beta_f)):
            if not math.isfinite(beta):
                raise ConfigError(f"{name} must be finite")
        for name, tol in (
            ("tol-qdb", self.tol_qdb),
            ("tol-qfr", self.tol_qfr),
            ("tol-cptp", self.tol_cptp),
        ):
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
    """Either ``log:LO:HI:N`` (log-spaced) or a comma-separated list."""
    try:
        if spec.startswith("log:"):
            _, lo, hi, n = spec.split(":")
            return tuple(float(x) for x in np.geomspace(float(lo), float(hi), int(n)))
        return tuple(float(x) for x in spec.split(",") if x.strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse grid spec {spec!r}: {exc}") from exc


def parse_range(spec: str) -> tuple:
    """``START:STOP:COUNT``, linearly spaced; COUNT = 0 gives an empty range."""
    try:
        lo, hi, n = spec.split(":")
        return tuple(float(x) for x in np.linspace(float(lo), float(hi), int(n)))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse range spec {spec!r}: {exc}") from exc


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
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def fmt_float(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".17g")


def _balance_section(per_s: dict, tol: float) -> dict:
    worst = max(per_s.values())
    return {"passes": bool(worst < tol), "max_residual": worst, "per_s": per_s}


def build_report(label: str, source: Dynamics, config: RunConfig, f_factor=None):
    """Rows and verdict for one dynamics source.

    Rows cover the tau grid with one entry per Bohr gap; the verdict
    aggregates classification, both balance checks (per point of the s
    grid) and the worst ratio-law deviation.
    """
    cls = classify(source.generator or source.family or source.channel, source.h)
    classification = {
        "kind": cls.kind,
        "beta_f": _json_float(cls.beta_f),
        "gamma_min": _json_float(cls.gamma_min),
    }
    beta_raw = classification["beta_f"]
    beta_known = isinstance(beta_raw, float) and math.isfinite(beta_raw)
    beta_for_ratios = beta_raw if beta_known else config.beta_f

    spaces = ()
    if beta_known:
        sigma = gibbs(source.h, beta_raw)
        try:
            spaces = tuple((fmt_float(s), WeightedSpace(sigma=sigma, s=s)) for s in config.s_grid)
        except SingularWeight:
            spaces = ()

    qdb1 = None
    if spaces and source.generator is not None:
        per_s = {
            key: check_qdb1(space, source.generator, h=source.h, tol=config.tol_qdb).residual
            for key, space in spaces
        }
        qdb1 = _balance_section(per_s, config.tol_qdb)

    qdb2 = None
    qdb2_taus = tuple(t for t in source.taus(QDB2_TAUS) if math.isfinite(t))
    if spaces and qdb2_taus:
        reversal = TimeReversal.conjugation(source.h.dim)
        heis = [heisenberg_dual(source.map_at(tau)) for tau in qdb2_taus]
        per_s = {
            key: max(0.0, *(check_qdb2(space, g, reversal, tol=config.tol_qdb).max_residual for g in heis))
            for key, space in spaces
        }
        qdb2 = {**_balance_section(per_s, config.tol_qdb), "taus": list(qdb2_taus)}

    header = ["tau", "E", "p_plus", "p_minus", "R", "predicted", "deviation"]
    if f_factor is not None:
        header.append("F_tau")
    rows = []
    qfr_max = None
    for tau in source.taus(config.tau_grid):
        dist = exchange_distribution(
            source.map_at(tau), source.h, config.beta_i, beta_for_ratios, tau
        )
        ratios = {round(r.energy, 12): r for r in qfr_ratio(dist)}
        for gap in dist.gaps:
            rec = ratios.get(round(gap.energy, 12))
            row = [
                tau,
                gap.energy,
                gap.p_plus,
                gap.p_minus,
                rec.ratio if rec else None,
                rec.predicted if rec else None,
                rec.deviation if rec else None,
            ]
            if f_factor is not None:
                row.append(f_factor(tau))
            rows.append(row)
            if rec is not None:
                qfr_max = rec.deviation if qfr_max is None else max(qfr_max, rec.deviation)

    verdict = {
        "schema": 1,
        "source": label,
        "classification": classification,
        "qdb1": qdb1,
        "qdb2": qdb2,
        "qfr_max_deviation": _json_float(qfr_max),
        "qfr_passes": None if qfr_max is None else bool(qfr_max < config.tol_qfr),
        "config": {
            "tau_grid": list(config.tau_grid),
            "s_grid": list(config.s_grid),
            "beta_i": config.beta_i,
            "beta_f": config.beta_f,
            "tolerances": {
                "qdb_pass": config.tol_qdb,
                "qfr_pass": config.tol_qfr,
                "cptp": config.tol_cptp,
            },
        },
    }
    return header, rows, verdict


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
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2:
        return arr.astype(complex)
    raise ConfigError(f"matrix must be nested rows of numbers or [re, im] pairs, got shape {arr.shape}")


def save_model(gen: LindbladGenerator, path: Path) -> None:
    """Serialize a canonical-basis Lindblad generator to JSON."""
    obj = {
        "schema": 1,
        "kind": "lindblad",
        "hamiltonian": _complex_to_pairs(gen.hamiltonian.matrix),
        "kossakowski": _complex_to_pairs(gen.kossakowski),
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
    try:
        if kind == "lindblad":
            h = HamiltonianSpec.from_matrix(_pairs_to_complex(obj["hamiltonian"]))
            gen = LindbladGenerator.canonical(h, _pairs_to_complex(obj["kossakowski"]))
            return Dynamics.semigroup(h, gen)
        if kind == "kraus":
            h = HamiltonianSpec.from_matrix(_pairs_to_complex(obj["hamiltonian"]))
            if not isinstance(obj["kraus_ops"], list):
                raise ConfigError("kraus_ops must be a list of matrices")
            channel = KrausChannel(tuple(_pairs_to_complex(g) for g in obj["kraus_ops"]))
            tau = obj.get("tau", math.nan)
            if "tau" in obj and not _is_tau(tau):
                raise ConfigError(f"tau must be a finite number >= 0, got {tau!r}")
            return Dynamics.single_map(h, channel, float(tau))
        if kind == "bloch4":
            h = HamiltonianSpec.from_matrix(_pairs_to_complex(obj["hamiltonian"]))
            l4 = np.real(_pairs_to_complex(obj["generator"]))
            return Dynamics.semigroup(h, bloch4_to_superop(l4))
    except KeyError as exc:
        raise ConfigError(f"model file misses required field {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# commands


def _emit(source_label, header, rows, verdict, config: RunConfig) -> None:
    suffix = "csv" if config.fmt == "csv" else "json"
    rows_path = config.out / f"{source_label}_rows.{suffix}"
    verdict_path = config.out / f"{source_label}_verdict.json"
    write_rows(rows_path, header, rows, config.fmt)
    write_verdict(verdict_path, verdict)
    cls = verdict["classification"]
    print(
        f"{source_label}: classification={cls['kind']}"
        f" qdb1={_verdict_flag(verdict['qdb1'])}"
        f" qdb2={_verdict_flag(verdict['qdb2'])}"
        f" qfr_max_deviation={verdict['qfr_max_deviation']}"
    )
    print(f"wrote {rows_path} and {verdict_path}")


def _verdict_flag(section) -> str:
    if section is None:
        return "n/a"
    return "pass" if section["passes"] else "fail"


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
            # a sweep of scenario c sets the swept coefficient on the namespace
            swept = {k: v for k, v in vars(args).items() if k in ("nu", "alpha", "chi", "zeta")}
            p = dataclasses.replace(base, **{"nu": base.nu * args.nu_scale, **swept})
        h = p.hamiltonian()
    except ValueError as exc:
        raise ConfigError(f"scenario {name}: {exc}") from exc
    if name == "a":
        return (
            Dynamics.channel_family(h, lambda tau: example_a_channel(p, tau)),
            lambda tau: example_a_f_factor(p, tau),
        )
    if name == "b":
        gen = example_b_generator(p)
        if getattr(args, "save_model", None):
            save_model(gen, Path(args.save_model))
        return Dynamics.semigroup(h, gen), None
    return Dynamics.semigroup(h, example_c_generator(p, cptp_tol=config.tol_cptp)), None


def cmd_example(args, config: RunConfig) -> int:
    source, f_factor = _example_source(args, config)
    label = f"example_{args.name}"
    header, rows, verdict = build_report(label, source, config, f_factor)
    verdict["example"] = args.name
    _emit(label, header, rows, verdict, config)
    return EXIT_OK


def cmd_check(args, config: RunConfig) -> int:
    source = load_model(args.model)
    label = f"check_{Path(args.model).stem}"
    header, rows, verdict = build_report(label, source, config)
    verdict["model"] = str(args.model)
    _emit(label, header, rows, verdict, config)
    return EXIT_OK


_SWEEPABLE = {
    "a": ("beta_i", "beta_f", "omega"),
    "b": ("beta_i", "beta_f", "omega", "gamma"),
    "c": ("beta_i", "beta_f", "omega", "mu", "eta", "nu", "alpha", "chi", "zeta"),
    "model": ("beta_i",),
}


def _sweep_source(target: str, param: str, value: float, args, config: RunConfig):
    """Build the swept source; returns (source, config) with overrides applied."""
    allowed = _SWEEPABLE.get(target, _SWEEPABLE["model"])
    if param not in allowed:
        raise UnknownParameter(
            f"parameter {param!r} is not sweepable for {target!r}; choose from {allowed}"
        )
    ns = argparse.Namespace(**vars(args), name=target)
    if param in ("beta_i", "beta_f"):
        config = dataclasses.replace(config, **{param: value})
    else:
        setattr(ns, param, value)
    if target not in ("a", "b", "c"):
        return load_model(target), config
    source, _ = _example_source(ns, config)
    return source, config


def cmd_sweep(args, config: RunConfig) -> int:
    values = parse_range(args.range)
    header = [
        "parameter",
        "value",
        "classification",
        "beta_f",
        "qdb1_passes",
        "qdb1_max_residual",
        "qdb2_passes",
        "qdb2_max_residual",
        "qfr_max_deviation",
    ]
    rows = []
    for value in values:
        source, cfg = _sweep_source(args.target, args.parameter, float(value), args, config)
        _, _, verdict = build_report(args.target, source, cfg)
        q1, q2 = verdict["qdb1"], verdict["qdb2"]
        rows.append(
            [
                args.parameter,
                value,
                verdict["classification"]["kind"],
                verdict["classification"]["beta_f"],
                None if q1 is None else q1["passes"],
                None if q1 is None else q1["max_residual"],
                None if q2 is None else q2["passes"],
                None if q2 is None else q2["max_residual"],
                verdict["qfr_max_deviation"],
            ]
        )
    target_tag = Path(args.target).stem if args.target.endswith(".json") else args.target
    path = config.out / f"sweep_{target_tag}_{args.parameter}.csv"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else fmt_float(x) for x in row))
    _write_text(path, "\n".join(lines) + "\n")
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


def main(argv=None) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
