"""The report pipeline: the paper's chain of checks on plain settings.

:func:`analyse` takes one ``dynamics.Dynamics`` block, stacked over its
points, through the stages that do not depend on beta_i: the GKLS test of
the generators and the level transitions on the tau grid, which
``dynamics.maps_of`` judges as it makes them, classification, from a
channel family's maps at ``FIXED_POINT_TAUS``, which end at ``TAU_MAX``, and
the generator-level (qdb1) and map-level (qdb2) detailed-balance checks, a
semigroup's qdb2 at every tau from its generator.  :func:`build_report`
adds the exchange distribution, whose records it judges by their sum, and
the forward-only ratio law at each point of beta_i and beta_f, and returns the
verdict sections and the arrays that report rows are read from.  Each stage
takes only the values it reads (the block, grids, tolerances, beta values),
so it can be called, compared or timed on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .balance import check_qdb1, check_qdb2
from .dynamics import Dynamics, maps_of
from .fluctuation import FIXED_POINT_TAUS, classify, exchange_grid, ratios
from .matlin import unit_norm1
from .states import HamiltonianSpec

# absolute times, in the model's own time units, for channel families and single maps only, which have no
# generator: a change of their units moves what qdb2 sees; a semigroup's qdb2 holds at every tau or none
QDB2_TAUS = (0.1, 0.5, 1.0, 5.0)


def json_float(x):
    """``float(x)``, with a non-finite value as the text ``inf``, ``-inf`` or ``nan``; None and bools stay."""
    return x if x is None or type(x) is bool else float(x) if math.isfinite(x) else str(float(x))


def fmt_float(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".17g")


def _balance(check, h: HamiltonianSpec, betas: np.ndarray, operators, s_grid: tuple, tol_qdb: float) -> list:
    """The verdict section of ``check`` over ``s_grid`` for each point of
    h's stack with a beta in ``betas`` (nan for none) and operators in the
    stack ``operators`` (None for none), else None, from one broadcast over
    those points."""
    picked, sections = np.flatnonzero(~np.isnan(betas)), [None] * len(betas)
    if operators is not None and picked.size:
        residuals = check(h[picked], betas[picked], s_grid, operators[picked])
        keys = [fmt_float(s) for s in s_grid]
        for i, r in zip(picked, residuals):
            per_s = dict(zip(keys, r.tolist()))
            worst = max(per_s.values())
            sections[i] = {"passes": bool(worst < tol_qdb), "max_residual": worst, "per_s": per_s}
    return sections


def analyse(block: Dynamics, tau_grid: tuple, s_grid: tuple, tol_qdb: float, tol_cptp: float) -> tuple:
    """The stages that do not depend on beta_i, each stacked over the points
    of ``block``, in order: the generators in H's eigenframe, with the GKLS
    test of the semigroups' generators against ``tol_cptp`` before any
    exponential, a family's or single map's maps at classify's probe times
    and at the finite qdb2 times, with the level transitions on
    ``tau_grid``, judged, from one :func:`maps_of` call; classify; and qdb1
    and qdb2 over ``s_grid``, which pass below ``tol_qdb``; one analysis
    ``(sections, betas, taus, probs, h)`` of them all, with a list of each
    point's sections, the array of their beta_f (nan where there is none),
    the stack of their transition probabilities on the tau grid and the
    block's stacked Hamiltonian.  A semigroup's qdb2 holds at every tau exactly when ``W
    L#`` is symmetric, its derivative at tau = 0, so it is ``check_qdb2`` of
    the eigenframe generator over its 1-norm (largest absolute column sum),
    at the taus ``"all"``.  A failing stage raises, for whichever point
    fails it."""
    semigroup = block.generator is not None
    probes = () if semigroup else block.taus(FIXED_POINT_TAUS)
    qdb2_taus = () if semigroup else tuple(filter(math.isfinite, block.taus(QDB2_TAUS)))
    taus, p, h = block.taus(tau_grid), len(probes), block.h
    # every stage from here reads the eigenframe matrices of maps_of
    generators, superops, probs = maps_of(block, probes + qdb2_taus, taus, tol_cptp)
    if semigroup:
        probes, maps, qdb2_taus = generators, unit_norm1(generators)[:, None], "all"
    else:
        probes, maps, qdb2_taus = superops[:, :p], superops[:, p:] if qdb2_taus else None, list(qdb2_taus)
    classified = classify(block, probes)
    betas = np.array([b if b is not None and math.isfinite(b) else math.nan for _, b, _ in classified])
    qdb1 = _balance(check_qdb1, h, betas, generators, s_grid, tol_qdb)
    qdb2 = _balance(check_qdb2, h, betas, maps, s_grid, tol_qdb)
    classification = [{"kind": k, "beta_f": json_float(b), "gamma_min": json_float(g)} for k, b, g in classified]
    sections = [{"classification": c, "qdb1": q1, "qdb2": q2 and {**q2, "taus": qdb2_taus}}
                for c, q1, q2 in zip(classification, qdb1, qdb2)]
    return sections, betas, taus, probs, h


def build_report(analysis: tuple, tol_qfr: float, beta_i, beta_f) -> list:
    """The report of each point of the analysis of :func:`analyse`, from
    one exchange grid over the points, as ``(verdict, records)``: the
    sections of :func:`analyse` and the ratio law's, which passes below
    ``tol_qfr``, and the arrays the rows are read from.  The points are the
    analysis's points, or, for a block of one point, the points of
    ``beta_i`` and ``beta_f``, a number that every point shares or an array
    of one per point; ``beta_f`` counts where the analysis infers none.  The
    points share a dimension and their gap clusters' pairs; a block of one
    point that every point shares gives its transitions once.
    The first point whose records fail their sum check raises."""
    sections, betas, taus, probs, h = analysis
    beta_i, beta_f, inferred = np.broadcast_arrays(beta_i, beta_f, betas)
    grid = exchange_grid(probs, h, beta_i)
    defined, ratio, predicted, deviation = ratios(*grid, beta_i - np.where(np.isnan(inferred), beta_f, inferred))
    energies, p_plus, p_minus, recorded = np.broadcast_to(grid[0], predicted.shape), *grid[1:]
    reports = []
    for sections, *records in zip(
        sections * (len(beta_i) // len(sections)), energies, predicted, recorded, p_plus, p_minus, defined, ratio,
        deviation,
    ):
        devs = records[-1][records[-3]]  # the deviations of the records with a ratio, in row order
        # their max() as a running max over the rows takes it: a nan counts only when it comes first
        worst = None if not devs.size else devs[0] if math.isnan(devs[0]) else np.nanmax(devs)
        passes = None if worst is None else bool(worst < tol_qfr)
        verdict = {**sections, "qfr_max_deviation": json_float(worst), "qfr_passes": passes}
        reports.append((verdict, (taus, *records)))
    return reports
