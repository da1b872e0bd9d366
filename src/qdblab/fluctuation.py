"""Level transition probabilities, energy-exchange statistics, the
forward-forward ratio law, and thermalization classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matlin
from .dynamics import (
    SCHRODINGER,
    KrausChannel,
    LindbladGenerator,
    SuperOperator,
    apply,
    lindblad_superop,
    superop_from_channel,
)
from .errors import (
    DimensionMismatch,
    InconclusiveHorizon,
    InternalCheckError,
    NotAState,
    NotThermal,
    NotTracePreserving,
    ZeroPopulation,
)
from .matlin import dag, unvec
from .states import DensityMatrix, HamiltonianSpec, gibbs, infer_beta, populations

RATIO_FLOOR = 1e-13
GAP_GROUP_RTOL = 1e-9
ROUTE_AGREEMENT_ATOL = 1e-10
STOCHASTIC_ATOL = 1e-9
PROBABILITY_FLOOR = 1e-15  # below this both-sided, a gap record is roundoff


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix of level-to-level transition probabilities."""

    tau: float | None
    probs: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        if float(np.min(p)) < -1e-12:
            raise NotTracePreserving(f"negative transition probability {float(np.min(p)):.3e}")
        rows = p.sum(axis=1)
        if float(np.max(np.abs(rows - 1.0))) > STOCHASTIC_ATOL:
            raise NotTracePreserving(
                f"transition rows sum to 1 only within {float(np.max(np.abs(rows - 1.0))):.3e}"
            )

    @property
    def dim(self) -> int:
        return self.probs.shape[0]


def transition_matrix(channel_or_superop, h: HamiltonianSpec, tau: float | None = None) -> TransitionMatrix:
    """``p[m, n] = <n| Map[|m><m|] |n>`` over h's ascending eigenbasis.

    For a Kraus channel the equivalent route ``sum_j |<n|G_j|m>|^2`` is
    evaluated as well and the two must agree.
    """
    d = h.dim
    v = h.eigenvectors
    kraus_probs = None
    if isinstance(channel_or_superop, KrausChannel):
        if channel_or_superop.dim != d:
            raise DimensionMismatch("channel dimension does not match the Hamiltonian")
        kraus_probs = np.zeros((d, d))
        for g in channel_or_superop.kraus_ops:
            g_eig = dag(v) @ g @ v
            kraus_probs += np.abs(g_eig.T) ** 2
        s = superop_from_channel(channel_or_superop)
    elif isinstance(channel_or_superop, SuperOperator):
        if channel_or_superop.picture != SCHRODINGER:
            raise ValueError("transition probabilities need a Schroedinger-picture map")
        if channel_or_superop.dim != d:
            raise DimensionMismatch("superoperator dimension does not match the Hamiltonian")
        s = channel_or_superop
    else:
        raise TypeError(f"unsupported map type {type(channel_or_superop).__name__}")
    probs = np.zeros((d, d))
    for m in range(d):
        out = s.apply_matrix(h.projector(m))
        probs[m] = np.real(np.einsum("in,ij,jn->n", v.conj(), out, v))
    if kraus_probs is not None:
        gap = float(np.max(np.abs(kraus_probs - probs)))
        if gap > ROUTE_AGREEMENT_ATOL:
            raise InternalCheckError(
                f"Kraus and superoperator transition routes disagree by {gap:.3e}"
            )
    return TransitionMatrix(tau=tau, probs=probs, energies=h.eigenvalues)


@dataclass(frozen=True)
class GapRecord:
    energy: float
    p_plus: float
    p_minus: float


@dataclass(frozen=True)
class EnergyExchangeDistribution:
    """Probabilities of absorbing / releasing each Bohr gap at one time."""

    tau: float
    gaps: tuple
    beta_i: float
    beta_f: float

    def __post_init__(self):
        total = sum(g.p_plus for g in self.gaps)
        total += sum(g.p_minus for g in self.gaps if g.energy > 0)
        if abs(total - 1.0) > 1e-9:
            raise InternalCheckError(f"exchange probabilities sum to {total:.12g}")
        for g in self.gaps:
            for p in (g.p_plus, g.p_minus):
                if p < -1e-12 or p > 1.0 + 1e-12:
                    raise InternalCheckError(f"probability {p:.12g} outside [0, 1]")

    def gap(self, energy: float, atol: float = 1e-9) -> GapRecord:
        for g in self.gaps:
            if abs(g.energy - energy) <= atol:
                return g
        raise KeyError(f"no gap at energy {energy}")


def exchange_distribution(
    channel_or_superop,
    h: HamiltonianSpec,
    beta_i: float,
    beta_f: float,
    tau: float,
) -> EnergyExchangeDistribution:
    """Energy-exchange statistics of a map applied to the ``beta_i`` thermal state.

    Ordered level pairs are grouped by their gap ``E_n - E_m`` (within
    ``1e-9 * max|E|``); degenerate gaps accumulate into one record.  For a
    gap ``E >= 0``, ``p_plus`` weights forward transitions by initial
    populations and ``p_minus`` the reversed ones.
    """
    if beta_i < 0:
        raise ValueError("beta_i must be nonnegative")
    tm = transition_matrix(channel_or_superop, h, tau)
    e = h.eigenvalues
    p_init = populations(gibbs(h, beta_i), h)
    atol = GAP_GROUP_RTOL * float(np.max(np.abs(e))) if e.size else 0.0
    forward = []
    for m in range(h.dim):
        for n in range(h.dim):
            gap = float(e[n] - e[m])
            if gap >= -atol:
                forward.append((max(gap, 0.0), m, n))
    forward.sort(key=lambda item: item[0])
    records = []
    idx = 0
    while idx < len(forward):
        jdx = idx
        while jdx + 1 < len(forward) and forward[jdx + 1][0] - forward[idx][0] <= atol:
            jdx += 1
        cluster = forward[idx : jdx + 1]
        if cluster[0][0] <= atol:
            energy = 0.0
        else:
            energy = float(np.mean([item[0] for item in cluster]))
        p_plus = float(sum(p_init[m] * tm.probs[m, n] for _, m, n in cluster))
        p_minus = float(sum(p_init[n] * tm.probs[n, m] for _, m, n in cluster))
        if max(p_plus, p_minus) >= PROBABILITY_FLOOR:
            records.append(GapRecord(energy=energy, p_plus=p_plus, p_minus=p_minus))
        idx = jdx + 1
    return EnergyExchangeDistribution(
        tau=tau, gaps=tuple(records), beta_i=beta_i, beta_f=beta_f
    )


@dataclass(frozen=True)
class RatioRecord:
    energy: float
    ratio: float
    predicted: float
    deviation: float


def qfr_ratio(dist: EnergyExchangeDistribution, ratio_floor: float = RATIO_FLOOR) -> list:
    """Per-gap ratio ``P(+E)/P(-E)`` against the prediction ``e^{dbeta E}``.

    Gaps whose release probability sits below ``ratio_floor`` have an
    undefined ratio and are left out of the result.
    """
    dbeta = dist.beta_i - dist.beta_f
    out = []
    for g in dist.gaps:
        if g.p_minus <= ratio_floor:
            continue
        ratio = g.p_plus / g.p_minus
        predicted = math.exp(dbeta * g.energy)
        out.append(
            RatioRecord(
                energy=g.energy,
                ratio=ratio,
                predicted=predicted,
                deviation=abs(ratio / predicted - 1.0),
            )
        )
    return out


def check_pairwise_condition(channel_or_superop, h: HamiltonianSpec, beta_f: float) -> float:
    """Largest defect of ``e^{-b E_m} p(m->n) == e^{-b E_n} p(n->m)``."""
    tm = transition_matrix(channel_or_superop, h)
    e = h.eigenvalues
    worst = 0.0
    for m in range(h.dim):
        for n in range(m + 1, h.dim):
            lhs = math.exp(-beta_f * e[m]) * tm.probs[m, n]
            rhs = math.exp(-beta_f * e[n]) * tm.probs[n, m]
            worst = max(worst, abs(lhs - rhs))
    return worst


def fpt_stationarity_identity(channel_or_superop, h: HamiltonianSpec, beta_f: float) -> float:
    """Largest defect of ``sum_n p_n(beta_f) p(n->m) == p_m(beta_f)``."""
    tm = transition_matrix(channel_or_superop, h)
    p_th = populations(gibbs(h, beta_f), h)
    return float(np.max(np.abs(p_th @ tm.probs - p_th)))


@dataclass(frozen=True)
class Classification:
    """Outcome of the thermalization probe.

    ``kind`` is ``"fpt"``, ``"thermalizing"`` or ``"non_thermalizing"``,
    or ``"single_map"`` for one Kraus map, which is probed only for a
    thermal fixed point; ``beta_f`` and the asymptotic state are set when
    they exist.
    """

    kind: str
    beta_f: float | None = None
    asymptotic_state: DensityMatrix | None = None
    gamma_min: float | None = None

    @property
    def is_thermalizing(self) -> bool:
        return self.kind in ("fpt", "thermalizing")


ZERO_EIG_ATOL = 1e-10
UNIT_EIG_ATOL = 1e-8
CONVERGENCE_ATOL = 1e-7
FIXED_POINT_ATOL = 1e-8


def _fixed_state(col: np.ndarray, h: HamiltonianSpec):
    """State and inverse temperature of a fixed-point eigenvector.

    Returns ``(None, None)`` when the eigenvector is traceless and a ``None``
    temperature when the state is not thermal; an eigenvector that is no
    state raises ``NotAState``.
    """
    mat = unvec(col, h.dim, h.dim)
    mat = (mat + dag(mat)) / 2
    tr = float(np.real(np.trace(mat)))
    if abs(tr) < 1e-12:
        return None, None
    state = DensityMatrix(mat / tr)
    try:
        return state, infer_beta(state, h)
    except (NotThermal, ZeroPopulation):
        return state, None


def _classify_semigroup(l_matrix: np.ndarray, h: HamiltonianSpec) -> Classification:
    eigs, vecs = np.linalg.eig(l_matrix)
    zero = np.abs(eigs) < ZERO_EIG_ATOL
    if int(np.sum(zero)) != 1:
        return Classification(kind="non_thermalizing")
    rest = eigs[~zero]
    if rest.size and float(np.max(np.real(rest))) >= -ZERO_EIG_ATOL:
        return Classification(kind="non_thermalizing")
    gamma_min = float(np.min(-np.real(rest))) if rest.size else None
    state, beta = _fixed_state(vecs[:, int(np.argmax(zero))], h)
    if beta is None:
        return Classification(kind="non_thermalizing", asymptotic_state=state, gamma_min=gamma_min)
    # Semigroups with a spectral gap converge to their unique stationary
    # state, which is then a fixed point at every time.
    return Classification(kind="fpt", beta_f=beta, asymptotic_state=state, gamma_min=gamma_min)


def _classify_single_map(channel: KrausChannel, h: HamiltonianSpec) -> Classification:
    eigs, vecs = np.linalg.eig(superop_from_channel(channel).matrix)
    one = np.abs(eigs - 1.0) < UNIT_EIG_ATOL
    if int(np.sum(one)) != 1:
        return Classification(kind="single_map")
    try:
        state, beta = _fixed_state(vecs[:, int(np.argmax(one))], h)
    except NotAState:
        return Classification(kind="single_map")
    return Classification(kind="single_map", beta_f=beta, asymptotic_state=state)


def _probe_states(d: int) -> list:
    probes = [DensityMatrix(np.eye(d, dtype=complex) / d)]
    for m in range(d):
        mat = np.zeros((d, d), dtype=complex)
        mat[m, m] = 1.0
        probes.append(DensityMatrix(mat))
    rng = np.random.default_rng(7)
    for _ in range(3):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = a @ dag(a)
        probes.append(DensityMatrix(mat / np.trace(mat)))
    return probes


def classify(
    source,
    h: HamiltonianSpec,
    tau_grid=None,
    tau_max: float = 100.0,
) -> Classification:
    """Classify a dynamics as fixed-point thermalizing, thermalizing, or neither.

    Semigroup inputs (a ``LindbladGenerator`` or a Schroedinger-picture
    generator ``SuperOperator``) are classified spectrally: a unique zero
    eigenvalue with every other eigenvalue strictly damped, plus a thermal
    stationary state.  A single ``KrausChannel`` is classified
    ``single_map``, with ``beta_f`` set when the eigenvalue 1 is simple and
    its eigenvector a thermal state.  A callable ``tau -> map`` is probed on
    a fixed state set up to ``tau_max``; failure to converge raises
    ``InconclusiveHorizon``.
    """
    if isinstance(source, KrausChannel):
        return _classify_single_map(source, h)
    if isinstance(source, LindbladGenerator):
        return _classify_semigroup(lindblad_superop(source).matrix, h)
    if isinstance(source, SuperOperator):
        if source.picture != SCHRODINGER:
            raise ValueError("classification needs a Schroedinger-picture generator")
        return _classify_semigroup(source.matrix, h)
    if not callable(source):
        raise TypeError(f"unsupported dynamics source {type(source).__name__}")
    probes = _probe_states(h.dim)
    finals = [apply(source(tau_max), p).matrix for p in probes]
    mean = sum(finals) / len(finals)
    mean = (mean + dag(mean)) / 2
    spread = max(matlin.trace_norm(f - mean) for f in finals)
    if spread > CONVERGENCE_ATOL:
        raise InconclusiveHorizon(
            f"probe states are {spread:.3e} apart in trace norm at tau={tau_max:g}"
        )
    state = DensityMatrix(mean / np.real(np.trace(mean)))
    try:
        beta = infer_beta(state, h)
    except (NotThermal, ZeroPopulation):
        return Classification(kind="non_thermalizing", asymptotic_state=state)
    if tau_grid is None:
        tau_grid = np.geomspace(0.01, tau_max, 9)
    fixed = all(
        matlin.trace_norm(apply(source(tau), state).matrix - state.matrix) < FIXED_POINT_ATOL
        for tau in tau_grid
    )
    kind = "fpt" if fixed else "thermalizing"
    return Classification(kind=kind, beta_f=beta, asymptotic_state=state)


def default_tau_max(classification: Classification, fallback: float = 100.0) -> float:
    """Probing horizon ``50 / gamma_min`` from the spectral gap when known."""
    if classification.gamma_min and classification.gamma_min > 0:
        return 50.0 / classification.gamma_min
    return fallback
