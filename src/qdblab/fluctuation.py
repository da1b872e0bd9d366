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


def transition_matrix(channel_or_superop, h: HamiltonianSpec) -> np.ndarray:
    """``p[m, n] = <n| Map[|m><m|] |n>`` over h's ascending eigenbasis.

    For a Kraus channel the equivalent route ``sum_j |<n|G_j|m>|^2`` is
    evaluated as well and the two must agree; the probabilities must be
    nonnegative and each row must sum to 1.
    """
    probs, checks, pending = _transition_stack((channel_or_superop,), h)
    _raise_first(checks, pending)
    return probs[0]


def _map_error(g, d: int):
    """The exception for a map of the wrong type, picture or dimension, or None."""
    if isinstance(g, KrausChannel):
        return None if g.dim == d else DimensionMismatch("channel dimension does not match the Hamiltonian")
    if isinstance(g, SuperOperator):
        if g.picture != SCHRODINGER:
            return ValueError("transition probabilities need a Schroedinger-picture map")
        if g.dim != d:
            return DimensionMismatch("superoperator dimension does not match the Hamiltonian")
        return None
    return TypeError(f"unsupported map type {type(g).__name__}")


def _kraus_superops(kraus: np.ndarray) -> np.ndarray:
    """``sum_j conj(G_j) (x) G_j`` for every slice of a zero-padded Kraus stack
    ``(t, j, d, d)``, summed over ``j`` in order as :func:`superop_from_channel` does."""
    t, _, d, _ = kraus.shape
    s = np.zeros((t, d * d, d * d), dtype=complex)
    for g in kraus.transpose(1, 0, 2, 3):
        s += (g.conj()[:, :, None, :, None] * g[:, None, :, None, :]).reshape(t, d * d, d * d)
    return s


def _transition_stack(maps, h: HamiltonianSpec):
    """Transition probabilities ``probs[t, m, n]`` of a sequence of maps, with
    the checks of :func:`transition_matrix` as masks over ``t``.

    Returns ``(probs, checks, pending)``.  ``probs`` covers the maps before the
    first one of the wrong type, picture or dimension, whose exception is
    ``pending`` (None when every map fits).  ``checks`` lists ``(mask, error)``
    pairs in the order one map is checked; ``error(t)`` is the exception for
    map ``t``.
    """
    d = h.dim
    maps = tuple(maps)
    pending = None
    for t, g in enumerate(maps):
        pending = _map_error(g, d)
        if pending is not None:
            maps = maps[:t]
            break
    is_kraus = np.array([isinstance(g, KrausChannel) for g in maps], dtype=bool)
    kraus = [g.kraus_ops for g in maps if isinstance(g, KrausChannel)]
    s = np.empty((len(maps), d * d, d * d), dtype=complex)
    if kraus:
        ops = np.zeros((len(kraus), max(map(len, kraus)), d, d), dtype=complex)
        for t, g in enumerate(kraus):
            ops[t, : len(g)] = g
        s[is_kraus] = _kraus_superops(ops)
    if len(kraus) < len(maps):
        s[~is_kraus] = [g.matrix for g in maps if not isinstance(g, KrausChannel)]
    v = h.eigenvectors
    # column m of q is vec(|m><m|), so (q^dag S q)[n, m] = <n| S[|m><m|] |n>
    q = (v.conj()[:, None, :] * v[None, :, :]).reshape(d * d, d)
    probs = np.real(dag(q) @ s @ q).transpose(0, 2, 1)
    route_gap = np.zeros(len(maps))
    if kraus:
        kraus_probs = (np.abs(dag(v) @ ops @ v) ** 2).sum(axis=1).transpose(0, 2, 1)
        route_gap[is_kraus] = np.abs(kraus_probs - probs[is_kraus]).max(axis=(1, 2))
    low = probs.min(axis=(1, 2))
    rows = np.abs(probs.sum(axis=2) - 1.0).max(axis=1)
    checks = [
        (
            route_gap > ROUTE_AGREEMENT_ATOL,
            lambda t: InternalCheckError(
                f"Kraus and superoperator transition routes disagree by {route_gap[t]:.3e}"
            ),
        ),
        (low < -1e-12, lambda t: NotTracePreserving(f"negative transition probability {low[t]:.3e}")),
        (
            rows > STOCHASTIC_ATOL,
            lambda t: NotTracePreserving(f"transition rows sum to 1 only within {rows[t]:.3e}"),
        ),
    ]
    return probs, checks, pending


def _raise_first(checks: list, pending=None) -> None:
    """Raise the exception of the first map that fails a check, taking the
    checks at that map in list order; then ``pending``, if any."""
    masks = np.array([mask for mask, _ in checks])
    failing = np.flatnonzero(masks.any(axis=0))
    if failing.size:
        t = int(failing[0])
        raise checks[int(np.argmax(masks[:, t]))][1](t)
    if pending is not None:
        raise pending


def _gap_clusters(h: HamiltonianSpec) -> list:
    """Ordered level pairs ``(m, n)`` with ``E_n >= E_m``, grouped by their gap
    (within ``1e-9 * max|E|``) into ``(energy, pairs)`` clusters of ascending
    energy; the zero-gap cluster has energy exactly 0."""
    e = h.eigenvalues
    atol = GAP_GROUP_RTOL * float(np.max(np.abs(e))) if e.size else 0.0
    forward = []
    for m in range(h.dim):
        for n in range(h.dim):
            gap = float(e[n] - e[m])
            if gap >= -atol:
                forward.append((max(gap, 0.0), m, n))
    forward.sort(key=lambda item: item[0])
    clusters = []
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
        clusters.append((energy, [(m, n) for _, m, n in cluster]))
        idx = jdx + 1
    return clusters


@dataclass(frozen=True)
class ExchangeGrid:
    """Energy-exchange statistics of one map per time of ``taus``.

    Row ``t`` of ``p_plus`` and ``p_minus`` belongs to ``taus[t]`` and column
    ``c`` to the Bohr gap ``energies[c]``; ``recorded`` marks the gap records
    of the distribution at each time, those with a probability of at least
    ``PROBABILITY_FLOOR`` on either side.
    """

    taus: tuple
    energies: tuple
    p_plus: np.ndarray
    p_minus: np.ndarray
    recorded: np.ndarray
    beta_i: float
    beta_f: float

    def ratios(self) -> tuple:
        """``P(+E)/P(-E)`` of the records whose release probability exceeds
        ``RATIO_FLOOR``, against the prediction ``e^{(beta_i - beta_f) E}``,
        as ``(defined, ratio, predicted, deviation)``: ``defined[t, c]`` marks
        the records that have a ratio, and ``predicted`` holds one value per
        gap, computed only for the gaps that have a ratio."""
        defined = self.recorded & ~(self.p_minus <= RATIO_FLOOR)
        dbeta = self.beta_i - self.beta_f
        predicted = np.array(
            [_exp(dbeta * energy) if defined[:, c].any() else math.nan for c, energy in enumerate(self.energies)]
        )
        with np.errstate(all="ignore"):
            ratio = self.p_plus / self.p_minus
            deviation = np.abs(ratio / predicted - 1.0)
        return defined, ratio, predicted, deviation


def _exp(x: float) -> float:
    """``math.exp``, with an overflow read as ``inf``."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exchange_grid(maps, h: HamiltonianSpec, beta_i: float, beta_f: float, taus) -> ExchangeGrid:
    """Energy-exchange statistics of every map of ``maps`` (``maps[t]`` taken
    at ``taus[t]``) applied to the ``beta_i`` thermal state.

    Ordered level pairs are grouped by their gap ``E_n - E_m`` (within
    ``1e-9 * max|E|``); degenerate gaps accumulate into one record.  For a
    gap ``E >= 0``, ``p_plus`` weights forward transitions by initial
    populations and ``p_minus`` the reversed ones.  The first map that fails
    a check raises, with the checks at that map in this order: the
    transition checks of :func:`transition_matrix`, the Gibbs state, then
    the records, which must sum to 1 and lie in [0, 1].
    """
    if beta_i < 0:
        raise ValueError("beta_i must be nonnegative")
    probs, checks, pending = _transition_stack(maps, h)
    # the first map's transition checks come before the Gibbs state
    if not len(probs) or any(mask[0] for mask, _ in checks):
        _raise_first(checks, pending)
    p_init = populations(gibbs(h, beta_i), h)
    clusters = _gap_clusters(h)
    energies = tuple(energy for energy, _ in clusters)
    p_plus = np.zeros((len(probs), len(clusters)))
    p_minus = np.zeros_like(p_plus)
    for c, (_, pairs) in enumerate(clusters):
        for m, n in pairs:
            p_plus[:, c] += p_init[m] * probs[:, m, n]
            p_minus[:, c] += p_init[n] * probs[:, n, m]
    # max(p_plus, p_minus) as Python takes it: p_plus unless p_minus is larger
    recorded = np.where(p_minus > p_plus, p_minus, p_plus) >= PROBABILITY_FLOOR
    # summed record by record, in record order
    released = recorded & (np.array(energies) > 0)
    total = sum(np.where(recorded, p_plus, 0.0).T) + sum(np.where(released, p_minus, 0.0).T)

    def outside(p):
        return (p < -1e-12) | (p > 1.0 + 1e-12)

    stray = recorded & (outside(p_plus) | outside(p_minus))

    def stray_error(t):
        c = int(np.argmax(stray[t]))
        p = p_plus[t, c] if outside(p_plus[t, c]) else p_minus[t, c]
        return InternalCheckError(f"probability {p:.12g} outside [0, 1]")

    checks += [
        (
            np.abs(total - 1.0) > 1e-9,
            lambda t: InternalCheckError(f"exchange probabilities sum to {total[t]:.12g}"),
        ),
        (stray.any(axis=1), stray_error),
    ]
    _raise_first(checks, pending)
    return ExchangeGrid(tuple(taus), energies, p_plus, p_minus, recorded, beta_i, beta_f)


def check_pairwise_condition(channel_or_superop, h: HamiltonianSpec, beta_f: float) -> float:
    """Largest defect of ``e^{-b E_m} p(m->n) == e^{-b E_n} p(n->m)``."""
    probs = transition_matrix(channel_or_superop, h)
    e = h.eigenvalues
    worst = 0.0
    for m in range(h.dim):
        for n in range(m + 1, h.dim):
            lhs = math.exp(-beta_f * e[m]) * probs[m, n]
            rhs = math.exp(-beta_f * e[n]) * probs[n, m]
            worst = max(worst, abs(lhs - rhs))
    return worst


def fpt_stationarity_identity(channel_or_superop, h: HamiltonianSpec, beta_f: float) -> float:
    """Largest defect of ``sum_n p_n(beta_f) p(n->m) == p_m(beta_f)``."""
    probs = transition_matrix(channel_or_superop, h)
    p_th = populations(gibbs(h, beta_f), h)
    return float(np.max(np.abs(p_th @ probs - p_th)))


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
