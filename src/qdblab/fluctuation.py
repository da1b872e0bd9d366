"""Level transition probabilities, energy-exchange statistics, the
forward-forward ratio law, and thermalization classification.

Results are plain values: ``exchange_grid`` returns the arrays of a map
stack's exchange statistics, which ``ratios`` compares with the ratio law,
and ``classify`` a ``(kind, beta_f, gamma_min)`` tuple per source.  The
initial thermal state enters only through its level populations.  ``classify``
reads a channel family from its probe maps, a superoperator stack that the
caller takes with the rest of its maps: its map at ``TAU_MAX`` against
``vec(sigma) vec(I)^dag``, with ``sigma`` its image of ``I/d``, and every
map against ``sigma``."""

from __future__ import annotations

import math

import numpy as np

from .dynamics import require_superop_dim
from .errors import (
    InconclusiveHorizon,
    InternalCheckError,
    NotAState,
    NotThermal,
    NotTracePreserving,
    ZeroPopulation,
)
from .matlin import dag, unvec, vec
from .states import HamiltonianSpec, infer_beta, thermal_populations

RATIO_FLOOR = 1e-13
GAP_GROUP_RTOL = 1e-9
ROUTE_AGREEMENT_ATOL = 1e-10
STOCHASTIC_ATOL = 1e-9
PROBABILITY_FLOOR = 1e-15  # below this both-sided, a gap record is roundoff


def _transition_stack(superops: np.ndarray, kraus, h: HamiltonianSpec):
    """Transition probabilities ``probs[..., t, m, n] = <n| Map_t[|m><m|]
    |n>`` in h's eigenbasis of the stacks of :func:`maps_of`, or of
    stacks ``(p, t, ...)`` of them with h's eigenvectors stacked ``(p, d,
    d)``, with their checks as ``(mask, error)`` pairs over ``(..., t)`` in
    the order one map is checked: the Kraus and superoperator routes agree,
    and each row is a probability vector."""
    d = h.dim
    v = h.eigenvectors[..., None, :, :]  # one eigenframe for every map
    # column m of q is vec(|m><m|), so (q^dag S q)[n, m] = <n| S[|m><m|] |n>
    q = (v.conj()[..., :, None, :] * v[..., None, :, :]).reshape(v.shape[:-2] + (d * d, d))
    with np.errstate(invalid="ignore"):  # inf entries give nan, which the checks judge
        probs = np.real(q.conj().swapaxes(-1, -2) @ superops @ q).swapaxes(-1, -2)
    route_gap = np.zeros(probs.shape[:-2])
    if kraus is not None:
        v = v[..., None, :, :]  # and for every Kraus operator
        kraus_probs = (np.abs(v.conj().swapaxes(-1, -2) @ kraus @ v) ** 2).sum(axis=-3).swapaxes(-1, -2)
        route_gap = np.abs(kraus_probs - probs).max(axis=(-2, -1))
    low = probs.min(axis=(-2, -1))
    rows = np.abs(probs.sum(axis=-1) - 1.0).max(axis=-1)
    checks = [
        (
            route_gap > ROUTE_AGREEMENT_ATOL,
            lambda *i: InternalCheckError(f"Kraus and superoperator transition routes disagree by {route_gap[i]:.3e}"),
        ),
        (low < -1e-12, lambda *i: NotTracePreserving(f"negative transition probability {low[i]:.3e}")),
        (
            rows > STOCHASTIC_ATOL,
            lambda *i: NotTracePreserving(f"transition rows sum to 1 only within {rows[i]:.3e}"),
        ),
    ]
    return probs, checks


def _raise_first(checks: list) -> None:
    """Raise the exception of the first map that fails a check, taking the
    checks at that map in list order.  The masks broadcast over ``(...,
    t)``, and ``error(*i)`` gets the map's index ``i`` in its own mask."""
    if any(mask.any() for mask, _ in checks):
        masks = np.array(np.broadcast_arrays(*(mask for mask, _ in checks)))
        i = np.argwhere(masks.any(axis=0))[0]
        mask, error = checks[int(np.argmax(masks[(slice(None), *i)]))]
        # a mask's axes of length 1 broadcast, so their index is 0
        raise error(*np.minimum(i[i.size - mask.ndim :], np.array(mask.shape) - 1))


def _gap_clusters(e: np.ndarray) -> tuple:
    """Ordered level pairs ``(m, n)`` with ``E_n >= E_m`` of the ascending
    levels ``e``, grouped by their gap (within ``1e-9 * max|E|``) into
    clusters of ascending energy, as ``(energies, pairs)``, a list of each;
    the zero-gap cluster has energy exactly 0."""
    d = len(e)
    atol = GAP_GROUP_RTOL * float(np.max(np.abs(e))) if e.size else 0.0
    # ascending gaps, equal ones in (m, n) order; a cluster runs while its gaps stay within atol of its first
    gaps = ((float(e[n] - e[m]), m, n) for m in range(d) for n in range(d))
    groups = []
    for item in sorted((max(gap, 0.0), m, n) for gap, m, n in gaps if gap >= -atol):
        if groups and item[0] - groups[-1][0][0] <= atol:
            groups[-1].append(item)
        else:
            groups.append([item])
    energies = []
    for group in groups:
        # the mean of the gaps scaled by 2^-k, exact, so that their sum cannot overflow
        k = len(group).bit_length()
        scaled = [g for g, _, _ in group]
        energies.append(0.0 if group[0][0] <= atol else float(np.ldexp(np.mean(np.ldexp(scaled, -k)), k)))
    return energies, [[(m, n) for _, m, n in group] for group in groups]


def ratios(energies: np.ndarray, p_plus: np.ndarray, p_minus: np.ndarray, recorded: np.ndarray, dbeta) -> tuple:
    """``P(+E)/P(-E)`` of the records of :func:`exchange_grid` whose release
    probability exceeds ``RATIO_FLOOR``, against the prediction ``e^{dbeta
    E}`` with ``dbeta = beta_i - beta_f``, as ``(defined, ratio, predicted,
    deviation)``: ``defined[..., t, c]`` marks the records that have a ratio,
    and ``predicted`` holds one value per gap (and point of an array
    ``dbeta`` or of stacked ``energies``), computed only for the gaps that
    have a ratio."""
    defined = recorded & ~(p_minus <= RATIO_FLOOR)
    predicted = np.full(defined.shape[:-2] + defined.shape[-1:], math.nan)
    energies, dbeta = np.broadcast_arrays(energies, np.asarray(dbeta, dtype=float)[..., None])
    for i in zip(*np.nonzero(defined.any(axis=-2))):
        predicted[i] = _exp(dbeta[i] * energies[i])
    with np.errstate(all="ignore"):
        ratio = p_plus / p_minus
        deviation = np.abs(ratio / predicted[..., None, :] - 1.0)
    return defined, ratio, predicted, deviation


def _exp(x: float) -> float:
    """``math.exp``, with an overflow read as ``inf``."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exchange_grid(maps, h: HamiltonianSpec, beta_i) -> tuple:
    """Energy-exchange statistics of the maps ``(superops, kraus)`` of
    :func:`maps_of` applied to the thermal state at a finite ``beta_i
    >= 0``, as ``(energies, p_plus, p_minus, recorded)``.

    Ordered level pairs are grouped by their gap ``E_n - E_m`` (within
    ``1e-9 * max|E|``); degenerate gaps accumulate into one record.  Row
    ``t`` of ``p_plus`` and ``p_minus`` belongs to map ``t`` and column
    ``c`` to the gap ``energies[..., c] >= 0``: ``p_plus`` weights forward
    transitions by the thermal populations and ``p_minus`` the reversed
    ones, and ``recorded`` marks the records with a probability of at least
    ``PROBABILITY_FLOOR`` on either side.  Points lead every shape: stacks
    ``(p, t, ...)`` of maps, h's eigenvalues and eigenvectors stacked ``(p,
    d)`` and ``(p, d, d)`` and an array ``beta_i`` broadcast together, so
    that maps shared by every point are given, and judged, once.  The points'
    levels must share their gap clusters' pairs, else ``ValueError``.  The
    first point, and in it the first map, that fails a check raises, with
    the checks at that map in this order: the transition checks of
    :func:`_transition_stack`, then the records, which must sum to 1 and lie
    in [0, 1].
    """
    beta_i = np.asarray(beta_i, dtype=float)
    if not np.all((0 <= beta_i) & (beta_i < math.inf)):
        raise ValueError("beta_i must be finite and nonnegative")
    superops, kraus = maps
    probs, checks = _transition_stack(require_superop_dim(superops, h), kraus, h)
    p_init = thermal_populations(h, beta_i)[..., None, :]  # [..., t, m]
    e = h.eigenvalues
    energies, clusters = zip(*map(_gap_clusters, e.reshape(-1, h.dim)))  # per level set
    if clusters.count(clusters[0]) < len(clusters):
        raise ValueError("the level sets differ in their gap clusters")
    energies, clusters = np.reshape(energies, e.shape[:-1] + (-1,)), clusters[0]
    p_plus = np.zeros(np.broadcast_shapes(p_init.shape[:-1], probs.shape[:-2]) + (len(clusters),))
    p_minus = np.zeros_like(p_plus)
    for c, pairs in enumerate(clusters):
        for m, n in pairs:
            p_plus[..., c] += p_init[..., m] * probs[..., m, n]
            p_minus[..., c] += p_init[..., n] * probs[..., n, m]
    # max(p_plus, p_minus) as Python takes it: p_plus unless p_minus is larger
    recorded = np.where(p_minus > p_plus, p_minus, p_plus) >= PROBABILITY_FLOOR
    # summed record by record, in record order
    released = recorded & (energies[..., None, :] > 0)
    total = (sum(np.where(recorded, p_plus, 0.0).T) + sum(np.where(released, p_minus, 0.0).T)).T

    def outside(p):
        return (p < -1e-12) | (p > 1.0 + 1e-12)

    stray = recorded & (outside(p_plus) | outside(p_minus))

    def stray_error(*i):
        c = int(np.argmax(stray[i]))
        p = p_plus[(*i, c)] if outside(p_plus[(*i, c)]) else p_minus[(*i, c)]
        return InternalCheckError(f"probability {p:.12g} outside [0, 1]")

    checks += [
        (
            np.abs(total - 1.0) > 1e-9,
            lambda *i: InternalCheckError(f"exchange probabilities sum to {total[i]:.12g}"),
        ),
        (stray.any(axis=-1), stray_error),
    ]
    _raise_first(checks)
    return energies, p_plus, p_minus, recorded


ZERO_EIG_ATOL = 1e-10
UNIT_EIG_ATOL = 1e-8
CONVERGENCE_ATOL = 1e-7
FIXED_POINT_ATOL = 1e-8
TAU_MAX = 100.0  # probing horizon of a channel family
FIXED_POINT_TAUS = tuple(np.geomspace(0.01, TAU_MAX, 9))


def _fixed_beta(col: np.ndarray, h: HamiltonianSpec):
    """Inverse temperature of a fixed-point eigenvector.

    Returns ``None`` when the eigenvector is traceless or its state is not
    thermal; an eigenvector that is no state raises ``NotAState``.
    """
    mat = unvec(col, h.dim, h.dim)
    mat = (mat + dag(mat)) / 2
    tr = float(np.real(np.trace(mat)))
    if abs(tr) < 1e-12:
        return None
    try:
        return infer_beta(mat / tr, h)
    except (NotThermal, ZeroPopulation):
        return None


def _simple_eigenvector(eigs: np.ndarray, vecs: np.ndarray, value: float, atol: float) -> tuple:
    """The eigenvalues other than ``value`` (within ``atol``) and the
    eigenvector column of ``value``, None unless that eigenvalue is simple."""
    near = np.abs(eigs - value) < atol
    col = vecs[:, int(np.argmax(near))] if int(np.sum(near)) == 1 else None
    return eigs[~near], col


def _classify_semigroup(eigs: np.ndarray, vecs: np.ndarray, h: HamiltonianSpec) -> tuple:
    rest, col = _simple_eigenvector(eigs, vecs, 0.0, ZERO_EIG_ATOL)
    if col is None or (rest.size and float(np.max(np.real(rest))) >= -ZERO_EIG_ATOL):
        return "non_thermalizing", None, None
    gamma_min = float(np.min(-np.real(rest))) if rest.size else None
    beta = _fixed_beta(col, h)
    # Semigroups with a spectral gap converge to their unique stationary
    # state, which is then a fixed point at every time.
    return "non_thermalizing" if beta is None else "fpt", beta, gamma_min


def _classify_single_map(eigs: np.ndarray, vecs: np.ndarray, h: HamiltonianSpec) -> tuple:
    # only the map's eigenvalue 1 is probed for a thermal fixed point
    _, col = _simple_eigenvector(eigs, vecs, 1.0, UNIT_EIG_ATOL)
    try:
        return "single_map", None if col is None else _fixed_beta(col, h), None
    except NotAState:
        return "single_map", None, None


def _classify_families(superops: np.ndarray, families: list):
    """The kinds of channel families, yielded in order, from their maps
    ``superops`` ``(k, t, d^2, d^2)`` at ``TAU_MAX`` and ``FIXED_POINT_TAUS``,
    with one SVD over the families for the 2-norms and one over (family, t)
    for the drifts; a failing family raises when its turn comes."""
    d = families[0].h.dim
    vec_eye = vec(np.eye(d))
    sigma = superops[:, 0] @ (vec_eye / d)
    # The map sends a state rho to sigma + delta vec(rho), and
    # |delta vec(rho)|_1 <= sqrt(d) |delta vec(rho)|_2 <= sqrt(d) |delta|_2.
    spreads = math.sqrt(d) * np.linalg.svd(superops[:, 0] - sigma[:, :, None] * vec_eye, compute_uv=False).max(axis=1)
    # the singular values of unvec(x) are those of its transpose x.reshape(d, d)
    moved = (superops[:, 1:] @ sigma[:, None, :, None] - sigma[:, None, :, None]).reshape(len(families), -1, d, d)
    drifts = np.linalg.svd(moved, compute_uv=False).sum(axis=2).max(axis=1)
    for spread, image, drift, source in zip(spreads, sigma, drifts, families):
        if spread > CONVERGENCE_ATOL:
            raise InconclusiveHorizon(
                f"the map at tau={TAU_MAX:g} sends states up to {spread:.3e} in trace norm"
                " from its image of I/d"
            )
        beta = _fixed_beta(image, source.h)
        yield ("non_thermalizing", None, None) if beta is None else (
            "fpt" if drift < FIXED_POINT_ATOL else "thermalizing", beta, None)


def classify(sources: list, probes: np.ndarray) -> list:
    """Classify each dynamics of ``sources``, of one kind and dimension, in
    order, as fixed-point thermalizing, thermalizing, or neither, as ``(kind,
    beta_f, gamma_min)``, from ``probes``, each source's maps at its probe
    times as one superoperator stack ``(k, t, d^2, d^2)``: a channel family's
    at ``TAU_MAX`` and then ``FIXED_POINT_TAUS``, a single map's at its own
    ``tau``; a semigroup has none.  The semigroups share one batched
    eigendecomposition of their generators, the single maps one of their
    maps, and the channel families one pass over their maps.

    ``kind`` is ``"fpt"``, ``"thermalizing"`` or ``"non_thermalizing"``, or
    ``"single_map"`` for one Kraus map, which is probed only for a thermal
    fixed point; ``beta_f`` is the fixed point's inverse temperature and
    ``gamma_min`` a semigroup's spectral gap, each None when it does not
    exist.

    A semigroup is classified spectrally: a unique zero eigenvalue with
    every other eigenvalue strictly damped, plus a thermal stationary state.
    A single map is classified ``single_map``, with ``beta_f`` set when the
    eigenvalue 1 is simple and its eigenvector a thermal state.  A channel
    family must have converged at ``TAU_MAX`` to its asymptotic map
    ``vec(sigma) vec(I)^dag``, with ``sigma`` its image of ``I/d``, or
    ``InconclusiveHorizon`` is raised; it is ``fpt`` when ``sigma`` is
    thermal and, in trace norm, a fixed point at ``FIXED_POINT_TAUS``.
    """
    semigroups = sources[0].generator is not None
    if not semigroups and sources[0].tau is None:
        return list(_classify_families(probes, sources))
    spectra = np.linalg.eig(np.array([s.generator for s in sources]) if semigroups else probes[:, 0])
    classify_one = _classify_semigroup if semigroups else _classify_single_map
    return [classify_one(eigs, vecs, s.h) for eigs, vecs, s in zip(*spectra, sources)]
