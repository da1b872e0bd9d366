"""Energy-exchange statistics, the forward-forward ratio law, and
thermalization classification.

Results are plain values: ``exchange_grid`` returns the arrays of the
exchange statistics of a stack of level transitions, a map's population
block or a secular semigroup's ``exp(tau W)``, bare probabilities that
``dynamics.maps_of`` judged as it made them, so that it judges its records
by one check, their sum, within the transitions' own row bound
``dynamics.STOCHASTIC_ATOL``; ``ratios`` compares them with the ratio law,
and ``classify`` returns a ``(kind, beta_f, gamma_min)`` tuple per point of
a ``dynamics.Dynamics`` block.  The initial thermal state enters only
through its level populations.  Every generator and map is read in H's
eigenframe, as ``dynamics.maps_of`` hands them on, and so is every state
taken from them.  ``classify`` reads a block of semigroups from their
generators and a block of channel families from their probe maps at
``FIXED_POINT_TAUS``, the one superoperator stack that the caller takes
from ``dynamics.maps_of`` and that the map-level balance check reads too:
each point's last map, at ``TAU_MAX``, against ``vec(sigma) vec(I)^dag``,
with ``sigma`` its image of ``I/d``, and every map against ``sigma``."""

from __future__ import annotations

import math

import numpy as np

from .dynamics import STOCHASTIC_ATOL, Dynamics
from .errors import DimensionMismatch, InconclusiveHorizon, InternalCheckError, NotAState
from .matlin import dag, unvec, vec
from .states import STATE_ATOL, HamiltonianSpec, infer_beta, thermal_populations

# a population: the release probability P(-E) below which a record has no ratio
RATIO_FLOOR = 1e-13
# relative to H's spectral range E_max - E_min, which no shift of the zero of energy moves
GAP_GROUP_RTOL = 1e-9
# a population: below this on both sides, a gap record is roundoff
PROBABILITY_FLOOR = 1e-15


def _gap_clusters(e: np.ndarray) -> tuple:
    """Ordered level pairs ``(m, n)`` with ``E_n >= E_m`` of a stack ``(p,
    d)`` of ascending levels, grouped by their gap (within ``1e-9 (E_max -
    E_min)`` of each level set, which no shift of the zero of energy moves)
    into clusters of ascending energy, as ``(energies,
    pairs)``: the energies ``(p, c)`` of each set's clusters, and a list of
    each cluster's pairs, which every set must share, else
    ``DimensionMismatch``; the zero-gap cluster has energy exactly 0."""
    p, d = e.shape
    atol = GAP_GROUP_RTOL * (e[:, -1] - e[:, 0])
    gaps = (e[:, None, :] - e[:, :, None]).reshape(p, -1)  # gaps[:, m d + n] = E_n - E_m
    # ascending gaps that reach -atol, equal ones in (m, n) order, then nan for the others
    g = np.where(gaps >= -atol[:, None], np.maximum(gaps, 0.0), math.nan)
    order = np.argsort(g, axis=1, kind="stable")
    g = g[np.arange(p)[:, None], order]
    # a cluster runs while its gaps stay within atol of its first, in every level set alike
    counts = (g >= 0).sum(axis=1).tolist()
    n = counts[0]
    rows, columns, starts = order[:, :n].tolist(), g.T.tolist(), [0]
    shared = counts.count(n) == rows.count(rows[0]) == p
    for k in range(1, n):
        new = {x - first > tol for x, first, tol in zip(columns[k], columns[starts[-1]], atol.tolist())}
        shared &= len(new) == 1
        if True in new:
            starts.append(k)
    if not shared:
        raise DimensionMismatch("the level sets differ in their gap clusters")
    bounds = list(zip(starts, starts[1:] + [n]))
    energies = np.zeros((p, len(bounds)))
    for c, (a, b) in enumerate(bounds[1:], 1):
        # the mean of the gaps scaled by 2^-k, exact, so that their sum cannot overflow
        k = (b - a).bit_length()
        energies[:, c] = np.ldexp(np.ldexp(g[:, a:b], -k).sum(axis=1) / (b - a), k)
    return energies, [[divmod(x, d) for x in rows[0][a:b]] for a, b in bounds]


def ratios(energies: np.ndarray, p_plus: np.ndarray, p_minus: np.ndarray, recorded: np.ndarray, dbeta) -> tuple:
    """``P(+E)/P(-E)`` of the records of :func:`exchange_grid` whose release
    probability exceeds ``RATIO_FLOOR``, against the prediction ``e^{dbeta
    E}`` with ``dbeta = beta_i - beta_f``, as ``(defined, ratio, predicted,
    deviation)``: ``defined[..., t, c]`` marks the records that have a ratio,
    and ``predicted`` holds one value per gap (and point of an array
    ``dbeta`` or of stacked ``energies``), computed only for the gaps that
    have a ratio."""
    defined = recorded & (p_minus > RATIO_FLOOR)
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


def exchange_grid(probs: np.ndarray, h: HamiltonianSpec, beta_i) -> tuple:
    """Energy-exchange statistics of maps applied to the thermal state at a
    finite ``beta_i >= 0``, from their level transitions ``probs``, judged
    already, as ``dynamics.maps_of`` gives them, as ``(energies, p_plus,
    p_minus, recorded)``.  It trusts what entered the package before it:
    ``probs`` has h's level count, as ``maps_of`` made it from the same
    block's h, and ``beta_i`` was checked as a setting, a swept one too.

    Ordered level pairs are grouped by their gap ``E_n - E_m`` (within
    ``1e-9 (E_max - E_min)``); degenerate gaps accumulate into one record.
    Row ``t`` of ``p_plus`` and ``p_minus`` belongs to map ``t`` and column
    ``c`` to the gap ``energies[..., c] >= 0``: ``p_plus`` weights forward
    transitions by the thermal populations and ``p_minus`` the reversed
    ones, and ``recorded`` marks the records with a probability of at least
    ``PROBABILITY_FLOOR`` on either side.  Points lead every shape: stacks
    ``(p, t, d, d)`` of transitions, h's eigenvalues stacked ``(p, d)`` and
    an array ``beta_i`` broadcast together, so that transitions shared by
    every point are given once.  The points' levels must share their gap
    clusters' pairs, else ``DimensionMismatch``.
    The records of every ordered level pair, all of ``p_plus`` and the
    positive gaps' ``p_minus``, recorded or not, must sum to 1 within
    ``STOCHASTIC_ATOL``, the transitions' own row bound, else the first
    point, and in it the first map, that fails raises; a record needs no
    check of its own, as every transition is at least ``-1e-12``.
    """
    p_init = thermal_populations(h, beta_i)[..., None, :]  # [..., t, m]
    e = h.eigenvalues
    energies, clusters = _gap_clusters(e.reshape(-1, h.dim))
    energies = energies.reshape(e.shape[:-1] + (-1,))
    p_plus = np.zeros(np.broadcast_shapes(p_init.shape[:-1], probs.shape[:-2]) + (len(clusters),))
    p_minus = np.zeros_like(p_plus)
    for c, pairs in enumerate(clusters):
        for m, n in pairs:
            p_plus[..., c] += p_init[..., m] * probs[..., m, n]
            p_minus[..., c] += p_init[..., n] * probs[..., n, m]
    # every ordered level pair once: all of p_plus, and p_minus past the zero-gap cluster 0
    total = p_plus.sum(axis=-1) + p_minus[..., 1:].sum(axis=-1)
    for x in total[np.abs(total - 1.0) > STOCHASTIC_ATOL][:1]:
        raise InternalCheckError(f"exchange probabilities sum to {x:.12g}")
    recorded = np.maximum(p_plus, p_minus) >= PROBABILITY_FLOOR
    return energies, p_plus, p_minus, recorded


# absolute, in the generator's rate units, where |L|_1 would be its scale: a gap slower than it reads as a second zero
ZERO_EIG_ATOL = 1e-10
# absolute, because a map's eigenvalues lie in the unit disk whatever its rates
UNIT_EIG_ATOL = 1e-8
# a trace-norm distance between states, absolute, because states have trace norm 1
CONVERGENCE_ATOL = 1e-7
# a trace-norm drift of the fixed point, absolute, not relative to the fixed point's populations, so the drift of
# a population e^{-beta_f E} far below it does not count
FIXED_POINT_ATOL = 1e-8
# the probing horizon of a channel family, in the family's own time units: absolute, because a family has no
# generator whose gap would set its relaxation time
TAU_MAX = 100.0
FIXED_POINT_TAUS = tuple(np.geomspace(0.01, TAU_MAX, 9).tolist())


def classify(block: Dynamics, probes: np.ndarray) -> list:
    """Classify each point of ``block``, in order, as fixed-point
    thermalizing, thermalizing, or neither, as ``(kind, beta_f,
    gamma_min)``, from the block's stacked Hamiltonian and ``probes``, in
    H's eigenframe: the semigroups' generators ``(k, d^2, d^2)``, or each
    point's maps at its probe times as one superoperator stack ``(k, t,
    d^2, d^2)``, a channel family's at ``FIXED_POINT_TAUS``, which end at
    ``TAU_MAX``, a single map's at its own ``tau``.  The semigroups
    share one batched eigendecomposition of their generators, the single maps
    one of their maps, and the channel families one pass over their maps;
    every kind then takes its fixed points' inverse temperatures in one pass.

    ``kind`` is ``"fpt"``, ``"thermalizing"`` or ``"non_thermalizing"``, or
    ``"single_map"`` for one Kraus map, which is probed only for a thermal
    fixed point; ``beta_f`` is the fixed point's inverse temperature and
    ``gamma_min`` a semigroup's spectral gap, each None when it does not
    exist.

    A semigroup is classified spectrally: a unique zero eigenvalue with
    every other eigenvalue strictly damped, plus a thermal stationary state.
    A single map is classified ``single_map``, with ``beta_f`` set when the
    eigenvalue 1 is simple and its eigenvector a thermal state, and none
    when that eigenvector is no state, which roundoff alone can make it; a
    semigroup's or a family's fixed point that is no state raises
    ``NotAState``.  A channel family must have converged at ``TAU_MAX`` to
    its asymptotic map ``vec(sigma) vec(I)^dag``, with ``sigma`` its image
    of ``I/d``, or ``InconclusiveHorizon`` is raised; it is ``fpt`` when
    ``sigma`` is thermal and, in trace norm, a fixed point at
    ``FIXED_POINT_TAUS``.
    """
    h, k, semigroups = block.h, len(probes), block.generator is not None
    d, gaps = h.dim, [None] * k
    if not semigroups and block.tau is None:
        vec_eye = vec(np.eye(d))
        last = probes[:, -1]  # the map at TAU_MAX, the last of FIXED_POINT_TAUS
        fixed = last @ (vec_eye / d)
        # The map sends a state rho to fixed + delta vec(rho), and
        # |delta vec(rho)|_1 <= sqrt(d) |delta vec(rho)|_2 <= sqrt(d) |delta|_2.
        spreads = math.sqrt(d) * np.linalg.svd(last - fixed[:, :, None] * vec_eye, compute_uv=False).max(axis=1)
        for spread in spreads[spreads > CONVERGENCE_ATOL][:1]:
            raise InconclusiveHorizon(
                f"the map at tau={TAU_MAX:g} sends states up to {spread:.3e} in trace norm from its image of I/d"
            )
        # the singular values of unvec(x) are those of its transpose x.reshape(d, d)
        moved = (probes @ fixed[:, None, :, None] - fixed[:, None, :, None]).reshape(k, -1, d, d)
        drifts = np.linalg.svd(moved, compute_uv=False).sum(axis=2).max(axis=1)
        kinds, picked = ["fpt" if x < FIXED_POINT_ATOL else "thermalizing" for x in drifts.tolist()], np.ones(k, bool)
    else:
        eigs, vecs = np.linalg.eig(probes if semigroups else probes[:, 0])
        # a simple eigenvalue 0 of a generator, or 1 of a map, and its eigenvector
        near = np.abs(eigs - (0.0 if semigroups else 1.0)) < (ZERO_EIG_ATOL if semigroups else UNIT_EIG_ATOL)
        picked = near.sum(axis=1) == 1
        fixed = vecs[np.arange(k), :, near.argmax(axis=1)]
        kinds = ["fpt" if semigroups else "single_map"] * k
        if semigroups:  # every other eigenvalue strictly damped; the gap is the slowest rate
            top = np.where(near, -math.inf, eigs.real).max(axis=1)
            picked &= ~(top >= -ZERO_EIG_ATOL)
            gaps = [-g if ok and g > -math.inf else None for ok, g in zip(picked, top.tolist())]
    # the fixed points as Hermitian unit-trace states; one that is not picked is left unscaled, its beta dropped
    mat = unvec(fixed, d, d)
    mat = (mat + dag(mat)) / 2
    tr = mat.trace(axis1=1, axis2=2).real
    # a trace, absolute: a unit-norm eigenvector's is at most sqrt(d), and the image of I/d's is 1
    picked &= ~(np.abs(tr) < 1e-12)
    betas, low = infer_beta(mat / np.where(picked, tr, 1.0)[:, None, None], h)
    if kinds[0] != "single_map":  # a single map's fixed point that is no state only has no beta
        for x in low[picked & (low < -STATE_ATOL)][:1]:
            raise NotAState(f"state has negative eigenvalue {x:.3e}")
    # Semigroups with a spectral gap converge to their unique stationary
    # state, which is then a fixed point at every time.
    return [(kind, b, g) if ok and b == b else (kind if kind == "single_map" else "non_thermalizing", None, g)
            for kind, b, g, ok in zip(kinds, betas.tolist(), gaps, picked)]
