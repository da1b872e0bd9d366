import json
import math
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest

from qdblab import matlin
from qdblab.balance import check_qdb2
from qdblab.dynamics import (
    ROUTE_AGREEMENT_ATOL,
    _PAULI_STACK,
    Dynamics,
    LindbladGenerator,
    _frame_units,
    _judged,
    _kraus_stacks,
    _kraus_superops,
    choi_matrix,
    gkls_defects,
    maps_of,
    require_superop_dim,
)
from qdblab.examples import (
    LOWERING,
    ExampleAParams,
    ExampleBParams,
    ExampleCParams,
    RAISING,
    _require_rates,
    example_a_channel,
    example_a_f_factor,
    qubit_hamiltonian,
)
from qdblab.errors import DimensionMismatch, InconclusiveHorizon, InternalCheckError, NotAState
from qdblab.errors import NotCPTP, NotTracePreserving, QdblabError
from qdblab.matlin import dag, kron, unvec, vec
from qdblab.fluctuation import (
    CONVERGENCE_ATOL,
    FIXED_POINT_ATOL,
    FIXED_POINT_TAUS,
    GAP_GROUP_RTOL,
    TAU_MAX,
    UNIT_EIG_ATOL,
    ZERO_EIG_ATOL,
    classify,
    exchange_grid,
    ratios,
)
from qdblab.report import QDB2_TAUS
from qdblab.states import (
    BETA_AGREE_RTOL,
    DEGENERACY_ATOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    STATE_ATOL,
    THERMAL_OFFDIAG_ATOL,
    HamiltonianSpec,
    thermal_populations,
)

SEED = int(os.environ.get("QDBLAB_SEED", "20260810"))
# the GKLS tolerance of direct maps_of calls: the command line's --tol-cptp default
TOL_CPTP = 1e-9


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d, scale=1.0):
    a = random_complex(rng, d)
    return scale * (a + a.conj().T) / 2


def random_density(rng, d) -> np.ndarray:
    a = random_complex(rng, d)
    m = a @ a.conj().T
    return m / np.trace(m)


def eigenframe(x, h: HamiltonianSpec) -> np.ndarray:
    """``x``, an operator ``(..., d, d)`` or superoperator ``(..., d^2,
    d^2)`` matrix or stack in the basis of H's matrix, in H's eigenframe,
    where the package's stages read it: ``V^dag X V``, or ``Q^dag S Q`` with
    ``Q = np.kron(conj(V), V)`` of each point; h's leading axes lead
    ``x``'s.  The one place the tests take the frame, for the inputs of the
    stages and the outputs of original-frame oracles."""
    x, v, d = np.asarray(x, dtype=complex), h.eigenvectors, h.dim
    if x.shape[-1] != d:
        v = np.array([np.kron(w.conj(), w) for w in v.reshape(-1, d, d)]).reshape(v.shape[:-2] + (d * d, d * d))
    v = v.reshape(v.shape[:-2] + (1,) * (x.ndim - v.ndim) + v.shape[-2:])
    return dag(v) @ x @ v


def level_projector(h: HamiltonianSpec, m: int) -> np.ndarray:
    """Eigenprojector of h's m-th (ascending) level."""
    return np.outer(h.eigenvectors[:, m], h.eigenvectors[:, m].conj())


def gibbs(h: HamiltonianSpec, beta: float) -> np.ndarray:
    """The thermal state ``V diag(p) V^dag`` of h's eigenvectors ``V`` and
    thermal populations ``p``."""
    v = h.eigenvectors
    return (v * thermal_populations(h, beta)) @ dag(v)


def random_hamiltonian(rng, d, spread=2.0) -> HamiltonianSpec:
    """Nondegenerate spectrum with bounded spread, random eigenbasis."""
    while True:
        energies = np.sort(rng.uniform(0.0, spread, size=d))
        if d == 1 or np.min(np.diff(energies)) > 0.15 * spread / d:
            break
    q, _ = np.linalg.qr(random_complex(rng, d))
    return HamiltonianSpec.from_matrix((q * energies) @ q.conj().T)


def random_lindblad(rng, d, rate=1.0) -> LindbladGenerator:
    """Generic generator: random Hamiltonian, random PSD Kossakowski matrix."""
    h = random_hamiltonian(rng, d)
    n = d * d - 1
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = rate * (a @ a.conj().T) / n
    return LindbladGenerator.canonical(h, c)


def davies_generator(rng, dim: int, circulating: bool) -> LindbladGenerator:
    """A Davies-type level-jump generator at beta = 1, in detailed balance,
    or with a cyclic current around its levels that keeps the Gibbs state
    stationary and breaks the balance (as the benchmark's fixtures)."""
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 1.2, dim - 1))])
    pops = np.exp(-(energies - energies[0]))
    pops /= pops.sum()
    rates = np.zeros((dim, dim))  # rates[m, n] is the rate of m -> n
    for m in range(dim):
        for n in range(m + 1, dim):
            rates[n, m] = rng.uniform(0.2, 1.0)
            rates[m, n] = rates[n, m] * math.exp(-(energies[n] - energies[m]))
    if circulating:
        for level in range(dim):
            rates[level, (level + 1) % dim] += 0.3 * pops.min() / pops[level]
    jumps = [math.sqrt(rates[m, n]) * np.eye(dim)[:, [n]] @ np.eye(dim)[[m]] for m in range(dim) for n in range(dim)
             if rates[m, n] > 0]
    h = HamiltonianSpec.from_matrix(np.diag(energies).astype(complex))
    return LindbladGenerator.from_jump_operators(h, jumps)


def davies_source(rng, dim: int, circulating: bool) -> Dynamics:
    """The semigroup of :func:`davies_generator`."""
    gen = davies_generator(rng, dim, circulating)
    return Dynamics.semigroup(gen.hamiltonian, gen)


def level_unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def thermal_circulation_qutrit(rng, beta_f, circulation=0.4):
    """Thermalizing qutrit semigroup whose stationary state is thermal but
    whose level currents carry a cyclic flow, breaking pairwise balance at
    finite times while keeping the asymptotic ratio law."""
    while True:
        energies = np.sort(rng.uniform(0.0, 1.5, size=3))
        if np.min(np.diff(energies)) > 0.2:
            break
    h = HamiltonianSpec.from_matrix(np.diag(energies).astype(complex))
    p = np.exp(-beta_f * energies)
    p /= p.sum()
    w = rng.uniform(0.5, 1.0, size=(3, 3))
    w = (w + w.T) / 2
    k = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                k[i, j] = w[i, j] / p[j]
    # cyclic current 0 -> 1 -> 2 -> 0 keeps p stationary, breaks balance
    k[1, 0] += circulation / p[0]
    k[2, 1] += circulation / p[1]
    k[0, 2] += circulation / p[2]
    jumps = [
        np.sqrt(k[i, j]) * level_unit(3, i, j)
        for i in range(3)
        for j in range(3)
        if i != j
    ]
    return LindbladGenerator.from_jump_operators(h, jumps), h


def inverted_qubit():
    """A balanced qubit whose upward rate (2) exceeds its downward rate (1):
    its fixed point has inverted populations, beta_f = -ln 2 at omega = 1.
    Returns the generator and beta_f."""
    h = HamiltonianSpec.from_matrix(np.diag([-0.5, 0.5]).astype(complex))
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |ground><excited|
    return LindbladGenerator.from_jump_operators(h, [lower, np.sqrt(2) * lower.T]), -np.log(2.0)


def commutator_superop(h_matrix: np.ndarray) -> np.ndarray:
    """Matrix of ``X -> [H, X]``, or the stack of those of a stack of H."""
    h = np.asarray(h_matrix, dtype=complex)
    eye = np.eye(h.shape[-1], dtype=complex)
    return kron(eye, h) - kron(h.swapaxes(-1, -2), eye)


def reference_lindblad_superop(gen: LindbladGenerator) -> np.ndarray:
    """Schroedinger-picture generator matrix.

    Implements ``-i[H, .] + sum_kl C_kl (F_k . F_l^dag - {F_l^dag F_k, .}/2)``
    as a double loop over the basis: the literal reference for
    :func:`qdblab.dynamics.lindblad_superop`.
    """
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    m = -1j * commutator_superop(gen.hamiltonian.matrix)
    c = gen.kossakowski
    for k, fk in enumerate(gen.basis):
        for l, fl in enumerate(gen.basis):
            if abs(c[k, l]) == 0.0:
                continue
            fld_fk = dag(fl) @ fk
            m += c[k, l] * (
                kron(fl.conj(), fk)
                - 0.5 * kron(eye, fld_fk)
                - 0.5 * kron(fld_fk.T, eye)
            )
    return m


def dual_superop(gen: LindbladGenerator) -> np.ndarray:
    """Heisenberg-picture generator matrix.

    Implements ``+i[H, .] + sum_kl C_kl (F_l^dag . F_k - {F_l^dag F_k, .}/2)``,
    the trace dual of :func:`qdblab.dynamics.lindblad_superop`.  The balance
    checks take duals with ``qdblab.balance._trace_dual``; this literal
    transcription of the formula is the reference that route is checked
    against.
    """
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    m = 1j * commutator_superop(gen.hamiltonian.matrix)
    c = gen.kossakowski
    for k, fk in enumerate(gen.basis):
        for l, fl in enumerate(gen.basis):
            if abs(c[k, l]) == 0.0:
                continue
            fld_fk = dag(fl) @ fk
            m += c[k, l] * (
                kron(fk.T, dag(fl))
                - 0.5 * kron(eye, fld_fk)
                - 0.5 * kron(fld_fk.T, eye)
            )
    return m


Gap = namedtuple("Gap", "energy p_plus p_minus")
Ratio = namedtuple("Ratio", "energy ratio predicted deviation")


def a_channel(p, tau):
    """Scenario A's Kraus operators ``(4, 2, 2)`` at ``tau``."""
    return example_a_channel(*p.schedules((tau,)))[0]


def a_family(p):
    """Scenario A's channel family ``taus -> (t, 4, 2, 2)`` of the parameters ``p``."""
    return lambda taus: example_a_channel(*p.schedules(taus))


def stack_specs(hs) -> HamiltonianSpec:
    """One spec stacked over the unstacked specs ``hs``."""
    return HamiltonianSpec(*map(np.array, zip(*((h.matrix, h.eigenvalues, h.eigenvectors) for h in hs))))


def block(sources) -> Dynamics:
    """One :class:`qdblab.dynamics.Dynamics` block stacked over the blocks
    ``sources``, of one kind, dimension and Kraus count, their points in
    order, as the package's stages take it."""
    h = stack_specs([point for source in sources for point in source.h])
    if sources[0].generator is not None:
        return Dynamics(h, np.concatenate([source.generator for source in sources]), None, None)
    return Dynamics(h, None, lambda taus: np.concatenate([source.family(taus) for source in sources]), sources[0].tau)


def grid_of(sources, taus) -> list:
    """The level transitions ``probs`` of each point of the blocks
    ``sources`` on the grid ``taus``, from one
    :func:`qdblab.dynamics.maps_of` call over their one block."""
    return list(maps_of(block(sources), (), tuple(taus), TOL_CPTP)[2])


def expm_shapes(monkeypatch) -> list:
    """The shapes of the generator stacks that ``matlin.expm`` receives
    from now on, in call order."""
    shapes, expm = [], matlin.expm

    def recorded(generators, taus):
        shapes.append(np.shape(generators))
        return expm(generators, taus)

    monkeypatch.setattr(matlin, "expm", recorded)
    return shapes


def reference_transition_stack(superops: np.ndarray, kraus, h: HamiltonianSpec) -> np.ndarray:
    """The level transitions ``probs`` of map stacks in the basis of H's
    matrix, the reference for the population route of secular semigroups,
    for the population block that the package reads from eigenframe maps and
    for the two-product Kraus route: ``q^dag S q`` with the columns of q the
    vectors vec(|m><m|), with the Kraus route as one broadcast product
    ``v^dag G v``, which must agree with it.  No other transition check
    runs: the references take valid models only."""
    d = h.dim
    v = h.eigenvectors[..., None, :, :]
    q = (v.conj()[..., :, None, :] * v[..., None, :, :]).reshape(v.shape[:-2] + (d * d, d))
    with np.errstate(invalid="ignore"):
        probs = np.real(q.conj().swapaxes(-1, -2) @ require_superop_dim(superops, h) @ q).swapaxes(-1, -2)
    if kraus is not None:
        v = v[..., None, :, :]
        kraus_probs = (np.abs(v.conj().swapaxes(-1, -2) @ kraus @ v) ** 2).sum(axis=-3).swapaxes(-1, -2)
        assert np.all(np.abs(kraus_probs - probs) <= ROUTE_AGREEMENT_ATOL), "the two routes disagree"
    return probs


def reference_gkls_test(generators: np.ndarray, tol_cptp: float) -> None:
    """The GKLS test that :func:`qdblab.dynamics.maps_of` runs on the
    eigenframe ``generators``: ``NotCPTP`` for the first whose defect is not
    below ``tol_cptp``."""
    cp, tp = gkls_defects(generators)
    for k in np.flatnonzero(~(np.maximum(cp, tp) < tol_cptp))[:1]:
        raise NotCPTP(f"the generator is not of GKLS form: cp={cp[k]:.3e}, tp={tp[k]:.3e} relative to its 1-norm")


def reference_maps_of(block: Dynamics, times: tuple, grid: tuple, tol_cptp: float) -> tuple:
    """:func:`qdblab.dynamics.maps_of` with every point of ``block`` on the
    full route in the basis of H's matrix: a semigroup takes one exponential
    of its ``d^2 x d^2`` generator over the grid and no map times, every
    point's transitions on the grid come from its maps by
    :func:`reference_transition_stack`, and the generators and a family's
    maps are then taken to H's eigenframe by :func:`eigenframe`; the
    eigenframe generators take the GKLS test first."""
    h, n = block.h, len(times)
    if block.generator is None:
        kraus = _kraus_stacks(np.asarray(block.family(times + grid), dtype=complex))
        superops = _kraus_superops(kraus)
        transitions = reference_transition_stack(superops[:, n:], kraus[:, n:], h)
        return None, eigenframe(superops[:, :n], h), transitions
    generators = eigenframe(block.generator, h)
    reference_gkls_test(generators, tol_cptp)
    return generators, None, reference_transition_stack(matlin.expm(block.generator, grid), None, h)


def reference_frame_route(block: Dynamics, times: tuple, grid: tuple, tol_cptp: float) -> tuple:
    """:func:`qdblab.dynamics.maps_of` with every semigroup point of
    ``block`` on the full route in H's eigenframe: one exponential of its
    generator, taken to the frame by :func:`eigenframe`, over the grid, and
    its transitions read from those maps by
    :func:`reference_transition_stack` in the frame's own basis; the
    eigenframe generators take the GKLS test first."""
    h = block.h
    generators = eigenframe(block.generator, h)
    reference_gkls_test(generators, tol_cptp)
    units = HamiltonianSpec(h.matrix, h.eigenvalues, np.broadcast_to(np.eye(h.dim), h.eigenvectors.shape))
    return generators, None, reference_transition_stack(matlin.expm(generators, grid), None, units)


def reference_map_qdb2(block: Dynamics, betas, s_grid, taus=QDB2_TAUS) -> np.ndarray:
    """Map-level qdb2 of each semigroup point of ``block`` at the sampled
    ``taus``: :func:`qdblab.balance.check_qdb2` of the maps ``exp(tau F)``
    of its eigenframe generator F, the point's beta in ``betas``, a row of
    residuals over ``s_grid`` per point.  It is the qdb2 that
    ``report.analyse`` took before it judged a semigroup by the generator
    identity, kept as the oracle the identity's verdict must agree with."""
    generators = maps_of(block, (), (), TOL_CPTP)[0]
    return check_qdb2(block.h, betas, s_grid, matlin.expm(generators, taus))


def superop_stack(g, h):
    """The eigenframe superoperator stack ``(1, d^2, d^2)``, one map deep,
    of Kraus operators ``(j, d, d)`` or a superoperator ``(d^2, d^2)``
    ``g`` in the basis of H's matrix."""
    g = np.asarray(g, dtype=complex)
    if g.ndim == 3:
        return _kraus_superops(eigenframe(_kraus_stacks(g[None]), h))
    return eigenframe(require_superop_dim(g[None], h), h)


def judged_transitions(superops: np.ndarray) -> np.ndarray:
    """The level transitions ``probs[..., t, m, n] = <n| Map_t[|m><m|] |n>``
    of a bare stack ``(..., t, d^2, d^2)`` of eigenframe maps: the gather of
    their population block, judged by :func:`qdblab.dynamics._judged` as
    :func:`qdblab.dynamics.maps_of` judges its own, with no Kraus route to
    compare."""
    units = _frame_units(math.isqrt(superops.shape[-1]))[0]
    probs = superops[..., units, units[:, None]].real
    return _judged(probs, np.isfinite(superops).all(axis=(-2, -1)), np.zeros(probs.shape[:-2]))


def exchange_at(g, h, beta_i):
    """Exchange statistics ``(energies, p_plus, p_minus, recorded)`` of the one map ``g``."""
    return exchange_grid(judged_transitions(superop_stack(g, h)), h, beta_i)


def gap_records(grid, t=0):
    """The gap records of the exchange statistics ``grid`` at map ``t``."""
    energies, p_plus, p_minus, recorded = grid
    return [
        Gap(*record)
        for *record, kept in zip(energies, p_plus[t].tolist(), p_minus[t].tolist(), recorded[t])
        if kept
    ]


def ratio_records(grid, dbeta, t=0):
    """The ratio law ``e^{dbeta E}`` at the records of map ``t`` of the
    exchange statistics ``grid`` that have a ratio."""
    defined, ratio, predicted, deviation = ratios(*grid, dbeta)
    return [
        Ratio(energy, ratio[t, c], predicted[c], deviation[t, c])
        for c, energy in enumerate(grid[0])
        if defined[t, c]
    ]


# ---------------------------------------------------------------------------
# Weighted operator space and time reversal: the paper's definitions,
# written out literally.  ``qdblab.balance`` checks both balance conditions
# in H's eigenbasis; these general forms (any full-rank Sigma, any reversal)
# are the references it is checked against.
#
# The scalar product is ``<<A, B>>_s = Tr[Sigma^(1-s) A^dag Sigma^s B]`` for a
# full-rank reference state Sigma and ``s`` in [0, 1].  In vectorized form it
# is ``vec(A)^dag W vec(B)`` with weight ``W = (Sigma^(1-s)).T (x) Sigma^s``,
# so the adjoint of a superoperator ``O`` is ``W^-1 O^dag W``.

FULL_RANK_FLOOR = 1e-12
REVERSAL_ATOL = 1e-12


class SingularWeight(QdblabError):
    """Reference state is rank deficient; the weighted scalar product degenerates."""


@dataclass(frozen=True)
class WeightedSpace:
    """Operator Hilbert space carrying the Sigma-weighted scalar product."""

    sigma: np.ndarray
    s: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {self.s}")
        w, v = matlin.herm_eig(self.sigma, atol=1e-10)
        if float(np.min(w)) <= FULL_RANK_FLOOR:
            raise SingularWeight(
                f"reference state has eigenvalue {float(np.min(w)):.3e}, not full rank"
            )
        object.__setattr__(self, "_eigvals", w)
        object.__setattr__(self, "_eigvecs", v)

    @property
    def dim(self) -> int:
        return len(self.sigma)

    def sigma_power(self, p: float) -> np.ndarray:
        w, v = self._eigvals, self._eigvecs
        return (v * np.power(w, p)) @ dag(v)

    @cached_property
    def weight(self) -> np.ndarray:
        return kron(self.sigma_power(1.0 - self.s).T, self.sigma_power(self.s))

    @cached_property
    def weight_inv(self) -> np.ndarray:
        return kron(self.sigma_power(-(1.0 - self.s)).T, self.sigma_power(-self.s))


def inner(space: WeightedSpace, a: np.ndarray, b: np.ndarray) -> complex:
    """``Tr[Sigma^(1-s) A^dag Sigma^s B]``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = space.dim
    if a.shape != (d, d) or b.shape != (d, d):
        raise DimensionMismatch(f"operands must be {d}x{d}")
    return complex(np.trace(space.sigma_power(1.0 - space.s) @ dag(a) @ space.sigma_power(space.s) @ b))


def adjoint(space: WeightedSpace, op: np.ndarray) -> np.ndarray:
    """Adjoint ``O*`` with ``<<A, O[B]>> == <<O*[A], B>>``."""
    if op.shape != (space.dim**2,) * 2:
        raise DimensionMismatch(f"superoperator shape {op.shape} does not act on dim {space.dim}")
    return space.weight_inv @ dag(op) @ space.weight


def decompose(space: WeightedSpace, dual_gen: np.ndarray):
    """Split a Heisenberg generator into anti-self-adjoint and self-adjoint
    halves ``(L - L*)/2`` and ``(L + L*)/2``."""
    star = adjoint(space, dual_gen)
    return (dual_gen - star) / 2, (dual_gen + star) / 2


def check_qdb1_invariance(space: WeightedSpace, gen: np.ndarray) -> float:
    """``|L[Sigma]|_F`` of a Schroedinger-picture generator; vanishes
    whenever the generator-level balance holds."""
    return matlin.frobenius(apply_matrix(gen, space.sigma))


@dataclass(frozen=True)
class TimeReversal:
    """Linear map ``A -> U A^T U^dag`` induced by an antiunitary reversal.

    ``U`` is the unitary factor of the antiunitary; ``U conj(U)`` must be a
    phase times the identity so the map is an involution.
    """

    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        object.__setattr__(self, "unitary", u)
        d = u.shape[0]
        if u.ndim != 2 or u.shape != (d, d):
            raise DimensionMismatch("time-reversal unitary must be square")
        if float(np.max(np.abs(u @ dag(u) - np.eye(d)))) > REVERSAL_ATOL:
            raise ValueError("time-reversal operator is not unitary")
        uu = u @ u.conj()
        phase = uu[0, 0]
        if abs(abs(phase) - 1.0) > REVERSAL_ATOL or float(
            np.max(np.abs(uu - phase * np.eye(d)))
        ) > REVERSAL_ATOL:
            raise ValueError("time reversal would not square to the identity map")

    @classmethod
    def conjugation(cls, dim: int = 2) -> "TimeReversal":
        """Transposition in the chosen basis (spinless convention)."""
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def spin_half(cls) -> "TimeReversal":
        """Spin-1/2 reversal, ``A -> sigma_y A^T sigma_y``."""
        return cls(-1j * SIGMA_Y)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def apply(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != self.unitary.shape:
            raise DimensionMismatch(f"operand shape {a.shape} does not match dim {self.dim}")
        return self.unitary @ a.T @ dag(self.unitary)


def r_s_superop(space: WeightedSpace) -> np.ndarray:
    """Matrix of ``X -> Sigma^(1-2s) X Sigma^(2s-1)``."""
    return kron(space.sigma_power(2 * space.s - 1).T, space.sigma_power(1 - 2 * space.s))


def check_lemma_invariant_subspace(space: WeightedSpace, dual: np.ndarray, taus=(0.1, 0.5, 1.0, 5.0)) -> tuple:
    """Invariance of the populations sector and its orthocomplement.

    For the Heisenberg maps of a balanced generator, projectors onto
    Sigma's eigenbasis stay diagonal, off-diagonal units stay off-diagonal,
    and the maps commute with the similarity ``X -> Sigma^(1-2s) X
    Sigma^(2s-1)``.  Takes a Heisenberg-picture generator and returns the
    largest defects ``(diagonal_leak, offdiagonal_leak,
    rs_commutation_residual)`` over ``taus``.
    """
    d = space.dim
    basis_vecs = matlin.herm_eig(space.sigma, atol=1e-10)[1]
    rs = r_s_superop(space)
    diag_leak = 0.0
    off_leak = 0.0
    comm_res = 0.0
    for tau in taus:
        g = evolve(dual, tau)
        comm_res = max(comm_res, matlin.frobenius(g @ rs - rs @ g))
        for m in range(d):
            col = basis_vecs[:, m : m + 1]
            out = apply_matrix(g, col @ dag(col))
            out_eig = dag(basis_vecs) @ out @ basis_vecs
            off = out_eig - np.diag(np.diag(out_eig))
            diag_leak = max(diag_leak, float(np.max(np.abs(off))))
        for m in range(d):
            for n in range(d):
                if m == n:
                    continue
                unit = basis_vecs[:, m : m + 1] @ dag(basis_vecs[:, n : n + 1])
                out_eig = dag(basis_vecs) @ apply_matrix(g, unit) @ basis_vecs
                off_leak = max(off_leak, float(np.max(np.abs(np.diag(out_eig)))))
    return diag_leak, off_leak, comm_res


# ---------------------------------------------------------------------------
# Definitions that only the tests use: the qubit Bloch parametrization, the
# scenarios' closed forms, and the paper's statements "balance => pairwise
# symmetry => ratio law" over one map's transition matrix.  The report path
# never runs them; the tests check it against them.


def transpose_superop(d: int) -> np.ndarray:
    """Permutation matrix ``K`` with ``K @ vec(M) == vec(M.T)``."""
    return np.eye(d * d, dtype=complex)[np.arange(d * d).reshape(d, d).T.ravel()]


@dataclass(frozen=True)
class BlochVector:
    rx: float
    ry: float
    rz: float

    def __post_init__(self):
        if self.norm() > 1.0 + STATE_ATOL:
            raise NotAState(f"Bloch vector norm {self.norm():.12g} exceeds 1")

    def norm(self) -> float:
        return math.sqrt(self.rx**2 + self.ry**2 + self.rz**2)


def bloch_to_density(r: BlochVector) -> np.ndarray:
    """``(I + r . sigma) / 2`` with the standard Pauli matrices."""
    return 0.5 * (np.eye(2, dtype=complex) + r.rx * SIGMA_X + r.ry * SIGMA_Y + r.rz * SIGMA_Z)


def density_to_bloch(rho: np.ndarray) -> BlochVector:
    if rho.shape != (2, 2):
        raise DimensionMismatch("Bloch coordinates are defined for qubits only")
    return BlochVector(
        rx=float(np.real(np.trace(rho @ SIGMA_X))),
        ry=float(np.real(np.trace(rho @ SIGMA_Y))),
        rz=float(np.real(np.trace(rho @ SIGMA_Z))),
    )


def example_a_ratio_oracle(p: ExampleAParams, tau: float, energy: float, beta_i: float) -> float:
    """Closed-form exchange ratio ``F(tau) e^{(beta_i - beta_f) E}`` at the qubit gap."""
    if abs(energy - p.omega) > 1e-9:
        raise ValueError(f"the closed form holds at the qubit gap {p.omega:g}, got {energy:g}")
    return example_a_f_factor(p, (tau,))[0] * math.exp((beta_i - p.beta_f) * energy)


def example_b_closed_form(p: ExampleBParams, rho0: np.ndarray, tau: float) -> np.ndarray:
    """Analytic solution in the ground-first frame.

    ``r_z(tau) = r_z(0) e^{-gbar tau} + tanh(beta omega / 2)(1 - e^{-gbar tau})``
    and the coherence obeys ``rho_01(tau) = rho_01(0) e^{(i omega - gbar/2) tau}``.
    """
    if rho0.shape != (2, 2):
        raise DimensionMismatch("closed form is a qubit solution")
    gbar = gamma_bar(p)
    decay = math.exp(-gbar * tau)
    rz0 = float(np.real(rho0[0, 0] - rho0[1, 1]))
    rz = rz0 * decay + math.tanh(p.beta_f * p.omega / 2.0) * (1.0 - decay)
    c01 = rho0[0, 1] * np.exp((1j * p.omega - gbar / 2.0) * tau)
    return np.array([[(1.0 + rz) / 2.0, c01], [np.conj(c01), (1.0 - rz) / 2.0]], dtype=complex)


def gamma_bar(p: ExampleBParams) -> float:
    """Longitudinal relaxation rate ``gamma (2 n_bar + 1)`` of scenario B's
    parameters ``p``."""
    return p.gamma * (2.0 * p.n_bar + 1.0)


def example_qdb_family(mu: float, eta: float, omega: float, beta_f: float) -> LindbladGenerator:
    """Balanced qubit semigroup family: excitation rate ``mu``, decay rate
    ``mu e^{beta omega}`` and dephasing rate ``eta``.

    Reduces to the scenario-B generator for ``eta = 0, mu = gamma n_bar``,
    and :func:`qdblab.examples.example_c_qdb_point` gives it in Bloch
    coordinates.
    """
    _require_rates(mu, eta)
    jumps = [
        math.sqrt(mu * math.exp(beta_f * omega)) * LOWERING,
        math.sqrt(mu) * RAISING,
    ]
    if eta > 0:
        jumps.append(math.sqrt(eta) * SIGMA_Z)
    return LindbladGenerator.from_jump_operators(qubit_hamiltonian(omega), jumps)


def superop_to_bloch4(s: np.ndarray) -> np.ndarray:
    """Inverse of :func:`qdblab.dynamics.bloch4_to_superop` for qubit superoperators."""
    if s.shape != (4, 4):
        raise DimensionMismatch("Bloch coordinates are defined for qubits only")
    return -0.25 * dag(_PAULI_STACK) @ s @ _PAULI_STACK


def k_plus(p: ExampleCParams) -> complex:
    """Transverse mode ``k_+`` of scenario C's parameters ``p``."""
    return -(p.alpha + p.nu) + 1j * np.sqrt(complex(p.omega**2 - (p.alpha - p.nu) ** 2))


def k_minus(p: ExampleCParams) -> complex:
    """Transverse mode ``k_-`` of scenario C's parameters ``p``."""
    return -(p.alpha + p.nu) - 1j * np.sqrt(complex(p.omega**2 - (p.alpha - p.nu) ** 2))


def example_c_solution(p: ExampleCParams, r0: BlochVector, tau: float) -> BlochVector:
    """Analytic Bloch trajectory.

    Transverse components combine ``e^{k_pm tau}`` modes with coefficients
    fixed by the initial data; the longitudinal one relaxes at ``2 zeta``
    toward ``-chi/zeta``.  The critically damped boundary
    ``omega^2 == (alpha - nu)^2`` is excluded.
    """
    kp, km = k_plus(p), k_minus(p)
    den = km - kp
    if abs(den) < 1e-14:
        raise ValueError("critically damped boundary is outside the closed form")
    uxp = ((km + 2 * p.nu) * r0.rx - p.omega * r0.ry) / den
    uxm = -((kp + 2 * p.nu) * r0.rx - p.omega * r0.ry) / den
    uyp = ((km + 2 * p.alpha) * r0.ry + p.omega * r0.rx) / den
    uym = -((kp + 2 * p.alpha) * r0.ry + p.omega * r0.rx) / den
    ep, em = np.exp(kp * tau), np.exp(km * tau)
    rx = uxp * ep + uxm * em
    ry = uyp * ep + uym * em
    decay = math.exp(-2.0 * p.zeta * tau)
    rz = decay * r0.rz - (1.0 - decay) * p.chi / p.zeta
    return BlochVector(rx=float(np.real(rx)), ry=float(np.real(ry)), rz=float(rz))


def transition_matrix(g, h: HamiltonianSpec) -> np.ndarray:
    """``p[m, n] = <n| Map[|m><m|] |n>`` over h's ascending eigenbasis, for
    one map ``g``, Kraus operators or a Schroedinger-picture superoperator,
    from its eigenframe superoperator; the probabilities must be finite and
    nonnegative and each row must sum to 1.
    """
    return judged_transitions(superop_stack(g, h))[0]


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
    p_th = thermal_populations(h, beta_f)
    return float(np.max(np.abs(p_th @ probs - p_th)))


def default_tau_max(gamma_min) -> float:
    """Probing horizon ``50 / gamma_min`` from the spectral gap when known,
    else ``TAU_MAX``."""
    if gamma_min and gamma_min > 0:
        return 50.0 / gamma_min
    return TAU_MAX


def probes_of(block: Dynamics) -> np.ndarray:
    """classify's eigenframe probes of a block, as ``report.analyse`` takes
    them: the generators of semigroups, the probe maps of Kraus sources."""
    times = () if block.generator is not None else block.taus(FIXED_POINT_TAUS)
    generators, superops, _ = maps_of(block, times, (), TOL_CPTP)
    return superops if generators is None else generators


def classify_one(source) -> tuple:
    """:func:`qdblab.fluctuation.classify` of a block of one point: its
    ``(kind, beta_f, gamma_min)``, from the probes of :func:`probes_of`."""
    return classify(source, probes_of(source))[0]


def reference_classify_single_map(kraus_ops, h: HamiltonianSpec) -> tuple:
    """``(kind, beta_f)`` of one Kraus map from its own superoperator: the
    reference for the single-map branch of :func:`qdblab.fluctuation.classify`,
    which takes the map from its one-point family."""
    eigs, vecs = np.linalg.eig(superop_from_channel(eigenframe(kraus_ops, h)))
    one = np.abs(eigs - 1.0) < UNIT_EIG_ATOL
    if int(np.sum(one)) != 1:
        return "single_map", None
    try:
        return "single_map", reference_fixed_beta(vecs[:, int(np.argmax(one))], h)
    except NotAState:
        return "single_map", None


# ---------------------------------------------------------------------------
# One map at a time; the package reads its maps from ``Dynamics.maps`` stacks.

CHOI_NEG_HARD = 1e-8
KRAUS_RANK_FLOOR = 1e-12
ROUNDTRIP_ATOL = 1e-9


class NotCompletelyPositive(QdblabError):
    pass


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)))


def evolve_grid(generator: np.ndarray, taus) -> np.ndarray:
    """The matrices of ``exp(tau * L)`` for every ``tau`` of ``taus``,
    stacked ``(t, d^2, d^2)``, from one matrix exponential over the grid,
    which analyses L once; a stack ``(p, d^2, d^2)`` of generators gives
    ``(p, t, d^2, d^2)``; a ``tau`` whose ``tau L`` overflows gives a nan
    slice."""
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise ValueError("tau must be nonnegative")
    return matlin.expm(generator, taus)


def evolve(generator: np.ndarray, tau: float) -> np.ndarray:
    """Finite-time map ``exp(tau * L)`` of a generator superoperator."""
    return evolve_grid(generator, (tau,))[0]


def apply_matrix(g, x: np.ndarray) -> np.ndarray:
    """Map a d x d operator through Kraus operators ``(j, d, d)`` or a
    superoperator ``(d^2, d^2)``."""
    x = np.asarray(x, dtype=complex)
    g = np.asarray(g, dtype=complex)
    d = g.shape[-1] if g.ndim == 3 else math.isqrt(g.shape[0])
    if x.shape != (d, d):
        raise DimensionMismatch(f"operand shape {x.shape} does not match dim {d}")
    return sum(k @ x @ dag(k) for k in g) if g.ndim == 3 else unvec(g @ vec(x), d, d)


def apply(g, rho: np.ndarray) -> np.ndarray:
    """Send a state through Kraus operators or a Schroedinger-picture
    superoperator, and take the Hermitian part of the image."""
    out = apply_matrix(g, rho)
    return (out + dag(out)) / 2


def superop_from_channel(kraus_ops) -> np.ndarray:
    """Column-stacking matrix ``sum_j conj(G_j) (x) G_j`` of a Kraus map."""
    return _kraus_superops(np.array([kraus_ops], dtype=complex))[0]


def _partial_trace_out(choi: np.ndarray, d: int) -> np.ndarray:
    return np.trace(choi.reshape(choi.shape[:-2] + (d,) * 4), axis1=-3, axis2=-1)


def is_cptp(s: np.ndarray) -> tuple:
    """CPTP residuals ``(cp, tp, herm)`` of a Schroedinger-picture map, as
    floats, or of every map of a stack ``(..., d^2, d^2)``, as arrays: the
    Choi matrix's most negative eigenvalue (0 if none), the defect of
    ``Tr_out[Choi] == I`` (partial trace over the second factor) and the Choi
    matrix's anti-Hermitian part, the last two as Frobenius norms, from one
    stacked ``eigvalsh``.  A map with non-finite entries gets infinite
    residuals.  The map-level oracle of :func:`qdblab.dynamics.gkls_defects`."""
    finite = np.isfinite(s).all(axis=(-2, -1))
    choi = choi_matrix(np.where(finite[..., None, None], s, 0.0))
    d = math.isqrt(s.shape[-1])
    adj = choi.conj().swapaxes(-1, -2)
    lo = np.linalg.eigvalsh((choi + adj) / 2).min(axis=-1)
    tp = matlin.frobenius(_partial_trace_out(choi, d) - np.eye(d))
    residuals = np.where(lo < 0, -lo, 0.0), tp, matlin.frobenius(choi - adj)
    return tuple(np.where(finite, r, math.inf)[()] for r in residuals)  # [()] makes a 0-d array a float


def channel_from_superop(s: np.ndarray) -> np.ndarray:
    """Kraus family from the Choi eigendecomposition of a CPTP map.

    Eigenvalues in ``(-1e-8, 0)`` are clamped to zero (warned above noise
    level); anything more negative raises ``NotCompletelyPositive``.
    """
    cp, tp, _ = is_cptp(s)
    if cp > CHOI_NEG_HARD:
        raise NotCompletelyPositive(f"Choi minimum eigenvalue is {-cp:.3e}")
    if tp > CHOI_NEG_HARD:
        raise NotTracePreserving(f"trace-preservation residual is {tp:.3e}")
    d = math.isqrt(s.shape[0])
    choi = choi_matrix(s)
    choi = (choi + dag(choi)) / 2
    w, v = matlin.herm_eig(choi)
    if float(np.min(w)) < -1e-12:
        warnings.warn(
            f"clamping {int(np.sum(w < 0))} slightly negative Choi eigenvalues "
            f"(min {float(np.min(w)):.3e})"
        )
    w = np.clip(w, 0.0, None)
    ops = [
        math.sqrt(float(w[a])) * v[:, a].reshape(d, d).T
        for a in range(len(w))
        if w[a] > KRAUS_RANK_FLOOR
    ]
    residual = matlin.frobenius(superop_from_channel(ops) - s)
    if residual > ROUNDTRIP_ATOL:
        raise InternalCheckError(f"Kraus reconstruction misses the superoperator by {residual:.3e}")
    return np.array(ops)


def _probe_states(d: int) -> list:
    probes = [np.eye(d, dtype=complex) / d, *map(np.diag, np.eye(d, dtype=complex))]
    rng = np.random.default_rng(7)
    for _ in range(3):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = a @ dag(a)
        probes.append(mat / np.trace(mat))
    return probes


def reference_classify_family(source) -> tuple:
    """``(kind, beta_f)`` of a channel family from eight probe states sent
    through its Kraus maps: the reference for the family branch of
    :func:`qdblab.fluctuation.classify`, which reads the superoperator stack.
    ``source`` is a block of one point."""
    h = source.h[0]
    (kraus,) = eigenframe(_kraus_stacks(source.family((TAU_MAX, *FIXED_POINT_TAUS))), h)
    finals = [apply(kraus[0], p) for p in _probe_states(h.dim)]
    mean = sum(finals) / len(finals)
    mean = (mean + dag(mean)) / 2
    spread = max(trace_norm(f - mean) for f in finals)
    if spread > CONVERGENCE_ATOL:
        raise InconclusiveHorizon(
            f"probe states are {spread:.3e} apart in trace norm at tau={TAU_MAX:g}"
        )
    state = mean / np.real(np.trace(mean))
    try:
        beta = reference_infer_beta(state, h)
    except (NotThermal, ZeroPopulation):
        return "non_thermalizing", None
    fixed = all(trace_norm(apply(ops, state) - state) < FIXED_POINT_ATOL for ops in kraus[1:])
    return "fpt" if fixed else "thermalizing", beta


# ---------------------------------------------------------------------------
# Report rows written cell by cell: the reference for ``cli.write_rows``,
# which formats whole columns, and for the column selection of ``cli._emit``.


def _csv_cell(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".17g")


def _json_cell(x):
    if isinstance(x, str) or x is None or type(x) is bool:
        return x
    return float(x) if math.isfinite(x) else str(float(x))


def reference_rows_text(header, rows, fmt: str) -> str:
    """The text of a rows file, one cell at a time: CSV cells as ``%.17g``,
    blank for None and ``true``/``false`` for bools; JSON as ``json.dumps``
    of the payload, a non-finite float as its text."""
    if fmt == "csv":
        return "\n".join([",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]) + "\n"
    payload = {"schema": 1, "columns": list(header), "rows": [list(map(_json_cell, row)) for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_emit_rows(taus, energies, predicted, recorded, p_plus, p_minus, defined, ratio, deviation,
                        f_factor=None) -> list:
    """The rows of ``cli._emit`` for one report's records, a row per kept
    record in (tau, gap) order, with blank ratio cells where the record has
    no ratio and scenario A's ``f_factor`` at tau."""
    rows, energies, predicted = [], energies.tolist(), predicted.tolist()
    per_tau = (recorded, p_plus, p_minus, defined, ratio, deviation)
    for tau, *cells in zip(taus, *(a.tolist() for a in per_tau)):
        f_cell = [] if f_factor is None else [f_factor(tau)]
        for energy, pred, kept, plus, minus, has_ratio, r, dev in zip(energies, predicted, *cells):
            if kept:
                rows.append([tau, energy, plus, minus, *((r, pred, dev) if has_ratio else [None] * 3), *f_cell])
    return rows


# ---------------------------------------------------------------------------
# Classify, one source at a time: the bitwise reference for
# ``fluctuation.classify``, which takes every step over a block's points.


class NotThermal(QdblabError):
    """State has no consistent inverse temperature for the given Hamiltonian."""


class ZeroPopulation(QdblabError):
    pass


def reference_infer_beta(rho: np.ndarray, h: HamiltonianSpec) -> float:
    """Inverse temperature of one thermal state in H's eigenframe, or raise
    ``NotThermal`` (``ZeroPopulation`` for a vanishing population that is no
    ground projector, ``NotAState`` for a negative eigenvalue): the
    per-state reference for :func:`qdblab.states.infer_beta`."""
    lo = float(np.min(np.linalg.eigvalsh(rho)))
    if lo < -STATE_ATOL:
        raise NotAState(f"state has negative eigenvalue {lo:.3e}")
    e = h.eigenvalues
    if float(np.min(np.diff(e), initial=math.inf)) <= DEGENERACY_ATOL * (e[-1] - e[0]):
        raise NotThermal("Hamiltonian spectrum is degenerate, beta inference undefined")
    a = rho
    off = a - np.diag(np.diag(a))
    if float(np.max(np.abs(off))) > THERMAL_OFFDIAG_ATOL:
        raise NotThermal(f"state has off-diagonal weight {np.max(np.abs(off)):.3e} in the energy eigenbasis")
    p = np.real(np.diag(a))
    if float(np.min(p)) < 1e-14:
        if p[0] >= 1.0 - 1e-10 and bool(np.all(p[1:] < 1e-14)):
            return math.inf
        raise ZeroPopulation("a level population vanishes but the profile is not the ground projector")
    beta_hat = math.log(p[0] / p[-1]) / (e[-1] - e[0])
    scale = max(1.0, abs(beta_hat))
    for m in range(h.dim):
        for n in range(m + 1, h.dim):
            b_mn = math.log(p[m] / p[n]) / (e[n] - e[m])
            if abs(b_mn - beta_hat) > BETA_AGREE_RTOL * scale:
                raise NotThermal(f"pairwise inverse temperatures disagree: {b_mn:.6g} vs {beta_hat:.6g}")
    return beta_hat


def reference_fixed_beta(col: np.ndarray, h: HamiltonianSpec):
    """Inverse temperature of one fixed-point vector in H's eigenframe, None when it is
    traceless or its state is not thermal; one that is no state raises
    ``NotAState``."""
    mat = unvec(col, h.dim, h.dim)
    mat = (mat + dag(mat)) / 2
    tr = float(np.real(np.trace(mat)))
    if abs(tr) < 1e-12:
        return None
    try:
        return reference_infer_beta(mat / tr, h)
    except (NotThermal, ZeroPopulation):
        return None


def _reference_simple_eigenvector(eigs, vecs, value: float, atol: float) -> tuple:
    near = np.abs(eigs - value) < atol
    col = vecs[:, int(np.argmax(near))] if int(np.sum(near)) == 1 else None
    return eigs[~near], col


def reference_classify(block: Dynamics, probes) -> list:
    """``(kind, beta_f, gamma_min)`` of each point of ``block``, one point
    at a time, from the same batched spectra and eigenframe probes (the
    generators of semigroups) as :func:`qdblab.fluctuation.classify`."""
    if block.generator is None and block.tau is None:
        out = []
        for superops, h in zip(probes, block.h):
            d = h.dim
            vec_eye = vec(np.eye(d))
            sigma = superops[-1] @ (vec_eye / d)  # the map at TAU_MAX, the last probe time
            spread = math.sqrt(d) * np.linalg.svd(superops[-1] - sigma[:, None] * vec_eye, compute_uv=False).max()
            if spread > CONVERGENCE_ATOL:
                raise InconclusiveHorizon(f"spread {spread:.3e}")
            moved = (superops @ sigma[:, None] - sigma[:, None]).reshape(-1, d, d)
            drift = np.linalg.svd(moved, compute_uv=False).sum(axis=1).max()
            beta = reference_fixed_beta(sigma, h)
            out.append(("non_thermalizing", None, None) if beta is None else (
                "fpt" if drift < FIXED_POINT_ATOL else "thermalizing", beta, None))
        return out
    if block.generator is None:
        out = []
        for eigs, vecs, h in zip(*np.linalg.eig(probes[:, 0]), block.h):
            _, col = _reference_simple_eigenvector(eigs, vecs, 1.0, UNIT_EIG_ATOL)
            try:
                out.append(("single_map", None if col is None else reference_fixed_beta(col, h), None))
            except NotAState:
                out.append(("single_map", None, None))
        return out
    out = []
    for eigs, vecs, h in zip(*np.linalg.eig(probes), block.h):
        rest, col = _reference_simple_eigenvector(eigs, vecs, 0.0, ZERO_EIG_ATOL)
        if col is None or (rest.size and float(np.max(np.real(rest))) >= -ZERO_EIG_ATOL):
            out.append(("non_thermalizing", None, None))
            continue
        gamma_min = float(np.min(-np.real(rest))) if rest.size else None
        beta = reference_fixed_beta(col, h)
        out.append(("non_thermalizing" if beta is None else "fpt", beta, gamma_min))
    return out


def reference_herm_eig(m: np.ndarray) -> tuple:
    """Eigendecomposition of one Hermitian matrix, each eigenvector column
    rotated, one at a time, so that its first largest-magnitude entry is real
    and positive: the per-matrix reference for :func:`qdblab.matlin.herm_eig`."""
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    v = np.array(v, dtype=complex)
    for k in range(v.shape[1]):
        pivot = v[int(np.argmax(np.abs(v[:, k]))), k]
        v[:, k] *= np.conj(pivot) / abs(pivot)
    return w, v


def reference_gap_clusters(e: np.ndarray) -> tuple:
    """``(energies, pairs)`` of one level set's gap clusters, grouped one
    pair at a time: the per-set reference for ``fluctuation._gap_clusters``."""
    d = len(e)
    atol = GAP_GROUP_RTOL * float(e[-1] - e[0]) if e.size else 0.0
    gaps = ((float(e[n] - e[m]), m, n) for m in range(d) for n in range(d))
    groups = []
    for item in sorted((max(gap, 0.0), m, n) for gap, m, n in gaps if gap >= -atol):
        if groups and item[0] - groups[-1][0][0] <= atol:
            groups[-1].append(item)
        else:
            groups.append([item])
    energies = []
    for group in groups:
        k = len(group).bit_length()
        scaled = [g for g, _, _ in group]
        energies.append(0.0 if group[0][0] <= atol else float(np.ldexp(np.mean(np.ldexp(scaled, -k)), k)))
    return energies, [[(m, n) for _, m, n in group] for group in groups]
