import os
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest

from qdblab import matlin
from qdblab.dynamics import (
    HEISENBERG,
    SCHRODINGER,
    KrausChannel,
    LindbladGenerator,
    SuperOperator,
    commutator_superop,
    evolve,
    heisenberg_dual,
    lindblad_superop,
    map_stacks,
)
from qdblab.examples import example_a_channel
from qdblab.errors import DimensionMismatch, SingularWeight
from qdblab.matlin import dag, kron
from qdblab.fluctuation import exchange_grid
from qdblab.states import SIGMA_Y, DensityMatrix, HamiltonianSpec

SEED = int(os.environ.get("QDBLAB_SEED", "20260810"))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d, scale=1.0):
    a = random_complex(rng, d)
    return scale * (a + a.conj().T) / 2


def random_density(rng, d) -> DensityMatrix:
    a = random_complex(rng, d)
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


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


def reference_lindblad_superop(gen: LindbladGenerator) -> SuperOperator:
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
    return SuperOperator(m, SCHRODINGER)


def dual_superop(gen: LindbladGenerator) -> SuperOperator:
    """Heisenberg-picture generator matrix.

    Implements ``+i[H, .] + sum_kl C_kl (F_l^dag . F_k - {F_l^dag F_k, .}/2)``,
    the trace dual of :func:`qdblab.dynamics.lindblad_superop`.  The library
    takes duals with :func:`qdblab.dynamics.heisenberg_dual`; this literal
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
    return SuperOperator(m, HEISENBERG)


def heisenberg_generator(gen: LindbladGenerator):
    """The Heisenberg-picture generator that ``check_qdb1`` takes."""
    return heisenberg_dual(lindblad_superop(gen))


Gap = namedtuple("Gap", "energy p_plus p_minus")
Ratio = namedtuple("Ratio", "energy ratio predicted deviation")


def a_channel(p, tau):
    """Scenario A's channel at ``tau`` as one ``KrausChannel``."""
    return KrausChannel(tuple(example_a_channel(p, (tau,))[0]))


def exchange_at(g, h, beta_i, beta_f, tau=0.0):
    """Exchange statistics of the one map ``g``, taken at ``tau``."""
    return exchange_grid(map_stacks(g, h), h, beta_i, beta_f, (tau,))


def gap_records(grid, t=0):
    """The gap records of ``grid`` at its ``t``-th time."""
    return [
        Gap(energy, p_plus, p_minus)
        for energy, p_plus, p_minus, kept in zip(
            grid.energies, grid.p_plus[t].tolist(), grid.p_minus[t].tolist(), grid.recorded[t]
        )
        if kept
    ]


def ratio_records(grid, t=0):
    """The ratio law at the records of ``grid``'s ``t``-th time that have a ratio."""
    defined, ratio, predicted, deviation = grid.ratios()
    return [
        Ratio(grid.energies[c], ratio[t, c], predicted[c], deviation[t, c])
        for c in range(len(grid.energies))
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


@dataclass(frozen=True)
class WeightedSpace:
    """Operator Hilbert space carrying the Sigma-weighted scalar product."""

    sigma: DensityMatrix
    s: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {self.s}")
        w, v = matlin.herm_eig(self.sigma.matrix, atol=1e-10)
        if float(np.min(w)) <= FULL_RANK_FLOOR:
            raise SingularWeight(
                f"reference state has eigenvalue {float(np.min(w)):.3e}, not full rank"
            )
        object.__setattr__(self, "_eigvals", w)
        object.__setattr__(self, "_eigvecs", v)

    @property
    def dim(self) -> int:
        return self.sigma.dim

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


def adjoint(space: WeightedSpace, op: SuperOperator) -> SuperOperator:
    """Adjoint ``O*`` with ``<<A, O[B]>> == <<O*[A], B>>``."""
    if op.dim != space.dim:
        raise DimensionMismatch(f"superoperator dim {op.dim} != space dim {space.dim}")
    return SuperOperator(space.weight_inv @ dag(op.matrix) @ space.weight, op.picture)


def decompose(space: WeightedSpace, dual_gen: SuperOperator):
    """Split a Heisenberg generator into anti-self-adjoint and self-adjoint
    halves ``(L - L*)/2`` and ``(L + L*)/2``."""
    star = adjoint(space, dual_gen)
    ham_part = SuperOperator((dual_gen.matrix - star.matrix) / 2, dual_gen.picture)
    dis_part = SuperOperator((dual_gen.matrix + star.matrix) / 2, dual_gen.picture)
    return ham_part, dis_part


def check_qdb1_invariance(space: WeightedSpace, gen: SuperOperator) -> float:
    """``|L[Sigma]|_F`` of a Schroedinger-picture generator; vanishes
    whenever the generator-level balance holds."""
    if gen.picture != SCHRODINGER:
        raise ValueError("check_qdb1_invariance expects a Schroedinger-picture generator")
    return matlin.frobenius(gen.apply_matrix(space.sigma.matrix))


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


def check_lemma_invariant_subspace(
    space: WeightedSpace, dual: SuperOperator, taus=(0.1, 0.5, 1.0, 5.0)
) -> tuple:
    """Invariance of the populations sector and its orthocomplement.

    For the Heisenberg maps of a balanced generator, projectors onto
    Sigma's eigenbasis stay diagonal, off-diagonal units stay off-diagonal,
    and the maps commute with the similarity ``X -> Sigma^(1-2s) X
    Sigma^(2s-1)``.  Takes a Heisenberg-picture generator and returns the
    largest defects ``(diagonal_leak, offdiagonal_leak,
    rs_commutation_residual)`` over ``taus``.
    """
    if dual.picture != HEISENBERG:
        raise ValueError("check_lemma_invariant_subspace expects a Heisenberg-picture generator")
    d = space.dim
    basis_vecs = matlin.herm_eig(space.sigma.matrix, atol=1e-10)[1]
    rs = r_s_superop(space)
    diag_leak = 0.0
    off_leak = 0.0
    comm_res = 0.0
    for tau in taus:
        g = evolve(dual, tau)
        comm_res = max(comm_res, matlin.frobenius(g.matrix @ rs - rs @ g.matrix))
        for m in range(d):
            col = basis_vecs[:, m : m + 1]
            out = g.apply_matrix(col @ dag(col))
            out_eig = dag(basis_vecs) @ out @ basis_vecs
            off = out_eig - np.diag(np.diag(out_eig))
            diag_leak = max(diag_leak, float(np.max(np.abs(off))))
        for m in range(d):
            for n in range(d):
                if m == n:
                    continue
                unit = basis_vecs[:, m : m + 1] @ dag(basis_vecs[:, n : n + 1])
                out_eig = dag(basis_vecs) @ g.apply_matrix(unit) @ basis_vecs
                off_leak = max(off_leak, float(np.max(np.abs(np.diag(out_eig)))))
    return diag_leak, off_leak, comm_res
