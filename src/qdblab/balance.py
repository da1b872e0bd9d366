"""Weighted operator scalar products, superoperator adjoints, detailed
balance checks and time reversal.

The scalar product is ``<<A, B>>_s = Tr[Sigma^(1-s) A^dag Sigma^s B]`` for a
full-rank reference state Sigma and ``s`` in [0, 1].  In vectorized form it
is ``vec(A)^dag W vec(B)`` with weight ``W = (Sigma^(1-s)).T (x) Sigma^s``,
so the adjoint of a superoperator ``O`` is ``W^-1 O^dag W``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matlin
from .dynamics import (
    HEISENBERG,
    SCHRODINGER,
    LindbladGenerator,
    SuperOperator,
    commutator_superop,
    evolve,
    heisenberg_dual,
    lindblad_superop,
)
from .errors import DimensionMismatch, SingularWeight
from .matlin import dag, kron
from .states import SIGMA_Y, DensityMatrix, HamiltonianSpec

FULL_RANK_FLOOR = 1e-12
QDB_PASS_TOL = 1e-9
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

    @property
    def weight(self) -> np.ndarray:
        return kron(self.sigma_power(1.0 - self.s).T, self.sigma_power(self.s))

    @property
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


def _as_generator_pair(gen, h: HamiltonianSpec | None):
    """Normalize a generator argument to (schrodinger, heisenberg, hamiltonian)."""
    if isinstance(gen, LindbladGenerator):
        schro = lindblad_superop(gen)
        return schro, heisenberg_dual(schro), gen.hamiltonian
    if isinstance(gen, SuperOperator):
        if h is None:
            raise ValueError("a Hamiltonian is required alongside a raw superoperator generator")
        if gen.picture == SCHRODINGER:
            return gen, heisenberg_dual(gen), h
        return heisenberg_dual(gen), gen, h
    raise TypeError(f"unsupported generator type {type(gen).__name__}")


@dataclass(frozen=True)
class BalanceReport:
    residual: float
    passes: bool


def check_qdb1(
    space: WeightedSpace,
    gen,
    h: HamiltonianSpec | None = None,
    tol: float = QDB_PASS_TOL,
) -> BalanceReport:
    """Generator-level detailed balance: ``L# - L#* == 2i [H, .]``.

    The residual is the Frobenius norm of the defect relative to ``|L#|``.
    """
    _, dual, ham = _as_generator_pair(gen, h)
    star = adjoint(space, dual)
    defect = dual.matrix - star.matrix - 2j * commutator_superop(ham.matrix)
    den = matlin.frobenius(dual.matrix)
    residual = matlin.frobenius(defect) / (den if den > 0 else 1.0)
    return BalanceReport(residual=residual, passes=residual < tol)


def check_qdb1_invariance(space: WeightedSpace, gen, h: HamiltonianSpec | None = None) -> float:
    """``|L[Sigma]|_F``; vanishes whenever the generator-level balance holds."""
    schro, _, _ = _as_generator_pair(gen, h)
    return matlin.frobenius(schro.apply_matrix(space.sigma.matrix))


@dataclass(frozen=True)
class TimeReversal:
    """Linear map ``A -> U A^T U^dag`` induced by an antiunitary reversal.

    ``U`` is the unitary factor of the antiunitary; ``U conj(U)`` must be a
    phase times the identity so the map is an involution.
    """

    unitary: np.ndarray
    kind: str

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
        return cls(np.eye(dim, dtype=complex), "conjugation")

    @classmethod
    def spin_half(cls) -> "TimeReversal":
        """Spin-1/2 reversal, ``A -> sigma_y A^T sigma_y``."""
        return cls(-1j * SIGMA_Y, "spin_half")

    @classmethod
    def custom(cls, theta_unitary: np.ndarray) -> "TimeReversal":
        return cls(np.asarray(theta_unitary, dtype=complex), "custom")

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def apply(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != self.unitary.shape:
            raise DimensionMismatch(f"operand shape {a.shape} does not match dim {self.dim}")
        return self.unitary @ a.T @ dag(self.unitary)


@dataclass(frozen=True)
class Qdb2Report:
    max_residual: float
    passes: bool


def check_qdb2(
    space: WeightedSpace,
    map_heis: SuperOperator,
    t: TimeReversal,
    tol: float = QDB_PASS_TOL,
) -> Qdb2Report:
    """Map-level detailed balance via time reversal.

    Checks ``<<A^dag, G#[B]>> == <<T[B^dag], G#[T[A]]>>`` as the identity
    ``K W G == ((Theta K)^dag W G Theta).T`` of superoperator matrices: with
    the transpose permutation ``K``, column stacking gives ``vec(A^dag) ==
    K conj(vec(A))`` and ``vec(T[A]) == Theta vec(A)`` for ``Theta = (conj(U)
    (x) U) K``, so entry ``(a, b)`` holds both sides for the matrix units
    ``e_a, e_b``.  The residual is the largest defect.
    """
    if map_heis.picture != HEISENBERG:
        raise ValueError("check_qdb2 expects a Heisenberg-picture map")
    if map_heis.dim != space.dim or t.dim != space.dim:
        raise DimensionMismatch("space, map and time reversal must share one dimension")
    k = matlin.transpose_superop(space.dim)
    theta = kron(t.unitary.conj(), t.unitary) @ k
    wg = space.weight @ map_heis.matrix
    worst = float(np.max(np.abs(k @ wg - (dag(theta @ k) @ wg @ theta).T)))
    return Qdb2Report(max_residual=worst, passes=worst < tol)


def r_s_superop(space: WeightedSpace) -> np.ndarray:
    """Matrix of ``X -> Sigma^(1-2s) X Sigma^(2s-1)``."""
    return kron(space.sigma_power(2 * space.s - 1).T, space.sigma_power(1 - 2 * space.s))


@dataclass(frozen=True)
class SubspaceReport:
    diagonal_leak: float
    offdiagonal_leak: float
    rs_commutation_residual: float
    passes: bool


def check_lemma_invariant_subspace(
    space: WeightedSpace,
    gen,
    h: HamiltonianSpec | None = None,
    taus=(0.1, 0.5, 1.0, 5.0),
    tol: float = QDB_PASS_TOL,
) -> SubspaceReport:
    """Invariance of the populations sector and its orthocomplement.

    For the Heisenberg maps of a balanced generator, projectors onto
    Sigma's eigenbasis stay diagonal, off-diagonal units stay off-diagonal,
    and the maps commute with the similarity ``X -> Sigma^(1-2s) X
    Sigma^(2s-1)``.
    """
    _, dual, _ = _as_generator_pair(gen, h)
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
    worst = max(diag_leak, off_leak, comm_res)
    return SubspaceReport(
        diagonal_leak=diag_leak,
        offdiagonal_leak=off_leak,
        rs_commutation_residual=comm_res,
        passes=worst < tol,
    )
