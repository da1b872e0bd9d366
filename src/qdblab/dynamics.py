"""CPTP dynamics: Kraus channels, Lindblad generators, superoperator
representations, Heisenberg duals, time evolution and CPTP verification.

Superoperators are ``d^2 x d^2`` matrices acting on column-stacked
operators.  The Choi matrix convention is

    Choi = sum_ij |i><j| (x) Map[|i><j|],

so complete positivity is positivity of the Choi matrix and trace
preservation is ``Tr_out[Choi] == I`` (partial trace over the second
factor).  Both conventions interlock with the column-stacking ``vec`` and
are covered by roundtrip tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matlin
from .errors import (
    DimensionMismatch,
    InternalCheckError,
    KossakowskiNotPSD,
    NotCompletelyPositive,
    NotTracePreserving,
)
from .matlin import dag, kron, unvec, vec
from .states import DensityMatrix, HamiltonianSpec

SCHRODINGER = "schrodinger"
HEISENBERG = "heisenberg"

TP_ATOL = 1e-10
PSD_ATOL = 1e-10
BASIS_ATOL = 1e-12
CHOI_NEG_HARD = 1e-8
KRAUS_RANK_FLOOR = 1e-12


@dataclass(frozen=True)
class SuperOperator:
    """Matrix form of a linear map on operators (column-stacking layout)."""

    matrix: np.ndarray
    picture: str = SCHRODINGER

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"superoperator must be square, got shape {m.shape}")
        d = math.isqrt(m.shape[0])
        if d * d != m.shape[0]:
            raise DimensionMismatch(f"superoperator side {m.shape[0]} is not a perfect square")
        if self.picture not in (SCHRODINGER, HEISENBERG):
            raise ValueError(f"unknown picture {self.picture!r}")

    @property
    def dim(self) -> int:
        return math.isqrt(self.matrix.shape[0])

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """Map a d x d operator through the superoperator."""
        d = self.dim
        x = np.asarray(x, dtype=complex)
        if x.shape != (d, d):
            raise DimensionMismatch(f"operand shape {x.shape} does not match dim {d}")
        return unvec(self.matrix @ vec(x), d, d)


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by a finite Kraus family."""

    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(g, dtype=complex) for g in self.kraus_ops)
        if not ops:
            raise NotTracePreserving("empty Kraus family cannot preserve the trace")
        d = ops[0].shape[0]
        for g in ops:
            if g.ndim != 2 or g.shape != (d, d):
                raise DimensionMismatch("all Kraus operators must be square with equal size")
        object.__setattr__(self, "kraus_ops", ops)
        s = sum(dag(g) @ g for g in ops)
        res = float(np.max(np.abs(s - np.eye(d))))
        if res > TP_ATOL:
            raise NotTracePreserving(f"sum G^dag G differs from identity by {res:.3e}")

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"operand shape {x.shape} does not match dim {self.dim}")
        return sum(g @ x @ dag(g) for g in self.kraus_ops)


def gell_mann_basis(d: int) -> list:
    """Orthonormal Hermitian basis of M_d: symmetric, antisymmetric, then
    diagonal traceless matrices, with ``I/sqrt(d)`` last."""
    basis = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / math.sqrt(2)
            basis.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / math.sqrt(2)
            m[k, j] = 1j / math.sqrt(2)
            basis.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -l
        basis.append(m / math.sqrt(l * (l + 1)))
    basis.append(np.eye(d, dtype=complex) / math.sqrt(d))
    return basis


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian plus Kossakowski matrix over a traceless orthonormal basis.

    ``basis`` holds the d^2 - 1 traceless matrices indexed by the
    Kossakowski matrix; the identity direction never enters the dissipator.
    """

    hamiltonian: HamiltonianSpec
    kossakowski: np.ndarray
    basis: tuple

    def __post_init__(self):
        c = np.asarray(self.kossakowski, dtype=complex)
        object.__setattr__(self, "kossakowski", c)
        basis = tuple(np.asarray(f, dtype=complex) for f in self.basis)
        object.__setattr__(self, "basis", basis)
        d = self.hamiltonian.dim
        n = d * d - 1
        if c.shape != (n, n):
            raise DimensionMismatch(f"Kossakowski matrix must be {n}x{n}, got {c.shape}")
        if len(basis) != n:
            raise DimensionMismatch(f"expected {n} dissipator basis matrices, got {len(basis)}")
        if not matlin.is_hermitian(c, PSD_ATOL):
            raise KossakowskiNotPSD("Kossakowski matrix is not Hermitian")
        lo = float(np.min(np.linalg.eigvalsh((c + dag(c)) / 2)))
        if lo < -PSD_ATOL:
            raise KossakowskiNotPSD(f"Kossakowski matrix has negative eigenvalue {lo:.3e}")
        stack = np.array(basis)
        traced = np.flatnonzero(np.abs(np.trace(stack, axis1=1, axis2=2)) > BASIS_ATOL)
        if traced.size:
            raise ValueError(f"dissipator basis matrix {traced[0]} is not traceless")
        gram = np.einsum("kab,lab->kl", stack.conj(), stack)
        if float(np.max(np.abs(gram - np.eye(n)))) > BASIS_ATOL:
            raise ValueError("dissipator basis is not orthonormal")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @classmethod
    def canonical(cls, hamiltonian: HamiltonianSpec, kossakowski: np.ndarray) -> "LindbladGenerator":
        """Generator over the canonical (Gell-Mann style) traceless basis."""
        basis = tuple(gell_mann_basis(hamiltonian.dim)[:-1])
        return cls(hamiltonian=hamiltonian, kossakowski=kossakowski, basis=basis)

    @classmethod
    def from_jump_operators(cls, hamiltonian: HamiltonianSpec, jump_ops) -> "LindbladGenerator":
        """Generator with dissipator ``sum_j (L_j . L_j^dag - {L_j^dag L_j, .}/2)``.

        Jump operators may carry a trace part; it is absorbed into an
        effective Hamiltonian shift so the Kossakowski matrix stays on the
        traceless sector.
        """
        d = hamiltonian.dim
        basis = gell_mann_basis(d)[:-1]
        n = len(basis)
        c = np.zeros((n, n), dtype=complex)
        h_eff = np.array(hamiltonian.matrix, dtype=complex)
        for jump in jump_ops:
            jump = np.asarray(jump, dtype=complex)
            if jump.shape != (d, d):
                raise DimensionMismatch("jump operator shape does not match the Hamiltonian")
            tr_part = complex(np.trace(jump)) / d
            traceless = jump - tr_part * np.eye(d)
            coeff = np.array([complex(np.trace(dag(f) @ traceless)) for f in basis])
            c += np.outer(coeff, coeff.conj())
            if abs(tr_part) > 0:
                h_eff += (1j / 2) * (np.conj(tr_part) * traceless - tr_part * dag(traceless))
        return cls(
            hamiltonian=HamiltonianSpec.from_matrix(h_eff),
            kossakowski=c,
            basis=tuple(basis),
        )


def commutator_superop(h_matrix: np.ndarray) -> np.ndarray:
    """Matrix of ``X -> [H, X]``."""
    h = np.asarray(h_matrix, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    return kron(eye, h) - kron(h.T, eye)


def lindblad_superop(gen: LindbladGenerator) -> SuperOperator:
    """Schroedinger-picture generator matrix.

    Implements ``-i[H, .] + sum_kl C_kl (F_k . F_l^dag - {F_l^dag F_k, .}/2)``.
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
    the trace dual of :func:`lindblad_superop`.  The library takes duals
    with :func:`heisenberg_dual`; this literal transcription of the formula
    is kept as the reference the tests compare that route against.
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


def heisenberg_dual(s: SuperOperator | KrausChannel) -> SuperOperator:
    """Dual map under the trace pairing ``Tr[S[x] y] == Tr[x S#[y]]``.

    Works for generators and for finite-time maps alike, given as a
    SuperOperator or a KrausChannel, and toggles the picture tag.
    """
    if isinstance(s, KrausChannel):
        s = superop_from_channel(s)
    k = matlin.transpose_superop(s.dim)
    flipped = HEISENBERG if s.picture == SCHRODINGER else SCHRODINGER
    return SuperOperator(k @ s.matrix.T @ k, flipped)


def evolve(superop: SuperOperator, tau: float) -> SuperOperator:
    """Finite-time map ``exp(tau * L)`` of a generator superoperator."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return SuperOperator(matlin.expm(tau * superop.matrix), superop.picture)


def superop_from_channel(channel: KrausChannel) -> SuperOperator:
    """Column-stacking matrix ``sum_j conj(G_j) (x) G_j`` of a Kraus map."""
    d = channel.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for g in channel.kraus_ops:
        m += kron(g.conj(), g)
    return SuperOperator(m, SCHRODINGER)


def choi_matrix(s: SuperOperator) -> np.ndarray:
    """``sum_ij |i><j| (x) S[|i><j|]``: block ``(i, j)`` holds the column
    ``j d + i`` of ``S``, unvectorized, so the Choi matrix is a reshuffle."""
    d = s.dim
    return s.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def _partial_trace_out(choi: np.ndarray, d: int) -> np.ndarray:
    return np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)


@dataclass(frozen=True)
class CptpReport:
    cp_residual: float
    tp_residual: float
    hermiticity_residual: float

    def passes(self, tol: float = 1e-9) -> bool:
        return max(self.cp_residual, self.tp_residual, self.hermiticity_residual) < tol


def is_cptp(s: SuperOperator) -> CptpReport:
    """Report-style CPTP diagnostics of a Schroedinger-picture map; a map
    with non-finite entries gets infinite residuals."""
    if not np.all(np.isfinite(s.matrix)):
        return CptpReport(math.inf, math.inf, math.inf)
    d = s.dim
    choi = choi_matrix(s)
    herm_res = matlin.frobenius(choi - dag(choi))
    sym = (choi + dag(choi)) / 2
    lo = float(np.min(np.linalg.eigvalsh(sym)))
    cp_res = max(0.0, -lo)
    tp_res = matlin.frobenius(_partial_trace_out(choi, d) - np.eye(d))
    return CptpReport(cp_residual=cp_res, tp_residual=tp_res, hermiticity_residual=herm_res)


def channel_from_superop(s: SuperOperator, roundtrip_atol: float = 1e-9) -> KrausChannel:
    """Kraus family from the Choi eigendecomposition of a CPTP map.

    Eigenvalues in ``(-1e-8, 0)`` are clamped to zero (warned above noise
    level); anything more negative raises ``NotCompletelyPositive``.
    """
    report = is_cptp(s)
    if report.cp_residual > CHOI_NEG_HARD:
        raise NotCompletelyPositive(f"Choi minimum eigenvalue is {-report.cp_residual:.3e}")
    if report.tp_residual > CHOI_NEG_HARD:
        raise NotTracePreserving(f"trace-preservation residual is {report.tp_residual:.3e}")
    d = s.dim
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
    channel = KrausChannel(tuple(ops))
    residual = matlin.frobenius(superop_from_channel(channel).matrix - s.matrix)
    if residual > roundtrip_atol:
        raise InternalCheckError(f"Kraus reconstruction misses the superoperator by {residual:.3e}")
    return channel


def apply(channel_or_superop, rho: DensityMatrix) -> DensityMatrix:
    """Send a state through a channel or Schroedinger-picture superoperator."""
    if isinstance(channel_or_superop, KrausChannel):
        out = channel_or_superop.apply_matrix(rho.matrix)
    elif isinstance(channel_or_superop, SuperOperator):
        if channel_or_superop.picture != SCHRODINGER:
            raise ValueError("cannot apply a Heisenberg-picture map to a state")
        out = channel_or_superop.apply_matrix(rho.matrix)
    else:
        raise TypeError(f"cannot apply object of type {type(channel_or_superop).__name__}")
    return DensityMatrix((out + dag(out)) / 2)


@dataclass(frozen=True)
class Dynamics:
    """One dynamics to verify: a semigroup, a channel family or a single map.

    Exactly one of ``generator`` (a Schroedinger-picture generator
    superoperator), ``family`` (a callable ``tau -> KrausChannel``) and
    ``channel`` (one Kraus map, taken at time ``tau``) is set; build a value
    with :meth:`semigroup`, :meth:`channel_family` or :meth:`single_map`.
    """

    h: HamiltonianSpec
    generator: SuperOperator | None
    family: Callable[[float], KrausChannel] | None
    channel: KrausChannel | None
    tau: float | None

    @classmethod
    def semigroup(cls, h: HamiltonianSpec, generator: SuperOperator | LindbladGenerator) -> "Dynamics":
        """Semigroup of a generator ``SuperOperator`` or of a
        ``LindbladGenerator``, whose superoperator is built here, once."""
        if isinstance(generator, LindbladGenerator):
            generator = lindblad_superop(generator)
        return cls(h, generator, None, None, None)

    @classmethod
    def channel_family(cls, h: HamiltonianSpec, family: Callable[[float], KrausChannel]) -> "Dynamics":
        return cls(h, None, family, None, None)

    @classmethod
    def single_map(cls, h: HamiltonianSpec, channel: KrausChannel, tau: float) -> "Dynamics":
        return cls(h, None, None, channel, tau)

    def map_at(self, tau: float) -> SuperOperator | KrausChannel:
        """Schroedinger map at ``tau``: ``exp(tau L)`` as a SuperOperator for
        a semigroup, a KrausChannel otherwise."""
        if self.generator is not None:
            return evolve(self.generator, tau)
        if self.family is not None:
            return self.family(tau)
        return self.channel

    def taus(self, grid) -> tuple:
        """The points of ``grid`` the dynamics is defined on; a single map
        has only its own ``tau``."""
        return tuple(grid) if self.channel is None else (self.tau,)
