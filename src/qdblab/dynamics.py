"""CPTP dynamics: Lindblad generators, superoperator matrices, CPTP
verification and ``Dynamics``, whose maps at a time grid come as stacks
that every check, ``classify`` of a channel family too, reads; no map is
evolved, applied or made Kraus alone.

A map is a plain Schroedinger-picture ``d^2 x d^2`` matrix acting on
column-stacked operators, a Kraus family a zero-padded stack ``(t, j, d,
d)``; the Heisenberg picture, the trace dual, is taken only inside
``balance``.  The Choi matrix convention is

    Choi = sum_ij |i><j| (x) Map[|i><j|],

so complete positivity is positivity of the Choi matrix and trace
preservation is ``Tr_out[Choi] == I`` (partial trace over the second
factor).  Both conventions interlock with the column-stacking ``vec`` and
are covered by roundtrip tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matlin
from .errors import ConfigError, DimensionMismatch, KossakowskiNotPSD, NotTracePreserving, until_failure
from .matlin import dag, kron
from .states import HamiltonianSpec

TP_ATOL = 1e-10
PSD_ATOL = 1e-10
BASIS_ATOL = 1e-12


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


def _operator_stack(ops, d: int, what: str) -> np.ndarray:
    """The matrices of ``ops`` as a stack ``(k, d, d)``, also for no matrices;
    raises ``DimensionMismatch`` unless each is d x d."""
    ops = [np.asarray(f, dtype=complex) for f in ops]
    if any(f.shape != (d, d) for f in ops):
        raise DimensionMismatch(f"{what} shape does not match the Hamiltonian")
    return np.array(ops).reshape(len(ops), d, d)


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian plus Kossakowski matrix over traceless operators.

    ``basis`` is a stack ``(k, d, d)`` of traceless operators ``F_k`` and
    ``kossakowski`` the k x k positive semidefinite matrix ``C`` that weights
    them; the identity direction never enters the dissipator.  The operators
    need not be orthonormal, nor ``d^2 - 1`` in number.
    """

    hamiltonian: HamiltonianSpec
    kossakowski: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.kossakowski, dtype=complex)
        object.__setattr__(self, "kossakowski", c)
        basis = _operator_stack(self.basis, self.dim, "dissipator basis matrix")
        object.__setattr__(self, "basis", basis)
        n = len(basis)
        if c.shape != (n, n):
            raise DimensionMismatch(f"Kossakowski matrix must be {n}x{n}, got {c.shape}")
        if not matlin.is_hermitian(c, PSD_ATOL):
            raise KossakowskiNotPSD("Kossakowski matrix is not Hermitian")
        # halves first: the sum of two entries near the float range would overflow
        lo = float(np.min(np.linalg.eigvalsh(c / 2 + dag(c) / 2), initial=0.0))
        if lo < -PSD_ATOL:
            raise KossakowskiNotPSD(f"Kossakowski matrix has negative eigenvalue {lo:.3e}")
        traced = np.flatnonzero(np.abs(np.trace(basis, axis1=1, axis2=2)) > BASIS_ATOL)
        if traced.size:
            raise ValueError(f"dissipator basis matrix {traced[0]} is not traceless")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @classmethod
    def canonical(cls, hamiltonian: HamiltonianSpec, kossakowski: np.ndarray) -> "LindbladGenerator":
        """Generator over the canonical (Gell-Mann style) traceless basis."""
        basis = np.array(gell_mann_basis(hamiltonian.dim)[:-1])
        return cls(hamiltonian=hamiltonian, kossakowski=kossakowski, basis=basis)

    @classmethod
    def from_jump_operators(cls, hamiltonian: HamiltonianSpec, jump_ops) -> "LindbladGenerator":
        """Generator with dissipator ``sum_j (L_j . L_j^dag - {L_j^dag L_j, .}/2)``.

        The traceless parts of the jumps are the basis, with ``C = I``, so no
        rate is rebuilt from a projection.  A jump's trace part is absorbed
        into an effective Hamiltonian shift; without one, ``hamiltonian`` is
        kept with its eigendecomposition.
        """
        d = hamiltonian.dim
        jumps = _operator_stack(jump_ops, d, "jump operator")
        tr_parts = np.trace(jumps, axis1=1, axis2=2) / d
        traceless = jumps - tr_parts[:, None, None] * np.eye(d)
        if np.any(tr_parts != 0):
            h_eff = np.array(hamiltonian.matrix, dtype=complex)
            for tr_part, f in zip(tr_parts, traceless):
                if abs(tr_part) > 0:
                    h_eff += (1j / 2) * (np.conj(tr_part) * f - tr_part * dag(f))
            hamiltonian = HamiltonianSpec.from_matrix(h_eff)
        return cls(
            hamiltonian=hamiltonian,
            kossakowski=np.eye(len(jumps), dtype=complex),
            basis=traceless,
        )


def commutator_superop(h_matrix: np.ndarray) -> np.ndarray:
    """Matrix of ``X -> [H, X]``."""
    h = np.asarray(h_matrix, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    return kron(eye, h) - kron(h.T, eye)


def lindblad_superop(gen: LindbladGenerator) -> np.ndarray:
    """Schroedinger-picture generator matrix.

    Implements ``-i[H, .] + sum_kl C_kl (F_k . F_l^dag - {F_l^dag F_k, .}/2)``
    as ``-i[H, .] + sum_l conj(F_l) (x) G_l - (I (x) A + A^T (x) I)/2`` with
    ``G_l = sum_k C_kl F_k`` and ``A = sum_l F_l^dag G_l``.  An entry that
    overflows reads inf or nan, which :meth:`Dynamics.semigroup` rejects.
    """
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    f = gen.basis
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.einsum("kl,kab->lab", gen.kossakowski, f)
        a = np.einsum("lba,lbc->ac", f.conj(), g)
        jumps = np.einsum("lab,lce->acbe", f.conj(), g).reshape(d * d, d * d)
        return -1j * commutator_superop(gen.hamiltonian.matrix) + jumps - 0.5 * (kron(eye, a) + kron(a.T, eye))


def evolve_grid(generator: np.ndarray, taus) -> np.ndarray:
    """The matrices of ``exp(tau * L)`` for every ``tau`` of ``taus``,
    stacked ``(t, d^2, d^2)``, from one stacked matrix exponential; a stack
    ``(p, d^2, d^2)`` of generators takes a ``(p, t)`` grid of taus."""
    taus = np.asarray(taus, dtype=float).reshape(np.shape(generator)[:-2] + (-1,))  # a row per generator
    if np.any(taus < 0):
        raise ValueError("tau must be nonnegative")
    with np.errstate(over="ignore"):  # tau L may overflow; expm turns it to nan
        return matlin.expm(taus[..., None, None] * generator[..., None, :, :])


def _kraus_superops(kraus: np.ndarray) -> np.ndarray:
    """``sum_j conj(G_j) (x) G_j`` for every slice of a zero-padded Kraus stack
    ``(t, j, d, d)``, summed over ``j`` in order."""
    t, _, d, _ = kraus.shape
    s = np.zeros((t, d * d, d * d), dtype=complex)
    for g in kraus.transpose(1, 0, 2, 3):
        s += (g.conj()[:, :, None, :, None] * g[:, None, :, None, :]).reshape(t, d * d, d * d)
    return s


def _kraus_stacks(kraus: np.ndarray, h: HamiltonianSpec) -> tuple:
    """The ``(superops, kraus)`` stacks of a zero-padded Kraus stack ``(t, j,
    d, d)``, checked for ``sum_j G^dag G == I``, first failing slice first,
    and then for h's dimension."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan residual fails below
        gram = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=1)
    res = np.abs(gram - np.eye(kraus.shape[-1])).max(axis=(1, 2))
    failing = np.flatnonzero(~(res <= TP_ATOL))  # a nan residual fails too
    if failing.size:
        raise NotTracePreserving(f"sum G^dag G differs from identity by {res[failing[0]]:.3e}")
    if kraus.shape[2:] != (h.dim,) * 2:
        raise DimensionMismatch("channel dimension does not match the Hamiltonian")
    return _kraus_superops(kraus), kraus


def require_superop_dim(superops: np.ndarray, h: HamiltonianSpec) -> np.ndarray:
    """``superops``, a map matrix or stack, once checked to act on h's operators."""
    if superops.shape[-2:] != (h.dim**2,) * 2:
        raise DimensionMismatch("superoperator dimension does not match the Hamiltonian")
    return superops


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """``sum_ij |i><j| (x) S[|i><j|]``: block ``(i, j)`` holds the column
    ``j d + i`` of ``S``, unvectorized, so the Choi matrix is a reshuffle."""
    d = math.isqrt(s.shape[0])
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def _partial_trace_out(choi: np.ndarray, d: int) -> np.ndarray:
    return np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)


def is_cptp(s: np.ndarray) -> tuple:
    """CPTP residuals ``(cp, tp, herm)`` of a Schroedinger-picture map: the
    Choi matrix's most negative eigenvalue (0 if none), the defect of
    ``Tr_out[Choi] == I`` and the Choi matrix's anti-Hermitian part, the
    last two as Frobenius norms.  A map with non-finite entries gets
    infinite residuals."""
    if not np.all(np.isfinite(s)):
        return math.inf, math.inf, math.inf
    d = math.isqrt(s.shape[0])
    choi = choi_matrix(s)
    herm_res = matlin.frobenius(choi - dag(choi))
    sym = (choi + dag(choi)) / 2
    lo = float(np.min(np.linalg.eigvalsh(sym)))
    cp_res = max(0.0, -lo)
    tp_res = matlin.frobenius(_partial_trace_out(choi, d) - np.eye(d))
    return cp_res, tp_res, herm_res


@dataclass(frozen=True)
class Dynamics:
    """One dynamics to verify: a semigroup or a Kraus channel family.

    Exactly one of ``generator`` (the Schroedinger-picture generator matrix)
    and ``family`` (a callable ``taus -> (t, j, d, d)`` Kraus stack,
    zero-padded) is set.  A single map is a family at one time: its ``tau``
    is set, and its family repeats the map at every requested time.  Build a
    value with :meth:`semigroup`, :meth:`channel_family` or
    :meth:`single_map`.
    """

    h: HamiltonianSpec
    generator: np.ndarray | None
    family: Callable[[tuple], np.ndarray] | None
    tau: float | None

    @classmethod
    def semigroup(cls, h: HamiltonianSpec, generator: np.ndarray | LindbladGenerator) -> "Dynamics":
        """Semigroup of a generator matrix or of a ``LindbladGenerator``,
        whose matrix is built here, once; a generator with a non-finite
        entry or 1-norm, one that overflowed, raises ``ConfigError``."""
        if isinstance(generator, LindbladGenerator):
            generator = lindblad_superop(generator)
        with np.errstate(over="ignore"):  # finite entries whose sum overflows would give nan maps
            if not np.isfinite(np.abs(require_superop_dim(generator, h)).sum(axis=0).max()):
                what = "'s 1-norm is not finite" if np.all(np.isfinite(generator)) else " has a non-finite entry"
                raise ConfigError(f"the model overflows: its generator{what}")
        return cls(h, generator, None, None)

    @classmethod
    def channel_family(cls, h: HamiltonianSpec, family: Callable[[tuple], np.ndarray]) -> "Dynamics":
        return cls(h, None, family, None)

    @classmethod
    def single_map(cls, h: HamiltonianSpec, kraus_ops, tau: float) -> "Dynamics":
        """The one map of the Kraus operators ``kraus_ops``, taken at ``tau``."""
        ops = [np.asarray(g, dtype=complex) for g in kraus_ops]
        if not ops:
            raise NotTracePreserving("empty Kraus family cannot preserve the trace")
        if any(g.ndim != 2 or g.shape != (len(ops[0]),) * 2 for g in ops):
            raise DimensionMismatch("all Kraus operators must be square with equal size")
        _, kraus = _kraus_stacks(np.array([ops]), h)
        return cls(h, None, lambda taus: np.repeat(kraus, len(taus), axis=0), tau)

    def maps(self, taus) -> tuple:
        """Schroedinger maps at every point of ``taus`` as the stack ``(t,
        d^2, d^2)`` of their matrices and the zero-padded stack ``(t, j, d,
        d)`` of their Kraus operators, None for a semigroup, whose maps come
        from one stacked exponential."""
        if self.generator is not None:
            return evolve_grid(self.generator, taus), None
        return _kraus_stacks(np.asarray(self.family(taus), dtype=complex), self.h)

    def taus(self, grid) -> tuple:
        """The points of ``grid`` the dynamics is defined on; a single map
        has only its own ``tau``."""
        return tuple(grid) if self.tau is None else (self.tau,)


def maps_of(sources: list, taus: list) -> tuple:
    """``source.maps(t)`` for each source and time tuple, as ``(maps, failure)``
    of :func:`until_failure`; the semigroups, of one dimension, take one
    exponential over (source, tau), each time tuple padded with 0."""
    grids = [(s.generator, t) for s, t in zip(sources, taus) if s.generator is not None]
    width = max((len(t) for _, t in grids), default=0)
    padded = [t + (0,) * (width - len(t)) for _, t in grids]
    stack = grids and iter(evolve_grid(np.array([g for g, _ in grids]), padded))
    return until_failure(
        lambda s, t: s.maps(t) if s.generator is None else (next(stack)[: len(t)], None), sources, taus
    )
