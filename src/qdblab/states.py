"""States and Hamiltonians: Gibbs states, level populations and
inverse-temperature inference, plus the standard Pauli matrices.

Level indices always follow the Hamiltonian's ascending eigenvalue order,
so index 0 is the ground level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matlin
from .errors import (
    DegenerateGround,
    DimensionMismatch,
    NotAState,
    NotThermal,
    ZeroPopulation,
)
from .matlin import dag

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

STATE_ATOL = 1e-10
DEGENERACY_ATOL = 1e-12
THERMAL_OFFDIAG_ATOL = 1e-8
BETA_AGREE_RTOL = 1e-6


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hermitian Hamiltonian with its ascending eigenstructure."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "HamiltonianSpec":
        matrix = np.asarray(matrix, dtype=complex)
        w, v = matlin.herm_eig(matrix)
        return cls(matrix=matrix, eigenvalues=w, eigenvectors=v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def projector(self, m: int) -> np.ndarray:
        """Eigenprojector of the m-th (ascending) level."""
        col = self.eigenvectors[:, m : m + 1]
        return col @ dag(col)

    def is_nondegenerate(self, atol: float = DEGENERACY_ATOL) -> bool:
        if self.dim < 2:
            return True
        return bool(np.min(np.diff(self.eigenvalues)) > atol)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotAState(f"state must be a square matrix, got shape {m.shape}")
        if not matlin.is_hermitian(m, STATE_ATOL):
            raise NotAState("state is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > STATE_ATOL:
            raise NotAState(f"state trace is {tr:.12g}, expected 1")
        lo = float(np.min(np.linalg.eigvalsh((m + dag(m)) / 2)))
        if lo < -STATE_ATOL:
            raise NotAState(f"state has negative eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def gibbs(h: HamiltonianSpec, beta: float) -> DensityMatrix:
    """Thermal state ``e^{-beta H} / Tr[e^{-beta H}]`` in h's eigenbasis.

    Energies are shifted by the ground level before exponentiating so large
    beta stays finite.  ``beta == inf`` returns the ground projector and
    requires a unique ground level.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    w, v = h.eigenvalues, h.eigenvectors
    if math.isinf(beta):
        if h.dim > 1 and w[1] - w[0] <= DEGENERACY_ATOL:
            raise DegenerateGround("ground level is degenerate, beta=inf state undefined")
        return DensityMatrix(h.projector(0))
    weights = np.exp(-beta * (w - w[0]))
    p = weights / weights.sum()
    return DensityMatrix((v * p) @ dag(v))


def populations(rho: DensityMatrix, h: HamiltonianSpec) -> np.ndarray:
    """Level populations ``p_m = <m|rho|m>`` over h's ascending eigenbasis."""
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != Hamiltonian dim {h.dim}")
    v = h.eigenvectors
    p = np.real(np.einsum("im,ij,jm->m", v.conj(), rho.matrix, v))
    if float(np.min(p)) < -1e-12:
        raise NotAState(f"negative population {np.min(p):.3e}")
    return p


def infer_beta(rho: DensityMatrix, h: HamiltonianSpec) -> float:
    """Inverse temperature of a thermal state, or raise ``NotThermal``.

    The state must be diagonal in h's (nondegenerate) eigenbasis, within
    ``THERMAL_OFFDIAG_ATOL``.  The estimate comes from the largest-gap level
    pair; every other pair must agree within ``BETA_AGREE_RTOL`` (relative, with an absolute floor of the
    same size so beta = 0 is recognized).  Vanishing populations are
    accepted only for an effectively beta = inf profile, reported as
    ``math.inf``; any other vanishing population raises ``ZeroPopulation``.
    """
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != Hamiltonian dim {h.dim}")
    if not h.is_nondegenerate():
        raise NotThermal("Hamiltonian spectrum is degenerate, beta inference undefined")
    v = h.eigenvectors
    a = dag(v) @ rho.matrix @ v
    off = a - np.diag(np.diag(a))
    if float(np.max(np.abs(off))) > THERMAL_OFFDIAG_ATOL:
        raise NotThermal(f"state has off-diagonal weight {np.max(np.abs(off)):.3e} in the energy eigenbasis")
    p = np.real(np.diag(a))
    e = h.eigenvalues
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
                raise NotThermal(
                    f"pairwise inverse temperatures disagree: {b_mn:.6g} vs {beta_hat:.6g}"
                )
    return beta_hat
