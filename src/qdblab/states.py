"""Hamiltonians, thermal level populations and inverse-temperature
inference, plus the standard Pauli matrices.

A thermal state enters only through its level populations in the
Hamiltonian's eigenbasis, and a state is a plain Hermitian matrix.  Level
indices always follow the Hamiltonian's ascending eigenvalue order, so
index 0 is the ground level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matlin
from .errors import NotAState, NotThermal, ZeroPopulation
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
    """Hermitian Hamiltonian with its ascending eigenstructure, or a stack of them."""

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
        return self.matrix.shape[-1]


def thermal_populations(h: HamiltonianSpec, beta) -> np.ndarray:
    """Level populations ``e^{-beta E_m} / Z`` of the thermal state over h's
    ascending levels, for a finite ``beta >= 0`` or an array of them, which
    broadcasts with a stack of h's eigenvalues.

    Energies are shifted by the ground level before exponentiating, so a
    large beta stays finite; a weight whose exponent overflows is 0.
    """
    e = h.eigenvalues
    with np.errstate(over="ignore"):
        weights = np.exp(-np.asarray(beta, dtype=float)[..., None] * (e - e[..., :1]))
    return weights / weights.sum(axis=-1, keepdims=True)


def infer_beta(rho: np.ndarray, h: HamiltonianSpec) -> float:
    """Inverse temperature of a thermal state, or raise ``NotThermal``.

    ``rho`` is a Hermitian unit-trace matrix; one with a negative eigenvalue
    (below ``-STATE_ATOL``) is no state and raises ``NotAState``.  The state
    must be diagonal in h's (nondegenerate) eigenbasis, within
    ``THERMAL_OFFDIAG_ATOL``.  The estimate comes from the largest-gap level
    pair; every other pair must agree within ``BETA_AGREE_RTOL`` (relative, with an absolute floor of the
    same size so beta = 0 is recognized).  Vanishing populations are
    accepted only for an effectively beta = inf profile, reported as
    ``math.inf``; any other vanishing population raises ``ZeroPopulation``.
    """
    lo = float(np.min(np.linalg.eigvalsh(rho)))
    if lo < -STATE_ATOL:
        raise NotAState(f"state has negative eigenvalue {lo:.3e}")
    e = h.eigenvalues
    if float(np.min(np.diff(e), initial=math.inf)) <= DEGENERACY_ATOL:
        raise NotThermal("Hamiltonian spectrum is degenerate, beta inference undefined")
    v = h.eigenvectors
    a = dag(v) @ rho @ v
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
                raise NotThermal(
                    f"pairwise inverse temperatures disagree: {b_mn:.6g} vs {beta_hat:.6g}"
                )
    return beta_hat
