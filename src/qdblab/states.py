"""Hamiltonians, thermal level populations and inverse-temperature
inference, plus the standard Pauli matrices.

A thermal state enters only through its level populations in the
Hamiltonian's eigenbasis, and a state is a plain Hermitian matrix, held in
H's eigenframe, as ``dynamics.maps_of`` hands on the generators and maps
it comes from.
Level indices always follow the Hamiltonian's ascending eigenvalue order, so
index 0 is the ground level.
"""

from __future__ import annotations

import math

import numpy as np

from . import matlin

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# a population: the eigenvalues of a unit-trace state are its populations in its eigenbasis
STATE_ATOL = 1e-10
# relative to H's spectral range E_max - E_min: an adjacent-level gap at or below that fraction of it is a
# degeneracy, where beta is undefined; a change of units scales both alike
DEGENERACY_ATOL = 1e-12
# a population: an off-diagonal entry |rho_mn| of a state is at most sqrt(p_m p_n)
THERMAL_OFFDIAG_ATOL = 1e-8
# relative to the estimate |beta|, floored at 1 in H's inverse energy units, on each pair's gap
BETA_AGREE_RTOL = 1e-6


class HamiltonianSpec:
    """Hermitian Hamiltonian with its ascending eigenstructure, or a stack of
    them: indexing a stack gives the spec of its points, so iterating it
    gives each point's."""

    def __init__(self, matrix, eigenvalues, eigenvectors):
        self.matrix, self.eigenvalues, self.eigenvectors = matrix, eigenvalues, eigenvectors

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "HamiltonianSpec":
        """The spec of a matrix, or the stacked spec of a stack ``(..., d, d)``."""
        matrix = np.asarray(matrix, dtype=complex)
        w, v = matlin.herm_eig(matrix)
        return cls(matrix=matrix, eigenvalues=w, eigenvectors=v)

    def __getitem__(self, index) -> "HamiltonianSpec":
        return HamiltonianSpec(self.matrix[index], self.eigenvalues[index], self.eigenvectors[index])

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


def infer_beta(rho: np.ndarray, h: HamiltonianSpec) -> tuple:
    """Inverse temperatures of the thermal states of a stack ``rho`` ``(k, d,
    d)``, each in the eigenframe of its point of h's stack ``(k, ...)``, as
    ``(beta, low)``: an array of them, nan for a state that is not thermal,
    and each state's lowest eigenvalue.

    Each ``rho`` is a Hermitian unit-trace matrix; one whose lowest
    eigenvalue is below ``-STATE_ATOL`` is no state, and not thermal.
    A thermal state is diagonal in that (nondegenerate) eigenframe, within
    ``THERMAL_OFFDIAG_ATOL``.  The estimate comes from the largest-gap level
    pair; every other pair must agree within ``BETA_AGREE_RTOL`` (relative,
    with an absolute floor of the same size so beta = 0 is recognized).
    Vanishing populations are accepted only for an effectively beta = inf
    profile, reported as ``inf``.
    """
    low, e = np.linalg.eigvalsh(rho)[:, 0], h.eigenvalues
    gaps = e[:, 1:] - e[:, :-1]  # of adjacent levels
    p = rho.diagonal(axis1=1, axis2=2).real
    # no state, degenerate levels, or off-diagonal weight; a nan passes each test
    bad = (low < -STATE_ATOL) | (gaps.min(axis=1, initial=math.inf) <= DEGENERACY_ATOL * (e[:, -1] - e[:, 0]))
    bad |= np.abs(rho - rho * np.eye(h.dim)).max(axis=(1, 2)) > THERMAL_OFFDIAG_ATOL
    # populations: from 1 - 1e-10 the ground level holds the whole state, and below 1e-14 a level's population
    # is read as vanishing, so its log is not taken
    beta = np.where(~bad & (p[:, 0] >= 1.0 - 1e-10) & (p[:, 1:].max(axis=1, initial=0.0) < 1e-14), math.inf, math.nan)
    # the same population floor 1e-14: a state with a vanishing level has no finite beta
    ok = ~(bad | (p.min(axis=1) < 1e-14))
    p, e, gaps = p[ok], e[ok], gaps[ok]
    # math.log, whose last bit numpy's log need not match, for the estimate that is reported
    b = (np.array([math.log(x) for x in p[:, 0] / p[:, -1]]) / (e[:, -1] - e[:, 0]))[:, None]
    # each adjacent pair's log(p_m / p_n) / (E_n - E_m) against the estimate, multiplied out; as the levels
    # ascend, the gaps and logs of a pair are the sums of its adjacent pairs', so every pair agrees when these do
    far = np.abs(np.log(p[:, :-1] / p[:, 1:]) - b * gaps) > BETA_AGREE_RTOL * np.maximum(np.abs(b), 1.0) * gaps
    beta[ok] = np.where(far.any(axis=1), math.nan, b[:, 0])
    return beta, low
