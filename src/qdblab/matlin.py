"""Dense complex linear-algebra kernel.

Everything else in the package runs through the primitives below: Hermitian
eigendecompositions, matrix exponentials, Kronecker products and
column-stacking vectorization.  Conventions:

* ``vec`` stacks columns, so ``vec(X @ Y @ Z) == kron(Z.T, X) @ vec(Y)``
  holds exactly;
* Hermitian eigenvalues come back ascending and each eigenvector column is
  rotated so its largest-magnitude entry is real and positive, which keeps
  downstream reports reproducible;
* all arrays are ``complex128`` and all functions are pure.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NoConvergence, NotHermitian

HERMITICITY_ATOL = 1e-12


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)))


def is_hermitian(a: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - dag(a))) <= atol)


def _require_square(m: np.ndarray, who: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{who}: expected a square matrix, got shape {m.shape}")


def herm_eig(m: np.ndarray, atol: float = HERMITICITY_ATOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with ascending eigenvalues ``w`` and orthonormal
    eigenvector columns ``v`` satisfying ``m @ v == v @ diag(w)``.
    """
    m = np.asarray(m, dtype=complex)
    _require_square(m, "herm_eig")
    if not is_hermitian(m, atol):
        raise NotHermitian(f"max |m - m^dag| entry exceeds {atol:g}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover, LAPACK rarely stalls
        raise NoConvergence(str(exc)) from exc
    v = np.array(v, dtype=complex)
    for k in range(v.shape[1]):
        pivot = v[int(np.argmax(np.abs(v[:, k]))), k]
        v[:, k] *= np.conj(pivot) / abs(pivot)
    return w, v


def herm_power(m: np.ndarray, p: float, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """``m**p`` for Hermitian ``m`` via eigendecomposition.

    Fractional or negative powers require strictly positive eigenvalues.
    """
    w, v = herm_eig(m, atol)
    if (p != int(p) or p < 0) and float(np.min(w)) <= 0.0:
        raise ValueError("herm_power: nonpositive eigenvalue with fractional/negative power")
    return (v * np.power(w, p)) @ dag(v)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling and squaring)."""
    m = np.asarray(m, dtype=complex)
    _require_square(m, "expm")
    return scipy.linalg.expm(m)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex)
    if v.size != rows * cols:
        raise DimensionMismatch(f"unvec: {v.size} entries cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")


def transpose_superop(d: int) -> np.ndarray:
    """Permutation matrix ``K`` with ``K @ vec(M) == vec(M.T)``."""
    return np.eye(d * d, dtype=complex)[np.arange(d * d).reshape(d, d).T.ravel()]
