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

from .errors import DimensionMismatch, NoConvergence, NotHermitian

HERMITICITY_ATOL = 1e-12

# Degree-13 Pade coefficients (Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179),
# all exact in binary64.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
# Largest 1-norm for which the degree-13 approximant is accurate to unit roundoff.
_THETA_13 = 5.371920351148152
# log2 of 1/|c_27|, the leading coefficient of the backward-error series of the
# degree-13 approximant (Al-Mohy & Higham 2009, SIAM J. Matrix Anal. Appl.
# 31:970), and of the unit roundoff.
_LOG2_C27_INV = float(np.log2(113250775606021113483283660800000000.0))
_LOG2_U = -53.0


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of every slice of a stack
    ``(..., m, n)``; each sum of squares is one dot product of the real and
    one of the imaginary parts in row-major order, so a slice's norm is the
    one ``np.linalg.norm`` takes of its C-ordered copy."""
    x = np.ascontiguousarray(a).reshape(np.shape(a)[:-2] + (1, -1))
    return np.sqrt(sum(y @ y.swapaxes(-1, -2) for y in (x.real, x.imag))[..., 0, 0])


def is_hermitian(a: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    """``max |a - a^dag| <= atol``, taken on halves so that entries near the
    float range do not overflow."""
    a = np.asarray(a)
    return bool(np.max(np.abs(a / 2 - dag(a) / 2), initial=0.0) <= atol / 2)


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


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or of every slice of a stack ``(..., n, n)``.

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005),
    with the scaling of Al-Mohy & Higham 2009: each slice ``A`` is scaled by
    its own power of two ``2^-s``, with ``s`` taken from the exact 1-norms
    ``||A^k||^(1/k)`` of ``A^6 ... A^10`` rather than from ``||A||``, which
    overscales non-normal matrices, plus the squarings that the backward
    error bound built on ``|A|^27`` asks for.  Each slice is squared ``s``
    times, so slices of small norm take no squarings.  A slice with a
    non-finite entry or 1-norm comes back all nan, and an approximant or
    squarings that overflow give inf or nan entries; neither raises or warns.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expm: expected square matrices, got shape {m.shape}")
    n = m.shape[-1]
    a = m.reshape(-1, n, n)
    b = _PADE13
    eye = np.eye(n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        norm = _norm1(a)
        finite = np.isfinite(norm)
        if not finite.all():
            a = np.where(finite[:, None, None], a, 0.0)
            norm = np.where(finite, norm, 0.0)
        # a0 = 2^-e A has 1-norm at most 1, so none of its powers overflows
        e = np.maximum(np.frexp(norm)[1], 0)
        a0 = _ldexp(a, -e)
        a2 = a0 @ a0
        a4 = a2 @ a2
        a6 = a4 @ a2
        d6, d8, d10 = _norm1(np.stack([a6, a4 @ a4, a4 @ a6])) ** np.array([[1 / 6], [1 / 8], [1 / 10]])
        eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
        s = np.maximum(e + np.ceil(np.log2(eta / _THETA_13)), 0.0)
        # add squarings until the backward-error bound |c_27| || |2^-s A|^27 || /
        # ||2^-s A|| is at most u; q = || |a0|^27 ||, the largest entry of the
        # row 1^T |a0|^27 as |a0| >= 0, and excess is log2 of the bound over u
        p = np.abs(a0)
        p2 = p @ p
        p4 = p2 @ p2
        p8 = p4 @ p4
        q = (np.ones((len(a), 1, n)) @ p @ p2 @ p8 @ (p8 @ p8)).max(axis=(1, 2), initial=0.0)
        excess = 26 * (e - s) + np.log2(q / np.ldexp(norm, -e)) - _LOG2_C27_INV - _LOG2_U
        s = (s + np.where(q > 0, np.maximum(np.ceil(excess / 26), 0.0), 0.0)).astype(int)
        k = e - s
        a, a2, a4, a6 = (_ldexp(x, j * k) for j, x in ((1, a0), (2, a2), (4, a4), (6, a6)))
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        # r_13 = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U.  In the second form
        # the rounding of the solve scales with U, which vanishes on a left null
        # vector of A (the trace row of a Lindblad generator), so the error
        # along that vector, which every squaring doubles, stays small
        x = eye + 2.0 * np.linalg.solve(v - u, u)
        for step in range(1, int(s.max(initial=0)) + 1):
            todo = s >= step
            x[todo] = x[todo] @ x[todo]
    x[~finite] = np.nan
    return x.reshape(m.shape)


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of every slice of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _ldexp(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``2^k a`` for every slice of a complex stack, exact short of under- or
    overflow, and 0 for a 0 entry whatever ``k``."""
    if np.all((k >= -1074) & (k <= 1023)):  # 2^k is a finite nonzero double
        return a * np.ldexp(1.0, k)[:, None, None]
    return np.ldexp(np.ascontiguousarray(a).view(float), k[:, None, None]).view(complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, as one broadcast product: each
    entry is the single product ``np.kron`` takes."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b)  # b is promoted to complex in the product
    return (a[:, None, :, None] * b[:, None]).reshape(len(a) * len(b), -1)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex)
    if v.size != rows * cols:
        raise DimensionMismatch(f"unvec: {v.size} entries cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")

