"""Dense complex linear-algebra kernel.

Everything else in the package runs through the primitives below: Hermitian
eigendecompositions, the exponentials ``exp(tau L)`` of generators over a grid
of ``tau`` (each generator analysed once, each ``tau`` by its own scaling),
Kronecker products and column-stacking vectorization.  Conventions:

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

# absolute, in the entries' own units: the asymmetry of a matrix that is Hermitian up to the roundoff of
# entries of order 1; it does not scale with H's spectral range
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
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of every slice of a stack
    ``(..., m, n)``; each sum of squares is one dot product of the real and
    one of the imaginary parts in row-major order, so a slice's norm is the
    one ``np.linalg.norm`` takes of its C-ordered copy."""
    x = np.ascontiguousarray(a).reshape(np.shape(a)[:-2] + (1, -1))
    return np.sqrt(sum(y @ y.swapaxes(-1, -2) for y in (x.real, x.imag))[..., 0, 0])


def is_hermitian(a: np.ndarray, atol=HERMITICITY_ATOL) -> bool:
    """``max |a - a^dag| <= atol`` for a matrix, or for every matrix of a
    stack with an ``atol`` that broadcasts over it, taken on halves so that
    entries near the float range do not overflow."""
    a = np.asarray(a)
    return bool((np.abs(a / 2 - dag(a) / 2) <= np.asarray(atol)[..., None, None] / 2).all())


def herm_eig(m: np.ndarray, atol: float = HERMITICITY_ATOL):
    """Eigendecomposition of a Hermitian matrix, or of every matrix of a
    stack ``(..., n, n)``, each slice the one its own call gives.

    Returns ``(w, v)`` with ascending eigenvalues ``w`` and orthonormal
    eigenvector columns ``v`` satisfying ``m @ v == v @ diag(w)``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"herm_eig: expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m, atol):
        raise NotHermitian(f"max |m - m^dag| entry exceeds {atol:g}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover, LAPACK rarely stalls
        raise NoConvergence(str(exc)) from exc
    # each column times the phase that makes its first largest-magnitude entry real and positive; the
    # hypot of the strided parts is the one abs() takes of each scalar, which numpy's vectorized abs need not be
    pivot = np.take_along_axis(v, np.abs(v).argmax(axis=-2)[..., None, :], axis=-2)
    return w, v * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


def expm(generators: np.ndarray, taus) -> np.ndarray:
    """``exp(tau L)`` for every ``tau`` of the 1-D grid ``taus`` and every
    generator ``L`` of a matrix or stack ``(..., n, n)``, stacked ``(..., t,
    n, n)``.

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005),
    with the scaling of Al-Mohy & Higham 2009.  Both scale with ``tau``, so
    each generator is analysed once: with ``e`` the exponent of ``||L||_1``
    and ``B = 2^-e L``, it takes the exact 1-norms ``||B^k||^(1/k)`` of ``B^6
    ... B^10`` (rather than ``||B||``, which overscales non-normal matrices),
    the backward error bound built on ``|B|^27`` and the powers ``B^2, B^4,
    B^6``.  Each ``tau`` then takes its squaring count ``s`` from ``log2
    tau``, its slice ``A = c B`` with ``c = tau 2^(e - s)`` and ``A^2k = c^2k
    B^2k``; only the approximant's three products and one solve, and its
    ``s`` squarings, run per slice, so slices of small ``tau ||L||`` take no
    squarings.  Every slice is the one a one-``tau`` or one-generator call
    gives, bit for bit.
    A slice whose ``tau ||L||_1`` is not finite comes back all nan, and an
    approximant or squarings that overflow give inf or nan entries; neither
    raises or warns.
    """
    l = np.asarray(generators, dtype=complex)
    taus = np.asarray(taus, dtype=float)
    n = l.shape[-1]
    g = l.reshape(-1, n, n)
    b = _PADE13
    eye = np.eye(n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        norm = norm1(g)
        finite = np.isfinite(taus * norm[:, None])
        if not finite.all():  # a generator with a non-finite entry is analysed as 0
            ok = np.isfinite(norm)
            g, norm = np.where(ok[:, None, None], g, 0.0), np.where(ok, norm, 0.0)
        # once per generator: B = 2^-e L has 1-norm in [1/2, 1), so none of its
        # powers overflows
        e = np.frexp(norm)[1]
        b1 = _scale(g, 1.0, -e)
        b2 = b1 @ b1
        b4 = b2 @ b2
        b6 = b4 @ b2
        d6, d8, d10 = norm1(np.stack([b6, b4 @ b4, b4 @ b6])) ** np.array([[1 / 6], [1 / 8], [1 / 10]])
        eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
        # q = || |B|^27 ||, the largest entry of the row 1^T |B|^27 as |B| >= 0
        p = np.abs(b1)
        p2 = p @ p
        p4 = p2 @ p2
        p8 = p4 @ p4
        q = (np.ones((len(g), 1, n)) @ p @ p2 @ p8 @ (p8 @ p8)).max(axis=(1, 2), initial=0.0)
        # per tau = m 2^j with 1 <= |m| < 2, so that tau L = m 2^(j + e) B
        m, j = np.frexp(np.where(finite, taus, 0.0))
        m, j = 2.0 * m, j - 1 + e[:, None]
        log2m = np.log2(np.abs(m))
        s = np.maximum(j + np.ceil(log2m + np.log2(eta / _THETA_13)[:, None]), 0.0)
        # add squarings until the backward-error bound |c_27| || |2^-s tau L|^27 ||
        # / ||2^-s tau L|| is at most u; excess is log2 of the bound over u
        excess = 26 * (j - s) + 26 * log2m + np.log2(q / np.ldexp(norm, -e))[:, None] - _LOG2_C27_INV - _LOG2_U
        s = (s + np.where(q[:, None] > 0, np.maximum(np.ceil(excess / 26), 0.0), 0.0)).astype(int)
        # per slice: A^i = m^i 2^(i (j - s)) B^i
        a, a2, a4, a6 = (_scale(x[:, None], m**i, i * (j - s)) for i, x in ((1, b1), (2, b2), (4, b4), (6, b6)))
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        # r_13 = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U.  In the second form
        # the rounding of the solve scales with U, which vanishes on a left null
        # vector of A (the trace row of a Lindblad generator), so the error
        # along that vector, which every squaring doubles, stays small
        v -= u
        x = np.linalg.solve(v, u).reshape(-1, n, n)
        x *= 2.0
        x += eye
        s = s.reshape(-1)
        for step in range(1, int(s.max(initial=0)) + 1):
            todo = s >= step
            y = x[todo]
            x[todo] = y @ y
    x[~finite.reshape(-1)] = np.nan
    return x.reshape(l.shape[:-2] + taus.shape + (n, n))


def norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of every slice of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def unit_norm1(a: np.ndarray) -> np.ndarray:
    """Every slice of a stack over its 1-norm; a zero slice stays 0."""
    norms = norm1(a)[..., None, None]
    return a / np.where(norms > 0, norms, 1.0)


def _scale(a: np.ndarray, m, k) -> np.ndarray:
    """``m 2^k a`` for every slice of a complex stack ``a`` ``(..., n, n)``,
    with ``m`` (``|m| < 2^7``) and the integer ``k`` broadcast over its
    leading axes; exact for ``|m| = 1`` short of under- or overflow, and 0
    for a 0 entry whatever ``k``."""
    m, k = np.asarray(m)[..., None, None], np.asarray(k)[..., None, None]
    if np.all((k >= -1074) & (k <= 1016)):  # m 2^k is a finite double
        return a * np.ldexp(m, k)
    return np.ldexp(np.ascontiguousarray(a * m).view(float), k).view(complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, or of the matrices of stacks that
    broadcast over their leading axes, as one broadcast product: each entry
    is the single product ``np.kron`` takes."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b)  # b is promoted to complex in the product
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`, for a vector or every vector of a stack."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(*v.shape[:-1], cols, rows).swapaxes(-1, -2)

