"""Detailed balance checks against the Gibbs state of a Hamiltonian, on
the Heisenberg maps (trace duals, formed only here) of Schroedinger maps.

The scalar product is ``<<A, B>>_s = Tr[Sigma^(1-s) A^dag Sigma^s B]`` for
the Gibbs state ``Sigma = e^{-beta H} / Tr[e^{-beta H}]`` and ``s`` in
[0, 1].  Both checks work in H's eigenbasis, where Sigma is the diagonal of
the populations ``p``: there the matrix unit ``|i><j|`` (index ``i + d j``
of column stacking) has weight ``w_s = p_j^(1-s) p_i^s``, so the adjoint of
a superoperator ``O`` is elementwise, ``O*_ab = conj(O_ba) w_b / w_a``, and
time reversal (complex conjugation in that basis) is transposition.  The
weights come from log populations, so no power or inverse of Sigma is
formed and every finite ``beta``, negative too, has a weight.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import require_superop_dim
from .states import HamiltonianSpec


def _trace_dual(m: np.ndarray) -> np.ndarray:
    """``K m^T K``, the trace dual, of a map matrix or of each map of a stack
    ``(t, d^2, d^2)``; ``K`` is ``X -> X^T``, so this is a permutation."""
    d = math.isqrt(m.shape[-1])
    return m.reshape(-1, d, d, d, d).transpose(0, 4, 3, 2, 1).reshape(m.shape)


def _pow2_scaled(a: np.ndarray, k) -> np.ndarray:
    """``2^k a``, exact short of under- or overflow; an inf entry stays inf."""
    return np.ldexp(np.ascontiguousarray(a).view(float), k).view(complex)


def _eigenframe(h: HamiltonianSpec, beta, s_grid) -> tuple:
    """``Q = conj(V) (x) V`` for H's eigenvectors ``V``, whose column ``i + d
    j`` is ``vec(|i><j|)``, and the log-weights ``(1 - s) log p_j + s log p_i``
    of those units, one row per ``s`` of ``s_grid``, after any point axes."""
    v, e = h.eigenvectors, h.eigenvalues
    x = -np.asarray(beta, dtype=float)[..., None] * (e - e[..., :1])
    top = np.max(x, axis=-1, keepdims=True)  # 0 unless beta < 0; keeps the exponentials finite
    log_p = x - (top + np.log(np.sum(np.exp(x - top), axis=-1, keepdims=True)))
    s = np.asarray(s_grid, dtype=float)[:, None, None]
    log_w = (1.0 - s) * log_p[..., None, :, None] + s * log_p[..., None, None, :]  # [s, j, i]
    q = (v.conj()[..., :, None, :, None] * v[..., None, :, None, :]).reshape(*e.shape[:-1], h.dim**2, h.dim**2)
    return q, log_w.reshape(*log_w.shape[:-2], h.dim**2)


def check_qdb1(h: HamiltonianSpec, beta, s_grid, generator: np.ndarray) -> np.ndarray:
    """Generator-level detailed balance of the Heisenberg-picture generator
    ``L#``, the trace dual of the Schroedinger-picture ``generator``,
    against the Gibbs state of ``h`` at ``beta``: ``L# - L#* == 2i [H, .]``
    for every ``s`` of ``s_grid``.

    Returns, per ``s``, the Frobenius norm of the defect relative to
    ``|L#|``, both scaled by one power of two, so that the units of H and L
    do not matter; a defect past the float range reads inf.  A stacked ``h``,
    ``beta`` and ``generator`` give a row per point.
    """
    dual = _trace_dual(require_superop_dim(generator, h))
    q, log_w = _eigenframe(h, beta, s_grid)
    l = q.conj().swapaxes(-1, -2) @ dual @ q
    e = h.eigenvalues
    commutator = (e[..., None, :] - e[..., :, None]).reshape(log_w.shape[:-2] + (1, 1, -1))  # E_i - E_j at i + d j
    ratio = log_w[..., :, None, :] - log_w[..., :, :, None]  # log(w_b / w_a) at [s, a, b]
    lt = np.broadcast_to(l.conj().swapaxes(-1, -2)[..., None, :, :], ratio.shape)
    big = ratio > np.log(np.finfo(float).max)
    # where w_b / w_a overflows, conj(L_ba) w_b / w_a is taken from log|L_ba|,
    # so that a zero rate gives 0; a defect past the float range reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        star = lt * np.exp(np.where(big, 0.0, ratio))
        mag = np.abs(lt[big])
        log_mag = np.log(mag, out=np.full(mag.shape, -np.inf), where=mag > 0)
        star[big] = np.exp(log_mag + 1j * np.angle(lt[big]) + ratio[big])
        # 2^k L# has its largest entry in [1/2, 1), so neither norm over- or
        # underflows where the squares of the entries of L# would
        k = -np.frexp(np.max(np.abs(dual), axis=(-2, -1), initial=0.0))[1][..., None, None]
        diag = 2j * (np.eye(commutator.shape[-1]) * commutator)
        defect = np.linalg.norm(_pow2_scaled(l[..., None, :, :] - star - diag, k[..., None, :, :]), axis=(-2, -1))
    scaled = _pow2_scaled(dual, k).reshape(-1, *dual.shape[-2:])
    den = np.array([np.linalg.norm(m) for m in scaled]).reshape(k.shape[:-2] + (1,))
    return defect / np.where(den > 0, den, 1.0)


def check_qdb2(h: HamiltonianSpec, beta, s_grid, maps: np.ndarray) -> np.ndarray:
    """Map-level detailed balance via time reversal against the Gibbs state
    of ``h`` at ``beta``, for the Heisenberg maps ``G#``, the trace duals of
    a stack ``maps`` ``(t, d^2, d^2)`` of Schroedinger map matrices.

    The condition ``<<A^dag, G#[B]>> == <<T[B^dag], G#[T[A]]>>``, with ``T``
    complex conjugation in H's eigenbasis, holds on every pair of eigenbasis
    units exactly when ``W G`` is symmetric there.  Returns, per ``s`` of
    ``s_grid``, the largest entry of ``|W G - (W G)^T|`` over every map; a
    nan entry makes it nan.  A stacked ``h``, ``beta`` and ``maps`` ``(p, t,
    d^2, d^2)`` give a row per point.
    """
    d2 = h.dim**2
    q, log_w = _eigenframe(h, beta, s_grid)
    g = q.conj().swapaxes(-1, -2)[..., None, :, :] @ _trace_dual(require_superop_dim(maps, h)) @ q[..., None, :, :]
    g = g.reshape(*log_w.shape[:-2], -1, d2, d2)
    wg = np.exp(log_w)[..., :, None, :, None] * g[..., None, :, :, :]
    return np.max(np.abs(wg - wg.swapaxes(-1, -2)), axis=(-3, -2, -1))
