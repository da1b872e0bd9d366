"""Detailed balance checks against the Gibbs state of a Hamiltonian.

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

import numpy as np

from .dynamics import HEISENBERG, SuperOperator
from .errors import DimensionMismatch
from .matlin import dag, frobenius, kron
from .states import HamiltonianSpec


def _eigenframe(h: HamiltonianSpec, beta: float, s_grid) -> tuple:
    """``Q = conj(V) (x) V`` for H's eigenvectors ``V``, whose column ``i + d
    j`` is ``vec(|i><j|)``, and the log-weights ``(1 - s) log p_j + s log p_i``
    of those units, one row per ``s`` of ``s_grid``."""
    v, e = h.eigenvectors, h.eigenvalues
    x = -beta * (e - e[0])
    top = np.max(x)  # 0 unless beta < 0; keeps the exponentials finite
    log_p = x - (top + np.log(np.sum(np.exp(x - top))))
    s = np.asarray(s_grid, dtype=float)[:, None, None]
    log_w = (1.0 - s) * log_p[:, None] + s * log_p[None, :]  # [s, j, i]
    return kron(v.conj(), v), log_w.reshape(len(s_grid), -1)


def check_qdb1(h: HamiltonianSpec, beta: float, s_grid, dual: SuperOperator) -> np.ndarray:
    """Generator-level detailed balance of a Heisenberg-picture generator
    ``L#`` against the Gibbs state of ``h`` at ``beta``: ``L# - L#* == 2i
    [H, .]`` for every ``s`` of ``s_grid``.

    Returns, per ``s``, the Frobenius norm of the defect relative to
    ``|L#|``.
    """
    if dual.picture != HEISENBERG:
        raise ValueError("check_qdb1 expects a Heisenberg-picture generator")
    if dual.dim != h.dim:
        raise DimensionMismatch(f"generator dim {dual.dim} != Hamiltonian dim {h.dim}")
    q, log_w = _eigenframe(h, beta, s_grid)
    l = dag(q) @ dual.matrix @ q
    e = h.eigenvalues
    commutator = (e[None, :] - e[:, None]).ravel()  # E_i - E_j at i + d j
    star = l.T.conj() * np.exp(log_w[:, None, :] - log_w[:, :, None])
    defect = l - star - 2j * np.diag(commutator)
    den = frobenius(dual.matrix)
    return np.linalg.norm(defect, axis=(-2, -1)) / (den if den > 0 else 1.0)


def check_qdb2(h: HamiltonianSpec, beta: float, s_grid, maps_heis: SuperOperator | np.ndarray) -> np.ndarray:
    """Map-level detailed balance via time reversal against the Gibbs state
    of ``h`` at ``beta``, for a Heisenberg-picture ``SuperOperator`` or a
    stack ``(t, d^2, d^2)`` of Heisenberg map matrices.

    The condition ``<<A^dag, G#[B]>> == <<T[B^dag], G#[T[A]]>>``, with ``T``
    complex conjugation in H's eigenbasis, holds on every pair of eigenbasis
    units exactly when ``W G`` is symmetric there.  Returns, per ``s`` of
    ``s_grid``, the largest entry of ``|W G - (W G)^T|`` over every map; a
    nan entry makes it nan.
    """
    if isinstance(maps_heis, SuperOperator):
        if maps_heis.picture != HEISENBERG:
            raise ValueError("check_qdb2 expects a Heisenberg-picture map")
        maps_heis = maps_heis.matrix
    d2 = h.dim**2
    if maps_heis.shape[-2:] != (d2, d2):
        raise DimensionMismatch("the maps and the Hamiltonian must share one dimension")
    q, log_w = _eigenframe(h, beta, s_grid)
    g = (dag(q) @ maps_heis @ q).reshape(-1, d2, d2)
    wg = np.exp(log_w)[:, None, :, None] * g
    return np.max(np.abs(wg - wg.swapaxes(-1, -2)), axis=(1, 2, 3))
