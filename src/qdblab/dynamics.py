"""CPTP dynamics: Lindblad generators, superoperator matrices (of Lindblad
and of qubit Bloch-coordinate generators), the GKLS test of generators, and
``Dynamics``, a block of dynamics stacked over its points: one stacked
Hamiltonian with one generator stack or one Kraus family of stacks.  Every
stage takes the block whole: ``maps_of`` gives three plain stacks over the
points, ``(generators, superops, probs)``: a semigroup's generators, a
channel family's maps at one time tuple, and the level transitions on the
tau grid, which every check, ``classify`` of a channel family too, reads; a
semigroup has no maps, and an exactly secular one takes its transitions
from its d x d rate block alone; no map is evolved, applied or made Kraus
alone.  The transitions leave ``maps_of`` judged: finite and stochastic;
the later stages take them as bare probabilities.  A family's maps are
checked against its Kraus route where they are built, at the times.

``maps_of`` takes H's eigenframe once per block, and it is the only place
the package reads H's eigenvectors ``V``: the generators and maps it hands
on, and the states the later stages take from them, are held in that frame,
``Q^dag L Q`` with ``Q = conj(V) (x) V``, a map built from the Kraus
operators ``V^dag G V``.  There the Gibbs state is diagonal, time reversal
is complex conjugation, and the level transitions are the maps' population
block.  The trace dual, ``vec(I)``, complete positivity, spectra and
singular values are the same in either frame.

A map is a plain Schroedinger-picture ``d^2 x d^2`` matrix acting on
column-stacked operators, a Kraus family a zero-padded stack ``(t, j, d,
d)``; the Heisenberg picture, the trace dual, is taken only inside
``balance``.  The Choi matrix convention is

    Choi = sum_ij |i><j| (x) Map[|i><j|],

so complete positivity of a map is positivity of its Choi matrix, and the
maps of a Hermiticity-preserving generator are completely positive exactly
when its Choi matrix is positive orthogonally to ``vec(I)``, the maximally
entangled vector.  Both conventions interlock with the column-stacking
``vec`` and are covered by roundtrip tests.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from . import matlin
from .errors import ConfigError, DimensionMismatch, InternalCheckError, KossakowskiNotPSD, NotCPTP
from .errors import NotTracePreserving
from .matlin import dag, kron, vec
from .states import SIGMA_X, SIGMA_Y, SIGMA_Z, HamiltonianSpec

# absolute, because sum_j G_j^dag G_j is compared with I, whose entries are 0 or 1 whatever the map
TP_ATOL = 1e-10
# relative to max|C|, with a floor of 1: the Kossakowski matrix's roundoff scales with its largest entry
PSD_ATOL = 1e-10
# absolute, because a basis operator's trace is read on the scale of entries of order 1, as the Gell-Mann
# basis and the traceless parts of jumps at unit rate have them
BASIS_ATOL = 1e-12
# a population: both routes give transition probabilities, which lie in [0, 1]
ROUTE_AGREEMENT_ATOL = 1e-10
# absolute, because a transition row sums to 1 whatever the map; a map's roundoff u tau |L|_1 can exceed it
STOCHASTIC_ATOL = 1e-9


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
    """The matrices of ``ops``, a sequence of them or a stack ``(..., k, d,
    d)`` of such sequences, as a stack, also for no matrices; raises
    ``DimensionMismatch`` unless each is d x d."""
    try:
        ops = np.array(ops, dtype=complex)
    except ValueError:  # matrices of different shapes
        ops = np.zeros(1)
    ops = ops.reshape(0, d, d) if ops.shape == (0,) else ops
    if ops.ndim < 3 or ops.shape[-2:] != (d, d):
        raise DimensionMismatch(f"{what} shape does not match the Hamiltonian")
    return ops


class LindbladGenerator:
    """Hamiltonian plus Kossakowski matrix over traceless operators, or a
    stack of them.

    ``basis`` is a stack ``(k, d, d)`` of traceless operators ``F_k`` and
    ``kossakowski`` the k x k positive semidefinite matrix ``C`` that weights
    them; the identity direction never enters the dissipator.  The operators
    need not be orthonormal, nor ``d^2 - 1`` in number.  A stack of
    generators has a stacked ``hamiltonian`` and ``basis`` ``(p, k, d, d)``,
    and ``C`` ``(p, k, k)`` or one C for all; each C is judged on its own
    scale, and the first that fails raises.
    """

    def __init__(self, hamiltonian: HamiltonianSpec, kossakowski, basis):
        self.hamiltonian = hamiltonian
        self.kossakowski = c = np.asarray(kossakowski, dtype=complex)
        self.basis = basis = _operator_stack(basis, self.dim, "dissipator basis matrix")
        n = basis.shape[-3]
        if c.shape[-2:] != (n, n):
            raise DimensionMismatch(f"Kossakowski matrix must be {n}x{n}, got {c.shape}")
        # C's roundoff scales with it: PSD_ATOL max(1, max|C|), taken on halves, which cannot overflow
        atol = 2 * PSD_ATOL * np.max(np.abs(c / 2), axis=(-2, -1), initial=0.5)
        if not matlin.is_hermitian(c, atol):
            raise KossakowskiNotPSD("Kossakowski matrix is not Hermitian")
        # halves first: the sum of two entries near the float range would overflow
        lo = np.min(np.linalg.eigvalsh(c / 2 + dag(c) / 2), axis=-1, initial=0.0)
        for x in lo[lo < -atol][:1]:
            raise KossakowskiNotPSD(f"Kossakowski matrix has negative eigenvalue {x:.3e}")
        traced = np.flatnonzero(np.abs(np.trace(basis, axis1=-2, axis2=-1)) > BASIS_ATOL)
        if traced.size:
            raise ValueError(f"dissipator basis matrix {traced[0] % n} is not traceless")

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
        """Generator with dissipator ``sum_j (L_j . L_j^dag - {L_j^dag L_j, .}/2)``,
        or the stack of them of a stacked ``hamiltonian`` and jumps ``(p, j,
        d, d)``.

        The traceless parts of the jumps are the basis, with ``C = I``, so no
        rate is rebuilt from a projection.  A jump's trace part is absorbed
        into an effective Hamiltonian shift; without one, ``hamiltonian`` is
        kept with its eigendecomposition.
        """
        d = hamiltonian.dim
        jumps = _operator_stack(jump_ops, d, "jump operator")
        tr_parts = np.trace(jumps, axis1=-2, axis2=-1)[..., None, None] / d
        traceless = jumps - tr_parts * np.eye(d)
        if np.any(tr_parts != 0):  # each jump's shift added in turn
            shifts = (1j / 2) * (np.conj(tr_parts) * traceless - tr_parts * dag(traceless))
            hamiltonian = HamiltonianSpec.from_matrix(sum(np.moveaxis(shifts, -3, 0), hamiltonian.matrix))
        return cls(hamiltonian, np.eye(jumps.shape[-3], dtype=complex), traceless)


def lindblad_superop(gen: LindbladGenerator) -> np.ndarray:
    """Schroedinger-picture generator matrix.

    Implements ``-i[H, .] + sum_kl C_kl (F_k . F_l^dag - {F_l^dag F_k, .}/2)``
    as ``-i[H, .] + sum_l conj(F_l) (x) G_l - (I (x) A + A^T (x) I)/2`` with
    ``G_l = sum_k C_kl F_k`` and ``A = sum_l F_l^dag G_l``; a stack of
    generators gives the stack ``(p, d^2, d^2)`` of their matrices.  An entry
    that overflows reads inf or nan, which :meth:`Dynamics.semigroup` rejects.
    """
    d, h, f = gen.dim, gen.hamiltonian.matrix, gen.basis
    eye = np.eye(d, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.einsum("...kl,...kab->...lab", gen.kossakowski, f)
        a = np.einsum("...lba,...lbc->...ac", f.conj(), g)
        jumps = np.einsum("...lab,...lce->...acbe", f.conj(), g).reshape(*g.shape[:-3], d * d, d * d)
        # kron(I, H) - kron(H^T, I) is X -> [H, X]
        return -1j * (kron(eye, h) - kron(h.swapaxes(-1, -2), eye)) + jumps - 0.5 * (
            kron(eye, a) + kron(a.swapaxes(-1, -2), eye)
        )


_PAULI_STACK = np.column_stack(
    [vec(np.eye(2, dtype=complex)), vec(SIGMA_X), vec(SIGMA_Y), vec(SIGMA_Z)]
)


def bloch4_to_superop(l4: np.ndarray) -> np.ndarray:
    """Density-matrix generator from a Bloch-coordinate generator, or a
    stack ``(p, 4, 4)`` of them from a stack of Bloch generators.

    With ``vec(rho) = P b / 2`` for the Pauli column stack ``P`` and
    ``db/dtau = -2 LL b``, the vectorized generator is ``-P LL P^dag``
    (``P^dag P = 2 I``).  An entry that overflows reads inf or nan, which
    ``Dynamics.semigroup`` rejects.
    """
    l4 = np.asarray(l4, dtype=complex)
    if l4.shape[-2:] != (4, 4):
        raise DimensionMismatch(f"Bloch generator must be 4x4, got {l4.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return -_PAULI_STACK @ l4 @ dag(_PAULI_STACK)


def _kraus_superops(kraus: np.ndarray) -> np.ndarray:
    """``sum_j conj(G_j) (x) G_j`` for every slice of a zero-padded Kraus stack
    ``(..., t, j, d, d)``, summed over ``j`` in order from 0."""
    return kron(kraus.conj(), kraus).sum(axis=-3, initial=0.0)


def _kraus_populations(kraus: np.ndarray) -> np.ndarray:
    """The population block ``[..., m, n]`` of :func:`_kraus_superops`, its
    entry from ``|m><m|`` to ``|n><n|``: the same products ``conj(G_j[n, m])
    G_j[n, m]``, summed over ``j`` in order from 0, so bit for bit the
    entries a full map holds there."""
    return (kraus.conj() * kraus).sum(axis=-3, initial=0.0).swapaxes(-1, -2)


def _kraus_stacks(kraus: np.ndarray) -> np.ndarray:
    """A zero-padded Kraus stack ``(..., t, j, d, d)``, checked for ``sum_j
    G^dag G == I``, the first failing point, and in it the first failing
    slice, first.  Its shape is trusted: ``_operator_stack`` shaped a single
    map's operators to h, and a family's are the package's own."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan residual fails below
        gram = np.einsum("...jai,...jak->...ik", kraus.conj(), kraus)
    res = np.abs(gram - np.eye(kraus.shape[-1])).max(axis=(-2, -1)).reshape(-1)
    failing = np.flatnonzero(~(res <= TP_ATOL))  # a nan residual fails too
    if failing.size:
        raise NotTracePreserving(f"sum G^dag G differs from identity by {res[failing[0]]:.3e}")
    return kraus


def require_superop_dim(superops: np.ndarray, h: HamiltonianSpec) -> np.ndarray:
    """``superops``, a map matrix or stack, once checked to act on h's operators."""
    if superops.shape[-2:] != (h.dim**2,) * 2:
        raise DimensionMismatch("superoperator dimension does not match the Hamiltonian")
    return superops


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """``sum_ij |i><j| (x) S[|i><j|]`` of a map or of every map of a stack:
    block ``(i, j)`` holds the column ``j d + i`` of ``S``, unvectorized, so
    the Choi matrix is a reshuffle."""
    d = math.isqrt(s.shape[-1])
    return s.reshape(s.shape[:-2] + (d,) * 4).swapaxes(-4, -1).reshape(s.shape)


def gkls_defects(generators: np.ndarray) -> tuple:
    """The defects ``(cp, tp)`` of every generator of a stack ``(p, d^2,
    d^2)``, in H's eigenframe, from the GKLS form, each relative to the
    generator's 1-norm in that frame, as arrays, from one stacked
    ``eigvalsh``: the most negative eigenvalue of its Choi matrix projected
    orthogonally to ``vec(I)`` (0 if none), and the Euclidean norm of
    ``vec(I)^dag L``.  A Hermiticity-preserving generator generates CPTP maps
    exactly when both are 0 (Lindblad 1976; Wolf & Cirac 2008), in any frame
    ``Q^dag L Q``."""
    d, scaled = math.isqrt(generators.shape[-1]), matlin.unit_norm1(generators)
    trace = np.eye(d).reshape(-1)  # vec(I)
    proj = np.eye(d * d) - np.outer(trace, trace) / d
    choi = choi_matrix(scaled)
    lo = np.linalg.eigvalsh(proj @ (choi + choi.conj().swapaxes(-1, -2)) @ proj / 2).min(axis=-1)
    return np.maximum(-lo, 0.0), np.linalg.norm(trace @ scaled, axis=-1)


class Dynamics:
    """A block of dynamics to verify, stacked over its points: semigroups or
    Kraus channel families, of one kind and dimension.

    ``h`` is the points' stacked ``HamiltonianSpec`` ``(k, d, d)``.  Exactly
    one of ``generator`` (the stack ``(k, d^2, d^2)`` of Schroedinger-picture
    generator matrices) and ``family`` (a callable ``taus -> (k, t, j, d,
    d)`` Kraus stack, zero-padded) is set.  A single map is a family at one
    time: its ``tau`` is set, and its family repeats the map at every
    requested time.  A one-point, unstacked ``h`` ``(d, d)``, with its
    generator ``(d^2, d^2)`` or family ``taus -> (t, j, d, d)``, is a block
    of one point; the point axis is added here and nowhere else.  Build a
    value with :meth:`semigroup`, :meth:`channel_family` or
    :meth:`single_map`.
    """

    def __init__(self, h: HamiltonianSpec, generator, family, tau):
        if h.matrix.ndim == 2:  # one point
            h, generator = h[None], None if generator is None else generator[None]
            family = family and (lambda taus, one=family: one(taus)[None])
        self.h, self.generator, self.family, self.tau = h, generator, family, tau

    @classmethod
    def semigroup(cls, h: HamiltonianSpec, generator: np.ndarray | LindbladGenerator) -> "Dynamics":
        """Semigroup of a generator matrix or of a ``LindbladGenerator``, or
        the block of a stack of them, whose matrices are built here, once; the
        first point whose generator has a non-finite entry or 1-norm, one that
        overflowed, raises ``ConfigError``."""
        if isinstance(generator, LindbladGenerator):
            generator = lindblad_superop(generator)
        block = cls(h, require_superop_dim(generator, h), None, None)
        with np.errstate(over="ignore"):  # finite entries whose sum overflows would give nan maps
            norms = matlin.norm1(block.generator)
        for g in block.generator[~np.isfinite(norms)][:1]:
            what = "'s 1-norm is not finite" if np.all(np.isfinite(g)) else " has a non-finite entry"
            raise ConfigError(f"the model overflows: its generator{what}")
        return block

    @classmethod
    def channel_family(cls, h: HamiltonianSpec, family) -> "Dynamics":
        """The block of the Kraus channel family ``family``, whose every
        stack is judged by :func:`_kraus_stacks` as the family returns it."""
        return cls(h, None, lambda taus: _kraus_stacks(np.asarray(family(taus), dtype=complex)), None)

    @classmethod
    def single_map(cls, h: HamiltonianSpec, kraus_ops, tau: float) -> "Dynamics":
        """The one-point block of the one map of the Kraus operators
        ``kraus_ops``, taken at ``tau``, with h unstacked, judged once, here:
        each operator must be h's size, and ``sum G^dag G == I``; the
        family repeats the judged stack."""
        kraus = _kraus_stacks(_operator_stack(kraus_ops, h.dim, "Kraus operator")[None])
        return cls(h, None, lambda taus: np.repeat(kraus, len(taus), axis=0), tau)

    def taus(self, grid) -> tuple:
        """The points of ``grid`` the dynamics is defined on; a single map
        has only its own ``tau``."""
        return tuple(grid) if self.tau is None else (self.tau,)


def _judged(probs: np.ndarray) -> np.ndarray:
    """``probs``, a stack ``(..., t, d, d)`` of level transitions, once they
    pass the transition checks, each read from ``probs`` itself: the first
    map, in point and then time order, that fails one raises, with the
    checks at that map in this order: its transitions are finite, no
    probability is negative, and each row sums to 1."""
    low = probs.min(axis=(-2, -1))
    rows = np.abs(probs.sum(axis=-1) - 1.0).max(axis=-1)
    # -1e-12 is a population, absolute, because a transition probability lies in [0, 1] whatever the map
    failing = np.array([~np.isfinite(probs).all(axis=(-2, -1)), low < -1e-12, rows > STOCHASTIC_ATOL])
    if failing.any():
        i = tuple(np.argwhere(failing.any(axis=0))[0])
        raise [
            InternalCheckError("a map has a non-finite entry"),
            NotTracePreserving(f"negative transition probability {low[i]:.3e}"),
            NotTracePreserving(f"transition rows sum to 1 only within {rows[i]:.3e}"),
        ][int(np.argmax(failing[(slice(None), *i)]))]
    return probs


@cache
def _frame_units(d: int) -> tuple:
    """The column-stacking indices of the population units ``|m><m|`` of
    M_d, and the mask of the entries of a ``d^2 x d^2`` matrix that couple a
    population unit to a coherence unit ``|i><j|``, ``i != j``, or two
    different coherence units."""
    units = np.arange(d) * (d + 1)  # vec(|m><m|) is the unit vector at m (d + 1)
    coherent = np.ones(d * d, dtype=bool)
    coherent[units] = False
    return units, (coherent[:, None] | coherent) & ~np.eye(d * d, dtype=bool)


def maps_of(block: Dynamics, times: tuple, grid: tuple, tol_cptp: float) -> tuple:
    """The generators, maps and level transitions of the points of
    ``block``, all in H's eigenframe, the only place the package takes it:
    the maps at ``times`` and the level transitions on ``grid``, stacked
    over the points in order, as three plain values ``(generators, superops,
    probs)``: the stack ``(k, d^2, d^2)`` of the semigroups' generators
    ``Q^dag L Q``, with ``Q = conj(V) (x) V`` for the eigenvectors ``V`` of
    the block's ``h`` (None for channel families), the stack ``(k, t, d^2,
    d^2)`` of a channel family's maps' matrices, built from its Kraus
    operators ``V^dag G V``, the one map stack that classification and the
    map-level balance check both read (None for semigroups, which have no
    maps and take no ``times``), and the stack ``(k, t, d, d)`` of the level
    transitions ``probs[..., m, n] = <n| Map[|m><m|] |n>``, the maps'
    population block.  One family call covers ``times + grid``, and one
    exponential per route a semigroup's grid; a family's full maps are
    built at ``times`` only, and its grid transitions from their population
    entries alone, by :func:`_kraus_populations`.

    A family's Kraus stack comes judged from the family, as
    :meth:`Dynamics.channel_family` and :meth:`Dynamics.single_map` judge
    it.  Its maps at ``times`` are checked first: their population block
    must agree within ``ROUTE_AGREEMENT_ATOL`` with the Kraus route
    ``sum_j |<n|G_j|m>|^2`` of the same operators, else the first failing
    point and time raises ``InternalCheckError``; both routes read the same
    eigenframe operators, so their gap checks the superoperator build, not
    the frame change.  The transitions on the grid of either kind are then
    checked as one, the first failing point and time first, by
    :func:`_judged`, which reads them alone; both semigroup routes take it
    together.
    The semigroups' eigenframe generators take the GKLS test of
    :func:`gkls_defects` before any exponential: the first whose defect is
    not below ``tol_cptp`` raises ``NotCPTP``.  A semigroup is exactly
    secular when every entry of its eigenframe generator that couples a
    population unit ``|m><m|`` to a coherence unit, or two different
    coherence units, is exactly 0 (a structural test, with no tolerance): it
    is its Pauli rate block ``W`` on the populations plus one decay rate
    per coherence (Davies 1974).  The secular semigroups take one
    exponential of their rate blocks over (point, time): ``exp(tau W)`` is
    their transition matrix on the grid.  The others take one exponential
    of their generators over (point, time), whose population block the
    transitions are, so each point's route depends on its own generator
    only."""
    h = block.h
    v, d, k, t = h.eigenvectors, h.dim, len(h.matrix), len(times)
    units, couplings = _frame_units(d)
    if block.generator is None:
        kraus = block.family(times + grid)
        # V^dag G V = ((G V)^T conj(V))^T, two products over the whole stack of each point
        gv = (kraus.reshape(k, -1, d) @ v).reshape(kraus.shape).swapaxes(-1, -2)
        kraus = (gv.reshape(k, -1, d) @ v.conj()).reshape(kraus.shape).swapaxes(-1, -2)
        # the full maps at times only, whose population block the Kraus route of the same operators must give
        superops = _kraus_superops(kraus[:, :t])
        gap = np.abs(superops[..., units, units[:, None]] - _kraus_populations(kraus[:, :t])).max(axis=(-2, -1))
        for x in gap[~(gap <= ROUTE_AGREEMENT_ATOL)][:1]:  # a nan gap fails too
            raise InternalCheckError(f"Kraus and superoperator transition routes disagree by {x:.3e}")
        return None, superops, _judged(_kraus_populations(kraus[:, t:]).real)
    q = kron(v.conj(), v)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coupling is not 0
        generators = dag(q) @ block.generator @ q
    cp, tp = gkls_defects(generators)
    for i in np.flatnonzero(~(np.maximum(cp, tp) < tol_cptp))[:1]:  # a nan defect fails too
        raise NotCPTP(f"the generator is not of GKLS form: cp={cp[i]:.3e}, tp={tp[i]:.3e} relative to its 1-norm")
    secular = ~generators[:, couplings].any(axis=-1)
    probs = np.empty((k, len(grid), d, d))
    # the population block of the full route's exponentials, and exp(tau W) of the rate blocks W[n, m], the
    # entries from |m><m| to |n><n|, each read at [m, n]
    for points, part, at in ((~secular, slice(None), units), (secular, units, np.arange(d))):
        if points.any():
            probs[points] = matlin.expm(generators[points][:, part][..., part], grid)[..., at, at[:, None]].real
    return generators, None, _judged(probs)
