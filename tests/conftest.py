import os
from collections import namedtuple

import numpy as np
import pytest

from qdblab.dynamics import (
    HEISENBERG,
    SCHRODINGER,
    KrausChannel,
    LindbladGenerator,
    SuperOperator,
    commutator_superop,
    heisenberg_dual,
    lindblad_superop,
    map_stacks,
)
from qdblab.examples import example_a_channel
from qdblab.matlin import dag, kron
from qdblab.fluctuation import exchange_grid
from qdblab.states import DensityMatrix, HamiltonianSpec

SEED = int(os.environ.get("QDBLAB_SEED", "20260810"))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d, scale=1.0):
    a = random_complex(rng, d)
    return scale * (a + a.conj().T) / 2


def random_density(rng, d) -> DensityMatrix:
    a = random_complex(rng, d)
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def random_hamiltonian(rng, d, spread=2.0) -> HamiltonianSpec:
    """Nondegenerate spectrum with bounded spread, random eigenbasis."""
    while True:
        energies = np.sort(rng.uniform(0.0, spread, size=d))
        if d == 1 or np.min(np.diff(energies)) > 0.15 * spread / d:
            break
    q, _ = np.linalg.qr(random_complex(rng, d))
    return HamiltonianSpec.from_matrix((q * energies) @ q.conj().T)


def random_lindblad(rng, d, rate=1.0) -> LindbladGenerator:
    """Generic generator: random Hamiltonian, random PSD Kossakowski matrix."""
    h = random_hamiltonian(rng, d)
    n = d * d - 1
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = rate * (a @ a.conj().T) / n
    return LindbladGenerator.canonical(h, c)


def level_unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def thermal_circulation_qutrit(rng, beta_f, circulation=0.4):
    """Thermalizing qutrit semigroup whose stationary state is thermal but
    whose level currents carry a cyclic flow, breaking pairwise balance at
    finite times while keeping the asymptotic ratio law."""
    while True:
        energies = np.sort(rng.uniform(0.0, 1.5, size=3))
        if np.min(np.diff(energies)) > 0.2:
            break
    h = HamiltonianSpec.from_matrix(np.diag(energies).astype(complex))
    p = np.exp(-beta_f * energies)
    p /= p.sum()
    w = rng.uniform(0.5, 1.0, size=(3, 3))
    w = (w + w.T) / 2
    k = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                k[i, j] = w[i, j] / p[j]
    # cyclic current 0 -> 1 -> 2 -> 0 keeps p stationary, breaks balance
    k[1, 0] += circulation / p[0]
    k[2, 1] += circulation / p[1]
    k[0, 2] += circulation / p[2]
    jumps = [
        np.sqrt(k[i, j]) * level_unit(3, i, j)
        for i in range(3)
        for j in range(3)
        if i != j
    ]
    return LindbladGenerator.from_jump_operators(h, jumps), h


def reference_lindblad_superop(gen: LindbladGenerator) -> SuperOperator:
    """Schroedinger-picture generator matrix.

    Implements ``-i[H, .] + sum_kl C_kl (F_k . F_l^dag - {F_l^dag F_k, .}/2)``
    as a double loop over the basis: the literal reference for
    :func:`qdblab.dynamics.lindblad_superop`.
    """
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    m = -1j * commutator_superop(gen.hamiltonian.matrix)
    c = gen.kossakowski
    for k, fk in enumerate(gen.basis):
        for l, fl in enumerate(gen.basis):
            if abs(c[k, l]) == 0.0:
                continue
            fld_fk = dag(fl) @ fk
            m += c[k, l] * (
                kron(fl.conj(), fk)
                - 0.5 * kron(eye, fld_fk)
                - 0.5 * kron(fld_fk.T, eye)
            )
    return SuperOperator(m, SCHRODINGER)


def dual_superop(gen: LindbladGenerator) -> SuperOperator:
    """Heisenberg-picture generator matrix.

    Implements ``+i[H, .] + sum_kl C_kl (F_l^dag . F_k - {F_l^dag F_k, .}/2)``,
    the trace dual of :func:`qdblab.dynamics.lindblad_superop`.  The library
    takes duals with :func:`qdblab.dynamics.heisenberg_dual`; this literal
    transcription of the formula is the reference that route is checked
    against.
    """
    d = gen.dim
    eye = np.eye(d, dtype=complex)
    m = 1j * commutator_superop(gen.hamiltonian.matrix)
    c = gen.kossakowski
    for k, fk in enumerate(gen.basis):
        for l, fl in enumerate(gen.basis):
            if abs(c[k, l]) == 0.0:
                continue
            fld_fk = dag(fl) @ fk
            m += c[k, l] * (
                kron(fk.T, dag(fl))
                - 0.5 * kron(eye, fld_fk)
                - 0.5 * kron(fld_fk.T, eye)
            )
    return SuperOperator(m, HEISENBERG)


def heisenberg_generator(gen: LindbladGenerator):
    """The Heisenberg-picture generator that ``check_qdb1`` takes."""
    return heisenberg_dual(lindblad_superop(gen))


Gap = namedtuple("Gap", "energy p_plus p_minus")
Ratio = namedtuple("Ratio", "energy ratio predicted deviation")


def a_channel(p, tau):
    """Scenario A's channel at ``tau`` as one ``KrausChannel``."""
    return KrausChannel(tuple(example_a_channel(p, (tau,))[0]))


def exchange_at(g, h, beta_i, beta_f, tau=0.0):
    """Exchange statistics of the one map ``g``, taken at ``tau``."""
    return exchange_grid(map_stacks(g, h), h, beta_i, beta_f, (tau,))


def gap_records(grid, t=0):
    """The gap records of ``grid`` at its ``t``-th time."""
    return [
        Gap(energy, p_plus, p_minus)
        for energy, p_plus, p_minus, kept in zip(
            grid.energies, grid.p_plus[t].tolist(), grid.p_minus[t].tolist(), grid.recorded[t]
        )
        if kept
    ]


def ratio_records(grid, t=0):
    """The ratio law at the records of ``grid``'s ``t``-th time that have a ratio."""
    defined, ratio, predicted, deviation = grid.ratios()
    return [
        Ratio(grid.energies[c], ratio[t, c], predicted[c], deviation[t, c])
        for c in range(len(grid.energies))
        if defined[t, c]
    ]
