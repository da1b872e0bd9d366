"""Seeded Davies-type level-jump models for the benchmark.

A model has a diagonal Hamiltonian with random level spacings and one jump
operator ``sqrt(k) |n><m|`` for every ordered level pair.  Downward and upward
rates keep the Boltzmann ratio ``k(m->n) / k(n->m) = exp(-BETA (E_n - E_m))``,
so the Gibbs state at ``BETA`` is stationary and the generator is in detailed
balance.  A circulating model adds a cyclic current ``c`` around all levels,
``k(l -> l+1) += c / p_l``: every level still gains and loses ``c`` per unit
time, so the Gibbs state stays stationary, but the pairwise balance is broken.
A two-level cycle is a single pair, so no circulating qubit exists.

The verdicts follow from the construction: balanced models are fixed-point
thermalizing at ``BETA`` and pass both balance checks and the ratio law;
circulating models are fixed-point thermalizing at ``BETA`` and fail both
balance checks.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from qdblab.cli import save_model
from qdblab.dynamics import LindbladGenerator
from qdblab.states import HamiltonianSpec

BETA = 1.0


def davies_generator(rng: np.random.Generator, dim: int, circulating: bool) -> LindbladGenerator:
    if circulating and dim < 3:
        raise ValueError("a cyclic current needs at least three levels")
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 1.2, dim - 1))])
    energies -= energies.mean()
    pops = np.exp(-BETA * (energies - energies[0]))
    pops /= pops.sum()
    rates = np.zeros((dim, dim))  # rates[m, n] is the rate of m -> n
    for m in range(dim):
        for n in range(m + 1, dim):
            down = rng.uniform(0.2, 1.0)
            rates[n, m] = down
            rates[m, n] = down * math.exp(-BETA * (energies[n] - energies[m]))
    if circulating:
        current = rng.uniform(0.2, 0.5) * float(pops.min())
        for level in range(dim):
            rates[level, (level + 1) % dim] += current / pops[level]
    jumps = []
    for m in range(dim):
        for n in range(dim):
            if rates[m, n] > 0:
                jump = np.zeros((dim, dim), dtype=complex)
                jump[n, m] = math.sqrt(rates[m, n])
                jumps.append(jump)
    h = HamiltonianSpec.from_matrix(np.diag(energies).astype(complex))
    return LindbladGenerator.from_jump_operators(h, jumps)


def write_fixture(rng: np.random.Generator, dim: int, circulating: bool, path: Path) -> Path:
    save_model(davies_generator(rng, dim, circulating), path)
    return path
