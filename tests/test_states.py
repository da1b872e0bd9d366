import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BlochVector, bloch_to_density, density_to_bloch, random_density, random_hamiltonian
from qdblab import matlin
from qdblab.errors import DegenerateGround, NotAState, NotThermal, ZeroPopulation
from qdblab.states import (
    DensityMatrix,
    HamiltonianSpec,
    gibbs,
    infer_beta,
    populations,
)

QUBIT_H = HamiltonianSpec.from_matrix(np.diag([-0.5, 0.5]))


class TestHamiltonianSpec:
    def test_reconstruction_from_projectors(self, rng):
        h = random_hamiltonian(rng, 4)
        rebuilt = sum(h.eigenvalues[m] * h.projector(m) for m in range(4))
        assert matlin.frobenius(rebuilt - h.matrix) < 1e-11

    def test_eigenbasis_orthonormal(self, rng):
        h = random_hamiltonian(rng, 3)
        v = h.eigenvectors
        np.testing.assert_allclose(matlin.dag(v) @ v, np.eye(3), atol=1e-12)

    def test_nondegeneracy_probe(self):
        assert QUBIT_H.is_nondegenerate()
        assert not HamiltonianSpec.from_matrix(np.eye(2)).is_nondegenerate()


class TestDensityMatrix:
    def test_rejects_nonunit_trace(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))


class TestGibbs:
    def test_infinite_temperature(self):
        np.testing.assert_allclose(gibbs(QUBIT_H, 0.0).matrix, np.eye(2) / 2, atol=1e-14)

    def test_boltzmann_weights(self):
        # p1/p2 = e^{beta omega} = 4 for beta = ln 4, omega = 1
        g = gibbs(QUBIT_H, math.log(4))
        np.testing.assert_allclose(populations(g, QUBIT_H), [0.8, 0.2], atol=1e-14)

    def test_zero_temperature_ground_projector(self):
        np.testing.assert_allclose(gibbs(QUBIT_H, math.inf).matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero_temperature_rejects_degenerate_ground(self):
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateGround):
            gibbs(h, math.inf)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            gibbs(QUBIT_H, -0.1)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 5.0, 49.0])
    def test_valid_state_and_commutes_with_h(self, rng, beta):
        h = random_hamiltonian(rng, 3)
        g = gibbs(h, beta)  # constructor enforces the state invariants
        comm = g.matrix @ h.matrix - h.matrix @ g.matrix
        assert matlin.frobenius(comm) < 1e-12


class TestPopulations:
    def test_maximally_mixed_uniform(self, rng):
        h = random_hamiltonian(rng, 4)
        rho = DensityMatrix(np.eye(4) / 4)
        np.testing.assert_allclose(populations(rho, h), np.full(4, 0.25), atol=1e-13)

    def test_bloch_state_against_hand_expansion(self):
        rho = bloch_to_density(BlochVector(0.0, 0.0, 0.6))
        np.testing.assert_allclose(populations(rho, QUBIT_H), [0.8, 0.2], atol=1e-14)

    def test_sum_to_one(self, rng):
        h = random_hamiltonian(rng, 3)
        p = populations(random_density(rng, 3), h)
        assert abs(p.sum() - 1.0) < 1e-10


class TestBloch:
    def test_origin_is_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density(BlochVector(0, 0, 0)).matrix, np.eye(2) / 2)

    def test_x_axis_pure_state(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(bloch_to_density(BlochVector(1, 0, 0)).matrix, plus)

    def test_roundtrip(self, rng):
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            out = density_to_bloch(bloch_to_density(BlochVector(*r)))
            assert max(abs(out.rx - r[0]), abs(out.ry - r[1]), abs(out.rz - r[2])) < 1e-13

    def test_pauli_expectation_recovery(self, rng):
        rho = random_density(rng, 2)
        r = density_to_bloch(rho)
        np.testing.assert_allclose(bloch_to_density(r).matrix, rho.matrix, atol=1e-12)

    def test_rejects_outside_ball(self):
        with pytest.raises(NotAState):
            BlochVector(1.0, 0.5, 0.0)


class TestInferBeta:
    def test_gibbs_roundtrip(self, rng):
        h = random_hamiltonian(rng, 3)
        assert abs(infer_beta(gibbs(h, 1.3), h) - 1.3) < 1e-9

    def test_maximally_mixed_is_beta_zero(self, rng):
        h = random_hamiltonian(rng, 4)
        assert abs(infer_beta(DensityMatrix(np.eye(4) / 4), h)) < 1e-12

    def test_rejects_inconsistent_populations(self):
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 1.0, 2.0]))
        # pairwise estimates 2.079 vs 0 disagree
        with pytest.raises(NotThermal):
            infer_beta(DensityMatrix(np.diag([0.8, 0.1, 0.1])), h)

    def test_rejects_coherent_state(self):
        rho = bloch_to_density(BlochVector(0.8, 0.0, 0.0))
        with pytest.raises(NotThermal):
            infer_beta(rho, QUBIT_H)

    def test_ground_projector_reports_infinity(self):
        assert infer_beta(gibbs(QUBIT_H, math.inf), QUBIT_H) == math.inf

    def test_partial_zero_population_rejected(self):
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ZeroPopulation):
            infer_beta(DensityMatrix(np.diag([0.5, 0.5, 0.0])), h)

    def test_rejects_degenerate_spectrum(self):
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(NotThermal):
            infer_beta(DensityMatrix(np.eye(3) / 3), h)


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(0.0, 10.0))
def test_infer_beta_matches_gibbs(beta):
    rng = np.random.default_rng(42)
    h = random_hamiltonian(rng, 3, spread=2.5)
    assert abs(infer_beta(gibbs(h, beta), h) - beta) < 1e-8
