import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BlochVector,
    NotThermal,
    ZeroPopulation,
    bloch_to_density,
    density_to_bloch,
    eigenframe,
    gibbs,
    level_projector,
    random_density,
    random_hamiltonian,
    reference_infer_beta,
)
from qdblab import matlin
from qdblab.errors import NotAState
from qdblab.states import HamiltonianSpec, infer_beta, thermal_populations

QUBIT_H = HamiltonianSpec.from_matrix(np.diag([-0.5, 0.5]))


def beta_of(rho, h: HamiltonianSpec) -> float:
    """:func:`infer_beta` of one state in the basis of H's matrix, taken to
    H's eigenframe, as a stack of one; nan when it is not thermal."""
    return float(infer_beta(eigenframe(rho, h)[None], h[None])[0][0])


def not_thermal(rho, h: HamiltonianSpec, error=NotThermal, match=None) -> bool:
    """The state reads nan, and the per-state reference raises ``error``."""
    with pytest.raises(error, match=match):
        reference_infer_beta(eigenframe(rho, h), h)
    return math.isnan(beta_of(rho, h))


class TestHamiltonianSpec:
    def test_reconstruction_from_projectors(self, rng):
        h = random_hamiltonian(rng, 4)
        rebuilt = sum(h.eigenvalues[m] * level_projector(h, m) for m in range(4))
        assert matlin.frobenius(rebuilt - h.matrix) < 1e-11

    def test_eigenbasis_orthonormal(self, rng):
        h = random_hamiltonian(rng, 3)
        v = h.eigenvectors
        np.testing.assert_allclose(matlin.dag(v) @ v, np.eye(3), atol=1e-12)

    def test_nondegeneracy_probe(self):
        # infer_beta probes the spectrum first: a split qubit passes, a degenerate one does not
        assert abs(beta_of(np.eye(2) / 2, QUBIT_H)) < 1e-12
        degenerate = HamiltonianSpec.from_matrix(np.eye(2))
        message = "^Hamiltonian spectrum is degenerate, beta inference undefined$"
        assert not_thermal(np.eye(2) / 2, degenerate, match=message)


class TestGibbs:
    def test_infinite_temperature(self):
        np.testing.assert_allclose(thermal_populations(QUBIT_H, 0.0), [0.5, 0.5], atol=1e-14)

    def test_boltzmann_weights(self):
        # p1/p2 = e^{beta omega} = 4 for beta = ln 4, omega = 1
        np.testing.assert_allclose(thermal_populations(QUBIT_H, math.log(4)), [0.8, 0.2], atol=1e-14)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 5.0, 49.0])
    def test_valid_state_and_commutes_with_h(self, rng, beta):
        h = random_hamiltonian(rng, 3)
        p = thermal_populations(h, beta)
        assert p.min() >= 0 and abs(p.sum() - 1.0) < 1e-15
        assert np.all(np.diff(p) <= 0)  # the ground level is the most populated
        g = gibbs(h, beta)
        comm = g @ h.matrix - h.matrix @ g
        assert matlin.frobenius(comm) < 1e-12

    def test_overflowing_weights_read_zero(self):
        # beta (E - E_0) = 2e309 overflows; its weight is 0, without a warning
        h = HamiltonianSpec.from_matrix(np.diag([-1e303, 1e303]))
        np.testing.assert_array_equal(thermal_populations(h, 1e6), [1.0, 0.0])


class TestPopulations:
    def test_maximally_mixed_uniform(self, rng):
        h = random_hamiltonian(rng, 4)
        np.testing.assert_allclose(thermal_populations(h, 0.0), np.full(4, 0.25), atol=1e-15)

    def test_bloch_state_against_hand_expansion(self):
        # r_z = 0.6 puts (0.8, 0.2) on the levels of H = diag(-1/2, 1/2): beta = ln 4
        rho = bloch_to_density(BlochVector(0.0, 0.0, 0.6))
        assert abs(beta_of(rho, QUBIT_H) - math.log(4)) < 1e-14

    def test_sum_to_one(self, rng):
        h = random_hamiltonian(rng, 3)
        for beta in rng.uniform(0.0, 50.0, size=5):
            assert abs(thermal_populations(h, beta).sum() - 1.0) < 1e-15


class TestBloch:
    def test_origin_is_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density(BlochVector(0, 0, 0)), np.eye(2) / 2)

    def test_x_axis_pure_state(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(bloch_to_density(BlochVector(1, 0, 0)), plus)

    def test_roundtrip(self, rng):
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            out = density_to_bloch(bloch_to_density(BlochVector(*r)))
            assert max(abs(out.rx - r[0]), abs(out.ry - r[1]), abs(out.rz - r[2])) < 1e-13

    def test_pauli_expectation_recovery(self, rng):
        rho = random_density(rng, 2)
        r = density_to_bloch(rho)
        np.testing.assert_allclose(bloch_to_density(r), rho, atol=1e-12)

    def test_rejects_outside_ball(self):
        with pytest.raises(NotAState):
            BlochVector(1.0, 0.5, 0.0)


class TestInferBeta:
    def test_gibbs_roundtrip(self, rng):
        h = random_hamiltonian(rng, 3)
        assert abs(beta_of(gibbs(h, 1.3), h) - 1.3) < 1e-9

    def test_maximally_mixed_is_beta_zero(self, rng):
        h = random_hamiltonian(rng, 4)
        assert abs(beta_of(np.eye(4) / 4, h)) < 1e-12

    def test_rejects_inconsistent_populations(self):
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 1.0, 2.0]))
        # pairwise estimates 2.079 vs 0 disagree
        assert not_thermal(np.diag([0.8, 0.1, 0.1]), h)

    def test_rejects_coherent_state(self):
        rho = bloch_to_density(BlochVector(0.8, 0.0, 0.0))
        assert not_thermal(rho, QUBIT_H)

    def test_ground_projector_reports_infinity(self):
        assert beta_of(np.diag([1.0, 0.0]), QUBIT_H) == math.inf

    def test_partial_zero_population_rejected(self):
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 1.0, 2.0]))
        assert not_thermal(np.diag([0.5, 0.5, 0.0]), h, ZeroPopulation)

    def test_rejects_degenerate_spectrum(self):
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 0.0, 1.0]))
        assert not_thermal(np.eye(3) / 3, h)

    def test_rejects_negative_eigenvalue(self):
        # a matrix with a negative eigenvalue is no state, whatever its diagonal
        assert not_thermal(np.diag([1.5, -0.5]), QUBIT_H, NotAState, r"^state has negative eigenvalue -5\.000e-01$")


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(0.0, 10.0))
def test_infer_beta_matches_gibbs(beta):
    rng = np.random.default_rng(42)
    h = random_hamiltonian(rng, 3, spread=2.5)
    assert abs(beta_of(gibbs(h, beta), h) - beta) < 1e-8
