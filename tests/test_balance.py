import numpy as np
import pytest

from conftest import random_complex, random_density, random_hamiltonian, random_lindblad
from qdblab import matlin
from qdblab.balance import (
    TimeReversal,
    WeightedSpace,
    adjoint,
    check_lemma_invariant_subspace,
    check_qdb1,
    check_qdb1_invariance,
    check_qdb2,
    decompose,
    inner,
    r_s_superop,
)
from qdblab.dynamics import (
    HEISENBERG,
    LindbladGenerator,
    SuperOperator,
    commutator_superop,
    dual_superop,
    evolve,
    lindblad_superop,
)
from qdblab.errors import SingularWeight
from qdblab.examples import example_qdb_family, qubit_hamiltonian
from qdblab.fluctuation import check_pairwise_condition
from qdblab.matlin import dag, vec
from qdblab.states import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, gibbs

S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def matrix_units(d):
    units = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    return units


class TestInner:
    def test_identity_pair_gives_trace_of_sigma(self, rng):
        space = WeightedSpace(random_density(rng, 3), 0.3)
        assert abs(inner(space, np.eye(3), np.eye(3)) - 1.0) < 1e-12

    def test_s_one_maximally_mixed_reduces_to_hilbert_schmidt(self, rng):
        space = WeightedSpace(DensityMatrix(np.eye(3) / 3), 1.0)
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        assert abs(inner(space, a, b) - np.trace(dag(a) @ b) / 3) < 1e-12

    def test_vec_form_identity(self, rng):
        space = WeightedSpace(random_density(rng, 2), 0.37)
        w = space.weight
        for _ in range(10):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            trace_form = inner(space, a, b)
            vec_form = complex(dag(vec(a)) @ w @ vec(b))
            assert abs(trace_form - vec_form) < 1e-12

    def test_positive_definite(self, rng):
        space = WeightedSpace(random_density(rng, 2), 0.5)
        for _ in range(10):
            a = random_complex(rng, 2)
            val = inner(space, a, a)
            assert abs(val.imag) < 1e-12 and val.real > 0


class TestAdjoint:
    def test_identity_superop_self_adjoint(self, rng):
        space = WeightedSpace(random_density(rng, 2), 0.5)
        ident = SuperOperator(np.eye(4), HEISENBERG)
        assert matlin.frobenius(adjoint(space, ident).matrix - np.eye(4)) < 1e-12

    def test_commutator_adjoint_flips_sign(self, rng):
        # for the thermal reference the Hamiltonian part is anti-self-adjoint
        h = random_hamiltonian(rng, 3)
        space = WeightedSpace(gibbs(h, 0.9), 0.5)
        comm = SuperOperator(1j * commutator_superop(h.matrix), HEISENBERG)
        star = adjoint(space, comm)
        assert matlin.frobenius(star.matrix + comm.matrix) < 1e-10

    @pytest.mark.parametrize("s", S_GRID)
    def test_defining_relation_exact_on_matrix_units(self, rng, s):
        space = WeightedSpace(random_density(rng, 2), s)
        op = SuperOperator(random_complex(rng, 4), HEISENBERG)
        star = adjoint(space, op)
        for a in matrix_units(2):
            for b in matrix_units(2):
                lhs = inner(space, a, op.apply_matrix(b))
                rhs = inner(space, star.apply_matrix(a), b)
                assert abs(lhs - rhs) < 1e-10

    def test_double_adjoint_is_involution(self, rng):
        space = WeightedSpace(random_density(rng, 3), 0.25)
        op = SuperOperator(random_complex(rng, 9), HEISENBERG)
        twice = adjoint(space, adjoint(space, op))
        assert matlin.frobenius(twice.matrix - op.matrix) < 1e-11

    def test_singular_reference_rejected(self):
        with pytest.raises(SingularWeight):
            WeightedSpace(DensityMatrix(np.diag([1.0, 0.0])), 0.5)


class TestDecompose:
    def test_balanced_generator_hamiltonian_part(self):
        gen = example_qdb_family(0.6, 0.2, 1.0, 1.2)
        space = WeightedSpace(gibbs(gen.hamiltonian, 1.2), 0.5)
        ham_part, dis_part = decompose(space, dual_superop(gen))
        expected = 1j * commutator_superop(gen.hamiltonian.matrix)
        assert matlin.frobenius(ham_part.matrix - expected) < 1e-10
        # the two halves transform correctly under the adjoint
        assert matlin.frobenius(adjoint(space, ham_part).matrix + ham_part.matrix) < 1e-10
        assert matlin.frobenius(adjoint(space, dis_part).matrix - dis_part.matrix) < 1e-10

    def test_zero_dissipator_has_zero_self_adjoint_part(self, rng):
        h = random_hamiltonian(rng, 2)
        gen = LindbladGenerator.canonical(h, np.zeros((3, 3)))
        space = WeightedSpace(gibbs(h, 0.5), 0.5)
        _, dis_part = decompose(space, dual_superop(gen))
        assert matlin.frobenius(dis_part.matrix) < 1e-11

    def test_parts_reconstruct(self, rng):
        gen = random_lindblad(rng, 2)
        space = WeightedSpace(random_density(rng, 2), 0.75)
        dual = dual_superop(gen)
        ham_part, dis_part = decompose(space, dual)
        assert matlin.frobenius(ham_part.matrix + dis_part.matrix - dual.matrix) < 1e-13


class TestQdb1:
    @pytest.mark.parametrize("s", S_GRID)
    def test_balanced_family_passes(self, rng, s):
        for _ in range(5):
            mu, eta, beta = rng.uniform(0.1, 2), rng.uniform(0, 1), rng.uniform(0.2, 2)
            gen = example_qdb_family(mu, eta, 1.0, beta)
            space = WeightedSpace(gibbs(gen.hamiltonian, beta), s)
            report = check_qdb1(space, gen)
            assert report.passes and report.residual < 1e-10

    def test_generic_generator_fails_at_every_s(self, rng):
        gen = random_lindblad(rng, 3)
        sigma = gibbs(gen.hamiltonian, 0.8)
        verdicts = []
        for s in S_GRID:
            report = check_qdb1(WeightedSpace(sigma, s), gen)
            verdicts.append(report.passes)
            assert report.residual > 1e-3
        assert verdicts == [False] * len(S_GRID)

    def test_s_grid_verdicts_identical_for_balanced_family(self, rng):
        for _ in range(5):
            mu, eta, beta = rng.uniform(0.1, 2), rng.uniform(0, 1), rng.uniform(0.2, 2)
            gen = example_qdb_family(mu, eta, 1.0, beta)
            sigma = gibbs(gen.hamiltonian, beta)
            verdicts = {check_qdb1(WeightedSpace(sigma, s), gen).passes for s in S_GRID}
            assert verdicts == {True}

    def test_invariance_of_reference_state(self):
        gen = example_qdb_family(0.4, 0.3, 1.0, 0.9)
        space = WeightedSpace(gibbs(gen.hamiltonian, 0.9), 0.5)
        assert check_qdb1_invariance(space, gen) < 1e-10

    def test_unitary_generator_leaves_thermal_state_invariant(self, rng):
        h = random_hamiltonian(rng, 2)
        gen = LindbladGenerator.canonical(h, np.zeros((3, 3)))
        space = WeightedSpace(gibbs(h, 1.1), 0.5)
        assert check_qdb1_invariance(space, gen) < 1e-13


class TestTimeReversal:
    def test_conjugation_on_paulis(self):
        t = TimeReversal.conjugation(2)
        np.testing.assert_allclose(t.apply(SIGMA_X), SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(t.apply(SIGMA_Y), -SIGMA_Y, atol=1e-15)
        np.testing.assert_allclose(t.apply(SIGMA_Z), SIGMA_Z, atol=1e-15)

    def test_energy_eigenprojectors_invariant(self, rng):
        # conjugation taken in the Hamiltonian eigenbasis fixes projectors
        h = qubit_hamiltonian(1.3)
        t = TimeReversal.conjugation(2)
        for m in range(2):
            np.testing.assert_allclose(t.apply(h.projector(m)), h.projector(m), atol=1e-14)

    @pytest.mark.parametrize(
        "reversal",
        [TimeReversal.conjugation(2), TimeReversal.spin_half()],
        ids=["conjugation", "spin_half"],
    )
    def test_appendix_properties(self, rng, reversal):
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
        # (i) linearity
        lin = reversal.apply(alpha * a + beta * b) - alpha * reversal.apply(a) - beta * reversal.apply(b)
        assert matlin.frobenius(lin) < 1e-12
        # (ii) norm preservation (operator norm)
        assert abs(np.linalg.norm(reversal.apply(a), 2) - np.linalg.norm(a, 2)) < 1e-12
        # (iii) trace preservation
        assert abs(np.trace(reversal.apply(a)) - np.trace(a)) < 1e-12
        # (iv) compatibility with the adjoint
        assert matlin.frobenius(reversal.apply(dag(a)) - dag(reversal.apply(a))) < 1e-12
        # (v) product reversal
        assert matlin.frobenius(reversal.apply(a @ b) - reversal.apply(b) @ reversal.apply(a)) < 1e-12
        # (vi) output is a plain linear operator of the same shape
        assert reversal.apply(a).shape == a.shape
        # (vii) involution
        assert matlin.frobenius(reversal.apply(reversal.apply(a)) - a) < 1e-12

    def test_spin_half_is_sigma_y_sandwich(self, rng):
        t = TimeReversal.spin_half()
        a = random_complex(rng, 2)
        np.testing.assert_allclose(t.apply(a), SIGMA_Y @ a.T @ SIGMA_Y, atol=1e-14)

    def test_custom_reversal_validated(self):
        phases = np.diag(np.exp(1j * np.array([0.3, -1.2])))
        t = TimeReversal.custom(phases)
        assert t.kind == "custom"
        with pytest.raises(ValueError):
            TimeReversal.custom(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestQdb2:
    def test_identity_map_passes(self):
        # reference state diagonal in the conjugation basis, as in every
        # thermal workflow; for a generic complex reference the two sides
        # of the reversal identity legitimately differ
        space = WeightedSpace(gibbs(qubit_hamiltonian(1.0), 0.8), 0.5)
        ident = SuperOperator(np.eye(4), HEISENBERG)
        report = check_qdb2(space, ident, TimeReversal.conjugation(2))
        assert report.passes

    @pytest.mark.parametrize("s", S_GRID)
    def test_balanced_family_map_passes(self, s):
        gen = example_qdb_family(0.5, 0.1, 1.0, 1.0)
        space = WeightedSpace(gibbs(gen.hamiltonian, 1.0), s)
        heis = evolve(dual_superop(gen), 1.0)
        report = check_qdb2(space, heis, TimeReversal.conjugation(2))
        assert report.passes and report.max_residual < 1e-10

    @pytest.mark.parametrize(
        "d, kind",
        [(2, "conjugation"), (3, "conjugation"), (4, "conjugation"), (2, "spin_half"),
         (2, "reflection"), (3, "reflection"), (4, "reflection")],
    )
    def test_matches_matrix_unit_definition(self, rng, d, kind):
        # the identity checked on every pair of matrix units, literally
        if kind == "conjugation":
            t = TimeReversal.conjugation(d)
        elif kind == "spin_half":
            t = TimeReversal.spin_half()
        else:
            v = rng.normal(size=d)
            t = TimeReversal.custom(np.eye(d) - 2 * np.outer(v, v) / (v @ v))
        units = matrix_units(d)
        sigma = random_density(rng, d)
        maps = [
            SuperOperator(random_complex(rng, d * d), HEISENBERG),
            evolve(dual_superop(random_lindblad(rng, d)), 0.7),
        ]
        for s in (0.0, 0.3, 1.0):
            space = WeightedSpace(sigma, s)
            for g in maps:
                literal = max(
                    abs(
                        inner(space, dag(a), g.apply_matrix(b))
                        - inner(space, t.apply(dag(b)), g.apply_matrix(t.apply(a)))
                    )
                    for a in units
                    for b in units
                )
                report = check_qdb2(space, g, t)
                assert report.max_residual == pytest.approx(literal, rel=1e-12)

    def test_requires_heisenberg_picture(self, rng):
        gen = random_lindblad(rng, 2)
        space = WeightedSpace(random_density(rng, 2), 0.5)
        with pytest.raises(ValueError):
            check_qdb2(space, evolve(lindblad_superop(gen), 1.0), TimeReversal.conjugation(2))


class TestInvariantSubspaces:
    def test_balanced_family(self):
        gen = example_qdb_family(0.8, 0.4, 1.0, 1.5)
        space = WeightedSpace(gibbs(gen.hamiltonian, 1.5), 0.25)
        report = check_lemma_invariant_subspace(space, gen)
        assert report.passes
        assert report.rs_commutation_residual < 1e-10

    def test_pure_dephasing_freezes_populations(self):
        h = qubit_hamiltonian(1.0)
        gen = LindbladGenerator.from_jump_operators(h, [np.sqrt(0.7) * SIGMA_Z])
        space = WeightedSpace(gibbs(h, 0.5), 0.5)
        report = check_lemma_invariant_subspace(space, gen)
        assert report.passes and report.diagonal_leak < 1e-12

    def test_self_adjoint_part_satisfies_weighted_symmetry(self):
        # for K = (L# + L#*)/2 of a balanced generator:
        # e^{-b E_m} <m|K[|n><n|]|m> == e^{-b E_n} <n|K[|m><m|]|n>
        beta = 1.1
        gen = example_qdb_family(0.7, 0.2, 1.0, beta)
        h = gen.hamiltonian
        space = WeightedSpace(gibbs(h, beta), 0.5)
        _, dis = decompose(space, dual_superop(gen))
        for m in range(2):
            for n in range(2):
                lhs = np.exp(-beta * h.eigenvalues[m]) * (
                    dag(h.eigenvectors[:, m]) @ dis.apply_matrix(h.projector(n)) @ h.eigenvectors[:, m]
                )
                rhs = np.exp(-beta * h.eigenvalues[n]) * (
                    dag(h.eigenvectors[:, n]) @ dis.apply_matrix(h.projector(m)) @ h.eigenvectors[:, n]
                )
                assert abs(complex(lhs) - complex(rhs)) < 1e-10

    def test_r_s_superop_action(self, rng):
        space = WeightedSpace(random_density(rng, 2), 0.3)
        rs = r_s_superop(space)
        x = random_complex(rng, 2)
        direct = (
            space.sigma_power(1 - 2 * space.s) @ x @ space.sigma_power(2 * space.s - 1)
        )
        np.testing.assert_allclose(
            matlin.unvec(rs @ vec(x), 2, 2), direct, atol=1e-12
        )


class TestBalancedImpliesPairwise:
    def test_bridge_to_transition_probabilities(self, rng):
        # generators passing the first balance check satisfy the pairwise
        # transition symmetry at every sampled time
        for _ in range(5):
            mu, eta, beta = rng.uniform(0.1, 2), rng.uniform(0, 1), rng.uniform(0.2, 2)
            gen = example_qdb_family(mu, eta, 1.0, beta)
            space = WeightedSpace(gibbs(gen.hamiltonian, beta), 0.5)
            assert check_qdb1(space, gen).passes
            l = lindblad_superop(gen)
            for tau in (0.1, 1.0, 10.0):
                res = check_pairwise_condition(evolve(l, tau), gen.hamiltonian, beta)
                assert res < 1e-10
