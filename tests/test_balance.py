import math

import numpy as np
import pytest

from conftest import (
    commutator_superop,
    evolve_grid,
    SingularWeight,
    TimeReversal,
    WeightedSpace,
    adjoint,
    apply_matrix,
    check_lemma_invariant_subspace,
    check_pairwise_condition,
    check_qdb1_invariance,
    decompose,
    dual_superop,
    eigenframe,
    evolve,
    example_qdb_family,
    gibbs,
    inner,
    r_s_superop,
    random_complex,
    random_density,
    random_hamiltonian,
    random_lindblad,
    inverted_qubit,
    level_projector,
    thermal_circulation_qutrit,
    transpose_superop,
)
from qdblab import matlin
from qdblab.balance import check_qdb1, check_qdb2
from qdblab.dynamics import LindbladGenerator, lindblad_superop
from qdblab.examples import LOWERING, RAISING, example_c_generator, example_c_qdb_point, qubit_hamiltonian
from qdblab.matlin import dag, vec
from qdblab.states import SIGMA_X, SIGMA_Y, SIGMA_Z, HamiltonianSpec

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
        space = WeightedSpace(np.eye(3) / 3, 1.0)
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        assert abs(inner(space, a, b) - np.trace(dag(a) @ b) / 3) < 1e-12

    def test_vec_form_identity(self, rng):
        space = WeightedSpace(random_density(rng, 2), 0.37)
        w = space.weight
        for _ in range(10):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            trace_form = inner(space, a, b)
            vec_form = complex(vec(a).conj() @ w @ vec(b))
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
        ident = np.eye(4, dtype=complex)
        assert matlin.frobenius(adjoint(space, ident) - np.eye(4)) < 1e-12

    def test_commutator_adjoint_flips_sign(self, rng):
        # for the thermal reference the Hamiltonian part is anti-self-adjoint
        h = random_hamiltonian(rng, 3)
        space = WeightedSpace(gibbs(h, 0.9), 0.5)
        comm = 1j * commutator_superop(h.matrix)
        star = adjoint(space, comm)
        assert matlin.frobenius(star + comm) < 1e-10

    @pytest.mark.parametrize("s", S_GRID)
    def test_defining_relation_exact_on_matrix_units(self, rng, s):
        space = WeightedSpace(random_density(rng, 2), s)
        op = random_complex(rng, 4)
        star = adjoint(space, op)
        for a in matrix_units(2):
            for b in matrix_units(2):
                lhs = inner(space, a, apply_matrix(op, b))
                rhs = inner(space, apply_matrix(star, a), b)
                assert abs(lhs - rhs) < 1e-10

    def test_double_adjoint_is_involution(self, rng):
        space = WeightedSpace(random_density(rng, 3), 0.25)
        op = random_complex(rng, 9)
        twice = adjoint(space, adjoint(space, op))
        assert matlin.frobenius(twice - op) < 1e-11

    def test_singular_reference_rejected(self):
        with pytest.raises(SingularWeight):
            WeightedSpace(np.diag([1.0, 0.0]), 0.5)


class TestDecompose:
    def test_balanced_generator_hamiltonian_part(self):
        gen = example_qdb_family(0.6, 0.2, 1.0, 1.2)
        space = WeightedSpace(gibbs(gen.hamiltonian, 1.2), 0.5)
        ham_part, dis_part = decompose(space, dual_superop(gen))
        expected = 1j * commutator_superop(gen.hamiltonian.matrix)
        assert matlin.frobenius(ham_part - expected) < 1e-10
        # the two halves transform correctly under the adjoint
        assert matlin.frobenius(adjoint(space, ham_part) + ham_part) < 1e-10
        assert matlin.frobenius(adjoint(space, dis_part) - dis_part) < 1e-10

    def test_zero_dissipator_has_zero_self_adjoint_part(self, rng):
        h = random_hamiltonian(rng, 2)
        gen = LindbladGenerator.canonical(h, np.zeros((3, 3)))
        space = WeightedSpace(gibbs(h, 0.5), 0.5)
        _, dis_part = decompose(space, dual_superop(gen))
        assert matlin.frobenius(dis_part) < 1e-11

    def test_parts_reconstruct(self, rng):
        gen = random_lindblad(rng, 2)
        space = WeightedSpace(random_density(rng, 2), 0.75)
        dual = dual_superop(gen)
        ham_part, dis_part = decompose(space, dual)
        assert matlin.frobenius(ham_part + dis_part - dual) < 1e-13


def reference_qdb1(space: WeightedSpace, dual: np.ndarray, h: HamiltonianSpec) -> float:
    """``|L# - L#* - 2i [H, .]|_F / |L#|_F`` with the adjoint taken literally,
    ``W^-1 L#^dag W`` for the weight of any full-rank Sigma."""
    defect = dual - adjoint(space, dual) - 2j * commutator_superop(h.matrix)
    return matlin.frobenius(defect) / matlin.frobenius(dual)


def eigenbasis_hamiltonian(rng, d, kind):
    """A random spectrum in an eigenbasis that is the storage basis
    (``conjugation``: the reversal is plain conjugation there), a real
    Householder reflection (``reflection``), or a random unitary
    (``rotated``)."""
    if kind == "rotated":
        return random_hamiltonian(rng, d)
    energies = np.sort(rng.uniform(0.0, 2.0, size=d))
    v = np.eye(d)
    if kind == "reflection":
        u = rng.normal(size=d)
        v = v - 2 * np.outer(u, u) / (u @ u)
    return HamiltonianSpec.from_matrix((v * energies) @ v.T)


class TestQdb1:
    @pytest.mark.parametrize("s", S_GRID)
    def test_balanced_family_passes(self, rng, s):
        for _ in range(5):
            mu, eta, beta = rng.uniform(0.1, 2), rng.uniform(0, 1), rng.uniform(0.2, 2)
            gen = example_qdb_family(mu, eta, 1.0, beta)
            [residual] = check_qdb1(gen.hamiltonian, beta, (s,), lindblad_superop(gen))
            assert residual < 1e-10

    def test_generic_generator_fails_at_every_s(self, rng):
        gen = random_lindblad(rng, 3)
        h = gen.hamiltonian
        assert np.all(check_qdb1(h, 0.8, S_GRID, eigenframe(lindblad_superop(gen), h)) > 1e-3)

    def test_s_grid_verdicts_identical_for_balanced_family(self, rng):
        for _ in range(5):
            mu, eta, beta = rng.uniform(0.1, 2), rng.uniform(0, 1), rng.uniform(0.2, 2)
            gen = example_qdb_family(mu, eta, 1.0, beta)
            residuals = check_qdb1(gen.hamiltonian, beta, S_GRID, lindblad_superop(gen))
            assert set((residuals < 1e-9).tolist()) == {True}

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["conjugation", "rotated"])
    def test_matches_the_adjoint_formula(self, rng, d, kind):
        # the reference's W^-1 amplifies roundoff by up to e^(beta dE), so
        # beta dE stays below 4 here
        for _ in range(3):
            h = eigenbasis_hamiltonian(rng, d, kind)
            n = d * d - 1
            a = random_complex(rng, n)
            gen = LindbladGenerator.canonical(h, a @ dag(a) / n)
            beta = rng.uniform(0.2, 2.0)
            sigma = gibbs(h, beta)
            want = [reference_qdb1(WeightedSpace(sigma, s), dual_superop(gen), h) for s in S_GRID]
            got = check_qdb1(h, beta, S_GRID, eigenframe(lindblad_superop(gen), h))
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_inverted_populations_pass(self):
        # no Gibbs state exists for beta < 0, but the weight does
        gen, beta = inverted_qubit()
        assert np.all(check_qdb1(gen.hamiltonian, beta, S_GRID, lindblad_superop(gen)) < 1e-12)
        assert np.all(check_qdb1(gen.hamiltonian, -beta, S_GRID, lindblad_superop(gen)) > 1e-2)

    def test_balanced_qubit_passes_where_the_weight_ratio_overflows(self, rng):
        # at beta = 800 the weight ratio e^800 overflows; the adjoint takes it
        # with the rate in logs, so a zero rate stays 0 and e^-500 gives e^300
        h = qubit_hamiltonian(1.0)
        gen = LindbladGenerator.from_jump_operators(h, [math.exp(150) * LOWERING, math.exp(-250) * RAISING])
        l = lindblad_superop(gen)
        assert np.all(check_qdb1(h, 800.0, S_GRID, l) < 1e-12)
        assert np.all(check_qdb1(h, 799.9, S_GRID, l) > 1e-2)
        # at beta = 900 the defect is e^400 - e^300 against |L#| = sqrt(2.5) e^300,
        # whose squares are past the float range; at 1300 its entry e^800 is
        assert check_qdb1(h, 900.0, S_GRID, l) == pytest.approx([math.exp(100) / math.sqrt(2.5)] * 5, rel=1e-10)
        assert np.all(check_qdb1(h, 1300.0, S_GRID, l) == np.inf)
        circulating, h3 = thermal_circulation_qutrit(rng, beta_f=0.9)
        for beta in (0.9, 800.0):
            assert np.all(check_qdb1(h3, beta, S_GRID, lindblad_superop(circulating)) > 1e-3)

    @pytest.mark.parametrize("nu_scale", [1.0, 1.1])
    def test_residuals_do_not_depend_on_the_units(self, nu_scale):
        # H and L scaled by c = 2^k and beta by 1/c: the squares of the entries
        # over- or underflow at |k| = 600, but the residuals stay bitwise equal
        base = example_c_qdb_point(0.5, 0.1, 1.0, 1.0)
        p = base.replace(nu=base.nu * nu_scale)
        h, l = qubit_hamiltonian(p.omega), example_c_generator(p)
        want = check_qdb1(h, 1.0, S_GRID, l)
        assert want.max() > 1e-2 if nu_scale != 1.0 else want.max() < 1e-12
        for k in (-600, -300, 300, 600):
            c = 2.0**k
            got = check_qdb1(HamiltonianSpec.from_matrix(c * h.matrix), 1.0 / c, S_GRID, c * l)
            assert np.array_equal(got, want), k

    def test_invariance_of_reference_state(self):
        gen = example_qdb_family(0.4, 0.3, 1.0, 0.9)
        space = WeightedSpace(gibbs(gen.hamiltonian, 0.9), 0.5)
        assert check_qdb1_invariance(space, lindblad_superop(gen)) < 1e-10

    def test_unitary_generator_leaves_thermal_state_invariant(self, rng):
        h = random_hamiltonian(rng, 2)
        gen = LindbladGenerator.canonical(h, np.zeros((3, 3)))
        space = WeightedSpace(gibbs(h, 1.1), 0.5)
        assert check_qdb1_invariance(space, lindblad_superop(gen)) < 1e-13


def test_rotated_model_keeps_the_residuals_of_the_unrotated_one(rng):
    # the residuals are taken over H's eigenbasis units, so a change of the
    # storage basis leaves them as they are; each model enters the checks in
    # its own eigenframe
    gen, h = thermal_circulation_qutrit(rng, 1.0)
    q, _ = np.linalg.qr(random_complex(rng, 3))
    rot = np.kron(q.conj(), q)  # vec(q X q^dag) == rot @ vec(X)
    l = lindblad_superop(gen)
    l_rot = rot @ l @ dag(rot)
    h_rot = HamiltonianSpec.from_matrix(q @ h.matrix @ dag(q))

    def residuals(model_h, model_l):
        maps = eigenframe(evolve_grid(model_l, (0.1, 0.5, 1.0, 5.0)), model_h)
        return check_qdb1(model_h, 1.0, S_GRID, eigenframe(model_l, model_h)), check_qdb2(model_h, 1.0, S_GRID, maps)

    want1, want2 = residuals(h, l)
    got1, got2 = residuals(h_rot, l_rot)
    assert np.all(want1 > 1e-3) and np.all(want2 > 1e-4)
    np.testing.assert_allclose(got1, want1, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got2, want2, rtol=1e-12, atol=0)


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
            np.testing.assert_allclose(t.apply(level_projector(h, m)), level_projector(h, m), atol=1e-14)

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
        np.testing.assert_array_equal(TimeReversal(phases).unitary, phases)
        with pytest.raises(ValueError):
            TimeReversal(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestQdb2:
    def test_identity_map_passes(self):
        ident = np.eye(4, dtype=complex)[None]
        assert np.all(check_qdb2(qubit_hamiltonian(1.0), 0.8, S_GRID, ident) < 1e-9)

    @pytest.mark.parametrize("s", S_GRID)
    def test_balanced_family_map_passes(self, s):
        gen = example_qdb_family(0.5, 0.1, 1.0, 1.0)
        [residual] = check_qdb2(gen.hamiltonian, 1.0, (s,), evolve(lindblad_superop(gen), 1.0)[None])
        assert residual < 1e-10

    @pytest.mark.parametrize(
        "d, kind",
        [(2, "conjugation"), (3, "conjugation"), (4, "conjugation"), (2, "reflection"), (3, "reflection"),
         (4, "reflection"), (2, "rotated"), (3, "rotated"), (4, "rotated")],
    )
    def test_matches_matrix_unit_definition(self, rng, d, kind):
        # the condition checked on every pair of H's eigenbasis units,
        # literally, for the Gibbs state and complex conjugation in that basis
        h = eigenbasis_hamiltonian(rng, d, kind)
        v = h.eigenvectors
        t = TimeReversal(v @ v.T)
        units = [np.outer(v[:, i], v[:, j].conj()) for j in range(d) for i in range(d)]
        beta = 0.7
        sigma = gibbs(h, beta)
        # Schroedinger maps and their Heisenberg duals, the second from the literal formula
        gen = random_lindblad(rng, d)
        k_t = transpose_superop(d)
        maps = [random_complex(rng, d * d), evolve(lindblad_superop(gen), 0.7)]
        duals = [k_t @ maps[0].T @ k_t, evolve(dual_superop(gen), 0.7)]
        s_grid = (0.0, 0.3, 1.0)
        per_map = [check_qdb2(h, beta, s_grid, eigenframe(g[None], h)) for g in maps]
        for k, s in enumerate(s_grid):
            space = WeightedSpace(sigma, s)
            for g, residuals in zip(duals, per_map):
                literal = max(
                    abs(
                        inner(space, dag(a), apply_matrix(g, b))
                        - inner(space, t.apply(dag(b)), apply_matrix(g, t.apply(a)))
                    )
                    for a in units
                    for b in units
                )
                assert residuals[k] == pytest.approx(literal, rel=1e-12)
        # a stack's residual is the largest of its maps'
        stack = eigenframe(np.array(maps), h)
        np.testing.assert_allclose(check_qdb2(h, beta, s_grid, stack), np.maximum(*per_map), rtol=1e-14, atol=0)

    def test_stack_keeps_a_nan_residual(self, rng):
        stack = np.array([np.eye(4), np.full((4, 4), np.nan), np.eye(4)], dtype=complex)
        assert np.all(np.isnan(check_qdb2(random_hamiltonian(rng, 2), 0.5, S_GRID, stack)))

    def test_inverted_populations_pass(self):
        gen, beta = inverted_qubit()
        maps = evolve_grid(lindblad_superop(gen), (0.1, 0.5, 1.0, 5.0))
        assert np.all(check_qdb2(gen.hamiltonian, beta, S_GRID, maps) < 1e-12)
        assert np.all(check_qdb2(gen.hamiltonian, -beta, S_GRID, maps) > 1e-3)


class TestInvariantSubspaces:
    def test_balanced_family(self):
        gen = example_qdb_family(0.8, 0.4, 1.0, 1.5)
        space = WeightedSpace(gibbs(gen.hamiltonian, 1.5), 0.25)
        diagonal_leak, offdiagonal_leak, rs_commutation = check_lemma_invariant_subspace(space, dual_superop(gen))
        assert max(diagonal_leak, offdiagonal_leak, rs_commutation) < 1e-9
        assert rs_commutation < 1e-10

    def test_pure_dephasing_freezes_populations(self):
        h = qubit_hamiltonian(1.0)
        gen = LindbladGenerator.from_jump_operators(h, [np.sqrt(0.7) * SIGMA_Z])
        space = WeightedSpace(gibbs(h, 0.5), 0.5)
        leaks = check_lemma_invariant_subspace(space, dual_superop(gen))
        assert max(leaks) < 1e-9 and leaks[0] < 1e-12

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
                    h.eigenvectors[:, m].conj() @ apply_matrix(dis, level_projector(h, n)) @ h.eigenvectors[:, m]
                )
                rhs = np.exp(-beta * h.eigenvalues[n]) * (
                    h.eigenvectors[:, n].conj() @ apply_matrix(dis, level_projector(h, m)) @ h.eigenvectors[:, n]
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
            [residual] = check_qdb1(gen.hamiltonian, beta, (0.5,), lindblad_superop(gen))
            assert residual < 1e-9
            l = lindblad_superop(gen)
            for tau in (0.1, 1.0, 10.0):
                res = check_pairwise_condition(evolve(l, tau), gen.hamiltonian, beta)
                assert res < 1e-10
