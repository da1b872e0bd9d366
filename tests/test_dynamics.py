import numpy as np
import pytest

from conftest import level_unit, random_complex, random_density, random_hamiltonian, random_lindblad
from qdblab import matlin
from qdblab.dynamics import (
    HEISENBERG,
    SCHRODINGER,
    CptpReport,
    KrausChannel,
    LindbladGenerator,
    SuperOperator,
    _partial_trace_out,
    apply,
    channel_from_superop,
    choi_matrix,
    commutator_superop,
    dual_superop,
    evolve,
    gell_mann_basis,
    heisenberg_dual,
    is_cptp,
    lindblad_superop,
    superop_from_channel,
)
from qdblab.errors import (
    DimensionMismatch,
    KossakowskiNotPSD,
    NotCompletelyPositive,
    NotTracePreserving,
)
from qdblab.matlin import dag, kron
from qdblab.states import gibbs


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gell_mann_basis_orthonormal_traceless(d):
    basis = gell_mann_basis(d)
    assert len(basis) == d * d
    for k, fk in enumerate(basis):
        assert matlin.is_hermitian(fk)
        if k < d * d - 1:
            assert abs(np.trace(fk)) < 1e-14
        for l, fl in enumerate(basis):
            overlap = np.trace(dag(fk) @ fl)
            assert abs(overlap - (1.0 if k == l else 0.0)) < 1e-13
    np.testing.assert_allclose(basis[-1], np.eye(d) / np.sqrt(d))


class TestLindbladSuperop:
    def test_zero_dissipator_kills_thermal_state(self, rng):
        h = random_hamiltonian(rng, 3)
        gen = LindbladGenerator.canonical(h, np.zeros((8, 8)))
        l = lindblad_superop(gen)
        assert matlin.frobenius(l.apply_matrix(gibbs(h, 0.7).matrix)) < 1e-12

    def test_annihilates_trace(self, rng):
        gen = random_lindblad(rng, 3)
        l = lindblad_superop(gen)
        for _ in range(5):
            x = random_complex(rng, 3)
            assert abs(np.trace(l.apply_matrix(x))) < 1e-11

    def test_matches_jump_operator_dissipator(self, rng):
        # independent oracle: assemble the vectorized dissipator directly
        # from the jump operators, including one with a trace part
        h = random_hamiltonian(rng, 2)
        jumps = [random_complex(rng, 2), random_complex(rng, 2) + 0.7 * np.eye(2)]
        gen = LindbladGenerator.from_jump_operators(h, jumps)
        eye = np.eye(2)
        expected = -1j * commutator_superop(h.matrix)
        for jump in jumps:
            jj = dag(jump) @ jump
            expected += (
                kron(jump.conj(), jump)
                - 0.5 * kron(eye, jj)
                - 0.5 * kron(jj.T, eye)
            )
        assert matlin.frobenius(lindblad_superop(gen).matrix - expected) < 1e-11


class TestDuality:
    def test_dual_is_unital(self, rng):
        for d in (2, 3):
            gen = random_lindblad(rng, d)
            ld = dual_superop(gen)
            assert matlin.frobenius(ld.apply_matrix(np.eye(d))) < 1e-11

    def test_trace_pairing_on_random_pairs(self, rng):
        gen = random_lindblad(rng, 3)
        l = lindblad_superop(gen)
        ld = dual_superop(gen)
        for _ in range(100):
            sigma = random_density(rng, 3).matrix
            a = random_complex(rng, 3)
            lhs = np.trace(l.apply_matrix(sigma) @ a)
            rhs = np.trace(sigma @ ld.apply_matrix(a))
            assert abs(lhs - rhs) < 1e-11

    def test_zero_dissipator_flips_commutator_sign(self, rng):
        h = random_hamiltonian(rng, 2)
        gen = LindbladGenerator.canonical(h, np.zeros((3, 3)))
        expected = 1j * commutator_superop(h.matrix)
        assert matlin.frobenius(dual_superop(gen).matrix - expected) < 1e-13

    def test_heisenberg_dual_matches_literal_dual(self, rng):
        gen = random_lindblad(rng, 3)
        hd = heisenberg_dual(lindblad_superop(gen))
        assert hd.picture == HEISENBERG
        assert matlin.frobenius(hd.matrix - dual_superop(gen).matrix) < 1e-12

    def test_finite_time_duality(self, rng):
        gen = random_lindblad(rng, 2)
        g = evolve(lindblad_superop(gen), 0.8)
        gd = evolve(dual_superop(gen), 0.8)
        for _ in range(20):
            sigma = random_density(rng, 2).matrix
            a = random_complex(rng, 2)
            assert abs(np.trace(g.apply_matrix(sigma) @ a) - np.trace(sigma @ gd.apply_matrix(a))) < 1e-10


class TestEvolve:
    def test_zero_time_is_identity(self, rng):
        gen = random_lindblad(rng, 2)
        g = evolve(lindblad_superop(gen), 0.0)
        np.testing.assert_array_equal(g.matrix, np.eye(4))

    def test_semigroup_law(self, rng):
        gen = random_lindblad(rng, 3)
        l = lindblad_superop(gen)
        lhs = evolve(l, 1.0).matrix
        rhs = evolve(l, 0.3).matrix @ evolve(l, 0.7).matrix
        assert matlin.frobenius(lhs - rhs) < 1e-10

    def test_rejects_negative_time(self, rng):
        with pytest.raises(ValueError):
            evolve(lindblad_superop(random_lindblad(rng, 2)), -0.1)


class TestCptp:
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_generated_semigroups_are_cptp(self, rng, tau):
        for d in (2, 3):
            gen = random_lindblad(rng, d)
            report = is_cptp(evolve(lindblad_superop(gen), tau))
            assert report.passes(1e-9), report

    def test_transpose_map_fails(self):
        transpose = SuperOperator(matlin.transpose_superop(2), SCHRODINGER)
        report = is_cptp(transpose)
        assert abs(report.cp_residual - 1.0) < 1e-12
        assert report.tp_residual < 1e-12

    def test_non_finite_map_has_infinite_residuals(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = np.nan
        m[3, 0] = np.inf
        report = is_cptp(SuperOperator(m, SCHRODINGER))
        assert report == CptpReport(np.inf, np.inf, np.inf)
        assert not report.passes()

    def test_report_fields_nonnegative(self, rng):
        report = is_cptp(evolve(lindblad_superop(random_lindblad(rng, 2)), 0.5))
        assert isinstance(report, CptpReport)
        assert report.cp_residual >= 0 and report.tp_residual >= 0


class TestKrausChannel:
    def test_trace_preservation_enforced(self):
        with pytest.raises(NotTracePreserving):
            KrausChannel((np.diag([1.0, 0.8]),))

    def test_apply_identity_channel(self, rng):
        rho = random_density(rng, 2)
        out = apply(KrausChannel((np.eye(2),)), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            apply(KrausChannel((np.eye(2),)), random_density(rng, 3))


class TestChoiAndKraus:
    def test_identity_superop_single_kraus(self):
        channel = channel_from_superop(SuperOperator(np.eye(4), SCHRODINGER))
        assert len(channel.kraus_ops) == 1
        np.testing.assert_allclose(channel.kraus_ops[0], np.eye(2), atol=1e-12)

    def test_choi_of_identity_is_maximally_entangled(self):
        choi = choi_matrix(SuperOperator(np.eye(4), SCHRODINGER))
        bell = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                bell[i * 2 + i, j * 2 + j] = 1.0
        np.testing.assert_allclose(choi, bell, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_choi_matches_matrix_unit_definition(self, rng, d):
        s = SuperOperator(random_complex(rng, d * d), SCHRODINGER)
        literal = sum(
            kron(level_unit(d, i, j), s.apply_matrix(level_unit(d, i, j)))
            for i in range(d)
            for j in range(d)
        )
        np.testing.assert_array_equal(choi_matrix(s), literal)
        blocks = [
            [np.trace(literal[i * d : (i + 1) * d, j * d : (j + 1) * d]) for j in range(d)] for i in range(d)
        ]
        # the partial trace may sum each block's diagonal in another order
        atol = d * np.finfo(float).eps * np.max(np.abs(literal))
        np.testing.assert_allclose(_partial_trace_out(literal, d), blocks, rtol=0, atol=atol)

    def test_kraus_decomposition_roundtrip(self, rng):
        gen = random_lindblad(rng, 2)
        g = evolve(lindblad_superop(gen), 1.0)
        channel = channel_from_superop(g)
        rebuilt = superop_from_channel(channel)
        assert matlin.frobenius(rebuilt.matrix - g.matrix) < 1e-9

    def test_damped_qubit_map_has_four_kraus_operators(self):
        from qdblab.examples import ExampleBParams, example_b_generator

        gen = example_b_generator(ExampleBParams(omega=1.0, gamma=1.0, beta_f=1.0))
        g = evolve(lindblad_superop(gen), 1.0)
        channel = channel_from_superop(g)
        assert len(channel.kraus_ops) == 4
        assert matlin.frobenius(superop_from_channel(channel).matrix - g.matrix) < 1e-9

    def test_transpose_map_rejected(self):
        with pytest.raises(NotCompletelyPositive):
            channel_from_superop(SuperOperator(matlin.transpose_superop(2), SCHRODINGER))

    def test_roundtrip_from_channel(self, rng):
        # channel -> superoperator -> channel -> superoperator is stable
        gen = random_lindblad(rng, 3)
        g = evolve(lindblad_superop(gen), 0.7)
        ch1 = channel_from_superop(g)
        s1 = superop_from_channel(ch1)
        ch2 = channel_from_superop(s1)
        s2 = superop_from_channel(ch2)
        assert matlin.frobenius(s1.matrix - s2.matrix) < 1e-9


class TestLindbladGeneratorValidation:
    def test_rejects_indefinite_kossakowski(self, rng):
        h = random_hamiltonian(rng, 2)
        with pytest.raises(KossakowskiNotPSD):
            LindbladGenerator.canonical(h, np.diag([1.0, -0.1, 0.2]))

    def test_rejects_non_hermitian_kossakowski(self, rng):
        h = random_hamiltonian(rng, 2)
        c = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(KossakowskiNotPSD):
            LindbladGenerator(h, np.pad(c, ((0, 1), (0, 1))), tuple(gell_mann_basis(2)[:3]))

    def test_rejects_basis_with_trace(self, rng):
        h = random_hamiltonian(rng, 2)
        basis = list(gell_mann_basis(2)[:3])
        basis[1] = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="matrix 1 is not traceless"):
            LindbladGenerator(h, np.eye(3), tuple(basis))

    @pytest.mark.parametrize("defect", ["scaled", "oblique"])
    def test_rejects_non_orthonormal_basis(self, rng, defect):
        h = random_hamiltonian(rng, 2)
        basis = list(gell_mann_basis(2)[:3])
        if defect == "scaled":
            basis[2] = 2 * basis[2]
        else:
            basis[2] = (basis[1] + basis[2]) / np.sqrt(2)
        with pytest.raises(ValueError, match="not orthonormal"):
            LindbladGenerator(h, np.eye(3), tuple(basis))

    def test_rejects_wrong_basis_size(self, rng):
        h = random_hamiltonian(rng, 2)
        with pytest.raises(DimensionMismatch):
            LindbladGenerator(h, np.eye(3), tuple(gell_mann_basis(2)[:2]))


def test_superoperator_validates_shape():
    with pytest.raises(DimensionMismatch):
        SuperOperator(np.eye(5))
    with pytest.raises(ValueError):
        SuperOperator(np.eye(4), "wrong")


def test_apply_rejects_heisenberg_picture(rng):
    gen = random_lindblad(rng, 2)
    with pytest.raises(ValueError):
        apply(evolve(dual_superop(gen), 1.0), random_density(rng, 2))


def test_evolved_states_stay_valid(rng):
    gen = random_lindblad(rng, 3)
    l = lindblad_superop(gen)
    rho = random_density(rng, 3)
    for tau in (0.1, 1.0, 10.0):
        out = apply(evolve(l, tau), rho)  # DensityMatrix constructor validates
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10
