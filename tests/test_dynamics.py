import math

import numpy as np
import pytest

from conftest import (
    TOL_CPTP,
    a_family,
    block,
    commutator_superop,
    evolve_grid,
    NotCompletelyPositive,
    _partial_trace_out,
    apply,
    apply_matrix,
    channel_from_superop,
    dual_superop,
    eigenframe,
    evolve,
    gibbs,
    is_cptp,
    judged_transitions,
    level_unit,
    random_complex,
    random_density,
    random_hamiltonian,
    random_lindblad,
    reference_lindblad_superop,
    superop_from_channel,
    transpose_superop,
)
from qdblab import matlin
from qdblab.balance import _trace_dual
from qdblab.dynamics import (
    PSD_ATOL,
    Dynamics,
    LindbladGenerator,
    _kraus_stacks,
    _kraus_superops,
    bloch4_to_superop,
    choi_matrix,
    gell_mann_basis,
    gkls_defects,
    lindblad_superop,
    maps_of,
    require_superop_dim,
)
from qdblab.errors import ConfigError, DimensionMismatch, KossakowskiNotPSD, NotTracePreserving
from qdblab.matlin import dag, kron, unvec
from qdblab.examples import ExampleAParams, example_a_channel, qubit_hamiltonian
from qdblab.fluctuation import FIXED_POINT_TAUS
from qdblab.report import QDB2_TAUS
from qdblab.states import SIGMA_X


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
        assert matlin.frobenius(apply_matrix(l, gibbs(h, 0.7))) < 1e-12

    def test_annihilates_trace(self, rng):
        gen = random_lindblad(rng, 3)
        l = lindblad_superop(gen)
        for _ in range(5):
            x = random_complex(rng, 3)
            assert abs(np.trace(apply_matrix(l, x))) < 1e-11

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
        assert matlin.frobenius(lindblad_superop(gen) - expected) < 1e-11


def random_jumps(rng, d, n):
    """``n`` random jump operators, every other one with a trace part."""
    return [random_complex(rng, d) + (0.7 * np.eye(d) if j % 2 else 0) for j in range(n)]


class TestBuilderAgainstReference:
    """The einsum builder against the literal double loop over (k, l), and its
    trace dual against the literal Heisenberg formula."""

    @staticmethod
    def assert_matches_references(gen):
        l = lindblad_superop(gen)
        assert matlin.frobenius(l - reference_lindblad_superop(gen)) < 1e-12
        assert matlin.frobenius(_trace_dual(l) - dual_superop(gen)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_canonical_generators(self, rng, d):
        for _ in range(3):
            self.assert_matches_references(random_lindblad(rng, d))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_jump_generators(self, rng, d):
        for n in (1, 3, d * d + 1):
            self.assert_matches_references(
                LindbladGenerator.from_jump_operators(random_hamiltonian(rng, d), random_jumps(rng, d, n))
            )

    @pytest.mark.parametrize("defect", ["scaled", "oblique"])
    def test_any_traceless_basis(self, rng, defect):
        # neither orthonormal nor d^2 - 1 in number
        h = random_hamiltonian(rng, 3)
        basis = np.array(gell_mann_basis(3)[:8])
        basis = 2 * basis[:5] if defect == "scaled" else basis[:5] + basis[1:6]
        a = random_complex(rng, 5)
        self.assert_matches_references(LindbladGenerator(h, a @ dag(a), basis))

    def test_jump_generator_keeps_its_traceless_jumps(self, rng):
        h = random_hamiltonian(rng, 2)
        jumps = random_jumps(rng, 2, 2)
        gen = LindbladGenerator.from_jump_operators(h, jumps)
        assert np.array_equal(gen.kossakowski, np.eye(2))
        assert np.array_equal(gen.basis[0], jumps[0] - np.trace(jumps[0]) / 2 * np.eye(2))
        assert np.allclose(np.trace(gen.basis, axis1=1, axis2=2), 0, atol=1e-15)

    def test_no_jumps_is_the_commutator(self, rng):
        h = random_hamiltonian(rng, 3)
        gen = LindbladGenerator.from_jump_operators(h, [])
        assert gen.basis.shape == (0, 3, 3) and gen.kossakowski.shape == (0, 0)
        assert np.array_equal(lindblad_superop(gen), -1j * commutator_superop(h.matrix))

    def test_rejects_a_jump_of_the_wrong_shape(self, rng):
        with pytest.raises(DimensionMismatch, match="jump operator"):
            LindbladGenerator.from_jump_operators(random_hamiltonian(rng, 2), [np.eye(3)])


class TestDuality:
    def test_dual_is_unital(self, rng):
        for d in (2, 3):
            gen = random_lindblad(rng, d)
            ld = dual_superop(gen)
            assert matlin.frobenius(apply_matrix(ld, np.eye(d))) < 1e-11

    def test_trace_pairing_on_random_pairs(self, rng):
        gen = random_lindblad(rng, 3)
        l = lindblad_superop(gen)
        ld = dual_superop(gen)
        for _ in range(100):
            sigma = random_density(rng, 3)
            a = random_complex(rng, 3)
            lhs = np.trace(apply_matrix(l, sigma) @ a)
            rhs = np.trace(sigma @ apply_matrix(ld, a))
            assert abs(lhs - rhs) < 1e-11

    def test_zero_dissipator_flips_commutator_sign(self, rng):
        h = random_hamiltonian(rng, 2)
        gen = LindbladGenerator.canonical(h, np.zeros((3, 3)))
        expected = 1j * commutator_superop(h.matrix)
        assert matlin.frobenius(dual_superop(gen) - expected) < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_trace_dual_is_the_transpose_between_permutations(self, rng, d):
        # K m^T K with the permutation K, exact as a product too
        k = transpose_superop(d)
        stack = np.array([random_complex(rng, d * d) for _ in range(3)])
        assert np.array_equal(_trace_dual(stack), [k @ m.T @ k for m in stack])
        assert np.array_equal(_trace_dual(stack[0]), k @ stack[0].T @ k)

    def test_finite_time_duality(self, rng):
        gen = random_lindblad(rng, 2)
        g = evolve(lindblad_superop(gen), 0.8)
        gd = evolve(dual_superop(gen), 0.8)
        for _ in range(20):
            sigma = random_density(rng, 2)
            a = random_complex(rng, 2)
            assert abs(np.trace(apply_matrix(g, sigma) @ a) - np.trace(sigma @ apply_matrix(gd, a))) < 1e-10


class TestEvolve:
    def test_zero_time_is_identity(self, rng):
        gen = random_lindblad(rng, 2)
        g = evolve(lindblad_superop(gen), 0.0)
        np.testing.assert_array_equal(g, np.eye(4))

    def test_semigroup_law(self, rng):
        gen = random_lindblad(rng, 3)
        l = lindblad_superop(gen)
        lhs = evolve(l, 1.0)
        rhs = evolve(l, 0.3) @ evolve(l, 0.7)
        assert matlin.frobenius(lhs - rhs) < 1e-10

    def test_rejects_negative_time(self, rng):
        with pytest.raises(ValueError):
            evolve(lindblad_superop(random_lindblad(rng, 2)), -0.1)


class TestCptp:
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_generated_semigroups_are_cptp(self, rng, tau):
        for d in (2, 3):
            gen = random_lindblad(rng, d)
            residuals = is_cptp(evolve(lindblad_superop(gen), tau))
            assert max(residuals) < 1e-9, residuals

    def test_transpose_map_fails(self):
        cp, tp, _ = is_cptp(transpose_superop(2))
        assert abs(cp - 1.0) < 1e-12
        assert tp < 1e-12

    def test_non_finite_map_has_infinite_residuals(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = np.nan
        m[3, 0] = np.inf
        assert is_cptp(m) == (np.inf, np.inf, np.inf)

    def test_residuals_nonnegative(self, rng):
        cp, tp, herm = is_cptp(evolve(lindblad_superop(random_lindblad(rng, 2)), 0.5))
        assert cp >= 0 and tp >= 0 and herm >= 0


# T2 > 2 T1: transverse damping far below half the longitudinal one
SLOW_DEPHASING_BLOCH4 = np.array([[0, 0, 0, 0], [0, 0.01, -0.5, 0], [0, 0.5, 0.01, 0], [0, 0, 0, 1.0]])


def reference_gkls_defects(generator: np.ndarray) -> tuple:
    """``(cp, tp)`` of one generator, with the Choi matrix restricted to an
    orthonormal basis of the complement of ``vec(I)`` from a QR
    decomposition, and the trace defect as the norm of ``Tr L(E_ij)`` over
    the matrix units."""
    d = math.isqrt(generator.shape[0])
    norm = np.linalg.norm(generator, 1) or 1.0  # L = 0 has no defect
    q, _ = np.linalg.qr(np.column_stack([np.eye(d).reshape(-1), np.eye(d * d)[:, 1:]]))
    choi = choi_matrix(generator / norm)
    lo = np.linalg.eigvalsh(q[:, 1:].conj().T @ ((choi + choi.conj().T) / 2) @ q[:, 1:]).min()
    traces = [np.trace(unvec(generator[:, k], d, d)) for k in range(d * d)]
    return max(-lo, 0.0), np.linalg.norm(traces) / norm


class TestGklsDefects:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generated_semigroups_pass_at_roundoff(self, rng, d):
        generators = np.array([lindblad_superop(random_lindblad(rng, d, rate)) for rate in (1e-3, 1.0, 1e3)])
        cp, tp = gkls_defects(generators)
        assert np.all(cp < 1e-15) and np.all(tp < 1e-15), (cp, tp)

    @pytest.mark.parametrize(
        "generator, want",
        [
            (np.zeros((4, 4)), (0.0, 0.0)),
            # the transposition is positive but not completely positive; its 1-norm with -I is 2
            (transpose_superop(2) - np.eye(4), (0.5, 0.0)),
            # decay of every operator, the trace too: vec(I)^dag L = -vec(I)
            (-np.eye(9), (0.0, math.sqrt(3))),
            (bloch4_to_superop(SLOW_DEPHASING_BLOCH4), (0.49, 0.0)),
        ],
        ids=["zero", "transposition", "trace-decay", "slow-dephasing-bloch4"],
    )
    def test_defects_of_known_generators(self, generator, want):
        got = [float(r[0]) for r in gkls_defects(np.asarray(generator, dtype=complex)[None])]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(got, reference_gkls_defects(generator), rtol=1e-13, atol=1e-15)

    def test_stacked_defects_are_the_reference_ones(self, rng):
        generators = np.array([lindblad_superop(random_lindblad(rng, 2)), bloch4_to_superop(rng.normal(size=(4, 4)))])
        for generator, *defects in zip(generators, *gkls_defects(generators)):
            np.testing.assert_allclose(defects, reference_gkls_defects(generator), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    def test_verdicts_do_not_depend_on_the_units(self, rng, scale):
        generators = np.array([
            lindblad_superop(random_lindblad(rng, 2)),
            bloch4_to_superop(SLOW_DEPHASING_BLOCH4),
            transpose_superop(2) - np.eye(4),
            -np.eye(4),
        ])
        cp, tp = gkls_defects(generators)
        scaled = gkls_defects(scale * generators)
        assert (np.maximum(*scaled) < 1e-9).tolist() == (np.maximum(cp, tp) < 1e-9).tolist() == [True] + [False] * 3
        np.testing.assert_allclose(scaled, (cp, tp), rtol=1e-14, atol=1e-16)


class TestKrausOperators:
    def test_apply_identity_channel(self, rng):
        rho = random_density(rng, 2)
        out = apply(np.eye(2)[None], rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            apply(np.eye(2)[None], random_density(rng, 3))


class TestChoiAndKraus:
    def test_identity_superop_single_kraus(self):
        kraus = channel_from_superop(np.eye(4, dtype=complex))
        assert len(kraus) == 1
        np.testing.assert_allclose(kraus[0], np.eye(2), atol=1e-12)

    def test_choi_of_identity_is_maximally_entangled(self):
        choi = choi_matrix(np.eye(4, dtype=complex))
        bell = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                bell[i * 2 + i, j * 2 + j] = 1.0
        np.testing.assert_allclose(choi, bell, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_choi_matches_matrix_unit_definition(self, rng, d):
        s = random_complex(rng, d * d)
        literal = sum(
            kron(level_unit(d, i, j), apply_matrix(s, level_unit(d, i, j)))
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
        assert matlin.frobenius(superop_from_channel(channel) - g) < 1e-9

    def test_damped_qubit_map_has_four_kraus_operators(self):
        from qdblab.examples import ExampleBParams, example_b_generator

        gen = example_b_generator(ExampleBParams(omega=1.0, gamma=1.0, beta_f=1.0))
        g = evolve(lindblad_superop(gen), 1.0)
        channel = channel_from_superop(g)
        assert len(channel) == 4
        assert matlin.frobenius(superop_from_channel(channel) - g) < 1e-9

    def test_transpose_map_rejected(self):
        with pytest.raises(NotCompletelyPositive):
            channel_from_superop(transpose_superop(2))

    def test_roundtrip_from_channel(self, rng):
        # channel -> superoperator -> channel -> superoperator is stable
        gen = random_lindblad(rng, 3)
        g = evolve(lindblad_superop(gen), 0.7)
        ch1 = channel_from_superop(g)
        s1 = superop_from_channel(ch1)
        ch2 = channel_from_superop(s1)
        s2 = superop_from_channel(ch2)
        assert matlin.frobenius(s1 - s2) < 1e-9


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

    @pytest.mark.parametrize("scale", [1.0, 1e12])
    def test_bounds_scale_with_the_kossakowski_matrix(self, rng, scale):
        # PSD_ATOL max(1, max|C|): 1e-10 at unit scale, as before, and 100 at max|C| = 1e12
        h = random_hamiltonian(rng, 2)
        bound = PSD_ATOL * scale
        skew = np.zeros((3, 3), dtype=complex)
        skew[0, 1] = 0.9 * bound
        LindbladGenerator.canonical(h, scale * np.eye(3) + skew)
        with pytest.raises(KossakowskiNotPSD, match="not Hermitian"):
            LindbladGenerator.canonical(h, scale * np.eye(3) + skew / 0.45)
        LindbladGenerator.canonical(h, np.diag([scale, 1.0, -0.9 * bound]))
        with pytest.raises(KossakowskiNotPSD, match="negative eigenvalue"):
            LindbladGenerator.canonical(h, np.diag([scale, 1.0, -1.1 * bound]))
        random_lindblad(rng, 3, scale)

    def test_rejects_basis_with_trace(self, rng):
        h = random_hamiltonian(rng, 2)
        basis = list(gell_mann_basis(2)[:3])
        basis[1] = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="matrix 1 is not traceless"):
            LindbladGenerator(h, np.eye(3), tuple(basis))

    def test_rejects_wrong_basis_size(self, rng):
        h = random_hamiltonian(rng, 2)
        with pytest.raises(DimensionMismatch):
            LindbladGenerator(h, np.eye(3), tuple(gell_mann_basis(2)[:2]))


class TestDynamicsSources:
    def test_semigroup_needs_a_schroedinger_generator_of_the_hamiltonian_dimension(self, rng):
        gen = random_lindblad(rng, 2)
        with pytest.raises(DimensionMismatch, match="superoperator dimension"):
            Dynamics.semigroup(random_hamiltonian(rng, 3), gen)
        l = lindblad_superop(gen)
        l[1, 2] = np.inf
        with pytest.raises(ConfigError, match="the model overflows"):
            Dynamics.semigroup(gen.hamiltonian, l)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["norm-first", "entry-first"])
    def test_a_stacked_semigroup_raises_its_first_overflowing_points_own_message(self, order):
        # point "norm" has finite entries whose column sum overflows; point "entry" has an inf entry
        norm, entry = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
        norm[0, 1] = norm[3, 1] = 1e308
        entry[2, 2] = np.inf
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(norm)) and not np.isfinite(np.abs(norm).sum(axis=0)).all()
        messages = ["the model overflows: its generator's 1-norm is not finite",
                    "the model overflows: its generator has a non-finite entry"]
        stack = np.array([(norm, entry)[i] for i in order])
        with pytest.raises(ConfigError) as got:
            Dynamics.semigroup(qubit_hamiltonian([1.0, 2.0]), stack)
        assert str(got.value) == messages[order[0]]
        with pytest.raises(ConfigError) as own:  # the first point, alone and unstacked
            Dynamics.semigroup(qubit_hamiltonian(1.0), stack[0])
        assert str(own.value) == messages[order[0]]

    def test_an_unstacked_point_is_a_block_of_one(self, rng):
        gen = random_lindblad(rng, 3)
        semigroup = Dynamics.semigroup(gen.hamiltonian, gen)
        assert len(semigroup.h.matrix) == 1 and semigroup.generator.shape == (1, 9, 9)
        assert np.array_equal(semigroup.h.eigenvectors[0], gen.hamiltonian.eigenvectors)
        family = Dynamics.channel_family(qubit_hamiltonian(1.0), a_family(ExampleAParams(1.0, 1.0)))
        assert len(family.h.matrix) == 1 and family.family((0.5, 1.0)).shape == (1, 2, 4, 2, 2)
        single = Dynamics.single_map(qubit_hamiltonian(1.0), [np.eye(2)], 1.0)
        assert len(single.h.matrix) == 1 and single.family((1.0,) * 3).shape == (1, 3, 1, 2, 2)

    def test_single_map_checks_its_operators(self, rng):
        h = random_hamiltonian(rng, 2)
        # the checks of every Kraus stack: no operator sums to 0, not to I
        with pytest.raises(NotTracePreserving, match="sum G.dag G differs from identity by 1.000e.00"):
            Dynamics.single_map(h, [], 1.0)
        with pytest.raises(DimensionMismatch, match="Kraus operator shape"):
            Dynamics.single_map(h, [np.eye(2), np.eye(3)], 1.0)
        with pytest.raises(NotTracePreserving, match="differs from identity"):
            Dynamics.single_map(h, [np.diag([1.0, 0.8])], 1.0)

    def test_kraus_sources_need_the_hamiltonian_dimension(self, rng):
        # a file's operators are shaped to its H as they load; a family's are the package's own
        h = random_hamiltonian(rng, 3)
        with pytest.raises(DimensionMismatch, match="Kraus operator shape"):
            Dynamics.single_map(h, [np.eye(2)], 1.0)

    def test_single_map_repeats_its_channel(self, rng):
        ops = [np.eye(2) / np.sqrt(2), SIGMA_X / np.sqrt(2)]
        source = Dynamics.single_map(qubit_hamiltonian(1.0), ops, 1.0)
        # H is diagonal, so its eigenframe is the basis the operators are given in
        _, (superops,), _ = maps_of(source, (1.0, 1.0), (), TOL_CPTP)
        assert np.array_equal(superops, [superop_from_channel(ops)] * 2)


# classify's probe times, a tau grid and the qdb2 times, which report.analyse takes as one tuple for a family
TIME_PARTS = (FIXED_POINT_TAUS, (0.01, 0.3, 2.0, 50.0), QDB2_TAUS)


class TestMapsOf:
    # each slice of one maps_of call over a block is the map of the source's own stack at its time

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_semigroups_slice_their_own_exponentials(self, rng, d):
        # a semigroup has no maps: its transitions on the grid are the population blocks of its own exponentials
        sources = [Dynamics.semigroup(g.hamiltonian, g) for g in (random_lindblad(rng, d) for _ in range(3))]
        generators, superops, probs = maps_of(block(sources), (), sum(TIME_PARTS, ()), TOL_CPTP)
        assert superops is None
        for generator, p, source in zip(generators, probs, sources):
            # the generator in its random eigenframe, within the roundoff of two products
            np.testing.assert_allclose(generator, eigenframe(source.generator[0], source.h[0]), rtol=0, atol=1e-13)
            own = [judged_transitions(evolve_grid(generator, t)) for t in TIME_PARTS]
            assert np.array_equal(p, np.concatenate(own))

    def test_channel_families_slice_their_own_stacks(self):
        params = [ExampleAParams(0.5, 1.0), ExampleAParams(2.0, 3.0)]
        params.append(ExampleAParams(1.0, 0.3, fixed_point=True))
        sources = [Dynamics.channel_family(qubit_hamiltonian(p.omega), a_family(p)) for p in params]
        generators, stacks, _ = maps_of(block(sources), sum(TIME_PARTS, ()), (), TOL_CPTP)
        assert generators is None and stacks.shape == (3, len(sum(TIME_PARTS, ())), 4, 4)
        # each qubit H is diagonal, so its eigenframe is the basis of the channel's operators
        for superops, p, source in zip(stacks, params, sources):
            own = [_kraus_stacks(np.asarray(example_a_channel(*p.schedules(t)), dtype=complex))
                   for t in TIME_PARTS]
            assert np.array_equal(superops, np.concatenate([_kraus_superops(k) for k in own]))

    def test_single_map_slices_its_own_stack(self, rng):
        h, l = random_hamiltonian(rng, 3), lindblad_superop(random_lindblad(rng, 3))
        ops = channel_from_superop(evolve(l, 1.0))
        source = Dynamics.single_map(h, ops, 1.0)
        taus = sum((source.taus(t) for t in TIME_PARTS), ())
        assert taus == (1.0,) * 3
        _, (superops,), _ = maps_of(source, taus, (), TOL_CPTP)
        # the map of the operators V^dag G V in the random eigenframe, within the roundoff of two products
        want = _kraus_superops(eigenframe(_kraus_stacks(np.array([ops])), h))
        np.testing.assert_allclose(superops, np.repeat(want, 3, axis=0), rtol=0, atol=1e-14)
        assert np.array_equal(superops, np.repeat(superops[:1], 3, axis=0))


def test_superoperator_validates_shape():
    # a map is a plain array; what reads one checks it against the Hamiltonian
    h = qubit_hamiltonian(1.0)
    for shape in ((5, 5), (4, 9), (3, 9, 9)):
        with pytest.raises(DimensionMismatch, match="superoperator dimension"):
            require_superop_dim(np.zeros(shape, dtype=complex), h)


def test_evolved_states_stay_valid(rng):
    gen = random_lindblad(rng, 3)
    l = lindblad_superop(gen)
    rho = random_density(rng, 3)
    for tau in (0.1, 1.0, 10.0):
        out = apply(evolve(l, tau), rho)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert min(np.linalg.eigvalsh(out)) > -1e-10
