import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_cptp, random_complex, random_hermitian, random_lindblad, trace_norm, transpose_superop
from qdblab import matlin
from qdblab.dynamics import LindbladGenerator, bloch4_to_superop, lindblad_superop
from qdblab.errors import DimensionMismatch, NotHermitian
from qdblab.examples import (
    ExampleBParams,
    example_b_generator,
    example_c_bloch_matrix,
    example_c_generator,
    example_c_qdb_point,
)
from qdblab.report import QDB2_TAUS
from qdblab.states import HamiltonianSpec


class TestHermEig:
    def test_diagonal_input_sorted_ascending(self):
        w, v = matlin.herm_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_sigma_x_spectrum(self):
        # characteristic polynomial lambda^2 - 1 = 0 by hand
        w, _ = matlin.herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_identity_spectrum(self):
        w, v = matlin.herm_eig(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1])
        np.testing.assert_allclose(matlin.dag(v) @ v, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_reconstruction(self, rng, d):
        m = random_hermitian(rng, d)
        w, v = matlin.herm_eig(m)
        err = matlin.frobenius((v * w) @ matlin.dag(v) - m)
        assert err < 1e-11 * max(matlin.frobenius(m), 1e-30)
        np.testing.assert_allclose(matlin.dag(v) @ v, np.eye(d), atol=1e-12)

    def test_eigenvector_phase_deterministic(self, rng):
        m = random_hermitian(rng, 4)
        _, v1 = matlin.herm_eig(m)
        _, v2 = matlin.herm_eig(m.copy())
        np.testing.assert_array_equal(v1, v2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matlin.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            matlin.herm_eig(np.zeros((2, 3)))


class TestExpm:
    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(matlin.expm(np.zeros((2, 2)), (1.0,))[0], np.eye(2))
        stack = matlin.expm(np.zeros((3, 16, 16)), (1.0,))[:, 0]
        np.testing.assert_array_equal(stack, np.broadcast_to(np.eye(16), (3, 16, 16)))

    def test_diagonal(self):
        out = matlin.expm(np.diag([np.log(2), np.log(3)]), (1.0,))[0]
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-13)

    def test_rotation_closed_form(self):
        theta = np.pi / 2
        out = matlin.expm(np.array([[0, -theta], [theta, 0]]), (1.0,))[0]
        np.testing.assert_allclose(out, [[0, -1], [1, 0]], atol=1e-14)

    def test_inverse_property(self, rng):
        for _ in range(5):
            m = random_complex(rng, 3)
            m *= 5.0 / max(matlin.frobenius(m), 5.0)
            prod = matlin.expm(m, (1.0,))[0] @ matlin.expm(-m, (1.0,))[0]
            assert matlin.frobenius(prod - np.eye(3)) < 1e-10

    def test_semigroup_property(self, rng):
        m = random_complex(rng, 4)
        lhs = matlin.expm(1.0 * m, (1.0,))[0]
        rhs = matlin.expm(0.3 * m, (1.0,))[0] @ matlin.expm(0.7 * m, (1.0,))[0]
        assert matlin.frobenius(lhs - rhs) < 1e-10

    def test_agrees_with_eigendecomposition_for_normal_input(self, rng):
        # normal matrix built from a random unitary frame and complex spectrum
        q, _ = np.linalg.qr(random_complex(rng, 4))
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = (q * z) @ matlin.dag(q)
        oracle = (q * np.exp(z)) @ matlin.dag(q)
        out = matlin.expm(m, (1.0,))[0]
        assert matlin.frobenius(out - oracle) < 1e-11 * matlin.frobenius(oracle)


class TestExpmAgainstScipy:
    """``scipy.linalg.expm`` is the oracle; scipy is a test dependency only."""

    @staticmethod
    def assert_close(out, oracle, norm):
        # the exponential's condition number grows with the norm
        tol = 50 * np.finfo(float).eps * max(1.0, norm)
        assert np.max(np.abs(out - oracle)) <= tol * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [2, 3, 4, 16])
    @pytest.mark.parametrize("norm", [0.0, 1e-3, 1.0, 5.0, 6.0, 50.0, 1e3])
    def test_random_complex(self, rng, n, norm):
        # 1-norms up to 5.37 take no squaring, larger ones up to 8
        a = random_complex(rng, n)
        a *= norm / np.abs(a).sum(axis=0).max()
        self.assert_close(matlin.expm(a, (1.0,))[0], scipy.linalg.expm(a), norm)

    def test_stack_equals_its_slices(self, rng):
        stack = np.array([random_complex(rng, 4) * c for c in (0.0, 0.1, 1.0, 10.0, 300.0)])
        out = matlin.expm(stack, (1.0,))[:, 0]
        for a, x in zip(stack, out):
            np.testing.assert_array_equal(x, matlin.expm(a, (1.0,))[0])
            self.assert_close(x, scipy.linalg.expm(a), float(np.abs(a).sum(axis=0).max()))
        assert matlin.expm(stack.reshape(5, 1, 4, 4), (1.0,)).shape == (5, 1, 1, 4, 4)

    @pytest.mark.parametrize("t", [-3.0, 0.5, 2.5, 40.0])
    def test_jordan_block(self, t):
        out = matlin.expm(np.array([[t, 1.0], [0.0, t]]), (1.0,))[0]
        self.assert_close(out, np.exp(t) * np.array([[1.0, 1.0], [0.0, 1.0]]), abs(t) + 1.0)

    @pytest.mark.parametrize("c", [1e2, 1e5, 1e8, 1e12])
    @pytest.mark.parametrize("a, b", [(1.0, -1.0), (-0.5, -3.0), (2.0, 0.0)])
    def test_non_normal_triangular_closed_form(self, a, b, c):
        # ||A^k||^(1/k) stays near max(|a|, |b|) while ||A|| = c, so scaling by
        # ||A|| would take up to 38 needless squarings and lose digits with each
        out = matlin.expm(np.array([[a, c], [0.0, b]]), (1.0,))[0]
        closed = np.array([[np.exp(a), c * (np.exp(a) - np.exp(b)) / (a - b)], [0.0, np.exp(b)]])
        np.testing.assert_allclose(out, closed, rtol=2e-14, atol=0)

    def test_low_temperature_trace_preservation_is_no_worse_than_scipy(self):
        # scenario C's rates grow like e^(beta_f omega); the roundoff of the trace
        # row, which every squaring doubles, decides whether its maps pass the
        # absolute CPTP tolerance, so it must stay at the oracle's level
        taus = np.array([0.1, 1.0, 10.0])  # the check times of example_c_generator
        ours, oracle = [], []
        for beta_f in np.linspace(14.0, 20.0, 13):
            p = example_c_qdb_point(0.5, 0.1, 1.0, beta_f)
            l = bloch4_to_superop(example_c_bloch_matrix(p))
            ours += list(matlin.expm(l, taus))
            oracle += [scipy.linalg.expm(tau * l) for tau in taus]

        def geometric_mean_tp(maps):
            tp = [is_cptp(m)[1] for m in maps]
            return np.exp(np.mean(np.log(np.maximum(tp, np.finfo(float).eps))))

        assert geometric_mean_tp(ours) <= geometric_mean_tp(oracle)

    def test_critically_damped_scenario_c(self):
        # omega^2 == (alpha - nu)^2: the transverse block has one double eigenvalue
        base = example_c_qdb_point(0.5, 0.1, 0.25, 1.0)
        p = base.replace(nu=base.alpha + base.omega)
        assert p.omega**2 == (p.alpha - p.nu) ** 2
        l = example_c_generator(p)
        taus = np.geomspace(0.01, 50.0, 12)
        out = matlin.expm(l, taus)
        for tau, x in zip(taus, out):
            self.assert_close(x, scipy.linalg.expm(tau * l), tau * float(np.abs(l).sum(axis=0).max()))

    def test_huge_or_non_finite_input_does_not_raise(self, rng):
        l = lindblad_superop(random_lindblad(rng, 2))
        assert matlin.expm(l, (1e200,)).shape == (1, 4, 4)
        # nilpotent, so s = 0: A^6 = 0 is scaled back by 2^(6e), past the float range
        n = np.array([[0.0, 1e100], [0.0, 0.0]])
        np.testing.assert_allclose(matlin.expm(n, (1.0,))[0], np.eye(2) + n, rtol=1e-15)
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
        assert np.isnan(matlin.expm(bad, (1.0,))).all()
        out = matlin.expm(np.array([bad, np.eye(2)]), (1.0,))[:, 0]
        assert np.isnan(out[0]).all()
        np.testing.assert_allclose(out[1], np.e * np.eye(2), rtol=1e-15)


def davies_superop(d: int, circulating: bool) -> np.ndarray:
    """The generator of a Davies-type level-jump model at beta 1, as the
    benchmark's fixtures build it: Boltzmann-balanced rates between every
    level pair, plus a cyclic current around all levels if circulating."""
    rng = np.random.default_rng(d)
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 1.2, d - 1))])
    pops = np.exp(-(energies - energies[0]))
    pops /= pops.sum()
    rates = np.zeros((d, d))  # rates[m, n] is the rate of m -> n
    for m in range(d):
        for n in range(m + 1, d):
            rates[n, m] = rng.uniform(0.2, 1.0)
            rates[m, n] = rates[n, m] * np.exp(energies[m] - energies[n])
    if circulating:
        for level in range(d):
            rates[level, (level + 1) % d] += 0.3 * pops.min() / pops[level]
    jumps = [np.sqrt(rates[m, n]) * np.eye(d)[:, [n]] @ np.eye(d)[[m]] for m in range(d) for n in range(d) if m != n]
    h = HamiltonianSpec.from_matrix(np.diag(energies).astype(complex))
    return lindblad_superop(LindbladGenerator.from_jump_operators(h, jumps))


def _critically_damped_c() -> np.ndarray:
    base = example_c_qdb_point(0.5, 0.1, 0.25, 1.0)
    return example_c_generator(base.replace(nu=base.alpha + base.omega))


GENERATORS = {
    **{f"davies{d}-{'circulating' if c else 'balanced'}": functools.partial(davies_superop, d, c)
       for d, c in ((2, False), (3, False), (3, True), (4, False), (4, True))},
    "b": lambda: lindblad_superop(example_b_generator(ExampleBParams(1.0, 1.0, 1.0))),
    "b-cold-slow": lambda: lindblad_superop(example_b_generator(ExampleBParams(1.0, 0.05, 5.0))),
    "c": lambda: example_c_generator(example_c_qdb_point(0.5, 0.1, 1.0, 1.0)),
    "c-critically-damped": _critically_damped_c,
    "c-off-balance": lambda: example_c_generator(example_c_qdb_point(0.5, 0.1, 1.0, 1.0).replace(nu=0.8)),
}
# tau = 0, a log grid over six decades and the qdb2 times
GRID = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 31), QDB2_TAUS])


class TestExpmOnAGrid:
    """One analysis per generator serves every tau: each slice meets the
    scipy bound of ``TestExpmAgainstScipy`` and is the slice a one-tau call
    or a one-generator call gives, bit for bit."""

    @pytest.mark.parametrize("name", GENERATORS)
    def test_every_slice_meets_the_oracle_bound_and_equals_its_one_tau_call(self, name):
        l = GENERATORS[name]()
        out = matlin.expm(l, GRID)
        assert out.shape == (len(GRID),) + l.shape
        norm = float(np.abs(l).sum(axis=0).max())
        for tau, x in zip(GRID, out):
            TestExpmAgainstScipy.assert_close(x, scipy.linalg.expm(tau * l), tau * norm)
            assert np.array_equal(x, matlin.expm(l, (tau,))[0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_generator_stack_equals_each_generator_alone(self, d):
        stack = np.array([l for l in (f() for f in GENERATORS.values()) if len(l) == d * d])
        assert len(stack) >= 2
        out = matlin.expm(stack, GRID)
        assert out.shape == (len(stack), len(GRID), d * d, d * d)
        for l, x in zip(stack, out):
            assert np.array_equal(x, matlin.expm(l, GRID))
        assert np.array_equal(matlin.expm(stack.reshape(-1, 1, d * d, d * d), GRID)[:, 0], out)

    def test_tau_zero_gives_exactly_the_identity(self):
        for f in GENERATORS.values():
            l = f()
            assert np.array_equal(matlin.expm(l, (0.0, 1.0))[0], np.eye(len(l)))

    @pytest.mark.parametrize("name", ["davies3-circulating", "b", "c"])
    def test_an_overflowing_slice_is_nan_and_leaves_the_others(self, name):
        # tau ||L||_1 overflows at 1e308 for these 1-norms above 2
        l = GENERATORS[name]()
        assert np.abs(l).sum(axis=0).max() > 2
        taus = np.insert(GRID, 5, 1e308)
        with np.errstate(all="raise"):
            out = matlin.expm(l, taus)
        assert np.isnan(out[5]).all()
        assert np.array_equal(np.delete(out, 5, axis=0), matlin.expm(l, GRID))
        assert np.isnan(matlin.expm(l, (np.inf, 1.0))[0]).all()


class TestKronVec:
    def test_kron_identity(self):
        np.testing.assert_array_equal(matlin.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_diagonal(self):
        out = matlin.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2, 2), (2, 3, 16, 16)])
    @pytest.mark.parametrize("part", ["complex", "real"])
    def test_frobenius_of_a_stack_is_bitwise_numpy_norm_per_slice(self, rng, shape, part):
        scales = 10.0 ** rng.uniform(-17, 3, size=shape[:-2] + (1, 1))
        a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scales
        a = a if part == "complex" else a.real  # a strided view
        want = [np.linalg.norm(np.ascontiguousarray(m)) for m in a.reshape(-1, *shape[-2:])]
        assert np.array_equal(matlin.frobenius(a), np.reshape(want, shape[:-2]))

    @pytest.mark.parametrize(
        "shapes", [((2, 2), (2, 2)), ((3, 3), (2, 2)), ((4, 4), (4, 4)), ((1, 1), (3, 3)), ((2, 3), (3, 1))],
        ids=["d2", "d3-d2", "d4", "1x1", "2x3-3x1"],
    )
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_kron_is_bitwise_numpy_kron(self, rng, shapes, dtype):
        a, b = (rng.normal(size=s) + (1j * rng.normal(size=s) if dtype is complex else 0) for s in shapes)
        out = matlin.kron(a, b)
        assert out.dtype == complex
        assert np.array_equal(out, np.kron(a, b))

    def test_vec_is_column_stacking(self):
        m = np.array([[1, 3], [2, 4]])
        np.testing.assert_array_equal(matlin.vec(m), [1, 2, 3, 4])

    def test_unvec_roundtrip(self, rng):
        m = random_complex(rng, 3)
        np.testing.assert_array_equal(matlin.unvec(matlin.vec(m), 3, 3), m)

    @pytest.mark.parametrize("d", [2, 3])
    def test_vec_kron_identity(self, rng, d):
        for _ in range(10):
            x, y, z = (random_complex(rng, d) for _ in range(3))
            lhs = matlin.vec(x @ y @ z)
            rhs = matlin.kron(z.T, x) @ matlin.vec(y)
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_transpose_superop(self, rng):
        m = random_complex(rng, 3)
        k = transpose_superop(3)
        np.testing.assert_allclose(k @ matlin.vec(m), matlin.vec(m.T), atol=1e-15)
        np.testing.assert_array_equal(k @ k, np.eye(9))


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0))
def test_expm_scaling_semigroup(s, t):
    m = np.array([[0.1, -0.8], [0.8, -0.4]], dtype=complex)
    lhs, x, y = matlin.expm(m, (s + t, s, t))
    rhs = x @ y
    assert matlin.frobenius(lhs - rhs) < 1e-10


def test_trace_norm_hermitian(rng):
    m = random_hermitian(rng, 4)
    w = np.linalg.eigvalsh(m)
    assert abs(trace_norm(m) - np.sum(np.abs(w))) < 1e-12
