import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TOL_CPTP,
    block,
    evolve_grid,
    BlochVector,
    a_channel,
    a_family,
    apply,
    bloch_to_density,
    classify_one,
    density_to_bloch,
    evolve,
    example_a_ratio_oracle,
    example_b_closed_form,
    example_c_solution,
    example_qdb_family,
    exchange_at,
    gamma_bar,
    gibbs,
    is_cptp,
    ratio_records,
    superop_to_bloch4,
)
from qdblab import matlin
from qdblab.balance import check_qdb1, check_qdb2
from qdblab.cli import main
from qdblab.dynamics import Dynamics, _kraus_stacks, bloch4_to_superop, gkls_defects, lindblad_superop, maps_of
from qdblab.errors import ConfigError, NotCPTP, NotTracePreserving
from qdblab.examples import (
    ExampleAParams,
    ExampleBParams,
    ExampleCParams,
    LOWERING,
    RAISING,
    example_a_channel,
    example_a_f_factor,
    example_b_generator,
    example_c_bloch_matrix,
    example_c_generator,
    example_c_qdb_point,
    qubit_hamiltonian,
    scenario_sources,
)
from qdblab.report import analyse

OMEGA, BETA_F, BETA_I = 1.0, 1.0, 2.0
S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
TAU_GRID = np.geomspace(0.01, 50.0, 12)


def reference_example_a_channel(p, tau):
    """Scenario A's channel at one time, its schedules and operators built
    one float at a time, as before the stacked family."""
    xi = 1.0 - math.exp(-tau)
    q = p.q_inf if p.fixed_point else p.q_inf * xi
    g1 = math.sqrt(1.0 - q) * np.diag([1.0, math.sqrt(1.0 - xi)]).astype(complex)
    g2 = math.sqrt((1.0 - q) * xi) * LOWERING
    g3 = math.sqrt(q) * np.diag([math.sqrt(1.0 - xi), 1.0]).astype(complex)
    g4 = math.sqrt(q * xi) * RAISING
    return np.array([g1, g2, g3, g4])


@st.composite
def scenario_a_points(draw):
    """``(params, taus)``: scenario A at any omega and beta_f whose thermal
    bias does not round to 0, either schedule, at 0, 1e12 and any other
    times up to 1e300."""
    omega = draw(st.floats(1e-300, 1e300))
    beta_f = draw(st.floats(0.0, 38.0)) / omega
    taus = draw(st.lists(st.one_of(st.floats(0.0, 1e300), st.sampled_from([1e-300, 0.5, 1e300])), max_size=8))
    return ExampleAParams(omega, beta_f, draw(st.booleans())), (0.0, 1e12, *taus)


class TestScenarioA:
    def setup_method(self):
        self.p = ExampleAParams(OMEGA, BETA_F)
        self.h = qubit_hamiltonian(OMEGA)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(point=scenario_a_points())
    def test_schedules_start_at_the_identity_reach_the_thermal_bias_and_stay_in_the_unit_interval(self, point):
        p, taus = point
        q, xi = p.schedules(taus)
        assert xi[0] == 0.0 and xi[1] == 1.0 and q[1] == p.q_inf
        assert ((0.0 <= q) & (q <= 1.0) & (0.0 <= xi) & (xi <= 1.0)).all()
        _kraus_stacks(example_a_channel(q, xi))  # sum G^dag G == I

    @pytest.mark.parametrize("schedule", ["default", "fixed_point"])
    def test_stack_is_bitwise_equal_to_the_per_tau_channels(self, schedule):
        p = ExampleAParams(OMEGA, BETA_F, schedule == "fixed_point")
        taus = (0.0, *np.geomspace(0.01, 50.0, 300))
        stack = example_a_channel(*p.schedules(taus))
        assert stack.shape == (len(taus), 4, 2, 2)
        for tau, ops in zip(taus, stack):
            assert np.array_equal(ops, reference_example_a_channel(p, tau))

    def test_family_stack_must_preserve_the_trace(self):
        # the second time's operators are scaled off trace preservation
        def family(taus):
            stack = example_a_channel(*self.p.schedules(taus))
            stack[1] *= 1.1
            stack[2] *= 1.2
            return stack

        source = Dynamics.channel_family(self.h, family)
        with pytest.raises(NotTracePreserving, match=r"^sum G\^dag G differs from identity by 2\.100e-01$"):
            maps_of(source, (0.5, 1.0, 2.0), (), TOL_CPTP)

    def test_start_is_identity_channel(self, rng):
        rho0 = bloch_to_density(BlochVector(0.2, -0.3, 0.4))
        out = apply(a_channel(self.p, 0.0), rho0)
        np.testing.assert_allclose(out, rho0, atol=1e-14)

    def test_population_recursion(self, rng):
        # d(tau) = (1 - xi) d(0) + (1 - q) xi, coherence shrinks by sqrt(1 - xi)
        for tau in (0.1, 1.0, 5.0):
            (q,), (xi,) = self.p.schedules((tau,))
            r = rng.normal(size=3)
            r *= 0.9 / np.linalg.norm(r)
            rho0 = bloch_to_density(BlochVector(*r))
            out = apply(a_channel(self.p, tau), rho0)
            d0 = rho0[0, 0].real
            assert abs(out[0, 0].real - ((1 - xi) * d0 + (1 - q) * xi)) < 1e-13
            assert abs(out[0, 1] - math.sqrt(1 - xi) * rho0[0, 1]) < 1e-13

    def test_full_mixing_erases_input(self, rng):
        # xi = 1 forces the populations to (1 - q, q) for every input
        channel = example_a_channel(np.array([0.3]), np.array([1.0]))[0]
        for _ in range(3):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            out = apply(channel, bloch_to_density(BlochVector(*r)))
            np.testing.assert_allclose(np.diag(out).real, [0.7, 0.3], atol=1e-13)

    def test_ratio_dual_route(self):
        # exchange-statistics route against the closed-form factor
        for tau in TAU_GRID:
            grid = exchange_at(a_channel(self.p, tau), self.h, BETA_I)
            rec = [r for r in ratio_records(grid, BETA_I - BETA_F) if abs(r.energy - OMEGA) < 1e-9][0]
            oracle = example_a_ratio_oracle(self.p, tau, OMEGA, BETA_I)
            assert abs(rec.ratio - oracle) < 1e-10

    def test_correction_factor_asymptote(self):
        assert abs(example_a_f_factor(self.p, (50.0,))[0] - 1.0) < 1e-6
        p_const = ExampleAParams(OMEGA, BETA_F, fixed_point=True)
        for tau in (0.0, 0.3, 2.0, 20.0):
            assert example_a_f_factor(p_const, (tau,))[0] == 1.0

    @pytest.mark.parametrize("q_schedule", ["default", "fpt"])
    def test_sources_hold_each_points_own_family_and_correction_factor(self, q_schedule):
        points = [{"omega": 0.5}, {"beta_f": 3.0}, {"omega": 2.0, "beta_f": 0.1}]
        stacked, f_factor = scenario_sources("a", points, BETA_F, OMEGA, None, None, None, None, q_schedule)
        taus = (0.0, 0.3, 2.0, 20.0)
        assert len(stacked.h.matrix) == len(points)
        for i, point in enumerate(points):
            p = ExampleAParams(**{"omega": OMEGA, "beta_f": BETA_F, **point}, fixed_point=q_schedule == "fpt")
            assert np.array_equal(stacked.h.eigenvalues[i], qubit_hamiltonian(p.omega).eigenvalues)
            assert np.array_equal(stacked.family(taus)[i], example_a_channel(*p.schedules(taus)))
            assert np.array_equal(f_factor(taus)[i], example_a_f_factor(p, taus))

    def test_constant_bias_family_is_fpt(self):
        p_const = ExampleAParams(OMEGA, BETA_F, fixed_point=True)
        family = Dynamics.channel_family(self.h, a_family(p_const))
        kind, beta, gamma_min = classify_one(family)
        assert kind == "fpt"

    def test_thermal_state_not_invariant_at_finite_time(self):
        sigma = gibbs(self.h, BETA_F)
        moved = apply(a_channel(self.p, 1.0), sigma)
        assert matlin.frobenius(moved - sigma) > 1e-3

    def test_sweep_over_beta_f_keeps_the_claim_outside_its_pinned_exceptions(self, tmp_path):
        # the paper's claim for A at every beta_f: thermalizing, with qdb2 failing, and the ratio law failing by
        # about 0.99 on every row; the points that read otherwise today are listed in A_BETA_F_EXCEPTIONS
        assert main(["sweep", "a", "--parameter", "beta_f", "--range", "1:38:38", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep_a_beta_f.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["value"] for row in rows] == [str(b) for b in range(1, 39)]
        readings = {}
        for row in rows:
            assert float(row["qfr_max_deviation"]) > 0.98
            qdb2 = {"true": True, "false": False, "": None}[row["qdb2_passes"]]
            assert (row["beta_f"] == "inf") == (qdb2 is None)  # no finite beta_f, no balance check
            readings[int(row["value"])] = row["classification"], qdb2
        assert {b: r for b, r in readings.items() if r != ("thermalizing", False)} == A_BETA_F_EXCEPTIONS


# scenario A's sweep points over beta_f that miss the claim today, as (kind, qdb2 passes): classified fpt from
# beta_f = 18, as FIXED_POINT_ATOL is an absolute drift while the schedule moves populations by about
# e^(-beta_f omega), with qdb2 passing from 20 on its absolute residual (ROADMAP item 2), and with beta_f
# inferred as inf from 33, at infer_beta's population floor, so that no balance check runs (ROADMAP item 3)
A_BETA_F_EXCEPTIONS = {
    **{b: ("fpt", False) for b in (18, 19)},
    **{b: ("fpt", True) for b in range(20, 33)},
    **{b: ("fpt", None) for b in range(33, 39)},
}


class TestScenarioB:
    def setup_method(self):
        self.p = ExampleBParams(omega=OMEGA, gamma=1.0, beta_f=BETA_F)
        self.h = qubit_hamiltonian(self.p.omega)
        self.l = lindblad_superop(example_b_generator(self.p))

    def test_derived_rates(self):
        assert abs(self.p.n_bar - 1.0 / math.expm1(BETA_F * OMEGA)) < 1e-15
        assert abs(gamma_bar(self.p) - 1.0 / math.tanh(BETA_F * OMEGA / 2)) < 1e-14
        assert gamma_bar(self.p) >= self.p.gamma

    def test_zero_temperature_limit_decays_to_ground(self):
        p = ExampleBParams(omega=OMEGA, gamma=1.0, beta_f=math.inf)
        assert p.n_bar == 0.0
        l = lindblad_superop(example_b_generator(p))
        out = apply(evolve(l, 40.0), bloch_to_density(BlochVector(0, 0, -1)))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-10)

    def test_longitudinal_asymptote(self):
        # ground-first frame: r_z(inf) = +tanh(beta omega / 2)
        rho = apply(evolve(self.l, 60.0), bloch_to_density(BlochVector(0.4, 0.1, -0.7)))
        assert abs(density_to_bloch(rho).rz - math.tanh(BETA_F * OMEGA / 2)) < 1e-10

    def test_coherence_decay_rate_and_phase(self, rng):
        rho0 = bloch_to_density(BlochVector(0.5, -0.3, 0.2))
        for tau in (0.3, 1.0, 2.5):
            out = apply(evolve(self.l, tau), rho0)
            expected = rho0[0, 1] * np.exp((1j * OMEGA - gamma_bar(self.p) / 2) * tau)
            assert abs(out[0, 1] - expected) < 1e-10

    def test_closed_form_matches_evolution(self, rng):
        for _ in range(3):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            rho0 = bloch_to_density(BlochVector(*r))
            for tau in TAU_GRID:
                num = apply(evolve(self.l, tau), rho0)
                ana = example_b_closed_form(self.p, rho0, tau)
                assert matlin.frobenius(num - ana) < 1e-9

    def test_relaxes_to_thermal_state_from_excited(self):
        excited = bloch_to_density(BlochVector(0, 0, -1))
        out = apply(evolve(self.l, 60.0), excited)
        assert matlin.frobenius(out - gibbs(self.h, BETA_F)) < 1e-8

    def test_classification(self):
        kind, beta, gamma_min = classify_one(Dynamics.semigroup(self.h, example_b_generator(self.p)))
        assert kind == "fpt"
        assert abs(beta - BETA_F) < 1e-8


class TestBalancedFamily:
    def test_reduces_to_scenario_b(self):
        p = ExampleBParams(omega=OMEGA, gamma=1.0, beta_f=BETA_F)
        gen_b = example_b_generator(p)
        gen_fam = example_qdb_family(p.gamma * p.n_bar, 0.0, OMEGA, BETA_F)
        assert matlin.frobenius(gen_b.kossakowski - gen_fam.kossakowski) < 1e-12
        assert matlin.frobenius(
            lindblad_superop(gen_b) - lindblad_superop(gen_fam)
        ) < 1e-12

    def test_bloch_form_template(self):
        # zero pattern and coefficient placement of the 4x4 Bloch generator;
        # rates follow the jump normalization used across the package
        mu, eta = 0.8, 0.3
        gen = example_qdb_family(mu, eta, OMEGA, BETA_F)
        l4 = np.real(superop_to_bloch4(lindblad_superop(gen)))
        boltz = math.exp(BETA_F * OMEGA)
        transverse = eta + 0.25 * mu * (1 + boltz)
        expected = np.array(
            [
                [0, 0, 0, 0],
                [0, transverse, -OMEGA / 2, 0],
                [0, OMEGA / 2, transverse, 0],
                [0.5 * mu * (1 - boltz), 0, 0, 0.5 * mu * (1 + boltz)],
            ]
        )
        np.testing.assert_allclose(l4, expected, atol=1e-12)

    def test_balance_check_passes_for_random_parameters(self, rng):
        for _ in range(10):
            mu = rng.uniform(0.05, 2.0)
            eta = rng.uniform(0.0, 1.0)
            beta = rng.uniform(0.1, 3.0)
            gen = example_qdb_family(mu, eta, OMEGA, beta)
            assert np.all(check_qdb1(gen.hamiltonian, beta, S_GRID, lindblad_superop(gen)) < 1e-10)


class TestScenarioC:
    def setup_method(self):
        self.base = example_c_qdb_point(0.5, 0.1, OMEGA, BETA_F)
        self.perturbed = self.base.replace(nu=self.base.nu * 1.1)
        self.h = qubit_hamiltonian(OMEGA)

    def test_qdb_point_matches_family_superoperator(self):
        gen = example_qdb_family(0.5, 0.1, OMEGA, BETA_F)
        sup = bloch4_to_superop(example_c_bloch_matrix(self.base))
        assert matlin.frobenius(sup - lindblad_superop(gen)) < 1e-10

    def test_bloch_roundtrip(self, rng):
        l4 = rng.normal(size=(4, 4))
        np.testing.assert_allclose(superop_to_bloch4(bloch4_to_superop(l4)), l4, atol=1e-13)

    def test_qdb_point_passes_balance_checks(self):
        sup = example_c_generator(self.base)
        assert np.all(check_qdb1(self.h, BETA_F, S_GRID, sup) < 1e-9)

    def test_perturbed_fails_balance_but_not_ratio_law(self):
        sup = example_c_generator(self.perturbed)
        assert max(check_qdb1(self.h, BETA_F, S_GRID, sup)) > 1e-3
        assert max(check_qdb2(self.h, BETA_F, S_GRID, evolve(sup, 1.0)[None])) > 1e-9
        for tau in (0.1, 1.0, 10.0):
            for rec in ratio_records(exchange_at(evolve(sup, tau), self.h, BETA_I), BETA_I - BETA_F):
                assert rec.deviation < 1e-9

    def test_symmetric_point_exactness(self):
        # transverse anisotropy alone stays balanced at exactly s = 1/2:
        # the weighted norms of the two coherence units coincide there
        sup = example_c_generator(self.perturbed)
        [residual] = check_qdb1(self.h, BETA_F, (0.5,), sup)
        assert residual < 1e-12

    @pytest.mark.parametrize(
        "params",
        [
            example_c_qdb_point(0.5, 0.1, 1.0, 1.0),  # oscillatory
            example_c_qdb_point(0.5, 0.3, 0.1, 1.0).replace(
                nu=example_c_qdb_point(0.5, 0.3, 0.1, 1.0).nu + 0.4,
            ),  # overdamped
            example_c_qdb_point(0.5, 0.1, 1.0, 200.0),  # rates ~1e86: every map is finite
        ],
        ids=["oscillatory", "overdamped", "frozen"],
    )
    def test_analytic_solution_matches_numerics(self, rng, params):
        regime = params.omega**2 - (params.alpha - params.nu) ** 2
        sup = example_c_generator(params)
        for _ in range(3):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            r0 = BlochVector(*r)
            rho0 = bloch_to_density(r0)
            for tau in TAU_GRID:
                ana = example_c_solution(params, r0, tau)
                num = density_to_bloch(apply(evolve(sup, tau), rho0))
                err = max(abs(ana.rx - num.rx), abs(ana.ry - num.ry), abs(ana.rz - num.rz))
                assert err < 1e-9, (regime, tau, err)

    def test_asymptotic_bloch_vector(self):
        sup = example_c_generator(self.perturbed)
        out = apply(evolve(sup, 80.0), bloch_to_density(BlochVector(0.3, 0.3, -0.5)))
        r = density_to_bloch(out)
        assert abs(r.rz - (-self.perturbed.chi / self.perturbed.zeta)) < 1e-10
        assert abs(r.rx) < 1e-10 and abs(r.ry) < 1e-10

    def test_classification_fpt_with_thermal_fixed_point(self):
        sup = example_c_generator(self.perturbed)
        kind, beta, gamma_min = classify_one(Dynamics.semigroup(self.h, sup))
        assert kind == "fpt"
        assert abs(beta - BETA_F) < 1e-9

    def test_pairwise_symmetry_and_stationarity_at_finite_times(self):
        from conftest import check_pairwise_condition, fpt_stationarity_identity

        sup = example_c_generator(self.perturbed)
        for tau in (0.1, 1.0, 10.0):
            assert check_pairwise_condition(evolve(sup, tau), self.h, BETA_F) < 1e-9
            assert fpt_stationarity_identity(evolve(sup, tau), self.h, BETA_F) < 1e-9

    def test_cp_violation_rejected(self):
        # transverse damping nu far below half the longitudinal zeta (T2 > 2 T1)
        bad = ExampleCParams(omega=1.0, nu=0.05, alpha=0.05, chi=-0.45, zeta=1.0)
        cp, tp = gkls_defects(example_c_generator(bad)[None])
        assert cp[0] > 1e-2 and tp[0] < 1e-15
        with pytest.raises(NotCPTP):
            # short grids, the tolerances at their defaults
            analyse(Dynamics.semigroup(self.h, example_c_generator(bad)), (0.5,), (0.0, 0.5), 1e-9, 1e-9)

    def test_stacked_generators_and_cptp_residuals_are_the_per_point_ones(self):
        # nu = 0.35 lies below the CP boundary near 0.364 (nu-scale 0.645), the other points above it
        params = [self.base.replace(nu=nu) for nu in np.linspace(0.35, 0.9, 6)]
        stacked = example_c_generator(params)
        assert np.array_equal(stacked, [example_c_generator(p) for p in params])
        defects = gkls_defects(stacked)
        assert all(r.shape == (6,) for r in defects)
        for k, generator in enumerate(stacked):
            assert tuple(r[0] for r in gkls_defects(generator[None])) == tuple(r[k] for r in defects)
        assert (defects[0] > 1e-9).tolist() == [True] + [False] * 5
        assert np.all(defects[1] < 1e-15)

    @pytest.mark.parametrize(
        "first, error",
        [(3, NotCPTP), (1, ConfigError)],
        ids=["cp-defect", "overflow"],
    )
    def test_a_stack_raises_its_first_failing_point(self, first, error):
        # points 3 and 4 are not CP; in the second case point 1 overflows first, when its semigroup is built
        params = [self.base.replace(nu=nu) for nu in np.linspace(0.9, 0.1, 5)]
        if error is ConfigError:
            params[1] = self.base.replace(nu=1e308, alpha=1e308)

        def build_and_analyse(params):
            sources = [Dynamics.semigroup(self.h, g) for g in example_c_generator(params)]
            return analyse(block(sources), (0.5,), (0.0, 0.5), tol_qdb=1e-9, tol_cptp=1e-9)

        with pytest.raises(error) as want:
            build_and_analyse(params[first : first + 1])
        with pytest.raises(error) as got:
            build_and_analyse(params)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "beta_f, nu_scale, defective",
        [(7.0, 1.1, False), (7.3, 1.1, False), (7.5, 1.1, True), (8.0, 1.1, True), (16.0, 1.1, True),
         (1.0, 0.7, False), (1.0, 0.65, False), (1.0, 0.64, True), (1.0, 0.6, True)],
    )
    def test_the_generator_test_agrees_with_the_maps_at_small_times(self, beta_f, nu_scale, defective):
        # the boundaries lie near beta_f 7.38 at nu-scale 1.1 and near nu-scale 0.645 at beta_f 1;
        # to first order in tau, the Choi matrix of exp(tau L) off vec(I) is tau times that of L
        base = example_c_qdb_point(0.5, 0.1, OMEGA, beta_f)
        generator = example_c_generator(base.replace(nu=base.nu * nu_scale))
        norm = np.linalg.norm(generator, 1)
        (defect,), (tp,) = gkls_defects(generator[None])
        assert bool(defect > 1e-9) is defective and tp < 1e-15
        for scaled_tau in (1e-4, 1e-2):
            map_cp, map_tp, _ = is_cptp(evolve_grid(generator, [scaled_tau / norm])[0])
            assert map_tp < 1e-14
            if not defective:
                assert defect < 1e-15 and map_cp < 1e-15
                continue
            # the second-order term is at most about 0.045 (tau |L|_1)^2 at these points
            assert abs(map_cp - scaled_tau * defect) < 0.1 * scaled_tau**2
            if scaled_tau == 1e-4:
                assert map_cp == pytest.approx(scaled_tau * defect, rel=1e-2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExampleCParams(omega=1.0, nu=0.5, alpha=0.5, chi=-2.0, zeta=1.0)
        with pytest.raises(ValueError):
            ExampleCParams(omega=1.0, nu=0.5, alpha=0.5, chi=0.0, zeta=-1.0)


class TestCrossScenario:
    def test_three_constructions_agree(self):
        p = ExampleBParams(omega=OMEGA, gamma=1.0, beta_f=BETA_F)
        l_b = lindblad_superop(example_b_generator(p))
        l_fam = lindblad_superop(example_qdb_family(p.gamma * p.n_bar, 0.0, OMEGA, BETA_F))
        l_c = bloch4_to_superop(example_c_bloch_matrix(example_c_qdb_point(p.gamma * p.n_bar, 0.0, OMEGA, BETA_F)))
        assert matlin.frobenius(l_b - l_fam) < 1e-10
        assert matlin.frobenius(l_b - l_c) < 1e-10

    def test_family_maps_are_cptp(self, rng):
        for _ in range(5):
            gen = example_qdb_family(rng.uniform(0.1, 2), rng.uniform(0, 1), OMEGA, rng.uniform(0.2, 2))
            for tau in (0.1, 1.0, 10.0):
                assert max(is_cptp(evolve(lindblad_superop(gen), tau))) < 1e-9
