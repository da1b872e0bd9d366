import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    BlochVector,
    a_channel,
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
    ratio_records,
    superop_to_bloch4,
)
from qdblab import matlin
from qdblab.balance import check_qdb1, check_qdb2
from qdblab.dynamics import Dynamics, is_cptp, lindblad_superop
from qdblab.errors import NotCPTP, NotTracePreserving, ScheduleOutOfRange
from qdblab.examples import (
    ExampleAParams,
    ExampleBParams,
    ExampleCParams,
    bloch4_to_superop,
    LOWERING,
    RAISING,
    example_a_channel,
    example_a_f_factor,
    example_b_generator,
    example_c_bloch_matrix,
    example_c_generator,
    example_c_qdb_point,
    qubit_hamiltonian,
    thermal_bias,
)

OMEGA, BETA_F, BETA_I = 1.0, 1.0, 2.0
S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
TAU_GRID = np.geomspace(0.01, 50.0, 12)


def reference_example_a_channel(p, tau):
    """Scenario A's channel at one time, built as before the stacked family."""
    q = float(p.q_schedule(tau))
    xi = float(p.xi_schedule(tau))
    if not (-1e-12 <= q <= 1 + 1e-12) or not (-1e-12 <= xi <= 1 + 1e-12):
        raise ScheduleOutOfRange(f"schedules left [0, 1] at tau={tau:g}: q={q:g}, xi={xi:g}")
    q = min(max(q, 0.0), 1.0)
    xi = min(max(xi, 0.0), 1.0)
    g1 = math.sqrt(1.0 - q) * np.diag([1.0, math.sqrt(1.0 - xi)]).astype(complex)
    g2 = math.sqrt((1.0 - q) * xi) * LOWERING
    g3 = math.sqrt(q) * np.diag([math.sqrt(1.0 - xi), 1.0]).astype(complex)
    g4 = math.sqrt(q * xi) * RAISING
    return np.array([g1, g2, g3, g4])


class TestScenarioA:
    def setup_method(self):
        self.p = ExampleAParams.default(OMEGA, BETA_F)
        self.h = qubit_hamiltonian(OMEGA)

    def test_schedule_constraints_enforced(self):
        with pytest.raises(ScheduleOutOfRange):
            ExampleAParams(
                omega=OMEGA,
                beta_f=BETA_F,
                q_schedule=lambda t: thermal_bias(OMEGA, BETA_F),
                xi_schedule=lambda t: 0.5,  # xi(0) != 0
            )
        with pytest.raises(ScheduleOutOfRange):
            ExampleAParams(
                omega=OMEGA,
                beta_f=BETA_F,
                q_schedule=lambda t: 0.1 * (1 - math.exp(-t)),  # wrong asymptote
                xi_schedule=lambda t: 1 - math.exp(-t),
            )

    @pytest.mark.parametrize("schedule", ["default", "fixed_point"])
    def test_stack_is_bitwise_equal_to_the_per_tau_channels(self, schedule):
        p = getattr(ExampleAParams, schedule)(OMEGA, BETA_F)
        taus = (0.0, *np.geomspace(0.01, 50.0, 300))
        stack = example_a_channel(p, taus)
        assert stack.shape == (len(taus), 4, 2, 2)
        for tau, ops in zip(taus, stack):
            assert np.array_equal(ops, reference_example_a_channel(p, tau))

    def test_schedule_leaving_the_unit_interval_quotes_the_first_tau(self):
        p = dataclasses.replace(self.p)
        object.__setattr__(p, "q_schedule", lambda tau: 0.5 + 0.3 * tau)
        with pytest.raises(ScheduleOutOfRange) as got:
            example_a_channel(p, (0.5, 2.0, 3.0))
        with pytest.raises(ScheduleOutOfRange) as want:
            reference_example_a_channel(p, 2.0)
        assert str(got.value) == str(want.value) == "schedules left [0, 1] at tau=2: q=1.1, xi=0.864665"

    def test_family_stack_must_preserve_the_trace(self):
        # the second time's operators are scaled off trace preservation
        def family(taus):
            stack = example_a_channel(self.p, taus)
            stack[1] *= 1.1
            stack[2] *= 1.2
            return stack

        source = Dynamics.channel_family(self.h, family)
        with pytest.raises(NotTracePreserving, match=r"^sum G\^dag G differs from identity by 2\.100e-01$"):
            source.maps((0.5, 1.0, 2.0))

    def test_start_is_identity_channel(self, rng):
        rho0 = bloch_to_density(BlochVector(0.2, -0.3, 0.4))
        out = apply(a_channel(self.p, 0.0), rho0)
        np.testing.assert_allclose(out, rho0, atol=1e-14)

    def test_population_recursion(self, rng):
        # d(tau) = (1 - xi) d(0) + (1 - q) xi, coherence shrinks by sqrt(1 - xi)
        for tau in (0.1, 1.0, 5.0):
            q, xi = self.p.q_schedule(tau), self.p.xi_schedule(tau)
            r = rng.normal(size=3)
            r *= 0.9 / np.linalg.norm(r)
            rho0 = bloch_to_density(BlochVector(*r))
            out = apply(a_channel(self.p, tau), rho0)
            d0 = rho0[0, 0].real
            assert abs(out[0, 0].real - ((1 - xi) * d0 + (1 - q) * xi)) < 1e-13
            assert abs(out[0, 1] - math.sqrt(1 - xi) * rho0[0, 1]) < 1e-13

    def test_full_mixing_erases_input(self, rng):
        # xi = 1 forces the populations to (1 - q, q) for every input
        p = ExampleAParams(
            omega=OMEGA,
            beta_f=BETA_F,
            q_schedule=lambda t: 0.3 if t < 1e11 else thermal_bias(OMEGA, BETA_F),
            xi_schedule=lambda t: 0.0 if t == 0 else 1.0,
        )
        for _ in range(3):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            out = apply(a_channel(p, 2.0), bloch_to_density(BlochVector(*r)))
            np.testing.assert_allclose(np.diag(out).real, [0.7, 0.3], atol=1e-13)

    def test_ratio_dual_route(self):
        # exchange-statistics route against the closed-form factor
        for tau in TAU_GRID:
            grid = exchange_at(a_channel(self.p, tau), self.h, BETA_I)
            rec = [r for r in ratio_records(grid, BETA_I - BETA_F) if abs(r.energy - OMEGA) < 1e-9][0]
            oracle = example_a_ratio_oracle(self.p, tau, OMEGA, BETA_I)
            assert abs(rec.ratio - oracle) < 1e-10

    def test_correction_factor_asymptote(self):
        assert abs(example_a_f_factor(self.p, 50.0) - 1.0) < 1e-6
        p_const = ExampleAParams.fixed_point(OMEGA, BETA_F)
        for tau in (0.0, 0.3, 2.0, 20.0):
            assert example_a_f_factor(p_const, tau) == 1.0

    def test_constant_bias_family_is_fpt(self):
        p_const = ExampleAParams.fixed_point(OMEGA, BETA_F)
        family = Dynamics.channel_family(self.h, lambda taus: example_a_channel(p_const, taus))
        kind, beta, gamma_min = classify_one(family)
        assert kind == "fpt"

    def test_thermal_state_not_invariant_at_finite_time(self):
        sigma = gibbs(self.h, BETA_F)
        moved = apply(a_channel(self.p, 1.0), sigma)
        assert matlin.frobenius(moved - sigma) > 1e-3


class TestScenarioB:
    def setup_method(self):
        self.p = ExampleBParams(omega=OMEGA, gamma=1.0, beta_f=BETA_F)
        self.h = self.p.hamiltonian()
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
        self.perturbed = dataclasses.replace(self.base, nu=self.base.nu * 1.1)
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
            dataclasses.replace(
                example_c_qdb_point(0.5, 0.3, 0.1, 1.0),
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
        bad = ExampleCParams(omega=1.0, nu=0.05, alpha=0.05, chi=-0.45, zeta=1.0)
        with pytest.raises(NotCPTP):
            example_c_generator(bad)

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
