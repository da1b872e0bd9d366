"""Acceptance suite.

One test per release criterion, each at its stated tolerance; a pass/fail
line per criterion is printed (visible with ``pytest -s``).
"""

import dataclasses
import json
import math

import numpy as np

from conftest import (
    a_channel,
    classify_one,
    SEED,
    apply,
    apply_matrix,
    evolve,
    BlochVector,
    TimeReversal,
    WeightedSpace,
    adjoint,
    bloch_to_density,
    check_pairwise_condition,
    default_tau_max,
    density_to_bloch,
    dual_superop,
    example_b_closed_form,
    example_c_solution,
    example_qdb_family,
    exchange_at,
    gap_records,
    gibbs,
    inner,
    r_s_superop,
    random_complex,
    random_density,
    ratio_records,
    thermal_circulation_qutrit,
)
from qdblab import matlin
from qdblab.balance import check_qdb1, check_qdb2
from qdblab.cli import main, save_model
from qdblab.dynamics import Dynamics, is_cptp, lindblad_superop
from qdblab.errors import NotCPTP
from qdblab.examples import (
    ExampleAParams,
    ExampleBParams,
    example_a_f_factor,
    example_b_generator,
    example_c_generator,
    example_c_qdb_point,
    qubit_hamiltonian,
)
from qdblab.fluctuation import ratios

OMEGA, BETA_F, BETA_I = 1.0, 1.0, 2.0
TAU_GRID = tuple(np.geomspace(0.01, 50.0, 40))
S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _report(number: int, label: str):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def _ratio_at_gap(map_at_tau, h, tau, energy, beta_i=BETA_I, beta_f=BETA_F):
    grid = exchange_at(map_at_tau, h, beta_i)
    recs = [r for r in ratio_records(grid, beta_i - beta_f) if abs(r.energy - energy) < 1e-9]
    assert recs, f"no defined ratio at gap {energy} for tau={tau}"
    return recs[0].ratio


def test_criterion_1_exact_ratio_law_scenario_a():
    p = ExampleAParams.default(OMEGA, BETA_F)
    h = qubit_hamiltonian(OMEGA)
    scale = math.exp((BETA_I - BETA_F) * OMEGA)
    for tau in TAU_GRID:
        ratio = _ratio_at_gap(a_channel(p, tau), h, tau, OMEGA)
        assert abs(ratio / scale - example_a_f_factor(p, tau)) < 1e-10
    assert abs(example_a_f_factor(p, TAU_GRID[-1]) - 1.0) < 1e-6
    _report(1, "scenario-a ratio law with explicit correction factor")


def test_criterion_2_mixing_schedule_independence():
    p1 = ExampleAParams.default(OMEGA, BETA_F)
    p2 = ExampleAParams(
        omega=OMEGA,
        beta_f=BETA_F,
        q_schedule=p1.q_schedule,
        xi_schedule=lambda tau: tau / (1.0 + tau),
    )
    h = qubit_hamiltonian(OMEGA)
    for tau in TAU_GRID:
        r1 = _ratio_at_gap(a_channel(p1, tau), h, tau, OMEGA)
        r2 = _ratio_at_gap(a_channel(p2, tau), h, tau, OMEGA)
        assert abs(r1 - r2) < 1e-12
    _report(2, "scenario-a ratio independent of the mixing schedule")


def test_criterion_3_scenario_b_closed_form_balance_and_ratio(rng):
    p = ExampleBParams(omega=OMEGA, gamma=1.0, beta_f=BETA_F)
    h = p.hamiltonian()
    gen = example_b_generator(p)
    l = lindblad_superop(gen)
    initial = [
        bloch_to_density(BlochVector(0, 0, 1)),
        bloch_to_density(BlochVector(0, 0, -1)),
        random_density(rng, 2),
    ]
    for rho0 in initial:
        for tau in TAU_GRID:
            num = apply(evolve(l, tau), rho0)
            ana = example_b_closed_form(p, rho0, tau)
            assert matlin.frobenius(num - ana) < 1e-9
    kind, beta, gamma_min = classify_one(Dynamics.semigroup(h, gen))
    assert kind == "fpt"
    assert abs(beta - BETA_F) < 1e-8
    assert np.all(check_qdb1(h, BETA_F, S_GRID, lindblad_superop(gen)) < 1e-10)
    for tau in TAU_GRID:
        grid = exchange_at(evolve(l, tau), h, BETA_I)
        recs = ratio_records(grid, BETA_I - BETA_F)
        assert len(recs) == len(gap_records(grid))
        for rec in recs:
            assert rec.deviation < 1e-9
    _report(3, "scenario-b closed form, balance checks and ratio law")


def test_criterion_4_scenario_c_regimes_and_nonequivalence(rng):
    h = qubit_hamiltonian(OMEGA)
    base = example_c_qdb_point(0.5, 0.1, OMEGA, BETA_F)
    perturbed = dataclasses.replace(base, nu=base.nu * 1.1)
    overdamped_base = example_c_qdb_point(0.5, 0.3, 0.1, BETA_F)
    overdamped = dataclasses.replace(overdamped_base, nu=overdamped_base.nu + 0.4)
    assert OMEGA**2 > (perturbed.alpha - perturbed.nu) ** 2
    assert overdamped.omega**2 < (overdamped.alpha - overdamped.nu) ** 2
    for params in (perturbed, overdamped):
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
                assert err < 1e-9
    # the anisotropic instance breaks both balance conditions, not the ratio law
    sup = example_c_generator(perturbed)
    assert max(check_qdb1(h, BETA_F, S_GRID, sup)) > 1e-3
    maps = np.array([evolve(sup, tau) for tau in (0.1, 0.5, 1.0, 5.0)])
    assert not np.all(check_qdb2(h, BETA_F, S_GRID, maps) < 1e-9)
    for tau in TAU_GRID:
        for rec in ratio_records(exchange_at(evolve(sup, tau), h, BETA_I), BETA_I - BETA_F):
            assert rec.deviation < 1e-9
    _report(4, "scenario-c analytic regimes; ratio law without detailed balance")


def test_criterion_5_balanced_family_pairwise_symmetry():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(50):
        mu = rng.uniform(1e-3, 2.0)
        eta = rng.uniform(0.0, 1.0)
        beta_f = rng.uniform(0.1, 3.0)
        gen = example_qdb_family(mu, eta, OMEGA, beta_f)
        assert np.all(check_qdb1(gen.hamiltonian, beta_f, S_GRID, lindblad_superop(gen)) < 1e-9)
        l = lindblad_superop(gen)
        for tau in (0.1, 1.0, 10.0):
            assert check_pairwise_condition(evolve(l, tau), gen.hamiltonian, beta_f) < 1e-10
    _report(5, "balanced generators keep the pairwise transition symmetry")


def test_criterion_6_thermalizing_maps_asymptotic_ratio_law():
    rng = np.random.default_rng(SEED + 6)
    drawn = 0
    while drawn < 20:
        if drawn % 2 == 0:
            gen, h = thermal_circulation_qutrit(rng, beta_f=rng.uniform(0.1, 1.5))
            source = gen
        else:
            base = example_c_qdb_point(
                rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.5), OMEGA, rng.uniform(0.2, 1.5)
            )
            params = dataclasses.replace(
                base,
                nu=base.nu * (1 + rng.uniform(-0.1, 0.3)),
                alpha=base.alpha * (1 + rng.uniform(-0.1, 0.3)),
            )
            try:
                source = example_c_generator(params)
            except NotCPTP:
                continue
            h = qubit_hamiltonian(OMEGA)
        dynamics = Dynamics.semigroup(h, source)
        kind, beta, gamma_min = classify_one(dynamics)
        assert kind in ("fpt", "thermalizing"), "draw must satisfy the spectral criterion"
        tau_max = default_tau_max(gamma_min)
        beta_i = rng.uniform(0.0, 1.8)
        grid = exchange_at(evolve(dynamics.generator, tau_max), h, beta_i)
        defined, _, _, deviation = ratios(*grid, beta_i - beta)
        assert np.all(deviation[defined & (grid[2] > 1e-12)] < 1e-6)
        drawn += 1
    _report(6, "thermalizing dynamics obey the ratio law at the horizon")


def test_criterion_7_fixed_point_qubit_maps_ratio_law_all_times():
    rng = np.random.default_rng(SEED + 7)
    drawn = 0
    while drawn < 20:
        beta_f = rng.uniform(0.2, 2.0)
        base = example_c_qdb_point(
            rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.5), OMEGA, beta_f
        )
        params = dataclasses.replace(
            base,
            nu=base.nu * (1 + rng.uniform(-0.15, 0.3)),
            alpha=base.alpha * (1 + rng.uniform(-0.15, 0.3)),
        )
        try:
            sup = example_c_generator(params)
        except NotCPTP:
            continue
        h = qubit_hamiltonian(OMEGA)
        kind, beta, gamma_min = classify_one(Dynamics.semigroup(h, sup))
        assert kind == "fpt"
        assert abs(beta - beta_f) < 1e-9
        beta_i = rng.uniform(0.0, 2.5)
        for tau in TAU_GRID:
            for rec in ratio_records(exchange_at(evolve(sup, tau), h, beta_i), beta_i - beta_f):
                assert rec.deviation < 1e-9
        drawn += 1
    _report(7, "fixed-point thermalizing qubit maps obey the ratio law at all times")


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(SEED + 8)
    # complete positivity and trace preservation of generated semigroups
    pools = []
    for _ in range(5):
        pools.append(
            (
                example_qdb_family(
                    rng.uniform(0.1, 2), rng.uniform(0, 1), OMEGA, rng.uniform(0.2, 2)
                ),
                None,
            )
        )
    for _ in range(3):
        gen, h3 = thermal_circulation_qutrit(rng, beta_f=rng.uniform(0.2, 1.2))
        pools.append((gen, h3))
    for gen, _ in pools:
        l = lindblad_superop(gen)
        for tau in (0.1, 1.0, 10.0):
            assert max(is_cptp(evolve(l, tau))) < 1e-9
    # trace-pairing duality on 100 random pairs
    gen = example_qdb_family(0.7, 0.2, OMEGA, 0.8)
    g = evolve(lindblad_superop(gen), 0.9)
    gd = evolve(dual_superop(gen), 0.9)
    for _ in range(100):
        sigma_m = random_density(rng, 2)
        a = random_complex(rng, 2)
        lhs = np.trace(apply_matrix(g, sigma_m) @ a)
        rhs = np.trace(sigma_m @ apply_matrix(gd, a))
        assert abs(lhs - rhs) < 1e-10
    # adjoint defining relation on the full matrix-unit basis
    for d in (2, 3):
        space_sigma = random_density(rng, d)
        while min(np.linalg.eigvalsh(space_sigma)) < 1e-3:
            space_sigma = random_density(rng, d)
        op = random_complex(rng, d * d)
        units = [
            np.outer(np.eye(d)[:, i], np.eye(d)[j])
            for i in range(d)
            for j in range(d)
        ]
        for s in S_GRID:
            space = WeightedSpace(space_sigma, s)
            star = adjoint(space, op)
            for a in units:
                for b in units:
                    lhs = inner(space, a, apply_matrix(op, b))
                    rhs = inner(space, apply_matrix(star, a), b)
                    assert abs(lhs - rhs) < 1e-10
    # time-reversal properties, each at 1e-12
    for reversal in (TimeReversal.conjugation(2), TimeReversal.spin_half()):
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        alpha, beta = 0.3 - 1.1j, 0.8 + 0.2j
        checks = [
            matlin.frobenius(
                reversal.apply(alpha * a + beta * b)
                - alpha * reversal.apply(a)
                - beta * reversal.apply(b)
            ),
            abs(np.linalg.norm(reversal.apply(a), 2) - np.linalg.norm(a, 2)),
            abs(np.trace(reversal.apply(a)) - np.trace(a)),
            matlin.frobenius(reversal.apply(matlin.dag(a)) - matlin.dag(reversal.apply(a))),
            matlin.frobenius(reversal.apply(a @ b) - reversal.apply(b) @ reversal.apply(a)),
            0.0 if reversal.apply(a).shape == a.shape else 1.0,
            matlin.frobenius(reversal.apply(reversal.apply(a)) - a),
        ]
        assert max(checks) < 1e-12
    # weighted-similarity commutation for balanced generators
    for _ in range(5):
        beta_f = rng.uniform(0.2, 2.0)
        gen = example_qdb_family(rng.uniform(0.1, 2), rng.uniform(0, 1), OMEGA, beta_f)
        sigma = gibbs(gen.hamiltonian, beta_f)
        for s in S_GRID:
            space = WeightedSpace(sigma, s)
            rs = r_s_superop(space)
            for tau in (0.1, 1.0, 10.0):
                gmap = evolve(dual_superop(gen), tau)
                assert matlin.frobenius(gmap @ rs - rs @ gmap) < 1e-10
    # exchange distributions stay normalized across the pools
    for gen, h3 in pools:
        h = h3 if h3 is not None else gen.hamiltonian
        l = lindblad_superop(gen)
        for tau in (0.05, 0.5, 5.0):
            gaps = gap_records(exchange_at(evolve(l, tau), h, 1.3))
            total = sum(rec.p_plus for rec in gaps)
            total += sum(rec.p_minus for rec in gaps if rec.energy > 0)
            assert abs(total - 1.0) < 1e-9
    _report(8, "structural invariants: cptp, duality, adjoint, reversal, normalization")


def test_criterion_9_cli_determinism_and_roundtrip(tmp_path):
    args = ["example", "b", "--tau-grid", "log:0.01:50:40"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    for name in ("example_b_rows.csv", "example_b_verdict.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # serialization roundtrip preserves every verdict
    model_path = tmp_path / "model_b.json"
    save_model(example_b_generator(ExampleBParams(OMEGA, 1.0, BETA_F)), model_path)
    out3 = tmp_path / "r3"
    assert main(["check", str(model_path), "--tau-grid", "log:0.01:50:40", "--out", str(out3)]) == 0
    v1 = json.loads((out1 / "example_b_verdict.json").read_text())
    v2 = json.loads((out3 / "check_model_b_verdict.json").read_text())
    for key in ("classification", "qdb1", "qdb2", "qfr_max_deviation", "qfr_passes"):
        assert v1[key] == v2[key]
    _report(9, "deterministic reports and model-file roundtrip")
