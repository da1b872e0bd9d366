import math
import sys

import numpy as np
import pytest

from conftest import (
    a_channel,
    apply_matrix,
    channel_from_superop,
    check_pairwise_condition,
    classify_one,
    default_tau_max,
    evolve,
    example_qdb_family,
    exchange_at,
    fpt_stationarity_identity,
    gamma_bar,
    gap_records,
    level_projector,
    random_hamiltonian,
    reference_classify_family,
    reference_classify_single_map,
    random_lindblad,
    ratio_records,
    thermal_circulation_qutrit,
    transition_matrix,
)
from qdblab import dynamics, fluctuation, matlin
from qdblab.cli import main
from qdblab.dynamics import Dynamics, LindbladGenerator, evolve_grid, lindblad_superop
from qdblab.errors import DimensionMismatch, InconclusiveHorizon, InternalCheckError, NotTracePreserving
from qdblab.examples import (
    ExampleAParams,
    ExampleBParams,
    example_a_channel,
    example_b_generator,
    qubit_hamiltonian,
)
from qdblab.fluctuation import (
    ROUTE_AGREEMENT_ATOL,
    STOCHASTIC_ATOL,
    exchange_grid,
    ratios,
)
from qdblab.matlin import dag
from qdblab.states import HamiltonianSpec, thermal_populations


def gap_at(grid, energy):
    """The record of ``grid``'s first time at the gap ``energy``."""
    return next(g for g in gap_records(grid) if abs(g.energy - energy) <= 1e-9)


class TestTransitionMatrix:
    def test_identity_map(self):
        h = qubit_hamiltonian(1.0)
        np.testing.assert_allclose(transition_matrix(np.eye(2)[None], h), np.eye(2), atol=1e-14)

    def test_scenario_a_literal_probabilities(self):
        p = ExampleAParams.default(1.0, 1.0)
        h = qubit_hamiltonian(1.0)
        tau = 0.8
        q, xi = p.q_schedule(tau), p.xi_schedule(tau)
        probs = transition_matrix(a_channel(p, tau), h)
        assert abs(probs[0, 1] - xi * q) < 1e-13
        assert abs(probs[1, 0] - xi * (1 - q)) < 1e-13

    def test_scenario_b_closed_form_probabilities(self):
        # independent oracle: the populations relax exponentially toward
        # the thermal values, so p(g->e) = (1 - e^{-gbar tau}) p_e(beta)
        p = ExampleBParams(omega=1.0, gamma=1.0, beta_f=1.0)
        h = p.hamiltonian()
        l = lindblad_superop(example_b_generator(p))
        for tau in (0.2, 1.0, 4.0):
            probs = transition_matrix(evolve(l, tau), h)
            reach = 1.0 - math.exp(-gamma_bar(p) * tau)
            p_th = thermal_populations(h, p.beta_f)
            assert abs(probs[0, 1] - reach * p_th[1]) < 1e-12
            assert abs(probs[1, 0] - reach * p_th[0]) < 1e-12

    def test_rows_stochastic_for_random_semigroups(self, rng):
        for d in (2, 3):
            gen = random_lindblad(rng, d)
            l = lindblad_superop(gen)
            for tau in (0.1, 1.0, 10.0):
                probs = transition_matrix(evolve(l, tau), gen.hamiltonian)
                np.testing.assert_allclose(probs.sum(axis=1), np.ones(d), atol=1e-9)
                assert probs.min() > -1e-12


class TestExchangeDistribution:
    def test_zero_time_single_zero_gap(self, rng):
        gen = random_lindblad(rng, 2)
        gaps = gap_records(exchange_at(evolve(lindblad_superop(gen), 0.0), gen.hamiltonian, 1.5))
        assert len(gaps) == 1
        assert gaps[0].energy == 0.0
        assert abs(gaps[0].p_plus - 1.0) < 1e-14

    def test_qubit_bookkeeping(self):
        p = ExampleAParams.default(1.0, 1.0)
        h = qubit_hamiltonian(1.0)
        beta_i, tau = 2.0, 0.7
        gap = gap_at(exchange_at(a_channel(p, tau), h, beta_i), 1.0)
        probs = transition_matrix(a_channel(p, tau), h)
        p_init = thermal_populations(h, beta_i)
        assert abs(gap.p_plus - p_init[0] * probs[0, 1]) < 1e-14
        assert abs(gap.p_minus - p_init[1] * probs[1, 0]) < 1e-14

    def test_scenario_b_ratio_matches_prediction(self):
        # oracle: pairwise-balanced dynamics gives exactly e^{dbeta omega}
        p = ExampleBParams(omega=1.0, gamma=1.0, beta_f=1.0)
        l = lindblad_superop(example_b_generator(p))
        grid = exchange_at(evolve(l, 1.0), p.hamiltonian(), 2.0)
        rec = [r for r in ratio_records(grid, 2.0 - 1.0) if abs(r.energy - 1.0) < 1e-9][0]
        assert abs(rec.ratio - math.exp(1.0)) < 1e-12
        assert rec.deviation < 1e-12

    def test_degenerate_gaps_accumulate(self, rng):
        # equally spaced levels: the two omega-sized gaps share one record
        h = HamiltonianSpec.from_matrix(np.diag([0.0, 1.0, 2.0]))
        gen = random_lindblad(rng, 3)
        gen = type(gen).canonical(h, gen.kossakowski)
        grid = exchange_at(evolve(lindblad_superop(gen), 0.5), h, 1.0)
        energies = [g.energy for g in gap_records(grid)]
        assert energies == [0.0, 1.0, 2.0]
        probs = transition_matrix(evolve(lindblad_superop(gen), 0.5), h)
        p_init = thermal_populations(h, 1.0)
        expected = p_init[0] * probs[0, 1] + p_init[1] * probs[1, 2]
        assert abs(gap_at(grid, 1.0).p_plus - expected) < 1e-13

    def test_normalization_invariant(self, rng):
        # enforced by exchange_grid; exercise it across random dynamics
        for d in (2, 3):
            gen = random_lindblad(rng, d)
            l = lindblad_superop(gen)
            for tau in (0.05, 0.5, 5.0):
                gaps = gap_records(exchange_at(evolve(l, tau), gen.hamiltonian, 1.2))
                total = sum(g.p_plus for g in gaps)
                total += sum(g.p_minus for g in gaps if g.energy > 0)
                assert abs(total - 1.0) < 1e-9


class TestQfrRatio:
    def test_equal_temperatures_give_unit_ratio(self):
        gen = example_qdb_family(0.5, 0.2, 1.0, 1.0)
        l = lindblad_superop(gen)
        for rec in ratio_records(exchange_at(evolve(l, 0.7), gen.hamiltonian, 1.0), 0.0):
            assert abs(rec.ratio - 1.0) < 1e-12

    def test_vanishing_release_probability_flagged_undefined(self):
        # beta_i large enough freezes the excited level: no release events
        p = ExampleBParams(omega=1.0, gamma=1.0, beta_f=1.0)
        l = lindblad_superop(example_b_generator(p))
        grid = exchange_at(evolve(l, 0.5), p.hamiltonian(), 60.0)
        reported = {round(r.energy, 9) for r in ratio_records(grid, 60.0 - 1.0)}
        present = {round(g.energy, 9) for g in gap_records(grid)}
        assert 1.0 in present and 1.0 not in reported

    def test_ratio_time_independent_for_balanced_dynamics(self):
        gen = example_qdb_family(0.9, 0.1, 1.0, 0.6)
        l = lindblad_superop(gen)
        ratios = []
        for tau in (0.2, 1.0, 7.0):
            grid = exchange_at(evolve(l, tau), gen.hamiltonian, 1.7)
            rec = [r for r in ratio_records(grid, 1.7 - 0.6) if abs(r.energy - 1.0) < 1e-9][0]
            ratios.append(rec.ratio)
        assert max(ratios) - min(ratios) < 1e-9


class TestPairwiseCondition:
    def test_balanced_generator_all_times(self):
        gen = example_qdb_family(0.5, 0.4, 1.0, 1.3)
        l = lindblad_superop(gen)
        for tau in (0.1, 1.0, 10.0):
            assert check_pairwise_condition(evolve(l, tau), gen.hamiltonian, 1.3) < 1e-10

    def test_reversal_balanced_maps_satisfy_pairwise_symmetry(self, rng):
        # maps passing the time-reversal balance check (with a reversal
        # fixing the Hamiltonian) inherit the pairwise transition symmetry
        from qdblab.balance import check_qdb2

        for _ in range(3):
            beta = rng.uniform(0.3, 1.5)
            gen = example_qdb_family(rng.uniform(0.1, 1.5), rng.uniform(0, 0.8), 1.0, beta)
            h = gen.hamiltonian
            l = lindblad_superop(gen)
            for tau in (0.1, 1.0, 10.0):
                gmap = evolve(l, tau)
                [residual] = check_qdb2(h, beta, (0.25,), gmap[None])
                assert residual < 1e-9
                assert check_pairwise_condition(gmap, h, beta) < 1e-10

    def test_thermalizing_map_asymptotically(self, rng):
        gen, h = thermal_circulation_qutrit(rng, beta_f=0.9)
        kind, beta, gamma_min = classify_one(Dynamics.semigroup(h, gen))
        assert kind == "fpt" and abs(beta - 0.9) < 1e-8
        l = lindblad_superop(gen)
        # finite time: the cyclic current breaks the pairwise symmetry
        assert check_pairwise_condition(evolve(l, 0.5), h, 0.9) > 1e-4
        tau_max = default_tau_max(gamma_min)
        assert check_pairwise_condition(evolve(l, tau_max), h, 0.9) < 1e-8


class TestFptIdentity:
    def test_scenario_b_holds(self):
        p = ExampleBParams(omega=1.0, gamma=1.0, beta_f=1.0)
        l = lindblad_superop(example_b_generator(p))
        assert fpt_stationarity_identity(evolve(l, 1.0), p.hamiltonian(), 1.0) < 1e-12

    def test_scenario_a_defect_quantified(self):
        # oracle: the defect equals xi_tau * (q_inf - q_tau) exactly
        p = ExampleAParams.default(1.0, 1.0)
        h = qubit_hamiltonian(1.0)
        tau = 1.0
        defect = fpt_stationarity_identity(a_channel(p, tau), h, 1.0)
        expected = p.xi_schedule(tau) * (p.q_inf - p.q_schedule(tau))
        assert abs(defect - expected) < 1e-12
        assert defect > 1e-3


class TestClassify:
    def test_balanced_semigroup_is_fpt(self):
        gen = example_qdb_family(0.7, 0.3, 1.0, 1.4)
        kind, beta, gamma_min = classify_one(Dynamics.semigroup(gen.hamiltonian, gen))
        assert kind == "fpt"
        assert abs(beta - 1.4) < 1e-9
        assert gamma_min > 0

    def test_scenario_a_family_thermalizing_not_fpt(self):
        p = ExampleAParams.default(1.0, 1.0)
        h = qubit_hamiltonian(1.0)
        kind, beta, gamma_min = classify_one(Dynamics.channel_family(h, lambda taus: example_a_channel(p, taus)))
        assert kind == "thermalizing"
        assert abs(beta - 1.0) < 1e-7

    def test_scenario_a_constant_bias_is_fpt(self):
        p = ExampleAParams.fixed_point(1.0, 1.0)
        h = qubit_hamiltonian(1.0)
        kind, beta, gamma_min = classify_one(Dynamics.channel_family(h, lambda taus: example_a_channel(p, taus)))
        assert kind == "fpt"

    def test_generic_generator_not_thermal(self, rng):
        gen = random_lindblad(rng, 3)
        kind, beta, gamma_min = classify_one(Dynamics.semigroup(gen.hamiltonian, gen))
        assert kind == "non_thermalizing"

    def test_unitary_family_raises_inconclusive(self):
        h = qubit_hamiltonian(1.0)

        def rotation_family(taus):
            return matlin.expm(-1j * np.array(taus)[:, None, None, None] * np.array([[0, 0.5], [0.5, 0]]))

        with pytest.raises(InconclusiveHorizon):
            classify_one(Dynamics.channel_family(h, rotation_family))

    def test_unitary_family_exits_4(self, tmp_path, monkeypatch, capsys):
        from qdblab import cli

        def rotation_family(p, taus):
            return matlin.expm(-1j * np.array(taus)[:, None, None, None] * np.array([[0, 0.5], [0.5, 0]]))

        monkeypatch.setattr(cli, "example_a_channel", rotation_family)
        assert main(["example", "a", "--out", str(tmp_path)]) == 4
        # a unitary map moves pure states; the bound sqrt(2) |U - vec(I/2) vec(I)^dag|_2 is sqrt(2)
        message = (
            "InconclusiveHorizon: the map at tau=100 sends states up to 1.414e+00 in trace norm from its image of I/d"
        )
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("schedule", ["default", "fixed_point"])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta_f", [0.3, 1.0, 3.0])
    def test_scenario_a_matches_the_probe_state_reference(self, schedule, omega, beta_f):
        p = getattr(ExampleAParams, schedule)(omega, beta_f)
        source = Dynamics.channel_family(qubit_hamiltonian(omega), lambda taus: example_a_channel(p, taus))
        (kind, beta, _), (want_kind, want_beta) = classify_one(source), reference_classify_family(source)
        assert kind == want_kind == ("fpt" if schedule == "fixed_point" else "thermalizing")
        assert beta == pytest.approx(want_beta, rel=1e-14, abs=0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("circulation", [False, True])
    def test_kraus_family_of_a_semigroup_matches_the_references(self, rng, d, circulation):
        # a semigroup's maps, made Kraus one time at a time, as a channel family
        if circulation:
            gen, h = thermal_circulation_qutrit(rng, 0.8)
        else:
            h, gen = davies_generator(rng, d, 0.8)
        l = lindblad_superop(gen)

        def family(taus):
            kraus = np.zeros((len(taus), h.dim**2, h.dim, h.dim), dtype=complex)
            for t, tau in enumerate(taus):
                ops = channel_from_superop(evolve(l, tau))
                kraus[t, : len(ops)] = ops
            return kraus

        kind, beta, _ = classify_one(Dynamics.channel_family(h, family))
        want_kind, want_beta = reference_classify_family(Dynamics.channel_family(h, family))
        assert kind == want_kind == classify_one(Dynamics.semigroup(h, gen))[0] == "fpt"
        assert beta == pytest.approx(want_beta, rel=1e-14, abs=0)
        assert beta == pytest.approx(0.8, rel=1e-9)

    def test_family_is_read_from_one_map_stack(self, monkeypatch):
        # one call of the family, and no probe state per map
        p = ExampleAParams.default(1.0, 1.0)
        calls, inferred = [], []
        original = fluctuation.infer_beta

        def counted(rho, h):
            inferred.append(rho)
            return original(rho, h)

        monkeypatch.setattr(fluctuation, "infer_beta", counted)

        def family(taus):
            calls.append(taus)
            return example_a_channel(p, taus)

        assert classify_one(Dynamics.channel_family(qubit_hamiltonian(1.0), family))[0] == "thermalizing"
        assert len(calls) == 1
        assert len(inferred) == 1  # the thermal candidate, once

    def test_non_finite_kraus_family_is_not_trace_preserving(self):
        h = qubit_hamiltonian(1.0)
        with pytest.raises(NotTracePreserving, match=r"by nan$"):
            classify_one(Dynamics.channel_family(h, lambda taus: np.full((len(taus), 1, 2, 2), np.nan)))

    def test_pure_hamiltonian_semigroup_not_thermalizing(self, rng):
        from qdblab.dynamics import LindbladGenerator

        h = random_hamiltonian(rng, 2)
        gen = LindbladGenerator.canonical(h, np.zeros((3, 3)))
        kind, beta, gamma_min = classify_one(Dynamics.semigroup(h, gen))
        assert kind == "non_thermalizing"

    def test_default_tau_max(self):
        assert default_tau_max(0.5) == 100.0
        assert default_tau_max(None) == 100.0

    @pytest.mark.parametrize(
        "name", ["a-0.5", "a-1", "a-5", "identity", "bit-flip", "davies-3", "davies-4"]
    )
    def test_single_map_matches_its_own_superoperator(self, name):
        # a single map is a one-point family; classify must read it exactly as
        # the map's own superoperator reads
        h = qubit_hamiltonian(1.0)
        if name.startswith("a-"):
            channel = a_channel(ExampleAParams.default(1.0, 1.0), float(name[2:]))
        elif name == "identity":
            channel = np.eye(2)[None]
        elif name == "bit-flip":
            channel = np.array([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.array([[0, 1], [1, 0]])])
        else:
            h, gen = davies_generator(np.random.default_rng(5), int(name[-1]), 1.0)
            channel = channel_from_superop(evolve(lindblad_superop(gen), 1.0))
        kind, beta, gamma_min = classify_one(Dynamics.single_map(h, channel, 1.0))
        assert (kind, beta) == reference_classify_single_map(channel, h)
        assert gamma_min is None
        # scenario A's map at tau fixes a thermal state colder than beta_f = 1
        if name.startswith("a-"):
            assert beta > 1.0
        if name.startswith("davies"):
            assert abs(beta - 1.0) < 1e-8


def davies_generator(rng, d, beta):
    """A balanced Davies generator on a random spectrum: jumps ``sqrt(k_ij)
    |i><j|`` between H's eigenstates with ``k_ij p_j == k_ji p_i``."""
    energies = np.sort(rng.uniform(0.0, 2.0, size=d))
    h = HamiltonianSpec.from_matrix(np.diag(energies).astype(complex))
    p = np.exp(-beta * energies)
    w = rng.uniform(0.5, 1.0, size=(d, d))
    jumps = [
        np.sqrt((w[i, j] + w[j, i]) / 2 / p[j]) * np.eye(d)[:, [i]] @ np.eye(d)[[j]]
        for i in range(d)
        for j in range(d)
        if i != j
    ]
    return h, LindbladGenerator.from_jump_operators(h, jumps)


class TestAsymptoticRatioLaw:
    def test_thermalizing_maps_satisfy_ratio_law_at_horizon(self, rng):
        # the asymptotic ratio law needs thermalization only
        for _ in range(3):
            beta_f = rng.uniform(0.3, 1.2)
            beta_i = rng.uniform(0.0, 1.8)
            gen, h = thermal_circulation_qutrit(rng, beta_f=beta_f)
            kind, beta, gamma_min = classify_one(Dynamics.semigroup(h, gen))
            assert kind == "fpt"
            tau_max = default_tau_max(gamma_min)
            grid = exchange_at(evolve(lindblad_superop(gen), tau_max), h, beta_i)
            defined, _, _, deviation = ratios(*grid, beta_i - beta)
            assert np.all(deviation[defined & (grid[2] > 1e-12)] < 1e-6)


# The per-map loops that computed transition matrices, exchange records and
# ratios before the grid code, kept as the literal reference it must match.


def reference_superop_from_channel(kraus_ops):
    """``sum_j conj(G_j) (x) G_j`` of one Kraus map, summed with Kronecker products."""
    d = kraus_ops.shape[-1]
    m = np.zeros((d * d, d * d), dtype=complex)
    for g in kraus_ops:
        m += matlin.kron(g.conj(), g)
    return m


def reference_transition_matrix(g, h):
    """Transition probabilities of one map, Kraus operators ``(j, d, d)`` or a
    superoperator ``(d^2, d^2)``, level by level."""
    d = h.dim
    v = h.eigenvectors
    kraus_probs = None
    s = g
    if g.ndim == 3:
        if g.shape[-1] != d:
            raise DimensionMismatch("channel dimension does not match the Hamiltonian")
        kraus_probs = np.zeros((d, d))
        for op in g:
            g_eig = dag(v) @ op @ v
            kraus_probs += np.abs(g_eig.T) ** 2
        s = reference_superop_from_channel(g)
    elif g.shape != (d * d, d * d):
        raise DimensionMismatch("superoperator dimension does not match the Hamiltonian")
    probs = np.zeros((d, d))
    for m in range(d):
        out = apply_matrix(s, level_projector(h, m))
        probs[m] = np.real(np.einsum("in,ij,jn->n", v.conj(), out, v))
    if kraus_probs is not None:
        gap = float(np.max(np.abs(kraus_probs - probs)))
        if gap > ROUTE_AGREEMENT_ATOL:
            raise InternalCheckError(f"Kraus and superoperator transition routes disagree by {gap:.3e}")
    if float(np.min(probs)) < -1e-12:
        raise NotTracePreserving(f"negative transition probability {float(np.min(probs)):.3e}")
    rows = probs.sum(axis=1)
    if float(np.max(np.abs(rows - 1.0))) > STOCHASTIC_ATOL:
        raise NotTracePreserving(
            f"transition rows sum to 1 only within {float(np.max(np.abs(rows - 1.0))):.3e}"
        )
    return probs


def reference_exchange_records(g, h, beta_i):
    """``[(energy, p_plus, p_minus)]`` of one map."""
    if not 0 <= beta_i < math.inf:
        raise ValueError("beta_i must be finite and nonnegative")
    probs = reference_transition_matrix(g, h)
    e = h.eigenvalues
    p_init = thermal_populations(h, beta_i)
    atol = fluctuation.GAP_GROUP_RTOL * float(np.max(np.abs(e))) if e.size else 0.0
    forward = []
    for m in range(h.dim):
        for n in range(h.dim):
            gap = float(e[n] - e[m])
            if gap >= -atol:
                forward.append((max(gap, 0.0), m, n))
    forward.sort(key=lambda item: item[0])
    records = []
    idx = 0
    while idx < len(forward):
        jdx = idx
        while jdx + 1 < len(forward) and forward[jdx + 1][0] - forward[idx][0] <= atol:
            jdx += 1
        cluster = forward[idx : jdx + 1]
        if cluster[0][0] <= atol:
            energy = 0.0
        else:
            energy = float(np.mean([item[0] for item in cluster]))
        p_plus = float(sum(p_init[m] * probs[m, n] for _, m, n in cluster))
        p_minus = float(sum(p_init[n] * probs[n, m] for _, m, n in cluster))
        if max(p_plus, p_minus) >= fluctuation.PROBABILITY_FLOOR:
            records.append((energy, p_plus, p_minus))
        idx = jdx + 1
    total = sum(p_plus for _, p_plus, _ in records)
    total += sum(p_minus for energy, _, p_minus in records if energy > 0)
    if abs(total - 1.0) > 1e-9:
        raise InternalCheckError(f"exchange probabilities sum to {total:.12g}")
    for _, p_plus, p_minus in records:
        for p in (p_plus, p_minus):
            if p < -1e-12 or p > 1.0 + 1e-12:
                raise InternalCheckError(f"probability {p:.12g} outside [0, 1]")
    return records


def reference_ratios(records, dbeta):
    """``[(energy, ratio, predicted, deviation)]`` of the records with a ratio."""
    out = []
    for energy, p_plus, p_minus in records:
        if p_minus <= fluctuation.RATIO_FLOOR:
            continue
        ratio = p_plus / p_minus
        predicted = math.exp(dbeta * energy)
        out.append((energy, ratio, predicted, abs(ratio / predicted - 1.0)))
    return out


def diagonal_hamiltonian(rng, d, equally_spaced):
    energies = np.arange(d, dtype=float) if equally_spaced else np.sort(rng.uniform(-1.0, 1.0, d))
    return HamiltonianSpec.from_matrix(np.diag(energies).astype(complex))


def random_channel(rng, d, count):
    """``count`` Kraus operators ``(count, d, d)``, the blocks of a random isometry."""
    w, _ = np.linalg.qr(rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d)))
    return w.reshape(count, d, d)


TAUS = (0.0, 0.03, 0.4, 2.0, 30.0)


class TestExchangeGridAgainstReference:
    @pytest.mark.parametrize("equally_spaced", [False, True], ids=["generic", "degenerate-gaps"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_diagonal_semigroup_is_bitwise_equal(self, rng, d, equally_spaced):
        h = diagonal_hamiltonian(rng, d, equally_spaced)
        gen = LindbladGenerator.canonical(h, random_lindblad(rng, d).kossakowski)
        maps = Dynamics.semigroup(h, gen).maps(TAUS)
        assert maps[1] is None
        grid = exchange_grid(maps, h, 1.3)
        assert all(len(a) == len(TAUS) for a in grid[1:])
        for t, g in enumerate(maps[0]):
            assert np.array_equal(transition_matrix(g, h), reference_transition_matrix(g, h))
            records = reference_exchange_records(g, h, 1.3)
            assert gap_records(grid, t) == records
            assert ratio_records(grid, 1.3 - 0.7, t) == reference_ratios(records, 1.3 - 0.7)

    @pytest.mark.parametrize("equally_spaced", [False, True], ids=["generic", "degenerate-gaps"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kraus_family_of_mixed_counts_is_bitwise_equal(self, rng, d, equally_spaced):
        h = diagonal_hamiltonian(rng, d, equally_spaced)
        family = [random_channel(rng, d, count) for count in (1, 3, 2, 4)]
        padded = np.zeros((len(family), 4, d, d), dtype=complex)
        for t, g in enumerate(family):
            padded[t, : len(g)] = g
        superops, kraus = Dynamics.channel_family(h, lambda taus: padded).maps(range(4))
        assert np.array_equal(kraus, padded)
        assert np.array_equal(superops, [reference_superop_from_channel(g) for g in family])
        grid = exchange_grid((superops, kraus), h, 0.8)
        for t, g in enumerate(family):
            assert np.array_equal(transition_matrix(g, h), reference_transition_matrix(g, h))
            records = reference_exchange_records(g, h, 0.8)
            assert gap_records(grid, t) == records
            assert ratio_records(grid, 0.8 - 1.1, t) == reference_ratios(records, 0.8 - 1.1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rotated_models_agree_to_roundoff(self, rng, d):
        gen = random_lindblad(rng, d)  # a random complex eigenbasis
        h = gen.hamiltonian
        taus = TAUS[1:]
        channel = random_channel(rng, d, 3)
        grids = (
            exchange_grid(Dynamics.semigroup(h, gen).maps(taus), h, 1.3),
            exchange_grid(Dynamics.single_map(h, channel, 1.0).maps((1.0,)), h, 1.3),
        )
        maps = [*evolve_grid(lindblad_superop(gen), taus), channel]
        records = [(grids[0], t) for t in range(len(taus))] + [(grids[1], 0)]
        for g, (grid, t) in zip(maps, records):
            np.testing.assert_allclose(
                transition_matrix(g, h), reference_transition_matrix(g, h), rtol=1e-13, atol=1e-15
            )
            got, want = gap_records(grid, t), reference_exchange_records(g, h, 1.3)
            assert [r[0] for r in got] == [r[0] for r in want]
            np.testing.assert_allclose(np.array(got)[:, 1:], np.array(want)[:, 1:], rtol=1e-13, atol=0)

    def test_route_disagreement_quotes_the_first_failing_tau(self, rng, monkeypatch):
        # the two routes agree for any Kraus family, so skew the superoperator
        # route at the second and third time; the second time's gap is quoted
        h = diagonal_hamiltonian(rng, 2, False)
        family = np.array([random_channel(rng, 2, 2) for _ in range(3)])
        exact = dynamics._kraus_superops

        def skewed(kraus):
            s = exact(kraus)
            s[1, 0, 0] += 3e-9
            s[2, 0, 0] += 5e-8
            return s

        monkeypatch.setattr(dynamics, "_kraus_superops", skewed)
        maps = Dynamics.channel_family(h, lambda taus: family).maps((0.1, 0.2, 0.3))
        message = r"^Kraus and superoperator transition routes disagree by 3\.000e-09$"
        with pytest.raises(InternalCheckError, match=message):
            exchange_grid(maps, h, 1.0)


def _failing_maps(h):
    """Maps that pass every check and maps that fail one, by name."""
    d = h.dim
    good = evolve(lindblad_superop(LindbladGenerator.canonical(h, np.eye(d * d - 1) / 3)), 0.5)
    eye = np.eye(d * d, dtype=complex)
    units = np.arange(d) * (d + 1)  # vec(|m><m|) is the unit vector at m (d + 1)
    classical = np.zeros((d * d, d * d), dtype=complex)
    classical[np.ix_(units, units)] = np.eye(d)
    negative_entry, short_row = classical.copy(), classical.copy()
    # transitions from level 0 of (1.1, -0.1, 0), summing to 1, and of (0.5, 0.4, 0)
    negative_entry[units[:2], 0] = (1.1, -0.1)
    short_row[units[:2], 0] = (0.5, 0.4)
    return {
        "good": good,
        "nan": np.full((d * d, d * d), np.nan, dtype=complex),
        "negative": 2 * eye - good,
        "rows": 1.5 * good,
        # rows within STOCHASTIC_ATOL of 1, but a record above 1 + 1e-12
        "excess": (1 + 5e-10) * eye,
        "dimension": np.eye((d + 1) ** 2, dtype=complex),
        "negative-entry": negative_entry,
        "short-row": short_row,
    }


FAILING_H = HamiltonianSpec.from_matrix(np.diag([0.0, 0.6, 1.5]).astype(complex))


@pytest.mark.parametrize(
    "names, beta_i",
    [
        (("good", "negative", "rows"), 1.0),
        (("good", "nan", "nan"), 1.0),
        (("good", "excess", "rows"), 1.0),
        (("good", "negative-entry", "short-row"), 1.0),
        (("short-row", "negative-entry"), 1.0),
    ],
    ids=lambda case: "-".join(case) if isinstance(case, tuple) else f"beta_i={case}",
)
def test_grid_raises_what_the_per_map_loop_raised_first(names, beta_i):
    # the loop checked one map fully before the next; the grid must raise the
    # same exception, with the same message, although it checks all maps at once
    h = FAILING_H
    maps = [_failing_maps(h)[name] for name in names]
    with pytest.raises(Exception) as want:
        for g in maps:
            reference_exchange_records(g, h, beta_i)
    with pytest.raises(want.type) as got:
        exchange_grid((np.array(maps), None), h, beta_i)
    assert str(got.value) == str(want.value)


def test_grid_rejects_a_stack_of_another_dimension():
    h = FAILING_H
    g = _failing_maps(h)["dimension"]
    with pytest.raises(DimensionMismatch) as want:
        reference_exchange_records(g, h, 1.0)
    with pytest.raises(DimensionMismatch) as got:
        exchange_grid((np.array([g, g]), None), h, 1.0)
    assert str(got.value) == str(want.value)


def test_build_report_takes_thermal_populations_once_per_source(tmp_path, monkeypatch):
    from qdblab import states

    original = states.thermal_populations
    calls = []

    def counted(h, beta):
        calls.append(beta)
        return original(h, beta)

    for name, module in list(sys.modules.items()):
        if name.startswith("qdblab") and getattr(module, "thermal_populations", None) is original:
            monkeypatch.setattr(module, "thermal_populations", counted)
    sweep = ["sweep", "b", "--parameter", "gamma", "--range", "0.5:2:3"]
    for argv, sources in ((["example", "a"], 1), (["example", "b"], 1), (["example", "c"], 1), (sweep, 3)):
        calls.clear()
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert len(calls) == sources
