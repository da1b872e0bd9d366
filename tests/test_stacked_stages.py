"""A sweep block's stages over the leading point axis against the same
stages taken one point at a time.

Every stacked stage must give, bit for bit, what its per-point form gives:
classify's kind, beta_f and gamma_min (against the per-source reference in
``conftest``), ``infer_beta``, scenario B's generators, the Hamiltonians'
eigenpairs, scenario A's Kraus and superoperator stacks and the gap
clusters.  ``np.array_equal`` is exact, so a float that moved by one unit in
the last place fails.
"""

import math

import numpy as np
import pytest

from conftest import (
    TOL_CPTP,
    a_family,
    block,
    probes_of,
    LOWERING,
    RAISING,
    NotThermal,
    ZeroPopulation,
    davies_source,
    eigenframe,
    gibbs,
    random_density,
    random_hamiltonian,
    reference_classify,
    reference_gap_clusters,
    reference_herm_eig,
    reference_infer_beta,
    stack_specs,
    superop_from_channel,
)
from qdblab import fluctuation, matlin
from qdblab.dynamics import Dynamics, LindbladGenerator, _kraus_stacks, lindblad_superop, maps_of
from qdblab.errors import NotAState
from qdblab.examples import (
    ExampleAParams,
    ExampleBParams,
    example_a_channel,
    example_b_generator,
    example_c_generator,
    example_c_qdb_point,
    qubit_hamiltonian,
)
from qdblab.fluctuation import FIXED_POINT_TAUS, _gap_clusters, classify
from qdblab.states import infer_beta


def classified(sources):
    """:func:`classify` of the block of sources, with its probe maps."""
    stacked = block(sources)
    return classify(stacked, probes_of(stacked))


def assert_classified_as_reference(sources):
    stacked = block(sources)
    got, want = classified(sources), reference_classify(stacked, probes_of(stacked))
    assert len(got) == len(want)
    for (kind, beta, gamma), (want_kind, want_beta, want_gamma) in zip(got, want):
        assert kind == want_kind
        for value, reference in ((beta, want_beta), (gamma, want_gamma)):
            assert value is None if reference is None else np.array_equal(value, reference)


class TestClassifyIsTheReference:
    @pytest.mark.parametrize("dim, circulating", [(2, False), (3, False), (3, True), (4, False), (4, True)])
    def test_davies_blocks(self, rng, dim, circulating):
        assert_classified_as_reference([davies_source(rng, dim, circulating) for _ in range(5)])

    def test_davies_one_source(self, rng):
        for dim in (2, 3, 4):
            assert_classified_as_reference([davies_source(rng, dim, dim > 2)])

    def test_scenario_b(self):
        # beta_f = 40 puts the excited population below the floor: beta_f reads inf
        params = [ExampleBParams(omega, gamma, beta_f) for omega, gamma, beta_f in
                  [(1.0, 1.0, 1.0), (0.5, 2.0, 0.3), (2.0, 0.1, 3.0), (1.0, 1.0, 40.0), (1.3, 1e-3, 1e-3)]]
        gen = example_b_generator(params)
        sources = [Dynamics.semigroup(h, l) for h, l in zip(gen.hamiltonian, lindblad_superop(gen))]
        assert_classified_as_reference(sources)

    def test_scenario_c(self):
        base = example_c_qdb_point(0.5, 0.1, 1.0, 1.0)
        params = [base.__class__(**{**vars(base), "nu": base.nu * scale}) for scale in (0.8, 1.0, 1.1, 1.5)]
        hs = qubit_hamiltonian([p.omega for p in params])
        assert_classified_as_reference([Dynamics.semigroup(h, l) for h, l in zip(hs, example_c_generator(params))])

    def test_semigroups_without_a_thermal_fixed_point(self, rng):
        # a pure Hamiltonian has a degenerate zero eigenvalue; a random Lindblad model's fixed point is no Gibbs state
        h = random_hamiltonian(rng, 3)
        pure = Dynamics.semigroup(h, LindbladGenerator.canonical(h, np.zeros((8, 8))))
        kossakowski = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        mixed = Dynamics.semigroup(h, LindbladGenerator.canonical(h, kossakowski @ kossakowski.conj().T / 8))
        assert_classified_as_reference([pure, mixed, davies_source(rng, 3, False)])

    @pytest.mark.parametrize("fixed_point", [False, True], ids=["default", "fpt"])
    def test_scenario_a(self, fixed_point):
        # beta_f = 38 puts the excited population below the floor
        params = [ExampleAParams(omega, beta_f, fixed_point)
                  for omega, beta_f in [(0.5, 1.0), (1.0, 0.2), (2.0, 3.0), (1.0, 38.0)]]
        hs = qubit_hamiltonian([p.omega for p in params])
        assert_classified_as_reference([Dynamics.channel_family(h, a_family(p))
                                        for h, p in zip(hs, params)])

    @pytest.mark.parametrize("tau", [0.5, 1.0, 5.0])
    def test_single_map(self, tau):
        params = ExampleAParams(1.0, 1.0)
        source = Dynamics.single_map(qubit_hamiltonian(1.0), example_a_channel(*params.schedules([tau]))[0], tau)
        assert_classified_as_reference([source])

    def test_a_fixed_point_that_is_no_state_drops_only_its_own_single_maps_beta(self, rng, monkeypatch):
        # a CPTP map's simple fixed point is a state up to roundoff, so the state check is made to fail for the
        # second of three maps: that map alone reads no beta, and a semigroup's fixed point that is no state raises
        h = qubit_hamiltonian(1.0)
        maps = [Dynamics.single_map(h, example_a_channel(*ExampleAParams(omega, 1.0).schedules([1.0]))[0], 1.0)
                for omega in (1.0, 2.0, 0.5)]
        want = classified(maps)
        assert all(beta is not None for _, beta, _ in want)
        original = fluctuation.infer_beta

        def second_is_no_state(rho, h):
            # as infer_beta reads a state with the lowest eigenvalue -1: nan, with that eigenvalue
            beta, low = original(rho, h)
            second = np.arange(len(low)) == 1
            return np.where(second, math.nan, beta), np.where(second, -1.0, low)

        monkeypatch.setattr(fluctuation, "infer_beta", second_is_no_state)
        assert classified(maps) == [want[0], ("single_map", None, None), want[2]]
        with pytest.raises(NotAState, match=r"^state has negative eigenvalue -1\.000e\+00$"):
            classified([davies_source(rng, 3, False)] * 2)


def _reference_or_nan(rho, h):
    try:
        return reference_infer_beta(rho, h)
    except (NotAState, NotThermal, ZeroPopulation):
        return math.nan


class TestInferBeta:
    def test_a_stack_reads_as_its_states_one_at_a_time(self, rng):
        states, hs = [], []
        for d in (3,) * 12:
            h = random_hamiltonian(rng, d)
            kind = len(states) % 4
            rho = {0: lambda: gibbs(h, rng.uniform(0.0, 5.0)), 1: lambda: random_density(rng, d),
                   2: lambda: h.eigenvectors @ np.diag([1.0, 0.0, 0.0]) @ h.eigenvectors.conj().T,
                   3: lambda: h.eigenvectors @ np.diag([0.5, 0.5, 0.0]) @ h.eigenvectors.conj().T}[kind]()
            states.append(rho)
            hs.append(h)
        states = eigenframe(np.array(states), stack_specs(hs))
        got, low = infer_beta(states, stack_specs(hs))
        want = [_reference_or_nan(rho, h) for rho, h in zip(states, hs)]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isinf(got[2]) and np.isnan(got[3])
        assert np.array_equal(low, [np.linalg.eigvalsh(rho)[0] for rho in states])

    def test_a_state_that_is_no_state_reads_nan_with_its_lowest_eigenvalue(self):
        # whatever its diagonal; the states beside it keep their beta
        h = stack_specs([qubit_hamiltonian(1.0)] * 3)
        states = np.array([np.eye(2) / 2, np.diag([1.2, -0.2]), np.diag([0.7, 0.3])], dtype=complex)
        beta, low = infer_beta(states, h)
        assert np.array_equal(beta, [0.0, math.nan, math.log(0.7 / 0.3)], equal_nan=True)
        assert low[1] == -0.2


class TestScenarioBuilds:
    def test_scenario_b_generators_are_the_per_point_builds(self):
        rng = np.random.default_rng(64)
        params = [ExampleBParams(*rng.uniform(0.05, 3.0, 3)) for _ in range(64)]
        stacked = lindblad_superop(example_b_generator(params))
        # the generator of one point, built from its own jumps and Hamiltonian
        per_point = [lindblad_superop(LindbladGenerator.from_jump_operators(
            qubit_hamiltonian(p.omega),
            [math.sqrt(p.gamma * (p.n_bar + 1.0)) * LOWERING, math.sqrt(p.gamma * p.n_bar) * RAISING])) for p in params]
        assert np.array_equal(stacked, per_point)
        assert np.array_equal(stacked[:1], [lindblad_superop(example_b_generator(params[0]))])

    def test_stacked_hamiltonians_are_the_per_point_eigenpairs(self, rng):
        omegas = rng.uniform(0.01, 100.0, 32)
        stacked = qubit_hamiltonian(omegas)
        for i, omega in enumerate(omegas):
            one = qubit_hamiltonian(omega)
            assert all(np.array_equal(a, b) for a, b in zip(vars(stacked[i]).values(), vars(one).values()))
            assert np.array_equal(one.matrix, np.diag([-omega / 2, omega / 2]).astype(complex))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_herm_eig_of_a_stack_is_each_matrix_rotated_column_by_column(self, rng, d):
        a = rng.normal(size=(16, d, d)) + 1j * rng.normal(size=(16, d, d))
        stack = (a + a.conj().swapaxes(-1, -2)) / 2
        w, v = matlin.herm_eig(stack)
        for i, m in enumerate(stack):
            want_w, want_v = reference_herm_eig(m)
            assert np.array_equal(w[i], want_w) and np.array_equal(v[i], want_v)

    @pytest.mark.parametrize("fixed_point", [False, True], ids=["default", "fpt"])
    def test_scenario_a_kraus_and_superoperator_stacks_are_the_per_point_ones(self, fixed_point):
        params = [ExampleAParams(omega, 1.0, fixed_point) for omega in np.linspace(0.5, 2.0, 6)]
        hs = qubit_hamiltonian([p.omega for p in params])
        sources = [Dynamics.channel_family(h, a_family(p)) for h, p in zip(hs, params)]
        taus = (*FIXED_POINT_TAUS, 0.05, 0.4, 2.0, 9.0)
        _, stacks, _ = maps_of(block(sources), taus, (), TOL_CPTP)
        # each qubit H is diagonal, so its eigenframe is the basis of the channel's operators
        for superops, source, p in zip(stacks, sources, params):
            kraus = _kraus_stacks(example_a_channel(*p.schedules(taus)))
            assert np.array_equal(superops, [superop_from_channel(k) for k in kraus])


def _level_sets(rng, d, p, spacing):
    """``p`` level sets of ``d`` ascending levels that share their gap clusters:
    equally spaced ones, scaled and shifted, or one random spectrum."""
    if spacing:  # scaled by powers of two and shifted by integers, so that equal gaps stay equal
        return np.array([2.0 ** rng.integers(-3, 4) * np.arange(d) + rng.integers(-3, 4) for _ in range(p)])
    return np.array([rng.uniform(0.5, 2.0) * np.sort(rng.uniform(-1.0, 1.0, d)) + rng.uniform(-1.0, 1.0)] * p)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spacing", [False, True], ids=["random", "equal"])
def test_gap_clusters_of_a_stack_are_each_sets_own(rng, d, spacing):
    e = _level_sets(rng, d, 7, spacing)
    energies, pairs = _gap_clusters(e)
    for row, levels in zip(energies, e):
        want_energies, want_pairs = reference_gap_clusters(levels)
        assert np.array_equal(row, want_energies) and pairs == want_pairs
