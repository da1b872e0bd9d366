"""Built-in qubit scenarios.

All three constructors share one frame: the storage basis is ordered by
energy (ground level first, ``H = diag(-omega/2, +omega/2)``) and Bloch
coordinates use the standard Pauli matrices, so ``r_z = +1`` is the ground
state.  The scenarios' closed-form solutions, written in that frame, are
test oracles and live with the tests.

* Scenario A: a generalized amplitude-damping channel family with the
  closed-form schedules ``q_tau`` (asymptotic bias) and ``xi_tau``
  (mixing).  It thermalizes without keeping the thermal state fixed at
  finite times, and its exchange ratio obeys ``R(E; tau) = F(tau)
  e^{dbeta E}`` with an explicit correction factor ``F``.
* Scenario B: the damped qubit in a bosonic bath (quantum optical master
  equation), a semigroup that is fixed-point thermalizing and balanced.
* Scenario C: a four-dimensional Bloch-coordinate generator family that is
  fixed-point thermalizing for any admissible parameters but balanced only
  on a one-parameter slice, separating the ratio law from detailed balance.
  It is completely positive only where its transverse damping is large
  enough against its longitudinal damping.

``scenario_sources`` builds one of them, by name, as one ``Dynamics`` block
stacked over a list of parameter points.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Dynamics, LindbladGenerator, bloch4_to_superop
from .errors import ConfigError
from .states import HamiltonianSpec

# Energy lowering/raising in the ground-first storage basis.
LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)
RAISING = np.array([[0, 0], [1, 0]], dtype=complex)


def qubit_hamiltonian(omega) -> HamiltonianSpec:
    """``diag(-omega/2, +omega/2)``: ground level first for ``omega > 0``; the
    stack of them for an array of ``omega``."""
    omega = np.asarray(omega, float)
    if (omega <= 0).any():
        raise ValueError("omega must be positive")
    return HamiltonianSpec.from_matrix(np.diag([-0.5, 0.5]) * omega[..., None, None])


def _require_finite(params, names) -> None:
    """Raise ``ValueError`` for the first field of ``names`` that is not a finite number."""
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite, got {getattr(params, name)}")


def thermal_bias(omega: float, beta_f: float) -> float:
    """Asymptotic excited-level population ``(1 - tanh(beta omega / 2)) / 2``."""
    return 0.5 * (1.0 - math.tanh(beta_f * omega / 2))


# ---------------------------------------------------------------------------
# Scenario A: thermalizing but not fixed-point thermalizing


class ExampleAParams:
    """Channel family of the mixing schedule ``xi_tau = 1 - e^{-tau}`` and
    the bias schedule ``q_tau = q_inf xi_tau``, or the constant ``q_tau =
    q_inf`` where ``fixed_point`` is set, which makes the family fixed-point
    thermalizing.  ``xi_0 = 0`` (the map starts at the identity), ``xi_inf =
    1`` (initial data is forgotten) and ``q_inf`` is the thermal bias for
    ``beta_f``."""

    def __init__(self, omega, beta_f, fixed_point=False):
        self.omega, self.beta_f, self.fixed_point = omega, beta_f, fixed_point
        _require_finite(self, ("omega", "beta_f"))
        if self.omega <= 0 or self.beta_f < 0:
            raise ValueError("need omega > 0 and beta_f >= 0")
        if self.q_inf == 0.0:
            raise ValueError(f"thermal bias at beta_f omega = {self.beta_f * self.omega:g} rounds to 0")

    @property
    def q_inf(self) -> float:
        return thermal_bias(self.omega, self.beta_f)

    def schedules(self, taus) -> tuple:
        """The arrays ``(q, xi)`` of the two schedules at the times ``taus``."""
        # libm's exp, as infer_beta takes libm's log: numpy's differs from it in the last bit at some tau, and by CPU
        xi = 1.0 - np.array([math.exp(-tau) for tau in taus])
        return np.full_like(xi, self.q_inf) if self.fixed_point else self.q_inf * xi, xi


def example_a_channel(q, xi) -> np.ndarray:
    """Four-operator Kraus family of the schedule arrays ``q`` and ``xi``,
    stacked ``(t, 4, 2, 2)``.

    Ground population evolves as ``d(tau) = (1 - xi) d(0) + (1 - q) xi``,
    the coherence scales by ``sqrt(1 - xi)``, and the level transition
    probabilities are ``p(ground -> excited) = xi q`` and
    ``p(excited -> ground) = xi (1 - q)``.
    """
    kraus = np.zeros((len(q), 4, 2, 2), dtype=complex)
    kraus[:, 0, 0, 0] = np.sqrt(1.0 - q)
    kraus[:, 0, 1, 1] = np.sqrt(1.0 - q) * np.sqrt(1.0 - xi)
    kraus[:, 1, 0, 1] = np.sqrt((1.0 - q) * xi)
    kraus[:, 2, 0, 0] = np.sqrt(q) * np.sqrt(1.0 - xi)
    kraus[:, 2, 1, 1] = np.sqrt(q)
    kraus[:, 3, 1, 0] = np.sqrt(q * xi)
    return kraus


def example_a_f_factor(p: ExampleAParams, taus) -> np.ndarray:
    """Finite-time ratio correction ``F = (1 - f/q_inf) / (1 + f/(1 - q_inf))``
    with ``f = q_inf - q_tau`` at each time of ``taus``; tends to 1 at late
    times."""
    q_inf = p.q_inf
    f = q_inf - p.schedules(taus)[0]
    return (1.0 - f / q_inf) / (1.0 + f / (1.0 - q_inf))


# ---------------------------------------------------------------------------
# Scenario B: damped qubit in a thermal bosonic bath


class ExampleBParams:
    """Qubit of frequency ``omega``, damped at rate ``gamma`` by a bosonic
    bath at inverse temperature ``beta_f``."""

    def __init__(self, omega, gamma, beta_f):
        self.omega, self.gamma, self.beta_f = omega, gamma, beta_f
        # beta_f = inf is the zero-temperature limit, with n_bar = 0
        _require_finite(self, ("omega", "gamma"))
        if not (self.omega > 0 and self.gamma > 0 and self.beta_f > 0):
            raise ValueError("need omega > 0, gamma > 0 and beta_f > 0")
        x = self.beta_f * self.omega
        try:
            n_bar = self.n_bar
        except OverflowError as exc:
            raise ValueError(f"e^(beta_f omega) overflows at beta_f omega = {x:g}") from exc
        except ZeroDivisionError:  # beta_f omega underflowed to 0
            n_bar = math.inf
        if math.isinf(n_bar):
            raise ValueError(f"n_bar = 1/(e^(beta_f omega) - 1) overflows at beta_f omega = {x:g}")
        if math.isinf(self.gamma * (n_bar + 1.0)):
            raise ValueError(f"the decay rate gamma (n_bar + 1) overflows at gamma = {self.gamma:g}")

    @property
    def n_bar(self) -> float:
        """Bosonic occupation ``1 / (e^{beta omega} - 1)``, 0 at beta = inf."""
        return 1.0 / math.expm1(self.beta_f * self.omega)


def example_b_generator(p) -> LindbladGenerator:
    """Decay at ``gamma (n_bar + 1)`` and excitation at ``gamma n_bar``: the
    generator of the parameters ``p``, or one generator stacked over a
    sequence of them, with one eigendecomposition of their Hamiltonians."""
    params = [p] if isinstance(p, ExampleBParams) else p
    omega, gamma, n_bar = np.array([(q.omega, q.gamma, q.n_bar) for q in params]).T
    jumps = np.sqrt([gamma * (n_bar + 1.0), gamma * n_bar]).T[..., None, None] * np.array([LOWERING, RAISING])
    if params is not p:  # one generator
        omega, jumps = omega[0], jumps[0]
    return LindbladGenerator.from_jump_operators(qubit_hamiltonian(omega), jumps)


def _require_rates(mu: float, eta: float) -> None:
    """Raise ``ValueError``, naming the rate, unless ``mu > 0`` and ``eta >= 0``,
    both finite."""
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and positive, got {mu}")
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")


# ---------------------------------------------------------------------------
# Scenario C: Bloch-coordinate generator family


class ExampleCParams:
    """Coefficients of the 4x4 Bloch-coordinate generator.

    ``nu`` and ``alpha`` damp the transverse components, ``zeta`` the
    longitudinal one, and ``chi`` sets the longitudinal drift; the
    asymptotic Bloch vector is ``(0, 0, -chi/zeta)``.
    """

    def __init__(self, omega, nu, alpha, chi, zeta):
        self.omega, self.nu, self.alpha, self.chi, self.zeta = omega, nu, alpha, chi, zeta
        _require_finite(self, ("omega", "nu", "alpha", "chi", "zeta"))
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        # relative to the unit ball's radius 1: 1e-12 forgives the quotient's roundoff
        if abs(self.chi / self.zeta) > 1.0 + 1e-12:
            raise ValueError("asymptotic Bloch vector would leave the ball")

    def replace(self, **changes) -> "ExampleCParams":
        """These parameters with ``changes`` in place of some, checked again."""
        return type(self)(**{**vars(self), **changes})


def example_c_qdb_point(mu: float, eta: float, omega: float, beta_f: float) -> ExampleCParams:
    """Bloch-coordinate parameters of the balanced qubit semigroup with
    excitation rate ``mu``, decay rate ``mu e^{beta omega}`` and dephasing
    rate ``eta``."""
    _require_rates(mu, eta)
    try:
        boltz = math.exp(beta_f * omega)
    except OverflowError as exc:
        raise ValueError(f"e^(beta_f omega) overflows at beta_f omega = {beta_f * omega:g}") from exc
    nu, chi, zeta = eta + 0.25 * mu * (1.0 + boltz), 0.5 * mu * (1.0 - boltz), 0.5 * mu * (1.0 + boltz)
    if not all(map(math.isfinite, (nu, chi, zeta))):
        raise ValueError(f"mu = {mu:g} overflows the rates at beta_f omega = {beta_f * omega:g}")
    return ExampleCParams(omega=omega, nu=nu, alpha=nu, chi=chi, zeta=zeta)


def example_c_bloch_matrix(p: ExampleCParams) -> np.ndarray:
    """Generator ``LL`` of ``d/dtau (1, r) = -2 LL (1, r)``."""
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, p.nu, -p.omega / 2.0, 0.0],
            [0.0, p.omega / 2.0, p.alpha, 0.0],
            [p.chi, 0.0, 0.0, p.zeta],
        ]
    )


def example_c_generator(p) -> np.ndarray:
    """Schroedinger-picture generator of the parameters ``p``, or the stack
    ``(n, 4, 4)`` of those of a sequence of them; an entry that overflows
    reads inf or nan, which ``Dynamics.semigroup`` rejects."""
    params = [p] if isinstance(p, ExampleCParams) else p
    s = bloch4_to_superop(np.array([example_c_bloch_matrix(q) for q in params]))
    return s if params is p else s[0]


# ---------------------------------------------------------------------------
# the scenarios by name


def scenario_sources(name: str, points: list, beta_f, omega, gamma, mu, eta, nu_scale, q_schedule) -> tuple:
    """Scenario ``name`` stacked over ``points``, each a dict of the
    parameters that the point sets in place of the others, as ``(block,
    f_factor)``: one ``Dynamics`` block of the points, in order, and scenario
    A's correction factor ``taus -> (k, t)`` of each point (None for the
    others): A with ``q_schedule`` "fpt" (constant bias) or "default", B with
    ``gamma``, C at its balanced point of ``mu`` and ``eta`` with nu scaled
    by ``nu_scale``.  The points' Hamiltonians, and scenarios B's and C's
    generators, are built as one stack.  An invalid parameter raises
    ``ConfigError``."""
    try:
        if name == "a":
            params = [ExampleAParams(**{"omega": omega, "beta_f": beta_f, **p}, fixed_point=q_schedule == "fpt")
                      for p in points]
            hs = qubit_hamiltonian([p.omega for p in params])
            block = Dynamics.channel_family(
                hs, lambda taus: np.array([example_a_channel(*p.schedules(taus)) for p in params]))
            return block, lambda taus: np.array([example_a_f_factor(p, taus) for p in params])
        if name == "b":
            # H is the generator's, which keeps H's one eigendecomposition
            gen = example_b_generator([ExampleBParams(**{"omega": omega, "gamma": gamma, "beta_f": beta_f, **p})
                                       for p in points])
            return Dynamics.semigroup(gen.hamiltonian, gen), None
        flags, params = {"mu": mu, "eta": eta, "omega": omega, "beta_f": beta_f}, []
        for p in points:
            base = example_c_qdb_point(**{k: p.get(k, v) for k, v in flags.items()})
            if not math.isfinite(nu_scale):
                raise ValueError(f"nu-scale must be finite, got {nu_scale}")
            # a swept coefficient takes the place of the balanced point's
            swept = {k: p[k] for k in p.keys() - flags}
            params.append(base.replace(**{"nu": base.nu * nu_scale, **swept}))
        return Dynamics.semigroup(qubit_hamiltonian([p.omega for p in params]), example_c_generator(params)), None
    except ValueError as exc:
        raise ConfigError(f"scenario {name}: {exc}") from exc
