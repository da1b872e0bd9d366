"""Built-in qubit scenarios with closed-form solutions.

All three constructors share one frame: the storage basis is ordered by
energy (ground level first, ``H = diag(-omega/2, +omega/2)``) and Bloch
coordinates use the standard Pauli matrices, so ``r_z = +1`` is the ground
state.  Closed forms below are written in that frame.

* Scenario A: a generalized amplitude-damping channel family with free
  schedules ``q_tau`` (asymptotic bias) and ``xi_tau`` (mixing).  It
  thermalizes without keeping the thermal state fixed at finite times, and
  its exchange ratio obeys ``R(E; tau) = F(tau) e^{dbeta E}`` with an
  explicit correction factor ``F``.
* Scenario B: the damped qubit in a bosonic bath (quantum optical master
  equation), a semigroup that is fixed-point thermalizing and balanced.
* Scenario C: a four-dimensional Bloch-coordinate generator family that is
  fixed-point thermalizing for any admissible parameters but balanced only
  on a one-parameter slice, separating the ratio law from detailed balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    SCHRODINGER,
    KrausChannel,
    LindbladGenerator,
    SuperOperator,
    evolve,
    is_cptp,
)
from .errors import DimensionMismatch, NotCPTP, ScheduleOutOfRange
from .matlin import dag, vec
from .states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    HamiltonianSpec,
)

HORIZON_TAU = 1e12

# Energy lowering/raising in the ground-first storage basis.
LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)
RAISING = np.array([[0, 0], [1, 0]], dtype=complex)


def qubit_hamiltonian(omega: float) -> HamiltonianSpec:
    """``diag(-omega/2, +omega/2)``: ground level first."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return HamiltonianSpec.from_matrix(np.diag([-omega / 2, omega / 2]).astype(complex))


def thermal_bias(omega: float, beta_f: float) -> float:
    """Asymptotic excited-level population ``(1 - tanh(beta omega / 2)) / 2``."""
    return 0.5 * (1.0 - math.tanh(beta_f * omega / 2))


# ---------------------------------------------------------------------------
# Scenario A: thermalizing but not fixed-point thermalizing


@dataclass(frozen=True)
class ExampleAParams:
    """Channel family built from schedules ``q_tau`` and ``xi_tau``.

    ``xi_0 = 0`` (the map starts at the identity), ``xi_inf = 1`` (initial
    data is forgotten) and ``q_inf`` must equal the thermal bias for
    ``beta_f``; all three are enforced at construction.
    """

    omega: float
    beta_f: float
    q_schedule: Callable[[float], float]
    xi_schedule: Callable[[float], float]

    def __post_init__(self):
        if self.omega <= 0 or self.beta_f < 0:
            raise ValueError("need omega > 0 and beta_f >= 0")
        if self.q_inf == 0.0:
            raise ValueError(f"thermal bias at beta_f omega = {self.beta_f * self.omega:g} rounds to 0")
        if abs(self.xi_schedule(0.0)) > 1e-12:
            raise ScheduleOutOfRange("xi schedule must vanish at tau = 0")
        if abs(self.xi_schedule(HORIZON_TAU) - 1.0) > 1e-10:
            raise ScheduleOutOfRange("xi schedule must reach 1 at the horizon")
        if abs(self.q_schedule(HORIZON_TAU) - self.q_inf) > 1e-10:
            raise ScheduleOutOfRange(
                f"q schedule must reach the thermal bias {self.q_inf:.12g} at the horizon"
            )

    @property
    def q_inf(self) -> float:
        return thermal_bias(self.omega, self.beta_f)

    @classmethod
    def default(cls, omega: float, beta_f: float) -> "ExampleAParams":
        """Smooth exponential saturation for both schedules."""
        q_inf = thermal_bias(omega, beta_f)
        return cls(
            omega=omega,
            beta_f=beta_f,
            q_schedule=lambda tau: q_inf * (1.0 - math.exp(-tau)),
            xi_schedule=lambda tau: 1.0 - math.exp(-tau),
        )

    @classmethod
    def fixed_point(cls, omega: float, beta_f: float) -> "ExampleAParams":
        """Constant ``q = q_inf``: the family becomes fixed-point thermalizing."""
        q_inf = thermal_bias(omega, beta_f)
        return cls(
            omega=omega,
            beta_f=beta_f,
            q_schedule=lambda tau: q_inf,
            xi_schedule=lambda tau: 1.0 - math.exp(-tau),
        )

    def hamiltonian(self) -> HamiltonianSpec:
        return qubit_hamiltonian(self.omega)


def example_a_channel(p: ExampleAParams, tau: float) -> KrausChannel:
    """Four-operator Kraus family at time ``tau``.

    Ground population evolves as ``d(tau) = (1 - xi) d(0) + (1 - q) xi``,
    the coherence scales by ``sqrt(1 - xi)``, and the level transition
    probabilities are ``p(ground -> excited) = xi q`` and
    ``p(excited -> ground) = xi (1 - q)``.
    """
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
    return KrausChannel((g1, g2, g3, g4))


def example_a_f_factor(p: ExampleAParams, tau: float) -> float:
    """Finite-time ratio correction ``F = (1 - f/q_inf) / (1 + f/(1 - q_inf))``
    with ``f = q_inf - q_tau``; tends to 1 at late times."""
    q_inf = p.q_inf
    f = q_inf - float(p.q_schedule(tau))
    return (1.0 - f / q_inf) / (1.0 + f / (1.0 - q_inf))


def example_a_ratio_oracle(p: ExampleAParams, tau: float, energy: float, beta_i: float) -> float:
    """Closed-form exchange ratio ``F(tau) e^{(beta_i - beta_f) E}`` at the qubit gap."""
    if abs(energy - p.omega) > 1e-9:
        raise ValueError(f"the closed form holds at the qubit gap {p.omega:g}, got {energy:g}")
    return example_a_f_factor(p, tau) * math.exp((beta_i - p.beta_f) * energy)


# ---------------------------------------------------------------------------
# Scenario B: damped qubit in a thermal bosonic bath


@dataclass(frozen=True)
class ExampleBParams:
    omega: float
    gamma: float
    beta_f: float

    def __post_init__(self):
        if self.omega <= 0 or self.gamma <= 0 or self.beta_f <= 0:
            raise ValueError("need omega > 0, gamma > 0 and beta_f > 0")
        try:
            math.expm1(self.beta_f * self.omega)
        except OverflowError as exc:
            raise ValueError(f"e^(beta_f omega) overflows at beta_f omega = {self.beta_f * self.omega:g}") from exc

    @property
    def n_bar(self) -> float:
        """Bosonic occupation ``1 / (e^{beta omega} - 1)``."""
        if math.isinf(self.beta_f):
            return 0.0
        return 1.0 / math.expm1(self.beta_f * self.omega)

    @property
    def gamma_bar(self) -> float:
        """Longitudinal relaxation rate ``gamma (2 n_bar + 1)``."""
        return self.gamma * (2.0 * self.n_bar + 1.0)

    def hamiltonian(self) -> HamiltonianSpec:
        return qubit_hamiltonian(self.omega)


def example_b_generator(p: ExampleBParams) -> LindbladGenerator:
    """Decay at ``gamma (n_bar + 1)`` and excitation at ``gamma n_bar``."""
    jumps = [
        math.sqrt(p.gamma * (p.n_bar + 1.0)) * LOWERING,
        math.sqrt(p.gamma * p.n_bar) * RAISING,
    ]
    return LindbladGenerator.from_jump_operators(p.hamiltonian(), jumps)


def example_b_closed_form(p: ExampleBParams, rho0: DensityMatrix, tau: float) -> DensityMatrix:
    """Analytic solution in the ground-first frame.

    ``r_z(tau) = r_z(0) e^{-gbar tau} + tanh(beta omega / 2)(1 - e^{-gbar tau})``
    and the coherence obeys ``rho_01(tau) = rho_01(0) e^{(i omega - gbar/2) tau}``.
    """
    if rho0.dim != 2:
        raise DimensionMismatch("closed form is a qubit solution")
    gbar = p.gamma_bar
    decay = math.exp(-gbar * tau)
    rz0 = float(np.real(rho0.matrix[0, 0] - rho0.matrix[1, 1]))
    rz = rz0 * decay + math.tanh(p.beta_f * p.omega / 2.0) * (1.0 - decay)
    c01 = rho0.matrix[0, 1] * np.exp((1j * p.omega - gbar / 2.0) * tau)
    m = np.array(
        [[(1.0 + rz) / 2.0, c01], [np.conj(c01), (1.0 - rz) / 2.0]], dtype=complex
    )
    return DensityMatrix(m)


def example_qdb_family(mu: float, eta: float, omega: float, beta_f: float) -> LindbladGenerator:
    """Balanced qubit semigroup family: excitation rate ``mu``, decay rate
    ``mu e^{beta omega}`` and dephasing rate ``eta``.

    Reduces to the scenario-B generator for ``eta = 0, mu = gamma n_bar``.
    """
    if mu <= 0 or eta < 0:
        raise ValueError("need mu > 0 and eta >= 0")
    jumps = [
        math.sqrt(mu * math.exp(beta_f * omega)) * LOWERING,
        math.sqrt(mu) * RAISING,
    ]
    if eta > 0:
        jumps.append(math.sqrt(eta) * SIGMA_Z)
    return LindbladGenerator.from_jump_operators(qubit_hamiltonian(omega), jumps)


# ---------------------------------------------------------------------------
# Scenario C: Bloch-coordinate generator family


@dataclass(frozen=True)
class ExampleCParams:
    """Coefficients of the 4x4 Bloch-coordinate generator.

    ``nu`` and ``alpha`` damp the transverse components, ``zeta`` the
    longitudinal one, and ``chi`` sets the longitudinal drift; the
    asymptotic Bloch vector is ``(0, 0, -chi/zeta)``.
    """

    omega: float
    nu: float
    alpha: float
    chi: float
    zeta: float

    def __post_init__(self):
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if abs(self.chi / self.zeta) > 1.0 + 1e-12:
            raise ValueError("asymptotic Bloch vector would leave the ball")

    @property
    def k_plus(self) -> complex:
        return -(self.alpha + self.nu) + 1j * np.sqrt(
            complex(self.omega**2 - (self.alpha - self.nu) ** 2)
        )

    @property
    def k_minus(self) -> complex:
        return -(self.alpha + self.nu) - 1j * np.sqrt(
            complex(self.omega**2 - (self.alpha - self.nu) ** 2)
        )

    def hamiltonian(self) -> HamiltonianSpec:
        return qubit_hamiltonian(self.omega)


def example_c_qdb_point(mu: float, eta: float, omega: float, beta_f: float) -> ExampleCParams:
    """Parameters reproducing :func:`example_qdb_family` in Bloch coordinates."""
    try:
        boltz = math.exp(beta_f * omega)
    except OverflowError as exc:
        raise ValueError(f"e^(beta_f omega) overflows at beta_f omega = {beta_f * omega:g}") from exc
    return ExampleCParams(
        omega=omega,
        nu=eta + 0.25 * mu * (1.0 + boltz),
        alpha=eta + 0.25 * mu * (1.0 + boltz),
        chi=0.5 * mu * (1.0 - boltz),
        zeta=0.5 * mu * (1.0 + boltz),
    )


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


_PAULI_STACK = np.column_stack(
    [vec(np.eye(2, dtype=complex)), vec(SIGMA_X), vec(SIGMA_Y), vec(SIGMA_Z)]
)


def bloch4_to_superop(l4: np.ndarray) -> SuperOperator:
    """Density-matrix generator from a Bloch-coordinate generator.

    With ``vec(rho) = P b / 2`` for the Pauli column stack ``P`` and
    ``db/dtau = -2 LL b``, the vectorized generator is ``-P LL P^dag``
    (``P^dag P = 2 I``).
    """
    l4 = np.asarray(l4, dtype=complex)
    if l4.shape != (4, 4):
        raise DimensionMismatch(f"Bloch generator must be 4x4, got {l4.shape}")
    return SuperOperator(-_PAULI_STACK @ l4 @ dag(_PAULI_STACK), SCHRODINGER)


def superop_to_bloch4(s: SuperOperator) -> np.ndarray:
    """Inverse of :func:`bloch4_to_superop` for qubit superoperators."""
    if s.dim != 2:
        raise DimensionMismatch("Bloch coordinates are defined for qubits only")
    return -0.25 * dag(_PAULI_STACK) @ s.matrix @ _PAULI_STACK


def example_c_generator(
    p: ExampleCParams,
    check_taus=(0.1, 1.0, 10.0),
    cptp_tol: float = 1e-9,
) -> SuperOperator:
    """Schroedinger-picture generator; the induced maps must verify as CPTP."""
    s = bloch4_to_superop(example_c_bloch_matrix(p))
    for tau in check_taus:
        report = is_cptp(evolve(s, tau))
        if not report.passes(cptp_tol):
            raise NotCPTP(
                f"induced map at tau={tau:g} fails CPTP: cp={report.cp_residual:.3e}, "
                f"tp={report.tp_residual:.3e}, herm={report.hermiticity_residual:.3e}"
            )
    return s


def example_c_solution(p: ExampleCParams, r0: BlochVector, tau: float) -> BlochVector:
    """Analytic Bloch trajectory.

    Transverse components combine ``e^{k_pm tau}`` modes with coefficients
    fixed by the initial data; the longitudinal one relaxes at ``2 zeta``
    toward ``-chi/zeta``.  The critically damped boundary
    ``omega^2 == (alpha - nu)^2`` is excluded.
    """
    kp, km = p.k_plus, p.k_minus
    den = km - kp
    if abs(den) < 1e-14:
        raise ValueError("critically damped boundary is outside the closed form")
    uxp = ((km + 2 * p.nu) * r0.rx - p.omega * r0.ry) / den
    uxm = -((kp + 2 * p.nu) * r0.rx - p.omega * r0.ry) / den
    uyp = ((km + 2 * p.alpha) * r0.ry + p.omega * r0.rx) / den
    uym = -((kp + 2 * p.alpha) * r0.ry + p.omega * r0.rx) / den
    ep, em = np.exp(kp * tau), np.exp(km * tau)
    rx = uxp * ep + uxm * em
    ry = uyp * ep + uym * em
    decay = math.exp(-2.0 * p.zeta * tau)
    rz = decay * r0.rz - (1.0 - decay) * p.chi / p.zeta
    return BlochVector(rx=float(np.real(rx)), ry=float(np.real(ry)), rz=float(rz))
