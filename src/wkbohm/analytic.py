"""Closed-form benchmark models: spreading free Gaussian packet and
coherent packet in a harmonic well.

All formulas are exact solutions, used both as physics in their own
right and as oracles for the field-propagation and grid-solver
modules. Natural units (hbar = m = sigma0 = 1) are the default
throughout the package but nothing here assumes them.

Conventions worth knowing:

* The free packet's energy parameter is stored as p0^2/m and enters
  the action only through the space-independent term E*t, so it never
  affects gradients, velocities, or trajectories. Phase-level
  cross-checks are therefore made modulo space-independent offsets.
* The complex fourth root in the packet prefactor uses the principal
  branch; 1 + i*u never crosses the negative real axis, so no branch
  tracking is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysParams:
    """Action scale and particle mass; the classical-limit knob."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Free Gaussian packet: initial width sigma0 and momentum p0."""

    params: PhysParams
    sigma0: float = 1.0
    p0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not np.isfinite(self.p0):
            raise ValueError("p0 must be finite")
        # Every closed form of the packet moves with v0 and phases with E.
        try:
            finite = np.isfinite(self.v0) and np.isfinite(self.energy)
        except OverflowError:  # p0**2 of a Python float
            finite = False
        if not finite:
            raise ValueError(f"p0={self.p0} and mass={self.params.mass} give a velocity p0/mass or "
                             "an energy p0^2/mass that is not finite")

    @property
    def v0(self) -> float:
        return self.p0 / self.params.mass

    @property
    def energy(self) -> float:
        # Literal model convention (p0^2/m); space-independent in the
        # action, so it has no dynamical consequence.
        return self.p0**2 / self.params.mass


@dataclass(frozen=True)
class OscillatorSpec:
    """Coherent packet in a harmonic well, initially centered at x = a.

    The width is not free: sigma0^2 = hbar / (2 m omega).
    """

    params: PhysParams
    omega: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not np.isfinite(self.a):
            raise ValueError("a must be finite")

    @property
    def sigma0(self) -> float:
        return float(np.sqrt(self.params.hbar / (2.0 * self.params.mass * self.omega)))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega


@dataclass(frozen=True)
class SpreadingFactors:
    """Width evolution of the free packet at one instant.

    sigma_t = sigma0 * sqrt(1 + u^2) with the dimensionless time
    u = hbar t / (2 m sigma0^2); the complex spreading is
    sigma0 * (1 + i u), whose modulus equals sigma_t.
    """

    sigma_t: float
    sigma_tilde_t: complex
    u: float


def dimensionless_time(spec: GaussianPacketSpec, t) -> float:
    """u = hbar t / (2 m sigma0^2)."""
    p = spec.params
    return p.hbar * np.asarray(t, dtype=float) / (2.0 * p.mass * spec.sigma0**2)


def time_for_u(spec: GaussianPacketSpec, u: float) -> float:
    """Physical time at which the packet reaches dimensionless time u."""
    p = spec.params
    return 2.0 * p.mass * spec.sigma0**2 * u / p.hbar


def spreading(spec: GaussianPacketSpec, t: float) -> SpreadingFactors:
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    u = float(dimensionless_time(spec, t))
    return SpreadingFactors(
        sigma_t=spec.sigma0 * float(np.sqrt(1.0 + u * u)),
        sigma_tilde_t=spec.sigma0 * (1.0 + 1j * u),
        u=u,
    )


def free_packet_wavefunction(spec: GaussianPacketSpec, x, t: float):
    """Complex amplitude of the spreading packet.

    (2 pi sigma_tilde^2)^(-1/4) exp[-(x-v0 t)^2 / (4 sigma_tilde sigma0)
    + i p0 (x - v0 t)/hbar + i E t/hbar], principal-branch root.
    """
    s = spreading(spec, t)
    p = spec.params
    xr = np.asarray(x, dtype=float) - spec.v0 * t
    pref = (2.0 * np.pi * s.sigma_tilde_t**2) ** (-0.25)
    expo = (
        -(xr**2) / (4.0 * s.sigma_tilde_t * spec.sigma0)
        + 1j * spec.p0 * xr / p.hbar
        + 1j * spec.energy * t / p.hbar
    )
    return pref * np.exp(expo)


def free_packet_action(spec: GaussianPacketSpec, x, t: float):
    """Real (Bohmian) action of the spreading packet.

    -(hbar/2) arctan(u) + E t + p0 x
    + [hbar^2 t / (8 m sigma0^2 sigma_t^2)] (x - v0 t)^2.
    """
    s = spreading(spec, t)
    p = spec.params
    xr = np.asarray(x, dtype=float) - spec.v0 * t
    quad = p.hbar**2 * t / (8.0 * p.mass * spec.sigma0**2 * s.sigma_t**2)
    return (
        -(p.hbar / 2.0) * np.arctan(s.u)
        + spec.energy * t
        + spec.p0 * np.asarray(x, dtype=float)
        + quad * xr**2
    )


def free_packet_modulus(spec: GaussianPacketSpec, x, t: float):
    """|psi| of the spreading packet: a width-sigma_t Gaussian profile."""
    s = spreading(spec, t)
    xr = np.asarray(x, dtype=float) - spec.v0 * t
    return (2.0 * np.pi * s.sigma_t**2) ** (-0.25) * np.exp(-(xr**2) / (4.0 * s.sigma_t**2))


def free_packet_velocity(spec: GaussianPacketSpec, x, t: float):
    """Bohmian velocity field grad(S)/m of the free packet.

    The width sigma_t is formed as in `spreading`, without the record
    and its complex width: the field is evaluated at every rk4 stage.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    p = spec.params
    u = p.hbar * float(t) / (2.0 * p.mass * spec.sigma0**2)
    sigma_t = spec.sigma0 * math.sqrt(1.0 + u * u)
    v0 = spec.v0
    xr = np.asarray(x, dtype=float) - v0 * t
    return v0 + p.hbar**2 * t / (4.0 * p.mass**2 * spec.sigma0**2 * sigma_t**2) * xr


def free_packet_trajectory(spec: GaussianPacketSpec, x0: float, t):
    """Exact quantum trajectory x(t) = v0 t + (sigma_t/sigma0) x0."""
    u = dimensionless_time(spec, t)
    return spec.v0 * np.asarray(t, dtype=float) + np.sqrt(1.0 + u * u) * x0


@dataclass(frozen=True)
class TrajectorySeriesResult:
    """Partial sum of the trajectory power series plus its validity flag.

    The series converges only for |u| < 1; `within_radius` is False
    when the requested time lies at or beyond the breakdown point.
    """

    position: float
    u: float
    order: int
    within_radius: bool


def free_packet_trajectory_series(
    spec: GaussianPacketSpec, x0: float, t: float, order: int
) -> TrajectorySeriesResult:
    """Trajectory as x0 + v0 t plus even powers of u.

    The n-th correction is (-1)^(n-1) (2n-3)!!/(2^n n!) u^(2n) x0,
    i.e. the Taylor series of sqrt(1+u^2) x0. Truncation at order 0
    is exactly the classical straight line.
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    u = float(dimensionless_time(spec, t))
    pos = x0 + spec.v0 * t
    for n in range(1, order + 1):
        pos += trajectory_series_coefficient(n) * u ** (2 * n) * x0
    return TrajectorySeriesResult(position=pos, u=u, order=order, within_radius=abs(u) < 1.0)


def trajectory_series_coefficient(n: int) -> float:
    """Magnitude-and-sign coefficient of u^(2n) x0 in the trajectory series."""
    if n < 1:
        raise ValueError("coefficient index starts at 1")
    fact = 1.0
    for k in range(2, n + 1):
        fact *= k
    return (-1.0) ** (n - 1) * math.prod(range(2 * n - 3, 0, -2)) / (2.0**n * fact)


def free_packet_asymptotic_velocity(spec: GaussianPacketSpec, x0: float) -> float:
    """Late-time constant velocity v0 + hbar x0 / (2 m sigma0^2).

    The x0-dependent residual is the nonlocal imprint of the packet's
    spreading on each trajectory.
    """
    p = spec.params
    return spec.v0 + p.hbar * x0 / (2.0 * p.mass * spec.sigma0**2)


def _ho_gaussian(spec: OscillatorSpec, x, t: float):
    """Prefactor and real exponent of the coherent packet's rigid Gaussian."""
    s0 = spec.sigma0
    xr = np.asarray(x, dtype=float)
    return (2.0 * np.pi * s0**2) ** (-0.25), -((xr - spec.a * np.cos(spec.omega * t)) ** 2) / (4.0 * s0**2)


def ho_wavefunction(spec: OscillatorSpec, x, t: float):
    """Coherent packet: rigid Gaussian whose center rides a*cos(omega t)."""
    p = spec.params
    w, a = spec.omega, spec.a
    xr = np.asarray(x, dtype=float)
    pref, gauss = _ho_gaussian(spec, x, t)
    expo = (
        gauss
        - 1j * w * t / 2.0
        - 1j * p.mass * w * (4.0 * xr * a * np.sin(w * t) - a**2 * np.sin(2.0 * w * t)) / (4.0 * p.hbar)
    )
    return pref * np.exp(expo)


def ho_modulus(spec: OscillatorSpec, x, t: float):
    """|psi| of the coherent packet: a width-sigma0 Gaussian profile."""
    pref, gauss = _ho_gaussian(spec, x, t)
    return pref * np.exp(gauss)


def ho_action(spec: OscillatorSpec, x, t: float):
    """-(1/2) hbar omega t - (m omega/4)(4 x a sin(omega t) - a^2 sin(2 omega t))."""
    p = spec.params
    w, a = spec.omega, spec.a
    xr = np.asarray(x, dtype=float)
    return -0.5 * p.hbar * w * t - (p.mass * w / 4.0) * (
        4.0 * xr * a * np.sin(w * t) - a**2 * np.sin(2.0 * w * t)
    )


def ho_velocity(spec: OscillatorSpec, t):
    """grad(S)/m = -omega a sin(omega t); independent of x.

    `np.float64(t)` gives a scalar t the dtype `np.asarray` would, with
    no 0-d array: the field is evaluated at every rk4 stage.
    """
    return -spec.omega * spec.a * np.sin(spec.omega * np.float64(t))


def ho_trajectory(spec: OscillatorSpec, x0: float, t):
    """x(t) = (x0 - a) + a cos(omega t): all trajectories stay parallel."""
    return (x0 - spec.a) + spec.a * np.cos(spec.omega * np.asarray(t, dtype=float))
