"""Closed-form benchmark models: spreading free Gaussian packet and
coherent packet in a harmonic well.

All formulas are exact solutions, used both as physics in their own
right and as oracles for the field-propagation and grid-solver
modules. Natural units (hbar = m = sigma0 = 1) are the default
throughout the package but nothing here assumes them.

Each packet's psi is |psi| exp(i S / hbar), and its S solves the
quantum Hamilton-Jacobi equation.
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
                             "an energy p0^2/(2 mass) that is not finite")

    @property
    def v0(self) -> float:
        return self.p0 / self.params.mass

    @property
    def energy(self) -> float:
        """Kinetic energy p0^2/(2m) of the packet's centre; space-independent
        in the action, so it moves no velocity or trajectory."""
        return self.p0**2 / (2.0 * self.params.mass)


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
        # The field -omega a sin(omega t) moves every trajectory at up to omega a.
        if not np.isfinite(self.omega * self.a):
            raise ValueError(f"omega={self.omega} and a={self.a} give a speed scale omega a "
                             "that is not finite")

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
    u = hbar t / (2 m sigma0^2).
    """

    sigma_t: float
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
    return SpreadingFactors(sigma_t=spec.sigma0 * float(np.sqrt(1.0 + u * u)), u=u)


def free_packet_wavefunction(spec: GaussianPacketSpec, x, t: float):
    """Complex amplitude |psi| exp(i S / hbar) of the spreading packet."""
    return free_packet_modulus(spec, x, t) * np.exp(1j * free_packet_action(spec, x, t) / spec.params.hbar)


def free_packet_action(spec: GaussianPacketSpec, x, t: float):
    """Real (Bohmian) action of the spreading packet, E = p0^2/(2m).

    -(hbar/2) arctan(u) + E t + p0 (x - v0 t)
    + [hbar^2 t / (8 m sigma0^2 sigma_t^2)] (x - v0 t)^2.
    """
    s = spreading(spec, t)
    p = spec.params
    xr = np.asarray(x, dtype=float) - spec.v0 * t
    quad = p.hbar**2 * t / (8.0 * p.mass * spec.sigma0**2 * s.sigma_t**2)
    return -(p.hbar / 2.0) * np.arctan(s.u) + spec.energy * t + spec.p0 * xr + quad * xr**2


def free_packet_modulus(spec: GaussianPacketSpec, x, t: float):
    """|psi| of the spreading packet: a width-sigma_t Gaussian profile."""
    s = spreading(spec, t)
    xr = np.asarray(x, dtype=float) - spec.v0 * t
    return (2.0 * np.pi * s.sigma_t**2) ** (-0.25) * np.exp(-(xr**2) / (4.0 * s.sigma_t**2))


def free_packet_velocity(spec: GaussianPacketSpec, x, t: float):
    """Bohmian velocity field grad(S)/m of the free packet.

    v = v0 + rate u / (1 + u^2) (x - v0 t), with rate = hbar / (2 m
    sigma0^2) and u = rate t: no factor underflows where sigma0^2
    sigma_t^2 would. It is evaluated at every rk4 stage, so it does
    without the `spreading` record.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    p = spec.params
    rate = p.hbar / (2.0 * p.mass * spec.sigma0**2)
    u = rate * float(t)
    v0 = spec.v0
    xr = np.asarray(x, dtype=float) - v0 * t
    return v0 + (rate * u / (1.0 + u * u)) * xr


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


def ho_wavefunction(spec: OscillatorSpec, x, t: float):
    """Coherent packet |psi| exp(i S / hbar): a rigid Gaussian whose center rides a*cos(omega t)."""
    return ho_modulus(spec, x, t) * np.exp(1j * ho_action(spec, x, t) / spec.params.hbar)


def ho_modulus(spec: OscillatorSpec, x, t: float):
    """|psi| of the coherent packet: a width-sigma0 Gaussian profile."""
    s0 = spec.sigma0
    xr = np.asarray(x, dtype=float) - spec.a * np.cos(spec.omega * t)
    return (2.0 * np.pi * s0**2) ** (-0.25) * np.exp(-(xr**2) / (4.0 * s0**2))


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
    no 0-d array: the field is evaluated at every rk4 stage. An array of
    times gives the array of velocities; the integrator's one-pass route
    calls it so, and its tests check that each equals the scalar call's
    bits at that time.
    """
    return -spec.omega * spec.a * np.sin(spec.omega * np.float64(t))


def ho_trajectory(spec: OscillatorSpec, x0: float, t):
    """x(t) = (x0 - a) + a cos(omega t): all trajectories stay parallel."""
    return (x0 - spec.a) + spec.a * np.cos(spec.omega * np.asarray(t, dtype=float))
