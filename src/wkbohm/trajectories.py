"""Trajectory integration, ensembles, sampling, and trajectory-level checks.

A velocity-field provider is anything with `evaluate(x, t)` (vectorized
over x) plus rectangular validity windows in x and t. Analytic
providers wrap closed forms and are valid everywhere; gridded
providers interpolate stored field snapshots (cubic in x, linear in t)
and are valid strictly inside their grid and time range.

Integration is rk4 on dx/dt = v(x, t) over the caller's time grid,
one step per interval. Leaving the validity window truncates the
trajectory and flags it; extrapolating a Bohmian field beyond where
the amplitude lives would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    dimensionless_time,
    free_packet_velocity,
    ho_velocity,
)
from .numerics import Grid1D, RealField, cubic_interpolate, rk4_step
from .potentials import Potential

SOURCES = ("analytic-free", "analytic-ho", "hierarchy", "oracle", "classical", "series")
SAMPLING_MODES = ("quantile", "uniform", "random")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered positions of one particle with provenance."""

    times: np.ndarray
    positions: np.ndarray
    x0: float
    source: str
    truncated: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)
        if t.shape != x.shape or t.ndim != 1 or t.size < 1:
            raise ValueError("times and positions must be equal-length 1D arrays")
        if not np.all(np.diff(t) > 0) and t.size > 1:
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(x)):
            raise ValueError("positions must be finite")
        if x[0] != self.x0:
            raise ValueError(f"positions[0]={x[0]!r} differs from x0={self.x0!r}")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source tag {self.source!r}; pick from {SOURCES}")


@dataclass(frozen=True)
class Ensemble:
    """Trajectories sharing one time grid (truncated members excepted)."""

    members: list[Trajectory]
    sampling: str = "quantile"

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")
        full = max(self.members, key=lambda m: m.times.size)
        for m in self.members:
            k = m.times.size
            if not np.array_equal(m.times, full.times[:k]):
                raise ValueError("ensemble members must share one time grid")

    @property
    def times(self) -> np.ndarray:
        return max(self.members, key=lambda m: m.times.size).times

    def positions_at(self, index: int) -> np.ndarray:
        """Positions of all members at one shared time index."""
        out = np.empty(len(self.members))
        for i, m in enumerate(self.members):
            if index >= m.times.size:
                raise ValueError(f"member {i} was truncated before index {index}")
            out[i] = m.positions[index]
        return out


@dataclass(frozen=True)
class FreePacketVelocityField:
    """Closed-form Bohmian field of the spreading free packet."""

    spec: GaussianPacketSpec
    x_window: tuple[float, float] = (-np.inf, np.inf)
    t_window: tuple[float, float] = (-np.inf, np.inf)
    source = "analytic-free"

    def evaluate(self, x, t):
        return free_packet_velocity(self.spec, x, t)


@dataclass(frozen=True)
class OscillatorVelocityField:
    """Closed-form Bohmian field of the coherent oscillator packet."""

    spec: OscillatorSpec
    x_window: tuple[float, float] = (-np.inf, np.inf)
    t_window: tuple[float, float] = (-np.inf, np.inf)
    source = "analytic-ho"

    def evaluate(self, x, t):
        v = ho_velocity(self.spec, t)
        return np.broadcast_to(v, np.shape(x)).copy() if np.ndim(x) else v


@dataclass(frozen=True)
class GriddedVelocityField:
    """Velocity snapshots on a grid: cubic in x, linear blend in t.

    The two bracketing snapshots are blended on the grid before one
    cubic interpolation at the query points. The x window keeps two
    nodes of margin so the cubic interpolation stencil never leans on
    boundary values; the t window is the snapshot span, with a slack
    of 1e-9 of that span for rounding in stage times.
    """

    grid: Grid1D
    times: np.ndarray
    fields: np.ndarray  # (n_times, n_points)
    source: str = "hierarchy"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.fields, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fields", f)
        if f.shape != (t.size, self.grid.n_points):
            raise ValueError("fields must be (n_times, n_points)")
        if t.size < 2 or not np.all(np.diff(t) > 0):
            raise ValueError("need at least 2 strictly increasing snapshot times")

    @property
    def x_window(self) -> tuple[float, float]:
        dx = self.grid.dx
        return (self.grid.x_min + 2 * dx, self.grid.x_max - 2 * dx)

    @property
    def t_window(self) -> tuple[float, float]:
        return (float(self.times[0]), float(self.times[-1]))

    def evaluate(self, x, t):
        t = float(t)
        times = self.times
        t_first, t_last = float(times[0]), float(times[-1])
        eps = 1e-9 * (t_last - t_first)
        if t < t_first - eps or t > t_last + eps:
            raise ValueError(f"t={t} outside stored snapshot range")
        j = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), times.size - 2)
        t0, t1 = float(times[j]), float(times[j + 1])
        w = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        # The cubic is linear in the samples: blending the two snapshots
        # on the grid first gives the same field with one interpolation.
        blended = (1.0 - w) * self.fields[j] + w * self.fields[j + 1]
        return cubic_interpolate(self.grid, blended, x)


def _inside(window: tuple[float, float], x: np.ndarray) -> np.ndarray:
    return (x >= window[0]) & (x <= window[1])


def integrate_bohmian(provider, x0: float, t_grid: np.ndarray) -> Trajectory:
    """Integrate dx/dt = v(x, t) from x0 over the caller's time grid.

    One rk4 step per grid interval. If the particle (or an rk4 stage)
    leaves the provider's x window, the trajectory is truncated at the
    last valid sample and flagged.
    """
    members = integrate_ensemble_positions(provider, np.array([x0], dtype=float), t_grid)
    positions, n_valid = members
    k = int(n_valid[0])
    return Trajectory(
        times=np.asarray(t_grid, dtype=float)[:k],
        positions=positions[0, :k],
        x0=float(x0),
        source=getattr(provider, "source", "hierarchy"),
        truncated=k < len(t_grid),
    )


def integrate_ensemble(provider, x0s, t_grid, sampling: str = "quantile") -> Ensemble:
    """Member-wise integration over a shared time grid (vectorized)."""
    x0s = np.asarray(x0s, dtype=float)
    positions, n_valid = integrate_ensemble_positions(provider, x0s, t_grid)
    t = np.asarray(t_grid, dtype=float)
    members = []
    for i in range(x0s.size):
        k = int(n_valid[i])
        members.append(
            Trajectory(
                times=t[:k],
                positions=positions[i, :k],
                x0=float(x0s[i]),
                source=getattr(provider, "source", "hierarchy"),
                truncated=k < t.size,
            )
        )
    return Ensemble(members=members, sampling=sampling)


def integrate_ensemble_positions(provider, x0s: np.ndarray, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """rk4 positions for many starters at once.

    Returns (positions[n_members, n_times], n_valid[n_members]) where
    n_valid counts the leading samples before any window exit.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or (t.size > 1 and not np.all(np.diff(t) > 0)):
        raise ValueError("t_grid must be 1D and strictly increasing")
    x = np.array(x0s, dtype=float)
    xw = getattr(provider, "x_window", (-np.inf, np.inf))
    tw = getattr(provider, "t_window", (-np.inf, np.inf))
    t_tol = 1e-9 * max(abs(t[0]), abs(t[-1]), t[-1] - t[0])
    if t[0] < tw[0] - t_tol or t[-1] > tw[1] + t_tol:
        raise ValueError("t_grid extends outside the provider's time window")
    if not np.all(_inside(xw, x)):
        raise ValueError("an initial position lies outside the provider's x window")

    n = x.size
    positions = np.full((n, t.size), np.nan)
    positions[:, 0] = x
    n_valid = np.full(n, 1, dtype=int)
    alive = np.ones(n, dtype=bool)

    def clipped_eval(xs, ts):
        # Stages may poke slightly outside; clip the probe but kill the
        # member if it strays beyond tolerance.
        return provider.evaluate(np.minimum(np.maximum(xs, xw[0]), xw[1]), ts)

    for i in range(t.size - 1):
        if not alive.any():
            break
        dt = t[i + 1] - t[i]
        xi = x[alive]
        k1 = clipped_eval(xi, t[i])
        k2 = clipped_eval(xi + 0.5 * dt * k1, t[i] + 0.5 * dt)
        k3 = clipped_eval(xi + 0.5 * dt * k2, t[i] + 0.5 * dt)
        k4 = clipped_eval(xi + dt * k3, t[i] + dt)
        stages_ok = (
            _inside(xw, xi + 0.5 * dt * k1)
            & _inside(xw, xi + 0.5 * dt * k2)
            & _inside(xw, xi + dt * k3)
        )
        x_new = xi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ok = stages_ok & _inside(xw, x_new) & np.isfinite(x_new)
        idx = np.flatnonzero(alive)
        good = idx[ok]
        positions[good, i + 1] = x_new[ok]
        n_valid[good] = i + 2
        x[good] = x_new[ok]
        alive[idx[~ok]] = False
    return positions, n_valid


def integrate_classical(
    potential: Potential,
    x0: float,
    v0: float,
    t_grid,
    mass: float = 1.0,
    source: str = "classical",
) -> Trajectory:
    """Newtonian trajectory: rk4 on (x, v) with acceleration -grad(V)/m."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or (t.size > 1 and not np.all(np.diff(t) > 0)):
        raise ValueError("t_grid must be 1D and strictly increasing")
    xs = np.empty(t.size)
    xs[0] = x0
    state = np.array([x0, v0], dtype=float)

    def rhs(s, _):
        return np.array([s[1], -float(potential.gradient(s[0])) / mass])

    for i in range(t.size - 1):
        state = rk4_step(state, rhs, t[i], t[i + 1] - t[i])
        xs[i + 1] = state[0]
    return Trajectory(times=t, positions=xs, x0=float(x0), source=source)


def density_cdf(density: RealField) -> tuple[np.ndarray, np.ndarray]:
    """Normalized cumulative distribution of a non-negative grid density."""
    rho = density.values
    if np.any(rho < 0):
        bad = int(np.flatnonzero(rho < 0)[0])
        raise ValueError(f"density must be non-negative (node {bad})")
    dx = density.grid.dx
    # Trapezoid cumulative: exact integral of the piecewise-linear density.
    inc = 0.5 * (rho[1:] + rho[:-1]) * dx
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    total = cdf[-1]
    if total <= 0:
        raise ValueError("density integrates to zero")
    return density.grid.nodes, cdf / total


def _inverse_cdf(x: np.ndarray, cdf: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.interp(q, cdf, x)


def sample_initial_positions(
    density: RealField, n: int, mode: str = "quantile", seed: int | None = None
) -> np.ndarray:
    """Starting positions distributed according to a grid density.

    quantile: the n equiprobable quantiles (i + 1/2)/n; deterministic.
    uniform:  n evenly spaced positions between the extreme quantiles.
    random:   inverse-CDF draws from a seeded generator; reproducible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}; pick from {SAMPLING_MODES}")
    x, cdf = density_cdf(density)
    if mode == "quantile":
        q = (np.arange(n) + 0.5) / n
        return _inverse_cdf(x, cdf, q)
    if mode == "uniform":
        lo, hi = _inverse_cdf(x, cdf, np.array([0.5 / n, 1.0 - 0.5 / n]))
        return np.linspace(lo, hi, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    return _inverse_cdf(x, cdf, rng.uniform(0.0, 1.0, size=n))


@dataclass(frozen=True)
class CrossingReport:
    """Result of the ordering check; ok means no pair ever swapped."""

    ok: bool
    pair: tuple[int, int] | None = None
    time: float | None = None


def check_no_crossing(ensemble: Ensemble) -> CrossingReport:
    """Verify initial ordering is preserved at every stored time.

    Members are compared in initial-position order; the first strict
    inversion is reported with its pair indices and time.
    """
    order = np.argsort([m.x0 for m in ensemble.members], kind="stable")
    members = [ensemble.members[i] for i in order]
    n_times = min(m.times.size for m in members)
    times = members[0].times[:n_times]
    pos = np.stack([m.positions[:n_times] for m in members])
    for ti in range(n_times):
        col = pos[:, ti]
        bad = np.flatnonzero(np.diff(col) <= 0)
        if bad.size:
            i = int(bad[0])
            return CrossingReport(
                ok=False,
                pair=(int(order[i]), int(order[i + 1])),
                time=float(times[ti]),
            )
    return CrossingReport(ok=True)


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares line through a late-time trajectory window."""

    velocity: float
    intercept: float
    residual: float
    n_samples: int


def fit_asymptotic_velocity(
    trajectory: Trajectory,
    t_window: tuple[float, float],
    packet: GaussianPacketSpec | None = None,
    min_u: float = 10.0,
) -> AsymptoticFit:
    """Fit x = v t + b over [t0, t1]; the slope is the asymptotic velocity.

    Needs at least 10 samples in the window. When a packet spec is
    given, the window start must lie in the late-time regime
    (dimensionless time >= min_u).
    """
    t0, t1 = t_window
    if packet is not None and dimensionless_time(packet, t0) < min_u:
        raise ValueError(
            f"window start u={float(dimensionless_time(packet, t0)):.3g} is below "
            f"the late-time threshold {min_u}"
        )
    sel = (trajectory.times >= t0) & (trajectory.times <= t1)
    if int(sel.sum()) < 10:
        raise ValueError(f"window holds {int(sel.sum())} samples; need at least 10")
    t = trajectory.times[sel]
    x = trajectory.positions[sel]
    # Centered covariance form: scale-invariant, unlike a raw [t, 1]
    # design matrix whose conditioning collapses in physical units.
    t_mean, x_mean = t.mean(), x.mean()
    dt_c = t - t_mean
    slope = float(np.dot(dt_c, x - x_mean) / np.dot(dt_c, dt_c))
    intercept = float(x_mean - slope * t_mean)
    rms = float(np.sqrt(np.mean((x - slope * t - intercept) ** 2)))
    return AsymptoticFit(
        velocity=slope, intercept=intercept, residual=rms, n_samples=int(t.size)
    )


def ks_distance(samples: np.ndarray, density: RealField) -> float:
    """Kolmogorov-Smirnov distance of samples against a grid density."""
    x, cdf = density_cdf(density)
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < 1:
        raise ValueError("need at least one sample")
    f = np.interp(s, x, cdf, left=0.0, right=1.0)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def equivariance_check(ensemble: Ensemble, density_t: RealField) -> float:
    """KS distance between final member positions and a target density.

    The target should be the state's probability density at the
    ensemble's final shared time; transport along the velocity field
    should keep the two distributions equal.
    """
    finals = np.array([m.positions[-1] for m in ensemble.members])
    if any(m.truncated for m in ensemble.members):
        raise ValueError("equivariance needs all members to reach the final time")
    return ks_distance(finals, density_t)
