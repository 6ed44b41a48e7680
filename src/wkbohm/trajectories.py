"""Trajectory integration, ensembles, sampling, and trajectory-level checks.

A velocity-field provider must define `evaluate(x, t)` (vectorized
over x), the validity windows `x_window` and `t_window` as (lo, hi)
pairs, and `source`, its trajectories' tag in `SOURCES`. Analytic
providers wrap closed forms and are valid everywhere; gridded providers
interpolate stored field snapshots (cubic in x, and cubic in t through
the four snapshots around the query time) inside their grid and time
range. The time rule: t lies in a t window when lo <= t <= hi up to
1e-9 of the span hi - lo, wherever t = 0 sits. The integrator checks
its first and last stage times by it before the first step, the
gridded provider each query. A provider may also define a private
`_evaluate_unchecked(x, t)` that skips its own check of x: the
integrator, which passes only float arrays inside `x_window`, calls it
in place of `evaluate`; a provider with only the four attributes above
integrates through `evaluate`. The gridded provider has one, which
skips its grid check. A provider whose field does not
depend on x may define a private `_speeds(t)` that returns the field's
value at each time of a float array; with the x window (-inf, inf) the
integrator then moves the whole ensemble in one pass over the time
grid. The oscillator provider has one.

Integration is rk4 on dx/dt = v(x, t) over the caller's time grid, one
step per interval. Leaving the x window truncates the trajectory and
flags it; extrapolating a Bohmian field beyond where the amplitude
lives would be meaningless.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    dimensionless_time,
    free_packet_velocity,
    ho_velocity,
)
from .numerics import Grid1D, RealField, cubic_cell_evaluate, cubic_cell_table, cubic_rows_evaluate

SOURCES = ("analytic-free", "analytic-ho", "hierarchy", "oracle", "classical", "series")
SAMPLING_MODES = ("quantile", "random")
LATE_TIME_U = 10.0  # earliest dimensionless time of an asymptotic-velocity fit


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
        if not (t[1:] > t[:-1]).all():
            raise ValueError("times must be strictly increasing")
        if not np.isfinite(x).all():
            raise ValueError("positions must be finite")
        if x[0] != self.x0:
            raise ValueError(f"positions[0]={x[0]!r} differs from x0={self.x0!r}")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source tag {self.source!r}; pick from {SOURCES}")


@dataclass(frozen=True)
class Ensemble:
    """Trajectories sharing one time grid (truncated members excepted).

    Each member's times must equal the leading samples of the longest
    member's; a member holding that array itself, as each member that
    `integrate_ensemble` runs to the end does, is not compared.
    """

    members: list[Trajectory]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("an ensemble needs at least 2 members")
        full = max(self.members, key=lambda m: m.times.size).times
        for m in self.members:
            if m.times is not full and not np.array_equal(m.times, full[: m.times.size]):
                raise ValueError("ensemble members must share one time grid")


@dataclass(frozen=True)
class FreePacketVelocityField:
    """Closed-form Bohmian field of the spreading free packet."""

    spec: GaussianPacketSpec
    x_window = t_window = (-np.inf, np.inf)
    source = "analytic-free"

    def evaluate(self, x, t):
        return free_packet_velocity(self.spec, x, t)


@dataclass(frozen=True)
class OscillatorVelocityField:
    """Closed-form Bohmian field of the coherent oscillator packet."""

    spec: OscillatorSpec
    x_window = t_window = (-np.inf, np.inf)
    source = "analytic-ho"

    def evaluate(self, x, t):
        v = ho_velocity(self.spec, t)
        return np.full(np.shape(x), v) if np.ndim(x) else v

    def _speeds(self, t: np.ndarray) -> np.ndarray:
        """The field's value, the same at every x, at each of an array of times."""
        return ho_velocity(self.spec, t)


@dataclass(frozen=True)
class GriddedVelocityField:
    """Velocity snapshots on a grid: cubic in x, cubic Lagrange blend in t.

    A query time t is served by the Lagrange polynomial in t through m =
    min(4, S) of the S snapshots: those around the interval whose left
    end is the last snapshot time <= t, shifted inward at the ends as
    `cubic_cell_table` does in x. The interval is found by bisecting the
    snapshot times. Each snapshot's cubic in x is stored per cell
    (`cubic_cell_table`) the first time a window holds it, in slot i % m
    of an (m, n, 4) ring, so a window that moves by one interval builds
    one table and memory stays O(n). The weights are products of ratios
    (t - t_r)/(t_q - t_r) of the window's times, at t clamped into the
    snapshot span, so at a snapshot time they are exactly 1 and 0 and
    the field is that snapshot's cubic bit for bit. The ring is blended
    by one matvec once per distinct query time, into one buffer, so only
    the latest blend is kept: an rk4 step queries t, t + dt/2 twice and
    t + dt, and the next step starts at that same t + dt, so no query
    asks for an older blend. The cubic is linear in the samples, so
    blending tables gives the same field as blending the snapshots. The
    tables stay lazy although one `cubic_cell_table` call over the whole
    stack gives the same bits: on the benchmark's oracle workload (101
    snapshots x 2001 nodes, 6.5 MB of tables) that raised
    `peak_rss_mib` from 68.7-69.2 to 79.2-79.4 MiB. Snapshots are read
    lazily, so the array passed as `fields` must not change afterwards;
    the provider's own view of it is read-only, and its values must be
    finite, since a weight of 0 spreads a NaN. The x window keeps two
    nodes of margin so the cubic stencil never leans on boundary values;
    the t window is the snapshot span.
    """

    grid: Grid1D
    times: np.ndarray
    fields: np.ndarray  # (n_times, n_points)
    source: str = "hierarchy"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.fields, dtype=float).view()
        f.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fields", f)
        if f.shape != (t.size, self.grid.n_points):
            raise ValueError("fields must be (n_times, n_points)")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"snapshot times must be finite, got {t[~np.isfinite(t)][0]}")
        if not np.isfinite(f).all():
            i, k = divmod(int(np.argmin(np.isfinite(f))), f.shape[1])
            raise ValueError(f"snapshot values must be finite, got {f[i, k]} "
                             f"at snapshot {i} (t={t[i]}), node {k} (x={self.grid.nodes[k]})")
        if t.size < 2 or not np.all(np.diff(t) > 0):
            raise ValueError("need at least 2 strictly increasing snapshot times")
        m, n = min(4, t.size), self.grid.n_points
        # (x_min, dx), bound once for the unchecked evaluation.
        object.__setattr__(self, "_axis", (self.grid.x_min, self.grid.dx))
        object.__setattr__(self, "_time_list", t.tolist())
        object.__setattr__(self, "_ring", np.empty((m, n, 4)))  # slot i % m: snapshot i's cell table
        # (first snapshot of the window in the ring, its (t_r, t_q - t_r) pairs per slot)
        object.__setattr__(self, "_window", (-m, None))
        object.__setattr__(self, "_blend", (np.nan, np.empty((n, 4))))  # (query time, blended cell table)

    @property
    def x_window(self) -> tuple[float, float]:
        dx = self.grid.dx
        return (self.grid.x_min + 2 * dx, self.grid.x_max - 2 * dx)

    @property
    def t_window(self) -> tuple[float, float]:
        times = self._time_list
        return (times[0], times[-1])

    def evaluate(self, x, t):
        return cubic_cell_evaluate(self.grid, self._cells_at(float(t)), x)

    def _evaluate_unchecked(self, x: np.ndarray, t):
        """`evaluate` without the grid check, for float points inside the grid."""
        return cubic_rows_evaluate(*self._axis, self._cells_at(float(t)), x)

    def _cells_at(self, t: float) -> np.ndarray:
        t_blend, table = self._blend
        if t == t_blend:
            return table
        times = self._time_list
        lo, hi = times[0], times[-1]
        if not _covers((lo, hi), t):
            raise ValueError(f"t={t} outside stored snapshot range [{lo}, {hi}]")
        ring = self._ring
        m = ring.shape[0]
        # The window starts one snapshot before the interval whose left
        # end is the last time <= t; the end windows are one-sided and
        # also take the slack past the span.
        start = min(max(bisect_right(times, t) - 2, 0), len(times) - m)
        held, pairs = self._window
        if start != held:
            for i in range(start, start + m):
                if not held <= i < held + m:
                    ring[i % m] = cubic_cell_table(self.fields[i])
            window = times[start:start + m]
            k = m - start % m  # slot 0 holds window[k % m]
            pairs = [[(t_r, t_q - t_r) for t_r in window if t_r != t_q] for t_q in window[k:] + window[:k]]
            object.__setattr__(self, "_window", (start, pairs))
        s = min(max(t, lo), hi)
        weights = []
        for ratios in pairs:
            w = 1.0
            for t_r, d in ratios:
                w *= (s - t_r) / d
            weights.append(w)
        np.dot(np.array(weights), ring.reshape(m, -1), out=table.reshape(-1))
        object.__setattr__(self, "_blend", (t, table))
        return table


def _covers(window: tuple[float, float], t: float) -> bool:
    """Whether t lies in a time window, up to 1e-9 of its span; NaN never does."""
    lo, hi = window
    slack = 1e-9 * (hi - lo)
    return lo - slack <= t <= hi + slack


def _inside(window: tuple[float, float], x: np.ndarray) -> np.ndarray:
    return (x >= window[0]) & (x <= window[1])


def integrate_bohmian(provider, x0: float, t_grid: np.ndarray) -> Trajectory:
    """Integrate dx/dt = v(x, t) from x0 over the caller's time grid.

    One rk4 step per grid interval. If the particle (or an rk4 stage)
    leaves the provider's x window, the trajectory is truncated at the
    last valid sample and flagged.
    """
    return _integrate_members(provider, [x0], t_grid)[0]


def integrate_ensemble(provider, x0s, t_grid) -> Ensemble:
    """Member-wise integration over a shared time grid (vectorized)."""
    return Ensemble(members=_integrate_members(provider, x0s, t_grid))


def _integrate_members(provider, x0s, t_grid) -> list[Trajectory]:
    x0s = np.asarray(x0s, dtype=float)
    positions, n_valid = integrate_ensemble_positions(provider, x0s, t_grid)
    t = np.asarray(t_grid, dtype=float)
    return [
        Trajectory(times=t if k == t.size else t[:k], positions=positions[i, :k], x0=float(x0s[i]),
                   source=provider.source, truncated=k < t.size)
        for i, k in enumerate(n_valid.tolist())
    ]


def integrate_ensemble_positions(provider, x0s: np.ndarray, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """rk4 positions for many starters at once.

    Returns (positions[n_members, n_times], n_valid[n_members]) where
    n_valid counts the leading samples before any window exit. A member
    dies on the step where one of its stage probes or its new position
    leaves the x window, or its new position is not finite. The new
    positions, and on a bounded window the stage probes, are checked as
    a whole by their min and max; only a step that fails a check sorts
    members one by one. On the window (-inf, inf) probes go to the
    provider unchecked: only a NaN probe lies outside, and it makes its
    member's new position non-finite, which fails the check all the same.
    Every point the provider is passed lies inside its x window, so a
    provider's `_evaluate_unchecked`, where it has one, is called instead
    of `evaluate`.

    A provider with `_speeds` and the window (-inf, inf) has a field
    uniform in x, so every member takes the same increment on a step.
    The increments of all steps come from `_speeds` on the arrays of
    stage times, and the positions from one running sum along time,
    seeded with x0s: each is the loop's `x + increment`, the same
    expressions in the same order, so the bits are the loop's.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or (t.size > 1 and not np.all(np.diff(t) > 0)):
        raise ValueError("t_grid must be 1D and strictly increasing")
    x = np.array(x0s, dtype=float)
    xw, tw = provider.x_window, provider.t_window
    times = t.tolist()
    # rk4 queries t_0 first and t_{n-2} + dt last; check both as the loop forms them.
    last = times[-2] + (times[-1] - times[-2]) if t.size > 1 else times[0]
    if not (_covers(tw, times[0]) and _covers(tw, last)):
        raise ValueError(f"t_grid extends outside the provider's time window: "
                         f"grid [{times[0]}, {times[-1]}], window [{tw[0]}, {tw[1]}]")
    outside = np.flatnonzero(~_inside(xw, x))
    if outside.size:
        i = outside[0]
        raise ValueError(f"an initial position lies outside the provider's x window: "
                         f"member {i} at x={x[i]}, window [{xw[0]}, {xw[1]}]")

    n = x.size
    n_valid = np.full(n, t.size, dtype=int)
    lo, hi = xw
    inf = np.inf
    speeds = getattr(provider, "_speeds", None)
    if speeds is not None and lo == -inf and hi == inf:
        positions = np.empty((n, t.size))
        positions[:, 0] = x
        t_i = t[:-1]
        dt = t[1:] - t_i
        k1, k4 = speeds(t_i), speeds(t_i + dt)
        k2 = k3 = speeds(t_i + 0.5 * dt)
        positions[:, 1:] = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.add.accumulate(positions, axis=1, out=positions)
        # A position once non-finite stays so, and on this window only
        # that kills a member: the dead are those whose last position is
        # not finite, each at its first non-finite new position.
        if t.size > 1:
            for i in np.flatnonzero(~np.isfinite(positions[:, -1])).tolist():
                k = 1 + int(np.argmin(np.isfinite(positions[i, 1:])))
                positions[i, k:] = np.nan
                n_valid[i] = k
        return positions, n_valid

    positions = np.full((n, t.size), np.nan)
    positions[:, 0] = x
    rows = np.arange(n)  # members still alive, in order; x holds their positions
    everyone = True  # whether rows is still every member
    evaluate = getattr(provider, "_evaluate_unchecked", provider.evaluate)
    minimum, maximum = np.minimum.reduce, np.maximum.reduce

    # (velocity, whether every probe lies in the window).
    if lo == -inf and hi == inf:  # a NaN bound counts as bounded

        def velocity(probe, ts):
            return evaluate(probe, ts), True

    else:

        def velocity(probe, ts):
            # A probe outside is clamped into the window (NaN to the lower
            # edge) so the provider sees only valid points; its member
            # dies this step.
            if lo <= minimum(probe) and maximum(probe) <= hi:
                return evaluate(probe, ts), True
            return evaluate(np.fmin(np.fmax(probe, lo), hi), ts), False

    for i in range(t.size - 1):
        if not rows.size:
            break
        t_i = times[i]
        dt = times[i + 1] - t_i
        k1 = evaluate(x, t_i)
        p2 = x + 0.5 * dt * k1
        k2, in2 = velocity(p2, t_i + 0.5 * dt)
        p3 = x + 0.5 * dt * k2
        k3, in3 = velocity(p3, t_i + 0.5 * dt)
        p4 = x + dt * k3
        k4, in4 = velocity(p4, t_i + dt)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_lo, x_hi = minimum(x_new), maximum(x_new)
        if in2 and in3 and in4 and lo <= x_lo and x_hi <= hi and -inf < x_lo and x_hi < inf:
            if everyone:
                positions[:, i + 1] = x_new
            else:
                positions[rows, i + 1] = x_new
            x = x_new
            continue
        ok = _inside(xw, p2) & _inside(xw, p3) & _inside(xw, p4) & _inside(xw, x_new) & np.isfinite(x_new)
        positions[rows[ok], i + 1] = x_new[ok]
        n_valid[rows[~ok]] = i + 1
        rows, x = rows[ok], x_new[ok]
        everyone = rows.size == n
    return positions, n_valid


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


def sample_initial_positions(
    density: RealField, n: int, mode: str = "quantile", seed: int | None = None
) -> np.ndarray:
    """Starting positions distributed according to a grid density.

    quantile: the n equiprobable quantiles (i + 1/2)/n; deterministic.
    random:   inverse-CDF draws from a seeded generator; reproducible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}; pick from {SAMPLING_MODES}")
    x, cdf = density_cdf(density)
    if mode == "quantile":
        q = (np.arange(n) + 0.5) / n
    else:
        q = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 1.0, size=n)
    return np.interp(q, cdf, x)


@dataclass(frozen=True)
class CrossingReport:
    """Result of the ordering check; ok means no pair ever swapped."""

    ok: bool
    pair: tuple[int, int] | None = None
    time: float | None = None


def check_no_crossing(ensemble: Ensemble) -> CrossingReport:
    """Verify that initial order holds strictly at every time all members store.

    Neighbours in initial-position order must stay strictly increasing, so
    a tie counts as a crossing. The earliest time with a tie or inversion
    is reported, with the first such pair (member indices) at that time.
    """
    order = np.argsort([m.x0 for m in ensemble.members], kind="stable")
    members = [ensemble.members[i] for i in order]
    n_times = min(m.times.size for m in members)
    times = members[0].times[:n_times]
    pos = np.stack([m.positions[:n_times] for m in members])
    # Shifted views, not np.diff: no float temporary of the whole stack.
    inverted = pos[1:] <= pos[:-1]  # (pair, time)
    at_time = inverted.any(axis=0)
    if not at_time.any():
        return CrossingReport(ok=True)
    ti = int(np.argmax(at_time))
    i = int(np.argmax(inverted[:, ti]))
    return CrossingReport(ok=False, pair=(int(order[i]), int(order[i + 1])), time=float(times[ti]))


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
    packet: GaussianPacketSpec,
) -> AsymptoticFit:
    """Fit x = v t + b over [t0, t1]; the slope is the asymptotic velocity.

    Needs at least 10 samples in the window, and the window start must
    lie in the packet's late-time regime, u >= `LATE_TIME_U`, where the
    width grows linearly to within 0.5%.
    """
    t0, t1 = t_window
    if dimensionless_time(packet, t0) < LATE_TIME_U:
        raise ValueError(
            f"window start u={float(dimensionless_time(packet, t0)):.3g} is below "
            f"the late-time threshold {LATE_TIME_U}"
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
