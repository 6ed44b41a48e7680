"""Plain reference versions of vectorised library code, for the tests.

Each function is the straightforward form the library code replaced;
the tests require the library to agree with it, bit for bit where the
arithmetic is unchanged.
"""

from pathlib import Path

import numpy as np

from wkbohm.errors import WkbohmError
from wkbohm.numerics import _CELL_WEIGHTS, _D1_CENTER, _D1_EDGES, _D2_CENTER, _D2_EDGES, cubic_cell_table


def _inside(window, x):
    return (x >= window[0]) & (x <= window[1])


def newton_cubic(grid, values, x):
    """4-node Lagrange cubic in Newton form, window clamped to the grid."""
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    u = (xq - grid.x_min) / grid.dx
    j = np.clip(np.floor(u).astype(int) - 1, 0, grid.n_points - 4)
    s = u - j
    v = np.asarray(values)
    f0, f1, f2, f3 = v[j], v[j + 1], v[j + 2], v[j + 3]
    d1 = f1 - f0
    d2 = f2 - f1 - d1
    d3 = f3 - 2.0 * f2 + f1 - d2
    return f0 + s * (d1 + (s - 1.0) * (0.5 * d2 + (s - 2.0) * (d3 / 6.0)))


def cubic_cell_columns(values):
    """`cubic_cell_table` in its former (..., 4, n) layout: one matmul per part on sample columns."""
    v = np.asarray(values, dtype=float)
    windows = np.swapaxes(np.lib.stride_tricks.sliding_window_view(v, 4, axis=-1), -1, -2)
    first, last = windows[..., :1], windows[..., -1:]
    parts = ((0, first), (1, windows), (2, last), (3, last))
    return np.concatenate([np.matmul(_CELL_WEIGHTS[o], w) for o, w in parts], axis=-1)


def lagrange_weights(times, t):
    """(first snapshot, weights) of the Lagrange blend in t through min(4, S) snapshot times.

    The window starts one snapshot before the interval whose left end is
    the last time <= t and is shifted inward at the ends; t is clamped
    into the span, and each weight is a product of ratios in window order.
    """
    times = [float(v) for v in times]
    m = min(4, len(times))
    j = int(np.searchsorted(times, t, side="right")) - 1
    start = min(max(j - 1, 0), len(times) - m)
    window = times[start:start + m]
    s = min(max(t, times[0]), times[-1])
    weights = []
    for q, t_q in enumerate(window):
        w = 1.0
        for r, t_r in enumerate(window):
            if r != q:
                w *= (s - t_r) / (t_q - t_r)
        weights.append(w)
    return start, weights


def lagrange_blend(times, values, t):
    """Snapshot values (S, ...) blended in t by the Lagrange weights, one product per snapshot."""
    start, weights = lagrange_weights(times, t)
    return sum(w * values[start + q] for q, w in enumerate(weights))


def lagrange_cell_table(times, fields, t):
    """The gridded provider's blended cell table at t, built from scratch.

    The window's `cubic_cell_table`s are stacked in ring order (snapshot
    i in slot i % m) and blended by one matvec.
    """
    start, weights = lagrange_weights(times, t)
    m = len(weights)
    order = sorted(range(m), key=lambda q: (start + q) % m)
    tables = np.stack([cubic_cell_table(fields[start + q]) for q in order])
    return (np.array([weights[q] for q in order]) @ tables.reshape(m, -1)).reshape(tables.shape[1:])


def linear_blend(times, values, t):
    """Snapshot values (S, ...) blended linearly in t between the two times around it, t clamped."""
    j = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
    t0, t1 = float(times[j]), float(times[j + 1])
    w = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
    return (1.0 - w) * values[j] + w * values[j + 1]


def member_loop_positions(provider, x0s, t_grid):
    """rk4 ensemble positions with per-member masks on every step."""
    t = np.asarray(t_grid, dtype=float)
    x = np.array(x0s, dtype=float)
    xw = provider.x_window
    n = x.size
    positions = np.full((n, t.size), np.nan)
    positions[:, 0] = x
    n_valid = np.full(n, 1, dtype=int)
    alive = np.ones(n, dtype=bool)

    def clipped_eval(xs, ts):
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


def first_crossing(x0s, positions, times):
    """(pair, time) of the first inversion, scanning time by time; None if none."""
    order = np.argsort(x0s, kind="stable")
    pos = positions[order]
    for ti in range(pos.shape[1]):
        bad = np.flatnonzero(np.diff(pos[:, ti]) <= 0)
        if bad.size:
            i = int(bad[0])
            return (int(order[i]), int(order[i + 1])), float(times[ti])
    return None


def _edge_apply(weights: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Row r of `weights` applied at node r of each trailing window.

    `window` is (..., w) and `weights` (rows, w); returns (..., rows).
    Weight sums vanish, so applying them to differences from the
    evaluation node is algebraically identical but keeps a constant
    field at exactly zero and shrinks cancellation error.
    """
    diffs = window[..., None, :] - window[..., : weights.shape[0], None]
    return np.matmul(diffs[..., None, :], weights[..., None])[..., 0, 0]


def derivative_values(values: np.ndarray, dx: float) -> np.ndarray:
    """First derivative along the last axis, 4th order, one-sided at the edges.

    Accepts any (..., n) real or complex array; each row along the
    last axis is differentiated independently.
    """
    v = np.asarray(values)
    g = np.empty_like(v)
    center = v[..., 2:-2]
    g[..., 2:-2] = (
        _D1_CENTER[0] * (v[..., :-4] - center)
        + _D1_CENTER[1] * (v[..., 1:-3] - center)
        + _D1_CENTER[3] * (v[..., 3:-1] - center)
        + _D1_CENTER[4] * (v[..., 4:] - center)
    )
    g[..., :2] = _edge_apply(_D1_EDGES, v[..., :5])
    # Mirrored one-sided stencils; first derivative flips sign.
    g[..., :-3:-1] = -_edge_apply(_D1_EDGES, v[..., :-6:-1])
    return g / dx


def second_derivative_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative along the last axis, 4th order, one-sided at the edges.

    Accepts any (..., n) real or complex array, like `derivative_values`.
    """
    v = np.asarray(values)
    g = np.empty_like(v)
    center = v[..., 2:-2]
    g[..., 2:-2] = (
        _D2_CENTER[0] * (v[..., :-4] - center)
        + _D2_CENTER[1] * (v[..., 1:-3] - center)
        + _D2_CENTER[3] * (v[..., 3:-1] - center)
        + _D2_CENTER[4] * (v[..., 4:] - center)
    )
    g[..., :2] = _edge_apply(_D2_EDGES, v[..., :6])
    g[..., :-3:-1] = _edge_apply(_D2_EDGES, v[..., :-7:-1])
    return g / dx**2


def _rhs_values(values, grads, dx, potential_values, mass):
    """The hierarchy right-hand side with its own Laplacian call, as before the stencil pair."""
    laps = second_derivative_values(values[:-1], dx)
    out = np.empty_like(values)
    out[0] = -grads[0] ** 2 / (2.0 * mass) - potential_values
    top = values.shape[0] - 1
    conv = np.zeros((top, values.shape[1]))
    for k in range(top + 1):
        lo = max(1, k)
        conv[lo - 1:] += grads[k] * grads[lo - k:top + 1 - k]
    out[1:] = -(conv + laps) / (2.0 * mass)
    return out


def propagate_hierarchy(state, potential, dt, n_steps, params=None):
    """rk4 on the two separate stencil bodies: one d1 and one d2 call per stage.

    The guards are the library's; only the stencils and their call
    pattern differ from `wkbohm.hierarchy.propagate_hierarchy`.
    """
    from wkbohm.hierarchy import GRADIENT_BLOWUP_LIMIT, HierarchyState, _check_blowup, _check_cfl

    mass = params.mass if params is not None else 1.0
    grid, dx = state.grid, state.grid.dx
    potential_values = potential.value(grid.nodes)
    v = state.values.copy()
    t = state.time

    def rhs(vals, grads=None):
        if grads is None:
            grads = derivative_values(vals, dx)
        return _rhs_values(vals, grads, dx, potential_values, mass)

    grads = derivative_values(v, dx)
    for _ in range(n_steps):
        _check_cfl(grads[0], grid, dt, mass, t)
        k1 = rhs(v, grads)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        with np.errstate(invalid="ignore", over="ignore"):
            grads = derivative_values(v, dx)
            healthy = np.isfinite(v).all() and np.abs(grads).max() <= GRADIENT_BLOWUP_LIMIT
        if not healthy:
            _check_blowup(v, grads, grid, t)
    return HierarchyState(grid, v, time=t)


def free_packet_velocity(spec, x, t):
    """Free-packet field through the `SpreadingFactors` record."""
    from wkbohm.analytic import spreading

    s = spreading(spec, t)
    p = spec.params
    xr = np.asarray(x, dtype=float) - spec.v0 * t
    return spec.v0 + p.hbar**2 * t / (4.0 * p.mass**2 * spec.sigma0**2 * s.sigma_t**2) * xr


def ho_velocity(spec, t):
    """-omega a sin(omega t), with t taken through `np.asarray`."""
    return -spec.omega * spec.a * np.sin(spec.omega * np.asarray(t, dtype=float))


def oscillator_velocity(spec, x, t):
    """The uniform oscillator field filled by `np.full` into the query's shape."""
    v = ho_velocity(spec, t)
    return np.full(np.shape(x), v) if np.ndim(x) else v


def qhj_residual(sbar, rate, potential, params):
    """Complex-action residual with separate d1 and d2 calls."""
    dx = sbar.grid.dx
    g = derivative_values(sbar.values, dx)
    lap = second_derivative_values(sbar.values, dx)
    res = rate + g**2 / (2.0 * params.mass) + potential.value(sbar.grid.nodes) - (
        1j * params.hbar / (2.0 * params.mass)
    ) * lap
    return np.abs(res)


def complex_velocity_residual(sbars, potential, params, dt):
    """Complex-velocity residual with one d1 call per snapshot and separate d1, d2 of v."""
    mid = sbars[len(sbars) // 2]
    dx = mid.grid.dx
    vels = [derivative_values(f.values, dx) / params.mass for f in sbars]
    if len(vels) == 3:
        dv_dt = (vels[2] - vels[0]) / (2.0 * dt)
    else:
        dv_dt = (vels[0] - 8.0 * vels[1] + 8.0 * vels[3] - vels[4]) / (12.0 * dt)
    v = vels[len(vels) // 2]
    res = (
        dv_dt
        + v * derivative_values(v, dx)
        + potential.gradient(mid.grid.nodes) / params.mass
        - (1j * params.hbar / (2.0 * params.mass)) * second_derivative_values(v, dx)
    )
    return np.abs(res)


def trajectory_series_coefficient(n):
    """The u^(2n) x0 coefficient through an explicit double factorial (2n-3)!!."""
    double_factorial = 1
    k = 2 * n - 3
    while k > 1:
        double_factorial *= k
        k -= 2
    fact = 1.0
    for k in range(2, n + 1):
        fact *= k
    return (-1.0) ** (n - 1) * double_factorial / (2.0**n * fact)


class ForwardProductSolver:
    """Crank-Nicolson stepper that forms (1 - i dt H / 2 hbar) psi from three diagonals.

    The backward matrix 1 + i dt H / 2 hbar is LU-factorized by LAPACK's
    `zgttrf`; each step makes the forward product and one `zgttrs` solve.
    No edge or `info` checks: the library's guards are tested on their own.
    """

    def __init__(self, grid, potential, params, dt):
        from scipy.linalg.lapack import zgttrf, zgttrs

        n, dx = grid.n_points, grid.dx
        hbar, m = params.hbar, params.mass
        main = hbar**2 / (m * dx**2) + potential.value(grid.nodes)
        off = np.full(n - 1, -(hbar**2) / (2.0 * m * dx**2))
        a = 1j * dt / (2.0 * hbar)
        self.dt = dt
        self._forward = (1.0 - a * main, -a * off)
        *self._lu, _ = zgttrf(a * off, 1.0 + a * main, a * off)
        self._zgttrs = zgttrs

    def step_values(self, psi):
        diag, off = self._forward
        y = diag * psi
        y[1:] += off * psi[:-1]
        y[:-1] += off * psi[1:]
        return self._zgttrs(*self._lu, y, overwrite_b=1)[0]


def format_value(value) -> str:
    """One table cell's text, the way `emit_table` wrote each cell of a row."""
    if type(value) is float:  # the common cell, tested first
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise WkbohmError(f"string cell may not contain delimiter or newline: {value!r}")
        return value
    try:
        return format(float(value), ".17g")
    except (TypeError, ValueError):
        raise WkbohmError(f"cannot format table cell {value!r}")


def emit_rows(path, columns, rows) -> Path:
    """`emit_table` in its former row form: (name, unit) columns, one `format_value` call per cell."""
    out = Path(path)
    header = ",".join(f"{name} [{unit}]" for name, unit in columns)
    lines = [header]
    for row in rows:
        if len(row) != len(columns):
            raise WkbohmError(f"row has {len(row)} cells for {len(columns)} columns")
        lines.append(",".join(map(format_value, row)))
    text = "\n".join(lines) + "\n"
    if text.find("nan", len(header)) >= 0 or text.find("inf", len(header)) >= 0:
        for i, line in enumerate(lines[1:]):
            for (name, _), cell in zip(columns, line.split(",")):
                if cell in ("nan", "inf", "-inf"):  # a float that is not finite
                    raise WkbohmError(f"non-finite cell in {out}: row {i}, column {name!r}: {cell}")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return out
