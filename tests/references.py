"""Plain reference versions of vectorised library code, for the tests.

Each function is the straightforward form the library code replaced;
the tests require the library to agree with it, bit for bit where the
arithmetic is unchanged.
"""

import numpy as np

from wkbohm.numerics import _D1_CENTER, _D1_EDGES, _D2_CENTER, _D2_EDGES


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
