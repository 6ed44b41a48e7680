"""Plain reference versions of vectorised library code, for the tests.

Each function is the straightforward form the library code replaced;
the tests require the library to agree with it, bit for bit where the
arithmetic is unchanged.
"""

import numpy as np

from wkbohm.numerics import _D1_CENTER, _D1_EDGES, _D2_CENTER, _D2_EDGES, _edge_apply


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
