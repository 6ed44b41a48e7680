"""Uniform 1D grids, 4th-order difference stencils, and ODE stepping.

Everything here is a pure function of its inputs. Fields are thin
wrappers around numpy arrays bound to a grid and a time stamp; the
stencil operators accept real or complex fields and return the same
kind.

The spatial operators use 4th-order central differences on the
interior and 4th-order one-sided stencils on the two nodes nearest
each boundary, so both are exact on polynomials up to degree 4 on any
uniform grid. They act along the last axis, so a whole (order, node)
stack is differentiated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFieldError

# d/dx weights, O(dx^4): one-sided rows for the edge node and its
# neighbour (applied mirrored at the right edge), and the interior.
_D1_EDGES = np.array([
    [-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -1.0 / 4.0],
    [-1.0 / 4.0, -5.0 / 6.0, 3.0 / 2.0, -1.0 / 2.0, 1.0 / 12.0],
])
_D1_CENTER = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])

# Same for d2/dx2, O(dx^4).
_D2_EDGES = np.array([
    [15.0 / 4.0, -77.0 / 6.0, 107.0 / 6.0, -13.0, 61.0 / 12.0, -5.0 / 6.0],
    [5.0 / 6.0, -5.0 / 4.0, -1.0 / 3.0, 7.0 / 6.0, -1.0 / 2.0, 1.0 / 12.0],
])
_D2_CENTER = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with node i at x_min + i*dx.

    n_points must be at least 8 so the one-sided 4th-order stencils
    (5 and 6 nodes wide) never overlap from both ends.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 8:
            raise ValueError(f"n_points must be >= 8, got {self.n_points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x


def _check_finite(values: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        raise NonFiniteFieldError(f"{what} has a non-finite value at node {node}", node=node)


@dataclass(frozen=True)
class RealField:
    """Real-valued samples of a function on a grid at one instant."""

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"field has {values.shape} values for a {self.grid.n_points}-node grid"
            )
        _check_finite(values, "real field")


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued samples of a function on a grid at one instant."""

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"field has {values.shape} values for a {self.grid.n_points}-node grid"
            )
        _check_finite(values, "complex field")


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


def gradient(f: RealField | ComplexField) -> RealField | ComplexField:
    """Spatial derivative of a field; same kind as the input."""
    _check_finite(f.values, "gradient input")
    out = derivative_values(f.values, f.grid.dx)
    kind = RealField if isinstance(f, RealField) else ComplexField
    return kind(f.grid, out, f.time)


def laplacian(f: RealField | ComplexField) -> RealField | ComplexField:
    """Second spatial derivative of a field; same kind as the input."""
    _check_finite(f.values, "laplacian input")
    out = second_derivative_values(f.values, f.grid.dx)
    kind = RealField if isinstance(f, RealField) else ComplexField
    return kind(f.grid, out, f.time)


def rk4_step(state, rhs, t: float, dt: float):
    """One classical Runge-Kutta step of ds/dt = rhs(state, t).

    Works on scalars and numpy arrays alike. Local error is O(dt^5)
    for smooth right-hand sides. A non-finite stage derivative aborts
    with the step context in the message.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    s = np.asarray(state, dtype=np.result_type(state, float))
    stages = []
    for c, base in ((0.0, None), (0.5, 0), (0.5, 1), (1.0, 2)):
        probe = s if base is None else s + (c * dt) * stages[base]
        k = np.asarray(rhs(probe, t + c * dt))
        if not np.all(np.isfinite(k)):
            raise NonFiniteFieldError(
                f"rhs returned a non-finite value at t={t + c * dt!r} (stage {len(stages) + 1})"
            )
        stages.append(k)
    out = s + (dt / 6.0) * (stages[0] + 2.0 * stages[1] + 2.0 * stages[2] + stages[3])
    return out if out.shape else out[()]


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... with (-1)!! = 0!! = 1.

    Negative arguments below -1 are rejected.
    """
    if n < -1:
        raise ValueError(f"double factorial needs n >= -1, got {n}")
    out = 1
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out


def cubic_interpolate(grid: Grid1D, values: np.ndarray, x) -> np.ndarray:
    """Evaluate grid samples at off-grid points by 4-node Lagrange cubics.

    Matches the 4th-order accuracy of the stencils. Query points must
    lie inside [x_min, x_max], up to a slack of 1e-9 dx for rounding
    in the node positions.
    """
    xq = np.asarray(x, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    dx = grid.dx
    slack = 1e-9 * dx
    if xq.size and (xq.min() < grid.x_min - slack or xq.max() > grid.x_max + slack):
        raise ValueError("interpolation point outside the grid")
    u = (xq - grid.x_min) / dx
    # Left node of the 4-point window, clamped so the window fits.
    j = np.minimum(np.maximum(np.floor(u).astype(int) - 1, 0), grid.n_points - 4)
    s = u - j  # in [0, 3] within the window
    v = np.asarray(values)
    f0, f1, f2, f3 = v[j], v[j + 1], v[j + 2], v[j + 3]
    # The same cubic in Newton form on forward differences.
    d1 = f1 - f0
    d2 = f2 - f1 - d1
    d3 = f3 - 2.0 * f2 + f1 - d2
    out = f0 + s * (d1 + (s - 1.0) * (0.5 * d2 + (s - 2.0) * (d3 / 6.0)))
    return out[0] if scalar else out


def trapezoid_norm(f: ComplexField) -> float:
    """Trapezoid-rule integral of |f|^2 over the grid."""
    return float(np.trapezoid(np.abs(f.values) ** 2, dx=f.grid.dx))
