"""Uniform 1D grids, 4th-order difference stencils, and cubic interpolation.

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

# Both derivatives' edge rows as (derivative, edge row, node, 1), the
# first derivative's zero-padded to the 6-node width, and the window
# each end reads: nodes 0..5, and n-1..n-6 for the mirrored right end.
_EDGE_WEIGHTS = np.stack([np.pad(_D1_EDGES, ((0, 0), (0, 1))), _D2_EDGES])[..., None]
_EDGE_NODES = np.array([np.arange(6), -1 - np.arange(6)])


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with node i at x_min + i*dx.

    n_points must be an integer of at least 8, so that the one-sided
    4th-order stencils (5 and 6 nodes wide) never overlap from both ends,
    and the nodes must be finite and strictly increasing.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if not isinstance(self.n_points, (int, np.integer)):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 8:
            raise ValueError(f"n_points must be >= 8, got {self.n_points}")
        # A span past the float range, or one too narrow for distinct nodes.
        span = f"grid [{self.x_min}, {self.x_max}]"
        with np.errstate(over="ignore"):
            dx = self.dx
        if not 0.0 < dx < np.inf:
            raise ValueError(f"{span} has node spacing {dx}")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError(f"{span} is too narrow for {self.n_points} distinct nodes")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class _GridField:
    """Samples of a function on a grid at one instant, as a `_DTYPE` array."""

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=self._DTYPE)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(f"field has {values.shape} values for a {self.grid.n_points}-node grid")
        bad = ~np.isfinite(values)
        if bad.any():
            node = int(np.flatnonzero(bad)[0])
            raise NonFiniteFieldError(f"{self._KIND} has a non-finite value at node {node}", node=node)


@dataclass(frozen=True)
class RealField(_GridField):
    """Real-valued samples of a function on a grid at one instant."""

    _DTYPE, _KIND = float, "real field"


@dataclass(frozen=True)
class ComplexField(_GridField):
    """Complex-valued samples of a function on a grid at one instant."""

    _DTYPE, _KIND = complex, "complex field"


def derivative_pair(values, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives along the last axis in one pass.

    Accepts any (..., n) real or complex array, computed in at least
    float64 or complex128; each row along the last axis is
    differentiated independently, 4th order, one-sided at the edges.

    The stack is read flat, in C order, and the four shifted differences
    from each node are taken once for both interiors. A difference that
    reaches across a row boundary lands only on the two nodes at each end
    of a row, and the one-sided rows overwrite those. The edge rows of
    both derivatives at both ends come from one matmul: the first
    derivative's 5-node rows are padded with a zero weight to the 6-node
    width, which adds an exact zero to each sum of finite terms. Weight
    sums vanish, so the weights act on differences from the evaluation
    node, which keeps a constant field at exactly zero. The right end
    applies the rows mirrored; the first derivative flips sign by
    `np.negative`, which, unlike a product with -1.0, keeps the signed
    zeros of complex values.
    """
    v = np.asarray(values)
    v = np.ascontiguousarray(v, dtype=np.promote_types(v.dtype, np.float64))
    flat = v.reshape(-1)
    mid = flat[2:-2]
    left2, left1 = flat[:-4] - mid, flat[1:-3] - mid
    right1, right2 = flat[3:-1] - mid, flat[4:] - mid
    d1, d2 = np.empty_like(v), np.empty_like(v)
    for out, center in ((d1, _D1_CENTER), (d2, _D2_CENTER)):
        # Added in place in the order c0 l2 + c1 l1 + c3 r1 + c4 r2.
        acc = np.multiply(center[0], left2, out=out.reshape(-1)[2:-2])
        acc += center[1] * left1
        acc += center[3] * right1
        acc += center[4] * right2
    # (..., end, node). `take` copies C-contiguous, so every edge sum is
    # a unit-stride (1, 6) @ (6, 1) dot: its rounding depends on the stride.
    window = v.take(_EDGE_NODES, axis=-1)
    diffs = window[..., None, :] - window[..., :2, None]  # (..., end, edge row, node)
    # (..., end, derivative, edge row)
    edges = np.matmul(diffs[..., None, :, None, :], _EDGE_WEIGHTS)[..., 0, 0]
    d1[..., :2] = edges[..., 0, 0, :]
    np.negative(edges[..., 1, 0, :], out=d1[..., :-3:-1])
    d2[..., :2] = edges[..., 0, 1, :]
    d2[..., :-3:-1] = edges[..., 1, 1, :]
    d1 /= dx
    d2 /= dx**2
    return d1, d2


def derivative_values(values: np.ndarray, dx: float) -> np.ndarray:
    """d/dx along the last axis: the first half of `derivative_pair`."""
    return derivative_pair(values, dx)[0]


def second_derivative_values(values: np.ndarray, dx: float) -> np.ndarray:
    """d2/dx2 along the last axis: the second half of `derivative_pair`."""
    return derivative_pair(values, dx)[1]


def collect_snapshots(state, advance, n_steps: int, every: int) -> list:
    """`state`, then `advance(previous, k)` every `every` steps; the last chunk may be shorter."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if every < 1:
        raise ValueError("every must be >= 1")
    out = [state]
    done = 0
    while done < n_steps:
        chunk = min(every, n_steps - done)
        out.append(advance(out[-1], chunk))
        done += chunk
    return out


def _cell_weights(offset: int) -> np.ndarray:
    """(power, sample) map from 4 window samples to their cubic in r = s - offset.

    The samples sit at s = 0..3. Each Lagrange basis polynomial is built
    from integer roots and divided once, so the constant row is exactly
    0 or 1 at the window's own nodes.
    """
    w = np.empty((4, 4))
    for i in range(4):
        others = [m for m in range(4) if m != i]
        w[:, i] = np.polynomial.polynomial.polyfromroots([m - offset for m in others])
        w[:, i] /= np.prod([i - m for m in others])
    return w


# Indexed by the offset of the cell's left node in its window.
_CELL_WEIGHTS = np.stack([_cell_weights(o) for o in range(4)])


def cubic_cell_table(values: np.ndarray) -> np.ndarray:
    """Per-cell monomial coefficients of the 4-node Lagrange cubics of samples.

    For `values` of shape (..., n) returns a C-contiguous (..., n, 4)
    table. Row k (k = 0..n-2) holds b0..b3 with f = b0 + b1 r + b2 r^2
    + b3 r^3 and r = u - k, u the position in units of dx from x_min.
    Its cubic is the one through the 4 nodes starting at
    max(min(k - 1, n - 4), 0), so b0 is the sample at node k itself.
    Row n - 1 continues the last cell's cubic from node n - 1, so a
    point at x_max (or within the bounds slack past it) needs no clamp
    and is exact there. A query gathers one contiguous row per point.
    """
    v = np.asarray(values, dtype=float)
    # (..., n - 3 windows, 4 samples), window i on nodes i..i+3.
    windows = np.lib.stride_tricks.sliding_window_view(v, 4, axis=-1)
    first, last = windows[..., :1, :], windows[..., -1:, :]
    # Cell 0, cells 1..n-3 (one window each), cell n-2, node n-1.
    parts = ((0, first), (1, windows), (2, last), (3, last))
    return np.concatenate([w @ _CELL_WEIGHTS[o].T for o, w in parts], axis=-2)


def cubic_cell_evaluate(grid: Grid1D, table: np.ndarray, x) -> np.ndarray:
    """Evaluate an (n, 4) `cubic_cell_table` of grid samples at points x.

    Query points must lie inside [x_min, x_max], up to a slack of
    1e-9 dx for rounding in the node positions; NaN is outside. The
    cell index truncates toward zero, so a point within the slack below
    x_min uses cell 0 at a small negative r: the same cubic.
    """
    xq = np.asarray(x, dtype=float)
    dx = grid.dx
    slack = 1e-9 * dx
    if xq.size and not (
        np.minimum.reduce(xq, axis=None) >= grid.x_min - slack
        and np.maximum.reduce(xq, axis=None) <= grid.x_max + slack
    ):
        raise ValueError("interpolation point outside the grid")
    return cubic_rows_evaluate(grid.x_min, dx, table, xq)


def cubic_rows_evaluate(x_min: float, dx: float, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`cubic_cell_evaluate` without the grid check.

    For float points x already inside the grid; a point outside reads
    a wrong row or none.
    """
    u = (x - x_min) / dx
    k = u.astype(np.intp)
    r = u - k
    b = rows.take(k, axis=0)  # faster than rows[k]
    # b0 + r (b1 + r (b2 + r b3)), in place.
    out = b[..., 3] * r
    out += b[..., 2]
    out *= r
    out += b[..., 1]
    out *= r
    out += b[..., 0]
    return out


def cubic_interpolate(grid: Grid1D, values: np.ndarray, x) -> np.ndarray:
    """Evaluate grid samples at off-grid points by 4-node Lagrange cubics.

    Matches the 4th-order accuracy of the stencils. Callers that
    evaluate the same samples repeatedly should build the
    `cubic_cell_table` once and call `cubic_cell_evaluate`.
    """
    return cubic_cell_evaluate(grid, cubic_cell_table(values), x)


def trapezoid_norm(f: ComplexField) -> float:
    """Trapezoid-rule integral of |f|^2 over the grid."""
    return float(np.trapezoid(np.abs(f.values) ** 2, dx=f.grid.dx))
