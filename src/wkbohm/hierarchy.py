"""Coupled hierarchy of real action fields and its reconstructions.

The complex action S of the exponential ansatz psi = exp(i S / hbar)
is expanded in powers of (hbar/i); the real coefficient fields evolve
by a triangular system: order 0 obeys the classical Hamilton-Jacobi
equation and each higher order is driven by the orders below it,

    d s0/dt = -(grad s0)^2 / 2m - V
    d sn/dt = -(1/2m) sum_{k=0..n} grad sk grad s(n-k)
              -(1/2m) lap s(n-1)          for n >= 1.

hbar never appears in these equations: one propagation serves every
hbar. It only enters when fields are recombined into amplitude,
phase, complex action, or velocity:

    R = exp( s1 - hbar^2 s3 + hbar^4 s5 - ... )
    S =      s0 - hbar^2 s2 + hbar^4 s4 - ...

Initialization is the unique hbar-independent split of a state given
by one amplitude and one phase: s0 = S(0), s1 = ln R(0), all higher
orders zero, which makes the reconstruction exact at t = 0.

Propagation is method-of-lines: 4th-order stencils in x, one rk4 step
over the whole stack per time step, an advective CFL guard before
every step, and blow-up detection afterwards. Focal singularities
(caustics) are detected and aborted, never regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import PhysParams
from .errors import CausticDetected, CflViolation, NumericalAbort
from .numerics import (
    ComplexField,
    Grid1D,
    RealField,
    collect_snapshots,
    derivative_pair,
    derivative_values,
)
from .potentials import Potential

GRADIENT_BLOWUP_LIMIT = 1e6
CFL_SAFETY = 0.5


@dataclass(frozen=True)
class PolarFields:
    """Amplitude R > 0 and real action S of a nodeless state.

    `invalid_nodes` is normally None; reconstruction lists the nodes
    whose amplitude underflowed to zero, which hold the smallest normal
    double instead.
    """

    R: RealField
    S: RealField
    invalid_nodes: np.ndarray | None = None

    def __post_init__(self):
        if self.R.grid != self.S.grid:
            raise ValueError("R and S must share one grid")
        if not np.all(self.R.values > 0):
            bad = int(np.flatnonzero(~(self.R.values > 0))[0])
            raise ValueError(f"amplitude must be strictly positive (node {bad})")


@dataclass(frozen=True)
class HierarchyState:
    """Stack of the real fields s0..sN on one grid at one instant."""

    grid: Grid1D
    values: np.ndarray  # shape (order+1, n_points)
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[1] != self.grid.n_points:
            raise ValueError(f"expected (order+1, {self.grid.n_points}) values, got {v.shape}")
        if v.shape[0] < 1:
            raise ValueError("need at least the order-0 field")
        if not np.all(np.isfinite(v)):
            o, i = np.argwhere(~np.isfinite(v))[0]
            raise NumericalAbort(
                f"non-finite hierarchy field: order {o}, node {i}", order=int(o), node=int(i)
            )

    @property
    def order(self) -> int:
        return self.values.shape[0] - 1


def init_hierarchy(psi0: PolarFields, order: int) -> HierarchyState:
    """Seed the hierarchy from polar data at t = 0.

    s0 = S, s1 = ln R, all higher orders zero; the polar
    reconstruction is then an exact identity at the initial time for
    any hbar.
    """
    if order < 1:
        raise ValueError("order must be >= 1 so the amplitude has somewhere to live")
    if not np.all(psi0.R.values > 0):
        bad = int(np.flatnonzero(~(psi0.R.values > 0))[0])
        raise ValueError(f"amplitude must be positive to take its logarithm (node {bad})")
    grid = psi0.R.grid
    values = np.zeros((order + 1, grid.n_points))
    values[0] = psi0.S.values
    values[1] = np.log(psi0.R.values)
    return HierarchyState(grid, values, time=psi0.S.time)


def _rhs_values(
    values: np.ndarray, grads: np.ndarray, laps: np.ndarray, potential_values: np.ndarray, mass: float
) -> np.ndarray:
    """Time derivative of the whole stack from its derivatives.

    Order n reads orders <= n only; `grads` and `laps` are the stack's
    first and second derivatives (the top order's Laplacian is not
    read) and `potential_values` is V at the grid nodes.
    """
    out = np.empty_like(values)
    out[0] = -grads[0] ** 2 / (2.0 * mass) - potential_values
    # Row n-1 of conv is sum_k grads[k] grads[n-k], its terms added in
    # increasing k from zero, with one array operation per k.
    top = values.shape[0] - 1
    conv = np.zeros((top, values.shape[1]))
    for k in range(top + 1):
        lo = max(1, k)
        conv[lo - 1:] += grads[k] * grads[lo - k:top + 1 - k]
    out[1:] = -(conv + laps[:-1]) / (2.0 * mass)
    return out


def hierarchy_rhs(state: HierarchyState, potential: Potential, params: PhysParams | None = None) -> np.ndarray:
    """Field time-derivatives for the current stack.

    Returns an (order+1, n_points) array. The equations contain no
    hbar; mass enters the kinetic terms only.
    """
    mass = params.mass if params is not None else 1.0
    grads, laps = derivative_pair(state.values, state.grid.dx)
    return _rhs_values(state.values, grads, laps, potential.value(state.grid.nodes), mass)


def _check_cfl(grads0: np.ndarray, grid: Grid1D, dt: float, mass: float, time: float) -> None:
    vmax = float(np.max(np.abs(grads0))) / mass
    if not vmax > 0:
        return
    bound = CFL_SAFETY * grid.dx / vmax
    if dt > bound:
        i = int(np.argmax(np.abs(grads0)))
        raise CflViolation(
            f"dt={dt:g} exceeds the advective bound {bound:g} (max speed {vmax:g}) at t={time:g}",
            order=0, node=i, x=float(grid.nodes[i]), t=time, value=dt, limit=bound,
        )


def _check_blowup(values: np.ndarray, grads: np.ndarray, grid: Grid1D, time: float) -> None:
    """Orders in turn: finite fields, then gradients below the limit."""
    for n in range(values.shape[0]):
        if not np.all(np.isfinite(values[n])):
            i = int(np.flatnonzero(~np.isfinite(values[n]))[0])
            raise NumericalAbort(
                f"non-finite order-{n} field at node {i}, t={time:g}",
                order=n, node=i, x=float(grid.nodes[i]), t=time,
            )
        gmax = float(np.max(np.abs(grads[n])))
        if gmax > GRADIENT_BLOWUP_LIMIT:
            i = int(np.argmax(np.abs(grads[n])))
            raise CausticDetected(
                f"|grad| of order-{n} field reached {gmax:.3g} at t={time:g}; caustic suspected",
                order=n, node=i, x=float(grid.nodes[i]), t=time,
                value=gmax, limit=GRADIENT_BLOWUP_LIMIT,
            )


def propagate_hierarchy(
    state: HierarchyState,
    potential: Potential,
    dt: float,
    n_steps: int,
    params: PhysParams | None = None,
) -> HierarchyState:
    """Advance the stack by n_steps rk4 steps of size dt.

    Before each step the advective CFL bound (safety 0.5) is checked
    against the current order-0 gradient; after each step all fields
    must stay finite with gradients below the blow-up threshold. Each
    rk4 stage takes the stack's first and second derivatives from one
    `derivative_pair` call; the post-step pair is the blow-up check's
    gradient, the next step's CFL input and its first stage, so a step
    makes 4 calls. The whole stack is tested at once; only a failing
    test walks the orders to name the first one that failed.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    mass = params.mass if params is not None else 1.0
    grid, dx = state.grid, state.grid.dx
    potential_values = potential.value(grid.nodes)
    v = state.values.copy()
    t = state.time

    def rhs(vals):
        return _rhs_values(vals, *derivative_pair(vals, dx), potential_values, mass)

    grads, laps = derivative_pair(v, dx)
    for _ in range(n_steps):
        _check_cfl(grads[0], grid, dt, mass, t)
        k1 = _rhs_values(v, grads, laps, potential_values, mass)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        # A non-finite order is reported by the check, not as a warning.
        with np.errstate(invalid="ignore", over="ignore"):
            grads, laps = derivative_pair(v, dx)
            healthy = np.isfinite(v).all() and np.abs(grads).max() <= GRADIENT_BLOWUP_LIMIT
        if not healthy:
            _check_blowup(v, grads, grid, t)
    return HierarchyState(grid, v, time=t)


def propagate_collecting(
    state: HierarchyState,
    potential: Potential,
    dt: float,
    n_steps: int,
    every: int = 1,
    params: PhysParams | None = None,
) -> list[HierarchyState]:
    """Propagate and keep snapshots (including the initial state)."""
    # Called through the module name on every chunk, so a wrapper
    # installed on `propagate_hierarchy` sees each call.
    return collect_snapshots(
        state, lambda s, k: propagate_hierarchy(s, potential, dt, k, params=params), n_steps, every
    )


def reconstruct_polar(state: HierarchyState, params: PhysParams) -> PolarFields:
    """Partial-sum amplitude and phase at the given hbar.

    Odd orders build ln R with alternating hbar^2 weights, even orders
    build S. Truncation at order 1 is the plain WKB pair
    (R = exp(s1), S = s0). An amplitude that overflows is not data: the
    first such node raises `NumericalAbort` with the order, node, x, t,
    ln R there as `value` and ln of the largest double as `limit`.
    Nodes whose amplitude underflows to zero are listed in
    `invalid_nodes` and hold the smallest normal double instead.
    """
    if state.order < 1:
        raise ValueError("amplitude reconstruction needs order >= 1")
    s = _hbar_series(state.values[0::2], params.hbar)
    log_r = _hbar_series(state.values[1::2], params.hbar)
    with np.errstate(over="ignore", under="ignore"):
        r = np.exp(log_r)
    over = ~np.isfinite(r)
    if over.any():
        node = int(np.argmax(over))
        x = float(state.grid.nodes[node])
        raise NumericalAbort(
            f"order {state.order} amplitude exp(ln R) overflows at node {node} "
            f"(x = {x:g}, t = {state.time:g})",
            order=state.order, node=node, x=x, t=state.time,
            value=float(log_r[node]), limit=float(np.log(np.finfo(float).max)),
        )
    under = r == 0.0
    return PolarFields(
        R=RealField(state.grid, np.where(under, np.finfo(float).tiny, r), state.time),
        S=RealField(state.grid, s, state.time),
        invalid_nodes=np.flatnonzero(under) if under.any() else None,
    )


def complex_action(state: HierarchyState, params: PhysParams) -> ComplexField:
    """Complex action sum (hbar/i)^n sn = even-row series - i hbar * odd-row series."""
    if state.order < 1:
        raise ValueError("complex action needs order >= 1")
    even = _hbar_series(state.values[0::2], params.hbar)
    odd = _hbar_series(state.values[1::2], params.hbar)
    return ComplexField(state.grid, even - 1j * params.hbar * odd, state.time)


def hierarchy_wavefunction(state: HierarchyState, params: PhysParams) -> ComplexField:
    """psi = exp(i S / hbar) from the recombined complex action."""
    sbar = complex_action(state, params)
    return ComplexField(state.grid, np.exp(1j * sbar.values / params.hbar), state.time)


def truncated_velocity_field(
    state: HierarchyState, params: PhysParams, max_pair_index: int
) -> RealField:
    """Classical velocity field dressed with even-order corrections.

    v = grad(s0)/m + (1/m) sum_{n=1..M} (-1)^n hbar^(2n) grad(s2n);
    M = 0 is the purely classical field.
    """
    if max_pair_index < 0:
        raise ValueError("max_pair_index must be >= 0")
    if 2 * max_pair_index > state.order:
        raise ValueError(
            f"max_pair_index {max_pair_index} needs order >= {2 * max_pair_index}, "
            f"state has {state.order}"
        )
    grads = derivative_values(state.values[: 2 * max_pair_index + 1 : 2], state.grid.dx)
    v = _hbar_series(grads, params.hbar)
    return RealField(state.grid, v / params.mass, state.time)


def _hbar_series(rows: np.ndarray, hbar: float) -> np.ndarray:
    """sum_p (-hbar^2)^p rows[p], added in increasing p from zero."""
    out = np.zeros(rows.shape[1:])
    for p, row in enumerate(rows):
        out += (-1.0) ** p * hbar ** (2 * p) * row
    return out


def _time_derivative(stack: list[np.ndarray], dt: float) -> np.ndarray:
    """Central finite difference at the middle of 3 or 5 equispaced samples."""
    if len(stack) == 3:
        return (stack[2] - stack[0]) / (2.0 * dt)
    if len(stack) == 5:
        return (stack[0] - 8.0 * stack[1] + 8.0 * stack[3] - stack[4]) / (12.0 * dt)
    raise ValueError("need exactly 3 or 5 equispaced snapshots")


def _middle(fields: list[ComplexField]) -> ComplexField:
    return fields[len(fields) // 2]


def qhj_residual(
    sbar: ComplexField,
    sbar_rate: np.ndarray,
    potential: Potential,
    params: PhysParams,
) -> RealField:
    """Pointwise defect of the complex-action evolution equation.

    | dS/dt + (grad S)^2/2m + V - (i hbar/2m) lap S |, evaluated with
    the supplied time derivative. Vanishes for exact solutions up to
    stencil and time-difference error.
    """
    rate = np.asarray(sbar_rate)
    g, lap = derivative_pair(sbar.values, sbar.grid.dx)
    x = sbar.grid.nodes
    res = rate + g**2 / (2.0 * params.mass) + potential.value(x) - (
        1j * params.hbar / (2.0 * params.mass)
    ) * lap
    return RealField(sbar.grid, np.abs(res), sbar.time)


def qhj_residual_from_series(
    sbars: list[ComplexField], potential: Potential, params: PhysParams, dt: float
) -> RealField:
    """Residual at the middle of 3 or 5 stored complex-action snapshots."""
    rate = _time_derivative([f.values for f in sbars], dt)
    return qhj_residual(_middle(sbars), rate, potential, params)


def complex_velocity_residual(
    sbars: list[ComplexField], potential: Potential, params: PhysParams, dt: float
) -> RealField:
    """Pointwise defect of the complex-velocity (hydrodynamic) equation.

    v = grad(S)/m; | dv/dt + v grad v + grad(V)/m - (i hbar/2m) lap v |
    at the middle snapshot, with the Lagrangian derivative built from
    the stored time series.
    """
    mid = _middle(sbars)
    dx = mid.grid.dx
    vels = list(derivative_values(np.stack([f.values for f in sbars]), dx) / params.mass)
    dv_dt = _time_derivative(vels, dt)
    v = vels[len(vels) // 2]
    grad_v, lap_v = derivative_pair(v, dx)
    x = mid.grid.nodes
    res = (
        dv_dt
        + v * grad_v
        + potential.gradient(x) / params.mass
        - (1j * params.hbar / (2.0 * params.mass)) * lap_v
    )
    return RealField(mid.grid, np.abs(res), mid.time)
