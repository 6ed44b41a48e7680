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

from .analytic import PhysParams, unwrap_phase
from .errors import CausticDetected, CflViolation, NumericalAbort
from .numerics import (
    ComplexField,
    Grid1D,
    RealField,
    derivative_values,
    second_derivative_values,
)
from .potentials import Potential

GRADIENT_BLOWUP_LIMIT = 1e6
CFL_SAFETY = 0.5


@dataclass(frozen=True)
class PolarFields:
    """Amplitude R > 0 and real action S of a nodeless state.

    `invalid_nodes` is normally None; reconstruction marks nodes whose
    amplitude overflowed instead of silently clipping them.
    """

    R: RealField
    S: RealField
    invalid_nodes: np.ndarray | None = None

    def __post_init__(self):
        if self.R.grid != self.S.grid:
            raise ValueError("R and S must share one grid")
        if self.invalid_nodes is None and not np.all(self.R.values > 0):
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
            raise NumericalAbort(f"non-finite hierarchy field: order {o}, node {i}")

    @property
    def order(self) -> int:
        return self.values.shape[0] - 1

    def field(self, n: int) -> RealField:
        return RealField(self.grid, self.values[n].copy(), self.time)


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
    values: np.ndarray, grads: np.ndarray, dx: float, potential_values: np.ndarray, mass: float
) -> np.ndarray:
    """Time derivative of the whole stack from its gradients.

    Order n reads orders <= n only; `grads` is the stack gradient of
    `values` and `potential_values` is V at the grid nodes.
    """
    laps = second_derivative_values(values[:-1], dx)
    out = np.empty_like(values)
    out[0] = -grads[0] ** 2 / (2.0 * mass) - potential_values
    for n in range(1, values.shape[0]):
        conv = np.zeros(values.shape[1])
        for k in range(n + 1):
            conv += grads[k] * grads[n - k]
        out[n] = -(conv + laps[n - 1]) / (2.0 * mass)
    return out


def hierarchy_rhs(state: HierarchyState, potential: Potential, params: PhysParams | None = None) -> np.ndarray:
    """Field time-derivatives for the current stack.

    Returns an (order+1, n_points) array. The equations contain no
    hbar; mass enters the kinetic terms only.
    """
    mass = params.mass if params is not None else 1.0
    dx = state.grid.dx
    grads = derivative_values(state.values, dx)
    return _rhs_values(state.values, grads, dx, potential.value(state.grid.nodes), mass)


def _check_cfl(grads0: np.ndarray, dx: float, dt: float, mass: float, time: float) -> None:
    vmax = float(np.max(np.abs(grads0))) / mass
    if vmax > 0 and dt > CFL_SAFETY * dx / vmax:
        raise CflViolation(
            f"dt={dt:g} exceeds the advective bound {CFL_SAFETY * dx / vmax:g} "
            f"(max speed {vmax:g}) at t={time:g}"
        )


def _check_blowup(values: np.ndarray, grads: np.ndarray, time: float) -> None:
    """Orders in turn: finite fields, then gradients below the limit."""
    for n in range(values.shape[0]):
        if not np.all(np.isfinite(values[n])):
            i = int(np.flatnonzero(~np.isfinite(values[n]))[0])
            raise NumericalAbort(f"non-finite order-{n} field at node {i}, t={time:g}")
        gmax = float(np.max(np.abs(grads[n])))
        if gmax > GRADIENT_BLOWUP_LIMIT:
            raise CausticDetected(
                f"|grad| of order-{n} field reached {gmax:.3g} at t={time:g}; caustic suspected"
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
    must stay finite with gradients below the blow-up threshold. The
    stack gradient taken for that check is the next step's CFL input
    and its first rk4 stage.
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

    def rhs(vals, grads=None):
        if grads is None:
            grads = derivative_values(vals, dx)
        return _rhs_values(vals, grads, dx, potential_values, mass)

    grads = derivative_values(v, dx)
    for _ in range(n_steps):
        _check_cfl(grads[0], dx, dt, mass, t)
        k1 = rhs(v, grads)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        # A non-finite order is reported by the check, not as a warning.
        with np.errstate(invalid="ignore", over="ignore"):
            grads = derivative_values(v, dx)
        _check_blowup(v, grads, t)
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
    if every < 1:
        raise ValueError("every must be >= 1")
    out = [state]
    current = state
    done = 0
    while done < n_steps:
        chunk = min(every, n_steps - done)
        current = propagate_hierarchy(current, potential, dt, chunk, params=params)
        out.append(current)
        done += chunk
    return out


def reconstruct_polar(state: HierarchyState, params: PhysParams) -> PolarFields:
    """Partial-sum amplitude and phase at the given hbar.

    Odd orders build ln R with alternating hbar^2 weights, even orders
    build S. Truncation at order 1 is the plain WKB pair
    (R = exp(s1), S = s0). Amplitude overflow is flagged per node and
    the result marked invalid rather than silently clipped.
    """
    if state.order < 1:
        raise ValueError("amplitude reconstruction needs order >= 1")
    hbar = params.hbar
    log_r = np.zeros(state.grid.n_points)
    s = np.zeros(state.grid.n_points)
    for n in range(0, state.order + 1, 2):
        s += (-1.0) ** (n // 2) * hbar**n * state.values[n]
    for n in range(1, state.order + 1, 2):
        log_r += (-1.0) ** ((n - 1) // 2) * hbar ** (n - 1) * state.values[n]
    with np.errstate(over="ignore"):
        r = np.exp(log_r)
    bad = ~np.isfinite(r)
    invalid = None
    if bad.any():
        invalid = np.flatnonzero(bad)
        r = np.where(bad, np.finfo(float).max, r)
    return PolarFields(
        R=RealField(state.grid, r, state.time),
        S=RealField(state.grid, s, state.time),
        invalid_nodes=invalid,
    )


def complex_action(state: HierarchyState, params: PhysParams) -> ComplexField:
    """Recombine the stack into the complex action sum (hbar/i)^n sn."""
    if state.order < 1:
        raise ValueError("complex action needs order >= 1")
    weights = (params.hbar / 1j) ** np.arange(state.order + 1)
    values = np.tensordot(weights, state.values, axes=(0, 0))
    return ComplexField(state.grid, values, state.time)


def complex_action_rate(
    state: HierarchyState, potential: Potential, params: PhysParams
) -> ComplexField:
    """Time derivative of the complex action, assembled from the hierarchy."""
    rates = hierarchy_rhs(state, potential, params)
    weights = (params.hbar / 1j) ** np.arange(state.order + 1)
    return ComplexField(state.grid, np.tensordot(weights, rates, axes=(0, 0)), state.time)


def hierarchy_wavefunction(state: HierarchyState, params: PhysParams) -> ComplexField:
    """psi = exp(i S / hbar) from the recombined complex action."""
    sbar = complex_action(state, params)
    return ComplexField(state.grid, np.exp(1j * sbar.values / params.hbar), state.time)


def complex_action_from_wavefunction(psi: ComplexField, params: PhysParams) -> ComplexField:
    """Invert psi = exp(i S / hbar) by modulus and unwrapped phase.

    Defined modulo a space-independent real constant (the overall
    phase of psi), which is exactly the freedom the ansatz leaves.
    """
    modulus = np.abs(psi.values)
    if np.any(modulus <= 0):
        bad = int(np.flatnonzero(modulus <= 0)[0])
        raise ValueError(f"wavefunction modulus vanishes at node {bad}")
    phase = unwrap_phase(psi.values)
    values = params.hbar * phase - 1j * params.hbar * np.log(modulus)
    return ComplexField(psi.grid, values, psi.time)


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
    dx = state.grid.dx
    v = derivative_values(state.values[0], dx)
    for n in range(1, max_pair_index + 1):
        v = v + (-1.0) ** n * params.hbar ** (2 * n) * derivative_values(state.values[2 * n], dx)
    return RealField(state.grid, v / params.mass, state.time)


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
    sbar_rate: ComplexField | np.ndarray,
    potential: Potential,
    params: PhysParams,
) -> RealField:
    """Pointwise defect of the complex-action evolution equation.

    | dS/dt + (grad S)^2/2m + V - (i hbar/2m) lap S |, evaluated with
    the supplied time derivative. Vanishes for exact solutions up to
    stencil and time-difference error.
    """
    rate = sbar_rate.values if isinstance(sbar_rate, ComplexField) else np.asarray(sbar_rate)
    dx = sbar.grid.dx
    g = derivative_values(sbar.values, dx)
    lap = second_derivative_values(sbar.values, dx)
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
    vels = [derivative_values(f.values, dx) / params.mass for f in sbars]
    dv_dt = _time_derivative(vels, dt)
    v = vels[len(vels) // 2]
    x = mid.grid.nodes
    res = (
        dv_dt
        + v * derivative_values(v, dx)
        + potential.gradient(x) / params.mass
        - (1j * params.hbar / (2.0 * params.mass)) * second_derivative_values(v, dx)
    )
    return RealField(mid.grid, np.abs(res), mid.time)
