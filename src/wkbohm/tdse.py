"""Grid Schrodinger solver used as an independent brute-force oracle.

Crank-Nicolson stepping of i hbar d(psi)/dt = H psi with
H = -hbar^2 lap / 2m + V discretized at 2nd order. The update

    (1 + i dt H / 2 hbar) psi_new = (1 - i dt H / 2 hbar) psi_old

is a Cayley transform of a Hermitian tridiagonal matrix, so it is
unconditionally stable and unitary to solver tolerance. With
A = 1 + i dt H / 2 hbar the forward matrix is 2 - A, so

    psi_new = 2 A^-1 psi_old - psi_old

and no forward product is formed (Goldberg, Schey & Schwartz, Am. J.
Phys. 35, 177 (1967)). A/2 is LU-factorized once per (grid, potential,
dt) by LAPACK's tridiagonal `zgttrf` and reused; each step makes one
`zgttrs` solve, which returns 2 A^-1 psi_old, and one subtraction.
scipy is imported when the first solver is built, so importing the
package loads no scipy module.

The solver refuses to run once the wavefunction stops being
negligible at the grid edges: a contaminated (reflecting) run is
worthless as an oracle. Grids should span the packet center by at
least 8 final-time widths; comfortably more is cheaper than a
surprise abort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import PhysParams
from .errors import EdgeContamination, NumericalAbort
from .numerics import (
    ComplexField,
    Grid1D,
    RealField,
    collect_snapshots,
    derivative_values,
    trapezoid_norm,
)
from .potentials import Potential

EDGE_AMPLITUDE_LIMIT = 1e-12
NODE_MODULUS_LIMIT = 1e-12
NORM_DRIFT_LIMIT = 1e-8


@dataclass(frozen=True)
class TdseState:
    """Wavefunction plus the physics it is evolving under."""

    psi: ComplexField
    potential: Potential
    params: PhysParams

    @property
    def time(self) -> float:
        return self.psi.time


class CrankNicolsonSolver:
    """Factorized Crank-Nicolson stepper for one (grid, V, dt) triple."""

    def __init__(self, grid: Grid1D, potential: Potential, params: PhysParams, dt: float):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.dt = dt
        n = grid.n_points
        dx = grid.dx
        x = grid.nodes
        hbar, m = params.hbar, params.mass
        main = hbar**2 / (m * dx**2) + potential.value(x)
        off = np.full(n - 1, -(hbar**2) / (2.0 * m * dx**2))
        a = 1j * dt / (2.0 * hbar)
        from scipy.linalg.lapack import zgttrf, zgttrs

        # Halving is exact, so solving with A/2 gives the bits of
        # solving A chi = 2 psi, without forming 2 psi.
        diag, off = 0.5 * (1.0 + a * main), 0.5 * (a * off)
        *lu, info = zgttrf(off, diag, off)
        if info != 0:
            raise NumericalAbort(f"Crank-Nicolson factorization failed (LAPACK info {info})")
        self._lu = lu
        self._zgttrs = zgttrs

    def step_values(self, psi: np.ndarray, time: float) -> np.ndarray:
        edge = max(abs(psi[0]), abs(psi[-1]))
        if edge >= EDGE_AMPLITUDE_LIMIT:
            node = 0 if abs(psi[0]) >= abs(psi[-1]) else psi.size - 1
            raise EdgeContamination(
                f"edge amplitude {edge:.3g} >= {EDGE_AMPLITUDE_LIMIT:g} at t={time:g}; "
                "enlarge the grid",
                node=node, x=float(self.grid.nodes[node]), t=float(time), value=float(edge),
                limit=EDGE_AMPLITUDE_LIMIT,
            )
        # Solved on a copy: psi itself is left unchanged.
        psi_new, info = self._zgttrs(*self._lu, psi, overwrite_b=0)
        if info != 0:
            t = float(time)
            raise NumericalAbort(f"Crank-Nicolson solve failed (LAPACK info {info}) at t={t:g}", t=t)
        psi_new -= psi
        return psi_new


def ensure_oracle_domain(grid: Grid1D, final_center: float, final_sigma: float) -> None:
    """Run-setup guard: the grid must span the final center by 8 widths.

    This is a floor, not a target; the per-step edge-amplitude guard
    needs roughly 10.5 widths for a Gaussian tail to sit below 1e-12,
    so comfortable setups use more.
    """
    if grid.x_min > final_center - 8.0 * final_sigma or grid.x_max < final_center + 8.0 * final_sigma:
        raise ValueError(
            f"grid [{grid.x_min}, {grid.x_max}] does not span the final packet center "
            f"{final_center} by 8 widths ({final_sigma} each)"
        )


def tdse_propagate(state: TdseState, dt: float, n_steps: int) -> TdseState:
    """Advance n_steps with one matrix factorization."""
    solver = CrankNicolsonSolver(state.psi.grid, state.potential, state.params, dt)
    return _advance(state, solver, n_steps)


def tdse_propagate_collecting(
    state: TdseState, dt: float, n_steps: int, every: int
) -> list[TdseState]:
    """Propagate keeping snapshots every `every` steps (initial included)."""
    solver = CrankNicolsonSolver(state.psi.grid, state.potential, state.params, dt)
    return collect_snapshots(state, lambda s, k: _advance(s, solver, k), n_steps, every)


def _advance(state: TdseState, solver: CrankNicolsonSolver, n_steps: int) -> TdseState:
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    psi = state.psi.values.copy()
    t = state.psi.time
    norm0 = trapezoid_norm(state.psi)
    for _ in range(n_steps):
        psi = solver.step_values(psi, t)
        t += solver.dt
    field = ComplexField(state.psi.grid, psi, time=t)
    drift = trapezoid_norm(field) - norm0
    # Relative to the initial norm, so the state's scale cannot trip it.
    if abs(drift) > NORM_DRIFT_LIMIT * norm0:
        relative = float(drift / norm0)
        raise NumericalAbort(
            f"norm drifted by {relative:.3g} of its initial value after {n_steps} steps",
            t=float(t), value=relative, limit=NORM_DRIFT_LIMIT,
        )
    return TdseState(psi=field, potential=state.potential, params=state.params)


def oracle_velocity(
    psi: ComplexField, params: PhysParams, x_window: tuple[float, float] | None = None
) -> RealField:
    """Bohmian velocity (hbar/m) Im(grad psi / psi) on the grid.

    Algebraically equal to grad(S)/m but needs no unwrapping. The
    modulus must stay above 1e-12 on the requested window; values are
    clipped where the amplitude underflows outside it.
    """
    modulus = np.abs(psi.values)
    small = modulus <= NODE_MODULUS_LIMIT
    if x_window is not None:
        x = psi.grid.nodes
        small &= (x >= x_window[0]) & (x <= x_window[1])
    if small.any():
        bad = int(np.flatnonzero(small)[0])
        raise ValueError(
            f"modulus {modulus[bad]:.3g} at node {bad} is too close to a "
            "wavefunction node for a velocity estimate"
        )
    dpsi = derivative_values(psi.values, psi.grid.dx)
    safe = np.where(modulus > 0.0, psi.values, np.finfo(float).tiny)
    v = (params.hbar / params.mass) * np.imag(dpsi / safe)
    return RealField(psi.grid, v, psi.time)
