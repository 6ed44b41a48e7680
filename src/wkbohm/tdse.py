"""Grid Schrodinger solver used as an independent brute-force oracle.

Numerov-Crank-Nicolson stepping of i hbar d(psi)/dt = H psi with
H = -hbar^2 lap / 2m + V, the Laplacian discretized at 4th order by the
compact (Numerov) operator B^-1 delta^2 / dx^2, where delta^2 is the
3-point difference (1, -2, 1) and B = (1, 10, 1)/12 (Lele, J. Comput.
Phys. 103, 16 (1992)). Multiplied through by B, the Hamiltonian becomes
the tridiagonal K = -(hbar^2 / 2m) delta^2 / dx^2 + B diag(V): row i
holds V_{i-1}/12, 10 V_i/12 and V_{i+1}/12. With a = i dt / 2 hbar and
A = B + aK the update

    A psi_new = (B - aK) psi_old = (2B - A) psi_old,
    psi_new = 2 A^-1 B psi_old - psi_old,

forms no forward product (Goldberg, Schey & Schwartz, Am. J. Phys. 35,
177 (1967)). B and delta^2 commute on the Dirichlet grid, so B^-1 K is
real symmetric and the step is its Cayley transform: unconditionally
stable and unitary to solver tolerance. A symmetrised V term would
make B^-1 K non-symmetric, and the norm would drift.

6A is LU-factorized once per (grid, potential, dt) by LAPACK's
tridiagonal `zgttrf`, which must swap no rows: no CN matrix of a
quadratic potential has been seen to pivot, and a swap raises
`NumericalAbort` naming the row. With 6A = L D U' (L and U' unit
bidiagonal, D the pivots d), the solver keeps the row-scaled factors
D^-1 6A = (D^-1 L D) U' in LAPACK band storage, and 1/d. Each step forms
12 B psi_old from integer weights, multiplies it by 1/d, runs two
in-place unit-diagonal `ztbtrs` sweeps, forward through D^-1 L D and back
through U', which leave 2 A^-1 B psi_old, and makes one subtraction. A
unit diagonal means neither sweep divides, where LAPACK's `zgttrs`
divides by a complex pivot on every row of its back substitution, each
division waiting on the one before. On the oracle benchmark's
2001-node harmonic grid a step takes about 47 us, against 56 us with
`zgttrs` (traced, 2-vCPU x86-64 Linux).

Importing the package loads no scipy module. The first solver built
loads scipy's f2py LAPACK extension, `scipy.linalg._flapack`, on its
own and no other scipy module: in a fresh interpreter that build takes
about 5 ms and peaks at 37 MiB resident, where importing `scipy.linalg`
took about 220 ms and peaked at 57 MiB (2-vCPU x86-64 Linux, Python
3.11, scipy 1.17).

The solver refuses to run once the wavefunction stops being
negligible at the grid edges: a contaminated (reflecting) run is
worthless as an oracle. A unit-peak Gaussian's modulus
exp(-x^2 / 4 sigma^2) falls below `EDGE_AMPLITUDE_LIMIT` = 1e-12 about
10.5 widths sigma from its center, so a grid should span the packet
center by more than that at every step; comfortably more is cheaper
than a surprise abort.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

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


def _flapack():
    """scipy's f2py LAPACK extension, loaded without the scipy.linalg package.

    The module is registered under its own name, so a later
    `import scipy.linalg` reuses it and its functions.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(
            "the Crank-Nicolson solver needs scipy/linalg/_flapack; scipy is not installed", name=name
        )
    directory = Path(scipy.submodule_search_locations[0], "linalg")
    files = [directory / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((f for f in files if f.is_file()), None)
    if path is None:
        names = ", ".join(f.name for f in files)
        raise ImportError(f"no scipy LAPACK extension in {directory} (looked for {names})", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    sys.modules[name] = module
    loader.exec_module(module)
    return module


class CrankNicolsonSolver:
    """Factorized Numerov-Crank-Nicolson stepper for one (grid, V, dt) triple.

    The unpivoted LU of 6A is stored as two unit bidiagonal band factors
    and the reciprocal pivots, so a step is two division-free sweeps.
    """

    def __init__(self, grid: Grid1D, potential: Potential, params: PhysParams, dt: float):
        if not 0 < dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.grid = grid
        self.dt = dt
        hbar, m = params.hbar, params.mass
        kinetic = hbar**2 / (m * grid.dx**2)
        v = potential.value(grid.nodes)
        a = 1j * dt / (2.0 * hbar)
        lapack = _flapack()

        # Solving 6A chi = 12 B psi gives chi = 2 A^-1 B psi. Column j of
        # B diag(V) carries V_j: the subdiagonal takes V[:-1], the
        # superdiagonal V[1:].
        diag = 5.0 + a * (6.0 * kinetic + 5.0 * v)
        lower = 0.5 + a * (0.5 * v[:-1] - 3.0 * kinetic)
        upper = 0.5 + a * (0.5 * v[1:] - 3.0 * kinetic)
        multipliers, pivots, superdiagonal, _, ipiv, info = lapack.zgttrf(lower, diag, upper)
        if info != 0:
            raise NumericalAbort(f"Crank-Nicolson factorization failed (LAPACK info {info})")
        swapped = np.flatnonzero(ipiv != np.arange(1, ipiv.size + 1))
        if swapped.size:
            row = int(swapped[0])
            raise NumericalAbort(
                f"Crank-Nicolson factorization swapped rows {row} and {row + 1}; "
                "the two-sweep step needs an unpivoted LU",
                node=row, x=float(grid.nodes[row]),
            )
        # 6A = L D U' with U' = D^-1 U, so D^-1 6A = (D^-1 L D) U': both
        # factors unit bidiagonal, in LAPACK band storage (row 0 holds the
        # superdiagonal, row 1 the subdiagonal; the unit diagonal is not
        # read), in Fortran order so that f2py passes them without a copy.
        self._inverse_pivots = 1.0 / pivots
        self._lower = np.zeros((2, pivots.size), dtype=complex, order="F")
        self._lower[1, :-1] = multipliers * pivots[:-1] * self._inverse_pivots[1:]
        self._upper = np.zeros((2, pivots.size), dtype=complex, order="F")
        self._upper[0, 1:] = superdiagonal * self._inverse_pivots[:-1]
        self._ztbtrs = lapack.ztbtrs

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
        # D^-1 12 B psi, complex even for a real psi and swept in place:
        # psi itself is left unchanged.
        b = np.multiply(psi, 10.0, dtype=complex)
        b[1:] += psi[:-1]
        b[:-1] += psi[1:]
        b *= self._inverse_pivots
        for factor, uplo in ((self._lower, "L"), (self._upper, "U")):
            b, info = self._ztbtrs(factor, b, uplo=uplo, diag="U", overwrite_b=1)
            if info != 0:
                t = float(time)
                raise NumericalAbort(f"Crank-Nicolson solve failed (LAPACK info {info}) at t={t:g}", t=t)
        b -= psi
        return b


def tdse_propagate(state: TdseState, dt: float, n_steps: int) -> TdseState:
    """Advance n_steps with one matrix factorization."""
    return _propagate(state, dt, n_steps, max(n_steps, 1))[-1]


def tdse_propagate_collecting(
    state: TdseState, dt: float, n_steps: int, every: int
) -> list[TdseState]:
    """Propagate keeping snapshots every `every` steps (initial included)."""
    return _propagate(state, dt, n_steps, every)


def _propagate(state: TdseState, dt: float, n_steps: int, every: int) -> list[TdseState]:
    """One factorization and one initial norm per run; the norm drift is checked at each snapshot."""
    solver = CrankNicolsonSolver(state.psi.grid, state.potential, state.params, dt)
    norm0 = trapezoid_norm(state.psi)
    done = 0

    def advance(previous: TdseState, n: int) -> TdseState:
        nonlocal done
        psi, t = previous.psi.values, previous.time
        for _ in range(n):
            psi = solver.step_values(psi, t)
            t += dt
        done += n
        field = ComplexField(state.psi.grid, psi, time=t)
        drift = trapezoid_norm(field) - norm0
        # Relative to the run's initial norm, so neither the state's scale
        # nor the snapshot spacing can change the verdict.
        if abs(drift) > NORM_DRIFT_LIMIT * norm0:
            relative = float(drift / norm0)
            raise NumericalAbort(
                f"norm drifted by {relative:.3g} of its initial value after {done} steps",
                t=float(t), value=relative, limit=NORM_DRIFT_LIMIT,
            )
        return TdseState(psi=field, potential=state.potential, params=state.params)

    return collect_snapshots(state, advance, n_steps, every)


def oracle_velocity(
    psi: ComplexField, params: PhysParams, x_window: tuple[float, float]
) -> RealField:
    """Bohmian velocity (hbar/m) Im(grad psi / psi) on the grid.

    Algebraically equal to grad(S)/m but needs no unwrapping. The
    modulus must stay above 1e-12 on `x_window`, ends included; values are
    clipped where the amplitude underflows outside it.
    """
    modulus = np.abs(psi.values)
    x = psi.grid.nodes
    small = (modulus <= NODE_MODULUS_LIMIT) & (x >= x_window[0]) & (x <= x_window[1])
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
