"""External potentials: free, harmonic, and grid-tabulated."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import Grid1D, cubic_cell_evaluate, cubic_cell_table, derivative_values


@dataclass(frozen=True)
class Potential:
    """V(x) and its gradient, evaluable at arbitrary points.

    Use the factory constructors; `kind` records which family the
    instance belongs to and `parameters` its defining numbers.
    """

    kind: str
    parameters: dict
    _value: Callable
    _grad: Callable

    def value(self, x):
        return self._value(np.asarray(x, dtype=float))

    def gradient(self, x):
        return self._grad(np.asarray(x, dtype=float))

    @staticmethod
    def free() -> "Potential":
        return Potential("free", {}, lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))

    @staticmethod
    def harmonic(mass: float, omega: float) -> "Potential":
        """V = (1/2) m omega^2 x^2."""
        if not (mass > 0 and omega > 0):
            raise ValueError("harmonic potential needs mass > 0 and omega > 0")
        k = mass * omega**2
        return Potential(
            "harmonic",
            {"mass": mass, "omega": omega},
            lambda x: 0.5 * k * x**2,
            lambda x: k * x,
        )

    @staticmethod
    def tabulated(grid: Grid1D, values: np.ndarray) -> "Potential":
        """Cubic interpolation of tabulated samples; gradient by stencil.

        The cell tables of the samples and of their gradient are built once.
        """
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.n_points,):
            raise ValueError("tabulated potential must have one value per grid node")
        if not np.all(np.isfinite(v)):
            raise ValueError("tabulated potential must be finite on the grid")
        cells = cubic_cell_table(v)
        grad_cells = cubic_cell_table(derivative_values(v, grid.dx))
        return Potential(
            "tabulated",
            {"grid": grid},
            lambda x: cubic_cell_evaluate(grid, cells, x),
            lambda x: cubic_cell_evaluate(grid, grad_cells, x),
        )
