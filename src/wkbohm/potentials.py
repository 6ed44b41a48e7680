"""The quadratic potential V = k x^2 / 2; the free particle is k = 0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Potential:
    """V(x) = stiffness x^2 / 2 and its gradient, at arbitrary points."""

    stiffness: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.stiffness) and self.stiffness >= 0):
            raise ValueError(f"stiffness must be finite and >= 0, got {self.stiffness!r}")

    def value(self, x):
        return 0.5 * self.stiffness * np.asarray(x, dtype=float) ** 2

    def gradient(self, x):
        return self.stiffness * np.asarray(x, dtype=float)

    @staticmethod
    def free() -> "Potential":
        return Potential(0.0)

    @staticmethod
    def harmonic(mass: float, omega: float) -> "Potential":
        """V = (1/2) m omega^2 x^2."""
        if not (mass > 0 and omega > 0):
            raise ValueError("harmonic potential needs mass > 0 and omega > 0")
        return Potential(mass * omega**2)
