"""Bohmian quantum trajectories via a power-series action hierarchy.

The package propagates the coupled hierarchy of real action fields
whose order-0 member is the classical action, reconstructs amplitude
and phase at any hbar, and integrates Bohmian trajectories through
analytic, hierarchy-built, or grid-Schrodinger velocity fields. The
potential is V = k x^2 / 2: the free particle at k = 0, the harmonic
oscillator at k = m omega^2. Closed-form benchmarks (spreading free packet,
coherent oscillator packet) and a Crank-Nicolson oracle cross-check
every layer.

Each public name lives in the module that defines it, and is imported
from there: `from wkbohm.hierarchy import propagate_hierarchy`.
"""

__version__ = "0.1.0"  # bound first: `experiments` reads it while this import runs

from . import analytic, config, errors, experiments, hierarchy, numerics, potentials, tdse, trajectories
