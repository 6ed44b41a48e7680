"""Bohmian quantum trajectories via a power-series action hierarchy.

The package propagates the coupled hierarchy of real action fields
whose order-0 member is the classical action, reconstructs amplitude
and phase at any hbar, and integrates Bohmian trajectories through
analytic, hierarchy-built, or grid-Schrodinger velocity fields. The
potential is V = k x^2 / 2: the free particle at k = 0, the harmonic
oscillator at k = m omega^2. Closed-form benchmarks (spreading free packet,
coherent oscillator packet) and a Crank-Nicolson oracle cross-check
every layer.
"""

__version__ = "0.1.0"

from .analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    PhysParams,
    SpreadingFactors,
    free_packet_action,
    free_packet_asymptotic_velocity,
    free_packet_trajectory,
    free_packet_trajectory_series,
    free_packet_velocity,
    free_packet_wavefunction,
    ho_action,
    ho_trajectory,
    ho_velocity,
    ho_wavefunction,
    spreading,
)
from .config import RunConfig, load_config, parse_config, serialize_config
from .errors import (
    CausticDetected,
    CflViolation,
    ConfigError,
    EdgeContamination,
    NonFiniteFieldError,
    NumericalAbort,
    WkbohmError,
)
from .experiments import RunOutput, run_experiment
from .hierarchy import (
    HierarchyState,
    PolarFields,
    complex_action,
    complex_velocity_residual,
    hierarchy_rhs,
    hierarchy_wavefunction,
    init_hierarchy,
    propagate_hierarchy,
    qhj_residual,
    qhj_residual_from_series,
    reconstruct_polar,
    truncated_velocity_field,
)
from .numerics import (
    ComplexField,
    Grid1D,
    RealField,
    cubic_cell_evaluate,
    cubic_cell_table,
    cubic_interpolate,
)
from .potentials import Potential
from .tdse import (
    CrankNicolsonSolver,
    TdseState,
    oracle_velocity,
    tdse_propagate,
    tdse_propagate_collecting,
)
from .trajectories import (
    AsymptoticFit,
    CrossingReport,
    Ensemble,
    FreePacketVelocityField,
    GriddedVelocityField,
    OscillatorVelocityField,
    Trajectory,
    check_no_crossing,
    equivariance_check,
    fit_asymptotic_velocity,
    integrate_bohmian,
    integrate_ensemble,
    ks_distance,
    sample_initial_positions,
)
