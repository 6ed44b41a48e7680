"""The model table: one record per physical system.

Each packet's wavefunction |psi| exp(i S / hbar), built in
`wkbohm.analytic` from the record's closed forms, is checked against
the Schrodinger equation, and the grid and comparison-window helpers
that read the record against the per-model formulas they replaced.
"""

import json

import numpy as np
import pytest

from wkbohm.analytic import free_packet_wavefunction, ho_wavefunction, spreading
from wkbohm.config import parse_config, resolve_config
from wkbohm.experiments import _comparison_window, _grid
from wkbohm.numerics import Grid1D

CASES = [
    ("free", {}),
    ("free", {"hbar": 0.7, "mass": 1.3}),
    ("free", {"hbar": 0.7, "mass": 1.3, "p0": 0.4}),
    ("harmonic", {}),
    ("harmonic", {"hbar": 0.7, "mass": 1.3}),
]
# The non-default units of the reference runs in tools/table_digests.py.
UNITS = {
    "free": {"hbar": 0.7, "mass": 1.3, "sigma0": 0.9, "p0": 0.4},
    "harmonic": {"hbar": 0.7, "mass": 1.3, "omega": 2.0, "a": 0.3},
}
WAVEFUNCTION = {"free": free_packet_wavefunction, "harmonic": ho_wavefunction}


def model_for(name, extra, experiment="residuals"):
    cfg = parse_config(json.dumps({"experiment": experiment, "model": name, **extra}))
    return cfg, resolve_config(cfg)[1]


def nodes_around(model, t, n=1601):
    c, w = model.center(t), model.width(t)
    return np.linspace(c - 8.0 * w, c + 8.0 * w, n)


@pytest.mark.parametrize(
    "name, extra",
    [("free", {}), ("free", {"p0": 1.0}), ("free", UNITS["free"]), ("harmonic", {}), ("harmonic", UNITS["harmonic"])],
)
def test_wavefunction_solves_the_schrodinger_equation(name, extra):
    # Five-point differences in x and t on 6 widths around the centre.
    cfg, model = model_for(name, extra)
    psi = lambda x, t: WAVEFUNCTION[name](model.spec, x, t)
    dt = 1e-4
    for t in (0.3 * model.time_scale, 1.7 * model.time_scale):
        c, w = model.center(t), model.width(t)
        x = np.linspace(c - 6.0 * w, c + 6.0 * w, 1201)
        h = x[1] - x[0]
        f = psi(x, t)
        dpsi_dt = (psi(x, t - 2 * dt) - 8 * psi(x, t - dt) + 8 * psi(x, t + dt) - psi(x, t + 2 * dt)) / (12 * dt)
        d2psi_dx2 = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h * h)
        residual = (
            1j * cfg.hbar * dpsi_dt[2:-2]
            + cfg.hbar**2 / (2.0 * cfg.mass) * d2psi_dx2
            - model.potential.value(x[2:-2]) * f[2:-2]
        )
        assert np.max(np.abs(residual)) / np.max(np.abs(f)) <= 1e-6


@pytest.mark.parametrize("name, extra", CASES)
def test_density_is_modulus_squared(name, extra):
    _, model = model_for(name, extra)
    for t in (0.0, 0.4 * model.time_scale):
        x = nodes_around(model, t)
        assert np.array_equal(model.density(x, t), model.modulus(x, t) ** 2)


def per_model_window(cfg, spec, x, t):
    """The comparison window written out per model."""
    if cfg.model == "free":
        return np.abs(x - spec.v0 * t) <= 2.0 * spreading(spec, t).sigma_t
    return np.abs(x - spec.a * np.cos(spec.omega * t)) <= 2.0 * spec.sigma0


def per_model_half_width(cfg, spec, t_end, spread):
    """Default grid half-widths written out per model, spread or not to t_end."""
    if cfg.model == "harmonic":
        return abs(spec.a) + 10.0 * spec.sigma0
    if spread:
        time_scale = 2.0 * cfg.mass * cfg.sigma0**2 / cfg.hbar
        final_sigma = spec.sigma0 * float(np.sqrt(1.0 + (t_end / time_scale) ** 2))
        return abs(spec.v0) * t_end + 10.0 * final_sigma
    return 10.0 * cfg.sigma0 + abs(spec.v0) * t_end


@pytest.mark.parametrize("name, extra", CASES)
def test_window_and_grid_reproduce_the_per_model_formulas(name, extra):
    cfg, model = model_for(name, extra)
    ts = model.time_scale
    x = nodes_around(model, 0.0, n=4001)
    for t in (0.0, 0.2 * ts, model.residuals_t, model.equivariance_t):
        assert np.array_equal(
            _comparison_window(model, x, t), per_model_window(cfg, model.spec, x, t)
        )
    for t_end in (0.2 * ts, model.residuals_t):
        half = per_model_half_width(cfg, model.spec, t_end, spread=False)
        assert _grid(cfg, model, t_end, 0.0) == Grid1D(-half, half, 401)
    cfg, model = model_for(name, extra, experiment="equivariance")
    t_end = model.equivariance_t
    half = per_model_half_width(cfg, model.spec, t_end, spread=True)
    assert _grid(cfg, model, t_end, t_end) == Grid1D(-half, half, 2001)


def test_configured_grid_wins():
    cfg, model = model_for("harmonic", {"grid_x_min": -3.0, "grid_x_max": 4.0, "grid_points": 64})
    assert _grid(cfg, model, 1.0, 1.0) == Grid1D(-3.0, 4.0, 64)
