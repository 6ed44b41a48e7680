"""The model table: one record per physical system.

Each record's closed forms are checked against the packet
wavefunctions in `wkbohm.analytic`, and the grid and comparison-window
helpers that read it against the per-model formulas they replaced.
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
WAVEFUNCTION = {"free": free_packet_wavefunction, "harmonic": ho_wavefunction}


def model_for(name, extra, experiment="residuals"):
    cfg = parse_config(json.dumps({"experiment": experiment, "model": name, **extra}))
    return cfg, resolve_config(cfg)[1]


def nodes_around(model, t, n=1601):
    c, w = model.center(t), model.width(t)
    return np.linspace(c - 8.0 * w, c + 8.0 * w, n)


@pytest.mark.parametrize("name, extra", CASES)
def test_modulus_and_action_match_the_wavefunction(name, extra):
    cfg, model = model_for(name, extra)
    for t in (0.0, 0.3 * model.time_scale, 1.7 * model.time_scale):
        x = nodes_around(model, t)
        psi = WAVEFUNCTION[name](model.spec, x, t)
        assert np.max(np.abs(model.modulus(x, t) - np.abs(psi))) <= 1e-12
        # S is fixed only up to a space-independent constant.
        ds = model.action(x, t) - cfg.hbar * np.unwrap(np.angle(psi))
        assert np.ptp(ds) <= 1e-12


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
