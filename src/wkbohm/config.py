"""Run configuration: strict flat key-value parsing with derived fields.

Configs are flat JSON objects (string/number/boolean values, plus one
list-valued key for the trajectory fan). Unknown keys are rejected so
a typo in a physics parameter can never silently fall back to a
default. All numeric invariants are checked here, naming the key and
the violated constraint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dc_fields
from typing import Callable

import numpy as np

from .analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    PhysParams,
    free_packet_action,
    free_packet_modulus,
    ho_action,
    ho_modulus,
    spreading,
)
from .errors import ConfigError
from .potentials import Potential
from .trajectories import SAMPLING_MODES, FreePacketVelocityField, OscillatorVelocityField

EXPERIMENTS = (
    "figure1-short",
    "figure1-asymptotic",
    "hierarchy-convergence",
    "equivariance",
    "residuals",
)

_COHERENT_WIDTH_RTOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration with defaults resolved."""

    experiment: str
    model: str
    hbar: float = 1.0
    mass: float = 1.0
    sigma0: float = 1.0          # derived for the harmonic model
    p0: float = 0.0              # free model only
    omega: float = 1.0           # harmonic model only
    a: float = 1.0               # harmonic model only
    x0_fan: tuple = ()           # () means the default fan of the experiment
    grid_x_min: float | None = None
    grid_x_max: float | None = None
    grid_points: int | None = None
    order: int = 3
    t_max: float | None = None   # None means the experiment's own default
    dt: float | None = None      # None means 1e-3 natural time units
    ensemble_n: int = 9
    ensemble_mode: str = "quantile"
    seed: int = 12345
    output_dir: str = "runs"

    def phys_params(self) -> PhysParams:
        return PhysParams(hbar=self.hbar, mass=self.mass)

    def default_fan(self) -> tuple:
        if self.x0_fan:
            return self.x0_fan
        s = self.sigma0
        return tuple(k * s for k in (-2.0, -1.0, 0.0, 1.0, 2.0))


_FIELD_TYPES = {f.name: f for f in dc_fields(RunConfig)}


@dataclass(frozen=True)
class Model:
    """Everything the experiments need to know about one physical system.

    `modulus(x, t)` and `action(x, t)` are the exact |psi| and S;
    `center(t)` and `width(t)` locate the packet. `natural_scale` names
    the parameter that, with hbar = m = 1, makes the units natural.
    """

    spec: GaussianPacketSpec | OscillatorSpec
    potential: Potential
    provider: FreePacketVelocityField | OscillatorVelocityField
    modulus: Callable
    action: Callable
    center: Callable
    width: Callable
    time_scale: float            # packet spreading time or 1/omega
    equivariance_t: float        # default end of the equivariance run
    residuals_t: float           # default residual evaluation time
    plane_wave_p0: float         # momentum of the order-0 plane-wave check
    natural_scale: tuple[str, float]

    def __post_init__(self):
        # Every experiment's time axis is in units of this scale; one
        # that underflows to 0 (sigma0^2) or overflows (1/omega) would
        # turn each table into NaNs or divisions by zero.
        if not (0.0 < self.time_scale < np.inf):
            raise ValueError(f"time scale {self.time_scale!r} must be positive and finite")

    def density(self, x, t):
        return self.modulus(x, t) ** 2


def _free_model(cfg: RunConfig) -> Model:
    spec = GaussianPacketSpec(params=cfg.phys_params(), sigma0=cfg.sigma0, p0=cfg.p0)
    time_scale = 2.0 * cfg.mass * cfg.sigma0**2 / cfg.hbar
    return Model(
        spec=spec,
        potential=Potential.free(),
        provider=FreePacketVelocityField(spec),
        modulus=lambda x, t: free_packet_modulus(spec, x, t),
        action=lambda x, t: free_packet_action(spec, x, t),
        center=lambda t: spec.v0 * t,
        width=lambda t: spreading(spec, t).sigma_t,
        time_scale=time_scale,
        equivariance_t=time_scale,  # u = 1
        residuals_t=0.5 * time_scale,
        plane_wave_p0=cfg.p0,
        natural_scale=("sigma0", cfg.sigma0),
    )


def _harmonic_model(cfg: RunConfig) -> Model:
    osc = OscillatorSpec(params=cfg.phys_params(), omega=cfg.omega, a=cfg.a)
    time_scale = 1.0 / cfg.omega
    return Model(
        spec=osc,
        potential=Potential.harmonic(cfg.mass, cfg.omega),
        provider=OscillatorVelocityField(osc),
        modulus=lambda x, t: ho_modulus(osc, x, t),
        action=lambda x, t: ho_action(osc, x, t),
        center=lambda t: osc.a * np.cos(osc.omega * t),
        width=lambda t: osc.sigma0,
        time_scale=time_scale,
        equivariance_t=osc.period,
        residuals_t=0.3 * time_scale,
        plane_wave_p0=0.0,
        natural_scale=("omega", cfg.omega),
    )


# Each model name maps to its builder and the experiments defined for it.
MODELS = {
    "free": (_free_model, EXPERIMENTS),
    "harmonic": (_harmonic_model, ("hierarchy-convergence", "equivariance", "residuals")),
}


def build_model(cfg: RunConfig) -> Model:
    return MODELS[cfg.model][0](cfg)


def _require_number(key: str, value, *, integer: bool = False, positive: bool = False,
                    nonneg: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    if integer and not float(value).is_integer():
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"key {key!r} must be > 0, got {value!r}")
    if nonneg and value < 0:
        raise ConfigError(f"key {key!r} must be >= 0, got {value!r}")
    return int(value) if integer else float(value)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat JSON config document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")

    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key in ("experiment", "model"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    out: dict = {}
    if raw["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"key 'experiment' must be one of {', '.join(EXPERIMENTS)}; got {raw['experiment']!r}"
        )
    if not isinstance(raw["model"], str) or raw["model"] not in MODELS:
        raise ConfigError(f"key 'model' must be one of {', '.join(MODELS)}; got {raw['model']!r}")
    defined = MODELS[raw["model"]][1]
    if raw["experiment"] not in defined:
        raise ConfigError(
            f"experiment {raw['experiment']!r} is not defined for model {raw['model']!r}; "
            f"pick one of {', '.join(defined)}"
        )
    out["experiment"] = raw["experiment"]
    out["model"] = raw["model"]

    for key, kw in (
        ("hbar", dict(positive=True)),
        ("mass", dict(positive=True)),
        ("p0", dict()),
        ("omega", dict(positive=True)),
        ("a", dict()),
    ):
        if key in raw:
            out[key] = _require_number(key, raw[key], **kw)

    hbar = out.get("hbar", 1.0)
    mass = out.get("mass", 1.0)
    omega = out.get("omega", 1.0)

    if out["model"] == "harmonic":
        coherent = float(np.sqrt(hbar / (2.0 * mass * omega)))
        if "sigma0" in raw:
            given = _require_number("sigma0", raw["sigma0"], positive=True)
            if abs(given - coherent) > _COHERENT_WIDTH_RTOL * coherent:
                raise ConfigError(
                    f"key 'sigma0'={given!r} violates the coherent-width constraint "
                    f"sigma0 = sqrt(hbar/(2 mass omega)) = {coherent!r}"
                )
        out["sigma0"] = coherent
    elif "sigma0" in raw:
        out["sigma0"] = _require_number("sigma0", raw["sigma0"], positive=True)

    if "x0_fan" in raw:
        fan = raw["x0_fan"]
        if not isinstance(fan, list) or not fan:
            raise ConfigError("key 'x0_fan' must be a non-empty list of numbers")
        out["x0_fan"] = tuple(
            _require_number(f"x0_fan[{i}]", v) for i, v in enumerate(fan)
        )

    for key in ("grid_x_min", "grid_x_max"):
        if key in raw:
            out[key] = _require_number(key, raw[key])
    if "grid_points" in raw:
        out["grid_points"] = _require_number("grid_points", raw["grid_points"], integer=True)
        if out["grid_points"] < 8:
            raise ConfigError(f"key 'grid_points' must be >= 8, got {out['grid_points']}")
    if (out.get("grid_x_min") is not None) != (out.get("grid_x_max") is not None):
        raise ConfigError("keys 'grid_x_min' and 'grid_x_max' must be given together")
    if out.get("grid_x_min") is not None and not out["grid_x_min"] < out["grid_x_max"]:
        raise ConfigError("key 'grid_x_min' must be < 'grid_x_max'")

    if "order" in raw:
        out["order"] = _require_number("order", raw["order"], integer=True)
        if out["order"] < 1:
            raise ConfigError(f"key 'order' must be >= 1, got {out['order']}")
    if "t_max" in raw:
        out["t_max"] = _require_number("t_max", raw["t_max"], positive=True)
    if "dt" in raw:
        out["dt"] = _require_number("dt", raw["dt"], positive=True)
    if "ensemble_n" in raw:
        out["ensemble_n"] = _require_number("ensemble_n", raw["ensemble_n"], integer=True)
        if out["ensemble_n"] < 2:
            raise ConfigError(f"key 'ensemble_n' must be >= 2, got {out['ensemble_n']}")
    if "ensemble_mode" in raw:
        if raw["ensemble_mode"] not in SAMPLING_MODES:
            raise ConfigError(
                f"key 'ensemble_mode' must be one of {', '.join(SAMPLING_MODES)}; "
                f"got {raw['ensemble_mode']!r}"
            )
        out["ensemble_mode"] = raw["ensemble_mode"]
    if "seed" in raw:
        out["seed"] = _require_number("seed", raw["seed"], integer=True, nonneg=True)
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            raise ConfigError("key 'output_dir' must be a non-empty string")
        out["output_dir"] = raw["output_dir"]

    cfg = RunConfig(**out)
    # The model's derived scales (sigma0^2, m omega^2, ...) can overflow,
    # and its time scale underflow, for finite keys; such a config is
    # invalid, not a failed run.
    try:
        build_model(cfg)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(
            f"model {cfg.model!r} cannot be built from this config: {type(exc).__name__}: {exc}"
        ) from exc
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def config_dict(cfg: RunConfig) -> dict:
    """Flat dict of all resolved fields, JSON-ready."""
    out = {}
    for f in dc_fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def serialize_config(cfg: RunConfig) -> str:
    """JSON document that reparses to an equal config."""
    d = {k: v for k, v in config_dict(cfg).items() if v is not None and v != []}
    return json.dumps(d, indent=2, sort_keys=True) + "\n"
