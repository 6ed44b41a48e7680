"""Run configuration: strict flat key-value parsing with derived fields.

Configs are flat JSON objects (string/number/boolean values, plus one
list-valued key for the trajectory fan). A run reads the keys of every
run, its experiment's (`EXPERIMENTS`) and its model's (`MODELS`); any
other key is rejected, so a typo in a physics parameter can never
silently fall back to a default. Each settable key has one rule in
`_RULES`; every error names the key and the violated rule. An unset
key that the run reads, but a grid bound, gets its default under it in
`resolve_config`, whether the config was parsed or built in code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dc_fields, replace
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

_FAN = {"x0_fan": lambda m: [k * m.spec.sigma0 for k in (-2.0, -1.0, 0.0, 1.0, 2.0)]}
_DT = lambda m: 1e-3 * m.time_scale
_GRID = {"grid_x_min": None, "grid_x_max": None}  # unset: 10 packet widths around the centre
# Each experiment name maps to the run keys it reads, and each key to
# the default that `resolve_config` fills in when the config leaves it
# unset: a function of the run's `Model`, or None for the `RunConfig`
# field's own.
EXPERIMENTS = {
    "figure1-short": _FAN,
    "figure1-asymptotic": _FAN,
    "hierarchy-convergence": {
        "order": None, "t_max": lambda m: 0.2 * m.time_scale, "dt": _DT, **_GRID,
        "grid_points": lambda m: 401,
    },
    "equivariance": {
        "t_max": lambda m: m.equivariance_t, "dt": _DT, "ensemble_n": None, "ensemble_mode": None,
        **_GRID, "grid_points": lambda m: 2001,
    },
    # Its time step is 1e-3 time scales, so it does not read dt.
    "residuals": {"t_max": lambda m: m.residuals_t, **_GRID, "grid_points": lambda m: 401},
}
# The keys every run reads. Only a random-mode ensemble draws from
# `seed`, but one seeded config document must serve every experiment:
# the benchmark's cli-suite passes `seed` to all of its pairs.
_RUN_KEYS = ("experiment", "model", "hbar", "mass", "output_dir", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration with defaults resolved."""

    experiment: str
    model: str
    hbar: float = 1.0
    mass: float = 1.0
    sigma0: float = 1.0          # MODELS names the keys each model reads;
    p0: float = 0.0              # the harmonic sigma0 is the width that
    omega: float = 1.0           # resolve_config derives
    a: float = 1.0
    # resolve_config sets each key its run reads; only unset grid bounds stay None.
    x0_fan: tuple = ()
    grid_x_min: float | None = None
    grid_x_max: float | None = None
    grid_points: int | None = None
    order: int = 3
    t_max: float | None = None
    dt: float | None = None
    ensemble_n: int = 9
    ensemble_mode: str = "quantile"
    seed: int = 12345
    output_dir: str = "runs"

    def phys_params(self) -> PhysParams:
        return PhysParams(hbar=self.hbar, mass=self.mass)


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
        # The same holds for the initial width (derived for the oscillator).
        width = self.width(0.0)
        if not (0.0 < width < np.inf):
            raise ValueError(f"width {width!r} must be positive and finite")

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


# Each model name maps to its builder, the experiments defined for it
# and the physical keys it reads.
MODELS = {
    "free": (_free_model, tuple(EXPERIMENTS), ("sigma0", "p0")),
    "harmonic": (_harmonic_model, ("hierarchy-convergence", "equivariance", "residuals"), ("omega", "a")),
}


def _run_keys(experiment: str, model: str) -> tuple:
    """The keys a run of this experiment on this model reads."""
    return (*_RUN_KEYS, *EXPERIMENTS[experiment], *MODELS[model][2])


def build_model(cfg: RunConfig) -> Model:
    return MODELS[cfg.model][0](cfg)


# Each settable key's rule, in the order given keys are checked: "real",
# "positive", an integer's smallest value, "fan" (a non-empty list of
# reals), a choice's options, or "name" (a non-empty string).
_RULES = {
    "hbar": "positive", "mass": "positive", "sigma0": "positive", "p0": "real",
    "omega": "positive", "a": "real", "grid_x_min": "real", "grid_x_max": "real",
    "grid_points": 8, "order": 1, "t_max": "positive", "dt": "positive",
    "ensemble_n": 2, "seed": 0, "x0_fan": "fan", "ensemble_mode": SAMPLING_MODES,
    "output_dir": "name",
}


def _value(key: str, value):
    """`value` checked by the rule of `key`, in the form `RunConfig` holds."""
    rule = _RULES[key]
    if rule == "fan":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"key {key!r} must be a non-empty list of numbers")
        return tuple(_number(f"{key}[{i}]", v, "real") for i, v in enumerate(value))
    if rule == "name":
        if not isinstance(value, str) or not value:
            raise ConfigError(f"key {key!r} must be a non-empty string")
        return value
    if isinstance(rule, tuple):
        return _choice(key, value, rule)
    return _number(key, value, rule)


def _number(key: str, value, rule):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    if isinstance(rule, int):
        # Integers stay exact: a seed may exceed 2**64.
        if isinstance(value, float):
            if not value.is_integer():
                raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
            value = int(value)
        if value < rule:
            raise ConfigError(f"key {key!r} must be >= {rule}, got {value!r}")
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise ConfigError(f"key {key!r} must be finite, got {value!r}")
    if rule == "positive" and not number > 0:
        raise ConfigError(f"key {key!r} must be > 0, got {value!r}")
    return number


def _choice(key: str, value, options) -> str:
    if not isinstance(value, str) or value not in options:
        raise ConfigError(f"key {key!r} must be one of {', '.join(options)}; got {value!r}")
    return value


def _check_run(experiment, model) -> None:
    """Raise `ConfigError` unless both are known and the experiment is defined for the model."""
    _choice("experiment", experiment, EXPERIMENTS)
    defined = MODELS[_choice("model", model, MODELS)][1]
    if experiment not in defined:
        raise ConfigError(
            f"experiment {experiment!r} is not defined for model {model!r}; "
            f"pick one of {', '.join(defined)}"
        )


def parse_config(text: str) -> RunConfig:
    """Parse a flat JSON config document, check each given key by its rule, and resolve it."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")

    unknown = sorted(set(raw) - {f.name for f in dc_fields(RunConfig)})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key in ("experiment", "model"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    experiment, model = raw["experiment"], raw["model"]
    _check_run(experiment, model)
    keys = _run_keys(experiment, model)
    unread = sorted(set(raw).difference(keys))
    if unread:
        raise ConfigError(
            f"experiment {experiment!r} on model {model!r} does not read key(s) "
            f"{', '.join(unread)}; it reads {', '.join(keys)}"
        )

    given = {key: _value(key, raw[key]) for key in _RULES if key in raw}
    return resolve_config(RunConfig(experiment, model, **given))


def resolve_config(cfg: RunConfig) -> RunConfig:
    """`cfg` with each unset key (None, or an empty fan) its run reads set to its model default.

    Only the grid bounds may stay unset, and the harmonic `sigma0` becomes
    the derived width; a resolved config resolves to an equal one. Raises
    `ConfigError` for an experiment not defined for the model, a lone or
    reversed grid bound, a model that cannot be built, a default against
    its key's rule (a `dt` that underflows to 0 is named), or `dt > t_max`.
    """
    _check_run(cfg.experiment, cfg.model)
    if (cfg.grid_x_min is None) != (cfg.grid_x_max is None):
        raise ConfigError("keys 'grid_x_min' and 'grid_x_max' must be given together")
    if cfg.grid_x_min is not None and not cfg.grid_x_min < cfg.grid_x_max:
        raise ConfigError("key 'grid_x_min' must be < 'grid_x_max'")
    # The model's derived scales (sigma0^2, m omega^2, the coherent
    # width, ...) can overflow or underflow for finite keys; such a
    # config is invalid, not a failed run.
    try:
        model = build_model(cfg)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(
            f"model {cfg.model!r} cannot be built from this config: {type(exc).__name__}: {exc}"
        ) from exc
    defaults = {
        key: _value(key, default(model)) for key, default in EXPERIMENTS[cfg.experiment].items()
        if default is not None and getattr(cfg, key) in (None, ())
    }
    cfg = replace(cfg, **defaults, sigma0=model.spec.sigma0)
    # Checked with the defaults set, so a default dt past a short t_max is named too.
    if cfg.dt is not None and cfg.t_max is not None and not cfg.dt <= cfg.t_max:
        raise ConfigError(f"key 'dt' must be <= 't_max', got {cfg.dt!r} > {cfg.t_max!r}")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def config_dict(cfg: RunConfig) -> dict:
    """The run's set keys, JSON-ready: the `validate` echo and the manifest's `config` block."""
    out = {}
    for key in _run_keys(cfg.experiment, cfg.model):
        value = getattr(cfg, key)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def serialize_config(cfg: RunConfig) -> str:
    """JSON document that reparses to an equal config."""
    return json.dumps(config_dict(cfg), indent=2, sort_keys=True) + "\n"
