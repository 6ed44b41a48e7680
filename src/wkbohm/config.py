"""Run configuration: strict flat key-value parsing with derived fields.

Configs are flat JSON objects (string/number/boolean values, plus one
list-valued key for the trajectory fan), each key given once. A run
reads the keys of every run, its experiment's (`EXPERIMENTS`) and its
model's (`MODELS`); any other key is rejected, so a typo in a physics
parameter can never silently fall back to a default. Each settable key
has one rule in `_RULES`; every error names the key and the violated
rule. In a `RunConfig` None leaves a key unset. One check,
`resolve_config`, rejects a given key that the run does not read,
applies the rules and fills in each unset key but a grid bound from the
tables, whether the config was parsed or built in code.
"""

from __future__ import annotations

import json
import os
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
# unset: a constant, a function of the run's `Model`, or None for no default.
EXPERIMENTS = {
    "figure1-short": _FAN,
    "figure1-asymptotic": _FAN,
    "hierarchy-convergence": {
        "order": 3, "t_max": lambda m: 0.2 * m.time_scale, "dt": _DT, **_GRID, "grid_points": 401,
    },
    "equivariance": {
        "t_max": lambda m: m.equivariance_t, "dt": _DT, "ensemble_n": 9, "ensemble_mode": "quantile",
        **_GRID, "grid_points": 2001,
    },
    # Its time step is 1e-3 time scales, so it does not read dt.
    "residuals": {"t_max": lambda m: m.residuals_t, **_GRID, "grid_points": 401},
}
# The keys every run reads besides `experiment` and `model`, with their
# defaults. Only a random-mode ensemble draws from `seed`, but one
# seeded config document must serve every experiment: the benchmark's
# cli-suite passes `seed` to all of its pairs.
_RUN_KEYS = {"hbar": 1.0, "mass": 1.0, "output_dir": "runs", "seed": 12345}


@dataclass(frozen=True)
class RunConfig:
    """An experiment configuration; None leaves a key unset (`resolve_config` resolves it)."""

    experiment: str
    model: str
    hbar: float | None = None
    mass: float | None = None
    sigma0: float | None = None
    p0: float | None = None
    omega: float | None = None
    a: float | None = None
    x0_fan: tuple | None = None
    grid_x_min: float | None = None
    grid_x_max: float | None = None
    grid_points: int | None = None
    order: int | None = None
    t_max: float | None = None
    dt: float | None = None
    ensemble_n: int | None = None
    ensemble_mode: str | None = None
    seed: int | None = None
    output_dir: str | None = None

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

    def log_modulus(self, x, t):
        """ln |psi| of the Gaussian packet, finite where |psi| underflows."""
        c, w = self.center(t), self.width(t)
        return -0.25 * np.log(2.0 * np.pi * w**2) - (x - c) ** 2 / (4.0 * w**2)


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
# and the physical keys it reads, each with its default.
MODELS = {
    "free": (_free_model, tuple(EXPERIMENTS), {"sigma0": 1.0, "p0": 0.0}),
    "harmonic": (_harmonic_model, ("hierarchy-convergence", "equivariance", "residuals"),
                 {"omega": 1.0, "a": 1.0}),
}


def _defaults(experiment: str, model: str) -> dict:
    """The keys a run of this experiment on this model reads but the pair, each with its default."""
    return {**_RUN_KEYS, **EXPERIMENTS[experiment], **MODELS[model][2]}


# Each settable key's rule, in the order given keys are checked: "real",
# "positive", an integer's smallest value, "fan" (a non-empty list of
# reals), a choice's options, or "name" (a non-empty string that is a path).
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
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"key {key!r} must be a non-empty list of numbers")
        return tuple(_number(f"{key}[{i}]", v, "real") for i, v in enumerate(value))
    if rule == "name":
        if not isinstance(value, str) or not value:
            raise ConfigError(f"key {key!r} must be a non-empty string")
        try:  # the bytes the OS gets: no NUL, and no lone surrogate that cannot be encoded
            if b"\0" not in os.fsencode(value):
                return value
        except UnicodeEncodeError:
            pass
        raise ConfigError(f"key {key!r} must be a path without NUL or lone surrogates, got {value!r}")
    if isinstance(rule, tuple):
        return _choice(key, value, rule)
    return _number(key, value, rule)


def _number(key: str, value, rule):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    if isinstance(rule, int):
        # Integers stay exact: a seed may exceed 2**64.
        if not isinstance(value, (int, np.integer)) and not float(value).is_integer():
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


def parse_config(text: str) -> RunConfig:
    """Parse a flat JSON config document and resolve it (`resolve_config`)."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
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
    for key, value in raw.items():  # None leaves a key unset, but a JSON null is of the wrong kind
        if value is None and key in _RULES:
            _value(key, value)
    return resolve_config(RunConfig(**raw))[0]


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises `ConfigError`."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config key {key!r} is given more than once")
        out[key] = value
    return out


def resolve_config(cfg: RunConfig) -> tuple[RunConfig, Model]:
    """`cfg` checked as a config document is and resolved, with its model.

    Each given key (not None) must be one the run reads and pass its
    rule (numpy scalars pass). Each unset key the run reads but a grid
    bound then gets its default: the constants first, then the model,
    then the defaults that depend on it. The result resolves to itself.
    Raises `ConfigError` for an undefined pair, a key the run does not
    read, a value or default against its key's rule, a lone or reversed
    grid bound, an unbuildable model, or `dt > t_max`.
    """
    _choice("experiment", cfg.experiment, EXPERIMENTS)
    defined = MODELS[_choice("model", cfg.model, MODELS)][1]
    if cfg.experiment not in defined:
        raise ConfigError(
            f"experiment {cfg.experiment!r} is not defined for model {cfg.model!r}; "
            f"pick one of {', '.join(defined)}"
        )
    defaults = _defaults(cfg.experiment, cfg.model)
    given = {key: getattr(cfg, key) for key in _RULES if getattr(cfg, key) is not None}
    unread = sorted(set(given).difference(defaults))
    if unread:
        raise ConfigError(
            f"experiment {cfg.experiment!r} on model {cfg.model!r} does not read key(s) "
            f"{', '.join(unread)}; it reads experiment, model, {', '.join(defaults)}"
        )
    cfg = replace(cfg, **{key: _value(key, value) for key, value in given.items()})
    if (cfg.grid_x_min is None) != (cfg.grid_x_max is None):
        raise ConfigError("keys 'grid_x_min' and 'grid_x_max' must be given together")
    if cfg.grid_x_min is not None and not cfg.grid_x_min < cfg.grid_x_max:
        raise ConfigError("key 'grid_x_min' must be < 'grid_x_max'")
    unset = {key: d for key, d in defaults.items() if d is not None and key not in given}
    cfg = replace(cfg, **{key: d for key, d in unset.items() if not callable(d)})
    # The model's derived scales (sigma0^2, m omega^2, the coherent
    # width, ...) can overflow or underflow for finite keys; such a
    # config is invalid, not a failed run.
    try:
        model = MODELS[cfg.model][0](cfg)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(
            f"model {cfg.model!r} cannot be built from this config: {type(exc).__name__}: {exc}"
        ) from exc
    cfg = replace(cfg, **{key: _value(key, d(model)) for key, d in unset.items() if callable(d)})
    # Checked with the defaults set, so a default dt past a short t_max is named too.
    if cfg.dt is not None and cfg.t_max is not None and not cfg.dt <= cfg.t_max:
        raise ConfigError(f"key 'dt' must be <= 't_max', got {cfg.dt!r} > {cfg.t_max!r}")
    return cfg, model


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def config_dict(cfg: RunConfig) -> dict:
    """The run's set keys, JSON-ready: the `validate` echo and the manifest's `config` block."""
    keys = ("experiment", "model", *_defaults(cfg.experiment, cfg.model))
    held = {key: getattr(cfg, key) for key in keys}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in held.items() if v is not None}


def serialize_config(cfg: RunConfig) -> str:
    """JSON document that reparses to an equal config."""
    return json.dumps(config_dict(cfg), indent=2, sort_keys=True) + "\n"
