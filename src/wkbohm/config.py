"""Run configuration: strict flat key-value parsing with derived fields.

Configs are flat JSON objects (string/number/boolean values, plus one
list-valued key for the trajectory fan). A run reads the keys of every
run, its experiment's (`EXPERIMENTS`) and its model's (`MODELS`); any
other key is rejected, so a typo in a physics parameter can never
silently fall back to a default. Each numeric key has one rule in
`_NUMBERS`; every error names the key and the violated rule. An unset
key that the run reads, but a grid bound, gets its default under it.
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
# the default that `parse_config` fills in when the config leaves it
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

_COHERENT_WIDTH_RTOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration with defaults resolved."""

    experiment: str
    model: str
    hbar: float = 1.0
    mass: float = 1.0
    sigma0: float = 1.0          # MODELS names the keys each model reads;
    p0: float = 0.0              # the harmonic sigma0 is derived from
    omega: float = 1.0           # hbar, mass and omega
    a: float = 1.0
    # parse_config resolves each key its run reads; only unset grid bounds stay None.
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
    "harmonic": (
        _harmonic_model,
        ("hierarchy-convergence", "equivariance", "residuals"),
        ("omega", "a", "sigma0"),
    ),
}


def _run_keys(experiment: str, model: str) -> tuple:
    """The keys a run of this experiment on this model reads."""
    return (*_RUN_KEYS, *EXPERIMENTS[experiment], *MODELS[model][2])


def build_model(cfg: RunConfig) -> Model:
    return MODELS[cfg.model][0](cfg)


# Each numeric key's rule: "real", "positive", or, for an integer key,
# the smallest value it may take.
_NUMBERS = {
    "hbar": "positive", "mass": "positive", "sigma0": "positive", "p0": "real",
    "omega": "positive", "a": "real", "grid_x_min": "real", "grid_x_max": "real",
    "grid_points": 8, "order": 1, "t_max": "positive", "dt": "positive",
    "ensemble_n": 2, "seed": 0,
}


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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat JSON config document, with the run's defaults filled in."""
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
    experiment = _choice("experiment", raw["experiment"], EXPERIMENTS)
    model = _choice("model", raw["model"], MODELS)
    defined = MODELS[model][1]
    if experiment not in defined:
        raise ConfigError(
            f"experiment {experiment!r} is not defined for model {model!r}; "
            f"pick one of {', '.join(defined)}"
        )
    keys = _run_keys(experiment, model)
    unread = sorted(set(raw).difference(keys))
    if unread:
        raise ConfigError(
            f"experiment {experiment!r} on model {model!r} does not read key(s) "
            f"{', '.join(unread)}; it reads {', '.join(keys)}"
        )

    out = {key: _number(key, raw[key], rule) for key, rule in _NUMBERS.items() if key in raw}
    out.update(experiment=experiment, model=model)
    if "x0_fan" in raw:
        fan = raw["x0_fan"]
        if not isinstance(fan, list) or not fan:
            raise ConfigError("key 'x0_fan' must be a non-empty list of numbers")
        out["x0_fan"] = tuple(_number(f"x0_fan[{i}]", v, "real") for i, v in enumerate(fan))
    if "ensemble_mode" in raw:
        out["ensemble_mode"] = _choice("ensemble_mode", raw["ensemble_mode"], SAMPLING_MODES)
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            raise ConfigError("key 'output_dir' must be a non-empty string")
        out["output_dir"] = raw["output_dir"]
    if ("grid_x_min" in out) != ("grid_x_max" in out):
        raise ConfigError("keys 'grid_x_min' and 'grid_x_max' must be given together")
    if "grid_x_min" in out and not out["grid_x_min"] < out["grid_x_max"]:
        raise ConfigError("key 'grid_x_min' must be < 'grid_x_max'")

    cfg = RunConfig(**out)
    # The model's derived scales (sigma0^2, m omega^2, the coherent
    # width, ...) can overflow or underflow for finite keys; such a
    # config is invalid, not a failed run.
    try:
        built = build_model(cfg)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(
            f"model {model!r} cannot be built from this config: {type(exc).__name__}: {exc}"
        ) from exc
    spec = built.spec
    # The harmonic spec derives its width; the free spec holds the key's.
    if "sigma0" in raw and abs(cfg.sigma0 - spec.sigma0) > _COHERENT_WIDTH_RTOL * spec.sigma0:
        raise ConfigError(
            f"key 'sigma0'={cfg.sigma0!r} violates the coherent-width constraint "
            f"sigma0 = sqrt(hbar/(2 mass omega)) = {spec.sigma0!r}"
        )
    # Parsed again with each unset key's model default written in, every
    # default passes its key's rule: a dt that underflows to 0 is named.
    defaults = {key: f(built) for key, f in EXPERIMENTS[experiment].items() if f and key not in raw}
    if defaults:
        return parse_config(json.dumps({**raw, **defaults}))
    # Checked with the defaults written in, so a default dt past a short t_max is named too.
    if cfg.dt is not None and cfg.t_max is not None and not cfg.dt <= cfg.t_max:
        raise ConfigError(f"key 'dt' must be <= 't_max', got {cfg.dt!r} > {cfg.t_max!r}")
    return replace(cfg, sigma0=spec.sigma0)


def check_resolved(cfg: RunConfig) -> None:
    """Raise `ConfigError` naming each key the run reads that `parse_config` would have filled in.

    A `RunConfig` built directly keeps None (or an empty fan) in those
    keys; only the grid bounds may stay unset.
    """
    unset = [
        key for key, default in EXPERIMENTS[cfg.experiment].items()
        if default is not None and getattr(cfg, key) in (None, ())
    ]
    if unset:
        raise ConfigError(
            f"key(s) {', '.join(unset)} of this {cfg.experiment!r} run are unset; "
            "build the RunConfig with config.parse_config, which fills in each key's default"
        )


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
