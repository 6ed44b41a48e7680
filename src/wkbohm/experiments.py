"""Experiment orchestration and run outputs.

Each experiment writes delimited tables plus a manifest. The manifest
is created first (so an aborted run still identifies itself), then
rewritten at the end with per-file checksums, metrics, and the final
status. Data tables are byte-reproducible for identical configs;
manifest timestamps are the one intentional exception.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import free_packet_asymptotic_velocity, free_packet_trajectory
from .config import Model, RunConfig, config_dict, resolve_config
from .errors import NumericalAbort, WkbohmError
from .hierarchy import (
    HierarchyState,
    complex_velocity_residual,
    propagate_hierarchy,
    qhj_residual_from_series,
    reconstruct_polar,
)
from .numerics import ComplexField, Grid1D, RealField
from .potentials import Potential
from .tables import emit_table, sha256_of
from .trajectories import (
    fit_asymptotic_velocity,
    integrate_ensemble_positions,
    ks_distance,
    sample_initial_positions,
    Trajectory,
)

FIGURE_SHORT_U_MAX = 1.5
FIGURE_ASYMPTOTIC_U_MAX = 50.0
FIT_WINDOW_U = (20.0, 40.0)


@dataclass
class RunOutput:
    """What a run produced and where."""

    out_dir: Path
    manifest_path: Path
    files: dict = dc_field(default_factory=dict)
    metrics: dict = dc_field(default_factory=dict)
    status: str = "ok"
    error: str | None = None
    abort: dict | None = None


def run_experiment(cfg: RunConfig, out_dir: str | None = None) -> RunOutput:
    """Execute the configured experiment under its output directory.

    Numerical aborts (caustic, CFL, window exits) are recorded in the
    manifest as status "aborted", with the abort's known location
    (order, node, x, t, value, limit) in its `abort` block; any other
    package error, ValueError, ArithmeticError or MemoryError from the
    runner (for example a grid that misses the packet, a float overflow,
    or a time grid too long to allocate) as status "failed", with its
    type and message; partial outputs are retained and neither raises.
    Any other exception (a defect, or an interrupt) is recorded as
    "failed" too and re-raised, so the manifest never stays at
    "running". A run directory that cannot be created, or whose first
    manifest cannot be written, raises `WkbohmError` naming the path.
    `cfg` is resolved first (`config.resolve_config`, whose model the run
    uses): one built in code is checked as a document is, or raises
    `ConfigError` before anything is written. The manifest's `config`
    block is the resolved config's `validate` echo, `output_dir` the one used.
    """
    cfg, model = resolve_config(cfg)
    output_dir = str(out_dir if out_dir is not None else cfg.output_dir)
    run_dir = Path(output_dir) / cfg.experiment
    manifest_path = run_dir / "manifest.json"
    out = RunOutput(out_dir=run_dir, manifest_path=manifest_path)

    head = {
        "package": "wkbohm", "version": __version__, "created_utc": _utc_now(),
        "units": _unit_note(cfg, model), "config": {**config_dict(cfg), "output_dir": output_dir},
    }
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(manifest_path, head, None, out, status="running")
    except (OSError, ValueError) as exc:
        raise WkbohmError(f"cannot create run directory {str(run_dir)!r}: {exc}") from exc

    runner = {
        "figure1-short": _run_figure1_short,
        "figure1-asymptotic": _run_figure1_asymptotic,
        "hierarchy-convergence": _run_hierarchy_convergence,
        "equivariance": _run_equivariance,
        "residuals": _run_residuals,
    }[cfg.experiment]
    try:
        # An overflow reaches the user through the table check, not as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            runner(cfg, model, run_dir, out)
    except BaseException as exc:
        out.status = "aborted" if isinstance(exc, NumericalAbort) else "failed"
        out.error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, NumericalAbort):
            out.abort = _abort_fields(exc)
        if not isinstance(exc, (WkbohmError, ValueError, ArithmeticError, MemoryError)):
            _write_manifest(manifest_path, head, _utc_now(), out, status=out.status)
            raise
    _write_manifest(manifest_path, head, _utc_now(), out, status=out.status)
    return out


def _abort_fields(exc: NumericalAbort) -> dict:
    """The abort's location fields that its guard set, as JSON numbers."""
    kinds = {"order": int, "node": int, "x": float, "t": float, "value": float, "limit": float}
    return {
        name: kind(getattr(exc, name))
        for name, kind in kinds.items()
        if getattr(exc, name) is not None
    }


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def _unit_note(cfg: RunConfig, model: Model) -> str:
    name, value = model.natural_scale
    if cfg.hbar == 1.0 and cfg.mass == 1.0 and value == 1.0:
        return f"natural units (hbar = m = {name} = 1)"
    return "model units as configured (hbar={}, mass={})".format(cfg.hbar, cfg.mass)


def _write_manifest(path, head: dict, finished, out: RunOutput, status: str) -> None:
    files = [
        {"name": name, "bytes": Path(p).stat().st_size, "sha256": sha256_of(p)}
        for name, p in sorted(out.files.items())
    ]
    doc = {
        **head,
        "finished_utc": finished,
        "status": status,
        "error": out.error,
        "abort": out.abort,
        "files": files,
        "metrics": out.metrics,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(out: RunOutput, run_dir: Path, name: str, columns) -> None:
    path = emit_table(run_dir / name, columns)
    out.files[name] = path


def _grid(cfg: RunConfig, model: Model, t_end: float, t_width: float) -> Grid1D:
    """The configured bounds, else 10 widths (at t_width) beyond the center at 0 and t_end."""
    if cfg.grid_x_min is not None:
        return Grid1D(cfg.grid_x_min, cfg.grid_x_max, cfg.grid_points)
    reach = max(abs(model.center(0.0)), abs(model.center(t_end)))
    half = reach + 10.0 * model.width(t_width)
    return Grid1D(-half, half, cfg.grid_points)


def _comparison_window(model: Model, x: np.ndarray, t: float) -> np.ndarray:
    """Grid nodes x within 2 packet widths of the center at t; at least one must exist."""
    center, half = model.center(t), 2.0 * model.width(t)
    window = np.abs(x - center) <= half
    if not window.any():
        raise ValueError(
            f"the comparison window [{center - half:g}, {center + half:g}] (2 packet widths "
            f"around the center at t={t:g}) holds no node of the grid "
            f"[{x[0]:g}, {x[-1]:g}] ({x.size} points)"
        )
    return window


# ---------------------------------------------------------------------------
# trajectory-fan figures

def _fan_columns(cfg: RunConfig, model: Model, u_grid: np.ndarray):
    """Times, each fan member's quantum positions, and the trajectory table's columns.

    Each member contributes, at each time, an analytic-free row and then a
    classical one.
    """
    spec = model.spec
    t_grid = u_grid * model.time_scale
    x0s = np.asarray(cfg.x0_fan, dtype=float)
    fan = free_packet_trajectory(spec, x0s[:, None], t_grid)
    paths = np.stack([fan, x0s[:, None] + spec.v0 * t_grid], axis=-1)
    columns = [
        ("t", "time", np.tile(np.repeat(t_grid, 2), x0s.size)),
        ("u", "1", np.tile(np.repeat(u_grid, 2), x0s.size)),
        ("x", "length", paths.reshape(-1)),
        ("source", "-", np.tile(np.array(["analytic-free", "classical"]), x0s.size * t_grid.size)),
        ("x0", "length", np.repeat(x0s, 2 * t_grid.size)),
    ]
    return t_grid, fan, columns


def _run_figure1_short(cfg: RunConfig, model: Model, run_dir: Path, out: RunOutput) -> None:
    u_grid = np.linspace(0.0, FIGURE_SHORT_U_MAX, 301)
    _, _, columns = _fan_columns(cfg, model, u_grid)
    _emit(out, run_dir, "trajectories.csv", columns)
    out.metrics = {"u_max": FIGURE_SHORT_U_MAX, "center_member_present": 0.0 in cfg.x0_fan}


def _run_figure1_asymptotic(cfg: RunConfig, model: Model, run_dir: Path, out: RunOutput) -> None:
    u_grid = np.linspace(0.0, FIGURE_ASYMPTOTIC_U_MAX, 1001)
    spec = model.spec
    t_grid, fan, columns = _fan_columns(cfg, model, u_grid)
    _emit(out, run_dir, "trajectories.csv", columns)

    ts = model.time_scale
    window = (FIT_WINDOW_U[0] * ts, FIT_WINDOW_U[1] * ts)
    x0s = [float(x0) for x0 in cfg.x0_fan]
    v_preds = [free_packet_asymptotic_velocity(spec, x0) for x0 in x0s]
    fits = [
        fit_asymptotic_velocity(Trajectory(times=t_grid, positions=xq, x0=x0, source="analytic-free"),
                                window, packet=spec)
        for x0, xq in zip(x0s, fan)
    ]
    rel_errors = [
        abs(fit.velocity - v_pred) / abs(v_pred) if v_pred != 0 else abs(fit.velocity)
        for fit, v_pred in zip(fits, v_preds)
    ]
    _emit(
        out, run_dir, "asymptotes.csv",
        [
            ("t", "time", np.tile(t_grid, len(x0s))),
            ("u", "1", np.tile(u_grid, len(x0s))),
            ("x", "length", np.concatenate([v_pred * t_grid for v_pred in v_preds])),
            ("x0", "length", np.repeat(x0s, t_grid.size)),
        ],
    )
    _emit(
        out, run_dir, "slopes.csv",
        [
            ("x0", "length", x0s),
            ("fitted_velocity", "velocity", [fit.velocity for fit in fits]),
            ("predicted_velocity", "velocity", v_preds),
            ("rel_error", "1", rel_errors),
            ("intercept", "length", [fit.intercept for fit in fits]),
            ("rms_residual", "length", [fit.residual for fit in fits]),
            ("n_samples", "1", [fit.n_samples for fit in fits]),
        ],
    )
    out.metrics = {
        "u_max": FIGURE_ASYMPTOTIC_U_MAX,
        "fit_window_u": list(FIT_WINDOW_U),
        "max_rel_slope_error": max(rel_errors),
    }


# ---------------------------------------------------------------------------
# hierarchy convergence

def _run_hierarchy_convergence(cfg: RunConfig, model: Model, run_dir: Path, out: RunOutput) -> None:
    n_steps = max(1, int(round(cfg.t_max / cfg.dt)))
    t_end = n_steps * cfg.dt
    grid = _grid(cfg, model, t_end, 0.0)
    x = grid.nodes
    window = _comparison_window(model, x, t_end)
    params = cfg.phys_params()
    orders = sorted({1, cfg.order, cfg.order + 2})
    # The hbar-free seed: s0 = S(0) and s1 = ln|psi(0)| from the closed
    # forms (finite where |psi| underflows), every higher order zero.
    seed = np.zeros((orders[-1] + 1, x.size))
    seed[0], seed[1] = model.action(x, 0.0), model.log_modulus(x, 0.0)

    # The hierarchy is triangular: rows 0..n of a higher-order run are
    # an order-n run, bit for bit. So propagate once at the top order
    # and read each lower truncation from the leading rows. An abort at
    # order m fails every configured order >= m at the same step; step
    # down to the highest order below m and propagate again. Once the
    # orders that finished are written, the abort of the lowest failed
    # attempt is raised: of all configured orders that abort, it is the
    # lowest one's error.
    top, failure = orders[-1], None
    while True:
        try:
            stack = propagate_hierarchy(
                HierarchyState(grid, seed[: top + 1]), model.potential, cfg.dt, n_steps, params=params
            )
            break
        except NumericalAbort as exc:
            below = [o for o in orders if exc.order is not None and o < exc.order]
            if not below:
                raise
            top, failure = below[-1], exc

    done, s_rec, r_rec = [], [], []
    for order in (o for o in orders if o <= top):
        state = HierarchyState(grid, stack.values[: order + 1], time=stack.time)
        # An overflowed amplitude aborts the order; underflowed nodes are kept.
        try:
            polar = reconstruct_polar(state, params)
        except NumericalAbort as exc:
            failure = exc
            break
        done.append(order)
        s_rec.append(polar.S.values)
        r_rec.append(polar.R.values)
    # Every order that finished is written, also when a higher one
    # aborted: one row per order of each (orders x nodes) array.
    s_rec, r_rec = np.reshape(s_rec, (-1, x.size)), np.reshape(r_rec, (-1, x.size))
    s_exact, r_exact = model.action(x, t_end), model.modulus(x, t_end)
    ds = (s_rec - s_exact)[:, window]
    scores = [  # (summary column, unit, manifest key, one value per order)
        ("max_err_S", "action", "S", np.abs(ds).max(axis=1)),
        ("max_err_S_offset_free", "action", "S_offset_free", (ds.max(axis=1) - ds.min(axis=1)) / 2.0),
        ("max_err_R", "1/sqrt(length)", "R", np.abs(r_rec - r_exact)[:, window].max(axis=1)),
    ]
    k = len(done)
    _emit(
        out, run_dir, "fields.csv",
        [
            ("order", "1", np.repeat(np.array(done, dtype=int), x.size)),
            ("x", "length", np.tile(x, k)),
            ("S_reconstructed", "action", s_rec.ravel()),
            ("S_exact", "action", np.tile(s_exact, k)),
            ("R_reconstructed", "1/sqrt(length)", r_rec.ravel()),
            ("R_exact", "1/sqrt(length)", np.tile(r_exact, k)),
        ],
    )
    _emit(out, run_dir, "summary.csv",
          [("order", "1", done)] + [(name, unit, values) for name, unit, _, values in scores])
    if failure is not None:
        raise failure
    out.metrics = {
        "t_end": t_end,
        "orders": orders,
        "window_halfwidth": "2 sigma_t around the packet center",
        "errors": {
            str(order): {key: float(values[i]) for _, _, key, values in scores}
            for i, order in enumerate(done)
        },
    }


# ---------------------------------------------------------------------------
# equivariance

def _run_equivariance(cfg: RunConfig, model: Model, run_dir: Path, out: RunOutput) -> None:
    grid = _grid(cfg, model, cfg.t_max, cfg.t_max)
    x = grid.nodes
    x0s = sample_initial_positions(
        RealField(grid, model.density(x, 0.0), 0.0), cfg.ensemble_n, cfg.ensemble_mode, cfg.seed
    )

    n_steps = max(4, int(round(cfg.t_max / cfg.dt)))
    t_grid = np.linspace(0.0, cfg.t_max, n_steps + 1)
    positions, n_valid = integrate_ensemble_positions(model.provider, x0s, t_grid)
    if int(n_valid.min()) < t_grid.size:
        # Named: the first member lost, at its last valid sample. The
        # closed-form fields' window is the whole line, so there only a
        # velocity that overflowed loses a member.
        member = int(np.argmin(n_valid))
        last = int(n_valid[member]) - 1
        raise NumericalAbort(
            "an ensemble member left the velocity-field window or reached a non-finite position",
            node=member, x=float(positions[member, last]), t=float(t_grid[last]),
        )

    checkpoints = [0.25, 0.5, 0.75, 1.0]
    steps = [int(round(frac * n_steps)) for frac in checkpoints]
    times = [float(t_grid[i]) for i in steps]
    ks = [
        ks_distance(positions[:, i], RealField(grid, model.density(x, t), t)) for i, t in zip(steps, times)
    ]
    ks_values = {f"{frac:.2f}": value for frac, value in zip(checkpoints, ks)}
    _emit(
        out, run_dir, "ks.csv",
        [
            ("t", "time", times),
            ("t_over_scale", "1", [t / model.time_scale for t in times]),
            ("ks", "1", ks),
            ("n", "1", [cfg.ensemble_n] * len(times)),
        ],
    )
    _emit(
        out, run_dir, "positions.csv",
        [("member", "1", np.arange(cfg.ensemble_n)), ("x0", "length", x0s),
         ("x_final", "length", positions[:, -1])],
    )
    out.metrics = {
        "ks": ks_values,
        "ks_max": max(ks_values.values()),
    }


# ---------------------------------------------------------------------------
# residuals

def _run_residuals(cfg: RunConfig, model: Model, run_dir: Path, out: RunOutput) -> None:
    params = cfg.phys_params()
    grid = _grid(cfg, model, cfg.t_max, 0.0)
    x = grid.nodes
    window = _comparison_window(model, x, cfg.t_max)
    delta = 1e-3 * model.time_scale
    times = cfg.t_max + delta * np.array([-2, -1, 0, 1, 2])
    # Closed-form complex action S - i hbar ln R at each instant.
    stack = [
        ComplexField(grid, model.action(x, t) - 1j * cfg.hbar * model.log_modulus(x, t), t)
        for t in map(float, times)
    ]
    qhj = qhj_residual_from_series(stack, model.potential, params, delta)
    cv = complex_velocity_residual(stack, model.potential, params, delta)

    _emit(
        out, run_dir, "residuals.csv",
        [("x", "length", x), ("qhj_residual", "energy", qhj.values),
         ("velocity_residual", "acceleration", cv.values)],
    )

    # Order-0 plane-wave state: linear action, exactly stationary residual.
    p0 = model.plane_wave_p0
    e0 = p0**2 / (2.0 * cfg.mass)
    plane = [
        ComplexField(grid, (p0 * x - e0 * float(t)) + 0j, float(t)) for t in times
    ]
    plane_pot = Potential.free()
    plane_qhj = qhj_residual_from_series(plane, plane_pot, params, delta)
    plane_cv = complex_velocity_residual(plane, plane_pot, params, delta)

    out.metrics = {
        "qhj_max_window": float(np.max(qhj.values[window])),
        "velocity_max_window": float(np.max(cv.values[window])),
        "plane_wave_qhj_max": float(np.max(plane_qhj.values)),
        "plane_wave_velocity_max": float(np.max(plane_cv.values)),
    }
