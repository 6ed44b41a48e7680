"""Print the sha256 of every table of the reference runs, and check how each run ended.

    python3 tools/table_digests.py [--src DIR]

Runs each config of `reference_configs` in-process through
`wkbohm.cli.main`, with the package imported from DIR/src (default:
this checkout): every runnable (experiment, model) pair of
`wkbohm.config.MODELS` at the defaults and at non-default units, then
runs chosen to end in an abort (a caustic, a CFL violation, an
amplitude or an hbar^(2p) series weight that overflows), a config error
(a model that cannot be built, a key the run does not read) or a failed
run, a fan whose table holds both signed zeros, a free equivariance run
at extreme units, and two residuals runs whose grids reach far past the
packet.

For each config it prints one line with the exit code, manifest status
and error (None for a run that writes no manifest; the run's output
directory, which an error may name, reads `<out>`), one `<tag>/echo`
line with the sha256 of its `validate` output, stdout and stderr
together, then one line per CSV with its sha256, and for a residuals
run the `<tag>/qhj_max_window` line with the largest quantum
Hamilton-Jacobi residual on its comparison window, so a closed form
that stops solving its equation shows in a diff. Three lines follow for
the Crank-Nicolson oracle path, which no CLI experiment runs:
`oracle/cn` over the raw bytes of the snapshots of a small harmonic
Crank-Nicolson run, `oracle/trajectories` over a 16-member ensemble
integrated through a `GriddedVelocityField` of those snapshots'
`oracle_velocity`, and `oracle/max_error`, that ensemble's worst
deviation from `ho_trajectory` in units of sigma0, so a moved
trajectory digest shows whether the paths came closer. Output depends
only on the tables' and arrays' bytes and the runs' outcomes (no paths,
no timestamps), so two checkouts compare by one diff:

    diff <(python3 tools/table_digests.py --src A) <(python3 tools/table_digests.py --src B)

Each reference config declares the prefix its outcome line must start
with; `validate` must exit 2 on a config expected to be rejected and 0
on any other. After printing every line, the tool writes one stderr
line for each run that missed its expectation and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

UNITS = {
    "free": {"hbar": 0.7, "mass": 1.3, "sigma0": 0.9, "p0": 0.4},
    "harmonic": {"hbar": 0.7, "mass": 1.3, "omega": 2.0, "a": 0.3},
}
HARMONIC_T_MAX = (1.05, 1.1, 1.15, 1.56)
OVERFLOW = {"experiment": "hierarchy-convergence", "model": "free", "hbar": 3.0, "order": 5, "t_max": 2.0}
WEIGHT_OVERFLOW = {"experiment": "hierarchy-convergence", "model": "free", "hbar": 1e78}
SPEED_OVERFLOW = {"experiment": "equivariance", "model": "harmonic", "a": 1e300, "omega": 1e10}
UNREAD_KEY = {"experiment": "residuals", "model": "free", "dt": 0.5}
NON_FINITE_FAN = {"experiment": "figure1-short", "model": "free", "x0_fan": [1e308, -1e308]}
SIGNED_ZERO_FAN = {"experiment": "figure1-short", "model": "free", "x0_fan": [-0.0, 0.0]}
SCALED_FREE = {"experiment": "equivariance", "model": "free", "p0": 1e150, "sigma0": 1e-150}
MOVING_FREE = {"experiment": "residuals", "model": "free", "p0": 30}
WIDE_HARMONIC = {"experiment": "residuals", "model": "harmonic", "grid_x_min": -60, "grid_x_max": 60}

# Prefixes of an outcome line, "exit=<code> status=<status> error=<error>".
OK = "exit=0 status=ok error=None"
ABORTED = "exit=3 status=aborted error="
REJECTED = "exit=2 status=None error=None"
FAILED = "exit=3 status=failed error="


def reference_configs(config) -> list[tuple[str, dict, str]]:
    """(tag, config document, expected outcome prefix) for each reference run.

    `config` is the `wkbohm.config` module whose `MODELS` gives the pairs.
    """
    pairs = [(e, m) for m, (_, defined, _) in config.MODELS.items() for e in defined]
    out = []
    for experiment, model in pairs:
        out.append((f"defaults/{experiment}-{model}", {"experiment": experiment, "model": model}, OK))
    for experiment, model in pairs:
        doc = {"experiment": experiment, "model": model, **UNITS[model]}
        out.append((f"units/{experiment}-{model}", doc, OK))
    # Each order-3 run aborts, by design, on a caustic or a CFL violation.
    for t_max in HARMONIC_T_MAX:
        doc = {"experiment": "hierarchy-convergence", "model": "harmonic", "order": 3, "t_max": t_max}
        out.append((f"harmonic-order3/t_max={t_max}", doc, ABORTED))
    # u = 3 at t_max = 2 lies far past the series' radius: the order-7
    # amplitude overflows, so the run writes orders 1 and 5, then aborts
    # rather than write the overflowed amplitude as data.
    out.append(("overflow/hbar=3", OVERFLOW, ABORTED + "NumericalAbort: "))
    # hbar^4 = 1e312 passes the double range: the order-5 series weight
    # overflows, so the run writes orders 1 and 3, then aborts.
    out.append(("overflow/hbar=1e78", WEIGHT_OVERFLOW, ABORTED + "NumericalAbort: "))
    # The speed scale a omega overflows, so the model cannot be built.
    out.append(("rejected/a=1e300", SPEED_OVERFLOW, REJECTED))
    # A key the run does not read: its echo pins the message that names it.
    out.append(("rejected/unread-key", UNREAD_KEY, REJECTED))
    # The member at 1e308 moves past the double range: its trajectory
    # table is refused, naming the first non-finite cell, and not written.
    out.append(("failed/nonfinite-cell", NON_FINITE_FAN, FAILED + "WkbohmError: non-finite cell"))
    # Members at -0.0 and 0.0: the x0 column keeps each zero's sign.
    out.append(("signed-zero/figure1-short", SIGNED_ZERO_FAN, OK))
    # A unit rescaling of the default free run whose sigma0^2 sigma_t^2
    # underflows: the velocity field stays finite in dimensionless groups.
    out.append(("scale/equivariance-free", SCALED_FREE, OK))
    # Residuals on grids reaching over 60 packet widths from the centre,
    # where |psi| underflows to 0 but its closed-form log does not.
    out.append(("moving/residuals-free", MOVING_FREE, OK))
    out.append(("wide/residuals-harmonic", WIDE_HARMONIC, OK))
    return out


def digest_lines(cli, config, workdir: Path) -> tuple[list[str], list[str]]:
    """The digest lines of every reference run, and one line per missed expectation."""
    lines, misses = [], []
    for i, (tag, doc, expected) in enumerate(reference_configs(config)):
        cfg_path = workdir / f"config-{i}.json"
        cfg_path.write_text(json.dumps(doc))
        out_dir = workdir / f"run-{i}"
        echo, sink = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(echo), contextlib.redirect_stderr(echo):
            validated = cli.main(["validate", str(cfg_path)])
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", str(cfg_path), "--output-dir", str(out_dir)])
        run_dir = out_dir / doc["experiment"]
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text()) if manifest_path.is_file() else {}
        outcome = f"exit={code} status={manifest.get('status')} error={manifest.get('error')}"
        outcome = outcome.replace(str(out_dir), "<out>")
        lines.append(f"{tag} {outcome}")
        lines.append(f"{tag}/echo {hashlib.sha256(echo.getvalue().encode()).hexdigest()}")
        for csv_path in sorted(run_dir.glob("*.csv")):
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            lines.append(f"{tag}/{csv_path.name} {digest}")
        qhj = manifest.get("metrics", {}).get("qhj_max_window")
        if qhj is not None:
            lines.append(f"{tag}/qhj_max_window {qhj:.17g}")
        if not outcome.startswith(expected):
            misses.append(f"{tag}: outcome {outcome!r} does not start with {expected!r}")
        want = 2 if expected.startswith("exit=2 ") else 0
        if validated != want:
            misses.append(f"{tag}: validate exited {validated}, expected {want}")
    return lines, misses


def oracle_lines(analytic, numerics, potentials, tdse, trajectories) -> list[str]:
    """Digests of a harmonic Crank-Nicolson run and an ensemble on its velocity snapshots, and its error.

    The coherent packet (hbar = m = omega = a = 1) on 401 nodes spanning
    13 widths past each turning point, one period in 600 steps with a
    snapshot every 30; the velocity is taken on 4 widths around the
    packet's centre, and 16 quantile members take 200 rk4 steps.
    """
    params = analytic.PhysParams(1.0, 1.0)
    spec = analytic.OscillatorSpec(params, 1.0, 1.0)
    half = spec.a + 13.0 * spec.sigma0
    grid = numerics.Grid1D(-half, half, 401)
    psi0 = numerics.ComplexField(grid, analytic.ho_wavefunction(spec, grid.nodes, 0.0))
    state = tdse.TdseState(psi0, potentials.Potential.harmonic(1.0, spec.omega), params)
    snaps = tdse.tdse_propagate_collecting(state, spec.period / 600, 600, every=30)
    fields = []
    for snap in snaps:
        center = spec.a * np.cos(spec.omega * snap.time)
        window = (center - 4.0 * spec.sigma0, center + 4.0 * spec.sigma0)
        fields.append(tdse.oracle_velocity(snap.psi, params, x_window=window).values)
    times = np.array([snap.time for snap in snaps])
    provider = trajectories.GriddedVelocityField(grid, times, np.stack(fields), source="oracle")
    density = numerics.RealField(grid, np.abs(psi0.values) ** 2)
    x0 = trajectories.sample_initial_positions(density, 16)
    t_grid = np.linspace(times[0], times[-1], 201)
    positions, n_valid = trajectories.integrate_ensemble_positions(provider, x0, t_grid)
    cn = hashlib.sha256(b"".join(snap.psi.values.tobytes() for snap in snaps))
    paths = hashlib.sha256(positions.tobytes() + n_valid.astype(np.int64).tobytes())
    err = np.abs(positions - analytic.ho_trajectory(spec, x0[:, None], t_grid[None, :])) / spec.sigma0
    worst = float(np.max(err, where=np.isfinite(err), initial=0.0))  # truncated members end in NaN
    return [f"oracle/cn sha256={cn.hexdigest()}", f"oracle/trajectories sha256={paths.hexdigest()}",
            f"oracle/max_error sigma0={worst:.17g}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parents[1]),
        help="checkout whose src/ holds the wkbohm package (default: this one)",
    )
    args = parser.parse_args(argv)
    package_root = Path(args.src).resolve() / "src"
    if not (package_root / "wkbohm" / "__init__.py").is_file():
        parser.error(f"no wkbohm package under {package_root}")
    sys.path.insert(0, str(package_root))
    from wkbohm import analytic, cli, config, numerics, potentials, tdse, trajectories

    with tempfile.TemporaryDirectory() as tmp:
        lines, misses = digest_lines(cli, config, Path(tmp))
    lines += oracle_lines(analytic, numerics, potentials, tdse, trajectories)
    print("\n".join(lines))
    for miss in misses:
        print(f"missed expectation: {miss}", file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
