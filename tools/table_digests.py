"""Print the sha256 of every table of the reference run configs.

    python3 tools/table_digests.py [--src DIR]

Runs 20 configs in-process through `wkbohm.cli.main`, with the package
imported from DIR/src (default: this checkout):

- the 8 runnable (experiment, model) pairs of `wkbohm.config.MODELS`,
  in its order, at the defaults;
- the same 8 pairs at non-default units;
- `hierarchy-convergence` on the harmonic model at order 3 with
  t_max = 1.05, 1.1, 1.15 and 1.56, whose orders abort at different
  steps.

For each config it prints one line with the exit code, manifest status
and error, one `<tag>/echo` line with the sha256 of its `validate`
output, then one line per CSV with its sha256. Two lines follow for
the Crank-Nicolson oracle path, which no CLI experiment runs:
`oracle/cn` over the raw bytes of the snapshots of a small harmonic
Crank-Nicolson run, and `oracle/trajectories` over a 16-member ensemble
integrated through a `GriddedVelocityField` of those snapshots'
`oracle_velocity`. Output depends only on the tables' and arrays' bytes
and the runs' outcomes (no paths, no timestamps), so two checkouts
compare by one diff:

    diff <(python3 tools/table_digests.py --src A) <(python3 tools/table_digests.py --src B)
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


def reference_configs(config) -> list[tuple[str, dict]]:
    """(tag, config document) for each reference run of the `wkbohm.config` module given."""
    pairs = [(e, m) for m, (_, defined, _) in config.MODELS.items() for e in defined]
    out = []
    for experiment, model in pairs:
        out.append((f"defaults/{experiment}-{model}", {"experiment": experiment, "model": model}))
    for experiment, model in pairs:
        doc = {"experiment": experiment, "model": model, **UNITS[model]}
        out.append((f"units/{experiment}-{model}", doc))
    for t_max in HARMONIC_T_MAX:
        doc = {"experiment": "hierarchy-convergence", "model": "harmonic", "order": 3, "t_max": t_max}
        out.append((f"harmonic-order3/t_max={t_max}", doc))
    return out


def digest_lines(cli, config, workdir: Path) -> list[str]:
    lines = []
    for i, (tag, doc) in enumerate(reference_configs(config)):
        cfg_path = workdir / f"config-{i}.json"
        cfg_path.write_text(json.dumps(doc))
        out_dir = workdir / f"run-{i}"
        echo, sink = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(echo), contextlib.redirect_stderr(sink):
            cli.main(["validate", str(cfg_path)])
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", str(cfg_path), "--output-dir", str(out_dir)])
        run_dir = out_dir / doc["experiment"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        lines.append(f"{tag} exit={code} status={manifest['status']} error={manifest['error']}")
        lines.append(f"{tag}/echo {hashlib.sha256(echo.getvalue().encode()).hexdigest()}")
        for csv_path in sorted(run_dir.glob("*.csv")):
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            lines.append(f"{tag}/{csv_path.name} {digest}")
    return lines


def oracle_lines(analytic, numerics, potentials, tdse, trajectories) -> list[str]:
    """Digests of a harmonic Crank-Nicolson run and an ensemble on its velocity snapshots.

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
    return [f"oracle/cn sha256={cn.hexdigest()}", f"oracle/trajectories sha256={paths.hexdigest()}"]


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
        lines = digest_lines(cli, config, Path(tmp))
    lines += oracle_lines(analytic, numerics, potentials, tdse, trajectories)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
