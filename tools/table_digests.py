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
and error, then one line per CSV with its sha256. Output depends only on
the tables' bytes and the runs' outcomes (no paths, no timestamps), so
two checkouts compare by one diff:

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
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", str(cfg_path), "--output-dir", str(out_dir)])
        run_dir = out_dir / doc["experiment"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        lines.append(f"{tag} exit={code} status={manifest['status']} error={manifest['error']}")
        for csv_path in sorted(run_dir.glob("*.csv")):
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            lines.append(f"{tag}/{csv_path.name} {digest}")
    return lines


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
    from wkbohm import cli, config

    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digest_lines(cli, config, Path(tmp))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
