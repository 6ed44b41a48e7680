"""Command-line front end.

    wkbohm run <config.json> [--output-dir DIR]
    wkbohm validate <config.json>
    wkbohm list-experiments

Exit codes: 0 success, 2 configuration error ("config error: ...",
nothing written: an unreadable file, an unknown key, a key given twice
or a key that the run does not read, a value against its key's rule
(such as an `output_dir` that holds a NUL character), or a model that
cannot be built, such as one whose time scale or width is not positive
and finite, whose velocity or energy is not finite, or whose speed scale
a omega is not finite), 3 numerical abort
("numerical abort: ...", for example a caustic, a CFL violation or a
hierarchy-convergence order whose amplitude overflows the double range)
or failed run ("run failed: ...", for example a configured grid that
misses the packet, a table cell that is not finite, a run whose arrays
cannot be allocated, or a run directory that cannot be created). On exit 3 the manifest records status "aborted" or
"failed" and the error's type and message; a run directory that cannot
be created gets no manifest.
The WKBOHM_OUTPUT_DIR environment variable overrides the config's
output directory; the --output-dir flag overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENTS, load_config, serialize_config
from .errors import ConfigError, WkbohmError
from .experiments import run_experiment

OUTPUT_DIR_ENV = "WKBOHM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wkbohm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("config", help="path to a JSON config document")
    run.add_argument("--output-dir", default=None, help="override the output directory")

    val = sub.add_parser("validate", help="parse a config and echo its resolved form")
    val.add_argument("config", help="path to a JSON config document")

    sub.add_parser("list-experiments", help="print the available experiment names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return EXIT_OK

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(serialize_config(cfg), end="")
        return EXIT_OK

    out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or None
    try:
        result = run_experiment(cfg, out_dir=out_dir)
    except WkbohmError as exc:  # the run directory could not be created
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {result.manifest_path}")
    if result.status == "aborted":
        print(f"numerical abort: {result.error}", file=sys.stderr)
        return EXIT_NUMERICAL
    if result.status != "ok":
        print(f"run failed: {result.error}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
