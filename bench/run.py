"""wkbohm benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload hbar-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload oracle --seed 1 --seconds 0 --trace 0 --size smoke

Runs from the root of a source checkout and imports `wkbohm` from its
`src/` directory; it refuses to run without one. The last line of
standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it
(`report {...}`) holds everything else: the environment, both metric
sets, sample counts and failure notes. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS keeps runs within nproc and free of spinning
# helper threads; set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_spans"
WORKLOAD_NAMES = ("hbar-sweep", "oracle", "cli-suite")

# (name, unit): metrics a user of the package sees.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ref_err", "1"),
    ("ok_share", "ratio"),
)
SETUP_REPEATS = 5
MIN_PASSES = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import wkbohm; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def import_package():
    """Import wkbohm from this checkout's src/, never from elsewhere."""
    if not (SRC / "wkbohm" / "__init__.py").is_file():
        sys.exit(f"error: no wkbohm source tree under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import wkbohm

    if Path(wkbohm.__file__).resolve().parent != (SRC / "wkbohm").resolve():
        sys.exit(f"error: imported wkbohm from {wkbohm.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Import time of wkbohm (numpy and scipy included) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def timed_passes(workload, seconds: float, results: list, tracer=None) -> list[float]:
    """Run passes until the next one would end past `seconds` (at least MIN_PASSES).

    Passes take turns on the CPUs the process may use. Contention from
    outside the process differs from one CPU to the next and changes over
    tens of seconds, so a run samples every CPU rather than the one the
    scheduler happened to pick.
    """
    cpus = sorted(os.sched_getaffinity(0))
    walls: list[float] = []
    start = time.perf_counter()
    try:
        while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(walls) <= seconds:
            os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
            if tracer is not None:
                tracer.pass_id = len(results)
            gc.collect()  # each pass starts from a collected heap
            t0 = time.perf_counter()
            results.append(workload.run_pass())
            walls.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return walls


def run_workload(args) -> tuple[dict, dict]:
    """Set up, warm up and measure one workload; returns (result, report)."""
    import_package()
    import tracing
    from workloads import WORKLOADS

    import_samples = [import_seconds() for _ in range(SETUP_REPEATS)]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        input_samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
            input_samples.append(time.perf_counter() - t0)
        setup = {"import_s": statistics.median(import_samples), "inputs_s": statistics.median(input_samples)}

        results = [workload.run_pass()]  # warm-up: checked, not timed
        if args.trace:
            walls = timed_passes(workload, args.seconds / 2, results)
            tracer = tracing.Tracer()
            tracer.install(tracing.default_targets(tracer))
            try:
                traced_walls = timed_passes(workload, args.seconds / 2, results, tracer)
            finally:
                tracer.uninstall()
        else:
            walls = timed_passes(workload, args.seconds, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    ref_errs = [r.ref_err for r in results]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": setup["import_s"] + setup["inputs_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_err": max(ref_errs),
        "ok_share": 1.0 - failed / attempted,
    }
    problems = [f"pass {i}: {note}" for i, r in enumerate(results) for note in r.notes]
    if len(set(ref_errs)) > 1:
        problems.append(f"ref_err differs between passes of one seed: {sorted(set(ref_errs))}")

    report = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "env": environment(args.seed),
        "end_to_end": end_to_end,
        "fail_share": failed / attempted,
        "samples": {
            "wall_s": len(walls),
            "setup_s": SETUP_REPEATS,
            "peak_rss_mib": 1,
            "ref_err": len(results),
            "ok_share": attempted,
        },
        "wall_s_passes": walls,
        "setup": {"import_s": import_samples, "inputs_s": input_samples},
    }
    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        per_pass = tracing.summarize(tracer)
        layers, unstable = tracing.combine_passes(per_pass)
        for name in unstable:
            problems.append(f"exact counter {name} differs between passes: {[p[name] for p in per_pass]}")
        traced_wall = statistics.median(traced_walls)
        layers.update({
            "setup.import_s": setup["import_s"],
            "setup.inputs_s": setup["inputs_s"],
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": end_to_end["wall_s"],
            "trace.overhead_s": traced_wall - end_to_end["wall_s"],
        })
        report["per_layer"] = layers
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}-{args.size}.csv.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["samples"]["per_layer"] = len(per_pass)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
    report["problems"] = problems
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def print_summary(result: dict, report: dict) -> None:
    s = report["samples"]
    print(f"workload {report['workload']}  seed {report['env']['seed']}  trace {report['trace']}  size {report['size']}")
    e = report["end_to_end"]
    passes = report["wall_s_passes"]
    print(f"  wall_s        {e['wall_s']:.4f} s     median of {s['wall_s']} untraced passes "
          f"(min {min(passes):.4f}, max {max(passes):.4f})")
    print(f"  setup_s       {e['setup_s']:.4f} s     median import of {s['setup_s']} fresh interpreters "
          f"+ median of {s['setup_s']} input builds")
    print(f"  peak_rss_mib  {e['peak_rss_mib']:.1f} MiB   process peak, 1 sample")
    print(f"  ref_err       {e['ref_err']:.6g}      worst over {s['ref_err']} passes")
    print(f"  fail_share    {report['fail_share']:.6g}      {result['failed']} of {result['attempted']} operations "
          f"(ok_share {e['ok_share']:.6g})")
    if "per_layer" in report:
        print(f"  per-layer, median of {s['per_layer']} traced passes:")
        for name, m in result["metrics"].items():
            print(f"    {name:42s} {m['value']:.6g} {m['unit']}")
    for problem in report["problems"][:20]:
        print(f"  PROBLEM {problem}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, report = run_workload(args)
    print_summary(result, report)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
