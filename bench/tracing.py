"""In-memory span tracing installed around wkbohm's public functions.

Nothing here edits the package. `install` swaps each traced function for
a timing wrapper in every `wkbohm` module namespace that binds it, so
callers that look the name up as a module attribute (including the
benchmark's own workloads) run through the wrapper; `uninstall` puts the
originals back. Spans are kept as lists in memory; when the run ends
they are summarised per pass and written out.

A span is `[name, start, end, parent, pass_id, info]`. A layer's self
time is its span's duration minus the time its direct child spans
cover; calls are strictly nested because the workloads are single
threaded.
"""

from __future__ import annotations

import csv
import gzip
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, PASS, INFO = range(6)
MIB = 1024.0 * 1024.0

EXPERIMENT_NAMES = (
    "figure1-short",
    "figure1-asymptotic",
    "hierarchy-convergence",
    "equivariance",
    "residuals",
)

# Counters that must repeat exactly between passes and between runs of
# the same code on the same seed.
EXACT_COUNTERS = (
    "numerics.d1_calls_per_step",
    "numerics.d2_calls_per_step",
    "numerics.cubic_calls_per_eval",
    "trajectories.evaluate.calls",
    "trajectories.evaluate_calls_per_step",
    "trajectories.member_steps",
    "tdse.steps",
    "hierarchy.steps",
    "tables.bytes_written",
    "tables.rewrite_ratio",
)

# Per-layer metrics in report order: (name, unit, better).
LAYER_METRICS = (
    ("hierarchy.propagate.self_s", "s", "lower"),
    ("hierarchy.steps", "count", "lower"),
    ("hierarchy.step_us", "us", "lower"),
    ("hierarchy.reconstruct.self_s", "s", "lower"),
    ("hierarchy.velocity.self_s", "s", "lower"),
    ("hierarchy.snapshot_mib", "MiB", "lower"),
    ("numerics.d1_calls_per_step", "calls/step", "lower"),
    ("numerics.d2_calls_per_step", "calls/step", "lower"),
    ("numerics.stencil.self_s", "s", "lower"),
    ("numerics.cubic_calls_per_eval", "calls/eval", "lower"),
    ("numerics.cubic.self_s", "s", "lower"),
    ("trajectories.evaluate.calls", "count", "lower"),
    ("trajectories.evaluate_calls_per_step", "calls/step", "lower"),
    ("trajectories.evaluate.self_s", "s", "lower"),
    ("trajectories.integrate.self_s", "s", "lower"),
    ("trajectories.member_steps", "count", "lower"),
    ("trajectories.ns_per_member_step", "ns", "lower"),
    ("trajectories.completed_share", "ratio", "higher"),
    ("tdse.propagate.self_s", "s", "lower"),
    ("tdse.steps", "count", "lower"),
    ("tdse.step_us", "us", "lower"),
    ("tdse.oracle_velocity.self_s", "s", "lower"),
    ("tdse.snapshot_mib", "MiB", "lower"),
    ("analytic.evaluate.self_s", "s", "lower"),
    ("tables.emit.self_s", "s", "lower"),
    ("tables.bytes_written", "bytes", "lower"),
    ("tables.rewrite_ratio", "ratio", "lower"),
    *((f"experiments.{name}.self_s", "s", "lower") for name in EXPERIMENT_NAMES),
    ("config.parse.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans_per_pass", "count", "lower"),
)

# Span names whose self time is reported directly as `<name>.self_s`.
_SELF_TIMED = {
    "hierarchy.propagate", "hierarchy.reconstruct", "hierarchy.velocity",
    "numerics.cubic", "trajectories.evaluate", "trajectories.integrate",
    "tdse.propagate", "tdse.oracle_velocity", "analytic.evaluate",
    "tables.emit", "config.parse", "cli.main",
    *(f"experiments.{name}" for name in EXPERIMENT_NAMES),
}
_STENCILS = ("numerics.d1", "numerics.d2")


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, info=None):
        """Timing wrapper around fn.

        `name` is a span name or a callable of the call's arguments
        returning one; `info(args, kwargs, result)` attaches data to the
        span after its end time is taken.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:  # an aborted call keeps INFO = None
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: name, start, end, parent, pass."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "pass"])
            out.writerows(s[:INFO] for s in self.spans)

    # -- installation ------------------------------------------------------

    def install(self, targets):
        """Patch every `wkbohm` module binding of each target function.

        `targets` holds (module, attribute, name, info, impl) tuples; the
        module is where the function is defined, and `impl` (None for the
        function itself) is what the wrapper calls.
        """
        modules = [m for k, m in sorted(sys.modules.items()) if k == "wkbohm" or k.startswith("wkbohm.")]
        for module, attr, name, info, impl in targets:
            original = getattr(module, attr)
            wrapped = self.wrap(name, impl or original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


class TimedProvider:
    """Velocity-field provider that records a span per `evaluate` call."""

    def __init__(self, provider, tracer: Tracer):
        self.x_window = getattr(provider, "x_window", (float("-inf"), float("inf")))
        self.t_window = getattr(provider, "t_window", (float("-inf"), float("inf")))
        self.source = getattr(provider, "source", "hierarchy")
        gridded = hasattr(provider, "fields")
        self.evaluate = tracer.wrap(
            "trajectories.evaluate", provider.evaluate, lambda a, k, r: gridded
        )


def default_targets(tracer: Tracer) -> list[tuple]:
    """The traced public functions of each wkbohm module, for `install`."""
    from wkbohm import analytic, cli, config, experiments, hierarchy, numerics, tables, tdse, trajectories

    def steps(a, k, r):
        return {"steps": int(k.get("n_steps", a[3] if len(a) > 3 else 0))}

    def hierarchy_snapshots(a, k, r):
        return {"snapshot_bytes": sum(s.values.nbytes for s in r)}

    def tdse_snapshots(a, k, r):
        return {"steps": int(k.get("n_steps", a[2])), "snapshot_bytes": sum(s.psi.values.nbytes for s in r)}

    def tdse_steps(a, k, r):
        return {"steps": int(k.get("n_steps", a[2]))}

    def table_bytes(a, k, r):
        return (str(r), Path(r).stat().st_size)

    original_integrate = trajectories.integrate_ensemble_positions

    def integrate(provider, x0s, t_grid, *args, **kwargs):
        return original_integrate(TimedProvider(provider, tracer), x0s, t_grid, *args, **kwargs)

    def integrate_info(a, k, r):
        positions, n_valid = r
        n_times = positions.shape[1]
        return {
            "steps": n_times - 1,
            "member_steps": int((n_valid - 1).sum()),
            "members": int(n_valid.size),
            "completed": int((n_valid == n_times).sum()),
        }

    targets = [
        (hierarchy, "propagate_hierarchy", "hierarchy.propagate", steps, None),
        (hierarchy, "propagate_collecting", "hierarchy.propagate", hierarchy_snapshots, None),
        (hierarchy, "reconstruct_polar", "hierarchy.reconstruct", None, None),
        (hierarchy, "truncated_velocity_field", "hierarchy.velocity", None, None),
        (numerics, "derivative_values", "numerics.d1", None, None),
        (numerics, "second_derivative_values", "numerics.d2", None, None),
        (numerics, "cubic_interpolate", "numerics.cubic", None, None),
        # The ensemble integrator is handed a timing proxy of its provider.
        (trajectories, "integrate_ensemble_positions", "trajectories.integrate", integrate_info, integrate),
        (tdse, "tdse_propagate_collecting", "tdse.propagate", tdse_snapshots, None),
        (tdse, "tdse_propagate", "tdse.propagate", tdse_steps, None),
        (tdse, "oracle_velocity", "tdse.oracle_velocity", None, None),
        (tables, "emit_table", "tables.emit", table_bytes, None),
        (config, "load_config", "config.parse", None, None),
        (cli, "main", "cli.main", None, None),
        (experiments, "run_experiment", lambda cfg, *a, **k: f"experiments.{cfg.experiment}", None, None),
    ]
    for fn in (
        "free_packet_velocity", "free_packet_trajectory", "free_packet_modulus",
        "free_packet_action", "free_packet_asymptotic_velocity", "free_packet_wavefunction",
        "ho_velocity", "ho_trajectory", "ho_action", "ho_wavefunction",
    ):
        targets.append((analytic, fn, "analytic.evaluate", None, None))
    return targets


def summarize(tracer: Tracer) -> list[dict]:
    """Per-layer metrics for each traced pass, in pass order."""
    spans = tracer.spans
    n = len(spans)
    child = [0.0] * n
    in_propagate = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            in_propagate[i] = in_propagate[p] or spans[p][NAME] == "hierarchy.propagate"

    passes: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    files: dict[int, dict] = defaultdict(dict)
    gridded_evals: dict[int, set] = defaultdict(set)
    for i, s in enumerate(spans):
        name, dur, info, acc = s[NAME], s[END] - s[START], s[INFO], passes[s[PASS]]
        self_s = dur - child[i]
        acc["trace.spans_per_pass"] += 1
        if name in _SELF_TIMED:
            acc[f"{name}.self_s"] += self_s
        if name in _STENCILS:
            acc["numerics.stencil.self_s"] += self_s
            if in_propagate[i]:
                acc[f"_{name}_in_propagate"] += 1
        elif name == "numerics.cubic":
            if s[PARENT] in gridded_evals[s[PASS]]:
                acc["_cubic_in_gridded_eval"] += 1
        elif name == "trajectories.evaluate":
            acc["trajectories.evaluate.calls"] += 1
            if info:
                gridded_evals[s[PASS]].add(i)
                acc["_gridded_evals"] += 1
        elif name == "trajectories.integrate" and info:
            acc["_integrate_s"] += dur
            for key in ("steps", "member_steps", "members", "completed"):
                acc[f"_integrate_{key}"] += info[key]
        elif name == "hierarchy.propagate" and info:
            if "steps" in info:
                acc["hierarchy.steps"] += info["steps"]
                acc["_hierarchy_step_s"] += dur
            else:
                acc["hierarchy.snapshot_mib"] += info["snapshot_bytes"] / MIB
        elif name == "tdse.propagate" and info:
            acc["tdse.steps"] += info["steps"]
            acc["_tdse_step_s"] += dur
            acc["tdse.snapshot_mib"] += info.get("snapshot_bytes", 0) / MIB
        elif name == "tables.emit" and info:
            path, size = info
            acc["tables.bytes_written"] += size
            files[s[PASS]][path] = size

    out = []
    for pass_id in sorted(passes):
        acc = passes[pass_id]
        steps = acc["hierarchy.steps"]
        final_bytes = sum(files[pass_id].values())
        metrics = {name: 0.0 for name, _, _ in LAYER_METRICS if not name.startswith(("setup.", "trace."))}
        metrics.update({k: v for k, v in acc.items() if not k.startswith("_")})
        metrics.update({
            "hierarchy.step_us": 1e6 * acc["_hierarchy_step_s"] / steps if steps else 0.0,
            "numerics.d1_calls_per_step": acc["_numerics.d1_in_propagate"] / steps if steps else 0.0,
            "numerics.d2_calls_per_step": acc["_numerics.d2_in_propagate"] / steps if steps else 0.0,
            "numerics.cubic_calls_per_eval": (
                acc["_cubic_in_gridded_eval"] / acc["_gridded_evals"] if acc["_gridded_evals"] else 0.0
            ),
            "trajectories.evaluate_calls_per_step": (
                acc["trajectories.evaluate.calls"] / acc["_integrate_steps"] if acc["_integrate_steps"] else 0.0
            ),
            "trajectories.member_steps": acc["_integrate_member_steps"],
            "trajectories.ns_per_member_step": (
                1e9 * acc["_integrate_s"] / acc["_integrate_member_steps"] if acc["_integrate_member_steps"] else 0.0
            ),
            "trajectories.completed_share": (
                acc["_integrate_completed"] / acc["_integrate_members"] if acc["_integrate_members"] else 0.0
            ),
            "tdse.step_us": 1e6 * acc["_tdse_step_s"] / acc["tdse.steps"] if acc["tdse.steps"] else 0.0,
            "tables.rewrite_ratio": acc["tables.bytes_written"] / final_bytes if final_bytes else 0.0,
        })
        out.append(metrics)
    return out


def combine_passes(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of each metric over passes, plus exact counters that differ."""
    keys = per_pass[0].keys()
    merged = {k: statistics.median(p[k] for p in per_pass) for k in keys}
    unstable = [k for k in EXACT_COUNTERS if len({p[k] for p in per_pass}) > 1]
    return merged, unstable
