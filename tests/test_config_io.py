import json
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wkbohm.cli import main as cli_main
from wkbohm.config import (
    EXPERIMENTS,
    MODELS,
    RunConfig,
    config_dict,
    parse_config,
    resolve_config,
    serialize_config,
)
from wkbohm.errors import ConfigError, WkbohmError
from wkbohm.experiments import run_experiment
from wkbohm.tables import sha256_of

# The non-default units of the reference runs in tools/table_digests.py.
UNITS = {
    "free": {"hbar": 0.7, "mass": 1.3, "sigma0": 0.9, "p0": 0.4},
    "harmonic": {"hbar": 0.7, "mass": 1.3, "omega": 2.0, "a": 0.3},
}
MINIMAL_FREE = json.dumps({"experiment": "figure1-short", "model": "free", "x0_fan": [-2, -1, 0, 1, 2]})
# Every runnable (experiment, model) pair.
PAIRS = [(e, m) for m, (_, defined, _) in MODELS.items() for e in defined]
FIELDS = {f.name for f in fields(RunConfig)}
EVERY_RUN = ("experiment", "model", "hbar", "mass", "output_dir", "seed")
README = Path(__file__).resolve().parents[1] / "README.md"


def run_keys(experiment, model):
    """The keys that a run of this pair reads, in the order its errors name them."""
    return [*EVERY_RUN, *EXPERIMENTS[experiment], *MODELS[model][2]]


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL_FREE)
        # A figure1 run reads no order or ensemble key, so none is filled in.
        assert cfg.order is None and cfg.ensemble_mode is None and cfg.ensemble_n is None
        assert cfg.hbar == 1.0 and cfg.mass == 1.0 and cfg.sigma0 == 1.0
        assert cfg.x0_fan == (-2.0, -1.0, 0.0, 1.0, 2.0)

    def test_unknown_key_rejected_by_name(self):
        bad = json.dumps({"experiment": "residuals", "model": "free", "sigma_zero": 2.0})
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "sigma_zero" in str(exc.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"model": "free"}))
        assert "experiment" in str(exc.value)

    @pytest.mark.parametrize("model", [["free"], {"free": 1}, 3])
    def test_non_string_model_rejected(self, model):
        with pytest.raises(ConfigError, match="model"):
            parse_config(json.dumps({"experiment": "residuals", "model": model}))

    def test_harmonic_width_is_derived(self):
        cfg, model = resolve_config(
            parse_config(json.dumps({"experiment": "residuals", "model": "harmonic", "omega": 4.0}))
        )
        # The harmonic run does not read sigma0: its width lives on the model.
        assert cfg.sigma0 is None
        assert model.spec.sigma0 == pytest.approx(np.sqrt(1.0 / 8.0), rel=1e-14)

    def test_inconsistent_harmonic_width_rejected(self, tmp_path, capsys):
        # The width is derived from hbar, mass and omega, so the model
        # does not read sigma0, even at the derived width.
        for sigma0 in (1.0, np.sqrt(0.5)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(
                {"experiment": "residuals", "model": "harmonic", "omega": 1.0, "sigma0": sigma0}
            ))
            assert cli_main(["validate", str(path)]) == 2
            assert capsys.readouterr().err == (
                "config error: experiment 'residuals' on model 'harmonic' does not read key(s) "
                f"sigma0; it reads {', '.join(run_keys('residuals', 'harmonic'))}\n"
            )

    @pytest.mark.parametrize(
        "experiment, key, value",
        [("residuals", "hbar", -1.0), ("hierarchy-convergence", "dt", 0.0),
         ("equivariance", "ensemble_n", 1), ("hierarchy-convergence", "order", 0)],
    )
    def test_constraint_violations_name_the_key(self, experiment, key, value):
        # Each key on an experiment that reads it, so that its own rule rejects it.
        bad = json.dumps({"experiment": experiment, "model": "free", key: value})
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert str(exc.value).startswith(f"key {key!r} must be")

    @pytest.mark.parametrize("experiment", ["hierarchy-convergence", "equivariance"])
    def test_a_step_as_long_as_the_run_is_accepted(self, experiment):
        cfg = parse_config(json.dumps({"experiment": experiment, "model": "free", "t_max": 0.5, "dt": 0.5}))
        assert cfg.dt == cfg.t_max == 0.5

    def test_round_trip_is_identity(self):
        cfg = parse_config(MINIMAL_FREE)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_nontrivial(self):
        text = json.dumps(
            {
                "experiment": "equivariance",
                "model": "harmonic",
                "omega": 2.0,
                "a": 0.3,
                "ensemble_n": 100,
                "ensemble_mode": "random",
                "seed": 99,
                "dt": 5e-4,
                "output_dir": "elsewhere",
            }
        )
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_a_key_given_twice_exits_2_naming_it(self, tmp_path, capsys):
        # The last value does not silently win.
        path = tmp_path / "cfg.json"
        path.write_text('{"experiment": "residuals", "model": "free", "hbar": 0.5, "hbar": 2.0}')
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config key 'hbar' is given more than once\n"

    def test_not_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = residuals")

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000], ids=["long-integer", "deep-nesting"])
    def test_json_beyond_the_decoder_limits_rejected(self, text):
        # An integer literal of more than 4300 digits, and nesting deeper
        # than the recursion limit.
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            parse_config(text)

    @pytest.mark.parametrize(
        "key, experiment",
        [("seed", "residuals"), ("order", "hierarchy-convergence"), ("grid_points", "residuals"),
         ("ensemble_n", "equivariance")],
    )
    def test_integer_keys_stay_exact(self, key, experiment):
        big = 2**64 + 1
        cfg = parse_config(json.dumps({"experiment": experiment, "model": "free", key: big}))
        assert type(getattr(cfg, key)) is int and getattr(cfg, key) == big

    @pytest.mark.parametrize("experiment, model", PAIRS)
    def test_config_dict_lists_only_the_runs_keys(self, experiment, model):
        cfg = parse_config(json.dumps({"experiment": experiment, "model": model}))
        listed = set(config_dict(cfg))
        # Every key is resolved but the grid bounds, which stay unset.
        assert listed == set(run_keys(experiment, model)) - {"grid_x_min", "grid_x_max"}
        assert json.loads(serialize_config(cfg)) == config_dict(cfg)

    @pytest.mark.parametrize("experiment, model", PAIRS)
    def test_unset_keys_get_the_experiments_defaults(self, experiment, model):
        cfg = parse_config(json.dumps({"experiment": experiment, "model": model, **UNITS[model]}))
        m = resolve_config(cfg)[1]
        fan = {"x0_fan": tuple(k * m.spec.sigma0 for k in (-2.0, -1.0, 0.0, 1.0, 2.0))}
        dt = 1e-3 * m.time_scale
        expected = {
            "figure1-short": fan,
            "figure1-asymptotic": fan,
            "hierarchy-convergence": {"order": 3, "t_max": 0.2 * m.time_scale, "dt": dt,
                                      "grid_points": 401},
            "equivariance": {"t_max": m.equivariance_t, "dt": dt, "ensemble_n": 9,
                             "ensemble_mode": "quantile", "grid_points": 2001},
            "residuals": {"t_max": m.residuals_t, "grid_points": 401},
        }[experiment]
        assert {key: getattr(cfg, key) for key in expected} == expected
        assert cfg.grid_x_min is None and cfg.grid_x_max is None

    def test_readme_configs_validate(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        assert blocks
        for block in blocks:
            parse_config(block)

    def test_the_runnable_pairs_accept_84_settable_keys(self):
        # 123 while every run accepted every run key, 87 while the
        # harmonic model accepted sigma0.
        assert sum(len(run_keys(e, m)) - 2 for e, m in PAIRS) == 84

    @pytest.mark.parametrize("units", [False, True])
    @pytest.mark.parametrize("experiment, model", PAIRS)
    def test_echo_validates_again_to_the_same_bytes(self, experiment, model, units):
        doc = {"experiment": experiment, "model": model}
        if units:
            doc.update(UNITS[model])
        echo = serialize_config(parse_config(json.dumps(doc)))
        assert serialize_config(parse_config(echo)) == echo


def _reject_constant(name):
    raise AssertionError(f"{name} in a config echo")


_SCALARS = st.one_of(
    st.floats(min_value=0.5, max_value=20.0),  # values a key often accepts
    st.integers(min_value=0, max_value=40),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
_OTHER_KEYS = sorted({f.name for f in fields(RunConfig)} - {"experiment", "model"})
_DOCS = st.builds(
    lambda names, rest: {**rest, **names},
    st.fixed_dictionaries({
        "experiment": st.sampled_from((*EXPERIMENTS, "figure2")),
        "model": st.sampled_from(("free", "harmonic", "anharmonic")),
    }),
    st.dictionaries(st.sampled_from(_OTHER_KEYS), _SCALARS | st.lists(_SCALARS, max_size=3), max_size=5),
)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
@example({"experiment": "equivariance", "model": "free", "seed": 2**64})
@example({"experiment": "residuals", "model": "free", "hbar": 10**400})
@example({"experiment": "residuals", "model": "harmonic", "mass": 1e-200, "omega": 1e-200})
@example({"experiment": "residuals", "model": "harmonic", "hbar": 1e300, "mass": 1e-10, "omega": 1e-10})
@example({"experiment": "figure1-short", "model": "free", "a": 1.0})
def test_parse_returns_a_config_that_echoes_as_strict_json_or_raises_config_error(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError as exc:
        cfg = str(exc)
    # Built in code, a document resolves to its parse or raises the same
    # error; a null is left out, since in code None leaves a key unset.
    if None not in doc.values():
        try:
            built = resolve_config(RunConfig(**doc))[0]
        except ConfigError as exc:
            built = str(exc)
        assert built == cfg
    if isinstance(cfg, str):
        return
    echo = serialize_config(cfg)
    json.loads(echo, parse_constant=_reject_constant)
    assert parse_config(echo) == cfg
    assert resolve_config(cfg)[0] == cfg


def run_cfg(tmp_path, name="a", **overrides):
    doc = {"experiment": "figure1-short", "model": "free"}
    doc.update(overrides)
    cfg = parse_config(json.dumps(doc))
    return run_experiment(cfg, out_dir=str(tmp_path / name))


class TestRunOutputs:
    def test_determinism_byte_identical_tables(self, tmp_path):
        out1 = run_cfg(tmp_path, "a")
        out2 = run_cfg(tmp_path, "b")
        assert out1.status == out2.status == "ok"
        assert set(out1.files) == set(out2.files)
        for name in out1.files:
            assert Path(out1.files[name]).read_bytes() == Path(out2.files[name]).read_bytes()

    def test_manifest_lists_files_with_checksums(self, tmp_path):
        out = run_cfg(tmp_path, "m")
        doc = json.loads(out.manifest_path.read_text())
        assert doc["status"] == "ok"
        assert doc["config"]["experiment"] == "figure1-short"
        names = {f["name"] for f in doc["files"]}
        assert names == set(out.files)
        for entry in doc["files"]:
            assert entry["sha256"] == sha256_of(out.out_dir / entry["name"])

    # One pair per experiment.
    @pytest.mark.parametrize("experiment, model", [
        ("figure1-short", "free"),
        ("figure1-asymptotic", "free"),
        ("hierarchy-convergence", "harmonic"),
        ("equivariance", "free"),
        ("residuals", "free"),
    ])
    def test_a_config_built_in_code_runs(self, tmp_path, experiment, model):
        # Its unset keys get the defaults that a config document gets.
        out = run_experiment(RunConfig(experiment, model), out_dir=str(tmp_path))
        assert out.status == "ok"
        doc = parse_config(json.dumps({"experiment": experiment, "model": model}))
        expected = {**config_dict(doc), "output_dir": str(tmp_path)}
        assert json.loads(out.manifest_path.read_text())["config"] == expected

    @pytest.mark.parametrize("cfg, message", [
        # The time scale 2 sigma0^2 is 2e-323, so the default dt underflows to 0.
        (RunConfig("hierarchy-convergence", "free", sigma0=3e-162), "key 'dt' must be > 0, got 0.0"),
        (RunConfig("residuals", "free", grid_x_min=-5.0),
         "keys 'grid_x_min' and 'grid_x_max' must be given together"),
        (RunConfig("figure1-short", "harmonic"),
         "experiment 'figure1-short' is not defined for model 'harmonic'; "
         "pick one of hierarchy-convergence, equivariance, residuals"),
        # A given value is checked by its key's rule, as in a document.
        (RunConfig("equivariance", "free", ensemble_mode="bogus"),
         "key 'ensemble_mode' must be one of quantile, random; got 'bogus'"),
        (RunConfig("residuals", "free", grid_points=5), "key 'grid_points' must be >= 8, got 5"),
        (RunConfig("hierarchy-convergence", "free", order=0), "key 'order' must be >= 1, got 0"),
        (RunConfig("equivariance", "free", ensemble_mode="random", seed=-1),
         "key 'seed' must be >= 0, got -1"),
        (RunConfig("figure1-short", "free", x0_fan=("a",)), "key 'x0_fan[0]' must be a number, got 'a'"),
        (RunConfig("figure1-short", "free", x0_fan=(1.0, np.inf)), "key 'x0_fan[1]' must be finite, got inf"),
        (RunConfig("residuals", "free", grid_x_min=-np.inf, grid_x_max=5.0),
         "key 'grid_x_min' must be finite, got -inf"),
        (RunConfig("residuals", "free", grid_points=401.5), "key 'grid_points' must be an integer, got 401.5"),
        (RunConfig("residuals", "free", t_max=-1.0), "key 't_max' must be > 0, got -1.0"),
        (RunConfig("equivariance", "free", ensemble_n=1), "key 'ensemble_n' must be >= 2, got 1"),
        (RunConfig("hierarchy-convergence", "free", dt=np.nan), "key 'dt' must be finite, got nan"),
        # None leaves a key unset, but an empty fan is given.
        (RunConfig("figure1-short", "free", x0_fan=()), "key 'x0_fan' must be a non-empty list of numbers"),
    ], ids=["default-dt-underflows", "one-grid-bound", "figure1-harmonic", "ensemble-mode",
            "grid-points-below-8", "order-0", "negative-seed", "fan-string", "fan-inf",
            "grid-x-min-inf", "grid-points-not-integer", "negative-t-max", "ensemble-n-1", "dt-nan",
            "fan-empty"])
    def test_a_broken_config_built_in_code_raises_before_anything_is_written(self, tmp_path, cfg, message):
        out_dir = tmp_path / "out"
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg, out_dir=str(out_dir))
        assert str(info.value) == message
        assert not out_dir.exists()

    def test_a_run_builds_one_model(self, tmp_path, monkeypatch):
        builds = []
        builder, *rest = MODELS["free"]

        def counted(cfg):
            builds.append(cfg)
            return builder(cfg)

        monkeypatch.setitem(MODELS, "free", (counted, *rest))
        run_experiment(RunConfig("residuals", "free"), out_dir=str(tmp_path / "code"))
        assert len(builds) == 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "residuals", "model": "free"}))
        builds.clear()
        assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "cli")]) == 0
        # One to validate the document, one in the run.
        assert len(builds) <= 2

    def test_equivariance_run_reports_ks(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                {
                    "experiment": "equivariance",
                    "model": "free",
                    "ensemble_n": 2000,
                    "ensemble_mode": "random",
                    "seed": 5,
                }
            )
        )
        out = run_experiment(cfg, out_dir=str(tmp_path))
        assert out.status == "ok"
        assert out.metrics["ks_max"] < 0.05
        assert (out.out_dir / "ks.csv").exists()

    def test_hierarchy_convergence_improves_with_order(self, tmp_path):
        cfg = parse_config(json.dumps({"experiment": "hierarchy-convergence", "model": "free"}))
        out = run_experiment(cfg, out_dir=str(tmp_path))
        assert out.status == "ok"
        errs = out.metrics["errors"]
        assert errs["5"]["S"] < errs["3"]["S"] < errs["1"]["S"]

    @pytest.mark.parametrize(
        "keys",
        [
            {"model": "free"},
            # A moving packet's action carries its energy term p0^2 t / (2m).
            {"model": "free", "p0": 1.0},
            {"model": "free", **UNITS["free"]},
            # |psi| underflows to 0 at the grid's edge nodes; ln |psi| is taken in closed form.
            {"model": "free", "p0": 30},
            {"model": "harmonic", "grid_x_min": -60, "grid_x_max": 60},
        ],
    )
    def test_residuals_experiment(self, tmp_path, keys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "residuals", **keys}))
        assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        metrics = json.loads((tmp_path / "out" / "residuals" / "manifest.json").read_text())["metrics"]
        assert metrics["qhj_max_window"] <= 1e-8
        # Exact at rest; a moving plane wave's residual is round-off in its energy.
        assert metrics["plane_wave_qhj_max"] <= 1e-11 * keys.get("p0", 0.0) ** 2

    def test_numerical_abort_recorded_with_partial_outputs(self, tmp_path):
        # Driving the oscillator stack into its focusing caustic: the
        # manifest must record the abort and keep earlier outputs.
        cfg = parse_config(
            json.dumps(
                {
                    "experiment": "hierarchy-convergence",
                    "model": "harmonic",
                    "t_max": 1.56,
                    "order": 3,
                }
            )
        )
        out = run_experiment(cfg, out_dir=str(tmp_path))
        assert out.status == "aborted"
        assert out.error
        doc = json.loads(out.manifest_path.read_text())
        assert doc["status"] == "aborted"

    @pytest.mark.parametrize(
        "doc, note",
        [
            ({"model": "free"}, "natural units (hbar = m = sigma0 = 1)"),
            ({"model": "free", "sigma0": 2.0}, "model units as configured (hbar=1.0, mass=1.0)"),
            ({"model": "harmonic"}, "natural units (hbar = m = omega = 1)"),
            ({"model": "harmonic", "omega": 4.0}, "model units as configured (hbar=1.0, mass=1.0)"),
            ({"model": "harmonic", "mass": 2.0}, "model units as configured (hbar=1.0, mass=2.0)"),
        ],
    )
    def test_manifest_unit_note_names_the_natural_scale(self, tmp_path, doc, note):
        # The oscillator's width is derived, so omega is its unit-setting scale.
        cfg = parse_config(json.dumps({"experiment": "residuals", **doc}))
        out = run_experiment(cfg, out_dir=str(tmp_path))
        assert json.loads(out.manifest_path.read_text())["units"] == note

    def test_figure1_asymptotic_slopes(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                {"experiment": "figure1-asymptotic", "model": "free", "x0_fan": [-1.0, 0.0, 2.0]}
            )
        )
        out = run_experiment(cfg, out_dir=str(tmp_path))
        assert out.status == "ok"
        assert out.metrics["max_rel_slope_error"] <= 5e-3
        assert (out.out_dir / "asymptotes.csv").exists()
        assert (out.out_dir / "slopes.csv").exists()

    def test_figure1_asymptotic_evaluates_each_member_once(self, tmp_path, monkeypatch):
        from wkbohm import experiments

        calls = []
        original = experiments.free_packet_trajectory

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "free_packet_trajectory", counted)
        out = run_cfg(tmp_path, experiment="figure1-asymptotic")
        assert out.status == "ok"
        fan = json.loads(out.manifest_path.read_text())["config"]["x0_fan"]
        # One call moves the whole fan, each member once.
        assert len(calls) == 1 and np.ravel(calls[0]).tolist() == fan and len(fan) == 5

    def test_runner_error_recorded_as_failed(self, tmp_path):
        # A configured grid far from the packet: the comparison window
        # holds no node, and the runner raises a ValueError before any
        # table is written.
        out = run_cfg(tmp_path, experiment="hierarchy-convergence", grid_x_min=50, grid_x_max=60)
        assert out.status == "failed"
        assert out.error.startswith("ValueError: the comparison window")
        assert out.files == {}
        manifest = json.loads(out.manifest_path.read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == out.error
        assert manifest["finished_utc"] is not None

    def test_finished_run_has_no_abort_block(self, tmp_path):
        out = run_cfg(tmp_path)
        assert out.status == "ok" and out.abort is None
        assert json.loads(out.manifest_path.read_text())["abort"] is None

    def test_equivariance_window_exit_names_the_first_lost_member(self, tmp_path, monkeypatch):
        from wkbohm import experiments
        from wkbohm.trajectories import integrate_ensemble_positions

        class Windowed:
            """The model's field, valid only left of x = 2.5."""

            x_window = (-np.inf, 2.5)

            def __init__(self, provider):
                self.evaluate, self.t_window = provider.evaluate, provider.t_window

        seen = []

        def windowed(provider, x0s, t_grid):
            seen.append((integrate_ensemble_positions(Windowed(provider), x0s, t_grid), t_grid))
            return seen[-1][0]

        monkeypatch.setattr(experiments, "integrate_ensemble_positions", windowed)
        out = run_cfg(tmp_path, experiment="equivariance", p0=1.0)
        assert out.status == "aborted"
        assert out.error == ("NumericalAbort: an ensemble member left the velocity-field window"
                             " or reached a non-finite position")
        (positions, n_valid), t_grid = seen[0]
        # The drifting packet's rightmost member leaves first.
        member = int(np.argmin(n_valid))
        assert member == positions.shape[0] - 1 and n_valid[member] < n_valid[:-1].min()
        last = int(n_valid[member]) - 1
        abort = json.loads(out.manifest_path.read_text())["abort"]
        assert abort == out.abort == {"node": member, "x": positions[member, last], "t": t_grid[last]}
        assert abort["x"] <= 2.5

    def test_runner_defect_recorded_then_raised(self, tmp_path, monkeypatch):
        from wkbohm import experiments

        def broken(*args):
            raise TypeError("broken runner")

        monkeypatch.setattr(experiments, "_run_figure1_short", broken)
        with pytest.raises(TypeError, match="broken runner"):
            run_cfg(tmp_path)
        manifest = json.loads((tmp_path / "a" / "figure1-short" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "TypeError: broken runner"


def fields_by_order(run_dir):
    """{order: (S_reconstructed, R_reconstructed)} parsed from fields.csv."""
    lines = (run_dir / "fields.csv").read_text().splitlines()[1:]
    rows = np.array([[float(c) for c in line.split(",")] for line in lines])
    return {
        int(o): (rows[rows[:, 0] == o, 2], rows[rows[:, 0] == o, 4])
        for o in np.unique(rows[:, 0])
    }


class TestHierarchyConvergence:
    """One propagation at the top order serves every lower truncation."""

    @staticmethod
    def run_counted(tmp_path, monkeypatch, doc):
        from wkbohm import experiments

        calls = []
        original = experiments.propagate_hierarchy

        def counted(state, potential, dt, n_steps, params=None):
            calls.append((state, potential, dt, n_steps, params))
            return original(state, potential, dt, n_steps, params=params)

        monkeypatch.setattr(experiments, "propagate_hierarchy", counted)
        cfg = parse_config(json.dumps({"experiment": "hierarchy-convergence", **doc}))
        return cfg, run_experiment(cfg, out_dir=str(tmp_path)), calls

    @staticmethod
    def standalone(cfg, call, order):
        """reconstruct_polar(propagate_hierarchy(init_hierarchy(psi0, order), ...))."""
        from wkbohm.hierarchy import (
            PolarFields, init_hierarchy, propagate_hierarchy, reconstruct_polar,
        )
        from wkbohm.numerics import RealField

        state, potential, dt, n_steps, params = call
        model = resolve_config(cfg)[1]
        grid = state.grid
        x = grid.nodes
        psi0 = PolarFields(
            R=RealField(grid, model.modulus(x, 0.0)), S=RealField(grid, model.action(x, 0.0))
        )
        stack = propagate_hierarchy(
            init_hierarchy(psi0, order), potential, dt, n_steps, params=params
        )
        return reconstruct_polar(stack, params)

    @pytest.mark.parametrize(
        "doc, n_calls, error, orders",
        [
            ({"model": "free"}, 1, None, [1, 3, 5]),
            ({"model": "harmonic"}, 1, None, [1, 3, 5]),
            # Order 5 aborts; the order-3 rerun serves orders 1 and 3.
            ({"model": "harmonic", "t_max": 1.1, "order": 3}, 2,
             "CausticDetected: |grad| of order-5 field reached 1e+06 at t=1.02; "
             "caustic suspected", [1, 3]),
        ],
    )
    def test_lower_orders_are_the_leading_rows_of_one_run(
        self, tmp_path, monkeypatch, doc, n_calls, error, orders
    ):
        cfg, out, calls = self.run_counted(tmp_path, monkeypatch, doc)
        assert out.status == ("ok" if error is None else "aborted")
        assert out.error == error
        assert len(calls) == n_calls
        assert [c[0].order for c in calls] == [5, 3][:n_calls]
        written = fields_by_order(out.out_dir)
        assert sorted(written) == orders
        summary = (out.out_dir / "summary.csv").read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in summary] == orders
        for order in orders:
            polar = self.standalone(cfg, calls[0], order)
            assert np.array_equal(written[order][0], polar.S.values)
            assert np.array_equal(written[order][1], polar.R.values)

    def test_abort_below_every_order_raises_the_order_1_error(self, tmp_path, monkeypatch):
        # The order-5 run hits a caustic, the order-3 rerun a CFL
        # violation at order 0: nothing is written, and the error is the
        # one a standalone order-1 run raises.
        from wkbohm.errors import CflViolation

        cfg, out, calls = self.run_counted(
            tmp_path, monkeypatch, {"model": "harmonic", "t_max": 1.56, "order": 3}
        )
        assert out.status == "aborted"
        assert [c[0].order for c in calls] == [5, 3]
        with pytest.raises(CflViolation) as abort:
            self.standalone(cfg, calls[0], 1)
        assert out.error == f"CflViolation: {abort.value}"
        assert out.files == {}
        assert sorted(p.name for p in out.out_dir.iterdir()) == ["manifest.json"]

    def test_abort_block_locates_the_caustic(self, tmp_path, monkeypatch):
        # The order-5 run aborts; the manifest's abort block holds that
        # abort's fields, and the error string is unchanged.
        from wkbohm.errors import CausticDetected
        from wkbohm.hierarchy import GRADIENT_BLOWUP_LIMIT, propagate_hierarchy

        cfg, out, calls = self.run_counted(
            tmp_path, monkeypatch, {"model": "harmonic", "t_max": 1.15, "order": 3}
        )
        state, potential, dt, n_steps, params = calls[0]
        with pytest.raises(CausticDetected) as abort:
            propagate_hierarchy(state, potential, dt, n_steps, params=params)
        assert out.error == f"CausticDetected: {abort.value}"
        manifest = json.loads(out.manifest_path.read_text())
        assert manifest["error"] == out.error
        assert manifest["abort"] == out.abort == vars(abort.value)
        assert sorted(manifest["abort"]) == ["limit", "node", "order", "t", "value", "x"]
        assert manifest["abort"]["order"] == 5
        assert manifest["abort"]["value"] > manifest["abort"]["limit"] == GRADIENT_BLOWUP_LIMIT

    @pytest.mark.parametrize("doc", [{"model": "free"}, {"model": "harmonic", "t_max": 1.1, "order": 3}])
    def test_each_table_written_once(self, tmp_path, monkeypatch, doc):
        from wkbohm import experiments

        written = []
        original = experiments.emit_table

        def counted(path, columns):
            written.append(Path(path).name)
            return original(path, columns)

        monkeypatch.setattr(experiments, "emit_table", counted)
        self.run_counted(tmp_path, monkeypatch, doc)
        assert written == ["fields.csv", "summary.csv"]

    def test_underflowed_amplitude_is_written_not_failed(self, tmp_path):
        # The order-3 log R reaches about -884 at t = 1.15, below the
        # double range of exp; the run keeps orders 1 and 3 and then
        # aborts at order 5.
        out_dir = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"experiment": "hierarchy-convergence", "model": "harmonic", "t_max": 1.15,
             "order": 3, "output_dir": str(out_dir)}
        ))
        assert cli_main(["run", str(path)]) == 3
        run_dir = out_dir / "hierarchy-convergence"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "aborted"
        assert manifest["error"].startswith("CausticDetected: |grad| of order-5 field")
        summary = (run_dir / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in summary] == ["1", "3"]
        written = fields_by_order(run_dir)
        assert sorted(written) == [1, 3]
        assert all(np.all(r > 0) for _, r in written.values())

    def test_overflowed_amplitude_aborts_the_order(self, tmp_path):
        # At u = 3, far past the series' radius, the order-7 ln R passes
        # the double range of exp. That order aborts, and no table holds
        # the largest double in its place; orders 1 and 5 are written.
        out_dir = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"experiment": "hierarchy-convergence", "model": "free", "hbar": 3.0, "order": 5,
             "t_max": 2.0, "output_dir": str(out_dir)}
        ))
        assert cli_main(["run", str(path)]) == 3
        run_dir = out_dir / "hierarchy-convergence"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "aborted"
        assert manifest["error"].startswith("NumericalAbort: order 7 amplitude")
        assert sorted(manifest["abort"]) == ["limit", "node", "order", "t", "value", "x"]
        assert manifest["abort"]["order"] == 7
        assert manifest["abort"]["value"] > manifest["abort"]["limit"] == np.log(np.finfo(float).max)
        assert manifest["abort"]["t"] == pytest.approx(2.0)
        summary = (run_dir / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in summary] == ["1", "5"]
        for name in ("fields.csv", "summary.csv"):
            assert repr(float(np.finfo(float).max)) not in (run_dir / name).read_text()

    def test_series_weight_that_overflows_aborts_the_order(self, tmp_path, capsys):
        # hbar^4 = 1e312 is past the double range: order 5 aborts, naming
        # itself and t, after orders 1 and 3 are written.
        out_dir = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"experiment": "hierarchy-convergence", "model": "free", "hbar": 1e78,
             "output_dir": str(out_dir)}
        ))
        assert cli_main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numerical abort: NumericalAbort: order 5 weight hbar^4")
        run_dir = out_dir / "hierarchy-convergence"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "aborted"
        assert sorted(manifest["abort"]) == ["order", "t"] and manifest["abort"]["order"] == 5
        summary = (run_dir / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in summary] == ["1", "3"]
        assert sorted(fields_by_order(run_dir)) == [1, 3]


class TestUnitCoherence:
    def test_dimensionless_reports_invariant_under_unit_change(self, tmp_path):
        # Same physics in natural and in SI-like units: u values, KS
        # statistics, and relative slope errors must agree to 1e-12.
        hbar, mass, sigma0 = 1.0545718e-34, 9.10938e-31, 1e-10
        common = {"experiment": "equivariance", "model": "free",
                  "ensemble_n": 1500, "ensemble_mode": "random", "seed": 3}
        nat = run_experiment(parse_config(json.dumps(common)), out_dir=str(tmp_path / "nat"))
        si = run_experiment(
            parse_config(json.dumps({**common, "hbar": hbar, "mass": mass, "sigma0": sigma0})),
            out_dir=str(tmp_path / "si"),
        )
        for key in nat.metrics["ks"]:
            assert abs(nat.metrics["ks"][key] - si.metrics["ks"][key]) <= 1e-12
        # Dimensionless-time checkpoints agree across unit systems.
        u_nat = [float(line.split(",")[1]) for line in
                 (nat.out_dir / "ks.csv").read_text().splitlines()[1:]]
        u_si = [float(line.split(",")[1]) for line in
                (si.out_dir / "ks.csv").read_text().splitlines()[1:]]
        np.testing.assert_allclose(u_si, u_nat, rtol=1e-12)

        common = {"experiment": "figure1-asymptotic", "model": "free"}
        nat = run_experiment(parse_config(json.dumps(common)), out_dir=str(tmp_path / "nat2"))
        si = run_experiment(
            parse_config(
                json.dumps(
                    {
                        **common,
                        "hbar": hbar,
                        "mass": mass,
                        "sigma0": sigma0,
                        "x0_fan": [k * sigma0 for k in (-2.0, -1.0, 0.0, 1.0, 2.0)],
                    }
                )
            ),
            out_dir=str(tmp_path / "si2"),
        )
        assert abs(nat.metrics["max_rel_slope_error"] - si.metrics["max_rel_slope_error"]) <= 1e-12

    def test_free_equivariance_runs_where_sigma0_squared_sigma_t_squared_underflows(self, tmp_path, capsys):
        # sigma0^2 sigma_t^2 ~ 1e-600 underflows to 0; the velocity field,
        # formed in dimensionless groups, does not divide by it.
        out_dir = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "equivariance", "model": "free", "p0": 1e150,
                                    "sigma0": 1e-150, "output_dir": str(out_dir)}))
        assert cli_main(["run", str(path)]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((out_dir / "equivariance" / "manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["error"] is None
        assert manifest["metrics"]["ks_max"] == pytest.approx(0.0556, abs=5e-5)


class TestCli:
    def write_cfg(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_list_experiments(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "figure1-short" in out and "residuals" in out and len(out) == 5

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, {"experiment": "hierarchy-convergence", "model": "free"})
        assert cli_main(["validate", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["order"] == 3

    def test_validate_bad_config_exits_2(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, {"experiment": "nope", "model": "free"})
        assert cli_main(["validate", path]) == 2
        assert "experiment" in capsys.readouterr().err
        out_dir = tmp_path / "out"
        for doc, message in [
            (["residuals", "free"], "config must be a flat JSON object"),
            ({"experiment": "residuals", "model": "free", "grid_x_min": 5.0, "grid_x_max": 5.0,
              "output_dir": str(out_dir)}, "key 'grid_x_min' must be < 'grid_x_max'"),
            # mkdir once raised ValueError on each name: a traceback and exit 1.
            *(({"experiment": "residuals", "model": "free", "output_dir": name},
               f"key 'output_dir' must be a path without NUL or lone surrogates, got {name!r}")
              for name in ("a\0b", "\ud800")),
        ]:
            path = self.write_cfg(tmp_path, doc)
            assert cli_main(["validate", path]) == 2
            assert cli_main(["run", path]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n" * 2
        assert not out_dir.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 2

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"experiment": "residuals", "model": "free", "output_dir": "\xe9"}'.encode("latin-1"))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {str(path)!r}")

    def test_run_ok_and_env_override(self, tmp_path, capsys, monkeypatch):
        path = self.write_cfg(
            tmp_path,
            {"experiment": "figure1-short", "model": "free", "output_dir": str(tmp_path / "unused")},
        )
        target = tmp_path / "from-env"
        monkeypatch.setenv("WKBOHM_OUTPUT_DIR", str(target))
        assert cli_main(["run", path]) == 0
        manifest = json.loads((target / "figure1-short" / "manifest.json").read_text())
        assert manifest["config"]["output_dir"] == str(target)
        assert not (tmp_path / "unused").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        path = self.write_cfg(tmp_path, {"experiment": "figure1-short", "model": "free"})
        monkeypatch.setenv("WKBOHM_OUTPUT_DIR", str(tmp_path / "env"))
        flag_dir = tmp_path / "flag"
        assert cli_main(["run", path, "--output-dir", str(flag_dir)]) == 0
        manifest = json.loads((flag_dir / "figure1-short" / "manifest.json").read_text())
        assert manifest["config"]["output_dir"] == str(flag_dir)

    def test_numerical_abort_exits_3(self, tmp_path, capsys):
        path = self.write_cfg(
            tmp_path,
            {
                "experiment": "hierarchy-convergence",
                "model": "harmonic",
                "t_max": 1.56,
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert cli_main(["run", path]) == 3
        assert "abort" in capsys.readouterr().err.lower()

    def test_failed_run_exits_3(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = self.write_cfg(
            tmp_path,
            {
                "experiment": "hierarchy-convergence",
                "model": "free",
                "grid_x_min": 50,
                "grid_x_max": 60,
                "output_dir": str(out_dir),
            },
        )
        assert cli_main(["validate", path]) == 0
        capsys.readouterr()
        assert cli_main(["run", path]) == 3
        assert capsys.readouterr().err.startswith("run failed: ValueError: the comparison window")
        manifest = json.loads((out_dir / "hierarchy-convergence" / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_empty_comparison_window_fails_before_any_table(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = self.write_cfg(
            tmp_path,
            {
                "experiment": "residuals",
                "model": "free",
                "grid_x_min": 50,
                "grid_x_max": 60,
                "output_dir": str(out_dir),
            },
        )
        assert cli_main(["run", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: ValueError: the comparison window [")
        assert "holds no node of the grid [50, 60] (401 points)" in err
        run_dir = out_dir / "residuals"
        assert not (run_dir / "residuals.csv").exists()
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]
        assert json.loads((run_dir / "manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize(
        "doc",
        [
            {"experiment": "residuals", "model": "free", "sigma0": 1e200},
            {"experiment": "residuals", "model": "harmonic", "omega": 1e300},
            {"experiment": "equivariance", "model": "harmonic", "a": 1e300, "omega": 1e10},
        ],
    )
    def test_model_scales_that_overflow_exit_2(self, tmp_path, capsys, doc):
        # Finite keys whose derived scales (sigma0^2, m omega^2, the speed a omega) overflow.
        out_dir = tmp_path / "out"
        path = self.write_cfg(tmp_path, {**doc, "output_dir": str(out_dir)})
        with pytest.raises(ConfigError, match=f"model {doc['model']!r} cannot be built"):
            parse_config(json.dumps(doc))
        assert cli_main(["validate", path]) == 2
        assert cli_main(["run", path]) == 2
        assert capsys.readouterr().err.startswith("config error: model")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "doc, scale",
        [
            ({"experiment": "figure1-short", "model": "free", "sigma0": 1e-200}, "0.0"),
            ({"experiment": "equivariance", "model": "free", "sigma0": 1e-200}, "0.0"),
            ({"experiment": "residuals", "model": "harmonic", "omega": 1e-320}, "inf"),
        ],
    )
    def test_time_scale_that_underflows_or_overflows_exits_2(self, tmp_path, capsys, doc, scale):
        # sigma0^2 underflows to 0 (u = 0/0 in every table); 1/omega overflows.
        out_dir = tmp_path / "out"
        path = self.write_cfg(tmp_path, {**doc, "output_dir": str(out_dir)})
        message = f"time scale {scale} must be positive and finite"
        with pytest.raises(ConfigError, match=f"model {doc['model']!r} cannot be built.*{message}"):
            parse_config(json.dumps(doc))
        assert cli_main(["validate", path]) == 2
        assert cli_main(["run", path]) == 2
        assert capsys.readouterr().err == (
            f"config error: model {doc['model']!r} cannot be built from this config: "
            f"ValueError: {message}\n"
        ) * 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"experiment": "residuals", "model": "free", "p0": -(10**400)},
             f"key 'p0' must be finite, got {-(10**400)!r}"),
            ({"experiment": "residuals", "model": "harmonic", "mass": 1e-200, "omega": 1e-200},
             "model 'harmonic' cannot be built from this config: "
             "ZeroDivisionError: float division by zero"),
            ({"experiment": "residuals", "model": "harmonic", "hbar": 1e300, "mass": 1e-10,
              "omega": 1e-10},
             "model 'harmonic' cannot be built from this config: "
             "ValueError: width inf must be positive and finite"),
            ({"experiment": "residuals", "model": "harmonic", "p0": 5},
             "experiment 'residuals' on model 'harmonic' does not read key(s) p0; it reads "
             "experiment, model, hbar, mass, output_dir, seed, t_max, grid_x_min, grid_x_max, "
             "grid_points, omega, a"),
            ({"experiment": "residuals", "model": "free", "omega": 3, "a": 7},
             "experiment 'residuals' on model 'free' does not read key(s) a, omega; it reads "
             "experiment, model, hbar, mass, output_dir, seed, t_max, grid_x_min, grid_x_max, "
             "grid_points, sigma0, p0"),
            ({"experiment": "residuals", "model": "free", "x0_fan": [7, 8], "ensemble_n": 500,
              "ensemble_mode": "random", "order": 9, "dt": 0.5},
             "experiment 'residuals' on model 'free' does not read key(s) dt, ensemble_mode, "
             "ensemble_n, order, x0_fan; it reads experiment, model, hbar, mass, output_dir, "
             "seed, t_max, grid_x_min, grid_x_max, grid_points, sigma0, p0"),
            # The time scale 2 sigma0^2 is 2e-323, so the default dt of
            # 1e-3 time scales underflows to 0.
            ({"experiment": "hierarchy-convergence", "model": "free", "sigma0": 3e-162},
             "key 'dt' must be > 0, got 0.0"),
            # One period 2 pi / omega overflows the default t_max.
            ({"experiment": "equivariance", "model": "harmonic", "omega": 1e-308},
             "key 't_max' must be finite, got inf"),
            # A step longer than the run, given or defaulted (1e-3 time scales).
            ({"experiment": "hierarchy-convergence", "model": "free", "t_max": 0.1, "dt": 0.5},
             "key 'dt' must be <= 't_max', got 0.5 > 0.1"),
            ({"experiment": "equivariance", "model": "harmonic", "t_max": 0.1, "dt": 0.5},
             "key 'dt' must be <= 't_max', got 0.5 > 0.1"),
            ({"experiment": "hierarchy-convergence", "model": "harmonic", "t_max": 1e-4},
             "key 'dt' must be <= 't_max', got 0.001 > 0.0001"),
            ({"experiment": "equivariance", "model": "free", "t_max": 1e-4},
             "key 'dt' must be <= 't_max', got 0.002 > 0.0001"),
        ],
        ids=["real-beyond-float-range", "coherent-width-divides-by-zero",
             "coherent-width-overflows", "harmonic-p0", "free-omega-a", "run-keys-residuals-ignores",
             "default-dt-underflows", "default-t-max-overflows", "hierarchy-dt-past-t-max",
             "equivariance-dt-past-t-max", "hierarchy-default-dt-past-t-max",
             "equivariance-default-dt-past-t-max"],
    )
    def test_config_error_exits_2_before_any_output(self, tmp_path, capsys, doc, message):
        out_dir = tmp_path / "out"
        path = self.write_cfg(tmp_path, {**doc, "output_dir": str(out_dir)})
        assert cli_main(["validate", path]) == 2
        assert cli_main(["run", path]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n" * 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "experiment, keys, message",
        [
            (experiment, {"p0": 1e300, "mass": 1e-10}, "p0=1e+300 and mass=1e-10")
            for experiment in ("figure1-short", "residuals", "equivariance")
        ]
        + [("figure1-short", {"p0": -1e200}, "p0=-1e+200 and mass=1.0")],
    )
    def test_packet_whose_velocity_or_energy_overflows_exits_2(
        self, tmp_path, capsys, experiment, keys, message
    ):
        out_dir = tmp_path / "out"
        doc = {"experiment": experiment, "model": "free", **keys, "output_dir": str(out_dir)}
        path = self.write_cfg(tmp_path, doc)
        assert cli_main(["validate", path]) == 2
        assert cli_main(["run", path]) == 2
        assert capsys.readouterr().err == (
            f"config error: model 'free' cannot be built from this config: ValueError: {message} "
            "give a velocity p0/mass or an energy p0^2/(2 mass) that is not finite\n"
        ) * 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", sorted(FIELDS - {"experiment", "model"}))
    def test_a_null_exits_2_on_every_run_that_reads_the_key(self, tmp_path, capsys, key):
        # None leaves any key unset in a RunConfig built in code; a JSON null never does.
        message = {
            "x0_fan": "key 'x0_fan' must be a non-empty list of numbers",
            "ensemble_mode": "key 'ensemble_mode' must be one of quantile, random; got None",
            "output_dir": "key 'output_dir' must be a non-empty string",
        }.get(key, f"key {key!r} must be a number, got None")
        pairs = [(e, m) for e, m in PAIRS if key in run_keys(e, m)]
        assert pairs
        for experiment, model in pairs:
            path = self.write_cfg(tmp_path, {"experiment": experiment, "model": model, key: None})
            assert cli_main(["validate", path]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"

    def test_grid_too_narrow_for_distinct_nodes_fails_with_exit_3(self, tmp_path, capsys):
        # Its 401 nodes collide in pairs: the run once exited 0 with meaningless tables.
        out_dir = tmp_path / "out"
        doc = {"experiment": "residuals", "model": "free", "grid_x_min": 1.0,
               "grid_x_max": 1.0000000000000002, "output_dir": str(out_dir)}
        assert cli_main(["run", self.write_cfg(tmp_path, doc)]) == 3
        manifest = json.loads((out_dir / "residuals" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == (
            "ValueError: grid [1.0, 1.0000000000000002] is too narrow for 401 distinct nodes"
        )

    def test_run_whose_table_would_hold_inf_fails_with_exit_3(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        doc = {"experiment": "figure1-short", "model": "free", "x0_fan": [1e308, -1e308],
               "output_dir": str(out_dir)}
        path = self.write_cfg(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", path]) == 3
        # The overflow reaches the user as the table check's message alone.
        assert caught == []
        run_dir = out_dir / "figure1-short"
        error = f"WkbohmError: non-finite cell in {run_dir / 'trajectories.csv'}: row "
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"].startswith(error)
        assert capsys.readouterr().err == f"run failed: {manifest['error']}\n"
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]

    def test_seed_beyond_64_bits_validates_and_runs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        doc = {"experiment": "equivariance", "model": "free", "ensemble_mode": "random",
               "seed": 2**64, "output_dir": str(out_dir)}
        path = self.write_cfg(tmp_path, doc)
        assert cli_main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64
        assert cli_main(["run", path]) == 0
        manifest = json.loads((out_dir / "equivariance" / "manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["config"]["seed"] == 2**64

    def test_run_that_cannot_allocate_fails_with_exit_3(self, tmp_path, capsys, monkeypatch):
        # Stands in for a config such as dt = 1e-12 (6.3e12 steps), which
        # validates but whose arrays cannot be allocated.
        from wkbohm import experiments

        def exhausted(provider, x0s, t_grid):
            raise MemoryError("Unable to allocate 45.6 TiB for an array")

        monkeypatch.setattr(experiments, "integrate_ensemble_positions", exhausted)
        out_dir = tmp_path / "out"
        path = self.write_cfg(
            tmp_path, {"experiment": "equivariance", "model": "harmonic", "output_dir": str(out_dir)}
        )
        assert cli_main(["run", path]) == 3
        assert capsys.readouterr().err == "run failed: MemoryError: Unable to allocate 45.6 TiB for an array\n"
        manifest = json.loads((out_dir / "equivariance" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["abort"] is None
        assert manifest["error"] == "MemoryError: Unable to allocate 45.6 TiB for an array"
        assert manifest["finished_utc"] is not None

    def test_overflow_in_the_runner_fails_with_exit_3(self, tmp_path, capsys, monkeypatch):
        # Stands in for a float overflow that no guard turns into an abort.
        from wkbohm import experiments

        def overflowing(*args, **kwargs):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(experiments, "propagate_hierarchy", overflowing)
        out_dir = tmp_path / "out"
        path = self.write_cfg(
            tmp_path,
            {"experiment": "hierarchy-convergence", "model": "free", "output_dir": str(out_dir)},
        )
        assert cli_main(["run", path]) == 3
        assert capsys.readouterr().err.startswith("run failed: OverflowError")
        manifest = json.loads((out_dir / "hierarchy-convergence" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["abort"] is None
        assert manifest["error"].startswith("OverflowError")

    @pytest.mark.parametrize("out_dir", ["a\0b", "\ud800"], ids=["null-byte", "lone-surrogate"])
    def test_output_directory_the_os_cannot_name_raises_wkbohm_error(self, out_dir):
        # Neither argv nor the environment can carry these paths.
        cfg = parse_config(json.dumps({"experiment": "residuals", "model": "free"}))
        with pytest.raises(WkbohmError, match="cannot create run directory") as exc:
            run_experiment(cfg, out_dir=out_dir)
        assert repr(str(Path(out_dir) / "residuals")) in str(exc.value)

    def test_run_directory_that_cannot_be_created_exits_3(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out_dir = tmp_path / "afile" / "sub"
        path = self.write_cfg(
            tmp_path, {"experiment": "residuals", "model": "free", "output_dir": str(out_dir)}
        )
        assert cli_main(["validate", path]) == 0
        capsys.readouterr()
        assert cli_main(["run", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: cannot create run directory")
        assert str(out_dir / "residuals") in err
        assert (tmp_path / "afile").is_file()
        with pytest.raises(WkbohmError, match="cannot create run directory"):
            run_experiment(parse_config(json.dumps({"experiment": "residuals", "model": "free"})),
                           out_dir=str(out_dir))

    @pytest.mark.parametrize("model", ["free", "harmonic"])
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_pair_runs_or_is_rejected_at_parse_time(self, tmp_path, capsys, experiment, model):
        # The figure1 fans are free-packet figures; every other pair
        # that validates must also run.
        out_dir = tmp_path / "out"
        doc = {"experiment": experiment, "model": model, "output_dir": str(out_dir)}
        path = self.write_cfg(tmp_path, doc)
        if model == "harmonic" and experiment.startswith("figure1"):
            with pytest.raises(ConfigError, match=f"{experiment!r}.*{model!r}"):
                parse_config(json.dumps(doc))
            assert cli_main(["validate", path]) == 2
            assert cli_main(["run", path]) == 2
            assert not out_dir.exists()
        else:
            assert parse_config(json.dumps(doc)).experiment == experiment
            assert cli_main(["validate", path]) == 0
            assert cli_main(["run", path]) == 0
            manifest = json.loads((out_dir / experiment / "manifest.json").read_text())
            assert manifest["status"] == "ok"

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wkbohm.cli", "list-experiments"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "equivariance" in proc.stdout


class TestRoundTrip:
    """A manifest's `config` block is the run's config: saved as a file, it reruns the run."""

    @pytest.mark.parametrize("units", [False, True], ids=["defaults", "units"])
    @pytest.mark.parametrize("experiment, model", PAIRS)
    def test_manifest_config_validates_to_the_echo_and_reruns_the_tables(
        self, tmp_path, capsys, experiment, model, units
    ):
        doc = {"experiment": experiment, "model": model, "output_dir": str(tmp_path / "first")}
        if units:
            doc.update(UNITS[model])
        original = tmp_path / "original.json"
        original.write_text(json.dumps(doc))
        assert cli_main(["validate", str(original)]) == 0
        echo = capsys.readouterr().out
        assert cli_main(["run", str(original)]) == 0
        manifest = json.loads((tmp_path / "first" / experiment / "manifest.json").read_text())
        assert manifest["config"] == json.loads(echo)

        saved = tmp_path / "saved.json"
        saved.write_text(json.dumps(manifest["config"]))
        capsys.readouterr()
        assert cli_main(["validate", str(saved)]) == 0
        assert capsys.readouterr().out == echo
        assert cli_main(["run", str(saved), "--output-dir", str(tmp_path / "again")]) == 0
        again = json.loads((tmp_path / "again" / experiment / "manifest.json").read_text())
        assert manifest["files"] and again["files"] == manifest["files"]  # names, sizes and sha256

    @pytest.mark.parametrize("experiment, model, keys", [
        *(pytest.param(e, m, keys, id=f"{e}-{m}-{tag}")
          for e, m in PAIRS for tag, keys in (("defaults", {}), ("units", UNITS[m]))),
        # Numpy scalars are held as Python numbers, so the echo stays strict JSON.
        pytest.param("residuals", "free", {"grid_points": np.int64(401)}, id="numpy-int64"),
        pytest.param("residuals", "free", {"t_max": np.float64(0.4)}, id="numpy-float64"),
        pytest.param("residuals", "free", {"hbar": np.float32(0.5)}, id="numpy-float32"),
    ])
    def test_a_config_built_in_code_resolves_and_runs_as_its_document(self, tmp_path, experiment, model, keys):
        doc = {"experiment": experiment, "model": model,
               **{k: v.item() if isinstance(v, np.generic) else v for k, v in keys.items()}}
        built = RunConfig(experiment, model, **keys)
        resolved, parsed = resolve_config(built)[0], parse_config(json.dumps(doc))
        assert resolved == parsed and serialize_config(resolved) == serialize_config(parsed)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "cli")]) == 0
        run_experiment(built, out_dir=str(tmp_path / "code"))
        by_cli, in_code = (
            json.loads((tmp_path / where / experiment / "manifest.json").read_text())
            for where in ("cli", "code")
        )
        assert by_cli["files"] and in_code["files"] == by_cli["files"]  # names, sizes and sha256


class TestKeyRule:
    """A run reads the keys of every run, its experiment's and its model's; no other key."""

    # A value each key accepts.
    VALUES = {
        "hbar": 1.0, "mass": 1.0, "seed": 7, "x0_fan": [-1.0, 0.0, 1.0], "grid_x_min": -12.0,
        "grid_x_max": 12.0, "grid_points": 201, "order": 1, "t_max": 0.1, "dt": 0.01,
        "ensemble_n": 5, "ensemble_mode": "random", "sigma0": 1.0, "p0": 0.5, "omega": 0.5,
        "a": 0.3,
    }

    @staticmethod
    def fields_read(monkeypatch, cfg):
        """The RunConfig fields read while building the model and running, and the run.

        Reads inside `resolve_config` and `config_dict` are not counted:
        `dataclasses.replace`, the rule check and the echo read every
        field. The model builder that `resolve_config` calls is counted.
        """
        from wkbohm import experiments

        read, paused = set(), []
        original = RunConfig.__getattribute__

        def recording(self, name):
            if name in FIELDS and not (paused and paused[-1]):
                read.add(name)
            return original(self, name)

        def pausing(function, pause=True):
            def call(c):
                paused.append(pause)
                try:
                    return function(c)
                finally:
                    paused.pop()
            return call

        builder, *rest = MODELS[cfg.model]
        with monkeypatch.context() as m:
            m.setattr(RunConfig, "__getattribute__", recording)
            m.setattr(experiments, "config_dict", pausing(config_dict))
            m.setattr(experiments, "resolve_config", pausing(resolve_config))
            m.setitem(MODELS, cfg.model, (pausing(builder, pause=False), *rest))
            out = run_experiment(cfg)  # no out_dir: the run reads output_dir
        return read, out

    @pytest.mark.parametrize("experiment, model", PAIRS)
    def test_a_run_reads_the_keys_of_its_rule(self, tmp_path, monkeypatch, experiment, model):
        # The union over the defaults and a config that sets every key of
        # the rule: some reads sit behind a branch (grid_x_max is read
        # only once grid_x_min is given).
        keys = run_keys(experiment, model)
        monkeypatch.chdir(tmp_path)
        every = {k: self.VALUES[k] for k in keys if k not in ("experiment", "model", "output_dir")}
        read = set()
        for doc in ({}, {**every, "output_dir": "every"}):
            cfg = parse_config(json.dumps({"experiment": experiment, "model": model, **doc}))
            seen, out = self.fields_read(monkeypatch, cfg)
            assert out.status == "ok", out.error
            listed = json.loads(out.manifest_path.read_text())["config"]
            unset = set() if doc else {"grid_x_min", "grid_x_max"}
            assert list(listed) == sorted(set(keys) - unset)
            read |= seen
        expected = set(keys)
        # Only a random-mode ensemble draws from the seed; the key stays on
        # every run so that one seeded config serves every experiment.
        if experiment != "equivariance":
            expected.discard("seed")
        assert read == expected

    @pytest.mark.parametrize(
        "experiment, model, key",
        [(e, m, k) for e, m in PAIRS for k in sorted(FIELDS - set(run_keys(e, m)))],
    )
    def test_a_key_the_run_does_not_read_exits_2(self, tmp_path, capsys, experiment, model, key):
        out_dir = tmp_path / "out"
        doc = {"experiment": experiment, "model": model, key: self.VALUES[key],
               "output_dir": str(out_dir)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        message = (
            f"config error: experiment {experiment!r} on model {model!r} does not read key(s) "
            f"{key}; it reads {', '.join(run_keys(experiment, model))}\n"
        )
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == message * 2
        # Built in code, the same config raises the same error.
        with pytest.raises(ConfigError) as info:
            run_experiment(RunConfig(experiment, model, **{key: self.VALUES[key]}), out_dir=str(out_dir))
        assert f"config error: {info.value}\n" == message
        assert not out_dir.exists()


class TestFigureStructure:
    def test_only_center_member_coincides_with_classical(self, tmp_path):
        out = run_cfg(tmp_path, "fig")
        lines = (out.out_dir / "trajectories.csv").read_text().splitlines()[1:]
        by_member = {}
        for line in lines:
            t, u, x, source, x0 = line.split(",")
            key = float(x0)
            by_member.setdefault(key, {}).setdefault(source, []).append(float(x))
        for x0, series in by_member.items():
            gap = np.max(
                np.abs(np.array(series["analytic-free"]) - np.array(series["classical"]))
            )
            if x0 == 0.0:
                assert gap == 0.0
            else:
                assert gap > 0.1 * abs(x0)
