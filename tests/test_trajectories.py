import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import references
from references import first_crossing, member_loop_positions, newton_cubic
from wkbohm.analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    PhysParams,
    free_packet_modulus,
    free_packet_trajectory,
    free_packet_wavefunction,
    ho_trajectory,
    time_for_u,
)
from wkbohm.hierarchy import init_hierarchy, propagate_collecting, truncated_velocity_field, PolarFields
from wkbohm.numerics import ComplexField, Grid1D, RealField, cubic_cell_evaluate, cubic_cell_table, cubic_interpolate
from wkbohm.potentials import Potential
from wkbohm.tdse import TdseState, oracle_velocity, tdse_propagate_collecting
from wkbohm.trajectories import (
    Ensemble,
    FreePacketVelocityField,
    GriddedVelocityField,
    OscillatorVelocityField,
    Trajectory,
    check_no_crossing,
    equivariance_check,
    fit_asymptotic_velocity,
    integrate_bohmian,
    integrate_ensemble,
    integrate_ensemble_positions,
    ks_distance,
    sample_initial_positions,
)

NATURAL = PhysParams(1.0, 1.0)


def packet(p0=0.0):
    return GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=p0)


def density_field(spec, grid, t=0.0):
    return RealField(grid, free_packet_modulus(spec, grid.nodes, t) ** 2, t)


class TestBohmianIntegration:
    def test_center_particle_rides_classical_line(self):
        spec = packet(p0=1.0)
        t = np.linspace(0, 3, 301)
        traj = integrate_bohmian(FreePacketVelocityField(spec), 0.0, t)
        assert traj.source == "analytic-free"
        assert not traj.truncated
        assert np.max(np.abs(traj.positions - spec.v0 * t)) <= 1e-9

    def test_spreading_trajectory_closed_form(self):
        spec = packet()
        t = np.arange(0, 2.0 + 1e-12, 1e-3)
        traj = integrate_bohmian(FreePacketVelocityField(spec), 1.0, t)
        assert abs(traj.positions[-1] - np.sqrt(2.0)) <= 1e-6

    def test_oscillator_returns_after_period(self):
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        t = np.linspace(0, spec.period, 1001)
        traj = integrate_bohmian(OscillatorVelocityField(spec), 0.3, t)
        assert abs(traj.positions[-1] - 0.3) <= 1e-6

    def test_window_exit_truncates_with_flag(self):
        grid = Grid1D(-1.0, 1.0, 51)
        times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        fields = np.ones((5, 51))  # uniform drift to the right
        provider = GriddedVelocityField(grid, times, fields, source="hierarchy")
        traj = integrate_bohmian(provider, 0.5, np.linspace(0, 2, 21))
        assert traj.truncated
        assert traj.times.size < 21
        assert traj.positions[-1] <= provider.x_window[1]

    def test_initial_position_outside_window_rejected(self):
        grid = Grid1D(-1.0, 1.0, 51)
        provider = GriddedVelocityField(grid, np.array([0.0, 1.0]), np.zeros((2, 51)))
        with pytest.raises(ValueError):
            integrate_bohmian(provider, 5.0, np.linspace(0, 1, 11))


class TestGriddedProvider:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_snapshot_time_rejected(self, bad):
        # [0, 1, inf] once gave the window (0, inf) and served t = 5 from
        # the t = 1 snapshot.
        grid = Grid1D(-1.0, 1.0, 51)
        with pytest.raises(ValueError, match=f"^snapshot times must be finite, got {bad}$"):
            GriddedVelocityField(grid, np.array([0.0, 1.0, bad]), np.zeros((3, 51)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_snapshot_value_rejected(self, bad):
        # A weight of 0 times NaN is NaN: the cubic blend would spread one
        # bad value over up to four intervals.
        grid = Grid1D(-1.0, 1.0, 51)
        fields = np.zeros((3, 51))
        fields[1, 7] = bad
        with pytest.raises(ValueError, match=rf"^snapshot values must be finite, got {bad} "
                                             rf"at snapshot 1 \(t=0\.5\), node 7 \(x=-0\.72\)$"):
            GriddedVelocityField(grid, np.array([0.0, 0.5, 1.0]), fields)

    def test_blend_then_interpolate_matches_interpolate_then_blend(self):
        rng = np.random.default_rng(11)
        grid = Grid1D(-3.0, 4.0, 141)
        times = np.cumsum(rng.uniform(0.05, 0.2, size=9)) - 0.3
        fields = np.sin(grid.nodes[None, :] * rng.uniform(0.5, 2.0, size=(9, 1)) + times[:, None])
        provider = GriddedVelocityField(grid, times, fields)
        lo, hi = provider.x_window
        x = np.concatenate([rng.uniform(lo, hi, 200), [lo, hi, grid.x_min, grid.x_max], grid.nodes])
        snapshots = np.stack([cubic_interpolate(grid, f, x) for f in fields])
        queries = np.concatenate([rng.uniform(times[0], times[-1], 40), times])
        for t in queries:
            reference = references.lagrange_blend(times, snapshots, float(t))
            assert np.max(np.abs(provider.evaluate(x, t) - reference)) <= 1e-14

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_matches_blend_then_newton_cubic(self, scale):
        rng = np.random.default_rng(12)
        grid = Grid1D(-3.0 * scale, 4.0 * scale, 141)
        times = np.cumsum(rng.uniform(0.05, 0.2, size=9))
        fields = np.sin(grid.nodes[None, :] / scale * rng.uniform(0.5, 2.0, size=(9, 1)) + times[:, None])
        provider = GriddedVelocityField(grid, times, fields)
        x = np.concatenate([rng.uniform(grid.x_min, grid.x_max, 200), [grid.x_min, grid.x_max], grid.nodes])
        # Forward, backward and repeated times: the cached tables must not leak between queries.
        queries = np.concatenate([rng.uniform(times[0], times[-1], 30), times, times[::-1], times[:3]])
        for t in queries:
            blended = references.lagrange_blend(times, fields, float(t))
            assert np.max(np.abs(provider.evaluate(x, t) - newton_cubic(grid, blended, x))) <= 1e-13
            fresh = GriddedVelocityField(grid, times, fields)
            assert np.array_equal(provider.evaluate(x, t), fresh.evaluate(x, t))

    def test_evaluate_is_cubic_cell_evaluate_on_the_blended_table(self):
        # Bit for bit, whatever order the query times come in.
        rng = np.random.default_rng(13)
        grid = Grid1D(-3.0, 4.0, 141)
        times = np.cumsum(rng.uniform(0.05, 0.2, size=9))
        fields = np.sin(grid.nodes[None, :] * rng.uniform(0.5, 2.0, size=(9, 1)) + times[:, None])
        provider = GriddedVelocityField(grid, times, fields)
        slack = 1e-9 * grid.dx
        x = np.concatenate([rng.uniform(grid.x_min, grid.x_max, 200), grid.nodes,
                            [grid.x_min - 0.5 * slack, grid.x_max + 0.5 * slack]])
        mids = 0.5 * (times[1:] + times[:-1])
        end_slack = 0.5e-9 * (times[-1] - times[0])
        queries = [
            *rng.uniform(times[0], times[-1], 20),  # random
            *mids, *times,  # forward
            *mids[::-1], *times[::-1],  # backward
            mids[3], mids[3], times[4], times[4],  # repeated
            mids[0], mids[-1], mids[1], mids[-2],  # window jumps
            times[0], times[-1], times[0] - end_slack, times[-1] + end_slack,  # the ends
        ]
        for t in map(float, queries):
            expected = cubic_cell_evaluate(grid, references.lagrange_cell_table(times, fields, t), x)
            assert provider.evaluate(x, t).tobytes() == expected.tobytes()
            assert provider.evaluate(x[7], t) == expected[7]

    def test_field_cubic_in_x_and_t_is_reproduced(self):
        grid = Grid1D(-2.0, 3.0, 61)
        times = np.array([0.0, 0.13, 0.2, 0.45, 0.6, 0.95, 1.0, 1.4])

        def field(x, t):
            return ((0.3 - 0.7 * x + 0.2 * x**2 + 0.05 * x**3) * (1.0 - 0.5 * t + 0.8 * t**2 - 0.3 * t**3)
                    + (x**3 - x) * (0.2 * t**3 - t))

        provider = GriddedVelocityField(grid, times, field(grid.nodes[None, :], times[:, None]))
        x = np.concatenate([np.linspace(grid.x_min, grid.x_max, 97), grid.nodes])
        rng = np.random.default_rng(14)
        queries = [
            *rng.uniform(times[0], times[-1], 30),
            *np.linspace(times[0], times[1], 5), *np.linspace(times[-2], times[-1], 5),  # one-sided windows
            *times,
        ]
        for t in map(float, queries):
            assert np.max(np.abs(provider.evaluate(x, t) - field(x, t))) <= 1e-13

    def test_three_snapshots_give_the_quadratic_and_two_the_line(self):
        grid = Grid1D(-1.0, 1.0, 41)
        shape = np.cos(grid.nodes)
        x = np.linspace(-1.0, 1.0, 53)
        # Three snapshots of a quadratic in t: the blend is that quadratic.
        times = np.array([0.0, 0.3, 1.0])
        quadratic = 0.4 - 1.1 * times + 0.9 * times**2
        provider = GriddedVelocityField(grid, times, quadratic[:, None] * shape)
        for t in np.linspace(0.0, 1.0, 23):
            exact = (0.4 - 1.1 * t + 0.9 * t**2) * cubic_interpolate(grid, shape, x)
            assert np.max(np.abs(provider.evaluate(x, t) - exact)) <= 1e-14
        # Two snapshots of the same quadratic: the blend is the line between them.
        times = np.array([0.0, 1.0])
        fields = (0.4 - 1.1 * times + 0.9 * times**2)[:, None] * shape
        provider = GriddedVelocityField(grid, times, fields)
        snapshots = np.stack([cubic_interpolate(grid, f, x) for f in fields])
        for t in np.linspace(0.0, 1.0, 23):
            line = references.linear_blend(times, snapshots, float(t))
            assert np.max(np.abs(provider.evaluate(x, t) - line)) <= 1e-15

    def test_smooth_field_error_is_below_a_tenth_of_the_linear_blends(self):
        grid = Grid1D(-3.0, 3.0, 121)
        times = np.linspace(0.0, 2.0, 11)

        def field(x, t):
            return np.sin(x - 0.7 * t) * np.exp(-0.1 * t)

        fields = field(grid.nodes[None, :], times[:, None])
        provider = GriddedVelocityField(grid, times, fields)
        x = np.linspace(-2.5, 2.5, 101)
        snapshots = np.stack([cubic_interpolate(grid, f, x) for f in fields])
        cubic_err = linear_err = 0.0
        for t in map(float, np.linspace(0.0, 2.0, 97)):
            cubic_err = max(cubic_err, np.max(np.abs(provider.evaluate(x, t) - field(x, t))))
            linear = references.linear_blend(times, snapshots, t)
            linear_err = max(linear_err, np.max(np.abs(linear - field(x, t))))
        assert cubic_err <= 0.1 * linear_err

    def test_snapshot_times_give_the_snapshot_cubic_bit_for_bit(self):
        # The weights there are exactly 1 and 0, whatever window the ring held before.
        rng = np.random.default_rng(15)
        grid = Grid1D(-3.0, 4.0, 141)
        times = np.cumsum(rng.uniform(0.05, 0.2, size=7))
        fields = np.sin(grid.nodes[None, :] * rng.uniform(0.5, 2.0, size=(7, 1)) + times[:, None])
        provider = GriddedVelocityField(grid, times, fields)
        x = np.concatenate([rng.uniform(grid.x_min, grid.x_max, 100), grid.nodes])
        mids = 0.5 * (times[1:] + times[:-1])
        for k in [*range(7), *range(6, -1, -1), 3, 0, 6, 2]:
            provider.evaluate(x, mids[(5 * k) % 6])  # move the window elsewhere first
            expected = cubic_cell_evaluate(grid, cubic_cell_table(fields[k]), x)
            assert provider.evaluate(x, times[k]).tobytes() == expected.tobytes()

    def test_point_outside_the_grid_raises(self):
        grid = Grid1D(-1.0, 1.0, 21)
        provider = GriddedVelocityField(grid, np.array([0.0, 1.0]), np.ones((2, 21)))
        for bad in (grid.x_max + 1e-6 * grid.dx, grid.x_min - 1e-6 * grid.dx, np.nan):
            with pytest.raises(ValueError, match="^interpolation point outside the grid$"):
                provider.evaluate(np.array([0.0, bad]), 0.5)

    def test_integrator_bits_do_not_depend_on_the_entry(self, monkeypatch):
        # Through the four protocol attributes only, the integrator calls
        # `evaluate`; with the provider itself, only the unchecked entry.
        grid = Grid1D(-1.0, 1.0, 51)
        times = np.linspace(0.0, 2.0, 9)
        fields = 0.5 + 0.3 * np.sin(3.0 * grid.nodes[None, :]) + 0.2 * times[:, None]
        x0s, t = np.linspace(-0.9, 0.9, 40), np.linspace(0.0, 2.0, 201)
        proxy = _Counted(GriddedVelocityField(grid, times, fields))
        through_evaluate = integrate_ensemble_positions(proxy, x0s, t)
        assert proxy.calls == 4 * 200

        def refused(self, x, t):
            raise AssertionError("the integrator called evaluate")

        monkeypatch.setattr(GriddedVelocityField, "evaluate", refused)
        positions, n_valid = integrate_ensemble_positions(GriddedVelocityField(grid, times, fields), x0s, t)
        assert positions.tobytes() == through_evaluate[0].tobytes()
        assert n_valid.tobytes() == through_evaluate[1].tobytes()
        assert 1 < n_valid.min() and n_valid.max() == 201  # members die mid-run

    def test_malformed_snapshots_rejected(self):
        grid = Grid1D(-1.0, 1.0, 51)
        for times, fields, message in [
            (np.array([0.0, 1.0]), np.zeros((2, 50)), r"fields must be \(n_times, n_points\)"),
            (np.array([0.0, 1.0]), np.zeros((3, 51)), r"fields must be \(n_times, n_points\)"),
            (np.array([0.0]), np.zeros((1, 51)), "need at least 2 strictly increasing"),
        ]:
            with pytest.raises(ValueError, match=message):
                GriddedVelocityField(grid, times, fields)

    def test_fields_are_read_only(self):
        provider = GriddedVelocityField(Grid1D(-1.0, 1.0, 21), np.array([0.0, 1.0]), np.ones((2, 21)))
        with pytest.raises(ValueError):
            provider.fields[0, 0] = 2.0

    @pytest.mark.parametrize("scale", [1e-15, 1e-6, 1.0, 1e6])
    def test_time_window_scales_with_the_snapshot_span(self, scale):
        grid = Grid1D(-1.0, 1.0, 21)
        times = scale * np.array([0.0, 1.0, 2.0])
        provider = GriddedVelocityField(grid, times, np.ones((3, 21)))
        for t in times:
            assert np.max(np.abs(provider.evaluate(np.array([0.0, 0.5]), t) - 1.0)) <= 1e-14
        for t in (times[0] - 1e-6 * scale, times[-1] + 1e-6 * scale):
            with pytest.raises(ValueError, match="outside stored snapshot range"):
                provider.evaluate(np.array([0.0]), t)


class _Pointwise:
    """Provider of a pointwise field fn(x, t) on a given x window."""

    t_window = (0.0, 10.0)

    def __init__(self, fn, x_window=(-2.0, 2.0)):
        self.fn, self.x_window = fn, x_window

    def evaluate(self, x, t):
        return self.fn(np.asarray(x, dtype=float), t)


class TestEnsembleLoop:
    """The whole-ensemble step against the per-member reference loop."""

    def check(self, provider, x0s, t):
        got = integrate_ensemble_positions(provider, np.array(x0s), t)
        ref = member_loop_positions(provider, x0s, t)
        np.testing.assert_array_equal(got[0], ref[0])  # NaN counts as equal
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[0].shape == (len(x0s), len(t)) and got[0].flags.c_contiguous
        return got

    def test_members_leaving_mid_run(self):
        grid = Grid1D(-1.0, 1.0, 51)
        times = np.linspace(0.0, 2.0, 9)
        fields = 0.5 + 0.3 * np.sin(3.0 * grid.nodes[None, :]) + 0.2 * times[:, None]
        provider = GriddedVelocityField(grid, times, fields)
        x0s = np.linspace(-0.9, 0.9, 40)
        positions, n_valid = self.check(provider, x0s, np.linspace(0.0, 2.0, 201))
        assert 1 < n_valid.min() and n_valid.max() == 201
        assert np.unique(n_valid).size > 5  # members die on many different steps

    @pytest.mark.parametrize("x_window", [(-2.0, 2.0), (-np.inf, np.inf)], ids=["bounded", "unbounded"])
    def test_stage_going_nan(self, x_window):
        # On (-inf, inf) the NaN probes reach the provider unchecked, as
        # they reach it through the reference's np.minimum/np.maximum.
        seen = []

        def field(x, t):
            seen.append(x)
            return np.sin(x) + 0.3 * t + np.where(x > 0.9, np.nan, 0.0)

        provider, x0s, t = _Pointwise(field, x_window), np.linspace(-1.5, 0.8, 25), np.linspace(0.0, 3.0, 301)
        positions, n_valid = self.check(provider, x0s, t)
        assert (n_valid < 301).any() and (n_valid == 301).any()
        seen.clear()
        integrate_ensemble_positions(provider, x0s, t)
        probes = np.concatenate(seen)
        assert np.isnan(probes).any() == np.isinf(x_window[1])  # a bounded window clamps NaN
        assert not np.isinf(probes).any()

    @pytest.mark.parametrize(
        "stage, edges, speeds, starts",
        [
            # Piecewise-constant fields with backflow at the window's edge
            # (x = 1). With dt = 0.05 only the named stage's probe leaves
            # on the first step; the others and the new position stay in.
            (2, [0.90, 0.92, 0.98], [0.0, 10.0, 0.0, -10.0], (0.90, 0.92)),
            (3, [0.80, 0.85, 0.90, 0.95, 0.98], [0.0, 4.0, 0.0, 10.0, 0.0, -4.0], (0.80, 0.85)),
            (4, [0.97], [2.0, -40.0], (0.92, 0.95)),
        ],
    )
    def test_one_stage_probe_leaving(self, stage, edges, speeds, starts):
        def field(x, t):
            return np.asarray(speeds)[np.searchsorted(edges, x, side="right")]

        provider = _Pointwise(field, x_window=(-1.0, 1.0))
        positions, n_valid = self.check(provider, np.linspace(*starts, 9, endpoint=False), np.linspace(0.0, 0.5, 11))
        assert (n_valid == 1).all()

    def test_unbounded_window_and_infinite_velocity(self):
        provider = _Pointwise(lambda x, t: np.where(x > 0.5, np.inf, 1.0), x_window=(-np.inf, np.inf))
        positions, n_valid = self.check(provider, np.linspace(-1.0, 0.4, 8), np.linspace(0.0, 1.0, 21))
        assert (n_valid < 21).any() and (n_valid == 21).any()
        assert np.isfinite(positions[~np.isnan(positions)]).all()

    def test_every_member_dying(self):
        grid = Grid1D(-1.0, 1.0, 51)
        provider = GriddedVelocityField(grid, np.array([0.0, 2.0]), np.ones((2, 51)))
        positions, n_valid = self.check(provider, np.linspace(0.0, 0.9, 7), np.linspace(0.0, 2.0, 41))
        assert n_valid.max() < 41

    def test_unbounded_analytic_window(self):
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        self.check(OscillatorVelocityField(spec), [-1.0, 0.0, 0.5], np.linspace(0, 6, 61))

    def test_no_members(self):
        provider = FreePacketVelocityField(packet())
        positions, n_valid = integrate_ensemble_positions(provider, np.array([]), np.linspace(0, 1, 5))
        assert positions.shape == (0, 5) and n_valid.shape == (0,)


class _Counted:
    """A provider's four attributes around another provider, counting `evaluate` calls."""

    def __init__(self, provider):
        self.provider, self.calls = provider, 0
        self.x_window, self.t_window, self.source = provider.x_window, provider.t_window, provider.source

    def evaluate(self, x, t):
        self.calls += 1
        return self.provider.evaluate(x, t)


class TestOnePass:
    """A field uniform in x on the whole line: one pass over the time grid, with the loop's bits."""

    @staticmethod
    def check(provider, x0s, t):
        # `_Counted` exposes only the four protocol attributes, so it steps the loop.
        proxy = _Counted(provider)
        looped = integrate_ensemble_positions(proxy, np.array(x0s), t)
        assert (proxy.calls > 0) == (t.size > 1)
        got = integrate_ensemble_positions(provider, np.array(x0s), t)
        assert got[0].tobytes() == looped[0].tobytes()
        assert got[1].tobytes() == looped[1].tobytes()
        assert got[0].shape == (len(x0s), t.size) and got[0].flags.c_contiguous
        return got

    @pytest.mark.parametrize("params, omega, a", [(NATURAL, 1.0, 1.0), (PhysParams(0.7, 1.3), 2.0, 0.3)],
                             ids=["defaults", "units"])
    def test_one_period_of_the_default_and_units_specs(self, params, omega, a, monkeypatch):
        spec = OscillatorSpec(params=params, omega=omega, a=a)
        provider = OscillatorVelocityField(spec)
        t = np.linspace(0.0, 2.0 * np.pi / omega, 6284)
        x0s = a + spec.sigma0 * np.linspace(-2.5, 2.5, 9)
        looped = integrate_ensemble_positions(_Counted(provider), x0s, t)

        def refused(self, x, t):
            raise AssertionError("the integrator stepped the loop")

        monkeypatch.setattr(OscillatorVelocityField, "evaluate", refused)
        positions, n_valid = integrate_ensemble_positions(provider, x0s, t)
        assert positions.tobytes() == looped[0].tobytes()
        assert n_valid.tobytes() == looped[1].tobytes() and (n_valid == t.size).all()

    @staticmethod
    def mixed_grid(rng, n_times):
        """Times of either sign and of magnitudes 1e-12 to 10: t_i + dt is not always t_{i+1}."""
        t = np.sort(rng.choice([-1.0, 1.0], n_times) * 10.0 ** rng.uniform(-12.0, 1.0, n_times))
        assert (t[1:] > t[:-1]).all()
        return t

    @pytest.mark.parametrize("n_times", [1, 2, 300])
    def test_random_grids(self, n_times):
        rng = np.random.default_rng(n_times)
        spec = OscillatorSpec(params=PhysParams(0.7, 1.3), omega=1.7, a=-0.45)
        self.check(OscillatorVelocityField(spec), rng.normal(size=6), self.mixed_grid(rng, n_times))

    def test_speeds_asked_at_the_loops_stage_times(self):
        field = OscillatorVelocityField(OscillatorSpec(params=NATURAL, omega=1.0, a=1.0))
        asked = []

        class Recording:
            x_window, t_window, source = field.x_window, field.t_window, field.source
            evaluate = staticmethod(field.evaluate)

            def _speeds(self, t):
                asked.append(t)
                return field._speeds(t)

        t = self.mixed_grid(np.random.default_rng(300), 300)
        assert (t[:-1] + (t[1:] - t[:-1]) != t[1:]).any()
        integrate_ensemble_positions(Recording(), np.zeros(2), t)
        assert sorted(np.concatenate(asked).tolist()) == sorted(_stage_times(t))

    def test_members_dying_mid_run(self):
        # The displacement a (cos t - 1) reaches -2e305: the member at
        # -1.797e308 overflows to -inf at t = 1.3, the one at -1e308 never.
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1e305)
        with np.errstate(over="ignore"):
            positions, n_valid = self.check(OscillatorVelocityField(spec), [-1.797e308, -1e308, 0.0, 1.0],
                                            np.linspace(0.0, 3.0, 31))
        assert n_valid.tolist() == [13, 31, 31, 31]
        assert np.isfinite(positions[0, :13]).all() and np.isnan(positions[0, 13:]).all()

    def test_infinite_start_dies_on_the_first_step(self):
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        for t in (np.linspace(0.0, 1.0, 5), np.array([0.0])):
            positions, n_valid = self.check(OscillatorVelocityField(spec), [np.inf, 0.5, -np.inf], t)
            assert n_valid.tolist() == [1, t.size, 1]

    def test_bounded_window_steps_the_loop(self):
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        field = OscillatorVelocityField(spec)

        class Bounded:
            x_window, t_window, source = (-2.0, 2.0), field.t_window, field.source
            evaluate = staticmethod(field.evaluate)

            def _speeds(self, t):
                raise AssertionError("the integrator took the one-pass route")

        x0s, t = np.linspace(-1.5, 1.5, 12), np.linspace(0.0, 4.0, 81)
        positions, n_valid = integrate_ensemble_positions(Bounded(), x0s, t)
        ref = member_loop_positions(field, x0s, t)  # the same field, but on the whole line
        alive = n_valid == 81
        assert alive.tolist() == (x0s > 0).tolist()  # x = x0 - 1 + cos t reaches x0 - 2
        assert positions[alive].tobytes() == ref[0][alive].tobytes()


def _stage_times(t_grid):
    """Every time rk4 queries over a grid, formed as the integrator forms them."""
    times = t_grid.tolist()
    out = []
    for t_i, t_next in zip(times, times[1:]):
        dt = t_next - t_i
        out += [t_i, t_i + 0.5 * dt, t_i + dt]
    return out


def _time_rule_decision(span, scale, offset, d_lo, d_hi, n):
    """Whether the integrator takes a grid sticking out d_lo, d_hi spans past the snapshots.

    Snapshots at b + a span [0, 1/2, 1] and the grid at b + a span g,
    with a = scale, b = offset a span and g running from -d_lo to
    1 + d_hi in n points. Checks that the integrator accepts the grid
    exactly when the provider accepts every stage time, and that a
    rejected grid makes no `evaluate` call.
    """
    unit = scale * span
    grid = Grid1D(-1.0, 1.0, 21)
    provider = GriddedVelocityField(grid, offset * unit + unit * np.array([0.0, 0.5, 1.0]), np.zeros((3, 21)))
    t_grid = offset * unit + unit * np.linspace(-d_lo, 1.0 + d_hi, n)
    counted = _Counted(provider)
    try:
        integrate_ensemble_positions(counted, np.array([0.0]), t_grid)
        accepted = True
    except ValueError as exc:
        assert str(exc).startswith("t_grid extends outside the provider's time window")
        assert counted.calls == 0
        accepted = False
    fresh = GriddedVelocityField(grid, provider.times, provider.fields)
    every_stage = True
    for t in _stage_times(t_grid):
        try:
            fresh.evaluate(np.array([0.0]), t)
        except ValueError:
            every_stage = False
    assert accepted == every_stage
    return accepted


class TestTimeRule:
    """One time-window rule, the same in the integrator and the gridded provider."""

    @settings(max_examples=300, deadline=None)
    @given(
        span=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        offset=st.one_of(
            st.just(0.0),
            st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 8.0)),
        ),
        d_lo=st.floats(-3e-9, 3e-9),
        d_hi=st.floats(-3e-9, 3e-9),
        n=st.integers(2, 6),
    )
    # Snapshots at 1e6 + [0, 1, 2] and a grid starting 5e-4 early: a
    # rule relative to |t| let this grid through to a mid-run error.
    @example(span=2.0, scale=1.0, offset=5e5, d_lo=2.5e-4, d_hi=0.0, n=11)
    def test_integrator_and_provider_agree_under_affine_time(self, span, scale, offset, d_lo, d_hi, n):
        base = _time_rule_decision(span, 1.0, 0.0, d_lo, d_hi, n)
        moved = _time_rule_decision(span, scale, offset, d_lo, d_hi, n)
        # The slack is 1e-9 span; where rounding of the moved times cannot
        # cross it, both grids get the decision of the exact offsets.
        tol = 16 * np.finfo(float).eps * (abs(offset) + 2.0)
        if abs(d_lo - 1e-9) > tol and abs(d_hi - 1e-9) > tol:
            assert base == moved == (d_lo <= 1e-9 and d_hi <= 1e-9)

    def test_nan_query_time_raises(self):
        provider = GriddedVelocityField(Grid1D(-1.0, 1.0, 21), np.array([0.0, 1.0]), np.ones((2, 21)))
        with pytest.raises(ValueError, match=r"t=nan outside stored snapshot range \[0.0, 1.0\]"):
            provider.evaluate(np.array([0.0]), np.nan)

    def test_window_errors_name_their_values(self):
        provider = GriddedVelocityField(Grid1D(-1.0, 1.0, 21), np.array([0.0, 2.0]), np.ones((2, 21)))
        for t_grid in (np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.5]), np.zeros((1, 2)), np.array([])):
            with pytest.raises(ValueError, match="^t_grid must be 1D and strictly increasing$"):
                integrate_ensemble_positions(provider, np.array([0.0]), t_grid)
        with pytest.raises(ValueError) as exc:
            integrate_ensemble_positions(provider, np.array([0.0]), np.array([-0.5, 1.0, 2.0]))
        assert str(exc.value) == (
            "t_grid extends outside the provider's time window: grid [-0.5, 2.0], window [0.0, 2.0]"
        )
        with pytest.raises(ValueError) as exc:
            integrate_ensemble_positions(provider, np.array([0.0, 0.95, -0.95]), np.array([0.0, 1.0]))
        assert str(exc.value) == (
            "an initial position lies outside the provider's x window: member 1 at x=0.95, window [-0.8, 0.8]"
        )


class TestSampling:
    def test_quantile_median_at_center(self):
        spec = packet()
        grid = Grid1D(-8, 8, 801)
        xs = sample_initial_positions(density_field(spec, grid), 9, "quantile")
        assert xs.size == 9
        assert abs(xs[4]) <= grid.dx
        np.testing.assert_allclose(xs, -xs[::-1], atol=1e-9)  # symmetric fan

    def test_two_quantiles_are_quartiles(self):
        spec = packet()
        grid = Grid1D(-8, 8, 1601)
        xs = sample_initial_positions(density_field(spec, grid), 2, "quantile")
        # |psi|^2 of the packet has standard deviation sigma0 = 1, so
        # the quartiles sit at +-0.67448975.
        np.testing.assert_allclose(xs, [-0.6744898, 0.6744898], atol=1e-3)

    def test_random_mode_reproducible(self):
        spec = packet()
        grid = Grid1D(-8, 8, 801)
        a = sample_initial_positions(density_field(spec, grid), 64, "random", seed=7)
        b = sample_initial_positions(density_field(spec, grid), 64, "random", seed=7)
        assert np.array_equal(a, b)
        c = sample_initial_positions(density_field(spec, grid), 64, "random", seed=8)
        assert not np.array_equal(a, c)

    def test_all_zero_density_rejected(self):
        grid = Grid1D(-8, 8, 801)
        with pytest.raises(ValueError):
            sample_initial_positions(RealField(grid, np.zeros(801)), 4, "quantile")

    def test_bad_count_or_mode_rejected(self):
        density = density_field(packet(), Grid1D(-8, 8, 801))
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_initial_positions(density, 0, "quantile")
        with pytest.raises(ValueError, match="unknown sampling mode 'bogus'"):
            sample_initial_positions(density, 4, "bogus")

    def test_negative_density_rejected(self):
        grid = Grid1D(-8, 8, 801)
        rho = np.ones(801)
        rho[3] = -0.1
        with pytest.raises(ValueError):
            sample_initial_positions(RealField(grid, rho), 4, "quantile")


class TestNoCrossing:
    def test_free_ensemble_keeps_order(self):
        spec = packet(p0=0.5)
        t = np.linspace(0, 4, 401)
        ens = integrate_ensemble(FreePacketVelocityField(spec), [-2.0, -0.5, 0.0, 1.0, 2.5], t)
        report = check_no_crossing(ens)
        assert report.ok

    def test_oscillator_gaps_constant(self):
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        t = np.linspace(0, 2 * spec.period, 801)
        ens = integrate_ensemble(OscillatorVelocityField(spec), [-1.0, 0.0, 0.5], t)
        assert check_no_crossing(ens).ok
        gap = ens.members[2].positions - ens.members[0].positions
        assert np.max(np.abs(gap - 1.5)) <= 1e-8

    def test_constructed_swap_reported(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        a = Trajectory(times=t, positions=np.array([0.0, 0.1, 0.6, 0.9]), x0=0.0, source="series")
        b = Trajectory(times=t, positions=np.array([0.5, 0.6, 0.4, 0.2]), x0=0.5, source="series")
        report = check_no_crossing(Ensemble(members=[a, b]))
        assert not report.ok
        assert report.time == 2.0
        assert report.pair == (0, 1)


    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_time_by_time_scan(self, seed):
        rng = np.random.default_rng(seed)
        n, n_t = 30, 40
        t = np.linspace(0.0, 1.0, n_t)
        x0s = rng.permutation(np.arange(n, dtype=float))
        pos = x0s[:, None] + 0.01 * rng.normal(size=(n, n_t)).cumsum(axis=1)
        pos[:, 0] = x0s
        order = np.argsort(x0s)
        for kind in ("tie", "swap")[: seed % 3]:
            m = rng.integers(0, n - 1)
            a, b = order[m], order[m + 1]  # neighbours in initial order
            ti = rng.integers(1, n_t)
            if kind == "tie":
                pos[a, ti:] = pos[b, ti:]  # a tie counts as a crossing
            else:
                pos[[a, b], ti:] = pos[[b, a], ti:]
        members = [Trajectory(times=t, positions=pos[i], x0=x0s[i], source="series") for i in range(n)]
        report = check_no_crossing(Ensemble(members=members))
        expected = first_crossing(x0s, pos, t)
        if expected is None:
            assert report.ok and report.pair is None
        else:
            assert not report.ok
            assert (report.pair, report.time) == expected


class TestAsymptoticFit:
    def test_recovers_nonlocal_velocity_shift(self):
        spec = packet()
        t = np.linspace(0, time_for_u(spec, 50.0), 2001)
        traj = Trajectory(
            times=t, positions=free_packet_trajectory(spec, 1.0, t), x0=1.0, source="analytic-free"
        )
        fit = fit_asymptotic_velocity(
            traj, (time_for_u(spec, 20.0), time_for_u(spec, 40.0)), packet=spec
        )
        assert abs(fit.velocity - 0.5) / 0.5 <= 5e-3

    def test_center_trajectory_fits_exactly(self):
        spec = packet(p0=2.0)
        t = np.linspace(0, time_for_u(spec, 50.0), 2001)
        traj = Trajectory(
            times=t, positions=free_packet_trajectory(spec, 0.0, t), x0=0.0, source="analytic-free"
        )
        fit = fit_asymptotic_velocity(
            traj, (time_for_u(spec, 20.0), time_for_u(spec, 40.0)), packet=spec
        )
        assert abs(fit.velocity - spec.v0) <= 1e-9
        assert abs(fit.intercept) <= 1e-8

    def test_line_fits_line(self):
        t = np.linspace(100.0, 200.0, 100)
        traj = Trajectory(times=t, positions=3.0 * t - 1.0, x0=float(3 * t[0] - 1), source="classical")
        fit = fit_asymptotic_velocity(traj, (110.0, 190.0), packet=packet())
        assert fit.velocity == pytest.approx(3.0, abs=1e-12)
        assert fit.residual <= 1e-10

    def test_window_too_short_rejected(self):
        t = np.linspace(0.0, 100.0, 101)
        traj = Trajectory(times=t, positions=t.copy(), x0=0.0, source="classical")
        with pytest.raises(ValueError, match="samples"):
            fit_asymptotic_velocity(traj, (94.5, 99.5), packet=packet())

    def test_early_window_rejected_for_packet(self):
        spec = packet()
        t = np.linspace(0, time_for_u(spec, 50.0), 2001)
        traj = Trajectory(
            times=t, positions=free_packet_trajectory(spec, 1.0, t), x0=1.0, source="analytic-free"
        )
        with pytest.raises(ValueError):
            fit_asymptotic_velocity(traj, (time_for_u(spec, 5.0), time_for_u(spec, 40.0)), packet=spec)


class TestEquivariance:
    def test_quantile_ensemble_ks_bounded_by_construction(self):
        spec = packet()
        grid = Grid1D(-8, 8, 1601)
        density = density_field(spec, grid)
        n = 25
        xs = sample_initial_positions(density, n, "quantile")
        assert ks_distance(xs, density) <= 1.0 / n
        with pytest.raises(ValueError, match="need at least one sample"):
            ks_distance(xs[:0], density)

    def test_free_packet_transport_preserves_density(self):
        spec = packet()
        grid = Grid1D(-30, 30, 3001)
        xs = sample_initial_positions(density_field(spec, grid), 10_000, "random", seed=42)
        t_end = time_for_u(spec, 1.0)
        t = np.linspace(0.0, t_end, 2001)
        ens = integrate_ensemble(FreePacketVelocityField(spec), xs, t)
        ks = equivariance_check(ens, density_field(spec, grid, t_end))
        assert ks < 0.02

    def test_oscillator_quarter_period_checkpoints(self):
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        grid = Grid1D(-8, 8, 2001)
        x = grid.nodes

        def density(t):
            c = spec.a * np.cos(spec.omega * t)
            rho = (2 * np.pi * spec.sigma0**2) ** (-0.5) * np.exp(
                -((x - c) ** 2) / (2 * spec.sigma0**2)
            )
            return RealField(grid, rho, t)

        xs = sample_initial_positions(density(0.0), 10_000, "random", seed=11)
        for frac in (0.25, 0.5, 0.75, 1.0):
            t_end = frac * spec.period
            t = np.linspace(0, t_end, 800)
            ens = integrate_ensemble(OscillatorVelocityField(spec), xs, t)
            assert equivariance_check(ens, density(t_end)) < 0.02

    def test_truncated_member_rejected(self):
        grid = Grid1D(-1.0, 1.0, 51)
        provider = GriddedVelocityField(grid, np.array([0.0, 2.0]), np.ones((2, 51)))
        ens = integrate_ensemble(provider, [0.0, 0.5], np.linspace(0, 2, 21))
        assert ens.members[1].truncated
        with pytest.raises(ValueError):
            equivariance_check(ens, RealField(grid, np.ones(51)))


class TestProviderEquivalence:
    def test_three_routes_agree_for_free_packet(self):
        # Analytic field, hierarchy-reconstructed field, and the
        # Schrodinger-oracle field must transport the same fan to
        # within 1e-3 sigma0 up to u = 0.5.
        spec = packet()
        t_end = time_for_u(spec, 0.5)
        fan = [-1.5, -0.5, 0.5, 1.5]
        t = np.linspace(0.0, t_end, 501)

        analytic = FreePacketVelocityField(spec)

        # Coarse grid: the stack's fields are quadratics (stencils are
        # exact at any dx) while differentiation roundoff amplifies
        # like 1/dx^2 per order, so coarse is strictly better here.
        grid = Grid1D(-16, 16, 161)
        x = grid.nodes
        r = free_packet_modulus(spec, x, 0.0)
        psi0 = PolarFields(R=RealField(grid, r), S=RealField(grid, np.zeros_like(x)))
        states = propagate_collecting(
            init_hierarchy(psi0, 8), Potential.free(), 1e-3, 1000, every=10, params=NATURAL
        )
        hier = GriddedVelocityField(
            grid,
            np.array([s.time for s in states]),
            np.stack([truncated_velocity_field(s, NATURAL, 4).values for s in states]),
            source="hierarchy",
        )

        ogrid = Grid1D(-20, 20, 2001)
        psi = ComplexField(ogrid, free_packet_wavefunction(spec, ogrid.nodes, 0.0))
        snaps = tdse_propagate_collecting(
            TdseState(psi=psi, potential=Potential.free(), params=NATURAL), 1e-3, 1000, every=10
        )
        oracle = GriddedVelocityField(
            ogrid,
            np.array([s.time for s in snaps]),
            np.stack([oracle_velocity(s.psi, NATURAL, x_window=(-6, 6)).values for s in snaps]),
            source="oracle",
        )

        for x0 in fan:
            ref = integrate_bohmian(analytic, x0, t)
            for provider in (hier, oracle):
                got = integrate_bohmian(provider, x0, t)
                assert not got.truncated
                assert np.max(np.abs(got.positions - ref.positions)) <= 1e-3 * spec.sigma0

    def test_closed_forms_match_integration(self):
        # Module-level consistency: integrating the analytic fields
        # reproduces the closed-form trajectories for both models.
        spec = packet()
        t = np.linspace(0.0, 4.0, 2001)
        for x0 in (-1.0, 0.5):
            traj = integrate_bohmian(FreePacketVelocityField(spec), x0, t)
            exact = free_packet_trajectory(spec, x0, t)
            assert np.max(np.abs(traj.positions - exact)) <= 1e-6 * spec.sigma0

        osc = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        t = np.linspace(0.0, 2 * osc.period, 2001)
        for x0 in (0.2, 1.4):
            traj = integrate_bohmian(OscillatorVelocityField(osc), x0, t)
            exact = ho_trajectory(osc, x0, t)
            assert np.max(np.abs(traj.positions - exact)) <= 1e-6 * osc.sigma0


class TestInvariantObjects:
    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), positions=np.array([1.0, 1.0]), x0=1.0, source="classical")
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), positions=np.array([1.0, 2.0]), x0=0.0, source="classical")
        t = np.array([0.0, 1.0])
        for positions, source, message in [
            (np.array([0.0, 1.0, 2.0]), "classical", "equal-length 1D arrays"),
            (np.array([0.0, np.inf]), "classical", "positions must be finite"),
            (np.array([0.0, 1.0]), "bogus", "unknown source tag 'bogus'"),
        ]:
            with pytest.raises(ValueError, match=message):
                Trajectory(times=t, positions=positions, x0=0.0, source=source)

    def test_ensemble_needs_two_members(self):
        t = np.array([0.0, 1.0])
        a = Trajectory(times=t, positions=np.array([0.0, 0.1]), x0=0.0, source="classical")
        with pytest.raises(ValueError):
            Ensemble(members=[a])

    def test_ensemble_shared_time_grid(self):
        a = Trajectory(times=np.array([0.0, 1.0]), positions=np.array([0.0, 0.1]), x0=0.0, source="classical")
        b = Trajectory(times=np.array([0.0, 2.0]), positions=np.array([1.0, 1.1]), x0=1.0, source="classical")
        with pytest.raises(ValueError):
            Ensemble(members=[a, b])

    @staticmethod
    def _member(times, x0=0.0):
        return Trajectory(times=times, positions=np.full(times.size, x0), x0=x0, source="classical")

    def test_ensemble_accepts_views_and_copies_of_the_grid(self):
        t = np.linspace(0.0, 1.0, 11)
        members = [self._member(t), self._member(t[:11], 1.0), self._member(t[:4], 2.0),
                   self._member(t[:7].copy(), 3.0)]
        Ensemble(members=members)

    def test_finished_members_hold_the_run_grid_itself(self):
        # Uniform drift to the right: the member from 0.5 leaves the window.
        grid = Grid1D(-1.0, 1.0, 51)
        provider = GriddedVelocityField(grid, np.array([0.0, 1.0]), np.ones((2, 51)))
        t = np.linspace(0.0, 1.0, 11)
        first, second, late = integrate_ensemble(provider, [-0.9, -0.5, 0.5], t).members
        assert first.times is t and second.times is t
        assert late.truncated and np.array_equal(late.times, t[: late.times.size])

    @pytest.mark.parametrize(
        "other",
        [
            lambda t: t[1:6],  # same array, shifted start
            lambda t: t[::2],  # same start, other stride
            lambda t: t[:6] * (1.0 + 1e-15),  # a separate array, one ulp off
            lambda t: np.linspace(0.0, 2.0, 11)[:5],  # another grid
        ],
    )
    def test_ensemble_rejects_a_mismatched_grid(self, other):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="share one time grid"):
            Ensemble(members=[self._member(t), self._member(t[:11], 1.0), self._member(other(t), 2.0)])

    def test_oscillator_field_fills_the_query_shape(self):
        field = OscillatorVelocityField(OscillatorSpec(params=NATURAL, omega=1.3, a=0.7))
        x = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
        v = field.evaluate(x, 0.4)
        assert v.shape == x.shape and v.flags.writeable
        np.testing.assert_array_equal(v, np.broadcast_to(field.evaluate(0.0, 0.4), x.shape))
        assert np.ndim(field.evaluate(0.25, 0.4)) == 0


class TestClosedFormProviders:
    """The closed-form providers, bitwise against their former formulas."""

    XS = (0.7, np.float64(-1.25), np.array(2.5), np.array(-0.5), np.linspace(-3.0, 3.0, 13),
          np.linspace(-1.0, 1.0, 6).reshape(2, 3), np.array([]))
    TS = (0.0, -0.0, 0.37, -0.37, 12.5, -3.1e-7, np.float64(2.25), np.float64(-2.25), 3, np.array(-1.75))

    @staticmethod
    def assert_same(got, ref):
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref) and np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("params", [NATURAL, PhysParams(0.7, 1.3)])
    @pytest.mark.parametrize("sigma0, p0", [(1.0, 0.0), (0.9, 0.4), (2.5, -1.5)])
    def test_free_packet_velocity(self, params, sigma0, p0):
        spec = GaussianPacketSpec(params=params, sigma0=sigma0, p0=p0)
        field = FreePacketVelocityField(spec)
        for x in self.XS:
            for t in self.TS:
                self.assert_same(field.evaluate(x, t), references.free_packet_velocity(spec, x, t))

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_free_packet_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            FreePacketVelocityField(packet()).evaluate(np.zeros(3), t)

    @pytest.mark.parametrize("omega, a", [(1.0, 1.0), (1.3, 0.7), (2.0, -0.3)])
    def test_oscillator_velocity(self, omega, a):
        spec = OscillatorSpec(params=PhysParams(0.7, 1.3), omega=omega, a=a)
        field = OscillatorVelocityField(spec)
        for x in self.XS:
            for t in self.TS:
                self.assert_same(field.evaluate(x, t), references.oscillator_velocity(spec, x, t))


class TestDivergenceOnset:
    def test_quantum_classical_gap_grows_quadratically(self):
        # |x_bohm - x_cl| = x0 (sqrt(1+u^2) - 1): zero at t = 0, then
        # ~ x0 u^2/2 while u is small.
        spec = packet(p0=0.4)
        x0 = 1.3
        for u in (0.01, 0.05, 0.2):
            t = time_for_u(spec, u)
            gap = free_packet_trajectory(spec, x0, t) - (x0 + spec.v0 * t)
            assert gap == pytest.approx(x0 * (np.sqrt(1 + u**2) - 1), rel=1e-12)
            assert gap == pytest.approx(x0 * u**2 / 2, rel=2 * u**2)
        assert free_packet_trajectory(spec, x0, 0.0) - x0 == 0.0
