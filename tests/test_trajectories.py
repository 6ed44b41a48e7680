import numpy as np
import pytest

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
from wkbohm.numerics import ComplexField, Grid1D, RealField, cubic_interpolate
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
    integrate_classical,
    integrate_ensemble,
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
    def test_blend_then_interpolate_matches_interpolate_then_blend(self):
        rng = np.random.default_rng(11)
        grid = Grid1D(-3.0, 4.0, 141)
        times = np.cumsum(rng.uniform(0.05, 0.2, size=9)) - 0.3
        fields = np.sin(grid.nodes[None, :] * rng.uniform(0.5, 2.0, size=(9, 1)) + times[:, None])
        provider = GriddedVelocityField(grid, times, fields)
        lo, hi = provider.x_window
        x = np.concatenate([rng.uniform(lo, hi, 200), [lo, hi, grid.x_min, grid.x_max], grid.nodes])
        queries = np.concatenate([rng.uniform(times[0], times[-1], 40), times])
        for t in queries:
            j = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), times.size - 2)
            w = (t - times[j]) / (times[j + 1] - times[j])
            reference = (1.0 - w) * cubic_interpolate(grid, fields[j], x) + w * cubic_interpolate(
                grid, fields[j + 1], x
            )
            assert np.max(np.abs(provider.evaluate(x, t) - reference)) <= 1e-14

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


class TestClassicalIntegration:
    def test_free_particle_is_straight(self):
        t = np.linspace(0, 5, 101)
        traj = integrate_classical(Potential.free(), 1.0, 2.0, t)
        np.testing.assert_allclose(traj.positions, 1.0 + 2.0 * t, atol=1e-12)
        assert traj.source == "classical"

    def test_harmonic_closed_orbit(self):
        omega = 1.0
        period = 2 * np.pi / omega
        t = np.linspace(0, period, 1001)
        traj = integrate_classical(Potential.harmonic(1.0, omega), 1.0, 0.0, t)
        np.testing.assert_allclose(traj.positions, np.cos(omega * t), atol=1e-8)

    def test_energy_conserved(self):
        omega, x0 = 1.0, 1.0
        period = 2 * np.pi / omega
        t = np.linspace(0, period, 1001)
        pot = Potential.harmonic(1.0, omega)
        traj = integrate_classical(pot, x0, 0.0, t)
        # Velocity by central differences on the dense output.
        v = np.gradient(traj.positions, t)
        energy = 0.5 * v**2 + pot.value(traj.positions)
        # Endpoint derivative estimates are one-sided; check the interior.
        drift = np.abs(energy[2:-2] - energy[0])
        assert np.max(drift) <= 1e-4  # limited by np.gradient, not rk4
        x_exact = x0 * np.cos(omega * t)
        assert np.max(np.abs(traj.positions - x_exact)) <= 1e-10


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

    def test_uniform_mode_evenly_spaced(self):
        spec = packet()
        grid = Grid1D(-8, 8, 801)
        xs = sample_initial_positions(density_field(spec, grid), 5, "uniform")
        gaps = np.diff(xs)
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-12)

    def test_all_zero_density_rejected(self):
        grid = Grid1D(-8, 8, 801)
        with pytest.raises(ValueError):
            sample_initial_positions(RealField(grid, np.zeros(801)), 4, "quantile")

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
        report = check_no_crossing(Ensemble(members=[a, b], sampling="uniform"))
        assert not report.ok
        assert report.time == 2.0
        assert report.pair == (0, 1)


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
        fit = fit_asymptotic_velocity(traj, (110.0, 190.0))
        assert fit.velocity == pytest.approx(3.0, abs=1e-12)
        assert fit.residual <= 1e-10

    def test_window_too_short_rejected(self):
        t = np.linspace(0.0, 100.0, 101)
        traj = Trajectory(times=t, positions=t.copy(), x0=0.0, source="classical")
        with pytest.raises(ValueError):
            fit_asymptotic_velocity(traj, (94.5, 99.5))

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

    def test_free_packet_transport_preserves_density(self):
        spec = packet()
        grid = Grid1D(-30, 30, 3001)
        xs = sample_initial_positions(density_field(spec, grid), 10_000, "random", seed=42)
        t_end = time_for_u(spec, 1.0)
        t = np.linspace(0.0, t_end, 2001)
        ens = integrate_ensemble(FreePacketVelocityField(spec), xs, t, sampling="random")
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
            ens = integrate_ensemble(OscillatorVelocityField(spec), xs, t, sampling="random")
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
