import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import references
from wkbohm.analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    PhysParams,
    dimensionless_time,
    free_packet_action,
    free_packet_asymptotic_velocity,
    free_packet_modulus,
    free_packet_trajectory,
    free_packet_trajectory_series,
    free_packet_velocity,
    free_packet_wavefunction,
    ho_action,
    ho_trajectory,
    ho_velocity,
    ho_wavefunction,
    spreading,
    time_for_u,
    trajectory_series_coefficient,
)

NATURAL = PhysParams(hbar=1.0, mass=1.0)


def packet(p0=0.0, sigma0=1.0, params=NATURAL):
    return GaussianPacketSpec(params=params, sigma0=sigma0, p0=p0)


class TestSpreading:
    def test_no_evolution_at_t0(self):
        s = spreading(packet(), 0.0)
        assert s.sigma_t == 1.0
        assert s.sigma_tilde_t == 1.0 + 0.0j
        assert s.u == 0.0

    def test_unit_dimensionless_time(self):
        s = spreading(packet(), 2.0)
        assert s.u == pytest.approx(1.0)
        assert s.sigma_t == pytest.approx(np.sqrt(2.0))

    def test_linear_asymptotic_growth(self):
        s = spreading(packet(), 200.0)
        assert s.u == pytest.approx(100.0)
        assert s.sigma_t == pytest.approx(100.00499987500078, rel=1e-12)
        assert s.sigma_t / s.u == pytest.approx(1.0, abs=1e-4)

    def test_complex_modulus_equals_real_spreading(self):
        for t in (0.0, 0.3, 2.7, -1.4):
            s = spreading(packet(), t)
            assert abs(s.sigma_tilde_t) == pytest.approx(s.sigma_t, rel=1e-14)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PhysParams(hbar=-1.0)
        with pytest.raises(ValueError):
            GaussianPacketSpec(params=NATURAL, sigma0=0.0)


class TestFreePacketWavefunction:
    def test_peak_modulus(self):
        spec = packet(p0=0.7)
        for t in (0.0, 1.0, 3.0):
            s = spreading(spec, t)
            peak = abs(free_packet_wavefunction(spec, spec.v0 * t, t))
            assert peak == pytest.approx((2 * np.pi * s.sigma_t**2) ** (-0.25), rel=1e-13)

    def test_normalization_by_quadrature(self):
        spec = packet(p0=1.0)
        for t in (0.0, 2.0):
            s = spreading(spec, t)
            x = np.linspace(spec.v0 * t - 8 * s.sigma_t, spec.v0 * t + 8 * s.sigma_t, 4001)
            rho = np.abs(free_packet_wavefunction(spec, x, t)) ** 2
            assert np.trapezoid(rho, x) == pytest.approx(1.0, abs=1e-10)

    def test_hand_value_at_t0(self):
        value = abs(free_packet_wavefunction(packet(), 1.0, 0.0))
        assert value == pytest.approx((2 * np.pi) ** (-0.25) * np.exp(-0.25), rel=1e-14)

    def test_modulus_helper_consistent(self):
        spec = packet(p0=0.5)
        x = np.linspace(-4, 6, 301)
        np.testing.assert_allclose(
            np.abs(free_packet_wavefunction(spec, x, 1.7)),
            free_packet_modulus(spec, x, 1.7),
            rtol=1e-13,
        )


class TestFreePacketAction:
    def test_reduces_to_linear_at_t0(self):
        spec = packet(p0=2.0)
        x = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(free_packet_action(spec, x, 0.0), 2.0 * x, atol=1e-14)

    def test_gradient_at_center_is_momentum(self):
        spec = packet(p0=1.3)
        h = 1e-6
        for t in (0.5, 2.0, 10.0):
            c = spec.v0 * t
            grad = (free_packet_action(spec, c + h, t) - free_packet_action(spec, c - h, t)) / (2 * h)
            assert grad == pytest.approx(spec.p0, abs=1e-9)

    def test_phase_matches_action_up_to_constant(self):
        # hbar * unwrapped phase differs from the action only by a
        # space-independent offset at each time (here the energy term).
        spec = packet(p0=1.0)
        for t in (0.4, 1.0):
            s = spreading(spec, t)
            x = np.linspace(spec.v0 * t - 2 * s.sigma_t, spec.v0 * t + 2 * s.sigma_t, 501)
            phase = NATURAL.hbar * np.unwrap(np.angle(free_packet_wavefunction(spec, x, t)))
            diff = phase - free_packet_action(spec, x, t)
            assert np.max(diff) - np.min(diff) <= 1e-9


class TestFreePacketTrajectory:
    def test_initial_condition(self):
        assert free_packet_trajectory(packet(), 1.7, 0.0) == 1.7

    def test_center_is_classical(self):
        spec = packet(p0=2.0)
        t = np.linspace(0, 5, 11)
        np.testing.assert_allclose(free_packet_trajectory(spec, 0.0, t), spec.v0 * t, atol=1e-14)

    def test_hand_value(self):
        assert free_packet_trajectory(packet(), 1.0, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_hyperbolic_invariant(self):
        spec = packet(p0=0.8)
        for x0 in (-2.0, 0.5, 3.0):
            for t in (0.1, 1.0, 7.0):
                u = float(dimensionless_time(spec, t))
                x = free_packet_trajectory(spec, x0, t)
                assert ((x - spec.v0 * t) / x0) ** 2 - u**2 == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        x0a=st.floats(min_value=-3, max_value=3),
        gap=st.floats(min_value=1e-6, max_value=2.0),
        t=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_order_preserved(self, x0a, gap, t):
        spec = packet(p0=0.3)
        xa = free_packet_trajectory(spec, x0a, t)
        xb = free_packet_trajectory(spec, x0a + gap, t)
        assert xb > xa

    def test_classical_limit_quadratic_in_hbar(self):
        # Leading divergence from the classical line is x0 u^2 / 2, so
        # halving hbar at fixed t shrinks it by 4.
        t, x0 = 1.0, 1.0
        gaps = []
        for hbar in (1e-2, 5e-3):
            spec = packet(params=PhysParams(hbar=hbar, mass=1.0))
            gaps.append(free_packet_trajectory(spec, x0, t) - x0)
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=1e-4)


class TestTrajectorySeries:
    def test_order_zero_is_classical(self):
        spec = packet(p0=1.0)
        res = free_packet_trajectory_series(spec, 2.0, 3.0, 0)
        assert res.position == 2.0 + spec.v0 * 3.0

    def test_first_coefficient_is_half(self):
        assert trajectory_series_coefficient(1) == pytest.approx(0.5, rel=1e-15)
        # Taylor series of sqrt(1+u^2): +1/2, -1/8, +1/16, ...
        assert trajectory_series_coefficient(2) == pytest.approx(-0.125, rel=1e-15)
        assert trajectory_series_coefficient(3) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_coefficients_match_the_double_factorial_formula(self):
        for n in range(1, 41):
            assert trajectory_series_coefficient(n) == references.trajectory_series_coefficient(n)

    def test_converges_inside_radius(self):
        spec = packet()
        t = time_for_u(spec, 0.5)
        exact = free_packet_trajectory(spec, 1.0, t)
        res = free_packet_trajectory_series(spec, 1.0, t, 8)
        assert res.within_radius
        assert abs(res.position - exact) <= 1e-6

    def test_breaks_down_outside_radius(self):
        spec = packet()
        t = time_for_u(spec, 1.5)
        exact = free_packet_trajectory(spec, 1.0, t)
        err5 = abs(free_packet_trajectory_series(spec, 1.0, t, 5).position - exact)
        err20 = abs(free_packet_trajectory_series(spec, 1.0, t, 20).position - exact)
        assert not free_packet_trajectory_series(spec, 1.0, t, 5).within_radius
        assert err20 > err5

    def test_error_bounded_by_first_omitted_term(self):
        spec = packet()
        u = 0.5
        t = time_for_u(spec, u)
        exact = free_packet_trajectory(spec, 1.0, t)
        prev_err = None
        for order in range(1, 11):
            err = abs(free_packet_trajectory_series(spec, 1.0, t, order).position - exact)
            omitted = abs(trajectory_series_coefficient(order + 1)) * u ** (2 * (order + 1))
            assert err <= 2.0 * omitted
            if order > 2:
                assert err <= prev_err
            prev_err = err

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            free_packet_trajectory_series(packet(), 1.0, 1.0, -1)


class TestAsymptoticVelocity:
    def test_center_keeps_v0(self):
        spec = packet(p0=3.0)
        assert free_packet_asymptotic_velocity(spec, 0.0) == spec.v0

    def test_hand_value(self):
        spec = GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=1.0)
        assert free_packet_asymptotic_velocity(spec, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_residual_antisymmetric_in_x0(self):
        spec = packet(p0=0.7)
        for x0 in (0.3, 1.9):
            plus = free_packet_asymptotic_velocity(spec, x0) - spec.v0
            minus = free_packet_asymptotic_velocity(spec, -x0) - spec.v0
            assert plus == -minus


class TestOscillator:
    def setup_method(self):
        self.spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)

    def test_width_constraint(self):
        s0 = self.spec.sigma0
        assert s0**2 * 2 * NATURAL.mass * self.spec.omega == pytest.approx(NATURAL.hbar, rel=1e-15)

    def test_rigid_profile(self):
        x = np.linspace(-6, 6, 801)
        t = 2 * np.pi / self.spec.omega
        m0 = np.abs(ho_wavefunction(self.spec, x, 0.0))
        m1 = np.abs(ho_wavefunction(self.spec, x, t))
        assert np.max(np.abs(m1 - m0)) <= 1e-12

    def test_width_constant_in_time(self):
        # The packet never spreads: same profile around the moving center.
        for t in (0.7, 2.1):
            c = self.spec.a * np.cos(self.spec.omega * t)
            xr = np.linspace(-4, 4, 301)
            m = np.abs(ho_wavefunction(self.spec, c + xr, t))
            expected = (2 * np.pi * self.spec.sigma0**2) ** (-0.25) * np.exp(
                -(xr**2) / (4 * self.spec.sigma0**2)
            )
            np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_normalization(self):
        for t in (0.0, 1.3):
            c = self.spec.a * np.cos(self.spec.omega * t)
            x = np.linspace(c - 8 * self.spec.sigma0, c + 8 * self.spec.sigma0, 4001)
            rho = np.abs(ho_wavefunction(self.spec, x, t)) ** 2
            assert np.trapezoid(rho, x) == pytest.approx(1.0, abs=1e-10)

    def test_action_zero_at_t0(self):
        x = np.linspace(-3, 3, 51)
        assert np.max(np.abs(ho_action(self.spec, x, 0.0))) == 0.0

    def test_action_gradient_uniform(self):
        h = 1e-6
        for t in (0.5, 2.0):
            grads = [
                (ho_action(self.spec, x + h, t) - ho_action(self.spec, x - h, t)) / (2 * h)
                for x in (-1.0, 0.0, 2.0)
            ]
            expected = -NATURAL.mass * self.spec.omega * self.spec.a * np.sin(self.spec.omega * t)
            np.testing.assert_allclose(grads, expected, atol=1e-9)

    def test_phase_matches_action_up_to_constant(self):
        for t in (0.4, 1.9):
            c = self.spec.a * np.cos(self.spec.omega * t)
            x = np.linspace(c - 2 * self.spec.sigma0, c + 2 * self.spec.sigma0, 401)
            phase = NATURAL.hbar * np.unwrap(np.angle(ho_wavefunction(self.spec, x, t)))
            diff = phase - ho_action(self.spec, x, t)
            assert np.max(diff) - np.min(diff) <= 1e-9

    @pytest.mark.parametrize(
        "t",
        [
            np.linspace(-7.0, 7.0, 29),
            np.random.default_rng(5).uniform(-50.0, 50.0, 1000),
            np.linspace(0.0, 1.0, 6, dtype=np.float32).reshape(2, 3),
            [0.0, -0.0, 0.37, 3, -12.5],
        ],
    )
    def test_velocity_matches_the_asarray_form(self, t):
        spec = OscillatorSpec(params=PhysParams(0.7, 1.3), omega=1.3, a=-0.7)
        got, ref = ho_velocity(spec, t), references.ho_velocity(spec, t)
        assert type(got) is type(ref) is np.ndarray
        assert got.shape == ref.shape == np.shape(t) and got.dtype == ref.dtype == np.float64
        assert got.tobytes() == ref.tobytes()

    def test_trajectory_from_center_oscillates(self):
        t = np.linspace(0, 10, 201)
        np.testing.assert_allclose(
            ho_trajectory(self.spec, self.spec.a, t),
            self.spec.a * np.cos(self.spec.omega * t),
            atol=1e-14,
        )

    def test_parallel_trajectories(self):
        t = np.linspace(0, 4 * np.pi, 401)
        x1 = ho_trajectory(self.spec, 0.3, t)
        x2 = ho_trajectory(self.spec, 1.1, t)
        assert np.max(np.abs((x2 - x1) - 0.8)) <= 1e-14

    def test_motion_equation_residual(self):
        # Second time derivative by 4th-order differences: the residual
        # of xdd + w^2 x - w^2 (x0 - a) sits at the stencil floor.
        w, a, x0 = self.spec.omega, self.spec.a, 0.4
        dt = self.spec.period / 1000
        t = np.arange(0, 2 * self.spec.period, dt)
        x = ho_trajectory(self.spec, x0, t)
        xdd = (-x[:-4] + 16 * x[1:-3] - 30 * x[2:-2] + 16 * x[3:-1] - x[4:]) / (12 * dt**2)
        res = xdd + w**2 * x[2:-2] - w**2 * (x0 - a)
        assert np.max(np.abs(res)) <= 1e-6 * abs(a) * w**2

    def test_velocity_field_is_uniform(self):
        assert ho_velocity(self.spec, 0.0) == 0.0
        t = 1.234
        assert ho_velocity(self.spec, t) == pytest.approx(-np.sin(t), rel=1e-15)

    def test_amplitude_independent_of_hbar(self):
        # omega t is the phase variable; the oscillation amplitude about
        # the mean is exactly a for any hbar.
        for hbar in (1.0, 0.01):
            spec = OscillatorSpec(params=PhysParams(hbar=hbar, mass=1.0), omega=2.0, a=0.7)
            t = np.linspace(0, spec.period, 1001)
            x = ho_trajectory(spec, -0.2, t)
            mean = -0.2 - spec.a
            assert np.max(x - mean) == pytest.approx(spec.a, abs=1e-12)
            assert np.min(x - mean) == pytest.approx(-spec.a, abs=1e-4)


class TestVelocityField:
    def test_velocity_matches_action_gradient(self):
        spec = packet(p0=1.1)
        h = 1e-6
        for t in (0.3, 2.4):
            for x in (-1.0, 0.7, 3.0):
                fd = (free_packet_action(spec, x + h, t) - free_packet_action(spec, x - h, t)) / (
                    2 * h
                )
                assert free_packet_velocity(spec, x, t) == pytest.approx(fd, abs=1e-8)


class TestInputChecks:
    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValueError):
            spreading(packet(), np.inf)
