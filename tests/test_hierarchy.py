import numpy as np
import pytest

import references
from wkbohm import hierarchy
from wkbohm.analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    PhysParams,
    free_packet_wavefunction,
    ho_velocity,
)
from wkbohm.errors import CausticDetected, CflViolation, NumericalAbort
from wkbohm.hierarchy import (
    GRADIENT_BLOWUP_LIMIT,
    HierarchyState,
    PolarFields,
    complex_velocity_residual,
    init_hierarchy,
    propagate_collecting,
    propagate_hierarchy,
    qhj_residual,
    qhj_residual_from_series,
    reconstruct_polar,
    truncated_velocity_field,
)
from wkbohm.numerics import (
    ComplexField,
    Grid1D,
    RealField,
    derivative_pair,
    derivative_values,
    second_derivative_values,
)
from wkbohm.potentials import Potential

NATURAL = PhysParams(1.0, 1.0)


def stack_rates(state, potential, mass=1.0):
    """d sn/dt of the whole stack from the hierarchy equations, as propagation forms it."""
    grads, laps = derivative_pair(state.values, state.grid.dx)
    return hierarchy._rhs_values(state.values, grads, laps, potential.value(state.grid.nodes), mass)


def gaussian_polar(grid, sigma0=1.0, p0=0.0, center=0.0):
    """Polar data of a normalized Gaussian with linear phase at t=0."""
    x = grid.nodes
    r = (2 * np.pi * sigma0**2) ** (-0.25) * np.exp(-((x - center) ** 2) / (4 * sigma0**2))
    s = p0 * x
    return PolarFields(R=RealField(grid, r), S=RealField(grid, s))


def rest_field_exact(n, x, tau, sigma0=1.0):
    """Closed-form hierarchy fields of the packet at rest (v0 = 0).

    Order 0 vanishes, order 1 is frozen at its initial profile, and
    each higher order grows like tau^(n-1); tau = t / (2 m sigma0^2).
    """
    if n == 0:
        return np.zeros_like(x)
    if n == 1:
        return -(x**2) / (4 * sigma0**2) - 0.25 * np.log(2 * np.pi * sigma0**2)
    return tau ** (n - 1) * (1.0 / (2 * (n - 1)) - x**2 / (4 * sigma0**2))


def exact_action(x, t, hbar=1.0, sigma0=1.0):
    u = hbar * t / (2 * sigma0**2)
    st2 = sigma0**2 * (1 + u**2)
    return -(hbar / 2) * np.arctan(u) + hbar**2 * t / (8 * sigma0**2 * st2) * x**2


def exact_modulus(x, t, hbar=1.0, sigma0=1.0):
    u = hbar * t / (2 * sigma0**2)
    st2 = sigma0**2 * (1 + u**2)
    return (2 * np.pi * st2) ** (-0.25) * np.exp(-(x**2) / (4 * st2))


class TestInit:
    def test_free_gaussian_seed(self):
        grid = Grid1D(-8, 8, 321)
        state = init_hierarchy(gaussian_polar(grid, p0=1.0), order=4)
        x = grid.nodes
        np.testing.assert_allclose(state.values[0], x, atol=1e-14)
        np.testing.assert_allclose(
            state.values[1], -(x**2) / 4 - 0.25 * np.log(2 * np.pi), atol=1e-13
        )
        assert np.all(state.values[2:] == 0.0)

    def test_round_trip_identity(self):
        grid = Grid1D(-8, 8, 321)
        psi0 = gaussian_polar(grid, p0=0.7)
        polar = reconstruct_polar(init_hierarchy(psi0, 5), NATURAL)
        assert np.max(np.abs(polar.R.values - psi0.R.values)) <= 1e-12
        assert np.max(np.abs(polar.S.values - psi0.S.values)) <= 1e-12

    def test_flat_amplitude_seed(self):
        grid = Grid1D(-5, 5, 64)
        psi0 = PolarFields(
            R=RealField(grid, np.ones(grid.n_points)),
            S=RealField(grid, 2.0 * grid.nodes),
        )
        state = init_hierarchy(psi0, 2)
        assert np.all(state.values[1] == 0.0)
        np.testing.assert_allclose(state.values[0], 2.0 * grid.nodes, atol=1e-14)

    def test_nonpositive_amplitude_rejected(self):
        grid = Grid1D(-5, 5, 64)
        psi0 = gaussian_polar(grid)
        psi0.R.values[10] = 0.0
        with pytest.raises(ValueError):
            init_hierarchy(psi0, 3)
        with pytest.raises(ValueError, match=r"strictly positive \(node 10\)"):
            PolarFields(R=psi0.R, S=psi0.S)
        with pytest.raises(ValueError, match="share one grid"):
            PolarFields(R=gaussian_polar(Grid1D(-5, 5, 65)).R, S=psi0.S)

    def test_malformed_stack_rejected(self):
        grid = Grid1D(-5, 5, 64)
        for values, message in [
            (np.zeros((2, 63)), r"expected \(order\+1, 64\) values"),
            (np.zeros(64), r"expected \(order\+1, 64\) values"),
            (np.zeros((0, 64)), "need at least the order-0 field"),
        ]:
            with pytest.raises(ValueError, match=message):
                HierarchyState(grid, values)
        values = np.zeros((3, 64))
        values[2, 7] = np.nan
        with pytest.raises(NumericalAbort, match="order 2, node 7") as abort:
            HierarchyState(grid, values)
        assert (abort.value.order, abort.value.node) == (2, 7)

    def test_order_below_one_rejected(self):
        grid = Grid1D(-5, 5, 64)
        with pytest.raises(ValueError):
            init_hierarchy(gaussian_polar(grid), 0)
        order0 = HierarchyState(grid, np.zeros((1, grid.n_points)))
        with pytest.raises(ValueError, match="needs order >= 1"):
            reconstruct_polar(order0, NATURAL)


class TestRhs:
    @pytest.mark.parametrize("order", [1, 2, 5])
    def test_matches_the_row_by_row_sum_bitwise(self, order):
        # Each row's convolution adds its terms in increasing k from zero.
        grid = Grid1D(-6, 6, 97)
        x = grid.nodes
        values = np.array([np.sin((n + 1) * x) + 0.1 * n * x**2 for n in range(order + 1)])
        state = HierarchyState(grid, values)
        potential = Potential.harmonic(1.3, 0.7)
        mass = 1.3
        grads = derivative_values(values, grid.dx)
        laps = second_derivative_values(values, grid.dx)
        expected = np.empty_like(values)
        expected[0] = -grads[0] ** 2 / (2.0 * mass) - potential.value(x)
        for n in range(1, order + 1):
            conv = np.zeros(x.size)
            for k in range(n + 1):
                conv += grads[k] * grads[n - k]
            expected[n] = -(conv + laps[n - 1]) / (2.0 * mass)
        rhs = stack_rates(state, potential, mass)
        assert np.array_equal(rhs, expected)

    def test_free_gaussian_hand_values(self):
        # Hand substitution into the hierarchy equations with
        # s0 = p0 x and s1 = -x^2/4s0^2 + const:
        #   ds0/dt = -p0^2/2m
        #   ds1/dt = -(1/m) p0 * (-x/2s0^2)
        #   ds2/dt = -(1/2m)(x^2/4s0^4) + 1/(4 m s0^2)
        grid = Grid1D(-8, 8, 321)
        x = grid.nodes
        p0, s0 = 1.0, 1.0
        state = init_hierarchy(gaussian_polar(grid, sigma0=s0, p0=p0), 3)
        rates = stack_rates(state, Potential.free())
        inner = slice(4, -4)
        np.testing.assert_allclose(rates[0][inner], -(p0**2) / 2, atol=1e-10)
        np.testing.assert_allclose(rates[1][inner], p0 * x[inner] / (2 * s0**2), atol=1e-10)
        np.testing.assert_allclose(
            rates[2][inner], -(x[inner] ** 2) / (8 * s0**4) + 1 / (4 * s0**2), atol=1e-10
        )
        np.testing.assert_allclose(rates[3][inner], 0.0, atol=1e-10)

    def test_constant_fields_are_stationary(self):
        grid = Grid1D(-5, 5, 64)
        values = np.tile(np.array([[1.5], [0.3], [-2.0]]), (1, grid.n_points))
        state = HierarchyState(grid, values)
        rates = stack_rates(state, Potential.free())
        assert np.max(np.abs(rates)) == 0.0

    def test_harmonic_rest_state(self):
        # a = 0 coherent seed: ds0/dt = -V, ds1/dt = 0 at t = 0.
        omega = 1.0
        sigma0 = np.sqrt(1.0 / (2 * omega))
        grid = Grid1D(-6, 6, 241)
        state = init_hierarchy(gaussian_polar(grid, sigma0=sigma0), 2)
        rates = stack_rates(state, Potential.harmonic(1.0, omega))
        x = grid.nodes
        np.testing.assert_allclose(rates[0], -0.5 * omega**2 * x**2, atol=1e-11)
        np.testing.assert_allclose(rates[1], 0.0, atol=1e-11)


class TestPropagation:
    def test_zero_steps_unchanged(self):
        grid = Grid1D(-8, 8, 161)
        state = init_hierarchy(gaussian_polar(grid), 3)
        out = propagate_hierarchy(state, Potential.free(), 1e-3, 0, params=NATURAL)
        assert np.array_equal(out.values, state.values)
        assert out.time == state.time

    @pytest.mark.parametrize("propagate", [propagate_hierarchy, propagate_collecting])
    def test_negative_step_count_rejected(self, propagate):
        state = init_hierarchy(gaussian_polar(Grid1D(-8, 8, 161)), 3)
        with pytest.raises(ValueError, match="^n_steps must be >= 0$"):
            propagate(state, Potential.free(), 1e-3, -5)
        for dt in (0.0, -1e-3):
            with pytest.raises(ValueError, match="^dt must be positive"):
                propagate(state, Potential.free(), dt, 5)

    def test_propagation_never_reads_hbar(self):
        # The stack is hbar-free: two hbar values at one mass give the same bits.
        state = init_hierarchy(gaussian_polar(Grid1D(-8, 8, 161), p0=0.3), 5)
        potential = Potential.harmonic(1.3, 0.7)
        stacks = []
        for params in (PhysParams(0.3, 1.3), PhysParams(7.0, 1.3)):
            final = propagate_hierarchy(state, potential, 1e-3, 40, params=params)
            snaps = propagate_collecting(state, potential, 1e-3, 40, every=10, params=params)
            stacks.append([final.values.tobytes()] + [snap.values.tobytes() for snap in snaps])
        assert len(stacks[0]) == 6
        assert stacks[0] == stacks[1]

    def test_free_fields_match_closed_forms(self):
        grid = Grid1D(-8, 8, 401)
        x = grid.nodes
        t_end, dt = 0.4, 1e-3
        state = init_hierarchy(gaussian_polar(grid), 5)
        state = propagate_hierarchy(state, Potential.free(), dt, 400, params=NATURAL)
        tau = t_end / 2
        # The fields are quadratics in x, so the stencils carry no
        # truncation error; what is left is differentiation roundoff,
        # amplified by roughly 1/dx^2 per extra order.
        for n, atol in enumerate((1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 5e-5)):
            np.testing.assert_allclose(
                state.values[n], rest_field_exact(n, x, tau), atol=atol,
                err_msg=f"order {n}",
            )

    def test_moving_packet_fields_translate(self):
        # With momentum p0 the order-0 field is p0 x - (p0^2/2m) t and
        # the higher orders are the rest-frame fields shifted by v0 t.
        grid = Grid1D(-10, 10, 501)
        x = grid.nodes
        p0, t_end = 1.0, 0.4
        state = init_hierarchy(gaussian_polar(grid, p0=p0), 3)
        state = propagate_hierarchy(state, Potential.free(), 1e-3, 400, params=NATURAL)
        tau = t_end / 2
        win = np.abs(x) <= 6
        np.testing.assert_allclose(
            state.values[0][win], (p0 * x - p0**2 * t_end / 2)[win], atol=1e-8
        )
        for n in (1, 2, 3):
            np.testing.assert_allclose(
                state.values[n][win], rest_field_exact(n, x - p0 * t_end, tau)[win],
                atol=1e-6, err_msg=f"order {n}",
            )

    def test_truncation_error_of_reconstructed_action(self):
        # The propagated fields are near-exact; the distance between
        # the reconstructed action and the closed form is the series
        # truncation left over at this hbar, of the size of the first
        # omitted even-order term.
        grid = Grid1D(-8, 8, 401)
        x = grid.nodes
        t_end = 0.4  # u = 0.2
        tau = t_end / 2
        window = np.abs(x) <= 2.0
        errors = {}
        for order in (1, 3, 5):
            state = init_hierarchy(gaussian_polar(grid), order)
            state = propagate_hierarchy(state, Potential.free(), 1e-3, 400, params=NATURAL)
            polar = reconstruct_polar(state, NATURAL)
            errors[order] = np.max(np.abs(polar.S.values - exact_action(x, t_end))[window])
        first_omitted = np.max(np.abs(rest_field_exact(4, x, tau))[window])
        assert 0.5 * first_omitted <= errors[3] <= 2.0 * first_omitted
        assert errors[5] < errors[3] < errors[1]

    def test_convergence_in_order_until_floor(self):
        grid = Grid1D(-8, 8, 401)
        x = grid.nodes
        t_end = 0.6  # u = 0.3
        window = np.abs(x) <= 2.0
        errs = []
        for order in (1, 3, 5, 7):
            state = init_hierarchy(gaussian_polar(grid), order)
            state = propagate_hierarchy(state, Potential.free(), 2e-3, 300, params=NATURAL)
            polar = reconstruct_polar(state, NATURAL)
            errs.append(np.max(np.abs(polar.S.values - exact_action(x, t_end))[window]))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        # order 7 may sit at the differentiation roundoff floor
        assert errs[3] < errs[1]

    def test_harmonic_fields_match_characteristics(self):
        # Order 0 follows the classical focusing solution
        # -(m w/2) x^2 tan(wt); order 1 rides its characteristics,
        # picking up -(1/2) log cos(wt).
        omega, a = 1.0, 1.0
        sigma0 = np.sqrt(1.0 / (2 * omega))
        grid = Grid1D(-8, 8, 301)
        x = grid.nodes
        state = init_hierarchy(gaussian_polar(grid, sigma0=sigma0, center=a), 3)
        t_end, dt = 0.2, 5e-4
        state = propagate_hierarchy(state, Potential.harmonic(1.0, omega), dt, 400, params=NATURAL)
        c = np.cos(omega * t_end)
        s0_exact = -0.5 * omega * x**2 * np.tan(omega * t_end)
        s1_exact = (
            -((x / c - a) ** 2) / (4 * sigma0**2)
            - 0.25 * np.log(2 * np.pi * sigma0**2)
            - 0.5 * np.log(c)
        )
        assert np.max(np.abs(state.values[0] - s0_exact)) <= 1e-8
        assert np.max(np.abs(state.values[1] - s1_exact)) <= 1e-8

    def test_harmonic_velocity_series_converges_by_tan_squared(self):
        # The velocity of a Gaussian at rest in the well is rational in
        # kappa^2, kappa = hbar/(2 m omega sigma0^2), with its pole at
        # kappa tan(wt) = 1; so each pair of orders cuts the error by
        # kappa^2 tan^2(wt). The coherent packet has kappa = 1.
        spec = OscillatorSpec(NATURAL, omega=1.0, a=1.0)
        grid = Grid1D(-6, 6, 201)
        state = init_hierarchy(gaussian_polar(grid, sigma0=spec.sigma0, center=spec.a), 5)
        for steps in (400, 200):  # to wt = 0.4, then 0.6
            state = propagate_hierarchy(state, Potential.harmonic(1.0, spec.omega), 1e-3, steps, params=NATURAL)
            t = state.time
            window = np.abs(grid.nodes - spec.a * np.cos(spec.omega * t)) <= 2 * spec.sigma0
            errs = [
                np.max(np.abs(truncated_velocity_field(state, NATURAL, pairs).values - ho_velocity(spec, t))[window])
                for pairs in (0, 1, 2)
            ]
            ratio = np.tan(spec.omega * t) ** 2
            assert errs[1] / errs[0] == pytest.approx(ratio, rel=0.01)
            assert errs[2] / errs[1] == pytest.approx(ratio, rel=0.01)

    def test_harmonic_rest_state_hits_caustic_before_quarter_period(self):
        # Classical characteristics of the zero-phase seed all focus at
        # the origin at a quarter period; the propagation must abort
        # (CFL guard or blow-up detector) rather than step through it.
        omega = 1.0
        sigma0 = np.sqrt(1.0 / (2 * omega))
        grid = Grid1D(-10, 10, 301)
        state = init_hierarchy(gaussian_polar(grid, sigma0=sigma0), 2)
        quarter = 0.25 * 2 * np.pi / omega
        with pytest.raises(NumericalAbort):
            propagate_hierarchy(
                state, Potential.harmonic(1.0, omega), 1e-3, int(quarter / 1e-3) + 5,
                params=NATURAL,
            )

    @pytest.mark.parametrize(
        "case, steps_ok, error, message",
        [
            ("harmonic-2", 1280, CflViolation,
             "dt=0.001 exceeds the advective bound 0.000997606 (max speed 33.4133) at t=1.28"),
            ("harmonic-5", 1206, CausticDetected,
             "|grad| of order-5 field reached 1.01e+06 at t=1.207; caustic suspected"),
            ("focusing", 300, CflViolation,
             "dt=0.004 exceeds the advective bound 0.004 (max speed 12.5) at t=1.2"),
        ],
    )
    def test_guards_abort_at_the_pinned_step(self, case, steps_ok, error, message):
        # Step, time and figures of each abort are pinned: the guards and
        # the first rk4 stage share one stack gradient per step, and
        # that sharing must not move any abort.
        if case.startswith("harmonic"):
            grid = Grid1D(-10, 10, 301)
            state = init_hierarchy(gaussian_polar(grid, sigma0=np.sqrt(0.5)), int(case[-1]))
            potential, dt = Potential.harmonic(1.0, 1.0), 1e-3
        else:
            # Converging free flow: speed 0.5 |x| grows as the packet focuses.
            grid = Grid1D(-10, 10, 201)
            values = np.zeros((3, grid.n_points))
            values[0] = -0.25 * grid.nodes**2
            values[1] = -0.25 * grid.nodes**2
            state = HierarchyState(grid, values)
            potential, dt = Potential.free(), 4e-3
        before = propagate_hierarchy(state, potential, dt, steps_ok, params=NATURAL)
        with pytest.raises(error) as abort:
            propagate_hierarchy(before, potential, dt, 1, params=NATURAL)
        assert str(abort.value) == message
        order, t = {"harmonic-2": (0, 1.28), "harmonic-5": (5, 1.207), "focusing": (0, 1.2)}[case]
        assert abort.value.order == order
        assert abort.value.t == pytest.approx(t, rel=1e-12)
        node = abort.value.node
        assert abort.value.x == grid.nodes[node]
        if error is CflViolation:
            # The bound is crossed where the order-0 speed peaks.
            speed = np.abs(derivative_values(before.values[0], grid.dx))
            assert speed[node] == speed.max()
            assert abort.value.value == dt > abort.value.limit
        else:
            assert abort.value.value > abort.value.limit == GRADIENT_BLOWUP_LIMIT
        # The two-body reference stepper reaches the same stack and abort.
        ref = references.propagate_hierarchy(state, potential, dt, steps_ok, params=NATURAL)
        assert ref.values.tobytes() == before.values.tobytes()
        with pytest.raises(error) as ref_abort:
            references.propagate_hierarchy(ref, potential, dt, 1, params=NATURAL)
        assert str(ref_abort.value) == message
        assert vars(ref_abort.value) == vars(abort.value)

    def test_cfl_violation_rejected_before_stepping(self):
        grid = Grid1D(-5, 5, 101)
        values = np.zeros((2, grid.n_points))
        values[0] = 50.0 * grid.nodes  # speed 50, dx = 0.1: bound = 1e-3
        state = HierarchyState(grid, values)
        with pytest.raises(CflViolation):
            propagate_hierarchy(state, Potential.free(), 5e-3, 1, params=NATURAL)

    def test_gradient_blowup_detected(self):
        grid = Grid1D(-5, 5, 101)
        values = np.zeros((2, grid.n_points))
        values[1] = 2e6 * grid.nodes
        state = HierarchyState(grid, values)
        with pytest.raises(CausticDetected):
            propagate_hierarchy(state, Potential.free(), 1e-9, 1, params=NATURAL)
        # A step whose order-0 field overflows, under the runner's
        # errstate, is named by the finiteness check, not as a caustic.
        state = HierarchyState(grid, np.zeros((2, grid.n_points)))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as abort:
            propagate_hierarchy(state, Potential(1e306), 1e-3, 1, params=NATURAL)
        assert type(abort.value) is NumericalAbort
        assert str(abort.value).startswith("non-finite order-0 field at node ")
        assert abort.value.order == 0 and abort.value.x == grid.nodes[abort.value.node]

    def test_blowup_names_the_lowest_failing_order(self):
        # The stack is tested as a whole; the abort still names the
        # first order, in increasing order, that broke the limit. The
        # top order stays below it.
        grid = Grid1D(-5, 5, 101)
        values = np.zeros((5, grid.n_points))
        values[4] = 5e5 * grid.nodes
        values[3] = 5e6 * grid.nodes
        values[2] = 2e6 * np.sin(grid.nodes)
        state = HierarchyState(grid, values)
        with pytest.raises(CausticDetected) as abort:
            propagate_hierarchy(state, Potential.free(), 1e-9, 1, params=NATURAL)
        assert str(abort.value).startswith("|grad| of order-2 field reached 2e+06")
        assert abort.value.order == 2
        assert abort.value.node == 50
        assert abort.value.limit == GRADIENT_BLOWUP_LIMIT

    def test_order_zero_decoupled_bitwise(self):
        grid = Grid1D(-8, 8, 161)
        base = init_hierarchy(gaussian_polar(grid), 4)
        perturbed = HierarchyState(grid, base.values.copy())
        perturbed.values[2] += 0.3 * np.exp(-(grid.nodes**2))
        out_a = propagate_hierarchy(base, Potential.free(), 1e-3, 50, params=NATURAL)
        out_b = propagate_hierarchy(perturbed, Potential.free(), 1e-3, 50, params=NATURAL)
        assert np.array_equal(out_a.values[0], out_b.values[0])
        assert np.array_equal(out_a.values[1], out_b.values[1])
        assert not np.array_equal(out_a.values[2], out_b.values[2])

    def test_truncation_is_self_consistent_bitwise(self):
        # Orders 0..n of a higher-order run equal an order-n run exactly:
        # no feedback from the discarded orders.
        grid = Grid1D(-8, 8, 161)
        for potential in (Potential.free(), Potential.harmonic(1.0, 1.0)):
            for low_order, high_order in ((3, 5), (1, 7)):
                low = init_hierarchy(gaussian_polar(grid), low_order)
                high = init_hierarchy(gaussian_polar(grid), high_order)
                out_low = propagate_hierarchy(low, potential, 1e-3, 80, params=NATURAL)
                out_high = propagate_hierarchy(high, potential, 1e-3, 80, params=NATURAL)
                assert np.array_equal(out_low.values, out_high.values[: low_order + 1]), (
                    potential, low_order, high_order,
                )


class TestReconstruction:
    def test_wkb_pair_at_order_one(self):
        grid = Grid1D(-8, 8, 161)
        state = init_hierarchy(gaussian_polar(grid, p0=0.5), 1)
        polar = reconstruct_polar(state, NATURAL)
        np.testing.assert_allclose(polar.R.values, np.exp(state.values[1]), rtol=1e-15)
        np.testing.assert_allclose(polar.S.values, state.values[0], rtol=1e-15)

    def test_overflow_aborts_at_the_first_node(self):
        grid = Grid1D(-5, 5, 64)
        values = np.zeros((4, grid.n_points))
        values[1, [20, 30]] = 800.0  # exp overflows double range
        values[1, 5] = -900.0  # an underflow does not abort
        with pytest.raises(NumericalAbort) as exc:
            reconstruct_polar(HierarchyState(grid, values, time=0.25), NATURAL)
        abort = exc.value
        x = float(grid.nodes[20])
        assert (abort.order, abort.node, abort.x, abort.t) == (3, 20, x, 0.25)
        assert (abort.value, abort.limit) == (800.0, np.log(np.finfo(float).max))
        assert str(abort) == f"order 3 amplitude exp(ln R) overflows at node 20 (x = {x:g}, t = 0.25)"

    def test_series_weight_that_overflows_aborts_naming_order_and_time(self):
        # hbar^2 = 1e156 fits a double, hbar^4 = 1e312 does not.
        grid = Grid1D(-5, 5, 64)
        params = PhysParams(1e78, 1.0)
        state = HierarchyState(grid, np.zeros((6, grid.n_points)), time=0.25)
        reconstruct_polar(HierarchyState(grid, state.values[:4], time=0.25), params)
        truncated_velocity_field(state, params, 1)
        for reconstruct, order in [
            (lambda: reconstruct_polar(state, params), 5),
            (lambda: truncated_velocity_field(state, params, 2), 4),
        ]:
            with pytest.raises(NumericalAbort) as exc:
                reconstruct()
            abort = exc.value
            assert (abort.order, abort.node, abort.t) == (order, None, 0.25)
            assert str(abort) == f"order {order} weight hbar^4 overflows (hbar = 1e+78, t = 0.25)"

    def test_underflow_flagged_per_node(self):
        grid = Grid1D(-5, 5, 64)
        values = np.zeros((2, grid.n_points))
        values[1, [0, 20]] = -900.0  # exp underflows to zero
        polar = reconstruct_polar(HierarchyState(grid, values), NATURAL)
        assert polar.invalid_nodes.tolist() == [0, 20]
        assert polar.R.values[0] == polar.R.values[20] == np.finfo(float).tiny
        assert np.all(polar.R.values > 0)

    def test_modulus_error_scales_with_hbar_squared(self):
        # Order-1 reconstruction freezes the amplitude; the gap to the
        # true spreading profile shrinks by ~4 when hbar halves.
        grid = Grid1D(-8, 8, 401)
        x = grid.nodes
        t_end = 0.4
        window = np.abs(x) <= 2.0
        errs = []
        for hbar in (1.0, 0.5):
            params = PhysParams(hbar=hbar, mass=1.0)
            state = init_hierarchy(gaussian_polar(grid), 1)
            state = propagate_hierarchy(state, Potential.free(), 1e-3, 400, params=params)
            polar = reconstruct_polar(state, params)
            errs.append(np.max(np.abs(polar.R.values - exact_modulus(x, t_end, hbar))[window]))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_one_propagation_serves_every_hbar(self):
        # The stack is hbar-free; reconstructions at two different
        # hbar values from the same propagated state are both valid.
        grid = Grid1D(-8, 8, 401)
        x = grid.nodes
        t_end = 0.4
        state = init_hierarchy(gaussian_polar(grid), 5)
        state = propagate_hierarchy(state, Potential.free(), 1e-3, 400, params=NATURAL)
        window = np.abs(x) <= 2.0
        for hbar in (1.0, 0.5):
            polar = reconstruct_polar(state, PhysParams(hbar=hbar, mass=1.0))
            err = np.max(np.abs(polar.S.values - exact_action(x, t_end, hbar))[window])
            tail = np.max(np.abs(hbar**6 * rest_field_exact(6, x, t_end / 2))[window])
            assert err <= 2.0 * tail

    def test_series_are_the_alternating_hbar_sums_bitwise(self):
        grid = Grid1D(-8, 8, 161)
        state = propagate_hierarchy(
            init_hierarchy(gaussian_polar(grid, p0=0.3), 5), Potential.free(), 1e-3, 50, params=NATURAL
        )
        hbar = 0.7
        s, log_r = np.zeros(grid.n_points), np.zeros(grid.n_points)
        for n in range(0, 6, 2):
            s += (-1.0) ** (n // 2) * hbar**n * state.values[n]
            log_r += (-1.0) ** (n // 2) * hbar**n * state.values[n + 1]
        polar = reconstruct_polar(state, PhysParams(hbar, 1.3))
        assert polar.S.values.tobytes() == s.tobytes()
        assert polar.R.values.tobytes() == np.exp(log_r).tobytes()



class TestComplexAction:
    def test_matches_packet_at_t0_up_to_global_phase(self):
        # exp(i S / hbar) of the complex action is R exp(i S / hbar) of the polar pair.
        grid = Grid1D(-8, 8, 321)
        spec = GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=1.0)
        polar = reconstruct_polar(init_hierarchy(gaussian_polar(grid, p0=1.0), 3), NATURAL)
        psi_h = polar.R.values * np.exp(1j * polar.S.values / NATURAL.hbar)
        psi_a = free_packet_wavefunction(spec, grid.nodes, 0.0)
        k = np.argmax(np.abs(psi_a))
        phase = psi_a[k] / psi_h[k]
        phase /= abs(phase)
        assert np.max(np.abs(psi_h * phase - psi_a)) <= 1e-10


def analytic_sbar_stack(grid, times, hbar=1.0, sigma0=1.0):
    """Complex action of the packet at rest from closed forms."""
    x = grid.nodes
    return [
        ComplexField(
            grid,
            exact_action(x, t, hbar, sigma0) - 1j * hbar * np.log(exact_modulus(x, t, hbar, sigma0)),
            t,
        )
        for t in times
    ]


def complex_action(state, params):
    """S = sum_n (hbar/i)^n sn, as a field."""
    weights = (params.hbar / 1j) ** np.arange(state.order + 1)
    return ComplexField(state.grid, np.tensordot(weights, state.values, axes=(0, 0)), state.time)


def complex_action_rate(state, potential, params):
    """dS/dt = sum_n (hbar/i)^n dsn/dt, from the hierarchy equations."""
    weights = (params.hbar / 1j) ** np.arange(state.order + 1)
    return np.tensordot(weights, stack_rates(state, potential, params.mass), axes=(0, 0))


class TestResiduals:
    def test_analytic_packet_satisfies_evolution_equation(self):
        grid = Grid1D(-8, 8, 401)
        t0, delta = 1.0, 1e-3
        stack = analytic_sbar_stack(grid, t0 + delta * np.array([-2, -1, 0, 1, 2]))
        res = qhj_residual_from_series(stack, Potential.free(), NATURAL, delta)
        window = np.abs(grid.nodes) <= 2 * np.sqrt(1 + 0.25)  # 2 sigma_t at u = 0.5
        assert np.max(res.values[window]) <= 1e-6

    def test_analytic_packet_velocity_equation(self):
        grid = Grid1D(-8, 8, 401)
        t0, delta = 1.0, 1e-3
        stack = analytic_sbar_stack(grid, t0 + delta * np.array([-2, -1, 0, 1, 2]))
        res = complex_velocity_residual(stack, Potential.free(), NATURAL, delta)
        window = np.abs(grid.nodes) <= 2 * np.sqrt(1 + 0.25)
        assert np.max(res.values[window]) <= 1e-5

    def test_plane_wave_residual_exactly_zero(self):
        grid = Grid1D(-8, 8, 401)
        delta = 1e-3
        times = 1.0 + delta * np.array([-1, 0, 1])
        stack = [ComplexField(grid, np.zeros(grid.n_points) + 0j, t) for t in times]
        res = qhj_residual_from_series(stack, Potential.free(), NATURAL, delta)
        assert np.max(res.values) == 0.0
        res_v = complex_velocity_residual(stack, Potential.free(), NATURAL, delta)
        assert np.max(res_v.values) == 0.0
        for residual in (qhj_residual_from_series, complex_velocity_residual):
            with pytest.raises(ValueError, match="need exactly 3 or 5"):
                residual(stack + stack[:1], Potential.free(), NATURAL, delta)

    def test_moving_plane_wave_residual_at_machine_level(self):
        grid = Grid1D(-8, 8, 401)
        p0 = 1.0
        delta = 1e-3
        times = 1.0 + delta * np.array([-1, 0, 1])
        stack = [
            ComplexField(grid, p0 * grid.nodes - p0**2 / 2 * t + 0j, t) for t in times
        ]
        res = qhj_residual_from_series(stack, Potential.free(), NATURAL, delta)
        assert np.max(res.values) <= 1e-11

    def test_truncated_state_residual_scales_as_hbar_squared(self):
        # For an order-1 stack the leftover is exactly
        # (hbar^2/2m) |(grad s1)^2 + lap s1|, so halving hbar divides
        # the residual by exactly 4.
        grid = Grid1D(-8, 8, 401)
        state = init_hierarchy(gaussian_polar(grid), 1)
        norms = []
        for hbar in (1.0, 0.5):
            params = PhysParams(hbar=hbar, mass=1.0)
            sbar = complex_action(state, params)
            rate = complex_action_rate(state, Potential.free(), params)
            res = qhj_residual(sbar, rate, Potential.free(), params)
            window = np.abs(grid.nodes) <= 2.0
            norms.append(np.max(res.values[window]))
        assert norms[0] / norms[1] == pytest.approx(4.0, rel=1e-10)
        x = grid.nodes
        expected = 0.5 * np.abs(x**2 / 4 - 0.5)
        window = np.abs(x) <= 2.0
        np.testing.assert_allclose(
            qhj_residual(
                complex_action(state, NATURAL),
                complex_action_rate(state, Potential.free(), NATURAL),
                Potential.free(),
                NATURAL,
            ).values[window],
            expected[window],
            atol=1e-10,
        )


class TestTruncatedVelocity:
    def test_classical_field_of_linear_phase(self):
        grid = Grid1D(-8, 8, 161)
        state = init_hierarchy(gaussian_polar(grid, p0=2.0), 2)
        v = truncated_velocity_field(state, NATURAL, 0)
        np.testing.assert_allclose(v.values, 2.0, atol=1e-11)

    def test_pair_index_bound(self):
        grid = Grid1D(-8, 8, 161)
        state = init_hierarchy(gaussian_polar(grid), 3)
        with pytest.raises(ValueError):
            truncated_velocity_field(state, NATURAL, 2)
        with pytest.raises(ValueError, match="max_pair_index must be >= 0"):
            truncated_velocity_field(state, NATURAL, -1)

    def test_free_packet_field_improves_with_corrections(self):
        # Exact Bohmian field is u x / (2 (1+u^2)) at rest in natural
        # units; the M-term field is the geometric partial sum, so the
        # error falls by ~u^2 per extra pair.
        grid = Grid1D(-8, 8, 401)
        x = grid.nodes
        t_end = 0.4
        u = t_end / 2
        state = init_hierarchy(gaussian_polar(grid), 8)
        state = propagate_hierarchy(state, Potential.free(), 1e-3, 400, params=NATURAL)
        exact = u * x / (2 * (1 + u**2))
        window = np.abs(x) <= 2.0
        errs = []
        for m in (0, 1, 2):
            v = truncated_velocity_field(state, NATURAL, m)
            errs.append(np.max(np.abs(v.values - exact)[window]))
            expected = np.max(np.abs(x / 2 * u ** (2 * m + 1) / (1 + u**2))[window])
            assert errs[-1] == pytest.approx(expected, rel=1e-2)
        assert errs[2] < errs[1] < errs[0]

    def test_oscillator_field_approaches_uniform_flow(self):
        # The full even-order sum is the x-independent field
        # -omega a sin(omega t); successive truncations close in on it.
        omega, a = 1.0, 1.0
        sigma0 = np.sqrt(1.0 / (2 * omega))
        grid = Grid1D(-8.1, 8.1, 301)
        x = grid.nodes
        state = init_hierarchy(gaussian_polar(grid, sigma0=sigma0, center=a), 8)
        t_end = 0.2
        state = propagate_hierarchy(state, Potential.harmonic(1.0, omega), 5e-4, 400, params=NATURAL)
        window = np.abs(x - a * np.cos(omega * t_end)) <= 2 * sigma0
        target = -omega * a * np.sin(omega * t_end)
        errs = []
        for m in (1, 2, 3):
            v = truncated_velocity_field(state, NATURAL, m)
            errs.append(np.max(np.abs(v.values - target)[window]))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 1e-4


class TestStencilPairCalls:
    """Propagation, velocity and residuals on the one-pass stencil pair.

    Each must equal the same computation on the two separate stencil
    bodies it replaced (`references`), bit for bit.
    """

    @pytest.mark.parametrize("model", ["free", "harmonic"])
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_propagation_matches_the_reference_stepper(self, model, order):
        grid = Grid1D(-10, 10, 201)
        if model == "free":
            psi0, potential = gaussian_polar(grid, p0=0.5), Potential.free()
        else:
            psi0 = gaussian_polar(grid, sigma0=np.sqrt(0.5), center=1.0)
            potential = Potential.harmonic(1.0, 1.0)
        state = init_hierarchy(psi0, order)
        got = propagate_hierarchy(state, potential, 1e-3, 500, params=NATURAL)
        ref = references.propagate_hierarchy(state, potential, 1e-3, 500, params=NATURAL)
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.time == ref.time

    @pytest.mark.parametrize("n_steps", [0, 1, 7])
    def test_one_pair_call_per_rk4_stage(self, monkeypatch, n_steps):
        # Stages 2-4 make one call each; the post-step call serves the
        # blow-up check and the next step's CFL check and first stage.
        # With the call before the loop that is 4 n_steps + 1, and the
        # separate d1 and d2 bodies are not called at all.
        from wkbohm import hierarchy, numerics

        calls = []

        def counted(values, dx):
            calls.append(values.shape)
            return numerics.derivative_pair(values, dx)

        def refused(values, dx):
            raise AssertionError("propagation called a single-derivative wrapper")

        monkeypatch.setattr(hierarchy, "derivative_pair", counted)
        monkeypatch.setattr(hierarchy, "derivative_values", refused)
        monkeypatch.setattr(numerics, "derivative_values", refused)
        monkeypatch.setattr(numerics, "second_derivative_values", refused)
        state = init_hierarchy(gaussian_polar(Grid1D(-8, 8, 101)), 4)
        propagate_hierarchy(state, Potential.free(), 1e-3, n_steps, params=NATURAL)
        assert calls == [(5, 101)] * (4 * n_steps + 1)

    def test_truncated_velocity_matches_per_order_calls(self):
        grid = Grid1D(-8, 8, 161)
        state = propagate_hierarchy(
            init_hierarchy(gaussian_polar(grid, p0=0.3), 5), Potential.free(), 1e-3, 50, params=NATURAL
        )
        params = PhysParams(0.7, 1.3)
        for m in (0, 1, 2):
            v = references.derivative_values(state.values[0], grid.dx)
            for n in range(1, m + 1):
                v = v + (-1.0) ** n * params.hbar ** (2 * n) * references.derivative_values(
                    state.values[2 * n], grid.dx
                )
            got = truncated_velocity_field(state, params, m).values
            assert got.tobytes() == (v / params.mass).tobytes()

    @pytest.mark.parametrize("n_snapshots", [3, 5])
    def test_residuals_match_separate_calls(self, n_snapshots):
        grid = Grid1D(-8, 8, 401)
        delta = 1e-3
        offsets = np.arange(n_snapshots) - n_snapshots // 2
        stack = analytic_sbar_stack(grid, 1.0 + delta * offsets)
        params = PhysParams(1.0, 1.0)
        for potential in (Potential.free(), Potential.harmonic(1.0, 0.5)):
            mid = stack[n_snapshots // 2]
            rate = np.linspace(-1.0, 1.0, grid.n_points) + 0.5j
            got = qhj_residual(mid, rate, potential, params).values
            assert got.tobytes() == references.qhj_residual(mid, rate, potential, params).tobytes()
            got = complex_velocity_residual(stack, potential, params, delta).values
            ref = references.complex_velocity_residual(stack, potential, params, delta)
            assert got.tobytes() == ref.tobytes()
