import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from wkbohm.errors import NonFiniteFieldError
from wkbohm.numerics import (
    ComplexField,
    Grid1D,
    RealField,
    cubic_interpolate,
    derivative_values,
    double_factorial,
    gradient,
    laplacian,
    rk4_step,
    second_derivative_values,
)


def make_field(grid, fn):
    return RealField(grid, fn(grid.nodes))


class TestGrid:
    def test_node_placement(self):
        g = Grid1D(-1.0, 1.0, 101)
        assert g.dx == pytest.approx(0.02)
        assert g.nodes[0] == -1.0
        assert g.nodes[37] == -1.0 + 37 * g.dx

    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, -1.0, 16)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 7)

    def test_field_length_mismatch(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            RealField(g, np.zeros(15))

    def test_nonfinite_rejected_with_node(self):
        g = Grid1D(0.0, 1.0, 16)
        values = np.zeros(16)
        values[5] = np.nan
        with pytest.raises(NonFiniteFieldError) as exc:
            RealField(g, values)
        assert exc.value.node == 5
        assert "node 5" in str(exc.value)


class TestGradient:
    def test_constant_is_zero(self):
        g = Grid1D(-3.0, 2.0, 64)
        d = gradient(make_field(g, lambda x: np.full_like(x, 4.2)))
        assert np.max(np.abs(d.values)) == 0.0

    def test_quadratic_exact(self):
        g = Grid1D(-1.0, 1.0, 101)
        d = gradient(make_field(g, lambda x: x**2))
        assert np.max(np.abs(d.values - 2 * g.nodes)) <= 1e-12

    def test_sine_fourth_order(self):
        # Richardson measurement: halving dx must shrink the max error
        # by about 2^4, within a factor of 2.
        errs = []
        for n in (201, 401, 801):
            g = Grid1D(-np.pi, np.pi, n)
            d = gradient(make_field(g, np.sin))
            errs.append(np.max(np.abs(d.values - np.cos(g.nodes))))
        assert errs[0] <= 1e-6  # C * dx^4 at dx ~ 0.031
        for coarse, fine in zip(errs, errs[1:]):
            assert 8.0 <= coarse / fine <= 32.0

    def test_complex_field_kind_preserved(self):
        g = Grid1D(-1.0, 1.0, 64)
        f = ComplexField(g, np.exp(1j * g.nodes))
        d = gradient(f)
        assert isinstance(d, ComplexField)
        assert_allclose(d.values, 1j * np.exp(1j * g.nodes), atol=1e-6)

    def test_mutated_nonfinite_input_rejected(self):
        g = Grid1D(0.0, 1.0, 16)
        f = RealField(g, np.array(g.nodes))
        f.values[3] = np.inf
        with pytest.raises(NonFiniteFieldError):
            gradient(f)


class TestLaplacian:
    def test_linear_is_zero(self):
        g = Grid1D(-2.0, 5.0, 80)
        d = laplacian(make_field(g, lambda x: 3.0 * x))
        assert np.max(np.abs(d.values)) <= 1e-11

    def test_quadratic_exact(self):
        # Exact stencil; the tolerance is the machine-roundoff floor
        # of the 1/dx^2 scaling, not a truncation error.
        g = Grid1D(-1.0, 1.0, 101)
        d = laplacian(make_field(g, lambda x: x**2))
        assert np.max(np.abs(d.values - 2.0)) <= 1e-11

    def test_gaussian_fourth_order(self):
        errs = []
        for n in (401, 801, 1601):
            g = Grid1D(-6.0, 6.0, n)
            x = g.nodes
            d = laplacian(make_field(g, lambda x: np.exp(-(x**2))))
            exact = (4 * x**2 - 2) * np.exp(-(x**2))
            errs.append(np.max(np.abs(d.values - exact)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 8.0 <= coarse / fine <= 32.0


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(min_value=0, max_value=4),
    x_min=st.floats(min_value=-2.0, max_value=0.0),
    span=st.floats(min_value=1.0, max_value=4.0),
    n=st.integers(min_value=8, max_value=20),
)
def test_stencils_exact_on_low_degree_polynomials(degree, x_min, span, n):
    # Grids kept to |x| <= 2 and dx in [0.2, 1] so the 1e-11 bound sits
    # above the 1/dx^2-amplified double-precision floor of the edge
    # stencils (weight magnitudes up to ~51).
    grid = Grid1D(x_min, x_min + min(span, 2.0 - x_min), n)
    if grid.dx > 1.0 or grid.dx < 0.2:
        return
    x = grid.nodes
    f = RealField(grid, x**degree)
    d1 = degree * x ** (degree - 1) if degree >= 1 else np.zeros_like(x)
    d2 = degree * (degree - 1) * x ** (degree - 2) if degree >= 2 else np.zeros_like(x)
    assert np.max(np.abs(gradient(f).values - d1)) <= 1e-11
    assert np.max(np.abs(laplacian(f).values - d2)) <= 1e-11


class TestStackedStencils:
    """The stencils act along the last axis of any (..., n) array."""

    @pytest.mark.parametrize("op", [derivative_values, second_derivative_values])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_equals_row_by_row(self, op, dtype):
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.uniform(-3, 3, size=(6, 1))
        stack = scales * rng.standard_normal((6, 97))
        if dtype is complex:
            stack = stack * np.exp(1j * rng.uniform(0, 2 * np.pi, size=stack.shape))
        dx = 0.07
        out = op(stack, dx)
        rows = np.stack([op(row, dx) for row in stack])
        assert out.shape == stack.shape and out.dtype == stack.dtype
        assert np.max(np.abs(out - rows) / np.max(np.abs(rows), axis=1, keepdims=True)) <= 1e-14
        # Extra leading axes work the same way.
        deep = op(stack.reshape(2, 3, 97), dx)
        assert np.max(np.abs(deep.reshape(6, 97) - rows)) <= 1e-14 * np.max(np.abs(rows))

    def test_stack_exact_on_low_degree_polynomials(self):
        grid = Grid1D(-1.5, 2.0, 15)
        x = grid.nodes
        stack = np.stack([x**d for d in range(5)])
        d1 = np.stack([d * x ** max(d - 1, 0) for d in range(5)])
        d2 = np.stack([d * (d - 1) * x ** max(d - 2, 0) for d in range(5)])
        assert np.max(np.abs(derivative_values(stack, grid.dx) - d1)) <= 1e-11
        assert np.max(np.abs(second_derivative_values(stack, grid.dx) - d2)) <= 1e-11
        c = stack * (1.0 - 2.0j)
        assert np.max(np.abs(derivative_values(c, grid.dx) - d1 * (1.0 - 2.0j))) <= 1e-11
        assert np.max(np.abs(second_derivative_values(c, grid.dx) - d2 * (1.0 - 2.0j))) <= 1e-11


class TestRk4:
    def test_zero_rhs(self):
        out = rk4_step(1.0, lambda s, t: 0.0, 0.0, 0.1)
        assert out == 1.0

    def test_exponential_one_step(self):
        # Single-step value is the degree-4 Taylor polynomial of e^0.1:
        # 1.1051708333..., within 1e-7 of the true 1.10517091808...
        out = rk4_step(1.0, lambda s, t: s, 0.0, 0.1)
        assert out == pytest.approx(1.1051708333333332, abs=1e-15)
        assert abs(out - np.exp(0.1)) <= 1e-7

    def test_harmonic_orbit_closes(self):
        state = np.array([1.0, 0.0])
        dt = 2 * np.pi / 1000

        def rhs(s, t):
            return np.array([s[1], -s[0]])

        t = 0.0
        for _ in range(1000):
            state = rk4_step(state, rhs, t, dt)
            t += dt
        assert np.max(np.abs(state - [1.0, 0.0])) <= 1e-8

    def test_orbit_error_fourth_order(self):
        def run(n_steps):
            state = np.array([1.0, 0.0])
            dt = 2 * np.pi / n_steps
            t = 0.0
            for _ in range(n_steps):
                state = rk4_step(state, rhs, t, dt)
                t += dt
            return np.max(np.abs(state - [1.0, 0.0]))

        def rhs(s, t):
            return np.array([s[1], -s[0]])

        errs = [run(n) for n in (200, 400, 800)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 8.0 <= coarse / fine <= 32.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(1.0, lambda s, t: s, 0.0, 0.0)

    def test_nonfinite_rhs_aborts_with_context(self):
        def rhs(s, t):
            return np.nan

        with pytest.raises(NonFiniteFieldError) as exc:
            rk4_step(1.0, rhs, 2.5, 0.1)
        assert "2.5" in str(exc.value)


class TestDoubleFactorial:
    @pytest.mark.parametrize("n,expected", [(-1, 1), (0, 1), (1, 1), (5, 15), (7, 105)])
    def test_values(self, n, expected):
        assert double_factorial(n) == expected

    def test_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-2)

    @given(st.integers(min_value=1, max_value=40))
    def test_recurrence(self, n):
        assert double_factorial(n) == n * double_factorial(n - 2)


class TestCubicInterpolation:
    def test_exact_on_cubics(self):
        g = Grid1D(-2.0, 2.0, 41)
        values = g.nodes**3 - 2 * g.nodes
        xq = np.linspace(-2.0, 2.0, 313)
        out = cubic_interpolate(g, values, xq)
        assert np.max(np.abs(out - (xq**3 - 2 * xq))) <= 1e-12

    def test_matches_nodes(self):
        g = Grid1D(0.0, 1.0, 11)
        values = np.sin(g.nodes)
        assert cubic_interpolate(g, values, g.nodes[4]) == pytest.approx(values[4], abs=1e-14)

    def test_outside_grid_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            cubic_interpolate(g, np.zeros(11), 1.5)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_every_node_accepted_at_any_length_scale(self, scale):
        # Node positions carry rounding of order eps * |x|; the bounds
        # slack must scale with the grid, not be an absolute length.
        # At scale 1e6 the first grid's last node lies 9.3e-10 past x_max.
        for x_min, x_max, n in ((-3.0, 7.0 + 3e-7, 401), (-1.0, 1.0, 11), (2.5, 9.7, 1001)):
            g = Grid1D(x_min * scale, x_max * scale, n)
            values = np.cos(g.nodes / scale)
            assert np.max(np.abs(cubic_interpolate(g, values, g.nodes) - values)) <= 1e-12
            with pytest.raises(ValueError):
                cubic_interpolate(g, values, g.x_max + 1e-6 * g.dx)
            with pytest.raises(ValueError):
                cubic_interpolate(g, values, g.x_min - 1e-6 * g.dx)


class TestPotentials:
    def test_tabulated_matches_harmonic(self):
        from wkbohm.potentials import Potential

        g = Grid1D(-3.0, 3.0, 121)
        harmonic = Potential.harmonic(2.0, 1.5)
        tab = Potential.tabulated(g, harmonic.value(g.nodes))
        xq = np.linspace(-2.5, 2.5, 57)
        np.testing.assert_allclose(tab.value(xq), harmonic.value(xq), atol=1e-10)
        np.testing.assert_allclose(tab.gradient(xq), harmonic.gradient(xq), atol=1e-8)
        assert tab.kind == "tabulated"

    def test_free_potential_vanishes(self):
        from wkbohm.potentials import Potential

        v = Potential.free()
        assert v.value(np.array([0.0, 2.0])).tolist() == [0.0, 0.0]
        assert v.gradient(1.3) == 0.0

    def test_harmonic_rejects_bad_parameters(self):
        from wkbohm.potentials import Potential

        with pytest.raises(ValueError):
            Potential.harmonic(0.0, 1.0)
