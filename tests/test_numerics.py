import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import references
from references import newton_cubic
from wkbohm.errors import NonFiniteFieldError
from wkbohm.numerics import (
    _CELL_WEIGHTS,
    Grid1D,
    RealField,
    collect_snapshots,
    cubic_cell_evaluate,
    cubic_cell_table,
    cubic_interpolate,
    derivative_pair,
    derivative_values,
    second_derivative_values,
)
from wkbohm.potentials import Potential


def d1(grid, fn):
    return derivative_values(fn(grid.nodes), grid.dx)


def d2(grid, fn):
    return second_derivative_values(fn(grid.nodes), grid.dx)


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
        for x_min, x_max in ((-np.inf, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="^grid endpoints must be finite$"):
                Grid1D(x_min, x_max, 16)

    @pytest.mark.parametrize("n", [8.5, 9.0, np.float64(16.0), "16"], ids=repr)
    def test_point_count_that_is_not_an_integer_rejected(self, n):
        # 8.5 once built 9 nodes ending past x_max.
        with pytest.raises(ValueError, match=f"^n_points must be an integer, got {re.escape(repr(n))}$"):
            Grid1D(0.0, 1.0, n)

    @pytest.mark.parametrize("x_min, x_max, message", [
        (-1e308, 1e308, "has node spacing inf"),  # the span overflows
        (0.0, 5e-324, "has node spacing 0.0"),  # the spacing underflows
        (1.0, 1.0000000000000002, "is too narrow for 401 distinct nodes"),  # nodes collide
    ])
    def test_grid_without_distinct_finite_nodes_rejected(self, x_min, x_max, message):
        with pytest.raises(ValueError, match=f"^{re.escape(f'grid [{x_min}, {x_max}] {message}')}$"):
            Grid1D(x_min, x_max, 401)

    def test_numpy_integer_point_count_accepted(self):
        assert Grid1D(0.0, 1.0, np.int64(16)) == Grid1D(0.0, 1.0, 16)

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
        d = d1(g, lambda x: np.full_like(x, 4.2))
        assert np.max(np.abs(d)) == 0.0

    def test_quadratic_exact(self):
        g = Grid1D(-1.0, 1.0, 101)
        d = d1(g, lambda x: x**2)
        assert np.max(np.abs(d - 2 * g.nodes)) <= 1e-12

    def test_sine_fourth_order(self):
        # Richardson measurement: halving dx must shrink the max error
        # by about 2^4, within a factor of 2.
        errs = []
        for n in (201, 401, 801):
            g = Grid1D(-np.pi, np.pi, n)
            d = d1(g, np.sin)
            errs.append(np.max(np.abs(d - np.cos(g.nodes))))
        assert errs[0] <= 1e-6  # C * dx^4 at dx ~ 0.031
        for coarse, fine in zip(errs, errs[1:]):
            assert 8.0 <= coarse / fine <= 32.0

    def test_complex_field_kind_preserved(self):
        g = Grid1D(-1.0, 1.0, 64)
        d = d1(g, lambda x: np.exp(1j * x))
        assert np.iscomplexobj(d)
        assert_allclose(d, 1j * np.exp(1j * g.nodes), atol=1e-6)


class TestLaplacian:
    def test_linear_is_zero(self):
        g = Grid1D(-2.0, 5.0, 80)
        d = d2(g, lambda x: 3.0 * x)
        assert np.max(np.abs(d)) <= 1e-11

    def test_quadratic_exact(self):
        # Exact stencil; the tolerance is the machine-roundoff floor
        # of the 1/dx^2 scaling, not a truncation error.
        g = Grid1D(-1.0, 1.0, 101)
        d = d2(g, lambda x: x**2)
        assert np.max(np.abs(d - 2.0)) <= 1e-11

    def test_gaussian_fourth_order(self):
        errs = []
        for n in (401, 801, 1601):
            g = Grid1D(-6.0, 6.0, n)
            x = g.nodes
            d = d2(g, lambda x: np.exp(-(x**2)))
            exact = (4 * x**2 - 2) * np.exp(-(x**2))
            errs.append(np.max(np.abs(d - exact)))
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
    exact_d1 = degree * x ** (degree - 1) if degree >= 1 else np.zeros_like(x)
    exact_d2 = degree * (degree - 1) * x ** (degree - 2) if degree >= 2 else np.zeros_like(x)
    assert np.max(np.abs(d1(grid, lambda x: x**degree) - exact_d1)) <= 1e-11
    assert np.max(np.abs(d2(grid, lambda x: x**degree) - exact_d2)) <= 1e-11


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


class TestCubicCells:
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_matches_the_newton_cubic_at_any_length_scale(self, scale):
        rng = np.random.default_rng(5)
        for x_min, x_max, n in ((-3.0, 7.0 + 3e-7, 401), (-1.0, 1.0, 11), (2.5, 9.7, 1001), (0.0, 1.0, 8)):
            g = Grid1D(x_min * scale, x_max * scale, n)
            values = rng.normal(size=n) * np.cos(g.nodes / scale)
            table = cubic_cell_table(values)
            assert table.shape == (n, 4) and table.flags.c_contiguous
            dx, slack = g.dx, 1e-9 * g.dx
            cells = (0, 1, n - 3, n - 2)
            xq = np.concatenate([
                rng.uniform(g.x_min, g.x_max, 500),
                [g.x_min + (k + f) * dx for k in cells for f in (0.0, 0.25, 0.5, 0.999)],
                [g.x_min, g.x_max, g.x_min - 0.5 * slack, g.x_max + 0.5 * slack],
                g.nodes,
            ])
            got = cubic_cell_evaluate(g, table, xq)
            assert np.max(np.abs(got - newton_cubic(g, values, xq))) <= 1e-13 * np.max(np.abs(values))
            assert cubic_cell_evaluate(g, table, g.x_max) == pytest.approx(values[-1], abs=1e-13)
            for bad in (g.x_max + 1e-6 * dx, g.x_min - 1e-6 * dx, np.nan):
                with pytest.raises(ValueError, match="outside the grid"):
                    cubic_cell_evaluate(g, table, np.array([0.5 * (g.x_min + g.x_max), bad]))

    def test_exact_at_nodes(self):
        # dx = 1/4: every node maps to an integral u, where the value is b0.
        g = Grid1D(-2.0, 2.0, 17)
        values = np.random.default_rng(3).normal(size=17)
        table = cubic_cell_table(values)
        assert np.array_equal(table[:, 0], values)
        assert np.array_equal(cubic_cell_evaluate(g, table, g.nodes), values)

    def test_stack_builds_row_tables(self):
        values = np.random.default_rng(4).normal(size=(3, 2, 20))
        table = cubic_cell_table(values)
        assert table.shape == (3, 2, 20, 4)
        assert np.array_equal(table[2, 1], cubic_cell_table(values[2, 1]))

    @pytest.mark.parametrize("shape", [(8,), (11,), (401,), (2001,), (3, 2, 20)])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_table_is_the_column_table_transposed(self, shape, scale):
        # The (..., n, 4) rows hold the bytes of the former (..., 4, n) columns.
        values = scale * np.random.default_rng(shape[-1]).normal(size=shape)
        table = cubic_cell_table(values)
        assert table.flags.c_contiguous
        expected = np.swapaxes(references.cubic_cell_columns(values), -1, -2)
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()

    def test_weights_equal_the_polyfromroots_construction(self):
        # The closed-form coefficients of the integer-root basis give the
        # same bits as numpy's product of linear factors.
        from numpy.polynomial.polynomial import polyfromroots

        expected = np.empty((4, 4, 4))
        for offset in range(4):
            for i in range(4):
                others = [m for m in range(4) if m != i]
                expected[offset, :, i] = polyfromroots([m - offset for m in others])
                expected[offset, :, i] /= np.prod([i - m for m in others])
        assert _CELL_WEIGHTS.tobytes() == expected.tobytes()

    def test_scalar_query_gives_scalar(self):
        g = Grid1D(0.0, 1.0, 11)
        out = cubic_cell_evaluate(g, cubic_cell_table(np.sin(g.nodes)), 0.55)
        assert np.ndim(out) == 0
        assert out == pytest.approx(np.sin(0.55), abs=1e-5)


def test_collect_snapshots_chunks_the_steps():
    chunks = []
    out = collect_snapshots(0, lambda done, k: chunks.append(k) or done + k, 7, 3)
    assert out == [0, 3, 6, 7] and chunks == [3, 3, 1]
    for n_steps, every, message in ((7, 0, "every must be >= 1"), (-1, 3, "n_steps must be >= 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            collect_snapshots(0, lambda done, k: done + k, n_steps, every)


class TestStencilBody:
    """The one-pass stencil pair equals the two separate bodies it replaced, bit for bit."""

    @staticmethod
    def assert_pair_matches_references(values, dx):
        expected = (references.derivative_values(values, dx),
                    references.second_derivative_values(values, dx))
        got = derivative_pair(values, dx)
        for wrapper, a, b in zip((derivative_values, second_derivative_values), got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()
            assert wrapper(values, dx).tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [8, 9, 401])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_random_stacks(self, n, shape):
        rng = np.random.default_rng(n + len(shape))
        real = rng.normal(size=shape + (n,)) * 10.0 ** rng.integers(-3, 4, size=shape + (n,))
        cplx = real + 1j * rng.normal(size=shape + (n,))
        for values in (real, cplx):
            self.assert_pair_matches_references(values, 0.037)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_contiguous_input(self, dtype):
        # Column-sliced and row-strided views: each row keeps its own bits.
        rng = np.random.default_rng(11)
        base = rng.normal(size=(6, 430))
        if dtype is complex:
            base = base + 1j * rng.normal(size=base.shape)
        for values in (base[:, 17:418], base[::2], base[1::2, ::-1][:, :401], base.T[:9].T):
            assert not values.flags.c_contiguous
            self.assert_pair_matches_references(values, 0.05)

    def test_signed_zeros_of_constant_fields_kept(self):
        # A constant field differences to signed zeros; the right-edge
        # sign flip must leave them as the old bodies did.
        for values in (
            np.full((2, 9), 1.5), np.full(9, 0.5 - 2.0j), np.full(9, -1.0j),
            np.full((3, 401), -2.25), np.zeros((2, 3, 8)), np.full((2, 8), -0.0),
        ):
            self.assert_pair_matches_references(values, 0.1)

    def test_rows_do_not_leak_into_each_other(self):
        # Differences across a row boundary land on edge nodes only.
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 12)) * np.array([[1e-8], [1e8], [1.0], [-1e3]])
        d1, d2 = derivative_pair(stack, 0.2)
        for row, r1, r2 in zip(stack, d1, d2):
            alone = derivative_pair(row, 0.2)
            assert r1.tobytes() == alone[0].tobytes() and r2.tobytes() == alone[1].tobytes()


class TestPotentials:
    def test_record_is_hashable_and_pickles(self):
        import pickle

        pots = [Potential.free(), Potential.harmonic(2.0, 1.5), Potential(0.25)]
        assert len({*pots, Potential(0.0), Potential(4.5)}) == 3
        for p in pots:
            assert pickle.loads(pickle.dumps(p)) == p
        assert Potential.free() == Potential(0.0) == Potential()

    def test_harmonic_is_quadratic_in_the_stiffness(self):
        mass, omega = 1.3, 0.7
        pot = Potential.harmonic(mass, omega)
        k = mass * omega**2
        assert pot.stiffness == k
        x = np.random.default_rng(5).normal(size=50) * 3.0
        assert np.array_equal(pot.value(x), 0.5 * k * x**2)
        assert np.array_equal(pot.gradient(x), k * x)

    @pytest.mark.parametrize("k", [-1e-300, -2.0, np.inf, -np.inf, np.nan])
    def test_bad_stiffness_rejected(self, k):
        with pytest.raises(ValueError, match="stiffness"):
            Potential(k)

    def test_free_potential_vanishes(self):
        v = Potential.free()
        assert v.value(np.array([0.0, 2.0])).tolist() == [0.0, 0.0]
        assert v.gradient(1.3) == 0.0

    def test_harmonic_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Potential.harmonic(0.0, 1.0)
