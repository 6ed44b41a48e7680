import ast
import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import references
import wkbohm

from wkbohm import tdse
from wkbohm.analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    PhysParams,
    free_packet_action,
    free_packet_velocity,
    free_packet_wavefunction,
    ho_velocity,
    ho_wavefunction,
    spreading,
)
from wkbohm.errors import EdgeContamination, NumericalAbort
from wkbohm.numerics import ComplexField, Grid1D, derivative_values, trapezoid_norm
from wkbohm.potentials import Potential
from wkbohm.tdse import (
    EDGE_AMPLITUDE_LIMIT,
    NORM_DRIFT_LIMIT,
    CrankNicolsonSolver,
    TdseState,
    oracle_velocity,
    tdse_propagate,
    tdse_propagate_collecting,
)

NATURAL = PhysParams(1.0, 1.0)


def free_state(half_width=20.0, n=2001, p0=0.0):
    grid = Grid1D(-half_width, half_width, n)
    spec = GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=p0)
    psi = ComplexField(grid, free_packet_wavefunction(spec, grid.nodes, 0.0))
    return spec, TdseState(psi=psi, potential=Potential.free(), params=NATURAL)


def ho_state(dx_frac=50):
    spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
    half = spec.a + 13 * spec.sigma0
    n = int(np.ceil(2 * half / (spec.sigma0 / dx_frac))) + 1
    grid = Grid1D(-half, half, n)
    psi = ComplexField(grid, ho_wavefunction(spec, grid.nodes, 0.0))
    return spec, TdseState(psi=psi, potential=Potential.harmonic(1.0, spec.omega), params=NATURAL)


def align_phase(psi, psi_ref):
    k = int(np.argmax(np.abs(psi_ref)))
    phase = psi_ref[k] / psi[k]
    return psi * (phase / abs(phase))


class TestCrankNicolson:
    def test_single_step_preserves_norm(self):
        _, state = free_state()
        out = tdse_propagate(state, 1e-3, 1)
        assert out.time == pytest.approx(1e-3)
        assert trapezoid_norm(out.psi) == pytest.approx(trapezoid_norm(state.psi), abs=1e-12)

    def test_norm_conserved_over_ten_thousand_steps(self):
        # The oscillating coherent packet never approaches the grid
        # edge, so the run can go long without contamination.
        _, state = ho_state(dx_frac=50)
        out = tdse_propagate(state, 1e-3, 10_000)
        assert abs(trapezoid_norm(out.psi) - 1.0) <= 1e-8
        # Cayley-transform stepping keeps the discrete norm at the
        # roundoff floor, far below the contract bound.
        assert abs(trapezoid_norm(out.psi) - trapezoid_norm(state.psi)) <= 1e-10

    @pytest.mark.parametrize(
        "propagate",
        [tdse_propagate, lambda state, dt, n: tdse_propagate_collecting(state, dt, n, 1)],
        ids=["tdse_propagate", "tdse_propagate_collecting"],
    )
    def test_negative_step_count_rejected(self, propagate):
        _, state = free_state(half_width=8.0, n=161)
        with pytest.raises(ValueError, match="^n_steps must be >= 0$"):
            propagate(state, 1e-3, -3)
        for dt in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match="^dt must be positive"):
                propagate(state, dt, 3)

    def test_free_packet_spreading_law(self):
        # Width of the propagated density matches the closed-form
        # spreading to 0.1% at u = 1 (dx = sigma0/50, dt = 1e-3).
        spec, state = free_state(half_width=13 * np.sqrt(2), n=1840)
        out = tdse_propagate(state, 1e-3, 2000)
        x = out.psi.grid.nodes
        rho = np.abs(out.psi.values) ** 2
        width = np.sqrt(np.trapezoid(x**2 * rho, x))
        expected = spreading(spec, 2.0).sigma_t
        assert abs(width - expected) / expected <= 1e-3

    def test_free_packet_matches_closed_form(self):
        spec, state = free_state(half_width=13 * np.sqrt(2), n=1840)
        out = tdse_propagate(state, 1e-3, 2000)
        x = out.psi.grid.nodes
        exact = free_packet_wavefunction(spec, x, 2.0)
        aligned = align_phase(out.psi.values, exact)
        window = np.abs(x) <= 2 * spreading(spec, 2.0).sigma_t
        assert np.max(np.abs(aligned - exact)[window]) <= 1e-4

    def test_oscillator_center_tracks_classical_path(self):
        spec, state = ho_state(dx_frac=50)
        dt = 1e-3
        steps_quarter = int(round(spec.period / 4 / dt))
        current = state
        for k in range(1, 9):
            current = tdse_propagate(current, dt, steps_quarter)
            x = current.psi.grid.nodes
            rho = np.abs(current.psi.values) ** 2
            center = np.trapezoid(x * rho, x)
            expected = spec.a * np.cos(spec.omega * current.time)
            assert abs(center - expected) <= 1e-3 * spec.sigma0

    def test_oscillator_matches_closed_form_two_periods(self):
        # dx = sigma0/100 misses by 7.2e-6, as sigma0/50 does: the
        # 4th-order spatial error is below CN's dt^2 error at dt = 1e-3.
        spec, state = ho_state(dx_frac=100)
        steps = int(round(2 * spec.period / 1e-3))
        out = tdse_propagate(state, 1e-3, steps)
        x = out.psi.grid.nodes
        exact = ho_wavefunction(spec, x, out.time)
        aligned = align_phase(out.psi.values, exact)
        window = np.abs(x - spec.a * np.cos(spec.omega * out.time)) <= 2 * spec.sigma0
        assert np.max(np.abs(aligned - exact)[window]) <= 1e-4

    def test_error_is_fourth_order_in_dx(self):
        # A quarter period in 2000 steps keeps CN's dt^2 error far below
        # the spatial one; halving dx cuts a 4th-order error 16x (14.8x
        # here), where a 3-point Laplacian's would fall 4x.
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        half = spec.a + 13 * spec.sigma0
        errors = []
        for n in (126, 251):
            grid = Grid1D(-half, half, n)
            psi = ComplexField(grid, ho_wavefunction(spec, grid.nodes, 0.0))
            state = TdseState(psi=psi, potential=Potential.harmonic(1.0, spec.omega), params=NATURAL)
            out = tdse_propagate(state, spec.period / 4 / 2000, 2000)
            x = grid.nodes
            exact = ho_wavefunction(spec, x, out.time)
            window = np.abs(x - spec.a * np.cos(spec.omega * out.time)) <= 2 * spec.sigma0
            errors.append(np.max(np.abs(out.psi.values - exact)[window]))
        assert errors[0] >= 12.0 * errors[1]

    def test_edge_contamination_aborts(self):
        grid = Grid1D(-4.0, 4.0, 301)
        spec = GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=0.0)
        psi = ComplexField(grid, free_packet_wavefunction(spec, grid.nodes, 0.0))
        state = TdseState(psi=psi, potential=Potential.free(), params=NATURAL)
        with pytest.raises(EdgeContamination):
            tdse_propagate(state, 1e-3, 1)

    @pytest.mark.parametrize("shift, node", [(-1.0, 0), (1.0, 300)])
    def test_edge_contamination_names_the_larger_edge(self, shift, node):
        grid = Grid1D(-4.0, 4.0, 301)
        psi = np.exp(-((grid.nodes - shift) ** 2) / 4.0) + 0j
        state = TdseState(psi=ComplexField(grid, psi, time=0.25), potential=Potential.free(), params=NATURAL)
        with pytest.raises(EdgeContamination) as info:
            tdse_propagate(state, 1e-3, 1)
        exc, edge = info.value, abs(psi[node])
        assert edge > abs(psi[300 - node])
        assert str(exc) == f"edge amplitude {edge:.3g} >= 1e-12 at t=0.25; enlarge the grid"
        assert (exc.order, exc.node, exc.x, exc.t) == (None, node, grid.nodes[node], 0.25)
        assert exc.value == edge and exc.limit == EDGE_AMPLITUDE_LIMIT

    def test_norm_drift_abort_names_time_value_and_limit(self, monkeypatch):
        # A unit state drifts by round-off only (3e-15 here); a limit
        # below that round-off stands in for a real drift.
        _, state = free_state(half_width=15.0, n=201)
        dt, n_steps = 1e-2, 20
        solver = CrankNicolsonSolver(state.psi.grid, state.potential, state.params, dt)
        psi, t = state.psi.values.copy(), 0.0
        for _ in range(n_steps):
            psi, t = solver.step_values(psi, t), t + dt
        norm0 = trapezoid_norm(state.psi)
        drift = float((trapezoid_norm(ComplexField(state.psi.grid, psi, time=t)) - norm0) / norm0)
        assert drift != 0.0
        limit = abs(drift) / 2
        monkeypatch.setattr(tdse, "NORM_DRIFT_LIMIT", limit)
        with pytest.raises(NumericalAbort) as info:
            tdse_propagate(state, dt, n_steps)
        exc = info.value
        assert type(exc) is NumericalAbort
        assert str(exc) == f"norm drifted by {drift:.3g} of its initial value after {n_steps} steps"
        assert (exc.order, exc.node, exc.x) == (None, None, None)
        assert exc.t == t and exc.value == drift and exc.limit == limit

    def test_solve_failure_names_the_time(self):
        # A stub solve that reports a singular pivot (LAPACK info 1).
        _, state = free_state(half_width=15.0, n=201)
        solver = CrankNicolsonSolver(state.psi.grid, state.potential, state.params, 1e-2)
        solver._zgttrs = lambda *args, overwrite_b: (args[-1], 1)
        with pytest.raises(NumericalAbort) as info:
            solver.step_values(state.psi.values.copy(), np.float64(0.375))
        exc = info.value
        assert str(exc) == "Crank-Nicolson solve failed (LAPACK info 1) at t=0.375"
        assert exc.t == 0.375 and type(exc.t) is float
        assert (exc.order, exc.node, exc.x, exc.value, exc.limit) == (None,) * 5

    def test_norm_drift_limit_is_relative_to_the_initial_norm(self):
        # Scaled by 1e8 the norm is 1e16, where one ulp is 2: round-off
        # alone moves it by more than an absolute 1e-8.
        _, state = free_state(half_width=15.0, n=151)
        scaled = ComplexField(state.psi.grid, 1e8 * state.psi.values)
        state = TdseState(psi=scaled, potential=state.potential, params=state.params)
        out = tdse_propagate(state, 1e-2, 20)
        assert out.psi.time == pytest.approx(0.2)
        assert trapezoid_norm(out.psi) == pytest.approx(trapezoid_norm(scaled), rel=NORM_DRIFT_LIMIT)

    def test_collecting_returns_snapshots(self):
        _, state = free_state(half_width=15.0, n=751)
        snaps = tdse_propagate_collecting(state, 1e-3, 100, every=25)
        assert len(snaps) == 5
        assert snaps[0].time == 0.0
        assert snaps[-1].time == pytest.approx(0.1)


class TestTridiagonalStep:
    """The LAPACK tridiagonal step against dense linear algebra."""

    @pytest.mark.parametrize("model", ["free", "harmonic"])
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_step_matches_dense_solve(self, model, dt):
        params = PhysParams(0.7, 1.3)
        grid = Grid1D(-8.0, 8.0, 64)
        x = grid.nodes
        potential = Potential.free() if model == "free" else Potential.harmonic(params.mass, 1.7)
        shift = np.eye(64, k=-1) + np.eye(64, k=1)
        lap = (shift - 2.0 * np.eye(64)) / grid.dx**2
        b = (shift + 10.0 * np.eye(64)) / 12.0
        k = -(params.hbar**2) / (2.0 * params.mass) * lap + b @ np.diag(potential.value(x))
        a = 1j * dt / (2.0 * params.hbar)
        backward, forward = b + a * k, b - a * k
        psi = np.exp(-((x - 0.4) ** 2) / 1.2 + 1.5j * x)
        solver = CrankNicolsonSolver(grid, potential, params, dt)
        for _ in range(3):
            expected = np.linalg.solve(backward, forward @ psi)
            got = solver.step_values(psi.copy(), 0.0)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
            psi = expected

    @pytest.mark.parametrize("model", ["free", "harmonic"])
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_step_matches_the_forward_product_step(self, model, dt):
        # 2 A^-1 B psi - psi against solving A psi_new = (B - aK) psi, from the same input.
        params = PhysParams(0.7, 1.3)
        grid = Grid1D(-8.0, 8.0, 401)
        x = grid.nodes
        potential = Potential.free() if model == "free" else Potential.harmonic(params.mass, 1.7)
        solver = CrankNicolsonSolver(grid, potential, params, dt)
        reference = references.ForwardProductSolver(grid, potential, params, dt)
        psi = np.exp(-((x - 0.4) ** 2) / 1.2 + 1.5j * x)
        for _ in range(5):
            expected = reference.step_values(psi.copy())
            got = solver.step_values(psi, 0.0)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(psi))
            psi = expected

    def test_one_period_error_matches_the_forward_product_step(self):
        # The two forms differ by round-off only, so they miss the exact
        # state after one period by the same discretization error.
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        half = spec.a + 13 * spec.sigma0
        grid = Grid1D(-half, half, 401)
        potential, n_steps = Potential.harmonic(1.0, spec.omega), 500
        dt = spec.period / n_steps
        solver = CrankNicolsonSolver(grid, potential, NATURAL, dt)
        reference = references.ForwardProductSolver(grid, potential, NATURAL, dt)
        psi = ref = ho_wavefunction(spec, grid.nodes, 0.0).astype(complex)
        for k in range(n_steps):
            psi, ref = solver.step_values(psi, k * dt), reference.step_values(ref)
        exact = ho_wavefunction(spec, grid.nodes, n_steps * dt)
        error, ref_error = np.max(np.abs(psi - exact)), np.max(np.abs(ref - exact))
        assert 3e-4 < ref_error < 1e-3  # 5.73e-4
        assert abs(error - ref_error) <= 0.01 * ref_error

    def test_step_leaves_its_input_alone(self):
        grid = Grid1D(-8.0, 8.0, 64)
        solver = CrankNicolsonSolver(grid, Potential.free(), NATURAL, 1e-2)
        psi = np.exp(-(grid.nodes**2)) + 0j
        before = psi.copy()
        solver.step_values(psi, 0.0)
        np.testing.assert_array_equal(psi, before)

    BUILD_SOLVER = (
        "from wkbohm.analytic import PhysParams\n"
        "from wkbohm.numerics import Grid1D\n"
        "from wkbohm.potentials import Potential\n"
        "from wkbohm.tdse import CrankNicolsonSolver\n"
        "solver = CrankNicolsonSolver(Grid1D(-1.0, 1.0, 16), Potential.free(), PhysParams(1.0, 1.0), 0.1)\n"
    )

    @staticmethod
    def _run_fresh(script):
        # A fresh interpreter that finds the same wkbohm this test imported;
        # returns the literal the script prints last.
        source_root = str(Path(wkbohm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
        return ast.literal_eval(out.stdout.strip().splitlines()[-1])

    @classmethod
    def _loaded_scipy_modules(cls, code):
        script = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
        return cls._run_fresh(script)

    def test_package_import_loads_no_scipy(self):
        assert self._loaded_scipy_modules("import wkbohm, wkbohm.tdse") == []

    def test_solver_loads_only_the_lapack_extension(self):
        assert self._loaded_scipy_modules(self.BUILD_SOLVER) == ["scipy.linalg._flapack"]

    @pytest.mark.parametrize("solver_first", [True, False], ids=["solver-first", "lapack-first"])
    def test_solver_uses_scipy_lapack_functions(self, solver_first):
        from scipy.linalg.lapack import zgttrf, zgttrs

        rng = np.random.default_rng(29)
        z = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        dl, d, du, b = z[0, 1:], z[1] + 4.0, z[2, 1:], z[3]
        x, info = zgttrs(*zgttrf(dl, d, du)[:-1], b)
        assert info == 0
        steps = [self.BUILD_SOLVER, "from scipy.linalg import lapack\n"]
        script = "".join(steps if solver_first else steps[::-1]) + (
            "import sys\n"
            "import numpy as np\n"
            "flapack = sys.modules['scipy.linalg._flapack']\n"
            f"dl, d, du, b = (np.array(v) for v in {[v.tolist() for v in (dl, d, du, b)]!r})\n"
            "x, info = solver._zgttrs(*flapack.zgttrf(dl, d, du)[:-1], b)\n"
            "print((lapack._flapack is flapack, solver._zgttrs is lapack.zgttrs,\n"
            "       flapack.zgttrf is lapack.zgttrf, info, x.tobytes()))\n"
        )
        assert self._run_fresh(script) == (True, True, True, 0, x.tobytes())

    @pytest.mark.parametrize("missing", ["scipy", "extension"])
    def test_missing_lapack_extension_raises_import_error(self, tmp_path, missing):
        directory = tmp_path / "scipy" / "linalg"
        if missing == "scipy":
            hide = "sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p or '.', 'scipy'))]"
        else:
            directory.mkdir(parents=True)
            (tmp_path / "scipy" / "__init__.py").write_text("")
            hide = f"sys.path.insert(0, {str(tmp_path)!r})"
        *imports, build = self.BUILD_SOLVER.splitlines()
        script = "\n".join(
            ["import os, sys", *imports, hide, "try:", f"    {build}", "except ImportError as e:", "    print(repr(str(e)))"]
        )
        message = self._run_fresh(script)
        if missing == "scipy":
            assert message == "the Crank-Nicolson solver needs scipy/linalg/_flapack; scipy is not installed"
        else:
            names = ", ".join(f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
            assert message == f"no scipy LAPACK extension in {directory} (looked for {names})"


class TestOracleVelocity:
    def test_real_wavefunction_is_at_rest(self):
        _, state = free_state(half_width=10.0, n=501)
        grid = state.psi.grid
        v = oracle_velocity(state.psi, NATURAL, x_window=(grid.x_min, grid.x_max))
        assert np.max(np.abs(v.values)) == 0.0

    def test_matches_action_gradient_for_free_packet(self):
        spec = GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=1.0)
        t = 1.0
        s = spreading(spec, t)
        grid = Grid1D(-12, 14, 1301)
        psi = ComplexField(grid, free_packet_wavefunction(spec, grid.nodes, t), t)
        span = (spec.v0 * t - 2 * s.sigma_t, spec.v0 * t + 2 * s.sigma_t)
        v = oracle_velocity(psi, NATURAL, x_window=span)
        expected = free_packet_velocity(spec, grid.nodes, t)
        window = np.abs(grid.nodes - spec.v0 * t) <= 2 * s.sigma_t
        assert np.max(np.abs(v.values - expected)[window]) <= 1e-6

    def test_oscillator_velocity_uniform(self):
        spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
        t = 0.9
        grid = Grid1D(-7, 7, 1001)
        psi = ComplexField(grid, ho_wavefunction(spec, grid.nodes, t), t)
        c = spec.a * np.cos(t)
        v = oracle_velocity(psi, NATURAL, x_window=(c - 2 * spec.sigma0, c + 2 * spec.sigma0))
        window = np.abs(grid.nodes - c) <= 2 * spec.sigma0
        assert np.max(np.abs(v.values - ho_velocity(spec, t))[window]) <= 1e-6

    def test_window_with_true_node_rejected(self):
        grid = Grid1D(-1, 1, 101)
        psi = ComplexField(grid, grid.nodes + 1e-300 + 0j)
        with pytest.raises(ValueError):
            oracle_velocity(psi, NATURAL, x_window=(-0.5, 0.5))

    def test_consistent_with_polar_gradient(self):
        spec = GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=0.7)
        t = 0.8
        grid = Grid1D(-10, 12, 1101)
        psi = ComplexField(grid, free_packet_wavefunction(spec, grid.nodes, t), t)
        s = spreading(spec, t)
        span = (spec.v0 * t - 2 * s.sigma_t, spec.v0 * t + 2 * s.sigma_t)
        v = oracle_velocity(psi, NATURAL, x_window=span)
        action = free_packet_action(spec, grid.nodes, t)
        v_from_s = derivative_values(action, grid.dx) / NATURAL.mass
        window = np.abs(grid.nodes - spec.v0 * t) <= 2 * s.sigma_t
        # Both routes are 4th-order stencil estimates; dx^4 ~ 1.6e-7.
        assert np.max(np.abs(v.values - v_from_s)[window]) <= 1e-7
