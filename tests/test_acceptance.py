"""Acceptance suite: the exit criteria of the build, one per test.

Each test prints a pass/fail line (visible with `pytest -s` or in the
failure report) and asserts at its stated tolerance. The tolerances
here are pinned; see the test bodies for the measurement setup.
"""

import json
from pathlib import Path

import numpy as np

from wkbohm.analytic import (
    GaussianPacketSpec,
    OscillatorSpec,
    PhysParams,
    free_packet_asymptotic_velocity,
    free_packet_modulus,
    free_packet_trajectory,
    free_packet_trajectory_series,
    free_packet_wavefunction,
    ho_wavefunction,
    spreading,
    time_for_u,
    trajectory_series_coefficient,
)
from wkbohm.config import parse_config
from wkbohm.experiments import run_experiment
from wkbohm.hierarchy import (
    PolarFields,
    complex_velocity_residual,
    init_hierarchy,
    propagate_hierarchy,
    qhj_residual_from_series,
    reconstruct_polar,
)
from wkbohm.numerics import ComplexField, Grid1D, RealField
from wkbohm.potentials import Potential
from wkbohm.tdse import TdseState, oracle_velocity, tdse_propagate, tdse_propagate_collecting
from wkbohm.trajectories import (
    FreePacketVelocityField,
    GriddedVelocityField,
    OscillatorVelocityField,
    fit_asymptotic_velocity,
    integrate_bohmian,
    integrate_ensemble,
    equivariance_check,
    sample_initial_positions,
    Trajectory,
)

NATURAL = PhysParams(1.0, 1.0)
FAN9 = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def packet(p0=0.0):
    return GaussianPacketSpec(params=NATURAL, sigma0=1.0, p0=p0)


def rest_gaussian_polar(grid, sigma0=1.0):
    x = grid.nodes
    r = (2 * np.pi * sigma0**2) ** (-0.25) * np.exp(-(x**2) / (4 * sigma0**2))
    return PolarFields(R=RealField(grid, r), S=RealField(grid, np.zeros_like(x)))


def exact_action(x, t, hbar=1.0):
    u = hbar * t / 2.0
    return -(hbar / 2) * np.arctan(u) + hbar**2 * t / (8 * (1 + u**2)) * x**2


def test_criterion_1_free_packet_trajectories():
    """Integrated Bohmian trajectories reproduce the closed form."""
    spec = packet()
    t = np.arange(0.0, 4.0 + 1e-12, 1e-3)  # u in [0, 2]
    provider = FreePacketVelocityField(spec)
    worst = 0.0
    for x0 in FAN9:
        traj = integrate_bohmian(provider, x0, t)
        exact = free_packet_trajectory(spec, x0, t)
        worst = max(worst, float(np.max(np.abs(traj.positions - exact))))
    ok = worst <= 1e-6 * spec.sigma0
    report("criterion 1 (trajectory reproduction)", ok, f"max |x - exact| = {worst:.3e} sigma0")
    assert ok


def test_criterion_2_series_convergence_and_breakdown():
    """Partial sums converge below u = 1 and break down above it."""
    spec = packet()
    x0 = 1.0
    t = time_for_u(spec, 0.5)
    exact = free_packet_trajectory(spec, x0, t)
    converged = True
    for order in range(1, 11):
        err = abs(free_packet_trajectory_series(spec, x0, t, order).position - exact)
        omitted = abs(trajectory_series_coefficient(order + 1)) * 0.5 ** (2 * (order + 1)) * x0
        converged &= err <= 2.0 * omitted
    t_out = time_for_u(spec, 1.5)
    exact_out = free_packet_trajectory(spec, x0, t_out)
    err5 = abs(free_packet_trajectory_series(spec, x0, t_out, 5).position - exact_out)
    err20 = abs(free_packet_trajectory_series(spec, x0, t_out, 20).position - exact_out)
    broke_down = err20 > err5
    ok = converged and broke_down
    report(
        "criterion 2 (series behavior)", ok,
        f"bounded for N=1..10 at u=0.5: {converged}; "
        f"u=1.5 err(N=20)={err20:.3e} > err(N=5)={err5:.3e}: {broke_down}",
    )
    assert ok


def test_criterion_3_asymptotic_slopes():
    """Late-time slopes carry the x0-dependent velocity shift."""
    spec = packet()
    t = np.linspace(0.0, time_for_u(spec, 50.0), 2001)
    window = (time_for_u(spec, 20.0), time_for_u(spec, 40.0))
    worst = 0.0
    for x0 in FAN9:
        traj = Trajectory(
            times=t, positions=free_packet_trajectory(spec, x0, t), x0=x0, source="analytic-free"
        )
        fit = fit_asymptotic_velocity(traj, window, packet=spec)
        predicted = free_packet_asymptotic_velocity(spec, x0)
        err = abs(fit.velocity - predicted) / abs(predicted) if predicted != 0 else abs(fit.velocity)
        worst = max(worst, err)
    ok = worst <= 5e-3
    report("criterion 3 (asymptote slopes)", ok, f"max relative slope error = {worst:.3e}")
    assert ok


def test_criterion_4_oscillator_claims():
    """Parallel transport and the dressed harmonic motion equation."""
    spec = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
    provider = OscillatorVelocityField(spec)
    t = np.linspace(0.0, 2 * spec.period, 2001)
    x0s = (-0.7, 0.4, 1.3)
    trajs = [integrate_bohmian(provider, x0, t) for x0 in x0s]
    parallel = 0.0
    for i in range(len(x0s) - 1):
        gap = trajs[i + 1].positions - trajs[i].positions
        parallel = max(parallel, float(np.max(np.abs(gap - (x0s[i + 1] - x0s[i])))))

    dt = t[1] - t[0]
    residual = 0.0
    for traj, x0 in zip(trajs, x0s):
        x = traj.positions
        xdd = (-x[:-4] + 16 * x[1:-3] - 30 * x[2:-2] + 16 * x[3:-1] - x[4:]) / (12 * dt**2)
        res = xdd + spec.omega**2 * x[2:-2] - spec.omega**2 * (x0 - spec.a)
        residual = max(residual, float(np.max(np.abs(res))))
    ok = parallel <= 1e-8 and residual <= 1e-6 * abs(spec.a) * spec.omega**2
    report(
        "criterion 4 (oscillator claims)", ok,
        f"parallel deviation = {parallel:.3e}; motion-equation residual = {residual:.3e}",
    )
    assert ok


def _hierarchy_action_error(order, hbar=1.0, u_end=0.2):
    grid = Grid1D(-8.0, 8.0, 401)
    x = grid.nodes
    t_end = 2.0 * u_end / hbar if hbar == 1.0 else 0.4
    params = PhysParams(hbar=hbar, mass=1.0)
    state = init_hierarchy(rest_gaussian_polar(grid), order)
    state = propagate_hierarchy(state, Potential.free(), 1e-3, int(round(t_end / 1e-3)), params=params)
    polar = reconstruct_polar(state, params)
    window = np.abs(x) <= 2.0
    err_s = float(np.max(np.abs(polar.S.values - exact_action(x, t_end, hbar))[window]))
    u = hbar * t_end / 2.0
    st2 = 1 + u**2
    r_exact = (2 * np.pi * st2) ** (-0.25) * np.exp(-(x**2) / (4 * st2))
    err_r = float(np.max(np.abs(polar.R.values - r_exact)[window]))
    return err_s, err_r


def test_criterion_5_hierarchy_action_tolerance():
    """Stated tolerance for the order-3 reconstructed action.

    The propagated fields match the closed-form hierarchy solution to
    ~1e-9 here; the distance to the full action at hbar = 1 is the
    series truncation left over at order 3 (first omitted term
    hbar^4 u^3 (x^2/4 - 1/6), about 6.4e-3 on this window), which no
    propagation accuracy can reduce. The stated 1e-4 is asserted
    as written.
    """
    err3, _ = _hierarchy_action_error(3)
    ok = err3 <= 1e-4
    report(
        "criterion 5a (hierarchy action within 1e-4 at N=3)", ok,
        f"max |S_rec - S_exact| on |x|<=2 = {err3:.3e} "
        "(order-3 series truncation at hbar=1; see this test's docstring)",
    )
    assert ok


def test_criterion_5_hierarchy_order_improvement_and_hbar_scaling():
    """Order-5 beats order-3; order-1 modulus error scales as hbar^2."""
    err3, _ = _hierarchy_action_error(3)
    err5, _ = _hierarchy_action_error(5)
    improves = err5 < err3

    _, r_full = _hierarchy_action_error(1, hbar=1.0)
    _, r_half = _hierarchy_action_error(1, hbar=0.5)
    ratio = r_full / r_half
    scaling = 3.0 <= ratio <= 5.0
    ok = improves and scaling
    report(
        "criterion 5b (hierarchy order improvement, hbar scaling)", ok,
        f"S error N=5 {err5:.3e} < N=3 {err3:.3e}: {improves}; "
        f"modulus error ratio under hbar halving = {ratio:.2f}",
    )
    assert ok


def test_criterion_6_residual_checks():
    """Analytic packet residuals small; plane wave exactly zero."""
    grid = Grid1D(-8.0, 8.0, 401)
    x = grid.nodes
    t0, delta = 1.0, 1e-3

    def sbar(t):
        u = t / 2.0
        st2 = 1 + u**2
        log_r = -0.25 * np.log(2 * np.pi * st2) - x**2 / (4 * st2)
        return ComplexField(grid, exact_action(x, t) - 1j * log_r, t)

    stack = [sbar(t0 + k * delta) for k in (-2, -1, 0, 1, 2)]
    window = np.abs(x) <= 2 * np.sqrt(1 + 0.25)
    qhj = float(np.max(qhj_residual_from_series(stack, Potential.free(), NATURAL, delta).values[window]))
    cv = float(
        np.max(complex_velocity_residual(stack, Potential.free(), NATURAL, delta).values[window])
    )

    plane = [ComplexField(grid, np.zeros_like(x) + 0j, t0 + k * delta) for k in (-1, 0, 1)]
    pq = float(np.max(qhj_residual_from_series(plane, Potential.free(), NATURAL, delta).values))
    pv = float(np.max(complex_velocity_residual(plane, Potential.free(), NATURAL, delta).values))

    ok = qhj <= 1e-5 and cv <= 1e-5 and pq == 0.0 and pv == 0.0
    report(
        "criterion 6 (residual checks)", ok,
        f"qhj = {qhj:.3e}, velocity = {cv:.3e}, plane wave = ({pq}, {pv})",
    )
    assert ok


def test_criterion_7_oracle_agreement():
    """Crank-Nicolson states and trajectories match the closed forms."""
    # Free packet to u = 1 at dx = sigma0/50, dt = 1e-3.
    spec = packet()
    half = 13.0 * np.sqrt(2.0)
    n = int(np.ceil(2 * half / 0.02)) + 1
    grid = Grid1D(-half, half, n)
    psi0 = ComplexField(grid, free_packet_wavefunction(spec, grid.nodes, 0.0))
    state = TdseState(psi=psi0, potential=Potential.free(), params=NATURAL)
    snaps = tdse_propagate_collecting(state, 1e-3, 2000, every=10)
    out = snaps[-1]
    x = grid.nodes
    exact = free_packet_wavefunction(spec, x, out.time)
    k = int(np.argmax(np.abs(exact)))
    phase = exact[k] / out.psi.values[k]
    phase /= abs(phase)
    sig_t = spreading(spec, out.time).sigma_t
    w = np.abs(x) <= 2 * sig_t
    err_free = float(np.max(np.abs(out.psi.values * phase - exact)[w]))

    # Free-packet trajectories through the stored oracle fields.
    oracle_provider = GriddedVelocityField(
        grid,
        np.array([s.time for s in snaps]),
        np.stack([oracle_velocity(s.psi, NATURAL, x_window=(-6, 6)).values for s in snaps]),
        source="oracle",
    )
    t = np.array([s.time for s in snaps])
    traj_err = 0.0
    for x0 in (-1.5, 0.5, 1.0):
        got = integrate_bohmian(oracle_provider, x0, t)
        exact_tr = free_packet_trajectory(spec, x0, t)
        traj_err = max(traj_err, float(np.max(np.abs(got.positions - exact_tr))))

    # Oscillator over two periods at dx = sigma0/100: the oracle misses
    # by 7.2e-6 of the 1e-4 budget, set by CN's dt^2 error; its 4th-order
    # spatial error reads no larger at sigma0/50.
    osc = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
    half = osc.a + 13 * osc.sigma0
    n = int(np.ceil(2 * half / (osc.sigma0 / 100))) + 1
    ogrid = Grid1D(-half, half, n)
    psi0 = ComplexField(ogrid, ho_wavefunction(osc, ogrid.nodes, 0.0))
    hstate = TdseState(psi=psi0, potential=Potential.harmonic(1.0, osc.omega), params=NATURAL)
    steps = int(round(2 * osc.period / 1e-3))
    hout = tdse_propagate(hstate, 1e-3, steps)
    xo = ogrid.nodes
    h_exact = ho_wavefunction(osc, xo, hout.time)
    k = int(np.argmax(np.abs(h_exact)))
    phase = h_exact[k] / hout.psi.values[k]
    phase /= abs(phase)
    c = osc.a * np.cos(osc.omega * hout.time)
    w = np.abs(xo - c) <= 2 * osc.sigma0
    err_ho = float(np.max(np.abs(hout.psi.values * phase - h_exact)[w]))

    ok = err_free <= 1e-4 and err_ho <= 1e-4 and traj_err <= 1e-3 * spec.sigma0
    report(
        "criterion 7 (oracle agreement)", ok,
        f"free |dpsi| = {err_free:.3e}, oscillator |dpsi| = {err_ho:.3e}, "
        f"trajectory gap = {traj_err:.3e}",
    )
    assert ok


def test_criterion_8_equivariance():
    """Transported ensembles stay distributed as the density."""
    spec = packet()
    grid = Grid1D(-30, 30, 3001)
    x = grid.nodes
    rho0 = RealField(grid, free_packet_modulus(spec, x, 0.0) ** 2)
    xs = sample_initial_positions(rho0, 10_000, "random", seed=2024)
    t_end = time_for_u(spec, 1.0)
    t = np.linspace(0.0, t_end, 2001)
    ens = integrate_ensemble(FreePacketVelocityField(spec), xs, t)
    rho_t = RealField(grid, free_packet_modulus(spec, x, t_end) ** 2, t_end)
    ks_free = equivariance_check(ens, rho_t)

    osc = OscillatorSpec(params=NATURAL, omega=1.0, a=1.0)
    ogrid = Grid1D(-8, 8, 2001)
    xo = ogrid.nodes

    def density(tt):
        c = osc.a * np.cos(osc.omega * tt)
        rho = (2 * np.pi * osc.sigma0**2) ** (-0.5) * np.exp(-((xo - c) ** 2) / (2 * osc.sigma0**2))
        return RealField(ogrid, rho, tt)

    xs = sample_initial_positions(density(0.0), 10_000, "random", seed=2025)
    ks_ho = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        tt = frac * osc.period
        tg = np.linspace(0.0, tt, 1001)
        ens = integrate_ensemble(OscillatorVelocityField(osc), xs, tg)
        ks_ho = max(ks_ho, equivariance_check(ens, density(tt)))

    ok = ks_free < 0.02 and ks_ho < 0.02
    report(
        "criterion 8 (equivariance)", ok,
        f"KS free at u=1: {ks_free:.4f}; KS oscillator checkpoints: {ks_ho:.4f} (n=10^4)",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed produce identical table bytes."""
    identical = True
    for doc in (
        {"experiment": "figure1-short", "model": "free"},
        {
            "experiment": "equivariance",
            "model": "free",
            "ensemble_n": 500,
            "ensemble_mode": "random",
            "seed": 7,
        },
    ):
        cfg = parse_config(json.dumps(doc))
        out1 = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        out2 = run_experiment(cfg, out_dir=str(tmp_path / "b"))
        for name in out1.files:
            identical &= (
                Path(out1.files[name]).read_bytes() == Path(out2.files[name]).read_bytes()
            )
    report("criterion 9 (determinism)", identical, "table bytes identical across reruns")
    assert identical
