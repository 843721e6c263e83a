import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debondsim import griffith, prescribed
from debondsim.energy_audit import audit
from debondsim.fields import ProblemData, Profile, Toughness, to_h_data
from debondsim.geometry import FrontCurve, GeometryError, corner_wavefronts, jump_radii
from debondsim.griffith import (
    GriffithRun, StripWorkspace, _front_point, _start_slope, _strip_rows, run,
    solve_coupled_window,
)
from debondsim.prescribed import ConvergenceError, _extend, _seam_data, evaluate_field, march
from reference import free_solution


def bump_data(R=3.0, rho0=1.0, alpha=0.0, amp=0.4, v1=None, w=None):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=8.0,
                       w=w or Profile.zero(),
                       v0=Profile.sine_bump(amp, rho0),
                       v1=v1 or Profile.zero())


def make_workspace(data, tough, T=0.25, m=16, delta=1.0 / 64):
    return StripWorkspace(to_h_data(data), tough, T, m, delta)


# -- rate law -----------------------------------------------------------------
# The front's slope d omega / d eta is min(1, 1 / Lam), and the crossing time
# of a diagonal then grows at lambda' = dt / d omega = (1 + 1 / omega') / 2,
# which is (1 + max(Lam, 1)) / 2.

def test_lambda_rhs_stationary_branch():
    data = bump_data(amp=0.05)
    tough = Toughness.constant(100.0, rho0=1.0, R=3.0)  # far above the rate
    ws = make_workspace(data, tough)
    om = ws.straight_front(1.0)
    h = ws.psi1(np.zeros(ws.r_grid.shape), om)
    assert ws.rate_front(h, om).right[0] == pytest.approx(1.0)


def test_lambda_rhs_moving_branch():
    # Lam = 3 -> omega' = 1/3 and lambda' = 2, synthesized through the
    # toughness level
    data = bump_data(amp=0.4)
    hd = to_h_data(data)
    bracket = float(hd.h0.deriv(1.0)) - float(hd.h1(1.0))
    g0 = bracket ** 2 / (2.0 * 2.0)
    tough = Toughness.constant(g0 / 3.0, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    om = ws.straight_front(1.0)
    h = ws.psi1(np.zeros(ws.r_grid.shape), om)
    # at the start of the front t = 0: no line integral, data only
    slope = ws.rate_front(h, om).right[0]
    assert slope == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert 0.5 * (1.0 + 1.0 / slope) == pytest.approx(2.0, rel=1e-9)


def test_psi2_unit_slope_for_zero_field():
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.0, horizon=8.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    om0 = ws.straight_front(1.0)
    om = ws.psi2(np.zeros(ws.r_grid.shape), om0)
    assert np.allclose(om, np.maximum(ws.cone_eta - 2.0 * ws.rho0, -ws.rho0), atol=1e-14)


def test_psi2_slope_at_least_one():
    # the crossing-time slope is at least 1: omega' lies in (0, 1]
    data = bump_data(amp=0.5)
    tough = Toughness.constant(0.05, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    om0 = ws.straight_front(1.0)
    h = ws.psi1(np.zeros(ws.r_grid.shape), om0)
    om = ws.psi2(h, om0)
    grow = np.diff(om[ws.m:]) / ws.delta
    assert np.all(grow > 0.0)
    assert np.all(1.0 / grow >= 1.0 - 1e-12)
    assert np.all(om[:ws.m + 1] == -ws.rho0)


def test_psi1_zero_data_zero_field():
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=8.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    assert np.all(ws.psi1(np.zeros(ws.r_grid.shape), ws.straight_front(1.0)) == 0.0)


@pytest.mark.parametrize("slope", [0.6, 1.0])
def test_strip_free_solution_matches_pointwise_oracle(slope):
    # the strip's branches on its straight front against the d'Alembert
    # value on the same front as a FrontCurve, at every strip node on or
    # behind the front; the moving front reflects f_plus through omega
    data = bump_data(alpha=0.5, v1=Profile.constant(0.2))
    ws = make_workspace(data, Toughness.constant(1.0, rho0=1.0, R=3.0), T=0.375, m=24)
    om = ws.straight_front(slope)
    front = FrontCurve.affine(1.0, (1.0 - slope) / (1.0 + slope), 1.0, 3.0)
    inside = ws.inside_mask(om)
    t, r = ws.t_grid[inside], ws.r_grid[inside]
    assert np.any(t + r > ws.rho0 + 0.25) and inside.sum() > 0.5 * inside.size
    ref = free_solution(ws.hd, front, t, r)
    got = ws.free_solution(om)[inside]
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_psi1_matches_prescribed_solver_on_strip():
    # with the front held at the prescribed run's shape, the strip field
    # update reproduces the full solver's field on the strip
    data = bump_data(alpha=0.8, amp=0.3)
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    delta = 1.0 / 64
    patches = march(data, front, horizon=0.25, delta=delta)
    ws = make_workspace(data, tough, T=0.25, m=12, delta=delta)
    om = ws.straight_front(1.0)  # the static front
    h = ws.psi1(np.zeros(ws.r_grid.shape), om)
    for _ in range(60):
        h = ws.psi1(h, om)
    for l in range(0, ws.L + 1, 4):
        for k in range(0, ws.m + 1, 3):
            t = l * delta
            r = float(ws.r_grid[l, k])
            if r > 1.0 - 1e-12 or t > 0.25:
                continue
            ref = evaluate_field(patches, t, r).h
            assert h[l, k] == pytest.approx(ref, abs=5e-9), (l, k)


# -- window fixed point ---------------------------------------------------------

def test_window_converges_and_reports():
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, m=12)
    h, om, diag = solve_coupled_window(ws, t_start=0.0)
    assert diag["final_update"] < 1e-10
    assert diag["measured_factor"] < 0.9
    assert np.all(om[:ws.m + 1] == -ws.rho0)
    assert np.all(np.diff(om) >= -1e-15)


def test_window_stationary_for_huge_toughness():
    data = bump_data(amp=0.3)
    tough = Toughness.constant(1e6, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, m=8)
    h, om, diag = solve_coupled_window(ws, t_start=0.0)
    assert np.allclose(om, np.maximum(ws.cone_eta - 2.0 * ws.rho0, -ws.rho0), atol=1e-12)


def test_front_point_lies_on_the_crossing_curve():
    # omega integrates the piecewise-linear rate slope in eta, so a cut
    # inside a cell lands on that curve, not on the cell's chord
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, T=1.0, m=12)
    h, om, _ = solve_coupled_window(ws, t_start=0.0)
    f = ws.rate_front(h, om)
    assert len(f.eta) == len(ws.eta)  # one toughness piece: no split cell
    t_exit, rho_exit = _front_point(f, float(ws.s[-1]), "omega")
    assert t_exit < ws.T  # the front leaves the strip on its last diagonal

    def crossing_omega(eta):
        grid = np.append(f.eta[f.eta < eta], eta)  # exact for a linear integrand
        return -ws.rho0 + float(np.trapezoid(np.interp(grid, f.eta, f.right), grid))

    for t in (0.3 * ws.delta, 2.5 * ws.delta, 0.5 * t_exit):
        t_cut, rho_cut = _front_point(f, t)
        assert t_cut == pytest.approx(t, abs=1e-14)
        assert crossing_omega(t_cut + rho_cut) == pytest.approx(t_cut - rho_cut, abs=1e-12)
    for rho in (1.0 + 0.3 * (rho_exit - 1.0), 1.0 + 0.8 * (rho_exit - 1.0)):
        t_cut, rho_cut = _front_point(f, rho, "rho")
        assert rho_cut == pytest.approx(rho, abs=1e-14)
        assert crossing_omega(t_cut + rho_cut) == pytest.approx(t_cut - rho_cut, abs=1e-12)


def test_start_slope_is_the_rate_on_a_blank_strip():
    # the closed form of G0 at t = 0 is the strip's release rate at its
    # first front point with no field and no line integral, bit for bit
    for alpha, w in ((0.0, None), (0.5, Profile.sine(0.1, 2.0))):
        data = bump_data(amp=0.4, alpha=alpha, w=w, v1=Profile.constant(-0.3))
        for kappa in (0.01, 0.15, 1e6):
            tough = Toughness.constant(kappa, rho0=1.0, R=3.0)
            ws = make_workspace(data, tough, m=8)
            g0 = ws.release_rate(np.zeros(ws.r_grid.shape), ws.straight_front(1.0))[0]
            blank = float(griffith._slope(g0, griffith.kappa_eval(tough, ws.rho0 + 1e-9)))
            assert _start_slope(ws.hd, tough) == blank


def test_strip_rows_bounds():
    # a front at rest (slope 1) leaves the last diagonal after m rows
    assert _strip_rows(1.0, m=8, L=100, rows_left=100) == 10 + 4
    assert _strip_rows(0.25, m=8, L=100, rows_left=100) == 25 + 4
    assert _strip_rows(0.25, m=8, L=20, rows_left=100) == 20
    assert _strip_rows(0.25, m=8, L=100, rows_left=3) == 3 + 4


def test_coupled_window_names_its_t_when_it_does_not_converge(monkeypatch):
    # the strip stops by prescribed's fixed_point, which reads the module's
    # iteration cap at call time; the error names the window's t, the cap,
    # the last update and the last measured factors
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, m=8)
    monkeypatch.setattr(prescribed, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError, match=r"coupled window at t = 0\.375 did not converge "
                       r"in 3 iterations \(last update \d\.\d{3}e[-+]\d\d, measured factors "
                       r"\[0\.\d+, 0\.\d+\]\)"):
        solve_coupled_window(ws, t_start=0.375)


def test_coupled_window_makes_one_cone_sum_per_iteration(monkeypatch):
    # the strip starts from its free solution, which needs no cone sum:
    # every strip cone sum belongs to a sweep of the fixed point
    cones = []
    solves = []
    cone_integrals = StripWorkspace.cone_integrals

    def counted_cone(ws, om, F):
        cones.append(1)
        return cone_integrals(ws, om, F)

    def counted_solve(ws, t_start):
        before = len(cones)
        out = solve_coupled_window(ws, t_start)
        solves.append((len(cones) - before, out[2]["iterations"]))
        return out
    monkeypatch.setattr(StripWorkspace, "cone_integrals", counted_cone)
    monkeypatch.setattr(griffith, "solve_coupled_window", counted_solve)
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.375, delta=1.0 / 64)
    assert len(solves) >= len(res.window_diagnostics) > 1
    for calls, iterations in solves:
        assert calls == iterations


# -- full runs --------------------------------------------------------------------

def test_run_frozen_front_huge_kappa():
    data = bump_data(amp=0.3, w=Profile.sine(0.1, 2.0))
    tough = Toughness.constant(1e6, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.5, delta=1.0 / 64)
    assert res.stop_reason == "horizon"
    assert res.t_star == pytest.approx(0.5)
    assert np.allclose(res.front.rho_knots, 1.0, atol=1e-10)


def test_run_zero_data_stationary():
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.0, horizon=8.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())
    tough = Toughness.constant(0.3, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.25, delta=1.0 / 64)
    assert np.allclose(res.front.rho_knots, 1.0, atol=1e-12)
    for p in res.patches:
        assert np.all(p.lattice.values == 0.0)


def test_run_supercritical_starts_moving():
    # (v0'(rho0) - v1(rho0))^2 > 2 kappa and > 2 (R - rho0) kappa
    data = bump_data(amp=0.4)
    hd = to_h_data(data)
    v0d = float(data.v0.deriv(1.0))
    kappa = v0d ** 2 / (2.0 * (3.0 - 1.0)) / 4.0
    assert v0d ** 2 > 2 * (3.0 - 1.0) * kappa
    tough = Toughness.constant(kappa, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.25, delta=1.0 / 64)
    slopes = np.diff(res.front.rho_knots) / np.diff(res.front.t_knots)
    assert slopes[0] > 0.01
    assert np.all(slopes >= 0.0) and np.all(slopes < 1.0)


def test_run_matches_rate_ode():
    # the produced slopes solve the explicit rate ODE built from the
    # independently recomputed release rate
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.2, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.375, delta=1.0 / 128)
    led = audit(res.patches, res.front, data, tough)
    assert np.all(led.mdp_gap <= 2e-3)


def test_run_kkt_residual_small():
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.375, delta=1.0 / 128)
    led = audit(res.patches, res.front, data, tough)
    kappa_scale = tough.c2
    assert float(np.max(led.kkt_residual)) <= 1e-3 * kappa_scale


def test_run_kkt_residual_second_order():
    # the scenario above under delta-refinement: each halving of delta
    # divides the maximum complementarity residual and the maximum
    # maximality gap by at least 2.8, where a first-order residual would
    # give 2
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    kkt, mdp, edp = [], [], []
    for delta in (1.0 / 64, 1.0 / 128, 1.0 / 256):
        res = run(data, tough, horizon=0.375, delta=delta)
        led = audit(res.patches, res.front, data, tough)
        kkt.append(float(np.max(led.kkt_residual)))
        mdp.append(float(np.max(led.mdp_gap)))
        edp.append(led.max_rel_edp)
    for maxima in (kkt, mdp):
        assert maxima[0] / maxima[1] >= 2.8
        assert maxima[1] / maxima[2] >= 2.8
    # the moving front's energy balance is second order: each halving
    # divides the maximum relative residual by at least 3.5, the threshold
    # of test_static_load_edp_second_order
    assert edp[0] / edp[1] >= 3.5
    assert edp[1] / edp[2] >= 3.5


def test_run_near_sonic_front_refines():
    # rim_debond's data with one toughness piece: the front runs at
    # rho' = 0.98-0.999 to a fixed stop radius (stop_margin 0.25), so the
    # rim's conditioning (G0 grows like 1/(R - rho)) stays out.  Each
    # halving of delta divides the maximum maximality gap and the maximum
    # complementarity residual relative to G0 by at least 2.2 (measured:
    # 2.3-2.4 from 1/32 to 1/64, 3.3-6.4 from 1/64 to 1/128), short of the
    # 2.8 the moving front above holds: the first coupled window's
    # residuals fall about 4 times per halving, but the second window's,
    # which hold the maxima, do not yet at these steps
    data = bump_data(amp=0.9, v1=Profile.constant(-0.8), R=2.0)
    tough = Toughness.constant(0.02, rho0=1.0, R=2.0)
    mdp, kkt = [], []
    for delta in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        res = run(data, tough, horizon=4.0, delta=delta, stop_margin=0.25)
        assert res.stop_reason == "fully_debonded"
        led = audit(res.patches, res.front, data, tough)
        assert np.min(led.rho_dot) > 0.98
        mdp.append(float(np.max(led.mdp_gap)))
        kkt.append(float(np.max(led.kkt_residual / led.G0)))
    for maxima in (mdp, kkt):
        assert maxima[0] / maxima[1] >= 2.2
        assert maxima[1] / maxima[2] >= 2.2
        assert maxima[2] <= 1e-5


def test_run_consistency_with_prescribed():
    # the run's field is the prescribed solve of its final front with the
    # windows cut at the coupled-window seams: the window loop chained over
    # that front, re-based at each cut, reproduces every patch bit for bit
    # (so the run never rewrites a knot that an earlier window solved on)
    tough = Toughness.constant(0.2, rho0=1.0, R=3.0)
    delta = 1.0 / 64
    for alpha in (0.0, 0.5):
        data = bump_data(amp=0.4, alpha=alpha)
        res = run(data, tough, horizon=0.25, delta=delta)
        assert len(res.window_diagnostics) > 1
        chain, local, row = [], to_h_data(data), 0
        for wd in res.window_diagnostics:
            if chain:
                local = _seam_data(chain[-1])
            row += wd["rows"]
            _extend(chain, local, res.front, row, delta)
        assert len(chain) == len(res.patches)
        for mine, theirs in zip(chain, res.patches):
            assert np.array_equal(mine.lattice.values, theirs.lattice.values)
            assert (mine.scale, mine.t0, mine.t1) == (theirs.scale, theirs.t0, theirs.t1)


@pytest.mark.parametrize("name, delta", [("front_kkt", 1.0 / 64), ("static_load", 1.0 / 64),
                                         ("rim_debond", 1.0 / 64), ("march", 1.0 / 64),
                                         ("march", 1.0 / 80)])
def test_recorded_wavefronts_cross_rows_as_the_final_fronts(monkeypatch, name, delta):
    # a patch records the corner wavefronts of the front it was solved on,
    # up to its end, and its seam and the audit split its rows there: on
    # every row of every patch they cross where those of the final front
    # do, bitwise, because no later window rewrites the front up to a
    # patch's end.  The runs of the three workloads, and a march whose '+'
    # corner leg reflects off the front inside the horizon, at t = 1.45
    if name == "march":
        front = FrontCurve(np.array([0.0, 0.7, 1.6]), np.array([1.0, 1.2, 1.5]), 3.0)
        patches = march(bump_data(alpha=0.5), front, horizon=1.5, delta=delta)
        legs = [(ta, kind, c) for ta, _, kind, c in corner_wavefronts(front, front.horizon)]
        assert legs[2:] == [(0.0, "+", 0.0), (pytest.approx(1.45), "-", pytest.approx(2.9))]
        assert any(p.t0 < 1.45 < p.t1 for p in patches)
    else:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench import workloads
        wl = workloads.build(name, 0, delta / workloads.build(name, 0).delta)
        res = run(wl.data, wl.tough, wl.horizon, wl.delta)
        patches, front = res.patches, res.front
        assert len(res.window_diagnostics) > 1
    final = corner_wavefronts(front, front.horizon)
    for p in patches:
        t, rho = p.t0 + p.lattice.times, p.lattice.rho_rows
        assert np.array_equal(jump_radii(p.wavefronts, t, rho), jump_radii(final, t, rho)), p.t0


def test_run_solves_each_window_once(monkeypatch):
    # the run's patches are the ones its windows solve for their seam
    # traces: no prescribed window is solved twice
    calls = []
    orig = prescribed.solve_window

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(prescribed, "solve_window", counted)
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.375, delta=1.0 / 128)
    assert len(res.window_diagnostics) > 1
    assert len(calls) == len(res.patches)
    for prev, nxt in zip(res.patches[:-1], res.patches[1:]):
        assert nxt.t0 == pytest.approx(prev.t1, abs=1e-12)
    assert res.patches[-1].t1 == pytest.approx(res.t_star, abs=1e-12)


def _partition(res):
    return [(wd["rows"], wd["m"], wd["shrinks"]) for wd in res.window_diagnostics]


def _geometric_rows(slope, m, L, rows_left):
    return L


def _assert_fronts_close(a, b):
    assert a.t_knots.shape == b.t_knots.shape
    assert np.max(np.abs(a.t_knots - b.t_knots)) <= 1e-12
    assert np.max(np.abs(a.rho_knots - b.rho_knots)) <= 1e-12


@pytest.mark.parametrize("delta", [1.0 / 64, 1.0 / 128])
def test_sized_strip_keeps_the_geometric_front(monkeypatch, delta):
    # rows more than one past the front's exit cannot move the kept front:
    # strips built to the window's horizon T give the same windows, and the
    # same front up to where the iteration stops
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    sized = run(data, tough, horizon=0.375, delta=delta)
    assert any(wd["strip_rows"] < round(wd["T"] / delta) for wd in sized.window_diagnostics)
    monkeypatch.setattr(griffith, "_strip_rows", _geometric_rows)
    full = run(data, tough, horizon=0.375, delta=delta)
    assert all(wd["strip_rows"] == round(wd["T"] / delta) for wd in full.window_diagnostics)
    assert _partition(sized) == _partition(full)
    _assert_fronts_close(sized.front, full.front)


def test_sized_strip_keeps_a_static_front_bitwise(monkeypatch):
    data = bump_data(amp=0.3, alpha=0.5, w=Profile.sine(0.1, 2.0))
    tough = Toughness.constant(1e6, rho0=1.0, R=3.0)
    delta = 1.0 / 64
    sized = run(data, tough, horizon=0.375, delta=delta)
    assert any(wd["strip_rows"] < round(wd["T"] / delta) for wd in sized.window_diagnostics)
    monkeypatch.setattr(griffith, "_strip_rows", _geometric_rows)
    full = run(data, tough, horizon=0.375, delta=delta)
    assert _partition(sized) == _partition(full)
    assert np.array_equal(sized.front.rho_knots, full.front.rho_knots)
    for a, b in zip(sized.patches, full.patches):
        assert np.array_equal(a.lattice.values, b.lattice.values)


def test_strip_too_short_is_regrown(monkeypatch):
    # a first strip of one row cannot hold the front's exit two rows below
    # its top, so every window solves once more at T and keeps that front
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    delta = 1.0 / 64
    sized = run(data, tough, horizon=0.375, delta=delta)
    monkeypatch.setattr(griffith, "_strip_rows", _geometric_rows)
    full = run(data, tough, horizon=0.375, delta=delta)
    monkeypatch.setattr(griffith, "_strip_rows", lambda slope, m, L, rows_left: 1)
    short = run(data, tough, horizon=0.375, delta=delta)
    assert all(wd["regrown"] and wd["strip_rows"] == round(wd["T"] / delta)
               for wd in short.window_diagnostics)
    assert not any(wd["regrown"] for wd in sized.window_diagnostics)
    assert _partition(short) == _partition(sized)
    assert np.array_equal(short.front.t_knots, full.front.t_knots)
    assert np.array_equal(short.front.rho_knots, full.front.rho_knots)
    _assert_fronts_close(short.front, sized.front)


@pytest.mark.parametrize("amp, v1, kappa, R", [(0.4, 0.0, 0.15, 3.0), (0.9, -0.8, 0.02, 2.0)])
def test_strip_rows_hold_the_exit(monkeypatch, amp, v1, kappa, R):
    # every accepted strip is at most T tall, and one kept without a regrow
    # below T has the front's exit from its last diagonal, or the run's last
    # row, at least two rows below its top
    accepted = {}
    orig = griffith.solve_coupled_window

    def kept(ws, t_start):
        out = orig(ws, t_start)
        accepted[round(t_start / ws.delta)] = (ws, out)
        return out
    monkeypatch.setattr(griffith, "solve_coupled_window", kept)
    delta, horizon = 1.0 / 64, 0.75
    data = bump_data(amp=amp, alpha=0.5, v1=Profile.constant(v1), R=R)
    tough = Toughness.constant(kappa, rho0=1.0, R=R)
    res = run(data, tough, horizon=horizon, delta=delta)
    n_total = round(horizon / delta)
    sized = 0
    for wd in res.window_diagnostics:
        first = round(wd["t_start"] / delta)
        ws, (h, om, _) = accepted[first]
        L = round(wd["T"] / delta)
        assert ws.L == wd["strip_rows"] <= L
        if wd["regrown"] or wd["strip_rows"] == L:
            continue
        sized += 1
        t_exit = _front_point(ws.rate_front(h, om), float(ws.s[-1]), "omega")[0]
        assert min(t_exit / delta, n_total - first) <= wd["strip_rows"] - 2 + 1e-9
    assert sized > 0


def test_run_edp_balance():
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.375, delta=1.0 / 128)
    led = audit(res.patches, res.front, data, tough)
    assert led.D_debond[-1] > 1e-4  # the front actually moved
    assert led.max_rel_edp < 1e-2


def test_run_two_piece_toughness_seam():
    # breakpoint ahead of the moving front: windows never straddle it
    data = bump_data(amp=0.5)
    tough = Toughness.from_pieces([(1.0, Profile.constant(0.05)),
                                   (1.04, Profile.constant(0.2))], R=3.0)
    res = run(data, tough, horizon=0.375, delta=1.0 / 128)
    assert float(res.front.rho(res.t_star)) > 1.04
    slopes = np.diff(res.front.rho_knots) / np.diff(res.front.t_knots)
    assert np.all(slopes >= 0.0) and np.all(slopes < 1.0)


def test_run_refuses_an_annulus_a_hair_outside_the_stop_margin():
    # R - rho0 lies in (stop_margin, stop_margin + 1e-12]: the start and the
    # loop read one debonding predicate, so the run refuses the annulus with
    # the documented ValueError instead of stopping before its first window
    R, delta = 3.0, 1.0 / 64
    rho0 = R - 2.0 * delta - 5e-13
    assert 2.0 * delta < R - rho0 <= 2.0 * delta + 1e-12
    data = ProblemData(R=R, rho0=rho0, alpha=0.0, horizon=8.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())
    tough = Toughness.constant(1.0, rho0, R)
    with pytest.raises(ValueError, match="already within the stop margin"):
        run(data, tough, horizon=0.25, delta=delta)


def test_run_refuses_a_stop_margin_below_the_step():
    # with a stop margin below one lattice step the front could come within
    # a step of the rim before it counts as debonded, and there even a
    # one-row strip would reach R: the run refuses the margin at its start,
    # naming both values.  A margin of one step keeps every strip inside
    delta = 1.0 / 64
    data = bump_data(amp=0.9, v1=Profile.constant(-0.8), R=2.0)
    tough = Toughness.constant(0.02, rho0=1.0, R=2.0)
    with pytest.raises(ValueError, match=r"^stop_margin = 0\.0078125 is below the lattice "
                       r"step delta = 0\.015625$"):
        run(data, tough, horizon=4.0, delta=delta, stop_margin=delta / 2)
    res = run(data, tough, horizon=4.0, delta=delta, stop_margin=delta)
    assert res.stop_reason == "fully_debonded"
    assert float(res.front.rho(res.t_star)) >= 2.0 - delta - 1e-12


@pytest.mark.parametrize("horizon", [0.0, -0.1])
def test_run_refuses_a_horizon_below_one_step(horizon):
    data = bump_data()
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    with pytest.raises(ValueError, match="horizon must cover at least one lattice step"):
        run(data, tough, horizon=horizon, delta=1.0 / 64)


def test_run_full_debonding_small_kappa():
    data = bump_data(amp=0.9, v1=Profile.constant(-0.8), R=2.0)
    tough = Toughness.constant(0.02, rho0=1.0, R=2.0)
    res = run(data, tough, horizon=4.0, delta=1.0 / 64)
    assert res.stop_reason == "fully_debonded"
    assert float(res.front.rho(res.t_star)) >= 2.0 - 2.0 * (1.0 / 64) - 1e-9
    assert res.t_star < 4.0


@st.composite
def toughness_pieces(draw):
    """1-3 constant pieces on [1, 2): (breakpoint, kappa) pairs."""
    n = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.floats(1.02, 1.95), min_size=n - 1, max_size=n - 1, unique=True))
    kappas = draw(st.lists(st.floats(0.01, 0.5), min_size=n, max_size=n))
    return list(zip([1.0] + sorted(cuts), kappas))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(amp=st.floats(0.0, 0.9), alpha=st.floats(0.0, 0.5), v1=st.floats(-0.8, 0.8),
       delta=st.sampled_from([1.0 / 32, 1.0 / 64]), pieces=toughness_pieces())
def test_run_invariants_on_random_data(amp, alpha, v1, delta, pieces):
    # fronts from rest to near-sonic speeds (rim_debond's data at amp 0.9,
    # v1 -0.8, kappa 0.02).  A run finishes or names the t where it failed;
    # its front is nondecreasing and subsonic, no window runs past a
    # breakpoint by more than its last row, and the patches tile [0, t*].
    # The complementarity residual stays below 0.2 of max(G0, kappa): the
    # largest ratio was 0.034 over 1,100 draws of this strategy, and 0.099
    # over 1,200 draws with log-uniform kappa (delta = 1/32); every one of
    # those runs finished.  The energy balance holds to 0.02 of the energy
    # scale (max_rel_edp): the largest was 2.7e-3 over these 25 draws and
    # 5.9e-3 over 400 undirected draws of the same strategy
    data = bump_data(R=2.0, alpha=alpha, amp=amp, v1=Profile.constant(v1))
    tough = Toughness.from_pieces([(b, Profile.constant(k)) for b, k in pieces], R=2.0)
    try:
        res = run(data, tough, horizon=0.75, delta=delta)
    except (ConvergenceError, GeometryError) as exc:
        assert re.search(r"\bt = \S", str(exc)), str(exc)
        return
    assert res.stop_reason in ("horizon", "fully_debonded")
    tk, rk = res.front.t_knots, res.front.rho_knots
    slopes = np.diff(rk) / np.diff(tk)
    assert np.all(np.diff(rk) >= 0.0) and np.all((slopes >= 0.0) & (slopes < 1.0))
    for wd in res.window_diagnostics:
        t_last = wd["t_start"] + (wd["rows"] - 1) * delta  # the window's last row starts here
        for b in tough.breakpoints[1:]:
            if float(res.front.rho(wd["t_start"])) < b - 1e-12:
                assert float(res.front.rho(t_last)) <= b + 1e-12
    p = res.patches
    assert p[0].t0 == 0.0 and p[-1].t1 == pytest.approx(res.t_star, abs=1e-12)
    assert all(a.t1 == pytest.approx(b.t0, abs=1e-12) for a, b in zip(p[:-1], p[1:]))
    led = audit(res.patches, res.front, data, tough)
    assert np.max(led.kkt_residual / np.maximum(led.G0, led.kappa_front)) <= 0.2
    assert led.max_rel_edp <= 0.02
