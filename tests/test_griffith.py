import re

import numpy as np
import pytest

from debondsim import griffith, prescribed
from debondsim.energy_audit import audit
from debondsim.fields import ProblemData, Profile, Toughness, to_h_data
from debondsim.geometry import FrontCurve, GeometryError, corner_wavefronts
from debondsim.griffith import (
    GriffithRun, StripWorkspace, _cell_cut, _front_point, _Shrink, run, solve_coupled_window,
)
from debondsim.prescribed import ConvergenceError, _extend, _seam_data, evaluate_field, march


def bump_data(R=3.0, rho0=1.0, alpha=0.0, amp=0.4, v1=None, w=None):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=8.0,
                       w=w or Profile.zero(),
                       v0=Profile.sine_bump(amp, rho0),
                       v1=v1 or Profile.zero())


def make_workspace(data, tough, T=0.25, m=16, delta=1.0 / 64):
    return StripWorkspace(to_h_data(data), tough, T, m, delta)


# -- rate law -----------------------------------------------------------------

def test_lambda_rhs_stationary_branch():
    data = bump_data(amp=0.05)
    tough = Toughness.constant(100.0, rho0=1.0, R=3.0)  # far above the rate
    ws = make_workspace(data, tough)
    lam = np.minimum(ws.s + ws.rho0, ws.T)
    h = ws.psi1(ws.blank(), lam)
    assert ws.rate_slopes(h, lam)[0] == pytest.approx(1.0)


def test_lambda_rhs_moving_branch():
    # Lam = 3 -> slope 2, synthesized through the toughness level
    data = bump_data(amp=0.4)
    hd = to_h_data(data)
    bracket = float(hd.h0_dot(1.0)) - float(hd.h1(1.0))
    g0 = bracket ** 2 / (2.0 * 2.0)
    tough = Toughness.constant(g0 / 3.0, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    lam = np.minimum(ws.s + ws.rho0, ws.T)
    h = ws.psi1(ws.blank(), lam)
    # at the left end of the strip lambda = 0: no line integral, data only
    assert ws.rate_slopes(h, lam)[0] == pytest.approx(2.0, rel=1e-9)


def test_psi2_unit_slope_for_zero_field():
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.0, horizon=8.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    lam0 = np.minimum(ws.s + ws.rho0, ws.T)
    lam = ws.psi2(ws.blank(), lam0)
    assert np.allclose(lam, np.minimum(ws.s - ws.s[0], ws.T), atol=1e-14)


def test_psi2_slope_at_least_one():
    data = bump_data(amp=0.5)
    tough = Toughness.constant(0.05, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    lam0 = np.minimum(ws.s + ws.rho0, ws.T)
    h = ws.psi1(ws.blank(), lam0)
    lam = ws.psi2(h, lam0)
    grow = np.diff(lam) / ws.delta
    capped = lam[1:] >= ws.T - 1e-12
    assert np.all(grow[~capped[0:]] >= 1.0 - 1e-12)
    assert np.all(lam <= ws.T + 1e-15)


def test_psi1_zero_data_zero_field():
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=8.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough)
    lam0 = np.minimum(ws.s + ws.rho0, ws.T)
    assert np.all(ws.psi1(ws.blank(), lam0) == 0.0)


def test_psi1_matches_prescribed_solver_on_strip():
    # with the front held at the prescribed run's shape, the strip field
    # update reproduces the full solver's field on the strip
    data = bump_data(alpha=0.8, amp=0.3)
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    delta = 1.0 / 64
    patches = march(data, front, horizon=0.25, delta=delta)
    ws = make_workspace(data, tough, T=0.25, m=12, delta=delta)
    lam = np.minimum(ws.s + ws.rho0, ws.T)  # the static front in s-form
    h = ws.psi1(ws.blank(), lam)
    for _ in range(60):
        h = ws.psi1(h, lam)
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
    h, lam, diag = solve_coupled_window(ws, M=1e3, t_start=0.0)
    assert diag["final_metric"] < 1e-10
    assert diag["measured_factor"] < 0.9
    assert lam[0] == 0.0
    assert np.all(np.diff(lam) >= -1e-15)


def test_omega_inverts_the_front_past_capped_columns():
    # with several columns capped at T, u = 2 min(lambda, T) - s turns down
    # past the first of them; omega must still map each uncapped front
    # point's eta = u_k back to s_k
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, m=12)
    _, lam, _ = solve_coupled_window(ws, M=1e3, t_start=0.0)
    free = lam < ws.T
    assert np.count_nonzero(~free) >= 2
    u = 2.0 * lam[free] - ws.s[free]
    assert np.max(np.abs(ws.omega_of(lam, u) - ws.s[free])) <= 1e-14


def test_window_stationary_for_huge_toughness():
    data = bump_data(amp=0.3)
    tough = Toughness.constant(1e6, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, m=8)
    h, lam, diag = solve_coupled_window(ws, M=1e3, t_start=0.0)
    assert np.allclose(lam, np.minimum(ws.s - ws.s[0], ws.T), atol=1e-12)


def test_front_point_lies_on_the_crossing_curve():
    # the crossing time integrates the piecewise-linear rate slope, so a cut
    # inside an uncapped cell lands on that curve, not on the cell's chord
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, T=1.0, m=12)
    h, lam, _ = solve_coupled_window(ws, M=1e3, t_start=0.0)
    slopes = ws.rate_slopes(h, lam)
    lam_raw = ws.lambda_cumulative(slopes)
    assert lam_raw[-1] < ws.T  # no capped cell

    def crossing_time(s):
        grid = np.append(ws.s[ws.s < s], s)  # exact for a linear integrand
        return float(np.trapezoid(np.interp(grid, ws.s, slopes), grid))

    for t in (0.3 * ws.delta, 2.5 * ws.delta, 0.5 * float(lam_raw[-1])):
        t_cut, s_cut = _front_point(ws, lam_raw, slopes, t)
        assert t_cut == pytest.approx(t, abs=1e-14)
        assert crossing_time(s_cut) == pytest.approx(t, abs=1e-12)
    rho_end = float(lam_raw[-1] - ws.s[-1])
    for rho in (1.0 + 0.3 * (rho_end - 1.0), 1.0 + 0.8 * (rho_end - 1.0)):
        t_cut, s_cut = _front_point(ws, lam_raw, slopes, rho, radius=True)
        assert t_cut - s_cut == pytest.approx(rho, abs=1e-14)
        assert crossing_time(s_cut) == pytest.approx(t_cut, abs=1e-12)


def test_front_point_cuts_the_capped_cell_on_its_chord():
    # past the last column crossing below the horizon T the front ends at
    # the quadratic T-cut of the next cell; that cell is capped (its far
    # column's slope was taken at T, behind the front), so a cut inside it,
    # by time or by radius, lands on the chord between those two points
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, m=12)
    h, lam, _ = solve_coupled_window(ws, M=1e3, t_start=0.0)
    slopes = ws.rate_slopes(h, lam)
    lam_raw = ws.lambda_cumulative(slopes)
    n = int(np.count_nonzero(lam_raw <= ws.T))
    assert 0 < n < len(lam_raw) and lam_raw[n - 1] < ws.T - 1e-13  # a capped cell
    t_a, s_a = float(lam_raw[n - 1]), float(ws.s[n - 1])
    t_b, s_b = _front_point(ws, lam_raw, slopes, ws.T)
    assert t_b == ws.T and s_a < s_b < ws.s[n]

    for w in (0.2, 0.5, 0.9):
        chord = (t_a + w * (t_b - t_a), s_a + w * (s_b - s_a))
        t_cut, s_cut = _front_point(ws, lam_raw, slopes, chord[0])
        assert t_cut == pytest.approx(chord[0], abs=1e-14)
        assert s_cut == pytest.approx(chord[1], abs=1e-14)
        # the capped cell's quadratic would put the cut elsewhere
        assert abs(_cell_cut(ws, lam_raw, slopes, n, chord[0])[1] - s_cut) > 1e-7
        t_cut, s_cut = _front_point(ws, lam_raw, slopes, chord[0] - chord[1], radius=True)
        assert t_cut == pytest.approx(chord[0], abs=1e-14)
        assert s_cut == pytest.approx(chord[1], abs=1e-14)


def test_coupled_window_names_its_t_when_it_does_not_converge(monkeypatch):
    # griffith binds its own name for the iteration cap of prescribed
    # (``from .prescribed import _MAX_ITER``), and that is the name it reads
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.1, rho0=1.0, R=3.0)
    ws = make_workspace(data, tough, m=8)
    monkeypatch.setattr(griffith, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError, match=r"coupled window at t = 0\.375 did not converge "
                       r"\(last metric \d\.\d{3}e[-+]\d\d, factors \[.+\]\)"):
        solve_coupled_window(ws, M=1e3, t_start=0.375)


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
        wf = corner_wavefronts(res.front, res.front.horizon)
        chain, local, row = [], to_h_data(data), 0
        for wd in res.window_diagnostics:
            if chain:
                local = _seam_data(chain[-1], wf)
            row += wd["rows"]
            _extend(chain, local, res.front, row, delta)
        assert len(chain) == len(res.patches)
        for mine, theirs in zip(chain, res.patches):
            assert np.array_equal(mine.lattice.values, theirs.lattice.values)
            assert (mine.scale, mine.t0, mine.t1) == (theirs.scale, theirs.t0, theirs.t1)


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


def test_run_names_its_t_when_the_strip_width_underflows(monkeypatch):
    # past the first window every strip reports a contraction factor too
    # large, so the width halves below one lattice step; the error names
    # that window's t and the bound that failed
    orig = griffith.solve_coupled_window
    starts = []

    def shrinks_after_the_first(ws, M, t_start):
        starts.append(t_start)
        if t_start > 0.0:
            raise _Shrink("measured contraction factor >= 0.9")
        return orig(ws, M, t_start)
    monkeypatch.setattr(griffith, "solve_coupled_window", shrinks_after_the_first)
    data = bump_data(amp=0.4)
    tough = Toughness.constant(0.2, rho0=1.0, R=3.0)
    with pytest.raises(ConvergenceError) as info:
        run(data, tough, horizon=0.375, delta=1.0 / 64)
    assert starts[-1] > 0.0 and len(set(starts)) == 2
    assert str(info.value) == (f"strip width underflow below the lattice step at "
                               f"t = {starts[-1]:.6g}: measured contraction factor >= 0.9")


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


def test_run_names_its_t_when_the_strip_reaches_the_rim():
    # with a stop margin below one lattice step the front gets within a
    # step of the rim before it counts as debonded, and there even a
    # one-row strip reaches R; the error names the window's t, the strip's
    # outer radius and R
    data = bump_data(amp=0.9, v1=Profile.constant(-0.8), R=2.0)
    tough = Toughness.constant(0.02, rho0=1.0, R=2.0)
    delta = 1.0 / 64
    with pytest.raises(GeometryError) as info:
        run(data, tough, horizon=4.0, delta=delta, stop_margin=delta / 2)
    m = re.fullmatch(r"strip reaches the rim radius: window at t = (\S+), "
                     r"outer radius rho \+ T = (\S+) >= R = (\S+)", str(info.value))
    assert m is not None, str(info.value)
    t, outer, R = (float(g) for g in m.groups())
    assert R == 2.0
    assert 0.0 < t < 4.0 and t / delta == pytest.approx(round(t / delta), abs=1e-4)
    # a one-row strip from a front not yet within the stop margin
    assert R <= outer < R + delta / 2 + 1e-6


def test_run_full_debonding_small_kappa():
    data = bump_data(amp=0.9, v1=Profile.constant(-0.8), R=2.0)
    tough = Toughness.constant(0.02, rho0=1.0, R=2.0)
    res = run(data, tough, horizon=4.0, delta=1.0 / 64)
    assert res.stop_reason == "fully_debonded"
    assert float(res.front.rho(res.t_star)) >= 2.0 - 2.0 * (1.0 / 64) - 1e-9
    assert res.t_star < 4.0
