import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debondsim import dalembert, geometry, prescribed
from debondsim.fields import HData, ProblemData, Profile, Toughness, kappa_eval, to_h_data
from debondsim.geometry import FrontCurve, GeometryError, corner_wavefronts
from debondsim.griffith import run
from debondsim.prescribed import (
    ConvergenceError, _Workspace, apply_L,
    certified_step, contraction_bound, evaluate_field, march, plan_windows,
    solve_window,
)


def make_data(R=3.0, rho0=1.0, alpha=0.0, amp=0.4, w=None, v1=None):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=4.0,
                       w=w or Profile.zero(),
                       v0=Profile.sine_bump(amp, rho0),
                       v1=v1 or Profile.zero())


def zero_data(R=3.0, rho0=1.0, alpha=0.0):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=4.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())


# -- planning ---------------------------------------------------------------

def test_first_window_length():
    assert certified_step(1.0) == pytest.approx(0.25)
    # near the rim the cap stays a quarter of the radius and the time-slice
    # bound sets the window: at alpha = 0 it is (-ln(1 - x) - x)/4 with
    # x = T/(R - rho_k), at most 1/2 while x <= 0.94753, here T <= 0.18951,
    # which floors to 48 rows of 1/256
    assert certified_step(2.8) == pytest.approx(0.7)
    front = FrontCurve.constant(2.8, 1.0, 3.0)
    assert plan_windows(front, 0.0, 0, 256, 1.0 / 256)[0].nt == 48


def test_window_shrinks_with_damping():
    # at large alpha the cone-area bound T^2/8 * alpha^2 <= 1/2 sets the
    # length, which scales ~ 1/alpha
    front = FrontCurve.constant(1.0, 1.0, 3.0)
    lengths = [plan_windows(front, alpha, 0, 256, 1.0 / 1024)[0].length
               for alpha in (10.0, 20.0, 40.0)]
    assert lengths[0] == pytest.approx(2.0 / 10.0, rel=0.03)
    assert lengths[1] / lengths[0] == pytest.approx(0.5, rel=0.05)
    assert lengths[2] / lengths[1] == pytest.approx(0.5, rel=0.05)


def test_plan_covers_horizon():
    front = FrontCurve.affine(1.0, 0.3, 3.0, 3.0)
    plans = plan_windows(front, 0.0, 0, 64, delta=1.0 / 64)
    assert plans[0].t_start == 0.0
    assert plans[-1].t_end == pytest.approx(1.0)
    for a, b in zip(plans[:-1], plans[1:]):
        assert b.t_start == pytest.approx(a.t_end)
    assert plans[0].t_end == pytest.approx(0.25)  # certified first step


def test_short_horizon_truncates():
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    plans = plan_windows(front, 0.0, 0, 8, delta=1.0 / 64)
    assert len(plans) == 1 and plans[0].t_end == pytest.approx(0.125)


def test_errors_name_where_they_happened():
    # the toughness names the first radius outside its interval and both ends
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    with pytest.raises(ValueError, match=r"outside \[rho0, R\): r = 0\.5 is outside \[1, 3\)"):
        kappa_eval(tough, np.array([1.5, 0.5, 3.5]))
    with pytest.raises(ValueError, match=r"r = 3 is outside \[1, 3\)"):
        kappa_eval(tough, 3.0)
    # a front just over a lattice step from the rim: the one-row bound is
    # finite but at least 0.999, which at alpha = 0 takes
    # delta < R - rho <= 1.0069 delta (here 1.0048 delta), so no window
    # contracts
    front = FrontCurve.constant(2.9843, 1.0, 3.0)
    with pytest.raises(ConvergenceError, match=r"no certified window at t = 0\.5: the front at "
                       r"rho = 2\.9843 is too close to the rim R = 3 \(one-row bound 1\.087\d* "
                       r">= 0\.999\)"):
        plan_windows(front, 0.0, 32, 64, delta=1.0 / 64)


def _cone_area_bound(rho_k, R, alpha, T):
    """The former certificate: the kernel's largest value in the window
    times the whole cone area, T^2/8 * (alpha^2 + 1/(R - rho_k - T)^2)."""
    if rho_k + T >= R:
        return np.inf
    return 0.125 * T * T * (alpha * alpha + 1.0 / (R - rho_k - T) ** 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(R=st.floats(1.0, 3.0), frac=st.floats(0.0, 0.9999), alpha=st.floats(0.0, 40.0),
       rows=st.integers(1, 512), k=st.integers(6, 12))
def test_contraction_bound_properties(R, frac, alpha, rows, k):
    # on windows of whole rows of 2^-k: nondecreasing in the length, as the
    # planner's bisection needs, never above the cone-area bound (to
    # rounding), and +inf exactly when the window reaches the rim
    delta = 2.0 ** -k
    rho_k, T = frac * R, rows * delta
    q = contraction_bound(rho_k, R, alpha, T)
    assert q <= contraction_bound(rho_k, R, alpha, T + delta)
    assert (q == np.inf) == (T >= R - rho_k)
    assert q <= _cone_area_bound(rho_k, R, alpha, T) * (1 + 1e-12)


def _old_first_window_rows(rho_k, R, alpha, rows, delta):
    """Rows of the first window under the former rule: the strip estimate's
    step (half the min of rho_k/2, (R-rho_k)/2 and the kernel term), halved
    while its bound is not below 0.999."""
    kern_term = (4.0 / rho_k) / (alpha * alpha + 4.0 / (R - rho_k) ** 2)
    step = 0.5 * min(0.5 * rho_k, 0.5 * (R - rho_k), kern_term)
    steps = max(1, min(int(math.floor(step / delta + 1e-9)), rows))
    while steps > 1 and contraction_bound(rho_k, R, alpha, steps * delta) >= 0.999:
        steps //= 2
    return steps


PLANNER_GRID = [(rho_k, R, alpha, delta)
                for R in (2.0, 3.0)
                for rho_k in (0.3, 1.0, R - 1.0, R - 0.5, R - 0.2, R - 0.05)
                for alpha in (0.0, 0.5, 2.0, 10.0)
                for delta in (1.0 / 64, 1.0 / 256)]


def test_planned_windows_never_shorter_than_the_strip_rule():
    for rho_k, R, alpha, delta in PLANNER_GRID:
        front = FrontCurve.constant(rho_k, 1.0, R)
        plan = plan_windows(front, alpha, 0, 64, delta)[0]
        assert plan.nt >= _old_first_window_rows(rho_k, R, alpha, 64, delta), \
            (rho_k, R, alpha, delta)


def test_planned_windows_are_the_longest_bounded_by_one_half():
    # every window of more than one row has a bound of at most 1/2, and one
    # row more would pass the centre cap, the rows left or that bound; near
    # the rim the centre cap no longer binds
    for rho_k, R, alpha, delta in PLANNER_GRID:
        speed = min(0.9, (R - rho_k - 2 * delta) / 0.5)
        front = FrontCurve.affine(rho_k, speed, 0.5, R)
        i1 = int(0.5 / delta)
        for plan in plan_windows(front, alpha, 0, i1, delta):
            rho = float(front.rho(plan.t_start))
            rows_left = i1 - int(round(plan.t_start / delta))
            cap = int(math.floor(certified_step(rho) / delta + 1e-9))
            q = contraction_bound(rho, R, alpha, plan.nt * delta)
            assert plan.contraction_bound == q
            if plan.nt > 1:
                assert q <= 0.5, (rho_k, R, alpha, delta)
            if plan.nt < min(cap, rows_left):
                longer = (plan.nt + 1) * delta
                assert contraction_bound(rho, R, alpha, longer) > 0.5, (rho_k, R, alpha, delta)


def test_window_count_grows_like_log_of_rim_distance():
    # a near-sonic front that runs to 2 delta of the rim: windows shrink
    # geometrically towards the rim, so each halving of delta adds a few
    counts = []
    for delta in (1.0 / 128, 1.0 / 256, 1.0 / 512):
        horizon = (1.0 - 2 * delta) / 0.99
        front = FrontCurve.affine(1.0, 0.99, horizon, 2.0)
        counts.append(len(plan_windows(front, 0.0, 0, int(horizon / delta), delta)))
    assert all(b - a <= 4 for a, b in zip(counts[:-1], counts[1:])), counts


# -- the window operator ------------------------------------------------------

def test_apply_L_zero():
    hd = to_h_data(zero_data())
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    plan = plan_windows(front, 0.0, 0, 8, delta=1.0 / 32)[0]
    ws = _Workspace(hd, front.window(0.0, 0.25), plan)
    out = apply_L(np.zeros(ws.lattice.inside.shape), ws)
    assert np.all(out == 0.0)


def test_measured_contraction_below_bound():
    # sup-norm factor over random pairs sharing boundary data; the last
    # perturbation has one sign, so the cone integrals cannot cancel
    cases = [  # rho0, alpha, delta, planned rows, the bound sets the rows
        (1.0, 1.0, 1.0 / 32, 8, False),  # the centre cap and the rows left set them
        (2.8, 0.0, 1.0 / 256, 48, True),  # near the rim
        (1.0, 10.0, 1.0 / 64, 12, True),  # strong damping
    ]
    for rho0, alpha, delta, rows, by_bound in cases:
        hd = to_h_data(make_data(rho0=rho0, alpha=alpha))
        front = FrontCurve.affine(rho0, 0.25, 0.25, 3.0)
        plan = plan_windows(front, alpha, 0, int(0.25 / delta), delta)[0]
        assert plan.nt == rows
        longer = contraction_bound(rho0, 3.0, alpha, plan.length + delta)
        assert (longer > 0.5) == by_bound
        ws = _Workspace(hd, front.window(plan.t_start, plan.t_end), plan)
        rng = np.random.default_rng(17)
        shape = ws.lattice.inside.shape
        for k in range(20):
            d12 = rng.normal(size=shape) if k < 19 else np.ones(shape)
            d12[0, :] = 0.0
            d12[:, 0] = 0.0
            d12 = ws.lattice.masked(d12)
            h1 = ws.free_grid + d12
            h2 = ws.free_grid
            out = apply_L(h1, ws) - apply_L(h2, ws)
            num = float(np.max(np.abs(out)))
            den = float(np.max(np.abs(d12)))
            assert num <= plan.contraction_bound * den * (1 + 1e-10), (rho0, alpha)


@pytest.mark.parametrize("name", ["front_kkt", "static_load", "rim_debond"])
def test_certified_bound_holds_on_every_workload_window(name, monkeypatch):
    # the certificate against the window operator applied to all-ones (a
    # lower bound on its sup norm) on every patch of the benchmark's
    # workloads at 2, 1 and 1/2 times their step, to rounding: the alpha^2
    # term alone is tight (0.4404 against 0.4406 at alpha = 10)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    for scale in (2.0, 1.0, 0.5):
        wl = workloads.build(name, 0, scale)
        patches = run(wl.data, wl.tough, wl.horizon, wl.delta).patches
        for p in patches:
            ws = _Workspace(p.hdata, p.lattice.front, p.window)
            ones = ws.lattice.masked(np.ones(ws.lattice.inside.shape))
            measured = float(np.max(np.abs(apply_L(ones, ws) - ws.free_grid)))
            assert measured <= p.window.contraction_bound * (1 + 1e-10), (scale, p.t0)


def test_solve_window_zero_data_immediate():
    hd = to_h_data(zero_data())
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    plan = plan_windows(front, 0.0, 0, 8, delta=1.0 / 32)[0]
    patch = solve_window(hd, front, plan)
    assert patch.diagnostics["iterations"] == 1
    assert np.all(patch.lattice.values == 0.0)


def test_solve_window_fixed_point_residual():
    hd = to_h_data(make_data(alpha=1.0))
    front = FrontCurve.affine(1.0, 0.2, 3.0, 3.0)
    plan = plan_windows(front, 0.0, 0, 64, delta=1.0 / 64)[0]
    tol = prescribed._TOL
    patch = solve_window(hd, front, plan)
    ws = _Workspace(hd, front.window(plan.t_start, plan.t_end), plan)
    again = apply_L(patch.lattice.values, ws)
    residual = float(np.max(np.abs(again - patch.lattice.values)))
    assert residual <= 10 * tol


def test_iteration_count_geometric_bound():
    hd = to_h_data(make_data(alpha=1.0))
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    plan = plan_windows(front, 0.0, 0, 64, delta=1.0 / 64)[0]
    tol = prescribed._TOL
    patch = solve_window(hd, front, plan)
    q = plan.contraction_bound
    bound = math.ceil(math.log(tol) / math.log(q)) + 2
    assert patch.diagnostics["iterations"] <= bound
    assert patch.diagnostics["measured_factor"] <= q * (1 + 1e-6)


def test_solve_window_names_its_t_when_it_does_not_converge(monkeypatch):
    # solve_window stops by fixed_point, which reads the module's iteration
    # cap at call time: two sweeps do not reach the tolerance, and the error
    # names the window's start, the cap, the last update and the measured factor
    hd = to_h_data(make_data(alpha=1.0))
    front = FrontCurve.affine(1.0, 0.2, 3.0, 3.0)
    plan = plan_windows(front, 0.0, 0, 64, delta=1.0 / 64)[0]
    monkeypatch.setattr(prescribed, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match=r"window at t = 0 did not converge in 2 "
                       r"iterations \(last update \d\.\d{3}e-\d\d, measured factors \[0\.\d+\]\)"):
        solve_window(hd, front, plan)


def test_large_radius_free_limit():
    # kernel ~ 1/R^2: the solution collapses onto the free solution
    data = ProblemData(R=1000.0, rho0=1.0, alpha=0.0, horizon=1.0,
                       w=Profile.zero(), v0=Profile.sine_bump(0.1, 1.0),
                       v1=Profile.zero())
    hd = to_h_data(data)
    front = FrontCurve.constant(1.0, 2.0, 1000.0)
    plan = plan_windows(front, 0.0, 0, 8, delta=1.0 / 32)[0]
    patch = solve_window(hd, front, plan)
    ws = _Workspace(hd, front.window(0.0, 0.25), plan)
    assert float(np.max(np.abs(patch.lattice.values - ws.free_grid))) < 1e-6


def test_zeroed_kernel_reproduces_free_solution_exactly():
    hd = to_h_data(make_data(alpha=1.0))
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    plan = plan_windows(front, 0.0, 0, 8, delta=1.0 / 32)[0]
    ws = _Workspace(hd, front.window(0.0, 0.25), plan)
    ws.kern = np.zeros_like(ws.kern)
    out = apply_L(ws.free_grid, ws)
    assert np.allclose(out, ws.free_grid, atol=1e-15)


def test_every_patch_is_exactly_zero_outside_the_domain():
    # apply_L masks nothing: the cone plan zeroes its sums outside, the free
    # grid is 0 there and column 0 is inside, so every Picard iterate, and
    # with it the kernel field, is +0.0 beyond the front, in a coupled run
    # (one strip front per window) and in a march on a curved front
    data = make_data(alpha=0.5)
    coupled = run(data, Toughness.constant(0.15, rho0=1.0, R=3.0), 0.5, delta=1.0 / 64)
    t = np.linspace(0.0, 0.75, 25)
    curve = FrontCurve(t, 1.0 + 0.3 * t + 0.4 * t * t, 3.0)
    marched = march(data, curve, 0.75, delta=1.0 / 64)
    assert len(coupled.patches) > 2 and len(marched) > 2
    for patch in coupled.patches + marched:
        outside = ~patch.lattice.inside
        assert outside.any()
        for field in (patch.lattice.values, patch.F):
            assert np.all(field[outside] == 0.0) and not np.signbit(field[outside]).any()


def counting(fn, tally, key):
    """fn, adding the number of arguments of each call to tally[key]."""
    def call(x):
        tally[key] = tally.get(key, 0) + np.size(x)
        return fn(x)
    return call


def counting_branch(fn, tally, key):
    """A traveling-wave branch fn(hd, s, ...), adding the number of its
    arguments s to tally[key]."""
    def call(hd, s, *front):
        tally[key] = tally.get(key, 0) + np.size(s)
        return fn(hd, s, *front)
    return call


def test_free_layer_cost_scales_with_characteristics(monkeypatch):
    # the free grid evaluates the data profiles once per characteristic of
    # the window lattice, not once per node; the node traces evaluate the
    # branch derivatives once per characteristic of the block of their rows
    hd = to_h_data(make_data(alpha=0.5, w=Profile.sine(0.1, 2.0)))
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    delta = 1.0 / 64
    plan = plan_windows(front, hd.alpha, 0, 64, delta)[0]
    tally = {}
    counted = HData(
        R=hd.R, rho0=hd.rho0, alpha=hd.alpha,
        z=Profile(counting(hd.z, tally, "z"), deriv=hd.z.deriv),
        h0=Profile(counting(hd.h0, tally, "h0"), deriv=hd.h0.deriv, domain=hd.h0.domain),
        h1=Profile(hd.h1, cumint=counting(hd.h1.cumint, tally, "H1"), domain=hd.h1.domain))
    tally.clear()
    patch = solve_window(counted, front, plan)
    lat = patch.lattice
    lines = lat.nt + lat.j_ext + 1
    assert lat.nt == 16 and 4 * lines < (lat.nt + 1) * (lat.j_ext + 1) / 3
    assert set(tally) == {"z", "h0", "H1"}
    assert all(n <= 2 * lines for n in tally.values()), (tally, lines)

    # the rows 0..16 as one block, plus off-node points: a bank beside a
    # node on each of five rows and the front point of each of those rows;
    # each point takes the branches at its own t + r and t - r
    rows = np.array([0, 3, 8, 12, 16])
    t = np.concatenate((rows * delta, rows * delta))
    r = np.concatenate((np.full(len(rows), 0.3 + 1e-9), lat.rho_rows[rows]))
    tally.clear()
    for name in ("df_plus", "df_minus"):
        branch = counting_branch(getattr(dalembert, name), tally, name)
        monkeypatch.setattr(dalembert, name, branch)
    (h, _, _), _ = patch.row_traces(np.arange(17), t, r)
    lo, hi, J = lat.row_block(0, 16)
    assert (lo, hi) == (0, 16) and h.shape == (17, J + 1)
    assert hi - lo + J + 1 < h.size / 10
    assert tally["df_plus"] == tally["df_minus"] == hi - lo + J + 1 + t.size


# -- marching -----------------------------------------------------------------

def test_march_single_window_matches_solve_window():
    hd = to_h_data(make_data())
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(make_data(), front, horizon=0.25, delta=1.0 / 32)
    plan = plan_windows(front, 0.0, 0, 8, delta=1.0 / 32)[0]
    direct = solve_window(hd, front, plan)
    assert len(patches) == 1
    assert np.allclose(patches[0].lattice.values, direct.lattice.values, atol=1e-14)


def test_march_zero_data_stays_zero():
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(zero_data(), front, horizon=0.5, delta=1.0 / 32)
    assert len(patches) >= 2
    for p in patches:
        assert np.all(p.lattice.values == 0.0)


def test_march_seam_continuity():
    tol = prescribed._TOL
    data = make_data(alpha=1.0, amp=0.5,
                     w=Profile.sine(0.2, 2.0), v1=Profile.constant(0.3))
    front = FrontCurve.affine(1.0, 0.3, 3.0, 3.0)
    patches = march(data, front, horizon=0.5, delta=1.0 / 64)
    assert len(patches) >= 2
    for a, b in zip(patches[:-1], patches[1:]):
        seam_cols = min(a.lattice.j_ext, b.lattice.j_ext) + 1
        va = a.scale * a.lattice.values[-1, :seam_cols]
        vb = b.scale * b.lattice.values[0, :seam_cols]
        jump = float(np.max(np.abs(va - vb)))
        assert jump < 2 * tol


def test_solve_report_shape():
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(make_data(), front, horizon=0.5, delta=1.0 / 32)
    windows = [p.diagnostics for p in patches]
    assert all(w["contraction_bound"] < 1 for w in windows)
    assert all(w["measured_factor"] <= w["contraction_bound"] * (1 + 1e-6)
               for w in windows)


@st.composite
def march_inputs(draw):
    """An admissible front of 1-6 segments (steps in [0.05, 0.2], slopes in
    [0, 0.9], rho0 in [0.5, 2.7], R = 3), a damping alpha in [0, 10] and a
    sine-bump amplitude.  Slopes are scaled down where the front would
    otherwise come within 1/16 (two rows) of the rim."""
    n = draw(st.integers(1, 6))
    dts = np.array(draw(st.lists(st.floats(0.05, 0.2), min_size=n, max_size=n)))
    slopes = np.array(draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n)))
    rho0 = draw(st.floats(0.5, 2.7))
    rise = float(np.sum(slopes * dts))
    room = 3.0 - 1.0 / 16 - rho0
    if rise > room:
        slopes *= room / rise
    ts = np.concatenate(([0.0], np.cumsum(dts)))
    rhos = rho0 + np.concatenate(([0.0], np.cumsum(slopes * dts)))
    data = ProblemData(R=3.0, rho0=rho0, alpha=draw(st.floats(0.0, 10.0)), horizon=4.0,
                       w=Profile.zero(), v0=Profile.sine_bump(draw(st.floats(-1.0, 1.0)), rho0),
                       v1=Profile.zero())
    return data, FrontCurve(ts, rhos, 3.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(inputs=march_inputs())
def test_march_tiles_random_fronts(inputs):
    # on admissible input the certified plan always solves: the patches tile
    # [0, horizon], the weight scale composes across seams, and no window
    # contracts slower than its certified bound
    data, front = inputs
    delta = 1.0 / 32
    horizon = math.floor(front.horizon / delta) * delta
    patches = march(data, front, horizon=horizon, delta=delta)
    assert patches[0].t0 == 0.0 and patches[0].scale == 1.0
    assert patches[-1].t1 == horizon
    for prev, nxt in zip(patches[:-1], patches[1:]):
        assert nxt.t0 == prev.t1
        assert nxt.scale == prev.scale * math.exp(0.5 * data.alpha * prev.window.length)
    for p in patches:
        assert p.diagnostics["measured_factor"] <= p.diagnostics["contraction_bound"] * (1 + 1e-6)


# -- evaluation ---------------------------------------------------------------

def test_evaluate_initial_data():
    data = make_data(alpha=0.8, v1=Profile.constant(0.2))
    hd = to_h_data(data)
    front = FrontCurve.affine(1.0, 0.2, 3.0, 3.0)
    patches = march(data, front, horizon=0.25, delta=1.0 / 64)
    for r in (0.15625, 0.5, 0.84375):
        s = evaluate_field(patches, 0.0, r)
        assert s.h == pytest.approx(float(hd.h0(r)), abs=1e-12)
        assert s.h_t == pytest.approx(float(hd.h1(r)), abs=1e-12)
        assert s.h_r == pytest.approx(float(hd.h0.deriv(r)), abs=1e-12)
        assert s.v == pytest.approx(float(data.v0(r)), abs=1e-12)
        assert s.v_t == pytest.approx(float(data.v1(r)), abs=1e-12)


def test_evaluate_front_value_zero():
    data = make_data()
    front = FrontCurve.affine(1.0, 0.25, 3.0, 3.0)
    patches = march(data, front, horizon=0.25, delta=1.0 / 64)
    for t in (0.1, 0.2):
        s = evaluate_field(patches, t, float(front.rho(t)))
        assert abs(s.h) < 1e-10
        assert abs(s.v) < 1e-10


def test_evaluate_outside_raises():
    data = make_data()
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(data, front, horizon=0.25, delta=1.0 / 32)
    with pytest.raises(GeometryError, match=r"\(t, r\) = \(0\.1, 1\.5\).*\[0, 1\]"):
        evaluate_field(patches, 0.1, 1.5)
    with pytest.raises(GeometryError, match=r"time 0\.9 .*\[0, 0\.25\]"):
        evaluate_field(patches, 0.9, 0.5)
    # before the first window the patch search stops at once
    with pytest.raises(GeometryError,
                       match=r"time -0\.1 is outside the solved windows \[0, 0\.25\]"):
        evaluate_field(patches, -0.1, 0.5)
    with pytest.raises(GeometryError, match=r"\(t, r\) = \(0\.1, -0\.1\).*\[0, 1\]"):
        evaluate_field(patches, 0.1, -0.1)


def seam_row(patch, wavefronts):
    """The end row's time, its nodes' radii and the radii of its banks
    (lead banks, then tail banks), as the seam traces them."""
    lat = patch.lattice
    seg = patch.row_segments([lat.nt], wavefronts)
    nodes = np.arange(seg.j_in[0] + 1) * lat.delta
    return lat.nt * lat.delta, nodes, np.concatenate((seg.lo[seg.lead], seg.hi[seg.tail]))


def test_trace_points_are_checked_and_located_once(monkeypatch):
    # row_traces is the one check of a trace point: on a seam row as the
    # block (its nodes, reflected ones past t + r = rho0 included) and its
    # banks of both corner wavefronts and front point as points, it
    # evaluates the window front once; the segments read the lattice's rows
    # instead of the front, so the seam evaluates it once too
    data = make_data(alpha=0.5, v1=Profile.constant(0.2))
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    patch = march(data, front, horizon=0.25, delta=1.0 / 64)[0]
    lat = patch.lattice
    wavefronts = corner_wavefronts(front, 0.5)
    t, nodes, banks = seam_row(patch, wavefronts)
    assert lat.nt == 16 and lat.nt + nodes.size - 1 > 64 and banks.size >= 5
    calls = []

    def counted(*args, _fn=FrontCurve.rho):
        calls.append("rho")
        return _fn(*args)
    monkeypatch.setattr(FrontCurve, "rho", counted)

    assert np.array_equal(seam_row(patch, wavefronts)[2], banks)
    assert calls == []
    patch.row_traces([lat.nt], t, banks)
    assert calls == ["rho"]
    calls.clear()
    prescribed._seam_data(patch, wavefronts)
    assert calls == ["rho"]


def test_one_range_check_per_trace_call(monkeypatch):
    # row_traces checks its points once; the front maps that the kernels
    # read at those points (omega, psi^-1 and omega' in phi_time_trace and
    # in the free layer's reflected branch) check nothing again, so a call
    # on a row block and, as points, on nodes, reflected nodes, banks and
    # the front point of a moving front runs one range check: the time
    # check of its FrontCurve.rho call
    data = make_data(alpha=0.5, v1=Profile.constant(0.2))
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    patch = march(data, front, horizon=0.25, delta=1.0 / 64)[0]
    lat = patch.lattice
    t, nodes, banks = seam_row(patch, corner_wavefronts(front, 0.5))
    assert lat.nt + nodes.size - 1 > 64 and banks.size >= 5
    assert banks.max() == lat.rho_rows[-1] > nodes[-1]
    checks = []

    def counted(what, *args, _fn=geometry._check_range):
        checks.append(what)
        return _fn(what, *args)
    monkeypatch.setattr(geometry, "_check_range", counted)
    patch.row_traces([lat.nt], t, np.concatenate((nodes, banks)))
    assert checks == ["time"]

    # omega' is defined for every argument and checks none: past psi's range
    # it takes the end segments' slopes, and 0 on the flat branch
    local = lat.front
    pk = local.psi_knots
    s = np.concatenate((np.linspace(pk[0] - 2.0, pk[-1] + 2.0, 101),
                        [-1e6, 0.0, local.rho0, pk[-1], 1e6]))
    checks.clear()
    got = local.omega_dot(s)
    assert checks == [] and got.shape == s.shape
    rd = local.rho_dot(local.psi_inverse(np.clip(s, pk[0], pk[-1])))
    assert np.array_equal(got, np.where(s < local.rho0, 0.0, (1.0 - rd) / (1.0 + rd)))
    for x in (-1e6, pk[-1] + 0.5, 1e6):
        assert np.isfinite(local.omega_dot(x))


def test_trace_rows_must_be_consecutive_lattice_rows():
    # the rows of a trace call are one block of consecutive rows in 0..nt:
    # a gap, rows past the last one and negative rows name the rows and the
    # bound; no rows at all is the points-only call of local_traces
    patch = march(make_data(), FrontCurve.affine(1.0, 0.3, 2.0, 3.0), horizon=0.25,
                  delta=1.0 / 64)[0]
    assert patch.lattice.nt == 16
    none = np.empty(0)
    for rows, named in (([0, 2], r"\[0, 2\]"), ([15, 16, 17, 18], r"\[15, 16, 17, 18\]"),
                        ([-1, 0], r"\[-1, 0\]"), ([3, 2], r"\[3, 2\]")):
        with pytest.raises(GeometryError, match=rf"consecutive rows of 0\.\.16: got {named}"):
            patch.row_traces(rows, none, none)
    block, points = patch.row_traces((), 0.125, np.array([0.0, 0.5]))
    assert all(b.shape == (0, 0) for b in block) and all(p.shape == (2,) for p in points)
    assert patch.row_traces([16], none, none)[0][0].shape == (1, patch.lattice.row_block(16, 16)[2] + 1)


@pytest.mark.parametrize("delta, rel", [(1.0 / 64, 1e-15), (1.0 / 128, 1e-15), (1.0 / 100, 1e-13)])
def test_block_rows_match_local_traces_at_their_nodes(delta, rel):
    # a row of a row_traces block and local_traces at the same nodes, as
    # points: the block reads the diagonal cumulatives, the points the line
    # kernel, which sums the same trapezoid cells in another order.  Every
    # patch of a two-window march on a two-piece front, its first, middle
    # and end rows (the seam's), reflected nodes and the front included.  h
    # is the node value on both paths, bitwise where delta is a power of two
    data = make_data(alpha=0.5, w=Profile.sine(0.1, 2.0), v1=Profile.constant(0.2))
    front = FrontCurve(np.array([0.0, 0.2, 0.5]), np.array([1.0, 1.06, 1.11]), 3.0)
    patches = march(data, front, horizon=0.5, delta=delta)
    assert len(patches) == 2
    none = np.empty(0)
    for p in patches:
        lat = p.lattice
        for row in (0, lat.nt // 2, lat.nt):
            block, _ = p.row_traces([row], none, none)
            J = block[0].shape[1] - 1
            assert row == 0 or (row + J) * delta > lat.front.rho0  # reflected nodes
            points = p.local_traces(np.full(J + 1, row * delta), np.arange(J + 1) * delta)
            for b, q in zip(block, points):
                assert np.max(np.abs(b[0] - q)) <= rel * np.max(np.abs(b[0])), (p.t0, row)
            if delta in (1.0 / 64, 1.0 / 128):
                assert np.array_equal(block[0][0], points[0])


@pytest.mark.parametrize("front", [FrontCurve.affine(1.0, 0.3, 2.0, 3.0),
                                   FrontCurve.constant(1.0, 2.0, 3.0)])
def test_seam_knots_are_the_row_nodes_and_banks(monkeypatch, front):
    # the seam samples its end row at every node (the row traced as a
    # block) and at the banks of its segments (traced as points), merged by
    # radius: strictly increasing, with the front last, where h vanishes.
    # On the moving front the front lies between nodes and is the last
    # tail bank; on the static one it is the row's last node
    data = make_data(alpha=0.5, v1=Profile.constant(0.2))
    patch = march(data, front, horizon=0.25, delta=1.0 / 64)[0]
    lat = patch.lattice
    wavefronts = corner_wavefronts(front, 0.5)
    t, nodes, banks = seam_row(patch, wavefronts)
    rho = lat.rho_rows[-1]
    assert banks.size >= 2
    knots = []
    from_samples = Profile.from_samples.__func__

    def recorded(cls, x, y, deriv_samples=None):
        knots.append(np.array(x))
        return from_samples(cls, x, y, deriv_samples)
    monkeypatch.setattr(Profile, "from_samples", classmethod(recorded))
    seam = prescribed._seam_data(patch, wavefronts)
    assert len(knots) == 2 and np.array_equal(knots[0], knots[1])
    x = knots[0]
    assert np.array_equal(x, np.sort(np.concatenate((nodes, banks))))
    assert np.all(np.diff(x) > 0.0) and x[-1] == rho and seam.rho0 == rho
    assert (x[-1] in banks) == (nodes[-1] < rho)
    assert seam.h0(rho) == 0.0
    # inside, the samples are the decayed traces at the knots
    decay = math.exp(-0.5 * data.alpha * patch.window.length)
    h, h_t, h_r = (decay * v for v in patch.local_traces(t, x))
    for got, want in ((seam.h0(x), h), (seam.h1(x), h_t), (seam.h0.deriv(x), h_r)):
        assert np.max(np.abs(got - want)[1:-1]) <= 1e-13 * np.max(np.abs(want))


def test_interior_pde_residual_shrinks():
    # 5-point stencil of the converged lattice field approaches the
    # zero-order kernel identity under refinement
    data = make_data(alpha=1.0)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    t0, r0 = 0.125, 0.375  # dyadic: the same node at every refinement
    res = []
    for delta in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        patches = march(data, front, horizon=0.25, delta=delta)
        lat = patches[0].lattice
        h = lat.values
        i, j = int(round(t0 / delta)), int(round(r0 / delta))
        lap = ((h[i + 1, j] - 2 * h[i, j] + h[i - 1, j])
               - (h[i, j + 1] - 2 * h[i, j] + h[i, j - 1])) / delta ** 2
        kern = 0.25 * (1.0 + 1.0 / (3.0 - r0) ** 2)
        res.append(abs(lap - kern * h[i, j]))
    assert res[1] < 0.3 * res[0]
    assert res[2] < 0.3 * res[1]


def test_march_requires_covered_front():
    data = make_data()
    front = FrontCurve.constant(1.0, 0.2, 3.0)
    with pytest.raises(GeometryError):
        march(data, front, horizon=1.0, delta=1.0 / 32)
