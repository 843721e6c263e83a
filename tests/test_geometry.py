import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from debondsim.geometry import FrontCurve, GeometryError, corner_wavefronts, jump_radii
from debondsim.prescribed import plan_windows
from debondsim.quadrature import CharLattice
from reference import (
    OMEGA1, OMEGA2, OMEGA3,
    ClosedFormFront, annulus_area_derivative, cone_region, region_area,
)
from reference import jump_radii as jump_radii_one_row


def make_front(kind="piecewise", R=3.0):
    if kind == "constant":
        return FrontCurve.constant(1.0, 2.0, R)
    if kind == "affine":
        return FrontCurve.affine(1.0, 0.5, 2.0, R)
    return FrontCurve(np.array([0.0, 0.5, 1.2, 2.0]),
                      np.array([1.0, 1.0, 1.35, 1.5]), R)


# -- construction -----------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda f: f.rho(np.array([0.5, 2.5, -1.0])), r"time 2\.5 is outside the front domain \[0, 2\]"),
    (lambda f: f.rho_dot(-0.5), r"time -0\.5 is outside the front domain \[0, 2\]"),
    (lambda f: f.psi_inverse(np.array([1.5, 0.5])), r"value 0\.5 is outside the range of psi \[1, 4\]"),
    (lambda f: f.lambda_of(np.array([-0.5, 0.25])),
     r"value 0\.25 is outside the range of phi \[-1, 0\]"),
    (lambda f: f.omega(np.array([0.5, 4.5])), r"argument 4\.5 is outside the domain of omega \[0, 4\]"),
    (lambda f: f.window(1.5, 2.5), r"window \[1\.5, 2\.5\] .*front domain \[0, 2\]"),
    (lambda f: plan_windows(f, 0.0, 0, 80, 1.0 / 32),
     r"rows up to 80 reach t = 2\.5, past the front domain \[0, 2\]"),
    (lambda f: CharLattice(f, 1.0 / 32, 80),
     r"lattice of 80 rows reaches t = 2\.5, past the front domain \[0, 2\]"),
])
def test_range_errors_name_the_value_and_the_range(call, message):
    # the first offending value and the range it breaks; the front runs
    # from rho = 1 to 2 over t in [0, 2], so psi spans [1, 4] and phi [-1, 0]
    with pytest.raises(GeometryError, match=message):
        call(make_front("affine"))


def test_rejects_supersonic_front():
    with pytest.raises(GeometryError):
        FrontCurve(np.array([0.0, 1.0]), np.array([1.0, 2.1]), 5.0)


def test_rejects_receding_front():
    with pytest.raises(GeometryError):
        FrontCurve(np.array([0.0, 1.0]), np.array([1.0, 0.8]), 5.0)


def test_rejects_front_reaching_rim():
    with pytest.raises(GeometryError):
        FrontCurve(np.array([0.0, 1.0]), np.array([1.0, 3.0]), 3.0)


@pytest.mark.parametrize("t, rho, message", [
    ([0.0], [1.0], r"at least two \(t, rho\) knots"),
    ([0.1, 1.0], [1.0, 1.2], r"start at t = 0"),
    ([0.0, 4.0], [1.0, 3.0], r"inside the outer radius R"),
    ([0.0, 1.0], [0.0, 0.5], r"initial front width must be positive"),
])
def test_inadmissible_knots_raise_a_named_error(t, rho, message):
    # subsonic, nondecreasing and ordered knots pass, so the check that
    # fires is the one named
    with pytest.raises(GeometryError, match=message):
        FrontCurve(np.array(t), np.array(rho), 3.0)


# -- basic maps -------------------------------------------------------------

def test_phi_constant_front():
    f = make_front("constant")
    assert f.phi(0.5) == pytest.approx(-0.5, abs=1e-15)


def test_phi_affine_front():
    f = FrontCurve.affine(1.0, 0.5, 2.0, 5.0)
    assert f.phi(2.0) == pytest.approx(0.0, abs=1e-15)


def test_phi_strictly_increasing():
    f = make_front()
    ts = np.linspace(0, 2, 500)
    assert np.all(np.diff(f.phi(ts)) > 0)


def test_psi_inverse_constant():
    f = make_front("constant")
    assert f.psi_inverse(1.5) == pytest.approx(0.5, abs=1e-14)


def test_psi_inverse_affine():
    f = FrontCurve.affine(1.0, 0.5, 2.5, 6.0)
    assert f.psi_inverse(4.0) == pytest.approx(2.0, abs=1e-14)


def test_psi_inverse_monotone():
    f = make_front()
    ss = np.linspace(f.psi_knots[0], f.psi_knots[-1], 300)
    assert np.all(np.diff(f.psi_inverse(ss)) >= 0)
    with pytest.raises(GeometryError):
        f.psi_inverse(f.psi_knots[-1] + 0.1)


def test_omega_flat_branch():
    f = make_front()
    assert f.omega(0.5) == pytest.approx(-1.0, abs=1e-15)
    ss = np.linspace(0.0, f.rho0 - 1e-9, 50)
    assert np.all(f.omega(ss) == -f.rho0)


def test_omega_constant_front():
    f = make_front("constant")
    assert f.omega(3.0) == pytest.approx(1.0, abs=1e-14)


def test_omega_affine_closed_form():
    # omega(s) = (1-b)(s-1)/(1+b) - 1 past the first reflection
    b = 1.0 / 3.0
    f = FrontCurve.affine(1.0, b, 3.0, 9.0)
    assert f.omega(4.0) == pytest.approx(0.5, abs=1e-13)
    # cross-check against root finding on psi, independent of the
    # piecewise-affine inversion
    for s in [1.0, 1.7, 2.9, 4.0]:
        t_root = brentq(lambda t: t + 1.0 + b * t - s, 0.0, 3.0, xtol=1e-14)
        assert f.omega(s) == pytest.approx(t_root - (1.0 + b * t_root), abs=1e-11)


def test_omega_dot_range():
    f = make_front()
    ss = np.linspace(0.0, f.psi_knots[-1], 400)
    wd = f.omega_dot(ss)
    assert np.all(wd >= 0.0) and np.all(wd <= 1.0)


def test_lambda_constant_front():
    f = make_front("constant")
    assert f.lambda_of(0.0) == pytest.approx(1.0, abs=1e-15)


def test_lambda_at_left_end():
    f = make_front()
    assert f.lambda_of(-f.rho0) == pytest.approx(0.0, abs=1e-15)


def test_lambda_inverts_affine_phi():
    f = FrontCurve.affine(1.0, 0.5, 3.0, 6.0)
    assert f.lambda_of(0.0) == pytest.approx(2.0, abs=1e-13)


def test_lambda_inverts_phi_randomly():
    rng = np.random.default_rng(7)
    for _ in range(10):
        nk = rng.integers(2, 6)
        ts = np.sort(rng.uniform(0.1, 2.0, nk - 1))
        ts = np.concatenate(([0.0], ts))
        slopes = rng.uniform(0.0, 0.95, nk - 1)
        rhos = 1.0 + np.concatenate(([0.0], np.cumsum(slopes * np.diff(ts))))
        f = FrontCurve(ts, rhos, R=10.0)
        probe = rng.uniform(0.0, ts[-1], 100)
        assert np.allclose(f.lambda_of(f.phi(probe)), probe, atol=1e-10)


def test_lambda_minus_identity_nondecreasing():
    f = make_front()
    ss = np.linspace(-f.rho0, f.phi_knots[-1], 300)
    gap = f.lambda_of(ss) - ss
    assert np.all(np.diff(gap) >= -1e-12)


def test_closed_form_front_matches_piecewise():
    b = 0.4
    pl = FrontCurve.affine(1.0, b, 2.0, 6.0)
    cf = ClosedFormFront(lambda t: 1.0 + b * np.asarray(t),
                         lambda t: np.full_like(np.asarray(t, dtype=float), b),
                         horizon=2.0, R=6.0)
    for s in [1.0, 1.4, 2.3, 3.1]:
        assert float(cf.omega(s)) == pytest.approx(float(pl.omega(s)), abs=1e-10)
    assert float(cf.lambda_of(-0.2)) == pytest.approx(float(pl.lambda_of(-0.2)), abs=1e-10)


# -- properties over random admissible fronts ---------------------------------

@st.composite
def admissible_fronts(draw):
    """2-12 knots with steps in [0.1, 1], segment slopes in [0, 0.99] and
    rho0 in [0.1, 1]; R lies past the last knot's width."""
    n = draw(st.integers(2, 12))
    dts = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1)))
    slopes = np.array(draw(st.lists(st.floats(0.0, 0.99), min_size=n - 1, max_size=n - 1)))
    rho0 = draw(st.floats(0.1, 1.0))
    ts = np.concatenate(([0.0], np.cumsum(dts)))
    rhos = rho0 + np.concatenate(([0.0], np.cumsum(slopes * dts)))
    return FrontCurve(ts, rhos, float(rhos[-1]) + draw(st.floats(0.01, 2.0)))


# a probe time is a knot or a fraction of the horizon
probes = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def probe_times(front, fractions):
    return np.concatenate((front.t_knots, np.array(fractions) * front.horizon))


@PROPERTY_SETTINGS
@given(front=admissible_fronts(), fractions=probes)
def test_lambda_inverts_phi_on_random_fronts(front, fractions):
    t = probe_times(front, fractions)
    assert np.max(np.abs(front.lambda_of(front.phi(t)) - t)) <= 1e-12 * front.horizon


@PROPERTY_SETTINGS
@given(front=admissible_fronts(), fractions=probes)
def test_psi_inverse_inverts_psi_on_random_fronts(front, fractions):
    t = probe_times(front, fractions)
    assert np.max(np.abs(front.psi_inverse(front.psi(t)) - t)) <= 1e-12 * front.horizon


@PROPERTY_SETTINGS
@given(front=admissible_fronts(), fractions=probes)
def test_omega_dot_stays_in_its_slope_range(front, fractions):
    # 0 on the flat branch, else (1 - rho')/(1 + rho') for a segment slope rho'
    s_max = float(np.max(front.rho_dot(front.t_knots[:-1])))
    s = np.concatenate((front.psi_knots, np.array(fractions) * front.psi_knots[-1]))
    wd = front.omega_dot(s)
    flat = wd == 0.0
    assert np.all(s[flat] < front.rho0)
    assert np.all((wd[~flat] >= (1.0 - s_max) / (1.0 + s_max)) & (wd[~flat] <= 1.0))


@PROPERTY_SETTINGS
@given(front=admissible_fronts(), k=st.integers(0, 10), slope=st.floats(1.0, 3.0))
def test_constructor_rejects_sonic_segments(front, k, slope):
    ts, rhos = front.t_knots, front.rho_knots.copy()
    k = k % (len(ts) - 1)
    rhos[k + 1:] += slope * (ts[k + 1] - ts[k]) - (rhos[k + 1] - rhos[k])
    # at slope 1 the knots may round to a segment just below it
    assume((rhos[k + 1] - rhos[k]) / (ts[k + 1] - ts[k]) >= 1.0)
    with pytest.raises(GeometryError):
        FrontCurve(ts, rhos, float(rhos[-1]) + 1.0)


@PROPERTY_SETTINGS
@given(front=admissible_fronts(), k=st.integers(0, 10), back=st.floats(0.0, 1.0))
def test_constructor_rejects_knots_not_increasing(front, k, back):
    ts = front.t_knots.copy()
    k = 1 + k % (len(ts) - 1)
    ts[k] = ts[k - 1] - back * (ts[k] - ts[k - 1])  # equal to or before its predecessor
    with pytest.raises(GeometryError):
        FrontCurve(ts, front.rho_knots, front.R)


# -- cones ------------------------------------------------------------------

def test_cone_cases():
    f = make_front()
    assert cone_region(f, 0.2, 0.5).case_tag == OMEGA1
    assert cone_region(f, 0.45, 0.2).case_tag == OMEGA2
    assert cone_region(f, 0.4, 0.8).case_tag == OMEGA3


def test_cone_case3_uses_omega_bound():
    f = make_front("constant")
    reg = cone_region(f, 0.3, 0.8)
    assert reg.case_tag == OMEGA3
    assert reg.xi_lo == pytest.approx(float(f.omega(1.1)), abs=1e-14)


def test_cone_rejects_outside():
    f = make_front("constant")
    with pytest.raises(GeometryError):
        cone_region(f, 0.2, 1.5)
    with pytest.raises(GeometryError):
        cone_region(f, 0.9, 0.3)  # beyond the first reflection family


def test_degenerate_apex_is_empty():
    f = make_front()
    reg = cone_region(f, 0.0, 0.4)
    assert reg.is_empty
    assert region_area(reg) == 0.0


def test_region_area_case1():
    f = make_front()
    assert region_area(cone_region(f, 0.3, 0.5)) == pytest.approx(0.09, abs=1e-14)


def test_region_area_case2():
    f = make_front()
    assert region_area(cone_region(f, 0.5, 0.2)) == pytest.approx(0.16, abs=1e-14)


def _mc_area(front, region, n=200_000, seed=0):
    """Monte-Carlo indicator oracle for the truncated cone area."""
    rng = np.random.default_rng(seed)
    t_hi = region.apex[0]
    r_lo = max(region.apex[1] - t_hi, 0.0)
    r_hi = region.apex[1] + t_hi
    ts = rng.uniform(0.0, t_hi, n)
    rs = rng.uniform(r_lo, r_hi, n)
    xi = ts - rs
    eta = ts + rs
    inside = (xi >= region.xi_lo) & (xi <= region.xi_hi)
    inside &= (eta <= region.eta_hi) & (eta >= np.maximum(np.abs(xi), region.eta_flat))
    return inside.mean() * t_hi * (r_hi - r_lo)


def test_region_area_against_monte_carlo():
    f = make_front()
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 12:
        t = rng.uniform(0.05, 0.45)
        r = rng.uniform(0.0, float(f.rho(t)))
        if t > r and t + r > f.rho0:
            continue
        reg = cone_region(f, t, r)
        exact = region_area(reg)
        approx = _mc_area(f, reg, seed=checked)
        assert approx == pytest.approx(exact, rel=2e-2, abs=2e-4)
        checked += 1


def test_region_area_indicator_quadrature():
    # deterministic midpoint indicator grid, relative 1e-3 on larger cones
    f = make_front()
    rng = np.random.default_rng(3)
    for _ in range(8):
        t = rng.uniform(0.2, 0.45)
        r = rng.uniform(0.3, min(float(f.rho(t)), 0.9))
        reg = cone_region(f, t, r)
        n = 1200
        ts = (np.arange(n) + 0.5) / n * t
        r_lo, r_hi = max(r - t, 0.0), r + t
        rs = r_lo + (np.arange(n) + 0.5) / n * (r_hi - r_lo)
        TT, RR = np.meshgrid(ts, rs, indexing="ij")
        xi, eta = TT - RR, TT + RR
        ok = (xi >= reg.xi_lo) & (xi <= reg.xi_hi) & (eta <= reg.eta_hi)
        ok &= eta >= np.maximum(np.abs(xi), reg.eta_flat)
        approx = ok.mean() * t * (r_hi - r_lo)
        assert approx == pytest.approx(region_area(reg), rel=1e-3, abs=1e-5)


# -- annulus area -----------------------------------------------------------

def test_annulus_area_derivative_value():
    assert annulus_area_derivative(1.0, 2.0) == pytest.approx(2 * np.pi)


def test_annulus_area_derivative_vanishes_at_rim():
    assert annulus_area_derivative(2.0 - 1e-12, 2.0) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(GeometryError):
        annulus_area_derivative(2.0, 2.0)


def test_annulus_area_derivative_finite_difference():
    # independent oracle: difference the debonded area pi*(R^2-(R-rho)^2)
    R = 3.0
    area = lambda rho: np.pi * (R * R - (R - rho) ** 2)
    eps = 1e-6
    fd = (area(0.5 + eps) - area(0.5 - eps)) / (2 * eps)
    assert annulus_area_derivative(0.5, R) == pytest.approx(fd, rel=1e-9)


# -- corner wavefronts --------------------------------------------------------

def test_jump_radii_of_all_rows_match_the_row_loop():
    # every row of a front off which both corner wavefronts bounce, in one
    # call, against the one-row loop, which merges radii within 1e-10 of
    # each other; the two wavefronts cross at r = 0.5 on row 64, and the
    # one from the front's corner reaches the rim on row 128 (t = rho0),
    # where its inward and outward legs both cross at r = 0
    front = make_front()
    wf = corner_wavefronts(front, 2.0)
    assert len(wf) == 4
    t = np.arange(257) / 128
    rho = front.rho(t)
    X = jump_radii(wf, t, rho)
    assert X.shape[1] >= 2
    for k in range(t.size):
        row = X[k][X[k] < rho[k]]
        assert np.all(X[k][row.size:] == rho[k])
        merged = row[np.diff(row, prepend=-1.0) > 1e-10]
        assert merged.tolist() == jump_radii_one_row(wf, t[k], rho[k])
    assert X[64].tolist() == [0.5, 0.5, rho[64]]
    assert X[128].tolist() == [0.0, 0.0, 1.0]
    assert X[0].tolist() == [rho[0]] * 3  # the rim corner's own row crosses nothing
    assert jump_radii((), t, rho).shape == (t.size, 0)


def _assert_segments(got, expected):
    assert [s[2] for s in got] == [s[2] for s in expected]
    for g, e in zip(got, expected):
        assert np.max(np.abs(np.subtract((g[0], g[1], g[3]), (e[0], e[1], e[3])))) <= 1e-12, (g, e)


def test_corner_wavefronts_reflect_off_an_affine_front():
    # rho = 0.25 + 0.5 t: a '+' leg t - r = c meets the front at
    # t = (c + rho0) / (1 - v) and leaves as a '-' leg with c' = t + rho(t);
    # a '-' leg r = c - t reaches the rim at t = c and leaves as a '+' leg
    # with the same c.  The corner at (0, rho0) bounces at the rim, meets
    # the front at t = 1 (c' = 1.75) and is past phi(2) = 0.75 after its
    # second rim bounce; the corner at (0, 0) meets the front at t = 0.5
    # (c' = 1) and, after the rim, runs past phi(2) to the horizon
    front = FrontCurve.affine(0.25, 0.5, 2.0, 3.0)
    _assert_segments(corner_wavefronts(front, 2.0), [
        (0.0, 0.25, "-", 0.25), (0.25, 1.0, "+", 0.25), (1.0, 1.75, "-", 1.75),
        (1.75, 2.0, "+", 1.75),
        (0.0, 0.5, "+", 0.0), (0.5, 1.0, "-", 1.0), (1.0, 2.0, "+", 1.0)])


def test_corner_wavefronts_reflect_off_a_front_past_its_knot():
    # rho = 0.25 + 0.5 t up to the knot (0.75, 0.625), then
    # rho = 0.625 + 0.25 (t - 0.75) up to the horizon 2, where phi = 1.0625.
    # The leg t - r = 0.25 would meet the first segment's line at t = 1, past
    # the knot: it meets the second segment where
    # t - 0.25 = 0.625 + 0.25 (t - 0.75), at t = 11/12 with rho = 2/3.  The
    # leg t - r = 1 meets it at t = 23/12 with rho = 11/12
    front = FrontCurve(np.array([0.0, 0.75, 2.0]), np.array([0.25, 0.625, 0.9375]), 3.0)

    def meet(c):  # on the second segment
        t = (c + 0.625 - 0.25 * 0.75) / (1.0 - 0.25)
        return t, t + 0.625 + 0.25 * (t - 0.75)
    t_a, c_a = meet(0.25)
    t_b, c_b = meet(1.0)
    assert (t_a, t_b) == pytest.approx((11 / 12, 23 / 12), abs=1e-15)
    _assert_segments(corner_wavefronts(front, 2.0), [
        (0.0, 0.25, "-", 0.25), (0.25, t_a, "+", 0.25), (t_a, c_a, "-", c_a),
        (c_a, 2.0, "+", c_a),
        (0.0, 0.5, "+", 0.0), (0.5, 1.0, "-", 1.0), (1.0, t_b, "+", 1.0),
        (t_b, 2.0, "-", c_b)])
