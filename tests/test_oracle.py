import numpy as np
import pytest

from debondsim.fields import ProblemData, Profile, to_h_data
from debondsim.geometry import FrontCurve, GeometryError
from debondsim.oracle import coeffs, fixed_map, solve_reference
from debondsim.prescribed import march
from reference import ClosedFormFront


def bump_data(R=3.0, rho0=1.0, alpha=0.0, amp=0.4):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=4.0,
                       w=Profile.zero(), v0=Profile.sine_bump(amp, rho0),
                       v1=Profile.zero())


# -- fixed map ----------------------------------------------------------------

def test_fixed_map_endpoints():
    f = FrontCurve.affine(1.0, 0.4, 2.0, 3.0)
    assert float(fixed_map(f, 0.7, 0.0)) == 0.0
    rho = float(f.rho(0.7))
    assert float(fixed_map(f, 0.7, rho)) == pytest.approx(1.0)


def test_fixed_map_linear_scaling():
    f = FrontCurve.affine(1.0, 0.5, 2.0, 4.0)
    assert float(fixed_map(f, 2.0, 1.0)) == pytest.approx(0.5)


def test_fixed_map_round_trip():
    f = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        t = rng.uniform(0, 2)
        r = rng.uniform(0, float(f.rho(t)))
        y = float(fixed_map(f, t, r))
        assert y * float(f.rho(t)) / f.rho0 == pytest.approx(r, abs=1e-14)


# -- coefficients -------------------------------------------------------------

def test_coeffs_static_front():
    f = FrontCurve.constant(2.0, 1.0, 3.0)
    B1, b1, a1, _ = coeffs(f, 0.5, 1.0, R=3.0, alpha=0.0)
    assert B1 == pytest.approx((2.0 / 2.0) ** 2)
    assert b1 == 0.0 and a1 == 0.0


def test_coeffs_identity_map():
    f = FrontCurve.constant(1.0, 1.0, 3.0)
    B1, _, _, _ = coeffs(f, 0.3, 0.7, R=3.0, alpha=0.0)
    assert B1 == pytest.approx(1.0)


def coercivity_margin(f, t):
    """The closed-form lower bound of B1 over [0, rho0]: (rho0/rho)^2 (1 - rho'^2)."""
    m = f.rho0 / float(f.rho(t))
    rd = float(f.rho_dot(t))
    return m * m * (1.0 - rd * rd)


def test_coeffs_moving_front_value():
    # rho = 1.5 rho0, rho' = 0.5, y = rho0: B1 = 4/9 - 1/9 = 1/3
    f = FrontCurve.affine(1.0, 0.5, 2.0, 4.0)
    B1, _, _, _ = coeffs(f, 1.0, 1.0, R=4.0, alpha=0.0)
    assert B1 == pytest.approx(1.0 / 3.0)
    assert B1 >= coercivity_margin(f, 1.0) > 0


def test_coercivity_margin_positive_for_admissible_fronts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        speed = rng.uniform(0.0, 0.95)
        f = FrontCurve.affine(1.0, speed, 2.0, 6.0)
        t = rng.uniform(0, 2)
        y = rng.uniform(0, 1)
        B1, _, _, _ = coeffs(f, t, y, R=6.0, alpha=0.3)
        assert B1 >= coercivity_margin(f, t) > 0


def test_coeffs_rejects_a_point_past_the_strip():
    f = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    with pytest.raises(GeometryError, match=r"outside \[0, rho0\]"):
        coeffs(f, 0.5, np.array([0.5, 1.0 + 1e-9]), R=3.0, alpha=0.0)


def test_coeffs_rejects_a_supersonic_front():
    # rho' = 1.2: B1 = (rho0^2 - (1.2 y)^2) / rho^2 < 0 near y = rho0
    f = ClosedFormFront(lambda t: 1.0 + 1.2 * t, lambda t: 1.2 + 0.0 * t, 1.0, 3.0)
    with pytest.raises(GeometryError, match="lost coercivity"):
        coeffs(f, 0.5, np.linspace(0.0, 1.0, 5), R=3.0, alpha=0.0)


# -- reference scheme ---------------------------------------------------------

def test_zero_data_zero_history():
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=1.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())
    f = FrontCurve.affine(1.0, 0.2, 1.0, 3.0)
    sol = solve_reference(to_h_data(data), f, horizon=0.5, dy=1.0 / 32)
    assert np.all(sol.H == 0.0)


def test_boundary_rows_exact():
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.7, horizon=1.0,
                       w=Profile.sine(0.3, 2.0), v0=Profile.sine_bump(0.2, 1.0),
                       v1=Profile.zero())
    hd = to_h_data(data)
    f = FrontCurve.affine(1.0, 0.3, 1.0, 3.0)
    sol = solve_reference(hd, f, horizon=0.5, dy=1.0 / 32)
    assert np.allclose(sol.H[:, -1], 0.0)
    assert np.allclose(sol.H[:, 0], hd.z(sol.times), atol=1e-12)
    # mapped back: the front row is exactly the bonded edge
    t = float(sol.times[-1])
    assert sol.h_at(t, float(f.rho(t))) == 0.0


def test_leapfrog_energy_drift_static():
    # w = 0, alpha = 0, static front: the semi-discrete invariant
    # sum (h_t^2 + B1 h_y^2 - c1 h^2) drifts only at O(dt^2) per unit time
    data = bump_data(alpha=0.0)
    f = FrontCurve.constant(1.0, 2.0, 3.0)
    drifts = []
    for dy in (1.0 / 32, 1.0 / 64):
        sol = solve_reference(to_h_data(data), f, horizon=1.0, dy=dy)
        dt = sol.times[1] - sol.times[0]
        dyy = sol.y[1] - sol.y[0]
        c1 = 0.25 / (3.0 - sol.y) ** 2

        def energy(n):
            ht = (sol.H[n + 1] - sol.H[n]) / dt
            hy = np.diff(0.5 * (sol.H[n + 1] + sol.H[n])) / dyy
            return (0.5 * np.sum(ht ** 2) * dyy + 0.5 * np.sum(hy ** 2) * dyy
                    - 0.5 * np.sum(c1 * (sol.H[n + 1] * sol.H[n])) * dyy)

        e0 = energy(0)
        emax = max(abs(energy(n) - e0) for n in range(0, len(sol.times) - 1, 7))
        drifts.append(emax / abs(e0))
    assert drifts[0] < 2e-2
    assert drifts[1] < 0.5 * drifts[0]


def test_matches_representation_solver_static():
    # sine-bump, static front: discrete L2 gap shrinks under refinement
    data = bump_data(alpha=1.0)
    f = FrontCurve.constant(1.0, 2.0, 3.0)
    horizon = 0.5
    gaps = []
    for k, dy in enumerate((1.0 / 16, 1.0 / 32, 1.0 / 64)):
        sol = solve_reference(to_h_data(data), f, horizon=horizon, dy=dy)
        patches = march(data, f, horizon=horizon, delta=dy)
        n = len(sol.times) - 1
        t = float(sol.times[n])
        patch = patches[-1]
        t_loc = t - patch.t0
        vals = patch.scale * np.asarray(
            [patch.lattice.sample(patch.lattice.values, t_loc, float(r)) for r in sol.y])
        gap = np.sqrt(np.mean((vals - sol.H[n]) ** 2))
        gaps.append(gap)
    assert gaps[-1] < 2e-3
    assert gaps[2] < 0.6 * gaps[1] < 0.6 * 0.99 * gaps[0]


def test_matches_representation_solver_moving():
    data = bump_data(alpha=0.5)
    f = FrontCurve.affine(1.0, 0.4, 2.0, 3.0)
    horizon = 0.5
    dy = 1.0 / 64
    sol = solve_reference(to_h_data(data), f, horizon=horizon, dy=dy)
    patches = march(data, f, horizon=horizon, delta=dy)
    n = len(sol.times) - 1
    t = float(sol.times[n])
    rho_t = float(f.rho(t))
    rs = sol.y * rho_t / f.rho0
    patch = patches[-1]
    vals = patch.scale * np.asarray(
        [patch.lattice.sample(patch.lattice.values, t - patch.t0, float(r)) for r in rs])
    gap = np.sqrt(np.mean((vals - sol.H[n]) ** 2))
    assert gap < 5e-3


# -- checks on the reference's inputs -------------------------------------------

def test_fixed_map_rejects_a_point_past_the_front():
    f = FrontCurve.affine(1.0, 0.3, 0.5, 3.0)
    with pytest.raises(GeometryError, match="point beyond the front"):
        fixed_map(f, 0.2, float(f.rho(0.2)) + 1e-6)


def test_solve_reference_rejects_a_horizon_past_the_front():
    f = FrontCurve.affine(1.0, 0.3, 0.5, 3.0)
    with pytest.raises(GeometryError, match="horizon exceeds the front domain"):
        solve_reference(to_h_data(bump_data()), f, horizon=0.6, dy=0.25)


def test_solve_reference_rounds_a_step_that_does_not_divide_rho0_up_to_one_that_does():
    # rho0 / 0.3 is not whole: the grid takes ceil(rho0 / 0.3) = 4 cells,
    # which is the dy = 0.25 grid, and the same history
    hd = to_h_data(bump_data())
    f = FrontCurve.affine(1.0, 0.3, 0.5, 3.0)
    coarse = solve_reference(hd, f, horizon=0.5, dy=0.3)
    assert coarse.y.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert np.array_equal(coarse.H, solve_reference(hd, f, horizon=0.5, dy=0.25).H)
