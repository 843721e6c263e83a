import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debondsim import dalembert
from debondsim.dalembert import df_minus, df_plus, f_minus, f_plus, free_derivatives
from debondsim.fields import HData, Profile
from debondsim.geometry import FrontCurve, GeometryError
from debondsim.quadrature import CharLattice
from reference import free_solution


ONE_NODE = (0, 0, 0)  # the block of the node (0, 0) alone, row 0 through column 0


def points(hd, f, delta, t, r):
    """free_derivatives at the points, beside the smallest row block."""
    block, at_points = free_derivatives(hd, f, delta, ONE_NODE, t, r)
    assert block[0].shape == (1, 1)
    return at_points


def hdata_zero(rho0=1.0, R=3.0, alpha=0.0):
    z = Profile.zero()
    return HData(R=R, rho0=rho0, alpha=alpha, z=z, h0=Profile.zero(),
                 h1=Profile.zero())


def hdata_bump(rho0=1.0, R=3.0):
    """h0(r) = r (rho0 - r), h1 = 0, z = 0 (compatible ends)."""
    h0 = Profile.poly([0.0, rho0, -1.0])
    return HData(R=R, rho0=rho0, alpha=0.0, z=Profile.zero(),
                 h0=h0, h1=Profile.zero())


def hdata_rich(rho0=1.0, R=3.0):
    """Sine bump h0, constant h1, moving rim value z with z(0) = 0."""
    h0 = Profile.sine_bump(0.4, rho0)
    return HData(R=R, rho0=rho0, alpha=0.0, z=Profile.sine(0.3, 2.0),
                 h0=h0, h1=Profile.constant(0.25))


def hdata_seam(rho0=1.0, R=3.0):
    """Data of the kind a seam hands the next window: sampled h0 with a
    sampled derivative, sampled h1 with a kink, a shifted rim load."""
    z = Profile.sine(0.3, 2.0).shifted(0.375, 0.9)
    rs = np.concatenate((np.linspace(0.0, 0.4, 14), np.linspace(0.4 + 1e-9, rho0, 23)))
    bump = 0.4 * np.sin(np.pi * rs / rho0)
    h0 = Profile.from_samples(rs, float(z(0.0)) * (1.0 - rs / rho0) + bump,
                              deriv_samples=-float(z(0.0)) / rho0
                              + 0.4 * np.pi / rho0 * np.cos(np.pi * rs / rho0))
    h1 = Profile.from_samples(rs, np.where(rs < 0.4, 0.25, -0.1) * (rho0 - rs))
    return HData(R=R, rho0=rho0, alpha=0.5, z=z, h0=h0, h1=h1)


def test_zero_data_zero_everywhere():
    hd = hdata_zero()
    f = FrontCurve.constant(1.0, 2.0, 3.0)
    ts = np.linspace(0, 0.45, 12)
    for t in ts:
        rs = np.linspace(0, float(f.rho(t)), 20)
        assert np.allclose(free_solution(hd, f, t, rs), 0.0)


def test_initial_row_is_h0():
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    rs = np.linspace(0, 1.0, 31)
    assert np.allclose(free_solution(hd, f, 0.0, rs), hd.h0(rs), atol=1e-14)


def test_reflected_case_value():
    # constant front, h0 = r(1-r): value at (0.3, 0.8) is
    # (h0(0.5) - h0(0.9)) / 2 = 0.08
    hd = hdata_bump()
    f = FrontCurve.constant(1.0, 2.0, 3.0)
    assert float(free_solution(hd, f, 0.3, 0.8)) == pytest.approx(0.08, abs=1e-14)


def test_rim_boundary_matches_z():
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.25, 2.0, 3.0)
    ts = np.linspace(1e-3, 0.45, 15)
    vals = np.array([float(free_solution(hd, f, t, 0.0)) for t in ts])
    assert np.allclose(vals, hd.z(ts), atol=1e-10)


def test_front_boundary_vanishes():
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.25, 2.0, 3.0)
    for t in np.linspace(1e-3, 0.45, 15):
        rho_t = float(f.rho(t))
        assert abs(float(free_solution(hd, f, t, rho_t))) < 1e-12


def test_outside_raises():
    hd = hdata_rich()
    f = FrontCurve.constant(1.0, 2.0, 3.0)
    with pytest.raises(GeometryError):
        free_solution(hd, f, 0.2, 1.5)


def test_decomposition_matches_piecewise_formula():
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.25, 2.0, 3.0)
    rng = np.random.default_rng(9)
    for _ in range(300):
        t = rng.uniform(0.0, 0.49)
        r = rng.uniform(0.0, float(f.rho(t)))
        if t > r and t + r > hd.rho0:
            continue
        split = float(f_plus(hd, t + r, f.omega(t + r))) + float(f_minus(hd, t - r))
        direct = float(free_solution(hd, f, t, r))
        assert split == pytest.approx(direct, abs=1e-12)


def test_decomposition_zero_data():
    hd = hdata_zero()
    f = FrontCurve.constant(1.0, 2.0, 3.0)
    ss = np.linspace(0.01, 1.8, 40)
    assert np.allclose(f_plus(hd, ss, f.omega(ss)), 0.0)
    assert np.allclose(f_minus(hd, ss - 1.0), 0.0)


def test_f_minus_positive_branch_formula():
    hd = hdata_rich()
    f = FrontCurve.constant(1.0, 2.0, 3.0)
    ss = np.linspace(0.05, 0.95, 17)
    expect = hd.z(ss) - 0.5 * hd.h0(ss) - 0.5 * hd.h1.cumint(ss)
    assert np.allclose(f_minus(hd, ss), expect, atol=1e-14)


def test_f_plus_continuous_at_first_reflection():
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    eps = 1e-9
    lo = float(f_plus(hd, hd.rho0 - eps, f.omega(hd.rho0 - eps)))
    hi = float(f_plus(hd, hd.rho0 + eps, f.omega(hd.rho0 + eps)))
    assert hi == pytest.approx(lo, abs=1e-7)


def test_initial_derivatives():
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.2, 2.0, 3.0)
    rs = np.linspace(0.05, 0.95, 13)
    d_t, d_r = points(hd, f, 1.0 / 64, 0.0, rs)
    assert np.allclose(d_t, hd.h1(rs), atol=1e-13)
    assert np.allclose(d_r, hd.h0.deriv(rs), atol=1e-13)


def test_derivatives_by_richardson_differences():
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.2, 2.0, 3.0)
    pts = [(0.21, 0.33), (0.15, 0.72), (0.37, 0.95), (0.41, 0.30)]
    for t, r in pts:
        d_t, d_r = points(hd, f, 1.0 / 64, t, r)
        errs = []
        for step in (1e-4, 5e-5):
            fd_t = (float(free_solution(hd, f, t + step, r))
                    - float(free_solution(hd, f, t - step, r))) / (2 * step)
            errs.append(abs(fd_t - float(d_t)))
        # centered differences converge at second order to the analytic value
        assert errs[1] < 0.3 * errs[0] + 1e-12
        step = 1e-5
        fd_r = (float(free_solution(hd, f, t, r + step))
                - float(free_solution(hd, f, t, r - step))) / (2 * step)
        assert fd_r == pytest.approx(float(d_r), rel=5e-5, abs=1e-7)


def test_wave_operator_stencil_residual_second_order():
    # interior 5-point residual of h_tt - h_rr shrinks at O(step^2)
    hd = hdata_rich()
    f = FrontCurve.affine(1.0, 0.2, 2.0, 3.0)
    t0, r0 = 0.21, 0.52  # away from the characteristic kinks through rho0

    def residual(s):
        pts = {
            "c": (t0, r0), "tp": (t0 + s, r0), "tm": (t0 - s, r0),
            "rp": (t0, r0 + s), "rm": (t0, r0 - s),
        }
        vals = {k: float(free_solution(hd, f, *p)) for k, p in pts.items()}
        h_tt = (vals["tp"] - 2 * vals["c"] + vals["tm"]) / s ** 2
        h_rr = (vals["rp"] - 2 * vals["c"] + vals["rm"]) / s ** 2
        return abs(h_tt - h_rr)

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r2 < 0.5 * r1 + 1e-9


# -- the lattice form -----------------------------------------------------------

@pytest.mark.parametrize("delta, rows", [(1.0 / 64, 32), (1.0 / 100, 50)])
def test_free_grid_matches_pointwise_oracle(delta, rows):
    # a moving front reflecting past rho0, the rim echo t > r and a rim
    # load: at delta = 1/64, (i + j) delta is i delta + j delta to the bit
    hd = hdata_seam()
    f = FrontCurve.affine(1.0, 0.3, 0.5, 3.0)
    lat = CharLattice(f, delta, rows)
    grid = dalembert.free_solution(hd, lat)
    t = np.broadcast_to(lat.times[:, None], grid.shape)[lat.inside]
    r = np.broadcast_to(lat.radii[None, :], grid.shape)[lat.inside]
    assert np.any(t + r > hd.rho0) and np.any(t > r) and np.any(hd.z(t[r == 0.0]) != 0.0)
    ref = free_solution(hd, f, t, r)
    assert np.all(grid[~lat.inside] == 0.0)
    if delta == 1.0 / 64:
        assert np.array_equal(grid[lat.inside], ref)
    else:
        assert np.max(np.abs(grid[lat.inside] - ref)) <= 1e-14 * np.max(np.abs(ref))


def direct_derivatives(hd, front, t, r):
    """free_derivatives with each branch evaluated at every point."""
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r, dtype=float))
    s = t + r
    fp = df_plus(hd, s, front._omega_unchecked(s), front.omega_dot(s))
    fm = df_minus(hd, t - r)
    return fp + fm, fp - fm


def assert_bitwise(got, want):
    assert np.shape(got[0]) == np.shape(want[0])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(delta=st.sampled_from([1.0 / 64, 1.0 / 100, 1.0 / 128]),
       nodes=st.lists(st.tuples(st.integers(0, 64), st.integers(0, 160)), max_size=80),
       off=st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 1.3)), max_size=12),
       rows=st.tuples(st.integers(0, 51), st.integers(0, 51)),
       data=st.data())
def test_free_derivatives_on_mixed_points_are_the_direct_branches(delta, nodes, off, rows, data):
    # lattice nodes (many sharing a characteristic), off-node points and
    # points beyond the front, in drawn order, are each their own branch
    # evaluation; a block of rows, with the points in the same call, reads
    # every node off the two branch tables: bitwise the direct branches at
    # (i delta, j delta) where (i + j) delta and (i - j) delta are i delta
    # +- j delta to the bit (delta a power of two), to rounding otherwise
    hd = hdata_seam()
    f = FrontCurve.affine(1.0, 0.3, 0.5, 3.0)
    pts = [(i * delta, j * delta) for i, j in nodes if i * delta <= 0.5] + off
    order = data.draw(st.permutations(range(len(pts))))
    t = np.array([pts[k][0] for k in order], dtype=float)
    r = np.array([pts[k][1] for k in order], dtype=float)
    assert_bitwise(points(hd, f, delta, t, r), direct_derivatives(hd, f, t, r))

    lat = CharLattice(f, delta, int(0.4 / delta))
    block = lat.row_block(*sorted(min(k, lat.nt) for k in rows))
    lo, hi, J = block
    got, at_points = free_derivatives(hd, f, delta, block, t, r)
    assert_bitwise(at_points, direct_derivatives(hd, f, t, r))
    want = direct_derivatives(hd, f, lat.times[lo:hi + 1, None], lat.radii[None, :J + 1])
    if delta != 1.0 / 100:
        assert_bitwise(got, want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_free_derivatives_scalars_empty_and_broadcast():
    hd = hdata_seam()
    f = FrontCurve.affine(1.0, 0.3, 0.5, 3.0)
    delta = 1.0 / 64
    for t, r in [(0.25, 0.5), (0.2501, 0.3), (0.0, 0.0), (0.5, 1.15), (0.1, 1.4)]:
        got = points(hd, f, delta, t, r)
        assert np.ndim(got[0]) == 0
        assert_bitwise(got, direct_derivatives(hd, f, t, r))
    got = points(hd, f, delta, np.array([]), np.array([]))
    assert got[0].shape == (0,) and got[1].shape == (0,)
    t = np.arange(0, 33)[:, None] * delta
    r = np.concatenate((np.arange(0, 70) * delta, [0.3, 0.71]))
    assert_bitwise(points(hd, f, delta, t, r), direct_derivatives(hd, f, t, r))
