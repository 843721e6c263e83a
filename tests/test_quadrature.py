import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debondsim import quadrature
from debondsim.dalembert import df_minus, df_plus, free_derivatives
from debondsim.fields import ProblemData, Profile, Toughness, to_h_data
from debondsim.geometry import FrontCurve, GeometryError, corner_wavefronts
from debondsim.griffith import StripWorkspace, solve_coupled_window
from debondsim.prescribed import march, plan_windows, solve_window
from debondsim.quadrature import (
    CharLattice, ConePlan, LatticeConePlan, char_line_integrals, cone_integrals_batch,
    phi_time_trace,
)
from reference import (
    cone_region, diag_cumulatives, diag_line_integral, jump_radii, phi_of, phi_time_trace_segments,
    region_area, sheared_cone_integrals,
)
from reference import cone_integrals_batch as batch_oracle


def make_lattice(delta=1.0 / 64, nt=16, speed=0.25, rho0=1.0, R=3.0):
    front = FrontCurve.affine(rho0, speed, max(2.0, 4 * nt * delta), R)
    return CharLattice(front, delta, nt)


def fill(lat, fun):
    tt = lat.times[:, None]
    rr = lat.radii[None, :]
    return lat.masked(fun(tt, rr))


def const_field(lat, c=1.0):
    return lat.masked(np.full((lat.nt + 1, lat.j_ext + 1), c))


def batch(lat, values):
    """cone_integrals_batch of ``values`` through a plan built for this one
    call, the field written into the plan's ``values``."""
    plan = LatticeConePlan(lat)
    plan.values[...] = values
    return cone_integrals_batch(lat, plan)


def line_integrals(lat, values, *segments):
    """char_line_integrals with the cumulatives built for this one call."""
    return char_line_integrals(lat, values, quadrature._line_cumulatives(values, lat.delta),
                               *segments)


def trace(lat, values, t, r):
    """phi_time_trace with the cumulatives built for this one call, at the
    points broadcast, every one of them, node or not, through the kernel's
    point path beside the block of row 0, as ``local_traces`` sends its
    points (floats for one point)."""
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r, dtype=float))
    _, at_points = phi_time_trace(lat, values, quadrature._line_cumulatives(values, lat.delta),
                                  lat.row_block(0, 0), t.ravel(), r.ravel())
    return tuple(float(g[0]) if t.ndim == 0 else g.reshape(t.shape) for g in at_points)


# -- lattice ----------------------------------------------------------------

def test_lattice_geometry():
    lat = make_lattice()
    assert lat.times[1] - lat.times[0] == lat.radii[1] - lat.radii[0]
    vals = const_field(lat)
    assert np.all(vals[~lat.inside] == 0.0)
    assert lat.j_ext * lat.delta >= lat.nt * lat.delta + float(lat.front.rho(lat.nt * lat.delta))


def test_row_value_tapers_to_front():
    # front strictly between nodes: the cut cell interpolates to 0 at the
    # front position, not at the next node
    lat = make_lattice(speed=0.0, rho0=1.0 + 0.4 / 64)
    vals = const_field(lat)
    rho = float(lat.front.rho(0.0))
    assert lat.row_value(vals, 0, rho) == pytest.approx(0.0, abs=1e-12)
    assert lat.row_value(vals, 0, 0.5) == pytest.approx(1.0)
    assert lat.row_value(vals, 0, rho + 0.1) == 0.0
    assert lat.row_value(vals, 0, rho - 0.002) == pytest.approx(0.32, abs=1e-12)


def test_sample_matches_pointwise_loop():
    # the vectorised bilinear sample against the per-point loop it replaced,
    # on rows, between rows, on the last row, in the front cell and beyond
    # the front
    lat = make_lattice(delta=1.0 / 32, nt=8, speed=0.3, rho0=1.0 + 0.4 / 32)
    H = fill(lat, lambda t, r: np.cos(1.3 * t + 0.2) * (1.0 + r * r))
    d = lat.delta
    ts = np.array([0.0, 0.5 * d, 3 * d, 3.7 * d, 8 * d - 1e-14, 8 * d])
    rs = np.linspace(0.0, float(lat.front.rho(8 * d)) + 2 * d, 23)
    T, Rr = np.meshgrid(ts, rs, indexing="ij")
    ref = np.empty(T.shape)
    for idx in np.ndindex(T.shape):
        t, r = T[idx], Rr[idx]
        i = min(max(int(np.floor(t / d + 1e-12)), 0), lat.nt - 1)
        f = t / d - i
        v0 = float(lat.row_value(H, i, r))
        ref[idx] = v0 if f <= 1e-12 else (1.0 - f) * v0 + f * float(lat.row_value(H, i + 1, r))
    got = lat.sample(H, T, Rr)
    assert np.max(np.abs(got - ref)) <= 1e-15
    assert lat.sample(H, float(T[2, 5]), float(Rr[2, 5])) == got[2, 5]


# -- single-apex cone integrals ----------------------------------------------

def test_phi_zero_field():
    lat = make_lattice()
    reg = cone_region(lat.front, 0.2, 0.5)
    assert phi_of(lat, np.zeros(lat.inside.shape), reg) == 0.0


def test_phi_constant_equals_area_case1():
    lat = make_lattice(nt=24)
    reg = cone_region(lat.front, 0.3 - 1e-12, 0.5)
    reg2 = cone_region(lat.front, 0.296875, 0.5)  # 19/64: lattice row
    got = phi_of(lat, const_field(lat), reg2)
    assert got == pytest.approx(region_area(reg2), abs=1e-13)
    assert region_area(reg) == pytest.approx(0.09, abs=1e-9)


def test_phi_rejects_uncovered_cone():
    lat = make_lattice(nt=8)
    reg = cone_region(lat.front, 0.3, 0.5)
    with pytest.raises(GeometryError):
        phi_of(lat, const_field(lat), reg)


def test_phi_constant_equals_area_case2():
    lat = make_lattice(nt=32)
    reg = cone_region(lat.front, 0.5, 0.25)
    assert phi_of(lat, const_field(lat), reg) == pytest.approx(region_area(reg), abs=1e-13)
    assert region_area(cone_region(lat.front, 0.5, 0.2)) == pytest.approx(
        0.25 - 0.09, abs=1e-12)


def test_phi_constant_equals_area_case3():
    lat = make_lattice()
    reg = cone_region(lat.front, 0.25, 0.875)
    # the curved-front corner is clipped cell by cell: relative 1e-3
    assert phi_of(lat, const_field(lat), reg) == pytest.approx(region_area(reg), rel=1e-3)


def test_phi_linearity():
    lat = make_lattice()
    rng = np.random.default_rng(4)
    H1 = fill(lat, lambda t, r: np.sin(t + r))
    H2 = fill(lat, lambda t, r: np.cos(2 * t) * r)
    reg = cone_region(lat.front, 0.25, 0.6)
    a, b = rng.normal(), rng.normal()
    lhs = phi_of(lat, a * H1 + b * H2, reg)
    rhs = a * phi_of(lat, H1, reg) + b * phi_of(lat, H2, reg)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_phi_quadratic_convergence():
    # smooth field, fixed apex: error against the exact cone integral of
    # tau^2 (= T^4/6 for a case-1 apex) drops at second order
    T, r0 = 0.25, 0.625
    exact = T ** 4 / 6.0
    errs = []
    for delta in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        lat = make_lattice(delta=delta, nt=int(round(T / delta)) + 2, speed=0.0)
        H = fill(lat, lambda t, r: t * t * np.ones_like(r))
        reg = cone_region(lat.front, T, r0)
        errs.append(abs(phi_of(lat, H, reg) - exact))
    assert errs[1] < 0.3 * errs[0]
    assert errs[2] < 0.3 * errs[1]


# -- batch vs single ----------------------------------------------------------

def test_batch_matches_single_apex():
    lat = make_lattice(delta=1.0 / 32, nt=8, speed=0.3)
    H = fill(lat, lambda t, r: np.sin(1.3 * t + 0.4) * np.cos(0.9 * r))
    J = batch(lat, H)
    for i in range(lat.nt + 1):
        t = i * lat.delta
        rho_t = float(lat.front.rho(t))
        for j in range(lat.j_ext + 1):
            r = j * lat.delta
            if r > rho_t or (t > r and t + r > lat.front.rho0):
                continue
            reg = cone_region(lat.front, t, r)
            ref = phi_of(lat, H, reg)
            # reflected cones: batch and single clip the omega cell
            # differently (both second order); elsewhere they coincide
            tol = 1e-12 if t + r <= lat.front.rho0 + 1e-12 else 0.05 * lat.delta ** 2
            assert J[i, j] == pytest.approx(ref, abs=tol), (i, j)


def test_sheared_kernel_exact_for_constant_field():
    # the kernel on its own: for F = 1 the trapezoid sums are exact, and with
    # xi0 = 0 and no cut node (l, k) has eta = (2l - k) delta and
    # Phi = 1/2 int (eta + xi) dxi over xi in [max(0, -eta), k delta], on
    # anti-diagonals starting on row 0 (eta < 0) and on column 0 (eta > 0)
    d, L, K = 1.0 / 16, 6, 9
    J = ConePlan(L, K, d)(np.ones((L + 1, K + 1)), np.zeros(2 * L + K + 1))
    l, k = np.meshgrid(np.arange(L + 1), np.arange(K + 1), indexing="ij")
    eta, b = (2 * l - k) * d, k * d
    a = np.maximum(0.0, -eta)
    assert np.allclose(J, 0.5 * (eta * (b - a) + 0.5 * (b * b - a * a)), rtol=0.0, atol=1e-14)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(interior=st.lists(st.floats(0.02, 0.58), max_size=2, unique=True),
       slopes=st.lists(st.floats(0.0, 0.6), min_size=3, max_size=3),
       coef=st.tuples(st.floats(0.0, 1.5), st.floats(-3.0, 3.0), st.floats(0.0, 1.5),
                      st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)))
def test_batch_matches_single_apex_on_random_fronts(interior, slopes, coef):
    # the lattice index map of the sheared kernel against the iterated
    # single-apex quadrature, on fronts with 2-4 knots; the fields are of
    # unit size, the scale of the absolute reflected-cone bound above
    ts = np.array([0.0] + sorted(interior) + [0.6])
    rhos = 1.0 + np.concatenate(([0.0], np.cumsum(np.array(slopes[:len(ts) - 1]) * np.diff(ts))))
    lat = CharLattice(FrontCurve(ts, rhos, 3.0), 1.0 / 32, 8)
    b, c, e, f, g = coef
    H = fill(lat, lambda t, r: np.sin(b * t + c) * np.cos(e * r + f) + g * t * r)
    J = batch(lat, H)
    rho0 = lat.front.rho0
    for i in range(lat.nt + 1):
        t = i * lat.delta
        for j in np.flatnonzero(lat.inside[i]):
            r = j * lat.delta
            if t > r and t + r > rho0:
                continue
            ref = phi_of(lat, H, cone_region(lat.front, t, r))
            tol = 1e-12 if t + r <= rho0 + 1e-12 else 0.05 * lat.delta ** 2
            assert J[i, j] == pytest.approx(ref, abs=tol), (i, j)


def _cuts(rng, L, K):
    # fractional cuts in [0, span) of each anti-diagonal, some exactly 0
    g = np.arange(-K, 2 * L + 1)
    span = np.minimum(2 * L, g + K) - np.maximum(g, 0)
    cut = rng.uniform(0.0, 1.0, len(g)) * span
    cut[rng.uniform(size=len(g)) < 0.3] = 0.0
    return cut


def _row_oriented(F, d, cut):
    # the same call with F padded by zero columns to K' >= 2L + 1, which
    # forces the half-row orientation; the new anti-diagonals g < -K get
    # zero cuts, and the padding changes no sum at the original nodes
    L, K = F.shape[0] - 1, F.shape[1] - 1
    Kp = max(K, 2 * L + 1)
    Fp = np.zeros((L + 1, Kp + 1))
    Fp[:, :K + 1] = F
    return ConePlan(L, Kp, d)(Fp, np.concatenate((np.zeros(Kp - K), cut)))[:, :K + 1]


@pytest.mark.parametrize("L,K", [(0, 3), (1, 0), (2, 1), (74, 1), (159, 19), (10, 20), (10, 21)])
def test_column_orientation_matches_row_orientation(L, K):
    # K + 1 < 2L + 1 indexes each anti-diagonal by column, otherwise by
    # half row; both sum the same terms in the same order
    rng = np.random.default_rng(L * 100 + K)
    F = rng.standard_normal((L + 1, K + 1))
    cut = _cuts(rng, L, K)
    J = ConePlan(L, K, 1.0 / 128)(F, cut)
    assert np.array_equal(J, _row_oriented(F, 1.0 / 128, cut))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(L=st.integers(0, 40), K=st.integers(0, 30), seed=st.integers(0, 2 ** 16))
def test_column_orientation_matches_row_orientation_drawn(L, K, seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((L + 1, K + 1))
    cut = _cuts(rng, L, K)
    J = ConePlan(L, K, 1.0 / 64)(F, cut)
    assert np.array_equal(J, _row_oriented(F, 1.0 / 64, cut))


def test_strip_kernel_memory_is_linear_in_the_strip():
    # a tall narrow strip: the half-row layout would hold (2L + 1)(2L + K + 1)
    # slots, near 40 MB, for (L + 1)(K + 1) nodes; the bound covers building
    # the plan, its work arrays included, and one call
    L, K = 640, 8
    rng = np.random.default_rng(7)
    F = rng.standard_normal((L + 1, K + 1))
    cut = _cuts(rng, L, K)
    tracemalloc.start()
    try:
        ConePlan(L, K, 1.0 / 256)(F, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _drawn_cuts(rng, L, K):
    # _cuts, with about a tenth of the cuts below 0 and a tenth past the last
    # slot, where the cut clamps to the anti-diagonal's ends
    g = np.arange(-K, 2 * L + 1)
    span = np.minimum(2 * L, g + K) - np.maximum(g, 0)
    cut = _cuts(rng, L, K)
    u = rng.uniform(size=len(g))
    cut[u < 0.1] = -rng.uniform(0.0, 2.0)
    cut[u > 0.9] = span[u > 0.9] + rng.uniform(0.0, 2.0)
    return cut


@settings(max_examples=30, deadline=None, derandomize=True)
@given(L=st.integers(0, 40), K=st.integers(0, 30), seed=st.integers(0, 2 ** 16))
@example(L=0, K=0, seed=1)
@example(L=0, K=7, seed=2)
@example(L=9, K=0, seed=3)
def test_plan_matches_oracle_on_successive_calls(L, K, seed):
    # one plan, three fields with three cuts, in both orientations: every
    # result equals the unplanned oracle bitwise, and the first is untouched
    # by the later calls, so results are fresh arrays and the work arrays'
    # zero padding survives every call
    rng = np.random.default_rng(seed)
    plan = ConePlan(L, K, 1.0 / 64)
    kept = []
    for _ in range(3):
        F = rng.standard_normal((L + 1, K + 1))
        cut = _drawn_cuts(rng, L, K)
        J = plan(F, cut)
        assert np.array_equal(J, sheared_cone_integrals(F, 1.0 / 64, cut))
        kept.append((J, J.copy()))
    assert all(np.array_equal(J, first) for J, first in kept)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(interior=st.lists(st.floats(0.02, 0.58), max_size=2, unique=True),
       slopes=st.lists(st.floats(0.0, 0.6), min_size=3, max_size=3),
       nt=st.sampled_from([0, 1, 8, 24]), seed=st.integers(0, 2 ** 16))
def test_lattice_plan_matches_oracle_on_successive_calls(interior, slopes, nt, seed):
    # one lattice plan, three fields (nonzero off the domain too), on fronts
    # of 2-4 knots whose lattices hold reflected anti-diagonals and apices
    # behind the rim echo: every result equals the unplanned oracle bitwise,
    # and the first is untouched by the later calls
    ts = np.array([0.0] + sorted(interior) + [0.8])
    rhos = 1.0 + np.concatenate(([0.0], np.cumsum(np.array(slopes[:len(ts) - 1]) * np.diff(ts))))
    lat = CharLattice(FrontCurve(ts, rhos, 3.0), 1.0 / 32, nt)
    plan = LatticeConePlan(lat)
    rng = np.random.default_rng(seed)
    kept = []
    for _ in range(3):
        H = rng.standard_normal((lat.nt + 1, lat.j_ext + 1))
        plan.values[...] = H
        J = cone_integrals_batch(lat, plan)
        assert np.array_equal(J, batch_oracle(lat, H))
        kept.append((J, J.copy()))
    assert all(np.array_equal(J, first) for J, first in kept)


def _record_plans(monkeypatch):
    """Log every cone plan built from now on: its class name, a weak
    reference to it and weak references to the arrays it owns (the base of
    each of its array attributes)."""
    log = []

    def owned(plan):
        for a in vars(plan).values():
            if isinstance(a, np.ndarray):
                while getattr(a, "base", None) is not None:
                    a = a.base
                yield weakref.ref(a)

    for cls in (ConePlan, LatticeConePlan):
        def init(self, *args, _init=cls.__init__):
            _init(self, *args)
            log.append((type(self).__name__, weakref.ref(self), list(owned(self))))
        monkeypatch.setattr(cls, "__init__", init)
    return log


def test_one_lattice_plan_per_window(monkeypatch):
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=4.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.4, 1.0), v1=Profile.zero())
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    window = plan_windows(front, 0.5, 0, 16, 1.0 / 64)[0]
    log = _record_plans(monkeypatch)
    patch = solve_window(to_h_data(data), front, window)
    assert patch.diagnostics["iterations"] > 2
    assert [name for name, _, _ in log] == ["ConePlan", "LatticeConePlan"]


def test_march_keeps_no_plan(monkeypatch):
    # patches outlive their windows: a plan, or a view of its work arrays,
    # kept by a patch or its lattice would hold the plan's memory once per
    # patch; once march returns, every plan and every array a plan owned is
    # gone while the patches live
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=4.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.4, 1.0), v1=Profile.constant(0.2))
    log = _record_plans(monkeypatch)
    patches = march(data, FrontCurve.affine(1.0, 0.3, 2.0, 3.0), horizon=0.75, delta=1.0 / 64)
    gc.collect()
    assert len(patches) > 1
    assert [name for name, _, _ in log].count("LatticeConePlan") == len(patches)
    for name, plan, arrays in log:
        assert plan() is None, name
        assert all(a() is None for a in arrays), name


def test_one_strip_plan_per_coupled_window(monkeypatch):
    # the strip builds its plan with its workspace; every sweep reuses it
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.0, horizon=8.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.4, 1.0), v1=Profile.zero())
    log = _record_plans(monkeypatch)
    sweeps = []
    cone = StripWorkspace.cone_integrals

    def counted(ws, om, F):
        sweeps.append(1)
        return cone(ws, om, F)
    monkeypatch.setattr(StripWorkspace, "cone_integrals", counted)
    ws = StripWorkspace(to_h_data(data), Toughness.constant(0.1, rho0=1.0, R=3.0),
                        0.25, 12, 1.0 / 64)
    solve_coupled_window(ws, t_start=0.0)
    assert len(sweeps) > 2
    assert [name for name, _, _ in log] == ["ConePlan"]


@pytest.mark.parametrize("speed", [0.0, 0.3])
def test_strip_matches_lattice(speed):
    # the strip index map of the sheared kernel against the lattice one at
    # every inside strip node; the front crosses every strip diagonal
    # before T, so the strip's straight front is the lattice's front
    delta, m = 1.0 / 128, 9
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=8.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.4, 1.0), v1=Profile.zero())
    ws = StripWorkspace(to_h_data(data), Toughness.constant(1.0, rho0=1.0, R=3.0),
                        0.3, m, delta)
    assert (ws.s[-1] + ws.rho0) / (1.0 - speed) < ws.T  # crossing time of t - r = s_m
    om = ws.straight_front((1.0 - speed) / (1.0 + speed))
    lat = CharLattice(FrontCurve.affine(1.0, speed, 1.0, 3.0), delta, ws.L)

    def field(t, r):
        return np.cos(2.0 * t + 0.3) * np.sin(1.7 * r + 0.2) + t * r

    inside = ws.inside_mask(om)
    J_strip = ws.cone_integrals(om, np.where(inside, field(ws.t_grid, ws.r_grid), 0.0))
    J_lat = batch(lat, fill(lat, field))
    ll, kk = np.nonzero(inside)
    jj = np.rint(ws.r_grid[ll, kk] / delta).astype(int)
    ref = J_lat[ll, jj]
    assert np.all(lat.inside[ll, jj])
    assert np.max(np.abs(J_strip[ll, kk] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batch_zero_outside():
    lat = make_lattice(delta=1.0 / 32, nt=8)
    J = batch(lat, const_field(lat))
    assert np.all(J[~lat.inside] == 0.0)


# -- line integrals -----------------------------------------------------------

def test_line_integral_constant():
    lat = make_lattice(nt=64)
    val = line_integrals(lat, const_field(lat), 1.0, 0.1, 0.0, 0.7)
    assert val == pytest.approx(0.7, abs=1e-13)


def test_line_integral_linear_exact():
    lat = make_lattice(nt=32)
    H = fill(lat, lambda t, r: t * np.ones_like(r))
    t_len = 0.375
    val = line_integrals(lat, H, 1.0, 0.25, 0.0, t_len)
    assert val == pytest.approx(t_len ** 2 / 2.0, abs=1e-13)


def test_line_integral_additive():
    lat = make_lattice(nt=32)
    H = fill(lat, lambda t, r: np.cos(t) * (1 + r))
    split = 10 * lat.delta
    whole = line_integrals(lat, H, 1.0, 0.25, 0.0, 0.4)
    a = line_integrals(lat, H, 1.0, 0.25, 0.0, split)
    b = line_integrals(lat, H, 1.0, 0.25, split, 0.4)
    assert whole == pytest.approx(a + b, abs=1e-13)


def test_rim_line_is_the_diagonal_cumulative():
    # on rows the -45 line from (0, t) to the rim is aligned: the kernel's
    # node values give the -45 cumulative D[i, 0]
    lat = make_lattice(nt=24, speed=0.2)
    H = fill(lat, lambda t, r: np.sin(2.0 * t + 0.3) * np.cos(1.1 * r) + t)
    _, D = diag_cumulatives(H, lat.delta)
    lines = line_integrals(lat, H, -1.0, lat.times, 0.0, lat.times)
    assert np.max(np.abs(lines - D[:, 0])) <= 1e-15


@settings(max_examples=20, deadline=None, derandomize=True)
@given(interior=st.lists(st.floats(0.02, 0.58), max_size=2, unique=True),
       slopes=st.lists(st.floats(0.0, 0.6), min_size=3, max_size=3),
       coef=st.tuples(st.floats(0.0, 1.5), st.floats(-3.0, 3.0), st.floats(0.0, 1.5),
                      st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1), nt=st.sampled_from([1, 2, 8, 40]))
def test_line_kernel_matches_scalar_oracle(interior, slopes, coef, seed, nt):
    # one batch of segments of both directions, on diagonals and between
    # them, with ends on and off the rows, against the scalar per-sample
    # trapezoid; then the batched derivative traces against one call per
    # point at the banks of the corner wavefronts and at the front point.
    # The heights include 1-row lattices and a tall one, where the
    # kernel's cumulative differences are largest
    ts = np.array([0.0] + sorted(interior) + [max(0.6, nt / 32)])
    rhos = 1.0 + np.concatenate(([0.0], np.cumsum(np.array(slopes[:len(ts) - 1]) * np.diff(ts))))
    front = FrontCurve(ts, rhos, 3.0)
    lat = CharLattice(front, 1.0 / 32, nt)
    b, c, e, f, g = coef
    H = fill(lat, lambda t, r: np.sin(b * t + c) * np.cos(e * r + f) + g * t * r)
    d, T, r_top = lat.delta, lat.nt * lat.delta, lat.j_ext * lat.delta

    rng = np.random.default_rng(seed)
    n = 60
    direction = rng.choice([-1.0, 1.0], n)
    t_a, t_b = np.sort(rng.uniform(0.0, T, (2, n)), axis=0)
    on_rows = rng.random((2, n)) < 0.3
    t_a = np.where(on_rows[0], np.floor(t_a / d) * d, t_a)
    t_b = np.where(on_rows[1], np.ceil(t_b / d) * d, t_b)
    span = t_b - t_a
    r_a = np.where(direction > 0, rng.uniform(0.0, r_top - span), rng.uniform(span, r_top))
    offset = r_a - direction * t_a
    offset = np.where(rng.random(n) < 0.3, np.round(offset / d) * d, offset)  # diagonals
    offset = np.clip(offset, np.where(direction > 0, -t_a, t_b),
                     np.where(direction > 0, r_top - t_b, r_top + t_a))
    got = line_integrals(lat, H, direction, offset, t_a, t_b)
    for k in range(n):
        ref = diag_line_integral(lat, H, t_a[k], offset[k] + direction[k] * t_a[k],
                                 int(direction[k]), t_b[k] - t_a[k])
        assert got[k] == pytest.approx(ref, abs=1e-13), k

    T = min(T, 0.5 * front.rho0)  # the traces are window-local
    wf = corner_wavefronts(front, T)
    pts_t, pts_r = [], []
    for t in (0.0, 0.375 * T, 0.6875 * T, T):
        rho_t = float(front.rho(t))
        for r_star in jump_radii(wf, t, rho_t):
            pts_t += [t, t]
            pts_r += [r_star - 1e-9, r_star + 1e-9]
        pts_t.append(t)
        pts_r.append(rho_t)
    g1, g2 = trace(lat, H, np.array(pts_t), np.array(pts_r))
    for k, (t, r) in enumerate(zip(pts_t, pts_r)):
        one = trace(lat, H, t, r)
        assert (g1[k], g2[k]) == pytest.approx(one, abs=1e-13), (t, r)


def test_local_traces_batch_matches_points():
    # every bank of a corner wavefront and every front point of every row
    # of a moving-front march, in one call per patch and one call per point
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=4.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.4, 1.0), v1=Profile.constant(0.2))
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    patches = march(data, front, horizon=0.75, delta=1.0 / 64)
    wf = corner_wavefronts(front, 0.75)
    assert len(patches) > 1
    for p in patches:
        pts_t, pts_r = [], []
        for t_loc in p.lattice.times:
            rho_t = float(p.rho_local(t_loc))
            for r_star in jump_radii(wf, p.t0 + t_loc, rho_t):
                pts_t += [t_loc, t_loc]
                pts_r += [r_star - 1e-9, r_star + 1e-9]
            pts_t.append(t_loc)
            pts_r.append(rho_t)
        batch = np.array(p.local_traces(np.array(pts_t), np.array(pts_r)))
        one = np.array([p.local_traces(t, r) for t, r in zip(pts_t, pts_r)]).T
        assert np.max(np.abs(batch - one)) <= 1e-13
        assert np.all(batch[0, np.isclose(pts_r, p.rho_local(np.array(pts_t)),
                                          rtol=0.0, atol=1e-15)] == 0.0)


def test_line_kernel_batch_is_each_segment_alone():
    # one batch mixing lines on and between diagonals of both directions,
    # ends on and between rows, zero-length segments and the reflected legs
    # phi_time_trace sends (the +45 leg from (0, -omega(eta)) and the
    # anti-diagonal eta, both up to the front at psi^-1(eta)): the kernel
    # reads all six rows of every segment in one pass, and each element is
    # bitwise the segment's own call and agrees with the per-sample oracle
    lat = make_lattice(delta=1.0 / 32, nt=12, speed=0.3)
    H = fill(lat, lambda t, r: np.sin(1.3 * t + 0.2) * np.cos(0.9 * r) + 0.5 * t * r)
    d, T = lat.delta, lat.nt * lat.delta
    front = lat.front
    eta = front.rho0 + np.array([3 * d, 0.37])
    t_star, om = front.psi_inverse(eta), front.omega(eta)
    segments = [  # (direction, offset, t_start, t_end)
        (1.0, 8 * d, 0.0, 0.3),
        (-1.0, 24 * d, 2 * d, 5.5 * d),
        (1.0, 0.2 + 0.3 * d, 0.1 * d, T),
        (-1.0, 0.6 + 0.5 * d, 1.5 * d, 7.25 * d),
        (1.0, 0.1, 0.25 * d, 0.75 * d),
        (1.0, 0.3, 4 * d, 4 * d),
        (-1.0, 0.41, 0.123, 0.123),
        (1.0, -om[0], 0.0, t_star[0]),
        (1.0, -om[1], 0.0, t_star[1]),
        (-1.0, eta[0], 0.0, t_star[0]),
        (-1.0, eta[1], 0.0, t_star[1]),
    ]
    together = line_integrals(lat, H, *map(np.array, zip(*segments)))
    for k, (direction, offset, t_a, t_b) in enumerate(segments):
        alone = line_integrals(lat, H, direction, offset, t_a, t_b)
        assert np.array_equal(together[k], alone), k
        ref = diag_line_integral(lat, H, t_a, offset + direction * t_a, int(direction), t_b - t_a)
        assert alone == pytest.approx(ref, abs=1e-13), k
    assert together[5] == 0.0 and together[6] == 0.0


def test_line_integral_refuses_segments_past_the_columns():
    # the columns end at r = 43/32: a segment past them has no values to
    # read, and the kernel refuses a line outside its family's layout, or
    # one on it that leaves the columns partway, rather than clip or wrap it
    lat = make_lattice(delta=1.0 / 32, nt=8)
    H = np.ones((lat.nt + 1, lat.j_ext + 1))
    assert lat.j_ext * lat.delta == pytest.approx(1.34375)
    for direction, offset in ((1.0, 2.0), (1.0, -0.5), (-1.0, -0.5), (-1.0, 2.0)):
        with pytest.raises(GeometryError):
            line_integrals(lat, H, direction, offset, 0.0, 0.1)
    for direction, offset, length in ((1.0, 1.3, 0.2), (-1.0, 0.1, 0.25)):
        with pytest.raises(GeometryError):
            line_integrals(lat, H, direction, offset, 0.0, length)
    assert line_integrals(lat, H, 1.0, 1.3, 0.0, 0.04375) == \
        pytest.approx(0.04375, abs=1e-15)


def test_line_kernel_memory_is_linear_in_segments():
    # 20k full-height segments between diagonals: a (rows x segments)
    # gather would hold 65 row values per segment, near 60 MB at its peak
    lat = make_lattice(delta=1.0 / 256, nt=64)
    H = fill(lat, lambda t, r: np.sin(2.0 * t + 0.3) * np.cos(1.1 * r))
    d, T, r_top = lat.delta, lat.nt * lat.delta, lat.j_ext * lat.delta
    rng = np.random.default_rng(5)
    n = 20000
    direction = rng.choice([-1.0, 1.0], n)
    offset = (np.floor(rng.uniform(0.0, r_top - T, n) / d) + rng.uniform(0.1, 0.9, n)) * d
    offset = np.where(direction > 0, offset, offset + T)
    tracemalloc.start()
    try:
        got = line_integrals(lat, H, direction, offset, 0.0, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    for k in range(0, n, 1000):
        ref = diag_line_integral(lat, H, 0.0, offset[k], int(direction[k]), T)
        assert got[k] == pytest.approx(ref, abs=1e-13), k


# -- derivative traces --------------------------------------------------------

def test_trace_zero_field():
    lat = make_lattice(nt=16)
    assert trace(lat, np.zeros(lat.inside.shape), 0.25, 0.5) == (0.0, 0.0)


def test_trace_g1_first_branch_constant():
    lat = make_lattice(nt=32, speed=0.2)
    g1, _ = trace(lat, const_field(lat), 0.4, 0.3)
    assert g1 == pytest.approx(0.4, abs=1e-13)


def test_trace_g2_echo_branch_constant():
    lat = make_lattice(nt=32, speed=0.2)
    _, g2 = trace(lat, const_field(lat), 0.5, 0.2)
    assert g2 == pytest.approx(2 * 0.2 - 0.5, abs=1e-13)


def test_trace_matches_row_batch():
    # every inside node of four rows as points of one call, against one call
    # per node and, where g1 needs no reflected leg, against the row-by-row
    # diagonal cumulatives: g1 = D[i, j], and g2 = C[i, j] less the echo
    # leg D[i - j, 0] behind the rim echo (j < i)
    lat = make_lattice(delta=1.0 / 64, nt=16, speed=0.3)
    H = fill(lat, lambda t, r: np.sin(2.0 * t + 0.3) * np.cos(1.1 * r))
    C, D = diag_cumulatives(H, lat.delta)
    ii, jj = np.nonzero(lat.inside[[0, 3, 9, 16]])
    ii = np.array([0, 3, 9, 16])[ii]
    g1_batch, g2_batch = trace(lat, H, ii * lat.delta, jj * lat.delta)
    direct = 0
    for k, (i, j) in enumerate(zip(ii, jj)):
        g1, g2 = trace(lat, H, i * lat.delta, j * lat.delta)
        assert g1_batch[k] == pytest.approx(g1, abs=1e-12), (i, j)
        assert g2_batch[k] == pytest.approx(g2, abs=1e-12), (i, j)
        if i + j <= lat.front.rho0 / lat.delta:
            direct += 1
            assert g1_batch[k] == pytest.approx(D[i, j], abs=1e-12), (i, j)
            echo = D[i - j, 0] if j < i else 0.0
            assert g2_batch[k] == pytest.approx(C[i, j] - echo, abs=1e-12), (i, j)
    assert direct > 100


def test_node_traces_read_the_diagonal_cumulatives(monkeypatch):
    # every inside node of a patch: rows 0 and nt, column 0 behind the rim
    # echo (j < i), zero-length legs (all four on row 0, the echo leg where
    # j >= i), the reflected nodes past i + j = rho0 / delta and a static
    # front on the lattice column j = 32, where h = 0.  Off the reflection
    # band the traces are the row-by-row diagonal cumulatives; the reflected
    # nodes read them too, less one S per anti-diagonal, whose two segments
    # per reflected anti-diagonal are the kernel's only batch.  The patch's
    # rows are one block of row_traces, with no points; at the reflected
    # nodes the block agrees with the point path
    data = ProblemData(R=3.0, rho0=0.5, alpha=0.5, horizon=4.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.4, 0.5), v1=Profile.constant(0.2))
    patch = march(data, FrontCurve.constant(0.5, 2.0, 3.0), horizon=0.125,
                  delta=1.0 / 64)[0]
    lat, d, F = patch.lattice, patch.lattice.delta, patch.F
    ii, jj = np.nonzero(lat.inside)
    t, r = ii * d, jj * d
    refl = ii + jj > 32
    front = jj == 32
    assert lat.nt == 8 and np.count_nonzero(front) == lat.nt + 1
    assert np.any(refl) and np.any((jj == 0) & (ii > 0)) and np.any((jj >= ii) & (ii > 0))

    segments = []
    block = quadrature._line_block

    def counted(values, d, C, direction, *args):
        segments.append(direction.size)
        return block(values, d, C, direction, *args)
    monkeypatch.setattr(quadrature, "_line_block", counted)
    rows = lat.row_block(0, lat.nt)
    none = np.empty(0)
    (g1, g2), _ = phi_time_trace(lat, F, patch.cumulatives, rows, none, none)
    g1, g2 = g1[ii, jj], g2[ii, jj]
    assert segments == [2 * len(np.unique((ii + jj)[refl]))]

    C, D = diag_cumulatives(F, d)
    echo = np.where(jj < ii, D[np.maximum(ii - jj, 0), 0], 0.0)
    assert np.max(np.abs(g1 - D[ii, jj])[~refl]) <= 1e-13
    assert np.max(np.abs(g2 - (C[ii, jj] - echo))[~refl]) <= 1e-13
    assert np.all(g1[ii == 0] == 0.0) and np.all(g2[ii == 0] == 0.0)
    g1_ref, g2_ref = phi_time_trace_segments(lat, F, t, r)
    assert np.max(np.abs(g1 - g1_ref)[refl]) <= 1e-13
    assert np.max(np.abs(g2 - g2_ref)[refl]) <= 1e-13

    segments.clear()
    (h, h_t, h_r), _ = patch.row_traces(np.arange(lat.nt + 1), none, none)
    assert segments == [2 * len(np.unique((ii + jj)[refl]))]
    h, h_t, h_r = h[ii, jj], h_t[ii, jj], h_r[ii, jj]
    (d_t, d_r), _ = free_derivatives(patch.hdata, lat.front, d, rows, none, none)
    d_t, d_r = d_t[ii, jj], d_r[ii, jj]
    ref_t = d_t + 0.5 * (D[ii, jj] + C[ii, jj] - echo)
    ref_r = d_r + 0.5 * (D[ii, jj] - C[ii, jj] + echo)
    assert np.max(np.abs(h_t - ref_t)[~refl]) <= 1e-13
    assert np.max(np.abs(h_r - ref_r)[~refl]) <= 1e-13
    assert np.all(h[front] == 0.0)
    assert np.all(h[~front] == lat.values[ii, jj][~front])
    for k in np.flatnonzero(refl):
        assert (g1[k], g2[k]) == pytest.approx(trace(lat, F, t[k], r[k]), abs=1e-13)
        assert (h[k], h_t[k], h_r[k]) == pytest.approx(patch.local_traces(t[k], r[k]), abs=1e-13)



_ORACLE_COEF = (1.0, 0.5, 1.2, -0.3, 0.4)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(delta=st.sampled_from([1.0 / 64, 1.0 / 100, 1.0 / 128]),
       interior=st.lists(st.floats(0.02, 0.48), max_size=2, unique=True),
       slopes=st.lists(st.floats(0.0, 0.6), min_size=3, max_size=3),
       coef=st.tuples(st.floats(0.0, 1.5), st.floats(-3.0, 3.0), st.floats(0.0, 1.5),
                      st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
       nt=st.integers(1, 32),
       rows=st.tuples(st.integers(0, 32), st.integers(0, 32)))
# the seam's end row, the audit's one-row call [i] and a block with lo > 0
@example(delta=1.0 / 100, interior=[0.25], slopes=[0.3, 0.1, 0.5], coef=_ORACLE_COEF, nt=32,
         rows=(32, 32))
@example(delta=1.0 / 64, interior=[0.1, 0.3], slopes=[0.5, 0.0, 0.2], coef=_ORACLE_COEF,
         nt=24, rows=(9, 9))
@example(delta=1.0 / 128, interior=[], slopes=[0.45, 0.0, 0.0], coef=_ORACLE_COEF, nt=32,
         rows=(5, 27))
def test_trace_matches_four_segment_oracle(delta, interior, slopes, coef, nt, rows):
    # every inside node of rows 0 ... nt, reflected nodes and column 0
    # included, the banks of the corner wavefronts and each row's front
    # point, in one call, against every point's four segments, on fronts
    # with 2-4 knots.  Then a block of rows lo..hi with the banks and front
    # points in the same call, as the audit and the seam make it: its
    # inside nodes against the four segments at (i delta, j delta), and its
    # free part against the direct branches there
    ts = np.array([0.0] + sorted(interior) + [0.5])
    rhos = 1.0 + np.concatenate(([0.0], np.cumsum(np.array(slopes[:len(ts) - 1]) * np.diff(ts))))
    front = FrontCurve(ts, rhos, 3.0)
    lat = CharLattice(front, delta, nt)
    b, c, e, f, g = coef
    H = fill(lat, lambda t, r: np.sin(b * t + c) * np.cos(e * r + f) + g * t * r)
    ii, jj = np.nonzero(lat.inside)
    assert np.any((ii + jj) * delta > front.rho0 + 1e-12) and np.any((jj == 0) & (ii > 0))
    pts_t, pts_r = [], []
    wf = corner_wavefronts(front, nt * delta)
    for t in lat.times:
        rho_t = float(front.rho(t))
        for r_star in jump_radii(wf, t, rho_t):
            pts_t += [t, t]
            pts_r += [r_star - 1e-9, r_star + 1e-9]
        pts_t.append(t)
        pts_r.append(rho_t)
    t = np.concatenate((ii * delta, pts_t))
    r = np.concatenate((jj * delta, pts_r))
    got = np.array(trace(lat, H, t, r))
    want = np.array(phi_time_trace_segments(lat, H, t, r))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    block = lat.row_block(*sorted(min(k, nt) for k in rows))
    lo, hi, J = block
    t, r = np.array(pts_t), np.array(pts_r)
    on_block, at_points = phi_time_trace(lat, H, quadrature._line_cumulatives(H, delta), block,
                                         t, r)
    assert on_block[0].shape == (hi - lo + 1, J + 1)
    rr = np.arange(J + 1) * delta
    k, j = np.nonzero(rr[None, :] <= lat.rho_rows[lo:hi + 1, None] + 1e-12)
    tn, rn = lat.times[lo + k], rr[j]
    got = np.array([np.concatenate((gb[k, j], gp)) for gb, gp in zip(on_block, at_points)])
    want = np.array(phi_time_trace_segments(lat, H, np.concatenate((tn, t)),
                                            np.concatenate((rn, r))))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=1.0, w=Profile.sine(0.1, 2.0),
                       v0=Profile.sine_bump(0.4, 1.0), v1=Profile.constant(0.2))
    hd = to_h_data(data)
    on_block, at_points = free_derivatives(hd, front, delta, block, t, r)

    def direct(t, r):
        fp = df_plus(hd, t + r, front._omega_unchecked(t + r), front.omega_dot(t + r))
        fm = df_minus(hd, t - r)
        return fp + fm, fp - fm
    for got_b, want_b in zip(on_block, direct(tn, rn)):
        assert np.max(np.abs(got_b[k, j] - want_b)) <= 1e-13 * np.max(np.abs(want_b))
    for got_p, want_p in zip(at_points, direct(t, r)):
        assert np.array_equal(got_p, want_p)


def test_trace_consistent_with_cone_difference():
    # centered lattice-step difference of Phi in t approaches g1 + g2 at
    # second order for a smooth field vanishing at the front
    errs = []
    for delta in (1.0 / 32, 1.0 / 64):
        lat = make_lattice(delta=delta, nt=int(round(0.25 / delta)) + 4, speed=0.0)
        H = fill(lat, lambda t, r: np.cos(t) * np.sin(np.pi * r))
        t0, r0 = 0.125, 0.5
        i0 = int(round(t0 / delta))
        reg_p = cone_region(lat.front, (i0 + 1) * delta, r0)
        reg_m = cone_region(lat.front, (i0 - 1) * delta, r0)
        fd = (phi_of(lat, H, reg_p) - phi_of(lat, H, reg_m)) / (2 * delta)
        g1, g2 = trace(lat, H, t0, r0)
        errs.append(abs(fd - (g1 + g2)))
    assert errs[1] < 0.35 * errs[0] + 1e-12


def test_trace_r_derivative_against_difference():
    delta = 1.0 / 64
    lat = make_lattice(delta=delta, nt=20, speed=0.0)
    H = fill(lat, lambda t, r: np.cos(t) * np.sin(np.pi * r))
    t0, r0 = 0.25, 0.5
    j0 = int(round(r0 / delta))
    reg_p = cone_region(lat.front, t0, (j0 + 1) * delta)
    reg_m = cone_region(lat.front, t0, (j0 - 1) * delta)
    fd = (phi_of(lat, H, reg_p) - phi_of(lat, H, reg_m)) / (2 * delta)
    g1, g2 = trace(lat, H, t0, r0)
    assert fd == pytest.approx(g1 - g2, abs=2e-4)


def trace_patch():
    # a window of rho0 = 1, so its traces hold up to t = 0.5, with its front
    # at rho(0.125) = 1.0625 on its last row
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.0, horizon=4.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.4, 1.0), v1=Profile.zero())
    return march(data, FrontCurve.affine(1.0, 0.5, 2.0, 3.0), horizon=0.125,
                 delta=1.0 / 32)[0]


def test_trace_window_precondition():
    with pytest.raises(GeometryError, match=r"window-local.*\(0\.9, 0\.1\).*rho0/2 = 0\.5"):
        trace_patch().local_traces(0.9, 0.1)


def test_trace_errors_name_the_point_and_the_bound():
    # the first offending point of a batch, with the bound it breaks; the
    # trace points are checked once, in local_traces
    patch = trace_patch()
    with pytest.raises(GeometryError, match=r"window-local.*\(t, r\) = \(0\.6, 0\.2\)"
                                            r".*rho0/2 = 0\.5"):
        patch.local_traces(np.array([0.25, 0.6, 0.9]), np.array([0.1, 0.2, 0.3]))
    for r, bad in ((np.array([0.5, 1.1, 1.2]), r"1\.1"), (np.array([0.5, -0.1]), r"-0\.1")):
        with pytest.raises(GeometryError, match=rf"outside the domain.*\(t, r\) = \(0\.125, {bad}\)"
                                                r".*\[0, 1\.0625\]"):
            patch.local_traces(0.125, r)
    # the columns end at r = 145/64
    lat = make_lattice(nt=64)
    H = const_field(lat)
    for direction, end in ((1.0, r"\(0, 2\.5\)"), (-1.0, r"\(0\.1, -0\.05\)")):
        with pytest.raises(GeometryError, match=r"outside the lattice's columns.*"
                                                rf"\(t, r\) = {end}.*\[0, 2\.26562\]"):
            line_integrals(lat, H, direction, np.array([0.5, 2.5 if direction > 0 else 0.05]),
                                0.0, 0.1)
