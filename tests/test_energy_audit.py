import math

import numpy as np
import pytest

from debondsim.energy_audit import (
    _global_rows, _patch_traces, _rim_work_rates, _segments, audit, debond_dissipation,
)
from debondsim import energy_audit, prescribed, quadrature
from debondsim.fields import ProblemData, Profile, Toughness, release_rate, to_h_data
from debondsim.geometry import FrontCurve, GeometryError, corner_wavefronts
from debondsim.griffith import run
from debondsim.prescribed import FieldPatch, locate_patch, march
from debondsim.quadrature import CharLattice
from reference import (
    energy_rate, energy_rate_v_form, err_from_energy_quotient, err_gbeta, front_bracket,
    rim_power, row_radial_integrals,
)


def bump_data(R=3.0, rho0=1.0, alpha=0.0, amp=0.4, w=None, v1=None):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=4.0,
                       w=w or Profile.zero(),
                       v0=Profile.sine_bump(amp, rho0),
                       v1=v1 or Profile.zero())


def zero_data(R=3.0, rho0=1.0, alpha=0.0):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=4.0,
                       w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero())


def ledger(data, front, horizon, delta):
    """A prescribed solve and its audit; the toughness enters only the D,
    KKT and MDP columns, which the tests using this do not read."""
    tough = Toughness.constant(1.0, rho0=front.rho0, R=front.R)
    patches = march(data, front, horizon=horizon, delta=delta)
    return patches, audit(patches, front, data, tough)


# -- internal energy ----------------------------------------------------------

def test_zero_data_zero_energy():
    data = zero_data()
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    _, led = ledger(data, front, 0.25, 1.0 / 32)
    assert led.E[0] == 0.0
    assert led.E[-1] == 0.0 and led.times[-1] == 0.25


def test_initial_energy_exact_kinetic():
    # v0 = 0, v1 = c: E(0) = pi c^2 int_0^1 (2 - r) dr = 1.5 pi c^2
    c = 0.7
    data = ProblemData(R=2.0, rho0=1.0, alpha=0.0, horizon=1.0,
                       w=Profile.zero(), v0=Profile.zero(),
                       v1=Profile.constant(c))
    front = FrontCurve.constant(1.0, 1.0, 2.0)
    _, led = ledger(data, front, 0.25, 1.0 / 64)
    assert led.E[0] == pytest.approx(1.5 * math.pi * c * c, rel=1e-12)


# -- dissipations -------------------------------------------------------------

def test_friction_zero_without_damping():
    data = bump_data(alpha=0.0)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    _, led = ledger(data, front, 0.25, 1.0 / 32)
    assert led.A_fric[-1] == 0.0 and led.times[-1] == 0.25


def test_friction_nondecreasing_and_consistent():
    data = bump_data(alpha=1.0)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches, led = ledger(data, front, 0.25, 1.0 / 64)
    vals = led.A_fric[::2]  # at t = 0, 1/32, ..., 1/4
    assert all(b >= a - 1e-14 for a, b in zip(vals[:-1], vals[1:]))
    # centered difference of A against its integrand
    step = 1.0 / 32
    mid = 0.125
    i = int(round(mid * 64))
    fd = (led.A_fric[i + 2] - led.A_fric[i - 2]) / (2 * step)
    a_mid = _patch_traces(patches[0], [i], [], np.empty(0), False)[1][0]
    assert fd == pytest.approx(2 * math.pi * 1.0 * a_mid, rel=2e-2)


def test_row_integrals_match_the_per_row_construction():
    # the audit builds every row's cells at once, in the trace call that
    # also takes the front and rim points; one row and one segment at a
    # time gives the same sums.  Beside the corner wavefronts, extra
    # jump lines cross every row at a node, within a bank's width of one,
    # twice in one cell, twice at one radius and in the front cell
    data = bump_data(alpha=0.5, v1=Profile.constant(0.2))
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    d = 1.0 / 64
    patches = march(data, front, horizon=0.375, delta=d)
    # (the front cell: rho = (64 + 0.3 k) d on row k, which 70.3 d - t
    # crosses on row 5 and 73.05 d - t on row 7)
    extra = [(0.0, 0.375, "-", c * d) for c in (40, 24 + 5e-10 / d, 20.3, 20.6, 70.3, 73.05)]
    extra += [(0.0, 0.375, "+", c) for c in (-10.5 * d, -10.5 * d, -1.0 + 0.2 * d)]
    for wavefronts in ([], corner_wavefronts(front, 0.375) + extra):
        for p in patches:
            rows = np.arange(p.lattice.nt + 1)
            e_a = _patch_traces(p, rows, wavefronts, rows * d, True)[:2]
            for got, ref in zip(e_a, row_radial_integrals(p, rows, wavefronts)):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_the_row_where_a_corner_wavefront_reaches_the_rim_balances():
    # the wavefront from the front's corner (0, rho0) reaches the rim on
    # the row t = rho0 = 1; the rim node lies on the jump, so that row's
    # energy starts from a bank just past it, like any other jump, and its
    # balance residual is of the size of its neighbours', not a spike of
    # the energy jump across the wavefront (3.76e-3 against 2.3e-5 and
    # 6.8e-5 before the bank).  A front running to the rim across a
    # toughness breakpoint, with no friction
    data = ProblemData(R=2.0, rho0=1.0, alpha=0.0, horizon=4.0, w=Profile.zero(),
                       v0=Profile.sine_bump(0.9, 1.0), v1=Profile.constant(-0.8))
    tough = Toughness.from_pieces([(1.0, Profile.constant(0.02)),
                                   (1.3, Profile.constant(0.05))], R=2.0)
    res = run(data, tough, horizon=4.0, delta=1.0 / 128)
    led = audit(res.patches, res.front, data, tough)
    k = int(np.flatnonzero(led.times == 1.0)[0])
    assert 0 < k < led.times.size - 1
    wf = corner_wavefronts(res.front, led.times[-1])
    assert ("-", 1.0) in [(kind, c) for ta, tb, kind, c in wf if tb == 1.0]
    rel = np.abs(led.edp_residual) / np.abs(led.T_total)
    assert rel[k] <= 3.0 * min(rel[k - 1], rel[k + 1]), rel[k - 1:k + 2]


def test_debond_dissipation_static_front():
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    tough = Toughness.constant(2.0, rho0=1.0, R=3.0)
    assert debond_dissipation(front, tough, 1.0) == 0.0


def test_debond_dissipation_constant_kappa():
    # 2 pi k [R (rho - rho0) - (rho^2 - rho0^2)/2], R=2, 1 -> 1.5: 0.75 pi
    front = FrontCurve.affine(1.0, 0.5, 1.0, 2.0)
    tough = Toughness.constant(1.0, rho0=1.0, R=2.0)
    assert debond_dissipation(front, tough, 1.0) == pytest.approx(0.75 * math.pi, rel=1e-12)


def test_debond_dissipation_additive():
    front = FrontCurve.affine(1.0, 0.4, 1.5, 3.0)
    tough = Toughness.from_pieces([(1.0, Profile.affine(1.0, 0.3))], R=3.0)
    whole = debond_dissipation(front, tough, 1.4)
    part = debond_dissipation(front, tough, 0.7)
    rest_front = FrontCurve(np.array([0.0, 0.7]),
                            np.array([float(front.rho(0.7)), float(front.rho(1.4))]), 3.0)
    tough2 = Toughness.from_pieces([(float(front.rho(0.7)), Profile.affine(1.0, 0.3))], R=3.0)
    rest = debond_dissipation(rest_front, tough2, 0.7)
    assert whole == pytest.approx(part + rest, rel=1e-12)


def test_debond_dissipation_array_matches_scalar_calls():
    # times before and after the front starts, on both sides of a toughness
    # breakpoint and at it: one array call gives every scalar call's value
    front = FrontCurve(np.array([0.0, 0.3, 1.5]), np.array([1.0, 1.0, 1.6]), 3.0)
    tough = Toughness.from_pieces([(1.0, Profile.affine(1.0, 0.3)),
                                   (1.3, Profile.constant(2.0))], R=3.0)
    times = np.concatenate((np.linspace(0.0, 1.5, 31), [0.9]))  # rho(0.9) = 1.3
    got = debond_dissipation(front, tough, times)
    assert np.array_equal(got, [debond_dissipation(front, tough, float(t)) for t in times])
    assert got[0] == 0.0 and np.all(np.diff(got[:-1]) >= 0.0)


def test_debond_dissipation_matches_the_closed_form_across_a_breakpoint():
    # kappa = 0.02 + 0.03 r on [1, 1.3), then 0.05, under rho = 1 + 0.9 t:
    # one array call at 200 times, before, at and past the breakpoint, against
    # the closed form of 2 pi int (R - r) kappa dr
    R, b = 2.0, 1.3
    front = FrontCurve.affine(1.0, 0.9, 1.1, R)
    tough = Toughness.from_pieces([(1.0, Profile.affine(0.02, 0.03)),
                                   (b, Profile.constant(0.05))], R=R)

    def prim(r, k0, k1):  # an antiderivative of (R - r) (k0 + k1 r)
        return k0 * R * r + (k1 * R - k0) * r * r / 2.0 - k1 * r ** 3 / 3.0

    times = np.linspace(0.0, 1.1, 200)
    got = debond_dissipation(front, tough, times)
    rho = 1.0 + 0.9 * times
    first = np.minimum(rho, b)
    exact = 2.0 * math.pi * (prim(first, 0.02, 0.03) - prim(1.0, 0.02, 0.03)
                             + prim(np.maximum(rho, b), 0.05, 0.0) - prim(b, 0.05, 0.0))
    assert got[0] == 0.0
    err = np.abs(got - exact)
    assert np.all(err <= 1e-12 * exact), np.max(err[1:] / exact[1:])


def test_debond_dissipation_across_a_breakpoint_is_exact_for_constant_pieces():
    # (R - r) kappa is linear on each constant piece, so Simpson's rule is
    # exact there; a piece's last node sits on the next breakpoint and must
    # take its own piece's toughness, not the next one's
    R, kappas, b = 2.0, (0.5, 2.0), 1.2
    front = FrontCurve.affine(1.0, 0.5, 1.0, R)
    tough = Toughness.from_pieces([(1.0, Profile.constant(kappas[0])),
                                   (b, Profile.constant(kappas[1]))], R=R)
    for t in (0.6, 0.75, 1.0):
        rho = float(front.rho(t))
        exact = 2.0 * math.pi * sum(k * (R * (hi - lo) - (hi * hi - lo * lo) / 2.0)
                                    for k, lo, hi in ((kappas[0], 1.0, b), (kappas[1], b, rho)))
        assert debond_dissipation(front, tough, t) == pytest.approx(exact, rel=1e-12), t


def test_run_edp_converges_past_a_toughness_breakpoint():
    # rim_debond's data: the front crosses rho = 1.3 near t = 0.45, and the
    # energy balance at fixed times past the crossing must keep converging
    # under refinement, not plateau at a dissipation overcount
    R = 2.0
    data = ProblemData(R=R, rho0=1.0, alpha=0.0, horizon=0.8, w=Profile.zero(),
                       v0=Profile.sine_bump(0.9, 1.0), v1=Profile.constant(-0.8))
    tough = Toughness.from_pieces([(1.0, Profile.constant(0.02)),
                                   (1.3, Profile.constant(0.05))], R=R)
    residual = {}
    for delta in (1.0 / 128, 1.0 / 256):
        res = run(data, tough, horizon=0.8, delta=delta)
        assert res.t_star >= 0.75 and float(res.front.rho(0.625)) > 1.3
        led = audit(res.patches, res.front, data, tough)
        rows = [round(t / delta) for t in (0.625, 0.75)]
        assert np.allclose(led.times[rows], (0.625, 0.75), rtol=0.0, atol=1e-12)
        residual[delta] = np.abs(led.edp_residual[rows])
    for coarse, fine in zip(residual[1.0 / 128], residual[1.0 / 256]):
        assert coarse >= 1.5 * fine, (coarse, fine)


# -- energy rate and boundary power --------------------------------------------

def test_energy_rate_static_unloaded():
    data = bump_data()
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(data, front, horizon=0.25, delta=1.0 / 32)
    assert energy_rate(patches, front, data, 0.125) == 0.0


def test_energy_rate_static_loaded_is_rim_power():
    w = Profile.sine(0.2, 3.0)
    data = bump_data(w=w)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(data, front, horizon=0.25, delta=1.0 / 64)
    t = 0.125
    # the reference rate against the audit's rim power, read off the traces
    p = locate_patch(patches, t)
    _, h_t, h_r = p.local_traces(t - p.t0, 0.0)
    assert energy_rate(patches, front, data, t) == pytest.approx(
        float(_rim_work_rates(p, data, t, w.deriv(t), h_r + h_t)), rel=1e-14)


def test_q_power_zero_field():
    data = zero_data(R=3.0)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(data, front, horizon=0.25, delta=1.0 / 32)
    gamma = 0.8  # an opening rate: the rim power is gamma * Q = gamma * 2 pi R gamma
    _, h_t, h_r = patches[0].local_traces(0.0, 0.0)
    assert float(_rim_work_rates(patches[0], data, 0.0, np.asarray(gamma), h_r + h_t)) == (
        pytest.approx(gamma * 2 * math.pi * 3.0 * gamma, rel=1e-14))


def test_energy_rate_forms_agree():
    data = bump_data(alpha=1.0, w=Profile.sine(0.15, 2.0), v1=Profile.constant(0.2))
    front = FrontCurve.affine(1.0, 0.35, 2.0, 3.0)
    patches = march(data, front, horizon=0.5, delta=1.0 / 64)
    for t in (0.0625, 0.21875, 0.40625):
        a = energy_rate(patches, front, data, t)
        b = energy_rate_v_form(patches, front, data, t)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def _rate_vs_difference_errors(data, front, deltas, t0=0.15625):
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    errs = []
    for delta in deltas:
        patches = march(data, front, horizon=0.3125, delta=delta)
        led = audit(patches, front, data, tough)
        k = int(round(t0 / delta))
        fd = (led.T_total[k + 1] - led.T_total[k - 1]) / (led.times[k + 1] - led.times[k - 1])
        errs.append(abs(fd - energy_rate(patches, front, data, t0)))
    return errs


def test_energy_rate_matches_differenced_energy_static():
    # static front with a rim load: the difference converges at second order
    data = bump_data(alpha=0.5, w=Profile.sine(0.1, 2.0))
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    errs = _rate_vs_difference_errors(data, front, (1.0 / 32, 1.0 / 64, 1.0 / 128))
    assert errs[1] < 0.4 * errs[0]
    assert errs[2] < 0.4 * errs[1]


def test_energy_rate_matches_differenced_energy_moving():
    # moving front: with jump-aware seams and split cells the differenced
    # series still converges cleanly; fitted slope must stay >= 1
    data = bump_data(alpha=0.5)
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    deltas = (1.0 / 32, 1.0 / 64, 1.0 / 128)
    errs = _rate_vs_difference_errors(data, front, deltas)
    order = np.polyfit(np.log2(deltas), np.log2(errs), 1)[0]
    assert order >= 1.0
    assert errs[-1] < errs[0]


def test_external_work_constant_w():
    data = bump_data(w=Profile.constant(0.0))
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    _, led = ledger(data, front, 0.25, 1.0 / 32)
    assert led.W_ext[-1] == 0.0 and led.times[-1] == 0.25


def test_audit_of_a_rim_at_rest_traces_no_rim_bracket(monkeypatch):
    # w = 0: the rim power multiplies w' = 0 on every row, so the audit
    # reads no rim trace and the external work is exactly 0.  Each patch
    # makes one trace call: its rows as one block, and as points only its
    # row banks and its front points (one per row and one per front-segment
    # midpoint), so no point at the rim r = 0
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.25, delta=1.0 / 64)
    traced = []
    trace = FieldPatch.row_traces

    def counted(self, rows, t_loc, r):
        traced.append((np.size(rows), np.asarray(r)))
        return trace(self, rows, t_loc, r)
    monkeypatch.setattr(FieldPatch, "row_traces", counted)
    led = audit(res.patches, res.front, data, tough)
    assert np.all(led.W_ext == 0.0)

    wf = corner_wavefronts(res.front, led.times[-1])
    segments = [p.row_segments(ii, wf) for p, ii, _ in _global_rows(res.patches)]
    banks = sum(np.count_nonzero(s.lead) + np.count_nonzero(s.tail) for s in segments)
    midpoints = _segments(res.front, led.times)[2].size
    assert len(traced) == len(res.patches) and banks > len(res.patches)
    assert sum(rows for rows, _ in traced) == led.times.size
    assert sum(r.size for _, r in traced) == banks + led.times.size + midpoints
    assert all(np.all(r > 0.0) for _, r in traced)


# -- release rate ---------------------------------------------------------------

def test_err_g0_zero_data():
    data = zero_data()
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    _, led = ledger(data, front, 0.25, 1.0 / 32)
    assert np.all(led.G0 == 0.0)


def test_err_g0_initial_formula():
    data = bump_data(alpha=0.7, v1=Profile.constant(0.3))
    hd = to_h_data(data)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    _, led = ledger(data, front, 0.25, 1.0 / 32)
    bracket = float(hd.h0.deriv(1.0)) - float(hd.h1(1.0))
    expect = bracket ** 2 / (2.0 * (3.0 - 1.0))
    assert led.G0[0] == pytest.approx(expect, rel=1e-12)
    assert np.all(led.G0 >= 0.0)


def test_err_g0_square_law():
    # doubling the data doubles the bracket, quadrupling the rate
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    d1 = bump_data(amp=0.2)
    d2 = bump_data(amp=0.4)
    g1 = ledger(d1, front, 0.25, 1.0 / 32)[1].G0[0]
    g2 = ledger(d2, front, 0.25, 1.0 / 32)[1].G0[0]
    assert g2 == pytest.approx(4.0 * g1, rel=1e-12)


def test_err_gbeta_scaling():
    assert err_gbeta(1.0, 0.0) == 1.0
    assert err_gbeta(3.0, 0.5) == pytest.approx(1.0)
    assert err_gbeta(1.0, 1.0 - 1e-9) == pytest.approx(0.0, abs=1e-8)
    bs = np.linspace(0.0, 0.99, 25)
    vals = [err_gbeta(2.0, float(b)) for b in bs]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    with pytest.raises(ValueError):
        err_gbeta(1.0, 1.0)


def test_err_quotient_denominator():
    front = FrontCurve.affine(1.0, 0.25, 2.0, 2.0)
    t = 0.0
    # unit load-frozen rate: quotient = 1 / (2 pi (R - rho) rho') = 2/pi
    assert err_from_energy_quotient(front, t, -1.0) == pytest.approx(
        1.0 / (2 * math.pi * 1.0 * 0.25), rel=1e-12)
    static = FrontCurve.constant(1.0, 2.0, 2.0)
    with pytest.raises(GeometryError):
        err_from_energy_quotient(static, 0.5, -1.0)


def test_two_path_release_rate_agreement():
    # closed-form rate vs the energy quotient built from differenced series
    data = bump_data(alpha=0.0, amp=0.5)
    front = FrontCurve.affine(1.0, 0.3, 2.0, 3.0)
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    patches = march(data, front, horizon=0.375, delta=1.0 / 128)
    led = audit(patches, front, data, tough)
    scale = max(led.G0.max(), 1.0)
    for k in range(8, len(led.times) - 8, 16):
        t = float(led.times[k])
        fd = (led.T_total[k + 1] - led.T_total[k - 1]) / (led.times[k + 1] - led.times[k - 1])
        quot = err_from_energy_quotient(front, t, fd)
        direct = err_gbeta(led.G0[k], float(front.rho_dot(t)))
        assert quot == pytest.approx(direct, abs=2e-3 * scale)


# -- the full audit -------------------------------------------------------------

def test_audit_static_run_conserves_energy():
    data = bump_data(alpha=1.0, v1=Profile.sine_bump(0.2, 1.0))
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    tough = Toughness.constant(5.0, rho0=1.0, R=3.0)
    patches = march(data, front, horizon=0.5, delta=1.0 / 64)
    led = audit(patches, front, data, tough)
    assert np.all(np.diff(led.A_fric) >= -1e-14)
    assert np.allclose(led.T_total, led.E + led.A_fric)
    assert np.all(led.D_debond == 0.0)
    assert led.max_rel_edp < 5e-4
    assert np.all(led.kkt_residual <= 1e-12)  # static front: no overshoot term


def test_audit_conservation_first_order_for_jump_data():
    # kinetic data not vanishing at the front propagate a derivative jump;
    # the conservation defect then decays at first order
    data = bump_data(alpha=1.0, v1=Profile.constant(0.2))
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    tough = Toughness.constant(5.0, rho0=1.0, R=3.0)
    rels = []
    for delta in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        led = audit(march(data, front, horizon=0.5, delta=delta), front, data, tough)
        rels.append(led.max_rel_edp)
    assert rels[0] < 2e-2
    assert rels[1] < 0.65 * rels[0]
    assert rels[2] < 0.65 * rels[1]


def test_static_load_edp_second_order():
    # the static_load benchmark scenario: a rim load on a front that never
    # moves; its balance defect falls by 4.0 per halving of the step
    data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=0.75, w=Profile.sine(0.1, 2.0),
                       v0=Profile.sine_bump(0.3, 1.0), v1=Profile.zero())
    tough = Toughness.constant(1e6, rho0=1.0, R=3.0)
    rels = []
    for delta in (1.0 / 128, 1.0 / 256, 1.0 / 512):
        res = run(data, tough, horizon=0.75, delta=delta)
        assert np.all(res.front.rho_knots == 1.0)
        rels.append(audit(res.patches, res.front, data, tough).max_rel_edp)
    assert rels[0] < 2e-5
    assert rels[1] < rels[0] / 3.5
    assert rels[2] < rels[1] / 3.5


def test_audit_batches_traces_per_patch(monkeypatch):
    # the KKT test scenario, and the same under a rim load: the audit takes
    # every trace and bracket of a patch from one batched call, whatever
    # its row count; a per-row or per-point loop multiplies these counts by
    # the rows or the points (at this step the scenario has 4 patches for
    # 97 rows)
    calls = {}

    def count(owner, name):
        orig = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(CharLattice, "sample")
    count(prescribed, "phi_time_trace")
    count(quadrature, "char_line_integrals")
    count(FieldPatch, "local_traces")
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    for w in (None, Profile.sine(0.1, 2.0)):
        data = bump_data(amp=0.4, alpha=0.5, w=w)
        res = run(data, tough, horizon=0.375, delta=1.0 / 256)
        calls.clear()
        led = audit(res.patches, res.front, data, tough)
        n = len(res.patches)
        assert len(led.times) > 20 * n
        # one line-kernel call per patch: its one trace call takes the
        # brackets at the front and the rim with the row points
        assert calls.get("char_line_integrals", 0) <= n
        # local_traces reads h at the wavefront banks with one sample call
        for name in ("sample", "phi_time_trace", "local_traces"):
            assert calls.get(name, 0) <= n, name


def test_one_cumulative_build_per_patch(monkeypatch):
    # a patch's traces in the run's seams and in the audit (the rim load
    # makes it trace the rim too) share one cached build of its diagonal
    # cumulatives: over a run and its audit, at most one build per patch
    data = bump_data(amp=0.3, alpha=0.5, w=Profile.sine(0.1, 2.0))
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    builds = []
    build = quadrature._line_cumulatives

    def counted(values, delta):
        builds.append(values.shape)
        return build(values, delta)
    monkeypatch.setattr(quadrature, "_line_cumulatives", counted)
    monkeypatch.setattr(prescribed, "_line_cumulatives", counted)
    res = run(data, tough, horizon=0.375, delta=1.0 / 128)
    audit(res.patches, res.front, data, tough)
    assert len(res.patches) > 1
    assert len(builds) <= len(res.patches)
    assert sorted(builds) == sorted(p.F.shape for p in res.patches)


def test_segment_residuals_trace_g0_at_the_midpoint():
    # each row reports the segment holding it, checked at the segment's
    # midpoint with G0 traced there in the patch holding it, not read off
    # the rows around it: a per-segment recomputation agrees to rounding
    data = bump_data(alpha=0.3)
    front = FrontCurve(np.array([0.0, 0.1003, 0.2011, 0.3125]), np.array([1.0, 1.02, 1.07, 1.1]), 3.0)
    tough = Toughness.constant(0.5, rho0=1.0, R=3.0)
    patches = march(data, front, horizon=0.3125, delta=1.0 / 64)
    led = audit(patches, front, data, tough)
    tk = front.t_knots
    seg = np.clip(np.searchsorted(tk, led.times, side="right") - 1, 0, len(tk) - 2)
    mid = 0.5 * (tk[seg] + np.minimum(tk[seg + 1], led.times[-1]))

    def g0_at(t):  # the audit's route: h_r - h_t traced at the front point
        p = locate_patch(patches, t)
        t_loc = t - p.t0
        _, h_t, h_r = p.local_traces(t_loc, p.rho_local(t_loc))
        return release_rate(p.hdata, h_r - h_t, front.rho(t), t_loc)
    g0 = np.array([float(g0_at(t)) for t in mid])
    sigma = front.rho_dot(tk[seg])
    gap = np.abs(sigma - np.maximum(0.0, (g0 - 0.5) / (g0 + 0.5)))
    assert np.allclose(led.mdp_gap, gap, rtol=1e-12, atol=0.0)


def test_ledger_brackets_match_the_direct_line_integrals(monkeypatch):
    # the audit reads G0 and the rim power off each patch's one trace call;
    # the reference builds each bracket from the window data and one
    # characteristic line integral of F.  Both routes agree to rounding at
    # every row and front-segment midpoint, on a front_kkt-like run and on
    # a statically loaded march
    static = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=0.75, w=Profile.sine(0.1, 2.0),
                         v0=Profile.sine_bump(0.3, 1.0), v1=Profile.zero())
    kkt = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = run(kkt, tough, horizon=0.75, delta=1.0 / 64)
    fixed = FrontCurve.constant(1.0, 0.75, 3.0)
    cases = ((kkt, res.patches, res.front),
             (static, march(static, fixed, horizon=0.75, delta=1.0 / 64), fixed))

    seen = {}
    for name in ("_segment_residuals", "_rim_work_rates"):
        def spy(*args, _orig=getattr(energy_audit, name), _name=name):
            out = _orig(*args)
            seen.setdefault(_name, []).append((args, out))
            return out
        monkeypatch.setattr(energy_audit, name, spy)

    for data, patches, front in cases:
        seen.clear()
        led = audit(patches, front, data, tough)
        g0_rows = []
        for p, _, tt in _global_rows(patches):
            t_loc = tt - p.t0
            g0_rows.append(release_rate(p.hdata, front_bracket(p, t_loc), front.rho(tt), t_loc))
        assert np.allclose(led.G0, np.concatenate(g0_rows), rtol=1e-13, atol=0.0)

        (args, _), = seen["_segment_residuals"]
        mid, g0_mid = args[3], args[4]
        t0 = np.array([p.t0 for p in patches])
        for t, g0 in zip(mid, g0_mid):
            p = patches[int(np.searchsorted(t0, t + 1e-12, side="right")) - 1]
            ref = release_rate(p.hdata, front_bracket(p, t - p.t0), front.rho(t), t - p.t0)
            assert g0 == pytest.approx(float(ref), rel=1e-13, abs=0.0), t

        assert len(seen["_rim_work_rates"]) == len(patches)
        for (p, _, tt, w_dot, _), got in seen["_rim_work_rates"]:
            ref = np.where(w_dot != 0.0, w_dot * rim_power(p, data, tt, w_dot), 0.0)
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
        assert np.any(led.W_ext != 0.0) == (data is static)


def test_audit_series_shapes():
    data = bump_data()
    front = FrontCurve.affine(1.0, 0.2, 2.0, 3.0)
    tough = Toughness.constant(1.0, rho0=1.0, R=3.0)
    patches = march(data, front, horizon=0.375, delta=1.0 / 32)
    led = audit(patches, front, data, tough)
    n = len(led.times)
    for name in ("rho", "rho_dot", "E", "A_fric", "T_total", "W_ext",
                 "D_debond", "G0", "edp_residual", "kkt_residual",
                 "mdp_gap"):
        assert len(getattr(led, name)) == n
    assert np.all(np.diff(led.times) > 0)
    assert np.all(np.diff(led.D_debond) >= -1e-14)
    assert led.times[0] == 0.0
