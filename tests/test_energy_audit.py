import math

import numpy as np
import pytest

from debondsim.energy_audit import (
    _release_rate, _rim_power, _row_radial_integrals, audit, debond_dissipation,
)
from debondsim import prescribed, quadrature
from debondsim.fields import ProblemData, Profile, Toughness, to_h_data
from debondsim.geometry import FrontCurve, GeometryError, corner_wavefronts
from debondsim.griffith import run
from debondsim.prescribed import FieldPatch, locate_patch, march
from debondsim.quadrature import CharLattice
from reference import (
    energy_rate, energy_rate_v_form, err_from_energy_quotient, err_gbeta,
    row_radial_integrals,
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
    a_mid = _row_radial_integrals(patches[0], [i], [])[1][0]
    assert fd == pytest.approx(2 * math.pi * 1.0 * a_mid, rel=2e-2)


def test_row_integrals_match_the_per_row_construction():
    # the audit builds every row's cells at once; one row and one segment
    # at a time gives the same sums.  Beside the corner wavefronts, extra
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
            for got, ref in zip(_row_radial_integrals(p, rows, wavefronts),
                                row_radial_integrals(p, rows, wavefronts)):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def test_debond_dissipation_matches_an_exactly_summed_simpson_rule():
    # the two-piece front above: every time's Simpson panels, on the same
    # nodes and each piece at its own toughness on its closed interval,
    # summed exactly with math.fsum, agree with the array call's ordered
    # sums to float64 resolution
    front = FrontCurve(np.array([0.0, 0.3, 1.5]), np.array([1.0, 1.0, 1.6]), 3.0)
    tough = Toughness.from_pieces([(1.0, Profile.affine(1.0, 0.3)),
                                   (1.3, Profile.constant(2.0))], R=3.0)
    times = np.concatenate((np.linspace(0.35, 1.5, 24), [0.9]))
    got = debond_dissipation(front, tough, times)
    for t, value in zip(times, got):
        rho = float(front.rho(t))
        panels = []
        for a, b, kappa in ((1.0, min(rho, 1.3), tough.pieces[0]), (1.3, rho, tough.pieces[1])):
            if b <= a:
                continue
            xs = np.linspace(a, b, 129)
            ys = (3.0 - xs) * kappa(xs)
            panels += list((ys[:-2:2] + 4 * ys[1:-1:2] + ys[2::2]) * ((b - a) / 128) / 3.0)
        exact = 2.0 * math.pi * math.fsum(panels)
        assert abs(value - exact) <= 1e-15 * exact, t


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
    w_dot = float(w.deriv(t))
    assert energy_rate(patches, front, data, t) == pytest.approx(
        w_dot * float(_rim_power(locate_patch(patches, t), data, t, w_dot)), rel=1e-14)


def test_q_power_zero_field():
    data = zero_data(R=3.0)
    front = FrontCurve.constant(1.0, 3.0, 3.0)
    patches = march(data, front, horizon=0.25, delta=1.0 / 32)
    gamma = 0.8
    assert float(_rim_power(patches[0], data, 0.0, gamma)) == pytest.approx(
        2 * math.pi * 3.0 * gamma, rel=1e-14)


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
    # never traces the rim bracket and the external work is exactly 0
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.25, delta=1.0 / 64)

    def refuse(*args, **kwargs):
        raise AssertionError("rim bracket traced for a rim at rest")
    monkeypatch.setattr(FieldPatch, "rim_bracket", refuse)
    led = audit(res.patches, res.front, data, tough)
    assert np.all(led.W_ext == 0.0)


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
    # the KKT test scenario: the audit takes every trace and bracket of a
    # patch from one batched call, whatever its row count; a per-row or
    # per-point loop multiplies these counts by the rows or the points
    # (at this step the scenario has 4 patches for 97 rows)
    data = bump_data(amp=0.4, alpha=0.5)
    tough = Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = run(data, tough, horizon=0.375, delta=1.0 / 256)
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
    count(prescribed, "char_line_integrals")
    for name in ("local_traces", "front_bracket", "rim_bracket"):
        count(FieldPatch, name)
    led = audit(res.patches, res.front, data, tough)
    n = len(res.patches)
    assert len(led.times) > 20 * n
    # one line-kernel call per patch for each of the traces, the front
    # bracket and the rim bracket
    assert calls.get("char_line_integrals", 0) <= 3 * n
    # local_traces reads h at the wavefront banks with one sample call
    for name in ("sample", "phi_time_trace", "local_traces", "front_bracket", "rim_bracket"):
        assert calls.get(name, 0) <= n, name


def test_one_cumulative_build_per_patch(monkeypatch):
    # a patch's traces, front bracket and rim bracket (the rim load makes
    # the audit read it) share one cached build of its diagonal
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
    g0 = np.array([float(_release_rate(locate_patch(patches, t), front, np.array([t]))[0])
                   for t in mid])
    sigma = front.rho_dot(tk[seg])
    gap = np.abs(sigma - np.maximum(0.0, (g0 - 0.5) / (g0 + 0.5)))
    assert np.allclose(led.mdp_gap, gap, rtol=1e-12, atol=0.0)


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
