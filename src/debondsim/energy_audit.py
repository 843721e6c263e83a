"""Energy bookkeeping: internal energy, dissipations, work, release rate.

All series are assembled on the global lattice rows from the solved
patches.  Derivative-bearing quantities (the energy rate, the release
rate, the boundary power) are evaluated window-locally: the closed-form
expressions hold for small times past the owning window's seam and use
that window's data traces plus one characteristic line integral of the
kernel field, never a numerical time difference.  Centered differences of
the total energy appear only as diagnostics next to the closed form.

The audited identities:

  * balance:  T(t) + D(t) = T(0) + W(t) for a front moving by the
    critical-rate rule (the balance residual is the audit's main output);
  * complementarity: 0 <= rho' < 1, G_{rho'} <= kappa, (G_{rho'} - kappa) rho' = 0;
  * maximality: rho' is the largest admissible speed, in closed form
    rho' = max(0, (G0 - kappa)/(G0 + kappa)).

Complementarity and maximality hold for almost every t, so a
piecewise-linear front is checked once per segment, at the segment's
midpoint: there its slope matches rho' to second order, while at a row up
to half a segment away the mismatch is first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .fields import ProblemData, Toughness, kappa_eval
from .geometry import (GeometryError, annulus_area_derivative,
                       corner_wavefronts, jump_radii)
from .prescribed import FieldPatch, locate_patch


def _as_patches(patches) -> List[FieldPatch]:
    return [patches] if isinstance(patches, FieldPatch) else list(patches)


# ---------------------------------------------------------------------------
# per-row machinery
# ---------------------------------------------------------------------------

def _energy_integrands(patch: FieldPatch, t_loc: float, h, h_t, h_r, r):
    hd = patch.hdata
    wgt = np.exp(-0.5 * hd.alpha * t_loc) / np.sqrt(hd.R - r)
    v_t = wgt * (h_t - 0.5 * hd.alpha * h)
    v_r = wgt * (h_r + 0.5 * h / (hd.R - r))
    e = (hd.R - r) * (v_t * v_t + v_r * v_r)
    a = (hd.R - r) * v_t * v_t
    return e, a


def _point_integrands(patch: FieldPatch, t_loc: float, r: float):
    h, h_t, h_r = patch.local_traces(t_loc, r)
    e, a = _energy_integrands(patch, t_loc, np.asarray(h), np.asarray(h_t),
                              np.asarray(h_r), np.asarray(r, dtype=float))
    return float(e), float(a)


_JUMP_EPS = 1e-9


def _row_radial_integrals(patch: FieldPatch, i: int, wavefronts=None):
    """(E_row, a_row) at lattice row i of one patch:

        E_row = pi * int (R - r) (v_t^2 + v_r^2) dr
        a_row =      int (R - r) v_t^2 dr

    Composite trapezoid over the row nodes and the clipped front cell.
    Cells crossed by a corner wavefront are split there, with one-sided
    trace evaluations on both banks: the derivative fields genuinely jump
    across those characteristics and a straddling trapezoid cell would
    cost an order of accuracy.
    """
    lat = patch.lattice
    t_loc = i * lat.delta
    t_glob = patch.t0 + t_loc
    rho_t = float(patch.rho_local(t_loc))
    j_in = int(math.floor(rho_t / lat.delta + 1e-12))

    h, h_t, h_r = patch.row_traces(i)
    r = lat.radii[: j_in + 1]
    e_int, a_int = _energy_integrands(patch, t_loc, h[: j_in + 1],
                                      h_t[: j_in + 1], h_r[: j_in + 1], r)

    splits = jump_radii(wavefronts, t_glob, rho_t) if wavefronts else []
    edges = [0.0] + splits + [rho_t]

    E = 0.0
    a = 0.0
    for a_edge, b_edge in zip(edges[:-1], edges[1:]):
        if b_edge - a_edge <= 2 * _JUMP_EPS:
            continue
        lo = a_edge + (_JUMP_EPS if a_edge > 0.0 else 0.0)
        hi = b_edge - (_JUMP_EPS if b_edge < rho_t else 0.0)
        j_lo = int(math.ceil(lo / lat.delta - 1e-12))
        j_hi = int(math.floor(hi / lat.delta + 1e-12))
        rs, es, as_ = [], [], []
        if j_lo * lat.delta - lo > 1e-12 or j_lo > j_hi:
            ev, av = _point_integrands(patch, t_loc, lo)
            rs.append(lo), es.append(ev), as_.append(av)
        for j in range(max(j_lo, 0), min(j_hi, j_in) + 1):
            rs.append(r[j]), es.append(e_int[j]), as_.append(a_int[j])
        if not rs or hi - rs[-1] > 1e-12:
            ev, av = _point_integrands(patch, t_loc, hi)
            rs.append(hi), es.append(ev), as_.append(av)
        rs = np.asarray(rs)
        E += float(np.trapezoid(np.asarray(es), rs))
        a += float(np.trapezoid(np.asarray(as_), rs))
    return math.pi * E, a


def internal_energy(patches, t: float, front=None) -> float:
    """Internal (kinetic + membrane) energy at time t."""
    plist = _as_patches(patches)
    patch = locate_patch(plist, t)
    wf = corner_wavefronts(front, plist[-1].t1) if front is not None else \
        _patch_wavefronts(plist)
    i, t_loc = _nearest_row(patch, t)
    if i is not None:
        return _row_radial_integrals(patch, i, wf)[0]
    # off-row: trapezoid over the same radii using pointwise traces
    lat = patch.lattice
    rho_t = float(patch.rho_local(t_loc))
    rs = list(lat.radii[lat.radii < rho_t - 1e-12]) + [rho_t]
    vals = [(r, *_point_integrands(patch, t_loc, float(r))) for r in rs]
    rr = np.array([v[0] for v in vals])
    ee = np.array([v[1] for v in vals])
    return math.pi * float(np.trapezoid(ee, rr))


def _patch_wavefronts(plist):
    """Wavefront tracking needs the global front; rebuild it from the
    per-window local fronts."""
    ts, rhos = [], []
    for p in plist:
        loc = p.lattice.front
        for tk, rk in zip(loc.t_knots, loc.rho_knots):
            tg = p.t0 + tk
            if not ts or tg > ts[-1] + 1e-14:
                ts.append(tg), rhos.append(rk)
    from .geometry import FrontCurve
    glob = FrontCurve(np.array(ts), np.array(rhos), plist[0].hdata.R)
    return corner_wavefronts(glob, plist[-1].t1)


def _nearest_row(patch: FieldPatch, t: float):
    t_loc = t - patch.t0
    i = int(round(t_loc / patch.lattice.delta))
    if 0 <= i <= patch.lattice.nt and abs(i * patch.lattice.delta - t_loc) < 1e-9:
        return i, t_loc
    return None, t_loc


def _global_rows(patches: List[FieldPatch]):
    """(times, owner patch, local row) for every global lattice row; seam
    rows belong to the later window, whose data are freshly re-based."""
    rows = []
    for k, p in enumerate(patches):
        last = p.lattice.nt + 1 if k == len(patches) - 1 else p.lattice.nt
        for i in range(last):
            rows.append((p.t0 + i * p.lattice.delta, p, i))
    return rows


def friction_dissipation(patches, t: float) -> float:
    """Damping dissipation up to time t (exactly 0 for alpha = 0)."""
    plist = _as_patches(patches)
    alpha = plist[0].hdata.alpha
    if alpha == 0.0:
        return 0.0
    wf = _patch_wavefronts(plist)
    rows = [(tt, p, i) for tt, p, i in _global_rows(plist) if tt <= t + 1e-12]
    ts = np.array([r[0] for r in rows])
    a_vals = np.array([_row_radial_integrals(p, i, wf)[1] for _, p, i in rows])
    return 2.0 * math.pi * alpha * float(np.trapezoid(a_vals, ts))


def debond_dissipation(front, tough: Toughness, t: float) -> float:
    """Energy spent breaking the bond from the initial width to rho(t)."""
    rho_t = float(front.rho(t))
    rho0 = front.rho0
    if rho_t <= rho0 + 1e-15:
        return 0.0
    R = tough.R
    edges = [rho0] + [float(b) for b in tough.breakpoints if rho0 < b < rho_t] + [rho_t]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n = 64
        xs = np.linspace(a, b, 2 * n + 1)
        ys = (R - xs) * kappa_eval(tough, np.minimum(xs, R - 1e-12))
        hstep = (b - a) / (2 * n)
        total += float(np.sum((ys[:-2:2] + 4 * ys[1:-1:2] + ys[2::2]) * hstep / 3.0))
    return 2.0 * math.pi * total


# ---------------------------------------------------------------------------
# energy rate, boundary power, release rate
# ---------------------------------------------------------------------------

def q_power(patches, data: ProblemData, t: float, gamma: float) -> float:
    """Rim power factor Q(t, gamma); gamma stands in for the opening rate."""
    patch = locate_patch(_as_patches(patches), t)
    hd = patch.hdata
    t_loc = t - patch.t0
    x_hat = patch.rim_bracket(t_loc)
    R, alpha = hd.R, hd.alpha
    w_t = float(data.w(t))
    return 2.0 * math.pi * R * (
        gamma + 0.5 * (alpha - 1.0 / R) * w_t
        - math.exp(-0.5 * alpha * t_loc) / math.sqrt(R) * x_hat)


def energy_rate(patches, front, data: ProblemData, t: float,
                freeze_load: bool = False) -> float:
    """Closed-form time derivative of the total energy at t (weighted form).

    Uses the owning window's data traces and the characteristic line
    integral of the kernel field; ``freeze_load`` drops the rim-power term
    (the opening held fixed past t), which is the variant entering the
    release-rate quotient.
    """
    patch = locate_patch(_as_patches(patches), t)
    t_loc = t - patch.t0
    rd = float(front.rho_dot(t))
    bracket = patch.front_bracket(t_loc)
    first = (-math.pi * rd * (1.0 - rd) / (1.0 + rd)
             * math.exp(-patch.hdata.alpha * t_loc) * bracket * bracket)
    if freeze_load:
        return first
    w_dot = float(data.w.deriv(t))
    return first + w_dot * q_power(patches, data, t, w_dot)


def external_work(data: ProblemData, patches, t: float) -> float:
    """Work of the rim load up to t: the cumulative rim power."""
    plist = _as_patches(patches)
    if data.w.kind in ("zero", "constant"):
        return 0.0
    rows = [(tt, p, i) for tt, p, i in _global_rows(plist) if tt <= t + 1e-12]
    ts = np.array([r[0] for r in rows])
    vals = np.empty(len(rows))
    for k, (tt, p, i) in enumerate(rows):
        w_dot = float(data.w.deriv(tt))
        vals[k] = w_dot * q_power(p, data, tt, w_dot)
    return float(np.trapezoid(vals, ts))


def err_g0(patches, front, t: float) -> float:
    """Quasistatic-limit release rate at t (always nonnegative)."""
    patch = locate_patch(_as_patches(patches), t)
    t_loc = t - patch.t0
    rho_t = float(front.rho(t))
    bracket = patch.front_bracket(t_loc)
    return (math.exp(-patch.hdata.alpha * t_loc) * bracket * bracket
            / (2.0 * (patch.hdata.R - rho_t)))


def err_gbeta(g0: float, beta: float) -> float:
    """Release rate at front speed beta: the kinetic factor (1-b)/(1+b)."""
    if not (0.0 <= beta < 1.0):
        raise ValueError("front speed must lie in [0, 1)")
    return (1.0 - beta) / (1.0 + beta) * g0


def err_from_energy_quotient(front, t: float, Tdot: float) -> float:
    """Release rate as energy decrease per newly debonded area.

    ``Tdot`` must be the load-frozen energy rate; the caller chooses how
    to produce it (closed form or a differenced energy series), which
    keeps this an independent validation path.
    """
    rd = float(front.rho_dot(t))
    if rd <= 0.0:
        raise GeometryError("the quotient needs a moving front")
    rho_t = float(front.rho(t))
    return -Tdot / (rd * annulus_area_derivative(rho_t, front.R))


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

@dataclass
class EnergyLedger:
    """Time series of every audited quantity on the global row grid."""

    times: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    E: np.ndarray
    A_fric: np.ndarray
    T_total: np.ndarray
    W_ext: np.ndarray
    D_debond: np.ndarray
    G0: np.ndarray
    kappa_front: np.ndarray
    edp_residual: np.ndarray
    # the complementarity residual and the maximality gap of the front
    # segment holding each row, evaluated at that segment's midpoint (not
    # at the row itself)
    kkt_residual: np.ndarray
    mdp_gap: np.ndarray
    mdp_flags: np.ndarray
    mdp_tol: float

    def rows(self):
        for k in range(len(self.times)):
            yield (self.times[k], self.rho[k], self.rho_dot[k], self.E[k],
                   self.A_fric[k], self.T_total[k], self.W_ext[k],
                   self.D_debond[k], self.G0[k], self.edp_residual[k],
                   self.kkt_residual[k])

    @property
    def max_rel_edp(self) -> float:
        scale = max(float(np.max(np.abs(self.T_total))),
                    float(np.max(np.abs(self.W_ext))), 1e-30)
        return float(np.max(np.abs(self.edp_residual))) / scale


def _segment_residuals(front, tough: Toughness, times: np.ndarray, G0: np.ndarray):
    """Complementarity residual and maximality gap of each front segment,
    spread over its rows.

    Each segment's slope sigma is checked at its midpoint (see the module
    docstring), with G0 linearly interpolated from the row series and
    kappa at rho(midpoint): against the release rate at speed sigma for
    complementarity, and against the closed-form speed for maximality.
    Segments are clipped to the audited rows, and every row takes the
    values of the segment holding it (right-continuous, as rho_dot).
    """
    sigma = front.rho_dot(front.t_knots[:-1])
    lo = np.clip(front.t_knots[:-1], times[0], times[-1])
    hi = np.clip(front.t_knots[1:], times[0], times[-1])
    mid = 0.5 * (lo + hi)
    kap = kappa_eval(tough, np.minimum(front.rho(mid), tough.R - 1e-12))
    g0 = np.interp(mid, times, G0)
    g_rd = (1.0 - sigma) / (1.0 + sigma) * g0
    kkt = np.maximum(0.0, g_rd - kap) + np.abs((g_rd - kap) * sigma)
    mdp = np.abs(sigma - np.maximum(0.0, (g0 - kap) / (g0 + kap)))
    seg = np.clip(np.searchsorted(front.t_knots, times, side="right") - 1, 0, len(sigma) - 1)
    return kkt[seg], mdp[seg]


def audit(patches, front, data: ProblemData, tough: Toughness,
          mdp_tol: float = 1e-3) -> EnergyLedger:
    """Fill the ledger for a solved run.

    The balance residual is T(t) + D(t) - T(0) - W(t).  The
    complementarity residual combines the overshoot of the rate above the
    toughness with the stationarity defect, and the maximality gap
    compares the front slope with the closed-form speed from G0; both are
    evaluated at the midpoint of the front segment that holds each row
    (see :func:`_segment_residuals`).
    """
    plist = _as_patches(patches)
    rows = _global_rows(plist)
    n = len(rows)
    times = np.array([r[0] for r in rows])
    alpha = plist[0].hdata.alpha

    wf = corner_wavefronts(front, times[-1])
    E = np.empty(n)
    a_int = np.empty(n)
    qw = np.empty(n)
    G0 = np.empty(n)
    for k, (tt, p, i) in enumerate(rows):
        E[k], a_int[k] = _row_radial_integrals(p, i, wf)
        w_dot = float(data.w.deriv(tt))
        qw[k] = w_dot * q_power(p, data, tt, w_dot) if w_dot != 0.0 else 0.0
        G0[k] = err_g0(p, front, tt)

    A = np.zeros(n)
    W = np.zeros(n)
    if alpha > 0:
        A[1:] = 2 * math.pi * alpha * np.cumsum(
            0.5 * (a_int[1:] + a_int[:-1]) * np.diff(times))
    W[1:] = np.cumsum(0.5 * (qw[1:] + qw[:-1]) * np.diff(times))
    T = E + A

    rho = np.asarray(front.rho(times), dtype=float)
    rho_dot = np.asarray(front.rho_dot(times), dtype=float)
    D = np.array([debond_dissipation(front, tough, tt) for tt in times])
    kap = kappa_eval(tough, np.minimum(rho, tough.R - 1e-12))

    edp = T + D - T[0] - W
    kkt, mdp_gap = _segment_residuals(front, tough, times, G0)
    flags = mdp_gap <= mdp_tol

    return EnergyLedger(times=times, rho=rho, rho_dot=rho_dot, E=E, A_fric=A,
                        T_total=T, W_ext=W, D_debond=D, G0=G0,
                        kappa_front=kap, edp_residual=edp, kkt_residual=kkt,
                        mdp_gap=mdp_gap, mdp_flags=flags, mdp_tol=mdp_tol)
