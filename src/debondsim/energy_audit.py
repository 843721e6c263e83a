"""Energy bookkeeping: internal energy, dissipations, work, release rate.

:func:`audit` is the only route to these quantities: it fills an
:class:`EnergyLedger` with every series on the global lattice rows, each
computed once per solved patch in one batched call.  Derivative-bearing
quantities (the release rate, the boundary power) are evaluated
window-locally: the closed-form expressions hold for small times past the
owning window's seam and use that window's data traces plus one
characteristic line integral of the kernel field, never a numerical time
difference.  The closed-form energy rate and the two release-rate routes
that the ledger is checked against live with the tests, in
``tests/reference.py``.

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

from .fields import ProblemData, Profile, Toughness, kappa_eval, release_rate, v_from_h
from .geometry import corner_wavefronts
from .prescribed import FieldPatch


# ---------------------------------------------------------------------------
# per-row machinery
# ---------------------------------------------------------------------------

def _energy_integrands(patch: FieldPatch, t_loc: float, h, h_t, h_r, r):
    hd = patch.hdata
    _, v_t, v_r = v_from_h(h, h_t, h_r, t_loc, r, hd.R, hd.alpha)
    e = (hd.R - r) * (v_t * v_t + v_r * v_r)
    a = (hd.R - r) * v_t * v_t
    return e, a


def _row_radial_integrals(patch: FieldPatch, rows, wavefronts):
    """(E, a) of one patch at its local lattice rows ``rows``:

        E = pi * int (R - r) (v_t^2 + v_r^2) dr
        a =      int (R - r) v_t^2 dr

    Composite trapezoid over the points of :meth:`FieldPatch.row_points`:
    the lattice radii, the clipped front cell, and cells crossed by a
    corner wavefront split there, with one-sided trace evaluations on both
    banks: the derivative fields genuinely jump across those
    characteristics and a straddling trapezoid cell would cost an order of
    accuracy.  Every point goes to one ``local_traces`` call for the whole
    patch; consecutive points of one segment of one row bound a cell, and
    one reduction sums the cells of all rows, each row in ascending radius.
    """
    rows = np.asarray(rows, dtype=int)
    p_row, pr, p_seg = patch.row_points(rows, wavefronts)
    pt = rows[p_row] * patch.lattice.delta
    e_pt, a_pt = _energy_integrands(patch, pt, *patch.local_traces(pt, pr), pr)

    # a node in no segment sits between a jump's two banks, so it bounds no cell
    lo_pt = ((p_row[:-1] == p_row[1:]) & (p_seg[:-1] == p_seg[1:])).nonzero()[0]
    hi_pt = lo_pt + 1
    row = p_row.take(lo_pt)
    dr = pr.take(hi_pt) - pr.take(lo_pt)
    E, A = (np.bincount(row, weights=dr * (v.take(hi_pt) + v.take(lo_pt)) / 2.0,
                        minlength=rows.size)
            for v in (e_pt, a_pt))
    return math.pi * E, A


def _global_rows(patches: List[FieldPatch]):
    """(patch, local row indices, global times) covering every global
    lattice row; seam rows belong to the later window, whose data are
    freshly re-based."""
    out = []
    for k, p in enumerate(patches):
        last = p.lattice.nt + 1 if k == len(patches) - 1 else p.lattice.nt
        rows = np.arange(last)
        out.append((p, rows, p.t0 + rows * p.lattice.delta))
    return out


def debond_dissipation(front, tough: Toughness, t):
    """Energy spent breaking the bond from the initial width to rho(t).

    D(t) = 2 pi int (R - r) kappa(r) dr from rho0 to rho(t).  Each toughness
    piece [a, b) is a :class:`~debondsim.fields.Profile` on [a, b] whose
    cumulative is read at rho(t) clipped to [a, b], so the piece's end keeps
    its own toughness, not the next piece's as the right-continuous
    :func:`~debondsim.fields.kappa_eval` would give; the sum stops at the
    first piece rho(t) never passes.  An array t equals its scalar calls.
    """
    scalar = np.ndim(t) == 0
    rho_t = np.atleast_1d(np.asarray(front.rho(t), dtype=float))
    R = tough.R
    knots = [front.rho0] + [float(b) for b in tough.breakpoints if b > front.rho0] + [R]
    total = np.zeros(rho_t.shape)
    for a, b in zip(knots[:-1], knots[1:]):
        if not (rho_t > a).any():
            break
        kappa = tough.pieces[int(tough.piece_index(a))]
        piece = Profile(lambda r: (R - r) * kappa(np.minimum(r, R - 1e-12)), domain=(a, b))
        total += piece.cumint(np.minimum(np.maximum(rho_t, a), b))
    out = 2.0 * math.pi * total
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# boundary power, release rate
# ---------------------------------------------------------------------------

def _rim_power(patch: FieldPatch, data: ProblemData, t, gamma):
    """Rim power factor Q at global times t of one patch (arrays allowed)."""
    hd = patch.hdata
    t_loc = t - patch.t0
    x_hat = patch.rim_bracket(t_loc)
    R, alpha = hd.R, hd.alpha
    return 2.0 * math.pi * R * (
        gamma + 0.5 * (alpha - 1.0 / R) * data.w(t)
        - np.exp(-0.5 * alpha * t_loc) / math.sqrt(R) * x_hat)


def _rim_work_rates(patch: FieldPatch, data: ProblemData, t):
    """Rim power w_dot * Q(t, w_dot) at global times t of one patch
    (exactly 0 where the opening rate is 0)."""
    w_dot = data.w.deriv(t)
    if not w_dot.any():
        return np.zeros_like(w_dot)  # a rim at rest: no bracket to trace
    return np.where(w_dot != 0.0, w_dot * _rim_power(patch, data, t, w_dot), 0.0)


def _release_rate(patch: FieldPatch, front, t):
    """G0 at global times t of one patch (arrays allowed)."""
    t_loc = t - patch.t0
    return release_rate(patch.hdata, patch.front_bracket(t_loc), front.rho(t), t_loc)


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

    @property
    def max_rel_edp(self) -> float:
        scale = max(float(np.max(np.abs(self.T_total))),
                    float(np.max(np.abs(self.W_ext))), 1e-30)
        return float(np.max(np.abs(self.edp_residual))) / scale


def _segments(front, times: np.ndarray):
    """The front segment holding each row (right-continuous, as rho_dot):
    the distinct segments, each row's index into them, and their
    midpoints, with the segments clipped to the audited rows."""
    tk = front.t_knots
    seg = np.minimum(np.maximum(np.searchsorted(tk, times, side="right") - 1, 0), len(tk) - 2)
    used, seg = np.unique(seg, return_inverse=True)
    lo, hi = times[0], times[-1]
    mid = 0.5 * (np.minimum(np.maximum(tk[used], lo), hi)
                 + np.minimum(np.maximum(tk[used + 1], lo), hi))
    return used, seg, mid


def _segment_residuals(front, tough: Toughness, used, mid, g0):
    """Complementarity residual and maximality gap of the front segments
    ``used``, each checked at its midpoint (see the module docstring) with
    the release rate ``g0`` traced there and kappa at rho(midpoint):
    against the release rate at speed sigma for complementarity, and
    against the closed-form speed for maximality."""
    sigma = front.rho_dot(front.t_knots[used])
    kap = kappa_eval(tough, np.minimum(front.rho(mid), tough.R - 1e-12))
    g_rd = (1.0 - sigma) / (1.0 + sigma) * g0
    kkt = np.maximum(0.0, g_rd - kap) + np.abs((g_rd - kap) * sigma)
    mdp = np.abs(sigma - np.maximum(0.0, (g0 - kap) / (g0 + kap)))
    return kkt, mdp


def audit(patches: List[FieldPatch], front, data: ProblemData,
          tough: Toughness) -> EnergyLedger:
    """Fill the ledger for a solved run from its list of patches.

    The balance residual is T(t) + D(t) - T(0) - W(t).  The
    complementarity residual combines the overshoot of the rate above the
    toughness with the stationarity defect, and the maximality gap
    compares the front slope with the closed-form speed from G0; both are
    evaluated at the midpoint of the front segment that holds each row
    (see :func:`_segment_residuals`), with G0 traced at the midpoint, in
    the patch holding it, not interpolated between the rows around it: G0
    bends where the front crosses a lattice diagonal, and a row
    interpolant across a bend is off by O(delta^2) with a size that
    depends on where the bend falls.
    """
    rows = _global_rows(patches)
    times = np.concatenate([tt for _, _, tt in rows])
    n = len(times)
    alpha = patches[0].hdata.alpha

    # every per-row quantity of a patch comes from one batched call, and
    # the release rate at the midpoints of the segments it holds with it
    wf = corner_wavefronts(front, times[-1])
    used, seg, mid = _segments(front, times)
    owner = np.searchsorted([p.t0 for p, _, _ in rows], mid + 1e-12, side="right") - 1
    g0_mid = np.empty(mid.shape)
    E, a_int, qw, G0 = [], [], [], []
    for k, (p, ii, tt) in enumerate(rows):
        e, a = _row_radial_integrals(p, ii, wf)
        E.append(e)
        a_int.append(a)
        qw.append(_rim_work_rates(p, data, tt))
        g0 = _release_rate(p, front, np.concatenate((tt, mid[owner == k])))
        G0.append(g0[:len(tt)])
        g0_mid[owner == k] = g0[len(tt):]
    E, a_int, qw, G0 = (np.concatenate(x) for x in (E, a_int, qw, G0))

    A = np.zeros(n)
    W = np.zeros(n)
    A[1:] = 2 * math.pi * alpha * np.cumsum(
        0.5 * (a_int[1:] + a_int[:-1]) * np.diff(times))
    W[1:] = np.cumsum(0.5 * (qw[1:] + qw[:-1]) * np.diff(times))
    T = E + A

    rho = np.asarray(front.rho(times), dtype=float)
    rho_dot = np.asarray(front.rho_dot(times), dtype=float)
    D = debond_dissipation(front, tough, times)
    kap = kappa_eval(tough, np.minimum(rho, tough.R - 1e-12))

    edp = T + D - T[0] - W
    kkt, mdp_gap = _segment_residuals(front, tough, used, mid, g0_mid)

    return EnergyLedger(times=times, rho=rho, rho_dot=rho_dot, E=E, A_fric=A,
                        T_total=T, W_ext=W, D_debond=D, G0=G0,
                        kappa_front=kap, edp_residual=edp, kkt_residual=kkt[seg],
                        mdp_gap=mdp_gap[seg])
