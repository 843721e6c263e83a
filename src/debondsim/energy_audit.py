"""Energy bookkeeping: internal energy, dissipations, work, release rate.

:func:`audit` is the only route to these quantities: it fills an
:class:`EnergyLedger` with every series on the global lattice rows, each
computed once per solved patch in one batched call.  Derivative-bearing
quantities (the release rate, the boundary power) are evaluated
window-locally: the closed-form expressions hold for small times past the
owning window's seam and use that window's data traces plus one
characteristic line integral of the kernel field, never a numerical time
difference.  The closed-form energy rate and the two release-rate routes
that the ledger is checked against live in :mod:`debondsim.reference`.

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

from .fields import ProblemData, Toughness, kappa_eval, v_from_h
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


_JUMP_EPS = 1e-9


def _row_splits(patch: FieldPatch, t: np.ndarray, rho: np.ndarray, wavefronts):
    """Radii in (0, rho) where a corner wavefront crosses each of the rows
    at window-local times t, from one pass over the wavefront segments for
    all rows: row k's radii ascending, padded with rho[k] to the most any
    row has.  Two wavefronts crossing at one radius give it twice."""
    T = patch.t0 + t
    wavefronts = wavefronts or ()
    X = np.repeat(rho[:, None], len(wavefronts), axis=1)
    for w, (ta, tb, kind, c) in enumerate(wavefronts):
        r = c - T if kind == "-" else T - c
        hit = (ta - 1e-12 <= T) & (T <= tb + 1e-12) & (1e-9 < r) & (r < rho - 1e-9)
        X[hit, w] = r[hit]
    X.sort(axis=1)
    return X[:, :np.count_nonzero(X < rho[:, None], axis=1).max(initial=0)]


def _row_radial_integrals(patch: FieldPatch, rows, wavefronts=None):
    """(E, a) of one patch at its local lattice rows ``rows``:

        E = pi * int (R - r) (v_t^2 + v_r^2) dr
        a =      int (R - r) v_t^2 dr

    Composite trapezoid over the lattice radii and the clipped front cell.
    Cells crossed by a corner wavefront are split there, with one-sided
    trace evaluations on both banks: the derivative fields genuinely jump
    across those characteristics and a straddling trapezoid cell would
    cost an order of accuracy.

    No step loops over rows.  The lattice radii of all rows are one 2-D
    node mask (row i, columns up to j_in(i) = floor(rho(t_i)/delta +
    1e-12)).  One pass over the wavefront segments finds every row's jump
    radii (:func:`_row_splits`), and the jumps cut the rows into segments,
    handled for all rows at once by segment index, a few per row; edges
    closer than two bank widths bound no segment, so a radius crossed twice
    splits its row once.  A segment's points are its head bank, its nodes
    and its tail bank (the front point on a row's last segment), a bank
    only where no node lies within 1e-12 of it.  A node in no segment,
    within a bank's width of a jump, is traced but bounds no cell.  Every
    point goes to one ``local_traces`` call for the whole patch.  Sorted by
    row and radius, consecutive points of one segment bound a cell, and one
    reduction sums the cells of all rows, each row in ascending radius.
    """
    lat = patch.lattice
    d = lat.delta
    rows = np.asarray(rows, dtype=int)
    t = rows * d
    rho = np.asarray(patch.rho_local(t), dtype=float)
    j_in = np.floor(rho / d + 1e-12).astype(int)

    # segment s of row k runs from edge s to edge s + 1 of: 0, the jumps,
    # rho; the padding repeats rho and leaves empty segments
    edges = np.concatenate((np.zeros((rows.size, 1)), _row_splits(patch, t, rho, wavefronts),
                            rho[:, None]), axis=1)
    a_edge, b_edge = edges[:, :-1], edges[:, 1:]
    valid = b_edge - a_edge > 2 * _JUMP_EPS
    lo = np.where(a_edge > 0.0, a_edge + _JUMP_EPS, a_edge)
    hi = np.where(b_edge < rho[:, None], b_edge - _JUMP_EPS, b_edge)
    j_lo = np.ceil(lo / d - 1e-12)
    j_hi = np.floor(hi / d + 1e-12)
    lead = valid & (j_lo * d - lo > 1e-12)
    tail = valid & (hi - np.where(j_lo <= j_hi, j_hi * d, lo) > 1e-12)

    # every point: the nodes, then the lead banks, then the tail banks
    # (the front point on a row's last segment), with its row and segment;
    # a node in no segment gets segment -1
    jj = np.arange(int(j_in.max()) + 1)
    in_row = jj[None, :] <= j_in[:, None]
    node_seg = np.full(in_row.shape, -1)
    for s in range(edges.shape[1] - 1):
        node_seg[valid[:, s, None] & (jj >= j_lo[:, s, None]) & (jj <= j_hi[:, s, None])] = s
    k_node, j_node = np.nonzero(in_row)
    k_lead, s_lead = np.nonzero(lead)
    k_tail, s_tail = np.nonzero(tail)
    p_row = np.concatenate((k_node, k_lead, k_tail))
    pr = np.concatenate((j_node * d, lo[lead], hi[tail]))
    p_seg = np.concatenate((node_seg[in_row], s_lead, s_tail))
    pt = t[p_row]
    e_pt, a_pt = _energy_integrands(patch, pt, *patch.local_traces(pt, pr), pr)

    # consecutive points of one segment of one row bound a cell; a node in
    # no segment sits between a jump's two banks, so it bounds none
    order = np.lexsort((pr, p_row))
    lo_pt, hi_pt = order[:-1], order[1:]
    cell = (p_row[lo_pt] == p_row[hi_pt]) & (p_seg[lo_pt] == p_seg[hi_pt])
    lo_pt, hi_pt = lo_pt[cell], hi_pt[cell]
    row = p_row[lo_pt]
    dr = pr[hi_pt] - pr[lo_pt]
    E, A = (np.bincount(row, weights=dr * (v[hi_pt] + v[lo_pt]) / 2.0, minlength=rows.size)
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

    t may be an array: every time integrates its pieces with the same
    Simpson nodes as alone, in one pass per toughness piece.
    """
    scalar = np.ndim(t) == 0
    rho_t = np.atleast_1d(np.asarray(front.rho(t), dtype=float))
    rho0 = front.rho0
    R = tough.R
    n = 64
    # piece m runs from knots[m] to the next knot or rho(t), when it starts
    # below rho(t); a breakpoint at rho(t) itself starts no piece
    knots = [rho0] + [float(b) for b in tough.breakpoints if b > rho0] + [np.inf]
    total = np.zeros(rho_t.shape)
    for a, b_next in zip(knots[:-1], knots[1:]):
        live = rho_t > max(a, rho0 + 1e-15)
        if not np.any(live):
            break
        b = np.minimum(b_next, rho_t[live])
        xs = np.linspace(np.full(b.shape, a), b, 2 * n + 1, axis=-1)
        ys = (R - xs) * kappa_eval(tough, np.minimum(xs, R - 1e-12))
        hstep = (b - a) / (2 * n)
        terms = (ys[:, :-2:2] + 4 * ys[:, 1:-1:2] + ys[:, 2::2]) * hstep[:, None] / 3.0
        # summed time by time: a 2-D reduction may add in another order, and
        # each time keeps the value of its scalar call to the last bit
        total[live] += [np.sum(row) for row in terms]
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
    if not np.any(w_dot):
        return np.zeros_like(w_dot)  # a rim at rest: no bracket to trace
    return np.where(w_dot != 0.0, w_dot * _rim_power(patch, data, t, w_dot), 0.0)


def _release_rate(patch: FieldPatch, front, t):
    """G0 at global times t of one patch (arrays allowed)."""
    t_loc = t - patch.t0
    bracket = patch.front_bracket(t_loc)
    return (np.exp(-patch.hdata.alpha * t_loc) * bracket * bracket
            / (2.0 * (patch.hdata.R - front.rho(t))))


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


def audit(patches: List[FieldPatch], front, data: ProblemData, tough: Toughness,
          mdp_tol: float = 1e-3) -> EnergyLedger:
    """Fill the ledger for a solved run from its list of patches.

    The balance residual is T(t) + D(t) - T(0) - W(t).  The
    complementarity residual combines the overshoot of the rate above the
    toughness with the stationarity defect, and the maximality gap
    compares the front slope with the closed-form speed from G0; both are
    evaluated at the midpoint of the front segment that holds each row
    (see :func:`_segment_residuals`).
    """
    rows = _global_rows(patches)
    times = np.concatenate([tt for _, _, tt in rows])
    n = len(times)
    alpha = patches[0].hdata.alpha

    # every per-row quantity of a patch comes from one batched call
    wf = corner_wavefronts(front, times[-1])
    E, a_int, qw, G0 = [], [], [], []
    for p, ii, tt in rows:
        e, a = _row_radial_integrals(p, ii, wf)
        E.append(e)
        a_int.append(a)
        qw.append(_rim_work_rates(p, data, tt))
        G0.append(_release_rate(p, front, tt))
    E, a_int, qw, G0 = (np.concatenate(x) for x in (E, a_int, qw, G0))

    A = np.zeros(n)
    W = np.zeros(n)
    if alpha > 0:
        A[1:] = 2 * math.pi * alpha * np.cumsum(
            0.5 * (a_int[1:] + a_int[:-1]) * np.diff(times))
    W[1:] = np.cumsum(0.5 * (qw[1:] + qw[:-1]) * np.diff(times))
    T = E + A

    rho = np.asarray(front.rho(times), dtype=float)
    rho_dot = np.asarray(front.rho_dot(times), dtype=float)
    D = debond_dissipation(front, tough, times)
    kap = kappa_eval(tough, np.minimum(rho, tough.R - 1e-12))

    edp = T + D - T[0] - W
    kkt, mdp_gap = _segment_residuals(front, tough, times, G0)
    flags = mdp_gap <= mdp_tol

    return EnergyLedger(times=times, rho=rho, rho_dot=rho_dot, E=E, A_fric=A,
                        T_total=T, W_ext=W, D_debond=D, G0=G0,
                        kappa_front=kap, edp_residual=edp, kkt_residual=kkt,
                        mdp_gap=mdp_gap, mdp_flags=flags, mdp_tol=mdp_tol)
