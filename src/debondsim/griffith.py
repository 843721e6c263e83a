"""Coupled front evolution by the critical-rate flow rule.

The front is unknown, and parametrised by the anti-diagonal eta = t + r:
omega(eta) is its t - r at t + r = eta.  Along the front
d omega / d eta = (1 - rho') / (1 + rho'), which the rate law
rho' = max(0, (G0 - kappa) / (G0 + kappa)) makes

    omega'(eta) = min(1, kappa / G0),    omega(eta) = -rho0 for eta <= rho0,

with G0 the release rate at the front point, from the data traces and a
line integral of the kernel field along t - r = omega(eta).  The slope
lies in (0, 1] at every speed, so a front point per anti-diagonal resolves
fronts up to the sonic limit.  Each marching window alternates two
updates on a diagonal strip hugging the front: the field update (free
solution plus half the cone integral, cut off at the front) and the rate
update (the cumulative trapezoid of omega' over the strip's
anti-diagonals).  The pair contracts in the product metric max(L2 field
distance, sup omega distance) once the strip is narrow enough; one band
bound on the data sets its width (:func:`_seed_width`), and its
contraction is measured, not certified.  It stops by the rule of the
prescribed Picard iteration, :func:`~debondsim.prescribed.fixed_point`; a
strip that does not converge raises ConvergenceError naming its window's t.

A window's horizon T is set by geometry (0.45 rho and 0.9 (R - rho)),
never by the run's horizon; it bounds the strip's width and height.  Its
front ends where it leaves the strip, at the strip's top or on its last
diagonal; points past that end hold no strip node inside the front and
take their rate on the strip's edge at their own time and radius, so the
cell the front leaves in is integrated like any other.  A cell that
crosses a toughness breakpoint is split there, each side at its own
toughness.  The window advances by the full rows below its end, or to the
first full row past a breakpoint, cut there on its cell's quadratic; the
prescribed window loop then extends the run's patches over the produced
front, with seams split at the corner wavefronts.  Those patches give
exact seam traces for the next window and are the run's field, so the
field is solved once.

The strip is built only as tall as its window can keep.  Its updates are
causal: a node's free value, inside mask and cone cut read omega on its
own anti-diagonal, whose front point is no later than the node; the cone
sum reads only earlier rows; and the release rate at a front point reads
the rows up to it and the one cell holding it.  So rows more than one past
the point where the front leaves the strip's last diagonal cannot move
the front the window keeps; only the sweep at which the iteration stops
can change, since the product metric runs over fewer rows.  The first
strip is as tall as a straight front at the window's start slope needs to
leave the last diagonal, times a safety factor, plus spare rows, and no
taller than T or the rows the run has left plus the spare rows.  A strip
whose front leaves it, or reaches the run's last row, less than two rows
below its top is regrown: solved once more at T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .dalembert import f_minus, f_plus
from .fields import (HData, ProblemData, Toughness, front_bracket, kappa_eval, kernel_prefactor,
                     release_rate, to_h_data)
from .geometry import FrontCurve, corner_wavefronts
from .prescribed import FieldPatch, _extend, _row_count, _seam_data, fixed_point
from .quadrature import ConePlan, column_cumulative

_SLOPE_CAP = 1.0 - 1e-9
# a window's first strip: the straight front's exit row times the safety
# factor, plus the spare rows
_EXIT_SAFETY = 1.25
_SPARE_ROWS = 4


def _slope(g0, kappa):
    """The front slope d omega / d eta = min(1, kappa / G0)."""
    return 1.0 / np.maximum(g0 / kappa, 1.0)


def _start_slope(hd: HData, tough: Toughness) -> float:
    """The front's slope at t = 0, where the release rate has no line
    integral yet: G0 = (h0'(rho0) - h1(rho0))^2 / (2 (R - rho0))."""
    g0 = release_rate(hd, front_bracket(hd, hd.rho0, 0.0), hd.rho0, 0.0)
    return float(_slope(g0, kappa_eval(tough, hd.rho0 + 1e-9)))


def _stable_root(lin: float, quad: float, rest: float) -> float:
    """The root 2 rest / (lin + sqrt(lin^2 + 4 quad rest)) of
    lin u + quad u^2 = rest, free of cancellation; the caller clamps it."""
    den = lin + math.sqrt(max(lin * lin + 4.0 * quad * rest, 0.0))
    return 2.0 * rest / max(den, 1e-300)


class _Front(NamedTuple):
    """A window's front as knots (eta, omega), at t = (eta + omega) / 2 and
    radius (eta - omega) / 2, with the slope on each side of a knot (they
    differ at a toughness breakpoint only); ``grid`` indexes the knots on
    the strip's anti-diagonals."""

    eta: np.ndarray
    omega: np.ndarray
    left: np.ndarray
    right: np.ndarray
    grid: np.ndarray


# ---------------------------------------------------------------------------
# the strip workspace
# ---------------------------------------------------------------------------

class StripWorkspace:
    """Characteristic strip along the front for one coupled window.

    Node (l, k) sits at t = l*delta on the diagonal t - r = s_k, with
    s_k = -rho0 + k*delta, k = 0..m, and l = 0..L for the strip's height
    T = L*delta; its radius t - s_k is at most rho0 + T, which :func:`run`
    keeps below R.  :func:`run` sizes T to the rows its window can keep,
    never above the window's horizon.  Its anti-diagonal t + r is
    cone_eta[2l - k + m], on the grid cone_eta = rho0 + delta*(-m..2L), and
    the front iterate omega lives on that grid: -rho0 up to rho0, then
    front point g at eta[g] = rho0 + g*delta, t = (eta + omega) / 2.

    What does not depend on omega is built once: the kernel, the free
    solution's ingoing branch on each column and the cone sum's plan
    (:class:`~debondsim.quadrature.ConePlan`, indexed by column, O(L * m)
    work and memory), which holds the slot layout and the work arrays.  A
    sweep reads omega by index for its inside mask, its cone cut and the
    outgoing branch, once per anti-diagonal; both branches are the window
    lattice's (:mod:`debondsim.dalembert`).  The workspace and its plan
    live for one coupled window; the plan's results are fresh arrays, so
    one kept across sweeps is never overwritten by the next.
    """

    def __init__(self, hd: HData, tough: Toughness, T: float, m: int, delta: float):
        self.hd = hd
        self.tough = tough
        self.delta = delta
        self.m = m
        self.L = int(round(T / delta))
        self.T = self.L * delta
        self.rho0 = hd.rho0
        self.s = -self.rho0 + delta * np.arange(m + 1)

        ll = np.arange(self.L + 1)[:, None]
        self.t_grid = np.broadcast_to(ll * delta, (self.L + 1, m + 1))
        self.r_grid = self.t_grid - self.s[None, :]
        self.node_q = 2 * ll - np.arange(m + 1)[None, :] + m

        self.kern = kernel_prefactor(self.r_grid, hd.R, hd.alpha)
        self.f_col = f_minus(hd, self.s)
        self.cone_eta = self.rho0 + delta * np.arange(-m, 2 * self.L + 1)
        self.eta = self.cone_eta[m:]
        self.cone = ConePlan(self.L, m, delta)

    # -- induced front ------------------------------------------------------

    def straight_front(self, slope: float) -> np.ndarray:
        """The omega of the front leaving (0, rho0) at d omega / d eta =
        ``slope``; 1 is a front at rest."""
        return np.maximum(-self.rho0 + slope * (self.cone_eta - self.rho0), -self.rho0)

    def inside_mask(self, om: np.ndarray) -> np.ndarray:
        """Nodes on or behind the front: s_k >= omega on their anti-diagonal."""
        return self.s[None, :] >= om[self.node_q] - 1e-12

    # -- field update ---------------------------------------------------------

    def free_solution(self, om: np.ndarray) -> np.ndarray:
        """f_minus on each column plus f_plus on each node's anti-diagonal,
        reflected through the front om past rho0."""
        return self.f_col + f_plus(self.hd, self.cone_eta, om)[self.node_q]

    def cone_integrals(self, om: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Phi[F] at every strip node, cut at the front.

        The strip is already in sheared layout (column k is the diagonal
        s_k), and every anti-diagonal past rho0 starts on column 0, so its
        cut is the column coordinate of omega; up to rho0 that is 0.
        """
        return self.cone(F, (om + self.rho0) / self.delta)

    def psi1(self, h: np.ndarray, om: np.ndarray) -> np.ndarray:
        """Field update: free solution plus half the cone integral of the
        kernel field, zero past the front."""
        F = self.kern * h
        out = self.free_solution(om) + 0.5 * self.cone_integrals(om, F)
        return np.where(self.inside_mask(om), out, 0.0)

    # -- rate update ----------------------------------------------------------

    def release_rate(self, h: np.ndarray, om: np.ndarray) -> np.ndarray:
        """G0 at every front point of om.  The line integral along
        t - r = omega weights the column cumulatives of the two columns
        around it, and its last, fractional cell interpolates linearly in t;
        past the strip it runs on the nearest column and holds the last
        row's value."""
        d, m, L = self.delta, self.m, self.L
        w_g = np.minimum(np.maximum(om[m:], self.s[0]), self.s[-1])
        t_g = 0.5 * (self.eta + om[m:])
        F = self.kern * h
        C = column_cumulative(F, d, np.empty_like(F)).ravel()
        x = (w_g + self.rho0) / d
        k = np.minimum(np.maximum(np.floor(x + 1e-12).astype(int), 0), m - 1)
        w = x - k  # weight of column k + 1
        t_l = np.minimum(t_g, self.T + d)  # the line holds a cell past the strip
        lf = np.minimum(np.floor(t_l / d + 1e-12).astype(int), L)
        i0 = lf * (m + 1) + k
        i1 = np.minimum(lf + 1, L) * (m + 1) + k
        F = F.ravel()
        rem = t_l - lf * d
        frac = np.minimum(rem / d, 1.0)
        f_lo = (1.0 - w) * F.take(i0) + w * F.take(i0 + 1)
        f_hi = (1.0 - w) * F.take(i1) + w * F.take(i1 + 1)
        line = ((1.0 - w) * C.take(i0) + w * C.take(i0 + 1)
                + 0.5 * rem * (2.0 * f_lo + frac * (f_hi - f_lo)))
        rho = 0.5 * (self.eta - om[m:])
        return release_rate(self.hd, front_bracket(self.hd, -w_g, line), rho, t_g)

    def rate_front(self, h: np.ndarray, om: np.ndarray) -> _Front:
        """The front the rate law gives for the field h on the front om:
        the cumulative trapezoid in eta of min(1, kappa / G0), kappa at each
        point's own radius.  A cell whose radius crosses a breakpoint b is
        split where its quadratic on the lower piece reaches b: the knot
        there takes that quadratic's slope on the left, and on the right the
        upper piece's slope at G0 interpolated along the cell."""
        d, tough = self.delta, self.tough
        g0 = self.release_rate(h, om)
        rho = 0.5 * (self.eta - om[self.m:])
        # past a cell beyond the strip the front holds no inside node: it
        # keeps the toughness of its first point there, and crosses no breakpoint
        past = (self.eta + om[self.m:] > 2.0 * (self.T + d)) | (om[self.m:] > self.s[-1] + d)
        rho = np.where(np.cumsum(past) > 1, rho[np.argmax(past)], rho)
        piece = tough.piece_index(rho + 1e-9)  # a breakpoint counts once reached
        slope = _slope(g0, kappa_eval(tough, rho + 1e-9))
        eta, left, right = self.eta, slope, slope
        cross = np.flatnonzero(np.diff(piece) > 0)
        for j, c in enumerate(cross):  # in order: each starts from the front the last one gives
            k, b = c + j, tough.breakpoints[piece[c] + 1]
            k_lo = float(tough.pieces[piece[c]](b))
            a, a1 = float(slope[c]), float(_slope(g0[c + 1], k_lo))
            # from the new front's radius at the cell, so that a front stopping at b stays on it
            w_k = np.sum(0.5 * np.diff(eta[:k + 1]) * (right[:k] + left[1:k + 1])) - self.rho0
            lin, quad, rest = 0.5 * (1.0 - a), 0.25 * (a - a1) / d, b - 0.5 * (eta[k] - w_k)
            th = min(max(_stable_root(lin, quad, rest) / d, 1e-6), 1.0 - 1e-6)
            eta = np.insert(eta, k + 1, eta[k] + th * d)
            left = np.insert(left, k + 1, a + th * (a1 - a))
            g0_b = g0[c] + th * (g0[c + 1] - g0[c])
            right = np.insert(right, k + 1, _slope(g0_b, kappa_eval(tough, b)))
        grid = np.arange(len(self.eta))
        grid = grid + np.searchsorted(cross, grid, side="left")
        steps = 0.5 * np.diff(eta) * (right[:-1] + left[1:])
        return _Front(eta, np.append(0.0, np.cumsum(steps)) - self.rho0, left, right, grid)

    def psi2(self, h: np.ndarray, om: np.ndarray) -> np.ndarray:
        """Rate update: :meth:`rate_front` on the anti-diagonal grid."""
        f = self.rate_front(h, om)
        out = np.full(len(self.cone_eta), -self.rho0)
        out[self.m:] = f.omega[f.grid]
        return out


def solve_coupled_window(ws: StripWorkspace, t_start: float):
    """Alternate the field and rate updates on the strip of a window
    starting at ``t_start`` until the product metric drops below the
    tolerance of :func:`~debondsim.prescribed.fixed_point`."""
    # start from the straight front at the data's rate at t = 0
    om = ws.straight_front(_start_slope(ws.hd, ws.tough))
    h = np.where(ws.inside_mask(om), ws.free_solution(om), 0.0)

    def sweep():
        nonlocal h, om
        h_new = ws.psi1(h, om)
        om_new = ws.psi2(h_new, om)
        d = max(math.sqrt(float(np.sum((h_new - h) ** 2)) * ws.delta * ws.delta),
                float(np.max(np.abs(om_new - om))))
        h, om = h_new, om_new
        return d

    diag = fixed_point(sweep, f"coupled window at t = {t_start:.6g}")
    return h, om, diag


# ---------------------------------------------------------------------------
# window sizing
# ---------------------------------------------------------------------------

def _band_integral(hd: HData, y: float) -> float:
    """The integral of (h0' - h1)^2 over the band [rho0 - y, rho0]."""
    ss = np.linspace(hd.rho0 - y, hd.rho0, 257)
    return float(np.trapezoid((hd.h0.deriv(ss) - hd.h1(ss)) ** 2, ss))


def _seed_width(hd: HData, tough: Toughness, T: float, delta: float) -> int:
    """Largest strip width m, from floor(T / delta) down by factors of
    two, whose band y = m delta passes the band bound
    y + int_{rho0 - y}^{rho0} (h0' - h1)^2 / (2 c1 (R - rho0 - T)) <= T.
    The strip keeps this width: its contraction is measured by the fixed
    point, not certified, and a strip that does not converge raises
    ConvergenceError naming its window's t."""
    # positive: run takes T <= 0.9 (R - rho0) + 1e-9 delta, or one row
    # when that is shorter, and keeps R - rho0 > stop_margin >= delta
    gap = hd.R - hd.rho0 - T
    m = max(1, int(math.floor(T / delta)))
    while m > 1 and m * delta + _band_integral(hd, m * delta) / (2.0 * tough.c1 * gap) > T:
        m //= 2
    return m


def _strip_rows(slope: float, m: int, L: int, rows_left: int) -> int:
    """Rows of a window's first strip: a straight front of slope ``slope``
    leaves the last diagonal s_m after m (1/slope + 1) / 2 rows; that, times
    the safety factor, plus the spare rows, and no more than the window's L
    or the rows the run has left plus the spare rows."""
    exit_rows = 0.5 * m * (1.0 / slope + 1.0)
    return min(L, int(math.ceil(_EXIT_SAFETY * exit_rows)) + _SPARE_ROWS,
               rows_left + _SPARE_ROWS)


# ---------------------------------------------------------------------------
# the coupled march
# ---------------------------------------------------------------------------

@dataclass
class GriffithRun:
    """Result of a coupled run: the produced front, the field solved
    against it, and the stopping information.

    ``patches`` are the prescribed solve of ``front`` with its windows cut
    at the coupled-window seams, in global time with the composed weight
    scale.
    """

    front: FrontCurve
    patches: List[FieldPatch]
    t_star: float
    stop_reason: str  # "horizon" | "fully_debonded"
    delta: float
    window_diagnostics: List[dict]


# a knot's t, rho and omega as weights of (eta, omega)
_KEYS = {"t": (0.5, 0.5), "rho": (0.5, -0.5), "omega": (0.0, 1.0)}


def _front_point(f: _Front, target: float, key: str = "t"):
    """Point (t, rho) where the front first reaches ``target`` in its
    ``key`` (t, rho or omega, all nondecreasing along it): a knot within
    1e-13 of it, else the cut of its cell.  Between knots k - 1 and k,
    omega is omega_{k-1} + a u + c u^2 at eta = eta_{k-1} + u (the
    trapezoid of a linear slope), so the key is a quadratic in u too, and
    the cut inverts it."""
    we, wo = _KEYS[key]
    vals = we * f.eta + wo * f.omega
    k = int(np.searchsorted(vals, target - 1e-13))
    if k == len(vals) or k == 0 or vals[k] - target <= 1e-13:
        e, w = float(f.eta[min(k, len(vals) - 1)]), float(f.omega[min(k, len(vals) - 1)])
    else:
        e0, w0 = float(f.eta[k - 1]), float(f.omega[k - 1])
        width = float(f.eta[k]) - e0
        a = float(f.right[k - 1])
        c = 0.5 * (float(f.left[k]) - a) / width
        lin, quad, rest = we + wo * a, wo * c, target - float(vals[k - 1])
        u = min(max(_stable_root(lin, quad, rest), 0.0), width)
        e, w = e0 + u, w0 + a * u + c * u * u
    return 0.5 * (e + w), 0.5 * (e - w)


def _window_knots(f: _Front, t_end: float):
    """Window-local front knots (t, rho): every knot below t_end and a
    final knot exactly at t_end, on its cell's quadratic (see
    :func:`_front_point`), so the truncated piece takes the local speed."""
    t = 0.5 * (f.eta + f.omega)
    keep = t < t_end - 1e-13
    ts = np.append(t[keep], t_end)
    rho = np.append(0.5 * (f.eta - f.omega)[keep], _front_point(f, t_end)[1])
    rho = np.maximum.accumulate(rho)
    dts = np.diff(ts)
    seg = np.minimum(np.maximum(np.diff(rho) / dts, 0.0), _SLOPE_CAP)
    rho = np.concatenate(([rho[0]], rho[0] + np.cumsum(seg * dts)))
    return ts, rho


def run(data: ProblemData, tough: Toughness, horizon: float,
        delta: float = 1.0 / 128, stop_margin: Optional[float] = None) -> GriffithRun:
    """March the coupled problem until the horizon or full debonding.

    Each window solves the strip fixed point for the front's omega(eta),
    and advances by the full rows below the point where the front leaves
    the strip (at its top or on its last diagonal), or to the first full
    row past the next toughness breakpoint, so no window straddles one.
    The strip's width and its greatest height come from the window's
    geometric horizon T, but it is built only as tall as the window can
    keep, and solved once more at T when its front leaves it, or reaches
    the run's last row, less than two rows below its top (see the module
    docstring); each window's diagnostics record ``T``, the accepted
    ``strip_rows`` and whether it was ``regrown``.  The window then
    extends the run's patches over the produced front by certified
    prescribed windows, and re-bases the data from the last of them for
    the next window.  The strip's width comes from the band bound of
    :func:`_seed_width` alone; its contraction is measured, not certified.
    Both fixed points stop by :func:`~debondsim.prescribed.fixed_point`, so
    a strip that does not converge raises ConvergenceError naming its
    window's t.

    The bonded annulus counts as debonded once R - rho is at most
    ``stop_margin`` (default 2 delta), to 1e-12; one predicate makes that
    test at the start, where a debonded annulus raises ValueError, before
    each window and for the stop reason.  A margin below delta raises
    ValueError: with it at least delta, every strip's outer radius
    rho + T stays below R.  A run stops "fully_debonded" when its front is
    debonded, else at the horizon.
    """
    if stop_margin is None:
        stop_margin = 2.0 * delta
    if stop_margin < delta:
        raise ValueError(f"stop_margin = {stop_margin:.6g} is below the lattice step "
                         f"delta = {delta:.6g}")
    hd = to_h_data(data)
    R = hd.R

    def debonded(rho: float) -> bool:
        return R - rho <= stop_margin + 1e-12

    if debonded(hd.rho0):
        raise ValueError("the annulus is already within the stop margin")
    n_total = _row_count(horizon, delta)
    if n_total < 1:
        raise ValueError("horizon must cover at least one lattice step")

    t_knots = [0.0]
    rho_knots = [hd.rho0]
    local = hd
    patches: List[FieldPatch] = []
    diags: List[dict] = []
    rows_done = 0

    while rows_done < n_total and not debonded(rho_knots[-1]):
        if patches:
            local = _seam_data(patches[-1], corner_wavefronts(front, front.horizon))
        rho_bar = rho_knots[-1]
        T_cap = min(0.45 * rho_bar, 0.9 * (R - rho_bar))
        L = max(1, int(math.floor(T_cap / delta + 1e-9)))
        T = L * delta

        later = tough.breakpoints[tough.breakpoints > rho_bar + 1e-12]
        b_next = float(later[0]) if len(later) else None

        m = _seed_width(local, tough, T, delta)

        t0 = rows_done * delta
        rows_left = n_total - rows_done
        strip_rows = _strip_rows(_start_slope(local, tough), m, L, rows_left)
        for regrown in (False, True):  # the first strip, then at most one regrow at L
            ws = StripWorkspace(local, tough, strip_rows * delta, m, delta)
            h_strip, om, wdiag = solve_coupled_window(ws, t0)
            f = ws.rate_front(h_strip, om)
            # the front leaves the strip at its top or on its last diagonal
            t_exit = min(ws.T, _front_point(f, float(ws.s[-1]), "omega")[0])
            # kept only if that, or the run's last row, is two rows below the top
            if strip_rows == L or min(t_exit / delta, rows_left) <= strip_rows - 2 + 1e-9:
                break
            strip_rows = L

        adv_rows = min(rows_left, max(1, int(math.floor(t_exit / delta + 1e-12))))
        if b_next is not None:
            t_end = adv_rows * delta
            if _front_point(f, t_end)[1] >= b_next - 1e-12:
                # never straddle a toughness breakpoint: cut at the first
                # full row past the crossing
                t_cross = _front_point(f, b_next, "rho")[0]
                adv_rows = max(1, int(math.ceil(t_cross / delta - 1e-9)))
        tw, rw = _window_knots(f, adv_rows * delta)
        if b_next is not None:  # a front that reached b to 1e-9 sits on it
            rw[(rw < b_next) & (rw > b_next - 1e-9)] = b_next

        # the strip never halves, so shrinks is always 0; perfbench/bench.py sums it
        wdiag.update(t_start=t0, T=T, strip_rows=strip_rows, regrown=regrown, y=m * delta,
                     m=m, rows=adv_rows, shrinks=0, rho_end=float(rw[-1]))
        diags.append(wdiag)

        for tk, rk in zip(tw[1:], rw[1:]):
            t_knots.append(t0 + float(tk))
            rho_knots.append(float(rk))
        rows_done += adv_rows
        front = FrontCurve(np.asarray(t_knots), np.asarray(rho_knots), R)

        # the window's field: the prescribed solve of the produced front,
        # continued from the last seam, is the run's field there
        _extend(patches, local, front, rows_done, delta)

    stop_reason = "fully_debonded" if debonded(rho_knots[-1]) else "horizon"
    return GriffithRun(front=front, patches=patches, t_star=rows_done * delta,
                       stop_reason=stop_reason, delta=delta, window_diagnostics=diags)
