"""Coupled front evolution by the critical-rate flow rule.

The front is unknown; its crossing time lambda(s) of each characteristic
t - r = s obeys the rate ODE

    lambda'(s) = (1 + max(Lam(s), 1)) / 2,    lambda(-rho0) = 0,

where Lam is the ratio of the release rate to the toughness, evaluated
from the data traces and a characteristic line integral of the kernel
field.  Each marching window alternates two updates on a diagonal strip
hugging the front: the field update (free solution plus half the cone
integral, cut off at the current front) and the lambda update (cumulative
quadrature of the rate law).  The pair contracts in the product metric
max(L2 field distance, sup lambda distance) once the strip is narrow
enough; the width starts from the analytic sufficiency bounds and halves
whenever the measured factor misbehaves.  The pair stops by the rule of the
prescribed Picard iteration, with its constants ``_TOL`` and ``_MAX_ITER``
(see :mod:`debondsim.prescribed`).

A window's time horizon is set by geometry alone (0.45 rho and
0.9 (R - rho)), never by the run's horizon: the last window is solved to
its full height and cut at the run's horizon on the quadratic crossing
curve, since a window capped there would take its last column's rate
slope behind the front.  A window whose front would outrun its own time
horizon is capped: the lambda iterate is frozen at the horizon, which
leaves every in-window formula untouched (the strip never looks past its
last row) and lets fast fronts advance a full window per step.  After each
window the prescribed window loop extends the run's patches over the
produced front, in global time, with its seams split at the run's corner
wavefronts; those patches give exact seam traces for the next window and
are the run's output field, so the field is solved once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .fields import HData, ProblemData, Toughness, kappa_eval, kernel_prefactor, to_h_data
from .geometry import FrontCurve, GeometryError, corner_wavefronts
from .prescribed import (
    _MAX_ITER, _TOL, ConvergenceError, FieldPatch, _extend, _row_count, _seam_data,
)
from .quadrature import column_cumulative, sheared_cone_integrals

_SLOPE_CAP = 1.0 - 1e-9


class _Shrink(Exception):
    """Internal: the current strip width must be halved."""


# ---------------------------------------------------------------------------
# the strip workspace
# ---------------------------------------------------------------------------

class StripWorkspace:
    """Characteristic strip along the front for one coupled window.

    Node (l, k) sits at t = l*delta on the diagonal t - r = s_k, with
    s_k = -rho0 + k*delta, k = 0..m; the physical radius is t - s_k.
    Everything the two updates need (data columns, kernel columns, the
    induced reflection map) lives here.  The terms that do not depend on
    the lambda iterate are built once, here: the direct branch of the free
    solution (nodes with t + r <= rho0, which see no reflection) and the
    anti-diagonals eta of the cone sum.  The strip is narrow (m + 1 columns
    against 2L + 1 half rows), so the cone-sum kernel indexes each
    anti-diagonal by column and its work is O(L * m).
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
        self.y = m * delta

        ll = np.arange(self.L + 1)[:, None] * delta
        self.t_grid = np.broadcast_to(ll, (self.L + 1, m + 1))
        self.r_grid = self.t_grid - self.s[None, :]
        self.eta_grid = self.t_grid + self.r_grid

        R, alpha = hd.R, hd.alpha
        if np.max(self.r_grid) >= R:
            raise GeometryError("strip reaches the rim radius")
        self.kern = kernel_prefactor(self.r_grid, R, alpha)

        self.h0_col = np.asarray(hd.h0(-self.s), dtype=float)
        self.H1_col = np.asarray(hd.h1.cumint(-self.s), dtype=float)
        self.h0d_col = np.asarray(hd.h0_dot(-self.s), dtype=float)
        self.h1_col = np.asarray(hd.h1(-self.s), dtype=float)

        # lambda-independent terms of the two updates
        self.direct = self.eta_grid <= self.rho0 + 1e-14
        eta_d = np.clip(self.eta_grid, 0.0, self.rho0)
        self.a_direct = (0.5 * self.h0_col[None, :] + 0.5 * hd.h0(eta_d)
                         + 0.5 * (hd.h1.cumint(eta_d) - self.H1_col[None, :]))
        self.cone_eta = self.rho0 + delta * np.arange(-m, 2 * self.L + 1)
        self.cone_refl = self.cone_eta > self.rho0 + 1e-12

    def blank(self) -> np.ndarray:
        return np.zeros((self.L + 1, self.m + 1))

    # -- induced front ------------------------------------------------------

    def _lam_capped(self, lam: np.ndarray) -> np.ndarray:
        return np.minimum(lam, self.T)

    def inside_mask(self, lam: np.ndarray) -> np.ndarray:
        return self.t_grid <= self._lam_capped(lam)[None, :] + 1e-12

    def omega_of(self, lam: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Reflected-characteristic map induced by the lambda iterate:
        the front point with t + r = eta has t - r = omega(eta).

        u = 2 min(lambda, T) - s increases in s up to the first capped
        column and decreases past it, where np.interp cannot read it, so the
        table stops there: no strip node on or behind the front has eta
        above that column's u."""
        lamc = self._lam_capped(lam)
        capped = np.flatnonzero(lamc >= self.T)
        n = capped[0] + 1 if len(capped) else len(lamc)
        u = 2.0 * lamc[:n] - self.s[:n]
        eta_c = np.clip(eta, u[0], u[-1])
        out = np.interp(eta_c, u, self.s[:n])
        return np.where(eta <= self.rho0, -self.rho0, out)

    # -- field update ---------------------------------------------------------

    def free_solution(self, lam: np.ndarray) -> np.ndarray:
        hd = self.hd
        q = np.clip(-self.omega_of(lam, self.eta_grid), 0.0, self.rho0)
        a_refl = (0.5 * self.h0_col[None, :] - 0.5 * hd.h0(q)
                  + 0.5 * (hd.h1.cumint(q) - self.H1_col[None, :]))
        return np.where(self.direct, self.a_direct, a_refl)

    def cone_integrals(self, lam: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Phi[F] at every strip node, cut at the induced front.

        The strip is already in sheared layout (column k is the diagonal
        s_k), and every anti-diagonal past rho0 starts on column 0.
        """
        d = self.delta
        om = self.omega_of(lam, self.cone_eta)
        cut = np.where(self.cone_refl, (om + self.rho0) / d, 0.0)
        return sheared_cone_integrals(F, d, cut)

    def psi1(self, h: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Field update: free solution plus half the cone integral of the
        kernel field, zero past the induced front."""
        F = self.kern * h
        out = self.free_solution(lam) + 0.5 * self.cone_integrals(lam, F)
        return np.where(self.inside_mask(lam), out, 0.0)

    # -- rate update ----------------------------------------------------------

    def rate_ratio(self, h: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Lam(s_k): release rate over toughness along the front candidate."""
        d = self.delta
        hd, tough = self.hd, self.tough
        lamc = self._lam_capped(lam)
        F = self.kern * h
        C = column_cumulative(F, d)
        lf = np.clip(np.floor(lamc / d + 1e-12).astype(int), 0, self.L)
        cols = np.arange(self.m + 1)
        line = C[lf, cols]
        rem = lamc - lf * d
        has = rem > 1e-13
        if np.any(has):
            frac = rem / d
            f_lo = F[lf, cols]
            f_hi = F[np.minimum(lf + 1, self.L), cols]
            f_end = (1.0 - frac) * f_lo + frac * f_hi
            line = np.where(has, line + 0.5 * rem * (f_lo + f_end), line)

        bracket = self.h0d_col - self.h1_col - line
        rho = np.clip(lamc - self.s, self.rho0, hd.R - 1e-9)
        kap = kappa_eval(tough, np.minimum(rho, tough.R - 1e-12))
        den = 2.0 * (hd.R - rho) * np.exp(hd.alpha * lamc) * kap
        return bracket * bracket / den

    def rate_slopes(self, h: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Crossing-time slopes (1 + max(Lam, 1)) / 2 at the s-samples."""
        big = self.rate_ratio(h, lam)
        return 0.5 * (1.0 + np.maximum(big, 1.0))

    def lambda_cumulative(self, slope: np.ndarray) -> np.ndarray:
        out = np.empty_like(slope)
        out[0] = 0.0
        np.cumsum(0.5 * self.delta * (slope[:-1] + slope[1:]), out=out[1:])
        return out

    def psi2(self, h: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Rate update: cumulative quadrature of the crossing-time ODE,
        frozen at the window horizon once it is reached."""
        return np.minimum(self.lambda_cumulative(self.rate_slopes(h, lam)), self.T)

    def metric(self, h1, lam1, h2, lam2) -> float:
        dh = math.sqrt(float(np.sum((h1 - h2) ** 2)) * self.delta * self.delta)
        dl = float(np.max(np.abs(lam1 - lam2)))
        return max(dh, dl)


def solve_coupled_window(ws: StripWorkspace, M: float, t_start: float):
    """Alternate the field and rate updates on the strip of a window
    starting at ``t_start`` until the product metric drops below ``_TOL``.
    Raises _Shrink when the sup cap M or the measured contraction says the
    strip is too wide."""
    lam = np.minimum(ws.s + ws.rho0, ws.T)  # unit-slope start: front at rest
    h = ws.psi1(ws.blank(), lam)            # free solution on the strip
    history = []
    for it in range(1, _MAX_ITER + 1):
        h_new = ws.psi1(h, lam)
        lam_new = ws.psi2(h_new, lam)
        d = ws.metric(h_new, lam_new, h, lam)
        history.append(d)
        h, lam = h_new, lam_new
        if float(np.max(np.abs(h))) > M:
            raise _Shrink("field escaped the sup cap")
        if d < _TOL:
            break
        if it >= 5 and history[-2] > 0 and d / history[-2] >= 0.9:
            raise _Shrink("measured contraction factor >= 0.9")
    else:
        raise ConvergenceError(
            f"coupled window at t = {t_start:.6g} did not converge "
            f"(last metric {history[-1]:.3e}, factors "
            f"{[round(b / a, 3) for a, b in zip(history[:-1], history[1:])][-3:]})")
    factors = [b / a for a, b in zip(history[:-1], history[1:]) if a > 0]
    diag = {
        "iterations": len(history),
        "final_metric": history[-1],
        "measured_factor": max(factors) if factors else 0.0,
    }
    return h, lam, diag


# ---------------------------------------------------------------------------
# window sizing
# ---------------------------------------------------------------------------

def _band_integrals(hd: HData, y: float):
    ss = np.linspace(hd.rho0 - y, hd.rho0, 257)
    absum = np.abs(hd.h0_dot(ss)) + np.abs(hd.h1(ss))
    sqsum = (np.asarray(hd.h0_dot(ss)) - np.asarray(hd.h1(ss))) ** 2
    return float(np.trapezoid(absum, ss)), float(np.trapezoid(sqsum, ss))

def _seed_width(hd: HData, tough: Toughness, T: float, M: float,
                delta: float, y_cap: float) -> int:
    """Largest lattice multiple of the strip width passing the analytic
    self-map bounds (conservative, later halved adaptively)."""
    R, alpha = hd.R, hd.alpha
    rho_max = hd.rho0 + T
    gap = R - hd.rho0 - T
    if gap <= 0:
        return 1
    m = max(1, int(math.floor(y_cap / delta)))
    while m > 1:
        y = m * delta
        int_abs, int_sq = _band_integrals(hd, y)
        bound1 = int_abs + 0.125 * (alpha ** 2 + 1.0 / (R - rho_max) ** 2) * M * T * y
        bound2 = (y + int_sq / (2.0 * tough.c1 * gap)
                  + (M * T) ** 2 * (alpha ** 2 + 1.0 / gap ** 2) ** 2
                  / (32.0 * tough.c1 * gap) * y)
        if bound1 <= M and bound2 <= T:
            break
        m //= 2
    return max(1, m)


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


def _cell_cut(ws: StripWorkspace, lam_raw: np.ndarray, slopes: np.ndarray,
              j: int, target: float, radius: bool = False):
    """Point (t, s) in the cell [s_{j-1}, s_j] where the front reaches the
    time ``target`` (with ``radius``, the radius ``target``).

    The crossing time is the cumulative trapezoid of the rate slopes, so in
    the cell it is lambda_{j-1} + a u + c u^2 at s = s_{j-1} + u, and the
    radius lambda - s has slope a - 1; the cut inverts that quadratic.
    """
    d = ws.delta
    a = float(slopes[j - 1])
    c = 0.5 * (float(slopes[j]) - a) / d
    s0, t0 = float(ws.s[j - 1]), float(lam_raw[j - 1])
    lin, rest = (a - 1.0, target - (t0 - s0)) if radius else (a, target - t0)
    den = lin + math.sqrt(max(lin * lin + 4.0 * c * rest, 0.0))
    u = min(max(2.0 * rest / den, 0.0), d) if den > 0.0 else d
    return t0 + a * u + c * u * u, s0 + u


def _crossings(ws: StripWorkspace, lam_raw: np.ndarray, slopes: np.ndarray):
    """Knots (t, s) of the window's front and the number n of leading knots
    that are lattice columns crossing the front within the strip horizon.

    A column crossing past the horizon T is replaced by the quadratic
    crossing of T inside its cell.  That last cell is capped: its far
    column's rate slope was taken at T, behind the front.
    """
    n = int(np.searchsorted(lam_raw, ws.T + 1e-15, side="right"))
    ts, ss = lam_raw[:n], ws.s[:n]
    if n < len(lam_raw) and ws.T > ts[-1] + 1e-13:
        t, s = _cell_cut(ws, lam_raw, slopes, n, ws.T)
        ts, ss = np.append(ts, ws.T), np.append(ss, s)
    return ts, ss, n


def _front_point(ws: StripWorkspace, lam_raw: np.ndarray, slopes: np.ndarray,
                 target: float, radius: bool = False):
    """Point (t, s) where the window's front reaches the time ``target``
    (with ``radius``, where it first reaches the radius ``target``).

    Cells between two uncapped columns are cut on the quadratic crossing
    curve; the capped cell is cut along its chord, since the quadratic
    there would use an off-front slope.
    """
    ts, ss, n = _crossings(ws, lam_raw, slopes)
    key = ts - ss if radius else ts
    i = int(np.searchsorted(key, target - 1e-13))
    if i == len(key) or i == 0 or key[i] - target <= 1e-13:
        i = min(i, len(key) - 1)
        return float(ts[i]), float(ss[i])
    if i < n:
        return _cell_cut(ws, lam_raw, slopes, i, target, radius)
    w = (target - key[i - 1]) / (key[i] - key[i - 1])
    return (float(ts[i - 1] + w * (ts[i] - ts[i - 1])),
            float(ss[i - 1] + w * (ss[i] - ss[i - 1])))


def _front_knots(ws: StripWorkspace, lam_raw: np.ndarray,
                 slopes: np.ndarray, t_end: float):
    """Window-local front knots (t, rho) from the converged crossing times.

    Knots sit at the crossing times themselves, so each segment slope is
    the trapezoid-consistent front speed.  A final knot lands exactly on
    t_end; inside an uncapped cell it is placed on the quadratic crossing
    curve, so the truncated piece takes the local speed rather than the
    whole cell's (see :func:`_front_point`).
    """
    ts, ss, _ = _crossings(ws, lam_raw, slopes)
    keep = ts < t_end - 1e-13
    s_end = _front_point(ws, lam_raw, slopes, t_end)[1]
    ts = np.append(ts[keep], t_end)
    rho = ts - np.append(ss[keep], s_end)
    rho = np.maximum.accumulate(rho)
    dts = np.diff(ts)
    seg = np.clip(np.diff(rho) / dts, 0.0, _SLOPE_CAP)
    rho = np.concatenate(([rho[0]], rho[0] + np.cumsum(seg * dts)))
    return ts, rho


def run(data: ProblemData, tough: Toughness, horizon: float,
        delta: float = 1.0 / 128, stop_margin: Optional[float] = None) -> GriffithRun:
    """March the coupled problem until the horizon or full debonding.

    Each window solves the strip fixed point with the toughness clamped
    past its next breakpoint (so no window straddles one), extends the
    run's patches over the produced front by certified prescribed windows,
    and re-bases the data from the last of them for the next window.  Both
    fixed points stop at the tolerance of :mod:`debondsim.prescribed`.

    The bonded annulus counts as debonded once R - rho is at most
    ``stop_margin`` (default 2 delta), to 1e-12; one predicate makes that
    test at the start, where a debonded annulus raises ValueError, before
    each window and for the stop reason.  A run stops "fully_debonded" when
    its front is debonded, else at the horizon.
    """
    if stop_margin is None:
        stop_margin = 2.0 * delta
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
        tough_w = tough.clamped_after(b_next) if (
            b_next is not None and b_next < rho_bar + T) else tough

        guess = _band_integrals(local, min(0.45 * rho_bar, local.rho0 - delta))[0]
        M = 2.0 * max(guess, float(np.abs(local.h0(local.rho0 - 1e-9))), 1e-9)
        m = _seed_width(local, tough_w, T, M, delta,
                        y_cap=min(0.9 * local.rho0, T))

        shrink_count = 0
        while True:
            ws = StripWorkspace(local, tough_w, T, m, delta)
            try:
                h_strip, lam, wdiag = solve_coupled_window(ws, M, rows_done * delta)
                break
            except _Shrink as exc:
                shrink_count += 1
                m //= 2
                if m < 1:
                    raise ConvergenceError(
                        f"strip width underflow below the lattice step at "
                        f"t = {rows_done * delta:.6g}: {exc}") from exc

        slopes = ws.rate_slopes(h_strip, lam)
        lam_raw = ws.lambda_cumulative(slopes)
        capped = bool(lam_raw[-1] >= ws.T - 1e-12)
        adv_rows = min(n_total - rows_done, ws.L if capped else max(
            1, int(math.floor(float(lam_raw[-1]) / delta + 1e-12))))
        if b_next is not None:
            t_end = adv_rows * delta
            if t_end - _front_point(ws, lam_raw, slopes, t_end)[1] >= b_next - 1e-12:
                # never straddle a toughness breakpoint: cut at the first
                # full row past the crossing
                t_cross = _front_point(ws, lam_raw, slopes, b_next, radius=True)[0]
                adv_rows = max(1, int(math.ceil(t_cross / delta - 1e-9)))
        tw, rw = _front_knots(ws, lam_raw, slopes, adv_rows * delta)

        t0 = rows_done * delta
        wdiag.update(capped=capped, t_start=t0, T=ws.T, y=ws.y, m=m, rows=adv_rows,
                     shrinks=shrink_count, rho_end=float(rw[-1]))
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
