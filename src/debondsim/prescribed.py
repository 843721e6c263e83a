"""Fixed-point solver for the wave field under a prescribed front.

Each marching window solves the representation identity

    h = A + (1/2) Phi[F[h]],      F[h] = (alpha^2 + 1/(R-r)^2)/4 * h

by Picard iteration on a characteristic lattice, starting from the free
solution A.  Window lengths are chosen so the iteration is a certified
contraction.  One window loop marches a front in global time: it re-bases
the data at every seam using the exact derivative trace formulas (never
finite differences), with double knots where a corner wavefront crosses
the seam, and composes the exponential weight so each window works with
well-conditioned local values.  :func:`march` runs it from t = 0; the
coupled solver extends its patches with it after every coupled window.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import List

import numpy as np

from .dalembert import TravelingWaves, free_derivatives, free_solution, traveling_decomposition
from .fields import HData, ProblemData, Profile, kernel_prefactor, to_h_data, v_from_h
from .geometry import GeometryError, corner_wavefronts, jump_radii
from .quadrature import CharLattice, char_line_integrals, cone_integrals_batch, phi_time_trace


class ConvergenceError(RuntimeError):
    """Raised when a fixed-point iteration fails to reach tolerance."""


_DEFAULT_TOL = 1e-10
_DEFAULT_MAX_ITER = 200


# ---------------------------------------------------------------------------
# window planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowPlan:
    """One marching window with its certified contraction factor."""

    t_start: float
    t_end: float
    contraction_bound: float
    delta: float

    def __post_init__(self):
        if self.contraction_bound >= 1.0:
            raise ConvergenceError("window is not a certified contraction")

    @property
    def length(self) -> float:
        return self.t_end - self.t_start

    @property
    def nt(self) -> int:
        return int(round(self.length / self.delta))


def certified_step(rho_k: float, R: float, alpha: float) -> float:
    """Marching step with a guaranteed contraction, from the window
    recursion: half the min of rho_k/2, (R-rho_k)/2 and the kernel bound."""
    kern_term = (4.0 / rho_k) / (alpha * alpha + 4.0 / (R - rho_k) ** 2)
    return 0.5 * min(0.5 * rho_k, 0.5 * (R - rho_k), kern_term)


def contraction_bound(rho_k: float, R: float, alpha: float, T: float) -> float:
    """Analytic sup-norm Lipschitz bound of the window operator.

    The strip estimate rho_k*T/4*(alpha^2 + 4/(R-rho_k)^2) applies for
    window lengths within the planning cap; very short windows near full
    debonding fall back on the sharper cone-area bound T^2/8 * max-kernel.
    """
    best = np.inf
    if T <= min(0.5 * rho_k, 0.5 * (R - rho_k)) + 1e-12:
        best = 0.25 * rho_k * T * (alpha * alpha + 4.0 / (R - rho_k) ** 2)
    if rho_k + T < R:
        sharp = 0.125 * T * T * (alpha * alpha + 1.0 / (R - rho_k - T) ** 2)
        best = min(best, sharp)
    return best


def _row_count(horizon: float, delta: float) -> int:
    """Lattice rows covering [0, horizon]: the nearest whole count when the
    horizon is a lattice time to rounding, else the next one up."""
    n = int(round(horizon / delta))
    if abs(n * delta - horizon) > 1e-9 * max(1.0, horizon):
        n = int(math.ceil(horizon / delta - 1e-9))
    return n


def plan_windows(front, alpha: float, i0: int, i1: int,
                 delta: float) -> List[WindowPlan]:
    """Cover lattice rows i0..i1 of the front's time with certified
    windows snapped to the lattice."""
    if i1 * delta > front.horizon + 1e-9:
        raise GeometryError("horizon exceeds the front domain")
    R = front.R
    plans: List[WindowPlan] = []
    while i0 < i1:
        t0 = i0 * delta
        rho_k = float(front.rho(t0))
        steps = int(math.floor(certified_step(rho_k, R, alpha) / delta + 1e-9))
        steps = max(1, min(steps, i1 - i0))
        while True:
            T = steps * delta
            q = contraction_bound(rho_k, R, alpha, T)
            if q < 0.999 or steps == 1:
                break
            steps = max(1, steps // 2)
        if q >= 0.999:
            raise ConvergenceError(
                f"no certified window at t = {t0:.6g} (front too close to the rim)")
        plans.append(WindowPlan(t_start=t0, t_end=(i0 + steps) * delta,
                                contraction_bound=q, delta=delta))
        i0 += steps
    return plans


# ---------------------------------------------------------------------------
# one window
# ---------------------------------------------------------------------------

FieldSample = namedtuple("FieldSample", "h h_t h_r v v_t v_r u")


@dataclass
class FieldPatch:
    """Converged field on one window lattice, plus everything needed to
    evaluate values and exact derivative traces inside the window.

    ``lattice.values`` stores the locally rescaled field; global values
    carry the factor ``scale`` = exp(alpha * t_start / 2).
    """

    lattice: CharLattice
    window: WindowPlan
    hdata: HData
    waves: TravelingWaves
    scale: float
    F: np.ndarray
    diagnostics: dict

    @property
    def t0(self) -> float:
        return self.window.t_start

    @property
    def t1(self) -> float:
        return self.window.t_end

    def rho_local(self, t_loc):
        return self.lattice.front.rho(t_loc)

    # -- local evaluation ---------------------------------------------------

    def local_value(self, t_loc, r):
        """Field value at window-local points (t_loc and r broadcast)."""
        return self.lattice.sample(self.lattice.values, t_loc, r)

    def local_traces(self, t_loc, r):
        """(h, h_t, h_r) in window-local variables, exact trace formulas, at
        one point (floats) or at arrays of points (t_loc and r broadcast).
        At a lattice node h is the node value; elsewhere it is the
        lattice's sample, and 0 on the front."""
        scalar = np.ndim(t_loc) == 0 and np.ndim(r) == 0
        t_loc, r = np.broadcast_arrays(np.asarray(t_loc, dtype=float),
                                       np.asarray(r, dtype=float))
        rho_t = np.asarray(self.rho_local(t_loc), dtype=float)
        beyond = r > rho_t + 1e-9
        if np.any(beyond):
            k = np.flatnonzero(beyond.ravel())[0]
            raise GeometryError(
                f"point beyond the front: window-local (t, r) = ({t_loc.flat[k]:.6g}, "
                f"{r.flat[k]:.6g}) is past rho(t) = {rho_t.flat[k]:.6g}")
        r = np.minimum(r, rho_t)
        d_t, d_r = free_derivatives(self.waves, t_loc, r)
        g1, g2 = phi_time_trace(self.lattice, self.F, t_loc, r)
        h_t = d_t + 0.5 * (g1 + g2)
        h_r = d_r + 0.5 * (g1 - g2)
        i, j, node = self.lattice.node_index(t_loc, r)
        h = np.array(self.lattice.values[i, j])  # replaced off the nodes
        off = ~node
        if np.any(off):
            h[off] = self.local_value(t_loc[off], r[off])
        h = np.where(np.abs(r - rho_t) < 1e-14, 0.0, h)
        if scalar:
            return float(h), float(h_t), float(h_r)
        return h, h_t, h_r

    def front_bracket(self, t_loc):
        """The squared-bracket trace h_r - h_t at the front point, from
        window data and the characteristic line integral of F; t_loc may be
        an array of window-local times."""
        rho_t = self.rho_local(t_loc)
        s = rho_t - t_loc
        hd = self.hdata
        line = char_line_integrals(self.lattice, self.F, 1.0, s, 0.0, t_loc)
        out = hd.h0_dot(s) - hd.h1(s) - line
        return float(out) if np.ndim(t_loc) == 0 else out

    def rim_bracket(self, t_loc):
        """The trace h_r + h_t at the rim, from window data and the
        reflected characteristic line integral of F, the -45 line from
        (0, t_loc) to the rim; t_loc may be an array."""
        hd = self.hdata
        line = char_line_integrals(self.lattice, self.F, -1.0, t_loc, 0.0, t_loc)
        out = hd.h0_dot(t_loc) + hd.h1(t_loc) + line
        return float(out) if np.ndim(t_loc) == 0 else out


class _Workspace:
    """Grids shared by all Picard sweeps of one window."""

    def __init__(self, hdata: HData, front_local, plan: WindowPlan):
        self.lattice = CharLattice(front_local, plan.delta, plan.nt)
        lat = self.lattice
        self.waves = traveling_decomposition(hdata, front_local)
        tt = lat.times[:, None]
        rr = lat.radii[None, :]
        self.free_grid = lat.masked(free_solution(hdata, front_local, tt, rr, check=False))
        sigma = np.minimum(lat.radii, hdata.R - 1e-9)
        kern_row = kernel_prefactor(sigma, hdata.R, hdata.alpha)
        self.kern = np.where(lat.radii < hdata.R - 1e-9, kern_row, 0.0)[None, :]
        self.z_col = np.asarray(hdata.z(lat.times), dtype=float)


def apply_L(h: np.ndarray, ws: _Workspace) -> np.ndarray:
    """One application of the window operator: free solution plus half the
    cone integral of the kernel field, boundary and initial rows reimposed."""
    lat = ws.lattice
    F = ws.kern * lat.masked(h)
    J = cone_integrals_batch(lat, F)
    out = lat.masked(ws.free_grid + 0.5 * J)
    out[:, 0] = ws.z_col
    out[0, :] = ws.free_grid[0, :]
    return out


def solve_window(hdata: HData, front, window: WindowPlan,
                 tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER,
                 scale: float = 1.0) -> FieldPatch:
    """Picard-iterate the window operator from the free solution until the
    sup-norm update drops below tol."""
    front_local = front.window(window.t_start, window.t_end)
    ws = _Workspace(hdata, front_local, window)
    lat = ws.lattice

    h = ws.free_grid.copy()
    h[:, 0] = ws.z_col
    residuals = []
    for it in range(1, max_iter + 1):
        h_new = apply_L(h, ws)
        res = float(np.max(np.abs(h_new - h)))
        residuals.append(res)
        h = h_new
        if res < tol:
            break
    else:
        measured = residuals[-1] / residuals[-2] if len(residuals) > 1 and residuals[-2] else np.nan
        raise ConvergenceError(
            f"window at t = {window.t_start:.6g} did not converge in {max_iter} "
            f"iterations (last update {residuals[-1]:.3e}, measured factor {measured:.3f})")

    measured = [residuals[i + 1] / residuals[i] for i in range(len(residuals) - 1)
                if residuals[i] > 0]
    lat.values = h
    diag = {
        "iterations": len(residuals),
        "final_update": residuals[-1],
        "contraction_bound": window.contraction_bound,
        "measured_factor": max(measured) if measured else 0.0,
    }
    return FieldPatch(lattice=lat, window=window, hdata=hdata, waves=ws.waves,
                      scale=scale, F=ws.kern * h, diagnostics=diag)


# ---------------------------------------------------------------------------
# marching
# ---------------------------------------------------------------------------

def _seam_data(patch: FieldPatch, wavefronts) -> HData:
    """Window data for the seam at the patch's end from the exact end-row
    traces.

    ``wavefronts`` are the run's corner-wavefront segments, in the form
    :func:`~debondsim.geometry.corner_wavefronts` returns; where one
    crosses the seam row the derivative fields jump, and the sampled
    profiles get a double knot there so the next window inherits a sharp
    jump instead of a smeared cell.
    """
    lat = patch.lattice
    hd = patch.hdata
    t_end = lat.nt * lat.delta
    rho_end = float(patch.rho_local(t_end))
    j_in = int(math.floor(rho_end / lat.delta + 1e-12))

    # the end row's nodes, the banks of every seam jump and the front point,
    # in one trace call
    banks = [r_star + side for r_star in jump_radii(wavefronts, patch.t1, rho_end)
             for side in (-1e-9, 1e-9)]
    r_pts = np.concatenate((lat.radii[: j_in + 1], banks, [rho_end]))
    h_pts, ht_pts, hr_pts = patch.local_traces(t_end, r_pts)

    rs = r_pts[:-1]
    order = np.argsort(rs, kind="stable")
    order = order[np.concatenate(([True], np.diff(rs[order]) > 1e-12))]
    rs = rs[order]
    h0_s, h1_s, hd0_s = (pts[:-1][order] for pts in (h_pts, ht_pts, hr_pts))
    if rho_end - rs[-1] > 1e-10:
        rs = np.append(rs, rho_end)
        h0_s = np.append(h0_s, 0.0)
        h1_s = np.append(h1_s, ht_pts[-1])
        hd0_s = np.append(hd0_s, hr_pts[-1])
    else:
        h0_s[-1] = 0.0

    decay = math.exp(-0.5 * hd.alpha * patch.window.length)
    h0_s, h1_s, hd0_s = decay * h0_s, decay * h1_s, decay * hd0_s

    z_next = hd.z.shifted(patch.window.length, decay)
    h0_s[0] = float(z_next(0.0))  # seam compatibility, exact
    h0 = Profile.from_samples(rs, h0_s, method="linear", deriv_samples=hd0_s)
    h1 = Profile.from_samples(rs, h1_s, method="linear")
    return HData(R=hd.R, rho0=rho_end, alpha=hd.alpha, z=z_next,
                 h0=h0, h1=h1, h0_dot=h0.deriv)


def _extend(patches: List[FieldPatch], data: HData, front, i1: int,
            delta: float, tol: float, max_iter: int) -> List[FieldPatch]:
    """Append the certified windows of ``front`` (global time) from the end
    of the last patch, or row 0, to lattice row i1.

    ``data`` is the window data at that start.  Every later seam is
    re-based from the previous patch, split at the front's corner
    wavefronts, and each window's weight ``scale`` follows the previous
    patch's as scale * exp(alpha * length / 2).
    """
    i0 = int(round(patches[-1].t1 / delta)) if patches else 0
    plans = plan_windows(front, data.alpha, i0, i1, delta)
    wavefronts = corner_wavefronts(front, plans[-1].t_end)
    for k, plan in enumerate(plans):
        prev = patches[-1] if patches else None
        scale = prev.scale * math.exp(0.5 * data.alpha * prev.window.length) if prev else 1.0
        local = _seam_data(prev, wavefronts) if k else data
        patches.append(solve_window(local, front, plan, tol=tol, max_iter=max_iter,
                                    scale=scale))
    return patches


def march(data: ProblemData, front, horizon: float, tol: float = _DEFAULT_TOL,
          delta: float = 1.0 / 128, max_iter: int = _DEFAULT_MAX_ITER) -> List[FieldPatch]:
    """Solve up to the horizon by sequential certified windows.

    Seam traces are taken from the exact derivative formulas of the
    previous patch, and the local fields absorb the exponential weight so
    the stored values stay O(data).
    """
    return _extend([], to_h_data(data), front, _row_count(horizon, delta),
                   delta, tol, max_iter)


def locate_patch(patches: List[FieldPatch], t: float) -> FieldPatch:
    for patch in patches:
        if t <= patch.t1 + 1e-12:
            if t < patch.t0 - 1e-12:
                break
            return patch
    raise GeometryError(f"time {t} is not covered by the solved windows")


def evaluate_field(patches: List[FieldPatch], t: float, r: float) -> FieldSample:
    """Global field values and exact derivatives at one solved point.

    Derivatives combine the analytic traveling-wave derivatives with the
    boundary line integrals of the kernel field; the value interpolates
    the window lattice.  Output is in unweighted (global) variables.
    """
    patch = locate_patch(patches, t)
    t_loc = t - patch.t0
    hd = patch.hdata
    h_loc, ht_loc, hr_loc = patch.local_traces(t_loc, r)
    s = patch.scale
    h, h_t, h_r = s * h_loc, s * ht_loc, s * hr_loc
    v, v_t, v_r = v_from_h(h, h_t, h_r, t, r, hd.R, hd.alpha)
    return FieldSample(h=float(h), h_t=float(h_t), h_r=float(h_r),
                       v=float(v), v_t=float(v_t), v_r=float(v_r), u=float(v))
