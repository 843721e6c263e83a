"""Independent reference computations that the tests compare against.

Each one evaluates a quantity the production path also computes, by a
different route, or states an identity the production results must obey:

  * the free solution point by point (:func:`free_solution`), each point
    with its own branch arguments t + r and t - r;
  * the truncated dependence cone of one apex (:func:`cone_region`), its
    integral by iterated quadrature and its exact area;
  * the anti-diagonal cone sum of a sheared field and of a lattice, each
    call building its own layout and index arrays
    (:func:`sheared_cone_integrals`, :func:`cone_integrals_batch`), which
    the planned sums of ``debondsim.quadrature`` must match bitwise;
  * a characteristic line integral sample by sample, the diagonal
    cumulatives row by row, and the derivative traces g1, g2 with every
    point's four characteristic segments through the line kernel;
  * the radii where a corner wavefront crosses one row, and the audit's
    radial energy integrals row by row and segment by segment;
  * the front bracket h_r - h_t and the rim bracket h_r + h_t of a patch,
    each straight from its data and one characteristic line integral of
    its kernel field, not through its traces, and the rim power in closed
    form;
  * the closed-form energy rate at one time, in weighted and in unweighted
    variables;
  * the two routes to the release rate at front speed beta: the kinetic
    factor (1 - beta)/(1 + beta) times G0, and the energy quotient;
  * a front given by callables with numerically inverted maps.

It lives with the tests and is not part of the installed package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from debondsim.dalembert import f_minus, f_plus
from debondsim import fields
from debondsim.energy_audit import _energy_integrands
from debondsim.fields import ProblemData
from debondsim.geometry import _TOL, GeometryError, _asarray
from debondsim.prescribed import _BANK, locate_patch
from debondsim.quadrature import (
    CharLattice, _line_cumulatives, _row_interp, _sheared, char_line_integrals, column_cumulative,
)


# ---------------------------------------------------------------------------
# free solution
# ---------------------------------------------------------------------------

def free_solution(hdata, front, t, r):
    """d'Alembert value f_plus(t + r) + f_minus(t - r) of the free solution
    at points (t, r), which covers pure initial data, the rim reflection
    through z and the front reflection through omega.  Raises for a point
    beyond the front or beyond the first reflection family (t > r and
    t + r > rho0), where the formula no longer holds."""
    t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
    if np.any(r > front.rho(t) + 1e-12):
        raise GeometryError("free solution requested beyond the front")
    if np.any((t > r + 1e-12) & (t + r > hdata.rho0)):
        raise GeometryError("point beyond the first reflection family")
    return f_plus(hdata, t + r, front._omega_unchecked(t + r)) + f_minus(hdata, t - r)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

OMEGA1, OMEGA2, OMEGA3 = "Omega1", "Omega2", "Omega3"


@dataclass(frozen=True)
class ConeRegion:
    """Truncated dependence cone of an apex, in characteristic coordinates
    xi = t - r, eta = t + r.

    The region is { xi_lo <= xi <= xi_hi, max(|xi|, eta_flat) <= eta <= eta_hi }
    with eta_flat = max(xi_hi, 0).  The only boundary that can fall off a
    characteristic-aligned lattice is xi_lo, which carries the reflected
    bound omega(eta_hi) when the apex sees the moving front.
    """

    apex: tuple
    case_tag: str
    xi_lo: float
    xi_hi: float
    eta_hi: float

    @property
    def eta_flat(self) -> float:
        return max(self.xi_hi, 0.0)

    @property
    def is_empty(self) -> bool:
        return self.xi_hi - self.xi_lo <= _TOL


def cone_region(front, t: float, r: float) -> ConeRegion:
    """Classify the apex (t, r) and return its truncated cone."""
    rho_t = float(front.rho(t))
    if r < -1e-10 or r > rho_t + 1e-10:
        raise GeometryError("apex outside the space-time domain")
    xi = t - r
    eta = t + r
    rho0 = front.rho0
    if t > r and eta > rho0 + 1e-12:
        raise GeometryError("apex beyond the first reflection family")
    if eta <= rho0 + _TOL:
        tag = OMEGA1 if t <= r else OMEGA2
        xi_lo = -eta
    else:
        tag = OMEGA3
        xi_lo = float(front._omega_unchecked(np.array(eta)))
    return ConeRegion(apex=(t, r), case_tag=tag, xi_lo=xi_lo, xi_hi=xi, eta_hi=eta)


def phi_of(lat: CharLattice, values: np.ndarray, region: ConeRegion) -> float:
    """Double integral of the field over one truncated cone.

    Iterated trapezoid in characteristic coordinates: an eta-integral
    along every lattice diagonal crossing the region (sampled at row
    crossings), then a xi-trapezoid over the diagonals with clipped end
    cells at the off-lattice edges.
    """
    if region.is_empty:
        return 0.0
    d = lat.delta
    xi_lo, xi_hi, eta_hi = region.xi_lo, region.xi_hi, region.eta_hi
    if (eta_hi > (lat.nt + lat.j_ext) * d + 1e-9
            or 0.5 * (xi_hi + eta_hi) > lat.nt * d + 1e-9):
        raise GeometryError("lattice does not cover the cone")
    c = region.eta_flat

    def diag_value(xi, t, r, on_diag):
        if on_diag:
            i_f = t / d
            ia = int(math.floor(i_f + 1e-12))
            f = i_f - ia
            k = int(round(xi / d))
            ja = ia - k

            def node(i, j):
                return float(values[i, j]) if 0 <= j <= lat.j_ext and 0 <= i <= lat.nt else 0.0

            if f < 1e-9:
                return node(ia, ja)
            return (1.0 - f) * node(ia, ja) + f * node(ia + 1, ja + 1)
        return plain_sample(lat, values, t, r)

    def inner(xi: float) -> float:
        eta_lo = max(abs(xi), c)
        if eta_hi - eta_lo <= 1e-14:
            return 0.0
        on_diag = abs(xi / d - round(xi / d)) < 1e-9
        i_first = int(math.ceil((eta_lo + xi) / (2 * d) - 1e-12))
        i_last = int(math.floor((eta_hi + xi) / (2 * d) + 1e-12))
        etas = ([eta_lo]
                + [2 * i * d - xi for i in range(i_first, i_last + 1)
                   if eta_lo + 1e-13 < 2 * i * d - xi < eta_hi - 1e-13]
                + [eta_hi])
        etas = np.array(etas)
        vs = np.array([diag_value(xi, 0.5 * (e + xi), 0.5 * (e - xi), on_diag)
                       for e in etas])
        return float(np.trapezoid(vs, etas))

    k_first = int(math.ceil(xi_lo / d - 1e-12))
    k_last = int(math.floor(xi_hi / d + 1e-12))
    xis = ([xi_lo]
           + [k * d for k in range(k_first, k_last + 1)
              if xi_lo + 1e-13 < k * d < xi_hi - 1e-13]
           + [xi_hi])
    xis = np.array(xis)
    ivals = np.array([inner(float(x)) for x in xis])
    return 0.5 * float(np.trapezoid(ivals, xis))


def region_area(region: ConeRegion) -> float:
    """Exact area of the truncated cone in (t, r) coordinates."""
    if region.is_empty:
        return 0.0
    xi_lo, xi_hi, eta_hi = region.xi_lo, region.xi_hi, region.eta_hi
    c = region.eta_flat
    area_char = 0.0
    # wedge part, eta from |xi| down: integrand eta_hi + xi on xi < -c
    a, b = xi_lo, min(xi_hi, -c)
    if b > a:
        area_char += (eta_hi * (b - a) + 0.5 * (b * b - a * a))
    # flat part, eta from c: integrand eta_hi - c on xi in [-c, xi_hi]
    a2 = max(xi_lo, -c)
    if xi_hi > a2:
        area_char += (eta_hi - c) * (xi_hi - a2)
    return 0.5 * area_char


def sheared_cone_integrals(F: np.ndarray, delta: float, cut: np.ndarray) -> np.ndarray:
    """Phi[F] at every node of a field in sheared layout, in one call that
    builds its layout, work arrays and index arrays for itself: the
    unplanned form of ``debondsim.quadrature.ConePlan``, with the same
    terms summed in the same order (see its docstring for the layout).
    ``cut[g + K]`` is anti-diagonal g's fractional omega-cut slot."""
    d = delta
    L, K = F.shape[0] - 1, F.shape[1] - 1
    P = 2 * L + 1
    by_column = K + 1 < P
    if by_column:
        Z = np.zeros((P + 2 * K, K + 1))
        half = Z[K:K + P]
        s0, s1 = Z.strides
        I = np.lib.stride_tricks.as_strided(Z, (K + 1, P + K), (s0 + s1, s0),
                                            writeable=False)
    else:
        Y = np.zeros((P, K + 1 + P))
        half = Y[:, K::-1]
        I = Y.ravel()[:-P].reshape(P, P + K)
    C = column_cumulative(F, d, np.zeros_like(F))
    half[0::2] = 2.0 * C
    half[1::2] = 2.0 * C[:-1] + d * (3.0 * F[:-1] + F[1:]) / 4.0

    g = np.arange(-K, P)
    cols = np.arange(len(g))
    first = np.maximum(-g, 0) if by_column else np.maximum(g, 0)
    span = np.minimum(P - 1, g + K) - np.maximum(g, 0)
    inc = 0.5 * d * (I[:-1] + I[1:])
    late = first > 0
    inc[first[late] - 1, cols[late]] = 0.0
    A = np.zeros(I.shape)
    np.cumsum(inc, axis=0, out=A[1:])

    q = np.floor(cut + 1e-12).astype(int)
    s = np.where((q < 0) | (q >= span), 0.0, cut - q)
    q0 = first + np.clip(q, 0, span)
    q1 = np.minimum(q0 + 1, I.shape[0] - 1)
    A_cut = A[q0, cols] + d * (s * I[q0, cols] + 0.5 * s * s * (I[q1, cols] - I[q0, cols]))

    rows = 2 * np.arange(L + 1)[:, None]
    gk = rows - np.arange(K + 1) + K  # anti-diagonal column of each node
    slot = np.arange(K + 1) if by_column else rows
    return 0.5 * (A[slot, gk] - A_cut[gk])


def cone_integrals_batch(lat: CharLattice, values: np.ndarray) -> np.ndarray:
    """Phi[H] at every lattice node inside the domain (0 outside), in one
    call: the unplanned form of ``debondsim.quadrature.LatticeConePlan``.
    It shears the lattice with index arrays, runs
    :func:`sheared_cone_integrals` with the omega cut past rho0, gathers the
    nodes back and removes the sub-cone under the rim echo with masks."""
    d, nt, jx = lat.delta, lat.nt, lat.j_ext
    ii = np.arange(nt + 1)[:, None]
    jj = np.arange(jx + 1)
    kk = ii - jj + jx  # the +45 family's layout, columns reversed

    m = np.arange(-nt - jx, 2 * nt + 1) + jx  # anti-diagonal eta = m*delta
    eta = m * d
    refl = eta > lat.front.rho0 + 1e-12
    cut = np.where(refl, lat.front._omega_unchecked(eta) / d + m, 0.0)
    J = sheared_cone_integrals(_sheared(values, (1,))[:, 0, ::-1], d, cut)[ii, kk]

    behind = (ii > jj) & ((ii + jj) * d <= lat.front.rho0 + 1e-12)
    J = np.where(behind, J - J[np.maximum(ii - jj, 0), 0], J)
    return np.where(lat.inside, J, 0.0)


# ---------------------------------------------------------------------------
# characteristic lines
# ---------------------------------------------------------------------------

def plain_sample(lat: CharLattice, arr: np.ndarray, t: float, r: float) -> float:
    """Bilinear sample at one point with no taper at the front: the plain
    linear-in-r interpolant of the two rows around t, linear in t."""
    d = lat.delta
    i = min(max(int(math.floor(t / d + 1e-12)), 0), max(lat.nt - 1, 0))
    f = t / d - i
    v = float(_row_interp(arr, i, r / d))
    if f > 1e-12 and lat.nt > 0:
        v = (1.0 - f) * v + f * float(_row_interp(arr, min(i + 1, lat.nt), r / d))
    return v


def diag_line_integral(lat: CharLattice, arr: np.ndarray, t0: float, r0: float,
                       direction: int, length: float) -> float:
    """Trapezoid of the field along the segment r(tau) = r0 + direction*(tau - t0),
    tau in [t0, t0 + length], one scalar sample per crossed lattice row.

    On lattice-aligned diagonals the samples are node values and the
    fractional endpoints interpolate along the diagonal itself; otherwise
    rows are sampled with plain linear-in-r interpolation and off-row end
    points bilinearly.
    """
    if length <= 1e-15:
        return 0.0
    d = lat.delta
    t1 = t0 + length
    r_base = r0 - direction * t0  # column offset of the diagonal at t = 0
    k_base = r_base / d
    aligned = abs(k_base - round(k_base)) < 1e-9
    jx, ntop = lat.j_ext, lat.nt

    def node(i, j):
        return float(arr[i, j]) if 0 <= j <= jx and 0 <= i <= ntop else 0.0

    def val(t):
        r = r_base + direction * t
        i_f = t / d
        i0 = int(round(i_f))
        if abs(i_f - i0) < 1e-9:
            if aligned:
                return node(i0, int(round(r / d)))
            return plain_sample(lat, arr, i0 * d, r)
        if aligned:
            ia = int(math.floor(i_f + 1e-12))
            f = i_f - ia
            ja = int(round(k_base)) + direction * ia
            return (1.0 - f) * node(ia, ja) + f * node(ia + 1, ja + direction)
        return plain_sample(lat, arr, t, r)

    i_first = int(math.ceil(t0 / d - 1e-12))
    i_last = int(math.floor(t1 / d + 1e-12))
    ts = [t0] + [k * d for k in range(i_first, i_last + 1)
                 if t0 + 1e-13 < k * d < t1 - 1e-13] + [t1]
    ts = np.array(ts)
    vs = np.array([val(float(t)) for t in ts])
    return float(np.trapezoid(vs, ts))


def diag_cumulatives(values: np.ndarray, delta: float):
    """Cumulative line integrals (in dtau units) along both characteristic
    families, measured from each diagonal's entry into the domain, built
    row by row.

    C[i, j] integrates along the +45 line through (i, j) from its base
    (t = 0 or r = 0); D[i, j] along the -45 line from its t = 0 base.
    """
    C = np.zeros_like(values)
    D = np.zeros_like(values)
    half = 0.5 * delta
    for i in range(1, values.shape[0]):
        C[i, 1:] = C[i - 1, :-1] + half * (values[i - 1, :-1] + values[i, 1:])
        D[i, :-1] = D[i - 1, 1:] + half * (values[i - 1, 1:] + values[i, :-1])
    return C, D


def phi_time_trace_segments(lat: CharLattice, values: np.ndarray, t, r):
    """(g1, g2) of ``quadrature.phi_time_trace`` with every point, node or
    not, sending its four characteristic segments through the line kernel.
    g1: the -45 line through (t, r) from t = 0 or, past the reflection,
    from its crossing t_star with the front, less omega'(eta) times the
    reflected +45 line from (0, -omega(eta)) up to t_star.  g2: the +45
    line through (t, r) from t = 0 or, behind the rim echo, from the rim at
    s = t - r, less the -45 echo leg from (0, s) to the rim."""
    front = lat.front
    t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
    r = np.clip(r, 0.0, _asarray(front.rho(t)))
    eta = t + r
    refl = r > front.rho0 - t + 1e-14
    t_star, om, om_dot = (np.zeros(t.shape) for _ in range(3))
    if np.any(refl):
        e = eta[refl]
        t_star[refl] = front.psi_inverse(e)
        om[refl] = front._omega_unchecked(e)
        om_dot[refl] = front.omega_dot(e)
    s = np.where(r < t - 1e-14, t - r, 0.0)
    zero = np.zeros(t.shape)
    L = char_line_integrals(lat, values, _line_cumulatives(values, lat.delta),
                            np.array([-1.0, 1.0, 1.0, -1.0]).reshape((4,) + (1,) * t.ndim),
                            np.stack((eta, -om, r - t, s)),
                            np.stack((t_star, zero, s, zero)),
                            np.stack((t, t_star, t, s)))
    return -om_dot * L[1] + L[0], -L[3] + L[2]


def jump_radii(segs, t: float, rho_t: float):
    """Radii in [0, rho_t) crossed by a corner wavefront at time t, one
    segment at a time, ascending, radii within 1e-10 of each other merged:
    a wavefront reaching the rim at t > 0 crosses there (r >= -1e-12), and
    on row t = 0 only radii past 1e-9 count."""
    out = []
    for ta, tb, kind, c in segs:
        if ta - 1e-12 <= t <= tb + 1e-12:
            r = c - t if kind == "-" else t - c
            if (r >= -1e-12 if t > 1e-12 else r > 1e-9) and r < rho_t - 1e-9:
                out.append(r)
    out.sort()
    dedup = []
    for r in out:
        if not dedup or r - dedup[-1] > 1e-10:
            dedup.append(r)
    return dedup


def row_radial_integrals(patch, rows):
    """(E, a) of ``energy_audit._patch_traces``, one row and one segment
    at a time: the jump radii of a row (:func:`jump_radii` of the patch's
    ``wavefronts``) cut [0, rho] into segments, each opened and closed by
    a bank 1e-9 inside its jumps, a jump at the rim included; a segment's
    trapezoid runs over its bank (or the rim), its nodes and its bank (or
    the front point), a bank dropped where a node lies within 1e-12 of it,
    and segments narrower than two banks are left out."""
    d = patch.lattice.delta
    E, A = [], []
    for i in rows:
        t = int(i) * d
        rho = float(patch.rho_local(t))
        edges = [0.0] + jump_radii(patch.wavefronts, patch.t0 + t, rho) + [rho]
        e_row = a_row = 0.0
        for s, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if b - a <= 2 * _BANK:
                continue
            lo = a + _BANK if s > 0 else a
            hi = b - _BANK if b < rho else b
            rs = [j * d for j in range(math.ceil(lo / d - 1e-12), math.floor(hi / d + 1e-12) + 1)]
            if not rs or rs[0] - lo > 1e-12:
                rs.insert(0, lo)
            if hi - rs[-1] > 1e-12:
                rs.append(hi)
            rs = np.array(rs)
            e, a_ = _energy_integrands(patch, t, *patch.local_traces(t, rs), rs)
            e_row += float(np.sum(np.diff(rs) * (e[1:] + e[:-1]) / 2.0))
            a_row += float(np.sum(np.diff(rs) * (a_[1:] + a_[:-1]) / 2.0))
        E.append(math.pi * e_row)
        A.append(a_row)
    return np.array(E), np.array(A)


# ---------------------------------------------------------------------------
# brackets, energy rate and release rate
# ---------------------------------------------------------------------------

def front_bracket(patch, t_loc):
    """h_r - h_t at the front point of window-local time t_loc (arrays
    allowed): ``fields.front_bracket`` of the window data at
    s = rho(t_loc) - t_loc, with the +45 line integral of the patch's F
    from (0, s) up to the front."""
    s = patch.rho_local(t_loc) - t_loc
    line = char_line_integrals(patch.lattice, patch.F, patch.cumulatives, 1.0, s, 0.0, t_loc)
    return fields.front_bracket(patch.hdata, s, line)


def rim_bracket(patch, t_loc):
    """h_r + h_t at the rim point (t_loc, 0) (arrays allowed): h0'(t) + h1(t)
    of the window data plus the -45 line integral of the patch's F from
    (0, t_loc) down to the rim."""
    hd = patch.hdata
    line = char_line_integrals(patch.lattice, patch.F, patch.cumulatives, -1.0, t_loc, 0.0, t_loc)
    return hd.h0.deriv(t_loc) + hd.h1(t_loc) + line


def rim_power(patch, data: ProblemData, t, gamma):
    """The rim power factor at global times t of one patch,

        Q = 2 pi R (gamma + (alpha - 1/R) w(t) / 2 - e^(-alpha t_loc / 2) x / sqrt(R)),

    with x the :func:`rim_bracket`; the rim power is w'(t) Q(t, w'(t))."""
    hd = patch.hdata
    t_loc = t - patch.t0
    x_hat = rim_bracket(patch, t_loc)
    return 2.0 * math.pi * hd.R * (gamma + 0.5 * (hd.alpha - 1.0 / hd.R) * data.w(t)
                                   - np.exp(-0.5 * hd.alpha * t_loc) / math.sqrt(hd.R) * x_hat)


def energy_rate(patches, front, data: ProblemData, t: float) -> float:
    """Closed-form time derivative of the total energy at t (weighted form).

    Uses the owning window's :func:`front_bracket` and the rim power of
    :func:`rim_power`.
    """
    patch = locate_patch(patches, t)
    t_loc = t - patch.t0
    rd = float(front.rho_dot(t))
    bracket = float(front_bracket(patch, t_loc))
    first = (-math.pi * rd * (1.0 - rd) / (1.0 + rd)
             * math.exp(-patch.hdata.alpha * t_loc) * bracket * bracket)
    w_dot = float(data.w.deriv(t))
    return first + w_dot * float(rim_power(patch, data, t, w_dot))


def energy_rate_v_form(patches, front, data: ProblemData, t: float) -> float:
    """The closed-form energy rate written in unweighted variables, with
    every v-trace obtained through the weight transform (an algebraic
    identity with :func:`energy_rate`, kept as a structural cross-check)."""
    patch = locate_patch(patches, t)
    hd = patch.hdata
    t_loc = t - patch.t0
    R, alpha = hd.R, hd.alpha
    rho_t = float(front.rho(t))
    rd = float(front.rho_dot(t))
    b_v = (math.exp(-0.5 * alpha * t_loc) / math.sqrt(R - rho_t)
           * float(front_bracket(patch, t_loc)))
    first = -math.pi * rd * (1.0 - rd) / (1.0 + rd) * (R - rho_t) * b_v * b_v
    w_t = float(data.w(t))
    w_dot = float(data.w.deriv(t))
    x_v = (math.exp(-0.5 * alpha * t_loc) / math.sqrt(R) * float(rim_bracket(patch, t_loc))
           - 0.5 * (alpha - 1.0 / R) * w_t)
    return first + 2.0 * math.pi * R * w_dot * (w_dot - x_v)


def annulus_area_derivative(rho: float, R: float) -> float:
    """Rate of change of the debonded annulus area with the front width."""
    if rho < 0 or rho >= R:
        raise GeometryError("front width must lie in [0, R)")
    return 2.0 * math.pi * (R - rho)


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
# fronts
# ---------------------------------------------------------------------------

class ClosedFormFront:
    """Front given by callables; inverse maps fall back to bisection.

    Mirrors the maps of :class:`debondsim.geometry.FrontCurve`, whose exact
    piecewise inversion is checked against it.  Only the forward maps are
    exact; psi_inverse / lambda_of solve the defining equations numerically.
    """

    def __init__(self, rho, rho_dot, horizon: float, R: float):
        self._rho = rho
        self._rho_dot = rho_dot
        self.horizon = float(horizon)
        self.R = float(R)
        self.rho0 = float(rho(0.0))
        if not (0 < self.rho0 < R):
            raise GeometryError("inadmissible front width at t = 0")

    def rho(self, t):
        return _asarray(self._rho(_asarray(t)))

    def rho_dot(self, t):
        return _asarray(self._rho_dot(_asarray(t)))

    def phi(self, t):
        return _asarray(t) - self.rho(t)

    def psi(self, t):
        return _asarray(t) + self.rho(t)

    def _invert(self, fwd, s):
        lo, hi = 0.0, self.horizon
        flo, fhi = fwd(lo), fwd(hi)
        if not (flo - 1e-10 <= s <= fhi + 1e-10):
            raise GeometryError("value outside the map range")
        s = min(max(s, flo), fhi)
        if s == flo:
            return lo
        if s == fhi:
            return hi
        return brentq(lambda t: fwd(t) - s, lo, hi, xtol=1e-14)

    def psi_inverse(self, s):
        f = np.vectorize(lambda v: self._invert(lambda t: float(self.psi(t)), v))
        return f(_asarray(s))

    def lambda_of(self, s):
        f = np.vectorize(lambda v: self._invert(lambda t: float(self.phi(t)), v))
        return f(_asarray(s))

    def omega(self, s):
        s = _asarray(s)
        out = np.where(s < self.rho0, -self.rho0, 0.0)
        past = s >= self.rho0
        if np.any(past):
            tt = self.psi_inverse(np.where(past, s, self.rho0))
            out = np.where(past, self.phi(tt), out)
        return out

    def omega_dot(self, s):
        s = _asarray(s)
        rd = self.rho_dot(self.psi_inverse(np.clip(s, self.psi(0.0), None)))
        return np.where(s < self.rho0, 0.0, (1.0 - rd) / (1.0 + rd))
