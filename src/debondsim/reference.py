"""Independent reference computations that the tests compare against.

Each one evaluates a quantity the production path also computes, by a
different route, or states an identity the production results must obey:

  * the truncated dependence cone of one apex (:func:`cone_region`), its
    integral by iterated quadrature and its exact area;
  * a characteristic line integral sample by sample, and the diagonal
    cumulatives row by row;
  * the audit's radial energy integrals row by row and segment by segment;
  * the closed-form energy rate at one time, in weighted and in unweighted
    variables;
  * the two routes to the release rate at front speed beta: the kinetic
    factor (1 - beta)/(1 + beta) times G0, and the energy quotient;
  * a front given by callables with numerically inverted maps.

No production module imports this one, and ``import debondsim`` does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .energy_audit import _JUMP_EPS, _energy_integrands, _rim_power
from .fields import ProblemData
from .geometry import _TOL, GeometryError, _asarray, jump_radii
from .prescribed import locate_patch
from .quadrature import CharLattice


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
        return float(lat.sample(values, t, r, taper=False))

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


# ---------------------------------------------------------------------------
# characteristic lines
# ---------------------------------------------------------------------------

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
            return float(lat.sample(arr, i0 * d, r, taper=False))
        if aligned:
            ia = int(math.floor(i_f + 1e-12))
            f = i_f - ia
            ja = int(round(k_base)) + direction * ia
            return (1.0 - f) * node(ia, ja) + f * node(ia + 1, ja + direction)
        return float(lat.sample(arr, t, r, taper=False))

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


def row_radial_integrals(patch, rows, wavefronts=()):
    """(E, a) of ``energy_audit._row_radial_integrals``, one row and one
    segment at a time: the jump radii of a row (:func:`jump_radii`) cut
    [0, rho] into segments, each opened and closed by a bank 1e-9 inside
    its jumps; a segment's trapezoid runs over its bank, its nodes and its
    bank (or the front point), a bank dropped where a node lies within
    1e-12 of it, and segments narrower than two banks are left out."""
    d = patch.lattice.delta
    E, A = [], []
    for i in rows:
        t = int(i) * d
        rho = float(patch.rho_local(t))
        edges = [0.0] + jump_radii(wavefronts, patch.t0 + t, rho) + [rho]
        e_row = a_row = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a <= 2 * _JUMP_EPS:
                continue
            lo = a + _JUMP_EPS if a > 0.0 else a
            hi = b - _JUMP_EPS if b < rho else b
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
# energy rate and release rate
# ---------------------------------------------------------------------------

def energy_rate(patches, front, data: ProblemData, t: float) -> float:
    """Closed-form time derivative of the total energy at t (weighted form).

    Uses the owning window's data traces and the characteristic line
    integral of the kernel field, plus the rim power of the ledger.
    """
    patch = locate_patch(patches, t)
    t_loc = t - patch.t0
    rd = float(front.rho_dot(t))
    bracket = patch.front_bracket(t_loc)
    first = (-math.pi * rd * (1.0 - rd) / (1.0 + rd)
             * math.exp(-patch.hdata.alpha * t_loc) * bracket * bracket)
    w_dot = float(data.w.deriv(t))
    return first + w_dot * float(_rim_power(patch, data, t, w_dot))


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
           * patch.front_bracket(t_loc))
    first = -math.pi * rd * (1.0 - rd) / (1.0 + rd) * (R - rho_t) * b_v * b_v
    w_t = float(data.w(t))
    w_dot = float(data.w.deriv(t))
    x_v = (math.exp(-0.5 * alpha * t_loc) / math.sqrt(R) * patch.rim_bracket(t_loc)
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
