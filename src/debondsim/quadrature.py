"""Cone integrals and characteristic line integrals on an aligned lattice.

The memory operator of the representation formula,

    Phi[H](t, r) = double integral of H over the truncated cone P(t, r),

is evaluated in characteristic coordinates xi = t - r, eta = t + r, where
every cone edge except the reflected bound xi = omega(eta_hi) lies on
lattice diagonals (the lattice keeps dt = dr, so diagonals are grid
lines).  One kernel, :func:`sheared_cone_integrals`, computes Phi for a
field in sheared layout: row l at t = l*delta, column k on the diagonal
xi = xi0 + k*delta.  Two adapters map their grids onto it:
:func:`cone_integrals_batch` shears the (t, r) lattice and removes the
sub-cone below the rim echo, and ``griffith.StripWorkspace.cone_integrals``
passes its strip, whose columns are already diagonals.  Both supply the
omega cut of each anti-diagonal as a fractional slot.

The partial derivatives of Phi reduce to two boundary line integrals g1,
g2 along characteristics; those are one-dimensional trapezoid sums over
the same node values, so no re-interpolation layer sits between the field
and its derivative traces.

All quadrature here integrates the piecewise-linear interpolant of the
node values; off-lattice cuts (the omega edge, fractional endpoints) are
clipped cell by cell.  The single-apex cone integral that the batch path
is tested against lives in :mod:`debondsim.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, _asarray


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

@dataclass
class CharLattice:
    """Characteristic-aligned lattice (dt = dr) over one solver window.

    ``values`` holds the field at nodes; nodes beyond the front carry 0
    (the standard extension).  Columns extend past the front far enough to
    cover every dependence cone of an interior node, so cone sums never
    leave the array.
    """

    front: object  # window-local front, t in [0, nt*delta]
    delta: float
    nt: int
    values: np.ndarray = None

    def __post_init__(self):
        T = self.nt * self.delta
        if T > self.front.horizon + 1e-12:
            raise GeometryError("lattice extends beyond the front domain")
        rho_max = float(np.max(self.front.rho(self.times)))
        self.j_ext = int(math.ceil((T + rho_max) / self.delta - 1e-9)) + 1
        self.rho_rows = np.asarray(self.front.rho(self.times), dtype=float)
        self.inside = self.radii[None, :] <= self.rho_rows[:, None] + 1e-12
        if self.values is None:
            self.values = np.zeros((self.nt + 1, self.j_ext + 1))
        assert self.values.shape == (self.nt + 1, self.j_ext + 1)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.delta

    @property
    def radii(self) -> np.ndarray:
        return np.arange(self.j_ext + 1) * self.delta

    def blank(self) -> np.ndarray:
        return np.zeros((self.nt + 1, self.j_ext + 1))

    def masked(self, arr: np.ndarray) -> np.ndarray:
        return np.where(self.inside, arr, 0.0)

    # -- interpolation ----------------------------------------------------

    def row_value(self, arr: np.ndarray, i: int, r, taper: bool = True):
        """Linear-in-r value at row i.  With ``taper`` the interpolant in
        the cell cut by the front goes to 0 at the front position instead
        of at the next node."""
        r = _asarray(r)
        d = self.delta
        rho_i = self.rho_rows[i]
        j = np.clip(np.floor(r / d + 1e-12).astype(int), 0, self.j_ext - 1)
        frac = r / d - j
        plain = arr[i, j] * (1.0 - frac) + arr[i, j + 1] * frac
        if not taper:
            return plain
        r_j = j * d
        cut = (r_j <= rho_i + 1e-12) & (r_j + d > rho_i + 1e-12) & (r > r_j)
        width = np.maximum(rho_i - r_j, 1e-300)
        tapered = arr[i, j] * np.clip((rho_i - r) / width, 0.0, 1.0)
        out = np.where(cut, tapered, plain)
        return np.where(r > rho_i + 1e-12, 0.0, out)

    def sample(self, arr: np.ndarray, t, r, taper: bool = True):
        """Bilinear sample (front-aware in r when tapering)."""
        scalar = np.ndim(t) == 0 and np.ndim(r) == 0
        t = np.atleast_1d(_asarray(t))
        r = np.atleast_1d(_asarray(r))
        t, r = np.broadcast_arrays(t, r)
        d = self.delta
        out = np.empty(t.shape)
        for idx in np.ndindex(t.shape):
            i = min(max(int(math.floor(t[idx] / d + 1e-12)), 0), max(self.nt - 1, 0))
            f = t[idx] / d - i
            v0 = float(self.row_value(arr, i, float(r[idx]), taper))
            if f <= 1e-12 or self.nt == 0:
                out[idx] = v0
            else:
                v1 = float(self.row_value(arr, i + 1, float(r[idx]), taper))
                out[idx] = (1.0 - f) * v0 + f * v1
        return float(out[0]) if scalar else out


def diag_cumulatives(values: np.ndarray, delta: float):
    """Cumulative line integrals (in dtau units) along both characteristic
    families, measured from each diagonal's entry into the domain.

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


# ---------------------------------------------------------------------------
# batch cone integrals
# ---------------------------------------------------------------------------

def column_cumulative(F: np.ndarray, delta: float) -> np.ndarray:
    """Trapezoid integrals (in dtau units) down every column of F from row 0."""
    C = np.zeros_like(F)
    np.cumsum(0.5 * delta * (F[:-1] + F[1:]), axis=0, out=C[1:])
    return C


def sheared_cone_integrals(F: np.ndarray, delta: float, cut: np.ndarray) -> np.ndarray:
    """Phi[F] at every node of a field in sheared layout.

    Row l sits at t = l*delta and column k on the diagonal xi = xi0 + k*delta,
    so anti-diagonal g = 2l - k is the line eta = g*delta - xi0, for g in
    -K..2L.  Its slots are the columns it crosses, at node rows (g + k even)
    or half rows (g + k odd), from its first slot on row 0 or column 0.
    Each slot's eta-integral comes from the column cumulative (plus a half
    cell at half rows), and one running trapezoid in xi per anti-diagonal
    serves every apex on it.  ``cut[g + K]`` is the fractional slot, counted
    from the anti-diagonal's first slot, of the lower xi-limit of its cones
    (the omega cut); the integral up to there is subtracted, so 0 cuts
    nothing.
    """
    d = delta
    L, K = F.shape[0] - 1, F.shape[1] - 1
    P = 2 * L + 1
    C = column_cumulative(F, d)
    Y = np.zeros((P, K + 1 + P))  # inner integral at half row p of column K - j
    Y[0::2, K::-1] = 2.0 * C
    Y[1::2, K::-1] = 2.0 * C[:-1] + d * (3.0 * F[:-1] + F[1:]) / 4.0
    # one column per anti-diagonal, I[p, g + K] = inner integral at half row
    # p of column p - g (0 off the layout): re-cutting the flat padded array
    # shifts row p by p columns
    I = Y.ravel()[:-P].reshape(P, P + K)
    inc = 0.5 * d * (I[:-1] + I[1:])
    # anti-diagonals g > 0 start on column 0 at p = g, after a zero slot: keep
    # their first slot at exactly 0 (the cut would cancel it up to rounding)
    inc[np.arange(P - 1), np.arange(K + 1, K + P)] = 0.0
    A = np.zeros_like(I)
    np.cumsum(inc, axis=0, out=A[1:])

    g = np.arange(-K, P)
    first = np.maximum(g, 0)
    span = np.minimum(P - 1, g + K) - first
    q = np.floor(cut + 1e-12).astype(int)
    s = np.where((q < 0) | (q >= span), 0.0, cut - q)
    cols = np.arange(len(g))
    q0 = first + np.clip(q, 0, span)
    q1 = np.minimum(q0 + 1, P - 1)
    A_cut = A[q0, cols] + d * (s * I[q0, cols] + 0.5 * s * s * (I[q1, cols] - I[q0, cols]))

    rows = 2 * np.arange(L + 1)[:, None]
    gk = rows - np.arange(K + 1) + K  # anti-diagonal column of each node
    return 0.5 * (A[rows, gk] - A_cut[gk])


def cone_integrals_batch(lat: CharLattice, values: np.ndarray) -> np.ndarray:
    """Phi[H] at every lattice node inside the domain (0 outside).

    Shears the lattice so that column k holds the diagonal
    xi = (k - j_ext)*delta, zero where r < 0 or r > j_ext*delta, and runs
    :func:`sheared_cone_integrals` with the omega cut past rho0.  Below rho0
    an apex behind the rim echo (t > r) sees the data cone, not the sheared
    one: the sub-cone under the echo, the cone of the rim apex (t - r, 0),
    is removed, and with it the half cells the zeros before the rim add.
    """
    d, nt, jx = lat.delta, lat.nt, lat.j_ext
    ii = np.arange(nt + 1)[:, None]
    jj = np.arange(jx + 1)
    kk = ii - jj + jx
    S = np.zeros((nt + 1, nt + jx + 1))
    S[ii, kk] = values

    m = np.arange(-nt - jx, 2 * nt + 1) + jx  # anti-diagonal eta = m*delta
    eta = m * d
    refl = eta > lat.front.rho0 + 1e-12
    cut = np.where(refl, lat.front._omega_unchecked(eta) / d + m, 0.0)
    J = sheared_cone_integrals(S, d, cut)[ii, kk]

    behind = (ii > jj) & ((ii + jj) * d <= lat.front.rho0 + 1e-12)
    J = np.where(behind, J - J[np.maximum(ii - jj, 0), 0], J)
    return np.where(lat.inside, J, 0.0)


# ---------------------------------------------------------------------------
# characteristic line integrals
# ---------------------------------------------------------------------------

def _diag_line_integral(lat: CharLattice, arr: np.ndarray, t0: float, r0: float,
                        direction: int, length: float) -> float:
    """Trapezoid of the field along the segment r(tau) = r0 + direction*(tau - t0),
    tau in [t0, t0 + length], sampling every crossed lattice row.

    On lattice-aligned diagonals the samples are node values and the
    fractional endpoints interpolate along the diagonal itself; otherwise
    rows are sampled with plain linear-in-r interpolation.
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


def line_integral_along_characteristic(lat: CharLattice, values: np.ndarray,
                                       start: tuple, direction: str,
                                       length: float) -> float:
    """Composite trapezoid of the field along a +-45 degree segment."""
    t0, r0 = start
    try:
        sgn = {"+45": 1, "-45": -1}[direction]
    except KeyError:
        raise ValueError("direction must be '+45' or '-45'") from None
    if length < 0:
        raise ValueError("segment length must be nonnegative")
    r_end = r0 + sgn * length
    if min(r0, r_end) < -1e-12 or t0 < -1e-12 or t0 + length > lat.nt * lat.delta + 1e-9:
        raise GeometryError("characteristic segment leaves the lattice")
    return _diag_line_integral(lat, values, t0, r0, sgn, length)


# ---------------------------------------------------------------------------
# derivative traces
# ---------------------------------------------------------------------------

def phi_time_trace(lat: CharLattice, values: np.ndarray, t: float, r: float):
    """Boundary line integrals (g1, g2) with Phi_t = g1 + g2 and
    Phi_r = g1 - g2 inside the domain (window-local: t <= rho0 / 2)."""
    front = lat.front
    rho0 = front.rho0
    if t > 0.5 * rho0 + 1e-9:
        raise GeometryError("trace formulas are window-local (t <= rho0/2)")
    rho_t = float(front.rho(t))
    if r < -1e-12 or r > rho_t + 1e-9:
        raise GeometryError("trace point beyond the front")
    r = min(max(r, 0.0), rho_t)

    eta = t + r
    if r <= rho0 - t + 1e-14:
        g1 = _diag_line_integral(lat, values, 0.0, eta, -1, t)
    else:
        t_star = float(front.psi_inverse(eta))
        om = float(front._omega_unchecked(np.array(eta)))
        om_dot = float(front.omega_dot(eta))
        part1 = _diag_line_integral(lat, values, 0.0, -om, +1, t_star)
        part2 = _diag_line_integral(lat, values, t_star, eta - t_star, -1, t - t_star)
        g1 = -om_dot * part1 + part2

    if r >= t - 1e-14:
        g2 = _diag_line_integral(lat, values, 0.0, r - t, +1, t)
    else:
        g2 = (-_diag_line_integral(lat, values, 0.0, t - r, -1, t - r)
              + _diag_line_integral(lat, values, t - r, 0.0, +1, r))
    return g1, g2


def char_lines_plus_batch(values: np.ndarray, delta: float, nt: int,
                          xi_offsets: np.ndarray, t_ends: np.ndarray) -> np.ndarray:
    """Integrals of the field along the +45 lines r = tau - xi_j from
    tau = 0 to t_ends[j]; the lines may sit between lattice diagonals."""
    d = delta
    xi = _asarray(xi_offsets)
    te = _asarray(t_ends)
    nj = xi.size
    if nj == 0:
        return np.zeros(0)
    lmax = min(int(math.floor(float(np.max(te)) / d + 1e-12)), nt)
    rows = np.arange(lmax + 1)
    jx = values.shape[1] - 1

    p = rows[:, None] - xi[None, :] / d
    jc = np.clip(np.floor(p + 1e-12).astype(int), 0, jx - 1)
    fr = p - jc
    Vl = values[rows[:, None], jc] * (1.0 - fr) + values[rows[:, None], jc + 1] * fr

    cum = np.zeros((lmax + 1, nj))
    if lmax >= 1:
        np.cumsum(0.5 * d * (Vl[:-1] + Vl[1:]), axis=0, out=cum[1:])
    lf = np.clip(np.floor(te / d + 1e-12).astype(int), 0, lmax)
    cols = np.arange(nj)
    out = cum[lf, cols]

    rem = te - lf * d
    has = rem > 1e-13
    if np.any(has):
        ft = rem / d
        l2 = np.minimum(lf + 1, values.shape[0] - 1)
        p_end = (te - xi) / d
        jct = np.clip(np.floor(p_end + 1e-12).astype(int), 0, jx - 1)
        frt = p_end - jct
        v_lo = values[lf, jct] * (1.0 - frt) + values[lf, jct + 1] * frt
        v_hi = values[l2, jct] * (1.0 - frt) + values[l2, jct + 1] * frt
        v_end = (1.0 - ft) * v_lo + ft * v_hi
        out = np.where(has, out + 0.5 * rem * (Vl[lf, cols] + v_end), out)
    return out


def g_row_batch(lat: CharLattice, values: np.ndarray, C: np.ndarray,
                D: np.ndarray, i: int):
    """(g1, g2) for every inside column of lattice row i, from the cached
    per-diagonal cumulatives; only the reflected part of g1 needs fresh
    off-lattice line integrals."""
    d = lat.delta
    front = lat.front
    rho0 = front.rho0
    t = i * d
    jj = np.arange(lat.j_ext + 1)
    inside = lat.inside[i]

    g2 = C[i, :].copy()
    behind = (jj < i) & inside
    if np.any(behind):
        # g2 = -int over the echo leg + int from (t - r, 0); C already
        # starts at the r = 0 base of this diagonal
        g2[behind] -= D[i - jj[behind], 0]

    g1 = D[i, :].copy()
    refl = (jj * d > rho0 - t + 1e-14) & inside
    if np.any(refl):
        cols = jj[refl]
        eta = t + cols * d
        t_star = np.asarray(front.psi_inverse(eta), dtype=float)
        om = np.asarray(front._omega_unchecked(eta), dtype=float)
        om_dot = np.asarray(front.omega_dot(eta), dtype=float)
        part1 = char_lines_plus_batch(values, d, lat.nt, om, t_star)

        lf = np.clip(np.floor(t_star / d + 1e-12).astype(int), 0, i)
        jstar = (i + cols) - lf
        d_at = D[lf, np.clip(jstar, 0, lat.j_ext)].astype(float)
        rem = t_star - lf * d
        has = rem > 1e-13
        if np.any(has):
            ft = rem / d
            a = values[lf, np.clip(jstar, 0, lat.j_ext)]
            l2 = np.minimum(lf + 1, lat.nt)
            b = values[l2, np.clip(jstar - 1, 0, lat.j_ext)]
            v_mid = (1.0 - ft) * a + ft * b
            d_at = np.where(has, d_at + 0.5 * rem * (a + v_mid), d_at)
        part2 = D[i, cols] - d_at
        g1[refl] = -om_dot * part1 + part2
    g1[~inside] = 0.0
    g2[~inside] = 0.0
    return g1, g2
