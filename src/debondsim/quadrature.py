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
and its derivative traces.  On lattice rows the per-diagonal cumulatives
of :func:`diag_cumulatives` give most of them; one kernel,
:func:`char_line_integrals`, computes every other characteristic line
integral: a batch of +-45 segments, on or between diagonals, from and to
any time, in one (rows x segments) gather.  The derivative traces of
:func:`phi_time_trace`, the reflected part of :func:`g_row_batch` and the
front and rim brackets of ``prescribed.FieldPatch`` are all calls to it.

All quadrature here integrates the piecewise-linear interpolant of the
node values; off-lattice cuts (the omega edge, fractional endpoints) are
clipped cell by cell.  The single-apex cone integral and the per-sample
line integral that the batch paths are tested against live in
:mod:`debondsim.reference`.
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

    def row_value(self, arr: np.ndarray, i, r, taper: bool = True):
        """Linear-in-r value at row(s) i (broadcast against r).  With
        ``taper`` the interpolant in the cell cut by the front goes to 0 at
        the front position instead of at the next node."""
        r = _asarray(r)
        d = self.delta
        plain = _row_interp(arr, i, r / d)
        if not taper:
            return plain
        rho_i = self.rho_rows[i]
        j = np.clip(np.floor(r / d + 1e-12).astype(int), 0, self.j_ext - 1)
        r_j = j * d
        cut = (r_j <= rho_i + 1e-12) & (r_j + d > rho_i + 1e-12) & (r > r_j)
        width = np.maximum(rho_i - r_j, 1e-300)
        tapered = arr[i, j] * np.clip((rho_i - r) / width, 0.0, 1.0)
        out = np.where(cut, tapered, plain)
        return np.where(r > rho_i + 1e-12, 0.0, out)

    def sample(self, arr: np.ndarray, t, r, taper: bool = True):
        """Bilinear sample (front-aware in r when tapering): linear in t
        between the row values of the two rows around t."""
        scalar = np.ndim(t) == 0 and np.ndim(r) == 0
        t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
        d = self.delta
        i = np.clip(np.floor(t / d + 1e-12).astype(int), 0, max(self.nt - 1, 0))
        f = t / d - i
        out = self.row_value(arr, i, r, taper)
        blend = (f > 1e-12) & (self.nt > 0)
        if np.any(blend):
            v1 = self.row_value(arr, np.minimum(i + 1, self.nt), r, taper)
            out = np.where(blend, (1.0 - f) * out + f * v1, out)
        return float(out) if scalar else out


def _row_interp(arr: np.ndarray, i, p):
    """Plain linear interpolation of row(s) i of arr at column coordinate(s)
    p = r / delta, extrapolating linearly past the first and last cell."""
    j = np.clip(np.floor(p + 1e-12).astype(int), 0, arr.shape[1] - 2)
    frac = p - j
    return arr[i, j] * (1.0 - frac) + arr[i, j + 1] * frac


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

def char_line_integrals(lat: CharLattice, values: np.ndarray, direction, offset,
                        t_start, t_end) -> np.ndarray:
    """Trapezoid integrals of the field along the characteristic segments
    r = offset + direction * tau, tau in [t_start, t_end], direction = +-1.

    The arguments broadcast together, one segment per element.  Each
    segment is sampled at its two end points and at every lattice row
    strictly between them.  A line on a lattice diagonal (offset within
    1e-9 cells of a node) reads node values on rows and interpolates along
    the diagonal between rows; any other line reads linear-in-r row values,
    and its end points between rows the bilinear sample there.  Segments
    must lie in [0, nt * delta]; the work is one (rows x segments) gather.
    """
    d = lat.delta
    direction, offset, ta, tb = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (direction, offset, t_start, t_end)))
    shape = ta.shape
    direction, offset, ta, tb = (a.ravel() for a in (direction, offset, ta, tb))
    if ta.size == 0:
        return np.zeros(shape)
    nt = values.shape[0] - 1
    lmax = min(nt, int(math.floor(float(np.max(tb)) / d + 1e-9)) + 1)
    rows = np.arange(lmax + 1)[:, None]
    cols = np.arange(ta.size)

    k = offset / d
    k_node = np.rint(k)
    aligned = np.abs(k - k_node) < 1e-9
    # each line on each row: exact node columns on diagonals
    V = _row_interp(values, rows, np.where(aligned, k_node + direction * rows,
                                           (offset + direction * (rows * d)) / d))

    def end_value(t):
        i_f = t / d
        i_r = np.rint(i_f)
        on_row = np.abs(i_f - i_r) < 1e-9
        ia = np.clip(np.where(on_row, i_r, np.floor(i_f + 1e-12)), 0, max(lmax - 1, 0))
        f = np.where(on_row, i_r, i_f) - ia
        ia = ia.astype(int)
        ib = np.minimum(ia + 1, lmax)
        along = (1.0 - f) * V[ia, cols] + f * V[ib, cols]
        p = (offset + direction * t) / d
        across = (1.0 - f) * _row_interp(values, ia, p) + f * _row_interp(values, ib, p)
        return np.where(aligned, along, across)

    va, vb = end_value(ta), end_value(tb)
    lo = np.ceil(ta / d - 1e-12)  # first and last row strictly inside
    lo = lo + (lo * d <= ta + 1e-13)
    hi = np.floor(tb / d + 1e-12)
    hi = hi - (hi * d >= tb - 1e-13)
    lo_i = np.clip(lo, 0, lmax).astype(int)
    hi_i = np.clip(hi, 0, lmax).astype(int)
    cells = 0.5 * d * (V[:-1] + V[1:])
    inner = np.where((rows[:-1] >= lo) & (rows[:-1] < hi), cells, 0.0).sum(axis=0)
    split = (0.5 * (lo * d - ta) * (va + V[lo_i, cols]) + inner
             + 0.5 * (tb - hi * d) * (V[hi_i, cols] + vb))
    out = np.where(lo <= hi, split, 0.5 * (tb - ta) * (va + vb))
    return np.where(tb - ta <= 1e-15, 0.0, out).reshape(shape)


def _diag_line_integral(lat: CharLattice, arr: np.ndarray, t0: float, r0: float,
                        direction: int, length: float) -> float:
    """Trapezoid of the field along the segment r(tau) = r0 + direction*(tau - t0),
    tau in [t0, t0 + length]: one segment of :func:`char_line_integrals`."""
    return float(char_line_integrals(lat, arr, direction, r0 - direction * t0,
                                     t0, t0 + length))


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

def phi_time_trace(lat: CharLattice, values: np.ndarray, t, r):
    """Boundary line integrals (g1, g2) with Phi_t = g1 + g2 and
    Phi_r = g1 - g2 inside the domain (window-local: t <= rho0 / 2).

    t and r broadcast: floats for one point, arrays for many, whose four
    characteristic segments each go to one :func:`char_line_integrals`
    call.
    """
    front = lat.front
    rho0 = front.rho0
    scalar = np.ndim(t) == 0 and np.ndim(r) == 0
    t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
    if np.any(t > 0.5 * rho0 + 1e-9):
        raise GeometryError("trace formulas are window-local (t <= rho0/2)")
    rho_t = _asarray(front.rho(t))
    if np.any(r < -1e-12) or np.any(r > rho_t + 1e-9):
        raise GeometryError("trace point beyond the front")
    r = np.clip(r, 0.0, rho_t)

    # g1: the -45 line through (t, r), from t = 0 or, past the reflection,
    # from its crossing t_star with the front, plus -omega'(eta) times the
    # reflected +45 line from (0, -omega(eta)) up to t_star
    eta = t + r
    refl = r > rho0 - t + 1e-14
    t_star, om, om_dot = (np.zeros(t.shape) for _ in range(3))
    if np.any(refl):
        e = eta[refl]
        t_star[refl] = front.psi_inverse(e)
        om[refl] = front._omega_unchecked(e)
        om_dot[refl] = front.omega_dot(e)
    # g2: the +45 line through (t, r), from t = 0 or, behind the rim echo,
    # from the rim at t - r, less the -45 echo leg ending there
    s = np.where(r < t - 1e-14, t - r, 0.0)
    zero = np.zeros(t.shape)
    L = char_line_integrals(lat, values,
                            np.reshape([-1.0, 1.0, 1.0, -1.0], (4,) + (1,) * t.ndim),
                            np.stack((eta, -om, r - t, t - r)),
                            np.stack((t_star, zero, s, zero)),
                            np.stack((t, t_star, t, s)))
    g1 = -om_dot * L[1] + L[0]
    g2 = -L[3] + L[2]
    if scalar:
        return float(g1), float(g2)
    return g1, g2


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
        part1 = char_line_integrals(lat, values, 1.0, -om, 0.0, t_star)

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
