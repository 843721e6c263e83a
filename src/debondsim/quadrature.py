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
omega cut of each anti-diagonal as a fractional slot.  The kernel indexes
each anti-diagonal's slots by column when the field has fewer columns than
half rows (the strip: m + 1 columns against a few hundred half rows) and
by half row otherwise (the lattice), so neither carries the other's zero
padding; the two orientations agree bitwise.

The partial derivatives of Phi reduce to two boundary line integrals g1,
g2 along characteristics; those are one-dimensional trapezoid sums over
the same node values, so no re-interpolation layer sits between the field
and its derivative traces.  One kernel, :func:`char_line_integrals`,
computes every characteristic line integral: a batch of +-45 segments, on
or between diagonals, from and to any time.  It reads the rows inside a
segment from the column cumulative of the field's sheared layout along the
segment's family, the cumulative the cone-sum kernel uses, so its work is
O(segments), and only a segment's two end cells read row values.
:func:`phi_time_trace` reads the same cumulatives: at a lattice node,
where almost all of the audit's trace points lie, each of its segments
runs along a diagonal from row to row, so its integral is the difference
of two cumulative reads and reads no row value; only node-free and
reflected points go through the kernel's end cells.  The front and rim
brackets of ``prescribed.FieldPatch`` are calls to the kernel too.

All quadrature here integrates the piecewise-linear interpolant of the
node values; off-lattice cuts (the omega edge, fractional endpoints) are
clipped cell by cell.  The oracles the batch paths are tested against
live in :mod:`debondsim.reference`: the truncated cone of one apex and its
integral by iterated quadrature, the per-sample line integral and the
row-by-row diagonal cumulatives.
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
        shape = (self.nt + 1, self.j_ext + 1)
        if self.values.shape != shape:
            raise GeometryError(f"lattice values must have shape {shape}, "
                                f"not {self.values.shape}")

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

    def node_index(self, t, r):
        """Row and column (i, j) of the node nearest to each point (t, r),
        and whether the point is that node (i * delta, j * delta) exactly."""
        d = self.delta
        i, j = np.rint(_asarray(t) / d), np.rint(_asarray(r) / d)
        return i.astype(int), j.astype(int), (i * d == t) & (j * d == r)

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
    n = arr.shape[1]
    j = np.minimum(np.maximum(np.floor(p + 1e-12).astype(int), 0), n - 2)
    frac = p - j
    flat = arr.ravel()
    idx = np.asarray(i) * n + j  # one flat index for both gathers
    return flat.take(idx) * (1.0 - frac) + flat.take(idx + 1) * frac


def _sheared(values: np.ndarray, signs) -> np.ndarray:
    """Lattice values in the sheared layouts of the characteristic families
    ``signs`` (+1 for +45, -1 for -45): S[l, f, q] is row l of family
    signs[f] on the line r - sgn*t = (q - q0)*delta, with q0 = nt for +45
    and 0 for -45.  Node (l, j) goes to q = j - sgn*l + q0; slots off the
    lattice's columns are 0.
    """
    nt, jx = values.shape[0] - 1, values.shape[1] - 1
    ii = np.arange(nt + 1)[:, None]
    S = np.zeros((nt + 1, len(signs), nt + jx + 1))
    for f, sgn in enumerate(signs):
        S[ii, f, np.arange(jx + 1) - sgn * ii + (nt if sgn > 0 else 0)] = values
    return S


# ---------------------------------------------------------------------------
# batch cone integrals
# ---------------------------------------------------------------------------

def column_cumulative(F: np.ndarray, delta: float) -> np.ndarray:
    """Trapezoid integrals (in dtau units) down every column of F from row 0;
    on a :func:`_sheared` layout, the line integrals along every diagonal.
    Built in place: one array of F's size is allocated."""
    C = np.zeros_like(F)
    np.add(F[:-1], F[1:], out=C[1:])
    C[1:] *= 0.5 * delta
    np.cumsum(C[1:], axis=0, out=C[1:])
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

    The slots of each anti-diagonal are indexed by the shorter of its two
    index ranges: by column (K + 1 slots) when K + 1 < 2L + 1, as on a
    narrow strip, and by half row (2L + 1 slots) otherwise, as on the
    lattice.  Both sum the same terms in the same order, so they agree
    bitwise, and the work and memory are O((L + K) * min(K, L)).
    """
    d = delta
    L, K = F.shape[0] - 1, F.shape[1] - 1
    P = 2 * L + 1
    by_column = K + 1 < P
    # half[p, k] = inner integral at half row p of column k, seen through
    # I[slot, g + K], one column per anti-diagonal (0 off the layout)
    if by_column:
        # K zero rows at each end; slot k of anti-diagonal g is
        # Z[g + K + k, k], a skewed view
        Z = np.zeros((P + 2 * K, K + 1))
        half = Z[K:K + P]
        s0, s1 = Z.strides
        I = np.lib.stride_tricks.as_strided(Z, (K + 1, P + K), (s0 + s1, s0),
                                            writeable=False)
    else:
        # columns reversed and zero past column K; slot p is half row p of
        # column p - g: re-cutting the flat padded array shifts row p by p
        # columns
        Y = np.zeros((P, K + 1 + P))
        half = Y[:, K::-1]
        I = Y.ravel()[:-P].reshape(P, P + K)
    C = column_cumulative(F, d)
    half[0::2] = 2.0 * C
    half[1::2] = 2.0 * C[:-1] + d * (3.0 * F[:-1] + F[1:]) / 4.0

    g = np.arange(-K, P)
    cols = np.arange(len(g))
    first = np.maximum(-g, 0) if by_column else np.maximum(g, 0)
    span = np.minimum(P - 1, g + K) - np.maximum(g, 0)
    inc = 0.5 * d * (I[:-1] + I[1:])
    # an anti-diagonal whose first slot is not slot 0 follows a zero slot:
    # keep its first slot at exactly 0 (the cut would cancel it up to rounding)
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
# characteristic line integrals
# ---------------------------------------------------------------------------

_BLOCK = 8192  # segments per pass of the line kernel


def char_line_integrals(lat: CharLattice, values: np.ndarray, direction, offset,
                        t_start, t_end) -> np.ndarray:
    """Trapezoid integrals of the field along the characteristic segments
    r = offset + direction * tau, tau in [t_start, t_end], direction = +-1.

    The arguments broadcast together, one segment per element.  Each
    segment is sampled at its two end points and at every lattice row
    strictly between them.  A line on a lattice diagonal (offset within
    1e-9 cells of a node) reads node values on rows and interpolates along
    the diagonal between rows; any other line reads linear-in-r row values,
    and its end points between rows the bilinear sample there.

    The cells between a segment's first and last inside rows are the
    difference of two reads of the column cumulative of its family's
    sheared layout (:func:`_line_cumulatives`), on its diagonal, or
    weighted between the two diagonals around the line; only the two end
    cells read row values.  A segment along a diagonal whose ends are nodes
    is exactly such a difference; :func:`phi_time_trace` reads those off
    the same cumulatives without forming segments.  So past one cumulative
    per family the work is O(segments), done in blocks of segments so that
    the temporaries stay a few MB for any batch.  Segments must lie in
    [0, nt * delta]; one reaching past the columns [0, j_ext * delta], even
    partway, raises GeometryError, naming its end point and the bound.
    """
    return _segment_integrals(lat, values, _line_cumulatives(values, lat.delta),
                              direction, offset, t_start, t_end)


def _line_cumulatives(values: np.ndarray, delta: float) -> np.ndarray:
    """Both families' diagonal cumulatives: C[l, 0, q] integrates the -45
    line r = (q - l) * delta and C[l, 1, q] the +45 line
    r = (q - nt + l) * delta from row 0 to row l (see :func:`_sheared`)."""
    return column_cumulative(_sheared(values, (-1, 1)), delta)


def _segment_integrals(lat, values, C, direction, offset, t_start, t_end):
    """:func:`char_line_integrals` given both families' cumulatives C."""
    args = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (direction, offset, t_start, t_end)))
    shape = args[0].shape
    args = [a.ravel() for a in args]
    out = np.empty(args[0].size)
    for b in range(0, out.size, _BLOCK):
        block = [a[b:b + _BLOCK] for a in args]
        _check_columns(lat, *block)
        out[b:b + _BLOCK] = _line_block(values, lat.delta, C, *block)
    return out.reshape(shape)


def _check_columns(lat: CharLattice, direction, offset, ta, tb):
    """Raise GeometryError, naming the first end point and the bound it
    breaks, if a live segment reaches past the columns [0, j_ext * delta]:
    past them the lattice has no values, and for times in [0, nt * delta]
    this also keeps the line on its family's layout."""
    r_a, r_b = offset + direction * ta, offset + direction * tb
    r_max = lat.j_ext * lat.delta
    slack = 1e-9 * lat.delta
    off_a = (r_a < -slack) | (r_a > r_max + slack)
    off_b = (r_b < -slack) | (r_b > r_max + slack)
    bad = np.flatnonzero((tb - ta > 1e-15) & (off_a | off_b))
    if bad.size:
        k = bad[0]
        t, r = (ta[k], r_a[k]) if off_a[k] else (tb[k], r_b[k])
        raise GeometryError(
            f"characteristic segment outside the lattice's columns: its end "
            f"(t, r) = ({t:.6g}, {r:.6g}) is outside [0, {r_max:.6g}]")


def _line_block(values, d, C, direction, offset, ta, tb):
    """:func:`char_line_integrals` of one block of segments, given both
    families' cumulatives C."""
    nt = values.shape[0] - 1
    last = C.shape[2] - 1  # last column of a family's layout
    fam = (direction > 0).astype(int)

    k = offset / d
    k_node = np.rint(k)
    aligned = np.abs(k - k_node) < 1e-9
    base = np.where(aligned, k_node, np.floor(k))  # diagonal on or below the line
    w = np.where(aligned, 0.0, k - base)  # weight of the diagonal above
    q = base + fam * nt
    live = tb - ta > 1e-15
    qa = np.minimum(np.maximum(q, 0), last).astype(int)
    qb = np.minimum(qa + 1, last)

    def line_value(l, p, sel=slice(None)):
        """The value of segments ``sel`` on their rows l: the node on the
        diagonal, or the row interpolant at column coordinate p between
        diagonals."""
        return _row_interp(values, l, np.where(aligned[sel], k_node[sel] + direction[sel] * l, p))

    def row_value(l):
        return line_value(l, (offset + direction * (l * d)) / d)

    def end_value(t):
        """Along the diagonal, or bilinear between diagonals, between the
        rows around t."""
        i_f = t / d
        i_r = np.rint(i_f)
        on_row = np.abs(i_f - i_r) < 1e-9
        ia = np.minimum(np.maximum(np.where(on_row, i_r, np.floor(i_f + 1e-12)), 0),
                        max(nt - 1, 0))
        f = np.where(on_row, i_r, i_f) - ia
        ia = ia.astype(int)
        p = (offset + direction * t) / d
        v = line_value(ia, p)
        # the row above only where t is off the rows: (1 - 0) v + 0 v1 = v
        up = np.flatnonzero(f != 0.0)
        if up.size:
            v1 = line_value(np.minimum(ia[up] + 1, nt), p[up], up)
            v[up] = (1.0 - f[up]) * v[up] + f[up] * v1
        return v

    va, vb = end_value(ta), end_value(tb)
    lo = np.ceil(ta / d - 1e-12)  # first and last row strictly inside
    lo = lo + (lo * d <= ta + 1e-13)
    hi = np.floor(tb / d + 1e-12)
    hi = hi - (hi * d >= tb - 1e-13)
    lo_i = np.minimum(np.maximum(lo, 0), nt).astype(int)
    hi_i = np.minimum(np.maximum(hi, 0), nt).astype(int)
    inner = ((1.0 - w) * (C[hi_i, fam, qa] - C[lo_i, fam, qa])
             + w * (C[hi_i, fam, qb] - C[lo_i, fam, qb]))
    split = (0.5 * (lo * d - ta) * (va + row_value(lo_i)) + inner
             + 0.5 * (tb - hi * d) * (row_value(hi_i) + vb))
    out = np.where(lo <= hi, split, 0.5 * (tb - ta) * (va + vb))
    return np.where(live, out, 0.0)


# ---------------------------------------------------------------------------
# derivative traces
# ---------------------------------------------------------------------------

def phi_time_trace(lat: CharLattice, values: np.ndarray, t, r):
    """Boundary line integrals (g1, g2) with Phi_t = g1 + g2 and
    Phi_r = g1 - g2 inside the domain (window-local: t <= rho0 / 2).

    t and r broadcast: floats for one point, arrays for many.  Whether a
    point is a lattice node (i, j) is decided once, from its row and
    column.  At a node off the reflection band (i + j <= rho0 / delta)
    every segment runs along a diagonal from row to row, so with C and D
    the +45 and -45 cumulatives of the line kernel (row by row in
    ``reference.diag_cumulatives``), g1 = D[i, j] and
    g2 = C[i, j] - D[i - j, 0], the echo leg only behind the rim echo
    (j < i), each a difference of cumulative reads.  Every other point
    (reflected, or off the nodes) sends its four characteristic segments
    through the kernel's segments, all in one batch, on the same
    cumulatives.
    """
    front = lat.front
    rho0 = front.rho0
    scalar = np.ndim(t) == 0 and np.ndim(r) == 0
    t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
    late = t > 0.5 * rho0 + 1e-9
    if np.any(late):
        k = np.flatnonzero(late.ravel())[0]
        raise GeometryError(
            f"trace formulas are window-local: the point (t, r) = "
            f"({t.flat[k]:.6g}, {r.flat[k]:.6g}) is past t = rho0/2 = {0.5 * rho0:.6g}")
    rho_t = _asarray(front.rho(t))
    beyond = (r < -1e-12) | (r > rho_t + 1e-9)
    if np.any(beyond):
        k = np.flatnonzero(beyond.ravel())[0]
        raise GeometryError(
            f"trace point beyond the front: (t, r) = ({t.flat[k]:.6g}, "
            f"{r.flat[k]:.6g}) is outside [0, rho(t)] = [0, {rho_t.flat[k]:.6g}]")
    r = np.clip(r, 0.0, rho_t)

    d, nt = lat.delta, lat.nt
    C = _line_cumulatives(values, d)
    g1, g2 = np.empty(t.shape), np.empty(t.shape)
    i, j, node = lat.node_index(t, r)
    # a node off the reflection band: g1 = D[i, j] is its -45 diagonal from
    # row 0, where the cumulatives are 0; g2 is its +45 diagonal from row
    # i_rim = i - j, where it leaves the rim behind the rim echo (from row 0
    # otherwise), less the echo leg D[i_rim, 0]
    node &= ~(r > rho0 - t + 1e-14)
    i, j = i[node], j[node]
    i_rim = np.maximum(i - j, 0)
    q = j - i + nt
    g1[node] = C[i, 0, i + j]
    g2[node] = C[i, 1, q] - C[i_rim, 1, q] - C[i_rim, 0, i_rim]

    # every other point through its four segments, in one batch.  g1: the
    # -45 line through (t, r), from t = 0 or, past the reflection, from its
    # crossing t_star with the front, plus -omega'(eta) times the reflected
    # +45 line from (0, -omega(eta)) up to t_star
    far = ~node
    t, r = t[far], r[far]
    eta = t + r
    refl = r > rho0 - t + 1e-14
    t_star, om, om_dot = (np.zeros(t.shape) for _ in range(3))
    if np.any(refl):
        e = eta[refl]
        t_star[refl] = front.psi_inverse(e)
        om[refl] = front._omega_unchecked(e)
        om_dot[refl] = front.omega_dot(e)
    # g2: the +45 line through (t, r), from t = 0 or, behind the rim echo,
    # from the rim at s = t - r, less the -45 echo leg from (0, s) to the rim
    s = np.where(r < t - 1e-14, t - r, 0.0)
    zero = np.zeros(t.shape)
    L = _segment_integrals(lat, values, C, np.array([-1.0, 1.0, 1.0, -1.0])[:, None],
                           np.stack((eta, -om, r - t, s)),
                           np.stack((t_star, zero, s, zero)),
                           np.stack((t, t_star, t, s)))
    g1[far] = -om_dot * L[1] + L[0]
    g2[far] = -L[3] + L[2]
    if scalar:
        return float(g1), float(g2)
    return g1, g2
