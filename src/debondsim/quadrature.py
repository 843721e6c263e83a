"""Cone integrals and characteristic line integrals on an aligned lattice.

The memory operator of the representation formula,

    Phi[H](t, r) = double integral of H over the truncated cone P(t, r),

is evaluated in characteristic coordinates xi = t - r, eta = t + r, where
every cone edge except the reflected bound xi = omega(eta_hi) lies on
lattice diagonals (the lattice keeps dt = dr, so diagonals are grid
lines).  One kernel, :class:`ConePlan`, computes Phi for fields of one
shape in sheared layout: row l at t = l*delta, column k on the diagonal
xi = xi0 + k*delta.  It is planned once per shape and delta: the slot
layout of every anti-diagonal and the work arrays are built when the plan
is, and each call only fills the work arrays and reads its nodes through
strided views.  It indexes each anti-diagonal's slots by column when the
field has fewer columns than half rows (the strip: m + 1 columns against
a few hundred half rows) and by half row otherwise (the lattice), so
neither carries the other's zero padding; the two orientations agree
bitwise.  Two callers hold a plan for as long as their grid lives, one
window: ``griffith.StripWorkspace`` passes its strip, whose columns are
already diagonals, with the cut of its omega iterate on each sweep, and
:class:`LatticeConePlan`, which :func:`cone_integrals_batch` runs, shears
the (t, r) lattice into the plan's layout and fixes the omega cut, the
sub-cone below the rim echo and the outside nodes from the lattice's
front when it is built.

The partial derivatives of Phi reduce to two boundary line integrals g1,
g2 along characteristics; those are one-dimensional trapezoid sums over
the same node values, so no re-interpolation layer sits between the field
and its derivative traces.  One kernel, :func:`char_line_integrals`,
computes every characteristic line integral: a batch of +-45 segments, on
or between diagonals, from and to any time.  It reads the rows inside a
segment from the column cumulative of the field's sheared layout along the
segment's family, the cumulative the cone-sum kernel uses, so its work is
O(segments), and only a segment's two end cells read row values, all
of a batch's in one gather.
:func:`phi_time_trace` reads the same cumulatives on a block of lattice
rows lo..hi, columns 0..J (:meth:`CharLattice.row_block`), where almost
all of the audit's trace values lie: every leg that runs from row to row
along a diagonal is the difference of two cumulative reads, and along a
row block each read is a strided view of the cumulatives, as the cone
plan reads its sums, reflected nodes included.  A reflected node's g1
starts where its anti-diagonal crosses the front, between rows; that part
is one value per anti-diagonal, shared by its nodes and read through a
view too.  Those values and the trace call's points, on nodes or not,
take one kernel call per trace call, and a patch builds its cumulatives
once for all its trace calls.

All quadrature here integrates the piecewise-linear interpolant of the
node values; off-lattice cuts (the omega edge, fractional endpoints) are
clipped cell by cell.  The oracles the batch paths are tested against
live with the tests, in ``tests/reference.py``: the truncated cone of one
apex and its integral by iterated quadrature, the unplanned cone sums the
plans must match bitwise, the per-sample line integral and the row-by-row
diagonal cumulatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryError, _asarray


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

@dataclass
class CharLattice:
    """Characteristic-aligned lattice (dt = dr) over one solver window.

    Columns extend past the front far enough to cover every dependence cone
    of an interior node, so cone sums never leave the array.  ``values``,
    the field at the nodes (0 beyond the front, the standard extension), is
    set by ``prescribed.solve_window`` to its window's converged field.
    """

    front: object  # window-local front, t in [0, nt*delta]
    delta: float
    nt: int
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        T = self.nt * self.delta
        if T > self.front.horizon + 1e-12:
            raise GeometryError(f"lattice of {self.nt} rows reaches t = {T:.6g}, past the "
                                f"front domain [0, {self.front.horizon:.6g}]")
        self.rho_rows = np.asarray(self.front.rho(self.times), dtype=float)
        self.j_ext = int(math.ceil((T + float(np.max(self.rho_rows))) / self.delta - 1e-9)) + 1
        self.inside = self.radii[None, :] <= self.rho_rows[:, None] + 1e-12

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.delta

    @property
    def radii(self) -> np.ndarray:
        return np.arange(self.j_ext + 1) * self.delta

    def masked(self, arr: np.ndarray) -> np.ndarray:
        return np.where(self.inside, arr, 0.0)

    def row_block(self, lo: int, hi: int):
        """The block of rows lo..hi over columns 0..J, J the largest inside
        column of those rows (floor(rho / delta + 1e-12), the last node of
        a row, as ``FieldPatch.row_segments`` counts it): (lo, hi, J), and
        (0, -1, -1) for no rows (hi < lo).  The front does not reach R, so
        no column of a block does."""
        if hi < lo:
            return 0, -1, -1
        J = int(np.floor(self.rho_rows[lo:hi + 1].max() / self.delta + 1e-12))
        return int(lo), int(hi), J

    # -- interpolation ----------------------------------------------------

    def row_value(self, arr: np.ndarray, i, r):
        """Linear-in-r value at row(s) i (broadcast against r), tapered at
        the front: in the cell the front cuts the interpolant goes to 0 at
        the front position instead of at the next node, and past the front
        the value is 0."""
        r = _asarray(r)
        d = self.delta
        plain = _row_interp(arr, i, r / d)
        rho_i = self.rho_rows[i]
        j = np.minimum(np.maximum(np.floor(r / d + 1e-12).astype(int), 0), self.j_ext - 1)
        r_j = j * d
        cut = (r_j <= rho_i + 1e-12) & (r_j + d > rho_i + 1e-12) & (r > r_j)
        width = np.maximum(rho_i - r_j, 1e-300)
        tapered = arr[i, j] * np.minimum(np.maximum((rho_i - r) / width, 0.0), 1.0)
        out = np.where(cut, tapered, plain)
        return np.where(r > rho_i + 1e-12, 0.0, out)

    def sample(self, arr: np.ndarray, t, r):
        """Bilinear sample, tapered at the front in r (:meth:`row_value`):
        linear in t between the row values of the two rows around t.  The
        cone and line oracles of ``tests/reference.py`` read an untapered
        one of their own."""
        scalar = np.ndim(t) == 0 and np.ndim(r) == 0
        t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
        d = self.delta
        i = np.minimum(np.maximum(np.floor(t / d + 1e-12).astype(int), 0), max(self.nt - 1, 0))
        f = t / d - i
        out = self.row_value(arr, i, r)
        blend = (f > 1e-12) & (self.nt > 0)
        if blend.any():
            v1 = self.row_value(arr, np.minimum(i + 1, self.nt), r)
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
    lattice's columns are 0.  Each family is written through one strided
    view of S (:func:`_view`), as the cone plan writes its field.
    """
    nt, jx = values.shape[0] - 1, values.shape[1] - 1
    W = nt + jx + 1
    S = np.zeros((nt + 1, len(signs), W))
    for f, sgn in enumerate(signs):
        at = f * W + (nt if sgn > 0 else 0)
        _view(S, at, values.shape, (len(signs) * W - sgn, 1), True)[...] = values
    return S


# ---------------------------------------------------------------------------
# batch cone integrals
# ---------------------------------------------------------------------------

def column_cumulative(F: np.ndarray, delta: float, out: np.ndarray) -> np.ndarray:
    """Trapezoid integrals (in dtau units) down every column of F from row 0,
    written into ``out``, an array of F's shape that does not overlap F, and
    returned; on a :func:`_sheared` layout, the line integrals along every
    diagonal."""
    out[0] = 0.0
    np.add(F[:-1], F[1:], out=out[1:])
    out[1:] *= 0.5 * delta
    np.cumsum(out[1:], axis=0, out=out[1:])
    return out


def _view(a: np.ndarray, offset: int, shape, steps, writeable: bool) -> np.ndarray:
    """The view of the contiguous array ``a`` whose element (x, y) is
    ``a.flat[offset + x * steps[0] + y * steps[1]]``; a step may be negative
    as long as every element stays inside ``a``.  Views whose elements
    repeat must not be writeable.  An empty view starts at 0, since the
    ndarray constructor refuses an offset outside ``a`` even with no
    elements."""
    n = a.itemsize
    if 0 in shape:
        offset = 0
    view = np.ndarray(shape, a.dtype, a, offset * n, (steps[0] * n, steps[1] * n))
    view.flags.writeable = writeable
    return view


class ConePlan:
    """Phi at every node of fields of one shape in sheared layout, for any
    field and omega cut: the anti-diagonal cone sum, planned once.

    Row l sits at t = l*delta and column k on the diagonal xi = xi0 + k*delta,
    so anti-diagonal g = 2l - k is the line eta = g*delta - xi0, for g in
    -K..2L.  Its slots are the columns it crosses, at node rows (g + k even)
    or half rows (g + k odd), from its first slot on row 0 or column 0.
    Each slot's eta-integral comes from the column cumulative (plus a half
    cell at half rows), and one running trapezoid in xi per anti-diagonal
    serves every apex on it.  The cut of anti-diagonal g is the fractional
    slot, counted from its first slot, of the lower xi-limit of its cones
    (the omega cut); the integral up to there is subtracted, so 0 cuts
    nothing.

    The slots of each anti-diagonal are indexed by the shorter of its two
    index ranges: by column (K + 1 slots) when K + 1 < 2L + 1, as on a
    narrow strip, and by half row (2L + 1 slots) otherwise, as on the
    lattice.  Both sum the same terms in the same order, so they agree
    bitwise, and the work and memory are O((L + K) * min(K, L)).

    The plan holds what depends on the shape alone: the slot layout, each
    anti-diagonal's first slot and span, the increment zeroed before a late
    first slot, and the work arrays, the half-row table (whose zero padding
    is never written) and the running sums.  Node (l, k) is read as
    ``A[slot, 2l - k + K] - A_cut[2l - k + K]`` through strided views of
    those sums, without index arrays.  A call overwrites the work arrays and
    returns a fresh array, so its results outlive the next call.
    """

    def __init__(self, L: int, K: int, delta: float):
        self.delta = delta
        self.shape = (L + 1, K + 1)
        P = 2 * L + 1
        by_column = K + 1 < P
        # half[p, k] = inner integral at half row p of column k, seen through
        # I[slot, g + K], one column per anti-diagonal (0 off the layout)
        if by_column:
            # K zero rows at each end; slot k of anti-diagonal g is
            # Z[g + K + k, k], a skewed view
            Z = np.zeros((P + 2 * K, K + 1))
            self._half = Z[K:K + P]
            s0, s1 = Z.strides
            self._I = np.lib.stride_tricks.as_strided(Z, (K + 1, P + K), (s0 + s1, s0),
                                                      writeable=False)
        else:
            # columns reversed and zero past column K; slot p is half row p of
            # column p - g: re-cutting the flat padded array shifts row p by p
            # columns
            Y = np.zeros((P, K + 1 + P))
            self._half = Y[:, K::-1]
            self._I = Y.ravel()[:-P].reshape(P, P + K)
        slots, n = self._I.shape
        g = np.arange(-K, P)
        self._cols = np.arange(n)
        self._first = np.maximum(-g, 0) if by_column else np.maximum(g, 0)
        self._span = np.minimum(P - 1, g + K) - np.maximum(g, 0)
        # an anti-diagonal whose first slot is not slot 0 follows a zero slot:
        # its first increment, A[first] - A[first - 1], is kept at exactly 0
        # (the cut would cancel it up to rounding)
        late = np.flatnonzero(self._first > 0)
        self._late = self._first[late] * n + late
        self._A = np.zeros((slots, n))
        self._A_cut = np.zeros(n)
        self._steps = (2, n - 1) if by_column else (2 * n + 2, -1)  # of A in (l, k)
        self._nodes = self._node_views(self.shape, 0, 0, 1)

    def __call__(self, F: np.ndarray, cut: np.ndarray) -> np.ndarray:
        """Phi[F] at every node of the sheared field F, with the cut of
        anti-diagonal g in ``cut[g + K]``."""
        self._set_cut(cut)
        self._sums(F)
        return self._phi(self._nodes, self.shape)

    def _set_cut(self, cut: np.ndarray):
        q = np.floor(cut + 1e-12).astype(int)
        s = np.where((q < 0) | (q >= self._span), 0.0, cut - q)
        self._q0 = self._first + np.minimum(np.maximum(q, 0), self._span)
        self._q1 = np.minimum(self._q0 + 1, self._A.shape[0] - 1)
        self._s, self._ss = s, 0.5 * s * s

    def _sums(self, F: np.ndarray):
        """The running sums A of every anti-diagonal and their values A_cut
        at the cuts, for the field F."""
        d = self.delta
        # rows: 2 C[l], the column cumulative at step 2d, written in place;
        # half rows: 2 C[l] + d (3 F[l] + F[l + 1]) / 4.  Each is scaled once,
        # by d times a power of two, so the rows hold 2 C[l] to the bit.
        even, odd = self._half[0::2], self._half[1::2]
        column_cumulative(F, 2.0 * d, even)
        np.multiply(F[:-1], 3.0, out=odd)
        odd += F[1:]
        odd *= 0.25 * d
        odd += even[:-1]

        A, I = self._A, self._I
        np.add(I[:-1], I[1:], out=A[1:])
        A[1:] *= 0.5 * d
        A.ravel()[self._late] = 0.0
        np.cumsum(A[1:], axis=0, out=A[1:])

        q0, cols = self._q0, self._cols
        I0 = I[q0, cols]
        self._A_cut[:] = A[q0, cols] + d * (self._s * I0 + self._ss * (I[self._q1, cols] - I0))

    def _node_views(self, shape, k0: int, k_row: int, k_col: int):
        """Views of A and A_cut at the nodes (l, k0 + k_row*l + k_col*c) of
        the sheared layout, for (l, c) in ``shape``."""
        K = self.shape[1] - 1
        return [_view(a, K + k0 * sk, shape, (sl + k_row * sk, k_col * sk), False)
                for a, (sl, sk) in ((self._A, self._steps), (self._A_cut, (2, -1)))]

    @staticmethod
    def _phi(views, shape, out=None) -> np.ndarray:
        if out is None:
            out = np.empty(shape)
        np.subtract(*views, out=out)
        out *= 0.5
        return out


class LatticeConePlan:
    """Phi[H] at every node of one window's lattice, for any field H: the
    :class:`ConePlan` of the lattice's sheared layout, with everything its
    front fixes built once.

    The lattice is sheared so that column k holds the diagonal
    xi = (k - j_ext)*delta: node (i, j) goes to column i - j + j_ext, and
    the other slots stay 0.  The omega cut applies past rho0.  Below rho0
    an apex behind the rim echo (t > r) sees the data cone, not the sheared
    one: the sub-cone under the echo, the cone of the rim apex (t - r, 0),
    is removed, and with it the half cells the zeros before the rim add.
    Node (i, j) is ``0.5 * (A[2i, nt + i + j] - A_cut[nt + i + j])`` less,
    behind the rim echo, the same at (i - j, 0), and 0 outside the domain.

    The plan holds the cut, the rim-echo and outside indices and the
    sheared field, on top of the kernel's work arrays; a window builds one
    and drops it with the window.  ``values`` is the sheared field seen at
    the lattice nodes, a writable view, and the only way in: the caller
    writes its field H there and then calls the plan.
    """

    def __init__(self, lat: CharLattice):
        d, nt, jx = lat.delta, lat.nt, lat.j_ext
        self.shape = (nt + 1, jx + 1)
        self._kernel = ConePlan(nt, nt + jx, d)
        self._field = np.zeros(self._kernel.shape)
        self.values = _view(self._field, jx, self.shape, (nt + jx + 2, -1), True)
        m = np.arange(-nt - jx, 2 * nt + 1) + jx  # anti-diagonal eta = m*delta
        eta = m * d
        refl = eta > lat.front.rho0 + 1e-12
        self._kernel._set_cut(np.where(refl, lat.front._omega_unchecked(eta) / d + m, 0.0))
        self._nodes = self._kernel._node_views(self.shape, jx, 1, -1)

        ii = np.arange(nt + 1)[:, None]
        jj = np.arange(jx + 1)
        i_b, j_b = np.nonzero((ii > jj) & ((ii + jj) * d <= lat.front.rho0 + 1e-12))
        self._behind = i_b * (jx + 1) + j_b
        self._rim = (i_b - j_b) * (jx + 1)
        self._outside = ~lat.inside

    def __call__(self, out=None) -> np.ndarray:
        self._kernel._sums(self._field)
        J = self._kernel._phi(self._nodes, self.shape, out)
        flat = J.ravel()
        flat[self._behind] -= flat[self._rim]
        J[self._outside] = 0.0
        return J


def cone_integrals_batch(lat: CharLattice, plan: LatticeConePlan, out=None) -> np.ndarray:
    """Phi[H] at every lattice node inside the domain (0 outside), through
    ``plan``, the :class:`LatticeConePlan` built for ``lat``, of the field H
    the caller wrote into ``plan.values``; written into ``out`` when given
    (an array of the lattice's shape) and else into a fresh array.  The
    lattice comes first because it names the call: the benchmark's layer
    timing divides this function's time by the nodes of its first
    argument."""
    return plan(out)


# ---------------------------------------------------------------------------
# characteristic line integrals
# ---------------------------------------------------------------------------

_BLOCK = 8192  # segments per pass of the line kernel


def _line_cumulatives(values: np.ndarray, delta: float) -> np.ndarray:
    """Both families' diagonal cumulatives: C[l, 0, q] integrates the -45
    line r = (q - l) * delta and C[l, 1, q] the +45 line
    r = (q - nt + l) * delta from row 0 to row l (see :func:`_sheared`)."""
    S = _sheared(values, (-1, 1))
    return column_cumulative(S, delta, np.empty_like(S))


def char_line_integrals(lat: CharLattice, values: np.ndarray, C: np.ndarray, direction,
                        offset, t_start, t_end) -> np.ndarray:
    """Trapezoid integrals of the field along the characteristic segments
    r = offset + direction * tau, tau in [t_start, t_end], direction = +-1.

    C is both families' diagonal cumulatives of ``values``
    (:func:`_line_cumulatives`), which the caller builds once and keeps.
    The other arguments broadcast together, one segment per element.  Each
    segment is sampled at its two end points and at every lattice row
    strictly between them.  A line on a lattice diagonal (offset within
    1e-9 cells of a node) reads node values on rows and interpolates along
    the diagonal between rows; any other line reads linear-in-r row values,
    and its end points between rows the bilinear sample there.

    The cells between a segment's first and last inside rows are the
    difference of two reads of C along its family, on its diagonal, or
    weighted between the two diagonals around the line; only the two end
    cells read row values, six per segment (each end's rows below and above
    it and the first and last inside rows), all gathered in one pass.  A
    segment along a diagonal whose ends are nodes is exactly such a
    difference; :func:`phi_time_trace` reads those off the same cumulatives
    without forming segments.  So past the cumulatives the work is
    O(segments), each segment computed by itself, and is done in blocks of
    segments so that the temporaries stay a few MB for any batch.  Segments
    must lie in [0, nt * delta]; one reaching past the columns
    [0, j_ext * delta], even partway, raises GeometryError, naming its end
    point and the bound.
    """
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
    bad = (tb - ta > 1e-15) & (off_a | off_b)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        t, r = (ta[k], r_a[k]) if off_a[k] else (tb[k], r_b[k])
        raise GeometryError(
            f"characteristic segment outside the lattice's columns: its end "
            f"(t, r) = ({t:.6g}, {r:.6g}) is outside [0, {r_max:.6g}]")


def _line_block(values, d, C, direction, offset, ta, tb):
    """:func:`char_line_integrals` of one block of segments, given both
    families' cumulatives C.  Every segment reads the line on six rows: the
    rows below and above each end, and its first and last inside rows (a
    diagonal's node there, or the row interpolant between diagonals), all
    in one :func:`_row_interp` call; an end on a row takes the row below
    alone."""
    nt = values.shape[0] - 1
    W = C.shape[2]  # columns of a family's layout
    fam = (direction > 0).astype(int)

    k = offset / d
    k_node = np.rint(k)
    aligned = np.abs(k - k_node) < 1e-9
    base = np.where(aligned, k_node, np.floor(k))  # diagonal on or below the line
    w = np.where(aligned, 0.0, k - base)  # weight of the diagonal above
    qa = np.minimum(np.maximum(base + fam * nt, 0), W - 1).astype(int)
    qb = np.minimum(qa + 1, W - 1)
    live = tb - ta > 1e-15

    # the ends: the row at or below each, and its weight f on the row above
    ends = np.array((ta, tb))
    i_f = ends / d
    i_r = np.rint(i_f)
    on_row = np.abs(i_f - i_r) < 1e-9
    ia = np.minimum(np.maximum(np.where(on_row, i_r, np.floor(i_f + 1e-12)), 0), max(nt - 1, 0))
    f = np.where(on_row, i_r, i_f) - ia
    # the first and last rows strictly inside
    lo = np.ceil(ta / d - 1e-12)
    lo = lo + (lo * d <= ta + 1e-13)
    hi = np.floor(tb / d + 1e-12)
    hi = hi - (hi * d >= tb - 1e-13)
    inner = np.minimum(np.maximum(np.array((lo, hi)), 0), nt)

    rows = np.concatenate((ia, np.minimum(ia + 1, nt), inner))
    p_end = (offset + direction * ends) / d
    p = np.concatenate((p_end, p_end, (offset + direction * (inner * d)) / d))
    rows_i = rows.astype(int)
    v = _row_interp(values, rows_i, np.where(aligned, k_node + direction * rows, p))
    # bilinear between the rows around an end off the rows; (1 - 0) v + 0 v1 = v
    va, vb = np.where(f != 0.0, (1.0 - f) * v[:2] + f * v[2:4], v[:2])

    # the inside cells: differences of the cumulatives, row l of family f
    # starting at flat index (2 l + f) * W
    at = (2 * rows_i[4:] + fam) * W
    c = C.ravel().take(np.concatenate((at + qa, at + qb)))
    inner_sum = (1.0 - w) * (c[1] - c[0]) + w * (c[3] - c[2])
    split = (0.5 * (lo * d - ta) * (va + v[4]) + inner_sum
             + 0.5 * (tb - hi * d) * (v[5] + vb))
    out = np.where(lo <= hi, split, 0.5 * (tb - ta) * (va + vb))
    return np.where(live, out, 0.0)


# ---------------------------------------------------------------------------
# derivative traces
# ---------------------------------------------------------------------------

def phi_time_trace(lat: CharLattice, values: np.ndarray, C: np.ndarray, block, t, r):
    """Boundary line integrals (g1, g2) with Phi_t = g1 + g2 and
    Phi_r = g1 - g2 on a block of lattice rows and at 1-D arrays of points
    (t, r), on nodes or not, returned as ((g1, g2) on the block, (g1, g2)
    at the points).
    ``block`` is (lo, hi, J) of :meth:`CharLattice.row_block`: every node
    of rows lo..hi in columns 0..J, inside the front or not.  The points are
    taken as given: ``prescribed.FieldPatch.row_traces`` checks them
    (t <= rho0 / 2, where these formulas hold, and 0 <= r <= rho(t)) and
    clips r.  So the front's maps are read here unchecked (see
    :mod:`debondsim.geometry`).

    C is both families' diagonal cumulatives of ``values``
    (:func:`_line_cumulatives`), which the caller builds once and keeps.
    With P and M the +45 and -45 cumulatives of C indexed by lattice node
    (row by row in ``diag_cumulatives`` of ``tests/reference.py``), every
    node has

        g1 = M[i, i + j] - S[i + j],
        g2 = P[i, j] - P[i - j, 0] - M[i - j, 0],

    the last two the rim-echo legs from row i - j, where the +45 line
    leaves the rim behind the rim echo (j < i), and 0 otherwise.  M along
    a row block is a strided view of C, S and the rim-echo legs are 1-D in
    i + j and i - j, and each is read through a view over the block
    (:func:`_view`, as the cone plan reads its sums), so a block costs a
    few passes over its nodes and no index arrays.  S[m] is 0 on an
    anti-diagonal m with m * delta <= rho0; past the reflection it is the
    integral along the anti-diagonal from t = 0 to its crossing t_star with
    the front, plus omega'(eta) times the reflected +45 line from
    (0, -omega(eta)) up to t_star, so g1 runs from t_star only.  S takes
    two segments per reflected anti-diagonal of the block, and every point
    its four characteristic segments; all of them go through one
    :func:`char_line_integrals` call on the same cumulatives.
    """
    front = lat.front
    rho0 = front.rho0
    nt, d = lat.nt, lat.delta
    lo, hi, J = block
    shape = (hi - lo + 1, J + 1)
    # the block's anti-diagonals m = lo .. hi + J, the reflected ones, and
    # the points' reflection
    m = np.arange(lo, hi + J + 1)
    diag = m[m * d > rho0 + 1e-14]
    refl = r > rho0 - t + 1e-14

    # g1 of a point: the -45 line through (t, r), from t = 0 or, past the
    # reflection, from its crossing t_star with the front, plus -omega'(eta)
    # times the reflected +45 line from (0, -omega(eta)) up to t_star; an
    # anti-diagonal's S takes the same t_star, omega and omega'
    eta = np.concatenate((diag * d, t + r))
    bent = np.concatenate((np.ones(diag.size, dtype=bool), refl))
    t_star, om, om_dot = (np.zeros(eta.shape) for _ in range(3))
    if bent.any():  # the points are checked: the front's maps take them unchecked
        e = eta[bent]
        t_star[bent] = front._psi_inverse_unchecked(e)
        om[bent] = front._omega_unchecked(e)
        om_dot[bent] = front.omega_dot(e)
    # g2 of a point: the +45 line through (t, r), from t = 0 or, behind the
    # rim echo, from the rim at s = t - r, less the -45 echo leg from (0, s)
    # to the rim
    s = np.where(r < t - 1e-14, t - r, 0.0)
    n, nf = diag.size, t.size
    ts_d, ts_f = t_star[:n], t_star[n:]
    z_d, z_f = np.zeros(n), np.zeros(nf)
    # segment groups, in order: each anti-diagonal up to t_star, its
    # reflected +45 leg; each point's g1 legs, then its g2 legs
    L = char_line_integrals(
        lat, values, C,
        np.repeat([-1.0, 1.0, -1.0, 1.0, 1.0, -1.0], [n, n, nf, nf, nf, nf]),
        np.concatenate((eta[:n], -om[:n], eta[n:], -om[n:], r - t, s)),
        np.concatenate((z_d, z_d, ts_f, z_f, s, z_f)),
        np.concatenate((ts_d, ts_d, t, ts_f, t, s)))
    L_diag, L_bent = L[:n], L[n:2 * n]
    L0, L1, L2, L3 = L[2 * n:].reshape(4, nf)

    # the block: row l of family f of C starts at flat index (2 l + f) W, so
    # M[i, i + j] steps 2 W + 1 down the rows and P[i, j] (column
    # j - i + nt) 2 W - 1; the echo legs of i - j = k > 0 sit at
    # C[k, 1, nt - k] and C[k, 0, k]
    W = C.shape[2]
    S = np.zeros(m.shape)
    S[diag - lo] = L_diag + om_dot[:n] * L_bent
    flat = C.ravel()
    k = np.arange(lo - J, hi + 1)
    echo = np.zeros((2, k.size))
    behind = k > 0
    echo[0, behind] = flat[W + nt::2 * W - 1][k[behind]]
    echo[1, behind] = flat[::2 * W + 1][k[behind]]
    g1 = np.subtract(_view(C, (2 * W + 1) * lo, shape, (2 * W + 1, 1), False),
                     _view(S, 0, shape, (1, 1), False))
    g2 = np.subtract(_view(C, (2 * lo + 1) * W + nt - lo, shape, (2 * W - 1, 1), False),
                     _view(echo, J, shape, (1, -1), False))
    g2 -= _view(echo, k.size + J, shape, (1, -1), False)
    return (g1, g2), (-om_dot[n:] * L1 + L0, -L3 + L2)
