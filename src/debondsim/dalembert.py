"""Free wave solution on the shrinking interval: its traveling-wave branches.

With the zero-order kernel switched off, the weighted unknown solves the
plain 1-D wave equation on 0 < r < rho(t) with data (z, h0, h1).  Its
value splits into outgoing/ingoing traveling waves

    A(t, r) = f_plus(t + r) + f_minus(t - r)

whose branches encode the initial data, the rim load via z, and the first
reflection at the moving front via the map omega.  :func:`f_minus` and
:func:`df_minus` take s = t - r and reflect at the rim past s = 0;
:func:`f_plus` and :func:`df_plus` take s = t + r and reflect at the front
past s = rho0 through the omega(s) (and omega'(s)) the caller passes: the
window lattice its front's, the coupled strip of :mod:`debondsim.griffith`
its omega iterate.  Kinks at s = 0 and s = rho0 are one-sided.  The
derivatives are assembled analytically (chain rule through omega), never
by differencing: the boundary traces feeding the energy rate and the
release rate must carry no numerical noise.

On a window lattice (dt = dr = delta) each branch takes one value per
characteristic: node (i, j) lies on the anti-diagonal t + r = (i + j) delta
and the diagonal t - r = (i - j) delta.  :func:`free_solution` therefore
evaluates f_plus and f_minus once per line and gathers the node grid from
the two 1-D arrays; (i + j) delta equals i delta + j delta exactly when
delta is a power of two, and to rounding otherwise.
:func:`free_derivatives` does the same on a block of rows lo..hi, columns
0..J: one branch table per characteristic family, over the block's
anti-diagonals and diagonals, read through strided views, so a node
takes (i + j) delta and (i - j) delta, like the free grid.  Its points,
on nodes or not (banks, front points), in the domain as the trace entry
point ``prescribed.FieldPatch.row_traces`` checks and clips them, each
take the branches at their own t + r and t - r, in the same call.  Both
read the front's omega unchecked, at points the trace entry point or the
lattice has placed in the domain.  The pointwise free solution, with its checks,
is the test oracle ``free_solution`` in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .fields import HData
from .geometry import _asarray
from .quadrature import _view

# Each branch reads the data at one argument b in [0, rho0] per point:
# f_plus at s up to the kink s = rho0 and at -omega(s) past it, f_minus at
# -s up to s = 0 and at s past it, i.e. at |s|.  So a call evaluates each
# data profile once, at every point's b, and picks each point's side with
# np.where; the rim load is read at max(s, 0), its own argument wherever it
# counts.


def _plus_args(hd: HData, s, omega):
    s = _asarray(s)
    direct = s <= hd.rho0
    return direct, np.minimum(np.maximum(np.where(direct, s, -omega), 0.0), hd.rho0)


def _minus_args(hd: HData, s):
    s = _asarray(s)
    return s <= 0.0, np.minimum(np.abs(s), hd.rho0), np.maximum(s, 0.0)


def f_plus(hd: HData, s, omega):
    """The outgoing branch at s = t + r; ``omega`` is the front's omega(s),
    read only past s = rho0."""
    direct, b = _plus_args(hd, s, omega)
    a, c = 0.5 * hd.h0(b), 0.5 * hd.h1.cumint(b)
    return np.where(direct, a + c, -a + c)


def f_minus(hd: HData, s):
    """The ingoing branch at s = t - r."""
    direct, b, p = _minus_args(hd, s)
    a, c = 0.5 * hd.h0(b), 0.5 * hd.h1.cumint(b)
    return np.where(direct, a - c, hd.z(p) - a - c)


def df_plus(hd: HData, s, omega, omega_dot):
    """d f_plus / ds; ``omega`` and ``omega_dot`` are the front's omega(s)
    and omega'(s), read only past s = rho0."""
    direct, b = _plus_args(hd, s, omega)
    u, v = hd.h0.deriv(b), hd.h1(b)
    return np.where(direct, 0.5 * (u + v), 0.5 * omega_dot * (u - v))


def df_minus(hd: HData, s):
    """d f_minus / ds."""
    direct, b, p = _minus_args(hd, s)
    u, v = hd.h0.deriv(b), hd.h1(b)
    return np.where(direct, -0.5 * u + 0.5 * v, hd.z.deriv(p) - 0.5 * (u + v))


def free_solution(hdata: HData, lat) -> np.ndarray:
    """The free solution at every node of the window lattice ``lat``, 0
    beyond the front: f_plus on the nt + j_ext + 1 anti-diagonals
    (i + j) delta, f_minus on the nt + j_ext + 1 diagonals (i - j) delta,
    gathered as fp[i + j] + fm[i - j + j_ext]."""
    d, nt, jx = lat.delta, lat.nt, lat.j_ext
    eta = np.arange(nt + jx + 1) * d
    fp = f_plus(hdata, eta, lat.front._omega_unchecked(eta))
    fm = f_minus(hdata, np.arange(-jx, nt + 1) * d)
    i, j = np.arange(nt + 1)[:, None], np.arange(jx + 1)
    return lat.masked(fp[i + j] + fm[i - j + jx])


def free_derivatives(hdata: HData, front, delta: float, block, t, r):
    """(d_t, d_r) of the free solution of ``hdata`` under the window-local
    ``front`` on a block of lattice rows and at points (t, r), returned as
    ((d_t, d_r) on the block, (d_t, d_r) at the points).  ``block`` is
    (lo, hi, J) of ``CharLattice.row_block`` on the lattice of step
    ``delta``: every node of rows lo..hi in columns 0..J.  The points are in
    the domain, as ``prescribed.FieldPatch.row_traces`` checks and clips
    them; t and r broadcast.  Each branch derivative is evaluated once per
    call: df_plus on the block's anti-diagonals m * delta, m = lo .. hi + J,
    and at the points' t + r, df_minus on its diagonals n * delta,
    n = lo - J .. hi, and at the points' t - r.  The block reads the two
    branch tables through strided views, node (i, j) at m = i + j and
    n = i - j; the points take their own evaluations, so they are the
    pointwise values, bitwise."""
    lo, hi, J = block
    t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
    shape, nb = (hi - lo + 1, J + 1), max(hi - lo + J + 1, 0)
    sp = np.concatenate((np.arange(lo, hi + J + 1) * delta, (t + r).ravel()))
    sm = np.concatenate((np.arange(lo - J, hi + 1) * delta, (t - r).ravel()))
    fp = df_plus(hdata, sp, front._omega_unchecked(sp), front.omega_dot(sp))
    fm = df_minus(hdata, sm)
    bp, bm = _view(fp, 0, shape, (1, 1), False), _view(fm, J, shape, (1, -1), False)
    pp, pm = fp[nb:].reshape(t.shape), fm[nb:].reshape(t.shape)
    return (bp + bm, bp - bm), (pp + pm, pp - pm)
