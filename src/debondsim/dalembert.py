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
:func:`free_derivatives` takes points in the domain, as the trace entry
point ``prescribed.FieldPatch.local_traces`` checks and clips them, and
the lattice step: a point whose branch argument is exactly an index times
delta (every node when delta is a power of two) takes the branch from one
evaluation per characteristic index in use, marked over the index range
without sorting, and every other point (banks, front points) by itself.
The result is the pointwise one, bitwise, for any delta.  Both read the
front's omega unchecked, at points the trace entry point or the lattice
has placed in the domain.  The pointwise free solution, with its checks,
is the test oracle ``free_solution`` in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import HData
from .geometry import _asarray

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


def _per_characteristic(branch: Callable, s: np.ndarray, delta: float) -> np.ndarray:
    """branch(s) from one call: once for each characteristic index m with
    s == m * delta exactly, marked over the index range the points span,
    and once at each other point."""
    k = np.rint(s / delta)
    on = k * delta == s
    off = ~on
    m = k[on].astype(np.intp)
    lo = m.min() if m.size else 0
    m -= lo
    used = np.zeros(m.max(initial=-1) + 1, dtype=bool)
    used[m] = True
    lines = used.nonzero()[0]
    vals = branch(np.concatenate(((lines + lo) * delta, s[off])))
    table = np.empty(used.shape)
    table[lines] = vals[:lines.size]
    out = np.empty(s.shape)
    out[on] = table.take(m)
    out[off] = vals[lines.size:]
    return out


def free_derivatives(hdata: HData, front, delta: float, t, r):
    """(d_t, d_r) of the free solution of ``hdata`` under the window-local
    ``front`` at points (t, r) in the domain, as
    ``prescribed.FieldPatch.local_traces`` checks and clips them; t and r
    broadcast.  Each branch derivative is evaluated once per characteristic
    of the lattice of step ``delta`` that the points lie on exactly
    (t + r = m * delta for df_plus, t - r = n * delta for df_minus), and
    once at each other point, so the result is the pointwise one, bitwise."""
    t, r = _asarray(t), _asarray(r)
    fp = _per_characteristic(
        lambda s: df_plus(hdata, s, front._omega_unchecked(s), front.omega_dot(s)), t + r, delta)
    fm = _per_characteristic(lambda s: df_minus(hdata, s), t - r, delta)
    return fp + fm, fp - fm
