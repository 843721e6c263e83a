"""Free wave solution on the shrinking interval and its traveling waves.

With the zero-order kernel switched off, the weighted unknown solves the
plain 1-D wave equation on 0 < r < rho(t) with data (z, h0, h1).  Its
value splits into outgoing/ingoing traveling waves

    A(t, r) = f_plus(t + r) + f_minus(t - r)

whose branches encode the initial data, the rim load via z, and the first
reflection at the moving front via the map omega.  The derivatives of the
branches are assembled analytically (chain rule through omega), never by
differencing: the boundary traces feeding the energy rate and the release
rate must carry no numerical noise.

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
The result is the pointwise one, bitwise, for any delta.  The pointwise
free solution, with its checks, is the test oracle ``free_solution`` in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import HData
from .geometry import _asarray


@dataclass(frozen=True)
class TravelingWaves:
    """Traveling-wave split of the free solution.

    ``f_plus`` takes s = t + r and reflects at the front past s = rho0;
    ``f_minus`` takes s = t - r and reflects at the rim past s = 0; kinks
    at s = 0 and s = rho0 are evaluated one-sidedly.
    """

    f_plus: Callable
    f_minus: Callable
    df_plus: Callable
    df_minus: Callable
    front: object


def traveling_decomposition(hdata: HData, front) -> TravelingWaves:
    rho0 = hdata.rho0
    h0, h1, z = hdata.h0, hdata.h1, hdata.z
    h0d = hdata.h0_dot
    H1 = h1.cumint

    # Each branch reads the data at one argument b in [0, rho0] per point:
    # f_plus at s up to the kink s = rho0 and at -omega(s) past it, f_minus
    # at -s up to s = 0 and at s past it, i.e. at |s|.  So a call evaluates
    # each data profile once, at every point's b, and picks each point's
    # side with np.where; the rim load is read at max(s, 0), its own
    # argument wherever it counts.  The reflected side reads the front's
    # maps unchecked, at points the trace entry point has checked.
    def clip0(s):
        return np.minimum(np.maximum(s, 0.0), rho0)

    def plus_args(s):
        s = _asarray(s)
        direct = s <= rho0
        return direct, clip0(np.where(direct, s, -front._omega_unchecked(s)))

    def minus_args(s):
        s = _asarray(s)
        return s <= 0.0, clip0(np.abs(s)), np.maximum(s, 0.0)

    def f_plus(s):
        direct, b = plus_args(s)
        a, c = 0.5 * h0(b), 0.5 * H1(b)
        return np.where(direct, a + c, -a + c)

    def f_minus(s):
        direct, b, p = minus_args(s)
        a, c = 0.5 * h0(b), 0.5 * H1(b)
        return np.where(direct, a - c, z(p) - a - c)

    def df_plus(s):
        direct, b = plus_args(s)
        u, v = h0d(b), h1(b)
        return np.where(direct, 0.5 * (u + v), 0.5 * front.omega_dot(s) * (u - v))

    def df_minus(s):
        direct, b, p = minus_args(s)
        u, v = h0d(b), h1(b)
        return np.where(direct, -0.5 * u + 0.5 * v, z.deriv(p) - 0.5 * (u + v))

    return TravelingWaves(f_plus=f_plus, f_minus=f_minus,
                          df_plus=df_plus, df_minus=df_minus, front=front)


def free_solution(waves: TravelingWaves, lat) -> np.ndarray:
    """The free solution at every node of the window lattice ``lat``, 0
    beyond the front: f_plus on the nt + j_ext + 1 anti-diagonals
    (i + j) delta, f_minus on the nt + j_ext + 1 diagonals (i - j) delta,
    gathered as fp[i + j] + fm[i - j + j_ext]."""
    d, nt, jx = lat.delta, lat.nt, lat.j_ext
    fp = waves.f_plus(np.arange(nt + jx + 1) * d)
    fm = waves.f_minus(np.arange(-jx, nt + 1) * d)
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


def free_derivatives(waves: TravelingWaves, delta: float, t, r):
    """(d_t, d_r) of the free solution at points (t, r) in the domain, as
    ``prescribed.FieldPatch.local_traces`` checks and clips them; t and r
    broadcast.  Each branch derivative is evaluated once per characteristic
    of the lattice of step ``delta`` that the points lie on exactly
    (t + r = m * delta for df_plus, t - r = n * delta for df_minus), and
    once at each other point, so the result is the pointwise one, bitwise."""
    t, r = _asarray(t), _asarray(r)
    fp = _per_characteristic(waves.df_plus, t + r, delta)
    fm = _per_characteristic(waves.df_minus, t - r, delta)
    return fp + fm, fp - fm
