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
:func:`free_derivatives` takes arbitrary points, so it evaluates each
branch once per distinct argument value: nodes on one characteristic
share their argument to the last bit when delta is a power of two, and
the other points (banks, front points) mostly have values of their own.
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

    def clip0(s):
        return np.clip(_asarray(s), 0.0, rho0)

    def f_plus(s):
        s = _asarray(s)
        direct = s <= rho0
        out = np.where(direct, 0.5 * h0(clip0(s)) + 0.5 * H1(clip0(s)), 0.0)
        if np.any(~direct):
            back = clip0(-front._omega_unchecked(np.where(direct, rho0, s)))
            out = np.where(direct, out, -0.5 * h0(back) + 0.5 * H1(back))
        return out

    def f_minus(s):
        s = _asarray(s)
        neg = s <= 0.0
        out = np.where(neg, 0.5 * h0(clip0(-s)) - 0.5 * H1(clip0(-s)), 0.0)
        if np.any(~neg):
            sp = clip0(s)
            out = np.where(neg, out, z(np.maximum(s, 0.0)) - 0.5 * h0(sp) - 0.5 * H1(sp))
        return out

    def df_plus(s):
        s = _asarray(s)
        direct = s <= rho0
        out = np.where(direct, 0.5 * (h0d(clip0(s)) + h1(clip0(s))), 0.0)
        if np.any(~direct):
            sc = np.where(direct, rho0, s)
            back = clip0(-front._omega_unchecked(sc))
            wd = front.omega_dot(sc)
            out = np.where(direct, out, 0.5 * wd * (h0d(back) - h1(back)))
        return out

    def df_minus(s):
        s = _asarray(s)
        neg = s <= 0.0
        out = np.where(neg, -0.5 * h0d(clip0(-s)) + 0.5 * h1(clip0(-s)), 0.0)
        if np.any(~neg):
            sp = clip0(s)
            out = np.where(neg, out, z.deriv(np.maximum(s, 0.0)) - 0.5 * (h0d(sp) + h1(sp)))
        return out

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


def _once_per_value(branch: Callable, s: np.ndarray) -> np.ndarray:
    """branch(s) from one call that takes each distinct value of s once."""
    order = np.argsort(s, axis=None, kind="stable")  # merges the rows' sorted runs
    ss = s.ravel()[order]
    first = np.empty(ss.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ss[1:], ss[:-1], out=first[1:])
    out = np.empty(ss.shape)
    out[order] = branch(ss[first])[np.cumsum(first) - 1]
    return out.reshape(s.shape)


def free_derivatives(waves: TravelingWaves, t, r):
    """(d_t, d_r) of the free solution; zero beyond the front.  Each branch
    derivative is evaluated once per distinct argument: once per
    characteristic that lattice nodes share, and once at each other point."""
    t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
    inside = r <= waves.front.rho(t) + 1e-12
    fp = _once_per_value(waves.df_plus, t + r)
    fm = _once_per_value(waves.df_minus, t - r)
    d_t = np.where(inside, fp + fm, 0.0)
    d_r = np.where(inside, fp - fm, 0.0)
    return d_t, d_r
