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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import HData
from .geometry import GeometryError, _asarray


@dataclass(frozen=True)
class TravelingWaves:
    """Traveling-wave split of the free solution.

    ``f_plus`` lives on (0, 2 t_star) in s = t + r, ``f_minus`` on
    (-rho0, rho0) in s = t - r; kinks at s = 0 and s = rho0 are evaluated
    one-sidedly.
    """

    f_plus: Callable
    f_minus: Callable
    df_plus: Callable
    df_minus: Callable
    t_star: float
    hdata: HData
    front: object


def _t_star(front) -> float:
    """Endpoint for the decomposition: the horizon, or the earlier time at
    which the front line t = rho(t) is crossed."""
    T = front.horizon
    if float(front.rho(T)) > T:
        return T
    ts = np.linspace(0.0, T, 1025)
    gap = front.rho(ts) - ts
    k = int(np.argmax(gap <= 0))
    a, b = ts[k - 1], ts[k]
    for _ in range(80):
        m = 0.5 * (a + b)
        if float(front.rho(m)) - m > 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


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
                          df_plus=df_plus, df_minus=df_minus,
                          t_star=_t_star(front), hdata=hdata, front=front)


def free_solution(hdata: HData, front, t, r, check: bool = True):
    """Piecewise d'Alembert value of the free solution at (t, r).

    Three cases: pure initial data, rim reflection through z, and front
    reflection through omega.  With ``check=False`` points beyond the
    front evaluate to 0 (the standard extension).
    """
    t = _asarray(t)
    r = _asarray(r)
    t, r = np.broadcast_arrays(t, r)
    rho0 = hdata.rho0
    rho_t = front.rho(t)
    inside = r <= rho_t + 1e-12
    if check and not np.all(inside):
        raise GeometryError("free solution requested beyond the front")
    eta = t + r
    reflected = eta > rho0
    if check and np.any((t > r + 1e-12) & reflected):
        raise GeometryError("point beyond the first reflection family")

    h0, H1, z = hdata.h0, hdata.h1.cumint, hdata.z

    def clip0(x):
        return np.clip(x, 0.0, rho0)

    a_lo = clip0(np.abs(t - r))  # |t - r| is the data-side argument
    out = np.zeros_like(t, dtype=float)

    case1 = inside & ~reflected & (t <= r)
    case2 = inside & ~reflected & (t > r)
    case3 = inside & reflected
    if np.any(case1 | case2):
        hi = clip0(eta)
        common = 0.5 * h0(hi) + 0.5 * (H1(hi) - H1(a_lo))
        out = np.where(case1, 0.5 * h0(a_lo) + common, out)
        out = np.where(case2, z(np.maximum(t - r, 0.0)) - 0.5 * h0(a_lo) + common, out)
    if np.any(case3):
        eta_c = np.where(case3, eta, rho0)
        back = clip0(-front._omega_unchecked(eta_c))
        out = np.where(case3,
                       0.5 * h0(a_lo) - 0.5 * h0(back) + 0.5 * (H1(back) - H1(a_lo)),
                       out)
    return np.where(inside, out, 0.0)


def free_derivatives(waves: TravelingWaves, t, r):
    """(d_t, d_r) of the free solution; zero beyond the front."""
    t = _asarray(t)
    r = _asarray(r)
    t, r = np.broadcast_arrays(t, r)
    inside = r <= waves.front.rho(t) + 1e-12
    fp = waves.df_plus(t + r)
    fm = waves.df_minus(t - r)
    d_t = np.where(inside, fp + fm, 0.0)
    d_r = np.where(inside, fp - fm, 0.0)
    return d_t, d_r
