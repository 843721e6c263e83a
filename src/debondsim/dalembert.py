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


def free_solution(hdata: HData, front, t, r, check: bool = True):
    """d'Alembert value f_plus(t + r) + f_minus(t - r) of the free solution
    at (t, r), which covers pure initial data, the rim reflection through z
    and the front reflection through omega.  With ``check=False`` points
    beyond the front evaluate to 0 (the standard extension).
    """
    t, r = np.broadcast_arrays(_asarray(t), _asarray(r))
    inside = r <= front.rho(t) + 1e-12
    if check and not np.all(inside):
        raise GeometryError("free solution requested beyond the front")
    if check and np.any((t > r + 1e-12) & (t + r > hdata.rho0)):
        raise GeometryError("point beyond the first reflection family")
    waves = traveling_decomposition(hdata, front)
    return np.where(inside, waves.f_plus(t + r) + waves.f_minus(t - r), 0.0)


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
