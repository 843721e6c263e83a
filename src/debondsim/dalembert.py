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


def _split(s, cut, below, above):
    """below(s) at the arguments s <= cut, above(s) at the others: each
    sub-branch sees only its own points."""
    s = _asarray(s)
    first = s <= cut
    out = np.empty(s.shape)
    for points, branch in ((first, below), (~first, above)):
        if np.any(points):
            out[points] = branch(s[points])
    return out


def traveling_decomposition(hdata: HData, front) -> TravelingWaves:
    rho0 = hdata.rho0
    h0, h1, z = hdata.h0, hdata.h1, hdata.z
    h0d = hdata.h0_dot
    H1 = h1.cumint

    def clip0(s):
        return np.clip(s, 0.0, rho0)

    def plus_reflected(s):  # past s = rho0, through the front's map omega
        b = clip0(-front._omega_unchecked(s))
        return -0.5 * h0(b) + 0.5 * H1(b)

    def dplus_reflected(s):
        b = clip0(-front._omega_unchecked(s))
        return 0.5 * front.omega_dot(s) * (h0d(b) - h1(b))

    def f_plus(s):
        return _split(s, rho0, lambda d: 0.5 * h0(clip0(d)) + 0.5 * H1(clip0(d)),
                      plus_reflected)

    def f_minus(s):
        return _split(s, 0.0, lambda n: 0.5 * h0(clip0(-n)) - 0.5 * H1(clip0(-n)),
                      lambda p: z(p) - 0.5 * h0(clip0(p)) - 0.5 * H1(clip0(p)))

    def df_plus(s):
        return _split(s, rho0, lambda d: 0.5 * (h0d(clip0(d)) + h1(clip0(d))),
                      dplus_reflected)

    def df_minus(s):
        return _split(s, 0.0, lambda n: -0.5 * h0d(clip0(-n)) + 0.5 * h1(clip0(-n)),
                      lambda p: z.deriv(p) - 0.5 * (h0d(clip0(p)) + h1(clip0(p))))

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
