"""Problem data and the v <-> h transformation.

``v(t, r)`` is the transverse displacement read at distance ``r`` inward
from the rim, and ``h = sqrt(R - r) * exp(alpha t / 2) * v`` is the
weighted unknown whose equation has no first-order terms.  This module
owns the data containers, the closed-form/sampled scalar profiles they
are built from, the toughness model, and the prefactor of the source
kernel

    F(tau, sigma) = (alpha^2 + 1/(R - sigma)^2) / 4 * h(tau, sigma)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import _asarray

_COMPAT_TOL = 1e-10


class CompatibilityError(ValueError):
    """Raised when boundary/initial data fail the corner conditions."""


# ---------------------------------------------------------------------------
# scalar profiles
# ---------------------------------------------------------------------------

class Profile:
    """A scalar function of one variable with optional derivative and an
    exact-or-cached cumulative integral from 0.

    Closed-form presets keep analytic derivatives and antiderivatives;
    sampled tables interpolate linearly and integrate their interpolant
    exactly.  Any other profile on a bounded domain gets a cached
    cumulative on first use: Simpson sums on a dense grid joined by a cubic
    Hermite whose node slopes are the profile itself.
    """

    def __init__(self, value, deriv=None, cumint=None, domain=(0.0, np.inf),
                 kind="callable"):
        self._value = value
        self._deriv = deriv
        self._cumint = cumint
        self.domain = (float(domain[0]), float(domain[1]))
        self.kind = kind

    def __call__(self, x):
        return _asarray(self._value(_asarray(x)))

    @property
    def has_deriv(self) -> bool:
        return self._deriv is not None

    def deriv(self, x):
        if self._deriv is None:
            raise ValueError(f"profile of kind {self.kind!r} has no derivative")
        return _asarray(self._deriv(_asarray(x)))

    def cumint(self, x):
        """Integral of the profile from max(0, lo) to x, where lo is the
        lower end of its domain (from lo if the whole domain is below 0);
        profiles from :meth:`from_samples` integrate from their first
        sample."""
        if self._cumint is None:
            self._cumint = self._build_cached_cumint()
        return _asarray(self._cumint(_asarray(x)))

    def _build_cached_cumint(self, panels: int = 4096):
        lo, hi = self.domain
        if not np.isfinite(hi):
            raise ValueError("cannot cache a cumulative integral on an unbounded domain")
        # composite Simpson on a dense grid gives the cumulative values at
        # the panel ends; a cubic Hermite joins them, with the profile as
        # the node slopes (the derivative of a cumulative integral is the
        # integrand).  Both errors are fourth order and far below the
        # solver tolerances.
        xs = np.linspace(lo, hi, 2 * panels + 1)
        ys = self(xs)
        h = (hi - lo) / (2 * panels)
        chunks = (ys[0:-2:2] + 4.0 * ys[1:-1:2] + ys[2::2]) * (h / 3.0)
        cum = np.concatenate(([0.0], np.cumsum(chunks)))
        # per-panel coefficients in the unit coordinate u in [0, 1); the
        # edge panels extend as polynomials past the domain
        step = 2.0 * h
        m0, m1 = step * ys[0:-2:2], step * ys[2::2]
        jump = np.diff(cum)
        c0, c1 = cum[:-1], m0
        c2 = 3.0 * jump - 2.0 * m0 - m1
        c3 = m0 + m1 - 2.0 * jump
        inv_step, last = 1.0 / step, panels - 1

        def hermite(x):
            w = (x - lo) * inv_step
            k = np.minimum(np.maximum(w.astype(np.intp), 0), last)
            u = w - k
            return ((c3.take(k) * u + c2.take(k)) * u + c1.take(k)) * u + c0.take(k)

        if lo < 0.0 <= hi:
            off = float(hermite(_asarray(0.0)))
            return lambda x: hermite(x) - off
        return hermite

    def shifted(self, dt: float, factor: float = 1.0) -> "Profile":
        """x -> factor * self(x + dt), with its derivative.  Shifting the
        result again composes onto this profile, so a chain of shifts
        evaluates with one call of the original."""
        return _Shifted(self, float(dt), float(factor))

    # -- presets ----------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(lambda x: np.zeros_like(_asarray(x)),
                   deriv=lambda x: np.zeros_like(_asarray(x)),
                   cumint=lambda x: np.zeros_like(_asarray(x)),
                   kind="zero")

    @classmethod
    def constant(cls, c: float):
        c = float(c)
        return cls(lambda x: np.full_like(_asarray(x), c),
                   deriv=lambda x: np.zeros_like(_asarray(x)),
                   cumint=lambda x: c * _asarray(x),
                   kind="constant")

    @classmethod
    def affine(cls, a: float, b: float):
        """a + b * x."""
        a, b = float(a), float(b)
        return cls(lambda x: a + b * _asarray(x),
                   deriv=lambda x: np.full_like(_asarray(x), b),
                   cumint=lambda x: a * _asarray(x) + 0.5 * b * _asarray(x) ** 2,
                   kind="affine")

    @classmethod
    def poly(cls, coeffs: Sequence[float]):
        """sum_k coeffs[k] * x**k."""
        c = np.asarray(coeffs, dtype=float)
        dc = c[1:] * np.arange(1, len(c))
        ic = np.concatenate(([0.0], c / np.arange(1, len(c) + 1)))
        return cls(lambda x: np.polynomial.polynomial.polyval(_asarray(x), c),
                   deriv=lambda x: np.polynomial.polynomial.polyval(_asarray(x), dc)
                   if len(dc) else np.zeros_like(_asarray(x)),
                   cumint=lambda x: np.polynomial.polynomial.polyval(_asarray(x), ic),
                   kind="poly")

    @classmethod
    def sine_bump(cls, amp: float, width: float):
        """amp * sin(pi x / width): vanishes at 0 and width."""
        amp, width = float(amp), float(width)
        k = np.pi / width
        return cls(lambda x: amp * np.sin(k * _asarray(x)),
                   deriv=lambda x: amp * k * np.cos(k * _asarray(x)),
                   cumint=lambda x: amp / k * (1.0 - np.cos(k * _asarray(x))),
                   domain=(0.0, width),
                   kind="sine_bump")

    @classmethod
    def sine(cls, amp: float, freq: float):
        """amp * sin(freq * x), for time-dependent loads."""
        amp, freq = float(amp), float(freq)
        return cls(lambda x: amp * np.sin(freq * _asarray(x)),
                   deriv=lambda x: amp * freq * np.cos(freq * _asarray(x)),
                   cumint=lambda x: amp / freq * (1.0 - np.cos(freq * _asarray(x))),
                   kind="sine")

    @classmethod
    def from_samples(cls, x, y, deriv_samples=None):
        """Linear interpolant of samples y at increasing x, integrated
        exactly; the solver's seam data are built this way.
        ``deriv_samples`` gives a piecewise linear derivative."""
        x = _asarray(x)
        y = _asarray(y)
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
        slopes = (y[1:] - y[:-1]) / (x[1:] - x[:-1])
        last = len(x) - 2

        def lin_cum(s):
            s = _asarray(s)
            idx = np.minimum(np.maximum(np.searchsorted(x, s, side="right") - 1, 0), last)
            ds = s - x.take(idx)
            return cum.take(idx) + y.take(idx) * ds + 0.5 * slopes.take(idx) * ds * ds

        prof = cls(lambda s: np.interp(_asarray(s), x, y),
                   cumint=lin_cum, domain=(x[0], x[-1]), kind="linear")
        if deriv_samples is not None:
            d = _asarray(deriv_samples)
            prof._deriv = lambda s: np.interp(_asarray(s), x, d)
        return prof


class _Shifted(Profile):
    """x -> factor * base(x + dt); see :meth:`Profile.shifted`."""

    def __init__(self, base: Profile, dt: float, factor: float):
        super().__init__(lambda x: factor * base(x + dt),
                         deriv=(lambda x: factor * base.deriv(x + dt))
                         if base.has_deriv else None,
                         kind=base.kind)
        self.base, self.dt, self.factor = base, dt, factor

    def shifted(self, dt: float, factor: float = 1.0) -> Profile:
        return _Shifted(self.base, self.dt + float(dt), self.factor * float(factor))


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemData:
    """Geometry, damping, boundary load and initial data of one run.  The
    package never reads ``horizon``: ``run`` and ``march`` take their own."""

    R: float
    rho0: float
    alpha: float
    horizon: float
    w: Profile
    v0: Profile
    v1: Profile

    def __post_init__(self):
        if not (0 < self.rho0 < self.R):
            raise CompatibilityError("need 0 < rho0 < R")
        if self.alpha < 0:
            raise CompatibilityError("damping coefficient must be nonnegative")
        if abs(float(self.v0(0.0)) - float(self.w(0.0))) > _COMPAT_TOL:
            raise CompatibilityError("v0(0) must equal w(0)")
        if abs(float(self.v0(self.rho0))) > _COMPAT_TOL:
            raise CompatibilityError("v0 must vanish at the front")


@dataclass(frozen=True)
class HData:
    """Weighted data (z, h0, h1) driving the auxiliary problem for h."""

    R: float
    rho0: float
    alpha: float
    z: Profile
    h0: Profile
    h1: Profile
    h0_dot: Callable

    def __post_init__(self):
        if abs(float(self.h0(0.0)) - float(self.z(0.0))) > _COMPAT_TOL * np.sqrt(self.R):
            raise CompatibilityError("h0(0) must equal z(0)")
        if abs(float(self.h0(self.rho0))) > _COMPAT_TOL * np.sqrt(self.R):
            raise CompatibilityError("h0 must vanish at the front")


def to_h_data(data: ProblemData) -> HData:
    """Map (w, v0, v1) to the weighted data (z, h0, h1).

    h0' is assembled analytically from v0 and v0' whenever the preset has
    a derivative; sampled profiles without one are rejected since the
    release-rate formulas need pointwise h0'.
    """
    R, a = data.R, data.alpha
    w, v0, v1 = data.w, data.v0, data.v1
    if not (v0.has_deriv and w.has_deriv):
        raise CompatibilityError("v0 and w must come with derivatives")

    sq = lambda r: np.sqrt(R - _asarray(r))
    ea = lambda t: np.exp(0.5 * a * _asarray(t))

    z = Profile(lambda t: np.sqrt(R) * ea(t) * w(t),
                deriv=lambda t: np.sqrt(R) * ea(t) * (w.deriv(t) + 0.5 * a * w(t)),
                kind="z")
    h0 = Profile(lambda r: sq(r) * v0(r),
                 deriv=lambda r: sq(r) * v0.deriv(r) - 0.5 * v0(r) / sq(r),
                 domain=(0.0, data.rho0), kind="h0")
    h1 = Profile(lambda r: sq(r) * (v1(r) + 0.5 * a * v0(r)),
                 domain=(0.0, data.rho0), kind="h1")
    return HData(R=R, rho0=data.rho0, alpha=a, z=z, h0=h0, h1=h1, h0_dot=h0.deriv)


def v_from_h(h_value, h_t, h_r, t, r, R: float, alpha: float):
    """Invert the weight: (h, h_t, h_r) at (t, r) -> (v, v_t, v_r)."""
    r = _asarray(r)
    if (r >= R).any():
        raise ValueError("the weight is singular at r = R")
    wgt = np.exp(-0.5 * alpha * _asarray(t)) / np.sqrt(R - r)
    v = wgt * h_value
    v_t = wgt * (_asarray(h_t) - 0.5 * alpha * _asarray(h_value))
    v_r = wgt * (_asarray(h_r) + 0.5 * _asarray(h_value) / (R - r))
    return v, v_t, v_r


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel_prefactor(sigma, R: float, alpha: float):
    """The zero-order coefficient (alpha^2 + 1/(R - sigma)^2) / 4."""
    sigma = _asarray(sigma)
    return 0.25 * (alpha * alpha + 1.0 / (R - sigma) ** 2)


# ---------------------------------------------------------------------------
# toughness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Toughness:
    """Piecewise toughness r -> kappa(r) on [rho0, R), right-continuous at
    breakpoints, bounded between positive constants c1 and c2."""

    breakpoints: np.ndarray  # increasing, breakpoints[0] is the domain start
    pieces: tuple  # Profile per interval [b_i, b_{i+1})
    R: float
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        b = _asarray(self.breakpoints)
        object.__setattr__(self, "breakpoints", b)
        if len(self.pieces) != len(b):
            raise ValueError("need one piece per breakpoint")
        if (np.diff(b) <= 0).any():
            raise ValueError("breakpoints must be strictly increasing")
        if b[-1] >= self.R:
            raise ValueError("breakpoints must stay below R")
        lo, hi = np.inf, -np.inf
        edges = np.concatenate((b, [self.R]))
        for i, piece in enumerate(self.pieces):
            rr = np.linspace(edges[i], min(edges[i + 1], self.R - 1e-9), 65)
            vals = piece(rr)
            lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
        if lo <= 0:
            raise ValueError("toughness must be bounded away from zero")
        object.__setattr__(self, "c1", lo)
        object.__setattr__(self, "c2", hi)
        b.flags.writeable = False

    @classmethod
    def constant(cls, kappa: float, rho0: float, R: float):
        return cls(np.array([rho0]), (Profile.constant(kappa),), R)

    @classmethod
    def from_pieces(cls, pieces: Sequence[tuple], R: float):
        """pieces: sequence of (breakpoint, Profile)."""
        bs = np.array([p[0] for p in pieces], dtype=float)
        return cls(bs, tuple(p[1] for p in pieces), R)

    def piece_index(self, r):
        r = _asarray(r)
        return np.minimum(np.maximum(np.searchsorted(self.breakpoints, r, side="right") - 1, 0),
                          len(self.pieces) - 1)


def kappa_eval(tough: Toughness, r):
    """Right-continuous evaluation of the toughness at radius offset r."""
    r = _asarray(r)
    lo = tough.breakpoints[0]
    bad = (r < lo - 1e-10) | (r >= tough.R)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise ValueError(f"toughness evaluated outside [rho0, R): r = {r.flat[k]:.6g} "
                         f"is outside [{lo:.6g}, {tough.R:.6g})")
    r = np.maximum(r, lo)
    idx = tough.piece_index(r)
    out = np.empty_like(r, dtype=float)
    for i in range(len(tough.pieces)):
        mask = idx == i
        if mask.any():
            out[mask] = tough.pieces[i](r[mask])
    return out
