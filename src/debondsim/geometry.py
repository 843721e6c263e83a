"""Front parametrization and characteristic geometry.

The debonded annulus is described by the width ``rho(t)`` of the bonded
overlap measured inward from the outer rim ``R``.  Everything downstream
(d'Alembert formulas, cone quadrature, energy audits) only ever sees the
front through the maps defined here:

    phi(t) = t - rho(t)        psi(t) = t + rho(t)
    omega  = phi o psi^{-1}    (reflected-characteristic map)
    lambda = phi^{-1}          (front-crossing time of a characteristic)

A :class:`FrontCurve` is piecewise linear between knots, so all four maps
are piecewise affine and inverted exactly segment by segment.  The subsonic
condition 0 <= rho' < 1 is enforced at construction; it is what makes phi
strictly increasing and omega a contraction slope-wise.

The public maps check their arguments against the front's domain and
range and raise :class:`GeometryError` for the first value off.  The trace
path does not pay for those checks per call: ``prescribed.FieldPatch.
row_traces`` checks every trace point once, and the kernels it feeds
(``quadrature.phi_time_trace`` and the reflected branch of the free
layer) take omega, psi^{-1} and omega' of those points from the unchecked
internals ``_omega_unchecked`` and ``_psi_inverse_unchecked`` and from
:meth:`FrontCurve.omega_dot`, which is defined for every argument and so
checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Raised for inadmissible fronts or out-of-domain evaluations."""


_TOL = 1e-12


def _asarray(x):
    return np.asarray(x, dtype=float)


def _check_range(what: str, x: np.ndarray, where: str, lo: float, hi: float):
    """Raise GeometryError, naming the first value and the range, if a value
    of x is outside [lo, hi] by more than 1e-10."""
    off = (x < lo - 1e-10) | (x > hi + 1e-10)
    if off.any():
        k = np.flatnonzero(off)[0]
        raise GeometryError(f"{what} {x.flat[k]:.6g} is outside {where} [{lo:.6g}, {hi:.6g}]")


@dataclass(frozen=True)
class FrontCurve:
    """Piecewise-linear debonding front t -> rho(t) on [0, horizon].

    Knots must start at t = 0, be strictly increasing in t, keep
    rho nondecreasing with segment slopes in [0, 1), and stay below the
    outer radius R.
    """

    t_knots: np.ndarray
    rho_knots: np.ndarray
    R: float

    def __post_init__(self):
        t = _asarray(self.t_knots)
        rho = _asarray(self.rho_knots)
        object.__setattr__(self, "t_knots", t)
        object.__setattr__(self, "rho_knots", rho)
        if t.ndim != 1 or t.shape != rho.shape or t.size < 2:
            raise GeometryError("front needs at least two (t, rho) knots")
        if abs(t[0]) > _TOL:
            raise GeometryError("front must start at t = 0")
        dt = np.diff(t)
        if (dt <= 0).any():
            raise GeometryError("front knots must be strictly increasing in t")
        slopes = np.diff(rho) / dt
        if (slopes < -1e-12).any():
            raise GeometryError("front must be nondecreasing")
        if (slopes >= 1.0).any():
            raise GeometryError("front speed must stay below 1 (subsonic)")
        if (rho >= self.R).any():
            raise GeometryError("front must stay inside the outer radius R")
        if rho[0] <= 0:
            raise GeometryError("initial front width must be positive")
        object.__setattr__(self, "_slopes", np.maximum(slopes, 0.0))
        for arr in (t, rho, self._slopes):
            arr.flags.writeable = False

    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    @classmethod
    def constant(cls, rho0: float, horizon: float, R: float) -> "FrontCurve":
        return cls(np.array([0.0, horizon]), np.array([rho0, rho0]), R)

    @classmethod
    def affine(cls, rho0: float, speed: float, horizon: float, R: float) -> "FrontCurve":
        return cls(np.array([0.0, horizon]), np.array([rho0, rho0 + speed * horizon]), R)

    @property
    def rho0(self) -> float:
        return float(self.rho_knots[0])

    @property
    def horizon(self) -> float:
        return float(self.t_knots[-1])

    # -- basic maps -------------------------------------------------------

    def _check_t(self, t):
        t = _asarray(t)
        _check_range("time", t, "the front domain", 0.0, self.horizon)
        return np.minimum(np.maximum(t, 0.0), self.horizon)

    def rho(self, t):
        t = self._check_t(t)
        return np.interp(t, self.t_knots, self.rho_knots)

    def rho_dot(self, t):
        """Right-continuous segment slope (the front speed at t+)."""
        return self._slope(self._check_t(t))

    def _slope(self, t):
        """rho_dot without the check: a time past either end takes its end
        segment's slope."""
        idx = np.searchsorted(self.t_knots, t, side="right") - 1
        return self._slopes[np.minimum(np.maximum(idx, 0), len(self._slopes) - 1)]

    def phi(self, t):
        t = self._check_t(t)
        return t - np.interp(t, self.t_knots, self.rho_knots)

    def psi(self, t):
        t = self._check_t(t)
        return t + np.interp(t, self.t_knots, self.rho_knots)

    @property
    def phi_knots(self) -> np.ndarray:
        return self.t_knots - self.rho_knots

    @property
    def psi_knots(self) -> np.ndarray:
        return self.t_knots + self.rho_knots

    def psi_inverse(self, s):
        s = _asarray(s)
        pk = self.psi_knots
        _check_range("value", s, "the range of psi", pk[0], pk[-1])
        return self._psi_inverse_unchecked(s)

    def _psi_inverse_unchecked(self, s):
        return np.interp(s, self.psi_knots, self.t_knots)

    def lambda_of(self, s):
        """Inverse of phi: the time at which the front meets the
        characteristic t - r = s."""
        s = _asarray(s)
        fk = self.phi_knots
        _check_range("value", s, "the range of phi", fk[0], fk[-1])
        return np.interp(s, fk, self.t_knots)

    def omega(self, s):
        s = _asarray(s)
        pk = self.psi_knots
        _check_range("argument", s, "the domain of omega", 0.0, pk[-1])
        return self._omega_unchecked(s)

    def _omega_unchecked(self, s):
        s = _asarray(s)
        out = np.interp(s, self.psi_knots, self.phi_knots)
        return np.where(s < self.rho0, -self.rho0, out)

    def omega_dot(self, s):
        """Slope of omega; equals (1 - rho')/(1 + rho') past the first
        reflection and 0 on the flat branch.  Defined for every s, so it
        checks nothing: an argument past psi's range takes the slope of the
        front's last segment."""
        s = _asarray(s)
        pk = self.psi_knots
        rd = self._slope(np.interp(np.minimum(np.maximum(s, pk[0]), pk[-1]), pk, self.t_knots))
        return np.where(s < self.rho0, 0.0, (1.0 - rd) / (1.0 + rd))

    # -- windows ----------------------------------------------------------

    def window(self, t0: float, t1: float) -> "FrontCurve":
        """Restriction to [t0, t1], re-based to local time starting at 0."""
        if not (0.0 - 1e-12 <= t0 < t1 <= self.horizon + 1e-12):
            raise GeometryError(f"window [{t0:.6g}, {t1:.6g}] is not an interval of the "
                                f"front domain [0, {self.horizon:.6g}]")
        interior = (self.t_knots > t0 + 1e-14) & (self.t_knots < t1 - 1e-14)
        ts = np.concatenate(([t0], self.t_knots[interior], [t1]))
        rhos = np.interp(ts, self.t_knots, self.rho_knots)
        return FrontCurve(ts - t0, rhos, self.R)


# -- corner wavefronts ------------------------------------------------------

def corner_wavefronts(front, horizon: float):
    """Characteristic paths emitted by the two initial corners.

    A front that starts moving, or data whose derivatives do not vanish at
    the edges, radiates derivative jumps along the characteristics through
    (0, 0) and (0, rho0).  Each path alternates between inward and outward
    legs, bouncing at the rim and at the front; the reflection times come
    from the exact piecewise-affine maps.  Returns segments
    (t_start, t_end, kind, c) with r = c - t on '-' legs and r = t - c on
    '+' legs.
    """
    segs = []
    phi_T = float(front.phi(front.horizon))
    for mode, c in (("-", front.rho0), ("+", 0.0)):
        t0 = 0.0
        while t0 < horizon - 1e-12:
            if mode == "-":
                t1 = min(c, horizon)
                segs.append((t0, t1, "-", c))
                t0, mode = t1, "+"
                # after the rim bounce the outward leg keeps t - r = c
            else:
                if c >= phi_T - 1e-15:
                    segs.append((t0, horizon, "+", c))
                    break
                t_hit = float(front.lambda_of(c))
                t1 = min(t_hit, horizon)
                segs.append((t0, t1, "+", c))
                if t1 >= horizon:
                    break
                c = float(front.psi(t_hit))
                t0, mode = t1, "-"
    return segs


def jump_radii(segs, t, rho_t):
    """Radii in [0, rho_t) where a corner wavefront crosses each row, at the
    times ``t`` (1-D) with front widths ``rho_t``, from one pass over the
    wavefront segments ``segs`` (:func:`corner_wavefronts`) for all rows:
    row k's radii ascending, padded with rho_t[k] to the most any row has.
    Two wavefronts crossing at one radius give it twice.  A wavefront at the
    rim crosses at r = 0 (to 1e-12) on every row but t = 0, the rim corner."""
    t, rho_t = _asarray(t), _asarray(rho_t)
    X = np.empty((t.size, len(segs)))
    X[...] = rho_t[:, None]
    for w, (ta, tb, kind, c) in enumerate(segs):
        r = c - t if kind == "-" else t - c
        inside = np.where(t > 1e-12, r >= -1e-12, r > 1e-9) & (r < rho_t - 1e-9)
        hit = (ta - 1e-12 <= t) & (t <= tb + 1e-12) & inside
        X[hit, w] = r[hit]
    X.sort(axis=1)
    return X[:, :(X < rho_t[:, None]).sum(axis=1).max(initial=0)]
