"""Independent finite-difference reference solver on a fixed domain.

The shrinking interval 0 < r < rho(t) is frozen by the affine radial map
y = rho0 * r / rho(t), which turns the weighted wave equation into a
variable-coefficient hyperbolic equation on the fixed strip 0 < y < rho0:

    H_tt = B1 H_yy + b1 H_ty + a1 H_y + c1 H

with B1 = (rho0/rho)^2 - (y rho'/rho)^2 coercive exactly because the
front is subsonic.  Leapfrog time stepping with second-order centered
space stencils marches this equation, always at 0.9 of the stable time
step; the mixed derivative is time-centered and solved implicitly per
step (one tridiagonal system), since a one-sided cross term destabilizes
leapfrog on moving fronts.
The result is used only to cross-validate the representation-formula
solver, never as the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:
    from scipy.linalg import solve_banded
except ImportError as exc:  # scipy is an optional dependency
    raise ImportError("debondsim.oracle needs scipy; install it with "
                      "pip install 'debondsim[validation]'") from exc

from .fields import HData, kernel_prefactor
from .geometry import GeometryError


def fixed_map(front, t, r):
    """Map a point of the moving interval onto the fixed strip [0, rho0]."""
    r = np.asarray(r, dtype=float)
    rho_t = np.asarray(front.rho(t), dtype=float)
    if np.any(r < -1e-12) or np.any(r > rho_t + 1e-12):
        raise GeometryError("point beyond the front")
    return front.rho0 * r / rho_t


def coeffs(front, t: float, y, R: float, alpha: float):
    """Transformed coefficients (B1, b1, a1, c1) at time t and fixed-strip
    coordinates y (an array, or a float); front curvature vanishes between
    the knots of a piecewise-linear front.  Raises GeometryError for y
    outside [0, rho0] and for B1 <= 0, a front that is not subsonic."""
    rho = float(front.rho(t))
    rd = float(front.rho_dot(t))
    rho0 = front.rho0
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0.0) & (y <= rho0 + 1e-12)):
        raise GeometryError("fixed-strip coordinate outside [0, rho0]")
    m = rho0 / rho
    c = -(rd / rho) * y
    B1 = m * m - c * c
    if np.min(B1) <= 0:
        raise GeometryError("lost coercivity: the front is not admissible")
    r_phys = np.minimum(rho * y / rho0, R - 1e-12)
    return B1, -2.0 * c, -2.0 * y * (rd / rho) ** 2, kernel_prefactor(r_phys, R, alpha)


@dataclass
class OracleSolution:
    """Leapfrog history on the fixed strip, with mapping back helpers."""

    times: np.ndarray
    y: np.ndarray
    H: np.ndarray  # shape (n_steps + 1, n_y + 1)
    front: object
    R: float
    alpha: float

    def h_at(self, t: float, r: float) -> float:
        """Mapped-back weighted field at a physical point (bilinear)."""
        y = float(fixed_map(self.front, t, r))
        dt = self.times[1] - self.times[0]
        n = min(max(int(math.floor(t / dt + 1e-12)), 0), len(self.times) - 2)
        ft = t / dt - n
        dy = self.y[1] - self.y[0]
        j = min(max(int(math.floor(y / dy + 1e-12)), 0), len(self.y) - 2)
        fy = y / dy - j
        row0 = (1 - fy) * self.H[n, j] + fy * self.H[n, j + 1]
        row1 = (1 - fy) * self.H[n + 1, j] + fy * self.H[n + 1, j + 1]
        return float((1 - ft) * row0 + ft * row1)


def solve_reference(hd: HData, front, horizon: float, dy: float) -> OracleSolution:
    """March the transformed equation with an explicit scheme.

    The time step is always 0.9 of the stable bound dy / (max rho' +
    max rho0/rho), shortened to divide the horizon.  Dirichlet rows come
    from the rim value and the bonded front; the first step is seeded from
    the transformed initial velocity and the equation's own initial
    acceleration.  Raises GeometryError where :func:`coeffs` loses
    coercivity.  ``hd`` is the weighted data,
    :func:`~debondsim.fields.to_h_data` of the problem data.
    """
    rho0, R, alpha = hd.rho0, hd.R, hd.alpha
    if horizon > front.horizon + 1e-12:
        raise GeometryError("horizon exceeds the front domain")

    n_y = int(round(rho0 / dy))
    if abs(n_y * dy - rho0) > 1e-9 * rho0:
        n_y = max(2, int(math.ceil(rho0 / dy)))
    y = np.linspace(0.0, rho0, n_y + 1)
    dy = y[1] - y[0]

    # characteristic speeds of the transformed operator: |c| + rho0/rho
    probe = np.linspace(0.0, horizon, 257)
    rd_max = float(np.max(front.rho_dot(probe)))
    m_max = float(np.max(rho0 / front.rho(probe)))
    speed = rd_max + m_max
    dt = 0.9 * dy / speed
    n_steps = max(1, int(math.ceil(horizon / dt - 1e-12)))
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)

    def dyy(u):
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / dy ** 2
        return out

    def dy1(u):
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - u[:-2]) / (2 * dy)
        return out

    H = np.zeros((n_steps + 1, n_y + 1))
    H[0] = hd.h0(y)
    H[0, 0] = float(hd.z(0.0))
    H[0, -1] = 0.0

    rd0 = float(front.rho_dot(0.0))
    V = hd.h1(y) + (rd0 / rho0) * y * np.asarray(hd.h0.deriv(y), dtype=float)
    B1, b1, a1, c1 = coeffs(front, 0.0, y, R, alpha)
    acc = B1 * dyy(H[0]) + b1 * dy1(V) + a1 * dy1(H[0]) + c1 * H[0]
    H[1] = H[0] + dt * V + 0.5 * dt * dt * acc
    H[1, 0] = float(hd.z(times[1]))
    H[1, -1] = 0.0

    moving = rd_max > 1e-14
    for n in range(1, n_steps):
        B1, b1, a1, c1 = coeffs(front, times[n], y, R, alpha)
        rhs = (2 * H[n] - H[n - 1]
               + dt * dt * (B1 * dyy(H[n]) + a1 * dy1(H[n]) + c1 * H[n]))
        if moving:
            # time-centered cross term: dt/2 * b1 * D_y(H^{n+1} - H^{n-1})
            gamma = dt * b1 / (4.0 * dy)
            rhs[1:-1] -= gamma[1:-1] * (H[n - 1, 2:] - H[n - 1, :-2])
            ab = np.zeros((3, n_y + 1))
            ab[1, :] = 1.0
            ab[0, 2:] = -gamma[1:-1]   # superdiagonal for rows 1..N-1
            ab[2, :-2] = gamma[1:-1]   # subdiagonal for rows 1..N-1
            rhs[0] = float(hd.z(times[n + 1]))
            rhs[-1] = 0.0
            H[n + 1] = solve_banded((1, 1), ab, rhs)
        else:
            H[n + 1] = rhs
        H[n + 1, 0] = float(hd.z(times[n + 1]))
        H[n + 1, -1] = 0.0

    return OracleSolution(times=times, y=y, H=H, front=front, R=R, alpha=alpha)
