"""Workload inputs of the debondsim benchmark.

Seed 0 gives the nominal inputs; any other seed scales the bump amplitude
and the toughness by independent factors within +-PERTURBATION.  The
accuracy figures are jumpy in these inputs: at +-1e-3, rim_debond's KKT
residual flips between 9.2 and 11.3 and front_kkt's EDP residual moves by
+-10%, so the perturbation is kept ten times smaller.  Every workload keeps
its expected stop reason.  The seed also scrambles the probe points of the
oracle check, from a separate stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from debondsim.fields import HData, ProblemData, Profile, Toughness, to_h_data

PERTURBATION = 1e-4
ORACLE_PROBES = 8192  # a power of two keeps the Sobol set balanced

NAMES = ("front_kkt", "static_load", "rim_debond")


@dataclass(frozen=True)
class Workload:
    name: str
    data: ProblemData
    hdata: HData
    tough: Toughness
    horizon: float
    delta: float
    expected_stop: str


def _factors(seed: int):
    if seed == 0:
        return 1.0, 1.0
    u = np.random.default_rng([seed, 0]).uniform(-1.0, 1.0, size=2)
    return 1.0 + PERTURBATION * u[0], 1.0 + PERTURBATION * u[1]


def build(name: str, seed: int, delta_scale: float = 1.0) -> Workload:
    """The workload's problem data and toughness; ``delta_scale`` coarsens
    the lattice step (the traced growth run and the self-test use it)."""
    amp, kap = _factors(seed)
    if name == "front_kkt":
        # moving front under friction: the case of the KKT/MDP claims
        data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=0.75,
                           w=Profile.zero(), v0=Profile.sine_bump(0.4 * amp, 1.0),
                           v1=Profile.zero())
        tough = Toughness.constant(0.15 * kap, rho0=1.0, R=3.0)
        horizon, delta, stop = 0.75, 1.0 / 256, "horizon"
    elif name == "static_load":
        # static front under a rim load: rim power and external work
        data = ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=0.75,
                           w=Profile.sine(0.1, 2.0), v0=Profile.sine_bump(0.3 * amp, 1.0),
                           v1=Profile.zero())
        tough = Toughness.constant(1e6 * kap, rho0=1.0, R=3.0)
        horizon, delta, stop = 0.75, 1.0 / 256, "horizon"
    elif name == "rim_debond":
        # front runs to the rim across a toughness breakpoint, no friction
        data = ProblemData(R=2.0, rho0=1.0, alpha=0.0, horizon=4.0,
                           w=Profile.zero(), v0=Profile.sine_bump(0.9 * amp, 1.0),
                           v1=Profile.constant(-0.8))
        tough = Toughness.from_pieces([(1.0, Profile.constant(0.02 * kap)),
                                       (1.3, Profile.constant(0.05 * kap))], R=2.0)
        horizon, delta, stop = 4.0, 1.0 / 128, "fully_debonded"
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, data, to_h_data(data), tough, horizon,
                    delta * delta_scale, stop)


def probe_points(seed: int, front, t_end: float, n: int = ORACLE_PROBES):
    """Seeded (t, r) points filling the solved region evenly, for the oracle
    check: a scrambled Sobol set in (t, r / rho(t))."""
    from scipy.stats import qmc  # only the check needs it, not the set-up

    u = qmc.Sobol(2, scramble=True, seed=np.random.default_rng([seed, 1])).random(n)
    t = u[:, 0] * t_end
    return t, u[:, 1] * np.asarray(front.rho(t), dtype=float)
