"""Host-speed reference for the debondsim benchmark.

On a shared host the speed of one CPU moves with the load of its
neighbours, by up to 1.8x for a few seconds at a time, and the medians of
whole runs moved by up to 1.6x between sets of runs.  ``reference()`` is a
fixed piece of work in the style of the program's hot loops: small-array
numpy calls from Python loops, and sweeps over a lattice of a few MB, whose
speed also depends on the shared cache.  The benchmark runs it after every
measured operation, for a share of that operation's CPU time, and scales
the run's median times by ``REFERENCE_S / (mean reference time)``: the
result is the time on a host that runs the reference in ``REFERENCE_S``
seconds.  Over ten 34 s runs on a 2-vCPU x86_64 host, this cut the spread
(IQR / median) of rim_debond's total_s from 14% to 6%; on front_kkt and
static_load, run while the host was steady, it stayed at 7-9%.  The
reference never changes with the program, so a change to the program moves
the scaled time by the same factor as the raw one.
"""

from __future__ import annotations

import statistics
from time import process_time

import numpy as np

# CPU seconds of reference() on a calm 2-vCPU x86_64 host, Python 3.11 and
# numpy 2.4; only a unit, it is the same for every run and every commit
REFERENCE_S = 0.14
# reference time spent after each measurement, as a share of its CPU time
REFERENCE_SHARE = 0.4


def _small_arrays(V: np.ndarray, x: np.ndarray, iters: int) -> float:
    """Python loops over small-array numpy calls and scalar arithmetic."""
    acc = 0.0
    n = V.shape[0]
    for k in range(iters):
        m = k % (n - 1) + 2
        ii = np.arange(m)
        a = V[ii, m - 1 - ii]
        c = np.cumsum(0.5 * (a[:-1] + a[1:]))
        acc += float(c[-1]) * 1e-3
        for q in range(12):
            acc += (q * k % 7) * 1e-9
        if k % 40 == 0:
            acc += float(np.sum(np.sin(x) * np.exp(-x))) * 1e-6
    return acc


def _large_lattice(lat: dict, reps: int) -> float:
    """Anti-diagonal gathers and cumulative sums over a lattice of a few MB,
    and scalar reads at scattered nodes, as in the cone sums and the
    lattice sampling.  Works in the buffers of ``lat``: it frees no large
    array, so it leaves the allocator as it found it."""
    V0, V, C = lat["V0"], lat["V"], lat["C"]
    nt, nj = V0.shape
    acc = 0.0
    for r in range(reps):
        np.multiply(V0, 1.0 + r * 1e-3, out=V)
        np.cumsum(V, axis=1, out=C)
        for m in range(r % 2, nt + nj - 1, 2):
            ii = np.arange(max(0, m - nj + 1), min(nt - 1, m) + 1)
            jj = m - ii
            acc += float(np.cumsum(C[ii, jj] + 0.25 * V[ii, jj])[-1]) * 1e-9
        for i, j in lat["ij"]:
            acc += V[i, j] * C[i, j] * 1e-12
    return acc


_inputs = {}


def reference() -> float:
    """The fixed reference work: about a third small-array calls, two
    thirds large-lattice sweeps.  Its inputs (8 MB) are made on the first
    call and kept."""
    if not _inputs:
        rng = np.random.default_rng(12345)
        _inputs.update(small=rng.random((96, 96)), x=rng.random(4096),
                       V0=rng.random((288, 1152)), V=np.empty((288, 1152)),
                       C=np.empty((288, 1152)),
                       ij=list(zip(rng.integers(0, 288, 6000).tolist(),
                                   rng.integers(0, 1152, 6000).tolist())))
    return (_small_arrays(_inputs["small"], _inputs["x"], 4000)
            + _large_lattice(_inputs, 4))


def reference_for(seconds: float) -> list:
    """CPU seconds of each of the calls of ``reference()`` made until they
    add up to ``seconds``; at least one call."""
    out = []
    while True:
        t0 = process_time()
        reference()
        out.append(process_time() - t0)
        if sum(out) >= seconds:
            return out


def scale(ref_times) -> float:
    """Factor from CPU seconds on this host to seconds on the nominal host,
    from the reference times taken during one run."""
    return REFERENCE_S / statistics.fmean(ref_times)
