"""Second order at the probe points of the refinement table, as tier-1
gates: the coarse end of ``tests/order_table.py``.

Each benchmark workload (``perfbench/workloads.py``, seed 0) runs a coupled
``griffith.run`` at delta = 1/64, 1/128 and 1/256, with no audit.  At each
probe (t, r) of the table, h and v_t (``prescribed.evaluate_field``) give
two self-differences, the value at 1/128 less that at 1/64 and the value at
1/256 less that at 1/128; their ratio is 4 for second order.  A gate asks
for at least 3.5.  The probes that a characteristic reaches after
reflecting off the moving front do not converge at second order yet
(ROADMAP Blocking 2); they are strict xfails, so a fix shows as a pass to
promote.  rim_debond's h at (0.625, 0.875) is left out: its
self-differences change sign, so its ratios (11.7, 0.41, 14.2 down to
delta = 1/1024) show no order to gate.
"""

from pathlib import Path

import pytest

from debondsim import griffith, prescribed
from order_table import DELTAS, PROBES

ORDER = 3.5
BLOCKING_2 = pytest.mark.xfail(strict=True, reason="ROADMAP Blocking 2")
# (workload, probe, field) with no order to gate
LEFT_OUT = {("rim_debond", (0.625, 0.875), "h")}
# the moving fronts' probes past a reflected characteristic
XFAIL = {("front_kkt", (0.125, 0.9375), "v_t"), ("rim_debond", (0.125, 0.9375), "v_t"),
         ("front_kkt", (0.625, 0.875), "v_t"), ("rim_debond", (0.625, 0.875), "v_t"),
         ("front_kkt", (0.625, 0.875), "h")}


def _cases():
    for name in ("front_kkt", "static_load", "rim_debond"):
        for probe in PROBES:
            for q in ("h", "v_t"):
                if (name, probe, q) in LEFT_OUT:
                    continue
                marks = [BLOCKING_2] if (name, probe, q) in XFAIL else []
                yield pytest.param(name, probe, q, marks=marks, id=f"{name}-{q}{probe}")


@pytest.fixture(scope="module")
def samples():
    """{workload: [the run's patches at each delta]}, each run once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench import workloads
    out = {}
    for name in workloads.NAMES:
        bench_delta = workloads.build(name, 0).delta
        out[name] = []
        for delta in DELTAS[:3]:
            wl = workloads.build(name, 0, delta / bench_delta)
            out[name].append(griffith.run(wl.data, wl.tough, wl.horizon, wl.delta).patches)
    return out


@pytest.mark.parametrize("name, probe, q", list(_cases()))
def test_probe_converges_at_second_order(samples, name, probe, q):
    vals = [getattr(prescribed.evaluate_field(patches, *probe), q) for patches in samples[name]]
    coarse, fine = vals[1] - vals[0], vals[2] - vals[1]
    assert abs(coarse) >= ORDER * abs(fine), (vals, abs(coarse) / abs(fine))
