import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debondsim.fields import (
    CompatibilityError, HData, Profile, ProblemData, Toughness,
    kappa_eval, kernel_prefactor, to_h_data, v_from_h,
)


# -- profiles ---------------------------------------------------------------

def test_profile_presets_evaluate():
    p = Profile.affine(1.0, -2.0)
    assert p(0.5) == pytest.approx(0.0)
    assert p.deriv(0.3) == pytest.approx(-2.0)
    assert p.cumint(2.0) == pytest.approx(1.0 * 2.0 - 0.5 * 2.0 * 4.0)


def test_poly_profile_derivative_and_integral():
    p = Profile.poly([1.0, 0.0, 3.0])  # 1 + 3 x^2
    xs = np.linspace(0, 1, 11)
    assert np.allclose(p(xs), 1 + 3 * xs ** 2)
    assert np.allclose(p.deriv(xs), 6 * xs)
    assert np.allclose(p.cumint(xs), xs + xs ** 3)


def test_sine_bump_vanishes_at_ends():
    p = Profile.sine_bump(0.7, 1.3)
    assert p(0.0) == pytest.approx(0.0, abs=1e-15)
    assert p(1.3) == pytest.approx(0.0, abs=1e-14)
    assert p.cumint(1.3) == pytest.approx(2 * 0.7 * 1.3 / np.pi)


def test_cached_cumint_matches_closed_form():
    p = Profile(lambda x: np.sin(3.0 * np.asarray(x)), domain=(0.0, 2.0))
    xs = np.linspace(0, 2, 1001)
    exact = (1 - np.cos(3 * xs)) / 3.0
    assert np.max(np.abs(p.cumint(xs) - exact)) <= 1e-13
    # a domain reaching below 0 integrates from 0, not from its lower end
    q = Profile(lambda x: np.exp(np.asarray(x)), domain=(-1.0, 1.5))
    xs = np.linspace(-1.0, 1.5, 1001)
    assert np.max(np.abs(q.cumint(xs) - np.expm1(xs))) <= 1e-13
    assert q.cumint(0.0) == 0.0


def test_cached_cumint_of_a_scalar_is_0d():
    p = Profile(lambda x: np.cos(np.asarray(x)), domain=(0.0, 1.0))
    out = p.cumint(0.7)
    assert out.shape == () and abs(float(out) - np.sin(0.7)) <= 1e-13


def test_cached_cumint_is_fourth_order_in_panels():
    p = Profile(lambda x: np.sin(3.0 * np.asarray(x)), domain=(0.0, 2.0))
    xs = np.linspace(0, 2, 1001)
    exact = (1 - np.cos(3 * xs)) / 3.0
    errs = np.array([np.max(np.abs(p._build_cached_cumint(panels=n)(xs) - exact))
                     for n in (8, 16, 32, 64)])
    ratios = errs[:-1] / errs[1:]
    assert np.all((ratios > 14.0) & (ratios < 18.0)), ratios


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 16))
def test_linear_cumint_matches_per_element_slopes(n, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 0.5
    y = rng.normal(size=n)
    s = rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200)
    # the interpolant's integral with each slope formed where it is used
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
    idx = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
    x0, y0 = x[idx], y[idx]
    slope = (y[idx + 1] - y0) / (x[idx + 1] - x0)
    ds = s - x0
    expect = cum[idx] + y0 * ds + 0.5 * slope * ds * ds
    p = Profile.from_samples(x, y)
    assert np.array_equal(p.cumint(s), expect)
    assert p.cumint(s[0]).shape == () and p.cumint(s[0]) == expect[0]


def test_linear_samples_exact_pl_integral():
    x = np.array([0.0, 0.5, 1.0, 2.0])
    y = np.array([1.0, 2.0, 0.0, 4.0])
    p = Profile.from_samples(x, y)
    assert p.cumint(0.25) == pytest.approx(0.25 * (1.0 + 1.5) / 2)
    assert p.cumint(1.0) == pytest.approx(0.75 + 0.5)
    assert p(0.75) == pytest.approx(1.0)


def test_repeated_shifts_match_direct_evaluation():
    # 40 seam re-bases of a rim load: each shifts by a window length and
    # decays by its weight factor
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, 24, 40) / 256
    decays = np.exp(-0.25 * lengths)
    p = Profile.sine(0.1, 2.0)
    for dt, f in zip(lengths, decays):
        p = p.shifted(dt, f)
    shift, factor = float(np.sum(lengths)), float(np.exp(-0.25 * np.sum(lengths)))
    xs = np.linspace(0.0, 0.4, 41)
    assert np.max(np.abs(p(xs) - factor * 0.1 * np.sin(2.0 * (xs + shift)))) <= 1e-15
    assert np.max(np.abs(p.deriv(xs) - factor * 0.2 * np.cos(2.0 * (xs + shift)))) <= 1e-15


def test_repeated_shifts_evaluate_the_original_once():
    calls = []

    def value(x):
        calls.append("value")
        return np.sin(x)

    def deriv(x):
        calls.append("deriv")
        return np.cos(x)
    p = Profile(value, deriv=deriv)
    for _ in range(40):
        p = p.shifted(1.0 / 64, 0.99)
    p(0.1)
    p.deriv(np.linspace(0.0, 1.0, 5))
    assert calls == ["value", "deriv"]


# -- problem data and the weighted transform --------------------------------

def make_data(R=2.0, rho0=1.0, alpha=0.0, amp=0.5):
    return ProblemData(R=R, rho0=rho0, alpha=alpha, horizon=1.0,
                       w=Profile.zero(), v0=Profile.sine_bump(amp, rho0),
                       v1=Profile.zero())


def test_compatibility_enforced():
    with pytest.raises(CompatibilityError):
        ProblemData(R=2.0, rho0=1.0, alpha=0.0, horizon=1.0,
                    w=Profile.zero(), v0=Profile.constant(1.0), v1=Profile.zero())


def _h_data(z=Profile.zero(), h0=Profile.zero()):
    return HData(R=2.0, rho0=1.0, alpha=0.0, z=z, h0=h0, h1=Profile.zero())


def _data(rho0=1.0, alpha=0.0, v0=Profile.zero()):
    return ProblemData(R=2.0, rho0=rho0, alpha=alpha, horizon=1.0, w=Profile.zero(), v0=v0,
                       v1=Profile.zero())


@pytest.mark.parametrize("call, message", [
    (lambda: _data(rho0=2.5), r"need 0 < rho0 < R"),
    (lambda: _data(alpha=-0.1), r"damping coefficient must be nonnegative"),
    (lambda: _data(v0=Profile.affine(0.0, 1.0)), r"v0 must vanish at the front"),
    (lambda: _h_data(z=Profile.constant(1.0)), r"h0\(0\) must equal z\(0\)"),
    (lambda: _h_data(h0=Profile.affine(0.0, 1.0)), r"h0 must vanish at the front"),
    (lambda: to_h_data(_data(v0=Profile.from_samples([0.0, 0.5, 1.0], [0.0, 0.2, 0.0]))),
     r"v0 and w must come with derivatives"),
    (lambda: Toughness(np.array([1.0, 1.5]), (Profile.constant(1.0),), R=3.0),
     r"need one piece per breakpoint"),
    (lambda: Toughness.from_pieces([(1.5, Profile.constant(1.0)), (1.0, Profile.constant(2.0))],
                                   R=3.0), r"strictly increasing"),
    (lambda: Toughness.from_pieces([(1.0, Profile.constant(1.0)), (3.0, Profile.constant(2.0))],
                                   R=3.0), r"stay below R"),
    (lambda: Profile(np.sin).deriv(0.5), r"this profile has no derivative"),
    (lambda: Profile(np.sin).cumint(0.5),
     r"cannot cache a cumulative integral on an unbounded domain"),
])
def test_inadmissible_data_raise_a_named_error(call, message):
    # every admissibility check of the data, the toughness and the profiles
    # is a ValueError (CompatibilityError for the corner conditions) that
    # names the invariant it guards
    with pytest.raises(ValueError, match=message):
        call()


def test_to_h_data_zero():
    hd = to_h_data(ProblemData(R=2.0, rho0=1.0, alpha=1.0, horizon=1.0,
                               w=Profile.zero(), v0=Profile.zero(), v1=Profile.zero()))
    rs = np.linspace(0, 1, 7)
    assert np.allclose(hd.z(rs), 0) and np.allclose(hd.h0(rs), 0) and np.allclose(hd.h1(rs), 0)


def test_h1_formula_weight_only():
    # alpha = 0: h1 = sqrt(R - r) v1
    data = ProblemData(R=2.0, rho0=1.5, alpha=0.0, horizon=1.0,
                       w=Profile.zero(), v0=Profile.sine_bump(0.1, 1.5),
                       v1=Profile.constant(3.0))
    hd = to_h_data(data)
    assert hd.h1(1.0) == pytest.approx(3.0)


def test_h1_formula_with_damping():
    # direct substitution: R=2, alpha=2, r=1, v0=1, v1=0 -> h1 = 1
    R, alpha, r = 2.0, 2.0, 1.0
    v0, v1 = 1.0, 0.0
    h1 = np.sqrt(R - r) * (v1 + 0.5 * alpha * v0)
    assert h1 == pytest.approx(1.0)
    # same formula through the container, with data made compatible
    data = ProblemData(R=R, rho0=1.5, alpha=alpha, horizon=1.0,
                       w=Profile.zero(), v0=Profile.sine_bump(1.0, 1.5),
                       v1=Profile.zero())
    hd = to_h_data(data)
    r = 0.4
    expect = np.sqrt(R - r) * 0.5 * alpha * float(data.v0(r))
    assert hd.h1(r) == pytest.approx(expect, rel=1e-14)


def test_h0_dot_against_finite_difference():
    data = make_data(alpha=0.7)
    hd = to_h_data(data)
    eps = 1e-6
    for r in [0.2, 0.5, 0.8]:
        fd = (float(hd.h0(r + eps)) - float(hd.h0(r - eps))) / (2 * eps)
        assert float(hd.h0.deriv(r)) == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_round_trip_h_to_v():
    data = make_data(alpha=1.3)
    hd = to_h_data(data)
    rng = np.random.default_rng(5)
    rs = rng.uniform(0.0, 1.0, 200)
    v, v_t, _ = v_from_h(hd.h0(rs), hd.h1(rs), hd.h0.deriv(rs), 0.0, rs,
                         R=data.R, alpha=data.alpha)
    assert np.allclose(v, data.v0(rs), atol=1e-12)
    assert np.allclose(v_t, data.v1(rs), atol=1e-12)


def test_v_from_h_weight_inversion():
    v, _, _ = v_from_h(5.0, 0.0, 0.0, 0.7, 1.0, R=2.0, alpha=0.0)
    assert v == pytest.approx(5.0)
    with pytest.raises(ValueError):
        v_from_h(1.0, 0.0, 0.0, 0.0, 2.0, R=2.0, alpha=0.0)


# -- kernels ----------------------------------------------------------------

def test_kernel_prefactor_monotone():
    ss = np.linspace(0.0, 2.9, 400)
    pf = kernel_prefactor(ss, R=3.0, alpha=1.0)
    assert np.all(np.diff(pf) > 0)


# -- toughness --------------------------------------------------------------

def test_constant_toughness():
    k = Toughness.constant(2.0, rho0=1.0, R=3.0)
    assert kappa_eval(k, 1.7) == pytest.approx(2.0)
    assert k.c1 == pytest.approx(2.0) and k.c2 == pytest.approx(2.0)


def test_two_piece_right_continuity():
    k = Toughness.from_pieces([(1.0, Profile.constant(1.0)),
                               (2.0, Profile.constant(3.0))], R=3.0)
    assert kappa_eval(k, 2.0) == pytest.approx(3.0)
    assert kappa_eval(k, 2.0 - 1e-12) == pytest.approx(1.0)


def test_kappa_bounds_hold():
    k = Toughness.from_pieces([(1.0, Profile.affine(1.0, 0.5)),
                               (1.8, Profile.constant(2.5))], R=3.0)
    rng = np.random.default_rng(2)
    rs = rng.uniform(1.0, 3.0 - 1e-6, 300)
    vals = kappa_eval(k, rs)
    assert np.all(vals >= k.c1 - 1e-12) and np.all(vals <= k.c2 + 1e-12)


def test_toughness_rejects_nonpositive():
    with pytest.raises(ValueError):
        Toughness.constant(0.0, rho0=1.0, R=3.0)


def test_kappa_domain_errors():
    k = Toughness.constant(1.0, rho0=1.0, R=3.0)
    with pytest.raises(ValueError):
        kappa_eval(k, 0.5)
    with pytest.raises(ValueError):
        kappa_eval(k, 3.0)
