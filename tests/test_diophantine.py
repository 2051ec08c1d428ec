import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kamtorus import diophantine as dio
from kamtorus.errors import (ConstantsInconsistencyError, KamError,
                             ParameterError, ParseError, ResonanceError)
from conftest import GOLDEN


def _freq(at, tau=0.0):
    at = np.atleast_1d(np.asarray(at, dtype=float))
    return dio.FrequencyVector(n=len(at) + 1, alpha_tilde=at, tau=tau,
                               gamma=0.5, gamma_bar=0.5)


def _brute_smallest_q(at, Q, qmax):
    # exact: ||q a/d||_Z <= dn/dd  <=>  min(r, d - r)*dd <= dn*d, r = q a mod d
    delta = 1 / Fraction(float(Q))
    fracs = [Fraction(float(x)) for x in np.atleast_1d(at)]
    for q in range(1, qmax + 1):
        if all(min(r, x.denominator - r) * delta.denominator
               <= delta.numerator * x.denominator
               for x in fracs
               for r in [q * x.numerator % x.denominator]):
            return q
    return None


# ---------------------------------------------------------------------------
# dirichlet_approx
# ---------------------------------------------------------------------------

def test_golden_mean_fibonacci_denominators(golden_freq):
    for Q, q_expect in ((5, 3), (10, 5), (20, 13), (40, 21), (512, 233)):
        assert dio.dirichlet_approx(golden_freq, Q).q == q_expect


def test_exact_rational_input():
    a = dio.dirichlet_approx(_freq([0.5]), 10)
    assert a.q == 2 and a.p[0] == 1
    assert np.all(a.varpi == 0.0)


def test_dirichlet_bounds_always_hold(golden_freq):
    for Q in (2, 7, 100, 1000):
        a = dio.dirichlet_approx(golden_freq, Q)
        assert 1 <= a.q <= Q
        assert abs(a.q * GOLDEN - a.p[0]) <= 1.0 / Q + 1e-15


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(2, 60))
def test_n2_matches_brute_force(seed, Q):
    at = np.random.default_rng(seed).uniform(-1, 1, size=1)
    got = dio.dirichlet_approx(_freq(at), Q).q
    assert got == _brute_smallest_q(at, Q, Q)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 6), st.integers(2, 25))
def test_n3_matches_brute_force(seed, Q):
    at = np.random.default_rng(seed).uniform(-1, 1, size=2)
    got = dio.dirichlet_approx(_freq(at, tau=0.1), Q).q
    assert got == _brute_smallest_q(at, Q, Q * Q)


_ENTRIES = st.one_of(st.floats(-1, 1),
                    st.sampled_from([0.5, 0.0, 1.0, -1.0, 0.25, -0.5]))


@settings(deadline=None, max_examples=60)
@example([0.25, 0.5], 0.5, False)
@example([0.25], 0.125, True)         # ||1 * 0.25|| = 1/Q at Q = 4
@example([0.0, 0.0, 0.0], 1.0, False)
@example([1.0], 1.0, True)
@example([-1.0, 0.5], 0.7, False)
@given(st.lists(_ENTRIES, min_size=1, max_size=3), st.floats(0, 1),
       st.booleans())
def test_dirichlet_matches_exact_brute_force(at, t, whole):
    # n = 2, 3, 4 with Q^(n-1) = qmax <= 1e5, exact rationals included;
    # a whole Q puts rational inputs on the boundary ||q x|| = 1/Q
    n = len(at) + 1
    Q = 10.0 ** (5 * t / (n - 1))
    if whole:
        Q = float(math.floor(Q))
    qmax = math.floor(Fraction(Q) ** (n - 1))
    got = dio.dirichlet_approx(_freq(at, tau=0.1), Q).q
    assert got == _brute_smallest_q(at, Q, qmax)


def test_large_Q_n3_is_feasible(plastic_freq):
    a = dio.dirichlet_approx(plastic_freq, 1e7)
    assert a.q == 14147040199919
    assert float(np.abs(a.varpi).max()) <= 1e-7 / a.q * (1 + 1e-9)
    cube = _freq([2 ** (1 / 3) - 1, 2 ** (2 / 3) - 1], tau=0.1)
    assert dio.dirichlet_approx(cube, 1e7).q == 7054562917496
    quartic = _freq([2 ** (1 / 4) - 1, 2 ** (1 / 2) - 1, 2 ** (3 / 4) - 1],
                    tau=0.1)
    a = dio.dirichlet_approx(quartic, 1e4)
    assert 1 <= a.q <= 10 ** 12
    dio._verify_dirichlet(quartic, a, 1e4)


def test_rounding_ties_to_even():
    # q=1 qualifies at Q=2 (||0.5|| = 0.5 <= 1/2) and the tie 0.5 rounds
    # to the even integer 0
    a = dio.dirichlet_approx(_freq([0.5]), 2)
    assert a.q == 1
    assert a.p[0] == 0


def test_Q_validation(golden_freq):
    with pytest.raises(ParameterError):
        dio.dirichlet_approx(golden_freq, 0.5)


def test_approx_fields(golden_freq):
    a = dio.dirichlet_approx(golden_freq, 10)
    np.testing.assert_allclose(a.omega, [1.0, 3.0 / 5.0])
    np.testing.assert_array_equal(a.q_omega(), [5, 3])
    np.testing.assert_allclose(a.varpi, [0.0, GOLDEN - 3.0 / 5.0],
                               atol=1e-16)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

def test_psi_golden(golden_freq):
    v, k = dio.psi_argmax(golden_freq, 10)
    # smallest |k.alpha| over the box is attained on a Fibonacci pair
    assert abs(v - 1.0 / abs(-5 + 8 * GOLDEN)) < 1e-9
    assert abs(k[0] * 1.0 + k[1] * GOLDEN) == pytest.approx(1.0 / v)


def test_psi_resonant_raises():
    with pytest.raises(ResonanceError) as exc:
        dio.psi(_freq([0.5]), 5)
    assert exc.value.witness is not None


def test_psi_monotone_in_Q(golden_freq):
    vals = [dio.psi(golden_freq, Q) for Q in (2, 5, 10, 20)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# constants estimation and bounds
# ---------------------------------------------------------------------------

def test_estimate_constants_golden_value():
    with pytest.warns(UserWarning):
        gamma, gamma_bar = dio.estimate_constants(np.array([GOLDEN]), 0.0,
                                                  4096, 4096)
    # the golden mean minimizes ||k x|| |k| at the first Fibonacci pairs;
    # the infimum is (3 - sqrt(5))/2 = 0.381966...
    target = (3.0 - math.sqrt(5.0)) / 2.0
    assert gamma == pytest.approx(target, rel=1e-3)
    assert gamma_bar == pytest.approx(target, rel=1e-3)


def test_estimate_constants_resonant():
    with pytest.raises(ResonanceError):
        dio.estimate_constants(np.array([0.5]), 0.0, 10, 10)


def test_estimate_constants_gamma_capped():
    # a frequency with large partial quotients still reports gamma <= 1
    with pytest.warns(UserWarning):
        gamma, _ = dio.estimate_constants(np.array([1 / math.pi]), 1.0,
                                          64, 64)
    assert gamma <= 1.0


def test_resonance_bound_formula(golden_freq):
    rb = dio.resonance_bound(golden_freq, 20.0)
    assert rb.a == 1.0
    expect = (golden_freq.gamma * golden_freq.gamma_bar / 2.0) ** 0.5
    assert rb.gamma_star == pytest.approx(expect, rel=1e-12)
    assert rb.cutoff == pytest.approx(rb.gamma_star * 20.0, rel=1e-12)


def test_lower_denominator_bound(golden_freq):
    a = dio.dirichlet_approx(golden_freq, 512)
    bound = dio.lower_denominator_bound(golden_freq, a)
    assert a.q >= bound


def test_lower_denominator_bound_inconsistency(golden_freq):
    bad = dio.FrequencyVector(2, golden_freq.alpha_tilde, 0.0, 1.0, 1.0)
    a = dio.dirichlet_approx(bad, 512)
    with pytest.raises(ConstantsInconsistencyError):
        dio.lower_denominator_bound(bad, a)


def test_enumerate_resonant_identity(golden_freq):
    a = dio.dirichlet_approx(golden_freq, 40)
    ks = dio.enumerate_resonant(a, 200)
    assert len(ks) > 0
    for k in ks:
        assert a.q * k[0] + a.p[0] * k[1] == 0
        assert np.abs(k).max() <= 200


def test_enumerate_resonant_n3(plastic_freq):
    a = dio.dirichlet_approx(plastic_freq, 5)
    ks = dio.enumerate_resonant(a, 30)
    qom = a.q_omega()
    for k in ks:
        assert int(k @ qom) == 0


# ---------------------------------------------------------------------------
# frequency file format
# ---------------------------------------------------------------------------

def test_frequency_roundtrip(golden_freq):
    text = dio.serialize_frequency(golden_freq)
    back = dio.deserialize_frequency(text)
    assert back.n == golden_freq.n
    assert back.tau == golden_freq.tau
    assert back.gamma == golden_freq.gamma
    assert back.gamma_bar == golden_freq.gamma_bar
    np.testing.assert_array_equal(back.alpha_tilde,
                                  golden_freq.alpha_tilde)


def test_frequency_bad_header():
    with pytest.raises(ParseError):
        dio.deserialize_frequency("freq v2 n=2 tau=0 gamma=1 gammabar=1\n0.5")


def test_frequency_wrong_entry_count():
    with pytest.raises(ParseError):
        dio.deserialize_frequency(
            "freq v1 n=3 tau=0 gamma=0.5 gammabar=0.5\n0.5\n")


def test_frequency_validation():
    with pytest.raises(ParameterError):
        dio.FrequencyVector(2, np.array([2.0]), 0.0, 0.5, 0.5)
    with pytest.raises(ParameterError):
        dio.FrequencyVector(2, np.array([0.5]), -1.0, 0.5, 0.5)
    with pytest.raises(ParameterError):
        dio.FrequencyVector(2, np.array([0.5]), 0.0, 2.0, 0.5)
    for at, tau, gamma_bar in (([math.nan], 0.0, 0.5), ([0.5], math.nan, 0.5),
                               ([0.5], math.inf, 0.5), ([0.5], 0.0, math.inf)):
        with pytest.raises(ParameterError):
            dio.FrequencyVector(2, np.array(at), tau, 0.5, gamma_bar)


# ---------------------------------------------------------------------------
# bounded allocations and the approximation cache
# ---------------------------------------------------------------------------

def test_lattice_enumerations_above_budget_raise(golden_freq, plastic_freq):
    # each request would need far more than _GRID_CELL_BUDGET points; the
    # raise comes before any of them is allocated
    with pytest.raises(ParameterError, match="budget"):
        dio.psi_argmax(golden_freq, 1e5)
    with pytest.raises(ParameterError, match="budget"):
        dio.psi(plastic_freq, 60)
    with pytest.raises(ParameterError, match="budget"):
        dio.estimate_constants(plastic_freq.alpha_tilde, 0.1, 10 ** 4, 10)
    a = dio.dirichlet_approx(plastic_freq, 5)
    with pytest.raises(ParameterError, match="budget"):
        dio.enumerate_resonant(a, 10 ** 4)
    for Q in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            dio.psi(golden_freq, Q)
        with pytest.raises(ParameterError):
            dio.dirichlet_approx(golden_freq, Q)


def test_enumerate_resonant_n2_budget(golden_freq):
    # n = 2 enumerates 2*box + 1 cells of k_1 under the same budget
    a = dio.dirichlet_approx(golden_freq, 5)
    with pytest.raises(ParameterError, match="budget"):
        dio.enumerate_resonant(a, 1 << 19)      # 2^20 + 1 cells
    with pytest.raises(ParameterError, match="budget"):
        dio.enumerate_resonant(a, 10 ** 6)


def test_approx_cache_is_bounded_lru(golden_freq, monkeypatch):
    from collections import OrderedDict
    monkeypatch.setattr(dio, "_approx_cache", OrderedDict())
    monkeypatch.setattr(dio, "_APPROX_CACHE_SIZE", 3)
    first = dio.dirichlet_approx(golden_freq, 10.0)
    for Q in (11.0, 12.0):
        dio.dirichlet_approx(golden_freq, Q)
    assert dio.dirichlet_approx(golden_freq, 10.0) is first   # now newest
    dio.dirichlet_approx(golden_freq, 13.0)                    # evicts 11
    assert [key[1] for key in dio._approx_cache] == [12.0, 10.0, 13.0]


_FREQ_TOKENS = st.sampled_from(["2", "3", "0", "-1", "0.5", "-0.5", "nan",
                                "inf", "1e999", "x", "="])


@st.composite
def _frequency_texts(draw):
    head = draw(st.sampled_from(["freq v1", "freq v2", "f v1"]))
    head += " " + " ".join(
        f"{key}={draw(_FREQ_TOKENS)}" for key in
        draw(st.permutations(["n", "tau", "gamma", "gammabar"])))
    lines = draw(st.lists(_FREQ_TOKENS, max_size=3))
    return "\n".join([head] + lines)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(), _frequency_texts()))
def test_deserialize_frequency_fuzz_raises_only_kam_errors(text):
    try:
        dio.deserialize_frequency(text)
    except KamError:
        pass
