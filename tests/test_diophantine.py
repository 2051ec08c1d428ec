import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kamtorus import diophantine as dio
from kamtorus import scheduler as sch
from kamtorus.errors import (ConstantsInconsistencyError, KamError,
                             ParameterError, ParseError, ResonanceError)
import reference as ref
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


# Reference search in Fractions: LLL on Gram-Schmidt data (Lovasz 3/4)
# and the coefficient box from a Gauss-Jordan inverse of the reduced
# basis.  The integer search must give the same bases, boxes and q.

def _ref_gram_schmidt(b):
    """mu and the squared Gram-Schmidt norms B of the rows b."""
    n = len(b)
    mu = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    B = []
    for k in range(n):
        for j in range(k):
            mu[k][j] = (dio._dot(b[k], b[j]) - sum(
                mu[j][i] * mu[k][i] * B[i] for i in range(j))) / B[j]
        B.append(Fraction(dio._dot(b[k], b[k]))
                 - sum(mu[k][j] ** 2 * B[j] for j in range(k)))
    return mu, B


def _ref_lll(basis):
    b = [list(row) for row in basis]
    n = len(b)
    mu = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    B = [Fraction(0)] * n
    k = 0
    while k < n:
        for j in range(k):
            mu[k][j] = (dio._dot(b[k], b[j]) - sum(
                mu[j][i] * mu[k][i] * B[i] for i in range(j))) / B[j]
        B[k] = Fraction(dio._dot(b[k], b[k])) - sum(
            mu[k][j] ** 2 * B[j] for j in range(k))
        for l in range(k - 1, -1, -1):
            r = round(mu[k][l])
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[l])]
                for i in range(l + 1):
                    mu[k][i] -= r * mu[l][i]
        if k and B[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]:
            b[k - 1], b[k] = b[k], b[k - 1]
            k -= 1
        else:
            k += 1
    return b


def _ref_inverse(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _ref_bounds(basis, half):
    inv = _ref_inverse(basis)
    return [math.floor(half * sum(abs(row[j]) for row in inv))
            for j in range(len(basis))]


def _ref_smallest_q(at, Q):
    """q of the Fraction search, or "budget" where its box is too large."""
    fracs = [Fraction(float(x)) for x in at]
    delta = 1 / Fraction(float(Q))
    qmax = math.floor(Fraction(float(Q)) ** len(fracs))
    D = math.lcm(*(x.denominator for x in fracs))
    dn, dd = delta.numerator, delta.denominator
    m = len(fracs)
    lead = dn * D
    basis = [[lead] + [x.numerator * (D // x.denominator) * dd for x in fracs]]
    basis += [[0] * (i + 1) + [-D * dd] + [0] * (m - 1 - i) for i in range(m)]
    c = 1
    while True:
        basis = _ref_lll(basis)
        half = lead * c
        bounds = _ref_bounds(basis, half)
        if math.prod(2 * b + 1 for b in bounds) > dio._GRID_CELL_BUDGET:
            return "budget"
        cols = list(zip(*basis))
        best = None
        for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
            v0 = dio._dot(x, cols[0])
            if 0 < v0 <= half and (best is None or v0 < best) and all(
                    abs(dio._dot(x, col)) <= half for col in cols[1:]):
                best = v0
        if best is not None or c >= qmax:
            return None if best is None else best // lead
        c, last = min(2 * c, qmax), c
        basis = [[row[0]] + [y // last * c for y in row[1:]] for row in basis]


# ---------------------------------------------------------------------------
# dirichlet_approx
# ---------------------------------------------------------------------------

def test_golden_mean_fibonacci_denominators(golden_freq):
    for Q, q_expect in ((5, 3), (10, 5), (20, 13), (40, 21), (512, 233)):
        assert dio.dirichlet_approx(golden_freq, Q).q == q_expect


def test_exact_rational_input():
    a = dio.dirichlet_approx(_freq([0.5]), 10)
    assert a.q == 2 and a.p == (1,)
    assert a.varpi == (0.0, 0.0)


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
    dio._verify_dirichlet(dio._as_fracs(quartic.alpha_tilde), a,
                          1 / Fraction(1e4), 10 ** 12)


# q of the current search, pinned: plastic and the cube-root pair
# (2^(1/3) - 1, 2^(2/3) - 1) at Q = 10^(3 + i/2), i = 0..8, and golden
# at Q = 1e6, 1e9, 1e12, 1e15.  The last golden q is 2^49: the input
# float is read as an exact dyadic rational.
_PLASTIC_Q = [396655, 2839729, 35676949, 448227521, 2422362079,
              22973462017, 260616205365, 845137693522, 14147040199919]
_CUBE_Q = [149203, 4991004, 32689761, 125768040, 2345474521, 34717449655,
           80804169795, 80804169795, 7054562917496]
_GOLDEN_Q = {1e6: 514229, 1e9: 755427254, 1e12: 639311569775,
             1e15: 562949953421312}


def test_pinned_denominators(golden_freq, plastic_freq):
    cube = _freq([2 ** (1 / 3) - 1, 2 ** (2 / 3) - 1], tau=0.1)
    for i, (qp, qc) in enumerate(zip(_PLASTIC_Q, _CUBE_Q)):
        Q = 10 ** (3 + i / 2)
        assert dio.dirichlet_approx(plastic_freq, Q).q == qp
        assert dio.dirichlet_approx(cube, Q).q == qc
    for Q, q in _GOLDEN_Q.items():
        assert dio.dirichlet_approx(golden_freq, Q).q == q
    assert _GOLDEN_Q[1e15] == 2 ** 49


def test_one_lll_pass_per_badly_approximable_search(golden_freq,
                                                   plastic_freq, monkeypatch):
    # the box at the box-principle cap Q^(n-1) is small here, so it is
    # the only cap reduced; rational inputs have a large one and climb
    # from c = 1 instead, to the same smallest q
    calls = []
    lll = dio._lll
    monkeypatch.setattr(dio, "_lll", lambda b, u: (calls.append(1), lll(b, u)))
    search = dio._dirichlet_approx.__wrapped__      # not the cache

    def q_and_passes(at, Q):
        calls.clear()
        dio._warm_basis.cache_clear()               # a cold search
        q = search(np.asarray(at, dtype=float).tobytes(), float(Q)).q
        return q, len(calls)

    cube = [2 ** (1 / 3) - 1, 2 ** (2 / 3) - 1]
    for i, (qp, qc) in enumerate(zip(_PLASTIC_Q, _CUBE_Q)):
        Q = 10 ** (3 + i / 2)
        assert q_and_passes(plastic_freq.alpha_tilde, Q) == (qp, 1)
        assert q_and_passes(cube, Q) == (qc, 1)
    for Q, q in _GOLDEN_Q.items():
        assert q_and_passes(golden_freq.alpha_tilde, Q) == (q, 1)
    for at, Q, q in (([0.375, -0.5], 1e5, 8), ([0.25, 0.5], 100, 4)):
        got, passes = q_and_passes(at, Q)
        assert got == q and passes > 1


def test_ascent_returns_the_smallest_q(monkeypatch):
    # with no top box the doubling ascent runs: no cap up to 65536 admits
    # a q <= c, but the cap 65536 box holds q = 74507 > c, which only
    # |k|_inf <= c keeps out; the smallest q comes from the box at the
    # cap Q
    at, Q = [0.08207282530105009], 117046.75423592722
    monkeypatch.setattr(dio, "_TOP_BOX_CELLS", 0)
    dio._warm_basis.cache_clear()       # the boxes above are the cold ones
    got = dio._dirichlet_approx.__wrapped__(np.array(at).tobytes(), Q).q
    assert got == 70937 == _brute_smallest_q(at, Q, math.floor(Q))


@settings(deadline=None, max_examples=200)
@example([0.375], 1.0)                # a rational x at Q = 1e15
@example([0.25, -0.5], 1.0)
@example([GOLDEN, 0.5, 1 / 3], 1.0)
@example([0.08207282530105009], 0.337890625)  # the ascent's cap 65536 box
@given(st.integers(1, 3).flatmap(
    lambda m: st.lists(_ENTRIES, min_size=m, max_size=m)), st.floats(0, 1))
def test_search_matches_fraction_reference(at, t):
    # beyond brute force: Q up to 1e15 at n = 2, 1e7 at n = 3, 1e4 at n = 4
    n = len(at) + 1
    Q = {2: 1e15, 3: 1e7, 4: 1e4}[n] ** t
    try:
        got = dio.dirichlet_approx(_freq(at, tau=0.1), Q).q
    except ParameterError as exc:
        assert "budget" in str(exc)
        got = "budget"
    assert got == _ref_smallest_q(at, Q)


def _answer(at, Q):
    """(q, p) of dirichlet_approx, or "budget" where it raises for that."""
    try:
        a = dio.dirichlet_approx(_freq(at, tau=0.1), Q)
    except ParameterError as exc:
        assert "budget" in str(exc)
        return "budget"
    return a.q, list(a.p)


@settings(deadline=None, max_examples=80)
@example([0.25, 0.5], [0.0, 1.0, 0.5])
@example([0.375, -0.5], [1.0, 0.0, 0.7])
@example([5e-324, GOLDEN], [0.2, 1.0, 0.9, 0.1])
@example([GOLDEN], [0.1, 0.4, 1.0, 0.3])
@given(st.integers(1, 3).flatmap(
    lambda m: st.lists(_ENTRIES, min_size=m, max_size=m)),
    st.lists(st.floats(0, 1), min_size=1, max_size=6))
def test_warm_start_matches_a_cold_search(at, ts):
    # a warm search starts from the basis its frequency's last search
    # reduced, at whatever (delta, c) that was: Q in any order, against a
    # search with the cache and the warm state cleared
    Qs = [{2: 1e15, 3: 1e7, 4: 1e4}[len(at) + 1] ** t for t in ts]
    fracs = tuple(dio._as_fracs(at))
    X = dio._warm_basis.__wrapped__(fracs, 1)[0][0]
    dio._warm_basis.cache_clear()
    dio._dirichlet_approx.cache_clear()
    warm = []
    for Q in Qs:
        warm.append(_answer(at, Q))
        ux, uinv = dio._warm_basis(fracs, 1)[0]
        # uinv holds the columns of U^-1, and U^-1 (U X) is X exactly
        assert [[sum(u[l] * ux[l][j] for l in range(len(ux)))
                 for j in range(len(X))] for u in zip(*uinv)] == X
    for Q, got in zip(Qs, warm):
        dio._warm_basis.cache_clear()
        dio._dirichlet_approx.cache_clear()
        assert got == _answer(at, Q)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 10 ** 6))
def test_integral_lll_invariants(n, digits, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(-10 ** digits, 10 ** digits + 1, size=(n, n)).tolist()
    try:
        _ref_inverse(rows)
    except StopIteration:             # singular
        assume(False)
    b = [list(row) for row in rows]
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    with mock.patch.object(dio, "_dot", wraps=dio._dot) as dot:
        dio._lll(b, u)
    assert dot.call_count == n * (n + 1) // 2    # each row's step 2 once
    mu, B = _ref_gram_schmidt(b)
    assert all(abs(mu[k][j]) <= Fraction(1, 2)
               for k in range(n) for j in range(k))
    assert all(B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]
               for k in range(1, n))
    # u holds the columns of U^-1, and U^-1 b gives back the input rows
    assert [[sum(u[l][i] * b[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)] == rows
    assert math.prod(B) == math.prod(_ref_gram_schmidt(rows)[1])  # det^2
    assert b == _ref_lll(rows)


def test_box_bounds_match_fraction_inverse(golden_freq, plastic_freq,
                                           monkeypatch):
    # at every cap of real searches, on the Dirichlet lattice (r = 1) and
    # its transpose (r = n - 1): the tracked U^-1 maps the reduced basis
    # back to the unreduced one, and the integer bounds equal the floors
    # of half * sum_i |inv[i][j]| from the Fraction inverse
    reduced, checked = [], []
    lll, box = dio._lll, dio._box_bounds

    def recording_lll(b, u):
        lll(b, u)
        reduced.append([list(row) for row in b])

    def checked_box(uinv, W, lead, Dd, c):
        b, r = reduced[-1], len(W)
        n = len(b)
        start = [[lead * (i == j) for j in range(r)] + [c * x for x in w]
                 for i, w in enumerate(W)]
        start += [[0] * r + [-c * Dd * (i == j) for j in range(n - r)]
                  for i in range(n - r)]
        assert [[sum(u[l] * b[l][j] for l in range(n))
                 for j in range(n)] for u in zip(*uinv)] == start
        bounds = box(uinv, W, lead, Dd, c)
        assert bounds == _ref_bounds(b, lead * c)
        checked.append(r)
        return bounds

    monkeypatch.setattr(dio, "_lll", recording_lll)
    monkeypatch.setattr(dio, "_box_bounds", checked_box)
    cube = [2 ** (1 / 3) - 1, 2 ** (2 / 3) - 1]
    quartic = [2 ** (1 / 4) - 1, 2 ** (1 / 2) - 1, 2 ** (3 / 4) - 1]
    cases = [(plastic_freq.alpha_tilde, 10 ** (3 + i / 2)) for i in range(9)]
    cases += [(cube, 10 ** (3 + i / 2)) for i in range(0, 9, 2)]
    cases += [([GOLDEN], Q) for Q in (1e6, 1e15)]
    cases += [([0.375, -0.5], 1e5), ([0.25, 0.5], 100), (quartic, 1e4)]
    for at, Q in cases:
        fracs = dio._as_fracs(at)
        delta = 1 / Fraction(float(Q))
        dio._least_point(fracs, 1, delta, 1,
                         math.floor(Fraction(float(Q)) ** len(fracs)))
    assert len(checked) == len(reduced) > len(cases)
    # the linear form's walks, which end at cap or at a resonance
    for at, cap in ((plastic_freq.alpha_tilde, 200), (cube, 200),
                    (quartic, 50), ([0.375, -0.5], 200)):
        list(dio._minimal_points(dio._as_fracs(at), len(at), cap))
    assert checked.count(2) > 30 and checked.count(3) > 10


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
    assert a.q_omega() == (5, 3)
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


def test_psi_golden_answers_fibonacci_pairs(golden_freq):
    # of +-k the lexicographically smaller; far beyond a box of (2Q+1)^2
    # points, up to the float's exact dyadic resonance (q = 2^49)
    assert dio.psi_argmax(golden_freq, 10)[1] == (-5, 8)
    v, k = dio.psi_argmax(golden_freq, 1e5)
    assert k == (-46368, 75025)
    assert v == float(1 / abs(-46368 + 75025 * Fraction(GOLDEN)))
    for Q in (1e300, 1e308):
        with pytest.raises(ResonanceError) as exc:
            dio.psi_argmax(golden_freq, Q)
        assert exc.value.witness == (-347922205179541, 2 ** 49)


def test_psi_resonant_raises():
    with pytest.raises(ResonanceError) as exc:
        dio.psi_argmax(_freq([0.5]), 5)
    assert exc.value.witness is not None


def test_psi_monotone_in_Q(golden_freq):
    vals = [dio.psi_argmax(golden_freq, Q)[0] for Q in (2, 5, 10, 20)]
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


def test_golden_gamma_bar_over_the_approx_range(tmp_path, golden_freq):
    # the float golden is a dyadic rational, so gamma_bar falls at
    # q = 102334155: with the estimate over q <= 8e8, approx at Q = 8e8
    # holds, and with the one over q <= 4096 its lower bound fails
    from kamtorus.cli import main
    with pytest.warns(UserWarning):
        gamma_bar = dio.estimate_constants([GOLDEN], 0.0, 4096, 8 * 10 ** 8)[1]
    assert gamma_bar == 0.12165267941733227
    freq = tmp_path / "golden.freq"
    for gb, code in ((gamma_bar, 0), (golden_freq.gamma_bar, 2)):
        freq.write_text(dio.serialize_frequency(
            dio.FrequencyVector(2, [GOLDEN], 0.0, golden_freq.gamma, gb)))
        assert main(["approx", "--freq", str(freq), "--Q", "8e8"]) == code


def _brute_or_resonance(f, *args):
    try:
        return f(*args)
    except ResonanceError:
        return "resonance"


@settings(deadline=None, max_examples=150)
@example([0.5], 0.0, 3)
@example([0.125], 0.0, 3)
@example([0.375, -0.5], 0.1, 3)
@example([-0.5207, 0.9763], 0.1, 2)   # without |k_0|: k = (-3, -2, 2)
@example([0.3739, 0.9131, 0.4257], 0.0, 2)
@given(st.integers(1, 3).flatmap(
    lambda m: st.lists(_ENTRIES, min_size=m, max_size=m)),
    st.sampled_from([0.0, 0.1, 1.0]), st.integers(1, 8))
def test_constants_and_psi_match_brute_force(at, tau, K):
    # the walks over minimal points against every vector of the range:
    # n = 2, 3, 4 with |k|_inf <= K, 6 and 3, and q <= 64
    m = len(at)
    K = min(K, {1: 8, 2: 6, 3: 3}[m])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = _brute_or_resonance(dio.estimate_constants, at, tau, K, 64)
    assert got == _brute_or_resonance(ref.brute_constants, at, tau, K, 64)
    least, argmins = ref.brute_psi(at, K)
    if least == 0:
        with pytest.raises(ResonanceError) as exc:
            dio.psi_argmax(_freq(at), K)
        assert exc.value.witness in argmins
        return
    try:
        psi = float(1 / least)
    except OverflowError:           # a subnormal entry
        with pytest.raises(KamError, match="overflows the float range"):
            dio.psi_argmax(_freq(at), K)
        return
    value, k = dio.psi_argmax(_freq(at), K)
    assert value == psi and k in argmins
    assert k == min(k, tuple(-y for y in k))


def test_estimate_constants_resonant():
    with pytest.raises(ResonanceError):
        dio.estimate_constants(np.array([0.5]), 0.0, 10, 10)


@pytest.mark.parametrize("build, exc, msg", [
    (lambda: dio.estimate_constants([GOLDEN], 0.0, 0, 16),
     ParameterError, "ranges must be >= 1"),
    (lambda: dio.estimate_constants([GOLDEN], 0.0, 16, 0),
     ParameterError, "ranges must be >= 1"),
    # infinite and NaN ranges are refused before math.floor sees them
    (lambda: dio.estimate_constants([GOLDEN], 0.0, math.inf, 16),
     ParameterError, "ranges must be >= 1 and finite"),
    (lambda: dio.estimate_constants([GOLDEN], 0.0, 16, math.nan),
     ParameterError, "ranges must be >= 1 and finite"),
    # and so is every tau that FrequencyVector refuses
    (lambda: dio.estimate_constants([GOLDEN], math.nan, 16, 16),
     ParameterError, "tau must be finite and >= 0, got nan"),
    (lambda: dio.estimate_constants([GOLDEN], math.inf, 16, 16),
     ParameterError, "tau must be finite and >= 0, got inf"),
    (lambda: dio.estimate_constants([GOLDEN], -5.0, 16, 16),
     ParameterError, "tau must be finite and >= 0, got -5.0"),
    # 0.125 k is no integer for |k| <= 4, but 8 * 0.125 is
    (lambda: dio.estimate_constants([0.125], 0.0, 4, 16),
     ResonanceError, "exact simultaneous resonance at q=8"),
    (lambda: dio.FrequencyVector(3, np.array([0.5]), 0.0, 0.5, 0.5),
     ParameterError, "need n >= 2 and 2 entries, got 1"),
])
def test_bad_diophantine_input_raises(build, exc, msg):
    with pytest.raises(exc, match=msg) as err:
        build()
    if exc is ResonanceError:
        assert err.value.witness == (8,)


def test_estimate_constants_gamma_capped():
    # a frequency with large partial quotients still reports gamma <= 1
    with pytest.warns(UserWarning):
        gamma, _ = dio.estimate_constants(np.array([1 / math.pi]), 1.0,
                                          64, 64)
    assert gamma <= 1.0


def test_resonance_bound_formula(golden_freq):
    # the constants step_conditions uses for the resonant-mode cutoff
    consts = sch.constants(golden_freq.n, golden_freq.tau, golden_freq.gamma,
                           golden_freq.gamma_bar)
    assert consts.a == 1.0
    expect = (golden_freq.gamma * golden_freq.gamma_bar / 2.0) ** 0.5
    assert consts.gamma_star == pytest.approx(expect, rel=1e-12)
    cutoff = consts.gamma_star * 20.0 ** (1.0 / consts.a)
    assert cutoff == pytest.approx(consts.gamma_star * 20.0, rel=1e-12)


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
    ks = ref.enumerate_resonant(a, 200)
    assert len(ks) > 0
    for k in ks:
        assert a.q * k[0] + a.p[0] * k[1] == 0
        assert np.abs(k).max() <= 200


def test_enumerate_resonant_n3(plastic_freq):
    a = dio.dirichlet_approx(plastic_freq, 5)
    ks = ref.enumerate_resonant(a, 30)
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


@pytest.mark.parametrize("n", [1, 0, -3])
def test_frequency_header_below_two_dimensions(n):
    # refused at the header, not as a count of n - 1 entries
    with pytest.raises(ParseError, match=f"^line 1: n must be >= 2, got {n}$"):
        dio.deserialize_frequency(
            f"freq v1 n={n} tau=0 gamma=0.5 gammabar=0.5\n")


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
    for x in (math.nan, math.inf, -math.inf, 1.5, -1.0000000000000002):
        with pytest.raises(ParameterError, match="alpha_tilde entries must "
                           "be finite and lie in"):
            dio.FrequencyVector(3, [0.5, x], 0.0, 0.5, 0.5)


def test_alpha_tilde_is_a_float64_array():
    # its bytes key the Dirichlet cache, as those of a float64 ndarray would
    at = np.array([GOLDEN, -0.25])
    alpha = dio.FrequencyVector(3, at, 0.0, 0.5, 0.5)
    assert alpha.alpha_tilde.typecode == "d"
    assert alpha.alpha_tilde.tobytes() == at.tobytes()
    assert alpha.alpha == (1.0, GOLDEN, -0.25)
    a = dio.dirichlet_approx(alpha, 100)
    assert a is dio._dirichlet_approx(at.tobytes(), 100.0)
    assert type(a.q) is int and all(type(v) is int for v in a.p)
    assert all(type(v) is float for v in a.varpi)


# ---------------------------------------------------------------------------
# bounded allocations and the approximation cache
# ---------------------------------------------------------------------------

def test_lattice_search_cell_count_is_printed_to_3_digits():
    # a box of more than _GRID_CELL_BUDGET points raises before any is
    # enumerated, its count printed to 3 digits although it may lie far
    # beyond the float range: a Dirichlet search of 0.5 kept at its top
    # box (lo = cap)
    half = Fraction(1, 2)
    for cap, cells in ((41152263, "1.23e+08"), (10 ** 300, "3e+300"),
                       (10 ** 616, "3e+616")):
        with pytest.raises(ParameterError) as exc:
            dio._least_point([half], 1, half, cap, cap)
        assert str(exc.value).endswith(f"enumerate {cells} lattice points, "
                                       "above the budget of 1048576")


def test_lattice_enumerations_above_budget_raise(golden_freq, plastic_freq):
    # the reference enumeration keeps the budget; an infinite or NaN Q is
    # refused before any search
    a = dio.dirichlet_approx(plastic_freq, 5)
    with pytest.raises(ParameterError, match="budget"):
        ref.enumerate_resonant(a, 10 ** 4)
    for Q in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            dio.psi_argmax(golden_freq, Q)
        with pytest.raises(ParameterError):
            dio.dirichlet_approx(golden_freq, Q)


def test_enumerate_resonant_n2_budget(golden_freq):
    # n = 2 enumerates 2*box + 1 cells of k_1 under the same budget
    a = dio.dirichlet_approx(golden_freq, 5)
    with pytest.raises(ParameterError, match="budget"):
        ref.enumerate_resonant(a, 1 << 19)      # 2^20 + 1 cells
    with pytest.raises(ParameterError, match="budget"):
        ref.enumerate_resonant(a, 10 ** 6)


def test_approx_cache_is_bounded_lru(golden_freq):
    cache = dio._dirichlet_approx
    cache.cache_clear()
    first = dio.dirichlet_approx(golden_freq, 10.0)
    for Q in range(11, 266):                    # 256 distinct (alpha, Q)
        dio.dirichlet_approx(golden_freq, float(Q))
    assert dio.dirichlet_approx(golden_freq, 10.0) is first   # now newest
    dio.dirichlet_approx(golden_freq, 266.0)    # the 257th evicts Q = 11
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 257, 256)
    dio.dirichlet_approx(golden_freq, 12.0)     # still cached
    dio.dirichlet_approx(golden_freq, 11.0)     # searched again
    info = cache.cache_info()
    assert (info.hits, info.misses) == (2, 258)


def test_warm_state_is_bounded_lru():
    # one stored basis per frequency, for the 256 most recently used
    warm = dio._warm_basis
    warm.cache_clear()
    dio._dirichlet_approx.cache_clear()
    freqs = [_freq([GOLDEN / (2 + i)]) for i in range(257)]
    for f in freqs[:256]:
        dio.dirichlet_approx(f, 10.0)
    dio.dirichlet_approx(freqs[0], 20.0)        # a warm start: now newest
    dio.dirichlet_approx(freqs[256], 10.0)      # the 257th evicts freqs[1]
    info = warm.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 257, 256)
    dio.dirichlet_approx(freqs[2], 20.0)        # still stored
    dio.dirichlet_approx(freqs[1], 20.0)        # starts from X again
    info = warm.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (2, 258, 256)


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
