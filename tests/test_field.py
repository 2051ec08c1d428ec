import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kamtorus import field as fld
from kamtorus.errors import (KamError, ParameterError, ParseError,
                             RealityViolationError)
from kamtorus.generate import random_field

import reference as ref


def _rand_field(seed, n=2, s=1.0, eps=1.0, modes=5, k_max=3):
    return random_field(n, s, eps, modes, seed, k_max=k_max)


# ---------------------------------------------------------------------------
# construction and reality
# ---------------------------------------------------------------------------

def test_make_field_completes_conjugates():
    f = fld.make_field(2, 1.0, {(1, 0): [1.0 + 2.0j, 0.0]})
    assert (-1, 0) in f.coeffs
    assert f.coeffs[(-1, 0)][0] == 1.0 - 2.0j


def test_self_conjugate_mode_is_real():
    f = fld.make_field(2, 1.0, {(0, 0): [1.0 + 5.0j, 2.0]})
    assert f.coeffs[(0, 0)][0].imag == 0.0


def test_non_finite_coefficients_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            fld.make_field(2, 1.0, {(1, 0): [bad, 0.0]})
    text = "torusfield v1 n=2 s=1 kmax=1\n0 1 1.0 0.0 0.0 0.0\n1 0 nan 0 0 0\n"
    with pytest.raises(ParseError, match="line 3"):
        fld.deserialize(text)


def test_zero_modes_dropped():
    f = fld.make_field(2, 1.0, {(1, 1): [0.0, 0.0]})
    assert f.coeffs == {}
    assert f.k_max == 0


def test_constant_field_roundtrip():
    c = fld.constant_field([1.5, -2.0], 1.0)
    assert c.is_constant
    np.testing.assert_allclose(c.constant_part(), [1.5, -2.0])


def test_add_sub_scale():
    a = _rand_field(1)
    b = _rand_field(2)
    diff = fld.sub(fld.add(a, b), b)
    s = 1.0
    assert fld.norm(fld.sub(diff, a), s) <= 1e-15 * fld.norm(a, s)
    assert fld.norm(fld.scale(a, 2.0), s) == pytest.approx(
        2.0 * fld.norm(a, s), rel=1e-14)


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.floats(0.1, 1.0), st.floats(0.1, 1.0))
def test_norm_scaling_and_monotonicity(seed, s1, s2):
    f = _rand_field(seed, s=1.0)
    lo, hi = sorted((s1, s2))
    assert fld.norm(f, lo) <= fld.norm(f, hi) * (1 + 1e-12)
    assert fld.norm(fld.scale(f, -3.0), hi) == pytest.approx(
        3.0 * fld.norm(f, hi), rel=1e-13)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_norm_triangle(seed):
    a = _rand_field(seed)
    b = _rand_field(seed + 1)
    assert fld.norm(fld.add(a, b), 1.0) <= (
        fld.norm(a, 1.0) + fld.norm(b, 1.0)) * (1 + 1e-12)


def test_norm_majorizes_sup_on_strip():
    f = _rand_field(7)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(50, 2)) + 1j * rng.uniform(-0.9, 0.9,
                                                             size=(50, 2))
    sup = max(np.abs(ref.eval_at(f, p)).max() for p in pts)
    assert sup <= fld.norm(f, 0.9) * (1 + 1e-12)


def test_norm_width_validation():
    f = _rand_field(1)
    with pytest.raises(ParameterError):
        fld.norm(f, 1.5)
    with pytest.raises(ParameterError):
        fld.norm(f, 0.0)


def test_norm_no_spurious_overflow():
    # naive |c| * exp(2*pi*s*|k|_1) overflows (exp(603) = inf) although the
    # true value exp(log|c| + 603) ~ 6e-39 is representable
    f = fld.make_field(2, 1.2, {(40, 40): [1e-300, 0.0]})
    v = fld.norm(f, 1.2)
    assert np.isfinite(v) and 0 < v < 1e-30


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_many_matches_eval_at():
    f = _rand_field(3)
    pts = np.random.default_rng(1).uniform(0, 1, size=(10, 2))
    many = fld.eval_many(f, pts)
    for p, v in zip(pts, many):
        np.testing.assert_allclose(ref.eval_at(f, p).real, v, atol=1e-14)


def _mean(f, values):
    """f with its mode-0 coefficient replaced by values (dropped at 0)."""
    return fld.add(fld.sub(f, fld.constant_field(f.constant_part(), 1.0)),
                   fld.constant_field(values, 1.0))


@pytest.mark.parametrize("build, odd", [
    pytest.param(lambda: _mean(_rand_field(5), [0.0, 0.0]), False,
                 id="even M"),
    pytest.param(lambda: _mean(_rand_field(5), [0.3, -0.6]), True,
                 id="odd M"),
    pytest.param(lambda: fld.constant_field([0.7, -0.2], 1.0), True,
                 id="constant"),
    pytest.param(lambda: _mean(_rand_field(6, n=1, modes=4), [0.4]), True,
                 id="n=1"),
    pytest.param(lambda: _mean(_rand_field(7, n=4, modes=9, k_max=2),
                               [0.0] * 4), False, id="n=4"),
])
@pytest.mark.parametrize("chunk", [fld._EVAL_CHUNK, 16])
def test_eval_many_half_spectrum_matches_eval_at(build, odd, chunk,
                                                 monkeypatch):
    # eval_many sums only the back half of the rows (and mode 0); a chunk
    # of 16 point-modes spreads the 40 points over many blocks
    monkeypatch.setattr(fld, "_EVAL_CHUNK", chunk)
    f = build()
    assert len(f.modes) % 2 == odd
    pts = np.random.default_rng(3).uniform(0, 1, size=(40, f.n))
    many = fld.eval_many(f, pts)
    ref_vals = np.array([ref.eval_at(f, p).real for p in pts])
    scale = np.abs(f.coef).sum(axis=0).max()
    assert np.abs(many - ref_vals).max() <= 1e-14 * scale


def test_eval_outside_strip_rejected():
    f = _rand_field(3)
    with pytest.raises(ParameterError):
        ref.eval_at(f, np.array([0.0, 1.5j]))


def test_derivative_matrix_matches_fd():
    f = _rand_field(4)
    pts = np.random.default_rng(2).uniform(0, 1, size=(5, 2))
    jac = ref.derivative_matrix_many(f, pts)
    h = 1e-6
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        fd = (fld.eval_many(f, pts + e) - fld.eval_many(f, pts - e)) / (2 * h)
        np.testing.assert_allclose(jac[:, :, l], fd, atol=1e-8)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def _bracket_pointwise(x, v, pts):
    dx = ref.derivative_matrix_many(x, pts)
    dv = ref.derivative_matrix_many(v, pts)
    xv = fld.eval_many(x, pts)
    vv = fld.eval_many(v, pts)
    return (np.einsum("pij,pj->pi", dx, vv)
            - np.einsum("pij,pj->pi", dv, xv))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_bracket_matches_pointwise_definition(seed):
    x = _rand_field(seed)
    v = _rand_field(seed + 17)
    br = fld.lie_bracket(x, v)
    pts = np.random.default_rng(seed).uniform(0, 1, size=(8, 2))
    np.testing.assert_allclose(fld.eval_many(br, pts),
                               _bracket_pointwise(x, v, pts),
                               atol=1e-10 * max(1.0, fld.norm(x, 1.0)))


def test_bracket_antisymmetry():
    x = _rand_field(9)
    v = _rand_field(10)
    lhs = fld.lie_bracket(x, v)
    rhs = fld.scale(fld.lie_bracket(v, x), -1.0)
    assert fld.norm(fld.sub(lhs, rhs), 1.0) <= 1e-12 * fld.norm(lhs, 1.0)


def test_bracket_constant_fast_path_agrees():
    v = _rand_field(11)
    c = fld.constant_field([0.3, -0.7], 1.0)
    fast = fld.lie_bracket(c, v)
    # force the generic path by adding and removing a harmless mode
    c_indirect = fld.make_field(2, 1.0, {(0, 0): [0.3, -0.7],
                                         (5, 5): [1e-30, 0]})
    general = fld.lie_bracket(c_indirect, v)
    pts = np.random.default_rng(3).uniform(0, 1, size=(6, 2))
    np.testing.assert_allclose(fld.eval_many(fast, pts),
                               fld.eval_many(general, pts), atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.floats(0.05, 0.45))
def test_bracket_bound_inequality(seed, sigma):
    x = _rand_field(seed)
    v = _rand_field(seed + 31)
    br = fld.lie_bracket(x, v)
    bound = (fld.bracket_norm_const(2) / sigma * fld.norm(x, 1.0)
             * fld.norm(v, 1.0))
    assert fld.norm(br, 1.0 - sigma) <= bound * (1 + 1e-12)


def test_constants_commute():
    a = fld.constant_field([1.0, 2.0], 1.0)
    b = fld.constant_field([3.0, -1.0], 1.0)
    assert fld.lie_bracket(a, b).coeffs == {}


# ---------------------------------------------------------------------------
# tails and pruning
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.floats(0.05, 0.5),
       st.integers(1, 6))
def test_tail_bound_inequality(seed, sigma, big_k):
    f = _rand_field(seed, k_max=6, modes=8)
    _, high = ref.tail_split(f, big_k)
    if not high.coeffs:
        return
    assert fld.norm(high, 1.0 - sigma) <= (
        ref.tail_bound(2, sigma, big_k) * fld.norm(high, 1.0))


def test_tail_split_partition():
    f = _rand_field(5, k_max=5, modes=8)
    low, high = ref.tail_split(f, 3)
    total = fld.add(low, high)
    assert fld.norm(fld.sub(total, f), 1.0) == 0.0
    assert all(max(abs(v) for v in k) < 3 for k in low.coeffs)
    assert all(max(abs(v) for v in k) >= 3 for k in high.coeffs)


def test_prune_accounts_mass():
    f = _rand_field(6, modes=8)
    pruned, removed = fld.prune(f, 1.0, 1e-2 * fld.norm(f, 1.0))
    assert ((0, 0) in f.coeffs) == ((0, 0) in pruned.coeffs)
    assert fld.norm(fld.sub(f, pruned), 1.0) <= removed * (1 + 1e-12) \
        + 1e-300
    # conjugate symmetry preserved
    for k in pruned.coeffs:
        assert tuple(-v for v in k) in pruned.coeffs
    # an empty field, and a zero floor, leave the field as it is
    for x, floor in ((fld.zero_field(2, 1.0), 1e-2), (f, 0.0)):
        out, removed = fld.prune(x, 1.0, floor)
        assert out is x and removed == 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_roundtrip_exact():
    f = _rand_field(8, modes=6)
    g = fld.deserialize(fld.serialize(f))
    assert g.n == f.n and g.width_s == f.width_s and g.k_max == f.k_max
    assert set(g.coeffs) == set(f.coeffs)
    for k in f.coeffs:
        np.testing.assert_array_equal(g.coeffs[k], f.coeffs[k])


def test_deserialize_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        fld.deserialize("nonsense v1 n=2 s=1 kmax=1\n")


def test_deserialize_bad_column_count():
    text = "torusfield v1 n=2 s=1 kmax=1\n0 1 1.0\n"
    with pytest.raises(ParseError, match="line 2"):
        fld.deserialize(text)


def test_deserialize_reality_violation():
    text = ("torusfield v1 n=2 s=1 kmax=1\n"
            "0 1 1.0 2.0 0.0 0.0\n"
            "0 -1 1.0 2.0 0.0 0.0\n")
    with pytest.raises(RealityViolationError):
        fld.deserialize(text)


def test_deserialize_nonreal_zero_mode():
    text = "torusfield v1 n=2 s=1 kmax=0\n0 0 1.0 2.0 0.0 0.0\n"
    with pytest.raises(RealityViolationError):
        fld.deserialize(text)


def test_deserialize_kmax_mismatch():
    text = "torusfield v1 n=2 s=1 kmax=1\n0 2 1.0 0.0 0.0 0.0\n"
    with pytest.raises(ParseError):
        fld.deserialize(text)


_ONE_MODE = np.array([[0, 0]])


@pytest.mark.parametrize("build, exc, msg", [
    (lambda: fld.deserialize("torusfield v1 n=2 s=1 kmax=1\n"
                             "1 0 1 0 0 0\n-1 0 1 0 0 0\n1 0 1 0 0 0\n"),
     ParseError, "line 4: duplicate mode \\(1, 0\\)"),
    (lambda: fld.deserialize("torusfield v1 n=2 s=1 kmax=1\n1 0 x 0 0 0\n"),
     ParseError, "line 2: could not convert"),
    (lambda: fld.FourierVectorField(2, 0.0, _ONE_MODE,
                                    np.ones((1, 2), complex)),
     ParameterError, "width_s must be > 0"),
    (lambda: fld.FourierVectorField(2, 1.0, _ONE_MODE,
                                    np.ones((2, 2), complex)),
     ParameterError, "must have shape"),
    (lambda: fld.eval_many(_rand_field(1), np.zeros((4, 3))),
     ParameterError, "points must have shape \\(N, 2\\)"),
    # any other op would silently run the lie_derivative series
    (lambda: fld.lie_series(fld.sub, _rand_field(1, eps=1e-6), 1e-6,
                            *[_rand_field(2)] * 3, 1.0, 0.5, 1.0),
     ParameterError, "op must be lie_bracket or lie_derivative"),
])
def test_bad_field_input_raises(build, exc, msg):
    with pytest.raises(exc, match=msg):
        build()


def test_norm_rejects_nan_coefficient():
    modes = np.array([[-1, 0], [1, 0]])
    nan = fld.FourierVectorField(
        2, 1.0, modes, np.array([[math.nan, 0], [math.nan, 0]], complex))
    with pytest.raises(ParameterError, match="NaN"):
        fld.norm(nan, 1.0)
    # overflow at a wide strip is an honest inf, not an error
    wide = fld.FourierVectorField(2, 200.0, modes,
                                  np.array([[1, 0], [1, 0]], complex))
    assert fld.norm(wide, 200.0) == math.inf


def test_fields_too_wide_for_int64_keys_rejected():
    with pytest.raises(ParameterError):
        fld.make_field(3, 1.0, {(2 ** 21, 0, 0): [1.0, 0.0, 0.0]})
    x = fld.make_field(3, 1.0, {(2 ** 19, 1, 0): [1.0, 0.0, 0.0]})
    with pytest.raises(ParameterError):
        fld.lie_bracket(x, x)       # output modes up to |k| = 2^20
    with pytest.raises(ParameterError):
        fld.deserialize("torusfield v1 n=2 s=1 kmax=4294967296\n")


# ---------------------------------------------------------------------------
# storage invariant of every operation
# ---------------------------------------------------------------------------

def _assert_canonical(f):
    """Sorted unique modes closed under k -> -k, c_{-k} == conj(c_k)
    exactly, no all-zero row, k_max == max|k| and finite values."""
    m, c = f.modes, f.coef
    assert m.dtype == np.int64 and c.dtype == np.complex128
    assert m.shape == c.shape == (len(m), f.n)
    rows = [tuple(r) for r in m.tolist()]
    assert rows == sorted(set(rows))
    np.testing.assert_array_equal(m[::-1], -m)
    assert (c[::-1] == np.conj(c)).all()
    assert (c != 0).any(axis=1).all()
    assert f.k_max == np.abs(m).max(initial=0)
    assert np.isfinite(c).all()


@st.composite
def _field_pairs(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, 3))
    mode = st.tuples(*[st.integers(-k, k)] * n)
    part = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-1, 1)
    vec = st.lists(st.builds(complex, part, part), min_size=n, max_size=n)

    def field():
        return fld.make_field(
            n, 1.0, draw(st.dictionaries(mode, vec, max_size=6)))

    x, y = field(), field()
    if draw(st.booleans()):
        y = fld.sub(y, x)            # shared modes that cancel in add(x, y)
    return x, y


def _assert_every_operation_canonical(x, y, q, p):
    from kamtorus import averaging as avg
    from kamtorus.diophantine import RationalApprox

    approx = RationalApprox(q=q, p=np.array(p), Q=float(q),
                            varpi=np.zeros(x.n))
    # V has norm about 1e-3; two factors, since 1e-3 / norm(y) overflows
    # when norm(y) is subnormal
    r = fld.norm(y, 1.0) ** -0.5 if len(y.modes) else 0.0
    V = fld.scale(fld.scale(y, r), 1e-3 * r)
    v_norm = fld.norm(V, 1.0)
    outs = [x, y, fld.add(x, y), fld.sub(x, y), fld.scale(x, -0.3),
            fld.lie_bracket(x, y), fld.lie_derivative(x, y),
            fld.prune(x, 1.0, 0.1 * fld.norm(x, 1.0))[0],
            *ref.tail_split(x, 2), ref.omega_average(x, approx),
            *avg.solve_homological(x, avg._divisors(x, approx),
                                   approx.q)[:2],
            # ref 1e4: terms down to 1e-14, modes pruned below 1e-12
            fld.lie_series(fld.lie_bracket, V, v_norm, x, x, y, 1.0, 0.5,
                           1e4)[0],
            fld.lie_series(fld.lie_derivative, V, v_norm, x, y, V, 1.0, 0.5,
                           1e4)[0]]
    for out in outs:
        _assert_canonical(out)


@settings(deadline=None, max_examples=150)
@given(_field_pairs(), st.integers(1, 7), st.data())
def test_every_operation_keeps_the_storage_invariant(pair, q, data):
    x, y = pair
    p = data.draw(st.lists(st.integers(-q, q), min_size=x.n - 1,
                           max_size=x.n - 1))
    _assert_every_operation_canonical(x, y, q, p)


def test_every_operation_keeps_the_storage_invariant_at_a_subnormal_norm():
    x = fld.make_field(3, 1.0, {(0, 0, 0): [0, 0, 1], (1, 0, 0): [0, 0, 1],
                                (0, 1, 0): [1j, 1j, 0]})
    y = fld.make_field(3, 1.0, {(0, 1, 1): [0, 0, 5e-324j]})
    assert 0 < fld.norm(y, 1.0) < np.finfo(float).tiny
    _assert_every_operation_canonical(x, y, 1, [0, 0])


def test_scale_rejects_a_non_finite_factor():
    x = _rand_field(1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            fld.scale(x, bad)


def _reference_convolution(x, v, bracket):
    """DX.V (minus DV.X) by a loop over mode pairs: the reference for the
    array implementation.  Returns {mode: (value, sum of |terms|)}."""
    out = {}
    for k1, c1 in x.coeffs.items():
        for k2, c2 in v.coeffs.items():
            term = 2j * np.pi * np.dot(k1, c2) * c1
            if bracket:
                term = term - 2j * np.pi * np.dot(k2, c1) * c2
            k = tuple(a + b for a, b in zip(k1, k2))
            val, mag = out.get(k, (0.0, 0.0))
            out[k] = (val + term, mag + np.abs(term))
    return out


@settings(deadline=None, max_examples=100)
@given(_field_pairs())
def test_array_ops_match_per_mode_reference(pair):
    x, y = pair
    # add: the same sums as a dict merge, so exactly equal
    ref = dict(x.coeffs)
    for k, c in y.coeffs.items():
        ref[k] = ref[k] + c if k in ref else c
    ref = {k: c for k, c in ref.items() if np.any(c != 0)}
    got = fld.add(x, y).coeffs
    assert set(got) == set(ref)
    for k in ref:
        np.testing.assert_array_equal(got[k], ref[k])
    # brackets: summed in another order, so equal to rounding
    for op, bracket in ((fld.lie_bracket, True), (fld.lie_derivative, False)):
        got = op(x, y).coeffs
        ref = _reference_convolution(x, y, bracket)
        assert set(got) <= set(ref)
        for k, (val, mag) in ref.items():
            assert np.all(np.abs(got.get(k, 0.0) - val) <= 1e-14 * mag)


_SHAPES = ("drawn", "disjoint", "one member tiny", "a constant", "a empty",
           "b empty")


@st.composite
def _series_inputs(draw):
    """(V, head, a, b, ref) for lie_series at s = 1, sigma = 0.5: a and b
    drawn freely, on disjoint modes (a's first component even, b's odd),
    on shared modes with b a billion times smaller (a prune floor
    PRUNE_REL*ref between the two prunes a mode from b but not from a), a
    constant, or one of them empty.  V reaches |k| = 3, where k.X rounds.
    ref is |a| + |b| times 1e-2, 1e4, 1e10 or 1e13: prune floors 1e-18 to
    1e-3 times that, and series that stop at terms 1e-20 to 1e-5 times it."""
    n = draw(st.integers(2, 3))
    part = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-1, 1)
    vec = st.lists(st.builds(complex, part, part), min_size=n, max_size=n)

    def field(k, keep=lambda m: True, min_size=0, max_size=5):
        mode = st.tuples(*[st.integers(-k, k)] * n).filter(keep)
        return fld.make_field(n, 1.0, draw(st.dictionaries(
            mode, vec, min_size=min_size, max_size=max_size)))

    shape = draw(st.sampled_from(_SHAPES))
    a = field(2, lambda m: shape != "disjoint" or m[0] % 2 == 0)
    b = field(2, lambda m: shape != "disjoint" or m[0] % 2 == 1)
    if shape == "one member tiny":
        b = fld.scale(a, 1e-9)
    elif shape == "a constant":
        a = fld.constant_field([z.real for z in draw(vec)], 1.0)
    a = fld.zero_field(n, 1.0) if shape == "a empty" else a
    b = fld.zero_field(n, 1.0) if shape == "b empty" else b
    V = field(3, min_size=1, max_size=2)
    v_norm = fld.norm(V, 1.0)
    assume(v_norm > 1e-3)
    V = fld.scale(V, 1e-4 / v_norm)
    ab = fld.norm(a, 1.0) + fld.norm(b, 1.0)
    ref = draw(st.sampled_from([1e-2, 1e4, 1e10, 1e13])) * ab
    return V, field(2), a, b, ref


def _both_series(series, inputs, op):
    """(sum, summed term norms, ledger) of series(op, ...) on inputs."""
    V, head, a, b, ref = inputs
    ledger = {}
    out, total = series(op, V, fld.norm(V, 1.0), head, a, b, 1.0, 0.5, ref,
                        ledger=ledger, tag="t")
    return out, total, ledger


# a series whose stop rule needs tol's factor rho/(1-rho): with
# SERIES_TOL_REL*ref alone it ends at an earlier term
_V1 = fld.make_field(2, 1.0, {(1, 0): [1.0, 0.5]})
_A1 = fld.make_field(2, 1.0, {(0, 1): [1.0, -1.0], (1, 1): [0.5, 0.0]})


@settings(deadline=None, max_examples=150)
@given(_series_inputs())
@example((fld.scale(_V1, 1e-4 / fld.norm(_V1, 1.0)), fld.zero_field(2, 1.0),
          _A1, fld.zero_field(2, 1.0), 1e-2 * fld.norm(_A1, 1.0)))
def test_stacked_lie_series_matches_the_per_field_loop(inputs):
    for op in (fld.lie_bracket, fld.lie_derivative):
        got, total, ledger = _both_series(fld.lie_series, inputs, op)
        want, want_total, want_ledger = _both_series(
            ref.lie_series_per_field, inputs, op)
        assert got.width_s == want.width_s
        np.testing.assert_array_equal(got.modes, want.modes)
        assert (got.coef == want.coef).all()
        assert total == want_total and ledger == want_ledger


def _assert_close(got, want, mag):
    """|got - want| <= 1e-14 * mag at every mode of either field; mag maps
    a mode to its bound, or is one bound for all."""
    got, want = got.coeffs, want.coeffs
    for k in set(got) | set(want):
        bound = 1e-14 * (mag[k] if isinstance(mag, dict) else mag)
        assert np.all(np.abs(got.get(k, 0.0) - want.get(k, 0.0)) <= bound)


@settings(deadline=None, max_examples=60)
@given(_field_pairs(), _series_inputs())
def test_blocks_of_one_row_match_one_block(pair, inputs):
    """With _BRACKET_CHUNK = 1 every row is a block of its own, and
    brackets, derivatives and series agree with one block to 1e-14 times
    the sum of |terms|: per mode the sum of |products| of each term of the
    bracket, and for a series |head| + (|a| + |b|)/(1 - rho), which
    majorizes the products of all its terms.  The series prune below
    1e-18 (|a| + |b|), which moves a sum by less than that bound."""
    x, y = pair
    V, head, a, b, _ = inputs
    inputs = V, head, a, b, 1e-2 * (fld.norm(a, 1.0) + fld.norm(b, 1.0))
    ops = (fld.lie_bracket, fld.lie_derivative)

    def each_op():
        return [(op(x, y), _both_series(fld.lie_series, inputs, op))
                for op in ops]

    one = each_op()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fld, "_BRACKET_CHUNK", 1)
        many = each_op()
    dx_v = {k: mag for k, (_, mag) in
            _reference_convolution(x, y, False).items()}
    dv_x = {k: mag for k, (_, mag) in
            _reference_convolution(y, x, False).items()}
    rho = fld.series_ratio(V.n, fld.norm(V, 1.0), 1.0, 0.5)
    series_mag = np.abs(head.coef).sum() + (
        fld.norm(a, 1.0) + fld.norm(b, 1.0)) / (1.0 - rho)
    for bracket, (got, got_series), (want, want_series) in zip(
            (True, False), many, one):
        _assert_close(got, want, {k: dx_v.get(k, 0.0) + bracket * dv_x.get(
            k, 0.0) for k in set(dx_v) | set(dv_x)})
        _assert_close(got_series[0], want_series[0], series_mag)
        assert abs(got_series[1] - want_series[1]) <= 1e-14 * series_mag


# ---------------------------------------------------------------------------
# parser fuzzing
# ---------------------------------------------------------------------------

_TOKENS = st.sampled_from(["0", "1", "-1", "2", "0.5", "-0", "nan", "inf",
                           "1e999", "x", "99999999999999999999", "="])


@st.composite
def _field_texts(draw):
    head = draw(st.sampled_from(["torusfield v1", "torusfield v2", "t v1"]))
    head += " " + " ".join(
        f"{key}={draw(_TOKENS)}" for key in
        draw(st.permutations(["n", "s", "kmax"])))
    lines = [" ".join(draw(st.lists(_TOKENS, max_size=8)))
             for _ in range(draw(st.integers(0, 4)))]
    return "\n".join([head] + lines)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(), _field_texts()))
def test_deserialize_fuzz_raises_only_kam_errors(text):
    try:
        f = fld.deserialize(text)
    except KamError:
        return
    _assert_canonical(f)
