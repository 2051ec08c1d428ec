import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kamtorus import averaging as avg
from kamtorus import field as fld
from kamtorus import scheduler as sch
from kamtorus.diophantine import RationalApprox, dirichlet_approx
from kamtorus.errors import (ContractionError, DomainError, ParameterError,
                             StepConditionError, StepSizeError)
from kamtorus.generate import random_field
import reference as ref
from conftest import WORKLOADS


def _half_omega() -> RationalApprox:
    # omega = (1, 1/2)
    return RationalApprox(q=2, p=np.array([1]), Q=4.0,
                          varpi=np.array([0.0, 0.0]))


def _rand(seed, n=2, eps=1.0, modes=5, k_max=3, s=1.0):
    return random_field(n, s, eps, modes, seed, k_max=k_max)


def _solve(P, ap):
    """V of the homological equation, from P's divisors."""
    return avg.solve_homological(P, avg._divisors(P, ap), ap.q)[1]


def _identity_defect(P, ap, V) -> float:
    """norm([V, X_omega] - (P - [P]_omega)) / norm(P - [P]_omega), 0 when
    P is resonant."""
    s = P.width_s
    rhs = fld.sub(P, ref.omega_average(P, ap))
    rhs_norm = fld.norm(rhs, s)
    if not rhs_norm:
        return 0.0
    x_omega = fld.constant_field(ap.omega, s)
    return fld.norm(fld.sub(fld.lie_bracket(V, x_omega), rhs), s) / rhs_norm


# ---------------------------------------------------------------------------
# omega_average / constant_part
# ---------------------------------------------------------------------------

def test_omega_average_kills_nonresonant_modes():
    # omega=(1,1/2): modes (0, +-1) have k.q_omega = +-1 != 0
    P = fld.make_field(2, 1.0, {(0, 1): [1.0, 2.0], (0, 0): [3.0, 0.0]})
    out = ref.omega_average(P, _half_omega())
    assert set(out.coeffs) == {(0, 0)}
    np.testing.assert_allclose(out.constant_part(), [3.0, 0.0])


def test_omega_average_keeps_resonant_mode():
    # mode (-1, 2): 2*(-1) + 2*1 = 0, kept verbatim
    P = fld.make_field(2, 1.0, {(-1, 2): [1.0 + 1.0j, 0.0]})
    out = ref.omega_average(P, _half_omega())
    assert set(out.coeffs) == {(-1, 2), (1, -2)}
    np.testing.assert_array_equal(out.coeffs[(-1, 2)], P.coeffs[(-1, 2)])


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10 ** 6), Q=st.sampled_from([5.0, 20.0]))
def test_omega_average_is_projection(seed, Q, golden_freq):
    P = _rand(seed)
    ap = dirichlet_approx(golden_freq, Q)
    once = ref.omega_average(P, ap)
    twice = ref.omega_average(once, ap)
    assert fld.norm(fld.sub(once, twice), 1.0) == 0.0
    # composed with space average equals space average
    np.testing.assert_array_equal(once.constant_part(), P.constant_part())


def test_omega_average_matches_quadrature(golden_freq):
    P = _rand(3, modes=6)
    ap = dirichlet_approx(golden_freq, 20)
    proj = ref.omega_average(P, ap)
    sampler = ref.quadrature_time_average(P, ap.q, ap.omega, 256)
    pts = np.random.default_rng(0).uniform(0, 1, size=(20, 2))
    assert np.abs(sampler(pts) - fld.eval_many(proj, pts)).max() <= 1e-8


def test_space_average():
    c = fld.constant_field([1.0, -2.5], 1.0)
    np.testing.assert_allclose(c.constant_part(), [1.0, -2.5])
    zero_mean = fld.make_field(2, 1.0, {(1, 0): [1.0, 1.0j]})
    np.testing.assert_allclose(zero_mean.constant_part(), [0.0, 0.0])


# ---------------------------------------------------------------------------
# solve_homological
# ---------------------------------------------------------------------------

def test_homological_single_mode():
    # k=(0,1), omega=(1,1/2): divisor 2*pi*i*(1/2) = pi*i
    P = fld.make_field(2, 1.0, {(0, 1): [1.0, 2.0]})
    V = _solve(P, _half_omega())
    np.testing.assert_allclose(V.coeffs[(0, 1)],
                               np.array([1.0, 2.0]) / (np.pi * 1j))


def test_homological_fully_resonant():
    P = fld.make_field(2, 1.0, {(-1, 2): [1.0, 0.5], (0, 0): [1.0, 1.0]})
    V = _solve(P, _half_omega())
    assert V.coeffs == {}
    assert _identity_defect(P, _half_omega(), V) == 0.0


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10 ** 6), Q=st.sampled_from([5.0, 20.0]))
def test_homological_identity_and_norm_bound(seed, Q, golden_freq):
    P = _rand(seed, modes=6)
    ap = dirichlet_approx(golden_freq, Q)
    V = _solve(P, ap)
    assert _identity_defect(P, ap, V) <= 1e-12
    rhs_norm = fld.norm(fld.sub(P, ref.omega_average(P, ap)), 1.0)
    assert fld.norm(V, 1.0) <= ap.q * rhs_norm * (1 + 1e-12)
    # V vanishes on resonant modes
    for k in V.coeffs:
        assert ap.q * k[0] + sum(ki * int(pi) for ki, pi in zip(k[1:], ap.p))


# ---------------------------------------------------------------------------
# lie_pullback
# ---------------------------------------------------------------------------

def test_pullback_zero_V_is_identity():
    Y = _rand(4)
    out = ref.lie_pullback(Y, fld.zero_field(2, 1.0), 1.0, 0.25)
    assert fld.norm(fld.sub(out, fld.make_field(2, 0.75, Y.coeffs)),
                    0.75) == 0.0


def test_pullback_constants_commute():
    Y = fld.constant_field([1.0, 2.0], 1.0)
    V = fld.constant_field([0.003, 0.004], 1.0)
    out = ref.lie_pullback(Y, V, 1.0, 0.25)
    np.testing.assert_allclose(out.constant_part(), [1.0, 2.0])


def test_pullback_size_precondition():
    Y = _rand(5)
    V = _rand(6, eps=10.0)
    with pytest.raises(StepSizeError):
        ref.lie_pullback(Y, V, 1.0, 0.01)


def test_pullback_two_norm_bound():
    # |(V^1)^* Y| <= 2 |Y| whenever norm(V) <= sigma/(4n)
    sigma = 0.25
    for seed in range(20):
        Y = _rand(seed)
        V = _rand(seed + 100, eps=sigma / 8.0 * 0.9)
        out = ref.lie_pullback(Y, V, 1.0, sigma)
        assert fld.norm(out, 1.0 - sigma) <= 2.0 * fld.norm(Y, 1.0)


# ---------------------------------------------------------------------------
# averaging_step
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_consts(golden_freq):
    return sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)


@pytest.mark.parametrize("which", ["P", "S"])
def test_step_rejects_a_field_of_another_dimension(golden_freq, golden_consts,
                                                   which):
    fields = {"P": _rand(1, eps=1e-6), "S": fld.zero_field(2, 1.0),
              which: fld.zero_field(3, 1.0)}
    with pytest.raises(ParameterError,
                       match=f"{which} is on T\\^3, alpha on T\\^2"):
        avg.averaging_step(golden_freq, fields["S"], fields["P"], 512.0, 0.25,
                           golden_consts)


def test_step_zero_perturbation(golden_freq, golden_consts):
    S = fld.zero_field(2, 1.0)
    P = fld.zero_field(2, 1.0)
    res = avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts)
    assert res.P_plus.coeffs == {}
    assert res.V.coeffs == {}
    np.testing.assert_array_equal(res.record["P_avg"], [0.0, 0.0])


def test_step_constant_perturbation(golden_freq, golden_consts):
    S = fld.zero_field(2, 1.0)
    P = fld.constant_field([1e-7, -2e-7], 1.0)
    res = avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts)
    assert res.P_plus.coeffs == {}
    assert res.V.coeffs == {}
    np.testing.assert_allclose(res.record["P_avg"], [1e-7, -2e-7])
    # the domain check |S| <= d*eps holds a constant P to it too
    q0, _ = sch.select_Q(golden_consts, 1.0)
    with pytest.raises(DomainError, match="exceeds d\\*eps"):
        avg.averaging_step(golden_freq, fld.constant_field([1e-3, 0.0], 1.0),
                           P, q0, 0.25, golden_consts)


def test_step_contraction(golden_freq, golden_consts):
    P = _rand(1, eps=1e-6)
    S = fld.zero_field(2, 1.0)
    res = avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts)
    eps = fld.norm(P, 1.0)
    assert fld.norm(res.P_plus, 0.75) <= eps / 16.0
    assert fld.norm(res.V, 1.0) <= 512.0 * eps
    assert res.record["norm_P"] == eps
    assert res.record["norm_P_plus"] == fld.norm(res.P_plus, 0.75)
    assert res.record["norm_V"] == fld.norm(res.V, 1.0)
    assert all(res.record["conditions"]["ok"])


def test_step_raises_when_p_plus_exceeds_eps_over_b(golden_freq,
                                                    golden_consts,
                                                    monkeypatch):
    # a Lie series 1e-6 off leaves norm(P_plus) above eps/b = 1e-6/16
    series = fld.lie_series

    def off(*args, **kw):
        acc, total = series(*args, **kw)
        return fld.add(acc, fld.constant_field([1e-6, 0.0], acc.width_s)), \
            total

    monkeypatch.setattr(fld, "lie_series", off)
    S, P = fld.zero_field(2, 1.0), _rand(1, eps=1e-6)
    with pytest.raises(ContractionError, match="exceeds eps/b"):
        avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts)
    # a relaxed step records the same P_plus and raises nothing
    res = avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts,
                             enforce=False)
    assert fld.norm(res.P_plus, 0.75) > fld.norm(P, 1.0) / 16.0


def test_step_conditions_failure(golden_freq, golden_consts):
    P = _rand(1, eps=1e-2)   # far above threshold at Q=512
    S = fld.zero_field(2, 1.0)
    with pytest.raises(StepConditionError) as exc:
        avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts)
    assert "threshold" in exc.value.failed
    # 1e200^2 is beyond the float range: condition 1 fails, no OverflowError
    _, rep = avg.step_conditions(golden_consts, 1e200, 0.25, 0.0)
    assert rep["ok"] == (False, True, True) and rep["threshold"] == math.inf
    with pytest.raises(StepConditionError, match="threshold=inf"):
        avg.averaging_step(golden_freq, S, _rand(1, eps=1e-6), 1e200, 0.25,
                           golden_consts)


# Q = 0 and sigma = 0 divide by zero, and sigma < 0 makes the middle
# condition's left-hand side negative, so "met"
@pytest.mark.parametrize("Q, sigma, msg", [
    (512.0, 0.0, "sigma must be finite and > 0"),
    (512.0, -0.25, "sigma must be finite and > 0"),
    (512.0, math.inf, "sigma must be finite and > 0"),
    (512.0, math.nan, "sigma must be finite and > 0"),
    (0.0, 0.25, "Q must be finite and >= 1"),
    (0.5, 0.25, "Q must be finite and >= 1"),
    (math.inf, 0.25, "Q must be finite and >= 1"),
    (math.nan, 0.25, "Q must be finite and >= 1")])
def test_step_conditions_rejects_bad_sigma_or_Q(golden_consts, Q, sigma,
                                                msg):
    with pytest.raises(ParameterError, match=msg):
        avg.step_conditions(golden_consts, Q, sigma, 1e-6)


def _resonant_field(ap, s):
    """Mode 0, the modes (1, 0) and (0, 1), and (p, -q), which is resonant
    for omega = (1, p/q): each adds about 1e-7 to the norm at width s."""
    vectors = {(0, 0): [1.0, -0.5], (1, 0): [0.5j, 1.0],
               (0, 1): [1.0, 1.0 - 1.0j], (int(ap.p[0]), -ap.q): [1.0j, -0.5]}
    return fld.make_field(2, s, {
        k: 1e-7 * math.exp(-fld.TWO_PI * s * (abs(k[0]) + abs(k[1])))
        * np.array(v) for k, v in vectors.items()})


def test_step_equivalence_with_direct_pullback(golden_freq, golden_consts):
    """The regrouped series for P_plus agrees with pulling back the full
    field and subtracting the identified terms: on random fields, whose
    resonant head [P]_omega - [P] is empty, and on fields with a resonant
    mode, whose head is not."""
    cases = [(_rand(seed, eps=1e-6), 1.0, 0.25, 512.0) for seed in (2, 5, 9)]
    for Q, qp in ((4.0, (2, 1)), (8.0, (5, 3)), (16.0, (8, 5))):
        ap = dirichlet_approx(golden_freq, Q)
        assert (ap.q, int(ap.p[0])) == qp
        cases.append((_resonant_field(ap, 0.2), 0.2, 0.05, Q))
    for P, s, sigma, Q in cases:
        S = fld.constant_field([1e-8, -2e-8], s)
        res = avg.averaging_step(golden_freq, S, P, Q, sigma, golden_consts,
                                 enforce=False)
        assert (res.record["tail_term"] > 0) == (Q < 512.0)
        Y = fld.add(fld.constant_field(golden_freq.alpha, s), fld.add(S, P))
        pulled = ref.lie_pullback(Y, res.V, s, sigma)
        direct = fld.sub(pulled, fld.add(
            fld.constant_field(golden_freq.alpha, s - sigma),
            fld.add(fld.make_field(2, s - sigma, S.coeffs),
                    fld.constant_field(res.record["P_avg"], s - sigma))))
        assert fld.norm(fld.sub(direct, res.P_plus), s - sigma) <= 1e-9


# at sigma >= s fld.series_ratio would refuse the step too; at sigma = 0
# or NaN only averaging_step's own check ends it with a ParameterError
@pytest.mark.parametrize("sigma, S, msg", [
    (1.0, fld.zero_field(2, 1.0), "need 0 < sigma < s"),
    (1.5, fld.zero_field(2, 1.0), "need 0 < sigma < s"),
    (0.0, fld.zero_field(2, 1.0), "need 0 < sigma < s"),
    (math.nan, fld.zero_field(2, 1.0), "need 0 < sigma < s"),
    (0.25, _rand(3, eps=1e-9), "S must be a constant field")])
def test_step_rejects_bad_sigma_or_S(golden_freq, golden_consts, sigma, S,
                                     msg):
    with pytest.raises(ParameterError, match=msg):
        avg.averaging_step(golden_freq, S, _rand(1, eps=1e-6), 512.0, sigma,
                           golden_consts)


def test_step_rejects_oversized_S(golden_freq, golden_consts):
    P = _rand(1, eps=1e-6)
    S = fld.constant_field([1e-3, 0.0], 1.0)
    with pytest.raises(DomainError):
        avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts)


def test_step_budget_chain(golden_freq, golden_consts):
    P = _rand(8, eps=1e-6)
    S = fld.zero_field(2, 1.0)
    res = avg.averaging_step(golden_freq, S, P, 512.0, 0.25, golden_consts)
    eps = fld.norm(P, 1.0)
    b = golden_consts.b
    rec = res.record
    # recorded terms reproduce the coarse chain: each half below eps/(2b)
    assert rec["tail_term"] <= eps / (2 * b)
    assert rec["bracket_term"] <= eps / (2 * b)
    assert rec["q_eps"] == pytest.approx(rec["q"] * eps)


# ---------------------------------------------------------------------------
# the counter-term shift: scheduler._forward_pass runs each step at
# S = X_{x_m - [P_m]} - X_alpha with x_m = alpha + beta + [P_m]
# ---------------------------------------------------------------------------

def _one_step(alpha, consts, P, beta, monkeypatch, enforce=True):
    """One forward-pass step from alpha + beta; returns the pass's layers,
    its defect and the constant S the step was called with."""
    seen, step = [], avg.averaging_step

    def spy(alpha, S, P, *args, **kwargs):
        seen.append(S.constant_part())
        return step(alpha, S, P, *args, **kwargs)

    sched = sch.Schedule(consts=consts, s=1.0, Q0=512.0,
                         eps0=fld.norm(P, 1.0))
    with monkeypatch.context() as mp:
        mp.setattr(avg, "averaging_step", spy)
        flows, trace, defect, _, _ = sch._forward_pass(
            alpha, P, np.asarray(beta, dtype=float), sched, 0.0, 1, enforce)
    assert len(trace) == len(seen) == 1
    return flows, defect, seen[0]


def test_counter_term_translation(golden_freq, golden_consts, monkeypatch):
    P = fld.constant_field([1e-7, 0.0], 1.0)
    # x_0 = alpha: the step runs at the shifted frequency alpha - [P]
    flows, defect, S = _one_step(golden_freq, golden_consts, P,
                                 [-1e-7, 0.0], monkeypatch)
    np.testing.assert_allclose(S, [-1e-7, 0.0])
    # and leaves no P_plus, so the pass ends at x_0 = alpha, with no flow
    np.testing.assert_allclose(defect, [0.0, 0.0], atol=1e-16)
    assert flows == ()


def test_counter_term_zero_average(golden_freq, golden_consts, monkeypatch):
    P = fld.make_field(2, 1.0, {(1, 0): [1e-11, 1e-11j]})
    _, _, S = _one_step(golden_freq, golden_consts, P, [0.0, 0.0],
                        monkeypatch)
    np.testing.assert_array_equal(S, [0.0, 0.0])


def test_counter_term_domain_error(golden_freq, golden_consts, monkeypatch):
    P = _rand(1, eps=1e-6)
    with pytest.raises(DomainError, match="outside the domain"):
        _one_step(golden_freq, golden_consts, P, [1e-3, 1e-3], monkeypatch)
    # relaxed passes run off the domain
    _, _, S = _one_step(golden_freq, golden_consts, P, [1e-3, 1e-3],
                        monkeypatch, enforce=False)
    np.testing.assert_allclose(S, [1e-3, 1e-3])


def test_counter_term_shift_stays_in_budget(golden_freq, golden_consts,
                                            monkeypatch):
    P = _rand(12, eps=1e-6)
    eps = fld.norm(P, 1.0)
    # x_0 = alpha + c*eps/2, the middle of the domain
    beta = golden_consts.c * eps * 0.5 - P.constant_part()
    _, _, S = _one_step(golden_freq, golden_consts, P, beta, monkeypatch)
    assert np.abs(S).max() <= golden_consts.d * eps * (1 + 1e-9)
    # S is rounded as (x_0 - [P]) - alpha, the frequency the step reaches
    x0 = (golden_freq.alpha + beta) + P.constant_part()
    np.testing.assert_array_equal(
        S, (x0 - P.constant_part()) - golden_freq.alpha)


def test_divisor_overflow_raises_instead_of_wrapping():
    # q*(k.omega) reaches 2*(2^62 + 1) > 2^63 - 1 at |k| = 2
    huge = RationalApprox(q=2 ** 62, p=np.array([1]), Q=2.0 ** 62,
                          varpi=np.zeros(2))
    P = fld.make_field(2, 1.0, {(2, 1): [1.0, 0.0]})
    with pytest.raises(ParameterError, match="overflow"):
        ref.omega_average(P, huge)
    with pytest.raises(ParameterError, match="overflow"):
        avg._divisors(P, huge)
    # at |k| = 1 the bound 2^62 + 1 fits, and the divisors are exact
    Q1 = fld.make_field(2, 1.0, {(1, -1): [1.0, 0.0]})
    V = _solve(Q1, huge)
    np.testing.assert_array_equal(avg._divisors(V, huge),
                                  [-(2 ** 62 - 1), 2 ** 62 - 1])


# ---------------------------------------------------------------------------
# the step's one divisor split
# ---------------------------------------------------------------------------

def _workload(name, golden_freq, plastic_freq):
    n, s, eps, modes, seed, k_max = WORKLOADS[name]
    alpha = golden_freq if n == 2 else plastic_freq
    return alpha, random_field(n, s, eps, modes, seed, k_max=k_max), s


def _first_step(alpha, P, s, **kwargs):
    """averaging_step at step 0 of the schedule run() would use."""
    consts = sch.constants(alpha.n, alpha.tau, alpha.gamma, alpha.gamma_bar)
    q0, _ = sch.select_Q(consts, s)
    return avg.averaging_step(alpha, fld.zero_field(P.n, s), P, q0, s / 4.0,
                              consts, **kwargs)


def _counting(monkeypatch, module, name):
    calls, fn = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("name", ["W1", "W4", "W6"])
def test_step_splits_P_once(name, golden_freq, plastic_freq, monkeypatch):
    alpha, P, s = _workload(name, golden_freq, plastic_freq)
    divisors = _counting(monkeypatch, avg, "_divisors")
    subs = _counting(monkeypatch, fld, "sub")
    # the division runs through the module binding, where a tracer sees it
    solves = _counting(monkeypatch, avg, "solve_homological")
    res = _first_step(alpha, P, s)
    assert len(res.V.modes) and len(res.P_plus.modes)
    assert (len(divisors), len(subs), len(solves)) == (1, 0, 1)


def _old_split(P, ap):
    """head, B and V as the step formed them with sub: the reference."""
    s, keep = P.width_s, avg._divisors(P, ap) == 0
    p_omega = dataclasses.replace(P, modes=P.modes[keep], coef=P.coef[keep])
    rhs = fld.sub(P, p_omega)
    factor = -1j * (ap.q / (fld.TWO_PI * avg._divisors(rhs, ap)))
    V = dataclasses.replace(rhs, coef=rhs.coef * factor[:, None])
    head = fld.sub(p_omega, fld.constant_field(P.constant_part(), s))
    return head, fld.sub(p_omega, P), V


def _assert_same_bits(x, y):
    assert (x.n, x.width_s, x.k_max) == (y.n, y.width_s, y.k_max)
    np.testing.assert_array_equal(x.modes, y.modes)
    assert x.coef.tobytes() == y.coef.tobytes()     # +0.0 is not -0.0


def _split_cases(golden_freq, plastic_freq):
    """(alpha, Q, S, P, head, A, B, V) of every averaging step a run of
    W1-W6 makes, every pass included, and of one step on a field with zero
    coefficient components, in mode 0 and in a non-resonant mode."""
    cases, steps = [], []
    step, series = avg.averaging_step, fld.lie_series

    def step_spy(alpha, S, P, Q, *args, **kwargs):
        steps.append((alpha, Q, S, P))
        return step(alpha, S, P, Q, *args, **kwargs)

    def series_spy(op, V, v_norm, head, a, b, *args, **kwargs):
        if kwargs.get("tag") == "averaging_step":
            cases.append((*steps[-1], head, a, b, V))
        return series(op, V, v_norm, head, a, b, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(avg, "averaging_step", step_spy)
        mp.setattr(fld, "lie_series", series_spy)
        for name in WORKLOADS:
            alpha, P, s = _workload(name, golden_freq, plastic_freq)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # W5 is uncertified
                sch.run(alpha, P, s, sch.RunOptions(force=name == "W5"))
        P = fld.make_field(2, 1.0, {(0, 0): [1e-7, 0.0],
                                    (0, 1): [2e-10, 0.0],
                                    (1, 2): [0.0, 3e-15 - 1e-15j]})
        _first_step(golden_freq, P, 1.0, enforce=False)
    return cases


def test_step_split_matches_the_sub_formulas(golden_freq, plastic_freq):
    cases = _split_cases(golden_freq, plastic_freq)
    assert len(cases) > 6 * 3
    zero_parts = shifted = 0
    for alpha, Q, S, P, head, A, B, V in cases:
        ap = dirichlet_approx(alpha, Q)
        for new, old in zip((head, B, V), _old_split(P, ap)):
            _assert_same_bits(new, old)
        # A = X_varpi + S + P as the chain of adds sums it; the series'
        # merge takes each row from 0.0, so a -0.0 of P may stay in A
        old = fld.add(fld.constant_field(ap.varpi, P.width_s), fld.add(S, P))
        np.testing.assert_array_equal(A.modes, old.modes)
        assert (0.0 + A.coef).tobytes() == old.coef.tobytes()
        shifted += bool(S.coef.any())
        zero_parts += int((B.coef.real == 0).sum() + (B.coef.imag == 0).sum())
    # the zero components of the last field reach B, as +0.0, and later
    # passes shift the frequency by a nonzero S
    assert zero_parts and shifted
