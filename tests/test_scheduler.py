import math
import warnings

import numpy as np
import pytest

from kamtorus import averaging as avg
from kamtorus import field as fld
from kamtorus import scheduler as sch
from kamtorus.embedding import displacement
from kamtorus.errors import (ContractionError, InfeasibleError, ParameterError,
                             ThresholdError)
from kamtorus.generate import random_field

import reference as ref
from conftest import WORKLOADS


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_n2_tau0():
    c = sch.constants(2, 0.0, 1.0, 1.0)
    assert c.a == 1.0
    assert c.b == 16.0
    assert c.c == pytest.approx(1.0 / 15.0)
    assert c.d == pytest.approx(16.0 / 15.0)
    assert c.gamma_star == pytest.approx((1.0 / 2.0) ** (1.0 / 2.0))


def test_constants_n3_tau0():
    c = sch.constants(3, 0.0, 1.0, 1.0)
    assert c.a == 1.0
    assert c.b == 64.0
    assert c.c == pytest.approx(1.0 / 63.0)
    assert c.d == pytest.approx(64.0 / 63.0)


def test_constants_identity_c_plus_one_is_d():
    for n, tau in [(2, 0.0), (2, 0.5), (3, 0.1), (4, 1.0)]:
        c = sch.constants(n, tau, 0.3, 0.4)
        assert c.c + 1.0 == pytest.approx(c.d, rel=1e-15)
        assert c.b == 4.0 ** (n * c.a)


def test_constants_validation():
    with pytest.raises(Exception):
        sch.constants(1, 0.0, 1.0, 1.0)
    with pytest.raises(Exception):
        sch.constants(2, -0.5, 1.0, 1.0)
    with pytest.raises(Exception):
        sch.constants(2, 0.0, 0.0, 1.0)
    with pytest.raises(ParameterError, match="gamma_bar must be finite"):
        sch.constants(2, 0.0, 0.38, math.inf)
    for n, tau in ((2, 1e3), (3, 1e308)):       # b = 4^(n*a) overflows
        with pytest.raises(ParameterError, match="overflows"):
            sch.constants(n, tau, 0.38, 0.38)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_identities(golden_freq):
    c = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    sched = sch.Schedule(c, s=1.0, Q0=512.0, eps0=1e-6)
    for m in range(0, 65, 8):
        # Q_m^n * eps_m is m-independent
        assert sched.Q(m) ** 2 * sched.eps(m) == pytest.approx(
            512.0 ** 2 * 1e-6, rel=1e-12)
        # Q_m^(1/a) * sigma_m doubles each step
        assert sched.Q(m) ** (1.0 / c.a) * sched.sigma(m) == pytest.approx(
            2.0 ** m * 512.0 * 0.25, rel=1e-12)


@pytest.mark.parametrize("name", ["W1", "W6"])
def test_run_widths_step_down_by_sigma(solved, name):
    # s_0 = s and s_{m+1} = s_m - sigma_m: step m's V lives on s_m and its
    # P_plus on s_{m+1}, all above s/2.  On W6 (s = 0.1) the closed form
    # s/2 + s*2^-(m+1) falls below these stepped widths from m = 2 on.
    _, _, res = solved(name)
    s = width = res.schedule.s
    assert len(res.flows) == len(res.trace) >= 2
    for m, (V, w_plus) in enumerate(res.flows):
        assert V.width_s == width
        width -= res.schedule.sigma(m)
        assert w_plus == width > s / 2


def test_schedule_eps_step_identity():
    c = sch.constants(2, 0.0, 0.3, 0.4)
    sched = sch.Schedule(c, s=1.0, Q0=256.0, eps0=1e-5)
    for m in range(20):
        # d * eps_{m+1} == c * eps_m exactly (both are eps_m / (b - 1))
        assert c.d * sched.eps(m + 1) == pytest.approx(c.c * sched.eps(m),
                                                       rel=2e-16)


# ---------------------------------------------------------------------------
# select_Q
# ---------------------------------------------------------------------------

def test_select_q_golden(golden_freq):
    c = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    Q0, eps_star = sch.select_Q(c, 1.0)
    assert Q0 == 512.0
    assert eps_star == pytest.approx(512.0 ** -2)
    ok, _ = avg.step_conditions(c, Q0, 0.25, eps_star)
    assert ok


def test_select_q_monotone_in_width(golden_freq):
    c = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    Q_narrow, _ = sch.select_Q(c, 0.5)
    Q_wide, _ = sch.select_Q(c, 1.0)
    assert Q_wide <= Q_narrow


def test_select_q_monotone_in_gamma_star(golden_freq):
    weak = sch.constants(2, 0.0, golden_freq.gamma * 0.1,
                         golden_freq.gamma_bar * 0.1)
    strong = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    Q_weak, _ = sch.select_Q(weak, 1.0)
    Q_strong, _ = sch.select_Q(strong, 1.0)
    assert Q_strong <= Q_weak


def test_select_q_infeasible():
    c = sch.constants(2, 0.0, 1e-300, 1e-300)
    with pytest.raises(InfeasibleError):
        sch.select_Q(c, 1e-3)
    # Q0^40 overflows before the middle condition can hold
    with pytest.raises(InfeasibleError, match="threshold"):
        sch.select_Q(sch.constants(40, 0.0, 0.38, 0.38), 1.0)


def test_check_conditions_scaling(golden_freq):
    c = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    sched = sch.Schedule(c, 1.0, 512.0, eps0=512.0 ** -2)
    for m in range(6):
        ok, rep = avg.step_conditions(c, sched.Q(m), sched.sigma(m),
                                      c.b ** -m * sched.eps(m))
        assert ok, rep
    # an eps above the threshold at m=0 fails the first condition
    ok, rep = avg.step_conditions(c, sched.Q(0), sched.sigma(0),
                                  10 * 512.0 ** -2)
    assert not ok and not rep["ok"][0]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_zero_perturbation(golden_freq):
    P = fld.zero_field(2, 1.0)
    res = sch.run(golden_freq, P, 1.0)
    assert res.flows == ()
    np.testing.assert_array_equal(res.beta, [0.0, 0.0])
    assert res.final_norm == 0.0
    assert res.trace == []
    # the general path: a relaxed pass finds no defect, an enforced one
    # confirms it, and neither discards anything
    assert res.passes == 2
    assert res.ledger == {}


def test_run_constant_perturbation(golden_freq):
    P = fld.constant_field([1e-7, -3e-8], 1.0)
    res = sch.run(golden_freq, P, 1.0)
    np.testing.assert_allclose(res.beta, [-1e-7, 3e-8], atol=1e-20)
    assert res.flows == ()
    assert res.final_norm == 0.0


@pytest.mark.parametrize("name", ["W1", "W2", "W3", "W4", "W6"])
def test_run_keeps_each_certified_bound(solved, name):
    # the bounds the solver enforces only through norm(P_plus) <= eps/b,
    # the exact Dirichlet certificate q <= Q^(n-1) and the integer divisors
    _, _, res = solved(name)
    eps, consts, n = res.eps, res.schedule.consts, res.schedule.consts.n
    for m, entry in enumerate(res.trace):
        norm_P, norm_V = entry["norm_P"], entry["norm_V"]
        assert norm_P <= res.schedule.eps(m) * (1 + 1e-9)
        assert norm_V <= entry["Q_m"] ** (n - 1) * norm_P * (1 + 1e-9)
        # |q (k.omega)| >= 1 on every mode V keeps
        assert norm_V <= entry["q"] * norm_P / (2 * math.pi) * (1 + 1e-12)
    # step m's P_plus, at width s_m - sigma_m, is P_{m+1}; the last is where
    # run stops
    after = [entry["norm_P"] for entry in res.trace[1:]] + [res.final_norm]
    for entry, norm_next in zip(res.trace, after):
        assert entry["norm_P_plus"] == norm_next
        assert entry["norm_P_plus"] <= entry["norm_P"] / consts.b
    assert res.displacement_bound <= (1 - consts.b ** (-1 / n)) ** -1 \
        * res.schedule.Q0 ** (n - 1) * eps * (1 + 1e-9)
    assert res.displacement_bound == sum(fld.norm(V, V.width_s)
                                         for V, _ in res.flows)
    assert np.abs(res.beta).max() <= consts.d * eps
    assert res.final_norm <= 1e-14 * eps
    # ledger records the truncation charge
    assert sum(res.ledger.values()) >= res.final_norm


def test_run_raises_when_beta_exceeds_d_eps(golden_freq, monkeypatch):
    forward = sch._forward_pass

    def off(*args, enforce, **kw):
        flows, trace, defect, *rest = forward(*args, enforce=enforce, **kw)
        return (flows, trace, defect - 1e-3 if enforce else defect, *rest)

    monkeypatch.setattr(sch, "_forward_pass", off)
    with pytest.raises(ContractionError, match="exceeds d\\*eps"):
        sch.run(golden_freq, random_field(2, 1.0, 1e-6, 5, 1), 1.0)


def test_run_raises_when_beta_does_not_settle(golden_freq, monkeypatch):
    forward = sch._forward_pass

    def off(*args, **kw):
        flows, trace, _, *rest = forward(*args, **kw)
        return (flows, trace, np.full(2, 1e-3), *rest)

    monkeypatch.setattr(sch, "_forward_pass", off)
    with pytest.raises(ContractionError, match="did not settle"):
        sch.run(golden_freq, random_field(2, 1.0, 1e-6, 5, 1), 1.0)


@pytest.mark.parametrize("name,force,enforced", [
    ("W1", False, [False, False, True]), ("W4", False, [False, False, True]),
    ("W5", True, [False, False, False])])
def test_run_keeps_the_last_pass(golden_freq, plastic_freq, monkeypatch,
                                 name, force, enforced):
    # relaxed passes until the defect settles, then one more pass, enforced
    # unless forced; the result holds that pass's flows, trace and ledger
    n, s, eps, modes, seed, k_max = WORKLOADS[name]
    alpha = golden_freq if n == 2 else plastic_freq
    P = random_field(n, s, eps, modes, seed, k_max=k_max)
    forward, seen = sch._forward_pass, []

    def spy(*args, enforce):
        out = forward(*args, enforce=enforce)
        seen.append((enforce, out))
        return out

    monkeypatch.setattr(sch, "_forward_pass", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = sch.run(alpha, P, s, sch.RunOptions(force=force))
    assert [enforce for enforce, _ in seen] == enforced
    assert res.passes == len(seen)
    flows, trace, _, final_norm, ledger = seen[-1][1]
    assert res.flows is flows and res.trace is trace
    assert res.ledger is ledger and res.final_norm == final_norm
    # each pass charges a ledger of its own
    assert len({id(out[4]) for _, out in seen}) == len(seen)


# Answers of the solver on ROADMAP workloads, bit for bit: a refactor of the
# step or the pass must leave every one of them unchanged.
PINNED = {
    "W1": ([233, 987], 3, ["6.87517549557981e-08",
                           "5.1099861231307386e-08"]),
    "W4": ([35676949, 593775046], 3, ["-5.10702591327572e-14",
                                      "-2.7977620220553945e-14",
                                      "1.3322676295501878e-14"]),
    "W6": ([2584, 10946, 46368], 3, ["2.048802461018795e-09",
                                     "1.5227759053715317e-09"]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_pinned_answers(solved, name):
    _, _, res = solved(name)
    qs, passes, beta = PINNED[name]
    assert [entry["q"] for entry in res.trace] == qs
    assert len(res.trace) == len(qs)
    assert res.passes == passes
    assert sorted(res.ledger) == [
        "averaging_step.result_prune", "averaging_step.series_prune",
        "averaging_step.series_tail", "run.stopping_truncation"]
    assert [repr(float(v)) for v in res.beta] == beta


@pytest.mark.parametrize("s", [0.3, 0.37, 0.7])
def test_run_width_off_the_dyadic_grid(golden_freq, s):
    # s - sigma_0 - ... - sigma_{m-1} rounds below the closed-form width
    # s/2 + s*2^-(m+1) at some m for these s; the pass measures P_m on the
    # strip it lives on
    P = random_field(2, s, 1e-9 * s, 6, 0, k_max=4)
    res = sch.run(golden_freq, P, s)
    assert len(res.trace) >= 2
    assert res.final_norm <= 1e-14 * res.eps


def test_run_threshold_error(golden_freq):
    P = random_field(2, 1.0, 1e-2, 5, 1)
    with pytest.raises(ThresholdError):
        sch.run(golden_freq, P, 1.0)


def test_run_force_overrides_threshold(golden_freq):
    # uncertified but numerically fine: force proceeds with a warning
    P = random_field(2, 1.0, 1e-2, 5, 1)
    with pytest.warns(UserWarning):
        res = sch.run(golden_freq, P, 1.0, sch.RunOptions(force=True))
    assert res.final_norm <= 1e-14


def test_run_max_steps(golden_freq):
    P = random_field(2, 1.0, 1e-6, 5, 3)
    res = sch.run(golden_freq, P, 1.0, sch.RunOptions(tol=0.0, max_steps=3))
    assert len(res.trace) == 3


@pytest.mark.parametrize("opts", [sch.RunOptions(tol=-1.0),
                                  sch.RunOptions(tol=-5e-324),
                                  sch.RunOptions(tol=math.nan),
                                  sch.RunOptions(max_steps=0),
                                  sch.RunOptions(tol=0.0, max_steps=-2)])
def test_run_rejects_negative_tol_and_no_steps(golden_freq, monkeypatch,
                                                opts):
    def search(*args, **kwargs):
        raise AssertionError("searched before checking the options")

    monkeypatch.setattr(sch, "select_Q", search)
    monkeypatch.setattr(sch.avg, "averaging_step", search)
    with pytest.raises(ParameterError, match="tol|max_steps"):
        sch.run(golden_freq, random_field(2, 1.0, 1e-6, 5, 3), 1.0, opts)


@pytest.mark.parametrize("s", [1.0 + 1e-9, 2.0, math.inf])
def test_run_rejects_a_width_above_the_field_width(golden_freq, s):
    with pytest.raises(ParameterError, match="exceeds the field width 1.0"):
        sch.run(golden_freq, random_field(2, 1.0, 1e-6, 5, 3), s)


def test_run_rejects_a_field_of_another_dimension(golden_freq):
    P = random_field(3, 1.0, 1e-12, 4, 7, k_max=2)
    with pytest.raises(ParameterError, match="P is on T\\^3, alpha on T\\^2"):
        sch.run(golden_freq, P, 1.0)


# ---------------------------------------------------------------------------
# materialize: the displacement of Phi as a Fourier field
# ---------------------------------------------------------------------------

def test_materialize_identity(golden_freq):
    assert not displacement(2, ()).coeffs
    res = sch.run(golden_freq, fld.constant_field([1e-7, -2e-7], 1.0), 1.0)
    assert not res.u.coeffs


def test_materialize_run_output(golden_freq):
    P = random_field(2, 1.0, 1e-6, 5, 2)
    res = sch.run(golden_freq, P, 1.0)
    assert len(res.flows) >= 2
    pts = np.random.default_rng(0).uniform(0, 1, size=(30, 2))
    expect = pts
    for V, _ in reversed(res.flows):
        expect = ref.ode_flow(V, expect, 1.0)
    np.testing.assert_allclose(pts + fld.eval_many(res.u, pts),
                               expect, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["W1", "W4", "W6"])
def test_run_composes_u_once_on_first_read(solved, name, monkeypatch):
    alpha, P, _ = solved(name)
    calls = []

    def spy(n, flows):
        calls.append(flows)
        return displacement(n, flows)

    monkeypatch.setattr(sch, "displacement", spy)
    res = sch.run(alpha, P, P.width_s)
    assert calls == []
    u = res.u
    assert res.u is u
    assert len(calls) == 1 and calls[0] is res.flows
    expect = displacement(alpha.n, res.flows)
    assert (u.n, u.width_s, u.k_max) == (expect.n, expect.width_s,
                                         expect.k_max)
    assert u.modes.tobytes() == expect.modes.tobytes()
    assert u.coef.tobytes() == expect.coef.tobytes()    # bit for bit


def _translated(x: fld.FourierVectorField, c) -> fld.FourierVectorField:
    """theta -> x(theta + c): c_k -> c_k exp(2 pi i k.c)."""
    coef = x.coef * np.exp(2j * np.pi * (x.modes @ c))[:, None]
    return fld._field(x.n, x.width_s, x.modes, fld._symmetrized(coef))


@pytest.mark.parametrize("shift", ["half", "irrational"])
@pytest.mark.parametrize("name", ["W1", "W4", "W5", "W6"])
def test_run_commutes_with_translation(golden_freq, plastic_freq, name,
                                       shift):
    # P(. + c) is conjugated by Phi(. + c) - c with the same beta: a
    # translation keeps every norm and mode 0, which the schedule reads
    n, s, eps, modes, seed, k_max = WORKLOADS[name]
    alpha = golden_freq if n == 2 else plastic_freq
    c = (np.full(n, 0.5) if shift == "half"
         else np.sqrt([2.0, 3.0, 5.0][:n]) % 1)
    P = random_field(n, s, eps, modes, seed, k_max=k_max)
    opts = sch.RunOptions(force=name == "W5")     # W5 is uncertified
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = sch.run(alpha, P, s, opts)
        moved = sch.run(alpha, _translated(P, c), s, opts)
    assert [e["q"] for e in moved.trace] == [e["q"] for e in res.trace]
    assert moved.passes == res.passes
    assert moved.beta.tobytes() == res.beta.tobytes()
    assert np.array_equal(moved.u.modes, res.u.modes)
    w = moved.u.width_s
    gap = fld.norm(fld.sub(_translated(res.u, c), moved.u), w)
    assert gap <= 1e-13 * fld.norm(moved.u, w)
