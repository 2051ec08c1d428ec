"""Acceptance gate: every criterion prints one PASS/FAIL line.

Each test exercises one end-to-end guarantee of the package at the stated
tolerance; all must pass for the suite to be green.
"""
import time

import numpy as np
import pytest

from kamtorus import averaging as avg
from kamtorus import field as fld
from kamtorus import oracles as orc
from kamtorus import scheduler as sch
from kamtorus.diophantine import (FrequencyVector, dirichlet_approx,
                                  lower_denominator_bound)
from kamtorus.generate import random_field

import reference as ref
from conftest import GOLDEN, PLASTIC


def _report(name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def _corpus():
    """200 seeded random fields, n in {2,3}, paired with Q in {5,20}."""
    cases = []
    for i in range(200):
        n = 2 + (i % 2)
        k_max = 2 + (i % 7)          # up to 8 with the +1 below
        F = random_field(n, 1.0, 10.0 ** -(4 + i % 3), 4 + i % 5, i,
                         k_max=min(8, k_max + 1))
        Q = 5.0 if i % 4 < 2 else 20.0
        cases.append((F, Q))
    return cases


@pytest.fixture(scope="module")
def freqs(golden_freq, plastic_freq):
    return {2: golden_freq, 3: plastic_freq}


@pytest.fixture(scope="module")
def run_eps6(golden_freq):
    P = random_field(2, 1.0, 1e-6, 6, 2024, k_max=4)
    return P, sch.run(golden_freq, P, 1.0,
                      sch.RunOptions(tol=0.0, max_steps=8))


@pytest.fixture(scope="module")
def run_eps6_quarter(golden_freq, run_eps6):
    P, _ = run_eps6
    P4 = fld.scale(P, 0.25)
    return P4, sch.run(golden_freq, P4, 1.0)


def test_criterion_1_homological_exactness(freqs):
    t0 = time.time()
    worst = 0.0
    for F, Q in _corpus():
        ap = dirichlet_approx(freqs[F.n], Q)
        V = avg.solve_homological(F, avg._divisors(F, ap), ap.q)[1]
        # identity defect |[V, X_omega] - (F - [F]_omega)| / |F - [F]_omega|
        rhs = fld.sub(F, ref.omega_average(F, ap))
        rhs_norm = fld.norm(rhs, 1.0)
        if rhs_norm:
            x_omega = fld.constant_field(ap.omega, 1.0)
            defect = fld.sub(fld.lie_bracket(V, x_omega), rhs)
            worst = max(worst, fld.norm(defect, 1.0) / rhs_norm)
    dt = time.time() - t0
    _report("1 homological exactness",
            worst <= 1e-12 and dt < 10.0,
            f"max rel residual {worst:.3g}, {dt:.1f}s")


def test_criterion_2_projection_vs_quadrature(freqs):
    worst = 0.0
    for i, (F, Q) in enumerate(_corpus()):
        ap = dirichlet_approx(freqs[F.n], Q)
        proj = ref.omega_average(F, ap)
        sampler = ref.quadrature_time_average(F, ap.q, ap.omega)
        pts = np.random.default_rng(i).uniform(0, 1, size=(20, F.n))
        worst = max(worst,
                    float(np.abs(sampler(pts)
                                 - fld.eval_many(proj, pts)).max()))
    _report("2 averaging projection vs quadrature oracle",
            worst <= 1e-8, f"max deviation {worst:.3g}")


def test_criterion_3_dirichlet_property(freqs):
    rng = np.random.default_rng(77)
    bad = 0
    for i in range(1000):
        n = 2 + (i % 2)
        alpha_tilde = rng.uniform(0.0, 1.0, size=n - 1)
        Q = float(rng.integers(2, 51))
        f = FrequencyVector(n=n, alpha_tilde=alpha_tilde, tau=1.0,
                            gamma=0.5, gamma_bar=0.5)
        ap = dirichlet_approx(f, Q)
        if not (1 <= ap.q <= Q ** (n - 1) + 1e-9):
            bad += 1
        if np.abs(ap.q * alpha_tilde - ap.p).max() > 1.0 / Q * (1 + 1e-12):
            bad += 1
    # lower bound on Diophantine test vectors with estimated constants
    lower_ok = True
    for f in freqs.values():
        for Q in (5.0, 10.0, 20.0, 40.0):
            ap = dirichlet_approx(f, Q)
            if ap.q < lower_denominator_bound(f, ap) * (1 - 1e-12):
                lower_ok = False
    _report("3 Dirichlet box property + transference lower bound",
            bad == 0 and lower_ok, f"{bad} box violations")


def test_criterion_4_resonance_bound(golden_freq):
    # gamma_star and a as step_conditions takes them
    consts = sch.constants(golden_freq.n, golden_freq.tau, golden_freq.gamma,
                           golden_freq.gamma_bar)
    violations = []
    for Q in (5.0, 10.0, 20.0, 40.0):
        ap = dirichlet_approx(golden_freq, Q)
        cutoff = consts.gamma_star * Q ** (1.0 / consts.a)
        for k in ref.enumerate_resonant(ap, 4096):
            if np.abs(k).max() < cutoff:
                violations.append((Q, k))
    _report("4 resonant modes sit beyond the gamma*Q cutoff",
            not violations, f"{len(violations)} violations")


def test_criterion_5_inequality_suite():
    fails = {"flow": 0, "bracket": 0, "pullback": 0, "tail": 0}
    rng = np.random.default_rng(5)
    for seed in range(500):
        n = 2 + (seed % 2)
        # flow displacement <= |V|_s
        V = random_field(n, 1.0, 10.0 ** rng.uniform(-6, -2), 4, seed)
        pts = np.random.default_rng(seed).uniform(0, 1, size=(4, n))
        disp = np.abs(ref.ode_flow(V, pts, 1.0) - pts).max()
        if disp > fld.norm(V, 1.0) * (1 + 1e-9):
            fails["flow"] += 1
        # bracket bound |[X,V]|_{s-sigma} <= C sigma^-1 |X|_s |V|_s
        X = random_field(n, 1.0, 10.0 ** rng.uniform(-4, -1), 4, seed + 1000)
        sigma = rng.uniform(0.05, 0.5)
        lhs = fld.norm(fld.lie_bracket(X, V), 1.0 - sigma)
        rhs = (fld.bracket_norm_const(n) / sigma * fld.norm(X, 1.0)
               * fld.norm(V, 1.0))
        if lhs > rhs * (1 + 1e-9):
            fails["bracket"] += 1
        # pullback doubling bound under the smallness hypothesis
        sig2 = 0.25
        Vs = random_field(n, 1.0, sig2 / (4 * n) * rng.uniform(0.1, 0.9),
                          4, seed + 2000)
        Y = random_field(n, 1.0, 10.0 ** rng.uniform(-3, -1), 4, seed + 3000)
        out = ref.lie_pullback(Y, Vs, 1.0, sig2, 1e-15)
        if fld.norm(out, 1.0 - sig2) > 2.0 * fld.norm(Y, 1.0) * (1 + 1e-9):
            fails["pullback"] += 1
        # tail bound with the exponential factor
        K = float(rng.integers(1, 9))
        sig3 = rng.uniform(0.05, 0.5)
        _, tail = ref.tail_split(V, K)
        if (fld.norm(tail, 1.0 - sig3)
                > ref.tail_bound(n, sig3, K) * fld.norm(V, 1.0)):
            fails["tail"] += 1
    total = sum(fails.values())
    _report("5 majorant-norm inequality suite (flow/bracket/pullback/tail)",
            total == 0, f"failures {fails}")


def test_criterion_6_single_step_contraction(golden_freq):
    t0 = time.time()
    consts = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    Q0, _ = sch.select_Q(consts, 1.0)
    P = random_field(2, 1.0, 1e-6, 6, 99, k_max=4)
    eps = fld.norm(P, 1.0)
    S = fld.zero_field(2, 1.0)
    res = avg.averaging_step(golden_freq, S, P, Q0, 0.25, consts)
    pp = fld.norm(res.P_plus, 0.75)
    disp = fld.norm(res.V, res.V.width_s)
    dt = time.time() - t0
    _report("6 single-step contraction",
            pp <= eps / 16.0 and disp <= Q0 * eps and dt < 30.0,
            f"|P+| = {pp:.3g} <= eps/16 = {eps / 16:.3g}, "
            f"|Phi1-Id| = {disp:.3g} <= Q*eps = {Q0 * eps:.3g}, {dt:.1f}s")


def test_criterion_7_geometric_contraction(run_eps6, plastic_freq):
    P, res = run_eps6
    ok = True
    detail = []
    prev = res.eps
    for m, entry in enumerate(res.trace):
        env = res.schedule.eps(m)
        if entry["norm_P"] > env * (1 + 1e-9):
            ok = False
        if m > 0 and prev > 0 and entry["norm_P"] / prev > 1.0 / 16.0:
            ok = False
        prev = entry["norm_P"]
    detail.append(f"n=2: {len(res.trace)} active steps, "
                  f"final norm {res.final_norm:.3g}")
    # trailing steps up to m=8 carry P identically zero, satisfying the
    # envelope trivially; the run records only the active prefix
    if res.final_norm > res.schedule.eps(len(res.trace)):
        ok = False

    P3 = random_field(3, 1.0, 1e-12, 4, 7, k_max=2)
    res3 = sch.run(plastic_freq, P3, 1.0, sch.RunOptions(tol=0.0,
                                                         max_steps=8))
    for m, entry in enumerate(res3.trace):
        if entry["norm_P"] > res3.schedule.eps(m) * (1 + 1e-9):
            ok = False
    detail.append(f"n=3: {len(res3.trace)} active steps, "
                  f"final norm {res3.final_norm:.3g}")
    _report("7 geometric contraction envelope (n=2 golden, n=3 tau=0.1)",
            ok, "; ".join(detail))


def test_criterion_8_conjugacy_and_shadowing(golden_freq, run_eps6):
    t0 = time.time()
    P, res = run_eps6
    u = res.u
    rep = orc.conjugacy_report(golden_freq, P, u, res.beta, 32)
    dev, = orc.orbit_shadowing_check(golden_freq, P, [u], res.beta,
                                     T=100.0, samples=25)
    dt = time.time() - t0
    _report("8 conjugacy residual and orbit shadowing",
            rep["sup_residual"] <= 1e-10 and dev <= 1e-7 and dt < 300.0,
            f"residual {rep['sup_residual']:.3g} <= 1e-10, "
            f"orbit {dev:.3g} <= 1e-7, {dt:.0f}s")


def test_criterion_9_linear_scaling(run_eps6, run_eps6_quarter):
    _, res = run_eps6
    _, res4 = run_eps6_quarter
    beta_ok = np.abs(res4.beta).max() <= np.abs(res.beta).max() / 2.0
    disp_ok = (res4.displacement_bound
               <= res.displacement_bound / 2.0)
    _report("9 linear scaling of beta and displacement in eps",
            beta_ok and disp_ok,
            f"|beta| {np.abs(res.beta).max():.3g} -> "
            f"{np.abs(res4.beta).max():.3g}, disp "
            f"{res.displacement_bound:.3g} -> "
            f"{res4.displacement_bound:.3g}")


def test_criterion_10_pullback_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        n = 2 + (seed % 2)
        Y = random_field(n, 1.0, 10.0 ** (-3 - seed % 3), 4, seed + 4000)
        V = random_field(n, 1.0, 10.0 ** (-4 - seed % 3), 4, seed + 5000)
        series = ref.lie_pullback(Y, V, 1.0, 0.25, 1e-18)
        pts = np.random.default_rng(seed).uniform(0, 1, size=(6, n))
        oracle = ref.grid_pullback_oracle(Y, V, pts, mode="variational")
        worst = max(worst, float(np.abs(
            oracle - fld.eval_many(series, pts)).max()))
    _report("10 Lie-series pullback vs flow oracle",
            worst <= 1e-9, f"max deviation {worst:.3g}")


def test_criterion_11_schedule_identities(golden_freq):
    c = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    sched = sch.Schedule(c, s=1.0, Q0=512.0, eps0=1e-6)
    ok = True
    for m in range(65):
        qn_eps = sched.Q(m) ** c.n * sched.eps(m)
        if abs(qn_eps / (512.0 ** 2 * 1e-6) - 1.0) > 1e-12:
            ok = False
        lhs = sched.Q(m) ** (1.0 / c.a) * sched.sigma(m)
        rhs = 2.0 ** m * 512.0 ** (1.0 / c.a) * sched.sigma(0)
        if abs(lhs / rhs - 1.0) > 1e-12:
            ok = False
        if m < 64:
            a, b = c.d * sched.eps(m + 1), c.c * sched.eps(m)
            if abs(a - b) > np.spacing(max(abs(a), abs(b))):
                ok = False
    _report("11 schedule identities to 1e-12 relative / 1 ulp", ok)
