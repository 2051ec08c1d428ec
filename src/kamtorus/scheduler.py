"""The full iteration: constants, geometric schedules, feasibility, and
the outer loop producing the counter-term beta and the conjugacy Phi.

The counter-term is found as a fixed point: a forward pass of averaging
steps starting from frequency alpha + beta measures the endpoint defect
(how far the final frequency drifts from alpha), and beta is corrected by
that defect.  Step m checks the counter-term domain |x_m - alpha| <= c*eps
and averages at S = X_{x_m - [P_m]} - X_alpha.  Passes run with
assertions relaxed while the defect settles, since their iterates are off
the certified budget; one more pass then re-runs the whole chain with every
bound enforced.

Phi is kept as its flows, one (V, width of P_plus) per non-constant step;
RunResult.u composes the displacement Phi - Id only when first read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import averaging as avg
from . import field as fld
from .diophantine import FrequencyVector
from .embedding import displacement
from .errors import (ContractionError, DomainError, InfeasibleError,
                     ParameterError, ThresholdError)
from .field import FourierVectorField

_Q_CAP_EXP = 64           # select_Q searches Q0 = 2^j, j <= this
_BETA_PASS_LIMIT = 12


@dataclass(frozen=True)
class KamConstants:
    n: int
    tau: float
    a: float
    b: float
    c: float
    d: float
    gamma_star: float


def constants(n: int, tau: float, gamma: float,
              gamma_bar: float) -> KamConstants:
    """a = 1+(n-1)tau, b = 4^{na}, c = 1/(b-1), d = c+1 = b/(b-1), and the
    resonance constant gamma_star."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not 0 <= tau < math.inf:
        raise ParameterError(f"tau must be finite and >= 0, got {tau}")
    if not 0 < gamma <= 1:
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    if not 0 < gamma_bar < math.inf:
        raise ParameterError(
            f"gamma_bar must be finite and > 0, got {gamma_bar}")
    a = 1.0 + (n - 1) * tau
    try:
        b = 4.0 ** (n * a)
    except OverflowError:
        b = math.inf
    if b == math.inf:
        raise ParameterError(
            f"b = 4^(n*a) overflows at n={n}, tau={tau} (a = {a:g})")
    binv = 1.0 / b
    c = binv / (1.0 - binv)
    d = c + 1.0
    gamma_star = (gamma * gamma_bar ** ((n - 1) / a) / n) \
        ** (1.0 / (n + (n - 1) * tau))
    return KamConstants(n=n, tau=tau, a=a, b=b, c=c, d=d,
                        gamma_star=gamma_star)


@dataclass(frozen=True)
class Schedule:
    consts: KamConstants
    s: float
    Q0: float
    eps0: float

    def eps(self, m: int) -> float:
        return self.consts.b ** (-m) * self.eps0

    def Q(self, m: int) -> float:
        return 4.0 ** (self.consts.a * m) * self.Q0

    def sigma(self, m: int) -> float:
        return 2.0 ** (-m - 2) * self.s


def select_Q(consts: KamConstants, s: float):
    """Smallest Q0 on the geometric grid 2^j making the middle and tail
    conditions hold at m = 0 (they then improve monotonically in m), plus
    the threshold eps_star = Q0^{-n} below which the first condition holds.
    """
    if not 0 < s < math.inf:
        raise ParameterError(f"s must be finite and > 0, got {s}")
    sigma0 = s / 4.0
    for j in range(_Q_CAP_EXP + 1):
        q0 = float(2 ** j)
        _, last = avg.step_conditions(consts, q0, sigma0, 0.0)
        if not last["ok"][0]:
            break           # Q0^n overflows, and does for every larger Q0
        if last["middle"] <= 1.0 and last["tail"] <= 1.0:
            # both ratios improve with m: Q_m*sigma_m grows like (4^a/2)^m
            # and Q_m^{1/a}*sigma_m like 2^m
            return q0, q0 ** (-consts.n)
    binding = ("threshold" if not last["ok"][0] else
               "middle" if last["middle"] > last["tail"] else "tail")
    raise InfeasibleError(
        f"no Q0 <= 2^{_Q_CAP_EXP} satisfies the step conditions; "
        f"binding condition: {binding} (lhs={last[binding]:.6g})")


@dataclass
class RunOptions:
    tol: float | None = None        # default 1e-14 * norm(P, s)
    max_steps: int = 64
    force: bool = False


@dataclass
class RunResult:
    flows: tuple                # (V, width of P_plus) per non-constant step
    displacement_bound: float   # sum of norm(V, V.width_s): |Phi - Id| <= it
    beta: np.ndarray
    trace: list
    schedule: Schedule
    eps: float
    eps_star: float
    final_norm: float
    passes: int
    ledger: dict                # {tag: discarded amount} of the final pass

    @cached_property
    def u(self) -> FourierVectorField:
        """Phi - Id, composed from flows on first use."""
        return displacement(self.schedule.consts.n, self.flows)


def _forward_pass(alpha: FrequencyVector, P: FourierVectorField, beta,
                  sched: Schedule, tol: float, max_steps: int, enforce: bool):
    """One pass of averaging steps starting at frequency alpha + beta.

    Returns (flows, trace, defect, final_norm, ledger) where defect is how
    far the endpoint frequency misses alpha (beta is a fixed point when it
    vanishes) and ledger is what this pass's steps discarded.
    """
    consts, a = sched.consts, np.asarray(alpha.alpha)
    flows, trace, ledger = [], [], {}
    u = a + beta
    Pm, norm_m, m = P, sched.eps0, 0
    while m < max_steps and norm_m > tol:
        p_avg = Pm.constant_part()
        x_m = u + p_avg
        dist = float(np.abs(x_m - a).max())
        if enforce and dist > (consts.c * norm_m * (1 + 1e-9)
                               + avg._ulp_floor(x_m)):
            raise DomainError(
                f"|x - alpha| = {dist:.6g} outside the domain c*eps = "
                f"{consts.c * norm_m:.6g}")
        S = fld.constant_field((x_m - p_avg) - a, Pm.width_s)
        res = avg.averaging_step(
            alpha, S, Pm, sched.Q(m), sched.sigma(m), consts,
            ledger=ledger, enforce=enforce, eps_ref=sched.eps(m))
        if not Pm.is_constant:
            flows.append((res.V, res.P_plus.width_s))
        trace.append({"m": m, "Q_m": sched.Q(m), "sigma_m": sched.sigma(m),
                      **res.record})
        u, Pm, norm_m = x_m, res.P_plus, res.record["norm_P_plus"]
        m += 1
    defect = (u + Pm.constant_part()) - a
    return tuple(flows), trace, defect, norm_m, ledger


def run(alpha: FrequencyVector, P: FourierVectorField, s: float,
        opts: RunOptions | None = None) -> RunResult:
    """Find beta and Phi with Phi^*(X_alpha + P + X_beta) = X_alpha.

    Iterates relaxed forward passes, correcting beta by the measured
    endpoint defect until it is negligible; the next pass runs with all
    certified bounds enforced (unless opts.force), absorbs its own defect and
    is the one whose flows, trace and ledger the result keeps.
    """
    opts = opts or RunOptions()
    if opts.tol is not None and not opts.tol >= 0:
        raise ParameterError(f"tol must be >= 0, got {opts.tol}")
    if opts.max_steps < 1:
        raise ParameterError(f"max_steps must be >= 1, got {opts.max_steps}")
    fld.check_dimension(alpha.n, P=P)
    if not 0 < s <= P.width_s:
        raise ParameterError(
            f"requested width s={s} exceeds the field width {P.width_s}")
    P = replace(P, width_s=s)
    consts = constants(alpha.n, alpha.tau, alpha.gamma, alpha.gamma_bar)
    Q0, eps_star = select_Q(consts, s)
    eps = fld.norm(P, s)
    if eps > eps_star:
        msg = (f"norm(P, s) = {eps:.6g} exceeds the certified threshold "
               f"eps_star = {eps_star:.6g} (Q0 = {Q0:g})")
        if not opts.force:
            raise ThresholdError(msg)
        warnings.warn(msg + "; proceeding without certification",
                      stacklevel=2)
    sched = Schedule(consts=consts, s=s, Q0=Q0, eps0=eps)
    tol = opts.tol if opts.tol is not None else 1e-14 * eps
    beta = np.zeros(alpha.n)
    # the endpoint frequency lives near alpha ~ O(1), so the defect cannot
    # resolve below a few ulps of alpha regardless of eps
    defect_tol = max(tol, 1e-15 * eps, avg._ulp_floor(alpha.alpha))
    settled = False
    for passes in range(1, _BETA_PASS_LIMIT + 2):
        enforce = settled and not opts.force
        flows, trace, defect, final_norm, ledger = _forward_pass(
            alpha, P, beta, sched, tol, opts.max_steps, enforce=enforce)
        beta = beta - defect     # the last pass absorbs its remainder exactly
        if settled:
            break
        settled = np.abs(defect).max() <= defect_tol
        if not settled and passes == _BETA_PASS_LIMIT:
            raise ContractionError(
                "counter-term fixed point did not settle within "
                f"{_BETA_PASS_LIMIT} passes (last defect "
                f"{np.abs(defect).max():.3g})")

    disp = sum((step["norm_V"] for step in trace), 0.0)
    if enforce and np.abs(beta).max() > consts.d * eps * (1 + 1e-9):
        raise ContractionError(
            f"|beta| = {np.abs(beta).max():.6g} exceeds d*eps = "
            f"{consts.d * eps:.6g}")
    fld.charge(ledger, "run.stopping_truncation",
               final_norm * consts.b / (consts.b - 1.0))
    return RunResult(flows=flows, displacement_bound=disp, beta=beta,
                     trace=trace, schedule=sched, eps=eps, eps_star=eps_star,
                     final_norm=final_norm, passes=passes, ledger=ledger)

