"""A single certified quasi-periodic averaging step.

Along a rational frequency omega = (1, p/q) the homological equation
[V, X_omega] = P - [P]_omega is diagonal on Fourier modes with divisors
2*pi*i*(k.omega) bounded below by 2*pi/q: no small divisors.  The time-1
flow of V then pulls Y = X_alpha + S + P back to X_alpha + S + [P] + P_plus
with P_plus quadratically small, assembled here as a Lie series regrouped
so that no O(1) cancellation occurs:

    P_plus = ([P]_omega - [P])
           + sum_{m>=1} (1/m!) ad_V^m ( A + B/(m+1) ),

with A = X_varpi + S + P, B = [P]_omega - P and ad_V F = [F, V].  This is
algebraically identical to pulling back Y and subtracting the identified
terms, but the subtraction is performed termwise before any magnitudes
grow, so the result stays accurate when norm(P) is near the floating
floor.

A step reads the exact integer divisor q*(k.omega) of each mode of P
once; [P]_omega, P - [P]_omega, V and B are rows of P selected by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import field as fld
from .diophantine import FrequencyVector, RationalApprox, dirichlet_approx
from .errors import (ContractionError, DomainError, ParameterError,
                     StepConditionError)
from .field import FourierVectorField


@dataclass(frozen=True)
class StepResult:
    """P_plus, V and the step's JSON record: norm_P, norm_P_plus, norm_V,
    (q, p), [P], tail_term = |[P]_omega - [P]| and bracket_term = |Lie
    series| at width s - sigma, and step_conditions' report."""

    P_plus: FourierVectorField
    V: FourierVectorField
    record: dict


def _ulp_floor(x: np.ndarray) -> float:
    """Eight ulps of a frequency vector x ~ O(1): a radius measured around
    x cannot resolve below this, however small eps is."""
    return 8.0 * np.finfo(float).eps * max(1.0, float(np.abs(x).max()))


def _divisors(P: FourierVectorField, approx: RationalApprox) -> np.ndarray:
    """q*(k.omega) = k.(q, p) for every mode of P, exact in int64."""
    bound = P.k_max * (approx.q + sum(abs(int(v)) for v in approx.p))
    if bound > np.iinfo(np.int64).max:
        raise ParameterError(
            f"divisors up to {bound} (k_max={P.k_max}, q={approx.q}) "
            "overflow int64")
    return P.modes @ approx.q_omega()


def _rows(P: FourierVectorField, keep: np.ndarray) -> FourierVectorField:
    return fld._field(P.n, P.width_s, P.modes, P.coef, keep)


def solve_homological(P: FourierVectorField, d: np.ndarray, q: int):
    """(P - [P]_omega, V, norm(V)) with [V, X_omega] = P - [P]_omega, from
    the divisors d = q*(k.omega) of P's modes (`_divisors(P, approx)`):
    V_k = P_k * q / (2*pi*i * d_k) where d_k != 0.  Each d_k is a nonzero
    integer, so |V_k| <= q |P_k| / (2*pi) and norm(V) <= q * norm(P -
    [P]_omega) / (2*pi): no input can break the divisor bound, and none
    is checked."""
    live = d != 0
    rhs = _rows(P, live)
    # q / (2 pi i d) = -i q/(2 pi d), rounded as that one real division
    factor = -1j * (q / (fld.TWO_PI * d[live]))
    V = replace(rhs, coef=rhs.coef * factor[:, None])
    return rhs, V, fld.norm(V, P.width_s)


def step_conditions(consts, Q: float, sigma: float, eps: float) -> tuple:
    """Sufficient smallness conditions for one step, with this package's
    explicit constants.  Returns (ok, report); report maps condition name
    to its left-hand side (each must be <= 1).

    1. Q^n * eps <= 1                  (perturbation below threshold)
    2. C_mid / (Q * sigma) <= 1        (Lie series / bracket budget)
       with C_mid = 4 * b * bracket_norm_const(n) * (d + 2) / pi.
    3. 2 * b * exp(-2*pi*gamma_star*Q^{1/a}*sigma) <= 1
                                       (resonant modes beyond the cutoff)
    """
    if not 0 < sigma < math.inf:
        raise ParameterError(f"sigma must be finite and > 0, got {sigma}")
    if not 1 <= Q < math.inf:
        raise ParameterError(f"Q must be finite and >= 1, got {Q}")
    n = consts.n
    c_mid = 4.0 * consts.b * fld.bracket_norm_const(n) * (consts.d + 2) / np.pi
    try:
        lhs1 = Q ** n * eps
    except OverflowError:       # Q^n beyond the float range fails condition 1
        lhs1 = math.inf
    lhs2 = c_mid / (Q * sigma)
    with np.errstate(under="ignore"):
        lhs3 = 2.0 * consts.b * math.exp(
            -fld.TWO_PI * consts.gamma_star * Q ** (1.0 / consts.a) * sigma)
    report = {"threshold": lhs1, "middle": lhs2, "tail": lhs3,
              "C_mid": c_mid}
    ok = (lhs1 <= 1.0, lhs2 <= 1.0, lhs3 <= 1.0)
    return all(ok), {"ok": ok, **report}


def averaging_step(alpha: FrequencyVector, S: FourierVectorField,
                   P: FourierVectorField, Q: float, sigma: float, consts, *,
                   ledger: dict | None = None, enforce: bool = True,
                   eps_ref: float | None = None) -> StepResult:
    """One step: P of size eps becomes P_plus of size <= eps/b.

    Pulls Y = X_alpha + S + P back by the time-1 flow of the homological
    solution V, so that (V^1)^* Y = X_alpha + S + [P] + P_plus.  S must be
    a constant field with |S| <= d*eps.  With enforce=True the smallness
    conditions and the contraction bounds are hard errors; enforce=False
    computes the same quantities and only records them (used by outer
    fixed-point passes whose early iterates are off-budget).
    """
    s = P.width_s
    fld.check_dimension(alpha.n, P=P, S=S)
    if not 1 <= Q < math.inf:
        raise ParameterError(f"Q must be finite and >= 1, got {Q}")
    if not 0 < sigma < s:
        raise ParameterError(f"need 0 < sigma < s, got sigma={sigma}, s={s}")
    if not S.is_constant:
        raise ParameterError("S must be a constant field")
    eps = fld.norm(P, s)
    eps_ref = eps if eps_ref is None else max(eps_ref, eps)
    w = s - sigma
    ok, report = step_conditions(consts, Q, sigma, eps)
    if enforce and not ok:
        failed = tuple(name for name, good in
                       zip(("threshold", "middle", "tail"), report["ok"])
                       if not good)
        raise StepConditionError(
            "step conditions failed: " +
            ", ".join(f"{f}={report[f]:.6g}" for f in failed), failed=failed)
    approx = dirichlet_approx(alpha, Q)

    if enforce:
        s_norm = fld.norm(S, s)
        if s_norm > consts.d * eps * (1 + 1e-9) + _ulp_floor(alpha.alpha):
            raise DomainError(
                f"|S| = {s_norm:.6g} exceeds d*eps = {consts.d * eps:.6g}")

    # head = [P]_omega - [P] and B = [P]_omega - P (0.0 - c keeps a zero
    # component +0.0) are rows of P, split once by its divisors d
    d = _divisors(P, approx)
    rhs, V, v_norm = solve_homological(P, d, approx.q)
    live = P.modes.any(axis=1)              # every mode but 0
    head = _rows(P, (d == 0) & live)
    # A = X_varpi + S + P is P with mode 0 set to 0.0 + varpi + (0.0 + S +
    # [P]): add(constant_field(varpi), add(S, P)) sums it in that order
    const = 0.0 + approx.varpi + (0.0 + S.coef.sum(axis=0)
                                  + P.coef[~live].sum(axis=0))
    mid = len(P.modes) // 2
    A = fld._field(P.n, s, np.insert(P.modes[live], mid, 0, axis=0),
                   np.insert(P.coef[live], mid, const, axis=0))
    B = replace(rhs, coef=0.0 - rhs.coef)

    p_plus, bracket_norm = fld.lie_series(
        fld.lie_bracket, V, v_norm, head, A, B, s, sigma, eps_ref,
        ledger=ledger, tag="averaging_step")
    pp_norm = fld.norm(p_plus, w)

    if enforce and pp_norm > eps / consts.b:
        raise ContractionError(
            f"norm(P_plus) = {pp_norm:.6g} exceeds eps/b = "
            f"{eps / consts.b:.6g}")

    return StepResult(P_plus=p_plus, V=V, record={
        "norm_P": eps, "norm_P_plus": pp_norm, "norm_V": v_norm,
        "q": approx.q, "p": [int(v) for v in approx.p],
        "P_avg": [float(v) for v in P.constant_part()],
        "q_eps": approx.q * eps, "tail_term": fld.norm(head, w),
        "bracket_term": bracket_norm, "conditions": report})
