"""Correctness checks the benchmark applies to every answer, from outside.

Each check returns a list of problems; an empty list means the answer
passed.  None of them trusts the program: exit code 0 from `kamtorus run`
says nothing about the residual, and Python's `json` accepts `NaN` and
`Infinity` unless told otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

MAX_RESIDUAL = 1e-10       # acceptance criterion 8: grid conjugacy residual
MAX_ORBIT = 1e-7           # acceptance criterion 8: orbit shadowing
# beta = eps*beta_1 + O(eps^2): over the sweep's eps range the second-order
# share stays below 1e-5 of |beta_1|, so this leaves a wide margin
MAX_BETA_NONLINEARITY = 1e-3
# a translated perturbation has the same counter-term beta; observed
# differences are exactly 0, so this only absorbs summation order
MAX_BETA_SHIFT = 1e-12


class CheckError(ValueError):
    pass


def _reject_constant(name):
    raise CheckError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"malformed JSON: {exc}") from None


def read_alpha_tilde(freq_text: str) -> list[Fraction]:
    """alpha_tilde of a `freq v1` file, as the exact dyadic rationals the
    floats denote."""
    lines = [ln for ln in freq_text.splitlines() if ln.strip()]
    return [Fraction(float(ln)) for ln in lines[1:]]


def _finite_number(obj, key, problems):
    val = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not math.isfinite(val):
        problems.append(f"{key} is {val!r}, not a finite number")
        return None
    return float(val)


def check_residual(text: str) -> list[str]:
    """residual.json of `kamtorus run`: both oracle values present, finite
    and within the acceptance thresholds."""
    try:
        report = strict_json(text)
    except CheckError as exc:
        return [f"residual.json: {exc}"]
    problems = []
    res = _finite_number(report, "sup_residual", problems)
    if res is not None and not res <= MAX_RESIDUAL:
        problems.append(f"sup_residual {res:.3g} > {MAX_RESIDUAL:g}")
    dev = _finite_number(report, "orbit_deviation", problems)
    if dev is not None and not dev <= MAX_ORBIT:
        problems.append(f"orbit_deviation {dev:.3g} > {MAX_ORBIT:g}")
    return problems


def check_certificate(alpha_tilde: list[Fraction], q, p, Q) -> list[str]:
    """Dirichlet certificate in exact arithmetic: 1 <= q <= Q^(n-1) and
    |q*alpha_tilde_i - p_i| <= 1/Q for every i."""
    if isinstance(q, bool) or not isinstance(q, int) or \
            not isinstance(p, list) or len(p) != len(alpha_tilde) or \
            any(isinstance(v, bool) or not isinstance(v, int) for v in p):
        return [f"certificate q={q!r} p={p!r} is not integral of length "
                f"{len(alpha_tilde)}"]
    Qf = Fraction(float(Q))
    problems = []
    if not 1 <= q <= math.floor(Qf ** len(alpha_tilde)):
        problems.append(f"q={q} outside [1, Q^(n-1)] at Q={Q!r}")
    for x, pi in zip(alpha_tilde, p):
        if abs(q * x - pi) > 1 / Qf:
            problems.append(f"|q*alpha - p| > 1/Q for q={q}, p={pi}, Q={Q!r}")
    return problems


def check_beta_linear(eps_beta: list[tuple[float, list[float]]]) -> list[str]:
    """beta/eps of one perturbation shape scaled to several eps agrees to
    first order."""
    base_eps, base = min(eps_beta)
    ref = [b / base_eps for b in base]
    scale = max(abs(v) for v in ref)
    problems = []
    for eps, beta in eps_beta:
        dev = max(abs(b / eps - r) for b, r in zip(beta, ref))
        if not dev <= MAX_BETA_NONLINEARITY * scale:
            problems.append(f"beta/eps at eps={eps:g} departs from eps="
                            f"{base_eps:g} by {dev:.3g} (scale {scale:.3g})")
    return problems


def check_reference(q: list, steps, passes, beta: list[float],
                    ref: dict) -> list[str]:
    """Integers of a run equal to the recorded reference exactly, and beta
    to MAX_BETA_SHIFT relative."""
    problems = []
    got = {"q": q, "steps": steps, "passes": passes}
    want = {key: ref[key] for key in got}
    if got != want:
        problems.append(f"{got} != reference {want}")
    scale = max(abs(v) for v in ref["beta"])
    if len(beta) != len(ref["beta"]) or not all(
            abs(b - r) <= MAX_BETA_SHIFT * scale
            for b, r in zip(beta, ref["beta"])):
        problems.append(f"beta {beta} != reference {ref['beta']}")
    return problems
