"""Seeded random trigonometric perturbations for tests and the CLI."""

from __future__ import annotations

import math

import numpy as np

from . import field as fld
from .errors import ParameterError
from .field import FourierVectorField


def random_field(n: int, s: float, eps: float, modes: int, seed: int,
                 k_max: int = 3) -> FourierVectorField:
    """Random real trig field with `modes` distinct nonzero modes in
    |k|_inf <= k_max plus a nonzero constant part, scaled so that
    norm(field, s) equals eps.

    Coefficients decay like exp(-2*pi*s*|k|_1) so every mode contributes
    comparably to the majorant norm at width s.
    """
    if n < 1 or k_max < 1:
        raise ParameterError(f"need n >= 1 and k_max >= 1, got n={n}, "
                             f"k_max={k_max}")
    if not 1 <= modes <= (2 * k_max + 1) ** n - 1:
        raise ParameterError(
            f"modes must be in [1, {(2 * k_max + 1) ** n - 1}], the nonzero "
            f"modes with |k|_inf <= {k_max}; got {modes}")
    if not 0 < eps < math.inf:
        raise ParameterError(f"eps must be finite and > 0, got {eps}")
    if not 0 < s < math.inf:
        raise ParameterError(f"s must be finite and > 0, got {s}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    coeffs = {}
    chosen = set()
    while len(chosen) < modes:
        k = tuple(int(v) for v in rng.integers(-k_max, k_max + 1, size=n))
        if all(v == 0 for v in k) or k in chosen:
            continue
        chosen.add(k)
        chosen.add(tuple(-v for v in k))
        decay = np.exp(-fld.TWO_PI * s * sum(abs(v) for v in k))
        c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
        coeffs[k] = c
    coeffs[(0,) * n] = rng.standard_normal(n).astype(np.complex128)
    drawn = fld.make_field(n, s, coeffs)
    if len(drawn.modes) < len(chosen) + 1:    # each drawn +-k and mode 0
        raise ParameterError(f"at width s={s} the damping exp(-2*pi*s*|k|_1) "
                             "of a drawn mode underflows: it vanished")
    # multiplicative corrections pin the norm to eps up to the last ulp
    out, best, best_err = drawn, drawn, np.inf
    for _ in range(8):
        current = fld.norm(out, s)
        err = abs(current - eps)
        if err < best_err:
            best, best_err = out, err
        if current in (0.0, eps):
            break
        out = fld.scale(out, eps / current)
    if not best_err <= 1e-12 * eps or len(best.modes) < len(drawn.modes):
        raise ParameterError(
            f"eps={eps} underflows: scaled to it, the field has norm "
            f"{fld.norm(best, s):.6g} and {len(best.modes)} of "
            f"{len(drawn.modes)} modes")
    return best
