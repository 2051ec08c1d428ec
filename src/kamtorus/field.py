"""Truncated Fourier representation of real-analytic vector fields on T^n.

A field is stored as a finite map from integer modes k in Z^n to complex
coefficient vectors, with the convention

    P(theta) = sum_k  c_k  exp(2*pi*i * k . theta),

so the field is 1-periodic in every coordinate.  Reality on the real torus
is the invariant  c_{-k} = conj(c_k), preserved by every operation here.

Norms are the weighted l1 majorant

    |P|_s = max_j  sum_k |c_{j,k}| * exp(2*pi*s*|k|_1),

which upper-bounds the sup norm on the complex strip of width s.  All
analytic-estimate constants in this package are derived for this norm and
the 2*pi phase convention; see the named constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ParseError, RealityViolationError,
                     StepSizeError)

TWO_PI = 2.0 * np.pi

# |[X,V]|_{s-sigma} <= (BRACKET_NORM_CONST(n)/sigma) |X|_s |V|_s.
# Derivation: a directional derivative contributes a factor 2*pi*|k|_1,
# and sup_x x*exp(-2*pi*sigma*x) = 1/(2*pi*sigma*e); collapsing the max
# over components of one factor to a sum costs n.  Each of the two terms
# of the bracket then carries n/(e*sigma).
def bracket_norm_const(n: int) -> float:
    return 2.0 * n / np.e

# Tail estimate guard: the bound exp(-2*pi*sigma*K) is attained exactly by a
# single mode with |k|_1 = |k|_inf = K, where float rounding can tip either
# way; the guard keeps the certified factor dominating in floating point.
ROUNDOFF_GUARD = 1.0 + 1e-12


@dataclass(frozen=True)
class FourierVectorField:
    """Immutable truncated Fourier series of a vector field on T^n.

    coeffs maps mode tuples to complex vectors of length n.  k_max bounds
    the sup norm of every stored mode.  width_s is the analyticity width
    the representation is trusted on.
    """

    n: int
    width_s: float
    coeffs: dict
    k_max: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.n}")
        if not self.width_s > 0:
            raise ParameterError(f"width_s must be > 0, got {self.width_s}")

    @property
    def modes(self) -> np.ndarray:
        """Stored modes as an (M, n) int array, lexicographically sorted."""
        if not self.coeffs:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.array(sorted(self.coeffs), dtype=np.int64)

    def coeff_matrix(self, modes: np.ndarray | None = None) -> np.ndarray:
        if modes is None:
            modes = self.modes
        out = np.zeros((len(modes), self.n), dtype=np.complex128)
        for i, k in enumerate(modes):
            out[i] = self.coeffs[tuple(int(x) for x in k)]
        return out

    @property
    def is_constant(self) -> bool:
        return all(all(v == 0 for v in k) for k in self.coeffs)

    def constant_part(self) -> np.ndarray:
        c = self.coeffs.get((0,) * self.n)
        if c is None:
            return np.zeros(self.n)
        return np.asarray(c).real.copy()


def _symmetrize(n: int, coeffs: dict) -> dict:
    """Enforce c_{-k} = conj(c_k) exactly; drops all-zero modes."""
    out = {}
    for k, c in coeffs.items():
        mk = tuple(-x for x in k)
        c = np.asarray(c, dtype=np.complex128)
        if mk in coeffs:
            c = 0.5 * (c + np.conj(np.asarray(coeffs[mk], dtype=np.complex128)))
        if k == mk:
            c = c.real.astype(np.complex128)
        if np.any(c != 0):
            out[k] = c
            out[mk] = np.conj(c)
    return out


def make_field(n: int, width_s: float, coeffs: dict) -> FourierVectorField:
    """Build a field, symmetrizing for reality and completing conjugates."""
    if coeffs and not np.isfinite(
            np.array(list(coeffs.values()), dtype=np.complex128)).all():
        raise ParameterError("field coefficients must be finite")
    sym = _symmetrize(n, {tuple(int(x) for x in k): v for k, v in coeffs.items()})
    k_max = max((max(abs(x) for x in k) for k in sym), default=0)
    return FourierVectorField(n=n, width_s=width_s, coeffs=sym, k_max=k_max)


def zero_field(n: int, width_s: float) -> FourierVectorField:
    return FourierVectorField(n=n, width_s=width_s, coeffs={}, k_max=0)


def constant_field(values, width_s: float) -> FourierVectorField:
    values = np.asarray(values, dtype=float)
    n = len(values)
    if np.all(values == 0):
        return zero_field(n, width_s)
    return FourierVectorField(
        n=n, width_s=width_s,
        coeffs={(0,) * n: values.astype(np.complex128)}, k_max=0)


def add(x: FourierVectorField, y: FourierVectorField) -> FourierVectorField:
    _check_same_dim(x, y)
    coeffs = {k: c.copy() for k, c in x.coeffs.items()}
    for k, c in y.coeffs.items():
        if k in coeffs:
            s = coeffs[k] + c
            if np.any(s != 0):
                coeffs[k] = s
            else:
                del coeffs[k]
        else:
            coeffs[k] = c.copy()
    k_max = max((max(abs(v) for v in k) for k in coeffs), default=0)
    return FourierVectorField(n=x.n, width_s=min(x.width_s, y.width_s),
                              coeffs=coeffs, k_max=k_max)


def scale(x: FourierVectorField, a: float) -> FourierVectorField:
    if a == 0:
        return zero_field(x.n, x.width_s)
    return FourierVectorField(n=x.n, width_s=x.width_s,
                              coeffs={k: a * c for k, c in x.coeffs.items()},
                              k_max=x.k_max)


def sub(x: FourierVectorField, y: FourierVectorField) -> FourierVectorField:
    return add(x, scale(y, -1.0))


def _check_same_dim(x, y):
    if x.n != y.n:
        raise ParameterError(f"dimension mismatch: {x.n} vs {y.n}")


def _log_weights(modes: np.ndarray, s: float) -> np.ndarray:
    return TWO_PI * s * np.abs(modes).sum(axis=1)


def norm(x: FourierVectorField, s: float) -> float:
    """Weighted l1 majorant norm at width s (see module docstring)."""
    if not 0 < s <= x.width_s:
        raise ParameterError(
            f"norm width s={s} outside (0, {x.width_s}]")
    if not x.coeffs:
        return 0.0
    modes = x.modes
    cm = np.abs(x.coeff_matrix(modes))
    logw = _log_weights(modes, s)
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.exp(np.where(cm > 0, np.log(np.where(cm > 0, cm, 1.0)), -np.inf)
                       + logw[:, None])
    return float(terms.sum(axis=0).max())


def eval_at(x: FourierVectorField, theta) -> np.ndarray:
    """Evaluate the series at one (possibly complex) point inside the strip."""
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.shape != (x.n,):
        raise ParameterError(f"point must have shape ({x.n},)")
    if np.any(np.abs(theta.imag) >= x.width_s):
        raise ParameterError(
            f"point with |Im theta| = {np.abs(theta.imag).max()} outside "
            f"strip of width {x.width_s}")
    if not x.coeffs:
        return np.zeros(x.n, dtype=np.complex128)
    modes = x.modes
    phases = np.exp(2j * np.pi * (modes @ theta))
    return phases @ x.coeff_matrix(modes)


# point-modes per block of eval_many's phase matrix (4 MB of complex128)
_EVAL_CHUNK = 1 << 18


def eval_many(x: FourierVectorField, thetas: np.ndarray) -> np.ndarray:
    """Evaluate at an (N, n) array of real points; returns (N, n) real.

    Reality makes the imaginary part cancel exactly in pairs; the real
    part is returned directly.  Points are taken in blocks, so memory
    stays bounded however many points and modes there are.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != x.n:
        raise ParameterError(f"points must have shape (N, {x.n})")
    if not x.coeffs:
        return np.zeros_like(thetas)
    modes = x.modes
    cm = x.coeff_matrix(modes)
    kf = modes.T.astype(float)
    out = np.empty_like(thetas)
    rows = max(1, _EVAL_CHUNK // len(modes))
    for start in range(0, len(thetas), rows):
        phases = np.exp(2j * np.pi * (thetas[start:start + rows] @ kf))
        out[start:start + rows] = (phases @ cm).real
    return out


def derivative_matrix_many(x: FourierVectorField, thetas: np.ndarray) -> np.ndarray:
    """Spectral Jacobians dX_j/dtheta_l at (N, n) real points -> (N, n, n)."""
    thetas = np.asarray(thetas, dtype=float)
    if not x.coeffs:
        return np.zeros((len(thetas), x.n, x.n))
    modes = x.modes
    cm = x.coeff_matrix(modes)
    phases = np.exp(2j * np.pi * (thetas @ modes.T.astype(float)))  # (N, M)
    out = np.empty((len(thetas), x.n, x.n))
    for l in range(x.n):
        dcol = 2j * np.pi * modes[:, l].astype(float)
        out[:, :, l] = (phases @ (dcol[:, None] * cm)).real
    return out


_BRACKET_CHUNK = 512


def lie_bracket(x: FourierVectorField, v: FourierVectorField) -> FourierVectorField:
    """[X, V] = DX.V - DV.X on Fourier coefficients (exact convolution).

    Pairwise products are accumulated directly (no FFT of the coefficient
    grid): FFT convolution injects max-scale roundoff into far-out modes,
    which the exponential norm weights amplify.
    """
    return _convolve(x, v, bracket=True)


def lie_derivative(x: FourierVectorField, v: FourierVectorField) -> FourierVectorField:
    """L_V X = DX.V, the derivative of X along V: the first term of [X, V].

    X composed with the time-1 flow of V is exp(L_V) X.
    """
    return _convolve(x, v, bracket=False)


def _convolve(x: FourierVectorField, v: FourierVectorField,
              bracket: bool) -> FourierVectorField:
    """DX.V, minus DV.X when `bracket` is set."""
    _check_same_dim(x, v)
    width = min(x.width_s, v.width_s)
    if not x.coeffs or not v.coeffs or (x.is_constant and not bracket):
        return zero_field(x.n, width)
    # Constant argument fast paths are diagonal and exact.
    if x.is_constant:
        x0 = x.coeffs[(0,) * x.n]
        coeffs = {}
        for k, c in v.coeffs.items():
            dot = sum(ki * xi for ki, xi in zip(k, x0))
            if dot != 0:
                coeffs[k] = -2j * np.pi * dot * c
        return make_field(x.n, width, coeffs)
    if v.is_constant:
        v0 = v.coeffs[(0,) * v.n]
        coeffs = {}
        for k, c in x.coeffs.items():
            dot = sum(ki * vi for ki, vi in zip(k, v0))
            if dot != 0:
                coeffs[k] = 2j * np.pi * dot * c
        return make_field(x.n, width, coeffs)

    n = x.n
    kx_modes = x.modes
    kv_modes = v.modes
    cx = x.coeff_matrix(kx_modes)
    cv = v.coeff_matrix(kv_modes)
    k_out = x.k_max + v.k_max
    size = 2 * k_out + 1
    dense = np.zeros((size,) * n + (n,), dtype=np.complex128)
    kvf = kv_modes.astype(float)
    for start in range(0, len(kx_modes), _BRACKET_CHUNK):
        a_modes = kx_modes[start:start + _BRACKET_CHUNK]
        a_coef = cx[start:start + _BRACKET_CHUNK]
        # term1[a,b,:] = 2 pi i (k1 . V_{.,k2}) X_{.,k1}
        dots1 = a_modes.astype(float) @ cv.T                    # (ma, Mv)
        contrib = (2j * np.pi) * dots1[:, :, None] * a_coef[:, None, :]
        if bracket:
            # term2[a,b,:] = -2 pi i (k2 . X_{.,k1}) V_{.,k2}
            dots2 = a_coef @ kvf.T                              # (ma, Mv)
            contrib -= (2j * np.pi) * dots2[:, :, None] * cv[None, :, :]
        idx = a_modes[:, None, :] + kv_modes[None, :, :] + k_out  # (ma,Mv,n)
        flat = np.zeros(idx.shape[:2], dtype=np.int64)
        for axis in range(n):
            flat = flat * size + idx[:, :, axis]
        np.add.at(dense.reshape(-1, n), flat.reshape(-1), contrib.reshape(-1, n))
    nz = np.argwhere(np.any(dense != 0, axis=-1))
    coeffs = {}
    for pos in nz:
        k = tuple(int(p) - k_out for p in pos)
        coeffs[k] = dense[tuple(pos)].copy()
    out = make_field(n, width, coeffs)
    # keep the exact-convolution support bound even if some sums vanished
    return FourierVectorField(n=n, width_s=width, coeffs=out.coeffs,
                              k_max=k_out if out.coeffs else 0)


def bracket_bound(s: float, sigma: float, nx: float, nv: float, n: int = 2) -> float:
    """Certified bound: |[X,V]|_{s-sigma} <= bracket_bound(...) for all X, V
    with |X|_s <= nx, |V|_s <= nv."""
    if not 0 < sigma < s:
        raise ParameterError(f"need 0 < sigma < s, got sigma={sigma}, s={s}")
    return bracket_norm_const(n) / sigma * nx * nv


def tail_split(x: FourierVectorField, big_k: float):
    """Split into (low, high) with high holding exactly the modes |k| >= K."""
    low, high = {}, {}
    for k, c in x.coeffs.items():
        if max(abs(v) for v in k) >= big_k:
            high[k] = c.copy()
        else:
            low[k] = c.copy()
    return (make_field(x.n, x.width_s, low), make_field(x.n, x.width_s, high))


def tail_bound(n: int, sigma: float, big_k: float) -> float:
    """Certified factor: |X^K|_{s-sigma} <= tail_bound(n,sigma,K) |X|_s.

    For the majorant norm the tail estimate needs no dimensional constant:
    every mode with |k|_inf >= K has |k|_1 >= K, so each term loses at
    least exp(-2*pi*sigma*K) when the width shrinks by sigma.
    """
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    if not big_k >= 1:
        raise ParameterError(f"K must be >= 1, got {big_k}")
    with np.errstate(under="ignore"):
        return float(np.exp(-TWO_PI * sigma * big_k)) * ROUNDOFF_GUARD


def prune(x: FourierVectorField, s: float, floor: float):
    """Drop modes whose norm contribution at width s is below `floor`.

    Returns (pruned field, total weighted mass removed).  Mode 0 is kept.
    Conjugate pairs have equal contributions, so reality survives.
    """
    if floor <= 0 or not x.coeffs:
        return x, 0.0
    kept, removed = {}, 0.0
    zero = (0,) * x.n
    for k, c in x.coeffs.items():
        w = float(np.exp(TWO_PI * s * sum(abs(v) for v in k)))
        contrib = float(np.abs(c).max()) * w
        if k == zero or contrib >= floor:
            kept[k] = c
        else:
            removed += contrib
    if len(kept) == len(x.coeffs):
        return x, 0.0
    k_max = max((max(abs(v) for v in k) for k in kept), default=0)
    return (FourierVectorField(n=x.n, width_s=x.width_s, coeffs=kept,
                               k_max=k_max), removed)


_MAX_SERIES_TERMS = 300


def series_ratio(V: FourierVectorField, s: float, sigma: float) -> float:
    """Majorant ratio rho = bracket_norm_const(n)*e*norm(V,s)/sigma.

    Both operators lie_series applies, X -> [X, V] and its first term
    X -> DX.V, obey the bracket estimate, so the m-th term of a series in
    them shrinks like rho^m at width s - sigma; rho < 1 is the convergence
    precondition.
    """
    if not 0 < sigma < s:
        raise ParameterError(f"need 0 < sigma < s, got sigma={sigma}, s={s}")
    v_norm = norm(V, s) if V.coeffs else 0.0
    rho = bracket_norm_const(V.n) * math.e * v_norm / sigma
    if rho >= 1.0:
        raise StepSizeError(
            f"Lie series majorant ratio {rho:.3g} >= 1 "
            f"(norm(V)={v_norm:.3g}, sigma={sigma:.3g}); "
            "increase Q or decrease the perturbation")
    return rho


def lie_series(op, V: FourierVectorField, head: FourierVectorField,
               a: FourierVectorField, b: FourierVectorField, s: float,
               sigma: float, tol: float, *, floor: float = 0.0, ledger=None,
               tag: str = "lie_series"):
    """head + sum_{m>=1} (op_V^m a / m! + op_V^m b / (m+1)!), at s - sigma.

    op is lie_bracket (op_V X = [X, V]: pullback by the time-1 flow of V is
    exp(op_V)) or lie_derivative (op_V X = DX.V: composition with that flow
    is exp(op_V), and the flow's displacement is sum op_V^m V / (m+1)!).
    The two series share their m-th term, so they stop together.

    The series stops at the first m >= 2 where the remainder bound
    t*rho/(1-rho) of the last term's norm t is at most tol; that bound is
    charged to the ledger as `<tag>.series_tail`.  Modes of the running
    terms contributing less than floor at the target width are pruned and
    charged as `<tag>.series_prune`.  Returns (sum, summed term norms).
    """
    rho = series_ratio(V, s, sigma)
    w = s - sigma
    acc, total = head, 0.0
    for m in range(1, _MAX_SERIES_TERMS + 1):
        a = scale(op(a, V), 1.0 / m)
        b = scale(op(b, V), 1.0 / m)
        term = add(a, scale(b, 1.0 / (m + 1)))
        if not term.coeffs and not a.coeffs and not b.coeffs:
            break
        acc = add(acc, term)
        t = norm(term, w) if term.coeffs else 0.0
        total += t
        a, lost_a = prune(a, w, floor)
        b, lost_b = prune(b, w, floor)
        if ledger is not None and (lost_a or lost_b):
            ledger.charge(f"{tag}.series_prune", 2.0 * (lost_a + lost_b))
        rem = t * rho / (1.0 - rho)
        if m >= 2 and rem <= tol:
            if ledger is not None:
                ledger.charge(f"{tag}.series_tail", rem)
            break
    else:
        raise StepSizeError(
            f"Lie series did not reach tol={tol:.3g} within "
            f"{_MAX_SERIES_TERMS} terms (ratio {rho:.3g})")
    return FourierVectorField(n=acc.n, width_s=w, coeffs=acc.coeffs,
                              k_max=acc.k_max), total


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _canonical(k) -> bool:
    """True for the representative of a conjugate pair {k, -k} (and 0)."""
    for v in k:
        if v > 0:
            return True
        if v < 0:
            return False
    return True


def serialize(x: FourierVectorField) -> str:
    lines = [f"torusfield v1 n={x.n} s={_fmt(x.width_s)} kmax={x.k_max}"]
    for k in sorted(x.coeffs):
        if not _canonical(k):
            continue
        c = x.coeffs[k]
        parts = [str(int(v)) for v in k]
        for z in c:
            parts.append(_fmt(z.real))
            parts.append(_fmt(z.imag))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> FourierVectorField:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty field file", line=1)
    head = lines[0].split()
    if len(head) != 5 or head[0] != "torusfield" or head[1] != "v1":
        raise ParseError(f"bad header {lines[0]!r}", line=1)
    try:
        kv = dict(part.split("=", 1) for part in head[2:])
        n = int(kv["n"])
        s = float(kv["s"])
        k_max = int(kv["kmax"])
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad header field: {exc}", line=1) from None
    coeffs = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != n + 2 * n:
            raise ParseError(
                f"expected {n + 2 * n} columns, got {len(parts)}", line=ln)
        try:
            k = tuple(int(p) for p in parts[:n])
            vals = [float(p) for p in parts[n:]]
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(f"non-finite coefficient of mode {k}", line=ln)
        c = np.array([complex(vals[2 * j], vals[2 * j + 1]) for j in range(n)])
        mk = tuple(-v for v in k)
        if k in coeffs:
            raise ParseError(f"duplicate mode {k}", line=ln)
        coeffs[k] = c
        if mk in coeffs and mk != k:
            if not np.allclose(coeffs[mk], np.conj(c), rtol=0, atol=0):
                raise RealityViolationError(
                    f"modes {k} and {mk} are not conjugate", line=ln)
        if mk == k and np.any(c.imag != 0):
            raise RealityViolationError(
                f"self-conjugate mode {k} has nonzero imaginary part", line=ln)
    for k in list(coeffs):
        mk = tuple(-v for v in k)
        if mk not in coeffs:
            coeffs[mk] = np.conj(coeffs[k])
    got_kmax = max((max(abs(v) for v in k) for k in coeffs), default=0)
    if got_kmax > k_max:
        raise ParseError(
            f"mode exceeds declared kmax={k_max}", line=1)
    return FourierVectorField(n=n, width_s=s, coeffs=coeffs, k_max=k_max)
