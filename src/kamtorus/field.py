"""Truncated Fourier representation of real-analytic vector fields on T^n.

A field is a finite sum over integer modes k in Z^n of complex
coefficient vectors, with the convention

    P(theta) = sum_k  c_k  exp(2*pi*i * k . theta),

so the field is 1-periodic in every coordinate.  Reality on the real torus
is the invariant  c_{-k} = conj(c_k), preserved by every operation here.

A field stores int64 modes (M, n), strictly sorted lexicographically and
closed under k -> -k, so row M-1-i holds -k and conj(c_k) of row i, and
their complex128 coefficients (M, n).  Merges and sums over modes use flat
int64 keys of the box |k|_inf <= K, which keep the modes' order.  One
merge, an ordered bincount, sums rows sharing a mode; one kernel forms the
brackets or derivatives of r fields stacked on shared modes, coef (M, r,
n) zero where a member lacks a mode, as lie_series carries two series.

Norms are the weighted l1 majorant

    |P|_s = max_j  sum_k |c_{j,k}| * exp(2*pi*s*|k|_1),

which upper-bounds the sup norm on the complex strip of width s.  All
analytic-estimate constants in this package are derived for this norm and
the 2*pi phase convention; see the named constants below.
"""

from __future__ import annotations

import dataclasses
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


def _check_box(n: int, k_max: int) -> None:
    """Flat int64 keys must count the cells of the box |k|_inf <= k_max."""
    if not 1 <= n < 64:
        raise ParameterError(f"dimension must be in [1, 63], got {n}")
    if (2 * int(k_max) + 1) ** int(n) > 2 ** 63:
        raise ParameterError(
            f"modes up to |k| = {k_max} in dimension {n} exceed int64 keys")


@dataclass(frozen=True)
class FourierVectorField:
    """Immutable truncated Fourier series of a vector field on T^n.

    modes (int64, (M, n)) is strictly sorted lexicographically and closed
    under k -> -k; coef (complex128, (M, n)) holds the matching
    coefficients with coef[M-1-i] == conj(coef[i]) and no all-zero row.
    k_max is read off modes: the largest |k|_inf stored, 0 for none.
    width_s is the analyticity width the representation is trusted on.
    """

    n: int
    width_s: float
    modes: np.ndarray
    coef: np.ndarray
    k_max: int = dataclasses.field(init=False)

    def __post_init__(self):
        k_max = int(np.abs(self.modes).max(initial=0))
        _check_box(self.n, k_max)
        object.__setattr__(self, "k_max", k_max)
        if not self.width_s > 0:
            raise ParameterError(f"width_s must be > 0, got {self.width_s}")
        shape = (len(self.modes), self.n)
        if self.modes.shape != shape or self.coef.shape != shape:
            raise ParameterError(f"modes, coef must have shape (M, {self.n})")
        self.modes.flags.writeable = self.coef.flags.writeable = False

    @property
    def coeffs(self) -> dict:
        """{mode tuple: coefficient vector}, built on each access; the
        vectors are read-only rows of coef."""
        return dict(zip(map(tuple, self.modes.tolist()), self.coef))

    @property
    def is_constant(self) -> bool:
        return not self.modes.any()

    def constant_part(self) -> np.ndarray:
        # a symmetric support holds mode 0 exactly when its size is odd
        m = len(self.modes)
        return self.coef[m // 2].real.copy() if m % 2 else np.zeros(self.n)


def _keys(modes: np.ndarray, k: int) -> np.ndarray:
    """Flat keys of modes in the box |k|_inf <= k, in lexicographic order;
    the box has (2k+1)^n cells and the key of -m is cells - 1 - key(m)."""
    w = (2 * k + 1) ** np.arange(modes.shape[1] - 1, -1, -1, dtype=np.int64)
    return modes @ w + k * int(w.sum())


def _distinct(keys: np.ndarray, k: int, n: int):
    """The sorted distinct keys of the box |k|_inf <= k, and their modes."""
    keys = np.sort(keys)
    keys = keys[np.diff(keys, prepend=keys[:1] - 1) != 0]
    return keys, np.stack(np.unravel_index(keys, (2 * k + 1,) * n), 1) - k


def _scatter_add(slot: np.ndarray, values: np.ndarray,
                 size: int) -> np.ndarray:
    """out[slot[i]] += values[i] in order of i: one ordered np.bincount."""
    flat = values.reshape(len(values), math.prod(values.shape[1:])).view(float)
    cols = flat.shape[1]
    sums = np.bincount((slot[:, None] * cols + np.arange(cols)).ravel(),
                       flat.ravel(), size * cols)
    return sums.view(np.complex128).reshape((size,) + values.shape[1:])


def _merge(modes: np.ndarray, coef: np.ndarray):
    """Sorted distinct modes and the sums of coef's rows at each, in order."""
    k = int(np.abs(modes).max(initial=0))
    keys = _keys(modes, k)
    out, out_modes = _distinct(keys, k, modes.shape[1])
    return out_modes, _scatter_add(np.searchsorted(out, keys), coef, len(out))


def _field(n: int, width_s: float, modes: np.ndarray, coef: np.ndarray,
           keep: np.ndarray | None = None) -> FourierVectorField:
    """The rows of sorted symmetric arrays where keep holds (by default the
    nonzero rows, found by a boolean matmul: faster for short rows)."""
    if keep is None:
        keep = (coef != 0) @ np.ones(coef.shape[1], dtype=bool)
    return FourierVectorField(n, width_s, modes[keep], coef[keep])


def _symmetrized(coef: np.ndarray) -> np.ndarray:
    """c_k -> (c_k + conj(c_{-k}))/2 on sorted rows closed under k -> -k,
    which makes c_{-k} = conj(c_k) exact and mode 0 real."""
    return 0.5 * (coef + np.conj(coef[::-1]))


def make_field(n: int, width_s: float, coeffs: dict) -> FourierVectorField:
    """Build a field, symmetrizing for reality and completing conjugates."""
    if coeffs and not np.isfinite(
            np.array(list(coeffs.values()), dtype=np.complex128)).all():
        raise ParameterError("field coefficients must be finite")
    coeffs = {tuple(int(x) for x in k): v for k, v in coeffs.items()}
    _check_box(n, max((max(map(abs, k)) for k in coeffs), default=0))
    full = {tuple(-x for x in k): np.conj(v) for k, v in coeffs.items()}
    full.update(coeffs)                 # an absent c_{-k} is conj(c_k)
    keys = sorted(full)
    return _field(n, width_s, np.array(keys, dtype=np.int64).reshape(-1, n),
                  _symmetrized(np.array([full[k] for k in keys],
                                        dtype=np.complex128).reshape(-1, n)))


def zero_field(n: int, width_s: float) -> FourierVectorField:
    return FourierVectorField(n, width_s, np.zeros((0, n), dtype=np.int64),
                              np.zeros((0, n), dtype=np.complex128))


def constant_field(values, width_s: float) -> FourierVectorField:
    values = np.asarray(values, dtype=float)
    n = len(values)
    return _field(n, width_s, np.zeros((1, n), dtype=np.int64),
                  values[None, :].astype(np.complex128))


def add(x: FourierVectorField, y: FourierVectorField) -> FourierVectorField:
    _check_same_dim(x, y)
    modes, coef = _merge(np.concatenate([x.modes, y.modes]),
                         np.concatenate([x.coef, y.coef]))
    return _field(x.n, min(x.width_s, y.width_s), modes, coef)


def scale(x: FourierVectorField, a: float) -> FourierVectorField:
    if not math.isfinite(a):
        raise ParameterError(f"scale factor must be finite, got {a}")
    return _field(x.n, x.width_s, x.modes, a * x.coef)


def sub(x: FourierVectorField, y: FourierVectorField) -> FourierVectorField:
    return add(x, scale(y, -1.0))


def _check_same_dim(x, y):
    if x.n != y.n:
        raise ParameterError(f"dimension mismatch: {x.n} vs {y.n}")


def check_dimension(n: int, **fields: FourierVectorField) -> None:
    """ParameterError naming both dimensions unless each field is on T^n."""
    for name, x in fields.items():
        if x.n != n:
            raise ParameterError(f"{name} is on T^{x.n}, alpha on T^{n}")


def _log_weights(modes: np.ndarray, s: float) -> np.ndarray:
    return TWO_PI * s * np.abs(modes).sum(axis=1)


def norm(x: FourierVectorField, s: float) -> float:
    """Weighted l1 majorant norm at width s (see module docstring), summed
    in log space; it may be inf at a wide strip, never NaN."""
    if not 0 < s <= x.width_s:
        raise ParameterError(f"norm width s={s} outside (0, {x.width_s}]")
    return _norm(x.modes, x.coef, s)


def _norm(modes: np.ndarray, coef: np.ndarray, s: float) -> float:
    cm = np.abs(coef)
    if np.isnan(cm).any():
        raise ParameterError("field has a NaN coefficient")
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.exp(np.log(cm) + _log_weights(modes, s)[:, None])
    return float(terms.sum(axis=0).max())


# point-modes per block of eval_many's phase matrix (4 MB of complex128)
_EVAL_CHUNK = 1 << 18


def eval_many(x: FourierVectorField, thetas: np.ndarray) -> np.ndarray:
    """Evaluate at an (N, n) array of real points; returns (N, n) real.

    By the invariant coef[M-1-i] == conj(coef[i]) the field is c_0 + 2 Re
    sum_{k > 0} c_k exp(2 pi i k.theta) over the back half of the rows, so
    half of the phases are computed, for blocks of points: memory stays
    bounded however many points and modes there are."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != x.n:
        raise ParameterError(f"points must have shape (N, {x.n})")
    m = len(x.modes)
    half = m // 2
    modes, coef = x.modes[m - half:], 2.0 * x.coef[m - half:]
    out = np.empty_like(thetas)
    rows = max(1, _EVAL_CHUNK // max(1, half))
    for start in range(0, len(thetas), rows):
        phases = np.exp(2j * np.pi * (thetas[start:start + rows] @ modes.T))
        out[start:start + rows] = (phases @ coef).real
    if m % 2:
        out += x.coef[half].real
    return out


# pairs of modes times members per block of the bracket's product array
_BRACKET_CHUNK = 1 << 17


def lie_bracket(x: FourierVectorField, v: FourierVectorField) -> FourierVectorField:
    """[X, V] = DX.V - DV.X on Fourier coefficients (exact convolution).

    Pairwise products are accumulated directly (no FFT of the coefficient
    grid): FFT convolution injects max-scale roundoff into far-out modes,
    which the exponential norm weights amplify."""
    return _convolve1(x, v, bracket=True)


def lie_derivative(x: FourierVectorField, v: FourierVectorField) -> FourierVectorField:
    """L_V X = DX.V, the derivative of X along V: the first term of [X, V].

    X composed with the time-1 flow of V is exp(L_V) X."""
    return _convolve1(x, v, bracket=False)


def _convolve1(x, v, bracket: bool) -> FourierVectorField:
    _check_same_dim(x, v)
    modes, coef = _convolve(x.modes, x.coef[:, None], v, bracket)
    return _field(x.n, min(x.width_s, v.width_s), modes, coef[:, 0])


def _convolve(modes: np.ndarray, coef: np.ndarray, v: FourierVectorField,
              bracket: bool):
    """(modes, coef) of DX.V, minus DV.X when `bracket` is set, for the r
    fields X stacked on sorted symmetric modes (M, n), coef (M, r, n).

    k.V is formed once for all members, and the products of a block of
    rows (at most _BRACKET_CHUNK pairs times members) are summed by one
    ordered bincount over (slot, column).  A member's zero rows add only
    zeros: in one block its sums are bit for bit those of its own field."""
    m, r, n = coef.shape
    if not m or not len(v.modes):
        return modes[:0], coef[:0]
    # in the box of the output modes, key(k1 + k2) = key(k1) + key(k2) - key(0)
    k_out = int(np.abs(modes).max()) + v.k_max
    _check_box(n, k_out)
    shift_v = _keys(v.modes, k_out) - ((2 * k_out + 1) ** n - 1) // 2
    pair_keys = (_keys(modes, k_out)[:, None] + shift_v[None, :]).ravel()
    out_keys, out_modes = _distinct(pair_keys, k_out, n)
    slot = np.searchsorted(out_keys, pair_keys)
    kxf, kvf, mv = modes.astype(float), v.modes.astype(float), len(v.modes)
    acc = np.zeros((len(out_keys), r, n), dtype=np.complex128)
    rows = max(1, _BRACKET_CHUNK // (mv * r))
    for start in range(0, m, rows):
        block = coef[start:start + rows]
        # term1[a,b,j,:] = 2 pi i (k1 . V_{.,k2}) X_{j,.,k1}
        dots1 = kxf[start:start + rows] @ v.coef.T                # (ma, Mv)
        contrib = (2j * np.pi) * dots1[:, :, None, None] * block[:, None]
        if bracket:
            # term2[a,b,j,:] = -2 pi i (k2 . X_{j,.,k1}) V_{.,k2}, from a
            # product of at least two rows: BLAS rounds one row otherwise
            flat = block.reshape(-1, n)
            dots2 = (np.concatenate([flat, flat[:1]]) @ kvf.T)[:len(flat)]
            dots2 = dots2.reshape(len(block), r, mv).transpose(0, 2, 1)
            contrib -= (2j * np.pi) * dots2[..., None] * v.coef[:, None, :]
        acc += _scatter_add(slot[start * mv:(start + len(block)) * mv],
                            contrib.reshape(-1, r, n), len(out_keys))
    # the sums are closed under k -> -k; a member's sum that vanished, but
    # not its partner's, stands for the conjugate of that partner
    gone = ~acc.any(axis=2)
    acc[gone] = np.conj(acc[::-1][gone])
    return out_modes, _symmetrized(acc)


def prune(x: FourierVectorField, s: float, floor: float):
    """Drop modes whose norm contribution at width s is below `floor`.

    Returns (pruned field, total weighted mass removed).  Mode 0 is kept.
    Conjugate pairs have equal contributions, so reality survives.
    """
    drop, contrib = _below(x.modes, x.coef[:, None], s, floor)
    if not drop.any():
        return x, 0.0
    return (_field(x.n, x.width_s, x.modes, x.coef, ~drop[:, 0]),
            float(contrib[drop].sum()))


def _below(modes: np.ndarray, coef: np.ndarray, s: float, floor: float):
    """(drop, contrib) of the r members in coef (M, r, n): each row's norm
    contribution at width s, and where a member's is below floor."""
    with np.errstate(over="ignore"):
        contrib = (np.abs(coef).max(axis=2)
                   * np.exp(_log_weights(modes, s))[:, None])
    return (~(contrib >= floor) & coef.any(axis=2)
            & modes.any(axis=1)[:, None]), contrib


_MAX_SERIES_TERMS = 300

# Truncation of a Lie series relative to a reference norm (that of V + u
# for a flow's displacement, eps for an averaging step): the remainder
# tolerance, and the floor below which modes of the running terms are pruned.
SERIES_TOL_REL = 1e-18
PRUNE_REL = 1e-16


def charge(ledger: dict | None, tag: str, amount: float) -> None:
    """Add a discarded amount (>= 0: every caller charges norms) to
    ledger[tag]; a zero amount or a None ledger records nothing."""
    if ledger is not None and amount:
        ledger[tag] = ledger.get(tag, 0.0) + float(amount)


def series_ratio(n: int, v_norm: float, s: float, sigma: float) -> float:
    """Majorant ratio rho = bracket_norm_const(n)*e*norm(V, s)/sigma.

    Both operators lie_series applies, X -> [X, V] and its first term
    X -> DX.V, obey the bracket estimate, so the m-th term of a series in
    them shrinks like rho^m at width s - sigma; rho < 1 is the convergence
    precondition.
    """
    if not 0 < sigma < s:
        raise ParameterError(f"need 0 < sigma < s, got sigma={sigma}, s={s}")
    rho = bracket_norm_const(n) * math.e * v_norm / sigma
    if rho >= 1.0:
        raise StepSizeError(
            f"Lie series majorant ratio {rho:.3g} >= 1 "
            f"(norm(V)={v_norm:.3g}, sigma={sigma:.3g}); "
            "increase Q or decrease the perturbation")
    return rho


def lie_series(op, V: FourierVectorField, rho: float,
               head: FourierVectorField, a: FourierVectorField,
               b: FourierVectorField, s: float, sigma: float, tol: float, *,
               floor: float = 0.0, ledger=None, tag: str = "lie_series"):
    """head + sum_{m>=1} (op_V^m a / m! + op_V^m b / (m+1)!), at s - sigma,
    with rho = series_ratio(n, norm(V, s), s, sigma).

    op is lie_bracket (op_V X = [X, V]: pullback by the time-1 flow of V is
    exp(op_V)) or lie_derivative (op_V X = DX.V: composition with that flow
    is exp(op_V), and the flow's displacement is sum op_V^m V / (m+1)!).
    a and b ride as one stack on the union of their modes, so a term is one
    _convolve call and builds no field, and the two series stop together:
    at the first m >= 2 where the remainder bound t*rho/(1-rho) of the
    term's norm t is at most tol, charged as `<tag>.series_tail`.  Modes
    of a member contributing less than floor at width s - sigma are pruned
    from it alone, charged as `<tag>.series_prune`.  head and the terms are
    merged once, each mode summed in the order of a chain of adds.
    Returns (sum, summed term norms).
    """
    for x in (head, a, b):
        _check_same_dim(x, V)
    n, w = V.n, s - sigma
    rows = np.zeros((len(a.modes) + len(b.modes), 2, n), dtype=np.complex128)
    rows[:len(a.modes), 0], rows[len(a.modes):, 1] = a.coef, b.coef
    modes, stack = _merge(np.concatenate([a.modes, b.modes]), rows)
    parts, total = [(head.modes, head.coef)], 0.0
    for m in range(1, _MAX_SERIES_TERMS + 1):
        modes, stack = _convolve(modes, stack, V, op is lie_bracket)
        stack = stack * (1.0 / m)
        if not stack.any():
            break
        term = stack[:, 0] + stack[:, 1] * (1.0 / (m + 1))
        parts.append((modes, term))
        t = _norm(modes, term, w)
        total += t
        drop, contrib = _below(modes, stack, w, floor)
        charge(ledger, f"{tag}.series_prune",
               2.0 * sum(float(contrib[drop[:, j], j].sum()) for j in (0, 1)))
        stack[drop] = 0.0
        live = stack.any(axis=(1, 2))
        modes, stack = modes[live], stack[live]
        rem = t * rho / (1.0 - rho)
        if m >= 2 and rem <= tol:
            charge(ledger, f"{tag}.series_tail", rem)
            break
    else:
        raise StepSizeError(
            f"Lie series did not reach tol={tol:.3g} within "
            f"{_MAX_SERIES_TERMS} terms (ratio {rho:.3g})")
    modes, coef = _merge(*map(np.concatenate, zip(*parts)))
    return _field(n, w, modes, coef), total


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def serialize(x: FourierVectorField) -> str:
    """One line per mode k >= 0 lexicographically: the back half of rows."""
    lines = [f"torusfield v1 n={x.n} s={_fmt(x.width_s)} kmax={x.k_max}"]
    half = len(x.modes) // 2
    for k, c in zip(x.modes[half:].tolist(), x.coef[half:]):
        lines.append(" ".join([str(v) for v in k] + [
            _fmt(part) for z in c for part in (z.real, z.imag)]))
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
        n, s, k_max = int(kv["n"]), float(kv["s"]), int(kv["kmax"])
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
        if mk in coeffs and mk != k and not (coeffs[mk] == np.conj(c)).all():
            raise RealityViolationError(
                f"modes {k} and {mk} are not conjugate", line=ln)
        if mk == k and np.any(c.imag != 0):
            raise RealityViolationError(
                f"self-conjugate mode {k} has nonzero imaginary part", line=ln)
    got_kmax = max((max(abs(v) for v in k) for k in coeffs), default=0)
    if got_kmax > k_max:
        raise ParseError(f"mode exceeds declared kmax={k_max}", line=1)
    _check_box(n, k_max)
    # conjugates are checked exact, so make_field only completes them
    return make_field(n, s, coeffs)
