"""Rational approximation of frequency vectors and resonance bounds.

Frequencies are alpha = (1, alpha_tilde) with alpha_tilde in [-1,1]^{n-1}.
Inputs arrive as binary64 floats and are treated as the exact dyadic
rationals they denote, so all approximation searches here are exact
integer arithmetic: for large denominators the fractional parts of
q*alpha are not determined by the data beyond that reading.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (ConstantsInconsistencyError, KamError, ParameterError,
                     ParseError, ResonanceError)

# Above this q-range the brute-force scan hands over to the exact
# continued-fraction / return-time enumeration paths.
_BRUTE_Q_CAP = 2_000_000

# dirichlet_approx remembers this many most recently used (alpha, Q)
_APPROX_CACHE_SIZE = 256
_approx_cache: OrderedDict = OrderedDict()

# psi_argmax, estimate_constants and enumerate_resonant raise before
# enumerating more integer points than this (tens of MB at n = 3).
_GRID_CELL_BUDGET = 1 << 20


@dataclass(frozen=True)
class FrequencyVector:
    """alpha = (1, alpha_tilde) with claimed Diophantine data (tau, gamma, gamma_bar)."""

    n: int
    alpha_tilde: np.ndarray
    tau: float
    gamma: float
    gamma_bar: float

    def __post_init__(self):
        object.__setattr__(self, "alpha_tilde",
                           np.asarray(self.alpha_tilde, dtype=float))
        if self.n < 2 or len(self.alpha_tilde) != self.n - 1:
            raise ParameterError(
                f"need n >= 2 and {self.n - 1} entries, got "
                f"{len(self.alpha_tilde)}")
        if not np.all(np.abs(self.alpha_tilde) <= 1):
            raise ParameterError(
                "alpha_tilde entries must be finite and lie in [-1, 1]")
        if not 0 <= self.tau < math.inf:
            raise ParameterError(
                f"tau must be finite and >= 0, got {self.tau}")
        if not 0 < self.gamma <= 1:
            raise ParameterError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0 < self.gamma_bar < math.inf:
            raise ParameterError(
                f"gamma_bar must be finite and > 0, got {self.gamma_bar}")

    @property
    def alpha(self) -> np.ndarray:
        return np.concatenate(([1.0], self.alpha_tilde))


@dataclass(frozen=True)
class RationalApprox:
    """omega = (1, p/q) produced by the box-principle search at parameter Q."""

    q: int
    p: np.ndarray            # integer vector, length n-1
    Q: float
    varpi: np.ndarray        # alpha - omega, length n

    @property
    def n(self) -> int:
        return len(self.p) + 1

    @property
    def omega(self) -> np.ndarray:
        return np.concatenate(([1.0], self.p / self.q))

    def q_omega(self) -> np.ndarray:
        """q*omega = (q, p), an integer vector."""
        return np.concatenate(([self.q], self.p)).astype(np.int64)


@dataclass(frozen=True)
class ResonanceBound:
    gamma_star: float
    a: float
    Q: float
    cutoff: float


# ---------------------------------------------------------------------------
# exact rational helpers
# ---------------------------------------------------------------------------

def _as_fracs(alpha_tilde) -> list[Fraction]:
    return [Fraction(float(x)) for x in alpha_tilde]


def _dist_to_int_frac(x: Fraction) -> Fraction:
    f = x - math.floor(x)
    return min(f, 1 - f)


def _round_half_even(x: Fraction) -> int:
    fl = math.floor(x)
    rem = x - fl
    if rem > Fraction(1, 2):
        return fl + 1
    if rem < Fraction(1, 2):
        return fl
    return fl if fl % 2 == 0 else fl + 1


def _convergent_denominators(num: int, den: int):
    """Yield (q_k, err) for the convergents of num/den, err = q_k*||.||
    as the exact Fraction ||q_k * num/den||_Z, in increasing q."""
    f = num % den
    if f == 0:
        yield 1, Fraction(0)
        return
    # continued fraction of f/den
    a, b = den, f        # x = f/den = [0; a1, a2, ...]
    q_prev, q_cur = 0, 1  # denominators of 0/1 then convergents
    yield 1, min(Fraction(f, den), Fraction(den - f, den))
    while b:
        part = a // b
        a, b = b, a - part * b
        q_prev, q_cur = q_cur, part * q_cur + q_prev
        if q_cur == 1:      # first partial quotient 1 revisits q=1
            continue
        err_num = (q_cur * f) % den
        yield q_cur, Fraction(min(err_num, den - err_num), den)
        if err_num == 0:
            return


def _smallest_q_within(num: int, den: int, delta: Fraction):
    """Smallest q >= 1 with ||q*num/den||_Z <= delta, or None."""
    for q, err in _convergent_denominators(num, den):
        if err <= delta:
            return q
    return None


def _one_sided_records(num: int, den: int, thresh: int):
    """Walk the one-sided best-approximation records of num/den.

    Returns (t_above, t_below): the smallest t with residue t*num mod den
    in (0, thresh] resp. [den-thresh, den).  Either may be None when the
    fraction is exactly rational with too coarse a residue lattice.
    Residue 0 (exact return) is reported on both sides with its period.
    """
    r1 = num % den
    if r1 == 0:
        return (1, 1)       # every t returns exactly
    qa, ra = 1, r1          # record with smallest positive residue
    qb, rb = 1, r1          # record with residue closest to den
    t_above = qa if ra <= thresh else None
    t_below = qb if den - rb <= thresh else None
    while t_above is None or t_below is None:
        if ra == 0 or rb == den:
            period = qa if ra == 0 else qb
            t_above = period if t_above is None else t_above
            t_below = period if t_below is None else t_below
            break
        gap_b = den - rb
        if ra + rb < den:
            # adding A to B raises B's residue by ra per step
            steps = (den - 1 - rb) // ra
            if t_below is None:
                need = (den - thresh) - rb
                j = -(-need // ra)
                if 0 < j <= steps:
                    t_below = qb + j * qa
            qb += steps * qa
            rb += steps * ra
        else:
            # adding B to A lowers A's residue by (den - rb) per step;
            # residue 0 (a period of the lattice) is a legal stopping state
            if ra % gap_b == 0:
                steps = ra // gap_b
            else:
                steps = (ra - 1) // gap_b
            if t_above is None:
                need = ra - thresh
                j = -(-need // gap_b)
                if 0 < j <= steps:
                    t_above = qa + j * qb
            qa += steps * qb
            ra -= steps * gap_b
    return (t_above, t_below)


def _return_offsets(num: int, den: int, thresh: int):
    """Candidate gaps of the set {t : ||t*num/den|| <= thresh/den}."""
    ta, tb = _one_sided_records(num, den, thresh)
    offs = sorted({t for t in (ta, tb) if t} |
                  ({ta + tb} if ta and tb else set()))
    return offs


class _ExactCoord:
    """Exact membership test ||q*x|| <= delta for one coordinate."""

    def __init__(self, x: Fraction, delta: Fraction):
        self.num = x.numerator % x.denominator
        self.den = x.denominator
        # ||q x|| <= delta  <=>  min(r, den-r) <= floor(delta*den)
        self.thresh = (delta.numerator * self.den) // delta.denominator

    def hit(self, q: int) -> bool:
        r = (q * self.num) % self.den
        return min(r, self.den - r) <= self.thresh


def _dirichlet_ladder(alpha_fracs, delta: Fraction, qmax: int):
    """Smallest q <= qmax hitting every coordinate within delta, found by
    enumerating the return times of coordinate 0 (three-distance gaps)."""
    lead = alpha_fracs[0]
    num, den = lead.numerator % lead.denominator, lead.denominator
    coords = [_ExactCoord(x, delta) for x in alpha_fracs]
    q = _smallest_q_within(num, den, delta)
    if q is None:
        return None
    # window 2*delta return offsets of the leading coordinate
    thresh2 = (2 * delta.numerator * den) // delta.denominator
    offsets = _return_offsets(num, den, max(thresh2, 1))
    while q <= qmax:
        if all(c.hit(q) for c in coords):
            return q
        nxt = None
        for t in offsets:
            if coords[0].hit(q + t):
                nxt = q + t
                break
        if nxt is None:
            # three-distance guarantees one of the offsets works; scan as
            # a safety net against a degenerate lattice
            step = offsets[-1] if offsets else 1
            cand = q + 1
            while cand <= q + step and not coords[0].hit(cand):
                cand += 1
            nxt = cand
        q = nxt
    return None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _build_approx(alpha: FrequencyVector, q: int, Q: float) -> RationalApprox:
    fracs = _as_fracs(alpha.alpha_tilde)
    p = [_round_half_even(q * x) for x in fracs]
    varpi = np.array(
        [0.0] + [float(x - Fraction(pi, q)) for x, pi in zip(fracs, p)])
    return RationalApprox(q=int(q), p=np.array(p, dtype=np.int64),
                          Q=float(Q), varpi=varpi)


def _check_cells(cells: int, what: str) -> None:
    if cells > _GRID_CELL_BUDGET:
        raise ParameterError(
            f"{what} would enumerate {cells} lattice points, above the "
            f"budget of {_GRID_CELL_BUDGET}")


def _verify_dirichlet(alpha: FrequencyVector, approx: RationalApprox, Q: float):
    fracs = _as_fracs(alpha.alpha_tilde)
    delta = 1 / Fraction(float(Q))
    for x, pi in zip(fracs, approx.p):
        if abs(approx.q * x - int(pi)) > delta:
            raise KamError(
                "floating-point inconsistency: Dirichlet bound violated "
                f"at q={approx.q}")
    if not 1 <= approx.q <= math.floor(Fraction(float(Q)) ** (alpha.n - 1)):
        raise KamError(
            f"floating-point inconsistency: q={approx.q} outside "
            f"[1, Q^(n-1)]")


def dirichlet_approx(alpha: FrequencyVector, Q: float) -> RationalApprox:
    """Smallest q in [1, Q^{n-1}] with |q*alpha_tilde - p|_inf <= 1/Q.

    The box principle guarantees existence.  Tie-break: smallest q; the
    nearest-integer p uses round-half-to-even.
    """
    if not 1 <= Q < math.inf:
        raise ParameterError(f"Q must be finite and >= 1, got {Q}")
    key = (alpha.alpha_tilde.tobytes(), float(Q))
    hit = _approx_cache.get(key)
    if hit is not None:
        _approx_cache.move_to_end(key)
        return hit
    n = alpha.n
    delta = 1 / Fraction(float(Q))
    qmax = math.floor(Fraction(float(Q)) ** (n - 1))
    fracs = _as_fracs(alpha.alpha_tilde)

    if n == 2:      # a q above qmax fails _verify_dirichlet
        x = fracs[0]
        q = _smallest_q_within(x.numerator % x.denominator, x.denominator,
                               delta)
    elif qmax <= _BRUTE_Q_CAP:
        q = _dirichlet_brute(alpha.alpha_tilde, float(Q), qmax, fracs, delta)
    else:
        q = _dirichlet_ladder(fracs, delta, qmax)
    if q is None:
        raise KamError("floating-point inconsistency: no Dirichlet "
                       "denominator found (mathematically impossible)")
    approx = _build_approx(alpha, q, Q)
    _verify_dirichlet(alpha, approx, Q)
    _approx_cache[key] = approx
    if len(_approx_cache) > _APPROX_CACHE_SIZE:
        _approx_cache.popitem(last=False)
    return approx


def _dirichlet_brute(alpha_tilde, Q, qmax, fracs, delta):
    """Vectorized float scan with exact confirmation of the winner."""
    at = np.asarray(alpha_tilde, dtype=float)
    chunk = 262_144
    for start in range(1, qmax + 1, chunk):
        qs = np.arange(start, min(start + chunk, qmax + 1), dtype=float)
        prod = qs[:, None] * at[None, :]
        err = np.abs(prod - np.round(prod)).max(axis=1)
        # keep a small float margin, confirm candidates exactly
        cand = np.nonzero(err <= 1.0 / Q + 1e-9)[0]
        for idx in cand:
            q = int(qs[idx])
            if all(_dist_to_int_frac(q * x) <= delta for x in fracs):
                return q
    return None


def psi_argmax(alpha: FrequencyVector, Q: float):
    """max |k . alpha|^{-1} over 0 < |k|_inf <= Q, with the arg-max k."""
    if not 1 <= Q < math.inf:
        raise ParameterError(f"Q must be finite and >= 1, got {Q}")
    kf = math.floor(Q)
    _check_cells((2 * kf + 1) ** alpha.n, "psi")
    rng = np.arange(-kf, kf + 1)
    grids = np.meshgrid(*([rng] * alpha.n), indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    ks = ks[np.any(ks != 0, axis=1)]
    vals = np.abs(ks @ alpha.alpha)
    imin = int(np.argmin(vals))
    if vals[imin] == 0.0:
        raise ResonanceError(
            f"exact resonance k.alpha = 0 at k={tuple(ks[imin])}",
            witness=tuple(int(v) for v in ks[imin]))
    return 1.0 / float(vals[imin]), tuple(int(v) for v in ks[imin])


def psi(alpha: FrequencyVector, Q: float) -> float:
    return psi_argmax(alpha, Q)[0]


def estimate_constants(alpha_tilde, tau: float, k_range: int, q_range: int):
    """Finite-range lower estimates of (gamma, gamma_bar).

    gamma      = min_{0<|k|<=k_range} ||k . at||_Z |k|^{(1+tau)(n-1)}, capped at 1.
    gamma_bar  = min_{1<=q<=q_range} ||q at||_{Z^{n-1}} q^{(1+(n-1)tau)/(n-1)}.

    These are estimates over the scanned range only, never proofs.
    """
    if k_range < 1 or q_range < 1:
        raise ParameterError("ranges must be >= 1")
    at = np.asarray(alpha_tilde, dtype=float)
    m = len(at)
    n = m + 1
    exp_lin = (1.0 + tau) * (n - 1)
    exp_sim = (1.0 + (n - 1) * tau) / (n - 1)

    gamma = np.inf
    if m == 1:
        ks = np.arange(1, k_range + 1, dtype=float)
        dist = np.abs(ks * at[0] - np.round(ks * at[0]))
        if np.any(dist == 0):
            bad = int(np.nonzero(dist == 0)[0][0]) + 1
            raise ResonanceError(
                f"exact resonance ||k.alpha_tilde|| = 0 at k={bad}",
                witness=(bad,))
        gamma = float(np.min(dist * ks ** exp_lin))
    else:
        _check_cells((2 * k_range + 1) ** m, "estimate_constants")
        rng = np.arange(-k_range, k_range + 1)
        grids = np.meshgrid(*([rng] * m), indexing="ij")
        ks = np.stack([g.ravel() for g in grids], axis=1)
        ks = ks[np.any(ks != 0, axis=1)]
        prod = ks.astype(float) @ at
        dist = np.abs(prod - np.round(prod))
        if np.any(dist == 0):
            w = ks[int(np.nonzero(dist == 0)[0][0])]
            raise ResonanceError(
                f"exact resonance at k={tuple(w)}",
                witness=tuple(int(v) for v in w))
        knorm = np.abs(ks).max(axis=1).astype(float)
        gamma = float(np.min(dist * knorm ** exp_lin))
    gamma = min(gamma, 1.0)

    qs = np.arange(1, q_range + 1, dtype=float)
    prod = qs[:, None] * at[None, :]
    dist = np.abs(prod - np.round(prod)).max(axis=1)
    if np.any(dist == 0):
        bad = int(np.nonzero(dist == 0)[0][0]) + 1
        raise ResonanceError(
            f"exact simultaneous resonance at q={bad}", witness=(bad,))
    gamma_bar = float(np.min(dist * qs ** exp_sim))

    warnings.warn(
        "Diophantine constants estimated over a finite range "
        f"(k<={k_range}, q<={q_range}); they are consistency data, not proofs.",
        stacklevel=2)
    return gamma, gamma_bar


def resonance_bound(alpha: FrequencyVector, Q: float) -> ResonanceBound:
    """Lower bound |k| >= gamma_star * Q^{1/a} for nonzero resonant modes
    of the Dirichlet approximation at parameter Q.

    a = 1 + (n-1)tau and
    gamma_star = (gamma * gamma_bar^{(n-1)/(1+(n-1)tau)} / n)^{1/(n+(n-1)tau)}.
    """
    n, tau = alpha.n, alpha.tau
    a = 1.0 + (n - 1) * tau
    gs = (alpha.gamma * alpha.gamma_bar ** ((n - 1) / a) / n) \
        ** (1.0 / (n + (n - 1) * tau))
    return ResonanceBound(gamma_star=gs, a=a, Q=float(Q),
                          cutoff=gs * float(Q) ** (1.0 / a))


def lower_denominator_bound(alpha: FrequencyVector,
                            approx: RationalApprox) -> float:
    """(gamma_bar * Q)^{(n-1)/(1+(n-1)tau)}; approx.q must dominate it."""
    n, tau = alpha.n, alpha.tau
    bound = (alpha.gamma_bar * approx.Q) ** ((n - 1) / (1.0 + (n - 1) * tau))
    if approx.q < bound:
        raise ConstantsInconsistencyError(
            f"q={approx.q} below the denominator bound {bound:.6g}; "
            "re-estimate gamma_bar over a wider range")
    return bound


def enumerate_resonant(approx: RationalApprox, box: int) -> np.ndarray:
    """All nonzero k with k . omega = 0 and |k|_inf <= box, via the integer
    identity q*k_0 + k_tilde . p = 0.  Returns an (M, n) int array."""
    q = approx.q
    p = [int(v) for v in approx.p]
    n = approx.n
    if n == 2:
        g = math.gcd(q, abs(p[0])) if p[0] != 0 else q
        step_k1 = q // g
        out = []
        j = 1
        while True:
            k1 = j * step_k1
            k0 = -j * (p[0] // g)
            if max(abs(k0), k1) > box:
                break
            out.append((k0, k1))
            out.append((-k0, -k1))
            j += 1
        return np.array(sorted(out), dtype=np.int64).reshape(-1, 2)
    _check_cells((2 * box + 1) ** (n - 1), "enumerate_resonant")
    rng = np.arange(-box, box + 1)
    grids = np.meshgrid(*([rng] * (n - 1)), indexing="ij")
    kt = np.stack([g.ravel() for g in grids], axis=1).astype(object)
    dots = kt @ np.array(p, dtype=object)
    mask = (dots % q == 0)
    kt = kt[mask]
    k0 = -(kt @ np.array(p, dtype=object)) // q
    keep = np.abs(k0.astype(np.int64)) <= box
    kt = kt[keep]
    k0 = k0[keep]
    ks = np.concatenate([k0[:, None], kt], axis=1).astype(np.int64)
    ks = ks[np.any(ks != 0, axis=1)]
    return ks


# ---------------------------------------------------------------------------
# frequency file format
# ---------------------------------------------------------------------------

def serialize_frequency(alpha: FrequencyVector) -> str:
    head = (f"freq v1 n={alpha.n} tau={alpha.tau:.17g} "
            f"gamma={alpha.gamma:.17g} gammabar={alpha.gamma_bar:.17g}")
    body = "\n".join(format(float(v), ".17g") for v in alpha.alpha_tilde)
    return head + "\n" + body + "\n"


def deserialize_frequency(text: str) -> FrequencyVector:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty frequency file", line=1)
    head = lines[0].split()
    if len(head) != 6 or head[0] != "freq" or head[1] != "v1":
        raise ParseError(f"bad header {lines[0]!r}", line=1)
    try:
        kv = dict(part.split("=", 1) for part in head[2:])
        n = int(kv["n"])
        tau = float(kv["tau"])
        gamma = float(kv["gamma"])
        gamma_bar = float(kv["gammabar"])
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad header field: {exc}", line=1) from None
    if len(lines) - 1 != n - 1:
        raise ParseError(
            f"expected {n - 1} frequency entries, got {len(lines) - 1}",
            line=len(lines))
    try:
        entries = [float(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return FrequencyVector(n=n, alpha_tilde=np.array(entries), tau=tau,
                           gamma=gamma, gamma_bar=gamma_bar)
