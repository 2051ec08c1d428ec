"""Rational approximation of frequency vectors and resonance bounds.

Frequencies are alpha = (1, alpha_tilde) with alpha_tilde in [-1,1]^{n-1}.
Inputs arrive as binary64 floats and are treated as the exact dyadic
rationals they denote, so every search here is exact integer
arithmetic: for large denominators the fractional parts of q*alpha are
not determined by the data beyond that reading.  One lattice search in
Python integers serves Dirichlet's ||q x|| (dirichlet_approx, gamma_bar)
and its transpose ||k.x|| (gamma, psi).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ConstantsInconsistencyError, KamError, ParameterError,
                     ParseError, ResonanceError)

# The lattice search raises before enumerating a box of more cells.
_GRID_CELL_BUDGET = 1 << 20

# The Dirichlet search enumerates its box at the cap c = Q^(n-1) only
# when the box has at most this many cells; otherwise it climbs from
# c = 1.  Top boxes measured: 3-9 cells for golden at Q = 1e3..1e15,
# 7-27 for plastic at 1e3..1e7, 2.5e9 for (0.375, -0.5) at 1e5.
_TOP_BOX_CELLS = 1 << 10


def _check_tau(tau: float) -> None:
    if not 0 <= tau < math.inf:
        raise ParameterError(f"tau must be finite and >= 0, got {tau}")


@dataclass(frozen=True)
class FrequencyVector:
    """alpha = (1, alpha_tilde) with claimed Diophantine data (tau, gamma, gamma_bar)."""

    n: int
    alpha_tilde: array       # array("d"), float64 entries
    tau: float
    gamma: float
    gamma_bar: float

    def __post_init__(self):
        object.__setattr__(self, "alpha_tilde", array("d", self.alpha_tilde))
        if self.n < 2 or len(self.alpha_tilde) != self.n - 1:
            raise ParameterError(
                f"need n >= 2 and {self.n - 1} entries, got "
                f"{len(self.alpha_tilde)}")
        if not all(abs(x) <= 1 for x in self.alpha_tilde):
            raise ParameterError(
                "alpha_tilde entries must be finite and lie in [-1, 1]")
        _check_tau(self.tau)
        if not 0 < self.gamma <= 1:
            raise ParameterError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0 < self.gamma_bar < math.inf:
            raise ParameterError(
                f"gamma_bar must be finite and > 0, got {self.gamma_bar}")

    @property
    def alpha(self) -> tuple:
        return (1.0, *self.alpha_tilde)


@dataclass(frozen=True)
class RationalApprox:
    """omega = (1, p/q) produced by the box-principle search at parameter Q."""

    q: int
    p: tuple                 # ints, length n-1
    Q: float
    varpi: tuple             # floats alpha - omega, length n

    @property
    def omega(self) -> tuple:
        return (1.0, *(pi / self.q for pi in self.p))

    def q_omega(self) -> tuple:
        """q*omega = (q, p), an integer vector."""
        return (self.q, *self.p)


# ---------------------------------------------------------------------------
# exact rational helpers
# ---------------------------------------------------------------------------

def _as_fracs(alpha_tilde) -> list[Fraction]:
    return [Fraction(float(x)) for x in alpha_tilde]


def _lll(b: list[list[int]], u: list[list[int]]) -> None:
    """LLL-reduce the integer rows b in place (Lovasz constant 3/4).

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): d[i] is the Gram determinant of the first i rows
    and lam[k][j] = d[j+1]*mu_kj, both integers, and every division is
    exact.  Row k is size-reduced in full (mu rounded to the nearest
    integer, ties to even) before its Lovasz test.  As in Cohen, step 2
    runs only for k > k_max: the Gram-Schmidt data of a row is computed
    once, from n(n+1)/2 dot products in all, and kept current after that
    by the swap updates (size reduction leaves b*_k alone).  With
    b = U b_in, u holds the columns of U^-1 and follows each row
    operation: b[k] -= r*b[l] adds r*u[k] to u[l], and a row swap swaps
    u's columns.
    """
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                x = _dot(b[k], b[j])
                for i in range(j):
                    x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
                lam[k][j] = x
            d[k + 1] = lam[k][k]
        for l in range(k - 1, -1, -1):
            r, rem = divmod(lam[k][l], d[l + 1])
            r += 2 * rem > d[l + 1] or (2 * rem == d[l + 1] and r % 2)
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[l])]
                u[l] = [x + r * y for x, y in zip(u[l], u[k])]
                for i in range(l):
                    lam[k][i] -= r * lam[l][i]
                lam[k][l] -= r * d[l + 1]
        t = lam[k][k - 1] if k else 0
        if k and 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * t * t:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            lam[k - 1][:k - 1], lam[k][:k - 1] = (lam[k][:k - 1],
                                                  lam[k - 1][:k - 1])
            dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
            for i in range(k + 1, kmax + 1):
                x = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * x) // d[k]
                lam[i][k - 1] = (dk * x + t * lam[i][k]) // d[k + 1]
            d[k] = dk
            k -= 1
        else:
            k += 1


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _box_bounds(uinv, W, lead: int, Dd: int, c: int) -> list[int]:
    """floor(half * sum_i |(B0^-1 U^-1)_ij|) for each j (see _least_point),
    uinv holding the columns of U^-1: X^-1 = [[I, A/D], [0, -I/D]] gives
    half * B0^-1 = [[c*Dd I, c*W], [0, -lead I]] / Dd, Dd = D*dd, W = dd*A."""
    r = len(W)
    return [(c * sum(abs(Dd * u[i] + _dot(w, u[r:])) for i, w in enumerate(W))
             + lead * sum(map(abs, u[r:]))) // Dd for u in uinv]


def _integers(fracs):         # (D, a) with fracs = a/D, D their lcm
    D = math.lcm(*(x.denominator for x in fracs))
    return D, [x.numerator * (D // x.denominator) for x in fracs]


@functools.lru_cache(maxsize=256)
def _warm_basis(fracs: tuple, r: int) -> list:
    """[(U X, U^-1)] of the last reduced basis U B0 (see _least_point) of
    the lattice X = [[I_r, A], [0, -D I]], first (X, I), replaced whole,
    for 256 lattices (LRU).  Its points are (k, t), t = k A - D p: with
    fracs = a/D and A = a as a row (r = 1), t/D = q x - p for k = (q,);
    as a column (r = n - 1), t/D is the linear form k.x - p."""
    (D, a), n = _integers(fracs), len(fracs) + 1
    A = [a] if r == 1 else [[y] for y in a]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return [([eye[i][:r] + A[i] for i in range(r)]
             + [[-D * y for y in row] for row in eye[r:]], eye)]


def _norm_dist(k, t):
    return max(map(abs, k)), max(map(abs, t))


def _least_point(fracs, r: int, delta: Fraction, lo: int, cap: int,
                 key=_norm_dist):
    """Least (key(k, t), k, t) over the points of the lattice of fracs
    (_warm_basis) with k != 0, |t|_inf <= D*delta and key norm <= cap, or
    None; the default key (|k|_inf, |t|_inf) asks for the least q at r = 1.

    With delta = dn/dd and lead = dn*D, B0 = X diag(lead I_r, c*dd I) maps
    a point to v = (lead k, c*dd t), and |v|_inf <= half = lead*c exactly
    when |k|_inf <= c and |t|_inf <= D*delta.  Each LLL pass starts from
    the lattice's last U X and U^-1 scaled to its (delta, c) and stores
    its result back: one lattice, so no answer depends on call order.
    The integer coefficients of those v lie in a box (_box_bounds),
    enumerated in full, which at cap c holds every point of key norm
    <= c; as that norm is at least |k|_inf, v with |k|_inf above the
    least norm found are skipped.  With lo = 1 the first box is at cap
    (a few cells for a badly approximable x at the box-principle delta);
    otherwise, or above _TOP_BOX_CELLS cells, the caps climb c = lo,
    2 lo, 4 lo, ..., cap.
    """
    warm, (D, a) = _warm_basis(tuple(fracs), r), _integers(fracs)
    lead, dd = delta.numerator * D, delta.denominator
    W = [[y * dd for y in a]] if r == 1 else [[y * dd] for y in a]
    c, top = (cap, True) if lo == 1 else (lo, False)
    while True:
        ux, uinv = warm[0]
        s = c * dd
        basis = [[lead * y for y in row[:r]] + [s * y for y in row[r:]]
                 for row in ux]
        uinv = list(uinv)           # _lll rebinds u's rows, never edits one
        _lll(basis, uinv)
        warm[0] = ([[y // lead for y in row[:r]] + [y // s for y in row[r:]]
                    for row in basis], uinv)
        bounds = _box_bounds(uinv, W, lead, D * dd, c)
        cells = math.prod(2 * b + 1 for b in bounds)
        if top and cells > _TOP_BOX_CELLS:
            c, top = lo, False
            continue
        _check_cells(cells, "the lattice search")
        cols, zero, best = list(zip(*basis)), [0] * r, None
        kc, tc, half, kmax = cols[:r], cols[r:], lead * c, lead * c
        for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
            k = [_dot(x, col) for col in kc]    # of +-v, k's first y > 0
            if zero < k and max(map(abs, k)) <= kmax and all(
                    abs(_dot(x, col)) <= half for col in tc):
                k = [y // lead for y in k]
                t = [_dot(x, col) // s for col in tc]
                p = (key(k, t), k, t)
                if p[0][0] <= c and (best is None or p < best):
                    best, kmax = p, lead * p[0][0]
        if best is not None or c == cap:
            return best
        c = min(2 * c, cap)


def _minimal_points(fracs, r: int, cap: int, key=_norm_dist):
    """The minimal points (key, k, t) of key norm <= cap: each the least
    key with |t|_inf below the last one's, up to the range's least |t|_inf
    or t = 0.  Any function growing in the norm and |t|_inf is least at
    one of them.  After |t|_inf = d, an integer, D*delta = d - 1/2 > 0."""
    D, delta, lo = _integers(fracs)[0], Fraction(1, 2), 1
    while (point := _least_point(fracs, r, delta, lo, cap, key)) is not None:
        yield point
        (h, d), _, _ = point
        if d == 0:
            return
        delta, lo = Fraction(2 * d - 1, 2 * D), min(2 * h, cap)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _build_approx(fracs: list[Fraction], q: int, Q: float) -> RationalApprox:
    p = tuple(round(q * x) for x in fracs)    # Fraction rounds half to even
    varpi = (0.0, *(float(x - Fraction(pi, q)) for x, pi in zip(fracs, p)))
    return RationalApprox(q=int(q), p=p, Q=float(Q), varpi=varpi)


def _check_cells(cells: int, what: str) -> None:
    if cells > _GRID_CELL_BUDGET:
        from decimal import Decimal     # only to word this error
        # to 3 digits as :.3g prints, but exact: cells may exceed any float
        mant, exp = f"{Decimal(cells):.2e}".split("e")
        raise ParameterError(
            f"{what} would enumerate {mant.rstrip('0').rstrip('.')}"
            f"e{int(exp):+03d} lattice points, above the budget of "
            f"{_GRID_CELL_BUDGET}")


def _verify_dirichlet(fracs: list[Fraction], approx: RationalApprox,
                      delta: Fraction, qmax: int):
    for x, pi in zip(fracs, approx.p):
        if abs(approx.q * x - pi) > delta:
            raise KamError(
                "floating-point inconsistency: Dirichlet bound violated "
                f"at q={approx.q}")
    if not 1 <= approx.q <= qmax:
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
    return _dirichlet_approx(alpha.alpha_tilde.tobytes(), float(Q))


@functools.lru_cache(maxsize=256)
def _dirichlet_approx(alpha_tilde: bytes, Q: float) -> RationalApprox:
    """dirichlet_approx of the float64 alpha_tilde with these bytes; the
    256 most recently used (alpha_tilde, Q) are remembered."""
    fracs = _as_fracs(array("d", alpha_tilde))
    exact_Q = Fraction(Q)
    delta, qmax = 1 / exact_Q, math.floor(exact_Q ** len(fracs))
    point = _least_point(fracs, 1, delta, 1, qmax)
    if point is None:
        raise KamError("floating-point inconsistency: no Dirichlet "
                       "denominator found (mathematically impossible)")
    approx = _build_approx(fracs, point[1][0], Q)
    _verify_dirichlet(fracs, approx, delta, qmax)
    return approx


def psi_argmax(alpha: FrequencyVector, Q: float):
    """max |k . alpha|^{-1} over 0 < |k|_inf <= Q, with the arg-max k: the
    last minimal point (k_tilde, t) of the linear form, k_0 = -p counted
    in its norm, and of +-k the lexicographically smaller."""
    if not 1 <= Q < math.inf:
        raise ParameterError(f"Q must be finite and >= 1, got {Q}")
    fracs = _as_fracs(alpha.alpha_tilde)
    D, a = _integers(fracs)

    def key(k, t):                  # t = k.a - D*p
        return max(abs(_dot(k, a) - t[0]) // D, *map(abs, k)), abs(t[0])

    *_, ((_, d), k, t) = _minimal_points(fracs, len(a), math.floor(Q), key)
    k = ((t[0] - _dot(k, a)) // D, *k)
    k = min(k, tuple(-y for y in k))
    if d == 0:
        raise ResonanceError(f"exact resonance k.alpha = 0 at k={k}",
                             witness=k)
    try:
        return D / d, k
    except OverflowError:
        raise KamError(f"psi = 1/|k.alpha| at k={k} overflows the float "
                       "range") from None


def _least_weighted(fracs, r: int, cap: int, power: float, resonance: str):
    """min |t/D|_inf h^power over the points of norm h <= cap, rounded once
    per product; at t = 0, a ResonanceError worded by resonance.format(k)."""
    D = _integers(fracs)[0]
    best = math.inf
    for (h, d), k, _ in _minimal_points(fracs, r, math.floor(cap)):
        if d == 0:
            raise ResonanceError(resonance.format(tuple(k)), witness=tuple(k))
        best = min(best, d / D * float(h) ** power)
    return best


def estimate_constants(alpha_tilde, tau: float, k_range: int, q_range: int):
    """Finite-range lower estimates of (gamma, gamma_bar).

    gamma      = min_{0<|k|<=k_range} ||k . at||_Z |k|^{(1+tau)(n-1)}, capped at 1.
    gamma_bar  = min_{1<=q<=q_range} ||q at||_{Z^{n-1}} q^{(1+(n-1)tau)/(n-1)}.

    These are estimates over the range only, never proofs.
    """
    if not (1 <= k_range < math.inf and 1 <= q_range < math.inf):
        raise ParameterError(f"ranges must be >= 1 and finite, got "
                             f"k_range={k_range}, q_range={q_range}")
    _check_tau(tau)
    fracs, m = _as_fracs(alpha_tilde), len(alpha_tilde)
    gamma = _least_weighted(fracs, m, k_range, (1.0 + tau) * m,
                            "exact resonance at k={}")
    gamma_bar = _least_weighted(fracs, 1, q_range, (1.0 + m * tau) / m,
                                "exact simultaneous resonance at q={0[0]}")
    warnings.warn(
        "Diophantine constants estimated over a finite range "
        f"(k<={k_range}, q<={q_range}); they are consistency data, not proofs.",
        stacklevel=2)
    return min(gamma, 1.0), gamma_bar


def lower_denominator_bound(alpha: FrequencyVector,
                            approx: RationalApprox) -> float:
    """(gamma_bar * Q)^{(n-1)/(1+(n-1)tau)}; approx.q must dominate it."""
    n, tau = alpha.n, alpha.tau
    power = (n - 1) / (1.0 + (n - 1) * tau)
    try:
        bound = (alpha.gamma_bar * approx.Q) ** power
    except OverflowError:       # beyond the float range no q dominates it
        bound = math.inf
    if approx.q < bound:
        raise ConstantsInconsistencyError(
            f"q={approx.q} below the denominator bound {bound:.6g}; "
            "re-estimate gamma_bar over a wider range")
    return bound


# ---------------------------------------------------------------------------
# frequency file format
# ---------------------------------------------------------------------------

def serialize_frequency(alpha: FrequencyVector) -> str:
    head = (f"freq v1 n={alpha.n} tau={alpha.tau:.17g} "
            f"gamma={alpha.gamma:.17g} gammabar={alpha.gamma_bar:.17g}")
    body = "\n".join(format(float(v), ".17g") for v in alpha.alpha_tilde)
    return head + "\n" + body + "\n"


def deserialize_frequency(text: str) -> FrequencyVector:
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise ParseError("empty frequency file", line=1)
    first, head = lines[0][0], lines[0][1].split()
    if len(head) != 6 or head[0] != "freq" or head[1] != "v1":
        raise ParseError(f"bad header {lines[0][1]!r}", line=first)
    try:
        kv = dict(part.split("=", 1) for part in head[2:])
        n = int(kv["n"])
        tau = float(kv["tau"])
        gamma = float(kv["gamma"])
        gamma_bar = float(kv["gammabar"])
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad header field: {exc}", line=first) from None
    if n < 2:
        raise ParseError(f"n must be >= 2, got {n}", line=first)
    if len(lines) - 1 != n - 1:
        raise ParseError(
            f"expected {n - 1} frequency entries, got {len(lines) - 1}",
            line=lines[-1][0])
    entries = []
    for i, ln in lines[1:]:
        try:
            entries.append(float(ln))
        except ValueError as exc:
            raise ParseError(str(exc), line=i) from None
    return FrequencyVector(n=n, alpha_tilde=entries, tau=tau,
                           gamma=gamma, gamma_bar=gamma_bar)
