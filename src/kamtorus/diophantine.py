"""Rational approximation of frequency vectors and resonance bounds.

Frequencies are alpha = (1, alpha_tilde) with alpha_tilde in [-1,1]^{n-1}.
Inputs arrive as binary64 floats and are treated as the exact dyadic
rationals they denote, so all approximation searches here are exact
integer arithmetic: for large denominators the fractional parts of
q*alpha are not determined by the data beyond that reading.  That exact
layer imports no numpy; the float scans (psi_argmax, estimate_constants)
import it when called.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ConstantsInconsistencyError, KamError, ParameterError,
                     ParseError, ResonanceError)

# The lattice enumerations of this module raise before enumerating more
# integer points than this (tens of MB at n = 3).
_GRID_CELL_BUDGET = 1 << 20

# The Dirichlet search enumerates its box at the cap c = Q^(n-1) only
# when the box has at most this many cells; otherwise it climbs from
# c = 1.  Top boxes measured on badly approximable inputs: 3-9 cells for
# golden at Q = 1e3..1e15, 7-27 for plastic at 1e3..1e7, 9-75 for
# (2^(1/3) - 1, 2^(2/3) - 1) at 1e3..1e7, 135-315 for
# (2^(1/4) - 1, 2^(1/2) - 1, 2^(3/4) - 1) at 1e2..1e4.  On rational
# inputs: 5,001 for (0.25, 0.5) at Q = 100, 2,805 for (golden, 0.5, 1/3)
# at 50, 2.5e9 for (0.375, -0.5) at 1e5.
_TOP_BOX_CELLS = 1 << 10


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
        if not 0 <= self.tau < math.inf:
            raise ParameterError(
                f"tau must be finite and >= 0, got {self.tau}")
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
    return sum(x * y for x, y in zip(u, v))


def _box_bounds(uinv, w, lead: int, Dd: int, c: int) -> list[int]:
    """floor(half * sum_i |(B0^-1 U^-1)_ij|) for each j, in integers (see
    _smallest_dirichlet_q); uinv holds the columns of U^-1."""
    return [(c * abs(Dd * u[0] + _dot(w, u[1:]))
             + lead * sum(abs(y) for y in u[1:])) // Dd for u in uinv]


@functools.lru_cache(maxsize=256)
def _warm_basis(fracs: tuple) -> list:
    """[(U X, U^-1)] of the last reduced search basis U B0 of the exact
    rationals fracs, first (X, I) (see _smallest_dirichlet_q); the pair
    is replaced whole, never edited.  256 frequencies are kept (LRU)."""
    D, m = math.lcm(*(x.denominator for x in fracs)), len(fracs)
    X = [[1] + [x.numerator * (D // x.denominator) for x in fracs]]
    X += [[0] * (i + 1) + [-D] + [0] * (m - 1 - i) for i in range(m)]
    return [(X, [[int(i == j) for i in range(m + 1)] for j in range(m + 1)])]


def _box_q(basis, bounds, lead: int, c: int):
    """Smallest q >= 1 of the vectors v = x B, x in the coefficient box,
    with |v|_inf <= half = lead*c (then v_0 = q*lead), or None."""
    half = lead * c
    cols = list(zip(*basis))
    best = None
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        v0 = _dot(x, cols[0])
        if 0 < v0 <= half and (best is None or v0 < best) and all(
                abs(_dot(x, col)) <= half for col in cols[1:]):
            best = v0
    return None if best is None else best // lead


def _smallest_dirichlet_q(fracs, delta, qmax: int):
    """Smallest q >= 1 with ||q x||_Z <= delta for every x, or None.

    All arithmetic is on the integers of the exact rationals x and delta.
    With x_i = a_i/D, delta = dn/dd and lead = dn*D, the vectors
    v = q*b_0 + sum_i p_i*b_i of the lattice with rows
    b_0 = (lead, a_1*c*dd, ..., a_m*c*dd) and b_i = -D*c*dd e_i satisfy
    |v|_inf <= half = lead*c exactly when q <= c and |q x_i - p_i| <= delta,
    and then v_0 = q*lead.  These rows are B0 = X diag(lead, c*dd, ...,
    c*dd), where X has rows (1, a_1, ..., a_m) and -D e_i and is free of
    Q and c, so a reduced basis U B0 is U X times that diagonal.  Each LLL
    pass starts from the frequency's last U X and U^-1 (X and I at first,
    see _warm_basis) scaled to its own (delta, c), and stores its result
    back: every start spans the same lattice, so no answer depends on the
    order of calls.  After LLL, the integer coefficients of those v lie
    in a box that is enumerated in full: |coefficient j| <= half * sum_i
    |(B0^-1 U^-1)_ij|, and half * B0^-1 = [[E, c*w], [0, -lead*I]] / (D*dd)
    with E = D*dd*c and w = b_0[1:] at c = 1: one integer division per
    bound.  The box at cap c holds every admissible q <= c, so the
    smallest q of any box that holds one is the answer.  The first cap is
    the box-principle cap c = qmax: for a badly approximable x its box
    has a few cells and holds a q (qmax = floor(Q^(n-1)) admits one).
    Where it has more than _TOP_BOX_CELLS (a rational x, with many
    admissible q below qmax), the search climbs from c = 1, growing c
    16-fold until a q is found (None once c passes qmax), so that each
    box holds few admissible q.
    """
    warm = _warm_basis(tuple(fracs))
    D = math.lcm(*(x.denominator for x in fracs))
    dn, dd = delta.numerator, delta.denominator
    lead, Dd = dn * D, D * dd
    w = [x.numerator * (D // x.denominator) * dd for x in fracs]
    c, top = qmax, True
    while True:
        ux, uinv = warm[0]
        s = c * dd
        basis = [[lead * row[0]] + [s * y for y in row[1:]] for row in ux]
        uinv = list(uinv)           # _lll rebinds u's rows, never edits one
        _lll(basis, uinv)
        warm[0] = ([[row[0] // lead] + [y // s for y in row[1:]]
                    for row in basis], uinv)
        bounds = _box_bounds(uinv, w, lead, Dd, c)
        cells = math.prod(2 * b + 1 for b in bounds)
        if top and cells > _TOP_BOX_CELLS:
            c, top = 1, False
            continue
        _check_cells(cells, "dirichlet_approx")
        q = _box_q(basis, bounds, lead, c)
        if q is not None or c >= qmax:
            return q
        c *= 16


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


def _nonzero_box(n: int, K: int, what: str):
    """The nonzero integer vectors with |k|_inf <= K, as an (M, n) int
    array in lexicographic order, within the lattice-point budget."""
    import numpy as np
    _check_cells((2 * K + 1) ** n, what)
    rng = np.arange(-K, K + 1)
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    return ks[np.any(ks != 0, axis=1)]


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
    q = _smallest_dirichlet_q(fracs, delta, qmax)
    if q is None:
        raise KamError("floating-point inconsistency: no Dirichlet "
                       "denominator found (mathematically impossible)")
    approx = _build_approx(fracs, q, Q)
    _verify_dirichlet(fracs, approx, delta, qmax)
    return approx


def psi_argmax(alpha: FrequencyVector, Q: float):
    """max |k . alpha|^{-1} over 0 < |k|_inf <= Q, with the arg-max k."""
    import numpy as np
    if not 1 <= Q < math.inf:
        raise ParameterError(f"Q must be finite and >= 1, got {Q}")
    ks = _nonzero_box(alpha.n, math.floor(Q), "psi")
    vals = np.abs(ks @ np.array(alpha.alpha))
    imin = int(np.argmin(vals))
    if vals[imin] == 0.0:
        raise ResonanceError(
            f"exact resonance k.alpha = 0 at k={tuple(ks[imin])}",
            witness=tuple(int(v) for v in ks[imin]))
    return 1.0 / float(vals[imin]), tuple(int(v) for v in ks[imin])


def estimate_constants(alpha_tilde, tau: float, k_range: int, q_range: int):
    """Finite-range lower estimates of (gamma, gamma_bar).

    gamma      = min_{0<|k|<=k_range} ||k . at||_Z |k|^{(1+tau)(n-1)}, capped at 1.
    gamma_bar  = min_{1<=q<=q_range} ||q at||_{Z^{n-1}} q^{(1+(n-1)tau)/(n-1)}.

    These are estimates over the scanned range only, never proofs.
    """
    import numpy as np
    if k_range < 1 or q_range < 1:
        raise ParameterError("ranges must be >= 1")
    _check_cells(q_range, "estimate_constants")
    at = np.asarray(alpha_tilde, dtype=float)
    m = len(at)
    n = m + 1
    exp_lin = (1.0 + tau) * (n - 1)
    exp_sim = (1.0 + (n - 1) * tau) / (n - 1)

    ks = _nonzero_box(m, k_range, "estimate_constants")
    prod = ks.astype(float) @ at
    dist = np.abs(prod - np.round(prod))
    if np.any(dist == 0):
        w = ks[int(np.nonzero(dist == 0)[0][0])]
        raise ResonanceError(f"exact resonance at k={tuple(w)}",
                             witness=tuple(int(v) for v in w))
    knorm = np.abs(ks).max(axis=1).astype(float)
    gamma = min(float(np.min(dist * knorm ** exp_lin)), 1.0)

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
