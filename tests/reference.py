"""Reference implementations the tests check kamtorus against.

Nothing here runs in the pipeline.  Time averages are quadrature, flows
are a locally written fixed-step integrator, and pullback Jacobians are
finite differences or the variational equation, so these checks share
no code path with the averaging step or the scheduler; only the plain
spectral evaluation of fields is shared.  The rest are single-point and
brute-force forms of what the pipeline computes in bulk: point
evaluation, spectral Jacobians, tail splits with their certified bound,
the omega-average projection, the Lie-series pullback, the Lie series
summed field by field, the displacement composed from it (with or
without the prune of each sum) and the resonant modes of a rational
frequency.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from kamtorus import averaging as avg
from kamtorus import field as fld
from kamtorus.diophantine import RationalApprox, _nonzero_box
from kamtorus.errors import (EmbeddingFailureError, ParameterError,
                             StepSizeError, StiffnessError)
from kamtorus.field import TWO_PI, FourierVectorField
from kamtorus.oracles import _fd_jacobians

# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

# Tail estimate guard: the bound exp(-2*pi*sigma*K) is attained exactly by a
# single mode with |k|_1 = |k|_inf = K, where float rounding can tip either
# way; the guard keeps the certified factor dominating in floating point.
ROUNDOFF_GUARD = 1.0 + 1e-12


def eval_at(x: FourierVectorField, theta) -> np.ndarray:
    """Evaluate the series at one (possibly complex) point inside the strip."""
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.shape != (x.n,):
        raise ParameterError(f"point must have shape ({x.n},)")
    if np.any(np.abs(theta.imag) >= x.width_s):
        raise ParameterError(
            f"point with |Im theta| = {np.abs(theta.imag).max()} outside "
            f"strip of width {x.width_s}")
    return np.exp(2j * np.pi * (x.modes @ theta)) @ x.coef


def derivative_matrix_many(x: FourierVectorField, thetas: np.ndarray) -> np.ndarray:
    """Spectral Jacobians dX_j/dtheta_l at (N, n) real points -> (N, n, n)."""
    thetas = np.asarray(thetas, dtype=float)
    kf = x.modes.astype(float)
    phases = np.exp(2j * np.pi * (thetas @ kf.T))  # (N, M)
    grad = (2j * np.pi) * x.coef[:, :, None] * kf[:, None, :]  # (M, n, n)
    return (phases @ grad.reshape(len(kf), x.n * x.n)).real.reshape(
        -1, x.n, x.n)


def tail_split(x: FourierVectorField, big_k: float):
    """Split into (low, high) with high holding exactly the modes |k| >= K."""
    high = np.abs(x.modes).max(axis=1, initial=0) >= big_k
    return (fld._field(x.n, x.width_s, x.modes, x.coef, ~high),
            fld._field(x.n, x.width_s, x.modes, x.coef, high))


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


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------

def omega_average(P: FourierVectorField,
                  approx: RationalApprox) -> FourierVectorField:
    """Projection onto the modes with k . omega = 0 (exact integer test)."""
    return avg._rows(P, avg._divisors(P, approx) == 0)


def lie_pullback(Y: FourierVectorField, V: FourierVectorField, s: float,
                 sigma: float,
                 ledger: dict | None = None) -> FourierVectorField:
    """Exact-coefficient evaluation of (V^1)^* Y = sum_m ad_V^m Y / m!.

    Truncated by fld.lie_series relative to norm(Y, s): a term's norm at
    width s - sigma down to SERIES_TOL_REL times that, modes down to
    PRUNE_REL times it; the ledger is charged what is dropped.  Requires
    the majorant ratio fld.series_ratio(n, norm(V, s), s, sigma) < 1.
    """
    if s > min(Y.width_s, V.width_s):
        raise ParameterError(
            f"s={s} exceeds the width of the inputs "
            f"({min(Y.width_s, V.width_s)})")
    pulled, _ = fld.lie_series(fld.lie_bracket, V, fld.norm(V, s), Y, Y,
                               fld.zero_field(Y.n, s), s, sigma,
                               fld.norm(Y, s), ledger=ledger,
                               tag="lie_pullback")
    return pulled


def lie_series_per_field(op, V: FourierVectorField, v_norm: float,
                         head: FourierVectorField, a: FourierVectorField,
                         b: FourierVectorField, s: float, sigma: float,
                         ref: float, *, ledger=None, tag: str = "lie_series",
                         prune_result: bool = True):
    """fld.lie_series as a loop over whole fields: two op calls, the
    scales, adds and prunes of each term on their own fields, the stop
    rule and the prune of the sum.  The stacked lie_series must give the
    same sum, term norms and ledger bit for bit.  prune_result=False keeps
    every mode of the sum."""
    w = s - sigma
    rho = fld.series_ratio(V.n, v_norm, s, sigma)
    floor = fld.PRUNE_REL * ref
    tol = fld.SERIES_TOL_REL * ref * rho / (1.0 - rho)
    acc, total = head, 0.0
    for m in range(1, fld._MAX_SERIES_TERMS + 1):
        a = fld.scale(op(a, V), 1.0 / m)
        b = fld.scale(op(b, V), 1.0 / m)
        term = fld.add(a, fld.scale(b, 1.0 / (m + 1)))
        if not (len(term.modes) or len(a.modes) or len(b.modes)):
            break
        acc = fld.add(acc, term)
        t = fld.norm(term, w)
        total += t
        a, lost_a = fld.prune(a, w, floor)
        b, lost_b = fld.prune(b, w, floor)
        fld.charge(ledger, f"{tag}.series_prune", 2.0 * (lost_a + lost_b))
        rem = t * rho / (1.0 - rho)
        if m >= 2 and rem <= tol:
            fld.charge(ledger, f"{tag}.series_tail", rem)
            break
    else:
        raise StepSizeError("Lie series did not reach tol")
    acc = replace(acc, width_s=w)
    if prune_result:
        acc, lost = fld.prune(acc, w, floor)
        fld.charge(ledger, f"{tag}.result_prune", lost)
    return acc, total


def displacement(n: int, flows, *, ledger=None, prune_result: bool = True):
    """embedding.displacement with each flow's series summed by
    lie_series_per_field and charged to ledger: run().u bit for bit, or,
    with prune_result=False, that composition with no mode of any sum
    pruned."""
    u = fld.zero_field(n, flows[0][0].width_s if flows else 1.0)
    for V, w in flows:
        s = V.width_s
        head = fld.add(V, u)
        u, _ = lie_series_per_field(
            fld.lie_derivative, V, fld.norm(V, s), head, u, V, s, s - w,
            fld.norm(head, s), ledger=ledger, prune_result=prune_result)
    return u


# ---------------------------------------------------------------------------
# diophantine
# ---------------------------------------------------------------------------

def enumerate_resonant(approx: RationalApprox, box: int) -> np.ndarray:
    """All nonzero k with k . omega = 0 and |k|_inf <= box, via the integer
    identity q*k_0 + k_tilde . p = 0.  Returns an (M, n) int array."""
    q = approx.q
    p = [int(v) for v in approx.p]
    kt = _nonzero_box(len(approx.p), box, "enumerate_resonant").astype(object)
    dots = kt @ np.array(p, dtype=object)
    mask = (dots % q == 0)
    kt = kt[mask]
    k0 = -(kt @ np.array(p, dtype=object)) // q
    keep = np.abs(k0.astype(np.int64)) <= box
    kt = kt[keep]
    k0 = k0[keep]
    return np.concatenate([k0[:, None], kt], axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# oracles: quadrature time averages, ODE flows and pullbacks
# ---------------------------------------------------------------------------

_NODE_CAP = 1 << 20
_FD_H = 1e-5


def quadrature_time_average(P: FourierVectorField, q: int, omega: np.ndarray,
                            nodes: int = 256):
    """Sampler for the time average int_0^1 P(theta + t*q*omega) dt.

    Periodic trapezoid quadrature (the plain mean over uniform nodes),
    spectrally exact once the node count exceeds the largest integer
    frequency |q * k . omega| of the integrand; the count is auto-raised
    to n*q*k_max + 1 when that stays reasonable.
    """
    if nodes < 16:
        raise ParameterError(f"need nodes >= 16, got {nodes}")
    omega = np.asarray(omega, dtype=float)
    need = P.n * q * P.k_max + 1
    if need > nodes and need <= _NODE_CAP:
        nodes = need
    ts = np.arange(nodes)[:, None] / nodes
    shifts = ts * (q * omega)[None, :]          # (nodes, n)

    def sampler(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        chunk = max(1, 65536 // max(1, len(pts)))
        for start in range(0, len(shifts), chunk):
            sh = shifts[start:start + chunk]
            grid = (pts[None, :, :] + sh[:, None, :]).reshape(-1, P.n)
            out += fld.eval_many(P, grid).reshape(
                len(sh), len(pts), P.n).sum(axis=0)
        return out / nodes

    return sampler


def _rk4(rhs, y0: np.ndarray, t: float, steps: int) -> np.ndarray:
    h = t / steps
    y = np.array(y0, dtype=float)
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def ode_flow(V: FourierVectorField, theta0, t: float, steps: int = 16,
             tol: float = 1e-12) -> np.ndarray:
    """Flow of theta' = V(theta) from theta0 for time t, fixed-step
    4th-order integration with step halving until successive results
    agree to tol."""
    theta0 = np.asarray(theta0, dtype=float)
    single = theta0.ndim == 1
    y0 = theta0[None, :] if single else theta0

    def rhs(y):
        return fld.eval_many(V, y)

    prev = _rk4(rhs, y0, t, steps)
    for _ in range(18):
        steps *= 2
        cur = _rk4(rhs, y0, t, steps)
        if np.abs(cur - prev).max() <= tol:
            return cur[0] if single else cur
        prev = cur
    raise StiffnessError(
        f"flow integration did not converge to {tol:g} at {steps} steps; "
        "the field is too large for this oracle")


def _flow_jacobians_variational(V: FourierVectorField,
                                thetas: np.ndarray) -> np.ndarray:
    """D(time-1 flow) by integrating J' = DV(theta(t)) J along the flow,
    batched over the rows of thetas."""
    npts, n = thetas.shape

    def rhs(state):
        y = state[:, :n]
        j = state[:, n:].reshape(-1, n, n)
        dy = fld.eval_many(V, y)
        dj = derivative_matrix_many(V, y) @ j
        return np.concatenate([dy, dj.reshape(-1, n * n)], axis=1)

    eye = np.broadcast_to(np.eye(n).ravel(), (npts, n * n))
    state0 = np.concatenate([thetas, eye], axis=1)
    steps = 16
    prev = _rk4(rhs, state0, 1.0, steps)
    for _ in range(14):
        steps *= 2
        cur = _rk4(rhs, state0, 1.0, steps)
        if np.abs(cur - prev).max() <= 1e-12:
            return cur[:, n:].reshape(npts, n, n)
        prev = cur
    raise StiffnessError("variational integration did not converge")


def grid_pullback_oracle(Y: FourierVectorField, V: FourierVectorField,
                         points, mode: str = "fd") -> np.ndarray:
    """(D Phi(theta))^{-1} Y(Phi(theta)) with Phi the time-1 flow of V,
    evaluated at the given real points; Jacobians by finite differences
    ('fd', Richardson-extrapolated) or the variational equation
    ('variational')."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    images = ode_flow(V, pts, 1.0)
    if mode == "fd":
        jacs = _fd_jacobians(lambda p: ode_flow(V, p, 1.0), pts, _FD_H)
    elif mode == "variational":
        jacs = _flow_jacobians_variational(V, pts)
    else:
        raise ParameterError(f"unknown Jacobian mode {mode!r}")
    yvals = fld.eval_many(Y, images)
    try:
        return np.linalg.solve(jacs, yvals[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise EmbeddingFailureError("singular flow Jacobian") from None
