"""The two oracles that `run` and `verify` check a solution with.

conjugacy_report measures the sup-norm defect of Phi^*(X_alpha + P +
X_beta) = X_alpha over a lattice, with Jacobians of Phi by finite
differences.  orbit_shadowing_check integrates an orbit of the corrected
field in co-moving form by windowed Picard iteration on Lobatto IIIA-3
(Simpson) collocation nodes and compares it with the rotated embedding.
Neither reuses the averaging or scheduler code paths; only the plain
spectral evaluation of fields is shared.

Both take the stored displacement u = Phi - Id and are the only code
that evaluates Phi = Id + u, through real_torus_view(u); the null control
is u = 0.
"""

from __future__ import annotations

import numpy as np

from . import field as fld
from .errors import EmbeddingFailureError, StiffnessError
from .field import FourierVectorField


def _fd_jacobians(evaluate, thetas: np.ndarray, h: float) -> np.ndarray:
    """Batched central-difference Jacobians of `evaluate` at the rows of
    thetas, steps h and h/2 combined by Richardson extrapolation.

    All shifted points go through `evaluate` in a single call, so a map
    whose evaluation depends on its batch (a flow-map integrator's step
    count, say) is differenced consistently across the stencil.
    """
    npts, n = thetas.shape
    shifts = []
    for step in (h, h / 2.0):
        for l in range(n):
            e = np.zeros(n)
            e[l] = step
            shifts.append(thetas + e)
            shifts.append(thetas - e)
    vals = evaluate(np.concatenate(shifts, axis=0))
    vals = vals.reshape(2, n, 2, npts, n)    # (step, axis, sign, pt, comp)
    out = np.empty((2, npts, n, n))
    for si in range(2):
        step = h if si == 0 else h / 2.0
        for l in range(n):
            out[si, :, :, l] = (vals[si, l, 0] - vals[si, l, 1]) / (2 * step)
    return (4.0 * out[1] - out[0]) / 3.0


def real_torus_view(u: FourierVectorField) -> FourierVectorField:
    """u without the modes below 2^-53 S / M, where S = sum_k max_j |c_{j,k}|
    over its M modes: the dropped modes sum to at most 2^-53 S, below the
    roundoff of evaluating u on the real torus.  Mode 0 is kept."""
    if not len(u.modes):
        return u
    mass = np.abs(u.coef).max(axis=1)
    view, _ = fld.prune(u, 0.0, 2.0 ** -53 * mass.sum() / len(mass))
    return view


def _embedding(u: FourierVectorField):
    """Phi = Id + u at real points (N, n), through real_torus_view(u)."""
    view = real_torus_view(u)
    return lambda thetas: thetas + fld.eval_many(view, thetas)


# The embedding is evaluated to ~1e-13, so its FD Jacobian is roundoff
# limited: error ~ eps_mach/h + h^4 |Phi^(5)|.  For near-identity maps the
# fifth derivative term stays tiny, so a larger h than the 1e-5 that suits
# a flow map's Jacobian strictly reduces the noise floor.
_FD_H_EMBEDDING = 4e-5


def conjugacy_report(alpha, P: FourierVectorField, u: FourierVectorField,
                     beta, grid: int) -> dict:
    """Sup-norm conjugacy defect of Phi^*(X_alpha + P + X_beta) = X_alpha,
    with Phi = Id + u, over a grid^n lattice, plus the smallest Jacobian
    determinant seen."""
    n = alpha.n
    fld.check_dimension(n, P=P, u=u)
    phi = _embedding(u)
    axes = [np.arange(grid) / grid] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    images = phi(pts)
    jacs = _fd_jacobians(phi, pts, _FD_H_EMBEDDING)
    dets = np.linalg.det(jacs)
    if np.any(np.abs(dets) < 1e-12):
        raise EmbeddingFailureError(
            f"singular embedding Jacobian (min |det| = "
            f"{np.abs(dets).min():.3g})")
    yvals = (alpha.alpha + np.asarray(beta, dtype=float)
             + fld.eval_many(P, images))
    pulled = np.linalg.solve(jacs, yvals[:, :, None])[:, :, 0]
    residual = float(np.abs(pulled - alpha.alpha[None, :]).max())
    return {"sup_residual": residual, "grid": grid,
            "jacobian_min_det": float(np.abs(dets).min())}


# Orbit check: windows per lip * sample interval (lip >= sup|DP|, so a sweep
# contracts ~1/8), the relative Picard stop, and sweeps allowed per sample.
_ORBIT_WINDOWS_PER_LIP = 8
_PICARD_TOL = 1e-15
_ORBIT_SWEEPS_PER_SAMPLE = 512


def orbit_shadowing_check(alpha, P: FourierVectorField,
                          u: FourierVectorField, beta, T: float,
                          samples: int) -> float:
    """Max torus distance of the orbit of X_alpha + P + X_beta from
    Phi(theta0) to Phi(theta0 + t*alpha) at sample times t in [0, T], with
    Phi = Id + u and theta0 = frac(sqrt(2), ..., sqrt(n+1)).  The orbit is
    Phi(theta0) + t*alpha + z, z' = beta + P(orbit); Picard sweeps solve a
    window's Lobatto IIIA-3 nodes at once, one eval_many a sweep."""
    n = alpha.n
    fld.check_dimension(n, P=P, u=u)
    phi = _embedding(u)
    theta0 = np.sqrt(np.arange(2, 2 + n)) % 1.0
    a, b = alpha.alpha, np.asarray(beta, dtype=float)
    times = np.linspace(0.0, T, samples + 1)
    start = phi(theta0[None, :])[0]
    lip = 2 * np.pi * (np.abs(P.modes).sum(1) @ np.abs(P.coef)).max(initial=0)
    wins = max(1.0, np.ceil(_ORBIT_WINDOWS_PER_LIP * lip * T / samples))
    budget = _ORBIT_SWEEPS_PER_SAMPLE * samples
    too_large = StiffnessError(
        f"orbit check needs over {budget} Picard sweeps (sup|DP| <= "
        f"{lip:.3g}, {wins:.3g} windows a sample): too large for this oracle")
    if wins > _ORBIT_SWEEPS_PER_SAMPLE:
        raise too_large
    wins, sweeps = int(wins), 0

    def trajectory(substeps):
        nonlocal sweeps
        steps = -(-substeps // wins)         # per window
        frac = np.arange(2 * steps * wins + 1) / (2 * steps * wins)
        z = np.zeros(n)
        out = [z]
        for i in range(samples):
            dt = times[i + 1] - times[i]
            h = dt / (wins * steps)
            base = (start + (times[i] + dt * frac)[:, None] * a) % 1.0
            for w in range(0, 2 * steps * wins, 2 * steps):
                node = base[w:w + 2 * steps + 1]
                zs, update = np.broadcast_to(z, node.shape), np.inf
                while update > _PICARD_TOL * (1.0 + np.abs(zs).max()):
                    sweeps += 1
                    if sweeps > budget:
                        raise too_large
                    f = b + fld.eval_many(P, node + zs)
                    f0, fm, f1 = f[0:-1:2], f[1::2], f[2::2]
                    new = np.empty_like(node)
                    new[0] = z
                    new[2::2] = z + np.cumsum((h / 6) * (f0 + 4 * fm + f1), 0)
                    new[1::2] = new[:-1:2] + (h / 24) * (5 * f0 + 8 * fm - f1)
                    update, zs = np.abs(new - zs).max(), new
                z = zs[-1]
            out.append(z)
        return np.array(out)

    substeps = max(4, int(np.ceil(8 * (times[1] - times[0]))) * 4)
    prev = trajectory(substeps)
    for _ in range(12):
        substeps *= 2
        cur = trajectory(substeps)
        if np.abs(cur - prev).max() <= 1e-10:
            break
        prev = cur
    else:
        raise StiffnessError("orbit integration did not converge")

    # Displacements only: y - Phi(w) = z + (start - theta0) - (Phi(w) - w)
    # up to an integer vector, with w = theta0 + t*alpha wrapped to [0, 1).
    w = (theta0[None, :] + times[:, None] * a[None, :]) % 1.0
    diff = cur + (start - theta0) - (phi(w) - w)
    diff -= np.round(diff)
    return float(np.abs(diff).max())
