"""The two oracles that `run` and `verify` check a solution with.

conjugacy_report measures the sup-norm defect of Phi^*(X_alpha + P +
X_beta) = X_alpha over a lattice, with Jacobians of Phi by finite
differences.  orbit_shadowing_check integrates orbits of the corrected
field in co-moving form by windowed Picard iteration on Lobatto IIIA-3
(Simpson) collocation nodes, those of several displacements as one
state, and compares each with its rotated embedding.
Neither reuses the averaging or scheduler code paths; only the plain
spectral evaluation of fields is shared.

Both take the stored displacement u = Phi - Id (the orbit check a list
of them) and are the only code that evaluates Phi = Id + u, through
real_torus_view(u); the null control is u = 0.
"""

from __future__ import annotations

import numpy as np

from . import field as fld
from .errors import EmbeddingFailureError, ParameterError, StiffnessError
from .field import FourierVectorField


def _fd_jacobians(evaluate, thetas: np.ndarray, h: float) -> np.ndarray:
    """Batched central-difference Jacobians of `evaluate` at the rows of
    thetas, steps h and h/2 combined by Richardson extrapolation.

    All shifted points go through `evaluate` in a single call: for
    Phi = Id + u that is one spectral sum of u (eval_many) over the whole
    stencil.
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


# Phi = Id + u is summed spectrally to ~1e-13, so its FD Jacobian is
# roundoff limited: error ~ eps_mach/h + h^4 |u^(5)|, as the identity part
# has no fifth derivative.  u is small, so the truncation term stays tiny
# at a step as large as this one, which lowers the roundoff term.
_FD_H_EMBEDDING = 4e-5


def conjugacy_report(alpha, P: FourierVectorField, u: FourierVectorField,
                     beta, grid: int) -> dict:
    """Sup-norm conjugacy defect of Phi^*(X_alpha + P + X_beta) = X_alpha,
    with Phi = Id + u, over a grid^n lattice, plus the smallest Jacobian
    determinant seen."""
    n = alpha.n
    fld.check_dimension(n, P=P, u=u)
    if not grid >= 1:
        raise ParameterError(f"grid must be >= 1, got {grid}")
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
    a = np.asarray(alpha.alpha)
    yvals = a + np.asarray(beta, dtype=float) + fld.eval_many(P, images)
    pulled = np.linalg.solve(jacs, yvals[:, :, None])[:, :, 0]
    residual = float(np.abs(pulled - a[None, :]).max())
    return {"sup_residual": residual, "grid": grid,
            "jacobian_min_det": float(np.abs(dets).min())}


# Orbit check: windows per lip * sample interval (lip >= sup|DP|, so a sweep
# contracts ~1/8), the relative Picard stop, and sweeps allowed per sample.
_ORBIT_WINDOWS_PER_LIP = 8
_PICARD_TOL = 1e-15
_ORBIT_SWEEPS_PER_SAMPLE = 512


def orbit_shadowing_check(alpha, P: FourierVectorField, us, beta, T: float,
                          samples: int) -> list[float]:
    """For each displacement u in us: the max torus distance of the orbit
    of X_alpha + P + X_beta from Phi(theta0) to Phi(theta0 + t*alpha) at
    sample times t in [0, T], with Phi = Id + u and theta0 = frac(sqrt(2),
    ..., sqrt(n+1)).

    The orbit is Phi(theta0) + t*alpha + z, z' = beta + P(orbit), at step
    counts that double until two agree to 1e-10.  Every (displacement,
    step count) trajectory is one block of a single state: a Picard sweep
    solves the Lobatto IIIA-3 nodes of a window for all of them with one
    eval_many.  Each trajectory stops at its own Picard tolerance and has
    its own sweep budget, so its result is that of integrating it alone.
    """
    n = alpha.n
    us = list(us)
    if not us:
        raise ParameterError("orbit check needs at least one displacement")
    fld.check_dimension(n, P=P)
    for u in us:
        fld.check_dimension(n, u=u)
    if not 0 <= T < np.inf:
        raise ParameterError(f"orbit time T must be finite and >= 0, got {T}")
    if not samples >= 1:
        raise ParameterError(f"orbit check needs samples >= 1, got {samples}")
    phis = [_embedding(u) for u in us]
    theta0 = np.sqrt(np.arange(2, 2 + n)) % 1.0
    a, b = np.asarray(alpha.alpha), np.asarray(beta, dtype=float)
    times = np.linspace(0.0, T, samples + 1)
    starts = np.array([phi(theta0[None, :])[0] for phi in phis])
    lip = 2 * np.pi * (np.abs(P.modes).sum(1) @ np.abs(P.coef)).max(initial=0)
    wins = max(1.0, np.ceil(_ORBIT_WINDOWS_PER_LIP * lip * T / samples))
    budget = _ORBIT_SWEEPS_PER_SAMPLE * samples
    too_large = StiffnessError(
        f"orbit check needs over {budget} Picard sweeps (sup|DP| <= "
        f"{lip:.3g}, {wins:.3g} windows a sample): too large for this oracle")
    if wins > _ORBIT_SWEEPS_PER_SAMPLE:
        raise too_large
    wins = int(wins)

    def integrate(starts, substeps):
        """z at the sample times, (K, samples + 1, n), of the trajectories
        from starts (K, n) at substeps (K,), integrated as one state.

        A window's state is (K, n, width), nodes last.  A trajectory with
        fewer steps than the longest is padded after its last node with
        zero increments, which repeat that node exactly."""
        steps = -(-np.asarray(substeps) // wins)         # per window
        width = 2 * int(steps.max()) + 1
        node = np.arange(width)
        # node j of window w sits at (2 s w + j) / (2 s wins) of a sample
        frac = ((2 * steps[:, None, None] * np.arange(wins)[:, None] + node)
                / (2 * steps * wins)[:, None, None])
        inside = (node[1::2] < 2 * steps[:, None])[:, None, :].astype(float)
        # flat index in the state of each real node's n coordinates
        traj, j = np.nonzero(node <= 2 * steps[:, None])
        at = (traj * n * width + j)[:, None] + width * np.arange(n)
        z = np.zeros_like(starts)
        out = [z]
        sweeps = np.zeros(len(starts), dtype=int)
        for i in range(samples):
            dt = times[i + 1] - times[i]
            h = (dt / (wins * steps))[:, None, None]
            h6, h24 = (h / 6) * inside, (h / 24) * inside
            base = (starts[:, None, :, None]
                    + (times[i] + dt * frac)[:, :, None, :] * a[:, None]) % 1.0
            for w in range(wins):
                zs = np.repeat(z[:, :, None], width, 2)
                live = np.ones(len(z), dtype=bool)
                while live.any():
                    sweeps += live
                    if sweeps.max() > budget:
                        raise too_large
                    pick = at[live[traj]]
                    f = np.zeros_like(zs)
                    f.put(pick, b + fld.eval_many(
                        P, (base[:, w] + zs).take(pick)))
                    f0, fm, f1 = f[..., 0:-1:2], f[..., 1::2], f[..., 2::2]
                    new = np.empty_like(zs)
                    new[..., 0] = z
                    new[..., 2::2] = z[..., None] + np.cumsum(
                        h6 * (f0 + 4 * fm + f1), 2)
                    new[..., 1::2] = (new[..., :-1:2]
                                      + h24 * (5 * f0 + 8 * fm - f1))
                    update = np.abs(new - zs).max(axis=(1, 2))
                    np.copyto(zs, new, where=live[:, None, None])
                    live &= update > _PICARD_TOL * (
                        1.0 + np.abs(new).max(axis=(1, 2)))
                z = zs[..., -1]
            out.append(z)
        return np.stack(out, axis=1)

    # every displacement at s and 2s substeps, then doubled again only
    # where the last two step counts disagree
    s, k = max(4, int(np.ceil(8 * (times[1] - times[0]))) * 4), len(us)
    both = integrate(np.concatenate([starts, starts]), [s] * k + [2 * s] * k)
    prev, cur, substeps = both[:k], both[k:], 2 * s
    result, todo = np.empty_like(cur), np.arange(k)
    for doubling in range(12):
        if doubling:
            substeps *= 2
            prev, cur = cur, integrate(starts[todo], [substeps] * len(todo))
        agreed = np.abs(cur - prev).max(axis=(1, 2)) <= 1e-10
        result[todo[agreed]] = cur[agreed]
        todo, cur = todo[~agreed], cur[~agreed]
        if not len(todo):
            break
    else:
        raise StiffnessError("orbit integration did not converge")

    # Displacements only: y - Phi(w) = z + (start - theta0) - (Phi(w) - w)
    # up to an integer vector, with w = theta0 + t*alpha wrapped to [0, 1).
    w = (theta0[None, :] + times[:, None] * a[None, :]) % 1.0
    devs = []
    for phi, start, z in zip(phis, starts, result):
        diff = z + (start - theta0) - (phi(w) - w)
        diff -= np.round(diff)
        devs.append(float(np.abs(diff).max()))
    return devs
