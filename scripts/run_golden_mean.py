#!/usr/bin/env python3
"""End-to-end demo: conjugate a perturbed golden-mean torus flow.

Builds the golden-mean frequency vector, draws a seeded random analytic
perturbation with norm 1e-6, computes the counter-term beta and the
conjugacy Phi, and checks the result against the independent oracles
(grid conjugacy residual and long-time orbit shadowing) with the
thresholds, grid, orbit time and sample count of `kamtorus run`, so PASS
means what run's exit code 0 means.

Usage: python3 scripts/run_golden_mean.py [--eps 1e-6] [--seed 0]
"""
import argparse
import time

import numpy as np

from kamtorus import (FrequencyVector, RunOptions, conjugacy_report,
                      estimate_constants, orbit_shadowing_check,
                      random_field, run)
from kamtorus.cli import (DEFAULT_GRID, DEFAULT_ORBIT_T, MAX_ORBIT_DEVIATION,
                          MAX_RESIDUAL, _oracle_samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1e-6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", type=int, default=DEFAULT_GRID)
    ap.add_argument("--orbit-T", type=float, default=DEFAULT_ORBIT_T)
    args = ap.parse_args()
    samples = _oracle_samples(args.grid, args.orbit_T, 2)

    golden = (np.sqrt(5.0) - 1.0) / 2.0
    gamma, gamma_bar = estimate_constants(np.array([golden]), tau=0.0,
                                          k_range=4096, q_range=4096)
    alpha = FrequencyVector(n=2, alpha_tilde=np.array([golden]), tau=0.0,
                            gamma=gamma, gamma_bar=gamma_bar)
    print(f"alpha = (1, {golden:.12f}), tau = 0")
    print(f"estimated gamma = {alpha.gamma:.6f}, "
          f"gamma_bar = {alpha.gamma_bar:.6f}")

    P = random_field(2, s=1.0, eps=args.eps, modes=6, seed=args.seed,
                     k_max=4)
    print(f"perturbation: seeded random field, |P|_1 = {args.eps:g}")

    t0 = time.time()
    res = run(alpha, P, s=1.0, opts=RunOptions())
    print(f"\nrun finished in {time.time() - t0:.2f}s, "
          f"{len(res.trace)} averaging steps, {res.passes} passes")
    print(f"beta = {res.beta}")
    print(f"|Phi - Id| <= {res.displacement_bound:.3e}")
    print(f"final perturbation norm = {res.final_norm:.3e}")
    for entry in res.trace:
        print(f"  m={entry['m']}: q={entry['q']}, "
              f"|P_m| = {entry['norm_P']:.3e} "
              f"(envelope {res.schedule.eps(entry['m']):.3e})")

    print("\nindependent verification:")
    rep = conjugacy_report(alpha, P, res.u, res.beta, args.grid)
    print(f"  conjugacy residual on {args.grid}^2 grid: "
          f"{rep['sup_residual']:.3e}")
    dev, = orbit_shadowing_check(alpha, P, [res.u], res.beta,
                                 T=args.orbit_T, samples=samples)
    print(f"  orbit shadowing over T={args.orbit_T:g}: {dev:.3e}")
    ok = (rep["sup_residual"] <= MAX_RESIDUAL
          and dev <= MAX_ORBIT_DEVIATION)
    print("  verdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
