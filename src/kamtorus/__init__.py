"""Spectral KAM conjugacy via rational averaging (no small divisors).

Given a Diophantine frequency alpha = (1, alpha_tilde) and a small
analytic perturbation P of the constant field X_alpha on T^n, compute the
counter-term beta and near-identity embedding Phi with
Phi^*(X_alpha + P + X_beta) = X_alpha, using Dirichlet rational
approximations of alpha so every homological equation is solved with
divisors bounded below by 1/q.
"""

from .diophantine import (FrequencyVector, RationalApprox, dirichlet_approx,
                          estimate_constants, lower_denominator_bound,
                          psi_argmax)
from .errors import KamError
from .field import (FourierVectorField, add, bracket_norm_const,
                    constant_field, deserialize, eval_many, lie_bracket,
                    lie_derivative, lie_series, make_field, norm, prune, scale,
                    serialize, sub, zero_field)
from .averaging import StepResult, averaging_step, solve_homological
from .generate import random_field
from .oracles import conjugacy_report, orbit_shadowing_check
from .scheduler import (KamConstants, RunOptions, RunResult, Schedule,
                        constants, run, select_Q)

__version__ = "0.1.0"
