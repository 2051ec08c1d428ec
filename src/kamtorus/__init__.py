"""Spectral KAM conjugacy via rational averaging (no small divisors).

Given a Diophantine frequency alpha = (1, alpha_tilde) and a small
analytic perturbation P of the constant field X_alpha on T^n, compute the
counter-term beta and near-identity embedding Phi with
Phi^*(X_alpha + P + X_beta) = X_alpha, using Dirichlet rational
approximations of alpha so every homological equation is solved with
divisors bounded below by 1/q.

Importing the package loads none of its modules; each name loads on first use.
"""

import importlib

# each exported name and its module (PEP 562 lazy attributes)
_MODULE_OF = {name: module for module, names in {
    "diophantine": "FrequencyVector RationalApprox dirichlet_approx "
                   "estimate_constants lower_denominator_bound psi_argmax",
    "errors": "KamError", "generate": "random_field",
    "field": "FourierVectorField add bracket_norm_const constant_field "
             "deserialize eval_many lie_bracket lie_derivative lie_series "
             "make_field norm prune scale serialize sub zero_field",
    "averaging": "StepResult averaging_step solve_homological",
    "oracles": "conjugacy_report orbit_shadowing_check",
    "scheduler": "KamConstants RunOptions RunResult Schedule constants run "
                 "select_Q",
}.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                   name)


def __dir__():
    return sorted({*globals(), *__all__})
