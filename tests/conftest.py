import math
import warnings

import numpy as np
import pytest

from kamtorus import FrequencyVector, estimate_constants
from kamtorus import scheduler as sch
from kamtorus.generate import random_field

warnings.filterwarnings(
    "ignore", message="Diophantine constants estimated over a finite range")


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _plastic() -> float:
    # real root of x^3 = x + 1
    x = 1.3
    for _ in range(64):
        x = x - (x ** 3 - x - 1.0) / (3.0 * x ** 2 - 1.0)
    return x


PLASTIC = _plastic()


@pytest.fixture(scope="session")
def golden_freq() -> FrequencyVector:
    gamma, gamma_bar = estimate_constants(np.array([GOLDEN]), 0.0, 4096, 4096)
    return FrequencyVector(n=2, alpha_tilde=np.array([GOLDEN]), tau=0.0,
                           gamma=gamma, gamma_bar=gamma_bar)


@pytest.fixture(scope="session")
def plastic_freq() -> FrequencyVector:
    at = np.array([1.0 / PLASTIC, 1.0 / PLASTIC ** 2])
    gamma, gamma_bar = estimate_constants(at, 0.1, 200, 4096)
    return FrequencyVector(n=3, alpha_tilde=at, tau=0.1, gamma=gamma,
                           gamma_bar=gamma_bar)


# ROADMAP workloads: random_field(n, s, eps, modes, seed, k_max), solved at s;
# W5 is uncertified and runs only with RunOptions(force=True)
WORKLOADS = {"W1": (2, 1.0, 1e-6, 6, 0, 4), "W2": (2, 1.0, 3e-6, 30, 3, 8),
             "W3": (3, 1.0, 1e-12, 4, 7, 2), "W4": (3, 1.0, 1e-12, 20, 7, 4),
             "W5": (2, 1.0, 1e-2, 6, 0, 4), "W6": (2, 0.1, 2.98e-8, 6, 0, 4)}


@pytest.fixture(scope="session")
def solved(golden_freq, plastic_freq):
    """name -> (alpha, P, run result) of a ROADMAP workload, solved once
    (W5 with force=True, its warning ignored)."""
    cache = {}

    def get(name):
        if name not in cache:
            n, s, eps, modes, seed, k_max = WORKLOADS[name]
            alpha = golden_freq if n == 2 else plastic_freq
            P = random_field(n, s, eps, modes, seed, k_max=k_max)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", category=UserWarning)
                cache[name] = alpha, P, sch.run(
                    alpha, P, s, sch.RunOptions(force=name == "W5"))
        return cache[name]

    return get
