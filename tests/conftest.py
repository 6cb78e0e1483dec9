import math

import numpy as np
import pytest

from nestvr import SmoothnessSpec, make_quadratic_problem, make_rng, make_streaming_quadratic_problem
from nestvr.problems import FiniteSumProblem


def random_symmetric_fixture(dim, lambda_min, seed, *, streaming=False, lambda_rest=(0.05, 1.0)):
    """Quadratic problem whose Hessian has a pinned smallest eigenvalue.

    The eigendecomposition is the ground-truth oracle for curvature tests:
    the constructed spectrum is returned alongside the problem.
    """
    rng = make_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.sort(rng.uniform(*lambda_rest, size=dim))
    eigs[0] = lambda_min
    H = (Q * eigs) @ Q.T
    H = 0.5 * (H + H.T)
    if streaming:
        problem = make_streaming_quadratic_problem(H, np.random.SeedSequence((seed, 1)), noise=0.1)
    else:
        problem = make_quadratic_problem(H, 6, np.random.SeedSequence((seed, 1)), noise=0.1)
    return problem, np.sort(eigs)


class DeclaredSpecProblem(FiniteSumProblem):
    """Finite-sum shell carrying only metadata; for configuration formulas."""

    def __init__(self, n, dim, spec: SmoothnessSpec):
        self.n = n
        self.dim = dim
        self.x0 = np.zeros(dim)
        self.smoothness = spec


class DeclaredSpecStreaming:
    """Streaming shell carrying only metadata; for configuration formulas."""

    is_finite_sum = False
    n = None

    def __init__(self, dim, spec: SmoothnessSpec):
        self.dim = dim
        self.x0 = np.zeros(dim)
        self.smoothness = spec


def reset_level(t, schedule):
    """Least level j in [0, K] whose refresh period divides t: the modulo rule
    that ``run_epoch`` steps with countdowns, kept here as its test oracle.

    Level K has the empty product 1 as its period, so every step refreshes at
    least the finest level; t = 0 refreshes everything (r = 0).
    """
    if t < 0:
        raise ValueError(f"iteration index must be >= 0, got {t}")
    for j, period in enumerate(schedule.level_divisors):
        if t % period == 0:
            return j
    raise AssertionError("unreachable: level K always divides")


def subgaussian_check_batch(sigma2: float, radius: float, delta: float) -> int:
    """Sample size making a subsampled gradient ``radius``-accurate w.p. 1 - delta.

    2 sigma^2 / radius^2 * (1 + sqrt(log2(1/delta)))^2, the sub-Gaussian
    concentration sizing used for the online gradient test.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(2.0 * sigma2 / radius**2 * (1.0 + math.sqrt(math.log2(1.0 / delta))) ** 2)


@pytest.fixture
def rng():
    return make_rng(20240612)
