from contextlib import contextmanager
import copy
import math
from unittest import mock

import numpy as np
import pytest

from nestvr import SmoothnessSpec, make_rng
from nestvr.problems import (
    AdditiveNoiseStreamingProblem,
    FiniteSumProblem,
    _LinearNoiseProblem,
    _zero_sum_noise,
)


class QuadraticProblem(_LinearNoiseProblem):
    """F(x) = 1/2 x^T H x + b . x with linear component noise; exact oracles.

    Constant Hessian makes finite-difference Hessian-vector products exact up
    to roundoff, which the curvature-search tests rely on.
    """

    def __init__(self, H, b, noise_rows, x0=None):
        super().__init__(noise_rows)
        self.H = np.asarray(H, dtype=float)
        if not np.allclose(self.H, self.H.T, atol=1e-12):
            raise ValueError("quadratic matrix must be symmetric")
        self.dim = self.H.shape[0]
        self.b = np.zeros(self.dim) if b is None else np.asarray(b, dtype=float)
        self.x0 = np.zeros(self.dim) if x0 is None else np.asarray(x0, dtype=float)

        eigs = np.linalg.eigvalsh(self.H)
        L1 = max(float(np.abs(eigs).max()), 1e-6)
        # Quadratics have no Hessian curvature; keep tiny positive L2 and L3 so
        # the spec's positivity invariant holds while Taylor error terms stay nil.
        self.smoothness = SmoothnessSpec(
            L1=L1,
            L2=1e-9,
            L3=1e-9,
            sigma2=self.sigma2,
            delta_F=max(self._gap(eigs), 1e-12),
        )

    def _gap(self, eigs):
        if eigs.min() <= 1e-9 * max(float(np.abs(eigs).max()), 1.0):
            return 1.0  # unbounded below or singular; nominal gap, fixtures override budgets
        xstar = np.linalg.solve(self.H, -self.b)
        return self.value(self.x0) - self.value(xstar)

    def value(self, x):
        return float(0.5 * x @ self.H @ x + self.b @ x)

    def _exact_grad(self, x):
        return self.H @ x + self.b

    def hessian(self, x):
        return self.H.copy()


def make_quadratic_problem(H, n, seed, *, noise=0.1, b=None, x0=None):
    rng = make_rng(seed)
    H = np.asarray(H, dtype=float)
    rows = _zero_sum_noise(n, H.shape[0], noise, rng)
    return QuadraticProblem(H, b, rows, x0=x0)


def streaming_quadratic(H, seed, *, noise=0.1, x0=None):
    """The stream grad F(x) + xi, xi ~ N(0, noise^2 I), around the quadratic
    with Hessian ``H`` started at ``x0``."""
    return AdditiveNoiseStreamingProblem(make_quadratic_problem(H, 1, seed, noise=0.0, x0=x0), noise)


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
        problem = streaming_quadratic(H, np.random.SeedSequence((seed, 1)), noise=0.1)
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
    """Least level j in [0, K] whose refresh period divides t, for every step
    t: the rule that ``run_epoch`` applies at its reset steps only, kept here
    as its test oracle.

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


def rayleigh(problem, z, v):
    """Exact Rayleigh quotient via the verification Hessian; never charged."""
    v = np.asarray(v, dtype=float)
    nv2 = float(v @ v)
    if nv2 == 0.0:
        raise ValueError("direction must be nonzero")
    H = problem.hessian(np.asarray(z, dtype=float))
    return float(v @ H @ v) / nv2


@contextmanager
def fixed_length(T):
    """Within the block, every epoch runs exactly ``T`` steps.

    The length is not drawn, so an epoch's generator stream is the one its
    steps alone consume.
    """
    with mock.patch("nestvr.epoch.draw_epoch_length", lambda p, rng: T):
        yield


def recording(problem):
    """A shallow copy of ``problem`` that records the oracle calls it answers.

    ``steps`` gets ``(x, y, size, g)`` for each sampled call: its points
    (``y`` is None for a plain batch gradient, else the reference that the
    difference was bound to), its sample size and the mean it returned.
    ``batches`` gets each row-level batch that a finite sum's sampled calls
    pass on.
    """

    class Recording(type(problem)):
        def sample_batch_grad(self, x, size, rng):
            g = super().sample_batch_grad(x, size, rng)
            self.steps.append((x, None, size, g))
            return g

        def difference_from(self, y):
            diff = super().difference_from(y)

            def recorded(x, size, rng):
                g = diff(x, size, rng)
                self.steps.append((x, y, size, g))
                return g

            return recorded

        def batch_grad(self, x, idx):
            self.batches.append(idx)
            return super().batch_grad(x, idx)

        def batch_grad_diff(self, x, y, idx):
            self.batches.append(idx)
            return super().batch_grad_diff(x, y, idx)

    proxy = copy.copy(problem)
    proxy.__class__ = Recording
    proxy.steps, proxy.batches = [], []
    return proxy


@pytest.fixture
def rng():
    return make_rng(20240612)
