"""First-order negative-curvature search.

Hessian-vector products are approximated by forward gradient differences
(H v ~ [grad F(z + q v) - grad F(z)] / q, error at most L2 q / 2 plus
sampling noise), so the search consumes only stochastic gradients.  A
candidate whose curvature estimate reaches -3/4 eps_H is returned only when
a certified estimate plus its error budget clears -eps_H / 2.

Both oracle families run one search: Lanczos with full reorthogonalization
from one random unit start, over the products of one operator.  One LDL^T
pivot per step keeps the Sturm count of T_k + 3/4 eps_H I, the number of
Ritz values below the candidate bar; when it rises, the smallest Ritz vector
is certified.  The run ends at the Kuczynski-Wozniakowski step count (never
more than d steps), or earlier when the Krylov space becomes invariant.
That count is for accuracy eps_H / 4 with probability 1 - delta.

Only the operator and the certificate depend on the family.  On a finite sum
each product is deterministic given z, v and q.  The operator is the
population, unless the family declares its component-Hessian spread
(sigma_H^2, R_H) and matrix Bernstein then needs b < n rows: b rows drawn
without replacement put H_S within s = eps_H / 8 of H with probability
1 - delta / 2 once b >= 2 (sigma_H^2 + R_H s / 3) ln(4 d / delta) / s^2, and
the probe draws one such subsample S.  The step count is then for eps_H / 8
with probability 1 - delta / 2, and s takes the other eighth and the other
half of delta: a Ritz value lies within s + eps_H / 8 of lambda_min(H), and a
Ritz vector's Rayleigh value on H within s of its value on H_S, which keeps
both bars.  A finite-sum certificate is one fresh population product, whose
error budget is the Taylor term alone.  On a stream each step draws a fresh
batch, and a certificate re-measures the candidate over several large
batches, adding a 5-standard-error allowance from their spread.

Self-certification makes a returned direction sound unconditionally
wherever the certificate is exact: on a finite sum, and on a stream whose
paired differences are exact, as every stream in :mod:`nestvr.problems` has
(the batches' spread is then zero).  On a stream with noisy products it holds
with high probability only: the mean of 8 batches plus 5 standard errors
fails under normal batch means with the t_7 tail P ~ 7.8e-4 per
certificate, whatever delta is.  Failure to certify yields the abstention
signal (direction ``None``), indistinguishable by contract from a genuine
absence of curvature below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .problems import Array, FiniteSumProblem, Problem, _check_size

#: a Lanczos residual at most this fraction of max(1, |alpha_k|) ends the
#: search: the Krylov space is invariant
BREAKDOWN_TOL = 1e-12
#: streaming batch sizes for Lanczos products and certification
ONLINE_PRODUCT_BATCH_MIN = 64
ONLINE_CERT_BATCHES = 8
ONLINE_CERT_BATCH_MIN = 256
_TINY = float(np.finfo(float).tiny)


@dataclass
class NCResult:
    """Either a unit direction of certified negative curvature, or abstention.

    ``rayleigh_estimate`` carries the certified value for a returned direction.
    At abstention it is a diagnostic only: the smallest Ritz value of the
    Lanczos run (over a row subsample S, a Ritz value of H_S, whose smallest
    eigenvalue lies within eps_H / 8 of H's with probability 1 - delta / 2).
    """

    direction: Array | None
    rayleigh_estimate: float
    grads_used: int

    @property
    def is_bottom(self) -> bool:
        return self.direction is None


def hvp_estimate(
    problem: Problem,
    z: Array,
    v: Array,
    q: float,
    batch: int,
    rng: np.random.Generator,
) -> Array:
    """Forward-difference Hessian-vector product estimate at displacement q.

    ``batch`` is a sample size, drawn from ``rng`` by the oracle and checked
    by the oracle's rule: an integer, on a finite sum in 1..n, where
    ``problem.n`` (every component, read in place) draws nothing.  The
    product costs ``2 batch`` gradients, which its caller tallies.  NaN is
    neither a positive ``q`` nor a unit ``v``.
    """
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"displacement must be positive and finite, got {q}")
    v = np.asarray(v, dtype=float)
    if not abs(float(np.linalg.norm(v)) - 1.0) <= 1e-6:
        raise ValueError("direction must be unit norm")
    _check_size(batch, problem.n)
    z = np.asarray(z, dtype=float)
    return problem.sample_batch_grad_diff(z + q * v, z, batch, rng) / q


def _displacement(eps_H: float, L2: float) -> float:
    """Keep the Taylor error L2 q / 2 at eps_H / 20, an order below threshold."""
    return eps_H / (10.0 * L2)


def _lanczos_steps(eps_H: float, delta: float, L1: float, dim: int, subsampled: bool) -> int:
    """Kuczynski-Wozniakowski step count, capped at ``dim``: from a random
    start, Lanczos on L1 I - H (spectrum in [0, 2 L1]) finds its top
    eigenvalue to relative accuracy eps_H / (8 L1), i.e. absolute eps_H / 4,
    with probability at least 1 - delta.  A ``subsampled`` operator leaves
    half of each to its sampling error: eps_H / (16 L1) at 1 - delta / 2."""
    share = 2.0 if subsampled else 1.0
    rel = eps_H / (8.0 * share * L1)
    delta /= share
    steps = math.ceil(0.5 + math.log(1.648 * math.sqrt(dim) / delta) / (2.0 * math.sqrt(rel)))
    return min(dim, steps)


def _subsample_size(problem: FiniteSumProblem, eps_H: float, delta: float) -> int:
    """Rows b whose subsample Hessian lies within eps_H / 8 of the
    population's with probability 1 - delta / 2, by matrix Bernstein over the
    declared spread (see the module docstring); ``n`` when none is declared
    or b would reach it."""
    spread = problem.hessian_spread
    if spread is None:
        return problem.n
    var, R = spread
    s = eps_H / 8.0
    log_term = math.log(4.0 * problem.dim / delta)
    return min(problem.n, math.ceil(2.0 * (var + R * s / 3.0) * log_term / s**2))


def _ldl_pivot(alpha: float, beta_prev: float, pivot_prev: float, bar: float) -> float:
    """Next pivot of the LDL^T factorization of T - bar I, for T symmetric
    tridiagonal with diagonal ``alpha`` and off-diagonal ``beta``; start with
    ``pivot_prev = inf``.  By Sylvester's law of inertia the negative pivots
    of the leading k x k block count its eigenvalues below ``bar``.  A zero
    pivot is nudged positive, so an eigenvalue at ``bar`` is not counted."""
    pivot = (alpha - bar) - beta_prev * beta_prev / pivot_prev
    return pivot if pivot != 0.0 else _TINY


def _tridiagonal(alpha: Array, beta: Array) -> Array:
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def _certify(
    problem: Problem, z: Array, v: Array, q: float, rng: np.random.Generator
) -> tuple[float, float, int]:
    """Rayleigh value of ``v``, its sampling allowance, to which the Taylor
    term is added, and the gradients its products cost: on a finite sum one
    population product, with a roundoff allowance; on a stream the mean over
    several independent batches, with a 5-standard-error allowance from
    their spread."""
    if problem.is_finite_sum:
        w = hvp_estimate(problem, z, v, q, problem.n, rng)
        value = float(v @ w)
        return value, 1e-9 * (1.0 + abs(value)), 2 * problem.n
    vals = np.empty(ONLINE_CERT_BATCHES)
    for i in range(ONLINE_CERT_BATCHES):
        w = hvp_estimate(problem, z, v, q, ONLINE_CERT_BATCH_MIN, rng)
        vals[i] = float(v @ w)
    spread = float(vals.std(ddof=1)) / math.sqrt(ONLINE_CERT_BATCHES)
    return float(vals.mean()), 5.0 * spread + 1e-9, 2 * ONLINE_CERT_BATCHES * ONLINE_CERT_BATCH_MIN


def find_nc_direction(
    problem: Problem,
    z: Array,
    eps_H: float,
    delta: float,
    rng: np.random.Generator,
) -> NCResult:
    """Negative-curvature search at ``z`` for threshold ``eps_H`` and failure
    probability ``delta``, both in (0, 1): one Lanczos run over the
    products of the population, of one row subsample or of fresh stream
    batches, each Ritz candidate certified by :func:`_certify` (see the
    module docstring).  A stream's products read max(64, ceil(4 L1 / eps_H))
    samples each, and ``grads_used`` is 2 batch per product, certificate
    products included.

    Contract: a returned direction v satisfies v' H(z) v <= -eps_H / 2,
    since it is returned only when its certificate clears that bar: whatever
    the declared spread on a finite sum, and on a stream with exact paired
    differences (each product deterministic given z, v and q), as every
    stream in :mod:`nestvr.problems` has.  On a stream with noisy products
    it holds only with probability about 1 - 7.8e-4 per certificate (see the
    module docstring).  If lambda_min(H(z)) < -eps_H a direction is found
    with probability at least 1 - delta; if lambda_min >= -eps_H / 2
    abstention is returned with probability at least 1 - delta.  The band in
    between carries no contract.  On a stream, detection and abstention
    assume exact paired differences.

    A Ritz vector that fails its certificate is not measured again until
    another Ritz value crosses the bar.  A step whose product is not finite
    ends the search with no direction and a NaN ``rayleigh_estimate``."""
    for name, value in (("eps_H", eps_H), ("delta", delta)):
        if not 0.0 < value < 1.0:  # NaN fails too
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    s = problem.smoothness  # the parent's constants, also over a row subsample
    q = _displacement(eps_H, s.L2)
    candidate_bar = -0.75 * eps_H
    accept_bar = -0.5 * eps_H
    operator = problem
    if problem.is_finite_sum:
        rows = _subsample_size(problem, eps_H, delta)
        if rows < problem.n:
            operator = problem.subsample(rows, rng)
        batch = operator.n
    else:
        batch = max(ONLINE_PRODUCT_BATCH_MIN, math.ceil(4.0 * s.L1 / eps_H))
    steps = _lanczos_steps(eps_H, delta, s.L1, problem.dim, operator is not problem)
    basis = np.empty((steps, problem.dim))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    v = rng.standard_normal(problem.dim)
    v /= np.linalg.norm(v)  # a random unit start
    pivot, b = math.inf, 0.0
    below = tried = 0  # Ritz values below the bar, and at the last certificate
    grads = 0
    for k in range(steps):
        basis[k] = v
        w = hvp_estimate(operator, z, v, q, batch, rng)
        grads += 2 * batch
        a = float(v @ w)
        pivot = _ldl_pivot(a, b, pivot, candidate_bar)
        below += pivot < 0.0
        V = basis[: k + 1]
        for _ in range(2):
            w -= V.T @ (V @ w)
        b = float(np.linalg.norm(w))
        if not math.isfinite(a + b):  # a non-finite product: no Ritz value to trust
            return NCResult(direction=None, rayleigh_estimate=math.nan, grads_used=grads)
        alpha[k], beta[k] = a, b
        if below > tried:
            tried = below
            _, ritz = np.linalg.eigh(_tridiagonal(alpha[: k + 1], beta[:k]))
            u = V.T @ ritz[:, 0]
            u /= np.linalg.norm(u)
            cert, allowance, cost = _certify(problem, z, u, q, rng)
            grads += cost
            if cert + 0.5 * s.L2 * q + allowance <= accept_bar:
                return NCResult(direction=u, rayleigh_estimate=cert, grads_used=grads)
        if not b > BREAKDOWN_TOL * max(1.0, abs(a)):
            break  # the Krylov space is invariant: its Ritz values are eigenvalues
        v = w / b
    smallest = float(np.linalg.eigvalsh(_tridiagonal(alpha[: k + 1], beta[:k]))[0])
    return NCResult(direction=None, rayleigh_estimate=smallest, grads_used=grads)
