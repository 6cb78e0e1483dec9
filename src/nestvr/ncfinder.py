"""First-order negative-curvature search.

Hessian-vector products are approximated by forward gradient differences
(H v ~ [grad F(z + q v) - grad F(z)] / q, error at most L2 q / 2 plus
sampling noise), so the search consumes only stochastic gradients.  A
candidate whose curvature estimate reaches -3/4 eps_H is returned only when
a certified estimate plus its error budget clears -eps_H / 2.

On a finite sum every product covers the whole population and is
deterministic given z, v and q, so the finder runs Lanczos with full
reorthogonalization from one random unit start.  One LDL^T pivot per step
keeps the Sturm count of T_k + 3/4 eps_H I, the number of Ritz values below
the candidate bar; when it rises, the smallest Ritz vector is certified by
one fresh population product, whose error budget is the Taylor term alone.
The run ends at the Kuczynski-Wozniakowski step count for accuracy eps_H / 4
with probability 1 - delta (never more than d steps), or earlier when the
Krylov space becomes invariant.  Streaming products carry sampling noise,
which breaks Lanczos' orthogonality, so the streaming finder runs shifted
power iteration on shift*I - H from several random unit starts and
re-measures a candidate over several large batches.

Self-certification makes soundness of returned directions unconditional;
failure to certify yields the abstention signal (direction ``None``),
indistinguishable by contract from a genuine absence of curvature below the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

import numpy as np

from .problems import (
    Array,
    FiniteSumProblem,
    GradCounter,
    Problem,
    StreamingProblem,
)

#: a Lanczos residual at most this fraction of max(1, |alpha_k|) ends the
#: finite-sum search: the Krylov space is invariant
BREAKDOWN_TOL = 1e-12
#: streaming power steps per restart scale as
#: POWER_BUDGET_FACTOR * (L1/eps_H) * log2(d/delta)
POWER_BUDGET_FACTOR = 8
#: break a streaming restart after this many steps without Rayleigh improvement
STALL_WINDOW = 25
STALL_TOL_FACTOR = 0.01  # improvement threshold, in units of eps_H
#: streaming batch sizes for power steps and certification
ONLINE_POWER_BATCH_MIN = 64
ONLINE_CERT_BATCHES = 8
ONLINE_CERT_BATCH_MIN = 256
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class NCQuery:
    """Curvature query at a point: thresholds and smoothness constants."""

    z: Array
    eps_H: float
    delta: float
    L1: float
    L2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_H < 1.0:
            raise ValueError(f"eps_H must lie in (0, 1), got {self.eps_H}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass
class NCResult:
    """Either a unit direction of certified negative curvature, or abstention.

    ``rayleigh_estimate`` carries the certified value for a returned direction.
    At abstention it is a diagnostic only: on a finite sum the smallest Ritz
    value of the Lanczos run, on a stream the best power-step value seen.
    """

    direction: Array | None
    rayleigh_estimate: float
    grads_used: int

    @property
    def is_bottom(self) -> bool:
        return self.direction is None


def rayleigh(problem: Problem, z: Array, v: Array) -> float:
    """Exact Rayleigh quotient via the verification Hessian; never charged."""
    v = np.asarray(v, dtype=float)
    nv2 = float(v @ v)
    if nv2 == 0.0:
        raise ValueError("direction must be nonzero")
    H = problem.hessian(np.asarray(z, dtype=float))
    return float(v @ H @ v) / nv2


def hvp_estimate(
    problem: Problem,
    z: Array,
    v: Array,
    q: float,
    batch: int,
    rng: np.random.Generator | None = None,
    counter: GradCounter | None = None,
) -> Array:
    """Forward-difference Hessian-vector product estimate at displacement q.

    ``batch`` is a sample size, drawn from ``rng`` by the oracle.  On a finite
    sum it lies in 1..n, and ``problem.n`` (every component, read in place)
    needs no generator.  Charges ``2 batch``.
    """
    if not q > 0.0:
        raise ValueError(f"displacement must be positive, got {q}")
    v = np.asarray(v, dtype=float)
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-6:
        raise ValueError("direction must be unit norm")
    if not (isinstance(batch, numbers.Integral) and batch >= 1):
        raise ValueError(f"batch must be a sample size >= 1, got {batch!r}")
    if rng is None and batch != problem.n:
        raise ValueError(f"a product over {batch} sampled components needs a generator")
    z = np.asarray(z, dtype=float)
    diff = problem.sample_batch_grad_diff(z + q * v, z, batch, rng)
    if counter is not None:
        counter.add(2 * int(batch))
    return diff / q


def _displacement(query: NCQuery) -> float:
    """Keep the Taylor error L2 q / 2 at eps_H / 20, an order below threshold."""
    if query.L2 > 0.0:
        return query.eps_H / (10.0 * query.L2)
    return 1e-5 * (1.0 + float(np.linalg.norm(query.z)))


def _num_restarts(delta: float) -> int:
    return max(1, math.ceil(math.log2(1.0 / delta)))


def _power_budget(query: NCQuery, dim: int) -> int:
    ratio = max(query.L1 / query.eps_H, 1.0)
    return math.ceil(POWER_BUDGET_FACTOR * ratio * math.log2(max(dim, 2) / query.delta))


def _lanczos_steps(query: NCQuery, dim: int) -> int:
    """Kuczynski-Wozniakowski step count, capped at ``dim``: from a random
    start, Lanczos on L1 I - H (spectrum in [0, 2 L1]) finds its top
    eigenvalue to relative accuracy eps_H / (8 L1), i.e. absolute eps_H / 4,
    with probability at least 1 - delta."""
    rel = query.eps_H / (8.0 * query.L1)
    steps = math.ceil(0.5 + math.log(1.648 * math.sqrt(dim) / query.delta) / (2.0 * math.sqrt(rel)))
    return min(dim, steps)


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


def _random_unit(dim: int, rng: np.random.Generator) -> Array:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _certify(
    problem: StreamingProblem,
    query: NCQuery,
    v: Array,
    q: float,
    rng: np.random.Generator,
    counter: GradCounter,
) -> tuple[float, float]:
    """Streaming Rayleigh value of ``v`` over several independent batches,
    and an error budget covering it: the Taylor term plus a 5-standard-error
    allowance from their spread."""
    size = max(ONLINE_CERT_BATCH_MIN, ONLINE_POWER_BATCH_MIN)
    vals = np.empty(ONLINE_CERT_BATCHES)
    for i in range(ONLINE_CERT_BATCHES):
        w = hvp_estimate(problem, query.z, v, q, size, rng=rng, counter=counter)
        vals[i] = float(v @ w)
    spread = float(vals.std(ddof=1)) / math.sqrt(ONLINE_CERT_BATCHES)
    return float(vals.mean()), 0.5 * query.L2 * q + 5.0 * spread + 1e-9


def _lanczos_search(
    problem: FiniteSumProblem,
    query: NCQuery,
    rng: np.random.Generator,
    counter: GradCounter,
) -> NCResult:
    """One Lanczos run over population products (see the module docstring).

    A Ritz vector that fails its certificate is not measured again until
    another Ritz value crosses the bar."""
    start_count = counter.count
    dim = query.z.shape[0]
    q = _displacement(query)
    candidate_bar = -0.75 * query.eps_H
    accept_bar = -0.5 * query.eps_H
    steps = _lanczos_steps(query, dim)
    basis = np.empty((steps, dim))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    v = _random_unit(dim, rng)
    pivot, b = math.inf, 0.0
    below = tried = 0  # Ritz values below the bar, and at the last certificate
    for k in range(steps):
        basis[k] = v
        w = hvp_estimate(problem, query.z, v, q, problem.n, counter=counter)
        a = float(v @ w)
        pivot = _ldl_pivot(a, b, pivot, candidate_bar)
        below += pivot < 0.0
        V = basis[: k + 1]
        for _ in range(2):
            w -= V.T @ (V @ w)
        b = float(np.linalg.norm(w))
        alpha[k], beta[k] = a, b
        if below > tried:
            tried = below
            _, ritz = np.linalg.eigh(_tridiagonal(alpha[: k + 1], beta[:k]))
            u = V.T @ ritz[:, 0]
            u /= np.linalg.norm(u)
            w_u = hvp_estimate(problem, query.z, u, q, problem.n, counter=counter)
            cert = float(u @ w_u)
            if cert + 0.5 * query.L2 * q + 1e-9 * (1.0 + abs(cert)) <= accept_bar:
                return NCResult(
                    direction=u, rayleigh_estimate=cert, grads_used=counter.count - start_count
                )
        if not b > BREAKDOWN_TOL * max(1.0, abs(a)):
            break  # the Krylov space is invariant: its Ritz values are eigenvalues
        v = w / b
    smallest = float(np.linalg.eigvalsh(_tridiagonal(alpha[: k + 1], beta[:k]))[0])
    return NCResult(
        direction=None, rayleigh_estimate=smallest, grads_used=counter.count - start_count
    )


def _power_search(
    problem: StreamingProblem,
    query: NCQuery,
    rng: np.random.Generator,
    counter: GradCounter,
) -> NCResult:
    """Restarted shifted power iteration over streaming products."""
    start_count = counter.count
    dim = query.z.shape[0]
    q = _displacement(query)
    shift = query.L1
    budget = _power_budget(query, dim)
    candidate_bar = -0.75 * query.eps_H
    accept_bar = -0.5 * query.eps_H
    stall_tol = STALL_TOL_FACTOR * query.eps_H
    power_batch = max(ONLINE_POWER_BATCH_MIN, math.ceil(4.0 * query.L1 / query.eps_H))

    best_ray = math.inf  # across restarts, diagnostic only
    for _ in range(_num_restarts(query.delta)):
        v = _random_unit(dim, rng)
        stall = 0
        prev = math.inf
        cand_ray = math.inf
        cand_v: Array | None = None
        for _ in range(budget):
            w = hvp_estimate(problem, query.z, v, q, power_batch, rng=rng, counter=counter)
            ray = float(v @ w)
            if ray < cand_ray:
                cand_ray, cand_v = ray, v
            if cand_ray <= candidate_bar - 0.05 * query.eps_H:
                break
            if ray > prev - stall_tol:
                stall += 1
                if stall >= STALL_WINDOW:
                    break
            else:
                stall = 0
            prev = ray
            s = shift * v - w
            norm = float(np.linalg.norm(s))
            if norm == 0.0:
                break
            v = s / norm
        best_ray = min(best_ray, cand_ray)
        if cand_ray <= candidate_bar and cand_v is not None:
            cert, err = _certify(problem, query, cand_v, q, rng, counter)
            if cert + err <= accept_bar:
                direction = cand_v / np.linalg.norm(cand_v)
                return NCResult(
                    direction=direction,
                    rayleigh_estimate=cert,
                    grads_used=counter.count - start_count,
                )
    return NCResult(
        direction=None,
        rayleigh_estimate=best_ray,
        grads_used=counter.count - start_count,
    )


def find_nc_direction_finite(
    problem: FiniteSumProblem,
    query: NCQuery,
    rng: np.random.Generator,
    counter: GradCounter,
) -> NCResult:
    """Negative-curvature search against a finite-sum oracle: one Lanczos run.

    Contract: a returned direction v satisfies v' H(z) v <= -eps_H / 2 (it is
    certified before being returned); if lambda_min(H(z)) < -eps_H a direction
    is found with probability at least 1 - delta; if lambda_min >= -eps_H / 2
    abstention is returned with probability at least 1 - delta.  The band in
    between carries no contract.
    """
    if not problem.is_finite_sum:
        raise ValueError("expected a finite-sum problem")
    return _lanczos_search(problem, query, rng, counter)


def find_nc_direction_online(
    problem: StreamingProblem,
    query: NCQuery,
    rng: np.random.Generator,
    counter: GradCounter,
) -> NCResult:
    """Negative-curvature search against a streaming oracle by restarted power
    iteration; same contract."""
    if problem.is_finite_sum:
        raise ValueError("expected a streaming problem")
    return _power_search(problem, query, rng, counter)
