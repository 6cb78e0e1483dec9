"""First-order negative-curvature search.

Hessian-vector products are approximated by forward gradient differences
(H v ~ [grad F(z + q v) - grad F(z)] / q, error at most L2 q / 2 plus
sampling noise), so the search consumes only stochastic gradients.  The
displacement q = eps_H / (10 L2) is capped at the room that the ball of the
declared constants leaves around z, so every probe point lies where L2
holds.  A candidate whose curvature estimate reaches -3/4 eps_H is returned
only when a certified estimate plus its error budget clears -eps_H / 2.

Both oracle families run one search: Lanczos with full reorthogonalization
from one random unit start, over the products of one operator.  One LDL^T
pivot per step keeps the Sturm count of T_k + 3/4 eps_H I, the number of
Ritz values below the candidate bar; when it rises, the smallest Ritz vector
is certified.  The run ends at the Kuczynski-Wozniakowski step count (never
more than d steps), or earlier when the Krylov space becomes invariant.
That count is for accuracy eps_H / 4 with probability 1 - delta.

The operator is the population, unless the family declares its
sample-Hessian spread (sigma_H^2, R_H) and matrix Bernstein then needs b < n
samples (any b, on a stream): b samples put H_S within s = eps_H / 8 of H
with probability 1 - delta / 2 once
b >= 2 (sigma_H^2 + R_H s / 3) ln(4 d / delta) / s^2, and the probe draws
one such operator, ``problem.subsample(b, rng)``, on which every product is
deterministic given z, v and q.  A declared spread of zero makes it exact,
as the population is.  On an inexact operator the step count is for
eps_H / 8 with probability 1 - delta / 2, and s takes the other eighth and
the other half of delta: a Ritz value lies within s + eps_H / 8 of
lambda_min(H), and a Ritz vector's Rayleigh value on H within s of its value
on H_S, which keeps both bars.

A certificate is one product on the population, with the Taylor term as its
error budget.  A stream has no population, which is the one fact about the
family that the search reads (``problem.n`` is None): its operators are
sized from its declared spread alone, so a stream that declares none is a
``ValueError``, and its certificate reads an independent operator of its
own, whose budget adds t = eps_H / 80 unless the spread is zero.  The
candidate is fixed before that operator is drawn, so scalar Bernstein
bounds the error of its Rayleigh value by t with failure delta / (4 d) once
b_c >= 2 (sigma_H^2 + R_H t / 3) ln(8 d / delta) / t^2.
A probe makes at most d certificates, one per rise of the Sturm count, so
they all hold with probability 1 - delta / 4, and that quarter of delta is
taken from the Lanczos step count's half, which is then for delta / 4.

The contracts then hold at 1 - delta on a finite sum and on every stream
that declares its spread.  Soundness: a returned direction passed
a certificate whose error its budget covers, unconditionally where the
certificate is exact and with probability 1 - delta / 4 on a sampled one.
Detection: over a good operator and a good Lanczos run, the first Ritz
vector below the candidate bar has a Rayleigh value on H below
-eps_H + eps_H / 4 + s = -5/8 eps_H, so its certificate, two Taylor terms
eps_H / 20 and two shares t above it at most, clears -eps_H / 2.
Abstention: over a good operator no Ritz value reaches the candidate bar.
Failure to certify yields the abstention signal (direction ``None``),
indistinguishable by contract from a genuine absence of curvature below the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .problems import Array, Problem, check_fraction, check_positive

#: a Lanczos residual at most this fraction of max(1, |alpha_k|) ends the
#: search: the Krylov space is invariant
BREAKDOWN_TOL = 1e-12
_TINY = float(np.finfo(float).tiny)


@dataclass
class NCResult:
    """Either a unit direction of certified negative curvature, or abstention.

    ``rayleigh_estimate`` carries the certified value for a returned direction.
    At abstention it is a diagnostic only: the smallest Ritz value of the
    Lanczos run (over a subsample S, a Ritz value of H_S, whose smallest
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
    check_positive("q", q)
    v = np.asarray(v, dtype=float)
    if not abs(float(np.linalg.norm(v)) - 1.0) <= 1e-6:
        raise ValueError("direction must be unit norm")
    z = np.asarray(z, dtype=float)
    return problem.sample_batch_grad_diff(z + q * v, z, batch, rng) / q


def _displacement(problem: Problem, z: Array, eps_H: float) -> float:
    """Keep the Taylor error L2 q / 2 at eps_H / 20, an order below threshold,
    and each probe point z + q v inside the ball where L2 holds: q is capped
    at the room radius - |z - x0| that the ball leaves around z.  A z with no
    room, on the sphere or beyond it (where the run's ``BallLog`` flags it),
    keeps eps_H / (10 L2)."""
    s = problem.smoothness
    q = eps_H / (10.0 * s.L2)
    if s.radius is not None:
        room = s.radius - float(np.linalg.norm(z - problem.x0))
        if 0.0 < room < q:
            return room
    return q


def _lanczos_steps(eps_H: float, delta: float, L1: float, dim: int, subsampled: bool) -> int:
    """Kuczynski-Wozniakowski step count, capped at ``dim``: from a random
    start, Lanczos on L1 I - H (spectrum in [0, 2 L1]) finds its top
    eigenvalue to relative accuracy eps_H / (8 L1), i.e. absolute eps_H / 4,
    with probability at least 1 - delta.  A ``subsampled`` operator, one
    that is not exact, leaves half of each to its sampling error:
    eps_H / (16 L1) at 1 - delta / 2."""
    share = 2.0 if subsampled else 1.0
    rel = eps_H / (8.0 * share * L1)
    delta /= share
    steps = math.ceil(0.5 + math.log(1.648 * math.sqrt(dim) / delta) / (2.0 * math.sqrt(rel)))
    return min(dim, steps)


def _bernstein_size(spread: tuple[float, float], error: float, log_term: float) -> int:
    """Samples b whose mean lies within ``error`` of the population's by
    Bernstein's inequality over the spread (sigma_H^2, R_H):
    b >= 2 (sigma_H^2 + R_H error / 3) log_term / error^2, at least 1, where
    ``log_term`` is ln(2 D / failure) for a D x D matrix."""
    var, R = spread
    return max(1, math.ceil(2.0 * (var + R * error / 3.0) * log_term / error**2))


def _subsample_size(problem: Problem, eps_H: float, delta: float) -> int:
    """Samples b whose operator's Hessian lies within eps_H / 8 of the
    population's with probability 1 - delta / 2, by matrix Bernstein over the
    declared spread (see the module docstring), on a finite sum at most
    ``n``; ``n`` when a finite sum declares no spread.  A stream that
    declares none is a ``ValueError``: it has no population to read."""
    spread = problem.hessian_spread
    if spread is None:
        if problem.n is None:
            raise ValueError(f"{type(problem).__name__}: a stream must declare its hessian_spread "
                             "for the curvature search to size its operator")
        return problem.n
    rows = _bernstein_size(spread, eps_H / 8.0, math.log(4.0 * problem.dim / delta))
    return min(rows, problem.n or rows)


def _certificate_size(problem: Problem, eps_H: float, delta: float) -> int:
    """Samples for one certificate: the population ``n``, or on a stream
    those that hold a fixed unit vector's Rayleigh value within eps_H / 80
    with failure delta / (4 d), by scalar Bernstein (see the module
    docstring)."""
    log_term = math.log(8.0 * problem.dim / delta)
    return problem.n or _bernstein_size(problem.hessian_spread, eps_H / 80.0, log_term)


def _operator(problem: Problem, rows: int, rng: np.random.Generator) -> Problem:
    """The operator of ``rows`` samples: the population itself at ``n``."""
    return problem if rows == problem.n else problem.subsample(rows, rng)


def _exact(problem: Problem, rows: int) -> bool:
    """Whether the operator of ``rows`` samples has ``problem``'s population
    products: it is the population, or the declared spread is zero."""
    return rows == problem.n or problem.hessian_spread == (0.0, 0.0)


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


def find_nc_direction(
    problem: Problem,
    z: Array,
    eps_H: float,
    delta: float,
    rng: np.random.Generator,
) -> NCResult:
    """Negative-curvature search at ``z`` for threshold ``eps_H`` and failure
    probability ``delta``, both in (0, 1): one Lanczos run over the
    products of the population or of one sampled operator, each Ritz
    candidate certified by one product (see the module docstring).
    ``grads_used`` is 2 samples per product, certificate products included.

    Contract: a returned direction v satisfies v' H(z) v <= -eps_H / 2,
    since it is returned only when its certificate clears that bar, with
    every probe point inside the ball of the declared constants when z is.
    If lambda_min(H(z)) < -eps_H a direction is found with probability at
    least 1 - delta; if lambda_min >= -eps_H / 2 abstention is returned with
    probability at least 1 - delta.  The band in between carries no
    contract.  On a stream with a non-zero spread, whose certificates are
    sampled, soundness holds with probability 1 - delta / 4 over the probe,
    and elsewhere unconditionally (see the module docstring).  A stream that
    declares no ``hessian_spread`` is a ``ValueError``.

    A Ritz vector that fails its certificate is not measured again until
    another Ritz value crosses the bar.  A step whose product is not finite
    ends the search with no direction and a NaN ``rayleigh_estimate``."""
    check_fraction("eps_H", eps_H)
    check_fraction("delta", delta)
    s = problem.smoothness  # the parent's constants, also over a subsample
    q = _displacement(problem, z, eps_H)
    candidate_bar = -0.75 * eps_H
    accept_bar = -0.5 * eps_H
    rows = _subsample_size(problem, eps_H, delta)
    operator = _operator(problem, rows, rng)
    batch = operator.n
    cert_rows = _certificate_size(problem, eps_H, delta)
    cert_exact = _exact(problem, cert_rows)
    # sampled certificates take a quarter of delta from the Lanczos half
    lanczos_delta = delta if cert_exact else delta / 2.0
    steps = _lanczos_steps(eps_H, lanczos_delta, s.L1, problem.dim, not _exact(problem, rows))
    slack = 0.0 if cert_exact else eps_H / 80.0
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
            certifier = _operator(problem, cert_rows, rng)  # drawn after u, so independent of it
            cert = float(u @ hvp_estimate(certifier, z, u, q, certifier.n, rng))
            grads += 2 * certifier.n
            allowance = 1e-9 * (1.0 + abs(cert)) + slack  # roundoff, and the sampling share
            if cert + 0.5 * s.L2 * q + allowance <= accept_bar:
                return NCResult(direction=u, rayleigh_estimate=cert, grads_used=grads)
        if not b > BREAKDOWN_TOL * max(1.0, abs(a)):
            break  # the Krylov space is invariant: its Ritz values are eigenvalues
        v = w / b
    smallest = float(np.linalg.eigvalsh(_tridiagonal(alpha[: k + 1], beta[:k]))[0])
    return NCResult(direction=None, rayleigh_estimate=smallest, grads_used=grads)
