"""Objective-function oracles for nested variance-reduced optimization.

Every oracle is a :class:`Problem`, and ``n`` tells its family
(:attr:`Problem.is_finite_sum`):

* :class:`FiniteSumProblem` -- an average of ``n`` component functions with a
  component-gradient oracle plus verification-only full gradient / Hessian.
* a stream (``n`` is None) -- a stochastic-gradient oracle that draws fresh
  samples per call, with no bound on their number.

All synthetic problems carry hand-coded gradients and Hessians (no autodiff)
and a :class:`SmoothnessSpec` with constants certified on a declared ball.
Stochastic-gradient work is tallied by :class:`GradCounter`: one unit per
single component-gradient (or fresh-sample) evaluation, so a two-point
correction over a batch of size ``B`` costs ``2 B`` units.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
import math
import operator
import os
import threading
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

Array = np.ndarray
#: ``diff(x, size, rng)``: a difference oracle bound to its reference point
#: (:meth:`Problem.difference_from`)
Difference = Callable[[Array, int, np.random.Generator], Array]


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Counter-based generator (Philox) so that split streams never collide."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(ss))


def spawn_rngs(seed: int | np.random.SeedSequence, k: int) -> list[np.random.Generator]:
    """Split one master seed into ``k`` independent reproducible streams."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [make_rng(child) for child in ss.spawn(k)]


class GradCounter:
    """Cumulative count of stochastic-gradient evaluations.

    Verification oracles (full gradient / Hessian used by tests) never go
    through this counter; drivers charge them explicitly where the cost model
    says so.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, units: int) -> None:
        units = operator.index(units)  # a charge counts gradients; 2.5 or 2.0 is a TypeError
        if units < 0:
            raise ValueError(f"negative gradient charge: {units}")
        self.count += units

    def __repr__(self) -> str:  # pragma: no cover
        return f"GradCounter(count={self.count})"


@dataclass(frozen=True)
class SmoothnessSpec:
    """Smoothness metadata attached to a problem.

    ``L1``: gradient Lipschitz constant, ``L2``: Hessian Lipschitz constant,
    ``L3``: third-derivative Lipschitz constant, ``sigma2``: variance proxy
    bounding ``E |grad f_i(x) - grad F(x)|^2``, ``delta_F``: upper bound on
    ``F(x0) - inf F``.  Constants are certified only on the ball of radius
    ``radius`` around the problem's start point (``None`` means global).
    """

    L1: float
    L2: float
    sigma2: float
    delta_F: float
    L3: float
    radius: float | None = None

    def __post_init__(self) -> None:
        for name in ("L1", "L2", "L3", "sigma2", "delta_F"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"SmoothnessSpec.{name} must be positive and finite, got {v}")
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"SmoothnessSpec.radius must be positive and finite, got {self.radius}")


class Problem:
    """An objective F with the sampled stochastic-gradient oracle that epochs,
    curvature probes and gradient tests call: the mean over ``size`` sampled
    components of their gradients at x, or of their differences between x and
    a reference y, bound once (:meth:`difference_from`).  It draws from
    ``rng`` only what it reads.  ``n`` is the number of components, None for
    a stream, whose call draws ``size`` fresh samples, any number of them,
    and pairs the same samples at both points of a difference."""

    dim: int
    x0: Array
    smoothness: SmoothnessSpec
    n: int | None = None

    def value(self, x: Array) -> float:
        raise NotImplementedError

    def sample_batch_grad(self, x: Array, size: int, rng: np.random.Generator) -> Array:
        raise NotImplementedError

    def sample_batch_grad_diff(self, x: Array, y: Array, size: int, rng: np.random.Generator) -> Array:
        """The sampled mean of gradient differences between the new point
        ``x`` and the reference ``y``: one call of ``difference_from(y)``."""
        return self.difference_from(y)(x, size, rng)

    def difference_from(self, y: Array) -> Difference:
        """``diff(x, size, rng)``, the sampled mean of gradient differences
        between a new point ``x``, a float array, and the reference ``y``
        bound here, which a family may read once for every call, as the
        saddle families evaluate its gradient.  The order changes only cost:
        swapping the points negates the result, bit for bit on the saddle
        families and to roundoff on any other.  A subclass that changes
        differences overrides this method alone."""
        raise NotImplementedError

    def full_grad(self, x: Array) -> Array:
        """Verification oracle: exact gradient of F."""
        raise NotImplementedError

    def hessian(self, x: Array) -> Array:
        """Verification oracle: exact (symmetric) Hessian of F."""
        raise NotImplementedError

    @property
    def is_finite_sum(self) -> bool:
        return self.n is not None

    def outside_ball(self, x: Array) -> bool:
        """Whether the point ``x``, or any row of a stack ``x`` of points, is
        outside the ball on which the smoothness constants are certified:
        farther than radius * (1 + 1e-9) from ``x0``.  Nothing is outside when
        the radius is None (global constants)."""
        radius = self.smoothness.radius
        if radius is None:
            return False
        offsets = np.reshape(x - self.x0, (-1, self.dim))
        distances = np.sqrt(np.einsum("ij,ij->i", offsets, offsets))
        return bool((distances > radius * (1 + 1e-9)).any())


class FiniteSumProblem(Problem):
    """Average of ``n`` components, F(x) = (1/n) sum_i f_i(x).

    Subclasses implement ``value``, ``batch_grad``, ``batch_grad_diff``,
    ``full_grad`` and ``hessian``, and may override ``difference_from``.

    A batch is a non-empty index array or the integer ``n``: every component,
    answered without gathering rows and charged as ``n`` components like any
    other batch.  Results equal the plain row form (the mean over one gather
    of the batch's rows, with ``np.arange(n)`` for ``n``) to roundoff, about
    1e-15 relative, not necessarily bit for bit: a family may serve the
    population from statistics computed once, as the regularized family does
    from its Gram matrix, and may sum an index array's rows block by block.

    A sampled call's ``size`` lies in 1..n.  It passes the row-level method
    the integer ``n`` for size n, with no draw, and else a uniform subset
    drawn from ``rng``.  A family whose difference reads no rows overrides
    ``difference_from`` and draws nothing there, since every index set gives
    it the same result.

    ``hessian_spread`` is the family's declared component-Hessian spread
    ``(sigma_H^2, R_H)``: at every point, ``|mean_i (H_i - H)^2| <= sigma_H^2``
    and ``max_i |H_i - H| <= R_H`` in spectral norm, where ``H_i`` is the
    Hessian of ``f_i`` and ``H`` their mean.  A family that declares it
    implements ``subsample(idx)``, the finite sum of the rows ``idx`` alone,
    whose population products the curvature search runs on.  ``None`` (the
    default) declares nothing, and that search reads the whole population.
    """

    n: int
    hessian_spread: tuple[float, float] | None = None

    def batch_grad(self, x: Array, idx: Array | int) -> Array:
        """Mean of component gradients over ``idx``. Does not touch counters."""
        raise NotImplementedError

    def batch_grad_diff(self, x: Array, y: Array, idx: Array | int) -> Array:
        """Mean over ``idx`` of component-gradient differences between the
        new point x and the reference y."""
        raise NotImplementedError

    def sample_batch_grad(self, x: Array, size: int, rng: np.random.Generator) -> Array:
        return self.batch_grad(x, self._draw(size, rng))

    def difference_from(self, y: Array) -> Difference:
        def diff(x: Array, size: int, rng: np.random.Generator) -> Array:
            return self.batch_grad_diff(x, y, self._draw(size, rng))

        return diff

    def _draw(self, size: int, rng: np.random.Generator) -> Array | int:
        if size == self.n:
            return self.n
        return sample_indices_without_replacement(self.n, size, rng)

    def subsample(self, idx: Array) -> FiniteSumProblem:
        """The finite sum of the components ``idx`` (distinct indices) alone:
        its population is those rows.  Implemented by the families that
        declare a ``hessian_spread``."""
        raise NotImplementedError


def sample_indices_without_replacement(n: int, m: int, rng: np.random.Generator) -> Array:
    """Uniformly random size-``m`` subset of ``range(n)``, without replacement.

    Deterministic given the generator state.  Callers must clamp ``m`` to the
    population size first; oversized requests are rejected.
    """
    if m < 1:
        raise ValueError(f"batch size must be >= 1, got {m}")
    if m > n:
        raise ValueError(f"batch size {m} exceeds population size {n}; clamp the schedule first")
    return rng.choice(n, size=m, replace=False)


def _index_array(idx: Array | int, n: int) -> Array | None:
    """None for the integer batch ``n`` (every component); else the batch as
    the non-empty one-dimensional integer array that it was checked as, which
    callers index with.  Any other batch is rejected: another integer; a bool
    or a float, even one equal to ``n``; a boolean mask, which a gather with
    ``take`` would read as the indices 0 and 1; and an array of more
    dimensions, which a gather would answer with a stack."""
    if type(idx) is int:  # exactly int, so not a bool: every population step's batch
        if idx == n:
            return None
    else:
        rows = np.asarray(idx)  # a list or a numpy scalar; an array as it is
        if rows.ndim:
            if rows.ndim != 1:
                raise ValueError(f"an index batch must be one-dimensional, got shape {rows.shape}")
            if rows.size == 0:
                raise ValueError("an index batch must not be empty")
            if rows.dtype.kind not in "iu":
                raise ValueError(f"an index batch must hold integers, got dtype {rows.dtype}")
            return rows
        if rows.dtype.kind in "iu" and idx == n:
            return None
    raise ValueError(f"an integer batch must be the population size {n}, got {idx!r}")


def _zero_sum_noise(n: int, dim: int, scale: float, rng: np.random.Generator) -> Array:
    """Rows of per-component linear-noise vectors, centred on their mean: they
    sum to zero up to roundoff (a few 1e-15 per entry for 256 rows at scale
    0.1), which is why the population reads their mean, ``noise_mean``."""
    if n == 1 or scale == 0.0:
        return np.zeros((n, dim))
    c = rng.standard_normal((n, dim)) * scale
    return c - c.mean(axis=0)


class _LinearNoiseProblem(FiniteSumProblem):
    """f_i(x) = F(x) + c_i . x with sum_i c_i = 0 up to roundoff: the mean is F
    plus the residue's linear term, and every component shares F's Hessian.
    The linear noise cancels exactly in two-point gradient differences, which
    therefore read no rows and draw no indices.

    Subclasses set ``dim``, ``x0`` and ``smoothness`` and implement ``value``,
    ``hessian`` and ``_exact_grad``, the gradient of F at a float array.  The
    oracle methods call it directly, never through ``full_grad``, so that a
    wrapper on an instance's ``full_grad`` sees only the verification calls.
    A bound difference evaluates its reference's gradient once, when it is
    bound, and each call its new point's alone.
    """

    def __init__(self, noise_rows: Array):
        # C order, so that the population mean sums the rows as a gather would
        self.noise = np.ascontiguousarray(noise_rows, dtype=float)
        self.n = self.noise.shape[0]
        rows = self.noise
        sigma2 = float(np.einsum("ij,ij->i", rows, rows).mean()) if self.n > 1 else 0.0
        self.sigma2 = max(sigma2, 1e-12)  # the spec's variance proxy must be positive

    def _exact_grad(self, x: Array) -> Array:
        raise NotImplementedError

    def full_grad(self, x: Array) -> Array:
        return self._exact_grad(np.asarray(x, dtype=float))

    @cached_property
    def noise_mean(self) -> Array:
        """Mean of all noise rows, bit for bit the mean of a gather of them.
        Kept after the first population query, which alone reads the rows."""
        return self.noise.mean(axis=0)

    def batch_grad(self, x: Array, idx: Array | int) -> Array:
        rows = _index_array(idx, self.n)
        noise = self.noise_mean if rows is None else self.noise[rows].mean(axis=0)
        return self._exact_grad(np.asarray(x, dtype=float)) + noise

    def batch_grad_diff(self, x: Array, y: Array, idx: Array | int) -> Array:
        _index_array(idx, self.n)
        return self.difference_from(y)(np.asarray(x, dtype=float), self.n, None)

    # Per-component linear noise is identical at both points and drops out,
    # so a difference reads no rows and draws nothing.
    def difference_from(self, y: Array) -> Difference:
        n, grad = self.n, self._exact_grad
        gy = grad(np.asarray(y, dtype=float))

        def diff(x: Array, size: int, rng: np.random.Generator) -> Array:
            if not 1 <= size <= n:
                raise ValueError(f"batch size must lie in 1..{n}, got {size}")
            return grad(x) - gy

        return diff


class _SeparableQuarticProblem(_LinearNoiseProblem):
    """F(x) = 1/2 x^T diag(h) x + a * sum_j x_j^4, components differ by linear noise."""

    def __init__(self, diag: Array, quartic: float, noise_rows: Array, radius: float):
        super().__init__(noise_rows)
        self.diag = np.asarray(diag, dtype=float)
        self.quartic = float(quartic)
        # 4 a as a 0-d array, by which numpy 2.4 multiplies a d = 10 vector
        # in 0.31 us against 0.46-0.50 us by a Python float on a 2-core Xeon,
        # with the same bits
        self._four_a = np.array(4.0 * self.quartic)
        self.dim = self.diag.size
        self.x0 = np.zeros(self.dim)

        a = self.quartic
        lam_min = float(self.diag.min())
        lam_max = float(self.diag.max())
        # Hessian eigenvalues on the ball lie in [lam_min, lam_max + 12 a R^2].
        # In Python floats, a constant at the edge of the float range takes
        # these to inf, which SmoothnessSpec rejects, with no numpy warning.
        L1 = max(abs(lam_min), abs(lam_max) + 12.0 * a * radius * radius)
        L2 = 24.0 * a * radius
        L3 = 24.0 * a
        # At x0 = 0 the optimal gap is the sum of the per-coordinate well depths
        # h_j^2 / (16 a) over negative-curvature coordinates.
        gap = sum(h * h for h in self.diag.tolist() if h < 0) / (16.0 * a)
        self.smoothness = SmoothnessSpec(
            L1=L1,
            L2=L2,
            L3=L3,
            sigma2=self.sigma2,
            delta_F=max(gap, 1e-12),
            radius=radius,
        )

    # products, not ``**``, which calls libm ``pow`` per entry at many times
    # the cost; both agree with exact arithmetic to a few ulp
    def value(self, x: Array) -> float:
        x2 = x * x
        return float(0.5 * (self.diag * x2).sum() + self.quartic * (x2 * x2).sum())

    def _exact_grad(self, x: Array) -> Array:
        return self.diag * x + self._four_a * (x * x * x)

    def hessian(self, x: Array) -> Array:
        return np.diag(self.diag + 12.0 * self.quartic * x * x)


def make_saddle_problem(
    dim: int,
    n: int,
    negative_eigenvalue: float,
    seed: int | np.random.SeedSequence,
    *,
    quartic: float = 0.25,
    radius: float = 2.0,
    noise: float = 0.1,
) -> FiniteSumProblem:
    """Finite-sum objective with a strict saddle at the start point x0 = 0.

    F(x) = 1/2 x^T A x + a sum_j x_j^4 with A = diag(1, ..., 1, lam) and
    lam = ``negative_eigenvalue`` < 0, so grad F(0) = 0 and
    lambda_min(hess F(0)) = lam.  Global minimizers sit at
    x_last = +-sqrt(-lam / (4 a)) with value -lam^2 / (16 a).
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not negative_eigenvalue < 0:
        raise ValueError(f"negative_eigenvalue must be < 0, got {negative_eigenvalue}")
    if not quartic > 0:
        raise ValueError(f"quartic must be > 0, got {quartic}")
    rng = make_rng(seed)
    diag = np.ones(dim)
    diag[-1] = negative_eigenvalue
    rows = _zero_sum_noise(n, dim, noise, rng)
    return _SeparableQuarticProblem(diag, quartic, rows, radius)


#: bytes of design rows a subsampled regularized batch gathers at a time:
#: a few hundred KB, well inside a core's L2 (163 rows at d = 200)
ROW_BLOCK_BYTES = 2**18

#: most runs a subsampled regularized batch's row blocks are split into: the
#: calling thread's and one worker thread's, so at most two blocks of rows are
#: gathered at once.  The caller adds every block's term in block order, so a
#: batch has the same bits however many runs it takes.  Against one thread
#: gathering with fancy indexing and multiplying with @ (same digests; ten
#: alternating 30 s perfbench pairs, seeds 21-30, 2-core Xeon) the median
#: trials_per_s on regularized-d200 was 8.23 vs 6.59, ahead in 10 of 10 pairs;
#: against take and dot in one thread (seeds 41-50), 8.20 vs 6.76, 10 of 10
ROW_RUNS = 2


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_row_pool_lock = threading.Lock()
_row_pool_made: ThreadPoolExecutor | None = None


def _row_pool() -> ThreadPoolExecutor:
    """The worker threads for the runs of row blocks after a batch's first,
    made on the first batch that splits, so that importing starts no thread,
    and under a lock, so that racing callers share one pool."""
    global _row_pool_made
    with _row_pool_lock:
        if _row_pool_made is None:
            # imported here: concurrent.futures loads logging, about 0.8 MB of
            # resident memory that a process whose batches never split need not hold
            from concurrent.futures import ThreadPoolExecutor

            _row_pool_made = ThreadPoolExecutor(max_workers=ROW_RUNS - 1, thread_name_prefix="nestvr-rows")
        return _row_pool_made


def _forget_row_pool() -> None:
    """Drop the pool and its lock: a forked child has none of its parent's
    threads, so a pool that waits on them would never run its work, and a
    lock one of them held would never be released.  The child makes its own."""
    global _row_pool_lock, _row_pool_made
    _row_pool_lock = threading.Lock()
    _row_pool_made = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_row_pool)


def _block_term(A: Array, targets: Array | None, block: Array, u: Array) -> Array:
    """sum over the rows of ``block`` of a_i (a_i . u - t_i), where t gathers
    ``targets``, or is 0 when that is None.  Arithmetic only, so that a worker
    thread may run it; its rows are freed before the next block's gather."""
    rows = A.take(block, axis=0)
    res = rows.dot(u)
    if targets is not None:
        res -= targets.take(block)
    return rows.T.dot(res)


def _block_terms(A: Array, targets: Array | None, blocks: list[Array], u: Array) -> list[Array]:
    """:func:`_block_term` of each block, in block order."""
    return [_block_term(A, targets, block, u) for block in blocks]


class _RegularizedLeastSquaresProblem(FiniteSumProblem):
    """f_i(x) = 1/2 (a_i . x - y_i)^2 + sum_j r(x_j), r(t) = t^2 / (1 + t^2).

    The nonconvex regularizer has r''(0) = 2, |r''| <= 2 and |r'''| <= 12,
    giving global L1 = max_i |a_i|^2 + 2 and L2 = 12.

    L3 = 24 = sup |r''''|, attained at t = 0.  Since r = 1 - 1/(1 + t^2) and
    the k-th derivative of 1/(1 + t^2) is at most k! in absolute value,
    |r''''| <= 24, and r''''(0) = -24.  The least-squares part is quadratic,
    so D^3 f_i(x) = D^3 F(x) is the diagonal tensor with entries r'''(x_j).
    For a unit u, sum_j |u_j|^3 <= sum_j u_j^2 = 1, so
    |(D^3 F(x) - D^3 F(y))[u, u, u]| = |sum_j (r'''(x_j) - r'''(y_j)) u_j^3|
    <= max_j |r'''(x_j) - r'''(y_j)| <= 24 max_j |x_j - y_j| <= 24 |x - y|.
    The norm of a symmetric trilinear form is its sup over u = v = w, hence
    |D^3 F(x) - D^3 F(y)| <= 24 |x - y| everywhere.

    ``value`` and the population queries (the integer batch ``n``,
    ``full_grad`` and ``hessian``) are served in O(d^2) from the
    least-squares part's sufficient statistics ``gram = A^T A / n``,
    ``Aty = A^T y / n`` and ``mean_y2`` (the mean of y_i^2), computed once
    here.  An index-array batch is gathered ``block_rows`` rows at a time
    (about ``ROW_BLOCK_BYTES`` of rows, with ``ndarray.take``), and each block
    serves both of its products (``ndarray.dot``) while it is still in cache.
    The blocks are split into contiguous runs, one per usable core
    (``os.sched_getaffinity``) up to ``ROW_RUNS`` and the number of blocks:
    the calling thread computes the first run and a worker thread the other,
    touching no counter, generator or oracle method.  Each run holds one
    block of rows at a time, so no batch-sized copy of the rows is made.  The
    caller then adds every block's term to the sum in block order, so a batch
    has the same bits on any number of cores; a batch of one block, or a
    process with one core, starts no thread.  The worker pool is made on the
    first batch that splits, and afresh in a forked child, which has none of
    its parent's threads.  ``subsample`` gathers its Gram matrix block by
    block in the calling thread alone.  Both the population and the blocked
    forms match the single-gather row form to roundoff, not bit for bit.

    The regularizer is common to every component, so H_i - H = a_i a_i^T - G
    with G = ``gram``, and mean_i (H_i - H)^2 = mean_i |a_i|^2 a_i a_i^T - G^2
    lies between 0 and max_i |a_i|^2 G.  The declared spread is therefore
    sigma_H^2 = max_i |a_i|^2 lambda_max(G) and R_H = max(max_i |a_i|^2,
    lambda_max(G)), found by one d x d eigensolve on the first curvature
    probe, not at construction.
    """

    def __init__(self, A: Array, y: Array):
        self.A = np.ascontiguousarray(A, dtype=float)
        self.y = np.ascontiguousarray(y, dtype=float)
        self.n, self.dim = self.A.shape
        self.x0 = np.zeros(self.dim)
        self.gram = self.A.T @ self.A / self.n
        self.Aty = self.A.T @ self.y / self.n
        self.mean_y2 = float((self.y * self.y).mean())
        self.block_rows = max(1, ROW_BLOCK_BYTES // (self.A.itemsize * self.dim))

        row_sq = np.einsum("ij,ij->i", self.A, self.A)
        self.max_row_sq = float(row_sq.max())
        L1 = self.max_row_sq + 2.0
        L2 = 12.0
        sigma2 = self._max_probe_variance(row_sq)
        # F >= 0 everywhere, so F(x0) bounds the optimal gap.
        delta_F = self.value(self.x0)
        self.smoothness = SmoothnessSpec(
            L1=L1, L2=L2, L3=24.0, sigma2=max(sigma2, 1e-12), delta_F=max(delta_F, 1e-12)
        )

    def _variance_probes(self) -> Array:
        """The start point and ten fixed random points, one per row."""
        rng = make_rng(np.random.SeedSequence(entropy=0xC0FFEE, spawn_key=(self.n, self.dim)))
        probes = [self.x0] + [rng.standard_normal(self.dim) / math.sqrt(self.dim) for _ in range(10)]
        return np.array(probes)

    def _max_probe_variance(self, row_sq: Array) -> float:
        """Exact population variance of component gradients, maximized over probes.

        The least-squares component gradients are r_i a_i with residuals
        r = A x - y, so their variance is mean_i r_i^2 |a_i|^2 less the squared
        norm of their mean A^T r / n; ``row_sq`` holds the |a_i|^2.
        """
        probes = self._variance_probes()
        res = probes @ self.A.T - self.y
        mean = probes @ self.gram - self.Aty
        variances = (res * res) @ row_sq / self.n - np.einsum("ij,ij->i", mean, mean)
        return float(variances.max())

    @staticmethod
    def _reg_value(x: Array) -> float:
        return float((x * x / (1.0 + x * x)).sum())

    @staticmethod
    def _reg_grad(x: Array) -> Array:
        return 2.0 * x / (1.0 + x * x) ** 2

    @staticmethod
    def _reg_hess_diag(x: Array) -> Array:
        x2 = x * x
        return (2.0 - 6.0 * x2) / (1.0 + x2) ** 3

    def value(self, x: Array) -> float:
        # mean (a_i . x - y_i)^2 = x.gram.x - 2 x.Aty + mean_y2 is a mean of
        # squares: a negative result is cancellation, so it reads as 0
        lsq = x @ (0.5 * (self.gram @ x) - self.Aty) + 0.5 * self.mean_y2
        return float((0.0 if lsq < 0.0 else lsq) + self._reg_value(x))

    def _blocks(self, idx: Array) -> list[Array]:
        """``idx`` cut into blocks of ``block_rows`` indices, in order."""
        step = self.block_rows
        return [idx[start : start + step] for start in range(0, idx.size, step)]

    def _row_blocks(self, idx: Array, u: Array, targets: bool) -> Array:
        """(1/m) sum over the m indices of a_i (a_i . u - t_i), where t_i is
        y_i with ``targets`` and 0 without, gathered in row blocks: one
        contiguous run of them per usable core up to ``ROW_RUNS``, the first
        computed here."""
        blocks = self._blocks(idx)
        runs = min(ROW_RUNS, _usable_cores(), len(blocks))
        cuts = [len(blocks) * k // runs for k in range(runs + 1)]
        args = (self.A, self.y if targets else None)
        futures = [
            _row_pool().submit(_block_terms, *args, blocks[start:stop], u)
            for start, stop in zip(cuts[1:-1], cuts[2:])
        ]
        try:
            terms = _block_terms(*args, blocks[: cuts[1]], u)
        finally:
            for future in futures:  # no worker reads u once this call has ended
                future.exception()
        for future in futures:
            terms += future.result()
        out = np.zeros(self.dim)
        for term in terms:  # in block order, as a single loop over the blocks adds them
            out += term
        return out / idx.size

    @cached_property
    def hessian_spread(self) -> tuple[float, float]:
        lam = float(np.linalg.eigvalsh(self.gram)[-1])
        return self.max_row_sq * lam, max(self.max_row_sq, lam)

    def subsample(self, idx: Array) -> FiniteSumProblem:
        # in this thread alone: a sum in block order over split runs would
        # hold a d x d term per block, 320 KB each at d = 200
        gram = np.zeros((self.dim, self.dim))
        for block in self._blocks(idx):
            rows = self.A.take(block, axis=0)
            gram += rows.T @ rows
        return _RegularizedRowView(gram / idx.size, idx.size)

    def batch_grad(self, x: Array, idx: Array | int) -> Array:
        rows = _index_array(idx, self.n)
        if rows is None:
            return self.gram @ x - self.Aty + self._reg_grad(x)
        return self._row_blocks(rows, x, targets=True) + self._reg_grad(x)

    def batch_grad_diff(self, x: Array, y: Array, idx: Array | int) -> Array:
        rows = _index_array(idx, self.n)
        if rows is None:
            quad = self.gram @ (x - y)
        else:
            quad = self._row_blocks(rows, x - y, targets=False)
        return quad + self._reg_grad(x) - self._reg_grad(y)

    def full_grad(self, x: Array) -> Array:
        return self.gram @ x - self.Aty + self._reg_grad(x)

    def hessian(self, x: Array) -> Array:
        return self.gram + np.diag(self._reg_hess_diag(x))


class _RegularizedRowView(FiniteSumProblem):
    """The finite sum of some rows of a regularized problem, held as their
    Gram matrix alone, so that it answers population differences, the one
    query a curvature probe makes, in O(d^2) and never copies the rows."""

    def __init__(self, gram: Array, n: int):
        self.gram = gram
        self.n = n
        self.dim = gram.shape[0]

    def batch_grad_diff(self, x: Array, y: Array, idx: Array | int) -> Array:
        if _index_array(idx, self.n) is not None:
            raise ValueError("a row view answers population queries only")
        reg_grad = _RegularizedLeastSquaresProblem._reg_grad
        return self.gram @ (x - y) + reg_grad(x) - reg_grad(y)


def make_regularized_problem(dim: int, n: int, seed: int | np.random.SeedSequence) -> FiniteSumProblem:
    """Random least-squares data with a smooth nonconvex regularizer."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = make_rng(seed)
    A = rng.standard_normal((n, dim)) / math.sqrt(dim)
    y = rng.standard_normal(n)
    return _RegularizedLeastSquaresProblem(A, y)


class AdditiveNoiseStreamingProblem(Problem):
    """Streaming oracle grad F(x; xi) = grad F(x) + xi, xi ~ N(0, s^2 I).

    The mean of a batch of B fresh noises is N(0, s^2/B I), so batch means are
    drawn from their exact law in one shot; two-point corrections pair the same
    xi at both points, where the additive noise cancels identically, so a
    correction is the core's population difference.
    """

    def __init__(self, core: FiniteSumProblem, noise_std: float):
        self.core = core
        self.noise_std = float(noise_std)
        self.dim = core.dim
        self.x0 = core.x0.copy()
        self.smoothness = replace(core.smoothness, sigma2=max(self.dim * self.noise_std**2, 1e-12))

    def value(self, x: Array) -> float:
        return self.core.value(x)

    def sample_batch_grad(self, x: Array, size: int, rng: np.random.Generator) -> Array:
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size}")
        scale = self.noise_std / math.sqrt(size)
        return self.core.full_grad(x) + scale * rng.standard_normal(self.dim)

    def difference_from(self, y: Array) -> Difference:
        n, core_diff = self.core.n, self.core.difference_from(y)

        def diff(x: Array, size: int, rng: np.random.Generator) -> Array:
            if size < 1:
                raise ValueError(f"batch size must be >= 1, got {size}")
            return core_diff(x, n, rng)

        return diff

    def full_grad(self, x: Array) -> Array:
        return self.core.full_grad(x)

    def hessian(self, x: Array) -> Array:
        return self.core.hessian(x)


def make_streaming_saddle_problem(
    dim: int,
    negative_eigenvalue: float,
    seed: int | np.random.SeedSequence,
    *,
    quartic: float = 0.25,
    radius: float = 2.0,
    noise: float = 0.1,
) -> Problem:
    """Streaming counterpart of :func:`make_saddle_problem`."""
    core = make_saddle_problem(
        dim, 1, negative_eigenvalue, seed, quartic=quartic, radius=radius, noise=0.0
    )
    return AdditiveNoiseStreamingProblem(core, noise)


def subsample_variance_report(
    vectors: Array, m: int, draws: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo estimate of E |mean of a random size-m subset|^2 for zero-sum rows.

    Returns ``(estimate, bound)`` where ``bound = mean_j |a_j|^2 / m`` if
    ``m < N`` and ``0`` for the full subset (the mean of all rows vanishes).
    Used by the sampling-variance verification suite.
    """
    a = np.asarray(vectors, dtype=float)
    N = a.shape[0]
    if not 1 <= m <= N:
        raise ValueError(f"subset size {m} out of range 1..{N}")
    scale = float(np.abs(a).max()) or 1.0
    if float(np.abs(a.sum(axis=0)).max()) > 1e-9 * scale * N:
        raise ValueError("rows must sum to zero")
    mean_sq = float(np.einsum("ij,ij->i", a, a).mean())
    if m == N:
        # the full subset is forced; its mean is the zero vector by the
        # zero-sum precondition, so the estimator is identically 0
        return 0.0, 0.0
    # Vectorized without-replacement draws: the first m slots of random
    # permutations, realized via argpartition of uniform keys.
    keys = rng.random((draws, N))
    subsets = np.argpartition(keys, m - 1, axis=1)[:, :m]
    means = a[subsets].mean(axis=1)
    estimate = float(np.einsum("ij,ij->i", means, means).mean())
    return estimate, mean_sq / m
