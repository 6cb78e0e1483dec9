"""Objective-function oracles for nested variance-reduced optimization.

Every oracle is a :class:`Problem`, and ``n`` tells its family
(:attr:`Problem.is_finite_sum`):

* :class:`FiniteSumProblem` -- an average of ``n`` component functions with a
  component-gradient oracle plus verification-only full gradient / Hessian.
* a stream (``n`` is None) -- a stochastic-gradient oracle that draws fresh
  samples per call, with no bound on their number.

All synthetic problems carry hand-coded gradients and Hessians (no autodiff)
and a :class:`SmoothnessSpec` with constants certified on a declared ball.
Stochastic-gradient work is tallied by the phase that asks for it, in
``grads_used``: one unit per single component-gradient (or fresh-sample)
evaluation, so a two-point correction over a batch of size ``B`` costs ``2 B``
units.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
import math
import numbers

import numpy as np

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
        for name in ("L1", "L2", "L3", "sigma2", "delta_F", "radius"):
            if name != "radius" or self.radius is not None:  # None: global constants
                check_positive(f"SmoothnessSpec.{name}", getattr(self, name))


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

    def lambda_min(self, x: Array) -> float:
        """Verification oracle: the least eigenvalue of F's Hessian at x, by
        a dense symmetric eigensolve of :meth:`hessian`.  A family whose
        Hessian has a structure overrides it with the same value."""
        return float(np.linalg.eigvalsh(self.hessian(x)).min())

    @property
    def is_finite_sum(self) -> bool:
        return self.n is not None

    def outside_ball(self, x: Array) -> bool:
        """Whether the point ``x``, or any row of a stack ``x`` of points, is
        outside the ball on which the smoothness constants are certified:
        farther than radius * (1 + 1e-9) from ``x0``.  Nothing is outside when
        the radius is None (global constants).  A row with an infinite entry
        and no NaN is outside, and a row with a NaN entry never is, so a stack
        that holds a NaN row is outside exactly when another row is."""
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

    A batch is a non-empty array of indices in 0..n-1 or the integer ``n``:
    every component, answered without gathering rows and charged as ``n``
    components like any other batch.  Results equal the plain row form (the mean over one gather
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
    implements ``subsample(size, rng)``, the finite sum of ``size`` rows it
    draws, whose population products the curvature search runs on.  ``None``
    (the default) declares nothing, and that search reads the whole population.
    """

    n: int
    hessian_spread: tuple[float, float] | None = None

    def batch_grad(self, x: Array, idx: Array | int) -> Array:
        """Mean of component gradients over ``idx``."""
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
        if type(size) is not int:  # exact ints skip the check
            _check_size(size)
        if size == self.n:
            return self.n
        return sample_indices_without_replacement(self.n, size, rng)

    def subsample(self, size: int, rng: np.random.Generator) -> FiniteSumProblem:
        """The finite sum of ``size`` components alone, drawn as
        ``sample_indices_without_replacement(n, size, rng)`` draws them: the
        uniform subsample that the curvature search's matrix Bernstein bound
        assumes.  A size outside 1..n is a ``ValueError``.  Implemented by the
        families that declare a ``hessian_spread``."""
        raise NotImplementedError


def sample_indices_without_replacement(n: int, m: int, rng: np.random.Generator) -> Array:
    """Uniformly random size-``m`` subset of ``range(n)``, without replacement.

    Deterministic given the generator state.  Callers must clamp ``m`` to the
    population size first; oversized requests are rejected.
    """
    if type(m) is not int or not 1 <= m <= n:  # exact ints in range skip the check
        _check_size(m, n)
    return rng.choice(n, size=m, replace=False)


def is_number(value: object, integer: bool) -> bool:
    """Whether ``value`` is an integer, or with ``integer`` false a real
    number: a bool is neither, and a numpy scalar of the kind is either.  An
    exact ``int`` (or ``float``, for a real) skips the ABC checks."""
    if type(value) is (int if integer else float):
        return True
    kinds = numbers.Integral if integer else numbers.Real
    return not isinstance(value, bool) and isinstance(value, kinds)


# the four value rules: every check of a number, a count, a positive finite
# real or a fraction calls one, so each rule and its message live here alone
def check_number(name: str, value: object, integer: bool) -> None:
    """A ValueError whose message starts ``name:`` unless ``value`` is an
    integer, or with ``integer`` false a number (:func:`is_number`).  The
    other three checks call it only to word a wrong kind's error: they pass
    an exact ``int`` or ``float`` inline, since a build makes dozens of
    checks."""
    if not is_number(value, integer):
        expected = "expected an integer" if integer else "expected a number"
        raise ValueError(f"{name}: {expected}, got {value!r}")


def check_count(name: str, value: object, least: int) -> None:
    """The same, unless ``value`` is an integer at or above ``least``."""
    if not ((type(value) is int or is_number(value, integer=True)) and value >= least):
        check_number(name, value, integer=True)
        raise ValueError(f"{name}: must be >= {least}, got {value}")


def check_positive(name: str, value: object) -> None:
    """The same, unless ``value`` is a positive and finite number."""
    if not ((type(value) is float or is_number(value, integer=False)) and 0.0 < value < math.inf):
        check_number(name, value, integer=False)
        raise ValueError(f"{name}: must be positive and finite, got {value}")


def check_fraction(name: str, value: object) -> None:
    """The same, unless ``value`` is a number in (0, 1); NaN is not."""
    if not ((type(value) is float or is_number(value, integer=False)) and 0.0 < value < 1.0):
        check_number(name, value, integer=False)
        raise ValueError(f"{name}: must lie in (0, 1), got {value}")


def _check_size(size: object, n: int | None = None) -> None:
    """Reject a sampled batch ``size`` that is a bool or not an integer, 2.0
    included, which would draw or scale noise as some other count, with a
    TypeError (a numpy integer passes, as in
    :class:`~nestvr.schedule.NestedSchedule`), and a size outside 1..``n``,
    or below 1 on a stream (``n`` None), with a ValueError.  Each sampled
    call tests an exact ``int`` in range inline and calls this otherwise."""
    if not is_number(size, integer=True):
        raise TypeError(f"batch size must be an integer, got {size!r}")
    if size < 1 or (n is not None and size > n):
        raise ValueError(f"batch size must lie in 1..{n or ''}, got {size}")


def _index_array(idx: Array | int, n: int) -> Array | None:
    """None for the integer batch ``n`` (every component); else the batch as
    the non-empty one-dimensional integer array that it was checked as, which
    callers index with.  Any other batch is rejected: another integer; a bool
    or a float, even one equal to ``n``; a boolean mask, which a gather with
    ``take`` would read as the indices 0 and 1; an array of more dimensions,
    which a gather would answer with a stack; and an index outside 0..n-1,
    which a gather would read from the end of the rows or fail on."""
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
            lo, hi = rows.min(), rows.max()
            if lo < 0 or hi >= n:
                raise ValueError(f"an index batch must lie in 0..{n - 1}, got indices {lo}..{hi}")
            return rows
        if rows.dtype.kind in "iu" and idx == n:
            return None
    raise ValueError(f"an integer batch must be the population size {n}, got {idx!r}")


def _zero_sum_noise(n: int, dim: int, scale: float, seed: int | np.random.SeedSequence) -> Array:
    """Rows of per-component linear-noise vectors, centred on their mean: they
    sum to zero up to roundoff (a few 1e-15 per entry for 256 rows at scale
    0.1), which is why the population reads their mean, ``noise_mean``.  The
    generator of ``seed`` is made only when rows are drawn: a single row, or
    scale 0, is zero and draws nothing."""
    if n == 1 or scale == 0.0:
        return np.zeros((n, dim))
    c = make_rng(seed).standard_normal((n, dim)) * scale
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
            if type(size) is not int or not 1 <= size <= n:  # exact ints in range skip it
                _check_size(size, n)
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

    def _hessian_diag(self, x: Array) -> Array:
        return self.diag + 12.0 * self.quartic * x * x

    def hessian(self, x: Array) -> Array:
        return np.diag(self._hessian_diag(x))

    def lambda_min(self, x: Array) -> float:
        # the Hessian is diagonal: its least entry, in O(d) where a dense
        # eigensolve takes O(d^3), with the same bits
        return float(self._hessian_diag(x).min())


#: each problem constant's rule, as a message words it, and its test
_CONSTANT_RULES = (
    ("negative_eigenvalue", "negative", lambda v: v < 0.0),
    ("noise", ">= 0", lambda v: v >= 0.0),
    ("quartic", "positive", lambda v: v > 0.0),
    ("radius", "positive", lambda v: v > 0.0),
)

#: the saddle families' constants, each with its default: their fields in
#: :data:`FAMILIES` and their factories' keyword defaults
_SADDLE = {"negative_eigenvalue": -1.0, "noise": 0.1, "quartic": 0.25, "radius": 2.0}


def check_problem(family: str, **values: float) -> None:
    """Reject the ``values`` of a problem of ``family``, a key of
    :data:`FAMILIES`, that break its rules: a count, ``dim`` before ``n``,
    that is not an integer (a bool, a float or None is not; a numpy integer
    is), though ``n`` may be None, left out; then, in the order of
    ``_CONSTANT_RULES``, each constant that is not a number (a bool, a
    string or None is not) or is not finite or breaks its rule; then a count
    below the family's minimum, ``dim`` before ``n``.  The ``ValueError`` is
    a config's message without its ``problem.`` path.  It reads the values
    alone, so a factory calls it before it draws anything."""
    for name in ("dim", "n"):
        value = values.get(name)
        if value is None and name == "n":  # left out: the minimum below names it
            continue
        check_number(name, value, integer=True)
    for name, rule, ok in _CONSTANT_RULES:
        if name in values:
            value = values[name]
            check_number(name, value, integer=False)
            if not (ok(value) and math.isfinite(value)):
                raise ValueError(f"{name}: must be {rule} and finite, got {value}")
    for name, least in FAMILIES[family].minimums.items():
        value = values.get(name)
        if value is None or value < least:
            raise ValueError(f"{name}: family {family!r} needs {name} >= {least}, got {value}")


def make_saddle_problem(
    dim: int,
    n: int,
    negative_eigenvalue: float,
    seed: int | np.random.SeedSequence,
    *,
    quartic: float = _SADDLE["quartic"],
    radius: float = _SADDLE["radius"],
    noise: float = _SADDLE["noise"],
) -> FiniteSumProblem:
    """Finite-sum objective with a strict saddle at the start point x0 = 0.

    F(x) = 1/2 x^T A x + a sum_j x_j^4 with A = diag(1, ..., 1, lam) and
    lam = ``negative_eigenvalue`` < 0, so grad F(0) = 0 and
    lambda_min(hess F(0)) = lam.  Global minimizers sit at
    x_last = +-sqrt(-lam / (4 a)) with value -lam^2 / (16 a).  Its values
    are checked as a config's are (:func:`check_problem`).
    """
    check_problem("saddle", dim=dim, n=n, negative_eigenvalue=negative_eigenvalue, noise=noise,
                  quartic=quartic, radius=radius)
    return _saddle(dim, n, negative_eigenvalue, seed, quartic, radius, noise)


def _saddle(dim: int, n: int, negative_eigenvalue: float, seed: int | np.random.SeedSequence,
            quartic: float, radius: float, noise: float) -> _SeparableQuarticProblem:
    """The saddle of :func:`make_saddle_problem`, from values already checked."""
    diag = np.ones(dim)
    diag[-1] = negative_eigenvalue
    return _SeparableQuarticProblem(diag, quartic, _zero_sum_noise(n, dim, noise, seed), radius)


#: bytes of design rows a subsampled regularized batch gathers at a time:
#: a few hundred KB, well inside a core's L2 (163 rows at d = 200)
ROW_BLOCK_BYTES = 2**18

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
    here.  An index-array batch and the rows of a ``subsample`` are summed by
    one block loop, ``_row_sum``: it gathers ``block_rows`` rows at a time
    (about ``ROW_BLOCK_BYTES`` of rows, with ``ndarray.take``), and each block
    serves its products (``ndarray.dot``, or its Gram term) while it is still
    in cache.  Its term is added to the sum in block order, and its rows are
    freed before the next gather, so no batch-sized copy of the rows is made.
    Both the population and the blocked forms match the single-gather row
    form to roundoff, not bit for bit.

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

    def _row_sum(self, idx: Array, term: Callable[[Array, Array], Array]) -> Array:
        """(1/m) sum of ``term(rows, block)`` over the m indices ``idx``, cut
        into blocks of ``block_rows`` indices: each block's rows are gathered
        once and freed before the next gather, and the terms are added in
        block order."""
        total = 0.0
        for start in range(0, idx.size, self.block_rows):
            block = idx[start : start + self.block_rows]
            rows = self.A.take(block, axis=0)
            total += term(rows, block)
            del rows  # one block of rows at a time
        return total / idx.size

    @cached_property
    def hessian_spread(self) -> tuple[float, float]:
        lam = float(np.linalg.eigvalsh(self.gram)[-1])
        return self.max_row_sq * lam, max(self.max_row_sq, lam)

    def subsample(self, size: int, rng: np.random.Generator) -> FiniteSumProblem:
        idx = sample_indices_without_replacement(self.n, size, rng)
        return _RegularizedRowView(self._row_sum(idx, lambda rows, block: rows.T @ rows), idx.size)

    def batch_grad(self, x: Array, idx: Array | int) -> Array:
        batch = _index_array(idx, self.n)
        if batch is None:
            return self.gram @ x - self.Aty + self._reg_grad(x)
        lsq = self._row_sum(batch, lambda rows, block: rows.T.dot(rows.dot(x) - self.y.take(block)))
        return lsq + self._reg_grad(x)

    def batch_grad_diff(self, x: Array, y: Array, idx: Array | int) -> Array:
        batch = _index_array(idx, self.n)
        u = x - y
        if batch is None:
            quad = self.gram @ u
        else:
            quad = self._row_sum(batch, lambda rows, block: rows.T.dot(rows.dot(u)))
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
    """Random least-squares data with a smooth nonconvex regularizer; its
    ``dim`` and ``n`` are checked as a config's are (:func:`check_problem`)."""
    check_problem("regularized", dim=dim, n=n)
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
        # a product, not ``**``, which raises OverflowError where this reads
        # inf, for SmoothnessSpec to reject as it does the saddle's
        variance = self.dim * (self.noise_std * self.noise_std)
        self.smoothness = replace(core.smoothness, sigma2=max(variance, 1e-12))

    def value(self, x: Array) -> float:
        return self.core.value(x)

    def sample_batch_grad(self, x: Array, size: int, rng: np.random.Generator) -> Array:
        if type(size) is not int or size < 1:  # exact positive ints skip the check
            _check_size(size)
        scale = self.noise_std / math.sqrt(size)
        return self.core.full_grad(x) + scale * rng.standard_normal(self.dim)

    def difference_from(self, y: Array) -> Difference:
        n, core_diff = self.core.n, self.core.difference_from(y)

        def diff(x: Array, size: int, rng: np.random.Generator) -> Array:
            if type(size) is not int or size < 1:  # exact positive ints skip the check
                _check_size(size)
            return core_diff(x, n, rng)

        return diff

    def full_grad(self, x: Array) -> Array:
        return self.core.full_grad(x)

    def hessian(self, x: Array) -> Array:
        return self.core.hessian(x)

    def lambda_min(self, x: Array) -> float:
        return self.core.lambda_min(x)


def make_streaming_saddle_problem(
    dim: int,
    negative_eigenvalue: float,
    seed: int | np.random.SeedSequence,
    *,
    quartic: float = _SADDLE["quartic"],
    radius: float = _SADDLE["radius"],
    noise: float = _SADDLE["noise"],
) -> Problem:
    """Streaming counterpart of :func:`make_saddle_problem`, its values
    checked as a config's are (:func:`check_problem`), once: its noiseless
    core is one zero row, which draws nothing."""
    check_problem("streaming-saddle", dim=dim, negative_eigenvalue=negative_eigenvalue, noise=noise,
                  quartic=quartic, radius=radius)
    core = _saddle(dim, 1, negative_eigenvalue, seed, quartic, radius, 0.0)
    return AdditiveNoiseStreamingProblem(core, noise)


@dataclass(frozen=True)
class Family:
    """How one problem family is built and checked, declared once: ``fields``
    maps each problem field the family reads, other than ``dim`` and
    ``seed``, to its default, None where it has none (``n``); a config that
    leaves a field out reads that default, and a config that sets a problem
    field outside ``fields``, other than ``family``, ``dim`` and ``seed``, is
    rejected.  ``factory`` takes ``dim``, ``seed`` and each field as
    keywords, with the same defaults where it has any, and the family reads
    ``n`` exactly when it is a finite sum.  ``minimums`` holds the least
    ``dim`` and, on a finite sum, the least ``n``, which :func:`check_problem`
    applies both to the factory's arguments and to a config's fields."""

    factory: Callable[..., Problem]
    fields: dict[str, float | None]
    minimums: dict[str, int]

    @property
    def is_finite_sum(self) -> bool:
        """The finite-sum families are exactly the ones with a component count."""
        return "n" in self.fields


FAMILIES = {
    "saddle": Family(make_saddle_problem, {"n": None, **_SADDLE}, {"dim": 2, "n": 1}),
    "regularized": Family(make_regularized_problem, {"n": None}, {"dim": 1, "n": 2}),
    "streaming-saddle": Family(make_streaming_saddle_problem, _SADDLE, {"dim": 2}),
}


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
