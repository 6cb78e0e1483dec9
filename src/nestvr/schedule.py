"""Nested loop/batch schedule: derivation, clamping and cost accounting.

The canonical schedule for base batch size B0 uses K = floor(log2 log2 B0)
nesting levels with doubly-exponentially spaced loop lengths

    T_1 = 2,  T_l = 2^(2^(l-2))           for 2 <= l <= K,
    B_1 = 6^K B0,  B_l = 6^(K-l+1) B0 / 2^(2^(l-1))   for 2 <= l <= K,

all integers when B0 is a power of a power of two (B_l is rounded up
otherwise, preserving the batch-size lower bound the analysis needs).  The
epoch length is geometric with p = 1 / (1 + prod_l T_l).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
import math
import operator

from .problems import check_positive, is_number


@dataclass(frozen=True)
class NestedSchedule:
    """Parameter bundle for one nested variance-reduction epoch.

    ``T[l-1]`` and ``B[l-1]`` hold the level-l loop length and batch size for
    l = 1..K, so the depth K is ``len(T)``.  The counts are stored as Python
    ints (a numpy integer is read as one), so the charges cannot wrap.
    ``clamped`` records whether any batch size was capped at a finite
    component count (which voids the batch-size hypothesis of the variance
    analysis).
    """

    B0: int
    M: float
    T: tuple[int, ...]
    B: tuple[int, ...]
    clamped: bool = False

    def __post_init__(self) -> None:
        # an epoch steps from one multiple of T_K to the next: with no level
        # above the anchor, or a loop length below 1, it would never advance
        if not self.T or len(self.T) != len(self.B):
            raise ValueError(f"a schedule needs K >= 1 levels, one batch each: got T={self.T}, B={self.B}")
        # counts: a float or a bool would run as some other count, or fail
        # only inside an epoch, after its draws and steps
        exact = True  # every count a Python int already, as derive_schedule's are
        for name, counts in (("B0", (self.B0,)), ("B", self.B), ("T", self.T)):
            for c in counts:
                if type(c) is not int:
                    if not is_number(c, integer=True):
                        raise TypeError(f"{name} must hold integers, got {name}={getattr(self, name)!r}")
                    exact = False
                if c < 1:
                    raise ValueError(f"{name} must hold counts >= 1, got {name}={getattr(self, name)!r}")
        if not exact:
            # a numpy integer is stored as the Python int it equals, so that
            # no charge wraps, and json.dumps writes every total
            object.__setattr__(self, "B0", operator.index(self.B0))
            object.__setattr__(self, "T", tuple(map(operator.index, self.T)))
            object.__setattr__(self, "B", tuple(map(operator.index, self.B)))
        # the step is 1 / (10 M): zero divides by zero, and a negative, NaN or
        # infinite M ascends, poisons or freezes the iterates
        check_positive("M", self.M)

    @property
    def K(self) -> int:
        """Nesting depth: the number of levels above the level-0 anchor."""
        return len(self.T)

    @property
    def p(self) -> float:
        """Geometric epoch-length parameter 1 / (1 + prod_l T_l)."""
        return 1.0 / (1 + self.loop_product)

    @property
    def loop_product(self) -> int:
        """prod_{l=1}^K T_l; equals sqrt(B0) exactly for canonical sizes."""
        return math.prod(self.T)

    @cached_property
    def level_divisors(self) -> tuple[int, ...]:
        """Refresh periods prod_{l=j+1}^K T_l of levels j = 0..K (level K: the
        empty product 1), computed once per schedule."""
        return tuple(math.prod(self.T[j:]) for j in range(self.K + 1))

    @cached_property
    def level_costs(self) -> tuple[int, ...]:
        """Gradients one refresh of level j = 0..K costs: B0 for the level-0
        anchor, 2 B_j for a two-point correction above it."""
        return (self.B0, *(2 * b for b in self.B))

    def epoch_charge(self, T: int) -> int:
        """Gradients an epoch of length ``T`` is charged: each level j at
        ``level_costs[j]`` per step t < T that its period D_j divides, so
        ceil(T / D_j) times.  :func:`exact_expected_epoch_cost` is its
        expectation under the geometric length."""
        return sum(cost * _ceil_div(T, D) for cost, D in zip(self.level_costs, self.level_divisors))

    def as_dict(self) -> dict:
        return {
            "B0": self.B0,
            "K": self.K,
            "M": self.M,
            "T": list(self.T),
            "B": list(self.B),
            "p": self.p,
            "clamped": self.clamped,
            "expected_epoch_cost": expected_epoch_cost(self),
        }


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def derive_schedule(B0: int, M: float) -> NestedSchedule:
    """Canonical schedule for base batch size ``B0`` and step parameter ``M``.

    ``B0``, an integer (a numpy one too, read as a Python int, so that 6^K B0
    cannot wrap; a float is a ``TypeError``), must be at least 4: smaller
    bases give K = 0, collapsing the nest, and are rejected rather than
    special-cased.
    """
    B0 = operator.index(B0)
    if B0 < 4:
        raise ValueError(f"B0 must be >= 4 (nesting depth would underflow), got {B0}")
    # K = floor(log2 log2 B0) in exact integer arithmetic.
    K = (B0.bit_length() - 1).bit_length() - 1
    T = [2] + [2 ** (2 ** (l - 2)) for l in range(2, K + 1)]
    B = [6**K * B0] + [_ceil_div(6 ** (K - l + 1) * B0, 2 ** (2 ** (l - 1))) for l in range(2, K + 1)]
    return NestedSchedule(B0=B0, M=float(M), T=tuple(T), B=tuple(B))


def clamp_schedule(schedule: NestedSchedule, n: int | None) -> NestedSchedule:
    """Cap every batch size at the component count ``n``.

    ``None`` (the streaming sentinel) leaves the schedule untouched.  A
    clamped schedule is flagged: the variance analysis' batch-size hypothesis
    no longer holds and verification suites report it as not applicable.
    """
    if n is None:
        return schedule
    if n < 1:
        raise ValueError(f"component count must be >= 1, got {n}")
    B0 = min(schedule.B0, n)
    B = tuple(min(b, n) for b in schedule.B)
    changed = B0 != schedule.B0 or B != schedule.B
    if not changed:
        return schedule
    return replace(schedule, B0=B0, B=B, clamped=True)


def expected_epoch_cost(schedule: NestedSchedule) -> int:
    """Closed-form expected stochastic-gradient count of one epoch.

    Level l is refreshed whenever the iteration index is divisible by its
    period, i.e. prod_{j<=l} T_j times per full sweep of prod T_j steps, at
    ``level_costs[l]`` gradients per refresh.  With the mean epoch length
    equal to prod T_j this gives

        B0 + 2 sum_{l=1}^K B_l prod_{j=1}^l T_j,

    the charge of one full sweep, since every period divides it.
    """
    return schedule.epoch_charge(schedule.loop_product)


def exact_expected_epoch_cost(schedule: NestedSchedule) -> float:
    """Exact expectation of the per-epoch gradient tally under the geometric length.

    The number of level-j refreshes in an epoch of length T is ceil(T / D_j)
    with D_j the level period; for T ~ Geom(p) its expectation is
    (1 - p) / (1 - (1 - p)^D_j).  This is the true mean of the implementation's
    tally; the closed form above replaces E ceil(T / D) by (E T) / D and is
    exact only when the realized length is a multiple of every period.
    """
    q = Fraction(schedule.loop_product, 1 + schedule.loop_product)
    total = Fraction(0)
    for cost, D in zip(schedule.level_costs, schedule.level_divisors):
        total += cost * q / (1 - q**D)
    return float(total)


def damping_series(schedule: NestedSchedule, L: float, s: int) -> tuple[float, ...]:
    """The level-``s`` damping constants c_0 .. c_{T_s} for smoothness constant ``L``.

    The endpoint c_{T_s} is M / (6^(K-s+1) prod_{l=s}^K T_l), and each step
    backwards multiplies by (1 + 1/T_s) and adds 3 L^2 / M * (prod_{l>s} T_l)
    / B_s.  The constants are defined for any M > 0; their ordering needs
    M >= 6 L and an unclamped schedule (see :func:`check_series_domination`).
    ``L`` must be finite and >= 0.
    """
    if not 1 <= s <= schedule.K:
        raise ValueError(f"level {s} out of range 1..{schedule.K}")
    if not (math.isfinite(L) and L >= 0.0):
        raise ValueError(f"L must be >= 0 and finite, got {L}")
    M = schedule.M
    T_s = schedule.T[s - 1]
    tail = math.prod(schedule.T[s - 1 :])  # prod_{l=s}^K T_l
    c = M / (6 ** (schedule.K - s + 1) * tail)
    increment = (3.0 * L * L / M) * (math.prod(schedule.T[s:]) / schedule.B[s - 1])
    backwards = [c]
    for _ in range(T_s):
        c = (1.0 + 1.0 / T_s) * c + increment
        backwards.append(c)
    return tuple(reversed(backwards))


@dataclass(frozen=True)
class SeriesDominationReport:
    """Least gap of the damping-series ordering.

    ``margin`` is the least of c_{T_s}^(s) - c_j^(s-1) (1 + T_{s-1}) over
    2 <= s <= K, 0 <= j <= T_{s-1}, and of M - c_j^(K) (1 + T_K) over
    0 <= j <= T_K, so every inequality holds strictly exactly when it is
    positive (``passed``).  ``applicable`` is False when the hypotheses (M >= 6 L,
    unclamped canonical schedule) are not met, in which case the margin is
    reported but carries no guarantee.
    """

    applicable: bool
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin > 0


def check_series_domination(schedule: NestedSchedule, L: float) -> SeriesDominationReport:
    series = [damping_series(schedule, L, s) for s in range(1, schedule.K + 1)]
    # level s's constants are bounded by level s + 1's endpoint, the top level's by M
    bounds = [values[-1] for values in series[1:]] + [schedule.M]
    margin = min(
        bound - c * (1 + T)
        for values, T, bound in zip(series, schedule.T, bounds)
        for c in values
    )
    return SeriesDominationReport(
        applicable=schedule.M >= 6.0 * L and not schedule.clamped, margin=margin
    )
