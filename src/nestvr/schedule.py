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
import math

from fractions import Fraction


@dataclass(frozen=True)
class NestedSchedule:
    """Parameter bundle for one nested variance-reduction epoch.

    ``T[l-1]`` and ``B[l-1]`` hold the level-l loop length and batch size for
    l = 1..K.  ``p`` is the geometric epoch-length parameter.  ``clamped``
    records whether any batch size was capped at a finite component count
    (which voids the batch-size hypothesis of the variance analysis).
    """

    B0: int
    K: int
    M: float
    T: tuple[int, ...]
    B: tuple[int, ...]
    p: float
    clamped: bool = False

    @property
    def loop_product(self) -> int:
        """prod_{l=1}^K T_l; equals sqrt(B0) exactly for canonical sizes."""
        return math.prod(self.T)

    def level_divisor(self, j: int) -> int:
        """prod_{l=j+1}^K T_l, the refresh period of level j (empty product = 1)."""
        if not 0 <= j <= self.K:
            raise ValueError(f"level {j} out of range 0..{self.K}")
        return math.prod(self.T[j:])

    def batch(self, level: int) -> int:
        """Effective batch size at a level: B0 at level 0, B_l above."""
        if level == 0:
            return self.B0
        return self.B[level - 1]

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

    ``B0`` must be at least 4: smaller bases give K = 0, collapsing the nest,
    and are rejected rather than special-cased.
    """
    if B0 < 4:
        raise ValueError(f"B0 must be >= 4 (nesting depth would underflow), got {B0}")
    if not M > 0:
        raise ValueError(f"M must be positive, got {M}")
    # K = floor(log2 log2 B0) in exact integer arithmetic.
    K = (B0.bit_length() - 1).bit_length() - 1
    T = [2] + [2 ** (2 ** (l - 2)) for l in range(2, K + 1)]
    B = [6**K * B0] + [_ceil_div(6 ** (K - l + 1) * B0, 2 ** (2 ** (l - 1))) for l in range(2, K + 1)]
    p = 1.0 / (1 + math.prod(T))
    return NestedSchedule(B0=B0, K=K, M=float(M), T=tuple(T), B=tuple(B), p=p)


def clamp_schedule(schedule: NestedSchedule, n: int | float | None) -> NestedSchedule:
    """Cap every batch size at the component count ``n``.

    ``None`` or ``inf`` (the streaming sentinel) leaves the schedule untouched.
    A clamped schedule is flagged: the variance analysis' batch-size hypothesis
    no longer holds and verification suites report it as not applicable.
    """
    if n is None or (isinstance(n, float) and math.isinf(n)):
        return schedule
    n = int(n)
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
    2 B_l gradients per refresh (B0 for the level-0 anchor).  With the mean
    epoch length equal to prod T_j this gives

        B0 + 2 sum_{l=1}^K B_l prod_{j=1}^l T_j.
    """
    total = schedule.B0
    prefix = 1
    for l in range(1, schedule.K + 1):
        prefix *= schedule.T[l - 1]
        total += 2 * schedule.B[l - 1] * prefix
    return total


def exact_expected_epoch_cost(schedule: NestedSchedule) -> float:
    """Exact expectation of the per-epoch gradient tally under the geometric length.

    The number of level-j refreshes in an epoch of length T is ceil(T / D_j)
    with D_j the level period; for T ~ Geom(p) its expectation is
    (1 - p) / (1 - (1 - p)^D_j).  This is the true mean of the implementation's
    counter; the closed form above replaces E ceil(T / D) by (E T) / D and is
    exact only when the realized length is a multiple of every period.
    """
    q = Fraction(schedule.loop_product, 1 + schedule.loop_product)
    total = Fraction(0)
    for j in range(0, schedule.K + 1):
        D = schedule.level_divisor(j)
        expected_refreshes = q / (1 - q**D)
        charge = schedule.B0 if j == 0 else 2 * schedule.B[j - 1]
        total += charge * expected_refreshes
    return float(total)


@dataclass(frozen=True)
class DampingSeries:
    """Backward-recursive constant series attached to one nesting level.

    ``values[j]`` holds the j-th constant, j = 0..T_s.  The endpoint is
    M / (6^(K-s+1) prod_{l=s}^K T_l) and each step backwards multiplies by
    (1 + 1/T_s) and adds 3 L^2 / M * (prod_{l>s} T_l) / B_s.
    """

    level: int
    values: tuple[float, ...]

    @property
    def endpoint(self) -> float:
        return self.values[-1]


def damping_series(schedule: NestedSchedule, L: float, s: int) -> DampingSeries:
    """Compute the level-``s`` damping series for smoothness constant ``L``.

    The series is well defined for any M > 0; its ordering guarantees require
    M >= 6 L and an unclamped schedule (see :func:`check_series_domination`).
    """
    if not 1 <= s <= schedule.K:
        raise ValueError(f"level {s} out of range 1..{schedule.K}")
    M = schedule.M
    T_s = schedule.T[s - 1]
    tail = math.prod(schedule.T[s - 1 :])  # prod_{l=s}^K T_l
    endpoint = M / (6 ** (schedule.K - s + 1) * tail)
    increment = (3.0 * L * L / M) * (math.prod(schedule.T[s:]) / schedule.B[s - 1])
    vals = [0.0] * (T_s + 1)
    vals[T_s] = endpoint
    for j in range(T_s - 1, -1, -1):
        vals[j] = (1.0 + 1.0 / T_s) * vals[j + 1] + increment
    return DampingSeries(level=s, values=tuple(vals))


@dataclass(frozen=True)
class SeriesDominationReport:
    """Numeric check that each level's series is dominated by the next endpoint.

    ``cross_level_ok``: c_j^(s-1) (1 + T_{s-1}) < c_{T_s}^(s) for all
    2 <= s <= K and 0 <= j <= T_{s-1}; ``top_level_ok``: c_j^(K) (1 + T_K) < M
    for all 0 <= j <= T_K.  ``applicable`` is False when the hypotheses
    (M >= 6 L, unclamped canonical schedule) are not met, in which case the
    booleans are reported but carry no guarantee.
    """

    applicable: bool
    cross_level_ok: bool
    top_level_ok: bool
    margin: float

    @property
    def passed(self) -> bool:
        return self.cross_level_ok and self.top_level_ok


def check_series_domination(schedule: NestedSchedule, L: float) -> SeriesDominationReport:
    applicable = schedule.M >= 6.0 * L and not schedule.clamped
    series = {s: damping_series(schedule, L, s) for s in range(1, schedule.K + 1)}
    cross_ok = True
    margin = math.inf
    for s in range(2, schedule.K + 1):
        bound = series[s].endpoint
        T_prev = schedule.T[s - 2]
        for c in series[s - 1].values:
            gap = bound - c * (1 + T_prev)
            margin = min(margin, gap)
            if gap <= 0:
                cross_ok = False
    top_ok = True
    T_K = schedule.T[-1]
    for c in series[schedule.K].values:
        gap = schedule.M - c * (1 + T_K)
        margin = min(margin, gap)
        if gap <= 0:
            top_ok = False
    return SeriesDominationReport(
        applicable=applicable, cross_level_ok=cross_ok, top_level_ok=top_ok, margin=margin
    )
