"""One geometric-length epoch of nested variance-reduced descent.

State per iteration t is the iterate x_t plus K+1 reference points
x_t^(0..K) and reference gradients g_t^(0..K).  The reset level

    r(t) = min { j : t is divisible by prod_{l>j} T_l }

decides which references refresh: points at levels r..K snap to the current
iterate, the level-r gradient is re-sampled (a plain batch-B0 gradient at
level 0, a two-point batch-B_r correction above), and finer levels restart
from zero.  The update direction is the sum of all reference gradients and
the step is x <- x - v / (10 M).

Since T_K divides the periods of all levels below K, every T_K-th step
resets a level r < K, and the T_K - 1 steps between two resets refresh the
finest level K alone.  The loop takes t = 0, T_K, 2 T_K, ... and finds r by
the divisibility rule; the finest-level run after each reset is a plain
inner loop on the reference, gradient prefix and batch size that the reset
fixed.  A reset of level r binds one difference oracle to the iterate
(``Problem.difference_from``) as the reference of levels r..K-1, so a family
reads each reference once per refresh, not once per step.  Each step makes
one sampled oracle call at its level's batch size, which draws from the
epoch's generator only what it reads: on a finite sum, nothing for a clamped
level or for a difference that reads no rows.

Cost model: every level whose period divides t is charged for step t, at
``NestedSchedule.level_costs`` (B0 gradients for the level-0 anchor, 2 B_l for
each level above), including the levels above r whose refreshed difference
pairs identical points and is therefore identically zero (the zero is written
without evaluating gradients; the charge is still made so the tally matches
the closed-form epoch cost).  An epoch of length T is charged once, with the
closed form ``NestedSchedule.epoch_charge(T)``: level j at ceil(T / D_j)
refreshes, with D_j its period.  A caller that passes the level-0 anchor
(``run_epoch``'s ``anchor``) has paid for it, and the epoch is charged
``epoch_charge(T) - B0`` for T >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .problems import Array, Difference, Problem, check_fraction
# re-exported only because perfbench/spans.py wraps it here as its
# "problems.sample" site (spans.MODULE_SITES, pinned by
# tests/test_benchmark_sites.py).  Epochs draw their index sets through
# FiniteSumProblem._draw, which calls the problems module's own name, so
# the site sees no call
from .problems import sample_indices_without_replacement
from .schedule import NestedSchedule

#: bytes of the stack of visited points a run checks against the certified
#: ball in one call: a few hundred KB (3276 points at d = 10, 163 at
#: d = 200).  A stack holds whole batches of points, so at most
#: max(BALL_CHECK_BYTES, 8 d T_K) bytes, a batch being at most T_K points.
#: The points are the run's (:class:`BallLog`), not an epoch's: epochs are
#: short (saddle-d10's average 16 steps), and a check costs about 4.6 us on a
#: few rows at d = 10, plus about 0.3 us per point to stack them with
#: ``np.array``
BALL_CHECK_BYTES = 2**18


class BallLog:
    """The points one run visits, checked against the certified ball
    (:meth:`Problem.outside_ball`) a stack at a time.

    The points wait in a list, which spans every epoch and escape step of
    the run.  They are stacked and checked when the points passed to
    :meth:`extend` (a finest-level run, or a single escape step) would take
    the list past ``rows`` = ``BALL_CHECK_BYTES`` // (8 d), and once more
    when :meth:`outside` is read, so the flag is the one a check after every
    step would give.  The waiting points are checked before a batch is
    added, so the list holds at most max(``rows``, one batch) points, and a
    batch larger than ``rows`` is checked on its own.  A logged point must
    not change later: iterates are new arrays at every step.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.rows = BALL_CHECK_BYTES // (8 * problem.dim)
        self.points: list[Array] = []  # visited, not yet checked
        self._outside = False

    def extend(self, points: list[Array]) -> None:
        """Log ``points``, after checking those waiting if all would not
        fit in ``rows``."""
        if len(self.points) + len(points) > self.rows:
            self.outside()
        self.points += points

    def outside(self) -> bool:
        """Whether any logged point lies outside the ball, after the points
        not yet checked are."""
        if self.points:
            self._outside = self._outside or self.problem.outside_ball(np.array(self.points))
            self.points = []
        return self._outside


@dataclass
class EpochResult:
    """An epoch's final iterate, its length T and the gradients charged for
    it: ``grads_used`` is ``schedule.epoch_charge(T)``, less B0 when the
    caller passed the level-0 anchor and T >= 1.  Whether its iterates left
    the ball is the run's :class:`BallLog`'s to say, since the epoch makes
    no check of its own."""

    x_out: Array
    T: int
    grads_used: int


def draw_epoch_length(p: float, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from Geom(p) with P(T = k) = p (1-p)^k, k >= 0.

    ``rng.random()`` has 53-bit resolution, so u >= 2^-53 and T is at most
    53 ln 2 / -ln(1 - p) <= 36.8 / p: for the schedule's p = 1 / (1 + L),
    under 37 (1 + L) steps, where L is the loop product.  A ``p`` below
    2.1e-307, where 36.8 / p would overflow a float, is a ValueError, raised
    before the generator advances.
    """
    check_fraction("p", p)
    if p < 2.1e-307:
        raise ValueError(f"p: must be >= 2.1e-307 for a length a float can hold, got {p}")
    u = 1.0 - rng.random()  # uniform on (0, 1]
    return int(math.log(u) / math.log1p(-p))


def run_epoch(
    x0: Array,
    problem: Problem,
    schedule: NestedSchedule,
    rng: np.random.Generator,
    log: BallLog,
    anchor: Array | None,
) -> EpochResult:
    """Run one epoch from ``x0`` and return the final iterate.

    The length T is drawn from Geom(p) with the schedule's parameter p.  A
    drawn T = 0 performs no gradient work at all -- the loop body never
    executes, so not even the level-0 anchor is sampled.  The epoch's
    refreshes are charged in one sum, ``schedule.epoch_charge(T)``, returned
    as ``grads_used``.  Deterministic given the generator state.

    ``anchor`` is the level-0 gradient at ``x0``, B0 components' mean, which
    the caller has already measured and paid for, or None.  Given, it is the
    first step's anchor in place of ``sample(x0, B0, rng)``, and the epoch is
    charged ``epoch_charge(T) - B0`` for T >= 1 (0 for T = 0).  The driver
    passes its gradient test's population gradient on a finite sum with
    B0 = n, where the sampled anchor is that same vector and draws nothing,
    so the generator stream and every iterate are those of an epoch that
    samples its own.

    The iterates x_1 .. x_T go into the run's ``log``, a :class:`BallLog`
    for ``problem``, in one ``log.extend`` call per reset step and the
    finest-level run after it.  The log checks them against the certified
    ball when they fill its ``rows``, and the rest when its flag is read, so
    an epoch makes no check of its own.
    """
    K = schedule.K
    T = draw_epoch_length(schedule.p, rng)

    x = np.asarray(x0, dtype=float).copy()
    # ops[j]: the difference oracle bound to level j's reference point, which
    # level j + 1's differences pair with (the finest level K has none, since
    # nothing lies above it).  Step t = 0 resets level 0 and binds them all.
    ops: list[Difference] = []
    # prefix[j] = 0.0 + g_0 + ... + g_{j-1}, the levels' latest reference
    # gradients added in level order.  No partial sum is -0.0 (x + y is -0.0
    # only when both are), so the levels above r, which restart from zero,
    # add nothing: v = prefix[r] + g_r is the level-ordered sum of all K + 1
    # reference gradients bit for bit.
    prefix: list[Array | float] = [0.0] * (K + 1)
    batches = (schedule.B0, *schedule.B)
    D = schedule.level_divisors
    T_K, size = schedule.T[-1], batches[K]
    sample, bind = problem.sample_batch_grad, problem.difference_from
    # a 0-d array, not a Python float: numpy 2.4 multiplies a d = 10 vector
    # by it in 0.31 us against 0.46-0.50 us on a 2-core Xeon, with the same
    # bits, and no slower at d = 10000
    step = np.array(1.0 / (10.0 * schedule.M))
    for t in range(0, T, T_K):
        # the reset level, the least r whose period divides t (r < K)
        r = 0
        while t % D[r]:
            r += 1
        if r == 0:
            g = sample(x, batches[0], rng) if t or anchor is None else anchor
        else:
            g = ops[r - 1](x, batches[r], rng)
        v = prefix[r] + g
        ops[r:] = [bind(x)] * (K - r)
        prefix[r + 1 :] = [v] * (K - r)
        x = x - step * v
        run = [x]
        # then level K alone, on the reference and prefix the reset fixed
        diff, pre = ops[K - 1], prefix[K]
        for _ in range(1, min(T_K, T - t)):
            x = x - step * (pre + diff(x, size, rng))
            run.append(x)
        log.extend(run)
    charged = schedule.epoch_charge(T)
    if anchor is not None and T:
        charged -= schedule.B0  # the caller paid for the first anchor
    return EpochResult(x_out=x, T=T, grads_used=charged)
