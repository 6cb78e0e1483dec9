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
refreshes, with D_j its period.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .problems import Array, Difference, GradCounter, Problem
# re-exported: perfbench/spans.py wraps it here as its "problems.sample" site
from .problems import sample_indices_without_replacement
from .schedule import NestedSchedule

#: bytes of iterates an epoch keeps before it checks them against the
#: certified ball in one call: a few hundred KB (3276 iterates at d = 10).  A
#: chunk holds whole finest-level runs, so it is at most
#: max(BALL_CHECK_BYTES, T_K d 8) bytes
BALL_CHECK_BYTES = 2**18

@dataclass
class EpochResult:
    x_out: Array
    T: int
    grads_used: int
    out_of_domain: bool = False


def draw_epoch_length(p: float, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from Geom(p) with P(T = k) = p (1-p)^k, k >= 0.

    ``rng.random()`` has 53-bit resolution, so u >= 2^-53 and T is at most
    53 ln 2 / -ln(1 - p) <= 36.8 / p: for the schedule's p = 1 / (1 + L),
    under 37 (1 + L) steps, where L is the loop product.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"geometric parameter must lie in (0, 1), got {p}")
    u = 1.0 - rng.random()  # uniform on (0, 1]
    return int(math.log(u) / math.log1p(-p))


def run_epoch(
    x0: Array,
    problem: Problem,
    schedule: NestedSchedule,
    rng: np.random.Generator,
    counter: GradCounter,
) -> EpochResult:
    """Run one epoch from ``x0`` and return the final iterate.

    The length T is drawn from Geom(p) with the schedule's parameter p.  A
    drawn T = 0 performs no gradient work at all -- the loop body never
    executes, so not even the level-0 anchor is sampled.  The epoch's
    refreshes are charged to ``counter`` in one add of
    ``schedule.epoch_charge(T)`` when it ends.  Deterministic given the
    generator state.

    ``out_of_domain`` is set when any iterate x_1 .. x_T lies outside the
    certified ball (:meth:`Problem.outside_ball`).  The iterates are checked
    a chunk at a time.  A chunk holds up to max(T_K, ``BALL_CHECK_BYTES`` //
    (8 d)) iterates, and is checked before a reset step whose run would not
    fit in it, and when the epoch ends, so the flag is the one a check after
    every step would give.
    """
    K = schedule.K
    T = draw_epoch_length(schedule.p, rng)

    x = np.asarray(x0, dtype=float).copy()
    zero = np.zeros(problem.dim)
    zero.flags.writeable = False
    # ops[j]: the difference oracle bound to level j's reference point, which
    # level j + 1's differences pair with (the finest level K has none, since
    # nothing lies above it).  Step t = 0 resets level 0 and binds them all.
    ops: list[Difference] = []
    # prefix[j] = 0.0 + g_0 + ... + g_{j-1}, the levels' latest reference
    # gradients added in level order.  No partial sum is -0.0 (x + y is -0.0
    # only when both are), so the levels above r, which restart from zero,
    # add nothing: v = prefix[r] + g_r is the level-ordered sum of all K + 1
    # reference gradients bit for bit.
    prefix = [zero] * (K + 1)
    batches = (schedule.B0, *schedule.B)
    D = schedule.level_divisors
    T_K, size = schedule.T[-1], batches[K]
    sample, bind = problem.sample_batch_grad, problem.difference_from
    rows = max(T_K, BALL_CHECK_BYTES // (x.itemsize * problem.dim))
    chunk = np.empty((min(rows, T), problem.dim))
    i = 0  # the chunk's next row
    out_of_domain = False
    # a 0-d array, not a Python float: numpy 2.4 multiplies a d = 10 vector
    # by it in 0.31 us against 0.46-0.50 us on a 2-core Xeon, with the same
    # bits, and no slower at d = 10000
    step = np.array(1.0 / (10.0 * schedule.M))
    for t in range(0, T, T_K):
        # the reset step t and the finest-level run after it write n
        # iterates; when they would overflow the chunk, it is checked first
        n = min(T_K, T - t)
        if i + n > rows:
            out_of_domain = out_of_domain or problem.outside_ball(chunk[:i])
            i = 0
        # the reset level, the least r whose period divides t (r < K)
        r = 0
        while t % D[r]:
            r += 1
        if r == 0:
            g = sample(x, batches[0], rng)
        else:
            g = ops[r - 1](x, batches[r], rng)
        v = prefix[r] + g
        ops[r:] = [bind(x)] * (K - r)
        prefix[r + 1 :] = [v] * (K - r)
        x = x - step * v
        chunk[i] = x
        # then level K alone, on the reference and prefix the reset fixed
        diff, pre = ops[K - 1], prefix[K]
        for j in range(i + 1, i + n):
            x = x - step * (pre + diff(x, size, rng))
            chunk[j] = x
        i += n
    if i:
        out_of_domain = out_of_domain or problem.outside_ball(chunk[:i])
    charged = schedule.epoch_charge(T)
    counter.add(charged)

    return EpochResult(
        x_out=x,
        T=T,
        grads_used=charged,
        out_of_domain=out_of_domain,
    )
