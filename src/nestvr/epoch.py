"""One geometric-length epoch of nested variance-reduced descent.

State per iteration t is the iterate x_t plus K+1 reference points
x_t^(0..K) and reference gradients g_t^(0..K).  The reset level

    r(t) = min { j : t is divisible by prod_{l>j} T_l }

decides which references refresh: points at levels r..K snap to the current
iterate, the level-r gradient is re-sampled (a plain batch-B0 gradient at
level 0, a two-point batch-B_r correction above), and finer levels restart
from zero.  The update direction is the sum of all reference gradients and
the step is x <- x - v / (10 M).  The loop steps r(t) with one countdown per
level.  Each step makes one sampled oracle call at its level's batch size,
which draws from the epoch's generator only what it reads: on a finite sum,
nothing for a clamped level or for a difference that reads no rows.

Cost model: every level whose period divides t is charged at that step, at
``NestedSchedule.level_costs`` (B0 gradients for the level-0 anchor, 2 B_l for
each level above), including the levels above r whose refreshed difference
pairs identical points and is therefore identically zero (the zero is written
without evaluating gradients; the charge is still made so the tally matches
the closed-form epoch cost).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .problems import Array, GradCounter, Problem
# re-exported: perfbench/spans.py wraps it here as its "problems.sample" site
from .problems import sample_indices_without_replacement
from .schedule import NestedSchedule

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
    executes, so not even the level-0 anchor is sampled.  Every refresh is
    charged to ``counter``, in one sum when the epoch ends.  Deterministic
    given the generator state.
    """
    K = schedule.K
    T = draw_epoch_length(schedule.p, rng)

    x = np.asarray(x0, dtype=float).copy()
    zero = np.zeros(problem.dim)
    zero.flags.writeable = False
    refs = [x] * (K + 1)
    # prefix[j] = 0.0 + g_0 + ... + g_{j-1}, the levels' latest reference
    # gradients added in level order.  No partial sum is -0.0 (x + y is -0.0
    # only when both are), so the levels above r, which restart from zero,
    # add nothing: v = prefix[r] + g_r is the level-ordered sum of all K + 1
    # reference gradients bit for bit.
    prefix = [zero] * (K + 1)
    batches = (schedule.B0, *schedule.B)
    # a step of reset level r pays for level r and every zeroed level above it
    charges = [sum(schedule.level_costs[r:]) for r in range(K + 1)]
    loops = (0, *schedule.T)  # loops[l] = T_l: level-l refreshes per level l - 1 one
    left = list(loops)  # level-l refreshes left before level l - 1 refreshes
    r = 0
    charged = 0
    out_of_domain = False

    step = 1.0 / (10.0 * schedule.M)
    for _ in range(T):
        refs[r:] = [x] * (K + 1 - r)
        if r == 0:
            g = problem.sample_batch_grad(x, batches[0], rng)
        else:
            g = problem.sample_batch_grad_diff(x, refs[r - 1], batches[r], rng)
        charged += charges[r]
        v = prefix[r] + g
        prefix[r + 1 :] = [v] * (K - r)
        x = x - step * v
        if not out_of_domain:
            out_of_domain = problem.outside_ball(x)
        # the next step's reset level: count down level K and carry each
        # countdown that runs out one level up; r = 0 when all have run out
        r = K
        while r:
            left[r] -= 1
            if left[r]:
                break
            left[r] = loops[r]
            r -= 1
    counter.add(charged)

    return EpochResult(
        x_out=x,
        T=T,
        grads_used=charged,
        out_of_domain=out_of_domain,
    )
