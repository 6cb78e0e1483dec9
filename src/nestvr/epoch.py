"""One geometric-length epoch of nested variance-reduced descent.

State per iteration t is the iterate x_t plus K+1 reference points
x_t^(0..K) and reference gradients g_t^(0..K).  The reset level

    r(t) = min { j : t is divisible by prod_{l>j} T_l }

decides which references refresh: points at levels r..K snap to the current
iterate, the level-r gradient is re-sampled (a plain batch-B0 gradient at
level 0, a two-point batch-B_r correction above), and finer levels restart
from zero.  The update direction is the sum of all reference gradients and
the step is x <- x - v / (10 M).

Cost model: every level whose period divides t is charged at that step --
B0 gradients for the level-0 anchor, 2 B_l for each level above, including
the levels above r whose refreshed difference pairs identical points and is
therefore identically zero (the zero is written without evaluating
gradients; the charge is still made so the tally matches the closed-form
epoch cost).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .problems import (
    Array,
    GradCounter,
    Problem,
    sample_indices_without_replacement,
)
from .schedule import NestedSchedule

#: epochs are cut off at this many multiples of the mean length; the truncated
#: tail has probability below exp(-1e6) and the cut is flagged on the result.
LENGTH_CAP_MULTIPLIER = 10**6


@dataclass
class EpochState:
    """Snapshot of the inner-loop state after step t."""

    t: int
    x: Array
    x_ref: list[Array]
    g_ref: list[Array]
    v: Array


@dataclass
class EpochResult:
    x_out: Array
    T: int
    grads_used: int
    out_of_domain: bool = False
    truncated: bool = False
    history: list[EpochState] | None = None


def draw_epoch_length(p: float, rng: np.random.Generator, cap: int) -> tuple[int, bool]:
    """Inverse-CDF draw from Geom(p) with P(T = k) = p (1-p)^k, k >= 0."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"geometric parameter must lie in (0, 1), got {p}")
    u = 1.0 - rng.random()  # uniform on (0, 1]
    T = int(math.log(u) / math.log1p(-p))
    if T > cap:
        return cap, True
    return T, False


def reset_level(t: int, schedule: NestedSchedule) -> int:
    """Least level j in [0, K] whose refresh period divides t.

    Level K has the empty product 1 as its period, so every step refreshes at
    least the finest level; t = 0 refreshes everything (r = 0).
    """
    if t < 0:
        raise ValueError(f"iteration index must be >= 0, got {t}")
    for j in range(schedule.K + 1):
        if t % schedule.level_divisor(j) == 0:
            return j
    raise AssertionError("unreachable: level K always divides")


def update_reference_points(old_refs: list[Array], x: Array, r: int) -> list[Array]:
    """Keep levels below r, snap levels r..K to the current iterate."""
    K = len(old_refs) - 1
    if not 0 <= r <= K:
        raise ValueError(f"reset level {r} out of range 0..{K}")
    return old_refs[:r] + [x] * (K + 1 - r)


def update_reference_gradients(
    old_grads: list[Array],
    refs: list[Array],
    r: int,
    problem: Problem,
    schedule: NestedSchedule,
    rng: np.random.Generator,
    counter: GradCounter,
) -> list[Array]:
    """Refresh reference gradients for reset level r.

    r = 0: level 0 becomes a plain batch-B0 gradient at x^(0) (charged B0);
    r > 0: levels below r are kept and level r becomes the batch-B_r mean of
    gradient differences between x^(r) and x^(r-1) (charged 2 B_r).  Levels
    above r are reset to zero and charged 2 B_l each: their refresh pairs
    x^(l) = x^(l-1), so the averaged difference vanishes identically and is
    written without evaluating component gradients.
    """
    K = len(old_grads) - 1
    if not 0 <= r <= K:
        raise ValueError(f"reset level {r} out of range 0..{K}")
    dim = refs[0].shape[0]
    new = list(old_grads[:r])

    if r == 0:
        B0 = schedule.batch(0)
        if problem.is_finite_sum:
            idx = sample_indices_without_replacement(problem.n, B0, rng)
            anchor = problem.batch_grad(refs[0], idx)
        else:
            anchor = problem.sample_batch_grad(refs[0], B0, rng)
        counter.add(B0)
        new.append(anchor)
    else:
        B_r = schedule.batch(r)
        if problem.is_finite_sum:
            idx = sample_indices_without_replacement(problem.n, B_r, rng)
            corr = problem.batch_grad_diff(refs[r], refs[r - 1], idx)
        else:
            corr = problem.sample_batch_grad_diff(refs[r], refs[r - 1], B_r, rng)
        counter.add(2 * B_r)
        new.append(corr)

    for level in range(r + 1, K + 1):
        new.append(np.zeros(dim))
        counter.add(2 * schedule.batch(level))
    return new


def run_epoch(
    x0: Array,
    problem: Problem,
    schedule: NestedSchedule,
    rng: np.random.Generator,
    counter: GradCounter | None = None,
    *,
    keep_history: bool = False,
    length_override: int | None = None,
) -> EpochResult:
    """Run one epoch from ``x0`` and return the final iterate.

    The length T is geometric with the schedule's parameter p (an override is
    accepted for diagnostics and deterministic tests).  A drawn T = 0 performs
    no gradient work at all -- the loop body never executes, so not even the
    level-0 anchor is sampled.  Deterministic given the generator state.
    """
    if counter is None:
        counter = GradCounter()
    start_count = counter.count
    K = schedule.K

    truncated = False
    if length_override is not None:
        if length_override < 0:
            raise ValueError(f"length override must be >= 0, got {length_override}")
        T = int(length_override)
    else:
        cap = LENGTH_CAP_MULTIPLIER * schedule.loop_product
        T, truncated = draw_epoch_length(schedule.p, rng, cap)

    x = np.asarray(x0, dtype=float).copy()
    refs = [x] * (K + 1)
    grads = [np.zeros(problem.dim)] * (K + 1)
    history: list[EpochState] | None = [] if keep_history else None
    out_of_domain = False

    radius = problem.smoothness.radius
    center = problem.x0

    step = 1.0 / (10.0 * schedule.M)
    for t in range(T):
        r = reset_level(t, schedule)
        refs = update_reference_points(refs, x, r)
        grads = update_reference_gradients(grads, refs, r, problem, schedule, rng, counter)
        v = np.sum(grads, axis=0)
        if history is not None:
            history.append(EpochState(t=t, x=x, x_ref=list(refs), g_ref=list(grads), v=v))
        x = x - step * v
        if radius is not None and float(np.linalg.norm(x - center)) > radius * (1 + 1e-9):
            out_of_domain = True

    return EpochResult(
        x_out=x,
        T=T,
        grads_used=counter.count - start_count,
        out_of_domain=out_of_domain,
        truncated=truncated,
        history=history,
    )
