"""Outer driver: variance-reduced descent until the gradient is small, then a
negative-curvature probe that either certifies a second-order stationary point
or takes a Rademacher-signed escape step.

:func:`configure` derives every budget (failure probability, outer iteration
cap, escape step size, base batch size, inner step parameter) from the
smoothness constants at second- or third-order smoothness, with the formulas
of the problem's oracle family, finite sum or stream.  The derived values are
often astronomical by design; desk-scale runs override them while the
originally derived numbers stay recorded on the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import time

import numpy as np

from .epoch import BallLog, run_epoch
from .ncfinder import find_nc_direction
from .problems import Array, Problem, check_count, check_fraction, check_number, check_positive
from .schedule import NestedSchedule, clamp_schedule, derive_schedule

# one search under both names that perfbench/spans.py wraps
find_nc_direction_finite = find_nc_direction_online = find_nc_direction

#: per-call failure probabilities below this are floored before reaching the
#: curvature finder, avoiding degenerate log(1/delta) budgets at desk scale
DELTA_FLOOR = 1e-8

EVENT_KINDS = ("epoch", "grad-check", "nc-probe", "nc-step", "terminate")
STATUS_CERTIFIED = "certified-SOSP"
STATUS_EXHAUSTED = "budget-exhausted"
STATUS_DIVERGED = "diverged"

#: derived config values a desk-scale run may override, each with its type
OVERRIDE_KEYS = {"B0": int, "U": int, "M": float, "eta": float}
#: the smallest value each count override may take; real overrides must be
#: positive and finite
_OVERRIDE_MIN = {"B0": 4, "U": 1}


@dataclass
class TraceEvent:
    kind: str
    u: int
    grads_cum: int
    f_value: float | None = None
    grad_norm: float | None = None
    rayleigh: float | None = None
    wall_ms: float | None = None


@dataclass
class RunTrace:
    """Per-run event log with cumulative stochastic-gradient counts."""

    events: list[TraceEvent] = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def add(self, kind: str, u: int, grads_cum: int, **kw) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if self.events and grads_cum < self.events[-1].grads_cum:
            raise ValueError("gradient tally went backwards")
        ev = TraceEvent(
            kind=kind,
            u=u,
            grads_cum=grads_cum,
            wall_ms=(time.perf_counter() - self._t0) * 1e3,
            **kw,
        )
        self.events.append(ev)
        return ev


@dataclass
class DriverConfig:
    eps: float
    eps_H: float
    U: int
    eta: float
    delta: float
    schedule: NestedSchedule
    #: originally derived values for any field replaced by an override
    derived: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the inputs' rules, as configure checks them; a delta above 1 is
        # legal, since run_driver caps it
        check_fraction("eps", self.eps)
        check_fraction("eps_H", self.eps_H)
        check_override("U", self.U, "U")
        check_override("eta", self.eta, "eta")
        check_positive("delta", self.delta)


@dataclass
class DriverOutcome:
    z_final: Array
    status: str
    trace: RunTrace
    grads_total: int
    final_grad_norm: float
    out_of_domain: bool = False


@dataclass(frozen=True)
class PointClassification:
    gradient_norm: float
    lambda_min: float
    is_sosp: bool


def classify_point(problem: Problem, z: Array, eps: float, eps_H: float) -> PointClassification:
    """Exact second-order stationarity check via the verification oracles
    ``full_grad`` and :meth:`Problem.lambda_min`, a dense symmetric
    eigensolve unless the family reads its Hessian's least eigenvalue off a
    structure (the saddle families' diagonal); charges nothing.
    """
    z = np.asarray(z, dtype=float)
    gnorm = float(np.linalg.norm(problem.full_grad(z)))
    lam = problem.lambda_min(z)
    return PointClassification(
        gradient_norm=gnorm, lambda_min=lam, is_sosp=(gnorm <= eps and lam >= -eps_H)
    )


def check_override(key: str, value: object, path: str | None = None) -> int | float:
    """``value`` as override ``key``'s type, or a ValueError that names
    ``path`` (default ``overrides.<key>``).  Booleans and non-numbers are
    refused, counts must be integers at or above their minimum (``B0 >= 4``,
    ``U >= 1``), and reals positive and finite."""
    path = path or f"overrides.{key}"
    if OVERRIDE_KEYS[key] is int:
        check_count(path, value, _OVERRIDE_MIN[key])
        return int(value)
    check_positive(path, value)
    return float(value)


def check_algorithm(smoothness_order: int, eps: float, eps_H: float, overrides: dict) -> dict:
    """The checked ``overrides``, in :data:`OVERRIDE_KEYS` order, after the
    rules of an algorithm's inputs: ``smoothness_order`` is an integer, 2 or
    3; ``eps`` and ``eps_H`` are numbers in (0, 1) (NaN is not); each
    override key is known and its value passes :func:`check_override`.  A
    bool is neither an integer nor a number.  The ``ValueError`` is a
    config's message without its ``algorithm.`` path."""
    check_number("smoothness_order", smoothness_order, integer=True)
    if smoothness_order not in (2, 3):
        raise ValueError(f"smoothness_order: must be 2 or 3, got {smoothness_order}")
    check_fraction("eps", eps)
    check_fraction("eps_H", eps_H)
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"overrides: unknown keys {sorted(unknown)}")
    return {key: check_override(key, overrides[key]) for key in OVERRIDE_KEYS if key in overrides}


def configure(
    problem: Problem, eps: float, eps_H: float, *, order: int, overrides: dict | None = None
) -> DriverConfig:
    """The theorem's configuration for ``problem``'s oracle family
    (``problem.is_finite_sum``) at smoothness ``order`` (2 or 3).

    With (c, g) = (L2^2, eps_H^3) at order 2 and (L3, eps_H^2) at order 3:

    * finite sum: B0 = n, M = 6 L1, delta = g / (a c dF),
      U = u c dF / g + b L1 dF eps^-2 n^-1/2, where (a, u, b) is
      (144, 24, 1800) at order 2 and (72, 12, 1800 * 600) at order 3;
    * stream: B0 = sigma^2 eps^-2 max{64 (1 + log2[2500 C1 r' dF L1 eps^-2]),
      96 C1} (at least 4) with C1 = 200 and r' = max{r sigma^2 c / (L1 g), 6},
      rho = max{r sigma^2 c / (L1 g sqrt(B0)), 6}, M = 2 rho L1,
      delta = 1 / (q dF c / g), U = u dF c / g + 96 C1 rho dF L1 eps^-2 / sqrt(B0),
      where (r, q, u) is (54, 3000, 216) at order 2 and (36, 1000, 72) at 3.

    eta = eps_H / L2 at order 2.  At order 3 it is sqrt(3 eps_H / L3) on a
    finite sum and sqrt(eps_H / L3) on a stream: the larger step that the
    extra smoothness buys.  ``overrides`` replace the derived ``B0``, ``U``,
    ``M`` or ``eta``, and each replaced value stays recorded in ``derived``.
    The schedule is clamped at ``n``.  Before any formula, the order,
    ``eps``, ``eps_H`` and ``overrides`` are checked by
    :func:`check_algorithm`, whose message is a config's without its
    ``algorithm.`` path.
    A value that a constant at the edge of the float range takes to 0 or to
    infinity (the powers c and g, eps^2, ``B0`` or ``U``) is a ValueError that
    names it, with or without overrides.
    """
    checked = check_algorithm(order, eps, eps_H, overrides or {})
    s = problem.smoothness
    finite = problem.is_finite_sum
    if order == 2:
        try:
            c = s.L2**2
        except OverflowError:  # float ** raises where a product reads inf
            c = math.inf
        names, g, eta = ("L2^2", "eps_H^3"), eps_H**3, eps_H / s.L2
    else:
        names, c, g = ("L3", "eps_H^2"), s.L3, eps_H**2
        eta = math.sqrt((3.0 if finite else 1.0) * eps_H / s.L3)
    # the formulas divide by these: one that underflows to 0 is an error
    for name, value in ((names[0], c), (names[1], g), ("eps^2", eps**2)):
        check_positive(f"derived {name}", value)
    if finite:
        a, u, b = (144.0, 24.0, 1800.0) if order == 2 else (72.0, 12.0, 1800.0 * 600.0)
        B0, M = problem.n, 6.0 * s.L1
        delta = g / (a * c * s.delta_F)
        U = u * c * s.delta_F / g + b * s.L1 * s.delta_F / (eps**2 * math.sqrt(B0))
    else:
        r, q, u = (54.0, 3000.0, 216.0) if order == 2 else (36.0, 1000.0, 72.0)
        C1 = 200.0
        log_arg = 2500.0 * C1 * max(r * s.sigma2 * c / (s.L1 * g), 6.0) * s.delta_F * s.L1 / eps**2
        branch = max(64.0 * (1.0 + math.log2(log_arg)), 96.0 * C1)
        # nesting needs B0 >= 4 even when sigma^2 eps^-2 is degenerately small
        B0 = s.sigma2 / eps**2 * branch
        check_positive("derived B0", B0)
        B0 = max(4, math.ceil(B0))
        rho = max(r * s.sigma2 * c / (s.L1 * g * math.sqrt(B0)), 6.0)
        M = 2.0 * rho * s.L1
        delta = 1.0 / (q * s.delta_F * c / g)
        U = u * s.delta_F * c / g + 96.0 * C1 * rho * s.delta_F * s.L1 / (math.sqrt(B0) * eps**2)
    check_positive("derived U", U)
    U = max(1, math.ceil(U))
    values: dict[str, float] = {"B0": B0, "U": U, "M": M, "eta": eta}
    derived = {key: values[key] for key in checked}
    values.update(checked)
    schedule = clamp_schedule(derive_schedule(values["B0"], values["M"]), problem.n)
    return DriverConfig(
        eps=eps,
        eps_H=eps_H,
        U=values["U"],
        eta=values["eta"],
        delta=delta,
        schedule=schedule,
        derived=derived,
    )


def nc_descent_step(z: Array, v: Array, eta: float, rng: np.random.Generator) -> Array:
    """Escape step z + zeta * eta * v with a Rademacher sign zeta.

    The random sign cancels the first-order Taylor term in expectation, so the
    expected decrease is governed by the curvature along v.
    """
    zeta = 1.0 if rng.integers(0, 2) == 1 else -1.0
    return np.asarray(z, dtype=float) + zeta * eta * np.asarray(v, dtype=float)


def _is_finite(grad_norm: float, z: Array) -> bool:
    return math.isfinite(grad_norm) and bool(np.isfinite(z).all())


def run_driver(problem: Problem, config: DriverConfig, rng: np.random.Generator) -> DriverOutcome:
    """Gradient test, then an epoch or a probe-and-step, until certified or out of budget.

    The gradient test's batch is ``n`` on a finite sum (the population,
    against eps), else the base batch (against eps / 2).  On a finite sum
    whose schedule has B0 = n, the test's population gradient is also the
    level-0 anchor of the epoch that starts at the same point, so it is
    passed to :func:`run_epoch`, which is charged B0 less: an outer
    iteration pays for one population gradient, not two.  A stream's test
    batch, and a finite sum's with B0 < n, is no anchor: the first would
    pick the anchor by its own norm, and the second is not the B0-sample
    mean the epoch needs, so such epochs sample their own.  A non-finite
    measured gradient or iterate, or a probe whose Rayleigh estimate is not
    finite, ends the run as diverged.  ``out_of_domain``
    is set when an epoch iterate or an escape step leaves the certified ball
    (:meth:`Problem.outside_ball`).  Every point the run visits goes into one
    :class:`BallLog`, which keeps them in a list and checks them a stack at a
    time across epochs and escape steps; the run reads its flag once, when
    it ends, after the points not yet checked are.

    The run's gradient tally, each event's ``grads_cum`` and the outcome's
    ``grads_total``, is one int: the sum of the test batches and of each
    epoch's and probe's ``grads_used``.
    """
    finite = problem.is_finite_sum
    grads = 0
    trace = RunTrace()
    check_batch = problem.n if finite else config.schedule.B0
    threshold = config.eps if finite else config.eps / 2.0
    # the test's population gradient is the epoch's level-0 anchor at z
    reuse = finite and config.schedule.B0 == problem.n
    probe = find_nc_direction_finite if finite else find_nc_direction_online
    # the derived per-call failure probability can degenerate in both
    # directions (tiny at theory scale, above 1 when L2 or L3 is nearly zero);
    # clamp it to a usable probability before handing it to the finder
    nc_delta = min(max(config.delta, DELTA_FLOOR), 0.5)
    z = np.asarray(problem.x0, dtype=float).copy()
    f_z = problem.value(z)  # F is evaluated once per new point
    log = BallLog(problem)

    def finish(status: str, u: int, grad_norm: float, **kw) -> DriverOutcome:
        trace.add("terminate", u, grads, f_value=f_z, grad_norm=grad_norm, **kw)
        return DriverOutcome(
            z_final=z,
            status=status,
            trace=trace,
            grads_total=grads,
            final_grad_norm=grad_norm,
            out_of_domain=log.outside(),
        )

    for u in range(1, config.U + 1):
        grads += check_batch
        g = problem.sample_batch_grad(z, check_batch, rng)
        gnorm = math.sqrt(g.dot(g))  # the bits of np.linalg.norm(g), in a third of the time
        trace.add("grad-check", u, grads, f_value=f_z, grad_norm=gnorm)
        if not _is_finite(gnorm, z):
            # a NaN norm fails the threshold test too; without this stop the
            # probe's abstention on NaN products would read as a certificate
            return finish(STATUS_DIVERGED, u, gnorm)
        if gnorm >= threshold:
            epoch = run_epoch(z, problem, config.schedule, rng, log, g if reuse else None)
            grads += epoch.grads_used
            z = epoch.x_out
            f_z = problem.value(z)
            trace.add("epoch", u, grads, f_value=f_z)
        else:
            nc = probe(problem, z, config.eps_H, nc_delta, rng)
            grads += nc.grads_used
            trace.add("nc-probe", u, grads, f_value=f_z, rayleigh=nc.rayleigh_estimate)
            if not math.isfinite(nc.rayleigh_estimate):  # neither abstention nor a certificate
                return finish(STATUS_DIVERGED, u, gnorm)
            if nc.is_bottom:
                return finish(STATUS_CERTIFIED, u, gnorm, rayleigh=nc.rayleigh_estimate)
            z = nc_descent_step(z, nc.direction, config.eta, rng)
            log.extend([z])
            f_z = problem.value(z)
            trace.add("nc-step", u, grads, f_value=f_z)

    final_norm = float(np.linalg.norm(problem.full_grad(z)))  # verification, uncharged
    status = STATUS_EXHAUSTED if _is_finite(final_norm, z) else STATUS_DIVERGED
    return finish(status, config.U, final_norm)

