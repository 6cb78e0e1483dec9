"""Outer driver: variance-reduced descent until the gradient is small, then a
negative-curvature probe that either certifies a second-order stationary point
or takes a Rademacher-signed escape step.

Configuration builders derive every budget (failure probability, outer
iteration cap, escape step size, base batch size, inner step parameter) from
the smoothness constants, in both second- and third-order-smooth flavors and
for both finite-sum and streaming oracles.  The derived values are often
astronomical by design; desk-scale runs override them while the originally
derived numbers stay recorded on the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import numbers
import time

import numpy as np

from .epoch import run_epoch
from .ncfinder import (
    NCQuery,
    find_nc_direction_finite,
    find_nc_direction_online,
)
from .problems import (
    Array,
    FiniteSumProblem,
    GradCounter,
    Problem,
    StreamingProblem,
)
from .schedule import NestedSchedule, clamp_schedule, derive_schedule

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
            raise ValueError("gradient counter went backwards")
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
    B0_check: int
    schedule: NestedSchedule
    rho: float | None = None
    #: originally derived values for any field replaced by an override
    derived: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0 and 0.0 < self.eps_H < 1.0):
            raise ValueError("eps and eps_H must lie in (0, 1)")
        if self.U < 1:
            raise ValueError(f"U must be >= 1, got {self.U}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")


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
    """Exact second-order stationarity check via the verification oracles.

    Uses a dense symmetric eigendecomposition; never charges the gradient
    counter.
    """
    z = np.asarray(z, dtype=float)
    gnorm = float(np.linalg.norm(problem.full_grad(z)))
    lam = float(np.linalg.eigvalsh(problem.hessian(z)).min())
    return PointClassification(
        gradient_norm=gnorm, lambda_min=lam, is_sosp=(gnorm <= eps and lam >= -eps_H)
    )


def subgaussian_check_batch(sigma2: float, radius: float, delta: float) -> int:
    """Sample size making a subsampled gradient ``radius``-accurate w.p. 1 - delta.

    2 sigma^2 / radius^2 * (1 + sqrt(log2(1/delta)))^2, the sub-Gaussian
    concentration sizing used for the online gradient test.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(2.0 * sigma2 / radius**2 * (1.0 + math.sqrt(math.log2(1.0 / delta))) ** 2)


def check_override(key: str, value: object, path: str | None = None) -> int | float:
    """``value`` as override ``key``'s type, or a ValueError that names
    ``path`` (default ``overrides.<key>``).  Booleans and non-numbers are
    refused, counts must be integers at or above their minimum (``B0 >= 4``,
    ``U >= 1``), and reals positive and finite."""
    path = path or f"overrides.{key}"
    integer = OVERRIDE_KEYS[key] is int
    kinds = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{path}: expected {kind}, got {value!r}")
    if integer:
        if value < _OVERRIDE_MIN[key]:
            raise ValueError(f"{path}: must be >= {_OVERRIDE_MIN[key]}, got {value}")
        return int(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{path}: must be positive and finite, got {value}")
    return float(value)


def _ceil_at_least_one(x: float) -> int:
    return max(1, math.ceil(x))


def _make_config(
    problem: Problem,
    eps: float,
    eps_H: float,
    overrides: dict | None,
    *,
    delta: float,
    U: int,
    eta: float,
    B0: int,
    M: float,
    rho: float | None = None,
) -> DriverConfig:
    """Apply overrides to derived values, clamp the schedule and build the config.

    Every replaced value is recorded in ``derived``.  The schedule is clamped
    at ``problem.n``, a no-op for streaming problems.  The gradient test's
    batch is the population ``n`` on a finite sum, else the base batch.
    """
    values: dict[str, float] = {"B0": B0, "U": U, "M": M, "eta": eta}
    derived: dict[str, float] = {}
    if overrides:
        unknown = set(overrides) - set(OVERRIDE_KEYS)
        if unknown:
            raise ValueError(f"unknown override keys: {sorted(unknown)}")
        for key in OVERRIDE_KEYS:
            if key in overrides:
                derived[key] = values[key]
                values[key] = check_override(key, overrides[key])
    schedule = clamp_schedule(derive_schedule(values["B0"], values["M"]), problem.n)
    return DriverConfig(
        eps=eps,
        eps_H=eps_H,
        U=values["U"],
        eta=values["eta"],
        delta=delta,
        B0_check=problem.n or schedule.B0,
        schedule=schedule,
        rho=rho,
        derived=derived,
    )


def config_finite_2nd(
    problem: FiniteSumProblem, eps: float, eps_H: float, overrides: dict | None = None
) -> DriverConfig:
    """Second-order-smooth finite-sum configuration.

    delta = eps_H^3 / (144 L2^2 dF), U = 24 L2^2 dF eps_H^-3
    + 1800 L1 dF eps^-2 n^-1/2 (rounded up), B0 = n, M = 6 L1,
    eta = eps_H / L2.
    """
    s = problem.smoothness
    n = problem.n
    delta = eps_H**3 / (144.0 * s.L2**2 * s.delta_F)
    U = _ceil_at_least_one(
        24.0 * s.L2**2 * s.delta_F / eps_H**3 + 1800.0 * s.L1 * s.delta_F / (eps**2 * math.sqrt(n))
    )
    eta = eps_H / s.L2
    return _make_config(
        problem, eps, eps_H, overrides, delta=delta, U=U, eta=eta, B0=n, M=6.0 * s.L1,
    )


def config_finite_3rd(
    problem: FiniteSumProblem, eps: float, eps_H: float, overrides: dict | None = None
) -> DriverConfig:
    """Third-order-smooth finite-sum configuration.

    delta = eps_H^2 / (72 L3 dF), U = 12 L3 dF eps_H^-2
    + 1800 C L1 dF eps^-2 n^-1/2 with C = 600, eta = sqrt(3 eps_H / L3);
    the larger step is what the extra smoothness buys.
    """
    s = problem.smoothness
    if s.L3 is None:
        raise ValueError("third-order configuration needs the problem's L3 constant")
    n = problem.n
    C = 600.0
    delta = eps_H**2 / (72.0 * s.L3 * s.delta_F)
    U = _ceil_at_least_one(
        12.0 * s.L3 * s.delta_F / eps_H**2
        + 1800.0 * C * s.L1 * s.delta_F / (eps**2 * math.sqrt(n))
    )
    eta = math.sqrt(3.0 * eps_H / s.L3)
    return _make_config(
        problem, eps, eps_H, overrides, delta=delta, U=U, eta=eta, B0=n, M=6.0 * s.L1,
    )


def _online_base_batch(sigma2: float, eps: float, inner_max: float, delta_F: float, L1: float) -> int:
    """Base batch size for streaming configurations.

    sigma^2 eps^-2 * max{ 64 (1 + log2[2500 C1 inner_max dF L1 eps^-2]), 96 C1 }
    with C1 = 200 and ``inner_max`` the curvature-dependent factor of the
    calling configuration.
    """
    C1 = 200.0
    log_arg = 2500.0 * C1 * inner_max * delta_F * L1 / eps**2
    branch = max(64.0 * (1.0 + math.log2(log_arg)), 96.0 * C1)
    # nesting needs B0 >= 4 even when sigma^2 eps^-2 is degenerately small
    return max(4, _ceil_at_least_one(sigma2 / eps**2 * branch))


def config_online_2nd(
    problem: StreamingProblem, eps: float, eps_H: float, overrides: dict | None = None
) -> DriverConfig:
    """Second-order-smooth streaming configuration.

    rho = max{54 sigma^2 L2^2 / (L1 eps_H^3 sqrt(B0)), 6}, M = 2 rho L1,
    delta = 1 / (3000 dF L2^2 eps_H^-3),
    U = 216 dF L2^2 eps_H^-3 + 96 C1 rho dF L1 eps^-2 / sqrt(B0),
    eta = eps_H / L2.  The gradient test uses a fresh batch of size B0.
    """
    s = problem.smoothness
    C1 = 200.0
    inner_max = max(54.0 * s.sigma2 * s.L2**2 / (s.L1 * eps_H**3), 6.0)
    B0 = _online_base_batch(s.sigma2, eps, inner_max, s.delta_F, s.L1)
    rho = max(54.0 * s.sigma2 * s.L2**2 / (s.L1 * eps_H**3 * math.sqrt(B0)), 6.0)
    delta = 1.0 / (3000.0 * s.delta_F * s.L2**2 / eps_H**3)
    U = _ceil_at_least_one(
        216.0 * s.delta_F * s.L2**2 / eps_H**3
        + 96.0 * C1 * rho * s.delta_F * s.L1 / (math.sqrt(B0) * eps**2)
    )
    eta = eps_H / s.L2
    M = 2.0 * rho * s.L1
    return _make_config(
        problem, eps, eps_H, overrides, delta=delta, U=U, eta=eta, B0=B0, M=M, rho=rho,
    )


def config_online_3rd(
    problem: StreamingProblem,
    eps: float,
    eps_H: float,
    overrides: dict | None = None,
) -> DriverConfig:
    """Third-order-smooth streaming configuration.

    rho = max{36 sigma^2 L3 / (L1 eps_H^2 sqrt(B0)), 6}, M = 2 rho L1,
    delta = 1 / (1000 dF L3 eps_H^-2),
    U = 72 dF L3 eps_H^-2 + 96 C1 rho dF L1 eps^-2 / sqrt(B0),
    eta = sqrt(eps_H / L3).
    """
    s = problem.smoothness
    if s.L3 is None:
        raise ValueError("third-order configuration needs the problem's L3 constant")
    C1 = 200.0
    inner_max = max(36.0 * s.sigma2 * s.L3 / (s.L1 * eps_H**2), 6.0)
    B0 = _online_base_batch(s.sigma2, eps, inner_max, s.delta_F, s.L1)
    rho = max(36.0 * s.sigma2 * s.L3 / (s.L1 * eps_H**2 * math.sqrt(B0)), 6.0)
    delta = 1.0 / (1000.0 * s.delta_F * s.L3 / eps_H**2)
    U = _ceil_at_least_one(
        72.0 * s.delta_F * s.L3 / eps_H**2
        + 96.0 * C1 * rho * s.delta_F * s.L1 / (math.sqrt(B0) * eps**2)
    )
    eta = math.sqrt(eps_H / s.L3)
    M = 2.0 * rho * s.L1
    return _make_config(
        problem, eps, eps_H, overrides, delta=delta, U=U, eta=eta, B0=B0, M=M, rho=rho,
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

    The gradient test is a batch of ``B0_check`` samples, against eps on a
    finite sum (whose batch is the population) and eps / 2 on a stream; the
    oracle family also picks the finder.  A non-finite measured gradient or
    iterate ends the run as diverged.
    """
    finite = problem.is_finite_sum
    counter = GradCounter()
    trace = RunTrace()
    s = problem.smoothness
    threshold = config.eps if finite else config.eps / 2.0
    probe = find_nc_direction_finite if finite else find_nc_direction_online
    # the derived per-call failure probability can degenerate in both
    # directions (tiny at theory scale, above 1 when L2 or L3 is nearly zero);
    # clamp it to a usable probability before handing it to the finder
    nc_delta = min(max(config.delta, DELTA_FLOOR), 0.5)
    z = np.asarray(problem.x0, dtype=float).copy()
    out_of_domain = False

    def finish(status: str, u: int, grad_norm: float, **kw) -> DriverOutcome:
        trace.add(
            "terminate", u, counter.count, f_value=problem.value(z), grad_norm=grad_norm, **kw
        )
        return DriverOutcome(
            z_final=z,
            status=status,
            trace=trace,
            grads_total=counter.count,
            final_grad_norm=grad_norm,
            out_of_domain=out_of_domain,
        )

    for u in range(1, config.U + 1):
        counter.add(config.B0_check)
        g = problem.sample_batch_grad(z, config.B0_check, rng)
        gnorm = float(np.linalg.norm(g))
        trace.add(
            "grad-check", u, counter.count, f_value=problem.value(z), grad_norm=gnorm
        )
        if not _is_finite(gnorm, z):
            # a NaN norm fails the threshold test too; without this stop the
            # probe's abstention on NaN products would read as a certificate
            return finish(STATUS_DIVERGED, u, gnorm)
        if gnorm >= threshold:
            res = run_epoch(z, problem, config.schedule, rng, counter)
            z = res.x_out
            out_of_domain = out_of_domain or res.out_of_domain
            trace.add("epoch", u, counter.count, f_value=problem.value(z))
        else:
            query = NCQuery(z=z, eps_H=config.eps_H, delta=nc_delta, L1=s.L1, L2=s.L2)
            nc = probe(problem, query, rng, counter)
            trace.add(
                "nc-probe", u, counter.count, f_value=problem.value(z),
                rayleigh=nc.rayleigh_estimate,
            )
            if nc.is_bottom:
                return finish(STATUS_CERTIFIED, u, gnorm, rayleigh=nc.rayleigh_estimate)
            z = nc_descent_step(z, nc.direction, config.eta, rng)
            trace.add("nc-step", u, counter.count, f_value=problem.value(z))

    final_norm = float(np.linalg.norm(problem.full_grad(z)))  # verification, uncharged
    status = STATUS_EXHAUSTED if _is_finite(final_norm, z) else STATUS_DIVERGED
    return finish(status, config.U, final_norm)

