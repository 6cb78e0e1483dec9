"""Experiment harness: JSON configs, trial orchestration, trace persistence,
a numeric verification suite, and the command-line front end.

Config documents are a single JSON object::

    {
      "problem": {"family": "saddle", "dim": 10, "n": 256, "seed": 7},
      "algorithm": {"smoothness_order": 2, "eps": 1e-3, "eps_H": 0.1,
                    "overrides": {"U": 500}},
      "trials": 4,
      "seed": 12345,
      "out": "results/"
    }

The family fixes the algorithm: the finite-sum families (those that read
``n``) run the finite-sum algorithm, the others the streaming one.  An
``algorithm.mode`` of ``"finite"`` or ``"online"`` may be given but must
match.  Unknown keys are rejected with a field-path diagnostic.  Event
streams are written as CSV with the fixed header
``trial,u,event,grads_cum,f_value,grad_norm,rayleigh,wall_ms`` (empty fields
where a column does not apply, floats in shortest round-trip form) plus one
summary JSON per trial.  The wall_ms column is informational only and is
excluded from determinism comparisons.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import driver as drv
from .driver import DriverConfig, DriverOutcome, classify_point
from .epoch import BallLog, run_epoch
from .problems import (
    FAMILIES,
    FiniteSumProblem,
    Problem,
    check_problem,
    is_number,
    make_regularized_problem,
    make_rng,
    spawn_rngs,
    subsample_variance_report,
)
from .schedule import (
    NestedSchedule,
    check_series_domination,
    clamp_schedule,
    derive_schedule,
    expected_epoch_cost,
)

CSV_HEADER = ("trial", "u", "event", "grads_cum", "f_value", "grad_norm", "rayleigh", "wall_ms")


class ConfigError(ValueError):
    """Raised for malformed experiment configs; message carries the field path."""


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _check_number(path: str, value: object, integer: bool) -> None:
    """Counts take JSON integers, reals any JSON number; booleans are neither."""
    if not is_number(value, integer):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """A config's problem: its ``family``, ``dim``, ``seed`` and ``values``,
    the family's fields (:attr:`~nestvr.problems.Family.fields`), where the
    table's default fills in each field a config leaves out.  A value whose
    key is not one of the family's fields is rejected.  The ``seed``, which
    a factory may also take as a ``SeedSequence``, is checked here; ``dim``
    and the values are checked by :func:`check_problem` alone, whose message
    a ConfigError repeats under the ``problem.`` path."""

    family: str
    dim: int
    seed: int | None = None
    values: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        families = list(FAMILIES)
        if self.family not in families:
            raise ConfigError(f"problem.family: {self.family!r} not one of {families}")
        fields = FAMILIES[self.family].fields
        ignored = sorted(set(self.values) - set(fields))
        if ignored:
            paths = ", ".join(f"problem.{key}" for key in ignored)
            raise ConfigError(f"{paths}: not used by family {self.family!r}")
        object.__setattr__(self, "values", {**fields, **self.values})
        if self.seed is not None:
            _check_number("problem.seed", self.seed, integer=True)
            if self.seed < 0:
                raise ConfigError(f"problem.seed: must be >= 0, got {self.seed}")
        try:
            check_problem(self.family, dim=self.dim, **self.values)
        except ValueError as exc:
            raise ConfigError(f"problem.{exc}") from None


@dataclass(frozen=True)
class AlgorithmSpec:
    """A config's algorithm, checked by :func:`~nestvr.driver.check_algorithm`
    alone, whose message a ConfigError repeats under the ``algorithm.``
    path."""

    smoothness_order: int
    eps: float
    eps_H: float
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            drv.check_algorithm(self.smoothness_order, self.eps, self.eps_H, self.overrides)
        except ValueError as exc:
            raise ConfigError(f"algorithm.{exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    algorithm: AlgorithmSpec
    trials: int
    seed: int
    out: str | None = None

    def __post_init__(self) -> None:
        _check_number("trials", self.trials, integer=True)
        _check_number("seed", self.seed, integer=True)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out: expected a string, got {self.out!r}")
        if self.out == "":  # would write into, and prune, the working directory
            raise ConfigError("out: must be a non-empty path")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


def parse_config(doc: dict) -> ExperimentConfig:
    _require_keys(doc, "config", {"problem", "algorithm", "trials", "seed"}, {"out"})
    p = doc["problem"]
    # any other key is a family's field, or ProblemSpec's error
    _require_keys(p, "problem", {"family", "dim"}, set(p) if isinstance(p, dict) else set())
    family = p["family"]
    values = {key: value for key, value in p.items() if key not in ("family", "dim", "seed")}
    a = doc["algorithm"]
    _require_keys(a, "algorithm", {"smoothness_order", "eps", "eps_H"}, {"mode", "overrides"})
    overrides = a.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("algorithm.overrides: expected an object")
    config = ExperimentConfig(
        problem=ProblemSpec(family, p["dim"], p.get("seed"), values),
        algorithm=AlgorithmSpec(
            smoothness_order=a["smoothness_order"],
            eps=a["eps"],
            eps_H=a["eps_H"],
            overrides=dict(overrides),
        ),
        trials=doc["trials"],
        seed=doc["seed"],
        out=doc.get("out"),
    )
    fam = FAMILIES[family]
    if fam.is_finite_sum and "B0" not in overrides:
        # the derived base batch is n, which must meet B0's minimum
        try:
            drv.check_override("B0", config.problem.values["n"], "problem.n")
        except ValueError as exc:
            raise ConfigError(
                f"{exc}; it is the base batch unless algorithm.overrides.B0 is set"
            ) from None
    mode = "finite" if fam.is_finite_sum else "online"
    given = a.get("mode", mode)
    if given not in ("finite", "online"):
        raise ConfigError(f"algorithm.mode: must be 'finite' or 'online', got {given!r}")
    if given != mode:
        raise ConfigError(f"algorithm.mode: family {family!r} runs in {mode!r} mode, got {given!r}")
    return config


def _read_json(path: str | Path, prefix: str = ""):
    """The JSON document in ``path``; a malformed one, or an object that
    repeats a key, is a ConfigError that names ``prefix`` and the file."""
    def unique_keys(pairs: list) -> dict:  # json.loads keeps a repeated key's last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{prefix}{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{prefix}{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_read_json(path))


def load_point(path: str | Path, dim: int) -> np.ndarray:
    """A point file: a JSON array of ``dim`` finite JSON numbers."""
    doc = _read_json(path, "point: ")
    if not isinstance(doc, list):
        raise ConfigError(f"point: expected an array of {dim} numbers, got {type(doc).__name__}")
    if len(doc) != dim:
        raise ConfigError(f"point: expected {dim} coordinates, got {len(doc)}")
    for i, value in enumerate(doc):
        _check_number(f"point[{i}]", value, integer=False)
    try:
        point = np.asarray(doc, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"point: {exc}") from None
    if not np.isfinite(point).all():
        raise ConfigError("point: coordinates must be finite")
    return point


def build_problem(spec: ProblemSpec, default_seed: int) -> Problem:
    seed = spec.seed if spec.seed is not None else default_seed
    return FAMILIES[spec.family].factory(dim=spec.dim, seed=seed, **spec.values)


# kept by name: perfbench's set-up timing (time_setup) calls it
def build_driver_config(problem: Problem, alg: AlgorithmSpec) -> DriverConfig:
    return drv.configure(
        problem, alg.eps, alg.eps_H, order=alg.smoothness_order, overrides=alg.overrides
    )


@dataclass
class TrialResult:
    trial: int
    outcome: DriverOutcome
    final_lambda_min: float


def run_experiment(config: ExperimentConfig) -> list[TrialResult]:
    """Run all trials sequentially in trial-index order.

    Each trial owns an independent counter-based RNG stream spawned from the
    experiment seed, so results are reproducible and order-independent.
    """
    problem = build_problem(config.problem, config.seed)
    driver_config = build_driver_config(problem, config.algorithm)
    results = []
    for trial, rng in enumerate(spawn_rngs(config.seed, config.trials)):
        outcome = drv.run_driver(problem, driver_config, rng)
        lam = math.nan  # a diverged run's point is not classified, even when finite
        if outcome.status != drv.STATUS_DIVERGED:
            lam = classify_point(
                problem, outcome.z_final, config.algorithm.eps, config.algorithm.eps_H
            ).lambda_min
        results.append(TrialResult(trial=trial, outcome=outcome, final_lambda_min=lam))
    return results


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _json_float(value: float) -> float | None:
    """JSON has no NaN or infinity; such values are written as null."""
    return value if math.isfinite(value) else None


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``: readers see the old file or the whole new one, never part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace(results: list[TrialResult], out_dir: str | Path) -> Path:
    """Persist an experiment: one events CSV plus a strict-JSON summary per trial.

    Each file is written atomically, so an interrupted write leaves the
    previous file in place.  Once every new file is in place, the summaries
    of trials that ``results`` does not hold, left by an earlier run into the
    same directory, are deleted.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        events = io.StringIO()
        writer = csv.writer(events)
        writer.writerow(CSV_HEADER)
        for res in results:
            for ev in res.outcome.trace.events:
                writer.writerow(
                    [
                        res.trial,
                        ev.u,
                        ev.kind,
                        ev.grads_cum,
                        _fmt(ev.f_value),
                        _fmt(ev.grad_norm),
                        _fmt(ev.rayleigh),
                        _fmt(ev.wall_ms),
                    ]
                )
        events_path = out / "events.csv"
        _replace_file(events_path, events.getvalue())
        for res in results:
            summary = {
                "status": res.outcome.status,
                "grads_total": res.outcome.grads_total,
                "final_grad_norm": _json_float(res.outcome.final_grad_norm),
                "final_lambda_min": _json_float(res.final_lambda_min),
            }
            text = json.dumps(summary, indent=2, allow_nan=False) + "\n"
            _replace_file(out / f"summary_{res.trial:03d}.json", text)
        trials = {res.trial for res in results}
        for path in out.glob("summary_*.json"):
            match = re.fullmatch(r"summary_([0-9]+)\.json", path.name)
            if match and int(match[1]) not in trials:
                path.unlink(missing_ok=True)
    except OSError as exc:
        raise OSError(f"writing traces under {out}: {exc}") from exc
    return events_path


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def verify_schedule_identities() -> SuiteResult:
    """Exact integer identities of the canonical schedule family."""
    for B0 in (4, 16, 256, 65536):
        sch = derive_schedule(B0, M=6.0)
        that = sch.loop_product
        if that * that != B0:
            return SuiteResult("schedule", False, f"B0={B0}: loop product {that} != sqrt(B0)")
        for l in range(1, sch.K + 1):
            prefix = math.prod(sch.T[:l])
            want = 2 * 6**sch.K * B0 if l == 1 else 6 ** (sch.K - l + 1) * B0
            if sch.B[l - 1] * prefix != want:
                return SuiteResult(
                    "schedule", False, f"B0={B0}, level {l}: batch-product identity failed"
                )
        cost = expected_epoch_cost(sch)
        bound = 7 * B0 * (B0.bit_length() - 1) ** 3
        if cost > bound:
            return SuiteResult("schedule", False, f"B0={B0}: cost {cost} exceeds bound {bound}")
    return SuiteResult("schedule", True, "identities hold for B0 in {4,16,256,65536}")


def _geometric_tail_sides(p: float, a: np.ndarray, slack: float) -> tuple[float, float]:
    """(1-p)/p E a(G) and E b(G) for G ~ Geom(p), P(G = k) = p q^k with
    q = 1 - p, where a(k) is 0 past its support and b(k) = a(0) + ... +
    a(k-1) + slack.  b is constant past the support, so the tail
    sum_{k >= support} p q^k b(k) is exactly q^support b(support)."""
    q = 1.0 - p
    support = len(a)
    b = np.concatenate(([0.0], np.cumsum(a))) + slack  # b(0) .. b(support)
    lhs = q / p * sum(p * q**k * float(a[k]) for k in range(support))
    rhs = sum(p * q**k * float(b[k]) for k in range(support)) + q**support * float(b[-1])
    return lhs, rhs


def verify_geometric_tail_inequality(rng: np.random.Generator) -> SuiteResult:
    """For 100 random nonnegative series a of finite support, with partial
    sums dominated by b, check (1-p)/p * E a(G) <= E b(G) for G geometric,
    each side in closed form (:func:`_geometric_tail_sides`)."""
    cases = 100
    worst = math.inf
    for _ in range(cases):
        p = float(rng.uniform(0.05, 0.95))
        support = int(rng.integers(1, 30))
        a = rng.uniform(0.0, 2.0, size=support)
        slack = float(rng.uniform(0.0, 1.0)) * float(rng.integers(0, 2))
        lhs, rhs = _geometric_tail_sides(p, a, slack)
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -1e-12 * max(1.0, rhs):
            return SuiteResult(
                "geom-tail", False, f"violated by {-margin:.3e} at p={p:.3f}"
            )
    return SuiteResult("geom-tail", True, f"{cases} cases, worst margin {worst:.3e}")


def verify_subsample_variance(rng: np.random.Generator) -> SuiteResult:
    """Monte-Carlo check of the without-replacement subsampling variance bound
    on 50 random families, 10^5 subsample draws each."""
    families, draws = 50, 10**5
    worst_ratio = 0.0
    for _ in range(families):
        N = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 7))
        a = rng.standard_normal((N, dim)) * float(rng.uniform(0.2, 3.0))
        a -= a.mean(axis=0)
        m = int(rng.integers(1, N + 1))
        estimate, bound = subsample_variance_report(a, m, draws, rng)
        if m == N:  # the full subset's mean is zero: nothing to bound
            continue
        if estimate > bound * 1.05:
            return SuiteResult(
                "subsample-variance",
                False,
                f"N={N}, m={m}: estimate {estimate:.4g} above 1.05 * bound {bound:.4g}",
            )
        worst_ratio = max(worst_ratio, estimate / bound if bound > 0 else 0.0)
    return SuiteResult(
        "subsample-variance", True, f"{families} families, worst estimate/bound {worst_ratio:.3f}"
    )


def verify_series_domination() -> SuiteResult:
    """Damping-series ordering on canonical schedules with M = 6 L."""
    for B0 in (4, 16, 256, 65536):
        report = check_series_domination(derive_schedule(B0, M=6.0), L=1.0)
        if not (report.applicable and report.passed):
            return SuiteResult(
                "series-domination", False, f"B0={B0}: margin {report.margin:.3e}"
            )
    return SuiteResult("series-domination", True, "strict domination on canonical schedules")


def verify_epoch_decrease(
    problem: FiniteSumProblem, schedule: NestedSchedule, rng: np.random.Generator
) -> SuiteResult:
    """Monte-Carlo check of the per-epoch gradient-norm decrease inequality.

    Over 200 independent epochs from x0, the mean of |grad F(x_T)|^2 must stay
    below 100 * [ (M / sqrt(B0)) * mean(F(x0) - F(x_T))
                  + (2 sigma^2 / B0) * 1{B0 < n} ]
    within a 3-standard-error allowance, and the mean gradient tally must stay
    below 7 B0 log2(B0)^3.
    """
    s = problem.smoothness
    if schedule.M < 6.0 * s.L1:
        raise ValueError("epoch-decrease check needs M >= 6 L1")
    trials = 200
    x0 = problem.x0
    f0 = problem.value(x0)
    indicator = 1.0 if schedule.B0 < problem.n else 0.0
    lhs = np.empty(trials)
    rhs = np.empty(trials)
    counts = np.empty(trials)
    log = BallLog(problem)  # its flag is not this check's concern
    for i in range(trials):
        res = run_epoch(x0, problem, schedule, rng, log, None)
        g = problem.full_grad(res.x_out)
        lhs[i] = float(g @ g)
        decrease = f0 - problem.value(res.x_out)
        rhs[i] = 100.0 * (
            schedule.M / math.sqrt(schedule.B0) * decrease
            + 2.0 * s.sigma2 / schedule.B0 * indicator
        )
        counts[i] = res.grads_used
    diff = rhs - lhs
    allowance = 3.0 * float(diff.std(ddof=1)) / math.sqrt(trials)
    cost_bound = 7.0 * schedule.B0 * math.log2(schedule.B0) ** 3
    cost = float(counts.mean())
    detail = (
        f"lhs {lhs.mean():.4g} vs rhs {rhs.mean():.4g} (+/- {allowance:.2g}), "
        f"mean cost {cost:.0f} <= {cost_bound:.0f}"
    )
    passed = float(diff.mean()) >= -allowance and cost <= cost_bound
    return SuiteResult("epoch-decrease", passed, detail)


def _epoch_decrease_suite(rng: np.random.Generator) -> SuiteResult:
    problem = make_regularized_problem(dim=50, n=1000, seed=20240105)
    schedule = clamp_schedule(derive_schedule(256, M=6.0 * problem.smoothness.L1), problem.n)
    return verify_epoch_decrease(problem, schedule, rng)


#: each suite by name, called with the generator the suites of one run share
SUITES: dict[str, Callable[[np.random.Generator], SuiteResult]] = {
    "schedule": lambda rng: verify_schedule_identities(),
    "geom-tail": verify_geometric_tail_inequality,
    "subsample-variance": verify_subsample_variance,
    "series-domination": lambda rng: verify_series_domination(),
    "epoch-decrease": _epoch_decrease_suite,
}


def run_verify_suite(names: list[str], seed: int) -> list[SuiteResult]:
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown verify suite {name!r}; choose from {list(SUITES)}")
    rng = make_rng(seed)
    return [SUITES[name](rng) for name in names]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestvr",
        description="Nested variance-reduction optimizer harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("derive-schedule", help="print the canonical schedule as JSON")
    p_sched.add_argument("--b0", type=int, required=True, help="base batch size (>= 4)")

    p_run = sub.add_parser("run", help="execute an experiment config and write traces")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the config output directory")

    p_verify = sub.add_parser("verify", help="run the numeric verification suite")
    p_verify.add_argument("--suite", default="all", help=f"one of {list(SUITES)} or 'all'")
    p_verify.add_argument("--seed", type=int, default=0)

    p_classify = sub.add_parser("classify", help="second-order stationarity of a point")
    p_classify.add_argument("--config", required=True, help="experiment config (problem part used)")
    p_classify.add_argument("--point", required=True, help="JSON file with the point coordinates")
    p_classify.add_argument("--eps", type=float, default=None)
    p_classify.add_argument("--eps-H", dest="eps_H", type=float, default=None)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        if args.command == "derive-schedule":
            sched = derive_schedule(args.b0, M=6.0)
            print(json.dumps(sched.as_dict(), indent=2))
            return 0

        if args.command == "run":
            config = load_config(args.config)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            if args.out == "":
                raise ConfigError("--out: must be a non-empty path")
            out_dir = args.out or config.out
            if out_dir is None:
                raise ConfigError("no output directory: set 'out' in the config or pass --out")
            results = run_experiment(config)
            path = write_trace(results, out_dir)
            statuses = [r.outcome.status for r in results]
            diverged = statuses.count(drv.STATUS_DIVERGED)
            tally = f"{statuses.count(drv.STATUS_CERTIFIED)} certified"
            tally += f", {diverged} diverged" if diverged else ""
            print(f"{len(results)} trials ({tally}) -> {path}")
            return 0

        if args.command == "verify":
            if args.seed < 0:
                raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
            names = list(SUITES) if args.suite == "all" else [args.suite]
            results = run_verify_suite(names, args.seed)
            width = max(len(r.name) for r in results)
            for r in results:
                print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
            return 0 if all(r.passed for r in results) else 2

        if args.command == "classify":
            config = load_config(args.config)
            problem = build_problem(config.problem, config.seed)
            point = load_point(args.point, problem.dim)
            for flag, value in (("--eps", args.eps), ("--eps-H", args.eps_H)):
                if value is not None and not 0.0 < value < 1.0:  # NaN fails too
                    raise ConfigError(f"{flag}: must lie in (0, 1), got {value}")
            eps = args.eps if args.eps is not None else config.algorithm.eps
            eps_H = args.eps_H if args.eps_H is not None else config.algorithm.eps_H
            cls = classify_point(problem, point, eps, eps_H)
            doc = {k: _json_float(v) if isinstance(v, float) else v for k, v in asdict(cls).items()}
            print(json.dumps(doc, indent=2, allow_nan=False))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
