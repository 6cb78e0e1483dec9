"""In-memory span recorder that wraps nestvr's public call sites from outside.

Each wrapped call appends one span: name, start, end, parent span, trial id
and two integers of work taken from its arguments or its result.  Spans are
kept in flat arrays while the benchmark runs and summarised afterwards into
per-layer metrics; nothing under ``src/`` is changed.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
import time

import numpy as np

# Call sites wrapped, as (module, attribute, span name).  Each is looked up
# through the module global at call time, so replacing the global is enough.
# build_problem is wrapped so that the instance it returns is traced too.
MODULE_SITES = (
    ("harness", "build_problem", "harness.build_problem"),
    ("harness", "classify_point", "harness.classify_point"),
    ("driver", "run_driver", "driver.run_driver"),
    ("driver", "run_epoch", "epoch.run_epoch"),
    ("driver", "find_nc_direction_finite", "ncfinder.find_nc_direction"),
    ("driver", "find_nc_direction_online", "ncfinder.find_nc_direction"),
    ("epoch", "sample_indices_without_replacement", "problems.sample"),
    ("ncfinder", "hvp_estimate", "ncfinder.hvp_estimate"),
)

# Oracle methods wrapped on the instance build_problem returns, with the
# position of their batch argument (None: the call covers the population).
FINITE_ORACLE = {"batch_grad": 1, "batch_grad_diff": 2, "full_grad": None}
STREAMING_ORACLE = {"sample_batch_grad": 1, "sample_batch_grad_diff": 2, "full_grad": None}
TWO_POINT = ("problems.oracle.batch_grad_diff", "problems.oracle.sample_batch_grad_diff")


def _batch_size(batch) -> int:
    return int(np.size(batch)) if isinstance(batch, np.ndarray) else int(batch)


def _work(name: str, args: tuple, out) -> tuple[int, int]:
    """Two integers describing the work of one call (see ``summarise``)."""
    if name == "driver.run_driver":
        return out.grads_total, int(out.status == "certified-SOSP")
    if name == "epoch.run_epoch":
        return out.grads_used, out.T
    if name == "ncfinder.find_nc_direction":
        return out.grads_used, int(out.direction is not None)
    if name == "problems.sample":
        return int(args[1]), int(args[0])
    if name == "ncfinder.hvp_estimate":
        return _batch_size(args[4]), 0
    return 0, 0


class Recorder:
    """Spans in flat arrays, plus the wrapping that produces them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.code = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work_a = array("q")
        self.work_b = array("q")
        self._stack = [-1]
        self._trial = -1

    def _name_code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, code: int) -> int:
        i = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.trial.append(self._trial)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.work_a.append(0)
        self.work_b.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        i = self._open(self._name_code(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, work=None):
        code = self._name_code(name)
        is_trial = name == "driver.run_driver"

        def wrapper(*args, **kwargs):
            if is_trial:
                self._trial += 1
            i = self._open(code)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if work is not None:
                self.work_a[i], self.work_b[i] = work(args, out)
            return out

        return wrapper

    def _wrap_problem(self, problem, patched: list) -> None:
        methods = FINITE_ORACLE if problem.is_finite_sum else STREAMING_ORACLE
        n = problem.n or 0
        for attr, pos in methods.items():
            if pos is None:
                work = lambda args, out, n=n: (n, 0)  # noqa: E731
            else:
                work = lambda args, out, pos=pos: (_batch_size(args[pos]), 0)  # noqa: E731
            setattr(problem, attr, self.wrap(f"problems.oracle.{attr}", getattr(problem, attr), work))
            patched.append((problem, attr, None))
        problem.value = self.wrap("problems.value", problem.value)
        patched.append((problem, "value", None))

    @contextmanager
    def installed(self, nestvr_modules: dict):
        """Wrap every call site for the duration of the block, then restore."""
        patched: list[tuple[object, str, object]] = []
        try:
            for mod_name, attr, name in MODULE_SITES:
                mod = nestvr_modules[mod_name]
                original = getattr(mod, attr)
                if attr == "build_problem":
                    wrapped = self._traced_build_problem(original, patched)
                else:
                    wrapped = self.wrap(name, original, lambda a, o, name=name: _work(name, a, o))
                setattr(mod, attr, wrapped)
                patched.append((mod, attr, original))
            yield self
        finally:
            for obj, attr, original in reversed(patched):
                if original is None:
                    delattr(obj, attr)  # instance attribute shadowing the class method
                else:
                    setattr(obj, attr, original)

    def _traced_build_problem(self, build_problem, patched: list):
        traced = self.wrap("harness.build_problem", build_problem)

        def build(*args, **kwargs):
            problem = traced(*args, **kwargs)
            self._wrap_problem(problem, patched)
            return problem

        return build

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work_a": np.frombuffer(self.work_a, dtype=np.int64).copy(),
            "work_b": np.frombuffer(self.work_b, dtype=np.int64).copy(),
        }


def summarise(spans: dict[str, np.ndarray], *, n: int | None, dim: int, trials: list[dict]):
    """Per-layer metrics and the per-trial gradient ledger.

    Counts, bytes and self times are means per traced trial, so they do not
    grow with the number of trials a run completes.  ``trials`` holds, per traced trial in span-trial-id order, its status,
    grads_total, outer iterations and NC steps.  Work columns: run_driver
    (grads_total, certified), run_epoch (grads charged, steps), finder
    (grads, found), sample (m, population), hvp (batch), oracle (batch, 0),
    where a ``full_grad`` batch is the population n.  Oracle calls made by
    ``classify_point`` are exact verification and count as harness time.
    The sampling layer is the index draws; draws inside an oracle (the
    streaming oracle's batch noise) are that oracle's self time.
    """
    names = [str(s) for s in spans["names"]]
    code, parent, trial = spans["code"], spans["parent"], spans["trial"]
    a, b = spans["work_a"], spans["work_b"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child_time
    parent_code = np.where(has_parent, code[np.maximum(parent, 0)], -1)

    def codes(pred) -> np.ndarray:
        return np.array([i for i, s in enumerate(names) if pred(s)], dtype=np.int32)

    def sel(label: str) -> np.ndarray:
        return np.isin(code, codes(lambda s: s == label))

    def parent_is(label: str) -> np.ndarray:
        return np.isin(parent_code, codes(lambda s: s == label))

    oracle_any = np.isin(code, codes(lambda s: s.startswith("problems.oracle.")))
    verification = oracle_any & parent_is("harness.classify_point")
    oracle = oracle_any & ~verification
    charge = np.where(np.isin(code, codes(lambda s: s in TWO_POINT)), 2 * a, a)
    finite_call = oracle & ~np.isin(code, codes(lambda s: s.startswith("problems.oracle.sample_")))

    driver, epoch = sel("driver.run_driver"), sel("epoch.run_epoch")
    finder, hvp = sel("ncfinder.find_nc_direction"), sel("ncfinder.hvp_estimate")
    index_draw, value = sel("problems.sample"), sel("problems.value")
    harness = np.isin(code, codes(lambda s: s.startswith("harness."))) | verification

    layer_self = {
        "problems.oracle": float(self_s[oracle].sum()),
        "problems.sample": float(self_s[index_draw].sum()),
        "problems.value": float(self_s[value].sum()),
        "epoch": float(self_s[epoch].sum()),
        "ncfinder": float(self_s[finder | hvp].sum()),
        "driver": float(self_s[driver].sum()),
        "harness": float(self_s[harness].sum()),
    }
    total_time = float(dur[~has_parent].sum())

    def per_trial(mask: np.ndarray, weights: np.ndarray) -> np.ndarray:
        out = np.zeros(len(trials), dtype=np.int64)  # integer sums: the ledger must be exact
        np.add.at(out, trial[mask], weights[mask])
        return out

    epoch_charged = per_trial(epoch, a)
    nc_charged = per_trial(finder, a)
    check_charged = per_trial(oracle & parent_is("driver.run_driver"), charge)
    evaluated = per_trial(oracle, charge)
    epoch_evaluated = int(per_trial(oracle & parent_is("epoch.run_epoch"), charge).sum())
    ledger = []
    for t, info in enumerate(trials):
        # an exhausted finite-sum run ends with one uncharged exact gradient
        verify = n if (info["status"] != "certified-SOSP" and n is not None) else 0
        parts = {
            "epoch": int(epoch_charged[t]),
            "ncfinder": int(nc_charged[t]),
            "check": int(check_charged[t]) - verify,
        }
        ledger.append(
            {
                "trial": t,
                **parts,
                "charged": info["grads_total"],
                "evaluated": int(evaluated[t]) - verify,
                "reconciles": sum(parts.values()) == info["grads_total"],
            }
        )

    def frac(x, y) -> float:
        return x / y if y else 0.0

    def per_trial(x) -> float:
        return x / len(trials)

    grads_total = sum(info["grads_total"] for info in trials)
    epoch_grads = int(epoch_charged.sum())
    nc_grads = int(nc_charged.sum())
    check_grads = sum(row["check"] for row in ledger)
    probes = int(finder.sum())
    steps = int(b[epoch].sum())
    rows = int(a[finite_call].sum())
    index_draws = int(index_draw.sum())
    metrics = {
        "problems.oracle.calls": per_trial(int(oracle.sum())),
        "problems.oracle.self_s": per_trial(layer_self["problems.oracle"]),
        "problems.oracle.rows": per_trial(rows),
        "problems.oracle.bytes_computed": per_trial(rows * dim * 8),
        "problems.oracle.full_pop_frac": frac(int((finite_call & (a == (n or -1))).sum()), int(finite_call.sum())),
        "problems.sample.calls": per_trial(index_draws),
        "problems.sample.self_s": per_trial(layer_self["problems.sample"]),
        "problems.sample.full_pop_frac": frac(int((index_draw & (a == b)).sum()), index_draws),
        "problems.value.calls": per_trial(int(value.sum())),
        "problems.value.self_s": per_trial(layer_self["problems.value"]),
        "epoch.calls": per_trial(int(epoch.sum())),
        "epoch.steps": per_trial(steps),
        "epoch.self_s": per_trial(layer_self["epoch"]),
        "epoch.us_per_step": frac(float(dur[epoch].sum()), steps) * 1e6,
        "epoch.grads_charged": per_trial(epoch_grads),
        "epoch.grads_evaluated": per_trial(epoch_evaluated),
        "epoch.evaluated_frac": frac(epoch_evaluated, epoch_grads),
        "ncfinder.probes": per_trial(probes),
        "ncfinder.self_s": per_trial(layer_self["ncfinder"]),
        "ncfinder.hvp_calls": per_trial(int(hvp.sum())),
        "ncfinder.grads": per_trial(nc_grads),
        "ncfinder.found_frac": frac(int(b[finder].sum()), probes),
        "ncfinder.abstain_grads": per_trial(int(a[finder & (b == 0)].sum())),
        "driver.outer_iters": per_trial(sum(info["outer_iters"] for info in trials)),
        "driver.check_grads": per_trial(check_grads),
        "driver.nc_steps": per_trial(sum(info["nc_steps"] for info in trials)),
        "driver.self_s": per_trial(layer_self["driver"]),
        "harness.classify_s": per_trial(float(dur[sel("harness.classify_point")].sum())),
        "harness.write_s": per_trial(float(dur[sel("harness.write_trace")].sum())),
        "share.grads.epoch": frac(epoch_grads, grads_total),
        "share.grads.ncfinder": frac(nc_grads, grads_total),
        "share.grads.check": frac(check_grads, grads_total),
    }
    for layer, seconds in layer_self.items():
        metrics[f"share.time.{layer}"] = frac(seconds, total_time)
    return metrics, ledger
