"""The traced benchmark (perfbench/spans.py) wraps nestvr call sites by name and
reads batch sizes by argument position, and every benchmark run times its
workload's set-up (perfbench/workload.py); these tests pin those sites, run
that set-up and check that a traced run's gradient ledger reconciles on every
family, so a refactor that would break the benchmark fails here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path
import sys

import numpy as np
import pytest

from nestvr import harness, ncfinder
from nestvr.harness import FAMILIES, build_problem, parse_config
from test_trace_identity import RUNS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str, **imports):
    """perfbench/<name>.py as a module, compiled in memory so that nothing is
    written beside it.  For the exec alone, the module is registered under
    its own name, which its dataclasses look up, and each of ``imports``
    under its name, by which the module imports it as a sibling file."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    imports[spec.name] = module
    saved = {key: sys.modules[key] for key in imports if key in sys.modules}
    sys.modules.update(imports)
    try:
        exec(spec.loader.source_to_code(path.read_bytes(), str(path)), module.__dict__)
    finally:
        for key in imports:
            del sys.modules[key]
        sys.modules.update(saved)
    return module


spans = load_perfbench("spans")
workload = load_perfbench("workload", spans=spans)


@pytest.mark.parametrize("module,attr,name", spans.MODULE_SITES)
def test_module_site_exists(module, attr, name):
    assert callable(getattr(importlib.import_module(f"nestvr.{module}"), attr))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_oracle_batch_positions(family):
    problem_doc = {"family": family, "dim": 2}
    if FAMILIES[family].is_finite_sum:
        problem_doc["n"] = 4
    cfg = parse_config(
        {
            "problem": problem_doc,
            "algorithm": {"smoothness_order": 2, "eps": 0.1, "eps_H": 0.1},
            "trials": 1,
            "seed": 0,
        }
    )
    problem = build_problem(cfg.problem, cfg.seed)
    methods = spans.FINITE_ORACLE if problem.is_finite_sum else spans.STREAMING_ORACLE
    for attr, pos in methods.items():
        params = list(inspect.signature(getattr(problem, attr)).parameters)
        if pos is None:
            assert params == ["x"], attr  # the call covers the population
        else:
            # the points come first, then the batch (an index set or a size)
            assert params[:pos] == ["x", "y"][:pos], attr
            assert params[pos] in ("idx", "size"), attr
    if problem.is_finite_sum:
        # every wrapped method answers, so a family missing one fails here
        # and not inside the traced benchmark
        x, y = np.random.default_rng(0).standard_normal((2, problem.dim))
        for attr, pos in methods.items():
            for batch in (problem.n, np.array([0, 2])):
                args = (x,) if pos is None else (x, y)[:pos] + (batch,)
                out = getattr(problem, attr)(*args)
                assert out.shape == (problem.dim,) and np.isfinite(out).all(), (attr, batch)


def test_hvp_batch_is_fifth_argument():
    assert list(inspect.signature(ncfinder.hvp_estimate).parameters)[4] == "batch"


@pytest.mark.parametrize("name", list(workload.WORKLOADS))
def test_workload_setup_runs(name):
    # the set-up the benchmark times as setup_s, once, on the workload's own
    # config: a change that breaks it leaves the benchmark no run to time
    config = parse_config(workload.config_doc(workload.WORKLOADS[name], 1, 0))
    times = workload.time_setup(harness, config, 0)
    assert len(times) == 1 and times[0] > 0


@pytest.mark.parametrize("run", list(RUNS))
def test_traced_ledger_reconciles(run):
    # the traced benchmark's ledger, on a two-trial run of each pinned
    # config: each trial's epoch, probe and gradient-test charges, read off
    # the wrapped calls, sum to its grads_total
    problem_doc, algorithm, _ = RUNS[run]
    config = parse_config({"problem": {**problem_doc, "seed": 3}, "algorithm": algorithm, "trials": 2, "seed": 11})
    mods = {module: importlib.import_module(f"nestvr.{module}") for module, _, _ in spans.MODULE_SITES}
    recorder = spans.Recorder()
    with recorder.installed(mods):
        results = harness.run_experiment(config)
    trials = [
        {
            "status": r.outcome.status,
            "grads_total": r.outcome.grads_total,
            "outer_iters": sum(ev.kind == "grad-check" for ev in r.outcome.trace.events),
            "nc_steps": sum(ev.kind == "nc-step" for ev in r.outcome.trace.events),
        }
        for r in results
    ]
    problem = build_problem(config.problem, config.seed)
    _, ledger = spans.summarise(recorder.to_arrays(), n=problem.n, dim=problem.dim, trials=trials)
    assert len(ledger) == 2 and all(row["reconciles"] for row in ledger), ledger
