"""The traced benchmark (perfbench/spans.py) wraps nestvr call sites by name and
reads batch sizes by argument position; these tests pin those sites, so a
refactor that would break the traced benchmark fails here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from nestvr import ncfinder
from nestvr.harness import FAMILIES, build_problem, parse_config

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py as a module, compiled in memory so that nothing is
    written beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    exec(spec.loader.source_to_code(SPANS_PATH.read_bytes(), str(SPANS_PATH)), module.__dict__)
    return module


spans = load_spans()


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
