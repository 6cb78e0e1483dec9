import dataclasses
import inspect

import nestvr
from nestvr import driver, ncfinder
from nestvr.harness import verify_epoch_decrease


def test_public_names_resolve_without_duplicates():
    assert len(nestvr.__all__) == len(set(nestvr.__all__))
    missing = [name for name in nestvr.__all__ if not hasattr(nestvr, name)]
    assert missing == []


def test_epoch_and_product_take_only_what_the_program_passes():
    params = inspect.signature(nestvr.run_epoch).parameters
    assert list(params) == ["x0", "problem", "schedule", "rng", "log", "anchor"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    params = inspect.signature(nestvr.hvp_estimate).parameters
    # the benchmark reads the batch as the fifth positional argument
    assert list(params) == ["problem", "z", "v", "q", "batch", "rng"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params.values())
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_one_curvature_search():
    params = inspect.signature(nestvr.find_nc_direction).parameters
    assert list(params) == ["problem", "z", "eps_H", "delta", "rng"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    # the benchmark wraps the driver's two names; both are the one search
    assert driver.find_nc_direction_finite is driver.find_nc_direction_online
    assert driver.find_nc_direction_online is ncfinder.find_nc_direction


def test_epoch_decrease_check_takes_no_trial_count():
    params = inspect.signature(verify_epoch_decrease).parameters
    assert list(params) == ["problem", "schedule", "rng"]


def test_schedule_is_its_four_numbers():
    # no stored flag: what the lemma needs is read from B0, M, T and B
    fields = [f.name for f in dataclasses.fields(nestvr.NestedSchedule)]
    assert fields == ["B0", "M", "T", "B"]
