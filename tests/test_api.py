import inspect

import nestvr
from nestvr.harness import verify_epoch_decrease


def test_public_names_resolve_without_duplicates():
    assert len(nestvr.__all__) == len(set(nestvr.__all__))
    missing = [name for name in nestvr.__all__ if not hasattr(nestvr, name)]
    assert missing == []


def test_epoch_and_product_take_only_what_the_program_passes():
    params = inspect.signature(nestvr.run_epoch).parameters
    assert list(params) == ["x0", "problem", "schedule", "rng", "counter"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    counter = inspect.signature(nestvr.hvp_estimate).parameters["counter"]
    assert counter.kind is inspect.Parameter.KEYWORD_ONLY
    assert counter.default is inspect.Parameter.empty


def test_epoch_decrease_check_takes_no_trial_count():
    params = inspect.signature(verify_epoch_decrease).parameters
    assert list(params) == ["problem", "schedule", "rng"]
