"""The four value rules of :mod:`nestvr.problems` (a number, a count, a
positive finite number, a fraction in (0, 1)), held by every entry point that
checks one, each worded as the rule's shared check words it; and a guard that
no module restates a rule's message outside those checks."""

import ast
import dataclasses
import json
import math
import numbers
from pathlib import Path
import tempfile
from typing import Callable, NamedTuple

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from conftest import DeclaredSpecProblem, make_quadratic_problem
from test_harness import with_value

import nestvr
from nestvr import (
    NestedSchedule,
    SmoothnessSpec,
    clamp_schedule,
    configure,
    derive_schedule,
    find_nc_direction,
    hvp_estimate,
    make_rng,
)
from nestvr.epoch import draw_epoch_length
from nestvr.harness import ConfigError, load_point, parse_config

NUMBER = ("number", None)
POSITIVE = ("positive", None)
FRACTION = ("fraction", None)


def count(least):
    return ("count", least)


def shared_message(rule, name, value):
    """The message the rule's check raises for ``value``, or None when the
    value keeps the rule."""
    kind, least = rule
    integer = kind == "count"
    kinds = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kinds):
        return f"{name}: expected {'an integer' if integer else 'a number'}, got {value!r}"
    if kind == "count" and not value >= least:
        return f"{name}: must be >= {least}, got {value}"
    if kind == "positive" and not (value > 0 and math.isfinite(value)):
        return f"{name}: must be positive and finite, got {value}"
    if kind == "fraction" and not 0 < value < 1:
        return f"{name}: must lie in (0, 1), got {value}"
    return None


class Entry(NamedTuple):
    name: str  # what the message names
    rule: tuple
    call: Callable  # the entry point, with the checked argument set to its one argument
    error: type = ValueError
    none_ok: bool = False  # None is a legal value, outside the rule
    from_json: bool = False  # the value reaches the check through a JSON file


SPEC = {"L1": 1.0, "L2": 1.0, "L3": 1.0, "sigma2": 1.0, "delta_F": 1.0, "radius": 2.0}
SHELL = DeclaredSpecProblem(100, 4, SmoothnessSpec(**SPEC))
CONFIG = configure(SHELL, 0.1, 0.5, order=2)
QUADRATIC = make_quadratic_problem(np.eye(2), 4, seed=3, noise=0.0)
SCHEDULE = derive_schedule(16, M=6.0)


def load_point_with(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pt.json"
        path.write_text(json.dumps([0.0, value, 0.0]))
        return load_point(path, 3)


ENTRIES = {
    "configure-eps": Entry("eps", FRACTION, lambda v: configure(SHELL, v, 0.5, order=2)),
    "configure-eps_H": Entry("eps_H", FRACTION, lambda v: configure(SHELL, 0.1, v, order=2)),
    **{
        f"configure-overrides.{key}": Entry(
            f"overrides.{key}",
            rule,
            lambda v, key=key: configure(SHELL, 0.1, 0.5, order=2, overrides={key: v}),
        )
        for key, rule in (("B0", count(4)), ("U", count(1)), ("M", POSITIVE), ("eta", POSITIVE))
    },
    **{
        f"DriverConfig-{name}": Entry(
            name, rule, lambda v, name=name: dataclasses.replace(CONFIG, **{name: v})
        )
        for name, rule in (
            ("eps", FRACTION), ("eps_H", FRACTION), ("U", count(1)), ("eta", POSITIVE),
            ("delta", POSITIVE),
        )
    },
    **{
        f"SmoothnessSpec-{name}": Entry(
            f"SmoothnessSpec.{name}",
            POSITIVE,
            lambda v, name=name: SmoothnessSpec(**{**SPEC, name: v}),
            none_ok=name == "radius",  # global constants
        )
        for name in SPEC
    },
    "NestedSchedule-M": Entry(
        "M", POSITIVE, lambda v: NestedSchedule(B0=16, M=v, T=(2, 2), B=(64, 16))
    ),
    "clamp_schedule-n": Entry(
        "n", count(1), lambda v: clamp_schedule(SCHEDULE, v), none_ok=True  # a stream
    ),
    "find_nc_direction-eps_H": Entry(
        "eps_H", FRACTION, lambda v: find_nc_direction(QUADRATIC, QUADRATIC.x0, v, 0.1, make_rng(0))
    ),
    "find_nc_direction-delta": Entry(
        "delta", FRACTION, lambda v: find_nc_direction(QUADRATIC, QUADRATIC.x0, 0.1, v, make_rng(0))
    ),
    "hvp_estimate-q": Entry(
        "q",
        POSITIVE,
        lambda v: hvp_estimate(QUADRATIC, QUADRATIC.x0, np.array([1.0, 0.0]), v, 4, make_rng(0)),
    ),
    "draw_epoch_length-p": Entry("p", FRACTION, lambda v: draw_epoch_length(v, make_rng(0))),
    **{
        f"parse_config-{path}": Entry(
            path,
            rule,
            lambda v, path=path: parse_config(with_value(path, v)),
            ConfigError,
            none_ok=path == "problem.seed",  # the run's seed stands in
        )
        for path, rule in (
            ("trials", count(1)), ("seed", count(0)), ("problem.seed", count(0)),
            ("algorithm.eps", FRACTION),
        )
    },
    "load_point": Entry("point[1]", NUMBER, load_point_with, ConfigError, from_json=True),
}

#: values that break at least one rule: bools, None, strings, NaN, +-inf,
#: 0, 1, -1, a subnormal, and numpy scalars
BAD_VALUES = [
    True, False, np.True_, None, "0.5", "", math.nan, math.inf, -math.inf, 0, 1, -1, 0.0,
    1.0, -1.0, 1e-320, np.float64(math.nan), np.float64(-math.inf), np.float64(2.0),
    np.float32(0.5), np.int64(-1), np.int64(0), np.int64(2),
]


def good_values(rule):
    """Values that keep ``rule`` and that every entry point runs with, as
    Python or numpy scalars."""
    kind, least = rule
    if kind == "count":
        plain, scalar = st.integers(least, least + 10**6), np.int64
    else:
        bounds = {"fraction": (0.01, 0.99), "positive": (1e-6, 1e6), "number": (-1e6, 1e6)}[kind]
        plain, scalar = st.floats(*bounds), np.float64
    return plain.flatmap(lambda v: st.sampled_from([v, scalar(v)]))


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@settings(max_examples=60, deadline=None)
@given(value=st.sampled_from(BAD_VALUES))
def test_bad_value_raises_the_shared_message(entry, value):
    if entry.from_json:
        try:
            value = json.loads(json.dumps(value))
        except TypeError:  # a numpy integer or bool is no JSON value
            assume(False)
    assume(not (value is None and entry.none_ok))
    message = shared_message(entry.rule, entry.name, value)
    assume(message is not None)
    with pytest.raises(entry.error) as info:
        entry.call(value)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_good_value_passes(entry, data):
    value = data.draw(good_values(entry.rule))
    assert shared_message(entry.rule, entry.name, value) is None
    entry.call(value)


#: each rule's message, which only its check in nestvr.problems may word
PHRASES = ("expected an integer", "expected a number", "must be positive and finite",
           "must lie in (0, 1)")
CHECKS = ("check_number", "check_count", "check_positive", "check_fraction")


def test_rule_messages_are_worded_only_by_the_four_checks():
    # a restated rule drifts from its check; this keeps new copies out
    src = Path(nestvr.__file__).parent
    tree = ast.parse((src / "problems.py").read_text())
    spans = [(f.lineno, f.end_lineno) for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name in CHECKS]
    assert len(spans) == len(CHECKS)
    strays = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        strays += [name for name in ("_positive_finite", "_check_number") if name in text]
        for number, line in enumerate(text.splitlines(), 1):
            inside = path.name == "problems.py" and any(a <= number <= b for a, b in spans)
            strays += [f"{path.name}:{number}: {p}" for p in PHRASES if p in line and not inside]
    assert strays == []
