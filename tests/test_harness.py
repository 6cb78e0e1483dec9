import csv
import dataclasses
import json
import math
from pathlib import Path
import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestvr import (
    classify_point,
    clamp_schedule,
    derive_schedule,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
)
import nestvr.driver as drv
import nestvr.harness as hz
from nestvr.harness import (
    FAMILIES,
    SUITES,
    ConfigError,
    build_driver_config,
    build_problem,
    cli_main,
    load_config,
    parse_config,
    run_experiment,
    run_verify_suite,
    verify_epoch_decrease,
    verify_schedule_identities,
    verify_series_domination,
    write_trace,
)

BASE_CONFIG = {
    "problem": {
        "family": "saddle",
        "dim": 8,
        "n": 256,
        "negative_eigenvalue": -1.0,
        "radius": 1.5,
        "seed": 5,
    },
    "algorithm": {
        "mode": "finite",
        "smoothness_order": 2,
        "eps": 1e-3,
        "eps_H": 0.1,
        "overrides": {"U": 400},
    },
    "trials": 2,
    "seed": 424242,
}


def with_problem(problem, **algorithm):
    """BASE_CONFIG with another problem; its mode is left to the family."""
    alg = {k: v for k, v in BASE_CONFIG["algorithm"].items() if k != "mode"}
    return dict(BASE_CONFIG, problem=problem, algorithm={**alg, **algorithm})


def with_value(path, value, base=BASE_CONFIG):
    """A copy of ``base`` with the field at dotted ``path`` set to ``value``."""
    doc = json.loads(json.dumps(base))
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[key] = value
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        doc = dict(BASE_CONFIG, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(doc)

    def test_unknown_nested_key_has_field_path(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["problem"]["weird"] = 3
        with pytest.raises(ConfigError, match="problem.*weird"):
            parse_config(doc)

    def test_missing_required_key(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["algorithm"]["eps"]
        with pytest.raises(ConfigError, match="eps"):
            parse_config(doc)

    def test_bad_family(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["problem"]["family"] = "nope"
        with pytest.raises(ConfigError, match="family"):
            parse_config(doc)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": \n !}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_build_problem_families(self):
        # the table hands each field the family reads to its factory, and the
        # family alone picks the algorithm
        fields = {"n": 8, "negative_eigenvalue": -0.5, "quartic": 0.5, "radius": 1.0, "noise": 0.2}
        direct = {
            "saddle": make_saddle_problem(4, 8, -0.5, 3, quartic=0.5, radius=1.0, noise=0.2),
            "regularized": make_regularized_problem(4, 8, 3),
            "streaming-saddle": make_streaming_saddle_problem(
                4, -0.5, 3, quartic=0.5, radius=1.0, noise=0.2
            ),
        }
        assert sorted(direct) == sorted(FAMILIES)
        x = np.linspace(-0.5, 0.5, 4)
        for family, want in direct.items():
            own = {k: fields[k] for k in FAMILIES[family].fields}
            spec = {"family": family, "dim": 4, "seed": 3, **own}
            cfg = parse_config(with_problem(spec))
            problem = build_problem(cfg.problem, cfg.seed)
            assert problem.is_finite_sum == FAMILIES[family].is_finite_sum == ("n" in own)
            assert problem.smoothness == want.smoothness
            assert problem.value(x) == want.value(x)
            assert np.array_equal(problem.hessian(x), want.hessian(x))
            config = build_driver_config(problem, cfg.algorithm)
            assert config == drv.configure(want, 1e-3, 0.1, order=2, overrides={"U": 400})
            # M = 6 L1 on a finite sum, 2 rho L1 with rho >= 6 on a stream
            assert (config.schedule.M == 6.0 * problem.smoothness.L1) == problem.is_finite_sum
            # every family declares L3, so every family runs at order 3, with
            # the step sqrt(k eps_H / L3): k = 3 on a finite sum, 1 on a stream
            alg3 = parse_config(with_problem(spec, smoothness_order=3)).algorithm
            k = 3.0 if problem.is_finite_sum else 1.0
            eta3 = math.sqrt(k * 0.1 / problem.smoothness.L3)
            assert build_driver_config(problem, alg3).eta == eta3

    @pytest.mark.parametrize("family,extra", [("saddle", {"n": 8}), ("streaming-saddle", {})])
    def test_matching_mode_accepted(self, family, extra):
        doc = {"family": family, "dim": 4, **extra}
        mode = "finite" if extra else "online"
        assert parse_config(with_problem(doc, mode=mode)) == parse_config(with_problem(doc))

    @pytest.mark.parametrize(
        "family,extra,mode",
        [("streaming-saddle", {}, "finite"), ("saddle", {"n": 8}, "online"),
         ("regularized", {"n": 8}, "online")],
    )
    def test_mismatched_mode_rejected(self, family, extra, mode):
        doc = {"family": family, "dim": 4, **extra}
        with pytest.raises(ConfigError, match=rf"^algorithm\.mode: family '{family}'"):
            parse_config(with_problem(doc, mode=mode))

    def test_unknown_mode_rejected(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["algorithm"]["mode"] = "batch"
        with pytest.raises(ConfigError, match="algorithm.mode: must be 'finite' or 'online'"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "path,value,kind",
        [
            ("trials", 2.5, "an integer"),
            ("trials", True, "an integer"),
            ("seed", 1.9, "an integer"),
            ("out", 5, "a string"),
            ("problem.dim", "4", "an integer"),
            ("problem.dim", None, "an integer"),
            ("problem.n", 2.5, "an integer"),
            ("problem.n", True, "an integer"),
            ("problem.seed", 7.0, "an integer"),
            ("problem.noise", "0.1", "a number"),
            ("algorithm.smoothness_order", 2.9, "an integer"),
            ("algorithm.smoothness_order", 3.7, "an integer"),
            ("algorithm.eps", "0.001", "a number"),
            ("algorithm.eps_H", True, "a number"),
            ("algorithm.overrides.B0", "x", "an integer"),
            ("algorithm.overrides.U", 2.5, "an integer"),
            ("algorithm.overrides.M", None, "a number"),
        ],
    )
    def test_number_types_checked_with_path(self, path, value, kind):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected {kind}, got "):
            parse_config(with_value(path, value))

    @pytest.mark.parametrize(
        "family,key,problem",
        [
            ("saddle", "dim", {"dim": 1, "n": 8}),
            ("streaming-saddle", "dim", {"dim": 1}),
            ("regularized", "n", {"dim": 4, "n": 1}),
        ],
    )
    def test_family_minimum_rejected_with_path(self, family, key, problem):
        doc = with_problem({"family": family, **problem})
        with pytest.raises(
            ConfigError, match=rf"^problem\.{key}: family '{family}' needs {key} >= 2, got 1$"
        ):
            parse_config(doc)
        # the declared minimum is the factory's own; a population below 4
        # needs a base batch override
        doc = with_problem({"family": family, **problem, key: 2}, overrides={"B0": 4})
        cfg = parse_config(doc)
        assert build_problem(cfg.problem, cfg.seed).dim == cfg.problem.dim

    @pytest.mark.parametrize(
        "path,value,rule",
        [
            ("problem.noise", -1.0, "must be >= 0 and finite"),
            ("problem.radius", -1.0, "must be positive and finite"),
            ("problem.radius", 0, "must be positive and finite"),
            ("problem.negative_eigenvalue", 0.5, "must be negative and finite"),
            ("problem.negative_eigenvalue", -math.inf, "must be negative and finite"),
            ("problem.quartic", 0.0, "must be positive and finite"),
            ("problem.seed", -1, "must be >= 0"),
            ("seed", -1, "must be >= 0"),
            ("trials", 0, "must be >= 1"),
            ("algorithm.overrides.B0", 2, "must be >= 4"),
            ("algorithm.overrides.U", 0, "must be >= 1"),
            ("algorithm.overrides.M", -1.0, "must be positive and finite"),
            ("algorithm.overrides.eta", 0.0, "must be positive and finite"),
        ],
    )
    def test_value_ranges_checked_with_path(self, path, value, rule):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: {rule}, got "):
            parse_config(with_value(path, value))

    @pytest.mark.parametrize(
        "path,value,message",
        [
            ("problem", [1], "problem: expected an object, got list"),
            ("algorithm.overrides", [1], "algorithm.overrides: expected an object"),
            ("algorithm.overrides", {"Q": 1}, "algorithm.overrides: unknown keys ['Q']"),
            ("algorithm.eps", 1.5, "algorithm.eps: must lie in (0, 1), got 1.5"),
            ("algorithm.eps_H", 0.0, "algorithm.eps_H: must lie in (0, 1), got 0.0"),
        ],
    )
    def test_malformed_fields_rejected_with_path(self, path, value, message):
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            parse_config(with_value(path, value))


class TestStrictProblemFields:
    """A config may set only the problem fields its family reads."""

    @pytest.mark.parametrize(
        "family,base,ignored",
        [
            ("saddle", {"n": 8}, []),
            ("regularized", {"n": 16}, ["negative_eigenvalue", "quartic", "radius", "noise"]),
            ("streaming-saddle", {}, ["n"]),
        ],
    )
    def test_ignored_fields_rejected_with_path(self, family, base, ignored):
        value = {"n": 8, "negative_eigenvalue": -0.5, "quartic": 0.5, "radius": 1.0, "noise": 0.2}
        # values of the wrong type or range: an unused field is not checked
        invalid = [-1.0, 2.5, "x", 0.5, None]
        for key in ignored:
            for given in [value[key], *invalid]:
                doc = {"family": family, "dim": 4, **base, key: given}
                with pytest.raises(
                    ConfigError, match=rf"problem\.{key}: not used by family '{family}'"
                ):
                    parse_config(with_problem(doc))
                # the spec itself rejects it, as a library call builds one
                with pytest.raises(
                    ConfigError, match=rf"^problem\.{key}: not used by family '{family}'$"
                ):
                    hz.ProblemSpec(family, 4, None, {**base, key: given})
        # every field the family does read is accepted and lands on the spec
        doc = {"family": family, "dim": 4, "seed": 3, **{k: value[k] for k in FAMILIES[family].fields}}
        cfg = parse_config(with_problem(doc))
        spec = cfg.problem
        assert {"family": spec.family, "dim": spec.dim, "seed": spec.seed, **spec.values} == doc


#: a field's edge values: zero, signs, non-integers, bools, strings, None,
#: non-finite and extreme floats, and lists
EDGE_VALUES = [0, -1, 2.5, 4.0, True, "x", None, math.inf, -math.inf, math.nan,
               1e-300, 1e300, 1e-155, [1]]
#: every field a mutation may set, for any family
MUTABLE_PATHS = [
    *[f"problem.{key}" for key in ("dim", "n", "seed", "negative_eigenvalue", "noise",
                                   "quartic", "radius")],
    *[f"algorithm.{key}" for key in ("smoothness_order", "eps", "eps_H")],
    *[f"algorithm.overrides.{key}" for key in drv.OVERRIDE_KEYS],
    "trials",
    "seed",
]


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(list(FAMILIES)),
    changes=st.lists(
        st.tuples(st.sampled_from(MUTABLE_PATHS), st.sampled_from(EDGE_VALUES)), max_size=3
    ),
)
def test_library_accepts_what_configs_accept(family, changes):
    # the config's checks are the library's: a config that parses builds its
    # problem and its driver config, or fails only where a formula's value
    # leaves the float range
    counts = {"dim": 4, "n": 16} if FAMILIES[family].is_finite_sum else {"dim": 4}
    doc = with_problem({"family": family, **counts}, overrides={})
    for path, value in changes:
        doc = with_value(path, value, doc)
    try:
        config = parse_config(doc)
    except ConfigError:
        return
    try:
        build_driver_config(build_problem(config.problem, config.seed), config.algorithm)
    except ValueError as exc:
        assert type(exc) is ValueError and str(exc).startswith(("derived ", "SmoothnessSpec."))


@pytest.fixture(scope="module")
def results():
    return run_experiment(parse_config(BASE_CONFIG))


class TestTracePersistence:
    def test_csv_layout(self, results, tmp_path):
        path = write_trace(results, tmp_path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "u", "event", "grads_cum", "f_value",
                           "grad_norm", "rayleigh", "wall_ms"]
        assert all(len(r) == 8 for r in rows)

    def test_grads_cum_sorted_within_trial(self, results, tmp_path):
        path = write_trace(results, tmp_path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for trial in {r["trial"] for r in rows}:
            counts = [int(r["grads_cum"]) for r in rows if r["trial"] == trial]
            assert counts == sorted(counts)

    def test_certified_run_ends_with_rayleigh(self, results, tmp_path):
        path = write_trace(results, tmp_path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for res in results:
            if res.outcome.status != "certified-SOSP":
                continue
            last = [r for r in rows if r["trial"] == str(res.trial)][-1]
            assert last["event"] == "terminate"
            assert last["rayleigh"] != ""

    def test_summary_matches_classifier(self, results, tmp_path):
        write_trace(results, tmp_path)
        problem = build_problem(parse_config(BASE_CONFIG).problem, BASE_CONFIG["seed"])
        for res in results:
            doc = json.loads((tmp_path / f"summary_{res.trial:03d}.json").read_text())
            cls = classify_point(problem, res.outcome.z_final, 1e-3, 0.1)
            assert doc["final_lambda_min"] == pytest.approx(cls.lambda_min, abs=1e-9)
            assert doc["status"] == res.outcome.status
            assert doc["grads_total"] == res.outcome.grads_total

    def test_rerun_drops_stale_summaries(self, results, tmp_path):
        # a run of fewer trials into the same directory leaves no summary of
        # a trial its events.csv does not hold; other files stay
        write_trace(results, tmp_path)
        assert (tmp_path / "summary_001.json").exists()
        for name in ("notes.txt", "summary_best.json"):
            (tmp_path / name).write_text("kept\n")
        path = write_trace(results[:1], tmp_path)
        with path.open() as fh:
            assert {row["trial"] for row in csv.DictReader(fh)} == {"0"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.csv", "notes.txt", "summary_000.json", "summary_best.json"
        ]

    def test_determinism_modulo_wall_time(self, tmp_path):
        # wall_ms is informational; every other column must be byte-identical
        cfg = parse_config(BASE_CONFIG)
        p1 = write_trace(run_experiment(cfg), tmp_path / "a")
        p2 = write_trace(run_experiment(cfg), tmp_path / "b")

        def strip_wall(path):
            with path.open() as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert strip_wall(p1) == strip_wall(p2)
        s1 = sorted((tmp_path / "a").glob("summary_*.json"))
        s2 = sorted((tmp_path / "b").glob("summary_*.json"))
        assert [p.read_text() for p in s1] == [p.read_text() for p in s2]


    @pytest.mark.parametrize(
        "field,value",
        [
            # a value that cannot be formatted: the CSV fails while it is rendered
            ("f_value", "not a number"),
            # a lone surrogate cannot be encoded: the temporary file has been
            # created when the write fails
            ("kind", "\ud800"),
        ],
    )
    def test_interrupted_write_keeps_previous_file(self, results, tmp_path, field, value):
        path = write_trace(results, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # the bad value sits in the last trial's last event, after the earlier rows
        last = results[-1]
        events = list(last.outcome.trace.events)
        events[-1] = dataclasses.replace(events[-1], **{field: value})
        broken = dataclasses.replace(
            last,
            outcome=dataclasses.replace(
                last.outcome, trace=dataclasses.replace(last.outcome.trace, events=events)
            ),
        )
        with pytest.raises(ValueError):
            write_trace(results[:-1] + [broken], tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert path.read_bytes() == before["events.csv"]


class TestVerifySuites:
    def test_schedule_identities(self):
        assert verify_schedule_identities().passed

    def test_geometric_tail_tight_case(self):
        # a(j) = 1, b(k) = k: both sides equal (1-p)/p; truncated sums agree
        for p in (0.1, 0.5, 0.9):
            q = 1.0 - p
            k_star = math.ceil(math.log(1e-16) / math.log(q)) + 10
            lhs = q / p * sum(p * q**k for k in range(k_star))
            rhs = sum(p * q**k * k for k in range(k_star))
            assert lhs == pytest.approx(q / p, rel=1e-12)
            assert rhs == pytest.approx(q / p, rel=1e-10)

    def test_geometric_tail_closed_form_matches_long_sum(self, monkeypatch):
        # each case of `nestvr verify --seed 0`, summed term by term until the
        # omitted terms are below 1e-16 of the largest b
        sides_of = hz._geometric_tail_sides
        cases = []

        def recording(p, a, slack):
            sides = sides_of(p, a, slack)
            cases.append((p, a, slack, sides))
            return sides

        monkeypatch.setattr(hz, "_geometric_tail_sides", recording)
        assert hz.verify_geometric_tail_inequality(make_rng(0)).passed
        assert len(cases) == 100
        for p, a, slack, (lhs, rhs) in cases:
            q = 1.0 - p
            k_long = math.ceil(math.log(1e-16) / math.log(q)) + len(a)
            long_lhs = q / p * sum(p * q**k * (a[k] if k < len(a) else 0.0) for k in range(k_long))
            long_rhs = sum(p * q**k * (float(a[:k].sum()) + slack) for k in range(k_long))
            assert abs(lhs - long_lhs) <= 1e-12 * max(1.0, long_rhs)
            assert abs(rhs - long_rhs) <= 1e-12 * max(1.0, long_rhs)

    def test_series_domination(self):
        assert verify_series_domination().passed

    def test_epoch_decrease_smoke(self, rng):
        problem = make_regularized_problem(dim=20, n=300, seed=1)
        schedule = clamp_schedule(derive_schedule(64, M=6.0 * problem.smoothness.L1), 300)
        report = verify_epoch_decrease(problem, schedule, rng)
        assert report.passed

    def test_epoch_decrease_detail_format(self, rng):
        problem = make_regularized_problem(dim=20, n=300, seed=1)
        schedule = clamp_schedule(derive_schedule(64, M=6.0 * problem.smoothness.L1), 300)
        report = verify_epoch_decrease(problem, schedule, rng)
        assert report.name == "epoch-decrease"
        # the cost bound is 7 B0 log2(B0)^3 = 7 * 64 * 6^3
        match = re.fullmatch(
            r"lhs (\S+) vs rhs (\S+) \(\+/- (\S+)\), mean cost (\d+) <= 96768", report.detail
        )
        assert match, report.detail
        assert all(math.isfinite(float(v)) for v in match.groups())

    def test_epoch_decrease_with_base_batch_equal_n(self, rng):
        # B0 = n: the variance term drops out (indicator zero) and the
        # inequality must hold on the descent term alone
        problem = make_regularized_problem(dim=20, n=256, seed=3)
        schedule = clamp_schedule(derive_schedule(256, M=6.0 * problem.smoothness.L1), 256)
        report = verify_epoch_decrease(problem, schedule, rng)
        assert report.passed

    def test_epoch_decrease_full_batch_override(self, rng):
        # degenerate mode: clamping at n = B0 sets every batch to [n]; the
        # check still runs
        problem = make_regularized_problem(dim=10, n=128, seed=4)
        schedule = clamp_schedule(derive_schedule(128, M=6.0 * problem.smoothness.L1), 128)
        report = verify_epoch_decrease(problem, schedule, rng)
        assert report.passed

    def test_epoch_decrease_rejects_small_M(self, rng):
        problem = make_regularized_problem(dim=4, n=20, seed=2)
        schedule = clamp_schedule(derive_schedule(16, M=1.0), 20)
        with pytest.raises(ValueError):
            verify_epoch_decrease(problem, schedule, rng)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_verify_suite(["nonsense"], seed=0)

    def test_unknown_suite_rejected_before_any_runs(self, monkeypatch):
        ran = []
        monkeypatch.setitem(SUITES, "schedule", lambda rng: ran.append("schedule"))
        with pytest.raises(ConfigError, match="nonsense"):
            run_verify_suite(["schedule", "nonsense"], seed=0)
        assert ran == []


def test_diverged_trial_at_a_finite_point_is_not_classified(monkeypatch):
    # a run can diverge while its iterate is still finite, when the gradient
    # overflows first; its point is not classified all the same
    def diverged(problem, config, rng):
        return drv.DriverOutcome(
            z_final=np.full(problem.dim, 1e63),
            status=drv.STATUS_DIVERGED,
            trace=drv.RunTrace(),
            grads_total=0,
            final_grad_norm=math.inf,
        )

    monkeypatch.setattr(drv, "run_driver", diverged)
    (result,) = run_experiment(parse_config(dict(BASE_CONFIG, trials=1)))
    assert math.isnan(result.final_lambda_min)


class TestCli:
    def test_derive_schedule_json(self, capsys):
        assert cli_main(["derive-schedule", "--b0", "256"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["K"] == 3 and doc["T"] == [2, 2, 4]
        assert doc["B"] == [55296, 2304, 96]
        assert doc["expected_epoch_cost"] == 242944
        assert doc["M"] == 6.0

    def test_derive_schedule_rejects_small_base(self, capsys):
        assert cli_main(["derive-schedule", "--b0", "2"]) == 1

    def test_derive_schedule_has_no_step_flag(self, capsys):
        # K, T, B, p and the cost do not depend on M, so there is no --m
        assert cli_main(["derive-schedule", "--b0", "16", "--m", "1"]) == 1
        assert capsys.readouterr().out == ""

    def test_run_twice_same_seed_identical_modulo_wall(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, trials=1)
        cfg["algorithm"] = dict(cfg["algorithm"], overrides={"U": 60})
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "r1")]) == 0
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "r2")]) == 0

        def strip_wall(p):
            with open(p) as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert strip_wall(tmp_path / "r1" / "events.csv") == strip_wall(tmp_path / "r2" / "events.csv")

    def test_run_seed_override_changes_stream(self, tmp_path):
        cfg = dict(BASE_CONFIG, trials=1)
        cfg["algorithm"] = dict(cfg["algorithm"], overrides={"U": 30})
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "s1"),
                         "--seed", "1"]) == 0
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "s2"),
                         "--seed", "2"]) == 0
        a = (tmp_path / "s1" / "summary_000.json").read_text()
        b = (tmp_path / "s2" / "summary_000.json").read_text()
        assert a != b

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_survives_diverged_trial(self, tmp_path):
        # M far below 6 L1 blows the iterate up: the trial is recorded as
        # diverged and its non-finite summary values are written as null
        cfg = dict(BASE_CONFIG, trials=1)
        cfg["problem"] = dict(cfg["problem"], dim=10, seed=7, radius=2.0)
        cfg["algorithm"] = dict(cfg["algorithm"], overrides={"U": 50, "M": 1e-3})
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "d")]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "d" / "summary_000.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["status"] == "diverged"
        assert doc["final_grad_norm"] is None and doc["final_lambda_min"] is None

    def test_non_finite_probe_does_not_certify(self, tmp_path, capsys):
        # at radius 1e-155 the probe's displacement eps_H / (10 L2) is about
        # 1e153, and its products overflow; their NaN estimate ends each
        # trial as diverged, where it once read as an abstention
        problem = {"family": "saddle", "dim": 3, "n": 10, "radius": 1e-155}
        doc = dict(with_problem(problem, eps=0.7, eps_H=0.6, overrides={"U": 1}), seed=8)
        path = write_config(tmp_path, doc)
        out = tmp_path / "nan"
        with np.errstate(all="ignore"):  # the overflow itself is not stopped
            assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert "2 trials (0 certified, 2 diverged) -> " in capsys.readouterr().out
        for trial in range(2):
            summary = json.loads((out / f"summary_{trial:03d}.json").read_text())
            assert summary["status"] == drv.STATUS_DIVERGED
            assert summary["final_lambda_min"] is None

    def test_run_malformed_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE_CONFIG, mystery=1))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"trials": 1, "problem": %s, "algorithm": %s, "seed": 1, "trials": 2}', "trials"),
            ('{"trials": 1, "problem": %s, "algorithm": %s, "seed": 1}', "negative_eigenvalue"),
        ],
        ids=["top-level", "nested"],
    )
    def test_run_rejects_duplicate_key(self, tmp_path, capsys, monkeypatch, text, key):
        # json.loads keeps a repeated key's last value; a config must not
        # silently run 2 trials, or drop one of two eigenvalues
        problem = json.dumps(BASE_CONFIG["problem"])
        if key == "negative_eigenvalue":
            problem = problem.replace('"radius"', '"negative_eigenvalue": -0.5, "radius"')
        path = tmp_path / "cfg.json"
        path.write_text(text % (problem, json.dumps(BASE_CONFIG["algorithm"])))
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: {path}: duplicate key '{key}'\n"
        assert not out_dir.exists() and sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "family,extra,mode", [("streaming-saddle", {}, "finite"), ("saddle", {"n": 8}, "online")]
    )
    def test_run_rejects_mismatched_mode(self, tmp_path, capsys, monkeypatch, family, extra, mode):
        built = []
        monkeypatch.setattr(hz, "build_problem", lambda *args: built.append(args))
        doc = with_problem({"family": family, "dim": 4, **extra}, mode=mode)
        path = write_config(tmp_path, doc)
        out = tmp_path / "m"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: algorithm.mode:") and "Traceback" not in err
        assert built == [] and not out.exists()

    def test_verify_fast_suites_pass(self, capsys):
        assert cli_main(["verify", "--suite", "schedule"]) == 0
        assert cli_main(["verify", "--suite", "series-domination"]) == 0
        assert cli_main(["verify", "--suite", "epoch-decrease", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all("  PASS  " in line for line in lines)

    def test_verify_rejects_negative_seed_flag(self, capsys):
        assert cli_main(["verify", "--suite", "schedule", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: --seed: must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_at_order_3_certifies(self, tmp_path, capsys, family):
        problem = {
            "saddle": {"family": "saddle", "dim": 10, "n": 256, "radius": 1.5, "seed": 3},
            "regularized": {"family": "regularized", "dim": 20, "n": 500, "seed": 3},
            "streaming-saddle": {"family": "streaming-saddle", "dim": 10, "radius": 1.5, "seed": 3},
        }[family]
        doc = with_problem(problem, smoothness_order=3, eps=3e-3, overrides={"U": 300})
        path = write_config(tmp_path, doc)
        out = tmp_path / "o3"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert "(2 certified)" in capsys.readouterr().out
        for trial in range(2):
            summary = json.loads((out / f"summary_{trial:03d}.json").read_text())
            assert summary["status"] == drv.STATUS_CERTIFIED
            assert summary["final_lambda_min"] >= -0.1

    def test_verify_unknown_suite_exits_1(self):
        assert cli_main(["verify", "--suite", "wat"]) == 1

    def test_verify_failure_exits_2(self, monkeypatch, capsys):
        def failing(names, seed):
            return [hz.SuiteResult("schedule", False, "forced failure")]

        monkeypatch.setattr(hz, "run_verify_suite", failing)
        assert cli_main(["verify", "--suite", "schedule"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_run_has_no_jobs_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "j"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--jobs", "2"]) == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem",
        [{"family": "saddle", "dim": 1, "n": 8}, {"family": "regularized", "dim": 4, "n": 1}],
        ids=["saddle-dim", "regularized-n"],
    )
    def test_run_rejects_family_minimum(self, tmp_path, capsys, problem):
        path = write_config(tmp_path, with_problem(problem))
        out = tmp_path / "m"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change",
        [{"noise": -1.0}, {"radius": -1.0}, {"negative_eigenvalue": 0.5}, {"seed": -1}],
        ids=["noise", "radius", "negative_eigenvalue", "seed"],
    )
    def test_run_rejects_out_of_range_problem(self, tmp_path, capsys, change):
        doc = dict(BASE_CONFIG, problem={**BASE_CONFIG["problem"], **change})
        path = write_config(tmp_path, doc)
        out = tmp_path / "r"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem,order,message",
        [({"family": "saddle", "dim": 4, "n": 3}, 2, r"problem\.n: .*algorithm\.overrides\.B0")],
        ids=["small-n"],
    )
    def test_run_rejects_unbuildable_pair_before_building(
        self, tmp_path, capsys, monkeypatch, problem, order, message
    ):
        built = []
        monkeypatch.setattr(hz, "build_problem", lambda *args: built.append(args))
        path = write_config(tmp_path, with_problem(problem, smoothness_order=order))
        out = tmp_path / "u"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.match(f"config error: {message}", err) and "Traceback" not in err
        assert built == [] and not out.exists()

    @pytest.mark.parametrize(
        "problem,algorithm,name",
        [
            (
                {"family": "saddle", "n": 256, "quartic": 1e-300}, {},
                "derived L2^2: must be positive and finite, got 0.0",
            ),
            (
                {"family": "saddle", "n": 256, "quartic": 1e300}, {},
                "derived L2^2: must be positive and finite, got inf",
            ),
            (
                {"family": "saddle", "n": 256}, {"eps_H": 1e-110},
                "derived eps_H^3: must be positive and finite, got 0.0",
            ),
            (
                {"family": "saddle", "n": 256}, {"eps": 1e-200},
                "derived eps^2: must be positive and finite, got 0.0",
            ),
            (
                {"family": "saddle", "n": 256, "negative_eigenvalue": -1e150}, {},
                "derived U: must be positive and finite, got inf",
            ),
            (
                {"family": "streaming-saddle", "noise": 1e150}, {},
                "derived B0: must be positive and finite, got inf",
            ),
            ({"family": "saddle", "n": 256, "radius": 1e200}, {}, "SmoothnessSpec.L1"),
            # the well depth h^2 / (16 a) overflows, with no numpy warning on stderr
            (
                {"family": "saddle", "n": 256, "negative_eigenvalue": -1e200}, {},
                "SmoothnessSpec.delta_F",
            ),
            ({"family": "saddle", "n": 256, "quartic": 1e-320}, {}, "SmoothnessSpec.delta_F"),
            # a 14.2 PiB design: the allocation fails at once
            ({"family": "regularized", "dim": 200, "n": 10**13}, {}, "Unable to allocate"),
            (
                {"family": "streaming-saddle"}, {"overrides": {"B0": 10**400, "U": 3}},
                "int too large to convert to float",
            ),
        ],
        ids=[
            "quartic-tiny", "quartic-huge", "eps_H", "eps", "negative_eigenvalue", "noise",
            "radius", "negative_eigenvalue-gap", "quartic-gap", "design-memory", "B0-overflow",
        ],
    )
    def test_run_rejects_values_out_of_float_range(
        self, tmp_path, capsys, problem, algorithm, name
    ):
        # each config parses, but a derived constant underflows to 0 or
        # overflows, or the problem cannot be allocated; the U override does
        # not help
        path = write_config(tmp_path, with_problem({"dim": 8, **problem}, **algorithm))
        out = tmp_path / "f"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and name in err
        assert "Traceback" not in err and not out.exists()

    def test_run_needs_an_output_directory(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: no output directory")

    @pytest.mark.parametrize("where", ["out", "--out"])
    def test_run_rejects_empty_output_path(self, tmp_path, capsys, monkeypatch, where):
        # an empty path would write into the working directory and prune its
        # summaries
        monkeypatch.chdir(tmp_path)
        planted = tmp_path / "summary_007.json"
        planted.write_text("{}\n")
        doc = dict(BASE_CONFIG, out="" if where == "out" else "results")
        argv = ["run", "--config", str(write_config(tmp_path, doc))]
        assert cli_main(argv + (["--out", ""] if where == "--out" else [])) == 1
        assert capsys.readouterr().err == f"config error: {where}: must be a non-empty path\n"
        assert planted.read_text() == "{}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "summary_007.json"]

    def test_run_small_population_with_base_batch_override(self, tmp_path):
        problem = {"family": "saddle", "dim": 4, "n": 3}
        path = write_config(tmp_path, with_problem(problem, overrides={"U": 5, "B0": 4}))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_run_rejects_negative_seed_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "s"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: seed: must be >= 0")
        assert not out.exists()

    def test_classify_subcommand(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([0.0] * 8))
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_min"] == pytest.approx(-1.0, abs=1e-12)
        assert doc["is_sosp"] is False

    def test_classify_rejects_radius_out_of_float_range(self, tmp_path, capsys):
        doc = with_value("problem.radius", 1e200)
        cfg_path = write_config(tmp_path, doc)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([0.0] * 8))
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: SmoothnessSpec.L1: must be positive and finite")

    def test_classify_design_too_large_to_allocate(self, tmp_path, capsys):
        # 14.2 PiB: the allocation fails at once
        doc = with_problem({"family": "regularized", "dim": 200, "n": 10**13})
        cfg_path = write_config(tmp_path, doc)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([0.0] * 200))
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Unable to allocate 14.2 PiB")
        assert err.count("\n") == 1

    def test_classify_dimension_mismatch(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([0.0] * 3))
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_classify_rejects_non_finite_point(self, tmp_path, capsys, token):
        # Python's JSON reader accepts these tokens; the point is refused
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(f"[{token}" + ", 0.0" * 7 + "]")
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: point:")

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"x": 0.0}', "point: expected an array of 8 numbers, got dict"),
            ("0.0", "point: expected an array of 8 numbers, got float"),
            ("[1, 2, true" + ", 0" * 5 + "]", "point[2]: expected a number, got True"),
            ('["0"' + ', "0"' * 7 + "]", "point[0]: expected a number, got '0'"),
            ("[[0.0]" + ", 0.0" * 7 + "]", "point[0]: expected a number, got [0.0]"),
            ("[0.0, null" + ", 0.0" * 6 + "]", "point[1]: expected a number, got None"),
            ("[1" + "0" * 400 + ", 0.0" * 7 + "]", "point: int too large to convert to float"),
            ("[0.0, 0.0\n 0.0]", "point: {path}: line 2 column 2: Expecting ',' delimiter"),
            ('{"x": 0.0, "x": 1.0}', "point: {path}: duplicate key 'x'"),
        ],
        ids=["object", "scalar", "boolean", "strings", "nested", "null", "huge-int", "malformed",
             "duplicate-key"],
    )
    def test_classify_rejects_malformed_point(self, tmp_path, capsys, text, message):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(text)
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: {message.format(path=point_path)}\n"

    @pytest.mark.parametrize("flag", ["--eps", "--eps-H"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5", "1.5"])
    def test_classify_rejects_bad_tolerance(self, tmp_path, capsys, flag, value):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([0.0] * 8))
        argv = ["classify", "--config", str(cfg_path), "--point", str(point_path), flag, value]
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: {flag}: must lie in (0, 1)")

    def test_classify_writes_non_finite_results_as_null(self, tmp_path, capsys):
        # the quartic overflows at a finite point: its gradient norm is
        # infinite, and the output stays strict JSON
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([1e200] + [0.0] * 7))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)])
        assert code == 0

        def reject(token):
            raise AssertionError(f"non-JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["gradient_norm"] is None and doc["is_sosp"] is False


class TestReadme:
    """README's config example and name lists follow the code."""

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_run_config_example_parses(self):
        example = re.search(r"`run` consumes a JSON config:\s*```json\n(.*?)```", self.text, re.S)
        cfg = parse_config(json.loads(example.group(1)))
        assert cfg.problem.family in FAMILIES

    def test_python_example_runs(self, capsys):
        example = re.search(r"A minimal end-to-end run:\s*```python\n(.*?)```", self.text, re.S)
        namespace = {}
        exec(example.group(1), namespace)
        assert namespace["outcome"].status == drv.STATUS_CERTIFIED
        assert capsys.readouterr().out.startswith("certified-SOSP PointClassification(")

    @pytest.mark.parametrize("name", [*FAMILIES, *SUITES])
    def test_lists_every_family_and_suite(self, name):
        assert f"`{name}`" in self.text
