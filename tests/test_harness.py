import csv
import json
import math

import pytest

from nestvr import classify_point, clamp_schedule, derive_schedule, make_regularized_problem
from nestvr.harness import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    cli_main,
    load_config,
    parse_config,
    run_experiment,
    run_verify_suite,
    verify_epoch_decrease,
    verify_geometric_tail_inequality,
    verify_schedule_identities,
    verify_series_domination,
    verify_subsample_variance,
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


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(BASE_CONFIG)
        again = parse_config(cfg.to_dict())
        assert again == cfg

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
        for family, extra in [
            ("saddle", {"n": 8}),
            ("regularized", {"n": 16}),
            ("streaming-saddle", {}),
            ("streaming-quadratic", {}),
        ]:
            doc = {"family": family, "dim": 4, **extra}
            cfg = parse_config(dict(BASE_CONFIG, problem=doc))
            problem = build_problem(cfg.problem, cfg.seed)
            assert problem.dim == 4


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


class TestVerifySuites:
    def test_schedule_identities(self):
        assert verify_schedule_identities().passed

    def test_geometric_tail(self, rng):
        res = verify_geometric_tail_inequality(rng, cases=60)
        assert res.passed

    def test_geometric_tail_tight_case(self):
        # a(j) = 1, b(k) = k: both sides equal (1-p)/p; truncated sums agree
        for p in (0.1, 0.5, 0.9):
            q = 1.0 - p
            k_star = math.ceil(math.log(1e-16) / math.log(q)) + 10
            lhs = q / p * sum(p * q**k for k in range(k_star))
            rhs = sum(p * q**k * k for k in range(k_star))
            assert lhs == pytest.approx(q / p, rel=1e-12)
            assert rhs == pytest.approx(q / p, rel=1e-10)

    def test_subsample_variance(self, rng):
        assert verify_subsample_variance(rng, families=15, draws=40_000).passed

    def test_series_domination(self):
        assert verify_series_domination().passed

    def test_epoch_decrease_smoke(self, rng):
        problem = make_regularized_problem(dim=20, n=300, seed=1)
        schedule = clamp_schedule(derive_schedule(64, M=6.0 * problem.smoothness.L1), 300)
        report = verify_epoch_decrease(problem, schedule, trials=60, rng=rng)
        assert report.passed
        assert report.lhs_mean <= report.rhs_mean + report.allowance

    def test_epoch_decrease_with_base_batch_equal_n(self, rng):
        # B0 = n: the variance term drops out (indicator zero) and the
        # inequality must hold on the descent term alone
        problem = make_regularized_problem(dim=20, n=256, seed=3)
        schedule = clamp_schedule(derive_schedule(256, M=6.0 * problem.smoothness.L1), 256)
        report = verify_epoch_decrease(problem, schedule, trials=120, rng=rng)
        assert report.passed

    def test_epoch_decrease_full_batch_override(self, rng):
        # degenerate mode: clamping at n = B0 sets every batch to [n]; the
        # check still runs
        problem = make_regularized_problem(dim=10, n=128, seed=4)
        schedule = clamp_schedule(derive_schedule(128, M=6.0 * problem.smoothness.L1), 128)
        report = verify_epoch_decrease(problem, schedule, trials=80, rng=rng)
        assert report.passed

    def test_epoch_decrease_rejects_small_M(self, rng):
        problem = make_regularized_problem(dim=4, n=20, seed=2)
        schedule = clamp_schedule(derive_schedule(16, M=1.0), 20)
        with pytest.raises(ValueError):
            verify_epoch_decrease(problem, schedule, trials=5, rng=rng)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_verify_suite(["nonsense"], seed=0)


class TestCli:
    def test_derive_schedule_json(self, capsys):
        assert cli_main(["derive-schedule", "--b0", "256"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["K"] == 3 and doc["T"] == [2, 2, 4]
        assert doc["B"] == [55296, 2304, 96]
        assert doc["expected_epoch_cost"] == 242944

    def test_derive_schedule_rejects_small_base(self, capsys):
        assert cli_main(["derive-schedule", "--b0", "2"]) == 1

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

    def test_run_malformed_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE_CONFIG, mystery=1))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_verify_fast_suites_pass(self, capsys):
        assert cli_main(["verify", "--suite", "schedule"]) == 0
        assert cli_main(["verify", "--suite", "series-domination"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_unknown_suite_exits_1(self):
        assert cli_main(["verify", "--suite", "wat"]) == 1

    def test_verify_failure_exits_2(self, monkeypatch, capsys):
        import nestvr.harness as hz

        def failing(names, seed):
            return [hz.SuiteResult("schedule", False, "forced failure")]

        monkeypatch.setattr(hz, "run_verify_suite", failing)
        assert cli_main(["verify", "--suite", "schedule"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_run_accepts_jobs_flag(self, tmp_path):
        cfg = dict(BASE_CONFIG, trials=2)
        cfg["algorithm"] = dict(cfg["algorithm"], overrides={"U": 20})
        path = write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "j"),
                         "--jobs", "2"]) == 0

    def test_classify_subcommand(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([0.0] * 8))
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_min"] == pytest.approx(-1.0, abs=1e-12)
        assert doc["is_sosp"] is False

    def test_classify_dimension_mismatch(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        point_path = tmp_path / "pt.json"
        point_path.write_text(json.dumps([0.0] * 3))
        assert cli_main(["classify", "--config", str(cfg_path), "--point", str(point_path)]) == 1
