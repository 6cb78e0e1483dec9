import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest

from conftest import (
    DeclaredSpecProblem,
    DeclaredSpecStreaming,
    ball_checks,
    make_quadratic_problem,
    streaming_quadratic,
    subgaussian_check_batch,
)
from test_trace_identity import RUNS

from nestvr import (
    DriverConfig,
    RunTrace,
    SmoothnessSpec,
    clamp_schedule,
    classify_point,
    configure,
    derive_schedule,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    nc_descent_step,
    run_driver,
    spawn_rngs,
)
from nestvr import driver, epoch
from nestvr.harness import ConfigError, build_driver_config, build_problem, parse_config
from nestvr.problems import _RegularizedLeastSquaresProblem


def spec(L1=1.0, L2=1.0, L3=1.0, sigma2=1.0, delta_F=1.0):
    return SmoothnessSpec(L1=L1, L2=L2, L3=L3, sigma2=sigma2, delta_F=delta_F)


class TestConfigFormulas:
    def test_finite_2nd_eta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L2=2.0))
        cfg = configure(prob, eps=0.1, eps_H=0.1, order=2)
        assert cfg.eta == pytest.approx(0.05, rel=1e-12)

    def test_finite_2nd_delta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L2=1.0, delta_F=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.1, order=2)
        assert cfg.delta == pytest.approx(1e-3 / 144.0, rel=1e-12)

    def test_finite_2nd_iteration_budget(self):
        prob = DeclaredSpecProblem(100, 4, spec(L1=1.0, L2=1.0, delta_F=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.5, order=2)
        assert cfg.U == 18192  # ceil(24 * 8 + 1800 * 100 / 10)

    def test_finite_2nd_base_batch_and_step(self):
        prob = DeclaredSpecProblem(100, 4, spec(L1=3.0))
        cfg = configure(prob, eps=0.1, eps_H=0.1, order=2)
        assert cfg.schedule.B0 == 100  # B0 = n, then clamped at n
        assert cfg.schedule.M == pytest.approx(18.0, rel=1e-12)  # 6 L1

    def test_online_2nd_rho_floor_and_M(self):
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L2=1.0, sigma2=1e-4))
        cfg = configure(prob, eps=0.1, eps_H=0.5, order=2)
        assert cfg.schedule.M == pytest.approx(12.0, rel=1e-12)  # 2 rho L1 at the floor rho = 6

    def test_online_2nd_base_batch_flat_branch(self):
        # sigma = 1, eps = 0.1: the flat branch 96 C1 dominates the log branch
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L2=1.0, sigma2=1.0, delta_F=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.5, order=2)
        assert cfg.schedule.B0 == 1_920_000  # sigma^2 eps^-2 * 96 * 200

    def test_online_2nd_delta(self):
        prob = DeclaredSpecStreaming(4, spec(L2=1.0, delta_F=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.1, order=2)
        assert cfg.delta == pytest.approx(1e-3 / 3000.0, rel=1e-12)

    def test_online_2nd_iteration_budget_formula(self):
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L2=1.0, sigma2=1.0, delta_F=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.5, order=2)
        B0 = cfg.schedule.B0
        rho = cfg.schedule.M / (2.0 * prob.smoothness.L1)
        expect = 216 * 8 + 96 * 200 * rho * 100 / math.sqrt(B0)
        assert cfg.U == math.ceil(expect)

    def test_finite_3rd_eta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L3=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.3, order=3)
        assert cfg.eta == pytest.approx(math.sqrt(0.9), rel=1e-12)

    def test_third_order_step_much_larger(self):
        prob = DeclaredSpecProblem(100, 4, spec(L2=1.0, L3=1.0))
        eta3 = configure(prob, eps=0.1, eps_H=0.01, order=3).eta
        eta2 = configure(prob, eps=0.1, eps_H=0.01, order=2).eta
        assert eta3 / eta2 == pytest.approx(math.sqrt(0.03) / 0.01, rel=1e-12)  # ~17.3

    def test_finite_3rd_delta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L3=2.0, delta_F=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.1, order=3)
        assert cfg.delta == pytest.approx(0.01 / 144.0, rel=1e-12)

    def test_online_3rd_eta_and_delta(self):
        prob = DeclaredSpecStreaming(4, spec(L3=1.0, delta_F=1.0))
        cfg = configure(prob, eps=0.1, eps_H=0.25, order=3)
        assert cfg.eta == pytest.approx(0.5, rel=1e-12)
        cfg2 = configure(prob, eps=0.1, eps_H=0.1, order=3)
        assert cfg2.delta == pytest.approx(1e-5, rel=1e-12)

    def test_online_3rd_rho_floor_and_wide_step(self):
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L3=1.0, sigma2=1e-4))
        cfg = configure(prob, eps=0.1, eps_H=0.25, order=3)
        assert cfg.schedule.M / (2.0 * prob.smoothness.L1) == pytest.approx(6.0, rel=1e-12)

    def test_overrides_record_derived_values(self):
        prob = DeclaredSpecProblem(100, 4, spec())
        cfg = configure(prob, eps=0.1, eps_H=0.5, order=2, overrides={"U": 7, "M": 2.5})
        assert cfg.U == 7 and cfg.schedule.M == 2.5
        assert cfg.derived["U"] == 18192
        assert cfg.derived["M"] == 6.0
        with pytest.raises(ValueError):
            configure(prob, eps=0.1, eps_H=0.5, order=2, overrides={"bogus": 1})

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("U", 2.5, "expected an integer"),
            ("B0", 4.9, "expected an integer"),
            ("U", True, "expected an integer"),
            ("M", False, "expected a number"),
            ("eta", "0.1", "expected a number"),
            ("M", None, "expected a number"),
            ("B0", 2, "must be >= 4"),
            ("U", 0, "must be >= 1"),
            ("M", -1.0, "must be positive and finite"),
            ("eta", 0.0, "must be positive and finite"),
            ("eta", math.inf, "must be positive and finite"),
        ],
    )
    def test_override_values_checked_by_key(self, key, value, message):
        # a library call is held to the config file's rules: no silent casts
        prob = DeclaredSpecProblem(100, 4, spec())
        with pytest.raises(ValueError, match=rf"^overrides\.{key}: {message}, got "):
            configure(prob, eps=0.1, eps_H=0.5, order=2, overrides={key: value})

    def test_integer_like_overrides_accepted(self):
        prob = DeclaredSpecProblem(100, 4, spec())
        cfg = configure(
            prob, 0.1, 0.5, order=2, overrides={"U": np.int64(7), "B0": 16, "M": 12, "eta": 1}
        )
        assert (cfg.U, cfg.schedule.B0, cfg.schedule.M, cfg.eta) == (7, 16, 12.0, 1.0)
        assert type(cfg.U) is int and type(cfg.eta) is float


#: each oracle family's metadata shell, by name
SHELLS = {
    "finite": lambda s: DeclaredSpecProblem(1000, 4, s),
    "stream": lambda s: DeclaredSpecStreaming(4, s),
}


def stream_base_batch(s, eps, inner):
    """sigma^2 eps^-2 max{64 (1 + log2[2500 C1 inner dF L1 eps^-2]), 96 C1}, at least 4."""
    log_arg = 2500.0 * 200.0 * max(inner, 6.0) * s.delta_F * s.L1 / eps**2
    branch = max(64.0 * (1.0 + math.log2(log_arg)), 96.0 * 200.0)
    return max(4, math.ceil(s.sigma2 / eps**2 * branch))


def theorem_cell(family, order, s, eps, eps_H, n):
    """(U before rounding, eta, delta, B0, M) as the theorem states each
    cell, in the floating-point order of ``configure``."""
    if (family, order) == ("finite", 2):
        U = 24.0 * s.L2**2 * s.delta_F / eps_H**3 + 1800.0 * s.L1 * s.delta_F / (
            eps**2 * math.sqrt(n)
        )
        delta = eps_H**3 / (144.0 * s.L2**2 * s.delta_F)
        return U, eps_H / s.L2, delta, n, 6.0 * s.L1
    if (family, order) == ("finite", 3):
        U = 12.0 * s.L3 * s.delta_F / eps_H**2 + 1800.0 * 600.0 * s.L1 * s.delta_F / (
            eps**2 * math.sqrt(n)
        )
        delta = eps_H**2 / (72.0 * s.L3 * s.delta_F)
        return U, math.sqrt(3.0 * eps_H / s.L3), delta, n, 6.0 * s.L1
    if order == 2:
        B0 = stream_base_batch(s, eps, 54.0 * s.sigma2 * s.L2**2 / (s.L1 * eps_H**3))
        rho = max(54.0 * s.sigma2 * s.L2**2 / (s.L1 * eps_H**3 * math.sqrt(B0)), 6.0)
        U = 216.0 * s.delta_F * s.L2**2 / eps_H**3 + 96.0 * 200.0 * rho * s.delta_F * s.L1 / (
            math.sqrt(B0) * eps**2
        )
        delta = 1.0 / (3000.0 * s.delta_F * s.L2**2 / eps_H**3)
        return U, eps_H / s.L2, delta, B0, 2.0 * rho * s.L1
    B0 = stream_base_batch(s, eps, 36.0 * s.sigma2 * s.L3 / (s.L1 * eps_H**2))
    rho = max(36.0 * s.sigma2 * s.L3 / (s.L1 * eps_H**2 * math.sqrt(B0)), 6.0)
    U = 72.0 * s.delta_F * s.L3 / eps_H**2 + 96.0 * 200.0 * rho * s.delta_F * s.L1 / (
        math.sqrt(B0) * eps**2
    )
    delta = 1.0 / (1000.0 * s.delta_F * s.L3 / eps_H**2)
    return U, math.sqrt(eps_H / s.L3), delta, B0, 2.0 * rho * s.L1


class TestConfigure:
    @pytest.mark.parametrize("overrides", [{}, {"U": 7, "eta": 0.5}])
    @pytest.mark.parametrize(
        "smooth",
        [
            spec(L1=1.0, L2=1.0, L3=1.0, sigma2=1.0, delta_F=1.0),
            spec(L1=2.5, L2=0.4, L3=3.0, sigma2=0.05, delta_F=7.0),
            spec(L1=0.3, L2=5.0, L3=0.2, sigma2=40.0, delta_F=0.5),
            spec(L1=1.0, L2=1.0, L3=1.0, sigma2=1e-7, delta_F=1.0),  # stream B0 floored at 4
        ],
    )
    @pytest.mark.parametrize("eps,eps_H", [(0.1, 0.1), (0.02, 0.3)])
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("family", list(SHELLS))
    def test_every_field_is_the_theorem_cell(self, family, order, eps, eps_H, smooth, overrides):
        problem = SHELLS[family](smooth)
        U, eta, delta, B0, M = theorem_cell(family, order, smooth, eps, eps_H, problem.n)
        values = {"B0": B0, "U": max(1, math.ceil(U)), "M": M, "eta": eta}
        derived = {key: values[key] for key in overrides}
        values.update(overrides)
        schedule = clamp_schedule(derive_schedule(values["B0"], values["M"]), problem.n)
        want = DriverConfig(
            eps=eps,
            eps_H=eps_H,
            U=values["U"],
            eta=values["eta"],
            delta=delta,
            schedule=schedule,
            derived=derived,
        )
        got = configure(problem, eps, eps_H, order=order, overrides=overrides)
        for f in dataclasses.fields(DriverConfig):
            assert getattr(got, f.name) == getattr(want, f.name), f.name

    @pytest.mark.parametrize("order", [1, 4, 2.5, True, "2"])
    @pytest.mark.parametrize("family", list(SHELLS))
    def test_order_must_be_2_or_3(self, family, order):
        problem = SHELLS[family](spec(L3=1.0))
        with pytest.raises(
            ValueError, match=r"^smoothness_order: (must be 2 or 3|expected an integer), got "
        ):
            configure(problem, 0.1, 0.1, order=order)

    @pytest.mark.parametrize("bad", [0.0, math.nan, -0.1, 1.0])
    @pytest.mark.parametrize("name", ["eps", "eps_H"])
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("family", list(SHELLS))
    def test_thresholds_checked_before_use(self, family, order, name, bad):
        # 0 divides by zero and NaN fails an integer conversion inside the
        # formulas; both are rejected before any formula reads them
        problem = SHELLS[family](spec(L3=1.0))
        thresholds = {"eps": 0.1, "eps_H": 0.1, name: bad}
        with pytest.raises(ValueError, match=rf"^{name}: must lie in \(0, 1\), got "):
            configure(problem, thresholds["eps"], thresholds["eps_H"], order=order)

    @pytest.mark.parametrize(
        "order,smooth,eps,eps_H,name",
        [
            (2, spec(L2=1e-200), 0.1, 0.1, "L2^2 = 0.0"),
            (2, spec(L2=1e200), 0.1, 0.1, "L2^2 = inf"),
            (2, spec(), 0.1, 1e-110, "eps_H^3 = 0.0"),
            (3, spec(L3=1.0), 0.1, 1e-170, "eps_H^2 = 0.0"),
            (2, spec(), 1e-200, 0.1, "eps^2 = 0.0"),
        ],
    )
    @pytest.mark.parametrize("family", list(SHELLS))
    def test_powers_out_of_float_range_rejected(self, family, order, smooth, eps, eps_H, name):
        # the formulas divide by these; a float ** that overflows raises,
        # and one that underflows reads 0
        problem = SHELLS[family](smooth)
        power, value = name.split(" = ")
        message = rf"^derived {re.escape(power)}: must be positive and finite, got {value}$"
        with pytest.raises(ValueError, match=message):
            configure(problem, eps, eps_H, order=order, overrides={"U": 5})

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("U", 2.5, "expected an integer"),
            ("U", True, "expected an integer"),
            ("U", np.float64(3.0), "expected an integer"),
            ("U", 0, "must be >= 1"),
            ("eta", math.inf, "must be positive and finite"),
            ("eta", math.nan, "must be positive and finite"),
            ("eta", True, "expected a number"),
            ("eta", 0.0, "must be positive and finite"),
            ("delta", -1.0, "must be positive and finite"),
            ("delta", 0.0, "must be positive and finite"),
            ("delta", math.nan, "must be positive and finite"),
            ("eps", True, "expected a number"),
            ("eps", 1.0, r"must lie in \(0, 1\)"),
            ("eps", "0.1", "expected a number"),
            ("eps_H", 0.0, r"must lie in \(0, 1\)"),
        ],
    )
    def test_config_fields_checked(self, name, value, message):
        # as configure checks them: a float U would fail mid-run, a bool U
        # run one iteration, an infinite eta diverge, and a non-positive
        # delta be floored unseen
        cfg = configure(DeclaredSpecProblem(100, 4, spec()), 0.1, 0.5, order=2)
        with pytest.raises(ValueError, match=rf"^{name}: {message}, got "):
            dataclasses.replace(cfg, **{name: value})

    def test_config_delta_above_one_is_capped_not_rejected(self):
        # run_driver caps a delta above 1/2 before the finder reads it
        cfg = configure(DeclaredSpecProblem(100, 4, spec()), 0.1, 0.5, order=2)
        assert dataclasses.replace(cfg, delta=2.0).delta == 2.0

    def test_family_comes_from_the_problem(self):
        # the criterion-07 saddle, a finite sum, gets the finite-sum formulas,
        # and a stream (n = None) gets the streaming ones
        saddle = make_saddle_problem(10, 256, -1.0, seed=707, radius=1.5)
        s = saddle.smoothness
        cfg = configure(saddle, 1e-3, 0.1, order=2, overrides={"U": 500})
        assert cfg.delta == 0.1**3 / (144.0 * s.L2**2 * s.delta_F)
        assert cfg.schedule.M == 6.0 * s.L1
        stream = make_streaming_saddle_problem(10, -1.0, seed=707, radius=1.5)
        s = stream.smoothness
        cfg = configure(stream, 1e-3, 0.1, order=2, overrides={"U": 500})
        assert cfg.delta == 1.0 / (3000.0 * s.delta_F * s.L2**2 / 0.1**3)
        assert cfg.schedule.M == 2.0 * 6.0 * s.L1  # 2 rho L1 at the floor rho = 6


#: one bad algorithm input each: a field and its value, or an override
BAD_ALGORITHM_INPUTS = [
    *[("smoothness_order", value) for value in (1, 4, 2.5, True, "2")],
    *[(name, value) for name in ("eps", "eps_H") for value in (0, 1, math.nan, "0.1", None, True)],
    ("overrides", {"Q": 1}),
    *[("overrides", {key: value}) for key, value in
      [("B0", 2), ("U", 0), ("U", 2.5), ("M", -1), ("eta", 0), ("M", None)]],
]


@pytest.mark.parametrize("name, value", BAD_ALGORITHM_INPUTS)
@pytest.mark.parametrize("family", list(SHELLS))
def test_configure_rejects_what_configs_reject(family, name, value):
    # one check names the input before any formula reads it, and a config
    # repeats its message under the algorithm. path
    algorithm = {"smoothness_order": 2, "eps": 0.1, "eps_H": 0.1, "overrides": {}, name: value}
    doc = {
        "problem": {"family": "saddle", "dim": 4, "n": 8},
        "algorithm": algorithm,
        "trials": 1,
        "seed": 0,
    }
    with pytest.raises(ConfigError) as config_error:
        parse_config(doc)
    with pytest.raises(ValueError) as library_error:
        configure(
            SHELLS[family](spec()),
            algorithm["eps"],
            algorithm["eps_H"],
            order=algorithm["smoothness_order"],
            overrides=algorithm["overrides"],
        )
    assert type(library_error.value) is ValueError
    assert f"algorithm.{library_error.value}" == str(config_error.value)


class TestNCDescentStep:
    def test_zero_step(self, rng):
        z = rng.standard_normal(4)
        v = np.array([1.0, 0, 0, 0])
        assert np.array_equal(nc_descent_step(z, v, 0.0, rng), z)

    def test_displacement_norm_is_eta(self, rng):
        z = rng.standard_normal(4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        z2 = nc_descent_step(z, v, 0.3, rng)
        assert np.linalg.norm(z2 - z) == pytest.approx(0.3, rel=1e-12)

    def test_sign_averaged_decrease_on_quadratic(self, rng):
        # averaging both signs cancels the linear term exactly on a quadratic
        H = np.diag([2.0, -1.0, 0.5])
        prob = make_quadratic_problem(H, 2, seed=0, noise=0.0, b=np.array([0.3, -0.2, 0.1]))
        z = rng.standard_normal(3)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        eta = 0.2
        avg = 0.5 * (prob.value(z + eta * v) + prob.value(z - eta * v)) - prob.value(z)
        assert avg == pytest.approx(0.5 * eta**2 * float(v @ H @ v), abs=1e-14)

    def test_sign_is_rademacher(self):
        rng = make_rng(3)
        z = np.zeros(2)
        v = np.array([1.0, 0.0])
        signs = {float(nc_descent_step(z, v, 1.0, rng)[0]) for _ in range(100)}
        assert signs == {-1.0, 1.0}


def saddle_and_config(seed=0, U=500):
    prob = make_saddle_problem(10, 256, -1.0, seed=seed, radius=1.5)
    cfg = configure(prob, eps=1e-3, eps_H=0.1, order=2, overrides={"U": U})
    return prob, cfg


class TestRunFinite:
    def test_certifies_at_sosp_start(self):
        # start already second-order stationary: one probe, immediate certificate
        prob = make_quadratic_problem(np.eye(4), 16, seed=1, noise=0.05)
        cfg = configure(prob, eps=0.5, eps_H=0.5, order=2, overrides={"U": 10})
        out = run_driver(prob, cfg, make_rng(5))
        assert out.status == "certified-SOSP"
        kinds = [e.kind for e in out.trace.events]
        assert kinds == ["grad-check", "nc-probe", "terminate"]

    def test_saddle_start_probes_before_any_epoch(self):
        prob, cfg = saddle_and_config(seed=1)
        out = run_driver(prob, cfg, make_rng(7))
        actions = [e.kind for e in out.trace.events if e.kind in ("epoch", "nc-probe", "nc-step")]
        assert actions[0] == "nc-probe"
        assert actions[1] == "nc-step"

    def test_single_iteration_budget_runs_one_epoch(self):
        prob = make_saddle_problem(6, 64, -1.0, seed=2, radius=1.5)
        start = np.full(6, 0.3)
        prob.x0 = start  # gradient here is far above eps
        cfg = configure(prob, eps=1e-3, eps_H=0.1, order=2, overrides={"U": 1})
        out = run_driver(prob, cfg, make_rng(9))
        assert out.status == "budget-exhausted"
        kinds = [e.kind for e in out.trace.events]
        assert kinds == ["grad-check", "epoch", "terminate"]

    def test_escapes_saddle_and_certifies(self):
        prob, cfg = saddle_and_config(seed=3)
        out = run_driver(prob, cfg, make_rng(11))
        assert out.status == "certified-SOSP"
        cls = classify_point(prob, out.z_final, 2e-3, 0.2)
        assert cls.is_sosp

    def test_branch_exclusivity_and_terminal_probe(self):
        prob, cfg = saddle_and_config(seed=4)
        out = run_driver(prob, cfg, make_rng(13))
        per_u = {}
        for e in out.trace.events:
            per_u.setdefault(e.u, []).append(e.kind)
        for u, kinds in per_u.items():
            assert kinds[0] == "grad-check"
            actions = [k for k in kinds if k in ("epoch", "nc-probe")]
            assert len(actions) == 1, f"iteration {u} logged {kinds}"
            if "nc-probe" in kinds and "nc-step" not in kinds:
                assert kinds[-1] == "terminate"  # an abstaining probe is terminal
        assert out.trace.events[-1].kind == "terminate"

    def test_value_evaluated_once_per_point(self, monkeypatch):
        # F is read at the start and after each epoch or escape step; the
        # check, the probe and the terminate event reuse the value of the
        # point they stand on
        prob, cfg = saddle_and_config(seed=3)
        calls = []
        value = prob.value
        monkeypatch.setattr(prob, "value", lambda x: calls.append(1) or value(x))
        out = run_driver(prob, cfg, make_rng(11))
        kinds = [e.kind for e in out.trace.events]
        assert kinds.count("epoch") > 0 and kinds.count("nc-step") > 0
        assert len(calls) == 1 + kinds.count("epoch") + kinds.count("nc-step")
        assert out.trace.events[-1].f_value == value(out.z_final)

    @pytest.mark.parametrize(
        "kind,grads_cum,message", [("bogus", 5, "unknown event kind"), ("epoch", 3, "went backwards")]
    )
    def test_trace_rejects_bad_events(self, kind, grads_cum, message):
        trace = RunTrace()
        trace.add("grad-check", 1, 4)
        with pytest.raises(ValueError, match=message):
            trace.add(kind, 1, grads_cum)
        assert len(trace.events) == 1

    def test_charge_monotone_in_trace(self):
        prob, cfg = saddle_and_config(seed=5)
        out = run_driver(prob, cfg, make_rng(17))
        counts = [e.grads_cum for e in out.trace.events]
        assert counts == sorted(counts)
        assert out.grads_total == counts[-1]

    def test_deterministic_given_seed(self):
        prob, cfg = saddle_and_config(seed=6)
        a = run_driver(prob, cfg, make_rng(19))
        b = run_driver(prob, cfg, make_rng(19))
        assert np.array_equal(a.z_final, b.z_final)
        assert [e.kind for e in a.trace.events] == [e.kind for e in b.trace.events]
        assert [e.grads_cum for e in a.trace.events] == [e.grads_cum for e in b.trace.events]
        assert [e.f_value for e in a.trace.events] == [e.f_value for e in b.trace.events]

    @pytest.mark.parametrize("overrides", [{}, {"B0": 16}])
    def test_full_gradient_charged_n_per_check(self, overrides):
        # the check reads the population, whatever the base batch
        prob = make_saddle_problem(10, 256, -1.0, seed=7, radius=1.5)
        cfg = configure(prob, eps=1e-3, eps_H=0.1, order=2, overrides={"U": 3, **overrides})
        out = run_driver(prob, cfg, make_rng(23))
        first = out.trace.events[0]
        assert first.kind == "grad-check" and first.grads_cum == prob.n == 256

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("U", [50, 2])
    def test_divergence_is_not_certified(self, U):
        # M far below 6 L1: the step 1/(10 M) overshoots and the epoch of
        # iteration 2 blows the iterate up.  With budget left, the NaN gradient
        # check of iteration 3 must end the run instead of reaching the probe;
        # with U = 2 the budget runs out on the non-finite iterate.
        prob = make_saddle_problem(10, 256, -1.0, seed=7)
        cfg = configure(prob, 1e-3, 0.1, order=2, overrides={"U": U, "M": 1e-3})
        out = run_driver(prob, cfg, make_rng(0))
        assert out.status == "diverged"
        assert not np.isfinite(out.z_final).all()
        assert math.isnan(out.final_grad_norm)
        assert out.trace.events[-1].kind == "terminate"
        assert "nc-probe" not in [e.kind for e in out.trace.events if e.u > 1]


    def test_escape_step_out_of_the_ball_is_flagged(self):
        # the step eta = eps_H / L2 = 1/3 is wider than the certified radius
        prob = make_saddle_problem(dim=4, n=16, negative_eigenvalue=-1.0, seed=1, radius=0.05)
        cfg = configure(prob, 1e-3, 0.1, order=2, overrides={"U": 1})
        out = run_driver(prob, cfg, make_rng(0))
        assert [e.kind for e in out.trace.events] == ["grad-check", "nc-probe", "nc-step", "terminate"]
        assert np.linalg.norm(out.z_final - prob.x0) == pytest.approx(1 / 3)
        assert out.out_of_domain

    def test_gram_population_queries_keep_the_run(self):
        # the regularized family answers population queries from its Gram
        # matrix; answering them from the index-order rows instead changes
        # no branch, count or charge, and the logged values only at roundoff
        class RowPopulation(_RegularizedLeastSquaresProblem):
            def _indices(self, idx):
                return np.arange(self.n) if np.ndim(idx) == 0 else idx

            def batch_grad(self, x, idx):
                return super().batch_grad(x, self._indices(idx))

            def batch_grad_diff(self, x, y, idx):
                return super().batch_grad_diff(x, y, self._indices(idx))

            def full_grad(self, x):
                return super().batch_grad(x, np.arange(self.n))

            def hessian(self, x):
                return self.A.T @ self.A / self.n + np.diag(self._reg_hess_diag(x))

        prob = make_regularized_problem(20, 300, seed=0)
        rows = RowPopulation(prob.A, prob.y)
        cfg = configure(prob, eps=1e-3, eps_H=0.1, order=2, overrides={"U": 300})
        gram_run = run_driver(prob, cfg, make_rng(5)).trace.events
        rows_run = run_driver(rows, cfg, make_rng(5)).trace.events
        assert {"epoch", "nc-probe"} <= {e.kind for e in gram_run}
        for field in ("kind", "u", "grads_cum"):
            assert [getattr(e, field) for e in gram_run] == [getattr(e, field) for e in rows_run]
        for got, ref in zip(gram_run, rows_run):
            for field in ("f_value", "grad_norm", "rayleigh"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12)

    def test_regularized_certifies_at_order_3(self):
        # the declared L3 = 24 sets the step and the finder's failure probability
        prob = make_regularized_problem(20, 500, seed=3)
        eps, eps_H = 3e-3, 0.1
        cfg = configure(prob, eps, eps_H, order=3, overrides={"U": 300})
        assert cfg.eta == math.sqrt(3.0 * eps_H / 24.0)
        assert cfg.delta == eps_H**2 / (72.0 * 24.0 * prob.smoothness.delta_F)
        for seed in range(3):
            out = run_driver(prob, cfg, make_rng(seed))
            assert out.status == "certified-SOSP" and not out.out_of_domain
            assert classify_point(prob, out.z_final, eps, eps_H).is_sosp


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_saddle_problem(10, 256, -1.0, seed=707, radius=1.5),
        lambda: make_streaming_saddle_problem(10, -1.0, seed=707, radius=1.5),
    ],
    ids=["saddle", "streaming-saddle"],
)
def test_saddle_families_certify_at_order_3_on_fewer_gradients(make):
    # the order-3 escape step is longer than the order-2 step eps_H / L2, so
    # the same seeds certify on fewer charged gradients
    prob = make()
    eps, eps_H = 1e-3, 0.1
    runs = {}
    for order in (2, 3):
        cfg = configure(prob, eps, eps_H, order=order, overrides={"U": 500})
        runs[order] = [run_driver(prob, cfg, rng) for rng in spawn_rngs(5, 8)]
    for out in runs[3]:
        assert out.status == "certified-SOSP" and not out.out_of_domain
        assert classify_point(prob, out.z_final, eps, eps_H).is_sosp
    median = {order: np.median([out.grads_total for out in outs]) for order, outs in runs.items()}
    assert median[3] < median[2]


class TestRunOnline:
    def make_case(self, norm, seed=0):
        x0 = np.zeros(12)
        x0[0] = norm
        prob = streaming_quadratic(np.eye(12), seed=seed, noise=0.5, x0=x0)
        B0 = subgaussian_check_batch(prob.smoothness.sigma2, 0.1 / 4, 0.05)
        cfg = configure(prob, eps=0.1, eps_H=0.5, order=2, overrides={"B0": B0, "U": 1, "M": 12.0})
        return prob, cfg

    def test_grad_check_fires_above_threshold(self):
        prob, cfg = self.make_case(norm=0.1)  # true norm == eps
        out = run_driver(prob, cfg, make_rng(29))
        kinds = [e.kind for e in out.trace.events]
        assert "epoch" in kinds  # fired: took the descent branch

    def test_grad_check_abstains_below_threshold(self):
        prob, cfg = self.make_case(norm=0.1 / 8)
        out = run_driver(prob, cfg, make_rng(31))
        kinds = [e.kind for e in out.trace.events]
        assert "nc-probe" in kinds and "epoch" not in kinds

    def test_deterministic_trace(self):
        prob, cfg = self.make_case(norm=0.05, seed=1)
        a = run_driver(prob, cfg, make_rng(37))
        b = run_driver(prob, cfg, make_rng(37))
        assert [e.kind for e in a.trace.events] == [e.kind for e in b.trace.events]
        assert [e.grads_cum for e in a.trace.events] == [e.grads_cum for e in b.trace.events]
        assert np.array_equal(a.z_final, b.z_final)

    def test_check_charged_at_base_batch(self):
        prob, cfg = self.make_case(norm=0.1)
        out = run_driver(prob, cfg, make_rng(41))
        first = out.trace.events[0]
        assert first.kind == "grad-check" and first.grads_cum == cfg.schedule.B0


def visited_run(problem, cfg, seed, radius):
    """Run the driver from ``make_rng(seed)`` on a ``ball_checks`` copy of
    ``problem`` whose certified radius is ``radius``, which moves no step
    once ``cfg`` is made.  Returns the outcome, the copy, the points the run
    visited in order (each epoch's x_1 .. x_T and each escape step) and, for
    each, ``("epoch", k)`` or ``("escape", k)`` for the k-th such call."""
    prob = ball_checks(problem)
    prob.smoothness = dataclasses.replace(problem.smoothness, radius=radius)
    points, kinds, calls = [], [], {"epoch": 0, "escape": 0}

    def visit(kind, new):
        points.extend(new)
        kinds.extend([(kind, calls[kind])] * len(new))
        calls[kind] += 1

    def run_epoch(x0, problem, schedule, rng, log, anchor):
        start = len(problem.steps)
        res = epoch.run_epoch(x0, problem, schedule, rng, log, anchor)
        # every step's call after the first is at x_1 .. x_{T-1}; the first,
        # at x0, is the anchor's, which a passed anchor leaves unmade
        first = int(anchor is None)
        visit("epoch", [x for x, *_ in problem.steps[start + first :]] + [res.x_out] * bool(res.T))
        return res

    def escape(*args):
        z = nc_descent_step(*args)
        visit("escape", [z])
        return z

    with mock.patch.object(driver, "run_epoch", run_epoch), mock.patch.object(
        driver, "nc_descent_step", escape
    ):
        out = run_driver(prob, cfg, make_rng(seed))
    return out, prob, np.array(points), kinds


class TestRunBallFlag:
    """A run's ``out_of_domain`` is a check of every point it visits, made a
    chunk at a time by one log whose chunks span epochs and escape steps."""

    ROWS = 40  # BALL_CHECK_BYTES is patched to this many points at d = 4

    FAMILIES = {
        "saddle": lambda seed: make_saddle_problem(4, 32, -1.0, seed=seed, radius=1.0),
        "streaming-saddle": lambda seed: make_streaming_saddle_problem(4, -1.0, seed=seed, radius=1.0),
    }

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(epoch, "BALL_CHECK_BYTES", self.ROWS * 8 * 4)

    def free_run(self, family, seed, overrides):
        """The run without a ball, so that every stack is checked: its
        problem, config, stacks, visited points and their kinds."""
        prob = self.FAMILIES[family](seed)
        cfg = configure(prob, 1e-3, 0.1, order=2, overrides={"U": 60, **overrides})
        _, free, points, kinds = visited_run(prob, cfg, seed, None)
        return prob, cfg, free.stacks, points, kinds

    def ball_run(self, prob, cfg, seed, radius, points):
        """The same run with the certified ``radius``: its outcome, and
        whether each visited point is outside the ball."""
        out, ball, visited, _ = visited_run(prob, cfg, seed, radius)
        assert visited.tobytes() == points.tobytes()
        # every visited point is checked once and in order, until one is out
        checked = np.concatenate(ball.stacks)
        assert checked.tobytes() == points[: len(checked)].tobytes()
        outside = np.array([ball.outside_ball(p) for p in points])
        assert out.out_of_domain == outside.any()
        return out, outside

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("q", [0.5, 0.98, 1.0, 1.01])
    def test_flag_is_any_visited_point_outside(self, family, q):
        # radii at quantiles of the run's distances from x0, and beyond them
        spans = mid_epoch = flags = 0
        for seed in range(3):
            prob, cfg, stacks, points, kinds = self.free_run(family, seed, {})
            ends = np.cumsum([len(s) for s in stacks])[:-1]
            spans += any(kinds[e - len(s)] != kinds[e - 1] for s, e in zip(stacks, ends))
            mid_epoch += any(kinds[e - 1] == kinds[e] for e in ends)
            d = np.linalg.norm(points - prob.x0, axis=1)
            out, _ = self.ball_run(prob, cfg, seed, q * np.quantile(d, min(q, 1.0)), points)
            flags += out.out_of_domain
        assert spans and mid_epoch
        assert flags == (3 if q < 1.0 else 0)

    @pytest.mark.parametrize(
        "case,family",
        [
            ("early-epoch", "saddle"),
            ("final-partial-chunk", "saddle"),
            ("final-partial-chunk", "streaming-saddle"),
            ("escape-step", "saddle"),
            ("escape-step", "streaming-saddle"),
        ],
    )
    def test_one_excursion_is_flagged(self, monkeypatch, case, family):
        # the radius puts one group of points outside and every other point
        # inside: the epoch that holds the farthest point, when a step of
        # 1 / (10 M) overshoots the minimizer and comes back; the last stack,
        # checked only when the run ends; or the escape steps, when eta = 2
        # is longer than the path back to the minimizer
        overrides = {"early-epoch": {"M": 0.12}, "escape-step": {"eta": 2.0}}.get(case, {})
        # the overshooting runs visit about 22 points: chunks of 8 split them
        rows = 8 if case == "early-epoch" else self.ROWS
        monkeypatch.setattr(epoch, "BALL_CHECK_BYTES", rows * 8 * 4)
        for seed in range(3):
            prob, cfg, stacks, points, kinds = self.free_run(family, seed, overrides)
            d = np.linalg.norm(points - prob.x0, axis=1)
            last = len(points) - len(stacks[-1])  # the last stack's first point
            far = kinds[int(d.argmax())]
            if case == "early-epoch":
                group = np.array([k == far for k in kinds])
            elif case == "escape-step":
                group = np.array([k[0] == "escape" for k in kinds])
            else:
                group = np.arange(len(points)) >= last
            inner, outer = d[~group].max(), d[group].max()
            assert outer > inner * (1 + 1e-6)
            out, outside = self.ball_run(prob, cfg, seed, (inner + outer) / 2, points)
            assert out.out_of_domain and not (outside & ~group).any()
            if case == "early-epoch":
                # an epoch before the last, caught before the run ends
                assert far[0] == "epoch" and kinds[-1] != far
                assert not outside[last:].any()
            elif case == "final-partial-chunk":
                assert len(stacks[-1]) < max(cfg.schedule.T[-1], rows)


def test_ball_is_checked_per_run_not_per_epoch():
    # saddle-d10's shape, d = 10, n = 256 and derive_schedule(256) clamped:
    # its epochs average 16 steps, so a check per epoch made about 220 per
    # run, where a run's chunk of 3276 points makes one per chunk it fills
    # and one when the run ends
    for seed in range(3):
        prob = ball_checks(make_saddle_problem(10, 256, -1.0, seed=seed, radius=1.5))
        cfg = configure(prob, 1e-3, 0.1, order=2, overrides={"U": 500})
        assert cfg.schedule == clamp_schedule(derive_schedule(256, M=cfg.schedule.M), 256)
        out = run_driver(prob, cfg, make_rng(seed))
        epochs = sum(e.kind == "epoch" for e in out.trace.events)
        visited = sum(map(len, prob.stacks))
        assert not out.out_of_domain and epochs > 100
        assert 1 <= len(prob.stacks) <= 1 + visited // (3276 - 3) <= 3


def anchored_run(problem, cfg, seed, drop=False):
    """Run the driver from ``make_rng(seed)``; return its outcome and, per
    epoch, the start point, the anchor the driver passed and the length.
    With ``drop``, every epoch samples its own anchor, as it did before the
    gradient test's was passed on."""
    epochs = []

    def run_epoch(x0, problem, schedule, rng, log, anchor):
        res = epoch.run_epoch(x0, problem, schedule, rng, log, None if drop else anchor)
        epochs.append((x0, anchor, res.T))
        return res

    with mock.patch.object(driver, "run_epoch", run_epoch):
        out = run_driver(problem, cfg, make_rng(seed))
    return out, epochs


class TestAnchorReuse:
    """On a finite sum with B0 = n, the gradient test's population gradient
    is the level-0 anchor of the epoch it starts: the run keeps every bit but
    is charged B0 less per epoch of length T >= 1."""

    REUSED = {
        "saddle": (lambda seed: make_saddle_problem(10, 256, -1.0, seed=seed, radius=1.5), {"U": 300}),
        # an override above n is clamped to B0 = n
        "saddle-B0-above-n": (
            lambda seed: make_saddle_problem(6, 64, -1.0, seed=seed, radius=1.5),
            {"U": 200, "B0": 1024},
        ),
        "regularized": (lambda seed: make_regularized_problem(20, 400, seed=seed), {"U": 200}),
    }

    @pytest.mark.parametrize("family", REUSED)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_reuse_keeps_the_run_and_saves_B0_per_epoch(self, family, seed):
        make, overrides = self.REUSED[family]
        prob = make(seed)
        cfg = configure(prob, 1e-3, 0.1, order=2, overrides=overrides)
        B0 = cfg.schedule.B0
        assert B0 == prob.n
        out, epochs = anchored_run(prob, cfg, seed)
        plain, plain_epochs = anchored_run(prob, cfg, seed, drop=True)
        assert len(epochs) > 10 and any(T == 0 for *_, T in epochs)
        assert [T for *_, T in epochs] == [T for *_, T in plain_epochs]
        for x0, anchor, _ in epochs:
            assert anchor.tobytes() == prob.sample_batch_grad(x0, prob.n, make_rng(0)).tobytes()
        fields = ("kind", "u", "f_value", "grad_norm", "rayleigh")
        assert [[getattr(e, f) for f in fields] for e in out.trace.events] == [
            [getattr(e, f) for f in fields] for e in plain.trace.events
        ]
        assert out.status == plain.status and out.z_final.tobytes() == plain.z_final.tobytes()
        # each event's count is B0 below the plain run's per anchored epoch
        # of length T >= 1 so far
        lengths, saved = iter([T for *_, T in epochs]), 0
        for a, b in zip(out.trace.events, plain.trace.events):
            if a.kind == "epoch":
                saved += B0 * (next(lengths) >= 1)
            assert b.grads_cum - a.grads_cum == saved
        assert plain.grads_total - out.grads_total == B0 * sum(T >= 1 for *_, T in epochs) == saved

    # each run's grads_total, as counted before any anchor was passed: these
    # runs sample their own anchors, so their counts must not move
    SAMPLED = {
        "saddle-B0-below-n": (
            lambda: make_saddle_problem(6, 64, -1.0, seed=4, radius=1.5), {"U": 80, "B0": 16}, 47184
        ),
        "regularized-B0-below-n": (
            lambda: make_regularized_problem(8, 120, seed=4), {"U": 80, "B0": 32}, 78576
        ),
        "streaming-saddle": (
            lambda: make_streaming_saddle_problem(6, -1.0, seed=4, radius=1.5),
            {"U": 80},
            259667370251088,
        ),
    }

    @pytest.mark.parametrize("family", SAMPLED)
    def test_no_anchor_below_n_or_on_a_stream(self, family):
        make, overrides, grads_total = self.SAMPLED[family]
        prob = make()
        cfg = configure(prob, 1e-3, 0.1, order=2, overrides=overrides)
        assert prob.n is None or cfg.schedule.B0 < prob.n
        out, epochs = anchored_run(prob, cfg, 5)
        assert len(epochs) > 10
        assert all(anchor is None for _, anchor, _ in epochs)
        assert out.grads_total == grads_total


class TestClassifyPoint:
    def test_saddle_origin(self):
        prob = make_saddle_problem(4, 8, -1.0, seed=11)
        cls = classify_point(prob, np.zeros(4), eps=0.5, eps_H=0.5)
        assert cls.gradient_norm == pytest.approx(0.0, abs=1e-14)
        assert cls.lambda_min == pytest.approx(-1.0, abs=1e-12)
        assert not cls.is_sosp

    def test_local_minimum_of_saddle(self):
        # at (0, ..., +-1) the Hessian is diag(1, ..., -1 + 3) -> lambda_min = 1
        prob = make_saddle_problem(2, 1, -1.0, seed=12)
        x = np.array([0.0, 1.0])
        cls = classify_point(prob, x, eps=1e-8, eps_H=0.5)
        assert cls.gradient_norm <= 1e-12
        assert cls.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert cls.is_sosp

    def test_loose_thresholds(self, rng):
        prob = make_quadratic_problem(np.eye(3), 4, seed=3, noise=0.05)
        z = 1e-3 * rng.standard_normal(3)
        assert classify_point(prob, z, eps=1.0, eps_H=1.0).is_sosp

    @pytest.mark.parametrize("make", [
        lambda: make_saddle_problem(4, 8, -1.0, seed=11),
        lambda: make_streaming_saddle_problem(4, -1.0, seed=11),
    ])
    def test_saddle_families_build_no_dense_hessian(self, make, monkeypatch):
        prob = make()
        core = getattr(prob, "core", prob)
        monkeypatch.setattr(core, "hessian", lambda x: pytest.fail("dense Hessian built"))
        x = np.array([0.0, 0.5, 0.0, 0.0])
        assert classify_point(prob, x, eps=0.5, eps_H=0.5).lambda_min == -1.0

    def test_never_charges(self):
        prob = make_saddle_problem(4, 8, -1.0, seed=13)
        # classify takes no tally and returns no charge: nothing to count
        classify_point(prob, prob.x0, 0.1, 0.1)


def test_running_minimum_of_prepoch_gradients_nonincreasing():
    prob, cfg = saddle_and_config(seed=14)
    out = run_driver(prob, cfg, make_rng(43))
    pre_epoch = [
        e.grad_norm
        for e in out.trace.events
        if e.kind == "grad-check"
    ]
    running = np.minimum.accumulate(pre_epoch)
    assert all(running[i + 1] <= running[i] for i in range(len(running) - 1))


@pytest.mark.parametrize("run", ["saddle", "regularized-subsampled", "streaming-saddle"])
def test_each_count_step_is_its_phase_charge(run):
    # the trace's counts are the run's one tally: a gradient test adds its
    # batch (n on a finite sum, B0 on a stream), an epoch or a probe adds the
    # grads_used it returned, and an escape step or the end adds nothing
    problem_doc, algorithm, _ = RUNS[run]
    config = parse_config({"problem": {**problem_doc, "seed": 3}, "algorithm": algorithm, "trials": 1, "seed": 11})
    prob = build_problem(config.problem, config.seed)
    cfg = build_driver_config(prob, config.algorithm)
    returned = []

    def spy(kind, phase):
        def wrapped(*args):
            out = phase(*args)
            returned.append((kind, out.grads_used))
            return out

        return wrapped

    with (
        mock.patch.object(driver, "run_epoch", spy("epoch", driver.run_epoch)),
        mock.patch.object(driver, "find_nc_direction_finite", spy("nc-probe", driver.find_nc_direction_finite)),
        mock.patch.object(driver, "find_nc_direction_online", spy("nc-probe", driver.find_nc_direction_online)),
    ):
        out = run_driver(prob, cfg, make_rng(11))
    check = prob.n if prob.is_finite_sum else cfg.schedule.B0
    phases = iter(returned)
    want, counts = [], [0]
    for ev in out.trace.events:
        if ev.kind == "grad-check":
            want.append(("grad-check", check))
        elif ev.kind in ("epoch", "nc-probe"):
            want.append(next(phases))
        else:
            want.append((ev.kind, 0))
        counts.append(ev.grads_cum)
    assert next(phases, None) is None
    assert [(ev.kind, b - a) for ev, a, b in zip(out.trace.events, counts, counts[1:])] == want
    assert {"epoch", "nc-probe"} <= {ev.kind for ev in out.trace.events}
    assert type(out.grads_total) is int and out.grads_total == counts[-1]
