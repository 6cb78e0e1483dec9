import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import (
    DeclaredSpecProblem,
    DeclaredSpecStreaming,
    make_quadratic_problem,
    streaming_quadratic,
    subgaussian_check_batch,
)

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
        with pytest.raises(ValueError, match=r"^order: must be 2 or 3, got "):
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
        with pytest.raises(ValueError, match=r"^eps and eps_H must lie in \(0, 1\), got "):
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
        message = rf"^derived {re.escape(name)} is not positive and finite$"
        with pytest.raises(ValueError, match=message):
            configure(problem, eps, eps_H, order=order, overrides={"U": 5})

    @pytest.mark.parametrize("change", [{"eps": 1.0}, {"eps_H": 0.0}, {"U": 0}, {"eta": 0.0}])
    def test_config_fields_checked(self, change):
        cfg = configure(DeclaredSpecProblem(100, 4, spec()), 0.1, 0.5, order=2)
        with pytest.raises(ValueError, match=r"^(eps and eps_H|U|eta) must "):
            dataclasses.replace(cfg, **change)

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

    def test_counter_monotone_in_trace(self):
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

    def test_never_charges(self):
        prob = make_saddle_problem(4, 8, -1.0, seed=13)
        # classify has no counter argument at all; nothing to charge
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
