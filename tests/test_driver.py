import dataclasses
import math

import numpy as np
import pytest

from conftest import DeclaredSpecProblem, DeclaredSpecStreaming

import nestvr.driver as drv
from nestvr import (
    SmoothnessSpec,
    classify_point,
    config_finite_2nd,
    config_finite_3rd,
    config_online_2nd,
    config_online_3rd,
    make_quadratic_problem,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_quadratic_problem,
    nc_descent_step,
    run_driver,
)
from nestvr.problems import _RegularizedLeastSquaresProblem


def spec(L1=1.0, L2=1.0, L3=None, sigma2=1.0, delta_F=1.0):
    return SmoothnessSpec(L1=L1, L2=L2, L3=L3, sigma2=sigma2, delta_F=delta_F)


class TestConfigFormulas:
    def test_finite_2nd_eta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L2=2.0))
        cfg = config_finite_2nd(prob, eps=0.1, eps_H=0.1)
        assert cfg.eta == pytest.approx(0.05, rel=1e-12)

    def test_finite_2nd_delta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L2=1.0, delta_F=1.0))
        cfg = config_finite_2nd(prob, eps=0.1, eps_H=0.1)
        assert cfg.delta == pytest.approx(1e-3 / 144.0, rel=1e-12)

    def test_finite_2nd_iteration_budget(self):
        prob = DeclaredSpecProblem(100, 4, spec(L1=1.0, L2=1.0, delta_F=1.0))
        cfg = config_finite_2nd(prob, eps=0.1, eps_H=0.5)
        assert cfg.U == 18192  # ceil(24 * 8 + 1800 * 100 / 10)

    def test_finite_2nd_base_batch_and_step(self):
        prob = DeclaredSpecProblem(100, 4, spec(L1=3.0))
        cfg = config_finite_2nd(prob, eps=0.1, eps_H=0.1)
        assert cfg.schedule.B0 == 100  # B0 = n, then clamped at n
        assert cfg.schedule.M == pytest.approx(18.0, rel=1e-12)  # 6 L1

    def test_online_2nd_rho_floor_and_M(self):
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L2=1.0, sigma2=1e-4))
        cfg = config_online_2nd(prob, eps=0.1, eps_H=0.5)
        assert cfg.rho == pytest.approx(6.0, rel=1e-12)
        assert cfg.schedule.M == pytest.approx(12.0, rel=1e-12)  # 2 rho L1

    def test_online_2nd_base_batch_flat_branch(self):
        # sigma = 1, eps = 0.1: the flat branch 96 C1 dominates the log branch
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L2=1.0, sigma2=1.0, delta_F=1.0))
        cfg = config_online_2nd(prob, eps=0.1, eps_H=0.5)
        assert cfg.schedule.B0 == 1_920_000  # sigma^2 eps^-2 * 96 * 200
        assert cfg.B0_check == cfg.schedule.B0

    def test_online_2nd_delta(self):
        prob = DeclaredSpecStreaming(4, spec(L2=1.0, delta_F=1.0))
        cfg = config_online_2nd(prob, eps=0.1, eps_H=0.1)
        assert cfg.delta == pytest.approx(1e-3 / 3000.0, rel=1e-12)

    def test_online_2nd_iteration_budget_formula(self):
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L2=1.0, sigma2=1.0, delta_F=1.0))
        cfg = config_online_2nd(prob, eps=0.1, eps_H=0.5)
        B0 = cfg.schedule.B0
        expect = 216 * 8 + 96 * 200 * cfg.rho * 100 / math.sqrt(B0)
        assert cfg.U == math.ceil(expect)

    def test_finite_3rd_eta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L3=1.0))
        cfg = config_finite_3rd(prob, eps=0.1, eps_H=0.3)
        assert cfg.eta == pytest.approx(math.sqrt(0.9), rel=1e-12)

    def test_third_order_step_much_larger(self):
        prob = DeclaredSpecProblem(100, 4, spec(L2=1.0, L3=1.0))
        eta3 = config_finite_3rd(prob, eps=0.1, eps_H=0.01).eta
        eta2 = config_finite_2nd(prob, eps=0.1, eps_H=0.01).eta
        assert eta3 / eta2 == pytest.approx(math.sqrt(0.03) / 0.01, rel=1e-12)  # ~17.3

    def test_finite_3rd_delta(self):
        prob = DeclaredSpecProblem(100, 4, spec(L3=2.0, delta_F=1.0))
        cfg = config_finite_3rd(prob, eps=0.1, eps_H=0.1)
        assert cfg.delta == pytest.approx(0.01 / 144.0, rel=1e-12)

    def test_finite_3rd_requires_L3(self):
        prob = DeclaredSpecProblem(100, 4, spec())
        with pytest.raises(ValueError):
            config_finite_3rd(prob, eps=0.1, eps_H=0.1)

    def test_online_3rd_eta_and_delta(self):
        prob = DeclaredSpecStreaming(4, spec(L3=1.0, delta_F=1.0))
        cfg = config_online_3rd(prob, eps=0.1, eps_H=0.25)
        assert cfg.eta == pytest.approx(0.5, rel=1e-12)
        cfg2 = config_online_3rd(prob, eps=0.1, eps_H=0.1)
        assert cfg2.delta == pytest.approx(1e-5, rel=1e-12)

    def test_online_3rd_rho_floor_and_wide_step(self):
        prob = DeclaredSpecStreaming(4, spec(L1=1.0, L3=1.0, sigma2=1e-4))
        cfg = config_online_3rd(prob, eps=0.1, eps_H=0.25)
        assert cfg.rho == pytest.approx(6.0, rel=1e-12)

    def test_overrides_record_derived_values(self):
        prob = DeclaredSpecProblem(100, 4, spec())
        cfg = config_finite_2nd(prob, eps=0.1, eps_H=0.5, overrides={"U": 7, "M": 2.5})
        assert cfg.U == 7 and cfg.schedule.M == 2.5
        assert cfg.derived["U"] == 18192
        assert cfg.derived["M"] == 6.0
        with pytest.raises(ValueError):
            config_finite_2nd(prob, eps=0.1, eps_H=0.5, overrides={"bogus": 1})

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
            config_finite_2nd(prob, eps=0.1, eps_H=0.5, overrides={key: value})

    def test_integer_like_overrides_accepted(self):
        prob = DeclaredSpecProblem(100, 4, spec())
        cfg = config_finite_2nd(prob, 0.1, 0.5, {"U": np.int64(7), "B0": 16, "M": 12, "eta": 1})
        assert (cfg.U, cfg.schedule.B0, cfg.schedule.M, cfg.eta) == (7, 16, 12.0, 1.0)
        assert type(cfg.U) is int and type(cfg.eta) is float


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
    cfg = config_finite_2nd(prob, eps=1e-3, eps_H=0.1, overrides={"U": U})
    return prob, cfg


class TestRunFinite:
    def test_certifies_at_sosp_start(self):
        # start already second-order stationary: one probe, immediate certificate
        prob = make_quadratic_problem(np.eye(4), 16, seed=1, noise=0.05)
        cfg = config_finite_2nd(prob, eps=0.5, eps_H=0.5, overrides={"U": 10})
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
        cfg = config_finite_2nd(prob, eps=1e-3, eps_H=0.1, overrides={"U": 1})
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

    def test_full_gradient_charged_n_per_check(self):
        prob, cfg = saddle_and_config(seed=7, U=3)
        out = run_driver(prob, cfg, make_rng(23))
        first = out.trace.events[0]
        assert first.kind == "grad-check" and first.grads_cum == prob.n

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("U", [50, 2])
    def test_divergence_is_not_certified(self, U):
        # M far below 6 L1: the step 1/(10 M) overshoots and the epoch of
        # iteration 2 blows the iterate up.  With budget left, the NaN gradient
        # check of iteration 3 must end the run instead of reaching the probe;
        # with U = 2 the budget runs out on the non-finite iterate.
        prob = make_saddle_problem(10, 256, -1.0, seed=7)
        cfg = config_finite_2nd(prob, 1e-3, 0.1, overrides={"U": U, "M": 1e-3})
        out = run_driver(prob, cfg, make_rng(0))
        assert out.status == "diverged"
        assert not np.isfinite(out.z_final).all()
        assert math.isnan(out.final_grad_norm)
        assert out.trace.events[-1].kind == "terminate"
        assert "nc-probe" not in [e.kind for e in out.trace.events if e.u > 1]


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
        cfg = config_finite_2nd(prob, eps=1e-3, eps_H=0.1, overrides={"U": 300})
        gram_run = run_driver(prob, cfg, make_rng(5)).trace.events
        rows_run = run_driver(rows, cfg, make_rng(5)).trace.events
        assert {"epoch", "nc-probe"} <= {e.kind for e in gram_run}
        for field in ("kind", "u", "grads_cum"):
            assert [getattr(e, field) for e in gram_run] == [getattr(e, field) for e in rows_run]
        for got, ref in zip(gram_run, rows_run):
            for field in ("f_value", "grad_norm", "rayleigh"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12)


class TestRunOnline:
    def make_case(self, norm, seed=0):
        x0 = np.zeros(12)
        x0[0] = norm
        prob = make_streaming_quadratic_problem(np.eye(12), seed=seed, noise=0.5, x0=x0)
        cfg = config_online_2nd(
            prob, eps=0.1, eps_H=0.5, overrides={"B0": 64, "U": 1, "M": 12.0}
        )
        cfg = dataclasses.replace(
            cfg, B0_check=drv.subgaussian_check_batch(prob.smoothness.sigma2, 0.1 / 4, 0.05)
        )
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

    def test_check_charged_at_B0_check(self):
        prob, cfg = self.make_case(norm=0.1)
        out = run_driver(prob, cfg, make_rng(41))
        assert out.trace.events[0].grads_cum == cfg.B0_check


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
