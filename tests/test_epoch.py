import dataclasses
import math

import numpy as np
import pytest

from nestvr import (
    GradCounter,
    clamp_schedule,
    derive_schedule,
    draw_epoch_length,
    exact_expected_epoch_cost,
    expected_epoch_cost,
    make_quadratic_problem,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    reset_level,
    run_epoch,
    update_reference_gradients,
    update_reference_points,
)


@pytest.fixture
def sched256():
    return derive_schedule(256, M=6.0)


class TestResetLevel:
    def test_zero_resets_everything(self, sched256):
        assert reset_level(0, sched256) == 0

    @pytest.mark.parametrize(
        "t,expected", [(1, 3), (2, 3), (3, 3), (4, 2), (8, 1), (12, 2), (16, 0), (17, 3)]
    )
    def test_hand_evaluated_levels(self, sched256, t, expected):
        # divisors for K=3, T=(2,2,4): 16, 8, 4, 1
        assert reset_level(t, sched256) == expected

    def test_level_zero_iff_full_period(self, sched256):
        period = sched256.loop_product
        for t in range(0, 4 * period):
            assert (reset_level(t, sched256) == 0) == (t % period == 0)

    def test_negative_rejected(self, sched256):
        with pytest.raises(ValueError):
            reset_level(-1, sched256)


class TestReferencePoints:
    def test_full_reset(self):
        old = [np.zeros(2) + i for i in range(4)]
        x = np.full(2, 9.0)
        new = update_reference_points(old, x, 0)
        assert all(np.array_equal(ref, x) for ref in new)

    def test_minimal_reset_touches_only_last(self):
        old = [np.zeros(2) + i for i in range(4)]
        x = np.full(2, 9.0)
        new = update_reference_points(old, x, 3)
        assert all(np.array_equal(new[i], old[i]) for i in range(3))
        assert np.array_equal(new[3], x)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            update_reference_points([np.zeros(2)] * 3, np.zeros(2), 3)


class TestReferenceGradients:
    def test_anchor_reset_zeroes_higher_levels(self, sched256, rng):
        prob = make_saddle_problem(4, 60000, -1.0, seed=1)
        counter = GradCounter()
        x = np.full(4, 0.3)
        refs = [x] * 4
        old = [np.ones(4)] * 4
        new = update_reference_gradients(old, refs, 0, prob, sched256, rng, counter)
        assert all(np.all(new[l] == 0.0) for l in range(1, 4))
        # anchor plus the zero refreshes of levels 1..K are all charged
        assert counter.count == 256 + 2 * (55296 + 2304 + 96)

    def test_sum_after_anchor_is_anchor(self, sched256, rng):
        prob = make_saddle_problem(4, 60000, -1.0, seed=1)
        refs = [np.full(4, 0.3)] * 4
        new = update_reference_gradients(
            [np.ones(4)] * 4, refs, 0, prob, sched256, rng, GradCounter()
        )
        assert np.array_equal(np.sum(new, axis=0), new[0])

    def test_equal_reference_points_give_zero_correction(self, sched256, rng):
        prob = make_saddle_problem(4, 60000, -1.0, seed=1)
        x = np.full(4, 0.3)
        refs = [x, x, x, x]
        counter = GradCounter()
        new = update_reference_gradients(
            [np.ones(4)] * 4, refs, 2, prob, sched256, rng, counter
        )
        assert np.allclose(new[2], 0.0, atol=1e-15)
        # levels below r preserved
        assert np.array_equal(new[0], np.ones(4))
        assert np.array_equal(new[1], np.ones(4))
        # level r charged 2 B_r, level r+1..K zero-refreshed at 2 B_l each
        assert counter.count == 2 * 2304 + 2 * 96

    def test_full_batch_anchor_is_exact_gradient(self, rng):
        prob = make_saddle_problem(4, 16, -1.0, seed=2)
        sched = clamp_schedule(derive_schedule(16, M=6.0), 16)
        x = np.full(4, 0.2)
        new = update_reference_gradients(
            [np.zeros(4)] * 3, [x] * 3, 0, prob, sched, rng, GradCounter()
        )
        assert np.allclose(new[0], prob.full_grad(x), atol=1e-14)


class TestGeometricLength:
    def test_inverse_cdf_bounds(self, rng):
        for _ in range(1000):
            T, truncated = draw_epoch_length(0.2, rng, cap=10**6)
            assert T >= 0 and not truncated

    def test_cap_flags_truncation(self):
        rng = make_rng(0)
        T, truncated = draw_epoch_length(1e-9, rng, cap=5)
        assert T == 5 and truncated

    def test_mean_and_pmf(self):
        # B0=256 schedule: p = 1/17, mean (1-p)/p = 16
        p = 1.0 / 17.0
        rng = make_rng(99)
        u = 1.0 - rng.random(100_000)
        T = np.floor(np.log(u) / math.log1p(-p)).astype(int)
        assert abs(T.mean() - 16.0) <= 0.5
        for k in (0, 1, 2):
            want = p * (1 - p) ** k
            got = float((T == k).mean())
            se = math.sqrt(want * (1 - want) / T.size)
            assert abs(got - want) <= 3 * se

    def test_invalid_parameter_rejected(self, rng):
        with pytest.raises(ValueError):
            draw_epoch_length(0.0, rng, cap=10)
        with pytest.raises(ValueError):
            draw_epoch_length(1.0, rng, cap=10)


class TestRunEpoch:
    def test_zero_length_is_identity_and_free(self):
        prob = make_saddle_problem(3, 8, -1.0, seed=3)
        sched = clamp_schedule(derive_schedule(4, M=6.0), 8)
        counter = GradCounter()
        res = run_epoch(prob.x0, prob, sched, make_rng(0), counter, length_override=0)
        assert res.T == 0
        assert np.array_equal(res.x_out, prob.x0)
        assert res.grads_used == 0 and counter.count == 0

    def test_single_full_gradient_step(self):
        # one-component quadratic F(x) = |x|^2 / 2 with every batch clamped to 1:
        # a single step contracts by exactly (1 - 1/(10 M))
        prob = make_quadratic_problem(np.eye(3), 1, seed=0, noise=0.0, x0=np.full(3, 2.0))
        sched = clamp_schedule(derive_schedule(4, M=6.0), 1)
        res = run_epoch(prob.x0, prob, sched, make_rng(1), length_override=1)
        assert np.allclose(res.x_out, prob.x0 * (1 - 1 / 60.0), atol=1e-15)

    def test_deterministic_given_seed(self):
        prob = make_regularized_problem(6, 50, seed=4)
        sched = clamp_schedule(derive_schedule(16, M=6.0 * prob.smoothness.L1), 50)
        a = run_epoch(prob.x0, prob, sched, make_rng(7), GradCounter())
        b = run_epoch(prob.x0, prob, sched, make_rng(7), GradCounter())
        assert a.T == b.T
        assert np.array_equal(a.x_out, b.x_out)
        assert a.grads_used == b.grads_used

    def test_full_batch_estimator_identity(self):
        # all batches set to [n]: the update direction telescopes to the
        # exact gradient at every step
        prob = make_regularized_problem(6, 40, seed=6)
        sched = clamp_schedule(derive_schedule(16, M=6.0 * prob.smoothness.L1), 40)
        sched = dataclasses.replace(sched, B0=40, B=(40,) * sched.K)
        res = run_epoch(
            prob.x0, prob, sched, make_rng(11), keep_history=True, length_override=64
        )
        worst = 0.0
        for state in res.history:
            g = prob.full_grad(state.x)
            err = np.linalg.norm(state.v - g) / (1 + np.linalg.norm(g))
            worst = max(worst, err)
        assert worst <= 1e-10

    def test_reference_point_law(self):
        # x_t^(l) always equals the iterate recorded at floor(t / D_l) * D_l
        prob = make_regularized_problem(5, 64, seed=7)
        sched = clamp_schedule(derive_schedule(16, M=6.0 * prob.smoothness.L1), 64)
        res = run_epoch(prob.x0, prob, sched, make_rng(13), keep_history=True, length_override=40)
        iterates = [state.x for state in res.history]
        for state in res.history:
            assert np.array_equal(state.x_ref[sched.K], state.x)
            for level in range(sched.K + 1):
                D = sched.level_divisor(level)
                anchor_t = (state.t // D) * D
                assert np.array_equal(state.x_ref[level], iterates[anchor_t])

    def test_counter_is_periodic_multiple_of_closed_form(self, sched256):
        prob = make_streaming_saddle_problem(6, -1.0, seed=8)
        sched = derive_schedule(256, M=6.0 * prob.smoothness.L1)
        for k in (1, 2, 3):
            res = run_epoch(prob.x0, prob, sched, make_rng(17), length_override=16 * k)
            assert res.grads_used == k * expected_epoch_cost(sched)

    def test_counter_mean_matches_exact_expectation(self):
        # Monte-Carlo mean of the tally against the analytic refresh-count law
        prob = make_streaming_saddle_problem(4, -1.0, seed=9)
        sched = derive_schedule(16, M=6.0 * prob.smoothness.L1)
        rng = make_rng(19)
        tallies = np.array(
            [run_epoch(prob.x0, prob, sched, rng, GradCounter()).grads_used for _ in range(4000)]
        )
        exact = exact_expected_epoch_cost(sched)
        se = tallies.std(ddof=1) / math.sqrt(tallies.size)
        assert abs(tallies.mean() - exact) <= 4 * se

    def test_out_of_domain_flagged(self):
        # start outside the certified ball: the first step trips the flag
        prob = make_saddle_problem(3, 8, -1.0, seed=10, radius=0.5)
        sched = clamp_schedule(derive_schedule(4, M=6.0 * prob.smoothness.L1), 8)
        x_far = np.full(3, 5.0)
        res = run_epoch(x_far, prob, sched, make_rng(23), length_override=3)
        assert res.out_of_domain

    def test_unclamped_finite_schedule_rejected(self):
        prob = make_saddle_problem(3, 8, -1.0, seed=11)
        sched = derive_schedule(256, M=6.0)  # B_1 = 55296 > n = 8
        with pytest.raises(ValueError):
            run_epoch(prob.x0, prob, sched, make_rng(29), length_override=1)
