import math

import numpy as np
import pytest

from nestvr import (
    GradCounter,
    SmoothnessSpec,
    make_quadratic_problem,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    sample_indices_without_replacement,
    spawn_rngs,
)
from nestvr.problems import QuadraticProblem, subsample_variance_report


def test_smoothness_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        SmoothnessSpec(L1=0.0, L2=1.0, sigma2=1.0, delta_F=1.0)
    with pytest.raises(ValueError):
        SmoothnessSpec(L1=1.0, L2=1.0, sigma2=1.0, delta_F=1.0, L3=-2.0)


class TestSampling:
    def test_full_set_forced(self, rng):
        idx = sample_indices_without_replacement(5, 5, rng)
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]

    def test_deterministic_given_seed(self):
        a = sample_indices_without_replacement(10, 3, make_rng(7))
        b = sample_indices_without_replacement(10, 3, make_rng(7))
        assert np.array_equal(a, b)

    def test_uniform_marginal(self):
        # n=2, m=1: index 0 must appear with frequency 1/2 +- 0.01 over 1e5 draws
        rng = make_rng(123)
        draws = np.array(
            [sample_indices_without_replacement(2, 1, rng)[0] for _ in range(100_000)]
        )
        freq = float((draws == 0).mean())
        assert abs(freq - 0.5) <= 0.01

    def test_oversized_batch_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_indices_without_replacement(3, 4, rng)
        with pytest.raises(ValueError):
            sample_indices_without_replacement(3, 0, rng)


class TestMinibatchGradient:
    """The batch oracles, batch_grad and batch_grad_diff."""

    def test_two_identical_points_vanish(self, rng):
        prob = make_regularized_problem(6, 20, seed=1)
        x = rng.standard_normal(6)
        idx = sample_indices_without_replacement(20, 5, rng)
        out = prob.batch_grad_diff(x, x, idx)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_full_batch_is_exact_gradient(self, rng):
        prob = make_regularized_problem(6, 20, seed=2)
        x = rng.standard_normal(6)
        g = prob.batch_grad(x, np.arange(20))
        full = prob.full_grad(x)
        assert np.linalg.norm(g - full) <= 1e-10 * (1 + np.linalg.norm(full))

    def test_linear_components_hand_sum(self):
        # f_i(x) = a_i . x realized as a zero-curvature quadratic with mean slope
        rng = make_rng(5)
        a = rng.standard_normal((4, 3))
        prob = QuadraticProblem(np.zeros((3, 3)), a.mean(axis=0), a - a.mean(axis=0))
        out = prob.batch_grad(np.zeros(3), np.array([0, 1]))
        assert np.allclose(out, (a[0] + a[1]) / 2, atol=1e-14)


class TestSaddleProblem:
    def test_origin_is_strict_saddle(self):
        prob = make_saddle_problem(2, 1, -1.0, seed=0)
        assert np.allclose(prob.full_grad(np.zeros(2)), 0.0, atol=1e-15)
        assert np.linalg.eigvalsh(prob.hessian(np.zeros(2))).min() == pytest.approx(-1.0)

    def test_global_minimizers_of_two_dim_instance(self):
        # solving grad F = 0 for the separable quartic: x = (0, +-1), F = -1/4
        prob = make_saddle_problem(2, 1, -1.0, seed=0)
        for sign in (+1.0, -1.0):
            x = np.array([0.0, sign])
            assert np.allclose(prob.full_grad(x), 0.0, atol=1e-14)
            assert prob.value(x) == pytest.approx(-0.25, abs=1e-15)
        assert prob.known_min_value == pytest.approx(-0.25)

    def test_quartic_hessian_term(self, rng):
        # hessian of the quartic part is diag(3 x_j^2) at the default strength
        prob = make_saddle_problem(3, 1, -0.5, seed=1)
        x = rng.standard_normal(3)
        H = prob.hessian(x)
        diag = np.array([1.0, 1.0, -0.5])
        assert np.allclose(np.diag(H), diag + 3.0 * x * x, atol=1e-13)
        # ... so its Hessian-Lipschitz constant on |x| <= R is 6 R
        assert prob.smoothness.L2 == pytest.approx(6.0 * prob.smoothness.radius)

    def test_delta_F_upper_bounds_gap(self):
        prob = make_saddle_problem(5, 3, -0.7, seed=2)
        gap = prob.value(prob.x0) - prob.known_min_value
        assert prob.smoothness.delta_F >= gap - 1e-12

    def test_component_mean_matches_full_gradient(self, rng):
        prob = make_saddle_problem(4, 17, -1.0, seed=3)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=4)
            mean = np.mean([prob.batch_grad(x, np.array([i])) for i in range(17)], axis=0)
            full = prob.full_grad(x)
            assert np.linalg.norm(mean - full) <= 1e-10 * (1 + np.linalg.norm(full))


class TestRegularizedProblem:
    def test_regularizer_at_origin(self):
        prob = make_regularized_problem(5, 10, seed=4)
        assert prob._reg_value(np.zeros(5)) == 0.0
        assert np.all(prob._reg_grad(np.zeros(5)) == 0.0)
        # second derivative of 2x/(1+x^2)^2 at 0 is 2
        assert np.all(prob._reg_hess_diag(np.zeros(5)) == 2.0)

    def test_full_gradient_is_component_mean(self, rng):
        prob = make_regularized_problem(6, 30, seed=5)
        for _ in range(20):
            x = rng.standard_normal(6)
            mean = prob.batch_grad(x, np.arange(30))
            full = prob.full_grad(x)
            assert np.linalg.norm(mean - full) <= 1e-10 * (1 + np.linalg.norm(full))

    def test_value_nonnegative_so_gap_bounded_by_start(self, rng):
        prob = make_regularized_problem(4, 25, seed=6)
        for _ in range(50):
            assert prob.value(rng.standard_normal(4) * 2) >= 0.0
        assert prob.smoothness.delta_F >= prob.value(prob.x0) - 1e-12


@pytest.mark.parametrize("factory_seed", [0, 1])
def test_hessian_matches_finite_differences(factory_seed, rng):
    # central differences of the exact gradient against the verification Hessian
    for prob in (
        make_regularized_problem(5, 40, seed=factory_seed),
        make_saddle_problem(5, 7, -1.0, seed=factory_seed),
    ):
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8, size=5)
            H = prob.hessian(x)
            assert np.allclose(H, H.T, atol=1e-12)
            h = 1e-6
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                col = (prob.full_grad(x + e) - prob.full_grad(x - e)) / (2 * h)
                denom = 1.0 + np.linalg.norm(H[:, j])
                assert np.linalg.norm(col - H[:, j]) / denom <= 1e-5


class TestStreaming:
    def test_sample_mean_concentrates(self, rng):
        prob = make_streaming_saddle_problem(6, -1.0, seed=7, noise=0.3)
        x = rng.uniform(-0.5, 0.5, size=6)
        mean = prob.sample_batch_grad(x, 100_000, rng)
        bound = 4.0 * math.sqrt(prob.smoothness.sigma2) / math.sqrt(100_000)
        assert np.all(np.abs(mean - prob.full_grad(x)) <= bound)

    def test_paired_difference_is_noise_free(self, rng):
        prob = make_streaming_saddle_problem(6, -1.0, seed=8, noise=0.3)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        d = prob.sample_batch_grad_diff(x, y, 32, rng)
        assert np.allclose(d, prob.full_grad(x) - prob.full_grad(y), atol=1e-14)

    def test_sigma2_matches_noise_law(self):
        prob = make_streaming_saddle_problem(6, -1.0, seed=9, noise=0.3)
        assert prob.smoothness.sigma2 == pytest.approx(6 * 0.3**2)

    def test_single_samples_average_out(self, rng):
        prob = make_streaming_saddle_problem(3, -1.0, seed=10, noise=0.5)
        x = np.zeros(3)
        samples = np.array([prob.sample_batch_grad(x, 1, rng) for _ in range(4000)])
        assert np.allclose(samples.mean(axis=0), 0.0, atol=5 * 0.5 / math.sqrt(4000))
        var = float(np.einsum("ij,ij->i", samples, samples).mean())
        assert var == pytest.approx(prob.smoothness.sigma2, rel=0.15)


class TestSubsampleVariance:
    def test_full_subset_is_exactly_zero(self, rng):
        a = rng.standard_normal((8, 3))
        a -= a.mean(axis=0)
        estimate, bound = subsample_variance_report(a, 8, 1000, rng)
        assert estimate == 0.0 and bound == 0.0

    def test_single_draw_identity(self, rng):
        # m = 1: the estimate converges to mean |a_j|^2 itself
        a = rng.standard_normal((6, 4))
        a -= a.mean(axis=0)
        estimate, bound = subsample_variance_report(a, 1, 200_000, rng)
        mean_sq = float(np.einsum("ij,ij->i", a, a).mean())
        assert bound == pytest.approx(mean_sq)
        assert estimate == pytest.approx(mean_sq, rel=0.04)

    def test_bound_holds_for_partial_subsets(self, rng):
        for seed in range(5):
            local = make_rng(seed)
            N = int(local.integers(3, 10))
            a = local.standard_normal((N, 3))
            a -= a.mean(axis=0)
            m = int(local.integers(1, N))
            estimate, bound = subsample_variance_report(a, m, 100_000, local)
            assert estimate <= bound * 1.05

    def test_matches_exact_without_replacement_variance(self, rng):
        # closed form for zero-sum rows: (N - m) / (m (N - 1)) * mean |a_j|^2
        a = rng.standard_normal((7, 2))
        a -= a.mean(axis=0)
        mean_sq = float(np.einsum("ij,ij->i", a, a).mean())
        for m in (2, 4):
            estimate, _ = subsample_variance_report(a, m, 200_000, rng)
            exact = (7 - m) / (m * (7 - 1)) * mean_sq
            assert estimate == pytest.approx(exact, rel=0.03)


def test_spawned_streams_are_independent_and_reproducible():
    a1, b1 = spawn_rngs(42, 2)
    a2, b2 = spawn_rngs(42, 2)
    assert a1.random() == a2.random()
    assert b1.random() == b2.random()
    assert make_rng(42).random() != make_rng(43).random()


def test_counter_monotone_and_rejects_negative():
    c = GradCounter()
    c.add(3)
    c.add(0)
    assert c.count == 3
    with pytest.raises(ValueError):
        c.add(-1)
