import copy
import math
import re

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from conftest import (
    make_quadratic_problem,
    random_symmetric_fixture,
    rayleigh,
    recording,
    streaming_quadratic,
)

import nestvr.ncfinder as ncf
from nestvr import (
    find_nc_direction,
    hvp_estimate,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    sample_indices_without_replacement,
)
from nestvr.problems import Problem


class HessianNoiseStream(Problem):
    """A stream whose samples carry bounded Hessian noise: f(x; xi) = F(x) +
    x' E_xi x / 2 around a quadratic core, with E_xi symmetric and each upper
    entry +-``noise`` at even odds.  Its row sums bound |E_xi| by noise d, and
    E[E_xi^2] = noise^2 d I, which gives the declared spread.  The curvature
    search reads it only through ``subsample``: the mean noise of b samples
    has upper entries noise (2 Binomial(b, 1/2) - b) / b, drawn from their
    exact law in O(d^2)."""

    def __init__(self, core, noise):
        self.core, self.noise = core, noise
        self.dim, self.x0, self.smoothness = core.dim, core.x0, core.smoothness
        self.hessian_spread = (noise * noise * self.dim, noise * self.dim)

    def subsample(self, size, rng):
        upper = np.triu(self.noise * (2.0 * rng.binomial(size, 0.5, (self.dim, self.dim)) - size) / size)
        return FrozenHessianNoise(self.core, upper + np.triu(upper, 1).T, size)

    def hessian(self, x):
        return self.core.hessian(x)


class FrozenHessianNoise(Problem):
    """The operator of ``n`` samples of a :class:`HessianNoiseStream`: its
    paired differences are (H + E)(x - y) with their mean noise E frozen."""

    def __init__(self, core, E, n):
        self.core, self.E, self.n = core, E, n
        self.dim = core.dim

    def difference_from(self, y):
        gy = self.core.full_grad(y)
        return lambda x, size, rng: self.core.full_grad(x) - gy + self.E @ (x - y)


class TestRayleigh:
    def test_eigenvector_recovers_eigenvalue(self):
        prob, eigs = random_symmetric_fixture(8, -0.3, seed=1)
        H = prob.hessian(prob.x0)
        w, V = np.linalg.eigh(H)
        assert rayleigh(prob, prob.x0, V[:, 0]) == pytest.approx(w[0], abs=1e-12)

    def test_indefinite_mix(self):
        prob = make_quadratic_problem(np.diag([1.0, -1.0]), 2, seed=0, noise=0.0)
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        assert rayleigh(prob, prob.x0, v) == pytest.approx(0.0, abs=1e-14)

    def test_identity_hessian(self, rng):
        prob = make_quadratic_problem(np.eye(5), 2, seed=0, noise=0.0)
        v = rng.standard_normal(5)
        assert rayleigh(prob, prob.x0, v) == pytest.approx(1.0, rel=1e-12)

    def test_zero_direction_rejected(self):
        prob = make_quadratic_problem(np.eye(2), 2, seed=0, noise=0.0)
        with pytest.raises(ValueError):
            rayleigh(prob, prob.x0, np.zeros(2))


class TestHvpEstimate:
    def test_quadratic_is_exact(self, rng):
        prob, _ = random_symmetric_fixture(6, -0.5, seed=2)
        H = prob.hessian(prob.x0)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        for q in (1e-1, 1e-4):
            est = hvp_estimate(prob, prob.x0, v, q, prob.n, rng)
            assert np.allclose(est, H @ v, atol=1e-9)

    def test_basis_action_on_diagonal(self):
        prob = make_quadratic_problem(np.diag([3.0, -2.0]), 2, seed=0, noise=0.0)
        e1 = np.array([1.0, 0.0])
        est = hvp_estimate(prob, prob.x0, e1, 1e-3, prob.n, make_rng(0))
        assert np.allclose(est, [3.0, 0.0], atol=1e-10)

    def test_quartic_taylor_bound(self):
        # pure quartic along one coordinate: estimate of d2/dx2 (x^4/4) = 3 z^2
        # at z = 1 within 3 L2 q, L2 the local third-derivative bound 6 |z|
        prob = make_saddle_problem(2, 1, -1.0, seed=0)
        z = np.array([1.0, 0.0])
        v = np.array([1.0, 0.0])
        q = 1e-4
        est = hvp_estimate(prob, z, v, q, prob.n, make_rng(0))
        # hessian entry along v at z: 1 + 3 z^2 = 4
        assert abs(est[0] - 4.0) <= 3 * 6.0 * q

    def test_one_paired_difference_per_product(self, rng):
        # a product reads ``batch`` samples at two points: the 2 batch
        # gradients its caller charges
        prob, _ = random_symmetric_fixture(4, -0.5, seed=3)
        sprob, _ = random_symmetric_fixture(4, -0.5, seed=3, streaming=True)
        v = np.array([1.0, 0, 0, 0])
        for problem, batch in ((prob, 6), (sprob, 8)):
            proxy = recording(problem)
            hvp_estimate(proxy, proxy.x0, v, 1e-3, batch, rng)
            assert [(size, y is not None) for _, y, size, _ in proxy.steps] == [(batch, True)]

    def test_population_batch_is_the_population_product(self):
        prob, _ = random_symmetric_fixture(4, -0.5, seed=3)
        v = np.array([0.0, 1.0, 0, 0])
        proxy = recording(prob)
        est = hvp_estimate(proxy, prob.x0, v, 1e-3, prob.n, make_rng(0))
        assert [size for _, _, size, _ in proxy.steps] == [prob.n]
        diff = prob.batch_grad_diff(prob.x0 + 1e-3 * v, prob.x0, np.arange(prob.n))
        assert np.array_equal(est, diff / 1e-3)

    @pytest.mark.parametrize(
        "batch", [7, np.asarray(5), 0, np.array([], dtype=int), np.arange(6), np.arange(3)]
    )
    def test_bad_finite_batch_rejected(self, batch):
        # n = 6: a product takes a sample size in 1..n, by the oracle's rule,
        # so a size outside it is a ValueError, and a 0-d or index array,
        # even of all the rows, is no integer
        prob = recording(random_symmetric_fixture(4, -0.5, seed=3)[0])
        error = ValueError if isinstance(batch, int) else TypeError
        with pytest.raises(error, match="batch size must"):
            e1 = np.array([1.0, 0, 0, 0])
            hvp_estimate(prob, prob.x0, e1, 1e-3, batch, make_rng(0))
        assert prob.steps == []

    @pytest.mark.parametrize("batch", [True, np.True_], ids=["bool", "np.bool_"])
    @pytest.mark.parametrize("streaming", [False, True], ids=["finite", "stream"])
    def test_bool_batch_rejected(self, batch, streaming):
        # True equals 1 but is no sample size: it would run a one-sample
        # product
        prob = recording(random_symmetric_fixture(4, -0.5, seed=3, streaming=streaming)[0])
        e1 = np.array([1.0, 0, 0, 0])
        with pytest.raises(TypeError, match="batch size must be an integer"):
            hvp_estimate(prob, prob.x0, e1, 1e-3, batch, make_rng(0))
        assert prob.steps == []

    def test_sampled_finite_batch(self):
        # n = 6: size 5 is a product over 5 sampled rows, whose linear noise
        # cancels, so it equals the population's product
        prob, _ = random_symmetric_fixture(4, -0.5, seed=3)
        e1 = np.array([1.0, 0, 0, 0])
        proxy = recording(prob)
        est = hvp_estimate(proxy, prob.x0, e1, 1e-3, 5, make_rng(0))
        assert [size for _, _, size, _ in proxy.steps] == [5]
        full = hvp_estimate(prob, prob.x0, e1, 1e-3, prob.n, make_rng(0))
        assert np.array_equal(est, full)

    def test_non_unit_direction_rejected(self):
        # a direction of NaNs has a NaN norm, which no bound on |norm - 1|
        # holds, on both finite families
        quadratic, _ = random_symmetric_fixture(4, -0.5, seed=3)
        for prob in (quadratic, make_regularized_problem(4, 10, seed=0)):
            for v in ([1.01, 0, 0, 0], [math.nan] * 4, [math.inf, 0, 0, 0]):
                proxy = recording(prob)
                with pytest.raises(ValueError, match="unit norm"):
                    hvp_estimate(proxy, prob.x0, np.array(v), 1e-3, prob.n, make_rng(0))
                assert proxy.steps == []

    def test_zero_displacement_rejected(self):
        # an infinite displacement would charge and return NaNs after numpy
        # warnings, on both finite families
        quadratic, _ = random_symmetric_fixture(4, -0.5, seed=4)
        e1 = np.array([1.0, 0, 0, 0])
        for prob in (quadratic, make_regularized_problem(4, 10, seed=0)):
            for q in (0.0, -1e-3, math.nan, math.inf):
                proxy = recording(prob)
                with pytest.raises(ValueError, match=r"^q: must be positive and finite, got "):
                    hvp_estimate(proxy, prob.x0, e1, q, prob.n, make_rng(0))
                assert proxy.steps == []

    def test_forward_difference_error_slope(self):
        # full-batch estimates converge at rate O(q): log-log slope 1 +- 0.2
        prob = make_saddle_problem(4, 3, -1.0, seed=5)
        z = np.full(4, 0.7)
        v = np.full(4, 0.5)  # unit: 4 * 0.25 = 1
        H = prob.hessian(z)
        qs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errs = []
        for q in qs:
            est = hvp_estimate(prob, z, v, float(q), prob.n, make_rng(0))
            errs.append(np.linalg.norm(est - H @ v))
        slope = np.polyfit(np.log(qs), np.log(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.2


def _tridiagonal(alpha, beta):
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


entries = st.floats(min_value=-4.0, max_value=4.0)


@settings(max_examples=300)
@given(
    alpha=st.lists(entries, min_size=1, max_size=12),
    beta=st.lists(entries, min_size=11, max_size=11),
    bar=entries,
)
def test_sturm_count_matches_eigenvalues(alpha, beta, bar):
    # the finder's pivot recurrence counts, for every leading block T_k, the
    # eigenvalues of T_k below the bar (away from ties at roundoff level)
    pivot, count = math.inf, 0
    for k, a in enumerate(alpha):
        pivot = ncf._ldl_pivot(a, beta[k - 1] if k else 0.0, pivot, bar)
        count += pivot < 0.0
        eigs = np.linalg.eigvalsh(_tridiagonal(alpha[: k + 1], beta[:k]))
        assume(np.abs(eigs - bar).min() > 1e-9 * (1.0 + np.abs(eigs).max()))
        assert count == int((eigs < bar).sum())


class TestFinderContracts:
    @pytest.mark.parametrize("step", [1, 3])
    def test_non_finite_product_ends_the_search_with_nan(self, step):
        # a product that holds an inf, as one that overflows does, ends the
        # search at its step with no direction and a NaN estimate, which the
        # driver reads as divergence rather than as an abstention
        prob = make_quadratic_problem(np.diag([1.0, 2.0, 3.0, 4.0]), 8, seed=0)
        bind, calls = prob.difference_from, []

        def overflowing(y):
            diff = bind(y)

            def product(x, size, rng):
                out = diff(x, size, rng)
                calls.append(size)
                if len(calls) == step:
                    out[0] = math.inf
                return out

            return product

        prob.difference_from = overflowing
        with np.errstate(all="ignore"):  # the inf meets the reorthogonalization
            res = find_nc_direction(prob, prob.x0, 0.5, 0.1, make_rng(31))
        assert res.direction is None and math.isnan(res.rayleigh_estimate)
        assert calls == [prob.n] * step and res.grads_used == 2 * step * prob.n

    def test_saddle_direction_found_and_sound(self):
        prob = make_saddle_problem(6, 12, -1.0, seed=6)
        res = find_nc_direction(prob, prob.x0, 0.5, 0.1, make_rng(31))
        assert res.direction is not None
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)
        assert rayleigh(prob, prob.x0, res.direction) <= -0.25 + 1e-6

    @pytest.mark.parametrize("streaming", [False, True])
    def test_found_direction_costs_its_lanczos_steps_and_one_certificate(self, monkeypatch, streaming):
        # a finite-sum product covers the population and is charged 2 n; a
        # stream declares a zero spread, so its operator is one sample, the
        # noiseless core, for the Lanczos products and the certificate
        # alike.  The Lanczos steps take orthonormal directions, at most the
        # step count, and the returned Ritz vector is measured once more to
        # certify it
        if streaming:
            prob = make_streaming_saddle_problem(6, -1.0, seed=6)
            batch = 1
        else:
            prob = make_saddle_problem(6, 12, -1.0, seed=6)
            batch = prob.n
        calls = []

        def spy(problem, z, v, q, batch, rng):
            calls.append((np.array(v), batch))
            return hvp(problem, z, v, q, batch, rng)

        hvp = ncf.hvp_estimate
        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        res = find_nc_direction(prob, prob.x0, 0.5, 0.1, make_rng(31))
        assert res.direction is not None
        steps, cert = calls[:-1], calls[-1]
        assert all(size == batch for _, size in steps)
        assert np.array_equal(cert[0], res.direction) and cert[1] == batch
        V = np.array([v for v, _ in steps])
        assert len({v.tobytes() for v in [*V, res.direction]}) == len(V) + 1
        assert np.allclose(V @ V.T, np.eye(len(V)), atol=1e-10)
        assert len(V) <= ncf._lanczos_steps(0.5, 0.1, prob.smoothness.L1, prob.dim, False)
        assert res.grads_used == 2 * batch * (len(V) + 1)

    @pytest.mark.parametrize("bent", [True, False])
    def test_exact_stream_probe_draws_only_its_start(self, bent):
        # the streaming saddle declares a zero spread: its operator is the
        # noiseless core, drawn with nothing, charged 2 per product, and as
        # exact as a population, so it takes the population step count (43),
        # not the subsample's (67), at d = 400 above both.  At the saddle the
        # run finds the direction; at a point of 400 distinct positive
        # curvatures it abstains after every step
        eps_H, delta, dim = 0.5, 0.1, 400
        prob = make_streaming_saddle_problem(dim, -1.0, seed=6)
        L1 = prob.smoothness.L1
        steps = ncf._lanczos_steps(eps_H, delta, L1, dim, False)
        assert steps < ncf._lanczos_steps(eps_H, delta, L1, dim, True) < dim
        z = np.zeros(dim)
        if not bent:  # curvatures 1 + 3 z_j^2, and 2 at the last well's floor
            z[:-1], z[-1] = np.linspace(0.01, 0.06, dim - 1), 1.0
        rng, start = make_rng(8), make_rng(8)
        start.standard_normal(dim)
        res = find_nc_direction(prob, z, eps_H, delta, rng)
        assert rng.random(4).tobytes() == start.random(4).tobytes()
        assert res.is_bottom is not bent
        if bent:
            assert res.grads_used == 2 * 3  # two steps hold -1, and one certificate
        else:
            assert res.grads_used == 2 * steps

    def test_stream_without_a_declared_spread_is_rejected(self):
        class Undeclared(Problem):
            def __init__(self, core):
                self.dim, self.x0, self.smoothness = core.dim, core.x0, core.smoothness

        core, _ = random_symmetric_fixture(4, -0.5, seed=3)
        prob = Undeclared(core)
        assert prob.n is None and prob.hessian_spread is None
        with pytest.raises(ValueError, match="Undeclared: a stream must declare its hessian_spread"):
            find_nc_direction(prob, prob.x0, 0.1, 0.1, make_rng(0))

    def test_saddle_at_origin_found_in_three_products(self, monkeypatch):
        # H(0) = diag(1, ..., 1, -1): the Krylov space of a random start is
        # spanned by it and the last axis, so two Lanczos steps hold the exact
        # eigenvalue -1, and one more product certifies its Ritz vector
        prob = make_saddle_problem(6, 12, -1.0, seed=6)
        res = find_nc_direction(prob, prob.x0, 0.5, 0.1, make_rng(31))
        assert res.direction is not None
        assert res.grads_used == 3 * 2 * prob.n
        # up to the forward difference's cubic term, 4 a q^2 v_j^3 ~ 2e-5
        assert res.rayleigh_estimate == pytest.approx(-1.0, abs=1e-4)
        assert abs(res.direction[-1]) == pytest.approx(1.0, abs=1e-4)

    def test_failed_certificate_is_not_returned(self, monkeypatch):
        # the certificate is a fresh product: when it misses -eps_H / 2 the
        # Ritz vector is dropped and the run goes on, here to abstention
        prob = make_saddle_problem(6, 12, -1.0, seed=6)
        steps = []

        def spy(problem, z, v, q, batch, rng):
            out = hvp(problem, z, v, q, batch, rng)
            if steps and np.linalg.norm(np.array(steps) @ v) > 0.5:
                return out + 2.0 * v  # a Ritz vector, measured 2 too high
            steps.append(np.array(v))  # a Lanczos step, orthogonal to the others
            return out

        hvp = ncf.hvp_estimate
        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        res = find_nc_direction(prob, prob.x0, 0.5, 0.1, make_rng(31))
        assert res.is_bottom
        assert len(steps) == ncf._lanczos_steps(0.5, 0.1, prob.smoothness.L1, 6, False)
        # one certificate: the failed Ritz value is not re-measured at each step
        assert res.grads_used == 2 * prob.n * (len(steps) + 1)
        assert res.rayleigh_estimate == pytest.approx(-1.0, abs=1e-4)

    def test_convex_abstention_reports_smallest_eigenvalue(self):
        # with d within the step budget the Krylov space is exhausted, so the
        # smallest Ritz value is the Hessian's smallest eigenvalue
        prob, eigs = random_symmetric_fixture(8, 0.05, seed=11)
        res = find_nc_direction(prob, prob.x0, 0.1, 0.1, make_rng(53))
        assert res.is_bottom
        steps = ncf._lanczos_steps(0.1, 0.1, prob.smoothness.L1, 8, False)
        assert res.grads_used <= 2 * prob.n * steps
        lam = float(np.linalg.eigvalsh(prob.hessian(prob.x0)).min())
        assert abs(res.rayleigh_estimate - lam) <= 1e-8 * (1.0 + abs(lam))

    def test_convex_quadratic_abstains(self):
        prob = make_quadratic_problem(np.eye(8), 4, seed=1, noise=0.1)
        res = find_nc_direction(prob, prob.x0, 0.1, 0.1, make_rng(37))
        assert res.is_bottom

    def test_streaming_convex_abstains(self):
        prob = streaming_quadratic(np.eye(8), seed=2, noise=0.1)
        res = find_nc_direction(prob, prob.x0, 0.1, 0.1, make_rng(41))
        assert res.is_bottom

    def test_streaming_saddle_found(self):
        prob, eigs = random_symmetric_fixture(10, -0.4, seed=7, streaming=True)
        res = find_nc_direction(prob, prob.x0, 0.2, 0.1, make_rng(43))
        assert res.direction is not None
        assert rayleigh(prob, prob.x0, res.direction) <= -0.1 + 1e-6

    @pytest.mark.parametrize("streaming", [False, True])
    def test_statistical_contracts_small(self, streaming):
        # 40-seed smoke version of the full acceptance batteries
        eps_H, delta = 0.1, 0.1
        found = sound = 0
        for s in range(40):
            prob, _ = random_symmetric_fixture(12, -2 * eps_H, seed=100 + s, streaming=streaming)
            res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(500 + s))
            if res.direction is not None:
                found += 1
                sound += rayleigh(prob, prob.x0, res.direction) <= -eps_H / 2 + 1e-6
        assert sound == found  # soundness is unconditional on returns
        assert found >= math.floor((1 - delta) * 40 - 3 * math.sqrt(40 * delta * (1 - delta)))
        bottom = 0
        for s in range(40):
            prob, _ = random_symmetric_fixture(
                12, 0.02, seed=900 + s, streaming=streaming, lambda_rest=(0.02, 1.0)
            )
            res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(1500 + s))
            bottom += res.is_bottom
        assert bottom >= math.floor((1 - delta) * 40 - 3 * math.sqrt(40 * delta * (1 - delta)))

    @pytest.mark.parametrize("radius", [0.01, 0.02, 2.0])
    def test_probe_points_stay_inside_the_ball(self, radius):
        # the saddle's L2 = 24 a radius holds on its ball alone.  Uncapped,
        # q = eps_H / (10 L2) would be 0.83 at radius 0.01, and the quartic's
        # curvature beyond the ball would pull estimates up to 0.69 off
        # against a Taylor budget of 0.025, with 24 of 200 searches
        # abstaining.  q capped at the room left around z keeps each
        # certified estimate within its budget of the exact value, and
        # detection at criterion 06's rate; radius 2.0 leaves room for
        # q = eps_H / (10 L2)
        eps_H, delta, trials = 0.5, 0.01, 200
        prob = make_saddle_problem(4, 16, -1.0, seed=1, radius=radius)
        z = np.zeros(4)
        q = ncf._displacement(prob, z, eps_H)
        assert q == min(radius, eps_H / (10.0 * prob.smoothness.L2))
        hessian = prob.hessian(z)
        found = 0
        for s in range(trials):
            res = find_nc_direction(prob, z, eps_H, delta, make_rng(s))
            if res.direction is not None:
                found += 1
                exact = float(res.direction @ hessian @ res.direction)
                budget = 0.5 * prob.smoothness.L2 * q + 1e-9 * (1.0 + abs(res.rayleigh_estimate))
                assert abs(res.rayleigh_estimate - exact) <= budget
        assert found >= (1 - delta) * trials - 3 * math.sqrt(trials * delta * (1 - delta))

    def test_probe_outside_the_ball_keeps_its_displacement(self):
        # z on the sphere or beyond leaves no room, and the run's BallLog
        # flags a z beyond it
        prob = make_saddle_problem(4, 16, -1.0, seed=1, radius=0.01)
        uncapped = 0.5 / (10.0 * prob.smoothness.L2)
        for z in (np.array([0.01, 0.0, 0.0, 0.0]), np.full(4, 0.01)):
            assert ncf._displacement(prob, z, 0.5) == uncapped

    @pytest.mark.parametrize("noise", [0.5, 2.0])
    def test_noisy_streams_keep_the_contracts(self, noise):
        # criterion 06's battery at d = 12 over streams with Hessian noise:
        # the probe runs on one operator of b samples, sized by the declared
        # spread, and certifies on others.  Every return is sound
        eps_H, delta, trials = 0.1, 0.1, 200
        floor = (1 - delta) * trials - 3 * math.sqrt(trials * delta * (1 - delta))
        sizes = {0.5: 239049, 2.0: 3801077}
        found = bottoms = 0
        for s in range(trials):
            core, _ = random_symmetric_fixture(12, -2 * eps_H, seed=6000 + s)
            prob = HessianNoiseStream(core, noise)
            assert ncf._subsample_size(prob, eps_H, delta) == sizes[noise]
            res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(6500 + s))
            if res.direction is not None:
                found += 1
                assert rayleigh(prob, prob.x0, res.direction) <= -eps_H / 2
            core, _ = random_symmetric_fixture(12, 0.0, seed=7000 + s, lambda_rest=(0.0, 1.0))
            prob = HessianNoiseStream(core, noise)
            res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(7500 + s))
            bottoms += res.is_bottom
            assert res.is_bottom or rayleigh(prob, prob.x0, res.direction) <= -eps_H / 2
        assert found >= floor and bottoms >= floor

    @pytest.mark.parametrize("bent", [True, False])
    def test_noisy_stream_certifies_on_an_operator_of_its_own(self, monkeypatch, bent):
        # the Lanczos products read one operator of b samples, and a
        # certificate another, drawn after its Ritz vector, of b_c samples:
        # scalar Bernstein for error eps_H / 80 at failure delta / (4 d).
        # That quarter of delta comes from the Lanczos step count's half,
        # which at d = 60 is then 39 steps where an exact certificate would
        # leave 35, and an abstaining run takes all 39
        eps_H, delta, dim = 0.1, 0.1, 60
        core, _ = random_symmetric_fixture(dim, -2 * eps_H if bent else 0.02, seed=8, lambda_rest=(0.02, 1.0))
        prob = HessianNoiseStream(core, 0.5)
        var, R = prob.hessian_spread
        t = eps_H / 80
        cert_rows = math.ceil(2 * (var + R * t / 3) * math.log(8 * dim / delta) / t**2)
        assert ncf._certificate_size(prob, eps_H, delta) == cert_rows
        rows = ncf._subsample_size(prob, eps_H, delta)
        assert rows < cert_rows
        L1 = prob.smoothness.L1
        budget = ncf._lanczos_steps(eps_H, delta / 2, L1, dim, True)
        assert ncf._lanczos_steps(eps_H, delta, L1, dim, True) < budget < dim
        operators, calls = [], []
        draw, hvp = prob.subsample, ncf.hvp_estimate

        def subsample(size, rng):
            operators.append((size, draw(size, rng)))
            return operators[-1][1]

        def spy(problem, z, v, q, batch, rng):
            calls.append((problem, batch))
            return hvp(problem, z, v, q, batch, rng)

        monkeypatch.setattr(prob, "subsample", subsample)
        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(5))
        assert [size for size, _ in operators] == ([rows, cert_rows] if bent else [rows])
        steps = [batch for p, batch in calls if p is operators[0][1]]
        certs = [(p, batch) for p, batch in calls if p is not operators[0][1]]
        assert steps == [rows] * len(steps)
        if bent:
            assert certs == [(operators[1][1], cert_rows)]
            assert rayleigh(prob, prob.x0, res.direction) <= -eps_H / 2
        else:
            assert certs == [] and res.is_bottom and len(steps) == budget
        assert res.grads_used == 2 * rows * len(steps) + 2 * cert_rows * len(certs)

    @pytest.mark.parametrize("streaming", [True, False])
    @pytest.mark.parametrize("beyond", [1 / 160, 1 / 80 + 1 / 160], ids=["inside", "outside"])
    def test_sampled_certificate_adds_its_allowance(self, monkeypatch, streaming, beyond):
        # every certificate is forced to read the accept bar less the Taylor
        # term L2 q / 2 and ``beyond`` eps_H.  eps_H / 160 beyond passes an
        # exact certificate, on a finite sum, and is refused on a noisy
        # stream, whose sampled certificate adds eps_H / 80 to its budget;
        # eps_H / 160 past that passes both.  A refused run abstains
        eps_H, delta = 0.1, 0.1
        core, _ = random_symmetric_fixture(12, -2 * eps_H, seed=6000)
        prob = HessianNoiseStream(core, 0.5) if streaming else core
        taylor = 0.5 * prob.smoothness.L2 * ncf._displacement(prob, prob.x0, eps_H)
        target = -eps_H / 2 - taylor - beyond * eps_H
        steps, certs = [], []

        def spy(problem, z, v, q, batch, rng):
            out = hvp(problem, z, v, q, batch, rng)
            if steps and np.linalg.norm(np.array(steps) @ v) > 0.5:
                certs.append(batch)  # a Ritz vector
                return target * v
            steps.append(np.array(v))  # a Lanczos step, orthogonal to the others
            return out

        hvp = ncf.hvp_estimate
        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(6500))
        assert certs
        if streaming and beyond < 1 / 80:
            assert res.is_bottom
        else:
            assert res.rayleigh_estimate == pytest.approx(target, abs=1e-15) and len(certs) == 1

    @pytest.mark.parametrize("noise", [0.5, 2.0])
    def test_sampled_certificates_alone_keep_returns_sound(self, monkeypatch, noise):
        # Lanczos here reads an operator of b / 100 samples, outside its
        # contract, so its Ritz values stray by up to ten times eps_H / 8
        # and cross the candidate bar where H has no such curvature: on a
        # band spectrum (lambda_min = -0.7 eps_H, which a search at size b
        # never certifies) and on a flat one, whose curvatures all lie in
        # [-0.45 eps_H, 0.2 eps_H], above the accept bar.  Certificates are
        # made on both, and they alone keep every return sound: on the band
        # some pass and some are refused, and on the flat spectrum all are
        # refused
        eps_H, delta = 0.1, 0.1
        size, hvp = ncf._subsample_size, ncf.hvp_estimate
        certs = []

        def spy(problem, z, v, q, batch, rng):
            certs.append(batch > 10**7)  # b_c is 26390998 or 421992278
            return hvp(problem, z, v, q, batch, rng)

        monkeypatch.setattr(ncf, "_subsample_size", lambda *args: size(*args) // 100)
        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        for least in (-0.7, -0.45):
            made = found = 0
            for s in range(40):
                core, _ = random_symmetric_fixture(
                    12, least * eps_H, seed=900 + s, lambda_rest=(-0.4 * eps_H, 0.2 * eps_H)
                )
                prob = HessianNoiseStream(core, noise)
                certs.clear()
                res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(500 + s))
                made += sum(certs)
                if res.direction is not None:
                    found += 1
                    assert rayleigh(prob, prob.x0, res.direction) <= -eps_H / 2
            assert (made > found > 0) if least == -0.7 else (made > found == 0)

    def test_abstention_reports_best_estimate(self):
        prob = make_quadratic_problem(np.eye(5), 4, seed=3, noise=0.0)
        res = find_nc_direction(prob, prob.x0, 0.1, 0.1, make_rng(47))
        assert res.is_bottom
        assert res.rayleigh_estimate >= 0.5  # spectrum is all ones

    @pytest.mark.parametrize("name", ["eps_H", "delta"])
    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_threshold_and_probability_lie_in_open_unit_interval(self, name, bad):
        prob = recording(make_quadratic_problem(np.eye(2), 4, seed=3, noise=0.0))
        args = {"eps_H": 0.1, "delta": 0.1, name: bad}
        with pytest.raises(ValueError, match=re.escape(f"{name}: must lie in (0, 1), got {bad}")):
            find_nc_direction(prob, prob.x0, args["eps_H"], args["delta"], make_rng(0))
        assert prob.steps == []  # no product made


def regularized_bent(seed, n=4000, dim=20):
    """A regularized problem and a point whose first three coordinates sit at
    1, where r'' = -1/2 puts lambda_min near -0.45, below -eps_H = -0.3."""
    prob = make_regularized_problem(dim, n, seed=seed)
    z = np.zeros(dim)
    z[:3] = 1.0
    return prob, z


class TestSubsampledLanczos:
    """A declared Hessian spread lets the finite-sum search run on one row
    subsample of b < n rows; certificates stay population products."""

    eps_H, delta = 0.3, 0.1

    def spy_run(self, monkeypatch, prob, z, seed):
        calls, subsamples = [], []
        hvp = ncf.hvp_estimate

        def spy(problem, z, v, q, batch, rng):
            calls.append((problem, batch))
            return hvp(problem, z, v, q, batch, rng)

        def subsample(size, rng):
            # the rows the family draws: the same draw from a copy of rng
            idx = sample_indices_without_replacement(prob.n, size, copy.deepcopy(rng))
            view = type(prob).subsample(prob, size, rng)
            subsamples.append((idx, view))
            return view

        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        monkeypatch.setattr(prob, "subsample", subsample)
        res = find_nc_direction(prob, z, self.eps_H, self.delta, make_rng(seed))
        return res, calls, subsamples

    def test_error_budget_split(self):
        # the subsample's error s = eps_H / 8 at delta / 2 (matrix Bernstein)
        # and Lanczos' accuracy eps_H / 8 at delta / 2 share the population
        # search's eps_H / 4 at delta
        prob, z = regularized_bent(seed=3)
        var, R = prob.hessian_spread
        s = self.eps_H / 8
        bernstein = 2 * (var + R * s / 3) * math.log(4 * prob.dim / self.delta) / s**2
        assert ncf._subsample_size(prob, self.eps_H, self.delta) == math.ceil(bernstein)
        dim = 10**6  # above the step count, which the cap at d would hide
        rel = self.eps_H / (16 * prob.smoothness.L1)
        kw = 0.5 + math.log(1.648 * math.sqrt(dim) / (self.delta / 2)) / (2 * math.sqrt(rel))
        L1 = prob.smoothness.L1
        assert ncf._lanczos_steps(self.eps_H, self.delta, L1, dim, True) == math.ceil(kw)

    @pytest.mark.parametrize("bent", [True, False])
    def test_products_read_one_index_set_and_certificates_the_population(self, monkeypatch, bent):
        # at d = 60 the step count for a subsample (40) lies below d, and
        # above the population's (25)
        prob, z = regularized_bent(seed=3, dim=60)
        if not bent:
            z = np.zeros(prob.dim)
        L1 = prob.smoothness.L1
        budget = ncf._lanczos_steps(self.eps_H, self.delta, L1, prob.dim, True)
        assert ncf._lanczos_steps(self.eps_H, self.delta, L1, prob.dim, False) < budget < prob.dim
        res, calls, subsamples = self.spy_run(monkeypatch, prob, z, seed=5)
        assert len(subsamples) == 1
        idx, view = subsamples[0]
        b = idx.size
        assert b < prob.n and np.unique(idx).size == b
        rows = prob.A[idx]
        assert np.allclose(view.gram, rows.T @ rows / b, rtol=0, atol=1e-14)
        steps = [c for c in calls if c[0] is view]
        certs = [c for c in calls if c[0] is not view]
        assert all(batch == b for _, batch in steps)
        assert all(p is prob and batch == prob.n for p, batch in certs)
        # an abstaining run takes every step of its budget
        assert len(steps) <= budget if bent else len(steps) == budget
        assert len(certs) == (1 if bent else 0)
        assert res.is_bottom is not bent
        assert res.grads_used == 2 * b * len(steps) + 2 * prob.n * len(certs)

    @pytest.mark.parametrize("bent", [True, False])
    def test_population_search_when_subsample_reaches_n(self, monkeypatch, bent):
        # n = 300 lies below the Bernstein size, so the search is the
        # population one: no draw, and the result of an undeclared spread
        prob, z = regularized_bent(seed=4, n=300)
        if not bent:
            z = np.zeros(prob.dim)
        assert ncf._subsample_size(prob, self.eps_H, self.delta) == prob.n
        undeclared, _ = regularized_bent(seed=4, n=300)
        undeclared.hessian_spread = None
        monkeypatch.setattr(prob, "subsample", None)  # never called
        results = []
        for p in (prob, undeclared):
            rng = make_rng(9)
            res = find_nc_direction(p, z, self.eps_H, self.delta, rng)
            # the next draw matches only if neither search took an index set
            results.append((res, rng.random()))
        (a, next_a), (b, next_b) = results
        assert (a.direction is None) == (b.direction is None) == (not bent)
        if bent:
            assert np.array_equal(a.direction, b.direction)
        assert a.rayleigh_estimate == b.rayleigh_estimate
        assert a.grads_used == b.grads_used
        assert next_a == next_b

    def test_statistical_contracts_on_subsamples(self):
        # the floors of test_statistical_contracts_small, over regularized
        # instances whose probes run on b < n rows
        eps_H, delta = self.eps_H, self.delta
        floor = math.floor((1 - delta) * 40 - 3 * math.sqrt(40 * delta * (1 - delta)))
        found = sound = bottom = 0
        for s in range(40):
            prob, z = regularized_bent(seed=2000 + s)
            assert ncf._subsample_size(prob, eps_H, delta) < prob.n
            assert np.linalg.eigvalsh(prob.hessian(z))[0] < -eps_H
            res = find_nc_direction(prob, z, eps_H, delta, make_rng(2500 + s))
            if res.direction is not None:
                found += 1
                sound += rayleigh(prob, z, res.direction) <= -eps_H / 2 + 1e-6
            assert np.linalg.eigvalsh(prob.hessian(prob.x0))[0] >= -eps_H / 2
            res = find_nc_direction(prob, prob.x0, eps_H, delta, make_rng(3500 + s))
            bottom += res.is_bottom
        assert sound == found
        assert found >= floor
        assert bottom >= floor
