import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from conftest import random_symmetric_fixture

import nestvr.ncfinder as ncf
from nestvr import (
    GradCounter,
    NCQuery,
    find_nc_direction_finite,
    find_nc_direction_online,
    hvp_estimate,
    make_quadratic_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_quadratic_problem,
    rayleigh,
)


def query_for(problem, z, eps_H=0.1, delta=0.1):
    s = problem.smoothness
    return NCQuery(z=np.asarray(z, dtype=float), eps_H=eps_H, delta=delta, L1=s.L1, L2=s.L2)


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
            est = hvp_estimate(prob, prob.x0, v, q, prob.n)
            assert np.allclose(est, H @ v, atol=1e-9)

    def test_basis_action_on_diagonal(self):
        prob = make_quadratic_problem(np.diag([3.0, -2.0]), 2, seed=0, noise=0.0)
        e1 = np.array([1.0, 0.0])
        est = hvp_estimate(prob, prob.x0, e1, 1e-3, prob.n)
        assert np.allclose(est, [3.0, 0.0], atol=1e-10)

    def test_quartic_taylor_bound(self):
        # pure quartic along one coordinate: estimate of d2/dx2 (x^4/4) = 3 z^2
        # at z = 1 within 3 L2 q, L2 the local third-derivative bound 6 |z|
        prob = make_saddle_problem(2, 1, -1.0, seed=0)
        z = np.array([1.0, 0.0])
        v = np.array([1.0, 0.0])
        q = 1e-4
        est = hvp_estimate(prob, z, v, q, prob.n)
        # hessian entry along v at z: 1 + 3 z^2 = 4
        assert abs(est[0] - 4.0) <= 3 * 6.0 * q

    def test_charges_two_per_sample(self, rng):
        prob, _ = random_symmetric_fixture(4, -0.5, seed=3)
        counter = GradCounter()
        v = np.array([1.0, 0, 0, 0])
        hvp_estimate(prob, prob.x0, v, 1e-3, prob.n, counter=counter)
        assert counter.count == 2 * 6
        sprob, _ = random_symmetric_fixture(4, -0.5, seed=3, streaming=True)
        hvp_estimate(sprob, sprob.x0, v, 1e-3, 8, rng=rng, counter=counter)
        assert counter.count == 2 * 6 + 2 * 8

    def test_population_batch_charges_two_n(self):
        prob, _ = random_symmetric_fixture(4, -0.5, seed=3)
        v = np.array([0.0, 1.0, 0, 0])
        counter = GradCounter()
        est = hvp_estimate(prob, prob.x0, v, 1e-3, prob.n, counter=counter)
        assert counter.count == 2 * prob.n
        diff = prob.batch_grad_diff(prob.x0 + 1e-3 * v, prob.x0, np.arange(prob.n))
        assert np.array_equal(est, diff / 1e-3)

    @pytest.mark.parametrize(
        "batch", [5, np.asarray(5), 0, np.array([], dtype=int), np.arange(6), np.arange(3)]
    )
    def test_bad_finite_batch_rejected(self, batch):
        # n = 6: without a generator a finite-sum product covers the whole
        # population, so any other size and every index array, even all of
        # them, is refused
        prob, _ = random_symmetric_fixture(4, -0.5, seed=3)
        counter = GradCounter()
        with pytest.raises(ValueError):
            hvp_estimate(prob, prob.x0, np.array([1.0, 0, 0, 0]), 1e-3, batch, counter=counter)
        assert counter.count == 0

    def test_zero_displacement_rejected(self):
        prob, _ = random_symmetric_fixture(4, -0.5, seed=4)
        with pytest.raises(ValueError):
            hvp_estimate(prob, prob.x0, np.array([1.0, 0, 0, 0]), 0.0, prob.n)

    def test_forward_difference_error_slope(self):
        # full-batch estimates converge at rate O(q): log-log slope 1 +- 0.2
        prob = make_saddle_problem(4, 3, -1.0, seed=5)
        z = np.full(4, 0.7)
        v = np.full(4, 0.5)  # unit: 4 * 0.25 = 1
        H = prob.hessian(z)
        qs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errs = []
        for q in qs:
            est = hvp_estimate(prob, z, v, float(q), prob.n)
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
    def test_saddle_direction_found_and_sound(self):
        prob = make_saddle_problem(6, 12, -1.0, seed=6)
        res = find_nc_direction_finite(
            prob, query_for(prob, prob.x0, eps_H=0.5), make_rng(31), GradCounter()
        )
        assert res.direction is not None
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)
        assert rayleigh(prob, prob.x0, res.direction) <= -0.25 + 1e-6

    def test_found_direction_costs_its_lanczos_steps_and_one_certificate(self, monkeypatch):
        # every finite-sum product covers the population and is charged 2 n;
        # the Lanczos steps take orthonormal directions, and the returned
        # Ritz vector is measured once more to certify it
        prob = make_saddle_problem(6, 12, -1.0, seed=6)
        directions = []

        def spy(problem, z, v, q, batch, rng=None, counter=None):
            assert batch == prob.n
            before = counter.count
            out = hvp(problem, z, v, q, batch, rng, counter)
            assert counter.count - before == 2 * prob.n
            directions.append(np.array(v))
            return out

        hvp = ncf.hvp_estimate
        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        counter = GradCounter()
        res = find_nc_direction_finite(
            prob, query_for(prob, prob.x0, eps_H=0.5), make_rng(31), counter
        )
        assert res.direction is not None
        assert len({v.tobytes() for v in directions}) == len(directions)
        steps = np.array(directions[:-1])
        assert np.allclose(steps @ steps.T, np.eye(len(steps)), atol=1e-10)
        assert np.array_equal(directions[-1], res.direction)
        assert res.grads_used == counter.count == 2 * prob.n * (len(steps) + 1)

    def test_saddle_at_origin_found_in_three_products(self, monkeypatch):
        # H(0) = diag(1, ..., 1, -1): the Krylov space of a random start is
        # spanned by it and the last axis, so two Lanczos steps hold the exact
        # eigenvalue -1, and one more product certifies its Ritz vector
        prob = make_saddle_problem(6, 12, -1.0, seed=6)
        counter = GradCounter()
        res = find_nc_direction_finite(
            prob, query_for(prob, prob.x0, eps_H=0.5), make_rng(31), counter
        )
        assert res.direction is not None
        assert res.grads_used == counter.count == 3 * 2 * prob.n
        # up to the forward difference's cubic term, 4 a q^2 v_j^3 ~ 2e-5
        assert res.rayleigh_estimate == pytest.approx(-1.0, abs=1e-4)
        assert abs(res.direction[-1]) == pytest.approx(1.0, abs=1e-4)

    def test_failed_certificate_is_not_returned(self, monkeypatch):
        # the certificate is a fresh product: when it misses -eps_H / 2 the
        # Ritz vector is dropped and the run goes on, here to abstention
        prob = make_saddle_problem(6, 12, -1.0, seed=6)
        steps = []

        def spy(problem, z, v, q, batch, rng=None, counter=None):
            out = hvp(problem, z, v, q, batch, rng, counter)
            if steps and np.linalg.norm(np.array(steps) @ v) > 0.5:
                return out + 2.0 * v  # a Ritz vector, measured 2 too high
            steps.append(np.array(v))  # a Lanczos step, orthogonal to the others
            return out

        hvp = ncf.hvp_estimate
        monkeypatch.setattr(ncf, "hvp_estimate", spy)
        counter = GradCounter()
        query = query_for(prob, prob.x0, eps_H=0.5)
        res = find_nc_direction_finite(prob, query, make_rng(31), counter)
        assert res.is_bottom
        assert len(steps) == ncf._lanczos_steps(query, 6)
        # one certificate: the failed Ritz value is not re-measured at each step
        assert counter.count == 2 * prob.n * (len(steps) + 1)
        assert res.rayleigh_estimate == pytest.approx(-1.0, abs=1e-4)

    def test_convex_abstention_reports_smallest_eigenvalue(self):
        # with d within the step budget the Krylov space is exhausted, so the
        # smallest Ritz value is the Hessian's smallest eigenvalue
        prob, eigs = random_symmetric_fixture(8, 0.05, seed=11)
        query = query_for(prob, prob.x0)
        counter = GradCounter()
        res = find_nc_direction_finite(prob, query, make_rng(53), counter)
        assert res.is_bottom
        assert counter.count <= 2 * prob.n * ncf._lanczos_steps(query, 8)
        lam = float(np.linalg.eigvalsh(prob.hessian(prob.x0)).min())
        assert abs(res.rayleigh_estimate - lam) <= 1e-8 * (1.0 + abs(lam))

    def test_convex_quadratic_abstains(self):
        prob = make_quadratic_problem(np.eye(8), 4, seed=1, noise=0.1)
        res = find_nc_direction_finite(
            prob, query_for(prob, prob.x0), make_rng(37), GradCounter()
        )
        assert res.is_bottom

    def test_streaming_convex_abstains(self):
        prob = make_streaming_quadratic_problem(np.eye(8), seed=2, noise=0.1)
        res = find_nc_direction_online(
            prob, query_for(prob, prob.x0), make_rng(41), GradCounter()
        )
        assert res.is_bottom

    def test_streaming_saddle_found(self):
        prob, eigs = random_symmetric_fixture(10, -0.4, seed=7, streaming=True)
        res = find_nc_direction_online(
            prob, query_for(prob, prob.x0, eps_H=0.2), make_rng(43), GradCounter()
        )
        assert res.direction is not None
        assert rayleigh(prob, prob.x0, res.direction) <= -0.1 + 1e-6

    @pytest.mark.parametrize("streaming", [False, True])
    def test_statistical_contracts_small(self, streaming):
        # 40-seed smoke version of the full acceptance batteries
        finder = find_nc_direction_online if streaming else find_nc_direction_finite
        eps_H, delta = 0.1, 0.1
        found = sound = 0
        for s in range(40):
            prob, _ = random_symmetric_fixture(12, -2 * eps_H, seed=100 + s, streaming=streaming)
            res = finder(prob, query_for(prob, prob.x0, eps_H, delta), make_rng(500 + s), GradCounter())
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
            res = finder(prob, query_for(prob, prob.x0, eps_H, delta), make_rng(1500 + s), GradCounter())
            bottom += res.is_bottom
        assert bottom >= math.floor((1 - delta) * 40 - 3 * math.sqrt(40 * delta * (1 - delta)))

    def test_wrong_problem_kind_rejected(self):
        fprob, _ = random_symmetric_fixture(4, -0.5, seed=8)
        sprob, _ = random_symmetric_fixture(4, -0.5, seed=8, streaming=True)
        q = query_for(fprob, fprob.x0)
        with pytest.raises(ValueError):
            find_nc_direction_finite(sprob, q, make_rng(0), GradCounter())
        with pytest.raises(ValueError):
            find_nc_direction_online(fprob, q, make_rng(0), GradCounter())

    def test_abstention_reports_best_estimate(self):
        prob = make_quadratic_problem(np.eye(5), 4, seed=3, noise=0.0)
        res = find_nc_direction_finite(
            prob, query_for(prob, prob.x0), make_rng(47), GradCounter()
        )
        assert res.is_bottom
        assert res.rayleigh_estimate >= 0.5  # spectrum is all ones

    def test_query_validation(self):
        with pytest.raises(ValueError):
            NCQuery(z=np.zeros(2), eps_H=1.5, delta=0.1, L1=1.0, L2=1.0)
        with pytest.raises(ValueError):
            NCQuery(z=np.zeros(2), eps_H=0.1, delta=0.0, L1=1.0, L2=1.0)
