import copy
from fractions import Fraction
import inspect
import math
import os
from pathlib import Path
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

from conftest import QuadraticProblem, make_quadratic_problem, streaming_quadratic

import nestvr
from nestvr import (
    SmoothnessSpec,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    sample_indices_without_replacement,
    spawn_rngs,
)
from nestvr.harness import ConfigError, build_problem, parse_config
from nestvr.problems import (
    _CONSTANT_RULES,
    FAMILIES,
    _RegularizedLeastSquaresProblem,
    subsample_variance_report,
)


def test_smoothness_spec_rejects_nonpositive():
    for name in ("L1", "L2", "L3"):
        for value in (0.0, -1.0, math.nan, math.inf):
            constants = {"L1": 1.0, "L2": 1.0, "L3": 1.0, name: value}
            message = rf"^SmoothnessSpec\.{name}: must be positive and finite, got {value}$"
            with pytest.raises(ValueError, match=message):
                SmoothnessSpec(sigma2=1.0, delta_F=1.0, **constants)


def test_smoothness_spec_requires_L3():
    with pytest.raises(TypeError, match="L3"):
        SmoothnessSpec(L1=1.0, L2=1.0, sigma2=1.0, delta_F=1.0)


def test_outside_ball_rule():
    # outside means farther than radius (1 + 1e-9) from x0; no radius, no
    # ball.  A stack of points is outside when any of its rows is.
    prob = make_saddle_problem(2, 4, -1.0, seed=0, radius=0.5)
    cases = ((0.5, False), (0.5 * (1 + 5e-10), False), (0.5 * (1 + 2e-9), True))
    points = np.array([prob.x0 + np.array([0.0, distance]) for distance, _ in cases])
    answers = []
    for point, (_, outside) in zip(points, cases):
        answers.append(prob.outside_ball(point))
        assert answers[-1] is outside
        assert prob.outside_ball(point[None, :]) is outside
    assert prob.outside_ball(points) is any(answers)
    assert prob.outside_ball(points[:2]) is False
    quad = make_quadratic_problem(np.eye(2), 4, seed=0)
    assert quad.smoothness.radius is None
    assert quad.outside_ball(np.full(2, 1e300)) is False
    assert quad.outside_ball(np.full((3, 2), 1e300)) is False


@pytest.mark.parametrize("inf", [np.inf, -np.inf])
def test_outside_ball_on_non_finite_rows(inf):
    # a run's visited points are checked a chunk at a time, so the rule for
    # non-finite rows decides what a diverged run's stack reads: a row with an
    # infinite entry (and no NaN) is outside, a NaN row never is, and a stack
    # is outside when any finite or infinite row is
    prob = make_saddle_problem(2, 4, -1.0, seed=0, radius=0.5)
    far, nan = np.array([0.0, 0.6]), np.array([np.nan, 0.0])
    assert prob.outside_ball(np.array([inf, 0.0])) is True
    assert prob.outside_ball(np.array([[0.1, 0.1], [0.0, inf]])) is True
    assert prob.outside_ball(nan) is False
    assert prob.outside_ball(np.array([nan, [0.1, 0.1]])) is False
    assert prob.outside_ball(np.array([nan, far])) is True
    assert prob.outside_ball(np.array([far, nan])) is True


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


FINITE_FAMILIES = {
    "saddle": lambda: make_saddle_problem(5, 40, -1.0, seed=21),
    "regularized": lambda: make_regularized_problem(7, 45, seed=22),
    "quadratic": lambda: make_quadratic_problem(np.diag([2.0, -1.0, 0.5]), 30, seed=23),
}
# the fewest rows each family takes
SMALLEST_FAMILIES = {
    "saddle": lambda: make_saddle_problem(3, 1, -1.0, seed=0),
    "regularized": lambda: make_regularized_problem(3, 2, seed=0),
    "quadratic": lambda: make_quadratic_problem(np.eye(2), 1, seed=0),
}


class TestPopulationBatch:
    """The integer n is every component, answered without gathering rows."""

    @pytest.mark.parametrize("family", ["quadratic", "saddle"])
    def test_same_bits_as_index_array(self, family, rng):
        prob = FINITE_FAMILIES[family]()
        x, y = rng.standard_normal((2, prob.dim))
        every = np.arange(prob.n)
        assert np.array_equal(prob.batch_grad(x, prob.n), prob.batch_grad(x, every))
        assert np.array_equal(prob.batch_grad_diff(x, y, prob.n), prob.batch_grad_diff(x, y, every))

    def test_regularized_gram_matches_rows(self, rng):
        # served from the Gram matrix: equal to the index-order row sums to roundoff
        prob = FINITE_FAMILIES["regularized"]()
        A, every = prob.A, np.arange(prob.n)

        def close(got, ref):
            assert np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref)))

        for _ in range(5):
            x, y = 2 * rng.standard_normal((2, prob.dim))
            rows_grad = A.T @ (A @ x - prob.y) / prob.n + prob._reg_grad(x)
            close(prob.batch_grad(x, prob.n), prob.batch_grad(x, every))
            close(prob.batch_grad_diff(x, y, prob.n), prob.batch_grad_diff(x, y, every))
            close(prob.full_grad(x), rows_grad)
            close(prob.hessian(x), A.T @ A / prob.n + np.diag(prob._reg_hess_diag(x)))

    def test_regularized_variance_closed_form(self):
        # mean r_i^2 |a_i|^2 - |A^T r / n|^2 against the explicit deviations
        for dim, n in ((7, 45), (20, 300), (3, 2)):
            prob = make_regularized_problem(dim, n, seed=dim)
            worst = 0.0
            for x in prob._variance_probes():
                per = prob.A * (prob.A @ x - prob.y)[:, None]
                dev = per - per.mean(axis=0)
                worst = max(worst, float(np.einsum("ij,ij->i", dev, dev).mean()))
            assert prob.smoothness.sigma2 == pytest.approx(worst, rel=1e-12)

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    def test_other_integers_rejected(self, family):
        prob = FINITE_FAMILIES[family]()
        with pytest.raises(ValueError, match="population size"):
            prob.batch_grad(prob.x0, 3)
        with pytest.raises(ValueError, match="population size"):
            prob.batch_grad_diff(prob.x0, prob.x0, 3)

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    @pytest.mark.parametrize("scalar", [bool, np.bool_, float, np.float64])
    def test_non_integer_scalars_rejected(self, family, scalar):
        # each equal to n where it can be: True == 1 and 2.0 == 2
        prob = SMALLEST_FAMILIES[family]()
        batch = scalar(prob.n)
        assert batch == prob.n or prob.n > 1
        with pytest.raises(ValueError, match="population size"):
            prob.batch_grad(prob.x0, batch)
        with pytest.raises(ValueError, match="population size"):
            prob.batch_grad_diff(prob.x0 + 1.0, prob.x0, batch)

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    @pytest.mark.parametrize("integer", [np.int64, np.uint32, np.intp])
    def test_numpy_integer_population_accepted(self, family, integer, rng):
        prob = FINITE_FAMILIES[family]()
        x, y = rng.standard_normal((2, prob.dim))
        assert np.array_equal(prob.batch_grad(x, integer(prob.n)), prob.batch_grad(x, prob.n))
        assert np.array_equal(
            prob.batch_grad_diff(x, y, integer(prob.n)), prob.batch_grad_diff(x, y, prob.n)
        )

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    def test_empty_index_batch_rejected(self, family):
        prob = FINITE_FAMILIES[family]()
        empty = np.array([], dtype=np.intp)
        with pytest.raises(ValueError, match="empty"):
            prob.batch_grad(prob.x0, empty)
        with pytest.raises(ValueError, match="empty"):
            prob.batch_grad_diff(prob.x0 + 1.0, prob.x0, empty)

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    def test_list_batch_equals_array_batch(self, family, rng):
        prob = FINITE_FAMILIES[family]()
        x, y = rng.standard_normal((2, prob.dim))
        batch = [3, 0, 1, 3]
        assert np.array_equal(prob.batch_grad(x, batch), prob.batch_grad(x, np.array(batch)))
        assert np.array_equal(prob.batch_grad_diff(x, y, batch), prob.batch_grad_diff(x, y, np.array(batch)))

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    def test_two_dimensional_batch_rejected(self, family):
        # a gather would answer a stack of batches, one row per batch
        prob = FINITE_FAMILIES[family]()
        batch = np.array([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
            prob.batch_grad(prob.x0, batch)
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
            prob.batch_grad_diff(prob.x0 + 1.0, prob.x0, batch)

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    @pytest.mark.parametrize("dtype", [bool, float])
    def test_non_integer_index_batch_rejected(self, family, dtype):
        # a row gather with take reads a boolean mask as the indices 0 and 1
        prob = FINITE_FAMILIES[family]()
        batch = np.ones(prob.n, dtype=dtype)
        with pytest.raises(ValueError, match="must hold integers"):
            prob.batch_grad(prob.x0, batch)
        with pytest.raises(ValueError, match="must hold integers"):
            prob.batch_grad_diff(prob.x0 + 1.0, prob.x0, batch)

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    @pytest.mark.parametrize(
        "batch", [lambda n: [-1], lambda n: [n], lambda n: [0, n]], ids=["minus-one", "n", "zero-and-n"]
    )
    def test_out_of_range_index_batch_rejected(self, family, batch):
        # a gather reads -1 as the last row and fails on n with an IndexError
        prob = FINITE_FAMILIES[family]()
        batch = np.array(batch(prob.n))
        with pytest.raises(ValueError, match=rf"must lie in 0\.\.{prob.n - 1}, got indices"):
            prob.batch_grad(prob.x0, batch)
        with pytest.raises(ValueError, match=rf"must lie in 0\.\.{prob.n - 1}, got indices"):
            prob.batch_grad_diff(prob.x0 + 1.0, prob.x0, batch)


class TestRegularizedRowBlocks:
    """Index batches are summed block by block, equal to one gather to roundoff."""

    @staticmethod
    def close(got, ref):
        assert np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref)))

    @staticmethod
    def batches(prob, rng):
        block = prob.block_rows
        assert 1 < block < prob.n // 2
        batches = [np.arange(prob.n)]
        for m in (1, block - 1, block, block + 1, 2 * block + 7):
            batches.append(rng.permutation(prob.n)[:m])  # unsorted, distinct
            batches.append(rng.integers(0, 40, size=m))  # repeated rows
        return batches

    def test_blocked_batches_match_single_gather(self, rng):
        prob = make_regularized_problem(64, 1200, seed=31)
        A = prob.A
        for idx in self.batches(prob, rng):
            x, y = 2 * rng.standard_normal((2, prob.dim))
            rows = A[idx]
            grad = rows.T @ (rows @ x - prob.y[idx]) / idx.size + prob._reg_grad(x)
            diff = rows.T @ (rows @ (x - y)) / idx.size + prob._reg_grad(x) - prob._reg_grad(y)
            self.close(prob.batch_grad(x, idx), grad)
            self.close(prob.batch_grad_diff(x, y, idx), diff)

    def test_batches_equal_the_block_loop_bit_for_bit(self, rng):
        # the reference: one loop over the blocks, a fancy gather and @
        # products summed in block order
        prob = make_regularized_problem(64, 1200, seed=36)

        def block_loop(idx, u, targets):
            out = np.zeros(prob.dim)
            for start in range(0, idx.size, prob.block_rows):
                block = idx[start : start + prob.block_rows]
                rows = prob.A[block]
                res = rows @ u
                if targets:
                    res -= prob.y[block]
                out += rows.T @ res
            return out / idx.size

        for idx in self.batches(prob, rng):
            x, y = 2 * rng.standard_normal((2, prob.dim))
            grad = block_loop(idx, x, True) + prob._reg_grad(x)
            diff = block_loop(idx, x - y, False) + prob._reg_grad(x) - prob._reg_grad(y)
            assert np.array_equal(prob.batch_grad(x, idx), grad)
            assert np.array_equal(prob.batch_grad_diff(x, y, idx), diff)

    @staticmethod
    def block_gram(prob, idx):
        """The reference: the Gram of the rows ``idx`` over one loop of fancy
        gathers and @ products, summed in block order."""
        gram = np.zeros((prob.dim, prob.dim))
        for start in range(0, idx.size, prob.block_rows):
            rows = prob.A[idx[start : start + prob.block_rows]]
            gram += rows.T @ rows
        return gram / idx.size

    def test_subsample_gram_equals_the_block_loop_bit_for_bit(self, rng):
        prob = make_regularized_problem(64, 1200, seed=37)
        block = prob.block_rows
        for m in (1, block - 1, block, block + 1, 2 * block + 7, prob.n):
            # the family's draw, replayed from a copy of the generator
            idx = sample_indices_without_replacement(prob.n, m, copy.deepcopy(rng))
            assert np.array_equal(prob.subsample(m, rng).gram, self.block_gram(prob, idx))

    def test_subsample_draws_its_rows_as_the_sampler_does(self, rng):
        # the view's rows are the ones sample_indices_without_replacement
        # draws from an equal generator, and the family's draw leaves the
        # generator where that one does, so a probe's stream is unchanged
        prob = make_regularized_problem(64, 1200, seed=41)
        for m in (1, prob.block_rows + 1, prob.n):
            replay = copy.deepcopy(rng)
            idx = sample_indices_without_replacement(prob.n, m, replay)
            view = prob.subsample(m, rng)
            assert view.n == m
            assert np.array_equal(view.gram, self.block_gram(prob, idx))
            assert np.array_equal(rng.random(4), replay.random(4))  # the same next draws
        for m in (0, prob.n + 1):
            with pytest.raises(ValueError):
                prob.subsample(m, rng)

    def test_value_matches_rows(self, rng):
        prob = make_regularized_problem(20, 300, seed=32)
        for scale in (0.0, 0.1, 1.0, 10.0, 30.0):  # |x| is about scale
            for _ in range(5):
                x = scale * rng.standard_normal(prob.dim) / math.sqrt(prob.dim)
                res = prob.A @ x - prob.y
                ref = 0.5 * (res * res).mean() + prob._reg_value(x)
                assert abs(prob.value(x) - ref) <= 1e-12 * (1 + abs(ref))
        assert prob.smoothness.delta_F == prob.value(prob.x0)

    def test_value_nonnegative_at_interpolating_point(self):
        # dim > n: the least-squares part reaches 0, where cancellation in
        # x.gram.x - 2 x.Aty + mean y^2 must not read as a negative mean square.
        # A design scaled by 1e9 puts the interpolating point so near 0 that
        # the regularizer (~1e-17) no longer hides that cancellation.
        for scale in (1.0, 1e9):
            for seed in range(20):
                base = make_regularized_problem(30, 8, seed=seed)
                prob = _RegularizedLeastSquaresProblem(scale * base.A, base.y)
                x = np.linalg.lstsq(prob.A, prob.y, rcond=None)[0]
                assert np.abs(prob.A @ x - prob.y).max() < 1e-12
                reg = prob._reg_value(x)
                assert reg <= prob.value(x) <= reg + 1e-12

    def test_subsampled_batch_allocates_no_batch_sized_rows(self, rng):
        # a batch holds one of its four blocks of rows at a time, freed
        # before the next gather
        n, m, d = 4096, 2048, 64
        prob = make_regularized_problem(d, n, seed=33)
        idx = sample_indices_without_replacement(n, m, rng)
        x, y = rng.standard_normal((2, d))
        block = prob.block_rows * d * 8  # bytes of one block of rows
        assert m * d * 8 == 4 * block  # an m x d gather is four blocks
        tracemalloc.start()
        try:
            for call in (lambda: prob.batch_grad_diff(x, y, idx), lambda: prob.batch_grad(x, idx)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak < 2 * block, peak  # one block and its terms
        finally:
            tracemalloc.stop()

    def test_subsample_view_is_the_rows_population(self, rng):
        prob = make_regularized_problem(64, 1200, seed=34)
        for m in (1, prob.block_rows + 1, 700):
            idx = sample_indices_without_replacement(prob.n, m, copy.deepcopy(rng))
            view = prob.subsample(m, rng)
            assert view.n == m and view.dim == prob.dim
            x, y = 2 * rng.standard_normal((2, prob.dim))
            rows = prob.A[idx]
            diff = rows.T @ (rows @ (x - y)) / m + prob._reg_grad(x) - prob._reg_grad(y)
            self.close(view.batch_grad_diff(x, y, m), diff)
            with pytest.raises(ValueError):
                view.batch_grad_diff(x, y, np.arange(m))

    def test_subsample_view_allocates_no_batch_sized_rows(self, rng):
        n, m, d = 4096, 2048, 64
        prob = make_regularized_problem(d, n, seed=35)
        block = prob.block_rows * d * 8  # bytes of one block of rows
        assert m * d * 8 == 4 * block  # an m x d gather is four blocks
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prob.subsample(m, rng)  # draws its m indices, then gathers
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * block, peak  # one block and its Gram terms


class TestRowWorkers:
    """Row batches computed in a forked child or in several threads at once
    have the bits of one caller's, and computing them starts no thread."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_computes_the_parents_batch(self, rng):
        prob = make_regularized_problem(64, 1200, seed=38)
        idx = sample_indices_without_replacement(prob.n, 2 * prob.block_rows + 7, rng)
        x = rng.standard_normal(prob.dim)
        want = prob.batch_grad(x, idx).tobytes()
        read, write = os.pipe()
        with warnings.catch_warnings():  # other tests may have left threads running
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            code = 1
            try:
                os.close(read)
                signal.alarm(5)
                os.write(write, prob.batch_grad(x, idx).tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            got = pipe.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want

    def test_concurrent_callers_get_the_one_core_bits(self, rng):
        # four callers of one problem, each with its own batch of three
        # blocks, with frequent thread switches
        prob = make_regularized_problem(64, 1200, seed=39)
        batches = [sample_indices_without_replacement(prob.n, 2 * prob.block_rows + 7, rng) for _ in range(4)]
        x = rng.standard_normal(prob.dim)
        want = [prob.batch_grad(x, idx).tobytes() for idx in batches]
        got = [[] for _ in batches]

        def caller(k):
            for _ in range(20):
                got[k].append(prob.batch_grad(x, batches[k]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[bits] * 20 for bits in want]

    def test_import_and_saddle_run_start_no_thread(self):
        script = (
            "import threading\n"
            "before = threading.active_count()\n"
            "import nestvr\n"
            "assert threading.active_count() == before\n"
            "prob = nestvr.make_saddle_problem(10, 256, -1.0, seed=1, radius=1.5)\n"
            "cfg = nestvr.configure(prob, eps=1e-3, eps_H=0.1, order=2, overrides={'U': 50})\n"
            "nestvr.run_driver(prob, cfg, nestvr.make_rng(7))\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
        )
        src = str(Path(nestvr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr

    def test_regularized_batches_start_no_thread(self):
        # batches of three blocks, in a fresh process, which has not imported
        # concurrent.futures
        script = (
            "import sys, threading\n"
            "before = threading.active_count()\n"
            "import nestvr\n"
            "prob = nestvr.make_regularized_problem(64, 1200, seed=40)\n"
            "rng = nestvr.make_rng(8)\n"
            "idx = nestvr.sample_indices_without_replacement(prob.n, 2 * prob.block_rows + 7, rng)\n"
            "x, y = rng.standard_normal((2, prob.dim))\n"
            "prob.batch_grad(x, idx)\n"
            "prob.batch_grad_diff(x, y, idx)\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        src = str(Path(nestvr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
)
def test_regularized_hessian_spread_bounds_the_exact_spread(dim, n, seed, scale):
    # H_i - H = a_i a_i^T - gram: the regularizer is common to every component
    base = make_regularized_problem(dim, n, seed=seed)
    prob = _RegularizedLeastSquaresProblem(scale * base.A, base.y)
    dev = np.einsum("ij,ik->ijk", prob.A, prob.A) - prob.gram
    sigma2, R = prob.hessian_spread
    exact_var = float(np.linalg.eigvalsh(np.mean(dev @ dev, axis=0))[-1])
    exact_range = float(np.abs(np.linalg.eigvalsh(dev)).max())
    tol = 1e-12 * max(1.0, R * R)
    assert exact_var <= sigma2 + tol
    assert exact_range <= R + tol


def test_finite_sums_declare_no_spread_by_default():
    assert make_saddle_problem(4, 8, -1.0, seed=0).hessian_spread is None
    assert make_quadratic_problem(np.eye(3), 4, seed=0).hessian_spread is None


def quartic_min_value(prob):
    """The separable quartic's minimum, -sum h_j^2 / (16 a) over h_j < 0:
    each negative-curvature coordinate sits in a well of that depth."""
    neg = prob.diag[prob.diag < 0]
    return -float((neg**2).sum()) / (16.0 * prob.quartic)


#: a small problem of each family at ``dim``, for the verification oracles
VERIFY_BUILDERS = {
    "saddle": lambda dim, seed: make_saddle_problem(dim, 8, -1.0, seed=seed),
    "streaming-saddle": lambda dim, seed: make_streaming_saddle_problem(dim, -1.0, seed=seed),
    "regularized": lambda dim, seed: make_regularized_problem(dim, 8, seed=seed),
}


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(sorted(VERIFY_BUILDERS)),
    dim=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
    scale=st.floats(min_value=0.0, max_value=1.0),
)
@example(family="saddle", dim=10, seed=0, scale=0.0)
def test_lambda_min_is_the_dense_least_eigenvalue(family, dim, seed, scale):
    # the saddle families read it off their diagonal, bit for bit the dense
    # eigensolve's value at any point of the ball; the others solve
    assert set(VERIFY_BUILDERS) == set(FAMILIES)
    prob = VERIFY_BUILDERS[family](dim, seed)
    u = make_rng(seed).standard_normal(dim)
    x = prob.x0 + 2.0 * scale * u / np.linalg.norm(u)
    assert prob.lambda_min(x) == float(np.linalg.eigvalsh(prob.hessian(x)).min())


#: valid factory arguments of each family, one of which a case replaces
FACTORY_ARGUMENTS = {
    "saddle": {"dim": 4, "n": 8, "negative_eigenvalue": -1.0},
    "streaming-saddle": {"dim": 4, "negative_eigenvalue": -1.0},
    "regularized": {"dim": 4, "n": 8},
}


@pytest.mark.parametrize(
    "family, name, value",
    [
        *[
            (family, name, value)
            for family in ("saddle", "streaming-saddle")
            for name, value in [
                ("noise", -0.1),
                ("noise", math.nan),
                ("noise", math.inf),
                ("radius", 0.0),
                ("radius", -1.0),
                ("radius", math.inf),
                ("quartic", math.inf),
                ("negative_eigenvalue", -math.inf),
                # constants that are not numbers, which a comparison would
                # refuse without naming them
                ("noise", "0.1"),
                ("radius", None),
                ("quartic", True),
            ]
        ],
        ("saddle", "dim", 1),
        ("streaming-saddle", "dim", 1),
        ("regularized", "dim", 0),
        ("regularized", "n", 1),
        # counts that are not integers, which numpy would refuse without
        # naming them
        *[
            (family, name, value)
            for family in ("saddle", "streaming-saddle", "regularized")
            for name in ("dim", "n")
            if name in FACTORY_ARGUMENTS[family]
            for value in (2.5, 4.0, True)
        ],
        *[(family, "dim", None) for family in ("saddle", "streaming-saddle", "regularized")],
    ],
)
def test_factories_reject_what_configs_reject(family, name, value):
    # one check names the value, before any draw, not later as a
    # SmoothnessSpec constant, and a config repeats it under its path
    arguments = {**FACTORY_ARGUMENTS[family], name: value}
    doc = {
        "problem": {"family": family, **arguments},
        "algorithm": {"smoothness_order": 2, "eps": 1e-3, "eps_H": 0.1},
        "trials": 1,
        "seed": 0,
    }
    with pytest.raises(ConfigError) as config_error:
        parse_config(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as factory_error:
            FAMILIES[family].factory(seed=0, **arguments)
    assert type(factory_error.value) is ValueError
    assert f"problem.{factory_error.value}" == str(config_error.value)


#: each family built by its factory from literal defaults: negative_eigenvalue
#: -1.0, and the factory's own keyword defaults for the rest
LITERAL_DEFAULT_BUILDS = {
    "saddle": lambda: make_saddle_problem(4, 8, -1.0, seed=5),
    "regularized": lambda: make_regularized_problem(4, 8, seed=5),
    "streaming-saddle": lambda: make_streaming_saddle_problem(4, -1.0, seed=5),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_table_declares_the_factory_fields_and_defaults(family):
    # the table names each field and its default once: the factory takes
    # exactly those fields beside dim and seed, with the table's defaults,
    # and its constants come in the order a config checks them
    fam = FAMILIES[family]
    parameters = inspect.signature(fam.factory).parameters
    assert set(parameters) - {"dim", "seed"} == set(fam.fields)
    for name, parameter in parameters.items():
        if parameter.default is not parameter.empty:
            assert parameter.default == fam.fields[name], name
    constants = [name for name, _, _ in _CONSTANT_RULES if name in fam.fields]
    assert [name for name in fam.fields if name != "n"] == constants
    # a config that leaves out every optional field builds the same problem
    counts = {"dim": 4, "n": 8} if fam.is_finite_sum else {"dim": 4}
    doc = {
        "problem": {"family": family, **counts, "seed": 5},
        "algorithm": {"smoothness_order": 2, "eps": 1e-3, "eps_H": 0.1},
        "trials": 1,
        "seed": 0,
    }
    cfg = parse_config(doc)
    from_config, direct = build_problem(cfg.problem, cfg.seed), LITERAL_DEFAULT_BUILDS[family]()
    assert from_config.smoothness == direct.smoothness
    for x in (np.zeros(4), np.linspace(-0.7, 0.9, 4)):
        assert from_config.value(x) == direct.value(x)
        assert from_config.hessian(x).tobytes() == direct.hessian(x).tobytes()


def test_count_types_are_checked_first_and_numpy_integers_pass():
    # the order of a config's checks: a count's type before any constant
    with pytest.raises(ValueError, match=r"^n: expected an integer, got 2\.5$"):
        make_saddle_problem(4, 2.5, -1.0, seed=0, noise=-1.0, radius=0.0)
    with pytest.raises(ValueError, match=r"^dim: expected an integer, got 4\.0$"):
        make_streaming_saddle_problem(4.0, math.inf, seed=0)
    for make in (
        lambda dim, n: make_saddle_problem(dim, n, -1.0, seed=0),
        lambda dim, n: make_regularized_problem(dim, n, seed=0),
    ):
        plain, numpy_counts = make(4, 8), make(np.int64(4), np.int32(8))
        assert (plain.dim, plain.n) == (numpy_counts.dim, numpy_counts.n)
        x = np.full(4, 0.3)
        grads = [prob.sample_batch_grad(x, 8, None).tobytes() for prob in (plain, numpy_counts)]
        assert grads[0] == grads[1]
    assert make_streaming_saddle_problem(np.int16(4), -1.0, seed=0).dim == 4


@pytest.mark.parametrize("noise", [1e155, 1e200])
def test_stream_noise_overflow_is_named(noise):
    # d noise^2 reads inf, which the spec rejects by name as it does the
    # saddle's, where noise**2 raised OverflowError
    message = r"^SmoothnessSpec\.sigma2: must be positive and finite, got inf$"
    with pytest.raises(ValueError, match=message):
        make_streaming_saddle_problem(4, -1.0, seed=0, noise=noise)


#: each sampled draw of a batch of ``size``, at a population of 4 components
SIZED_DRAWS = {
    "saddle": lambda size, rng: make_saddle_problem(3, 4, -1.0, seed=0).sample_batch_grad(
        np.ones(3), size, rng
    ),
    "regularized": lambda size, rng: make_regularized_problem(3, 4, seed=0).sample_batch_grad(
        np.ones(3), size, rng
    ),
    "streaming-saddle": lambda size, rng: make_streaming_saddle_problem(
        3, -1.0, seed=0
    ).sample_batch_grad(np.ones(3), size, rng),
    "sampler": lambda size, rng: sample_indices_without_replacement(4, size, rng),
    # bound differences, from the reference 0 to the point 1
    "saddle-difference": lambda size, rng: make_saddle_problem(3, 4, -1.0, seed=0).difference_from(
        np.zeros(3)
    )(np.ones(3), size, rng),
    "regularized-difference": lambda size, rng: make_regularized_problem(
        3, 4, seed=0
    ).difference_from(np.zeros(3))(np.ones(3), size, rng),
    "streaming-saddle-difference": lambda size, rng: make_streaming_saddle_problem(
        3, -1.0, seed=0
    ).difference_from(np.zeros(3))(np.ones(3), size, rng),
}


@pytest.mark.parametrize("where", list(SIZED_DRAWS))
def test_sampled_size_must_be_an_integer(where):
    # a bool or a float, even one equal to the population, would draw or
    # scale noise as some other count
    draw = SIZED_DRAWS[where]
    for size in (True, 2.0, 2.5, 4.0):
        with pytest.raises(TypeError) as error:
            draw(size, make_rng(0))
        assert str(error.value) == f"batch size must be an integer, got {size!r}"
    assert np.array_equal(draw(np.int64(2), make_rng(0)), draw(2, make_rng(0)))


class TestSaddleProblem:
    @pytest.mark.parametrize("quartic", [0.0, -0.25])
    def test_quartic_must_be_positive(self, quartic):
        with pytest.raises(ValueError, match=r"^quartic: must be positive and finite, got "):
            make_saddle_problem(2, 1, -1.0, seed=0, quartic=quartic)

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
        assert quartic_min_value(prob) == pytest.approx(-0.25)

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
        gap = prob.value(prob.x0) - quartic_min_value(prob)
        assert prob.smoothness.delta_F >= gap - 1e-12

    def test_component_mean_matches_full_gradient(self, rng):
        prob = make_saddle_problem(4, 17, -1.0, seed=3)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=4)
            mean = np.mean([prob.batch_grad(x, np.array([i])) for i in range(17)], axis=0)
            full = prob.full_grad(x)
            assert np.linalg.norm(mean - full) <= 1e-10 * (1 + np.linalg.norm(full))


@pytest.mark.parametrize("streaming", [False, True], ids=["saddle", "streaming-saddle"])
def test_saddle_oracle_matches_exact_arithmetic(streaming, rng):
    # Each gradient entry h x + 4a x^3 takes five roundings, so its error is
    # under 4 u (|h x| + |4a x^3|), u = 2^-53, i.e. under 4 ulp of that scale;
    # value sums 2 d such terms, so its error is under (d + 4) ulp of the sum
    # of their magnitudes.  Both hold with products as with libm pow.
    for case in range(60):
        dim = int(rng.integers(2, 13))
        radius = float(rng.uniform(0.5, 3.0))
        lam, a = -float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.05, 2.0))
        if streaming:
            prob = make_streaming_saddle_problem(dim, lam, seed=case, quartic=a, radius=radius)
        else:
            prob = make_saddle_problem(dim, 3, lam, seed=case, quartic=a, radius=radius)
        u = rng.standard_normal(dim)
        x = u / np.linalg.norm(u) * radius * rng.uniform() ** (1.0 / dim)  # uniform in the ball
        assert not prob.outside_ball(x)
        h = [Fraction(v) for v in (prob.core if streaming else prob).diag.tolist()]
        xs, A = [Fraction(v) for v in x.tolist()], Fraction(a)
        quad = [hj * xj * xj / 2 for hj, xj in zip(h, xs)]
        quart = [A * xj**4 for xj in xs]
        value_scale = float(sum(abs(t) for t in quad) + sum(quart))
        assert abs(Fraction(prob.value(x)) - sum(quad) - sum(quart)) <= (dim + 4) * np.spacing(value_scale)
        for gj, hj, xj in zip(prob.full_grad(x).tolist(), h, xs):
            t1, t2 = hj * xj, 4 * A * xj**3
            assert abs(Fraction(gj) - t1 - t2) <= 4 * np.spacing(float(abs(t1) + abs(t2)))


def difference_problem(family):
    """An instance of each family with a difference oracle."""
    if family == "saddle":
        return make_saddle_problem(5, 40, -1.0, seed=21)
    if family == "streaming-saddle":
        return make_streaming_saddle_problem(5, -1.0, seed=24, noise=0.2)
    if family == "regularized":
        return make_regularized_problem(5, 45, seed=22)
    gen = np.random.default_rng(23)
    M = gen.standard_normal((5, 5))
    return make_quadratic_problem((M + M.T) / 2, 30, seed=23, b=gen.standard_normal(5))


def exact_grad_formula(prob, x):
    """The linear-noise families' gradient of F, from its definition."""
    if isinstance(prob, QuadraticProblem):
        return prob.H @ x + prob.b
    return prob.diag * x + 4.0 * prob.quartic * (x * x * x)


DIFFERENCE_FAMILIES = ["saddle", "quadratic", "streaming-saddle", "regularized"]
LINEAR_NOISE = {"saddle", "quadratic", "streaming-saddle"}


@pytest.mark.parametrize("family", DIFFERENCE_FAMILIES)
class TestBoundDifference:
    """``difference_from(y)`` binds the reference y once for any number of
    calls: from the same generator state, a bound call, the one-shot
    ``sample_batch_grad_diff`` and the family's formula agree bit for bit
    and draw the same."""

    @staticmethod
    def formula(prob, x, y, size, rng):
        if prob.n is None:  # the stream's paired noise cancels
            prob = prob.core
        if isinstance(prob, _RegularizedLeastSquaresProblem):
            idx = prob.n if size == prob.n else sample_indices_without_replacement(prob.n, size, rng)
            return prob.batch_grad_diff(x, y, idx)
        return exact_grad_formula(prob, x) - exact_grad_formula(prob, y)

    def test_bound_one_shot_and_formula_agree(self, family, rng):
        prob = difference_problem(family)
        sizes = (1, 7, 2**40) if prob.n is None else (1, prob.n // 2, prob.n - 1, prob.n)
        for y in rng.standard_normal((3, prob.dim)):
            bound = prob.difference_from(y)
            for size in sizes:
                for x in rng.standard_normal((2, prob.dim)):
                    seed = int(rng.integers(2**32))
                    gens = [make_rng(seed) for _ in range(3)]
                    got = bound(x, size, gens[0])
                    one_shot = prob.sample_batch_grad_diff(x, y, size, gens[1])
                    want = self.formula(prob, x, y, size, gens[2])
                    assert got.tobytes() == one_shot.tobytes() == want.tobytes()
                    assert got.flags.writeable
                    assert len({gen.random() for gen in gens}) == 1  # each drew the same
                    if family in LINEAR_NOISE:
                        # swapped, the result is negated bit for bit
                        swapped = prob.difference_from(x)(y, size, make_rng(seed))
                        assert swapped.tobytes() == (-want).tobytes()

    def test_size_checked(self, family):
        prob = difference_problem(family)
        bound = prob.difference_from(prob.x0)
        for size in (0, -1) if prob.n is None else (0, prob.n + 1):
            with pytest.raises(ValueError, match="batch size"):
                bound(prob.x0 + 1.0, size, make_rng(0))
            with pytest.raises(ValueError, match="batch size"):
                prob.sample_batch_grad_diff(prob.x0 + 1.0, prob.x0, size, make_rng(0))


@pytest.mark.parametrize("family", ["saddle", "quadratic"])
def test_full_grad_is_the_formula(family, rng):
    # a fresh, writable array with the formula's bits, also from integers
    prob = difference_problem(family)
    for x in rng.standard_normal((5, prob.dim)):
        g = prob.full_grad(x)
        assert g.tobytes() == exact_grad_formula(prob, x).tobytes() and g.flags.writeable
    ints = np.arange(prob.dim) - 2
    assert np.array_equal(prob.full_grad(ints), exact_grad_formula(prob, ints.astype(float)))


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


def reg_third(t):
    """Third derivative of the regularizer r(t) = t^2 / (1 + t^2):
    24 t (t^2 - 1) / (1 + t^2)^4."""
    t2 = t * t
    return 24.0 * t * (t2 - 1.0) / (1.0 + t2) ** 4


def test_regularizer_fourth_derivative_attains_L3_at_origin():
    # the third derivative is the slope of the diagonal the regularizer adds
    # to the Hessian
    r2 = _RegularizedLeastSquaresProblem._reg_hess_diag
    t, h = np.linspace(-5.0, 5.0, 101), 1e-5
    assert np.allclose((r2(t + h) - r2(t - h)) / (2 * h), reg_third(t), rtol=0, atol=1e-8)
    # the fourth derivative at 0, from the Hessian's own diagonal, is -24:
    # the declared L3 = 24 is tight
    h = 1e-3
    fourth = (r2(np.array(h)) - 2.0 * r2(np.array(0.0)) + r2(np.array(-h))) / h**2
    assert fourth == pytest.approx(-24.0, abs=1e-3)
    assert make_regularized_problem(3, 4, seed=0).smoothness.L3 == 24.0


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)), min_size=1, max_size=6
    )
)
@example(pairs=[(1e-3, -1e-3)])
@example(pairs=[(0.0, 1e-6), (0.5, 0.5)])
def test_regularized_L3_bounds_the_third_derivative(pairs):
    # D^3 F(x) is the diagonal tensor of the regularizer's third derivative
    # at each x_j; its norm is its largest entry in absolute value, so this
    # is the Lipschitz ratio of D^3 F between x and y
    x, y = np.array(pairs, dtype=float).T
    assume(np.linalg.norm(x - y) >= 1e-6)  # far above the roundoff of the differences
    ratio = float(np.abs(reg_third(x) - reg_third(y)).max() / np.linalg.norm(x - y))
    L3 = make_regularized_problem(x.size, 2, seed=0).smoothness.L3
    assert ratio <= L3 * (1.0 + 1e-9)


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
    @pytest.mark.parametrize("m", [0, 9])
    def test_subset_size_out_of_range_rejected(self, rng, m):
        a = rng.standard_normal((8, 3))
        a -= a.mean(axis=0)
        with pytest.raises(ValueError, match=rf"^subset size {m} out of range 1\.\.8$"):
            subsample_variance_report(a, m, 10, rng)

    def test_rows_that_do_not_sum_to_zero_rejected(self, rng):
        a = rng.standard_normal((8, 3))
        a -= a.mean(axis=0)
        a[0, 0] += 1e-3
        with pytest.raises(ValueError, match="^rows must sum to zero$"):
            subsample_variance_report(a, 4, 10, rng)

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
