from contextlib import nullcontext
import dataclasses
import hashlib
import json
import math
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from conftest import (
    QuadraticProblem,
    ball_checks,
    fixed_length,
    make_quadratic_problem,
    one_epoch,
    recording,
    reset_level,
)
from nestvr import (
    BallLog,
    NestedSchedule,
    SmoothnessSpec,
    clamp_schedule,
    derive_schedule,
    draw_epoch_length,
    exact_expected_epoch_cost,
    expected_epoch_cost,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    run_epoch,
    sample_indices_without_replacement,
)
from nestvr import epoch
from nestvr.problems import Problem, _SeparableQuarticProblem


@pytest.fixture
def sched256():
    return derive_schedule(256, M=6.0)


def epoch_case(B0, n, seed):
    """A problem and its schedule for base batch ``B0``: a streaming saddle
    when ``n`` is None, else an ``n``-row regularized finite sum with the
    schedule clamped at ``n``."""
    if n is None:
        prob = make_streaming_saddle_problem(6, -1.0, seed=seed)
    else:
        prob = make_regularized_problem(5, n, seed=seed)
    return prob, clamp_schedule(derive_schedule(B0, M=6.0 * prob.smoothness.L1), n)


base_batches = st.integers(min_value=4, max_value=4096)
populations = st.none() | st.integers(min_value=2, max_value=512)


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

    @given(
        T=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
        t=st.integers(min_value=0, max_value=10**7),
    )
    def test_matches_definition(self, T, t):
        # the least j with t % prod(T[j:]) == 0, on arbitrary loop lengths
        K = len(T)
        sched = NestedSchedule(B0=4, M=6.0, T=tuple(T), B=(1,) * K)
        want = min(j for j in range(K + 1) if t % math.prod(T[j:]) == 0)
        assert reset_level(t, sched) == want


def replay_epochs(prob, sched, draws, passes=lambda level: True, epochs=8):
    """Run ``epochs`` epochs of a ``recording`` problem and replay each one's
    randomness on a twin generator: its length, then one index set for each
    step whose (level, size) ``draws`` names, which must be the batch the
    step passed.  Each step at a level that ``passes`` names passes one
    batch to a row-level method, in step order, and no other step passes
    one.  The two generators must end level.  Returns every step's (level,
    size, batch), with batch None for a step that passes none."""
    sizes = (sched.B0, *sched.B)
    rng, replay = make_rng(31), make_rng(31)
    steps = []
    for _ in range(epochs):
        prob.steps.clear()
        prob.batches.clear()
        T = one_epoch(prob.x0, prob, sched, rng).T
        assert len(prob.steps) == T
        assert draw_epoch_length(sched.p, replay) == T
        batches = iter(prob.batches)
        for t, (_, _, size, _) in enumerate(prob.steps):
            level = reset_level(t, sched)
            assert size == sizes[level]
            idx = next(batches) if passes(level) else None
            if draws(level, size):
                drawn = sample_indices_without_replacement(prob.n, size, replay)
                assert np.array_equal(idx, drawn)
            steps.append((level, size, idx))
        assert next(batches, None) is None
        assert generator_state(rng) == generator_state(replay)
    return steps


def generator_state(rng):
    """``bit_generator.state`` as a comparable string (it holds arrays)."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def epoch_steps(problem, schedule, length, x0=None, seed=0):
    """Run one ``length``-step epoch of a ``recording`` copy of ``problem``
    from ``x0`` (default the problem's); return its oracle calls and its
    final iterate."""
    proxy = recording(problem)
    x0 = problem.x0 if x0 is None else x0
    with fixed_length(length):
        res = one_epoch(x0, proxy, schedule, make_rng(seed))
    assert len(proxy.steps) == length
    if length:
        assert proxy.steps[0][0].tobytes() == np.asarray(x0, dtype=float).tobytes()
    return proxy.steps, res.x_out


def assert_epoch_law(steps, x_out, schedule):
    """The epoch law, read from outside through its oracle calls.

    Step t makes one call at the iterate x_t.  With r its reset level, it is a
    batch-B0 gradient when r = 0, else a batch-B_r difference against the
    iterate at level r - 1's last refresh, step floor(t / D) D with D that
    level's period.  Its result becomes level r's reference gradient, the
    levels above r restart from zero, and x_{t+1} is x_t minus 1 / (10 M)
    times 0.0 + g_0 + ... + g_K, bit for bit.
    """
    K = schedule.K
    sizes = (schedule.B0, *schedule.B)
    step = 1.0 / (10.0 * schedule.M)
    iterates = [x for x, *_ in steps] + [x_out]
    zero = np.zeros_like(x_out)
    latest = [zero] * (K + 1)
    for t, (x, y, size, g) in enumerate(steps):
        r = reset_level(t, schedule)
        assert size == sizes[r]
        if r == 0:
            assert y is None
        else:
            D = schedule.level_divisors[r - 1]
            assert np.array_equal(y, iterates[t // D * D])
        latest[r:] = [g] + [zero] * (K - r)
        want = x - step * sum(latest, 0.0)
        # byte equality: array_equal would not tell -0.0 from 0.0
        assert iterates[t + 1].tobytes() == want.tobytes()


class TestEpochLaw:
    def test_stream(self, sched256):
        # two full sweeps of the B0 = 256 nest and one more anchor
        prob = make_streaming_saddle_problem(4, -1.0, seed=1)
        assert_epoch_law(*epoch_steps(prob, sched256, 2 * sched256.loop_product + 1), sched256)

    def test_finite_sum(self):
        prob = make_regularized_problem(6, 300, seed=12)
        sched = clamp_schedule(derive_schedule(256, M=6.0 * prob.smoothness.L1), 300)
        assert sched.K == 3
        assert_epoch_law(*epoch_steps(prob, sched, 40, seed=5), sched)

    def test_streaming_deep_nest(self):
        prob = make_streaming_saddle_problem(6, -1.0, seed=13)
        sched = derive_schedule(65536, M=6.0 * prob.smoothness.L1)
        assert sched.K == 4
        assert_epoch_law(*epoch_steps(prob, sched, 2 * sched.loop_product + 7), sched)

    def test_signed_zeros(self):
        # the sum starts from +0.0, so an anchor of -0.0 moves nothing; from
        # an iterate of -0.0, a direction of -0.0 would step to +0.0
        class NegativeZeroOracle(QuadraticProblem):
            def batch_grad(self, x, idx):
                return np.full(self.dim, -0.0)

            def difference_from(self, y):
                return lambda x, size, rng: np.full(self.dim, -0.0)

        prob = NegativeZeroOracle(np.eye(3), None, np.zeros((8, 3)))
        sched = clamp_schedule(derive_schedule(16, M=6.0), 8)
        steps, x_out = epoch_steps(prob, sched, 9, x0=np.full(3, -0.0))
        assert_epoch_law(steps, x_out, sched)
        assert x_out.tobytes() == np.full(3, -0.0).tobytes()

    def test_anchor_after_corrections(self, sched256):
        # the step t = loop_product resets level 0 again, after the finer
        # levels have held nonzero corrections, which it zeroes
        prob = make_saddle_problem(4, 60000, -1.0, seed=1)
        steps, x_out = epoch_steps(prob, sched256, sched256.loop_product + 1, x0=np.full(4, 0.3))
        assert reset_level(sched256.loop_product, sched256) == 0
        assert np.any(steps[-2][3] != 0.0)
        assert_epoch_law(steps, x_out, sched256)
        # anchor plus the zero refreshes of levels 1..K are all charged
        with fixed_length(1):
            res = one_epoch(np.full(4, 0.3), prob, sched256, make_rng(2))
        assert res.grads_used == 256 + 2 * (55296 + 2304 + 96)

    @settings(max_examples=50)
    @given(B0=base_batches, n=populations, length=st.integers(min_value=1, max_value=200))
    @example(B0=16, n=64, length=40)
    def test_law_on_random_nests(self, B0, n, length):
        prob, sched = epoch_case(B0, n, seed=7)
        assert_epoch_law(*epoch_steps(prob, sched, length, seed=13), sched)

    @settings(max_examples=100, deadline=None)
    @given(
        nest=st.integers(min_value=1, max_value=4).flatmap(
            lambda K: st.tuples(
                st.lists(st.integers(min_value=1, max_value=9), min_size=K, max_size=K),
                st.lists(st.integers(min_value=1, max_value=2**40), min_size=K, max_size=K),
            )
        ),
        B0=st.integers(min_value=1, max_value=2**40),
        length=st.integers(min_value=0, max_value=300),
    )
    # T_K = 9: the epoch stops 4 steps into the finest-level run after t = 45
    @example(nest=([3, 9], [5, 7]), B0=11, length=50)
    @example(nest=([4, 1], [2, 3]), B0=1, length=13)  # T_K = 1: no runs at all
    def test_law_on_arbitrary_nests(self, nest, B0, length):
        # hand-built nests of any depth, loop lengths and batch sizes, and
        # lengths that stop anywhere, also inside a finest-level run
        prob = make_streaming_saddle_problem(3, -1.0, seed=17)
        T, B = nest
        sched = NestedSchedule(B0=B0, M=6.0 * prob.smoothness.L1, T=tuple(T), B=tuple(B))
        proxy = recording(prob)
        with fixed_length(length):
            res = one_epoch(prob.x0, proxy, sched, make_rng(length))
        assert len(proxy.steps) == length
        assert_epoch_law(proxy.steps, res.x_out, sched)
        # each step charges its reset level and every level above it
        costs = sched.level_costs
        assert res.grads_used == sum(sum(costs[reset_level(t, sched):]) for t in range(length))
        # every period divides the loop product, so one sweep's charge is
        # the closed form
        sweep = B0 + 2 * sum(b * math.prod(T[: l + 1]) for l, b in enumerate(B))
        assert expected_epoch_cost(sched) == sched.epoch_charge(sched.loop_product) == sweep


class TestReferenceGradients:
    def test_equal_reference_points_give_zero_correction(self, sched256):
        # noise-free saddle started at its stationary point: the iterate never
        # moves, so every correction pairs equal points
        prob = make_saddle_problem(4, 60000, -1.0, seed=1, noise=0.0)
        steps, x_out = epoch_steps(prob, sched256, 5)
        assert_epoch_law(steps, x_out, sched256)
        x, y, _, g = steps[4]
        assert reset_level(4, sched256) == 2
        assert np.array_equal(x, prob.x0) and np.array_equal(y, prob.x0)
        assert np.allclose(g, 0.0, atol=1e-15)
        # level r charged 2 B_r, level r+1..K zero-refreshed at 2 B_l each
        costs = []
        for T in (4, 5):
            with fixed_length(T):
                res = one_epoch(prob.x0, prob, sched256, make_rng(3))
            costs.append(res.grads_used)
        assert costs[1] - costs[0] == 2 * 2304 + 2 * 96

    def test_full_batch_anchor_is_exact_gradient(self):
        prob = make_saddle_problem(4, 16, -1.0, seed=2)
        sched = clamp_schedule(derive_schedule(16, M=6.0), 16)
        x = np.full(4, 0.2)
        ((_, _, _, g),), _ = epoch_steps(prob, sched, 1, x0=x)
        assert np.allclose(g, prob.full_grad(x), atol=1e-14)


class TestGeometricLength:
    def test_inverse_cdf_bounds(self, rng):
        for _ in range(1000):
            T = draw_epoch_length(0.2, rng)
            assert isinstance(T, int) and T >= 0

    @pytest.mark.parametrize("B0", [4, 16, 256, 65536, 2**32])
    def test_longest_draw_is_bounded(self, B0):
        # the largest double below 1 gives u = 2^-53, the smallest draw
        class Largest:
            def random(self):
                return 1.0 - 2.0**-53

        sched = derive_schedule(B0, M=6.0)
        assert draw_epoch_length(sched.p, Largest()) <= 37 * (1 + sched.loop_product)

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
            draw_epoch_length(0.0, rng)
        with pytest.raises(ValueError):
            draw_epoch_length(1.0, rng)


class TestRunEpoch:
    def test_zero_length_is_identity_and_free(self):
        prob = make_saddle_problem(3, 8, -1.0, seed=3)
        sched = clamp_schedule(derive_schedule(4, M=6.0), 8)
        with fixed_length(0):
            res = one_epoch(prob.x0, prob, sched, make_rng(0))
        assert res.T == 0
        assert np.array_equal(res.x_out, prob.x0)
        assert res.grads_used == 0

    def test_single_full_gradient_step(self):
        # one-component quadratic F(x) = |x|^2 / 2 with every batch clamped to 1:
        # a single step contracts by exactly (1 - 1/(10 M))
        prob = make_quadratic_problem(np.eye(3), 1, seed=0, noise=0.0, x0=np.full(3, 2.0))
        sched = clamp_schedule(derive_schedule(4, M=6.0), 1)
        with fixed_length(1):
            res = one_epoch(prob.x0, prob, sched, make_rng(1))
        assert np.allclose(res.x_out, prob.x0 * (1 - 1 / 60.0), atol=1e-15)

    def test_deterministic_given_seed(self):
        prob = make_regularized_problem(6, 50, seed=4)
        sched = clamp_schedule(derive_schedule(16, M=6.0 * prob.smoothness.L1), 50)
        a = one_epoch(prob.x0, prob, sched, make_rng(7))
        b = one_epoch(prob.x0, prob, sched, make_rng(7))
        assert a.T == b.T
        assert np.array_equal(a.x_out, b.x_out)
        assert a.grads_used == b.grads_used

    def test_full_batch_estimator_identity(self):
        # all batches set to [n]: the update direction, read off consecutive
        # iterates as 10 M (x_t - x_{t+1}), telescopes to the exact gradient
        prob = make_regularized_problem(6, 40, seed=6)
        sched = clamp_schedule(derive_schedule(16, M=6.0 * prob.smoothness.L1), 40)
        sched = dataclasses.replace(sched, B0=40, B=(40,) * sched.K)
        steps, x_out = epoch_steps(prob, sched, 64, seed=11)
        iterates = [x for x, *_ in steps] + [x_out]
        worst = 0.0
        for x, x_next in zip(iterates, iterates[1:]):
            g = prob.full_grad(x)
            v = 10.0 * sched.M * (x - x_next)
            err = np.linalg.norm(v - g) / (1 + np.linalg.norm(g))
            worst = max(worst, err)
        assert worst <= 1e-10

    @settings(max_examples=50)
    @given(B0=base_batches, n=populations, k=st.integers(min_value=1, max_value=4))
    @example(B0=256, n=None, k=1)
    @example(B0=256, n=None, k=2)
    @example(B0=256, n=None, k=3)
    def test_charge_is_periodic_multiple_of_closed_form(self, B0, n, k):
        prob, sched = epoch_case(B0, n, seed=8)
        with fixed_length(k * sched.loop_product):
            res = one_epoch(prob.x0, prob, sched, make_rng(17))
        assert res.grads_used == k * expected_epoch_cost(sched)

    def test_charge_mean_matches_exact_expectation(self):
        # Monte-Carlo mean of the tally against the analytic refresh-count law
        prob = make_streaming_saddle_problem(4, -1.0, seed=9)
        sched = derive_schedule(16, M=6.0 * prob.smoothness.L1)
        rng = make_rng(19)
        tallies = np.array(
            [one_epoch(prob.x0, prob, sched, rng).grads_used for _ in range(4000)]
        )
        exact = exact_expected_epoch_cost(sched)
        se = tallies.std(ddof=1) / math.sqrt(tallies.size)
        assert abs(tallies.mean() - exact) <= 4 * se

    def test_row_free_differences_draw_nothing(self):
        # n = 300 clamps levels 1 and 2 (B = 55296, 2304) but not level 0
        # (B0 = 256) or level 3 (96).  The quadratic's differences read no
        # rows, so at every level above 0, clamped or not, they pass no
        # batch and draw nothing; only the subsampled anchor draws an index
        # set
        n = 300
        prob = recording(
            QuadraticProblem(np.diag([1.0, -0.5, 2.0]), None, make_rng(1).standard_normal((n, 3)))
        )
        sched = clamp_schedule(derive_schedule(256, M=6.0 * prob.smoothness.L1), n)
        assert (sched.B0, *sched.B) == (256, n, n, 96)
        steps = replay_epochs(prob, sched, lambda level, size: level == 0, lambda level: level == 0)
        assert {size for _, size, _ in steps} == {256, n, 96}

    def test_saddle_epoch_draws_only_its_length(self):
        # the criterion-07 saddle (d = 10, n = 256): levels 0..2 are clamped
        # and level 3's differences read no rows, so an epoch leaves the
        # generator exactly where drawing its length alone leaves it
        n = 256
        prob = recording(
            _SeparableQuarticProblem(
                np.r_[np.ones(9), -1.0], 0.25, make_rng(2).standard_normal((n, 10)) * 0.1, 1.5
            )
        )
        sched = clamp_schedule(derive_schedule(256, M=6.0 * prob.smoothness.L1), n)
        assert (sched.B0, *sched.B) == (n, n, n, 96)
        steps = replay_epochs(prob, sched, lambda level, size: False, lambda level: level == 0)
        assert {size for _, size, _ in steps} == {n, 96}
        # the anchor reads the population as the integer n
        assert all(idx == n and type(idx) is int for level, _, idx in steps if level == 0)

    def test_regularized_draws_one_index_set_per_subsampled_step(self):
        # the regularized family reads rows at every subsampled level (the
        # anchor's 256 and level 3's 96 of 300) and nowhere else: clamped
        # levels reach the oracle as the integer n and draw nothing
        n = 300
        prob = recording(make_regularized_problem(4, n, seed=5))
        sched = clamp_schedule(derive_schedule(256, M=6.0 * prob.smoothness.L1), n)
        assert (sched.B0, *sched.B) == (256, n, n, 96)
        steps = replay_epochs(prob, sched, lambda level, size: size < n)
        assert {size for _, size, _ in steps} == {256, n, 96}
        assert all(idx == n and type(idx) is int for _, size, idx in steps if size == n)

    def test_out_of_domain_flagged(self):
        # start outside the certified ball: the first step trips the flag,
        # which the run's log gives when it is read, after one check of the
        # epoch's 3 iterates
        prob = ball_checks(make_saddle_problem(3, 8, -1.0, seed=10, radius=0.5))
        sched = clamp_schedule(derive_schedule(4, M=6.0 * prob.smoothness.L1), 8)
        x_far = np.full(3, 5.0)
        log = BallLog(prob)
        with fixed_length(3):
            one_epoch(x_far, prob, sched, make_rng(23), log)
        assert prob.stacks == []
        assert log.outside()
        assert [len(stack) for stack in prob.stacks] == [3]

    def test_unclamped_finite_schedule_rejected(self):
        prob = make_saddle_problem(3, 8, -1.0, seed=11)
        sched = derive_schedule(256, M=6.0)  # B_1 = 55296 > n = 8
        with fixed_length(1), pytest.raises(ValueError):
            one_epoch(prob.x0, prob, sched, make_rng(29))


class TestAnchor:
    """An epoch given its level-0 anchor, as the driver passes its gradient
    test's population gradient on a finite sum with B0 = n."""

    FAMILIES = {
        "saddle": lambda: make_saddle_problem(6, 64, -1.0, seed=5),
        "regularized": lambda: make_regularized_problem(5, 64, seed=5),
    }

    def case(self, family):
        """A recording copy of the family at B0 = n, a start point and its
        anchor, the population gradient there."""
        prob = recording(self.FAMILIES[family]())
        sched = clamp_schedule(derive_schedule(64, M=6.0 * prob.smoothness.L1), prob.n)
        assert sched.B0 == prob.n
        x0 = np.full(prob.dim, 0.3)
        anchor = prob.sample_batch_grad(x0, prob.n, make_rng(0))
        prob.steps.clear()
        prob.batches.clear()
        return prob, sched, x0, anchor

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_length_charges_nothing_and_calls_no_oracle(self, family):
        prob, sched, x0, anchor = self.case(family)
        with fixed_length(0):
            res = one_epoch(x0, prob, sched, make_rng(1), anchor=anchor)
        assert res.T == 0 and res.grads_used == 0
        assert res.x_out.tobytes() == x0.tobytes()
        assert prob.steps == [] and prob.batches == []

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("length", [1, 2, 8, 9, 19, 64, None])
    def test_anchor_keeps_the_epoch_and_saves_B0(self, family, length):
        # None: the length is drawn, from the same generator state
        prob, sched, x0, anchor = self.case(family)
        plain_rng, anchored_rng = make_rng(length or 7), make_rng(length or 7)
        draw = nullcontext() if length is None else fixed_length(length)
        with draw:
            plain = one_epoch(x0, prob, sched, plain_rng)
            plain_steps = prob.steps[:]
            prob.steps.clear()
            anchored = one_epoch(x0, prob, sched, anchored_rng, anchor=anchor)
        assert anchored.T == plain.T >= 1
        assert anchored.x_out.tobytes() == plain.x_out.tobytes()
        assert generator_state(anchored_rng) == generator_state(plain_rng)
        # the one call left out is the first step's anchor, at x0
        assert plain_steps[0][0].tobytes() == x0.tobytes() and plain_steps[0][1] is None
        assert plain_steps[0][3].tobytes() == anchor.tobytes()
        assert [x.tobytes() for x, *_ in prob.steps] == [x.tobytes() for x, *_ in plain_steps[1:]]
        assert anchored.grads_used == sched.epoch_charge(plain.T) - sched.B0
        assert plain.grads_used - anchored.grads_used == sched.B0

    def test_first_step_reads_the_anchor(self):
        # a zero anchor at x0 makes the first step's direction zero
        prob, sched, x0, anchor = self.case("saddle")
        with fixed_length(1):
            res = one_epoch(x0, prob, sched, make_rng(3), anchor=np.zeros_like(anchor))
        assert res.x_out.tobytes() == x0.tobytes()
        assert prob.steps == []


class TestReferenceBinding:
    """An epoch binds each reference once per refresh, and the saddle
    families evaluate its gradient then: one exact gradient per step, at its
    iterate, and one per reset step, at the reference it binds."""

    # sha256 of x_out's bytes, as the gradient memo that this binding
    # replaced computed them
    X_OUT = {
        False: "04d27716f6e70322c473e3b0f9f47ec6c5a093eded29c5d01a67b734604b6b59",
        True: "0f6f9f0ae537ab07ba016104eb9d6e85041cf1d8316476602ad778252fe126f2",
    }

    @pytest.mark.parametrize("streaming", [False, True], ids=["saddle", "stream"])
    def test_one_gradient_per_step_and_per_reset(self, streaming, sched256):
        length = 3 * sched256.loop_product + 1  # 49 steps, 13 of them reset steps
        if streaming:
            prob, sched = make_streaming_saddle_problem(6, -1.0, seed=5), sched256
        else:
            # B0 = 256 of 300 rows draws an index set for every anchor
            prob, sched = make_saddle_problem(6, 300, -1.0, seed=5), clamp_schedule(sched256, 300)
        core = getattr(prob, "core", prob)
        points, exact = [], core._exact_grad

        def counted(x):
            points.append(x)
            return exact(x)

        core._exact_grad = counted
        proxy = recording(prob)
        with fixed_length(length):
            res = one_epoch(prob.x0, proxy, sched, make_rng(8))
        assert_epoch_law(proxy.steps, res.x_out, sched)
        resets = len(range(0, length, sched.T[-1]))
        assert len(points) == length + resets == 62
        # the reset steps' iterates are each evaluated twice: as the step's
        # point and as the reference bound there
        iterates = [x.tobytes() for x, *_ in proxy.steps]
        evaluated = sorted(x.tobytes() for x in points)
        assert evaluated == sorted(iterates + iterates[:: sched.T[-1]])
        assert hashlib.sha256(res.x_out.tobytes()).hexdigest() == self.X_OUT[streaming]
        assert res.grads_used == sched.epoch_charge(length)


class PathStream(Problem):
    """A one-dimensional stream with a certified ball of radius 1 whose
    anchors move an epoch of unit step along ``path``: the t-th gradient,
    at x_t, is x_t - path[t], so the iterate x_{t+1} is path[t] exactly."""

    dim = 1

    def __init__(self, path):
        self.x0 = np.zeros(1)
        self.smoothness = SmoothnessSpec(L1=1.0, L2=1.0, L3=1.0, sigma2=1.0, delta_F=1.0, radius=1.0)
        self.path = iter(path)

    def sample_batch_grad(self, x, size, rng):
        return x - next(self.path)

    def difference_from(self, y):
        # bound at every anchor, and never called: every step is an anchor
        def diff(x, size, rng):
            raise AssertionError("a one-level nest with T = (1,) pairs no points")

        return diff


class TestChunkedBallCheck:
    """The iterates go into the run's log, which checks them against the
    ball a chunk at a time across epochs; the flag is the one a check after
    every step would give."""

    # one level with a single loop: every step is an anchor, x <- x - g
    UNIT_STEP = NestedSchedule(B0=1, M=0.1, T=(1,), B=(1,))
    ROWS = 3  # iterates per chunk: 8 steps make chunks of 3, 3 and 2

    def run(self, monkeypatch, path, lengths):
        """The log's flag after epochs of ``lengths`` steps walk ``path``."""
        monkeypatch.setattr(epoch, "BALL_CHECK_BYTES", self.ROWS * 8)
        prob = PathStream(path)
        stacks, check = [], prob.outside_ball
        prob.outside_ball = lambda points: stacks.append(len(points)) or check(points)
        log = BallLog(prob)
        x = np.zeros(1)
        for length in lengths:
            with fixed_length(length):
                x = one_epoch(x, prob, self.UNIT_STEP, make_rng(0), log).x_out
        assert x.tolist() == [path[-1]]
        flag = log.outside()
        assert all(1 <= n <= self.ROWS for n in stacks)
        return flag

    # one epoch, and the same 8 steps as epochs that chunks span
    SPLITS = [(8,), (2, 3, 3), (1, 0, 1, 6), (5, 3)]

    @pytest.mark.parametrize("lengths", SPLITS, ids=str)
    @pytest.mark.parametrize(
        "outside",
        [
            pytest.param({4}, id="after-the-first-chunk"),
            pytest.param({6}, id="in-the-final-partial-chunk"),
            pytest.param({2, 3}, id="leaves-and-comes-back"),
        ],
    )
    def test_one_excursion_is_flagged(self, monkeypatch, outside, lengths):
        # each path ends inside the ball, so only the chunks' checks see it
        path = [2.0 if t in outside else 0.5 for t in range(8)]
        assert self.run(monkeypatch, path, lengths)

    @pytest.mark.parametrize("lengths", SPLITS, ids=str)
    def test_path_inside_the_ball_is_not_flagged(self, monkeypatch, lengths):
        assert not self.run(monkeypatch, [0.5, -1.0, 1.0, 0.0, 0.25, -0.5, 1.0, 0.75], lengths)

    @pytest.mark.parametrize(
        "rows,B0",
        [pytest.param(rows, 16, id=str(rows)) for rows in (1, 2, 3, 7, 8, 1000)]
        # T = (2, 2, 4): finest-level runs of 3 steps, not 1, so chunks also
        # end inside a run
        + [pytest.param(rows, 256, id=f"{rows}-deep") for rows in (1, 2, 3, 7, 8, 1000)],
    )
    def test_flag_is_any_iterate_outside(self, monkeypatch, rows, B0):
        # the saddle of radius 0.3 started near its edge, where some epochs'
        # iterates cross it: the flag against a check of every iterate
        monkeypatch.setattr(epoch, "BALL_CHECK_BYTES", rows * 8 * 3)
        prob = make_saddle_problem(3, 8, -1.0, seed=10, radius=0.3)
        sched = clamp_schedule(derive_schedule(B0, M=6.0 * prob.smoothness.L1), 8)
        flags = set()
        for seed in range(12):
            u = make_rng(seed).standard_normal(3)
            x0 = u * (0.3 + 0.004 * (seed % 4 - 2)) / np.linalg.norm(u)
            steps, x_out = epoch_steps(prob, sched, 7, x0=x0, seed=seed)
            iterates = [x for x, *_ in steps[1:]] + [x_out]
            want = any(prob.outside_ball(x) for x in iterates)
            log = BallLog(prob)
            with fixed_length(7):
                one_epoch(x0, prob, sched, make_rng(seed), log)
            assert log.outside() == want
            flags.add(want)
        assert flags == {False, True}


class ExtendOnlyLog:
    """A stand-in for the run's log that has ``extend`` and nothing else: it
    keeps each list ``extend`` is passed, in ``calls``, and reading or
    writing any other attribute raises AttributeError."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = []

    def extend(self, points):
        self.calls.append(list(points))


class TestEpochToLog:
    """An epoch passes its iterates to the run's log in one ``extend`` call
    per reset step, holding that step and the finest-level run after it,
    and uses the log for nothing else."""

    @pytest.mark.parametrize("B0", [4, 16, 256, 65536], ids=["K=1", "K=2", "K=3", "K=4"])
    @pytest.mark.parametrize("stop", ["empty", "one-step", "two-sweeps", "inside-a-run"])
    def test_one_call_per_reset_step(self, B0, stop):
        prob = recording(make_streaming_saddle_problem(3, -1.0, seed=29))
        sched = derive_schedule(B0, M=6.0 * prob.smoothness.L1)
        L, T_K = sched.loop_product, sched.T[-1]
        # "inside-a-run": two sweeps, a whole run and all but one step of the next
        length = {"empty": 0, "one-step": 1, "two-sweeps": 2 * L, "inside-a-run": 2 * L + 2 * T_K - 1}[stop]
        log = ExtendOnlyLog()
        with fixed_length(length):
            res = run_epoch(prob.x0, prob, sched, make_rng(B0), log, None)
        assert [len(c) for c in log.calls] == [min(T_K, length - t) for t in range(0, length, T_K)]
        # x_1 .. x_T, in order
        iterates = [x for x, *_ in prob.steps[1:]] + [res.x_out] * bool(length)
        logged = [x for call in log.calls for x in call]
        assert len(logged) == length
        assert all(a.tobytes() == b.tobytes() for a, b in zip(logged, iterates))


def epoch_runs(schedule, lengths):
    """The finest-level runs of epochs of ``lengths`` steps, in order: each
    reset step t = 0, T_K, 2 T_K, ... starts a run of min(T_K, T - t)."""
    T_K = schedule.T[-1]
    return [min(T_K, T - t) for T in lengths for t in range(0, T, T_K)]


class TestBallCheckChunks:
    """The ball is checked a chunk of whole runs at a time, and a chunk spans
    the epochs of a run: it holds at most BALL_CHECK_BYTES // (8 d) iterates,
    or one run that is longer, and is checked when the next reset step's run
    would not fit, or when the log's flag is read."""

    def stacks(self, sched, lengths, byte_rows=None, dim=3):
        """The stacks that epochs of ``lengths`` steps, one run's log, check,
        after each was matched against the epochs' iterates and the chunk
        rule; with ``byte_rows``, BALL_CHECK_BYTES is patched to that many
        iterates."""
        nbytes = epoch.BALL_CHECK_BYTES if byte_rows is None else byte_rows * 8 * dim
        prob = ball_checks(make_streaming_saddle_problem(dim, -1.0, seed=23))
        iterates = []
        with mock.patch.object(epoch, "BALL_CHECK_BYTES", nbytes):
            log = BallLog(prob)
        x = prob.x0
        for k, length in enumerate(lengths):
            prob.steps.clear()
            with fixed_length(length):
                x = one_epoch(x, prob, sched, make_rng((k, length)), log).x_out
            iterates += [x for x, *_ in prob.steps[1:]] + [x] * bool(length)
        assert not log.outside()
        # x_1 .. x_T of every epoch, each checked exactly once and in order
        checked = [row for stack in prob.stacks for row in stack]
        assert np.array(checked).tobytes() == np.array(iterates).tobytes()
        rows = nbytes // (8 * dim)
        runs = epoch_runs(sched, lengths)
        starts = dict(zip(np.cumsum([0] + runs).tolist(), runs))
        end = 0
        for k, stack in enumerate(prob.stacks):
            assert 1 <= len(stack) <= rows or len(stack) == starts[end]
            end += len(stack)
            if k < len(prob.stacks) - 1:
                # x_end is the last iterate before the reset step t = end,
                # whose run would overflow the chunk
                assert len(stack) + starts[end] > rows
        return prob.stacks

    @pytest.mark.parametrize("B0", [4, 16, 256, 65536], ids=["K=1", "K=2", "K=3", "K=4"])
    @pytest.mark.parametrize("below", [1, 2])
    def test_canonical_nests(self, B0, below):
        # BALL_CHECK_BYTES below one finest-level run, so every chunk is a run,
        # the partial run that ends each epoch included
        sched = derive_schedule(B0, M=6.0)
        T_K = sched.T[-1]
        lengths = [2 * sched.loop_product + T_K // 2 + 1] * 2
        stacks = self.stacks(sched, lengths, max(0, T_K - below))
        assert [len(s) for s in stacks] == epoch_runs(sched, lengths)

    @settings(max_examples=100, deadline=None)
    @given(
        T=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
        lengths=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4),
        byte_rows=st.integers(min_value=0, max_value=40),
    )
    @example(T=[3, 9], lengths=[50], byte_rows=8)  # below one run of 9
    @example(T=[4, 1], lengths=[13], byte_rows=0)  # T_K = 1: a chunk of one
    @example(T=[2, 4], lengths=[23], byte_rows=10)  # 10 rows hold two runs of 4
    @example(T=[2, 4], lengths=[3, 2, 5], byte_rows=10)  # runs of 3 and 2 share a chunk
    def test_hand_built_nests(self, T, lengths, byte_rows):
        sched = NestedSchedule(B0=5, M=6.0, T=tuple(T), B=(3,) * len(T))
        self.stacks(sched, lengths, byte_rows)

    @pytest.mark.parametrize(
        "lengths,calls",
        [([0], 0), ([51], 1), ([3276], 1), ([3277], 2), ([1638, 0, 1638], 1), ([1638, 1639], 2)]
        # saddle-d10's epochs average 16 steps
        + [pytest.param([16] * k, calls, id=f"{k}x16-{calls}") for k, calls in ((204, 1), (205, 2))],
    )
    def test_default_bytes_hold_a_run(self, lengths, calls):
        # 2^18 bytes are 3276 iterates at d = 10: a run of up to that many
        # epoch steps is checked in one call when its flag is read
        stacks = self.stacks(derive_schedule(256, M=6.0), lengths, dim=10)
        assert len(stacks) == calls
