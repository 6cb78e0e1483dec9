import math
from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, strategies as st
import numpy as np
import pytest

from conftest import fixed_length, one_epoch, recording, reset_level
from nestvr import (
    NestedSchedule,
    check_series_domination,
    clamp_schedule,
    damping_series,
    derive_schedule,
    exact_expected_epoch_cost,
    expected_epoch_cost,
    make_rng,
    make_streaming_saddle_problem,
)


# hand-evaluated canonical schedules: B0 -> (K, T, B, loop product)
CANONICAL = {
    4: (1, (2,), (24,), 2),
    16: (2, (2, 2), (576, 24), 4),
    256: (3, (2, 2, 4), (55296, 2304, 96), 16),
    65536: (4, (2, 2, 4, 16), (84934656, 3538944, 147456, 1536), 256),
}


@pytest.mark.parametrize("B0", sorted(CANONICAL))
def test_derive_schedule_canonical(B0):
    K, T, B, prod = CANONICAL[B0]
    sch = derive_schedule(B0, M=6.0)
    assert sch.K == K
    assert sch.T == T
    assert sch.B == B
    assert sch.loop_product == prod
    assert prod * prod == B0
    assert sch.p == 1.0 / (1 + prod)
    assert not sch.clamped


def test_derive_schedule_formula_levels():
    sch = derive_schedule(256, M=6.0)
    assert sch.T[0] == 2
    for l in range(2, sch.K + 1):
        assert sch.T[l - 1] == 2 ** (2 ** (l - 2))
        assert sch.B[l - 1] == 6 ** (sch.K - l + 1) * 256 // 2 ** (2 ** (l - 1))
    assert sch.B[0] == 6**sch.K * 256


@pytest.mark.parametrize("B0", [2, 3, 0, -5])
def test_small_base_rejected(B0):
    with pytest.raises(ValueError):
        derive_schedule(B0, M=1.0)


def test_base_takes_the_counts_the_schedule_takes():
    # a numpy integer is read as a Python int, so 6^K B0 cannot wrap in int64
    for B0 in (np.int64(256), np.uint16(256), np.int64(2**62)):
        schedule = derive_schedule(B0, M=6.0)
        assert schedule == derive_schedule(int(B0), M=6.0)
        assert type(schedule.B0) is int and all(type(b) is int for b in schedule.B)
    for B0 in (256.0, np.float64(256.0)):
        with pytest.raises(TypeError):
            derive_schedule(B0, M=6.0)
    for B0 in (True, np.True_):
        with pytest.raises((TypeError, ValueError)):
            derive_schedule(B0, M=6.0)


@pytest.mark.parametrize(
    "T,B", [((), ()), ((2,), (3, 3)), ((2, 0), (3, 3)), ((-1,), (1,))], ids=["depth-0", "unpaired", "T=0", "T<0"]
)
def test_malformed_nest_rejected(T, B):
    # none is a nest an epoch can run: on the first, third and fourth its
    # step count would never advance, and the second leaves a batch unused
    with pytest.raises(ValueError):
        NestedSchedule(B0=4, M=6.0, T=T, B=B)


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("B0", 0, ValueError),
        ("B", (8, 0), ValueError),
        ("B", (-3, 4), ValueError),
        ("B0", 4.5, TypeError),
        ("B", (8, 2.5), TypeError),
        ("T", (2.0, 2), TypeError),
        ("B0", True, TypeError),  # would run as a batch of 1
        ("B", (8, np.True_), TypeError),
    ],
    ids=["B0=0", "B_2=0", "B_1<0", "B0=4.5", "B_2=2.5", "T_1=2.0", "B0=True", "B_2=np.True_"],
)
def test_counts_must_be_integers_at_least_one(field, value, error):
    # B0, every B_l and every T_l, however the schedule is built; before, an
    # epoch ran its draws and steps and failed only inside, or ran silently
    fields = {"B0": 16, "M": 6.0, "T": (2, 2), "B": (64, 16), field: value}
    match = rf"^{field} must hold"
    with pytest.raises(error, match=match):
        NestedSchedule(**fields)
    with pytest.raises(error, match=match):
        replace(derive_schedule(16, M=6.0), **{field: value})


@pytest.mark.parametrize("b1", [64, 40000])
def test_numpy_integer_counts_accepted(b1):
    # stored as Python ints: 2 * uint16(40000) would wrap to 14464, and a
    # charge in numpy types is no int that json.dumps writes
    sched = NestedSchedule(B0=np.int64(16), M=6.0, T=(np.int32(2), 2), B=(np.uint16(b1), 16))
    plain = NestedSchedule(B0=16, M=6.0, T=(2, 2), B=(b1, 16))
    assert sched == plain
    assert all(type(c) is int for c in (sched.B0, *sched.T, *sched.B, *sched.level_costs))
    assert type(sched.epoch_charge(5)) is int
    assert sched.epoch_charge(5) == plain.epoch_charge(5) == 16 * 2 + 2 * b1 * 3 + 32 * 5


@pytest.mark.parametrize("M", [math.inf, math.nan, 0, 0.0, -1, -1.0])
def test_step_parameter_must_be_positive_and_finite(M):
    # the rule check_override applies to an M override.  The step is
    # 1 / (10 M): an epoch would divide by zero, ascend, return NaN iterates
    # or never move, so no schedule holds such an M, however it is built
    with pytest.raises(ValueError, match="M must be positive and finite"):
        derive_schedule(16, M=M)
    with pytest.raises(ValueError, match="M must be positive and finite"):
        NestedSchedule(B0=16, M=M, T=(2, 2), B=(64, 16))
    with pytest.raises(ValueError, match="M must be positive and finite"):
        replace(derive_schedule(16, M=6.0), M=M)


def test_non_power_base_rounds_batches_up():
    sch = derive_schedule(1000, M=6.0)
    assert sch.K == 3
    for l in range(2, sch.K + 1):
        num = 6 ** (sch.K - l + 1) * 1000
        den = 2 ** (2 ** (l - 1))
        assert sch.B[l - 1] == -(-num // den)
        assert sch.B[l - 1] >= num / den


def test_batch_lower_bound_holds_with_equality_on_canonical():
    # level batch sizes meet 6^(K-l+1) * (prod_{s>=l} T_s)^2, exactly when canonical
    for B0 in CANONICAL:
        sch = derive_schedule(B0, M=6.0)
        for l in range(1, sch.K + 1):
            tail = math.prod(sch.T[l - 1 :])
            assert sch.B[l - 1] == 6 ** (sch.K - l + 1) * tail**2


def test_clamp_schedule():
    sch = derive_schedule(256, M=6.0)
    clamped = clamp_schedule(sch, 1000)
    assert clamped.clamped
    assert clamped.B == (1000, 1000, 96)
    assert clamped.B0 == 256
    # the streaming sentinel leaves the schedule untouched
    assert clamp_schedule(sch, None) is sch


def test_clamp_all_levels():
    sch = clamp_schedule(derive_schedule(16, M=6.0), 16)
    assert sch.B0 == 16
    assert sch.B == (16, 16)


@pytest.mark.parametrize(
    "B0,expected",
    [
        (256, 256 + 2 * (55296 * 2 + 2304 * 4 + 96 * 16)),  # 242944
        (4, 4 + 2 * (24 * 2)),  # 100
        (16, 16 + 2 * (576 * 2 + 24 * 4)),  # 2512
    ],
)
def test_expected_epoch_cost_closed_form(B0, expected):
    assert expected_epoch_cost(derive_schedule(B0, M=6.0)) == expected


def test_expected_epoch_cost_known_values():
    assert expected_epoch_cost(derive_schedule(256, M=6.0)) == 242944
    assert expected_epoch_cost(derive_schedule(4, M=6.0)) == 100


def test_cost_below_nest_bound():
    # strictly under B0 + 6 * 6^K * B0 for canonical bases
    for B0 in CANONICAL:
        sch = derive_schedule(B0, M=6.0)
        assert expected_epoch_cost(sch) < B0 + 6 * 6**sch.K * B0


def test_cost_polylog_bound_wide_range():
    B0 = 4
    while B0 <= 2**32:
        sch = derive_schedule(B0, M=6.0)
        assert expected_epoch_cost(sch) <= 7 * B0 * math.log2(B0) ** 3
        B0 *= 4


@pytest.mark.parametrize("B0", [5, 7, 100, 1000, 12345, 999937, 2**31 - 1])
def test_cost_polylog_bound_non_canonical(B0):
    # rounded-up batch sizes must stay inside the same polylog envelope
    sch = derive_schedule(B0, M=6.0)
    assert expected_epoch_cost(sch) <= 7 * B0 * math.log2(B0) ** 3


def test_exact_expected_cost_exceeds_closed_form():
    # the geometric length only hits the closed form at period multiples;
    # partial sweeps still pay full refreshes, so the true mean is larger
    sch = derive_schedule(256, M=6.0)
    assert exact_expected_epoch_cost(sch) > expected_epoch_cost(sch)


def test_damping_series_endpoint_and_recursion():
    sch = derive_schedule(16, M=6.0)
    series = damping_series(sch, L=1.0, s=2)
    # endpoint M / (6^(K-s+1) prod_{l=s}^K T_l) = 6 / (6 * 2)
    assert series[-1] == pytest.approx(0.5, rel=1e-15)
    # hand-run recursion: c1 = 1.5 * 0.5 + (3/6) / 24, c0 = 1.5 * c1 + (3/6) / 24
    assert series[1] == pytest.approx(float(Fraction(37, 48)), rel=1e-13)
    assert series[0] == pytest.approx(float(Fraction(113, 96)), rel=1e-13)


def test_damping_series_zero_smoothness_is_pure_geometric():
    sch = derive_schedule(256, M=6.0)
    for s in range(1, sch.K + 1):
        series = damping_series(sch, L=0.0, s=s)
        T_s = sch.T[s - 1]
        for j, c in enumerate(series):
            assert c == pytest.approx((1 + 1 / T_s) ** (T_s - j) * series[-1], rel=1e-12)


def test_series_domination_canonical():
    for B0 in (4, 16, 256):
        report = check_series_domination(derive_schedule(B0, M=6.0), L=1.0)
        assert report.applicable
        assert report.passed
        assert report.margin > 0


def test_series_domination_top_level_inequality():
    # every top-level constant times (1 + T_K) stays strictly under M
    sch = derive_schedule(256, M=6.0)
    series = damping_series(sch, L=1.0, s=sch.K)
    for c in series:
        assert c * (1 + sch.T[-1]) < sch.M


def test_series_domination_flagged_when_hypothesis_unmet():
    report = check_series_domination(derive_schedule(256, M=1.0), L=1.0)
    assert not report.applicable  # M < 6 L: computed anyway, no guarantee


def reference_damping_series(schedule, L, s):
    """The level-s constants filled in backwards from the endpoint, slot by slot."""
    M = schedule.M
    T_s = schedule.T[s - 1]
    endpoint = M / (6 ** (schedule.K - s + 1) * math.prod(schedule.T[s - 1 :]))
    increment = (3.0 * L * L / M) * (math.prod(schedule.T[s:]) / schedule.B[s - 1])
    vals = [0.0] * (T_s + 1)
    vals[T_s] = endpoint
    for j in range(T_s - 1, -1, -1):
        vals[j] = (1.0 + 1.0 / T_s) * vals[j + 1] + increment
    return vals


def reference_gaps(schedule, L):
    """Every gap of the ordering, one per inequality: level s - 1's constants
    times (1 + T_{s-1}) under level s's endpoint, the top level's under M."""
    series = {s: reference_damping_series(schedule, L, s) for s in range(1, schedule.K + 1)}
    gaps = []
    for s in range(2, schedule.K + 1):
        bound = series[s][-1]
        T_prev = schedule.T[s - 2]
        gaps += [bound - c * (1 + T_prev) for c in series[s - 1]]
    T_K = schedule.T[-1]
    gaps += [schedule.M - c * (1 + T_K) for c in series[schedule.K]]
    return gaps


class TestSeriesDominationReference:
    """The check's one margin against every gap, inequality by inequality."""

    schedules = [
        derive_schedule(B0, M) for B0 in (4, 16, 256, 65536) for M in (1.0, 6.0, 60.0)
    ] + [clamp_schedule(derive_schedule(256, M=6.0), 1000)]

    @pytest.mark.parametrize("L", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("schedule", schedules, ids=lambda s: f"B0={s.B0},M={s.M},{s.clamped}")
    def test_margin_is_least_gap(self, schedule, L):
        report = check_series_domination(schedule, L)
        gaps = reference_gaps(schedule, L)
        assert report.margin == min(gaps)  # bit for bit
        assert report.passed == all(gap > 0 for gap in gaps)
        assert report.applicable == (schedule.M >= 6.0 * L and not schedule.clamped)
        for s in range(1, schedule.K + 1):
            assert list(damping_series(schedule, L, s)) == reference_damping_series(schedule, L, s)

    def test_canonical_margins(self):
        margins = [
            check_series_domination(derive_schedule(B0, M=6.0), 1.0).margin
            for B0 in (4, 16, 256, 65536)
        ]
        assert margins == [2.46875, 0.20572916666666674, 0.00857204861111111, 8.92921730324074e-05]
        report = check_series_domination(derive_schedule(256, M=1.0), 1.0)
        assert report.margin == -0.40950520833333304
        assert not (report.applicable or report.passed)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, -1.0])
    def test_invalid_smoothness_rejected(self, L):
        schedule = derive_schedule(256, M=6.0)
        with pytest.raises(ValueError, match="L must be >= 0 and finite"):
            damping_series(schedule, L, 1)
        with pytest.raises(ValueError, match="L must be >= 0 and finite"):
            check_series_domination(schedule, L)


def test_schedule_json_dict():
    d = derive_schedule(256, M=6.0).as_dict()
    assert d["K"] == 3 and d["T"] == [2, 2, 4]
    assert d["expected_epoch_cost"] == 242944


class TestScheduleProperties:
    """Invariants of derive_schedule and clamp_schedule over random bases."""

    bases = st.integers(min_value=4, max_value=2**64)

    @given(B0=bases)
    def test_derived_identities(self, B0):
        sch = derive_schedule(B0, M=6.0)
        # K = floor(log2 log2 B0): 2^(2^K) <= B0 < 2^(2^(K+1))
        assert 2 ** (2**sch.K) <= B0 < 2 ** (2 ** (sch.K + 1))
        assert sch.T == (2, *(2 ** (2 ** (l - 2)) for l in range(2, sch.K + 1)))
        assert sch.loop_product**2 <= B0
        assert sch.p == 1.0 / (1 + sch.loop_product)
        assert sch.B[0] == 6**sch.K * B0
        for l in range(1, sch.K + 1):
            tail = math.prod(sch.T[l - 1 :])
            assert sch.B[l - 1] >= 6 ** (sch.K - l + 1) * tail**2
            if l >= 2:
                # the least integer at or above 6^(K-l+1) B0 / 2^(2^(l-1))
                num, den = 6 ** (sch.K - l + 1) * B0, 2 ** (2 ** (l - 1))
                assert (sch.B[l - 1] - 1) * den < num <= sch.B[l - 1] * den
        assert sch.level_costs == (B0, *(2 * b for b in sch.B))

    @given(B0=bases, n=st.integers(min_value=1, max_value=2**72))
    def test_clamp_invariants(self, B0, n):
        sch = derive_schedule(B0, M=6.0)
        out = clamp_schedule(sch, n)
        assert out.B0 == min(B0, n) and out.B == tuple(min(b, n) for b in sch.B)
        changed = (out.B0, out.B) != (sch.B0, sch.B)
        assert out.clamped == changed
        if not changed:
            assert out is sch
        assert (out.K, out.T, out.M, out.p) == (sch.K, sch.T, sch.M, sch.p)
        assert clamp_schedule(out, n) is out

    @given(B0=bases, length=st.integers(min_value=1, max_value=40))
    @example(B0=16, length=0)
    @example(B0=256, length=1)
    @example(B0=4, length=3 * 2)
    @example(B0=16, length=3 * 4)
    @example(B0=256, length=3 * 16)
    @example(B0=65536, length=3 * 256)
    @example(B0=65536, length=3 * 16 + 7)  # stops inside a finest-level run
    def test_step_charge_is_tail_of_level_costs(self, B0, length):
        # streaming batch means cost O(d) whatever the batch size, so even
        # the largest bases run an epoch quickly.  Each step makes its reset
        # level's call and costs the tail of the level costs from that level;
        # the epoch charges the sum of its steps' costs once, when it ends,
        # which is the closed form epoch_charge.  The examples cover the
        # empty epoch, a lone anchor and three whole sweeps of the canonical
        # schedules, K = 1..4
        prob = recording(make_streaming_saddle_problem(2, -1.0, seed=3))
        sch = derive_schedule(B0, M=6.0 * prob.smoothness.L1)
        with fixed_length(length):
            res = one_epoch(prob.x0, prob, sch, make_rng(B0 % 997))
        sizes = (sch.B0, *sch.B)
        levels = [reset_level(t, sch) for t in range(length)]
        calls = [(size, y is None) for _, y, size, _ in prob.steps]
        assert calls == [(sizes[r], r == 0) for r in levels]
        want = sum(sum(sch.level_costs[r:]) for r in levels)
        assert res.grads_used == want
        assert sch.epoch_charge(length) == want
