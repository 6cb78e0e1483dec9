import math
from fractions import Fraction

from hypothesis import example, given, strategies as st
import pytest

from conftest import reset_level
from nestvr import (
    GradCounter,
    check_series_domination,
    clamp_schedule,
    damping_series,
    derive_schedule,
    exact_expected_epoch_cost,
    expected_epoch_cost,
    make_rng,
    make_streaming_saddle_problem,
    run_epoch,
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
    assert series.endpoint == pytest.approx(0.5, rel=1e-15)
    # hand-run recursion: c1 = 1.5 * 0.5 + (3/6) / 24, c0 = 1.5 * c1 + (3/6) / 24
    assert series.values[1] == pytest.approx(float(Fraction(37, 48)), rel=1e-13)
    assert series.values[0] == pytest.approx(float(Fraction(113, 96)), rel=1e-13)


def test_damping_series_zero_smoothness_is_pure_geometric():
    sch = derive_schedule(256, M=6.0)
    for s in range(1, sch.K + 1):
        series = damping_series(sch, L=0.0, s=s)
        T_s = sch.T[s - 1]
        for j, c in enumerate(series.values):
            assert c == pytest.approx((1 + 1 / T_s) ** (T_s - j) * series.endpoint, rel=1e-12)


def test_series_domination_canonical():
    for B0 in (4, 16, 256):
        report = check_series_domination(derive_schedule(B0, M=6.0), L=1.0)
        assert report.applicable
        assert report.cross_level_ok and report.top_level_ok
        assert report.margin > 0


def test_series_domination_top_level_inequality():
    # every top-level constant times (1 + T_K) stays strictly under M
    sch = derive_schedule(256, M=6.0)
    series = damping_series(sch, L=1.0, s=sch.K)
    for c in series.values:
        assert c * (1 + sch.T[-1]) < sch.M


def test_series_domination_flagged_when_hypothesis_unmet():
    report = check_series_domination(derive_schedule(256, M=1.0), L=1.0)
    assert not report.applicable  # M < 6 L: computed anyway, no guarantee


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
    @example(B0=4, length=3 * 2)
    @example(B0=16, length=3 * 4)
    @example(B0=256, length=3 * 16)
    @example(B0=65536, length=3 * 256)
    def test_step_charge_is_tail_of_level_costs(self, B0, length):
        # streaming batch means cost O(d) whatever the batch size, so even
        # the largest bases run an epoch quickly.  The tails strictly fall
        # with the level, so the charges name the levels run_epoch's
        # countdowns step through; the examples cover three whole sweeps of
        # the canonical schedules, K = 1..4
        class Recording(GradCounter):
            __slots__ = ("charges",)

            def __init__(self):
                super().__init__()
                self.charges = []

            def add(self, units):
                self.charges.append(units)
                super().add(units)

        prob = make_streaming_saddle_problem(2, -1.0, seed=3)
        sch = derive_schedule(B0, M=6.0 * prob.smoothness.L1)
        counter = Recording()
        run_epoch(prob.x0, prob, sch, make_rng(B0 % 997), counter, length_override=length)
        want = [sum(sch.level_costs[reset_level(t, sch) :]) for t in range(length)]
        assert counter.charges == want
