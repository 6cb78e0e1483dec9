"""Acceptance gate: every criterion at its declared size and tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (run with `-s` or read
captured output) and then asserts, so the suite doubles as a report.
"""

import math

import numpy as np
import pytest

from conftest import (
    DeclaredSpecProblem,
    DeclaredSpecStreaming,
    fixed_length,
    one_epoch,
    random_symmetric_fixture,
    rayleigh,
    recording,
    streaming_quadratic,
    subgaussian_check_batch,
)

from nestvr import (
    SmoothnessSpec,
    classify_point,
    clamp_schedule,
    configure,
    derive_schedule,
    draw_epoch_length,
    exact_expected_epoch_cost,
    expected_epoch_cost,
    find_nc_direction,
    make_regularized_problem,
    make_rng,
    make_saddle_problem,
    make_streaming_saddle_problem,
    run_driver,
    spawn_rngs,
)
from nestvr.harness import (
    verify_epoch_decrease,
    verify_geometric_tail_inequality,
    verify_series_domination,
    verify_subsample_variance,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_schedule_exactness():
    expected = {
        4: (1, (2,), (24,)),
        16: (2, (2, 2), (576, 24)),
        256: (3, (2, 2, 4), (55296, 2304, 96)),
        65536: (4, (2, 2, 4, 16), (84934656, 3538944, 147456, 1536)),
    }
    ok = True
    for B0, (K, T, B) in expected.items():
        sch = derive_schedule(B0, M=6.0)
        ok &= sch.K == K == int(math.log2(math.log2(B0)))
        ok &= sch.T == T and sch.T[0] == 2
        ok &= all(sch.T[l - 1] == 2 ** (2 ** (l - 2)) for l in range(2, K + 1))
        ok &= sch.B == B
        ok &= all(
            sch.B[l - 1] * 2 ** (2 ** (l - 1)) == 6 ** (K - l + 1) * B0 for l in range(2, K + 1)
        )
        ok &= sch.loop_product ** 2 == B0
    assert report(1, ok, f"canonical schedules exact for B0 in {sorted(expected)}")


def test_criterion_02_epoch_cost_accounting():
    problem = make_streaming_saddle_problem(10, -1.0, seed=202, noise=0.2)
    schedule = derive_schedule(256, M=6.0 * problem.smoothness.L1)
    closed_form = expected_epoch_cost(schedule)
    assert closed_form == 242944
    rng = make_rng(2024)
    tallies = np.array(
        [
            one_epoch(problem.x0, problem, schedule, rng).grads_used
            for _ in range(10_000)
        ],
        dtype=float,
    )
    mean = float(tallies.mean())
    bound = 7 * 256 * math.log2(256) ** 3
    within_band = abs(mean - closed_form) <= 0.02 * closed_form
    under_bound = mean <= bound
    detail = (
        f"mean counter {mean:.0f} vs closed form {closed_form} (2% band "
        f"[{0.98 * closed_form:.0f}, {1.02 * closed_form:.0f}]); "
        f"exact geometric-length expectation is {exact_expected_epoch_cost(schedule):.0f} "
        f"because partial sweeps still pay full refreshes; polylog bound {bound:.0f} "
        f"{'holds' if under_bound else 'violated'}"
    )
    assert report(2, within_band and under_bound, detail)


def test_criterion_03_geometric_epoch_length():
    schedule = derive_schedule(256, M=6.0)
    p = schedule.p
    rng = make_rng(303)
    draws = np.array([draw_epoch_length(p, rng) for _ in range(100_000)], dtype=float)
    mean_ok = abs(draws.mean() - 16.0) <= 0.5
    pmf_ok = True
    for k in (0, 1, 2):
        want = p * (1 - p) ** k
        got = float((draws == k).mean())
        se = math.sqrt(want * (1 - want) / draws.size)
        pmf_ok &= abs(got - want) <= 3 * se
    assert report(
        3, mean_ok and pmf_ok, f"mean {draws.mean():.3f} (target 16 +- 0.5), pmf at 0,1,2 within 3 SE"
    )


def test_criterion_04_full_batch_estimator_identity():
    problem = make_regularized_problem(dim=12, n=60, seed=404)
    schedule = clamp_schedule(derive_schedule(64, M=6.0 * problem.smoothness.L1), 60)
    proxy = recording(problem)
    with fixed_length(100):
        res = one_epoch(problem.x0, proxy, schedule, make_rng(404))
    # the step is x_{t+1} = x_t - v_t / (10 M), so consecutive iterates give v_t
    iterates = [x for x, *_ in proxy.steps] + [res.x_out]
    worst = 0.0
    for x, x_next in zip(iterates, iterates[1:]):
        g = problem.full_grad(x)
        v = 10.0 * schedule.M * (x - x_next)
        worst = max(worst, float(np.linalg.norm(v - g) / (1 + np.linalg.norm(g))))
    assert report(4, worst <= 1e-10, f"max relative deviation {worst:.2e} over 100 steps")


def test_criterion_05_epoch_decrease_inequality():
    problem = make_regularized_problem(dim=50, n=1000, seed=505)
    schedule = clamp_schedule(derive_schedule(256, M=6.0 * problem.smoothness.L1), 1000)
    rep = verify_epoch_decrease(problem, schedule, make_rng(505))
    assert report(5, rep.passed, rep.detail)


def test_criterion_06_nc_finder_contracts():
    eps_H, delta, trials = 0.1, 0.1, 200
    floor = (1 - delta) * trials - 3 * math.sqrt(trials * delta * (1 - delta))
    unsound = 0
    counts = {}
    for mode, streaming in (("finite", False), ("online", True)):
        found = 0
        for s in range(trials):
            problem, _ = random_symmetric_fixture(
                20, -2 * eps_H, seed=6000 + s, streaming=streaming
            )
            rng = make_rng(6500 + s)
            res = find_nc_direction(problem, problem.x0, eps_H, delta, rng)
            if res.direction is not None:
                found += 1
                if rayleigh(problem, problem.x0, res.direction) > -eps_H / 2 + 1e-6:
                    unsound += 1
        bottoms = 0
        for s in range(trials):
            problem, _ = random_symmetric_fixture(
                20, 0.0, seed=7000 + s, streaming=streaming, lambda_rest=(0.0, 1.0)
            )
            rng = make_rng(7500 + s)
            res = find_nc_direction(problem, problem.x0, eps_H, delta, rng)
            if res.direction is None:
                bottoms += 1
            elif rayleigh(problem, problem.x0, res.direction) > -eps_H / 2 + 1e-6:
                unsound += 1
        counts[mode] = (found, bottoms)
    ok = unsound == 0 and all(
        found >= floor and bottoms >= floor for found, bottoms in counts.values()
    )
    assert report(
        6,
        ok,
        f"soundness violations {unsound}; completeness/abstention per mode "
        f"{counts} (floor {floor:.1f}/200)",
    )


def test_criterion_07_saddle_escape_end_to_end():
    problem = make_saddle_problem(10, 256, -1.0, seed=707, radius=1.5)
    config = configure(problem, eps=1e-3, eps_H=0.1, order=2, overrides={"U": 500})
    certified = 0
    all_good = True
    for rng in spawn_rngs(707, 100):
        out = run_driver(problem, config, rng)
        if out.status == "certified-SOSP":
            certified += 1
            cls = classify_point(problem, out.z_final, eps=2e-3, eps_H=0.2)
            all_good &= cls.gradient_norm <= 2e-3 and cls.lambda_min >= -0.2
            all_good &= not out.out_of_domain
    ok = certified >= 90 and all_good
    assert report(
        7, ok, f"{certified}/100 certified; every certificate within relaxed thresholds: {all_good}"
    )


def test_criterion_08_nc_step_decrease():
    # declared L2 = L3 = 1 saddle fixture: quartic strength 1/24 on the unit ball
    problem = make_saddle_problem(6, 4, -1.0, seed=808, quartic=1.0 / 24.0, radius=1.0, noise=0.0)
    sm = problem.smoothness
    assert sm.L2 == pytest.approx(1.0) and sm.L3 == pytest.approx(1.0)
    eps_H = 0.01
    eta2 = configure(problem, eps=1e-3, eps_H=eps_H, order=2).eta
    eta3 = configure(problem, eps=1e-3, eps_H=eps_H, order=3).eta
    assert eta2 == pytest.approx(eps_H / sm.L2, rel=1e-12)
    assert eta3 == pytest.approx(math.sqrt(3 * eps_H / sm.L3), rel=1e-12)

    res = find_nc_direction(problem, problem.x0, eps_H, 0.1, make_rng(808))
    assert res.direction is not None
    v = res.direction
    ray = rayleigh(problem, problem.x0, v)

    def sign_averaged_decrease(eta: float) -> float:
        f0 = problem.value(problem.x0)
        return 0.5 * (
            problem.value(problem.x0 + eta * v) + problem.value(problem.x0 - eta * v)
        ) - f0

    ok = True
    details = []
    for eta in (eta2, eta3):
        avg = sign_averaged_decrease(eta)
        predicted = 0.5 * eta**2 * ray
        tol = sm.L2 * eta**3 / 6.0
        ok &= abs(avg - predicted) <= tol
        details.append(f"eta={eta:.4g}: |avg - eta^2/2 ray| = {abs(avg - predicted):.2e} <= {tol:.2e}")
    # certified directions guarantee a floor on the decrease magnitude
    ok &= -sign_averaged_decrease(eta2) >= eps_H**3 / (24.0 * sm.L2**2)
    ratio = sign_averaged_decrease(eta3) / sign_averaged_decrease(eta2)
    ok &= ratio >= 10.0
    assert report(8, ok, "; ".join(details) + f"; third/second decrease ratio {ratio:.1f} >= 10")


def test_criterion_09_config_constants_exact():
    checks = []

    def close(got, want):
        checks.append(abs(got - want) <= 1e-12 * max(1.0, abs(want)))

    spec2 = SmoothnessSpec(L1=1.0, L2=2.0, L3=1.0, sigma2=1.0, delta_F=1.0)
    close(configure(DeclaredSpecProblem(100, 4, spec2), 0.1, 0.1, order=2).eta, 0.05)
    spec_d = SmoothnessSpec(L1=1.0, L2=1.0, L3=1.0, sigma2=1.0, delta_F=1.0)
    close(configure(DeclaredSpecProblem(100, 4, spec_d), 0.1, 0.1, order=2).delta, 1e-3 / 144.0)
    checks.append(configure(DeclaredSpecProblem(100, 4, spec_d), 0.1, 0.5, order=2).U == 18192)

    tiny = SmoothnessSpec(L1=1.0, L2=1.0, L3=1.0, sigma2=1e-4, delta_F=1.0)
    cfg = configure(DeclaredSpecStreaming(4, tiny), 0.1, 0.5, order=2)
    close(cfg.schedule.M, 12.0)  # 2 rho L1 at the floor rho = 6
    unit = SmoothnessSpec(L1=1.0, L2=1.0, L3=1.0, sigma2=1.0, delta_F=1.0)
    B0 = configure(DeclaredSpecStreaming(4, unit), 0.1, 0.5, order=2).schedule.B0
    checks.append(B0 == 1_920_000)

    spec3 = SmoothnessSpec(L1=1.0, L2=1.0, L3=1.0, sigma2=1.0, delta_F=1.0)
    close(configure(DeclaredSpecProblem(100, 4, spec3), 0.1, 0.3, order=3).eta, math.sqrt(0.9))
    spec3b = SmoothnessSpec(L1=1.0, L2=1.0, L3=2.0, sigma2=1.0, delta_F=1.0)
    close(configure(DeclaredSpecProblem(100, 4, spec3b), 0.1, 0.1, order=3).delta, 0.01 / 144.0)
    eta3 = configure(DeclaredSpecProblem(100, 4, spec3), 0.1, 0.01, order=3).eta
    eta2 = configure(DeclaredSpecProblem(100, 4, spec3), 0.1, 0.01, order=2).eta
    close(eta3 / eta2, math.sqrt(0.03) / 0.01)

    close(configure(DeclaredSpecStreaming(4, spec3), 0.1, 0.25, order=3).eta, 0.5)
    close(configure(DeclaredSpecStreaming(4, spec3), 0.1, 0.1, order=3).delta, 1e-5)
    tiny3 = SmoothnessSpec(L1=1.0, L2=1.0, L3=1.0, sigma2=1e-4, delta_F=1.0)
    close(configure(DeclaredSpecStreaming(4, tiny3), 0.1, 0.25, order=3).schedule.M, 12.0)

    ok = all(checks)
    assert report(9, ok, f"{sum(checks)}/{len(checks)} constant derivations exact to 1e-12")


def test_criterion_10_series_and_subsampling_suites():
    rng = make_rng(1010)
    tail = verify_geometric_tail_inequality(rng)
    subsample = verify_subsample_variance(rng)
    domination = verify_series_domination()
    ok = tail.passed and subsample.passed and domination.passed
    assert report(
        10,
        ok,
        f"geometric tail: {tail.detail}; subsampling: {subsample.detail}; "
        f"series domination: {domination.detail}",
    )


def test_criterion_11_online_gradient_test():
    eps, dim, noise = 0.1, 20, 0.5
    sigma2 = dim * noise**2
    B0 = subgaussian_check_batch(sigma2, eps / 4.0, delta=0.05)

    def trial_fires(norm: float, seed: int) -> bool:
        x0 = np.zeros(dim)
        x0[0] = norm
        problem = streaming_quadratic(np.eye(dim), seed=seed, noise=noise, x0=x0)
        cfg = configure(
            problem, eps=eps, eps_H=0.5, order=2, overrides={"B0": B0, "U": 1, "M": 12.0}
        )
        out = run_driver(problem, cfg, make_rng(seed))
        kinds = {e.kind for e in out.trace.events}
        return "epoch" in kinds

    fired = sum(trial_fires(eps, 11_000 + s) for s in range(200))
    abstained = sum(not trial_fires(eps / 8.0, 12_000 + s) for s in range(200))
    ok = fired >= 190 and abstained >= 190
    assert report(
        11,
        ok,
        f"B0={B0}: fired {fired}/200 at |grad|=eps, "
        f"abstained {abstained}/200 at |grad|=eps/8 (both need >= 190)",
    )
