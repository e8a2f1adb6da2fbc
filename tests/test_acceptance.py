"""Acceptance gate: one test per shipped claim, pinned tolerances.

Each test prints a single ``criterion NN: PASS`` line on success; pytest -v
adds the per-test verdicts. Random draws come from the seeded samplers in
conftest, so every run checks the same instances.
"""

import dataclasses
import time

import numpy as np
import pytest

from roadrec.model import GameParams, check_assumption_two_stage, mu_low, myopic_so_flow
from roadrec import infinite as inf
from roadrec import two_stage as ts
from roadrec.sim import AgentState, SimConfig, deviation_rollout, run_scheme

from conftest import (
    EXAMPLE1,
    REFERENCE,
    STATIC_LOW,
    assert_pooled_match_linear,
    draw_infinite_params,
    draw_two_stage_case,
)


@pytest.fixture(scope="module")
def two_stage_cases():
    rng = np.random.default_rng(101)
    return [draw_two_stage_case(rng) for _ in range(12)]


@pytest.fixture(scope="module")
def search_draws():
    rng = np.random.default_rng(77)
    return [draw_infinite_params(rng, n_range=(5, 9), delta_range=(0.05, 0.5))
            for _ in range(55)]


@pytest.fixture(scope="module")
def tiny_delta_draws():
    rng = np.random.default_rng(78)
    return [draw_infinite_params(rng, n_range=(5, 9), delta_range=(0.005, 0.05))
            for _ in range(55)]


def test_criterion_01_example_thresholds_reproduce():
    t0 = time.perf_counter()
    th = ts.thresholds(EXAMPLE1)
    elapsed = time.perf_counter() - t0
    assert round(th.beta_p, 2) == 0.50
    assert round(th.beta_f, 2) == 0.57
    assert round(th.beta_so, 2) == 0.05
    assert elapsed < 1.0
    print(f"criterion 01: PASS thresholds 0.50/0.57/0.05 in {elapsed:.3f}s")


def test_criterion_02_scheme_strictly_beats_benchmarks_in_region():
    t0 = time.perf_counter()
    th = ts.thresholds(EXAMPLE1)
    limit = check_assumption_two_stage(0.0, EXAMPLE1).beta_limit
    betas = [round(i / 100, 10) for i in range(int(limit * 100) + 1)]
    assert betas, "grid is empty"
    strict_somewhere = False
    for point in ts.belief_sweep(EXAMPLE1, betas):
        if point.gated:
            continue
        beta, v_partial = point.beta, point.v_partial
        benchmark = min(point.v_full, point.v_private)
        if beta >= th.beta_p:
            assert v_partial <= benchmark + 1e-9, beta
        if th.beta_p < beta < th.beta_f and v_partial < benchmark - 1e-9:
            strict_somewhere = True
    elapsed = time.perf_counter() - t0
    assert strict_somewhere
    assert elapsed < 5.0
    print(f"criterion 02: PASS strict win inside the region, never worse; {elapsed:.2f}s")


def test_criterion_03_brute_force_equilibria_match_theory(two_stage_cases):
    t0 = time.perf_counter()
    assert len(two_stage_cases) >= 10
    for params, beta in two_stage_cases:
        for regime in ("full", "private"):
            predicted = ts.equilibrium_flows(beta, regime, params)
            found = ts.brute_force_equilibrium(params, beta, regime=regime)
            assert all(o.experimenters <= 1 for o in found), (params, beta, regime)
            got = [(o.experimenters, o.flow_low, o.flow_high) for o in found]
            want = [(predicted.experimenters, predicted.flow_low, predicted.flow_high)]
            assert got == want, (params, beta, regime, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 03: PASS {len(two_stage_cases)} instances x 2 regimes in {elapsed:.2f}s")


def test_criterion_04_state_costs_match_linear_solve(infinite_draws):
    assert len(infinite_draws) >= 200
    rng = np.random.default_rng(20260820)
    worst = 0.0
    for params in infinite_draws:
        star = inf.pi_star(params)
        c = int(rng.integers(2, params.n + 1))
        d = int(rng.integers(c, params.n + 1))
        for pair in {(star.c, star.d), (c, d)}:
            table = inf.state_costs(*pair, params)
            linear = inf.state_costs_linear(*pair, params)
            for f in dataclasses.fields(inf.StateCostTable):
                a, b = getattr(table, f.name), getattr(linear, f.name)
                if a is None or b is None:
                    assert a is b, (params, pair, f.name)
                    continue
                rel = abs(a - b) / (1.0 + abs(a))
                worst = max(worst, rel)
                assert rel <= 1e-9, (params, pair, f.name, rel)
            assert_pooled_match_linear(*pair, params)
    print(f"criterion 04: PASS {len(infinite_draws)} draws, worst relative gap {worst:.2e}")


def test_criterion_05_optimal_scheme_obedient_and_profitable(infinite_draws):
    for params in infinite_draws:
        star = inf.pi_star(params)
        report = inf.check_ic(star.c, star.d, params)
        assert report.verdict, (params, report)
        assert all(e.satisfied for e in report.entries), (params, report)
        cost = inf.scheme_cost(star.c, star.d, params)
        no_experiment = params.n * params.s0 / (1.0 - params.delta)
        assert cost < no_experiment, (params, cost, no_experiment)
    print(f"criterion 05: PASS obedience and strict gain on {len(infinite_draws)} draws")


def test_criterion_06_static_low_road_breaks_obedience():
    x_so = myopic_so_flow(mu_low(STATIC_LOW), STATIC_LOW)
    entry = inf.check_ic(x_so, x_so, STATIC_LOW).entry("safe_at_d_pooled")
    assert not entry.vacuous
    assert entry.slack < 0.0
    assert entry.slack == pytest.approx(-4.0, abs=1e-12)
    print(f"criterion 06: PASS pinned planner flows violate obedience (slack {entry.slack})")


def test_criterion_07_ratio_reaches_one_and_stays():
    deltas = [round(0.05 * k, 10) for k in range(1, 20)]
    points = inf.delta_sweep(REFERENCE, deltas)
    feasible = [p for p in points if p.feasible]
    assert feasible, "no feasible sweep point"
    x_so = myopic_so_flow(mu_low(REFERENCE), REFERENCE)
    for p in feasible:
        assert p.ratio >= 1.0 - 1e-12, p
    matched = [p.delta for p in feasible if p.x_ll == x_so]
    assert matched, "steady flow never reaches the planner flow"
    delta_star = min(matched)
    for p in feasible:
        if p.delta >= delta_star:
            assert p.x_ll == x_so, p
            assert p.ratio == 1.0, p
    print(f"criterion 07: PASS ratio >= 1 everywhere, exactly 1 for delta >= {delta_star}")


def test_criterion_08_search_confirms_candidate_family(search_draws, tiny_delta_draws):
    assert len(search_draws) >= 50 and len(tiny_delta_draws) >= 50
    for params in search_draws:
        result = inf.optimal_scheme_search(params)
        star = inf.pi_star(params)
        tilde = inf.pi_tilde_star(params)
        winner = (result.winner.c, result.winner.d)
        allowed = {(star.c, star.d)}
        if tilde is not None:
            allowed.add((tilde.c, tilde.d))
        assert winner in allowed, (params, winner, allowed)
    for params in tiny_delta_draws:
        result = inf.optimal_scheme_search(params)
        star = inf.pi_star(params)
        assert (result.winner.c, result.winner.d) == (star.c, star.d), (params, result)
    print(f"criterion 08: PASS winner within the two-candidate family on "
          f"{len(search_draws)} draws, equal to the primary one on "
          f"{len(tiny_delta_draws)} low-discount draws")


def test_criterion_09_decomposition_sign_agreement(infinite_draws):
    checked = 0
    for params in infinite_draws:
        for c in range(2, params.n + 1):
            for d in range(c, params.n + 1):
                decomp = inf.fc_gd_decomposition(c, d, params)
                slack = inf.steady_slack(c, d, params)
                diff = decomp.f_c - decomp.g_d
                checked += 1
                if abs(slack) < 1e-9 or abs(diff) < 1e-9:
                    continue  # boundary: signs are not claimed
                assert (diff > 0) == (slack < 0), (params, c, d, diff, slack)
    print(f"criterion 09: PASS sign agreement on {checked} scheme evaluations")


def test_criterion_10_monte_carlo_matches_closed_forms():
    config = SimConfig(c=2, d=3, trials=10_000, horizon=16, seed=42)
    stats = run_scheme(config, REFERENCE)
    total = inf.scheme_cost(2, 3, REFERENCE)
    per_agent = inf.v_bar(2, 3, REFERENCE)
    assert stats.tail_bound < 0.001 * stats.total_mean
    assert abs(stats.total_mean - total) <= 3.0 * stats.total_se + stats.tail_bound
    assert abs(stats.per_agent_mean - per_agent) <= (
        3.0 * stats.per_agent_se + stats.tail_bound / REFERENCE.n
    )
    z = (stats.total_mean - total) / stats.total_se
    print(f"criterion 10: PASS 10^4 trials, z = {z:+.2f}, "
          f"tail {100 * stats.tail_bound / total:.3f}% of total")


def test_criterion_11_deviation_rollouts_confirm_obedience():
    config = SimConfig(c=2, d=3, trials=2500, horizon=18, seed=11, max_wait=200)
    triggers = [
        AgentState(prev_flow=3, tag="pooled", rec="safe"),
        AgentState(prev_flow=None, tag="high", rec="risky"),
        AgentState(prev_flow=3, tag="low", rec="risky"),
    ]
    margins = []
    for trigger in triggers:
        stats = deviation_rollout(config, trigger, REFERENCE)
        assert stats.n_triggered > 500, trigger
        # deviate >= follow - 3 SE, on the paired per-trial differences
        assert stats.diff_mean >= -3.0 * stats.diff_se, (trigger, stats)
        margins.append(stats.diff_mean)
    print("criterion 11: PASS deviation margins "
          + ", ".join(f"{m:+.2f}" for m in margins))
