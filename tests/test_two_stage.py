import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roadrec.model import AssumptionError, GameParams, ParameterError, stage_cost
from roadrec.two_stage import (
    EquilibriumOutcome,
    brute_force_equilibrium,
    cost_full,
    cost_private,
    cost_social_optimum,
    equilibrium_flows,
    ic_constraints_eval,
    region,
    scheme_cost_two_stage,
    solve_optimal_scheme,
    thresholds,
)

from conftest import draw_two_stage_case


# Expected values below were first computed by the brute-force equilibrium
# oracle and an exhaustive scheme enumeration, then frozen.

def test_example1_thresholds_frozen(example1):
    th = thresholds(example1)
    assert th.beta_p == pytest.approx(0.504540867810, abs=1e-12)
    assert th.beta_f == pytest.approx(0.569833038920, abs=1e-12)
    assert th.beta_so == pytest.approx(0.050218160863, abs=1e-12)
    assert th.eq_flow_low == 26
    assert th.so_flow_low == 24
    assert th.so_flow_high == 0
    # the alternative printed grouping disagrees whenever s1 > 0, and the
    # disagreement is loudly flagged
    assert th.beta_so_alt == pytest.approx(2.814687, abs=1e-6)
    assert len(th.warnings) == 1
    assert "indifference" in th.warnings[0]


def test_flat_safe_road_groupings_agree():
    p = GameParams(n=6, s0=10, s1=0.0, l=1.0, h=30.0)
    th = thresholds(p)
    assert th.beta_so == pytest.approx(th.beta_so_alt, rel=1e-9)
    assert th.warnings == ()


def test_thresholds_require_usable_low_road():
    p = GameParams(n=4, s0=1.0, s1=0.5, l=2.0, h=9.0)  # l >= s0 + s1
    with pytest.raises(AssumptionError):
        thresholds(p)


def test_threshold_ordering_example1(example1):
    th = thresholds(example1)
    assert th.beta_so < th.beta_p < th.beta_f


def test_regions_example1(example1):
    th = thresholds(example1)
    assert region(0.01, th) == "A"
    assert region(0.3, th) == "B"
    assert region(0.55, th) == "C"
    assert region(0.6, th) == "D"


def test_benchmark_costs_example1(example1):
    # below the relevant threshold every regime stays safe both stages
    g0_twice = 2.0 * stage_cost(0, example1.l, example1)
    assert cost_full(0.3, example1) == pytest.approx(g0_twice)
    assert cost_private(0.3, example1) == pytest.approx(g0_twice)
    assert cost_full(0.55, example1) == pytest.approx(g0_twice)  # 0.55 < beta_f
    assert cost_private(0.55, example1) == pytest.approx(3930.54, abs=0.01)
    assert cost_social_optimum(0.55, example1) == pytest.approx(3392.915, abs=0.01)


def test_benchmark_costs_reject_gated_beliefs(example1):
    with pytest.raises(AssumptionError):
        cost_full(0.69, example1)  # above the assumption-2 belief limit


def test_optimal_scheme_example1_frozen(example1):
    scheme = solve_optimal_scheme(0.55, example1)
    assert scheme.experiment
    assert (scheme.pi2_low, scheme.pi2_high) == (18, 0)
    assert scheme.flows == (19, 0)
    assert scheme.expected_cost == pytest.approx(3415.74, abs=0.01)
    assert scheme.n_feasible == 37
    assert all(s.satisfied for s in scheme.slacks)


def test_no_experiment_below_beta_p(example1):
    scheme = solve_optimal_scheme(0.3, example1)
    assert not scheme.experiment
    assert scheme.flows is None
    assert scheme.expected_cost == pytest.approx(
        2.0 * stage_cost(0, example1.l, example1)
    )


def test_scheme_cost_matches_components(example1):
    beta = 0.55
    cost = scheme_cost_two_stage(beta, 18, 0, example1)
    from roadrec.model import expected_theta
    want = (
        stage_cost(1, expected_theta(beta, example1), example1)
        + beta * stage_cost(19, example1.l, example1)
        + (1 - beta) * stage_cost(0, example1.h, example1)
    )
    assert cost == pytest.approx(want)


def test_ic_constraints_shapes(example1):
    slacks = ic_constraints_eval(0.55, 18, 0, example1)
    names = [s.constraint for s in slacks]
    assert names == ["recommended_safe", "recommended_risky", "experimenter"]
    for s in slacks:
        if not s.vacuous:
            assert s.slack == pytest.approx(s.deviate - s.follow)


def test_ic_constraints_vacuous_when_no_weight():
    p = GameParams(n=3, s0=1.0, s1=0.5, l=0.8, h=6.0)
    # pi2 = (2, 2): everyone is on the risky road after either state, so no
    # non-experimenter ever holds a safe recommendation
    by_name = {s.constraint: s for s in ic_constraints_eval(0.2, 2, 2, p)}
    assert by_name["recommended_safe"].vacuous
    assert by_name["recommended_safe"].satisfied
    # pi2 = (0, 0): only the experimenter is ever sent to the risky road
    by_name = {s.constraint: s for s in ic_constraints_eval(0.2, 0, 0, p)}
    assert by_name["recommended_risky"].vacuous
    assert by_name["recommended_risky"].satisfied


def test_ic_constraints_validate_inputs(example1):
    with pytest.raises(ParameterError):
        ic_constraints_eval(0.55, 40, 0, example1)  # pi2_low > n-1
    with pytest.raises(ParameterError):
        ic_constraints_eval(0.55, -1, 0, example1)


@given(beta=st.floats(min_value=0.0, max_value=0.67))
@settings(max_examples=40, deadline=None)
def test_scheme_never_beats_planner_example1(beta):
    p = GameParams(n=40, s0=10, s1=1, l=0.9, h=150)
    so = cost_social_optimum(beta, p)
    assert solve_optimal_scheme(beta, p).expected_cost >= so - 1e-9
    assert cost_full(beta, p) >= so - 1e-9
    assert cost_private(beta, p) >= so - 1e-9


def test_equilibrium_flows_regimes(example1):
    th = thresholds(example1)
    assert equilibrium_flows(0.3, "full", example1) == EquilibriumOutcome(0, 0, 0)
    assert equilibrium_flows(0.55, "full", example1) == EquilibriumOutcome(0, 0, 0)
    assert equilibrium_flows(0.6, "full", example1) == EquilibriumOutcome(1, 26, 0)
    assert equilibrium_flows(0.55, "private", example1) == EquilibriumOutcome(1, 1, 0)
    assert equilibrium_flows(0.3, "private", example1) == EquilibriumOutcome(0, 0, 0)
    with pytest.raises(ParameterError):
        equilibrium_flows(0.5, "other", example1)


def test_brute_force_rejects_large_populations():
    p = GameParams(n=7, s0=2.0, s1=1.0, l=1.0, h=25.0)
    with pytest.raises(ParameterError):
        brute_force_equilibrium(p, 0.2)


def test_brute_force_matches_prediction_all_regions():
    # n=4 instance whose gate allows beliefs up to 0.375
    p = GameParams(n=4, s0=2.0, s1=1.0, l=1.0, h=9.0)
    for beta, regime, want in [
        (0.10, "full", (0, 0, 0)),
        (0.10, "private", (0, 0, 0)),
        (0.25, "private", (1, 1, 0)),   # above beta_p ~ 0.2308
        (0.25, "full", (0, 0, 0)),      # below beta_f ~ 0.2727
        (0.30, "full", (1, 3, 0)),
        (0.37, "full", (1, 3, 0)),
        (0.37, "private", (1, 1, 0)),
    ]:
        found = brute_force_equilibrium(p, beta, regime=regime)
        got = [(o.experimenters, o.flow_low, o.flow_high) for o in found]
        assert got == [want], (beta, regime, got)
        assert found[0].profiles >= 1


def test_brute_force_matches_prediction_random_cases():
    rng = np.random.default_rng(404)
    for _ in range(4):
        params, beta = draw_two_stage_case(rng)
        for regime in ("full", "private"):
            predicted = equilibrium_flows(beta, regime, params)
            found = brute_force_equilibrium(params, beta, regime=regime)
            got = [(o.experimenters, o.flow_low, o.flow_high) for o in found]
            want = (predicted.experimenters, predicted.flow_low, predicted.flow_high)
            assert got == [want], (params, beta, regime, got, want)


# A static game with n = 200: thresholds beta_p = 0.501 and limit 0.668.
STATIC_200 = GameParams(n=200, s0=10.0, s1=1.0, l=0.9, h=630.0)


@pytest.mark.parametrize("beta, pi2_low, pi2_high, cost, n_feasible", [
    (0.53, 51, 1, 75414.775, 168),
    (0.59, 107, 0, 70799.975, 382),
    (0.65, 107, 0, 69435.125, 437),
])
def test_optimal_scheme_static_200_golden(beta, pi2_low, pi2_high, cost, n_feasible):
    # frozen from the per-pair search this one replaced
    scheme = solve_optimal_scheme(beta, STATIC_200)
    assert (scheme.pi2_low, scheme.pi2_high) == (pi2_low, pi2_high)
    assert scheme.expected_cost == cost
    assert scheme.n_feasible == n_feasible


@pytest.mark.parametrize("beta", [0.51, 0.55, 0.6, 0.62])
def test_row_wise_solve_matches_zero_d_calls(example1, beta):
    # The solve evaluates one pi2_low row at a time as a vector; it must
    # agree with the scalar constraints and cost on every pair, and pick the
    # first strict minimum in (pi2_low, pi2_high) order.
    n = example1.n
    best, best_cost, n_feasible = None, None, 0
    for pi_l in range(n):
        for pi_h in range(n):
            if all(s.satisfied for s in ic_constraints_eval(beta, pi_l, pi_h, example1)):
                n_feasible += 1
                cost = scheme_cost_two_stage(beta, pi_l, pi_h, example1)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (pi_l, pi_h), cost
    scheme = solve_optimal_scheme(beta, example1)
    assert (scheme.pi2_low, scheme.pi2_high) == best
    assert scheme.expected_cost == best_cost
    assert scheme.n_feasible == n_feasible
    assert list(scheme.slacks) == ic_constraints_eval(beta, *best, example1)
    assert type(scheme.pi2_low) is int and type(scheme.expected_cost) is float
