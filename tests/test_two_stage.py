import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roadrec import model, two_stage
from roadrec.model import (AssumptionError, GameParams, InternalError, ParameterError,
                           all_obedient, stage_cost)
from roadrec.two_stage import (
    BeliefPoint,
    EquilibriumOutcome,
    belief_sweep,
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
    # integer count arrays broadcast together, priced entry by entry
    costs = scheme_cost_two_stage(beta, np.array([0, 18]), np.array([[0], [3]]), example1)
    assert costs.shape == (2, 2) and costs[0, 1] == cost
    assert costs[1, 0] == scheme_cost_two_stage(beta, 0, 3, example1)


def test_ic_constraints_shapes(example1):
    slacks = ic_constraints_eval(0.55, 18, 0, example1)
    names = [s.state for s in slacks]
    assert names == ["recommended_safe", "recommended_risky", "experimenter"]
    for s in slacks:
        if not s.vacuous:
            assert s.slack == pytest.approx(s.deviate - s.follow)


def test_ic_constraints_vacuous_when_no_weight():
    p = GameParams(n=3, s0=1.0, s1=0.5, l=0.8, h=6.0)
    # pi2 = (2, 2): everyone is on the risky road after either state, so no
    # non-experimenter ever holds a safe recommendation
    by_name = {s.state: s for s in ic_constraints_eval(0.2, 2, 2, p)}
    assert by_name["recommended_safe"].vacuous
    assert by_name["recommended_safe"].satisfied
    # pi2 = (0, 0): only the experimenter is ever sent to the risky road
    by_name = {s.state: s for s in ic_constraints_eval(0.2, 0, 0, p)}
    assert by_name["recommended_risky"].vacuous
    assert by_name["recommended_risky"].satisfied


def test_ic_constraints_validate_inputs(example1):
    with pytest.raises(ParameterError):
        ic_constraints_eval(0.55, 40, 0, example1)  # pi2_low > n-1
    with pytest.raises(ParameterError):
        ic_constraints_eval(0.55, -1, 0, example1)
    # a count is an integer, in either entry point
    for pi2_low, pi2_high, name in ((1.5, 0, "pi2_low"), (0, 1.5, "pi2_high")):
        for entry in (ic_constraints_eval, scheme_cost_two_stage):
            with pytest.raises(ParameterError, match=f"{name} must be an integer, got 1.5"):
                entry(0.55, pi2_low, pi2_high, example1)


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
    # the planner's outcome is no equilibrium of any revelation regime
    with pytest.raises(ParameterError, match="regime must be one of"):
        brute_force_equilibrium(GameParams(n=3, s0=2, s1=1, l=1, h=6), 0.2, regime="planner")


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
    (0.55, 82, 0, 72357.5, 300),
    (0.6, 107, 0, 70572.5, 384),
    (0.59, 107, 0, 70799.975, 382),
    (0.65, 107, 0, 69435.125, 437),
])
def test_optimal_scheme_static_200_golden(beta, pi2_low, pi2_high, cost, n_feasible):
    # frozen from the per-pair search this one replaced
    scheme = solve_optimal_scheme(beta, STATIC_200)
    assert (scheme.pi2_low, scheme.pi2_high) == (pi2_low, pi2_high)
    assert scheme.expected_cost == cost
    assert scheme.n_feasible == n_feasible


# STATIC_200's safe road and low coefficient at n = 1000, with five times
# its h: 1,000,000 (pi2_low, pi2_high) pairs per belief.
STATIC_1000 = GameParams(n=1000, s0=10.0, s1=1.0, l=0.9, h=3150.0)


@pytest.mark.parametrize("beta, pi2_low, pi2_high, cost, n_feasible", [
    (0.52, 48, 1, 1971208.536, 166),
    (0.55, 296, 0, 1783253.9, 1969),
    (0.6, 528, 0, 1700296.28, 3699),
])
def test_optimal_scheme_static_1000_golden(beta, pi2_low, pi2_high, cost, n_feasible):
    # frozen from the solve that tested every pair of a block of whole rows
    scheme = solve_optimal_scheme(beta, STATIC_1000)
    assert (scheme.pi2_low, scheme.pi2_high) == (pi2_low, pi2_high)
    assert scheme.expected_cost == cost
    assert scheme.n_feasible == n_feasible


def _assert_solve_matches_scalar_scan(beta, params):
    # The solve evaluates, block by block, the (pi2_low, pi2_high) pairs its
    # filter keeps; it must agree with the scalar constraints and cost on
    # every pair, and pick the first strict minimum in (pi2_low, pi2_high)
    # order.
    n = params.n
    best, best_cost, n_feasible = None, None, 0
    for pi_l in range(n):
        for pi_h in range(n):
            if all(s.satisfied for s in ic_constraints_eval(beta, pi_l, pi_h, params)):
                n_feasible += 1
                cost = scheme_cost_two_stage(beta, pi_l, pi_h, params)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (pi_l, pi_h), cost
    if best is None:
        with pytest.raises(InternalError):
            solve_optimal_scheme(beta, params)
        return
    scheme = solve_optimal_scheme(beta, params)
    assert (scheme.pi2_low, scheme.pi2_high) == best, (params, beta)
    assert scheme.expected_cost == best_cost, (params, beta)
    assert scheme.n_feasible == n_feasible, (params, beta)
    assert list(scheme.slacks) == ic_constraints_eval(beta, *best, params)
    assert type(scheme.pi2_low) is int and type(scheme.pi2_high) is int
    assert type(scheme.expected_cost) is float


@pytest.mark.parametrize("beta", [0.51, 0.55, 0.6, 0.62])
def test_row_wise_solve_matches_zero_d_calls(example1, beta):
    _assert_solve_matches_scalar_scan(beta, example1)


# Integer costs: at beta = 1/2 the cheapest obedient schemes (1, 0) and
# (2, 0) cost exactly the same, in different pi2_low rows.
TIED = GameParams(n=3, s0=3, s1=2, l=1, h=18)


def test_solve_keeps_the_first_of_tied_schemes():
    scheme = solve_optimal_scheme(0.5, TIED)
    assert (scheme.pi2_low, scheme.pi2_high) == (1, 0)
    assert scheme_cost_two_stage(0.5, 2, 0, TIED) == scheme.expected_cost == 41.5
    _assert_solve_matches_scalar_scan(0.5, TIED)


def test_grid_solve_matches_zero_d_calls_on_draws():
    # Games with n = 2..12, at beliefs from beta_p up to the gate's limit.
    # At beta_p itself the experimenter's (0, 0) slack is zero up to
    # rounding, which the scan and the solve both count as obedient.
    rng = np.random.default_rng(77)
    for _ in range(12):
        params, _ = draw_two_stage_case(rng, n_range=(2, 12))
        th = thresholds(params)
        k = params.s0 + params.s1 * params.n
        limit = (params.h - k) / (params.h - params.l)
        for beta in np.linspace(th.beta_p, limit, 4, endpoint=False).tolist():
            _assert_solve_matches_scalar_scan(beta, params)


def test_grid_solve_matches_zero_d_calls_on_larger_draws():
    # n = 13..30, where the filter rules out most of each grid, at beta_p
    # and two beliefs above it.
    rng = np.random.default_rng(1319)
    for _ in range(10):
        params, _ = draw_two_stage_case(rng, n_range=(13, 30))
        th = thresholds(params)
        k = params.s0 + params.s1 * params.n
        limit = (params.h - k) / (params.h - params.l)
        for beta in np.linspace(th.beta_p, limit, 3, endpoint=False).tolist():
            _assert_solve_matches_scalar_scan(beta, params)


def _strip(beta, params):
    """One belief's kept (pi2_low, pi2_high) pairs, as the solve forms them."""
    low, high = two_stage._risky_filter(np.array([[beta]]), params)
    _, pi_l, pi_h = two_stage._risky_pairs(low, high, *two_stage._risky_lines(low, high))
    return pi_l, pi_h


def _tight_beliefs(params, lo, hi, rng, count=2):
    """Up to count beliefs in [lo, hi) at each of which the recommended_risky
    term of some pair (i, j), i, j >= 1, is tight in exact arithmetic: there
    beta*a_i + (1 - beta)*b_j = 0, with a_i and b_j the term's follow less
    deviation loads per unit of weight."""
    n, s0, s1, l, h = params.n, params.s0, params.s1, params.l, params.h
    pi = np.arange(1, n)
    a = (pi * (l * (pi + 1) - (s0 + s1 * (n - pi))))[:, None]
    b = (pi * (h * pi - (s0 + s1 * (n - pi + 1))))[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = b / (b - a)
    found = beta[(a < 0) & (b > 0) & (lo <= beta) & (beta < hi)]
    return rng.choice(found, size=min(count, len(found)), replace=False).tolist()


# Integer games in which the recommended_risky term of a pair (i, 0) is
# tight at every belief: l*(i + 1) = s0 + s1*(n - i), for i = 2 and i = 3.
TIGHT_RISKY = [GameParams(n=4, s0=1, s1=1, l=1, h=20),
               GameParams(n=9, s0=2, s1=1, l=2, h=90)]


def test_risky_filter_keeps_every_pair_the_risky_term_passes():
    # The solve evaluates only the pairs _risky_filter keeps, so over the
    # full grid they must include every pair whose recommended_risky term
    # is vacuous or obedient: at beta_p, just above it, up to the gate's
    # limit and where some pair's term is tight, in units of 2**e, where
    # float arithmetic scales every cost exactly. _risky_lines, which drops
    # whole rows and columns first, and _risky_pairs must give exactly the
    # full test's pairs in row-major order.
    rng = np.random.default_rng(1901)
    games = TIGHT_RISKY + [draw_two_stage_case(rng, n_range=(2, 60))[0] for _ in range(200)]
    kept = passed = pairs = 0
    for params in games:
        th = thresholds(params)
        k = params.s0 + params.s1 * params.n
        limit = (params.h - k) / (params.h - params.l)
        betas = [th.beta_p, float(np.nextafter(th.beta_p, 1.0))]
        betas += np.linspace(th.beta_p, limit, 5, endpoint=False)[1:].tolist()
        betas += _tight_beliefs(params, th.beta_p, limit, rng)
        pi = np.arange(params.n)
        for e in range(-60, 61, 20):
            unit = 2.0**e
            scaled = dataclasses.replace(params, s0=params.s0 * unit, s1=params.s1 * unit,
                                         l=params.l * unit, h=params.h * unit)
            for beta in betas:
                _, risky, _ = two_stage._ic_terms(beta, pi[:, None], pi, scaled)
                ok = all_obedient([risky])
                low, high = two_stage._risky_filter(beta, scaled)
                keep = ~(low[:, None] + high > 0)
                assert not np.any(ok & ~keep), (params, beta, e)
                for got, want in zip(_strip(beta, scaled), np.nonzero(keep)):
                    assert np.array_equal(got, want), (params, beta, e)
                kept += int(np.count_nonzero(keep))
                passed += int(np.count_nonzero(ok))
                pairs += keep.size
    # the filter is a bound, not the term itself, yet it rules most pairs out
    assert passed <= kept < pairs / 4, (passed, kept, pairs)


@pytest.mark.parametrize("seed", [1, 2, 5, 65536])
def test_risky_pairs_keep_what_the_full_test_keeps_with_nan_and_inf(seed):
    # R or U holding NaN or +-inf (as overflow could make them), for 1 to 4
    # beliefs at once: no row or column may be dropped that holds a pair
    # some belief's full test keeps, and the (belief, pi2_low, pi2_high)
    # triples come out in the full test's order.
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0])
    for _ in range(300):
        k, n = int(rng.integers(1, 5)), int(rng.integers(2, 12))
        low, high = rng.normal(size=(k, n)), rng.normal(size=(k, n))
        for values in (low, high):
            special = rng.random((k, n)) < 0.3
            values[special] = rng.choice(specials, size=int(special.sum()))
        # as in the solve, pi2 = 0 carries no weight: R_0 = U_0 = 0
        low[:, 0] = high[:, 0] = 0.0
        with np.errstate(invalid="ignore"):
            want = np.nonzero(~(low[:, :, None] + high[:, None, :] > 0))
            counts, pi_l, pi_h = two_stage._risky_pairs(low, high,
                                                        *two_stage._risky_lines(low, high))
        got = (np.repeat(np.arange(k), counts), pi_l, pi_h)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (low, high)


def test_benchmark_flows_cost_what_the_scheme_costs():
    # A solved scheme that uses the flows of private revelation (0, 0) or of
    # full revelation (x_eq - 1, 0) costs exactly that benchmark, to the bit:
    # both are priced by the one scheme cost formula.
    rng = np.random.default_rng(5)
    private_flows = full_flows = 0
    for _ in range(100):
        params, drawn = draw_two_stage_case(rng)
        th = thresholds(params)
        k = params.s0 + params.s1 * params.n
        limit = (params.h - k) / (params.h - params.l)
        for beta in [drawn] + np.linspace(th.beta_p, limit, 8, endpoint=False).tolist():
            scheme = solve_optimal_scheme(beta, params)
            if not scheme.experiment:
                continue
            if (scheme.pi2_low, scheme.pi2_high) == (0, 0):
                private_flows += 1
                assert scheme.expected_cost == cost_private(beta, params), (params, beta)
            if (scheme.pi2_low, scheme.pi2_high) == (th.eq_flow_low - 1, 0) and beta >= th.beta_f:
                full_flows += 1
                assert scheme.expected_cost == cost_full(beta, params), (params, beta)
    assert private_flows > 200 and full_flows > 200


def test_solve_at_beta_p_experiments():
    # At beta_p the experimenter's (0, 0) slack is zero in exact arithmetic;
    # rounding used to leave it at about -2e-15 in 98 of these 400 games,
    # and the solve raised InternalError.
    rng = np.random.default_rng(77)
    for _ in range(400):
        params, _ = draw_two_stage_case(rng, n_range=(2, 60))
        scheme = solve_optimal_scheme(thresholds(params).beta_p, params)
        assert scheme.experiment and all(s.satisfied for s in scheme.slacks), params


def test_solve_refuses_an_overflowed_cost():
    # The reference game's ratios in units of 1e306: the one obedient pair
    # costs inf, which is no scheme to return (the CLI stops at the overflow).
    k = 1e306
    params = GameParams(n=10, s0=10 * k, s1=0, l=k, h=19 * k)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InternalError, match=r"the cheapest obedient scheme .* costs inf: the game's "
                                 "costs leave the floating-point range"):
        solve_optimal_scheme(thresholds(params).beta_p, params)


def test_solve_refuses_an_empty_or_nan_obedient_set(example1, monkeypatch):
    beta = 0.62
    assert solve_optimal_scheme(beta, example1).experiment
    no_scheme = r"no obedient scheme found at beta=0\.62; expected \(0, 0\)"
    monkeypatch.setattr(two_stage, "all_obedient",
                        lambda terms: np.zeros_like(all_obedient(terms)))
    with pytest.raises(InternalError, match=no_scheme):
        solve_optimal_scheme(beta, example1)
    monkeypatch.undo()
    monkeypatch.setattr(two_stage, "_scheme_cost",
                        lambda beta, pi_l, pi_h, params: np.full(len(pi_l), np.nan))
    with pytest.raises(InternalError, match=no_scheme):
        solve_optimal_scheme(beta, example1)


def test_beta_p_stays_a_belief_when_l_rounds_next_to_s0():
    # l is the float just below s0 + s1 = k, so beta_p is just below 1 in
    # exact arithmetic; unclamped it rounded to 1.0000000000000002, and the
    # solve at beta_p refused it as no belief (ParameterError). At belief 1
    # the gate fails, as it does at any belief of 1.
    params = GameParams(n=799, s0=0.24876175090880825, s1=0, l=0.24876175090880823,
                        h=3858.4634548115996)
    beta_p = thresholds(params).beta_p
    assert beta_p <= 1.0
    assert not model.check_assumption_two_stage(beta_p, params).passed
    with pytest.raises(AssumptionError, match="two-stage gate fails at beta=1"):
        solve_optimal_scheme(beta_p, params)


SMALL_4 = GameParams(n=4, s0=2.0, s1=1.0, l=1.0, h=9.0)


@pytest.mark.parametrize("game, beta", [("example1", 0.55), ("example1", 0.62),
                                        ("static200", 0.6), ("tied", 0.5), ("small4", 0.3)])
def test_strip_solve_on_fixed_games(example1, game, beta):
    if game == "static200":
        # 40,000 pairs, too many for the scalar scan: its golden values
        scheme = solve_optimal_scheme(beta, STATIC_200)
        got = (scheme.pi2_low, scheme.pi2_high, scheme.expected_cost, scheme.n_feasible)
        assert got == (107, 0, 70572.5, 384)
        return
    _assert_solve_matches_scalar_scan(beta, {"example1": example1, "tied": TIED,
                                             "small4": SMALL_4}[game])


def test_risky_strip_stays_within_its_bound():
    # _risky_pairs tests one belief's whole kept strip at once; the
    # docstring of _risky_lines bounds the strip. Extreme in-gate games up to model._MAX_N agents, flat
    # (s1 = 0) and sloped safe roads, l from 1e-7*K to just under s0 + s1,
    # h from K*(1 + 1e-13) to 1e8*K, beliefs from beta_p to 1e-12 below the
    # gate's limit. Every kept row and column holds a kept pair, so the
    # pairs give the strip.
    rng = np.random.default_rng(2027)
    m = 1.0 + 1e-9
    cap = model._MAX_N
    points = near_k = widest = 0
    for game in range(300):
        n = cap if game % 4 == 0 else int(rng.integers(2, cap + 1))
        s0 = float(10.0 ** rng.uniform(-3, 3))
        s1 = 0.0 if game % 2 else s0 * float(10.0 ** rng.uniform(-4, 0))
        k = s0 + s1 * n
        top = float(np.nextafter(s0 + s1, 0.0))
        l = top if game % 8 == 1 else float(np.exp(rng.uniform(np.log(1e-7 * k), np.log(top))))
        h = k * (1.0 + float(10.0 ** rng.uniform(-13, 8)))
        params = GameParams(n=n, s0=s0, s1=s1, l=l, h=h)
        beta_p = thresholds(params).beta_p
        limit = model.check_assumption_two_stage(0.0, params).beta_limit
        for beta in [beta_p, *(beta_p + (limit - beta_p) * rng.random(2)).tolist(), limit - 1e-12]:
            if not (beta_p <= beta < limit and model.check_assumption_two_stage(beta, params).passed):
                continue
            points += 1
            pi_l, pi_h = _strip(beta, params)
            rows, cols = len(np.unique(pi_l)), len(np.unique(pi_h))
            # kept rows are 0..rows-1
            assert pi_l[-1] == rows - 1, (params, beta)
            assert rows <= (n if h < m * k else min(n, m * k / l)), (params, beta, rows)
            assert cols <= (2 if h < m * k else max(2, 1 + np.sqrt(2 * m * (rows - 1) / (2 - m)))), \
                (params, beta, rows, cols)
            assert rows * cols <= n * (1 + np.sqrt(2 * n))
            near_k += h < m * k and rows > m * k / l
            widest = max(widest, rows * cols)
    # the family reaches the strips the bound has to cover: rows kept past
    # m*K/l when h < m*K, and wide strips
    assert points > 800 and near_k and widest > 20 * cap, (points, near_k, widest)

    # the widest strip seen in scans: 1000 x 32
    wide = GameParams(n=1000, s0=32.73232953613945, s1=0, l=0.0007590568697130372,
                      h=2839192.5667863195)
    pi_l, pi_h = _strip(0.99998836, wide)
    assert (len(np.unique(pi_l)), len(np.unique(pi_h))) == (1000, 32)
    # STATIC_200 at 0.6 keeps 111 rows and 4 columns
    pi_l, pi_h = _strip(0.6, STATIC_200)
    assert (len(np.unique(pi_l)), len(np.unique(pi_h))) == (111, 4)


def test_ic_constraints_accept_numpy_integers(example1):
    want = ic_constraints_eval(0.55, 18, 0, example1)
    assert ic_constraints_eval(0.55, np.int64(18), np.int32(0), example1) == want
    with pytest.raises(ParameterError):
        ic_constraints_eval(0.55, np.True_, 0, example1)
    with pytest.raises(ParameterError):
        ic_constraints_eval(0.55, np.array(18), 0, example1)


# Outcomes of the brute-force oracle frozen with their supporting-profile
# counts, as the per-profile enumeration it replaced returned them.
N4 = GameParams(n=4, s0=2.0, s1=1.0, l=1.0, h=9.0)
N6 = GameParams(n=6, s0=2.0, s1=1.0, l=1.0, h=25.0)
TIES = GameParams(n=3, s0=2, s1=1, l=1, h=6)  # integer costs: exact ties


@pytest.mark.parametrize("params, beta, regime, want", [
    (N4, 0.10, "full", [(0, 0, 0, 1)]),
    (N4, 0.10, "private", [(0, 0, 0, 35)]),
    (N4, 0.25, "private", [(1, 1, 0, 40)]),
    (N4, 0.25, "full", [(0, 0, 0, 1)]),
    (N4, 0.30, "full", [(1, 3, 0, 4)]),
    (N4, 0.37, "full", [(1, 3, 0, 10)]),
    (N4, 0.37, "private", [(1, 1, 0, 40)]),
    (N6, 0.65, "full", [(1, 4, 0, 12)]),
    (N6, 0.65, "private", [(1, 1, 0, 112)]),
    (TIES, 0.0, "full", [(0, 0, 0, 2)]),
    (TIES, 0.5, "full", [(1, 2, 0, 14), (1, 3, 0, 6)]),
    (TIES, 0.5, "private", [(1, 2, 1, 32)]),
    (TIES, 1.0, "full", [(2, 2, 0, 14), (2, 3, 0, 6), (3, 2, 0, 6), (3, 3, 0, 4)]),
    (TIES, 1.0, "private", [
        (2, 2, 0, 12), (2, 2, 1, 32), (2, 2, 2, 44), (2, 2, 3, 16), (2, 3, 1, 12),
        (2, 3, 2, 16), (2, 3, 3, 12), (3, 2, 0, 6), (3, 2, 1, 14), (3, 2, 2, 14),
        (3, 2, 3, 6), (3, 3, 0, 4), (3, 3, 1, 6), (3, 3, 2, 6), (3, 3, 3, 4),
    ]),
])
def test_brute_force_golden(params, beta, regime, want):
    found = brute_force_equilibrium(params, beta, regime=regime)
    assert [(o.experimenters, o.flow_low, o.flow_high, o.profiles) for o in found] == want
    assert all(type(v) is int for o in found
               for v in (o.experimenters, o.flow_low, o.flow_high, o.profiles))


def _ordered_profile_equilibria(params, beta, regime):
    """The oracle's answer from ordered profiles, one agent and deviation at a time.

    Plays every one of the 16^n ordered profiles out road by road, tests each
    agent's 16 strategies against its own, and counts each equilibrium once
    per strategy multiset.
    """
    n, s0, s1, l, h = params.n, params.s0, params.s1, params.l, params.h
    bits = [((s >> 0) & 1, (s >> 1) & 1, (s >> 2) & 1, (s >> 3) & 1) for s in range(16)]

    def second_round(profile, coef):
        """Each agent's round-two road (1 = risky) once the state is coef."""
        experimented = sum(bits[s][0] for s in profile) >= 1
        acts = []
        for s in profile:
            a1, fn, fl, fh = bits[s]
            informed = experimented if regime == "full" else a1
            acts.append((fl if coef == l else fh) if informed else fn)
        return acts

    def cost(profile, i):
        total = 0.0
        for coef, weight in ((l, beta), (h, 1.0 - beta)):
            stage = 0.0
            for acts in ([bits[s][0] for s in profile], second_round(profile, coef)):
                x = sum(acts)
                stage = stage + (coef * x if acts[i] else s0 + s1 * (n - x))
            total = total + weight * stage
        return total

    def credible(profile):
        for coef, pos in ((l, 2), (h, 3)):
            acts = [bits[s][pos] for s in profile]
            x = sum(acts)
            tol = 1e-9 * (coef * n + s0 + s1 * n)
            for act in acts:
                if act and not coef * x <= s0 + s1 * (n - x + 1) + tol:
                    return False
                if not act and not s0 + s1 * (n - x) <= coef * (x + 1) + tol:
                    return False
        return True

    def stable(profile):
        for i in range(n):
            base = cost(profile, i)
            tol = 1e-9 * base
            for alt in range(16):
                swapped = profile[:i] + (alt,) + profile[i + 1:]
                if cost(swapped, i) < base - tol:
                    return False
        return True

    multisets: dict[tuple, set] = {}
    for profile in itertools.product(range(16), repeat=n):
        if regime == "full" and not credible(profile):
            continue
        if not stable(profile):
            continue
        x1 = sum(bits[s][0] for s in profile)
        if x1:
            key = (x1, sum(second_round(profile, l)), sum(second_round(profile, h)))
        else:
            key = (0, sum(bits[s][1] for s in profile), sum(bits[s][1] for s in profile))
        multisets.setdefault(key, set()).add(tuple(sorted(profile)))
    return [(*key, len(found)) for key, found in sorted(multisets.items())]


@pytest.mark.parametrize("params, beta", [
    (GameParams(n=2, s0=1.0, s1=0.5, l=0.6, h=4.0), 0.3),
    (GameParams(n=2, s0=1.0, s1=0.5, l=0.6, h=4.0), 0.8),
    (GameParams(n=2, s0=2, s1=1, l=1, h=6), 1.0),
    (GameParams(n=3, s0=2, s1=1, l=1, h=6), 0.5),
    (GameParams(n=3, s0=0.8, s1=0.7, l=0.5, h=5.5), 0.45),
])
@pytest.mark.parametrize("regime", ["full", "private"])
def test_brute_force_matches_ordered_profiles(params, beta, regime):
    found = brute_force_equilibrium(params, beta, regime=regime)
    got = [(o.experimenters, o.flow_low, o.flow_high, o.profiles) for o in found]
    assert got == _ordered_profile_equilibria(params, beta, regime)


def _brute_force_by_strategy(params, beta, regime):
    """The oracle's answer with the verdicts gathered strategy by strategy.

    For each of the 16 strategies, every multiset holding it reads that
    strategy's verdict at the other agents' totals, and, under public
    revelation, looks its round-two actions up in the credibility table at
    the multiset's own totals. No per-n index is built or read.
    """
    n = params.n
    s0, s1, l, h = (float(v) for v in (params.s0, params.s1, params.l, params.h))
    cols = np.array(two_stage._strategy_columns())
    a1, fn, fl, fh, priv_low, priv_high = cols.T
    read = [0, 1, 2, 3] if regime == "full" else [0, 4, 5]
    grid = np.indices((n,) * len(read)).reshape(len(read), -1, 1)
    x1 = grid[0] + a1
    if regime == "full":
        informed = x1 >= 1
        t_low, act_low = np.where(informed, grid[2], grid[1]), np.where(informed, fl, fn)
        t_high, act_high = np.where(informed, grid[3], grid[1]), np.where(informed, fh, fn)
    else:
        t_low, t_high, act_low, act_high = grid[1], grid[2], priv_low, priv_high
    with np.errstate(over="ignore", invalid="ignore"):
        c1_safe = s0 + s1 * (n - x1)
        cost = beta * (
            np.where(a1, l * x1, c1_safe)
            + np.where(act_low, l * (t_low + 1), s0 + s1 * (n - t_low))
        ) + (1.0 - beta) * (
            np.where(a1, h * x1, c1_safe)
            + np.where(act_high, h * (t_high + 1), s0 + s1 * (n - t_high))
        )
        beaten = np.fmin.reduce(cost, axis=1, keepdims=True) < cost - 1e-9 * cost
        coef, total = np.array([[l], [h]]), np.arange(n + 1)
        tol = 1e-9 * (coef * n + s0 + s1 * n)
        stable = np.stack((s0 + s1 * (n - total) <= coef * (total + 1) + tol,
                           coef * total <= s0 + s1 * (n - total + 1) + tol), axis=1)

    counts = two_stage._strategy_counts(n)
    totals = np.dot(counts, cols.astype(np.int8))
    strides = np.array([n**k for k in reversed(range(len(read)))])
    flat = np.dot(totals[:, read], strides)
    ok = np.ones(len(counts), dtype=bool)
    for s in range(16):
        rows = np.flatnonzero(counts[:, s])
        keep = ~beaten[flat[rows] - np.dot(cols[s, read], strides), s]
        if regime == "full":
            keep &= stable[0, fl[s], totals[rows, 2]] & stable[1, fh[s], totals[rows, 3]]
        ok[rows] &= keep

    k1, sn, sl, sh, pl, ph = totals[ok].T.astype(np.intp)
    low, high = (sl, sh) if regime == "full" else (pl, ph)
    base = n + 1
    found = np.bincount((k1 * base + np.where(k1 >= 1, low, sn)) * base
                        + np.where(k1 >= 1, high, sn), minlength=base**3)
    outcomes = []
    for key in np.flatnonzero(found).tolist():
        k, rest = divmod(key, base * base)
        outcomes.append((k, *divmod(rest, base), int(found[key])))
    return outcomes


def _brute_force_cases():
    """Seeded beliefs for n = 2..6, each game also at beta_p and at beta_f."""
    rng = np.random.default_rng(1616)
    cases = []
    for n in range(2, 7):
        for _ in range(2):
            params, beta = draw_two_stage_case(rng, n_range=(n, n))
            th = thresholds(params)
            cases += [(params, b) for b in (beta, th.beta_p, th.beta_f) if 0.0 <= b <= 1.0]
    return cases


@pytest.mark.parametrize("regime", ["full", "private"])
def test_brute_force_matches_strategy_by_strategy_reference(regime):
    cases = _brute_force_cases()
    assert {params.n for params, _ in cases} == {2, 3, 4, 5, 6}
    for params, beta in cases:
        found = brute_force_equilibrium(params, beta, regime=regime)
        got = [(o.experimenters, o.flow_low, o.flow_high, o.profiles) for o in found]
        assert got == _brute_force_by_strategy(params, beta, regime), (params, beta)


def test_profile_index_is_read_only():
    assert not two_stage._strategy_columns().flags.writeable
    for n in range(2, 7):
        index = two_stage._profile_index(n)
        arrays = [index.starts, *index.entry.values(), *index.outcome.values()]
        assert set(index.entry) == set(index.outcome) == {"full", "private"}
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert two_stage._profile_index(n) is index


# ---------------------------------------------------------------------------
# the belief sweep

# The widest kept strip seen at n = 1000 (1000 x 32 pairs near 0.99998836).
STRIP_1000 = GameParams(n=1000, s0=32.73232953613945, s1=0, l=0.0007590568697130372,
                        h=2839192.5667863195)


def _one_by_one(params, betas):
    """The records a loop of one-belief calls gives, with each benchmark cost
    also checked against the scheme cost of its regime's flows, priced in
    Python arithmetic."""
    points = []
    for beta in betas:
        gate = model.check_assumption_two_stage(beta, params)
        if not gate.passed:
            points.append(BeliefPoint(float(beta), True, note="; ".join(gate.failures)))
            continue
        th = thresholds(params)
        scheme = solve_optimal_scheme(beta, params)
        v_full, v_private, v_so = (cost_full(beta, params), cost_private(beta, params),
                                   cost_social_optimum(beta, params))
        safe = 2.0 * stage_cost(0, params.l, params)
        for cost, cutoff, flows in ((v_full, th.beta_f, (th.eq_flow_low - 1, 0)),
                                    (v_private, th.beta_p, (0, 0)),
                                    (v_so, th.beta_so, (th.so_flow_low - 1, th.so_flow_high))):
            assert cost == (scheme_cost_two_stage(beta, *flows, params) if beta >= cutoff
                            else safe), (params, beta)
        points.append(BeliefPoint(float(beta), False, region(beta, th), v_full, v_private,
                                  scheme.expected_cost, v_so, scheme.experiment,
                                  scheme.pi2_low, scheme.pi2_high))
    return points


def _result(call):
    """call()'s value, or the type and message of the error it raises."""
    try:
        return call()
    except (InternalError, FloatingPointError, ParameterError) as exc:
        return type(exc), str(exc)


def _assert_sweep_matches(params, betas):
    want = _result(lambda: _one_by_one(params, betas))
    got = _result(lambda: belief_sweep(params, betas))
    assert got == want, (params, betas)
    if isinstance(want, list):
        types = [[type(value) for value in vars(point).values()] for point in want]
        assert [[type(value) for value in vars(point).values()] for point in got] == types
    return got


def _crossing_grid(params):
    """Beliefs at, just around and between beta_so, beta_p, beta_f and the
    gate's limit, from 0 to 1."""
    th = thresholds(params)
    limit = model.check_assumption_two_stage(0.0, params).beta_limit
    edges = [th.beta_so, th.beta_p, th.beta_f, limit]
    grid = [0.0, 1.0]
    for edge in edges:
        grid += [edge, float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, 1.0))]
    grid += np.linspace(th.beta_so, limit, 9).tolist()
    return [beta for beta in grid if 0.0 <= beta <= 1.0]


@pytest.fixture(params=["default", "one", "whole"])
def blocks(request, monkeypatch):
    # Blocks of the default rule, of one belief each, or of the whole grid.
    bound = {"one": 0.0, "whole": np.inf}.get(request.param)
    if bound is not None:
        monkeypatch.setattr(two_stage, "_block_bound", lambda n: bound)
    return request.param


@pytest.mark.parametrize("game", ["example1", "tied", "static200", "strip1000"])
def test_belief_sweep_matches_one_belief_calls(example1, game, blocks):
    params = {"example1": example1, "tied": TIED, "static200": STATIC_200,
              "strip1000": STRIP_1000}[game]
    grid = _crossing_grid(params)
    if game == "strip1000":
        # One belief solves in about 3 ms here: at beta_p (where the solve
        # finds no obedient scheme, as one by one) and a few above it.
        th = thresholds(params)
        assert _assert_sweep_matches(params, grid) == (
            InternalError, f"no obedient scheme found at beta={th.beta_p}; expected (0, 0) "
                           "to be obedient for beta >= beta_p")
        grid = [0.5, th.beta_so] + np.linspace(th.beta_p, th.beta_f, 5)[1:].tolist()
        grid += [0.99998836, float(np.nextafter(grid[-1], 1.0)), 0.99999]
    points = _assert_sweep_matches(params, grid)
    assert {point.region for point in points} >= {"A", "B", "C", "D"}
    assert any(point.gated for point in points) and any(point.experiment for point in points)


def test_belief_sweep_matches_one_belief_calls_on_draws(blocks):
    # 300 drawn games with n = 2..30, on grids crossing every threshold and
    # the gate's limit, with the drawn belief too.
    rng = np.random.default_rng(2034)
    experiments = 0
    for _ in range(300):
        params, drawn = draw_two_stage_case(rng, n_range=(2, 30))
        points = _assert_sweep_matches(params, _crossing_grid(params) + [drawn])
        experiments += sum(bool(point.experiment) for point in points)
    assert experiments > 1500


def test_belief_sweep_raises_the_first_error_of_a_loop(example1, blocks, monkeypatch):
    # REFERENCE's ratios in units of 1e306: every experiment at or above
    # beta_p costs inf. The sweep raises what one-belief calls in order
    # raise, with numpy's overflow ignored or raised, and a belief that is
    # no belief raises only when no solve before it has.
    unit = 1e306
    huge = GameParams(n=10, s0=10 * unit, s1=0, l=unit, h=19 * unit)
    beta_p = thresholds(huge).beta_p
    priced = []
    true_costs = two_stage._regime_costs
    monkeypatch.setattr(two_stage, "_regime_costs", lambda beta, regime, params: (
        priced.append(beta.tolist()) or true_costs(beta, regime, params)))
    cases = [([0.1, 0.2, beta_p, 0.4, 0.45], "inf"), ([0.1, 0.4, beta_p], "inf"),
             ([0.2, 1.5, 0.4], "belief"), ([0.2, 0.4, 1.5], "inf"),
             ([0.1, 0.2, 0.3], None)]
    for settings in ({"over": "ignore", "invalid": "ignore"}, {"over": "raise", "invalid": "raise"}):
        with np.errstate(**settings):
            # a benchmark priced as an array overflows to inf, as one
            # belief's Python arithmetic does
            assert cost_private(0.4, huge) == scheme_cost_two_stage(0.4, 0, 0, huge) == np.inf
            for grid, error in cases:
                got = _assert_sweep_matches(huge, grid)
                priced.clear()
                _result(lambda: belief_sweep(huge, grid))
                # a sweep that raises prices no benchmark at any belief
                assert bool(priced) == (error is None)
                if error is None:
                    assert isinstance(got, list)
                elif error == "belief":
                    assert got == (ParameterError, "belief must be in [0, 1], got 1.5")
                elif settings["over"] == "ignore":
                    # the first belief at or above beta_p names the error
                    first = next(beta for beta in grid if beta >= beta_p)
                    assert got[0] is InternalError and f"at beta={first}, (0, 0)" in got[1]
                else:
                    assert got[0] is FloatingPointError
    # No obedient pair, or a NaN cost, at EXAMPLE1's beliefs 0.55 and 0.62:
    # the first of them names the error.
    grid = [0.3, 0.55, 0.62, 0.9]
    no_scheme = (InternalError, "no obedient scheme found at beta=0.55; expected (0, 0) to be "
                                "obedient for beta >= beta_p")
    true_obedient, true_cost = two_stage.all_obedient, two_stage._scheme_cost
    monkeypatch.setattr(two_stage, "all_obedient",
                        lambda terms: np.zeros_like(true_obedient(terms)))
    assert _assert_sweep_matches(example1, grid) == no_scheme
    monkeypatch.setattr(two_stage, "all_obedient", true_obedient)
    # NaN for the solve's count arrays; a benchmark's int counts price as ever
    monkeypatch.setattr(two_stage, "_scheme_cost", lambda beta, pi_l, pi_h, params: (
        np.full(len(pi_l), np.nan) if np.ndim(pi_l) else true_cost(beta, pi_l, pi_h, params)))
    assert _assert_sweep_matches(example1, grid) == no_scheme
    monkeypatch.setattr(two_stage, "_scheme_cost", true_cost)
    # A block of several beliefs that overflows, here in every stacked
    # _ic_terms call, is solved again one belief at a time, whose float
    # beliefs do not overflow: the sweep still gives the loop's records.
    true_terms = two_stage._ic_terms

    def stacked_overflow(beta, pi_l, pi_h, params):
        if isinstance(beta, np.ndarray):
            raise FloatingPointError("overflow encountered in multiply")
        return true_terms(beta, pi_l, pi_h, params)

    monkeypatch.setattr(two_stage, "_ic_terms", stacked_overflow)
    grid = _crossing_grid(example1)
    assert isinstance(_assert_sweep_matches(example1, grid), list)


def test_belief_sweep_blocks_stay_within_the_strip_bound(monkeypatch):
    # Every (k, n) filter and every (k, rows, cols) box of a block of k > 1
    # beliefs holds at most n*(1 + sqrt(2n)) entries, the bound on one
    # belief's strip; STATIC_200's grid runs blocks of several beliefs.
    boxes = []
    true_pairs = two_stage._risky_pairs

    def recorded(low, high, rows, cols):
        boxes.append((len(low), low.size, len(low) * len(rows) * len(cols)))
        return true_pairs(low, high, rows, cols)

    monkeypatch.setattr(two_stage, "_risky_pairs", recorded)
    grids = {STATIC_200: np.arange(0.40, 0.66, 0.002).tolist(),
             STATIC_1000: np.arange(0.5, 0.68, 0.001).tolist(),
             STRIP_1000: np.linspace(thresholds(STRIP_1000).beta_p, 0.99998847, 61)[1:].tolist()}
    for params, grid in grids.items():
        boxes.clear()
        points = belief_sweep(params, grid)
        solved = sum(bool(point.experiment) for point in points)
        bound = params.n * (1 + np.sqrt(2 * params.n))
        assert two_stage._block_bound(params.n) == bound
        assert sum(k for k, _, _ in boxes) == solved > 20
        for k, filter_size, box in boxes:
            assert k == 1 or (filter_size <= bound and box <= bound), (params, k, box)
        if params is STATIC_200:
            assert max(k for k, _, _ in boxes) > 2
        if params is STRIP_1000:
            # one belief's strip is more than half the bound here
            assert max(k for k, _, _ in boxes) == 1


def test_belief_sweep_peak_memory_is_no_higher_than_a_loop():
    # The strip1000 game, 200 beliefs above beta_p: the sweep (one belief
    # per block here) peaks no higher than a loop of one-belief calls that
    # builds the rows `roadrec two-stage` printed from them.
    th = thresholds(STRIP_1000)
    limit = model.check_assumption_two_stage(0.0, STRIP_1000).beta_limit
    grid = np.linspace(th.beta_p, limit, 201, endpoint=False)[1:].tolist()

    def loop():
        rows = []
        for beta in grid:
            model.check_assumption_two_stage(beta, STRIP_1000)
            scheme = solve_optimal_scheme(beta, STRIP_1000)
            rows.append({"beta": beta, "gated": False, "region": region(beta, th),
                         "v_full": cost_full(beta, STRIP_1000),
                         "v_private": cost_private(beta, STRIP_1000),
                         "v_partial": scheme.expected_cost,
                         "v_so": cost_social_optimum(beta, STRIP_1000),
                         "experiment": scheme.experiment, "pi2_low": scheme.pi2_low,
                         "pi2_high": scheme.pi2_high})
        return rows

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    loop(), belief_sweep(STRIP_1000, grid[:3])  # warm numpy's own caches
    assert peak(lambda: belief_sweep(STRIP_1000, grid)) <= peak(loop)
