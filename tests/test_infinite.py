import dataclasses

import numpy as np
import pytest

from roadrec.model import AssumptionError, GameParams, ParameterError, mu_low, myopic_so_flow
from roadrec.infinite import (
    InfiniteScheme,
    StateCostTable,
    check_ic,
    compute_x_ll,
    delta_sweep,
    fc_gd_decomposition,
    optimal_scheme_search,
    pi_star,
    pi_tilde_star,
    posteriors,
    scheme_cost,
    scheme_pairs,
    social_opt_policy,
    state_costs,
    state_costs_linear,
    steady_slack,
    v_bar,
)

from conftest import draw_infinite_params

# n=4 instance whose myopic equilibrium flow equals the population size, so
# the steady constraint at d = n holds vacuously (no safe agent exists).
FULL_ROAD = GameParams(n=4, s0=11.7, s1=0.0, l=1.95, h=16.0,
                       gamma_l=0.02, gamma_h=0.3, delta=0.28)


def test_scheme_validation(reference):
    with pytest.raises(ParameterError):
        InfiniteScheme(c=2, d=3, a=2)
    with pytest.raises(ParameterError):
        InfiniteScheme(c=2, d=3, b=0)
    with pytest.raises(ParameterError):
        InfiniteScheme(c=1, d=3).validate(reference)
    with pytest.raises(ParameterError):
        InfiniteScheme(c=3, d=2).validate(reference)
    with pytest.raises(ParameterError):
        InfiniteScheme(c=2, d=11).validate(reference)
    InfiniteScheme(c=2, d=3).validate(reference)


def test_gate_required(example1):
    # example1 has a sloped safe road and no dynamics: outside the regime
    with pytest.raises(AssumptionError):
        v_bar(2, 3, example1)


# Frozen values below were hand-derived from the recursions and confirmed by
# the independent linear solve.

def test_reference_values_frozen(reference):
    assert v_bar(2, 2, reference) == pytest.approx(19.45, abs=1e-12)
    assert v_bar(2, 3, reference) == pytest.approx(19.5625, abs=1e-12)
    assert scheme_cost(2, 3, reference) == pytest.approx(195.625, abs=1e-10)
    assert steady_slack(2, 2, reference) == pytest.approx(-0.46616161616161733, abs=1e-12)
    assert steady_slack(2, 3, reference) == pytest.approx(2.0647268135904433, abs=1e-12)


def test_reference_posteriors_frozen(reference):
    post = posteriors(2, 3, reference)
    assert post.low_given_d_safe == pytest.approx(10.0 / 11.0)
    assert post.low_given_c_safe == pytest.approx(0.8974358974358975)
    assert post.low_given_1_safe == pytest.approx(0.4968944099378882)
    assert post.low_given_c_risky == pytest.approx(0.9183673469387755)
    assert post.low_given_1_risky == pytest.approx(0.5263157894736842)


def test_reference_scheme_selection(reference):
    assert compute_x_ll(reference) == (3, 3)
    star = pi_star(reference)
    assert (star.c, star.d) == (2, 3)
    assert pi_tilde_star(reference) is None  # (3, 2) would ramp downward


def test_reference_ic_report(reference):
    report = check_ic(2, 3, reference)
    assert report.verdict
    assert report.pre_flow_range and report.pre_ramp_cheaper and report.pre_steady_obedient
    assert report.warnings == ()
    assert len(report.entries) == 11
    assert all(e.satisfied for e in report.entries)
    assert not any(e.vacuous for e in report.entries)
    assert report.entry("safe_at_d_pooled").slack == pytest.approx(2.0647268135904433)
    assert report.entry("risky_after_high").slack == pytest.approx(1.5465909090909)
    assert report.entry("risky_at_d_low").slack == pytest.approx(2.94886363636, abs=1e-9)
    with pytest.raises(KeyError):
        report.entry("nonexistent_state")


def test_closed_form_matches_linear_solve(reference):
    for c, d in [(2, 2), (2, 3), (3, 5), (2, 10), (10, 10)]:
        table = state_costs(c, d, reference)
        linear = state_costs_linear(c, d, reference)
        for f in dataclasses.fields(StateCostTable):
            a, b = getattr(table, f.name), getattr(linear, f.name)
            if a is None or b is None:
                assert a is b, (c, d, f.name)
            else:
                assert a == pytest.approx(b, rel=1e-11), (c, d, f.name)


def test_full_road_edge_states(reference):
    # c = n: no safe agent survives a low report, so two states vanish
    table = state_costs(10, 10, reference)
    assert table.safe_at_1_low is None
    assert table.avg_at_c_low is None
    assert table.avg_at_1_low == pytest.approx(table.risky_at_1_low)
    report = check_ic(10, 10, reference)
    assert not report.pre_flow_range  # flows far beyond the equilibrium flow
    assert not report.verdict
    vac = {e.state for e in report.entries if e.vacuous}
    assert vac == {"safe_at_d_pooled", "safe_at_c_pooled",
                   "risky_at_d_pooled", "risky_at_c_pooled"}


def test_cost_identity_against_state_table(reference, infinite_draws):
    # aggregate cost must equal n * (reset-state average per-agent cost)
    for params in [reference] + infinite_draws[:10]:
        star = pi_star(params)
        table = state_costs(star.c, star.d, params)
        mix = (table.risky_after_high + (params.n - 1) * table.safe_after_high) / params.n
        assert scheme_cost(star.c, star.d, params) == pytest.approx(
            params.n * mix, rel=1e-9
        )


def test_static_low_variant_not_obedient(static_low):
    # gamma_l = 0 pins the low state forever; pinning the planner's flows
    # leaves the steady safe agent strictly better off jumping
    x_so = myopic_so_flow(mu_low(static_low), static_low)
    assert x_so == 5
    report = check_ic(x_so, x_so, static_low)
    entry = report.entry("safe_at_d_pooled")
    assert not entry.vacuous
    assert entry.follow == pytest.approx(20.0)
    assert entry.deviate == pytest.approx(16.0)
    assert entry.slack == pytest.approx(-4.0)
    assert not entry.satisfied
    assert not report.verdict


def test_full_road_cap():
    # steady constraint is vacuous at d = n, so the scan must accept it
    assert compute_x_ll(FULL_ROAD) == (4, 4)
    star = pi_star(FULL_ROAD)
    assert (star.c, star.d) == (3, 4)
    assert pi_tilde_star(FULL_ROAD) is None
    report = check_ic(3, 4, FULL_ROAD)
    assert report.verdict
    assert {e.state for e in report.entries if e.vacuous} == {
        "safe_at_d_pooled", "risky_at_d_pooled"
    }
    assert scheme_cost(3, 4, FULL_ROAD) == pytest.approx(63.0961059014, abs=1e-9)
    result = optimal_scheme_search(FULL_ROAD)
    assert (result.winner.c, result.winner.d) == (3, 4)
    assert result.matches_pi_star


def test_fg_decomposition_identity(reference, infinite_draws):
    # f(c) - g(d) is exactly the negated steady-state obedience slack
    for params in [reference] + infinite_draws[:15]:
        for c in range(2, params.n + 1):
            for d in range(c, params.n + 1):
                decomp = fc_gd_decomposition(c, d, params)
                slack = steady_slack(c, d, params)
                assert decomp.f_c - decomp.g_d == pytest.approx(
                    -slack, rel=1e-9, abs=1e-9
                ), (params, c, d)


def test_fg_decomposition_reference(reference):
    decomp = fc_gd_decomposition(2, 3, reference)
    assert decomp.f_c - decomp.g_d == pytest.approx(-2.0647268135904433, abs=1e-9)
    assert decomp.ic_satisfied


def test_search_reference(reference):
    result = optimal_scheme_search(reference)
    assert (result.winner.c, result.winner.d) == (2, 3)
    assert result.winner_cost == pytest.approx(195.625, abs=1e-10)
    assert result.matches_pi_star and not result.matches_pi_tilde_star
    assert result.warnings == ()  # delta = 1/2 is inside the proved range
    assert len(result.candidates) == 45  # all pairs 1 < c <= d <= 10
    assert sum(1 for cand in result.candidates if cand.feasible) == 1


def test_search_warns_beyond_half(reference):
    high_delta = dataclasses.replace(reference, delta=0.8)
    result = optimal_scheme_search(high_delta)
    assert any("family-optimal" in w for w in result.warnings)


def test_delta_sweep_reference(reference):
    deltas = [round(0.1 * k, 10) for k in range(1, 10)]
    points = delta_sweep(reference, deltas)
    assert [p.feasible for p in points] == [True] * 9
    assert [p.x_ll for p in points] == [3, 3, 3, 3, 3, 3, 3, 2, 2]
    for p in points:
        assert p.ratio >= 1.0 - 1e-12
    assert points[4].ratio == pytest.approx(1.0057840617, abs=1e-9)
    # once the steady flow reaches the planner's flow the ratio is exactly 1
    assert points[7].ratio == 1.0
    assert points[8].ratio == 1.0


def test_delta_sweep_flags_infeasible_points():
    p = GameParams(n=10, s0=10, s1=0, l=1, h=19.2,
                   gamma_l=0.1, gamma_h=0.5, delta=0.5)
    points = delta_sweep(p, [0.2, 0.5, 0.9])
    assert [q.feasible for q in points] == [False, True, True]
    assert points[0].x_ll is None and points[0].ratio is None
    assert any("mu_high" in note for note in points[0].notes)
    assert points[2].ratio == 1.0


def test_delta_sweep_needs_dynamics(example1):
    with pytest.raises(ParameterError):
        delta_sweep(example1, [0.5])


def test_social_opt_policy(reference):
    # after a high observation the planner still keeps one scout out
    assert social_opt_policy(0.0, reference) == 1
    assert social_opt_policy(1.0, reference) == 2
    with pytest.raises(ParameterError):
        social_opt_policy(1.5, reference)


def test_random_draws_have_consistent_tables(infinite_draws):
    rng = np.random.default_rng(7)
    for params in infinite_draws[:25]:
        c = int(rng.integers(2, params.n + 1))
        d = int(rng.integers(c, params.n + 1))
        table = state_costs(c, d, params)
        linear = state_costs_linear(c, d, params)
        for f in dataclasses.fields(StateCostTable):
            a, b = getattr(table, f.name), getattr(linear, f.name)
            if a is None or b is None:
                assert a is b
            else:
                assert a == pytest.approx(b, rel=1e-9)


def test_draw_sampler_produces_fresh_cases():
    rng = np.random.default_rng(1)
    a = draw_infinite_params(rng)
    b = draw_infinite_params(rng)
    assert a != b


# WIDE: a game with x_so = 9 and x_eq = 17 at n = 100.
WIDE = GameParams(n=100, s0=60.0, s1=0.0, l=1.0, h=120.0,
                  gamma_l=0.02, gamma_h=0.5, delta=0.5)


def test_search_wide_golden():
    # frozen from the per-pair search this one replaced
    result = optimal_scheme_search(WIDE)
    assert (result.winner.c, result.winner.d) == (9, 17)
    assert result.winner_cost == 11897.427368421051
    assert sum(cand.feasible for cand in result.candidates) == 7
    assert len(result.candidates) == 4950
    assert result.matches_pi_star and not result.matches_pi_tilde_star


def test_search_candidates_match_zero_d_calls(reference, infinite_draws):
    # The search evaluates the closed forms over arrays of flows; every
    # candidate must equal the 0-d calls exactly.
    for params in [reference, FULL_ROAD] + infinite_draws:
        for cand in optimal_scheme_search(params).candidates:
            assert type(cand.c) is int and type(cand.feasible) is bool
            assert type(cand.cost) is float
            assert cand.feasible == check_ic(cand.c, cand.d, params).verdict
            assert cand.cost == scheme_cost(cand.c, cand.d, params)


def test_state_cost_arrays_match_zero_d_calls(reference, infinite_draws):
    for params in [reference, FULL_ROAD] + infinite_draws[:25]:
        c, d = scheme_pairs(params.n)
        table = state_costs(c, d, params)
        slack = steady_slack(c, d, params)
        for k, (ck, dk) in enumerate(zip(c.tolist(), d.tolist())):
            assert slack[k] == steady_slack(ck, dk, params)
            scalar = state_costs(ck, dk, params)
            for f in dataclasses.fields(StateCostTable):
                value = getattr(scalar, f.name)
                if value is None:
                    assert np.isnan(getattr(table, f.name)[k])
                else:
                    assert getattr(table, f.name)[k] == value, (params, ck, dk, f.name)


def test_closed_forms_accept_flow_arrays(reference):
    c, d = scheme_pairs(reference.n)
    assert len(c) == 45 and (c[0], d[0]) == (2, 2) and (c[-1], d[-1]) == (10, 10)
    costs = scheme_cost(c, d, reference)
    assert costs.shape == (45,)
    assert costs[1] == scheme_cost(2, 3, reference)
    with pytest.raises(ParameterError):
        scheme_cost(np.array([3]), np.array([2]), reference)
    with pytest.raises(ParameterError):
        state_costs(np.array([2.0]), np.array([3.0]), reference)
