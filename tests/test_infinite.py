import dataclasses
import json

import numpy as np
import pytest

from roadrec import cli, infinite
from roadrec.cli import main
from roadrec.model import (
    AssumptionError,
    GameParams,
    InternalError,
    ParameterError,
    check_assumption_infinite,
    mu_low,
    myopic_so_flow,
)
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
    state_costs,
    state_costs_linear,
    steady_slack,
    v_bar,
)

from conftest import assert_pooled_match_linear, draw_infinite_params

# n=4 instance whose myopic equilibrium flow equals the population size, so
# the steady constraint at d = n holds vacuously (no safe agent exists).
FULL_ROAD = GameParams(n=4, s0=11.7, s1=0.0, l=1.95, h=16.0,
                       gamma_l=0.02, gamma_h=0.3, delta=0.28)

# A two-agent game: every scheme has c = n, so nobody is left on the safe
# road to recruit after a low report. Its n = 3 copy is in the gate too.
SMALL = GameParams(n=2, s0=10, s1=0, l=1, h=19.5,
                   gamma_l=0.02, gamma_h=0.5, delta=0.5)
SMALL_3 = dataclasses.replace(SMALL, n=3)


def test_scheme_validation(reference):
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


# Each public closed form as a call on flows (c, d), whether it takes flows,
# and whether it runs the infinite-horizon gate.
PUBLIC_FORMS = [
    pytest.param(posteriors, True, False, id="posteriors"),
    pytest.param(scheme_cost, True, True, id="scheme_cost"),
    pytest.param(v_bar, True, True, id="v_bar"),
    pytest.param(state_costs, True, True, id="state_costs"),
    pytest.param(steady_slack, True, True, id="steady_slack"),
    pytest.param(check_ic, True, True, id="check_ic"),
    pytest.param(fc_gd_decomposition, True, True, id="fc_gd_decomposition"),
    pytest.param(state_costs_linear, True, True, id="state_costs_linear"),
    pytest.param(lambda c, d, params: compute_x_ll(params), False, True, id="compute_x_ll"),
    pytest.param(lambda c, d, params: optimal_scheme_search(params), False, True,
                 id="optimal_scheme_search"),
]


@pytest.mark.parametrize("form, takes_flows, gated", PUBLIC_FORMS)
def test_public_closed_forms_check_inputs(form, takes_flows, gated, reference, example1):
    # The cores check nothing, so every public entry must check on its own.
    if takes_flows:
        for c, d in [(1, 3), (3, 2), (2, 11), (2.5, 3), (2, np.array([3.0]))]:
            with pytest.raises(ParameterError):
                form(c, d, reference)
    if gated:
        with pytest.raises(AssumptionError):
            form(2, 3, example1)
    else:
        form(2, 3, example1)


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
    assert compute_x_ll(reference) == 3
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
    cases = [(reference, c, d) for c, d in [(2, 2), (2, 3), (3, 5), (2, 10), (10, 10)]]
    for params in (SMALL, SMALL_3):
        cases += [(params, c, d) for c, d in zip(*scheme_pairs(params.n))]
    for params, c, d in cases:
        table = state_costs(c, d, params)
        linear = state_costs_linear(c, d, params)
        for f in dataclasses.fields(StateCostTable):
            a, b = getattr(table, f.name), getattr(linear, f.name)
            if a is None or b is None:
                assert a is b, (params, c, d, f.name)
            else:
                assert a == pytest.approx(b, rel=1e-11), (params, c, d, f.name)
        assert_pooled_match_linear(c, d, params)


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


def test_full_road_ramp_raises_no_invariant_warning(tmp_path, capsys):
    # At c = n the planner's flow is capped by the population, so the ramp
    # flow's floor (an interior first-order condition) does not apply.
    obedient_at_full_road = 0
    for params in (SMALL, SMALL_3):
        for c, d in zip(*scheme_pairs(params.n)):
            report = check_ic(c, d, params)
            obedient_at_full_road += report.verdict and report.c == params.n
            assert not any("invariant violated" in w for w in report.warnings), (params, c, d)
        path = tmp_path / f"small_{params.n}.json"
        path.write_text(json.dumps(dataclasses.asdict(params)))
        assert main(["infinite", "--params", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ic"]["verdict"] and payload["pi_star"]["c"] == params.n
        assert not any("invariant violated" in w for w in payload["ic"]["warnings"])
    assert obedient_at_full_road == 2  # (2, 2) at n = 2 and (3, 3) at n = 3


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
    assert compute_x_ll(FULL_ROAD) == 4
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
    assert len(result.candidates.c) == 3  # the box pairs 2 <= c <= d <= 3
    assert np.count_nonzero(result.candidates.feasible) == 1


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


# A game whose gate fails for delta below about 0.39, on an unsorted grid
# that repeats a discount and puts gate-failing discounts between passing
# ones.
GATED_SWEEP = (GameParams(n=10, s0=10, s1=0, l=1, h=19.2,
                          gamma_l=0.1, gamma_h=0.5, delta=0.5),
               [0.9, 0.2, 0.5, 0.5, 0.1, 0.7, 0.35, 0.45, 0.5, 0.2])


def test_delta_sweep_matches_zero_d_calls(reference, infinite_draws):
    # The sweep scans the steady flows of every in-gate delta at once and
    # prices both schemes of every delta in one call; every point must equal
    # the 0-d calls exactly, in input order.
    deltas = [round(0.05 * k, 10) for k in range(1, 20)]
    cases = [(params, deltas) for params in [reference] + infinite_draws[:25]]
    for params, grid in cases + [GATED_SWEEP]:
        x_so = myopic_so_flow(mu_low(params), params)
        points = delta_sweep(params, grid)
        assert [point.delta for point in points] == grid
        for point in points:
            trial = dataclasses.replace(params, delta=point.delta)
            assert point.feasible == check_assumption_infinite(trial).passed
            if not point.feasible:
                continue
            x_ll = compute_x_ll(trial)
            assert point.x_ll == x_ll
            assert point.v_pi_star == scheme_cost(x_so, x_ll, trial)
            assert point.v_myopic_planner == scheme_cost(x_so, x_so, trial)
    feasible = [point.feasible for point in delta_sweep(*GATED_SWEEP)]
    assert feasible == [True, False, True, True, False, True, False, True, True, False]


def test_delta_sweep_flags_infeasible_points():
    points = delta_sweep(GATED_SWEEP[0], [0.2, 0.5, 0.9])
    assert [q.feasible for q in points] == [False, True, True]
    assert points[0].x_ll is None and points[0].ratio is None
    assert any("mu_high" in note for note in points[0].notes)
    assert points[2].ratio == 1.0


def test_delta_sweep_solves_zero_switch_rates(static_low):
    # gamma_l = 0: nothing but the per-discount gate refuses a point, and
    # every in-gate point equals the per-discount calls exactly
    grid = [round(0.05 * k, 10) for k in range(1, 20)]
    points = delta_sweep(static_low, grid)
    assert [point.delta for point in points] == grid
    n_feasible = 0
    for point in points:
        trial = dataclasses.replace(static_low, delta=point.delta)
        assert point.feasible == check_assumption_infinite(trial).passed
        if not point.feasible:
            continue
        n_feasible += 1
        star = pi_star(trial)
        assert point.x_ll == compute_x_ll(trial) == star.d
        assert point.v_pi_star == scheme_cost(star.c, star.d, trial)
        assert point.v_myopic_planner == scheme_cost(star.c, star.c, trial)
    assert n_feasible == 11  # the mu_high ceiling admits delta >= 3/7


def test_delta_sweep_flags_every_static_point(example1):
    # a static game fails the gate at every discount, with its failures as notes
    grid = [0.0, 0.5, 0.9]
    points = delta_sweep(example1, grid)
    assert [point.feasible for point in points] == [False] * 3
    for point in points:
        trial = dataclasses.replace(example1, delta=point.delta)
        assert point.notes == check_assumption_infinite(trial).failures != ()
        assert (point.x_ll, point.v_pi_star, point.ratio) == (None, None, None)


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
    assert np.count_nonzero(result.candidates.feasible) == 7
    assert len(result.candidates.c) == 45  # the box pairs 9 <= c <= d <= 17
    assert result.matches_pi_star and not result.matches_pi_tilde_star


def test_search_wide_golden_n1000():
    # frozen from the search that built one object per pair; the flow box is
    # the same 45 pairs as at n = 100
    result = optimal_scheme_search(dataclasses.replace(WIDE, n=1000))
    assert len(result.candidates.c) == 45
    assert np.count_nonzero(result.candidates.feasible) == 7
    assert (result.winner.c, result.winner.d) == (9, 17)
    assert result.winner_cost == 119897.42736842106


def test_search_picks_the_cheapest_obedient_pair(monkeypatch):
    # On WIDE the feasible pairs are (9..15, 17), and the first of them,
    # pi_star, is also the cheapest. Pricing (12, 17) lower in the search's
    # own cost array alone (the state table it reads stays as it is) must move
    # the winner there, unless the cut is within the 1e-12 tie tolerance.
    plain = optimal_scheme_search(WIDE)
    feasible = [(p.c, p.d) for p in plain.candidates if p.feasible]
    assert feasible == [(c, 17) for c in range(9, 16)]
    true_obedience, true_scheme_cost = infinite._obedience, infinite._scheme_cost
    for cut, winner in ((1e-3, (12, 17)), (1e-13, (9, 17))):
        armed = []

        def obedience(*args):
            out = true_obedience(*args)  # its state table prices through _scheme_cost
            armed.append(True)
            return out

        def scheme_cost(c, d, params, dl, cut=cut):
            cost = true_scheme_cost(c, d, params, dl)
            if armed:  # the call that follows _obedience in the search loop
                armed.clear()
                cost[(c == 12) & (d == 17)] = plain.winner_cost * (1.0 - cut)
            return cost

        monkeypatch.setattr(infinite, "_obedience", obedience)
        monkeypatch.setattr(infinite, "_scheme_cost", scheme_cost)
        result = optimal_scheme_search(WIDE)
        assert (result.winner.c, result.winner.d) == winner
        assert result.matches_pi_star == (winner == (9, 17))
        assert result.winner_cost == result.candidates.cost_of(*winner)
        assert result.candidates.cost_of(12, 17) == plain.winner_cost * (1.0 - cut)


@pytest.mark.parametrize("block", [1, 7])
def test_search_does_not_depend_on_block_size(monkeypatch, reference, infinite_draws, block):
    # Blocks of 1 and 7 pairs split the box; the first block is widened to
    # hold the x_so row.
    games = [reference, FULL_ROAD] + infinite_draws[:10]
    want = [optimal_scheme_search(params) for params in games]
    monkeypatch.setattr(infinite, "_SEARCH_BLOCK_PAIRS", block)
    for params, result in zip(games, want):
        got = optimal_scheme_search(params)
        assert (got.winner, got.winner_cost) == (result.winner, result.winner_cost)
        for name in ("c", "d", "feasible", "cost"):
            assert np.array_equal(getattr(got.candidates, name),
                                  getattr(result.candidates, name)), (params, name)


def test_numpy_integer_flows(reference):
    # Flows read from scheme_pairs are numpy integers; the 0-d calls take
    # them like ints and still give Python numbers.
    c, d = scheme_pairs(reference.n)
    report = check_ic(c[0], d[1], reference)
    assert report == check_ic(2, 3, reference)
    assert type(report.c) is int and type(report.d) is int
    assert state_costs(c[0], d[1], reference) == state_costs(2, 3, reference)
    assert posteriors(c[0], d[1], reference) == posteriors(2, 3, reference)
    cost = scheme_cost(c[0], d[1], reference)
    assert type(cost) is float and cost == scheme_cost(2, 3, reference)
    with pytest.raises(ParameterError):
        check_ic(np.True_, 3, reference)


def test_search_candidates_match_zero_d_calls(reference, infinite_draws):
    # The search evaluates the closed forms over arrays of flows; every
    # candidate must equal the 0-d calls exactly. The candidates are the
    # flow box's pairs in (c, d) order; every other pair must fail check_ic,
    # which WIDE at n = 40 checks on the 735 of its 780 pairs outside the box.
    wide40 = dataclasses.replace(WIDE, n=40)
    for params in [reference, FULL_ROAD, SMALL, SMALL_3, wide40] + infinite_draws:
        cand = optimal_scheme_search(params).candidates
        assert cand.c.dtype.kind == "i" and cand.feasible.dtype == bool
        assert cand.cost.dtype == np.float64
        x_so, x_eq = infinite.low_flows(params)
        c, d = scheme_pairs(params.n)
        box = (x_so <= c) & (d <= x_eq)
        assert np.array_equal(cand.c, c[box]) and np.array_equal(cand.d, d[box])
        for ck, dk, feasible, cost in zip(cand.c.tolist(), cand.d.tolist(),
                                          cand.feasible.tolist(), cand.cost.tolist()):
            assert feasible == check_ic(ck, dk, params).verdict
            assert cost == scheme_cost(ck, dk, params)
        if params is wide40:
            assert np.count_nonzero(~box) == 735
        for ck, dk in zip(c[~box].tolist(), d[~box].tolist()):
            assert check_ic(ck, dk, params).verdict is False, (params, ck, dk)


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


def _linear_tables(params):
    c, d = scheme_pairs(params.n)
    return c, d, state_costs_linear(c, d, params)


@pytest.mark.parametrize("which", ["fixed", "draws"])
def test_linear_solve_arrays_match_zero_d_calls(reference, infinite_draws, which):
    # One stacked solve over all schemes must give each scheme's own solve
    # bit for bit, with NaN where the 0-d call gives None (c = n).
    games = [reference, FULL_ROAD, WIDE, SMALL, SMALL_3] if which == "fixed" else infinite_draws
    names = [f.name for f in dataclasses.fields(StateCostTable)]
    for params in games:
        c, d, table = _linear_tables(params)
        rows = np.column_stack([getattr(table, name) for name in names]).tolist()
        for ck, dk, row in zip(c.tolist(), d.tolist(), rows):
            scalar = state_costs_linear(ck, dk, params)
            got = [getattr(scalar, name) for name in names]
            assert got == [None if v != v else v for v in row], (params, ck, dk)
            assert (None in got) == (ck == params.n)
            assert all(type(v) is float for v in got if v is not None)


def test_linear_solve_does_not_depend_on_batch():
    # Each scheme's system is solved on its own: a strided subset of the
    # schemes gives the full call's entries bit for bit.
    for params in (FULL_ROAD, WIDE):
        c, d, table = _linear_tables(params)
        for k in range(7):
            got = state_costs_linear(c[k::7], d[k::7], params)
            for f in dataclasses.fields(StateCostTable):
                assert np.array_equal(getattr(got, f.name), getattr(table, f.name)[k::7],
                                      equal_nan=True), (params, k, f.name)


def test_linear_solve_does_not_depend_on_block_size(monkeypatch):
    # An array call solves _SEARCH_BLOCK_PAIRS schemes at a time. At 7 the
    # 780 schemes of the 40-agent game take 112 blocks, the two small games
    # one each, and no entry may move.
    wide = dataclasses.replace(WIDE, n=40)
    calls = [(params, *scheme_pairs(params.n)) for params in (FULL_ROAD, SMALL_3, wide)]
    calls.append((wide, np.array([[2], [3]]), np.arange(3, 41)))  # a (2, 38) broadcast
    want = [state_costs_linear(c, d, params) for params, c, d in calls]
    monkeypatch.setattr(infinite, "_SEARCH_BLOCK_PAIRS", 7)
    for (params, c, d), table in zip(calls, want):
        got = state_costs_linear(c, d, params)
        for f in dataclasses.fields(StateCostTable):
            assert np.array_equal(getattr(got, f.name), getattr(table, f.name),
                                  equal_nan=True), (params, f.name)


@pytest.mark.parametrize("block", [1, 7])
def test_oracle_checks_do_not_depend_on_block_size(monkeypatch, reference, block):
    # The oracle keeps only the running worst gaps of each block, so no
    # check may move with the block size. SMALL has c = n in every scheme.
    games = (reference, SMALL, dataclasses.replace(WIDE, n=40))
    want = [infinite.oracle_checks(params) for params in games]
    assert all(check["passed"] for checks in want for check in checks)
    monkeypatch.setattr(infinite, "_SEARCH_BLOCK_PAIRS", block)
    assert [infinite.oracle_checks(params) for params in games] == want


def _off_by_1e6(record, field):
    """record with one field scaled by 1 + 1e-6."""
    return dataclasses.replace(record, **{field: getattr(record, field) * (1 + 1e-6)})


def test_oracle_checks_can_fail(monkeypatch, reference):
    true_chain, true_fc_gd = infinite._chain_table, infinite._fc_gd
    monkeypatch.setattr(infinite, "_chain_table",
                        lambda *args: _off_by_1e6(true_chain(*args), "post_high_avg"))
    state, steady = infinite.oracle_checks(reference)
    assert (state["passed"], state["detail"]) == (False, "worst relative gap 1e-06")
    assert steady["passed"]

    # The chain marks absent (NaN) a state the closed form has.
    def absent(c, d, params):
        table = true_chain(c, d, params)
        risky = table.risky_at_1_low.copy()
        risky[0] = np.nan
        return dataclasses.replace(table, risky_at_1_low=risky)

    monkeypatch.setattr(infinite, "_chain_table", absent)
    state, steady = infinite.oracle_checks(reference)
    assert (state["passed"], state["detail"]) == (False, "worst relative gap inf")

    monkeypatch.setattr(infinite, "_chain_table", true_chain)
    monkeypatch.setattr(infinite, "_fc_gd", lambda *args: _off_by_1e6(true_fc_gd(*args), "g_d"))
    state, steady = infinite.oracle_checks(reference)
    assert state["passed"] and not steady["passed"]


def test_linear_solve_broadcasts(reference):
    table = state_costs_linear(np.array([[2], [3]]), np.array([3, 10]), reference)
    assert table.post_high_avg.shape == (2, 2)
    assert table.risky_at_c_low[1, 0] == state_costs_linear(3, 3, reference).risky_at_c_low
    full_road = state_costs_linear(np.array([2, 10]), 10, reference)
    assert not np.isnan(full_road.safe_at_1_low[0]) and np.isnan(full_road.safe_at_1_low[1])
    with pytest.raises(ParameterError):
        state_costs_linear(np.array([10]), np.array([3]), reference)


@pytest.mark.parametrize("block", [1, 7])
def test_infinite_payload_matches_library(monkeypatch, tmp_path, reference, infinite_draws,
                                          block):
    # infinite reads x_ll and the candidates from the search's one pass;
    # each, and each cost it prints, must equal what the public functions
    # compute on their own. Blocks of 1 and 7 pairs split the box across
    # blocks; the first block is widened to hold the x_so row.
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda payload, args: payloads.append(payload))
    monkeypatch.setattr(infinite, "_SEARCH_BLOCK_PAIRS", block)
    path = tmp_path / "game.json"
    for game in [reference, FULL_ROAD, SMALL, SMALL_3] + infinite_draws:
        path.write_text(json.dumps(dataclasses.asdict(game)))
        assert main(["infinite", "--params", str(path)]) == 0
        payload = payloads.pop()
        params = payload["params"]
        assert params == game
        star, tilde = pi_star(params), pi_tilde_star(params)
        assert payload["x_ll"] == payload["x_ll_bar"] == compute_x_ll(params)
        assert type(payload["x_ll"]) is int
        assert payload["pi_star"] == star and payload["pi_tilde_star"] == tilde
        assert payload["v_pi_star"] == scheme_cost(star.c, star.d, params)
        assert payload["v_pi_tilde_star"] == (
            None if tilde is None else scheme_cost(tilde.c, tilde.d, params))
        assert payload["v_myopic_planner"] == scheme_cost(star.c, star.c, params)
        assert type(payload["v_pi_star"]) is float
        assert payload["ic"] == check_ic(star.c, star.d, params)


def test_search_reads_pi_star_report_and_box_costs_from_its_pass(monkeypatch, tmp_path,
                                                                 reference, infinite_draws):
    # cmd_infinite prints pi_star's report, three box costs and the number of
    # feasible pairs from the search's arrays; each must equal the 0-d call
    # exactly. Iterating the box yields the same pairs as Python values.
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda payload, args: payloads.append(payload))
    path = tmp_path / "game.json"
    for params in [reference, WIDE] + infinite_draws:
        search = optimal_scheme_search(params)
        star, box = search.pi_star, search.candidates
        assert search.pi_star_ic == check_ic(star.c, star.d, params), params
        for ck, dk in zip(box.c.tolist(), box.d.tolist()):
            cost = box.cost_of(ck, dk)
            assert type(cost) is float and cost == scheme_cost(ck, dk, params), (params, ck, dk)
        x_so, x_eq = infinite.low_flows(params)
        assert len(box) == (x_eq - x_so + 1) * (x_eq - x_so + 2) // 2
        pairs = list(box)
        assert len(pairs) == len(box)
        for k, pair in enumerate(pairs):
            assert (type(pair.c), type(pair.d), type(pair.feasible), type(pair.cost)) == (
                int, int, bool, float)
            assert (pair.c, pair.d, pair.feasible, pair.cost) == (
                box.c[k], box.d[k], box.feasible[k], box.cost[k])
            assert pair.feasible == check_ic(pair.c, pair.d, params).verdict, (params, pair)
            assert pair.cost == scheme_cost(pair.c, pair.d, params), (params, pair)
        path.write_text(json.dumps(dataclasses.asdict(params)))
        assert main(["infinite", "--params", str(path)]) == 0
        assert sum(pair.feasible for pair in box) == payloads.pop()["search"]["n_feasible"]


def test_search_cost_of_refuses_a_pair_outside_the_box(reference):
    # The index arithmetic would read another pair's cost (or run off the
    # array) for any pair outside x_so <= c <= d <= x_eq.
    for params, (x_so, x_eq), outside in (
            (reference, (2, 3), [(2, 4), (3, 2), (1, 2), (4, 4)]),
            (WIDE, (9, 17), [(9, 18), (10, 9), (2, 3), (18, 18)])):
        box = optimal_scheme_search(params).candidates
        assert infinite.low_flows(params) == (x_so, x_eq)
        assert box.cost_of(x_so, x_eq) == scheme_cost(x_so, x_eq, params)
        for c, d in outside:
            with pytest.raises(ParameterError,
                               match=f"not a pair of the flow box {x_so} <= c <= d <= {x_eq}"):
                box.cost_of(c, d)


def test_search_errors_keep_their_order(monkeypatch, reference):
    # A bad steady range is a ParameterError before anything is evaluated;
    # no obedient steady flow is an AssumptionError even when no scheme is
    # obedient either, which alone is an InternalError.
    x_so, x_eq = infinite.low_flows(reference)
    true_obedience = infinite._obedience
    monkeypatch.setattr(infinite, "_obedience", None)  # never reached
    for bad in ((1, x_eq), (x_so, reference.n + 1)):
        monkeypatch.setattr(infinite, "low_flows", lambda params, bad=bad: bad)
        with pytest.raises(ParameterError, match="1 < c <= d"):
            optimal_scheme_search(reference)
    monkeypatch.setattr(infinite, "low_flows", lambda params: (x_so, x_eq))

    def refusing(steady_too):
        # Every pair fails flow_range; with steady_too, leaving the steady
        # flow costs nothing as well.
        def obedience(*args):
            table, terms, flow_range, ramp_cheaper = true_obedience(*args)
            if steady_too:
                terms = [(state, follow, 0.0 * follow, False) if state == "safe_at_d_pooled"
                         else (state, follow, deviate, vacuous)
                         for state, follow, deviate, vacuous in terms]
            return table, terms, np.zeros_like(flow_range), ramp_cheaper
        return obedience

    monkeypatch.setattr(infinite, "_obedience", refusing(steady_too=True))
    with pytest.raises(AssumptionError, match=f"no obedient steady flow in {x_so}..{x_eq}"):
        optimal_scheme_search(reference)
    monkeypatch.setattr(infinite, "_obedience", refusing(steady_too=False))
    with pytest.raises(InternalError, match="no obedient scheme found"):
        optimal_scheme_search(reference)


def test_search_tests_obedience_only_in_the_flow_box(monkeypatch, infinite_draws):
    # flow_range fails outside x_so <= c <= d <= x_eq, so the obedience terms
    # see the (x_eq - x_so + 1)(x_eq - x_so + 2)/2 pairs of that box and no
    # other, however many pairs the game has, and the search returns those
    # pairs alone as its candidates.
    seen = []
    true_obedience = infinite._obedience

    def counted(c, d, params):
        seen.append((c, d))
        return true_obedience(c, d, params)

    monkeypatch.setattr(infinite, "_obedience", counted)

    def pairs_seen(params):
        seen.clear()
        candidates = optimal_scheme_search(params).candidates
        x_so, x_eq = infinite.low_flows(params)
        assert len(candidates.c) == (x_eq - x_so + 1) * (x_eq - x_so + 2) // 2
        return sum(len(c) for c, _ in seen)

    for n in (100, 1000):
        assert pairs_seen(dataclasses.replace(WIDE, n=n)) == 45
    assert pairs_seen(SMALL) == pairs_seen(SMALL_3) == 1
    # A box that spans the whole game (x_so = 2, x_eq = n) sees every pair.
    whole = [params for params in infinite_draws
             if infinite.low_flows(params) == (2, params.n)]
    assert len(whole) == 8
    for params in whole:
        assert pairs_seen(params) == len(scheme_pairs(params.n)[0])
    for params in infinite_draws:
        x_so, x_eq = infinite.low_flows(params)
        assert pairs_seen(params) == (x_eq - x_so + 1) * (x_eq - x_so + 2) // 2
    # However small the blocks, the first one is exactly the x_so row
    # (x_so, x_so..x_eq), which x_ll and pi_star's report are read from.
    monkeypatch.setattr(infinite, "_SEARCH_BLOCK_PAIRS", 1)
    for params in [WIDE] + infinite_draws:
        x_so, x_eq = infinite.low_flows(params)
        assert pairs_seen(params) == (x_eq - x_so + 1) * (x_eq - x_so + 2) // 2
        c, d = seen[0]
        assert c.tolist() == [x_so] * (x_eq - x_so + 1), params
        assert d.tolist() == list(range(x_so, x_eq + 1)), params


@pytest.mark.parametrize("e", [-40, 0, 40])
def test_internal_checks_trip_on_a_relative_error(monkeypatch, reference, e):
    # A relative 1e-6 error in one table field trips the state-table identity
    # and check_ic's invariant warnings alike, in any unit of cost. At delta
    # 0.8, (2, 2) is obedient and its ramp-stage average equals the steady
    # safe value, so that invariant holds with no room.
    k = 2.0**e
    params = dataclasses.replace(reference, delta=0.8, s0=reference.s0 * k,
                                 l=reference.l * k, h=reference.h * k)
    report = check_ic(2, 2, params)
    assert report.verdict and report.warnings == ()
    true_cost, true_table = infinite._scheme_cost, infinite._state_table
    monkeypatch.setattr(infinite, "_scheme_cost",
                        lambda *args: true_cost(*args) * (1.0 + 1e-6))
    with pytest.raises(InternalError, match="consistency identity"):
        state_costs(2, 2, params)
    monkeypatch.setattr(infinite, "_scheme_cost", true_cost)

    def perturbed(*args):
        table = true_table(*args)
        return dataclasses.replace(table, avg_at_c_low=table.avg_at_c_low * (1.0 + 1e-6))

    monkeypatch.setattr(infinite, "_state_table", perturbed)
    report = check_ic(2, 2, params)
    assert report.verdict
    assert report.warnings == ("invariant violated: ramp-stage average exceeds steady safe value",)
