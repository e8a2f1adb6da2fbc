import numpy as np
import pytest

from roadrec.model import AssumptionError, GameParams, ParameterError
from roadrec.infinite import check_ic, scheme_cost, v_bar
from roadrec import sim
from roadrec.sim import (
    AgentState,
    SimConfig,
    deviation_rollout,
    run_scheme,
    simulate_chain,
)

# Both switch rates zero: starting high, the chain never leaves the high
# state and compliant play is fully deterministic.
FROZEN = GameParams(n=10, s0=10, s1=0.0, l=1.0, h=10.0,
                    gamma_l=0.0, gamma_h=0.0, delta=0.5)


def test_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(c=2, d=3, trials=0)
    with pytest.raises(ParameterError):
        SimConfig(c=2, d=3, horizon=0)
    with pytest.raises(ParameterError):
        SimConfig(c=2, d=3, start="middling")
    with pytest.raises(ParameterError):
        SimConfig(c=2, d=3, max_wait=1)
    with pytest.raises(ParameterError, match="seed must be nonnegative"):
        SimConfig(c=2, d=3, seed=-1)


def test_config_upper_bounds():
    # the caps themselves are accepted; one past each is refused, and so is
    # a single chain longer than the horizon cap
    SimConfig(c=2, d=3, trials=sim._MAX_TRIALS, horizon=sim._MAX_HORIZON,
              max_wait=sim._MAX_WAIT)
    for field, cap in (("trials", sim._MAX_TRIALS), ("horizon", sim._MAX_HORIZON),
                       ("max_wait", sim._MAX_WAIT)):
        with pytest.raises(ParameterError, match=f"{field} must be at most {cap}"):
            SimConfig(c=2, d=3, **{field: cap + 1})
    with pytest.raises(ParameterError, match="horizon must be at most"):
        simulate_chain(FROZEN, sim._MAX_HORIZON + 1, seed=0)


def test_trigger_validation():
    with pytest.raises(ParameterError):
        AgentState(prev_flow=2, tag="confused", rec="safe")
    with pytest.raises(ParameterError):
        AgentState(prev_flow=2, tag="pooled", rec="stay")


def test_chain_is_reproducible(reference):
    a = simulate_chain(reference, 50, seed=3, trial=7)
    b = simulate_chain(reference, 50, seed=3, trial=7)
    assert np.array_equal(a, b)
    c = simulate_chain(reference, 50, seed=3, trial=8)
    assert not np.array_equal(a, c)


def test_chain_respects_switch_rates():
    frozen_high = simulate_chain(FROZEN, 30, seed=1, start="high")
    assert not frozen_high.any()
    frozen_low = simulate_chain(FROZEN, 30, seed=1, start="low")
    assert frozen_low.all()


def test_chain_long_run_frequency(reference):
    # stationary P(low) = gamma_h / (gamma_l + gamma_h) = 5/6
    lows = np.concatenate([
        simulate_chain(reference, 400, seed=9, trial=t) for t in range(50)
    ])
    assert lows.mean() == pytest.approx(5.0 / 6.0, abs=0.02)


def test_frozen_chain_run_is_exact():
    # one experimenter pays h*1 = 10, nine safe agents pay s0 = 10 each stage
    cfg = SimConfig(c=2, d=3, trials=3, horizon=40, seed=7)
    stats = run_scheme(cfg, FROZEN)
    expected = 100.0 * (1.0 - 0.5**40) / 0.5
    assert stats.total_mean == pytest.approx(expected, abs=1e-9)
    assert stats.total_se == 0.0
    assert stats.sample.flows == tuple([1] * 40)
    assert stats.sample.thetas == tuple(["H"] * 40)


def test_integer_safe_costs_keep_fractional_risky_costs():
    # the chain stays low: one experimenter at stage one, then d = 3 users
    # paying 1.5 * 3 each while seven pay s0 = 10; integer s0 and s1 must
    # not round the risky costs down
    params = GameParams(n=10, s0=10, s1=0, l=1.5, h=10,
                        gamma_l=0.0, gamma_h=0.0, delta=0.5)
    stats = run_scheme(SimConfig(c=2, d=3, trials=2, horizon=20, start="low"), params)
    expected = 91.5 + 83.5 * (1.0 - 0.5**19)
    assert stats.total_mean == pytest.approx(expected, abs=1e-12)
    assert stats.sample.total == pytest.approx(expected, abs=1e-12)
    assert min(stats.sample.agent_totals) == pytest.approx(
        1.5 + 4.5 * (1.0 - 0.5**19), abs=1e-12)


def test_run_scheme_gate(example1):
    with pytest.raises(AssumptionError):
        run_scheme(SimConfig(c=2, d=3, trials=2, horizon=4), example1)


def test_flows_follow_the_dispatch_rule(reference):
    stats = run_scheme(SimConfig(c=2, d=3, trials=1, horizon=60, seed=21), reference)
    thetas = stats.sample.thetas
    flows = stats.sample.flows
    for t in range(len(flows)):
        prev = thetas[t - 1] if t >= 1 else "H"
        prev2 = thetas[t - 2] if t >= 2 else "H"
        if prev == "H":
            assert flows[t] == 1
        elif prev2 == "H":
            assert flows[t] == 2  # recruit up to c after the first low report
        else:
            assert flows[t] == 3  # steady flow d after two low reports


def test_run_is_deterministic_given_seed(reference):
    cfg = SimConfig(c=2, d=3, trials=20, horizon=12, seed=13)
    a = run_scheme(cfg, reference)
    b = run_scheme(cfg, reference)
    assert a.total_mean == b.total_mean
    assert a.sample.flows == b.sample.flows


def test_monte_carlo_matches_closed_form(reference):
    cfg = SimConfig(c=2, d=3, trials=2000, horizon=16, seed=5)
    stats = run_scheme(cfg, reference)
    total = scheme_cost(2, 3, reference)
    assert abs(stats.total_mean - total) <= 4.0 * stats.total_se + stats.tail_bound
    assert abs(stats.per_agent_mean - v_bar(2, 3, reference)) <= (
        4.0 * stats.per_agent_se + stats.tail_bound / reference.n
    )
    assert stats.per_agent_mean == pytest.approx(stats.total_mean / reference.n)


def test_tail_bound_shrinks_with_horizon(reference):
    short = run_scheme(SimConfig(c=2, d=3, trials=2, horizon=4, seed=1), reference)
    long = run_scheme(SimConfig(c=2, d=3, trials=2, horizon=20, seed=1), reference)
    assert long.tail_bound < short.tail_bound
    assert long.tail_bound == pytest.approx(
        0.5**20 * 10 * max(19.0 * 10, 10.0) / 0.5
    )


def test_rollout_deviate_arm_is_deterministic_after_high(reference):
    # an experimenter who refuses after a high report pays exactly s0 forever
    cfg = SimConfig(c=2, d=3, trials=400, horizon=14, seed=2, max_wait=120)
    stats = deviation_rollout(
        cfg, AgentState(prev_flow=None, tag="high", rec="risky"), reference
    )
    assert stats.n_triggered > 100
    expected = 10.0 * (1.0 - 0.5**14) / 0.5
    assert stats.deviate_mean == pytest.approx(expected, abs=1e-9)
    assert stats.deviate_se == 0.0


def test_rollout_matches_ic_table(reference):
    report = check_ic(2, 3, reference)
    cfg = SimConfig(c=2, d=3, trials=1500, horizon=18, seed=11, max_wait=200)
    for trigger, state in [
        (AgentState(prev_flow=3, tag="pooled", rec="safe"), "safe_at_d_pooled"),
        (AgentState(prev_flow=3, tag="low", rec="risky"), "risky_at_d_low"),
    ]:
        stats = deviation_rollout(cfg, trigger, reference)
        entry = report.entry(state)
        assert stats.n_triggered > 500
        budget = 4.0 * stats.follow_se + stats.tail_bound
        assert abs(stats.follow_mean - entry.follow) <= budget, state
        # the three-step ramp is obedient here, so deviating must look bad
        assert stats.diff_mean > 0.0


def test_rollout_reports_unreachable_trigger(reference):
    cfg = SimConfig(c=2, d=3, trials=10, horizon=6, seed=3, max_wait=40)
    stats = deviation_rollout(
        cfg, AgentState(prev_flow=7, tag="pooled", rec="safe"), reference
    )
    assert stats.n_triggered == 0
    assert stats.n_skipped == 10
    assert stats.follow_mean is None and stats.deviate_mean is None
    assert "never reached" in stats.note


def test_rollout_is_paired(reference):
    cfg = SimConfig(c=2, d=3, trials=300, horizon=10, seed=17, max_wait=80)
    trigger = AgentState(prev_flow=3, tag="pooled", rec="safe")
    a = deviation_rollout(cfg, trigger, reference)
    b = deviation_rollout(cfg, trigger, reference)
    assert a.follow_mean == b.follow_mean
    assert a.deviate_mean == b.deviate_mean
    assert a.n_triggered == b.n_triggered


# ---------------------------------------------------------------------------
# golden values: the numbers of the per-trial, per-agent simulator, pinned
# exactly (the reference game's costs are small integers and delta = 1/2,
# so every sum is exact and any change to the draws or the pricing shows)

def test_run_scheme_golden_values(reference):
    stats = run_scheme(SimConfig(2, 3, trials=10000, horizon=16, seed=42), reference)
    assert stats.total_mean == 195.85658346862792
    assert stats.total_se == 0.17779862982173256
    stats = run_scheme(SimConfig(2, 3, trials=500, horizon=12, seed=3, start="low"),
                       reference)
    assert stats.total_mean == 187.582880859375
    assert stats.total_se == 1.2030331214774639
    assert stats.sample.flows == (1,) + (3,) * 11


@pytest.mark.parametrize("trigger, triggered, follow, deviate", [
    (AgentState(3, "pooled", "safe"), 299, 19.867063388377925, 23.906890154682273),
    (AgentState(None, "high", "risky"), 70, 17.76456473214286, 19.98046875),
    (AgentState(3, "low", "risky"), 263, 16.63961501901141, 19.98046875),
])
def test_rollout_golden_values(reference, trigger, triggered, follow, deviate):
    cfg = SimConfig(2, 3, trials=300, horizon=10, seed=17, max_wait=80)
    stats = deviation_rollout(cfg, trigger, reference)
    assert stats.n_triggered == triggered
    assert stats.n_skipped == 300 - triggered
    assert stats.follow_mean == follow
    assert stats.deviate_mean == deviate


# ---------------------------------------------------------------------------
# the vectorised paths against the per-agent ones

@pytest.mark.parametrize("start", ["high", "low"])
def test_dispatch_flows_match_chain_flows(infinite_draws, start):
    for k, params in enumerate(infinite_draws[:6]):
        c, d = 2, params.n - k % 2
        cfg = SimConfig(c, d, trials=2, horizon=40, seed=k, start=start)
        stats = run_scheme(cfg, params)
        lows = sim._chains(params, 40, k, range(1), start)
        flows = sim._flows(lows, c, d, start)
        assert stats.sample.flows == tuple(flows[0].tolist())
        # aggregate stage costs price what the agents pay one by one
        disc = params.delta ** np.arange(40)
        costs = sim._cost_table(params, c, d)[flows, lows.view(np.uint8)]
        total = sim._discounted(costs, disc)[0]
        assert total == pytest.approx(stats.sample.total, rel=1e-12)


def test_chain_rows_match_single_chains(reference, monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_STAGES", 20)
    horizon, trials = 7, 11
    blocks = sim._blocks(trials, horizon)
    assert [len(b) for b in blocks] == [2] * 5 + [1]
    assert [t for b in blocks for t in b] == list(range(trials))
    for start in ("high", "low"):
        rows = np.concatenate([sim._chains(reference, horizon, 5, b, start) for b in blocks])
        spanning = sim._chains(reference, horizon, 5, range(1, 6), start)
        for k in range(trials):
            single = simulate_chain(reference, horizon, seed=5, trial=k, start=start)
            assert np.array_equal(rows[k], single)
            if 1 <= k < 6:
                assert np.array_equal(spanning[k - 1], single)


def test_results_do_not_depend_on_block_size(reference, monkeypatch):
    cfg = SimConfig(2, 3, trials=37, horizon=9, seed=8, max_wait=30)
    trigger = AgentState(None, "pooled", "safe")
    run, roll = run_scheme(cfg, reference), deviation_rollout(cfg, trigger, reference)
    monkeypatch.setattr(sim, "_BLOCK_STAGES", 50)
    assert run_scheme(cfg, reference) == run
    assert deviation_rollout(cfg, trigger, reference) == roll


@pytest.mark.parametrize("n", [5, 10, 40, 100])
def test_agent0_replay_matches_full_dispatch(n):
    params = GameParams(n=n, s0=10, s1=0.0, l=1.0, h=19.0,
                        gamma_l=0.3, gamma_h=0.5, delta=0.5)
    c, d, stages = 2, n - 1, 60
    never = AgentState(prev_flow=n + 1, tag="pooled", rec="safe")
    for trial in range(5):
        lows = sim._chains(params, stages, 3, range(trial, trial + 1), "high")
        flows = sim._flows(lows, c, d, "high")[0].tolist()
        t_star, roles = sim._agent0_roles(never, lows[0].tolist(), flows, n, stages, 1,
                                          sim._rng(3, trial, sim._STREAM_DISPATCH))
        assert t_star is None
        rng = sim._rng(3, trial, sim._STREAM_DISPATCH)
        risky = None
        for t in range(stages):
            prev_low = bool(lows[0, t - 1]) if t >= 1 else False
            prev2_low = bool(lows[0, t - 2]) if t >= 2 else False
            risky = sim._dispatch(risky, prev_low, prev2_low, c, d, rng, n)
            assert int(risky.sum()) == flows[t]
            assert bool(risky[0]) == roles[t], (trial, t)

