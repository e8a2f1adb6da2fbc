import math

import numpy as np
import pytest

from roadrec.model import AssumptionError, GameParams, ParameterError
from roadrec.infinite import check_ic, pi_star, scheme_cost, v_bar
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


def test_stream_rows_are_consecutive_draws():
    # row k of a stream's uniform matrix is trial k's slice of one generator
    whole = np.random.default_rng((6, sim._STREAM_DISPATCH)).random((9, 13))
    assert np.array_equal(sim._uniforms(6, sim._STREAM_DISPATCH, range(3, 7), 13), whole[3:7])
    with pytest.raises(ParameterError, match="trial must be nonnegative"):
        simulate_chain(FROZEN, 10, seed=0, trial=-1)


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


def _ic_triggers(c: int, d: int) -> dict[str, AgentState]:
    """The trigger state of each of the 11 check_ic entries."""
    triggers = {"safe_after_high": AgentState(None, "high", "safe"),
                "risky_after_high": AgentState(None, "high", "risky")}
    for name, flow in (("d", d), ("c", c), ("1", 1)):
        triggers[f"risky_at_{name}_low"] = AgentState(flow, "low", "risky")
        for rec in ("safe", "risky"):
            triggers[f"{rec}_at_{name}_pooled"] = AgentState(flow, "pooled", rec)
    return triggers


@pytest.mark.parametrize("game", ["reference", "draw 4"])
def test_rollouts_cover_every_ic_entry(game, reference, infinite_draws):
    # every obedience entry's follow value against the rollout that plays it,
    # at a horizon whose truncation tail is small next to the standard errors
    params = reference if game == "reference" else infinite_draws[4]
    star = pi_star(params)
    report = check_ic(star.c, star.d, params)
    triggers = _ic_triggers(star.c, star.d)
    assert sorted(triggers) == sorted(e.state for e in report.entries)
    horizon = math.ceil(math.log(1e-5) / math.log(params.delta))
    cfg = SimConfig(star.c, star.d, trials=4000, horizon=horizon, seed=11, max_wait=120)
    for entry in report.entries:
        assert not entry.vacuous, entry.state
        stats = deviation_rollout(cfg, triggers[entry.state], params)
        assert stats.n_triggered > cfg.trials // 10, entry.state
        budget = 4.0 * stats.follow_se + stats.tail_bound
        assert abs(stats.follow_mean - entry.follow) <= budget, entry.state


def test_rollout_matches_agent_by_agent_play(reference):
    # the loop the vectorised rollout replaces: each trial plays the full
    # dispatch lottery stage by stage, finds agent 0's first visit to the
    # trigger and values both arms from there
    cfg = SimConfig(2, 3, trials=40, horizon=8, seed=4, start="low", max_wait=40)
    n, length = reference.n, cfg.max_wait + cfg.horizon
    weights = [reference.delta**k for k in range(cfg.horizon)]
    lows = sim._chains(reference, length, cfg.seed, range(cfg.trials), cfg.start)
    u = sim._uniforms(cfg.seed, sim._STREAM_DISPATCH, range(cfg.trials), length)
    start_low = cfg.start == "low"
    plays = []
    for k in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, k))
        risky, roles, flows = None, [], []
        for t in range(length):
            prev_low = bool(lows[k, t - 1]) if t >= 1 else start_low
            prev2_low = bool(lows[k, t - 2]) if t >= 2 else start_low
            risky = sim._dispatch(risky, prev_low, prev2_low, cfg.c, cfg.d, u[k, t], rng, n)
            roles.append(bool(risky[0]))
            flows.append(int(risky.sum()))
        plays.append((lows[k].tolist(), roles, flows))

    def cost(risky, low, flow):
        return (reference.l if low else reference.h) * flow if risky else reference.s0

    for trigger in _ic_triggers(cfg.c, cfg.d).values():
        follow, deviate = [], []
        for low, roles, flows in plays:
            for t in range(1, cfg.max_wait):
                was, rec = roles[t - 1], roles[t]
                tag = "pooled" if not was else "low" if low[t - 1] else "high"
                if (trigger.prev_flow in (None, flows[t - 1]) and tag == trigger.tag
                        and rec == (trigger.rec == "risky")):
                    break
            else:
                continue
            total = 0.0
            for j, w in enumerate(weights):
                total += w * cost(roles[t + j], low[t + j], flows[t + j])
            follow.append(total)
            first = cost(not rec, low[t], flows[t] + (-1 if rec else 1))
            deviate.append(first + reference.s0 * sum(weights[1:]))
        stats = deviation_rollout(cfg, trigger, reference)
        assert stats.n_triggered == len(follow), trigger
        assert stats.n_skipped == cfg.trials - len(follow)
        if follow:
            assert stats.follow_mean == pytest.approx(np.mean(follow), rel=1e-12)
            assert stats.deviate_mean == pytest.approx(np.mean(deviate), rel=1e-12)


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
# golden values: the numbers of one generator per (seed, stream), pinned
# exactly (the reference game's costs are small integers and delta = 1/2,
# so every sum is exact and any change to the draws or the pricing shows)

def test_run_scheme_golden_values(reference):
    stats = run_scheme(SimConfig(2, 3, trials=10000, horizon=16, seed=42), reference)
    assert stats.total_mean == 195.48032736816407
    assert stats.total_se == 0.17819466158122485
    stats = run_scheme(SimConfig(2, 3, trials=500, horizon=12, seed=3, start="low"),
                       reference)
    assert stats.total_mean == 186.39303125
    assert stats.total_se == 1.166863436545607
    assert stats.sample.flows == (1,) + (3,) * 11


@pytest.mark.parametrize("trigger, triggered, follow, deviate", [
    (AgentState(3, "pooled", "safe"), 300, 19.969850260416667, 21.827135416666668),
    (AgentState(None, "high", "risky"), 62, 18.033014112903224, 19.98046875),
    (AgentState(3, "low", "risky"), 244, 17.371822169569672, 19.98046875),
], ids=["3:pooled:safe", "any:high:risky", "3:low:risky"])
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
    c, d, stages, trials = 2, n - 1, 60, range(5)
    lows = sim._chains(params, stages, 3, trials, "high")
    flows = sim._flows(lows, c, d, "high")
    u = sim._uniforms(3, sim._STREAM_DISPATCH, trials, stages)
    roles = sim._roles(u, lows, flows, n)
    assert roles.any() and not roles.all()
    for trial in trials:
        rng = np.random.default_rng((3, trial))
        risky = None
        for t in range(stages):
            prev_low = bool(lows[trial, t - 1]) if t >= 1 else False
            prev2_low = bool(lows[trial, t - 2]) if t >= 2 else False
            risky = sim._dispatch(risky, prev_low, prev2_low, c, d, u[trial, t], rng, n)
            assert int(risky.sum()) == flows[trial, t]
            assert bool(risky[0]) == roles[trial, t], (trial, t)

