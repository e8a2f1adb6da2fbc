import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from roadrec.model import AssumptionError, GameParams, ParameterError
from roadrec.infinite import check_ic, pi_star, scheme_cost, v_bar
from roadrec import sim
from roadrec.sim import AgentState, SimConfig, deviation_rollout, run_scheme

from conftest import REFERENCE

# Both switch rates zero: starting high, the chain never leaves the high
# state and compliant play is fully deterministic.
FROZEN = GameParams(n=10, s0=10, s1=0.0, l=1.0, h=10.0,
                    gamma_l=0.0, gamma_h=0.0, delta=0.5)

# The reference game with l = 1.1 and delta = 0.45, so its sums are not
# exact: a change in the order in which a trial's stage costs are added
# moves the last bits of a mean, which the reference game cannot show. CI
# prints a simulation of it too.
INEXACT = GameParams(n=10, s0=10, s1=0, l=1.1, h=19, gamma_l=0.1, gamma_h=0.5, delta=0.45)


# ---------------------------------------------------------------------------
# reference implementations: the stage-by-stage loops that the simulator's
# array kernels replace

# The agent-by-agent play draws the recruits other than agent 0 from this
# stream; the simulator itself never needs them.
STREAM_RECRUITS = 2


def uniforms(seed: int, stream: int, trials: range, width: int) -> np.ndarray:
    """Rows trials of the stream's uniform matrix with width columns."""
    return next(sim._draws(seed, stream, [trials], width))


def chains(params: GameParams, horizon: int, seed: int, trials: range) -> np.ndarray:
    """The road chains of the given trials, as the simulator draws them."""
    return sim._chains(params, uniforms(seed, sim._STREAM_CHAIN, trials, horizon))


def scheme_flows(codes: np.ndarray, c: int, d: int) -> np.ndarray:
    """The risky flow of each stage, from its stage code (depth 2 or 3)."""
    return np.array([1, c, d, d])[codes >> 1]


def chains_by_stage(params: GameParams, horizon: int, seed: int, trials: range) -> np.ndarray:
    """sim._chains stepped one stage at a time from the latent high state."""
    return step_chains(params, uniforms(seed, sim._STREAM_CHAIN, trials, horizon))


def step_chains(params: GameParams, u: np.ndarray) -> np.ndarray:
    """The chains that stream-0 uniforms u drive, one stage at a time."""
    horizon = u.shape[1]
    # the next state is low if u < 1 - gamma_l from low, u < gamma_h from high
    stay, enter = u < 1.0 - params.gamma_l, u < params.gamma_h
    lows = np.empty(u.shape, dtype=bool)
    low = np.zeros(len(u), dtype=bool)
    for t in range(horizon):
        low = np.where(low, stay[:, t], enter[:, t])
        lows[:, t] = low
    return lows


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: states, flows, and discounted realised costs."""

    thetas: tuple[str, ...]
    flows: tuple[int, ...]
    total: float
    agent_totals: tuple[float, ...]


def stage_agent_costs(risky: np.ndarray, low: bool, params: GameParams) -> np.ndarray:
    """What each agent pays in one stage with these risky agents."""
    coef = params.l if low else params.h
    x = int(risky.sum())
    costs = np.full(params.n, params.s0 + params.s1 * (params.n - x), dtype=float)
    costs[risky] = coef * x
    return costs


def dispatch(
    risky_prev: np.ndarray | None,
    prev_low: bool,
    prev2_low: bool,
    c: int,
    d: int,
    u: float,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Recommendations for one stage of compliant play (True = risky).

    A fresh stage (the first, or one after a high stage) recruits one
    experimenter; the ramp tops the incumbents up to c, then d. Whether a
    safe agent 0 is recruited depends on u alone, as in sim._roles; rng
    draws the other recruits.
    """
    fresh = risky_prev is None or not prev_low
    risky = np.zeros(n, dtype=bool) if fresh else risky_prev.copy()
    held = int(risky.sum())
    need = (1 if fresh else d if prev2_low else c) - held
    if need < 0:
        raise AssumptionError(
            "dispatch would need to evict risky incumbents; scheme flows are invalid"
        )
    if not risky[0] and u * (n - held) < need:
        risky[0] = True
        need -= 1
    if need:
        others = np.flatnonzero(~risky[1:]) + 1
        risky[rng.choice(others, size=need, replace=False)] = True
    return risky


def play_agent_by_agent(config: SimConfig, params: GameParams, lows: np.ndarray) -> Trajectory:
    """Trial 0, whose road chain is lows, played agent by agent through the
    dispatch lottery: the reference for the stage codes, sim._roles and the
    cost table."""
    n, delta = params.n, params.delta
    u = uniforms(config.seed, sim._STREAM_DISPATCH, range(1), config.horizon)[0]
    rng = np.random.default_rng((config.seed, STREAM_RECRUITS))
    agent_totals = np.zeros(n)
    risky = None
    flows = []
    disc = 1.0
    for t in range(1, config.horizon + 1):
        prev_low = t >= 2 and lows[t - 2]
        prev2_low = t >= 3 and lows[t - 3]
        risky = dispatch(risky, prev_low, prev2_low, config.c, config.d, u[t - 1], rng, n)
        agent_totals += disc * stage_agent_costs(risky, bool(lows[t - 1]), params)
        flows.append(int(risky.sum()))
        disc *= delta
    return Trajectory(
        thetas=tuple("L" if low else "H" for low in lows),
        flows=tuple(flows),
        total=float(agent_totals.sum()),
        agent_totals=tuple(float(v) for v in agent_totals),
    )


def first_trial(cfg: SimConfig, params: GameParams) -> Trajectory:
    """Trial 0 of cfg played agent by agent through the dispatch lottery."""
    lows = chains(params, cfg.horizon, cfg.seed, range(1))[0]
    return play_agent_by_agent(cfg, params, lows)


def test_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(c=2, d=3, trials=0)
    with pytest.raises(ParameterError):
        SimConfig(c=2, d=3, horizon=0)
    with pytest.raises(ParameterError):
        SimConfig(c=2, d=3, max_wait=1)
    with pytest.raises(ParameterError, match="seed must be nonnegative"):
        SimConfig(c=2, d=3, seed=-1)


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("horizon", 4.0), ("seed", 1.5), ("trials", True),
    ("max_wait", 8.0), ("c", 2.0), ("d", np.array([3])),
])
def test_config_rejects_non_integers(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        SimConfig(**{"c": 2, "d": 3, field: value})


def test_config_accepts_numpy_integers(reference):
    cfg = SimConfig(np.int64(2), np.int32(3), trials=np.int64(20), horizon=np.int16(8),
                    seed=np.uint8(4), max_wait=np.int64(30))
    plain = SimConfig(2, 3, trials=20, horizon=8, seed=4, max_wait=30)
    assert cfg == plain
    assert run_scheme(cfg, reference) == run_scheme(plain, reference)
    trigger = AgentState(3, "pooled", "safe")
    assert deviation_rollout(cfg, trigger, reference) == deviation_rollout(plain, trigger, reference)


def test_config_upper_bounds():
    # the caps themselves are accepted; one past each is refused
    SimConfig(c=2, d=3, trials=sim._MAX_TRIALS, horizon=sim._MAX_HORIZON,
              max_wait=sim._MAX_WAIT)
    for field, cap in (("trials", sim._MAX_TRIALS), ("horizon", sim._MAX_HORIZON),
                       ("max_wait", sim._MAX_WAIT)):
        with pytest.raises(ParameterError, match=f"{field} must be at most {cap}"):
            SimConfig(c=2, d=3, **{field: cap + 1})


def test_trigger_validation():
    with pytest.raises(ParameterError):
        AgentState(prev_flow=2, tag="confused", rec="safe")
    with pytest.raises(ParameterError):
        AgentState(prev_flow=2, tag="pooled", rec="stay")


@pytest.mark.parametrize("flow", [2.5, True, "3"])
def test_trigger_refuses_a_flow_that_is_not_an_integer(flow):
    # 2.5 could only read "never reached", and True would run as flow 1
    with pytest.raises(ParameterError, match=f"prev_flow must be an integer, got {flow!r}"):
        AgentState(prev_flow=flow, tag="pooled", rec="safe")


def test_trigger_takes_a_numpy_integer_flow(reference):
    cfg = SimConfig(2, 3, trials=200, seed=1, max_wait=200)
    trigger = AgentState(np.int64(3), "pooled", "safe")
    assert type(trigger.prev_flow) is int
    assert (deviation_rollout(cfg, trigger, reference)
            == deviation_rollout(cfg, AgentState(3, "pooled", "safe"), reference))


def test_chain_is_reproducible(reference):
    a = chains(reference, 50, 3, range(7, 8))
    b = chains(reference, 50, 3, range(7, 8))
    assert np.array_equal(a, b)
    c = chains(reference, 50, 3, range(8, 9))
    assert not np.array_equal(a, c)


def test_stream_rows_are_consecutive_draws():
    # row k of a stream's uniform matrix is trial k's slice of one generator,
    # whether the blocks start at trial 0 or the generator is advanced first
    whole = np.random.default_rng((6, sim._STREAM_DISPATCH)).random((9, 13))
    for blocks in ([range(0, 4), range(4, 8), range(8, 9)], [range(3, 7)], [range(2, 3), range(3, 9)]):
        drawn = list(sim._draws(6, sim._STREAM_DISPATCH, blocks, 13))
        assert [len(u) for u in drawn] == [len(b) for b in blocks]
        assert np.array_equal(np.concatenate(drawn), whole[blocks[0].start:blocks[-1].stop])


def test_chain_respects_switch_rates():
    frozen_high = chains(FROZEN, 30, 1, range(1))
    assert not frozen_high.any()


def test_chain_long_run_frequency(reference):
    # stationary P(low) = gamma_h / (gamma_l + gamma_h) = 5/6
    lows = chains(reference, 400, 9, range(50))
    assert lows.mean() == pytest.approx(5.0 / 6.0, abs=0.02)


@pytest.mark.parametrize("params", [
    replace(REFERENCE, gamma_l=0.5, gamma_h=0.5),
    FROZEN,
    REFERENCE,
    # gamma_h = 1 - gamma_l exactly, past the gate: every draw sets the state
    replace(REFERENCE, gamma_l=0.75, gamma_h=0.25),
], ids=["both-half", "frozen", "reference", "complementary"])
@pytest.mark.parametrize("width, trials", [
    (1, range(3, 40)), (2, range(5, 30)), (16, range(17, 90)), (216, range(150, 225)),
])
def test_chain_matches_stage_by_stage_loop(params, width, trials):
    lows = chains(params, width, 12, trials)
    assert lows.dtype == bool and lows.shape == (len(trials), width)
    assert np.array_equal(lows, chains_by_stage(params, width, 12, trials))


def test_chain_matches_loop_on_random_games(infinite_draws):
    for k, params in enumerate(infinite_draws[:20]):
        trials = range(7 * k, 7 * k + 30)
        assert np.array_equal(chains(params, 216, k, trials),
                              chains_by_stage(params, 216, k, trials)), k


def test_chain_matches_loop_at_widest_rollout(reference):
    width = sim._MAX_WAIT + sim._MAX_HORIZON
    lows = chains(reference, width, 3, range(2, 3))
    assert np.array_equal(lows, chains_by_stage(reference, width, 3, range(2, 3)))
    assert lows.any() and not lows.all()


def test_chain_refuses_rates_where_a_draw_can_set_both_states():
    # gamma_h > 1 - gamma_l: a draw in [1 - gamma_l, gamma_h) would send a
    # low road high and a high road low, which no running maximum encodes
    params = replace(REFERENCE, gamma_l=0.6, gamma_h=0.5)
    with pytest.raises(AssumptionError, match="gamma_h <= 1 - gamma_l"):
        chains(params, 8, 0, range(2))


def test_frozen_chain_run_is_exact():
    # one experimenter pays h*1 = 10, nine safe agents pay s0 = 10 each stage
    cfg = SimConfig(c=2, d=3, trials=3, horizon=40, seed=7)
    stats = run_scheme(cfg, FROZEN)
    expected = 100.0 * (1.0 - 0.5**40) / 0.5
    assert stats.total_mean == pytest.approx(expected, abs=1e-9)
    assert stats.total_se == 0.0
    sample = first_trial(cfg, FROZEN)
    assert sample.flows == tuple([1] * 40)
    assert sample.thetas == tuple(["H"] * 40)


def test_integer_safe_costs_keep_fractional_risky_costs():
    # a chain that turns low at stage one and stays low: one experimenter,
    # then c = 2 users paying 1.5 * 2 each, then d = 3 paying 1.5 * 3 each,
    # while the rest pay s0 = 10; integer s0 and s1 must not round the risky
    # costs down. The gate keeps a chain from a high start from being forced
    # low, so the chain is given to the pricing directly.
    params = GameParams(n=10, s0=10, s1=0, l=1.5, h=10,
                        gamma_l=0.0, gamma_h=0.0, delta=0.5)
    table = sim._cost_table(params, 2, 3)
    assert table[[1, 3, 5]].tolist() == [91.5, 86.0, 83.5]
    cfg = SimConfig(c=2, d=3, trials=2, horizon=20)
    lows = np.ones((1, cfg.horizon), dtype=bool)
    expected = 91.5 + 0.5 * 86.0 + 83.5 * 0.5 * (1.0 - 0.5**18)
    costs = np.take(table, sim._stage_codes(lows, 2).T)
    assert sim._discounted(costs, 0.5 ** np.arange(cfg.horizon))[0] == pytest.approx(
        expected, abs=1e-12)
    sample = play_agent_by_agent(cfg, params, lows[0])
    assert sample.total == pytest.approx(expected, abs=1e-12)
    assert min(sample.agent_totals) == pytest.approx(
        1.5 + 0.5 * 3.0 + 4.5 * 0.5 * (1.0 - 0.5**18), abs=1e-12)


def _every_chain(horizon: int, params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """All 2^horizon road chains (True = low) and the chance of each from
    the latent high state."""
    lows = np.array(list(itertools.product([False, True], repeat=horizon)))
    chance = np.ones(len(lows))
    prev = np.zeros(len(lows), dtype=bool)
    for t in range(horizon):
        to_low = np.where(prev, 1.0 - params.gamma_l, params.gamma_h)
        chance *= np.where(lows[:, t], to_low, 1.0 - to_low)
        prev = lows[:, t]
    return lows, chance


@pytest.mark.parametrize("params", [REFERENCE, INEXACT], ids=["reference", "inexact"])
def test_truncated_value_is_the_mean_over_every_chain(params):
    # each of the 2^7 chains priced as run_scheme prices a trial, weighted by its chance
    cfg = SimConfig(2, 3, horizon=7)
    lows, chance = _every_chain(cfg.horizon, params)
    assert chance.sum() == pytest.approx(1.0, rel=1e-15)
    costs = np.take(sim._cost_table(params, cfg.c, cfg.d), sim._stage_codes(lows, 2).T)
    totals = sim._discounted(costs, params.delta ** np.arange(cfg.horizon))
    assert sim.truncated_value(cfg, params) == pytest.approx(chance @ totals, rel=1e-14)


def _truncated_gaps(cases: list[tuple[GameParams, int, int]]) -> float:
    """Largest relative gap between truncated_value and scheme_cost over
    (params, c, d) cases, at a horizon where delta^H < 1e-14."""
    worst = 0.0
    for params, c, d in cases:
        horizon = math.ceil(math.log(1e-14) / math.log(params.delta))
        exact = sim.truncated_value(SimConfig(c, d, horizon=horizon), params)
        closed = scheme_cost(c, d, params)
        worst = max(worst, abs(exact - closed) / abs(closed))
    return worst


def _reference_pairs() -> list[tuple[GameParams, int, int]]:
    n = REFERENCE.n
    return [(REFERENCE, c, d) for c in range(2, n + 1) for d in range(c, n + 1)]


def test_truncated_value_matches_scheme_cost(infinite_draws):
    # an exact check of scheme_cost through realised road states
    draws = [(params, star.c, star.d)
             for params, star in ((p, pi_star(p)) for p in infinite_draws)]
    assert len(draws) == 200
    assert _truncated_gaps(draws + _reference_pairs()) <= 1e-12


def test_truncated_value_check_can_fail(monkeypatch):
    # a cost table off by a relative 1e-9 fails the comparison above
    table = sim._cost_table
    monkeypatch.setattr(sim, "_cost_table", lambda *args: table(*args) * (1.0 + 1e-9))
    assert _truncated_gaps(_reference_pairs()) > 1e-12


def test_truncated_value_checks_its_input(reference, example1):
    with pytest.raises(AssumptionError):
        sim.truncated_value(SimConfig(c=2, d=3, horizon=4), example1)
    with pytest.raises(ParameterError):
        sim.truncated_value(SimConfig(c=2, d=11, horizon=4), reference)


def test_run_scheme_gate(example1):
    with pytest.raises(AssumptionError):
        run_scheme(SimConfig(c=2, d=3, trials=2, horizon=4), example1)


def test_flows_follow_the_dispatch_rule(reference):
    sample = first_trial(SimConfig(c=2, d=3, trials=1, horizon=60, seed=21), reference)
    thetas = sample.thetas
    flows = sample.flows
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
    assert first_trial(cfg, reference).flows == first_trial(cfg, reference).flows


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
    cfg = SimConfig(2, 3, trials=40, horizon=8, seed=4, max_wait=40)
    n, length = reference.n, cfg.max_wait + cfg.horizon
    weights = [reference.delta**k for k in range(cfg.horizon)]
    lows = chains(reference, length, cfg.seed, range(cfg.trials))
    u = uniforms(cfg.seed, sim._STREAM_DISPATCH, range(cfg.trials), length)
    plays = []
    for k in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, k))
        risky, roles, flows = None, [], []
        for t in range(length):
            prev_low = bool(lows[k, t - 1]) if t >= 1 else False
            prev2_low = bool(lows[k, t - 2]) if t >= 2 else False
            risky = dispatch(risky, prev_low, prev2_low, cfg.c, cfg.d, u[k, t], rng, n)
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


def test_rollout_prices_integer_costs_beyond_int32(reference):
    # the flows are int32; integer costs past that width must price as their
    # float equals do (scaling by a power of two keeps every product exact)
    k = 2**37
    ints = replace(reference, s0=10 * k, l=k, h=19 * k)
    floats = replace(reference, s0=10.0 * k, l=float(k), h=19.0 * k)
    cfg = SimConfig(2, 3, trials=60, horizon=10, seed=3, max_wait=40)
    assert run_scheme(cfg, ints) == run_scheme(cfg, floats)
    for trigger in (AgentState(3, "pooled", "safe"), AgentState(None, "high", "risky")):
        scaled = deviation_rollout(cfg, trigger, ints)
        assert scaled == deviation_rollout(cfg, trigger, floats)
        assert scaled.follow_mean == k * deviation_rollout(cfg, trigger, reference).follow_mean


def test_rollout_reports_unreachable_trigger(reference):
    cfg = SimConfig(c=2, d=3, trials=10, horizon=6, seed=3, max_wait=40)
    stats = deviation_rollout(
        cfg, AgentState(prev_flow=7, tag="pooled", rec="safe"), reference
    )
    assert stats.n_triggered == 0
    assert stats.n_skipped == 10
    assert stats.follow_mean is None and stats.deviate_mean is None
    assert "never reached" in stats.note


@pytest.mark.parametrize("flow", [-3, 0, 11])
def test_rollout_refuses_a_flow_no_stage_shows(reference, flow):
    # every risky flow is in 1..n, so such a trigger could only read "never reached"
    cfg = SimConfig(c=2, d=3, trials=10, horizon=6, seed=3, max_wait=40)
    with pytest.raises(ParameterError, match=r"trigger flow must be in 1\.\.10 or 'any'"):
        deviation_rollout(cfg, AgentState(prev_flow=flow, tag="pooled", rec="safe"), reference)


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


# The same pins on INEXACT, whose sums are not exact.

def test_run_scheme_golden_values_inexact():
    stats = run_scheme(SimConfig(2, 3, trials=10000, horizon=16, seed=42), INEXACT)
    assert stats.total_mean == 178.418491939676
    assert stats.total_se == 0.15671396275561603


@pytest.mark.parametrize("trigger, golden", [
    (AgentState(3, "pooled", "safe"),
     (300, 18.212408685214964, 0.03982378092749123, 21.691766773010563,
      1.326763230156881, 3.4793580877956, 1.318639380357801)),
    (AgentState(None, "high", "risky"),
     (61, 17.87805519710754, 1.3716981679176425, 18.18176677301057,
      4.586533637279209e-16, 0.30371157590302944, 1.3716981679176425)),
    (AgentState(3, "low", "risky"),
     (255, 16.542733604224733, 1.162668365202076, 18.181766773010565,
      0.0, 1.6390331687858322, 1.162668365202076)),
], ids=["3:pooled:safe", "any:high:risky", "3:low:risky"])
def test_rollout_golden_values_inexact(trigger, golden):
    cfg = SimConfig(2, 3, trials=300, horizon=16, seed=17, max_wait=80)
    s = deviation_rollout(cfg, trigger, INEXACT)
    assert (s.n_triggered, s.follow_mean, s.follow_se, s.deviate_mean, s.deviate_se,
            s.diff_mean, s.diff_se) == golden


# ---------------------------------------------------------------------------
# the vectorised paths against the per-agent ones

def test_dispatch_flows_match_chain_flows(infinite_draws):
    for k, params in enumerate(infinite_draws[:6]):
        c, d = 2, params.n - k % 2
        cfg = SimConfig(c, d, trials=2, horizon=40, seed=k)
        sample = first_trial(cfg, params)
        lows = chains(params, 40, k, range(1))
        codes = sim._stage_codes(lows, 2)
        assert codes.dtype == np.uint8 and np.array_equal(codes & 1, lows)
        assert sample.flows == tuple(scheme_flows(codes, c, d)[0].tolist())
        # aggregate stage costs price what the agents pay one by one
        disc = params.delta ** np.arange(40)
        costs = np.take(sim._cost_table(params, c, d), codes.T)
        total = sim._discounted(costs, disc)[0]
        assert total == pytest.approx(sample.total, rel=1e-12)


def test_chain_rows_match_single_chains(reference, monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_STAGES", 20)
    horizon, trials = 7, 11
    blocks = sim._blocks(trials, horizon)
    assert [len(b) for b in blocks] == [2] * 5 + [1]
    assert [t for b in blocks for t in b] == list(range(trials))
    rows = np.concatenate([sim._chains(reference, u)
                           for u in sim._draws(5, sim._STREAM_CHAIN, blocks, horizon)])
    spanning = chains(reference, horizon, 5, range(1, 6))
    for k in range(trials):
        single = chains(reference, horizon, 5, range(k, k + 1))[0]
        assert np.array_equal(rows[k], single)
        if 1 <= k < 6:
            assert np.array_equal(spanning[k - 1], single)


def _same_results_in_small_blocks(params: GameParams, monkeypatch) -> None:
    cfg = SimConfig(2, 3, trials=37, horizon=9, seed=8, max_wait=30)
    triggers = [AgentState(None, "pooled", "safe"), AgentState(3, "low", "risky")]
    run = run_scheme(cfg, params)
    rolls = [deviation_rollout(cfg, trigger, params) for trigger in triggers]
    monkeypatch.setattr(sim, "_BLOCK_STAGES", 50)
    # five-row blocks for the runs, one-row blocks for the rollouts
    assert len(sim._blocks(cfg.trials, cfg.horizon)[0]) == 5
    assert len(sim._blocks(cfg.trials, cfg.max_wait + cfg.horizon)[0]) == 1
    assert run_scheme(cfg, params) == run
    assert [deviation_rollout(cfg, trigger, params) for trigger in triggers] == rolls


def test_results_do_not_depend_on_block_size(reference, monkeypatch):
    _same_results_in_small_blocks(reference, monkeypatch)


def test_results_do_not_depend_on_block_size_inexact(monkeypatch):
    _same_results_in_small_blocks(INEXACT, monkeypatch)


def test_join_bounds_split_the_lottery_test_exactly():
    # u < bound is u * pool < need, also for the floats next to the bound
    for pool in [*range(1, 60), 999, 1000]:
        for need in range(-1, min(pool, 60) + 1):
            bound = sim._join_below(pool, need)
            for u in (bound, np.nextafter(bound, 0.0), np.nextafter(bound, 1.0), 0.0):
                if 0.0 <= u < 1.0:
                    assert (u < bound) == (u * pool < need), (pool, need, u)


@pytest.mark.parametrize("n", [5, 10, 40, 100])
def test_agent0_replay_matches_full_dispatch(n):
    params = GameParams(n=n, s0=10, s1=0.0, l=1.0, h=19.0,
                        gamma_l=0.3, gamma_h=0.5, delta=0.5)
    c, d, stages, trials = 2, n - 1, 60, range(5)
    lows = chains(params, stages, 3, trials)
    codes = sim._stage_codes(lows, 3)
    flows = scheme_flows(codes, c, d)
    u = uniforms(3, sim._STREAM_DISPATCH, trials, stages)
    roles = sim._roles(u, codes, sim._join_bounds(n, c, d))
    assert roles.any() and not roles.all()
    played_flows, played_roles = play_roles(lows, u, c, d, n)
    assert np.array_equal(played_flows, flows)
    assert np.array_equal(played_roles, roles)


def play_roles(lows: np.ndarray, u: np.ndarray, c: int, d: int,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """The risky flow and agent 0's role (True = risky) in every stage of
    the chains lows, the dispatch lottery played agent by agent, stage by
    stage, with agent 0's uniforms u."""
    flows = np.empty(lows.shape, dtype=int)
    roles = np.empty(lows.shape, dtype=bool)
    for trial in range(len(lows)):
        rng = np.random.default_rng((3, trial))
        risky = None
        for t in range(lows.shape[1]):
            prev_low = bool(lows[trial, t - 1]) if t >= 1 else False
            prev2_low = bool(lows[trial, t - 2]) if t >= 2 else False
            risky = dispatch(risky, prev_low, prev2_low, c, d, u[trial, t], rng, n)
            flows[trial, t], roles[trial, t] = risky.sum(), risky[0]
    return flows, roles


# Widths around the running maxima's spans of sim._SPAN = 127 stages.
SPAN_WIDTHS = [126, 127, 128, 254, 255, 256, 381]


@pytest.mark.parametrize("width", SPAN_WIDTHS)
def test_chain_matches_loop_across_spans(width):
    # switch rates of 1% leave whole spans without a draw that sets the state
    params = replace(REFERENCE, gamma_l=0.01, gamma_h=0.01)
    keep, to_low, to_high = 0.5, 0.0, 0.999
    u = np.random.default_rng(width).random((12, width))
    u[:8, :254] = keep  # rows 0-7 set no stage in the first two spans
    u[1, 0] = to_low  # but row 1 goes low at stage one and stays low
    u[2, 1] = to_low  # row 2 low at stage two, then high from the
    u[2, 127::127] = to_high  # first stage of each later span
    u[3, 127::127] = to_low  # row 3 low from the second span's first stage
    u[6:8, 127:128] = to_low  # a low set at the second span's first stage
    u[7, 128:129] = to_high  # and a high one just after it
    lows = sim._chains(params, u)
    assert np.array_equal(lows, step_chains(params, u))
    assert lows[1, :254].all() and not lows[0, :254].any()
    if width > 127:
        assert lows[2, 1:127].all() and not lows[2, 127:254].any()
        assert lows[3, 127:254].all() and not lows[3, :127].any()


@pytest.mark.parametrize("width", SPAN_WIDTHS)
def test_roles_match_dispatch_across_spans(width):
    n, c, d = 10, 2, 3
    bounds = sim._join_bounds(n, c, d)
    rng = np.random.default_rng(width)
    # a low road from stage one ramps to d by stage three and then fills no
    # seat: no later stage sets agent 0's role, which carries over spans
    lows = np.ones((12, width), dtype=bool)
    u = np.full(lows.shape, 0.99)
    u[0, 0] = 0.0  # row 0: the experimenter at stage one, risky throughout
    u[1, 1] = 0.0  # row 1: recruited at stage two
    u[3, 126:127] = 0.0  # row 3: no seat to fill at ramp d, safe throughout
    lows[4:8, 126:127] = False  # rows 4-7: the first stage of the second
    lows[4:8, 253:254] = False  # and third spans starts afresh
    u[4:6, 127:128] = 0.0  # rows 4-5: the experimenter there
    u[4, 254:255] = 0.0  # and row 4 again in the third span
    u[6, 0] = 0.0  # row 6: risky until the second span starts afresh
    lows[8:10, 125:126] = False  # rows 8-9: fresh at stage 127 and
    u[8:10, 127:128] = 0.0  # recruited at the second span's first stage
    u[9, 0] = 0.0  # row 9: risky until stage 127 starts afresh
    lows[10:] = rng.random((2, width)) < 0.9
    u[10:] = rng.random((2, width))
    codes = sim._stage_codes(lows, 3)
    roles = sim._roles(u, codes, bounds)
    played_flows, played_roles = play_roles(lows, u, c, d, n)
    assert np.array_equal(scheme_flows(codes, c, d), played_flows)
    assert np.array_equal(roles, played_roles)
    assert roles[0].all() and roles[1, 1:].all() and not roles[1, 0]
    assert not roles[2:4].any() and not roles[7].any() and not roles[8, :127].any()
    assert roles[6, :127].all() and roles[9, :126].all() and not roles[9, 126:127].any()
    if width > 254:
        assert not roles[4:6, :127].any() and roles[4:6, 127:254].all()
        assert roles[4, 254:].all() and not roles[5, 254:].any()
    if width > 127:
        assert not roles[6, 127:].any() and roles[8:10, 127:].all()

