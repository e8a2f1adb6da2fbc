"""Monte Carlo simulator for the infinite-horizon recommendation schemes.

Simulates the road-state chain, the coordinator's dispatch rules, compliant
agents, and (for deviation rollouts) a single monitored agent, agent 0, who
defects at the first visit to a chosen state and is punished forever after.

Determinism: each (seed, stream) pair seeds one numpy generator, stream 0
for the road chain and 1 for agent 0's dispatch draws. A stream is read as
a matrix of uniforms with one row per trial and one column per stage, so
row k belongs to trial k and its width, hence its content, depends on the
number of stages simulated (the horizon, or max_wait + horizon in a
rollout). A block of trials reaches its first row by advancing the
generator (one uniform is one 64-bit draw), so results do not depend on how
trials are grouped, and a deviation rollout shares the chain and dispatch
draws of its compliant twin until the moment of deviation (common random
numbers).

Work is vectorised over trials. Trials run in blocks of about _BLOCK_STAGES
trial-stages, which bounds the working memory whatever the trial count;
each block steps all its road chains stage by stage. Under a scheme the
risky flow is a function of the chain alone (one experimenter at stage one
and after a high stage, c after the first low stage, d after two or more),
so the aggregate cost needs no dispatch lottery; only the first trial plays
it, for its per-agent sample. Agent 0's role is a small Markov chain driven by
one stream-1 uniform per stage: in a fresh stage (stage one, or after a
high stage) it is the experimenter when u < 1/n; during the ramp a risky
agent stays risky and a safe one is recruited when u < need/(n - prev_flow).
The per-agent lottery reads agent 0's role from the same uniform and draws
the other recruits from stream 2. A rollout's deviate arm needs no draws
after the deviation: the gate forces s1 = 0, so once the deviant hides on
the safe road it pays exactly s0 per stage, whatever the punishment regime
recommends to the others.

Horizons are finite, so every estimate carries an explicit truncation bound:
discounting delta^T of the worst possible stage cost, summed to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    AssumptionError,
    GameParams,
    ParameterError,
    stage_cost,
)
from .infinite import InfiniteScheme, require_gate

_STREAM_CHAIN = 0
_STREAM_DISPATCH = 1
_STREAM_RECRUITS = 2

# Trial-stages simulated at once: bounds the arrays of one block, and sets
# how many rows each step of a stage loop covers.
_BLOCK_STAGES = 16384

# Largest simulation a SimConfig accepts: 100 times the CLI's default trial
# count (8 MB of per-trial totals), and horizons and trigger waits far past
# any discount's truncation tail of interest.
_MAX_TRIALS = 1_000_000
_MAX_HORIZON = 10_000
_MAX_WAIT = 10_000


def _uniforms(seed: int, stream: int, trials: range, width: int) -> np.ndarray:
    """Rows trials of the stream's uniform matrix with width columns."""
    rng = np.random.default_rng((seed, stream))
    rng.bit_generator.advance(trials.start * width)
    return rng.random((len(trials), width))


@dataclass(frozen=True)
class SimConfig:
    """Knobs shared by all simulation entry points.

    horizon is the number of simulated (and, in rollouts, valued) stages;
    start is the latent road state before stage one ("high" matches the
    cost conventions of the closed forms, which price an excursion that
    begins right after a high observation). max_wait bounds how long a
    rollout waits for its trigger state before skipping the trial.
    """

    c: int
    d: int
    trials: int = 1000
    horizon: int = 64
    seed: int = 0
    start: str = "high"
    max_wait: int = 256

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError(f"trials must be positive, got {self.trials}")
        if self.horizon < 1:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.max_wait < 2:
            raise ParameterError(f"max_wait must be at least 2, got {self.max_wait}")
        for name, cap in (("trials", _MAX_TRIALS), ("horizon", _MAX_HORIZON),
                          ("max_wait", _MAX_WAIT)):
            if getattr(self, name) > cap:
                raise ParameterError(f"{name} must be at most {cap}, got {getattr(self, name)}")
        if self.start not in ("high", "low"):
            raise ParameterError(f"start must be 'high' or 'low', got {self.start!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")

    def scheme(self) -> InfiniteScheme:
        return InfiniteScheme(c=self.c, d=self.d)


@dataclass(frozen=True)
class AgentState:
    """What one agent knows when a recommendation arrives.

    prev_flow   risky flow it observed last stage (None matches any)
    tag         "low"/"high" if it was on the risky road and saw the state,
                "pooled" if it sat on the safe road and cannot tell
    rec         the recommendation just received, "risky" or "safe"
    """

    prev_flow: int | None
    tag: str
    rec: str

    def __post_init__(self) -> None:
        if self.tag not in ("low", "high", "pooled"):
            raise ParameterError(f"tag must be low/high/pooled, got {self.tag!r}")
        if self.rec not in ("risky", "safe"):
            raise ParameterError(f"rec must be risky/safe, got {self.rec!r}")


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: states, flows, and discounted realised costs."""

    thetas: tuple[str, ...]
    flows: tuple[int, ...]
    total: float
    agent_totals: tuple[float, ...]


@dataclass(frozen=True)
class RunManifest:
    c: int
    d: int
    trials: int
    horizon: int
    seed: int
    start: str


@dataclass(frozen=True)
class RunStats:
    """Monte Carlo estimates from compliant runs of a scheme.

    total_* estimate the aggregate discounted cost (all agents, all stages),
    per_agent_* the per-agent average; tail_bound bounds what truncating the
    horizon can have cut off the aggregate estimate (divide by n for the
    per-agent version). The standard errors are None for a single trial.
    sample is the first trial's trajectory.
    """

    manifest: RunManifest
    total_mean: float
    total_se: float | None
    per_agent_mean: float
    per_agent_se: float | None
    tail_bound: float
    sample: Trajectory


def _blocks(trials: int, horizon: int) -> list[range]:
    """Consecutive trial ranges of about _BLOCK_STAGES trial-stages each."""
    rows = max(1, _BLOCK_STAGES // horizon)
    return [range(first, min(first + rows, trials)) for first in range(0, trials, rows)]


def _chains(
    params: GameParams, horizon: int, seed: int, trials: range, start: str
) -> np.ndarray:
    """Road chains of the given trials, one row each; True = low.

    Row k holds trial trials[k], drawn from row trials[k] of stream 0, so a
    row does not depend on which other trials share the call.
    """
    u = _uniforms(seed, _STREAM_CHAIN, trials, horizon)
    # the next state is low if u < 1 - gamma_l from low, u < gamma_h from high
    stay, enter = u < 1.0 - params.gamma_l, u < params.gamma_h
    lows = np.empty(u.shape, dtype=bool)
    low = np.full(len(trials), start == "low")
    for t in range(horizon):
        low = np.where(low, stay[:, t], enter[:, t])
        lows[:, t] = low
    return lows


def simulate_chain(
    params: GameParams, horizon: int, seed: int, trial: int = 0, start: str = "high"
) -> np.ndarray:
    """Simulate the road-state chain; returns a boolean array, True = low.

    Entry t (0-indexed) is the state at stage t+1. The chain starts from a
    latent pre-stage state given by start, so the first entry is already a
    transition draw (from high, it is low with probability gamma_h).
    """
    if trial < 0:
        raise ParameterError(f"trial must be nonnegative, got {trial}")
    if horizon < 1:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    if horizon > _MAX_HORIZON:
        raise ParameterError(f"horizon must be at most {_MAX_HORIZON}, got {horizon}")
    if start not in ("high", "low"):
        raise ParameterError(f"start must be 'high' or 'low', got {start!r}")
    return _chains(params, horizon, seed, range(trial, trial + 1), start)[0]


def _flows(lows: np.ndarray, c: int, d: int, start: str) -> np.ndarray:
    """Risky flow of every stage of compliant play, from the chains alone.

    One experimenter at stage one and after a high stage, c after the first
    low stage, d after two or more; start pads the states before stage one.
    """
    padded = np.empty((lows.shape[0], lows.shape[1] + 2), dtype=bool)
    padded[:, :2] = start == "low"
    padded[:, 2:] = lows
    prev, prev2 = padded[:, 1:-1], padded[:, :-2]
    flows = np.where(prev, np.where(prev2, d, c), 1)
    flows[:, 0] = 1
    return flows


def _cost_table(params: GameParams, c: int, d: int) -> np.ndarray:
    """Aggregate stage cost by the scheme's risky flows (rows) and state.

    Column 0 is the high state and column 1 the low one, so indexing with a
    flow array and an integer view of a chain prices every stage at once.
    """
    table = np.zeros((params.n + 1, 2))
    for x in {1, c, d}:
        table[x] = stage_cost(x, params.h, params), stage_cost(x, params.l, params)
    return table


def _discounted(costs: np.ndarray, weights) -> np.ndarray:
    """Row sums of weights[k] * costs[:, k], accumulated stage by stage."""
    total = np.zeros(costs.shape[0])
    for k, w in enumerate(weights):
        total += w * costs[:, k]
    return total


def _stage_agent_costs(
    risky: np.ndarray, low: bool, params: GameParams
) -> np.ndarray:
    coef = params.l if low else params.h
    x = int(risky.sum())
    costs = np.full(params.n, params.s0 + params.s1 * (params.n - x), dtype=float)
    costs[risky] = coef * x
    return costs


def _dispatch(
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
    safe agent 0 is recruited depends on u alone, as in _roles; rng draws
    the other recruits.
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


def _roles(u: np.ndarray, lows: np.ndarray, flows: np.ndarray, n: int) -> np.ndarray:
    """Agent 0's role in each stage, True = risky: _dispatch's rule over
    (trials x stages) arrays. Agent 0 is risky when it has joined since the
    last fresh stage; a safe agent 0 joins when u * (n - held) < flow - held,
    that is u < need / pool written so that a full road needs no division.
    """
    ramp = np.zeros(lows.shape, dtype=bool)
    ramp[:, 1:] = lows[:, :-1]
    held = np.zeros_like(flows)
    held[:, 1:] = flows[:, :-1]
    held[~ramp] = 0
    joins = u * (n - held) < flows - held
    stage = np.arange(lows.shape[1])
    last_join = np.maximum.accumulate(np.where(joins, stage, -1), axis=1)
    last_fresh = np.maximum.accumulate(np.where(ramp, 0, stage), axis=1)
    return last_join >= last_fresh


def _require_sim_gate(config: SimConfig, params: GameParams) -> None:
    config.scheme().validate(params)
    require_gate(params)


def _worst_stage_cost(params: GameParams) -> float:
    """Largest cost any single agent can pay in one stage."""
    return max(params.h * params.n, params.s0 + params.s1 * params.n)


def _mean(values: np.ndarray) -> float | None:
    """Sample mean; None without samples."""
    return float(values.mean()) if len(values) else None


def _se(values: np.ndarray) -> float | None:
    """Standard error of the mean; None below two samples."""
    m = len(values)
    return float(values.std(ddof=1) / np.sqrt(m)) if m > 1 else None


def _sample(config: SimConfig, params: GameParams, lows: np.ndarray) -> Trajectory:
    """Trial 0 played agent by agent through the dispatch lottery."""
    n, delta = params.n, params.delta
    u = _uniforms(config.seed, _STREAM_DISPATCH, range(1), config.horizon)[0]
    rng = np.random.default_rng((config.seed, _STREAM_RECRUITS))
    agent_totals = np.zeros(n)
    risky = None
    flows = []
    start_low = config.start == "low"
    disc = 1.0
    for t in range(1, config.horizon + 1):
        prev_low = lows[t - 2] if t >= 2 else start_low
        prev2_low = lows[t - 3] if t >= 3 else start_low
        risky = _dispatch(risky, prev_low, prev2_low, config.c, config.d, u[t - 1], rng, n)
        agent_totals += disc * _stage_agent_costs(risky, bool(lows[t - 1]), params)
        flows.append(int(risky.sum()))
        disc *= delta
    return Trajectory(
        thetas=tuple("L" if low else "H" for low in lows),
        flows=tuple(flows),
        total=float(agent_totals.sum()),
        agent_totals=tuple(float(v) for v in agent_totals),
    )


def run_scheme(config: SimConfig, params: GameParams) -> RunStats:
    """Estimate the discounted cost of compliant play under scheme (c, d).

    Every agent follows its recommendation each stage; the estimates are
    directly comparable to the closed-form aggregate cost and per-agent
    reset value when start='high'.
    """
    _require_sim_gate(config, params)
    n, delta = params.n, params.delta
    # delta^t as the stage-by-stage product that the per-agent sample uses
    disc = np.cumprod(np.r_[1.0, np.full(config.horizon - 1, delta)])
    table = _cost_table(params, config.c, config.d)
    totals = np.empty(config.trials)
    sample: Trajectory | None = None
    for block in _blocks(config.trials, config.horizon):
        lows = _chains(params, config.horizon, config.seed, block, config.start)
        flows = _flows(lows, config.c, config.d, config.start)
        costs = table[flows, lows.view(np.uint8)]
        totals[block.start:block.stop] = _discounted(costs, disc)
        if sample is None:
            sample = _sample(config, params, lows[0])
    tail = delta**config.horizon * n * _worst_stage_cost(params) / (1.0 - delta)
    total_se = _se(totals)
    return RunStats(
        manifest=RunManifest(config.c, config.d, config.trials, config.horizon,
                             config.seed, config.start),
        total_mean=float(totals.mean()),
        total_se=total_se,
        per_agent_mean=float(totals.mean() / n),
        per_agent_se=None if total_se is None else total_se / n,
        tail_bound=float(tail),
        sample=sample,
    )


# ---------------------------------------------------------------------------
# deviation rollouts

@dataclass(frozen=True)
class RolloutStats:
    """Paired follow/deviate values of the monitored agent at a trigger state.

    Values discount from the trigger stage (weight one there) over `horizon`
    stages. diff_* summarise deviate minus follow per trial (paired, common
    random numbers), so obedience at the state means diff is nonnegative up
    to sampling noise and the truncation tail. Trials whose chain never
    produces the trigger within max_wait stages are skipped; if all are, the
    state was unreachable and the means are None. The standard errors are
    None when a single trial reached the trigger.
    """

    trigger: AgentState
    n_triggered: int
    n_skipped: int
    follow_mean: float | None
    follow_se: float | None
    deviate_mean: float | None
    deviate_se: float | None
    diff_mean: float | None
    diff_se: float | None
    tail_bound: float
    horizon: int
    note: str = ""


def _triggered(
    trigger: AgentState,
    lows: np.ndarray,
    flows: np.ndarray,
    roles: np.ndarray,
    max_wait: int,
) -> np.ndarray:
    """Where agent 0 is in the trigger state; column j is stage j + 1.

    Covers stages 1 to max_wait - 1 (0-indexed): the previous stage sets
    the observed flow and tag, the stage itself the recommendation.
    """
    was, low, flow = roles[:, :max_wait - 1], lows[:, :max_wait - 1], flows[:, :max_wait - 1]
    if trigger.tag == "pooled":
        hit = ~was
    elif trigger.tag == "low":
        hit = was & low
    else:
        hit = was & ~low
    if trigger.prev_flow is not None:
        hit &= flow == trigger.prev_flow
    hit &= roles[:, 1:max_wait] == (trigger.rec == "risky")
    return hit


def deviation_rollout(
    config: SimConfig, trigger: AgentState, params: GameParams
) -> RolloutStats:
    """Value agent 0's first deviation opportunity at a trigger state.

    Each trial plays compliantly until agent 0 first finds itself in the
    trigger state (at a stage from 2 to max_wait) and then values the next
    `horizon` stages both ways. The follow arm keeps everybody compliant,
    so it needs only agent 0's role, which is replayed from stream 1 (see
    _roles) over all max_wait + horizon stages of a block; a trial whose
    trigger never comes within max_wait stages is skipped.

    The deviate arm flips agent 0's action at the trigger stage; after that
    the coordinator punishes with independent recommendations, and the
    deviant stays on the safe road for good. The gate forces s1 = 0, so the
    safe road costs s0 whatever the others do, and the deviant pays exactly
    s0 at every later stage: its value is the flipped stage's cost plus a
    discounted run of s0, whatever the punishment draws would be. Both arms
    share the chain and all dispatch draws up to the deviation.
    """
    _require_sim_gate(config, params)
    n, s0, s1, delta = params.n, params.s0, params.s1, params.delta
    length = config.max_wait + config.horizon
    weights = [delta**k for k in range(config.horizon)]
    s0_run = s0 * sum(weights[1:])

    def cost(risky: np.ndarray, low: np.ndarray, flow: np.ndarray) -> np.ndarray:
        """Agent 0's cost in stages with these risky flows."""
        return np.where(risky, np.where(low, params.l, params.h) * flow, s0 + s1 * (n - flow))

    follow_vals: list[np.ndarray] = []
    deviate_vals: list[np.ndarray] = []
    skipped = 0

    for block in _blocks(config.trials, length):
        lows = _chains(params, length, config.seed, block, config.start)
        flows = _flows(lows, config.c, config.d, config.start)
        roles = _roles(_uniforms(config.seed, _STREAM_DISPATCH, block, length),
                       lows, flows, n)
        hit = _triggered(trigger, lows, flows, roles, config.max_wait)
        found = hit.any(axis=1)
        skipped += len(block) - int(found.sum())
        rows = np.flatnonzero(found)[:, None]
        window = hit[found].argmax(axis=1)[:, None] + 1 + np.arange(config.horizon)
        low, flow, role = lows[rows, window], flows[rows, window], roles[rows, window]
        follow_vals.append(_discounted(cost(role, low, flow), weights))
        flipped = ~role[:, 0]
        first = cost(flipped, low[:, 0], flow[:, 0] + np.where(flipped, 1, -1))
        deviate_vals.append(first + s0_run)

    tail = delta**config.horizon * _worst_stage_cost(params) / (1.0 - delta)
    fol, dev = np.concatenate(follow_vals), np.concatenate(deviate_vals)
    diff = dev - fol
    return RolloutStats(
        trigger=trigger,
        n_triggered=len(fol),
        n_skipped=skipped,
        follow_mean=_mean(fol),
        follow_se=_se(fol),
        deviate_mean=_mean(dev),
        deviate_se=_se(dev),
        diff_mean=_mean(diff),
        diff_se=_se(diff),
        tail_bound=float(tail),
        horizon=config.horizon,
        note="" if len(fol) else f"trigger state never reached within {config.max_wait} stages",
    )
