"""Monte Carlo simulator for the infinite-horizon recommendation schemes.

Simulates the road-state chain, the coordinator's dispatch rules, compliant
agents, and (for deviation rollouts) a single monitored agent, agent 0, who
defects at the first visit to a chosen state and is punished forever after.
Every chain starts right after a high stage, where the closed forms price a
scheme.

Determinism: each (seed, stream) pair seeds one numpy generator, stream 0
for the road chain and 1 for agent 0's dispatch draws. A stream is read as
a matrix of uniforms with one row per trial and one column per stage, so
row k belongs to trial k and its width, hence its content, depends on the
number of stages simulated (the horizon, or max_wait + horizon in a
rollout). A call builds one generator per stream and reads it block after
block in trial order (see _draws), so results do not depend on how trials
are grouped, and a deviation rollout shares the chain and dispatch draws of
its compliant twin until the moment of deviation (common random numbers).

Work is vectorised over trials. Trials run in blocks of about _BLOCK_STAGES
trial-stages, which bounds the working memory whatever the trial count.
Two running maxima over uint8 stage marks, counted afresh in each span of
_SPAN stages, carry the state from stage to stage, with no stage loop (see
_last_set_is_odd): the road chain (see _chains; it needs gamma_h <= 1 -
gamma_l, which the gate's bound of 1/2 on both switch rates implies) and
agent 0's role. Under a scheme the risky flow is a function of the chain
alone (one experimenter at stage one and after a high stage, c after the
first low stage, d after two or more), so each stage gets a small code,
2 * ramp + low (see _stage_codes), and the aggregate cost is a lookup in a
table of six stage costs, with no dispatch lottery. Agent 0's role is a small Markov chain driven by one stream-1
uniform per stage: in a fresh stage (stage one, or after a high stage) it
is the experimenter when u < 1/n; during the ramp a risky agent stays risky
and a safe one is recruited when u < need/(n - prev_flow), tested as u
below an exact bound per stage code (see _join_bounds). The tests check
these shortcuts against stage-by-stage loops: the chain stepped one stage
at a time, and the dispatch lottery played agent by agent from the same
uniforms. A rollout's deviate arm needs no draws after the deviation: the
gate forces s1 = 0, so once the deviant hides on the safe road it pays
exactly s0 per stage, whatever the punishment regime recommends to the
others. Each trial's discounted sum is added stage by stage, in stage
order, so its bits do not depend on the block's shape.

truncated_value gives the exact expectation of run_scheme's estimate from
the distribution of the last two road states, without drawing anything.

Horizons are finite, so every estimate carries an explicit truncation bound:
discounting delta^T of the worst possible stage cost, summed to infinity.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import (
    AssumptionError,
    GameParams,
    ParameterError,
    _div,
    _require_integer,
    stage_cost,
)
from .infinite import InfiniteScheme, require_gate

_STREAM_CHAIN = 0
_STREAM_DISPATCH = 1

# Trial-stages simulated at once: bounds the arrays of one block, whatever
# the trial count. A SimConfig takes up to _MAX_TRIALS = 10**6 trials: 977
# blocks of 1,024 trials at the default horizon of 16.
_BLOCK_STAGES = 16384

# Largest simulation a SimConfig accepts: 100 times the CLI's default trial
# count (8 MB of per-trial totals), and horizons and trigger waits far past
# any discount's truncation tail of interest.
_MAX_TRIALS = 1_000_000
_MAX_HORIZON = 10_000
_MAX_WAIT = 10_000

# Stage marks (see _last_set_is_odd) are uint8, counted afresh in each span
# of _SPAN stages: the largest, 2 * _SPAN + 1 = 255, fits. _STAGE_MARKS holds
# 2t for the t-th stage (from one) of its span, over the widest simulation.
_SPAN = 127
assert 2 * _SPAN + 1 <= np.iinfo(np.uint8).max
_STAGE_MARKS = (2 + 2 * (np.arange(_MAX_WAIT + _MAX_HORIZON) % _SPAN)).astype(np.uint8)


def _draws(seed: int, stream: int, blocks: list[range], width: int) -> Iterator[np.ndarray]:
    """Each block's rows of the stream's uniform matrix, width columns wide.

    One generator per call: it is advanced once to the first block's first
    row (one uniform is one 64-bit draw) and then read block after block, so
    the blocks must be consecutive trials in increasing order, as _blocks
    makes them. Callers hand each block's uniforms straight to the one
    function that reads them, so they are freed before the block's next
    large array is made. That keeps a block's peak heap small: a larger one
    can let glibc give the freed top of the heap back to the system after
    each block and take page faults to grow it again in the next.
    """
    rng = np.random.default_rng((seed, stream))
    if blocks[0].start:
        rng.bit_generator.advance(blocks[0].start * width)
    for block in blocks:
        yield rng.random((len(block), width))


@dataclass(frozen=True)
class SimConfig:
    """Knobs shared by run_scheme and deviation_rollout.

    horizon is the number of simulated (and, in rollouts, valued) stages,
    counted from a latent high state before stage one. max_wait bounds how
    long a rollout waits for its trigger state before skipping the trial.
    """

    c: int
    d: int
    trials: int = 10_000
    horizon: int = 16
    seed: int = 0
    max_wait: int = 256

    def __post_init__(self) -> None:
        for name in ("c", "d", "trials", "horizon", "max_wait", "seed"):
            # a numpy integer as a Python int, so no size arithmetic wraps
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
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
        if self.prev_flow is not None:
            object.__setattr__(self, "prev_flow", _require_integer("prev_flow", self.prev_flow))
        if self.tag not in ("low", "high", "pooled"):
            raise ParameterError(f"tag must be low/high/pooled, got {self.tag!r}")
        if self.rec not in ("risky", "safe"):
            raise ParameterError(f"rec must be risky/safe, got {self.rec!r}")

    def validate(self, params: GameParams) -> "AgentState":
        """Refuse a flow no stage can show: every risky flow is in 1..n."""
        if self.prev_flow is not None and not 1 <= self.prev_flow <= params.n:
            raise ParameterError(f"trigger flow must be in 1..{params.n} or 'any', "
                                 f"got {self.prev_flow}")
        return self


@dataclass(frozen=True)
class RunStats:
    """Monte Carlo estimates from compliant runs of a scheme.

    total_* estimate the aggregate discounted cost (all agents, all stages),
    per_agent_* the per-agent average; tail_bound bounds what truncating the
    horizon can have cut off the aggregate estimate (divide by n for the
    per-agent version). The standard errors are None for a single trial.
    The run's settings are the SimConfig's.
    """

    total_mean: float
    total_se: float | None
    per_agent_mean: float
    per_agent_se: float | None
    tail_bound: float


def _blocks(trials: int, horizon: int) -> list[range]:
    """Consecutive trial ranges of about _BLOCK_STAGES trial-stages each."""
    rows = max(1, _BLOCK_STAGES // horizon)
    return [range(first, min(first + rows, trials)) for first in range(0, trials, rows)]


def _last_set_is_odd(sets: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Per stage of each row: was the last stage up to it where sets holds
    also one where odd holds? False before the first such stage.

    The stages fall into spans of _SPAN. Stage t (counted from one) of a span
    is marked 2t + odd where sets holds and 0 elsewhere; the running maximum
    of the marks is the last marked stage, and it is odd exactly when that
    stage's odd held. The spans are scanned in place, one after the other.
    Each span's last maximum is then cut to its parity, 0 or 1, below every
    mark (2..255), and the next span's scan starts from that column, so the
    answer carries over into a span until its first marked stage. One pass
    over uint8 marks per span, no stage loop.
    """
    width = sets.shape[1]
    marks = np.add(_STAGE_MARKS[:width], odd, dtype=np.uint8)
    marks *= sets
    for start in range(0, width, _SPAN):
        span = marks[:, max(start - 1, 0):start + _SPAN]
        np.maximum.accumulate(span, axis=1, out=span)
        span[:, -1] &= 1
    marks &= 1
    return marks.view(bool)


def _chains(params: GameParams, u: np.ndarray) -> np.ndarray:
    """Road chains driven by stream-0 uniforms u, one row each; True = low.

    Entry t of a row is the state at stage t + 1, so the first entry is
    already a transition draw from the latent high state before stage one.

    Needs gamma_h <= 1 - gamma_l, which the gate's switch-rate bound
    implies: then a uniform below gamma_h sends the road low from either
    state, one at or above 1 - gamma_l sends it high, and any other keeps
    the state. So a stage is low exactly when the last draw up to it that
    set the state set it low (high before any, as before stage one).
    """
    high_at = 1.0 - params.gamma_l
    if params.gamma_h > high_at:
        raise AssumptionError(
            f"chain needs gamma_h <= 1 - gamma_l, got gamma_h={params.gamma_h}, "
            f"gamma_l={params.gamma_l}"
        )
    low = u < params.gamma_h
    return _last_set_is_odd(low | (u >= high_at), low)


def _stage_codes(lows: np.ndarray, depth: int) -> np.ndarray:
    """2 * ramp + low for every stage of the chains lows, as uint8.

    ramp counts the low stages in a row just before the stage, up to depth;
    the states before stage one are high. At depth 2 it names the scheme's
    risky flow: 1 at ramp 0 (stage one and after a high stage), c at ramp
    1, d at ramp 2. Depth 3 also tells the flow held over into the stage:
    c at ramp 2, d at ramp 3.
    """
    padded = np.zeros((lows.shape[0], lows.shape[1] + depth), dtype=np.uint8)
    padded[:, depth:] = lows
    run = padded[:, depth - 1:-1].copy()
    ramp = run.copy()
    for back in range(2, depth + 1):
        run &= padded[:, depth - back:-back]
        ramp += run
    return ramp + ramp + lows


def _cost_table(params: GameParams, c: int, d: int) -> np.ndarray:
    """Aggregate stage cost by the depth-2 stage code of _stage_codes.

    Entry 2k + low is the cost of the scheme's k-th flow (1, c, d) in the
    high (low = 0) or low (low = 1) state.
    """
    table = np.empty(6)
    for k, x in enumerate((1, c, d)):
        table[2 * k:2 * k + 2] = stage_cost(x, params.h, params), stage_cost(x, params.l, params)
    return table


def _discounted(costs: np.ndarray, weights) -> np.ndarray:
    """Column sums of weights[k] * costs[k] over stage-major costs, added
    stage by stage."""
    total = np.zeros(costs.shape[1])
    for k, w in enumerate(weights):
        total += w * costs[k]
    return total


def _join_below(pool: int, need: int) -> float:
    """The float a uniform u must stay below for u * pool < need.

    Rounding a product is monotone in u, so the test holds on [0, b) for the
    least float b with b * pool >= need, which this finds from need / pool
    by stepping one float at a time; b = 0 when need = 0, as at a full road.
    """
    b = _div(need, pool, 0.0)
    while b > 0.0 and np.nextafter(b, 0.0) * pool >= need:
        b = float(np.nextafter(b, 0.0))
    while b * pool < need:
        b = float(np.nextafter(b, np.inf))
    return b


def _join_bounds(n: int, c: int, d: int) -> np.ndarray:
    """Per depth-3 stage code: below what uniform a safe agent 0 joins.

    It joins when u * (n - held) < flow - held, the u < need / pool of the
    dispatch lottery written so that a full road needs no division; held is
    the risky flow kept from the stage before, 0 at ramp 0.
    """
    flows, held = (1, c, d, d), (0, 1, c, d)
    return np.array([_join_below(n - held[code >> 1], flows[code >> 1] - held[code >> 1])
                     for code in range(8)])


def _roles(u: np.ndarray, codes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Agent 0's role in each stage, True = risky, over (trials x stages)
    arrays: its stream-1 uniforms u and the depth-3 stage codes.

    A safe agent 0 joins when u is below its stage code's bound (see
    _join_bounds); ramp 0 starts the stage afresh. Agent 0 is risky when its
    last join comes no earlier than the last fresh stage, and stage one is
    always fresh.
    """
    joins = u < np.take(bounds, codes)
    return _last_set_is_odd(joins | (codes < 2), joins)


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


def _discounts(delta: float, horizon: int) -> np.ndarray:
    """delta^t for t = 0..horizon - 1, as a stage-by-stage product."""
    return np.cumprod(np.r_[1.0, np.full(horizon - 1, delta)])


def run_scheme(config: SimConfig, params: GameParams) -> RunStats:
    """Estimate the discounted cost of compliant play under scheme (c, d).

    Every agent follows its recommendation each stage; the estimates are
    directly comparable to the closed-form aggregate cost and per-agent
    reset value.
    """
    _require_sim_gate(config, params)
    n, delta = params.n, params.delta
    disc = _discounts(delta, config.horizon)
    table = _cost_table(params, config.c, config.d)
    totals = np.empty(config.trials)
    blocks = _blocks(config.trials, config.horizon)
    draws = _draws(config.seed, _STREAM_CHAIN, blocks, config.horizon)
    for block in blocks:
        codes = _stage_codes(_chains(params, next(draws)), 2)
        # priced stage-major, so each stage of the discounted sum is a row
        totals[block.start:block.stop] = _discounted(np.take(table, codes.T), disc)
    tail = delta**config.horizon * n * _worst_stage_cost(params) / (1.0 - delta)
    total_se = _se(totals)
    return RunStats(
        total_mean=float(totals.mean()),
        total_se=total_se,
        per_agent_mean=float(totals.mean() / n),
        per_agent_se=None if total_se is None else total_se / n,
        tail_bound=float(tail),
    )


def truncated_value(config: SimConfig, params: GameParams) -> float:
    """The exact expectation of run_scheme's total_mean under config.

    Walks the distribution of (low at t - 2, low at t - 1) over the
    config's horizon stages, from the high states before stage one, and
    prices each stage with the simulator's own stage costs and discounts.
    It reads no closed form, so at a long horizon it checks scheme_cost
    through realised road states; the trial count and seed play no part.
    """
    _require_sim_gate(config, params)
    table = _cost_table(params, config.c, config.d)
    # the road's next state: to_low[prev] is the chance it is low
    to_low = (params.gamma_h, 1.0 - params.gamma_l)
    # expected cost of a stage after (prev2, prev), over its own state
    expected = [[(1.0 - to_low[prev]) * table[2 * (prev + prev2 * prev)]
                 + to_low[prev] * table[2 * (prev + prev2 * prev) + 1]
                 for prev in (0, 1)] for prev2 in (0, 1)]
    chance = [[1.0, 0.0], [0.0, 0.0]]  # of (prev2, prev); both high before stage one
    total = 0.0
    for weight in _discounts(params.delta, config.horizon):
        total += weight * sum(chance[a][b] * expected[a][b] for a in (0, 1) for b in (0, 1))
        last = (chance[0][0] + chance[1][0], chance[0][1] + chance[1][1])
        chance = [[last[a] * (1.0 - to_low[a]), last[a] * to_low[a]] for a in (0, 1)]
    return float(total)


# ---------------------------------------------------------------------------
# deviation rollouts

@dataclass(frozen=True)
class RolloutStats:
    """Paired follow/deviate values of the monitored agent at a trigger state.

    Values discount from the trigger stage (weight one there) over the
    SimConfig's horizon stages. diff_* summarise deviate minus follow per
    trial (paired, common random numbers), so obedience at the state means
    diff is nonnegative up to sampling noise and the truncation tail. Trials
    whose chain never produces the trigger within max_wait stages are
    skipped; if all are, the state was unreachable and the means are None.
    The standard errors are None when a single trial reached the trigger.
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
    note: str = ""


def _triggered(
    trigger: AgentState,
    lows: np.ndarray,
    codes: np.ndarray,
    roles: np.ndarray,
    max_wait: int,
    flows: np.ndarray,
) -> np.ndarray:
    """Where agent 0 is in the trigger state; column j is stage j + 1.

    Covers stages 1 to max_wait - 1 (0-indexed): the previous stage sets
    the observed flow and tag, the stage itself the recommendation. flows
    is the risky flow of each depth-3 stage code.
    """
    was, low = roles[:, :max_wait - 1], lows[:, :max_wait - 1]
    if trigger.tag == "pooled":
        hit = ~was
    elif trigger.tag == "low":
        hit = was & low
    else:
        hit = was & ~low
    if trigger.prev_flow is not None:
        # flows never fall along the codes, so one flow's codes form a range
        first, stop = (int(np.searchsorted(flows, trigger.prev_flow, side=side))
                       for side in ("left", "right"))
        seen = codes[:, :max_wait - 1]
        hit &= (seen >= first) & (seen < stop)
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
    trigger.validate(params)
    n, delta, c, d = params.n, params.delta, config.c, config.d
    s0 = float(params.s0)  # so the cost arrays are float whatever the input types
    length = config.max_wait + config.horizon
    weights = [delta**k for k in range(config.horizon)]
    s0_run = s0 * sum(weights[1:])
    discount = np.array(weights)

    def cost(risky: np.ndarray, low: np.ndarray, flow: np.ndarray) -> np.ndarray:
        """Agent 0's cost in stages with these risky flows; the safe road costs s0."""
        return np.where(risky, np.where(low, params.l, params.h) * flow, s0)

    # agent 0's cost by depth-3 stage code, plus 8 where it is risky
    code = np.arange(8)
    low, flows = code % 2 == 1, np.array([1, c, d, d], dtype=np.int32)[code >> 1]
    follow_cost = np.concatenate([cost(False, low, flows), cost(True, low, flows)])
    # the flipped action: a safe agent 0 joins the flow, a risky one leaves it
    first_cost = np.concatenate([cost(True, low, flows + 1), cost(False, low, flows - 1)])
    bounds = _join_bounds(n, c, d)
    follow_vals: list[np.ndarray] = []
    deviate_vals: list[np.ndarray] = []
    skipped = 0

    blocks = _blocks(config.trials, length)
    chain_draws = _draws(config.seed, _STREAM_CHAIN, blocks, length)
    dispatch_draws = _draws(config.seed, _STREAM_DISPATCH, blocks, length)
    for block in blocks:
        lows = _chains(params, next(chain_draws))
        codes = _stage_codes(lows, 3)
        roles = _roles(next(dispatch_draws), codes, bounds)
        hit = _triggered(trigger, lows, codes, roles, config.max_wait, flows)
        found = hit.any(axis=1)
        skipped += len(block) - int(found.sum())
        # flat indices of each triggered trial's horizon stages from its trigger
        first = np.flatnonzero(found) * length + hit[found].argmax(axis=1) + 1
        window = first[:, None] + np.arange(config.horizon)
        agent = np.take(codes, window) + 8 * np.take(roles, window)
        # summed stage by stage along each row
        follow_vals.append(np.add.accumulate(discount * np.take(follow_cost, agent),
                                             axis=1)[:, -1])
        deviate_vals.append(np.take(first_cost, agent[:, 0]) + s0_run)

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
        note="" if len(fol) else f"trigger state never reached within {config.max_wait} stages",
    )
