"""Infinite-horizon recommendation schemes for the two-road Markov game.

The coordinator observes reports from risky-road users, so after any stage
with at least one risky user it knows yesterday's state. The scheme family
analysed here keeps one experimenter on the risky road after a high
observation and ramps the flow up after low observations: flow c on the
first low stage after a high, flow d from the second consecutive low on
(1 < c <= d <= n). Risky incumbents keep their risky recommendation while
the road stays low; recruits are drawn uniformly from the safe pool; after
a high observation the single experimenter is drawn uniformly from everyone.
Disobedience is punished forever with independent recommendations calibrated
so every agent expects the safe cost s0 each stage.

The module computes the per-agent value of compliance state by state (closed
form and, as an independent oracle, a linear solve of one agent's Markov
chain built from the dispatch rule; oracle_checks compares the two over
every scheme), the obedience (incentive-compatibility) report, the cheapest
obedient scheme, and the delta sweep showing when the relaxed social optimum
itself becomes obedient.

Each closed form is written once, as a private core (_posteriors,
_scheme_cost, _state_table, _ic_terms, _fc_gd, _first_obedient)
that does the arithmetic and checks no argument. The model primitives it
calls check nothing either (model._stage_cost, mu_low and mu_high); only
the myopic flows, which low_flows computes once per game, still check
their coefficient. The cores take c and d as ints or as integer arrays,
and every core whose value moves with the discount takes it as an
explicit argument: a float or an array that broadcasts against c and d.
Each operation has one public entry point, which checks c and d and runs
the gate, then calls only cores. The passing
gate (require_gate) and the low-state flows x_so and x_eq that bound the
ramp (low_flows) are remembered per GameParams object (model._per_game), so
the calls on one game compute them once and no core takes them. The search
and the x_ll scan evaluate the cores over arrays of candidate flows (a
state that cannot occur reads NaN), and the delta sweep over all of its
in-gate discounts at once. _ic_terms yields the binding steady term
(safe_at_d_pooled) sixth, after five terms that only read the table, and
forms the other posteriors after it, so the x_ll scan and the steady slack
pay for that term alone. The search's candidates are the pairs of the flow
box x_so <= c <= d <= x_eq, the only ones that can be obedient, which it
tests and prices in blocks. Its first block is widened to hold the x_so
row (x_so, x_so..x_eq), which holds pi_star's report and whose steady
terms give x_ll, pi_star and pi_tilde_star by _first_obedient_flow, the
rule compute_x_ll also applies, through _first_obedient, for callers that
want x_ll alone. Two ints, numpy integers included, are the 0-d case of the
same code and give Python numbers (None for a state that cannot occur). The
chain oracle, state_costs_linear, takes the same arguments; its core
_chain_table solves each block of schemes' 6-state chains in one stacked
call, and oracle_checks runs it and the cores on the same blocks of
_SEARCH_BLOCK_PAIRS schemes. check_ic, which builds a report, takes ints
only. It, the search and the x_ll scan decide obedience by
model.ic_entries and model.all_obedient.

State mnemonics follow the recommendation histories: an agent is described
by what it observed last stage (the realised risky flow; the road state if
it was on the risky road, else "pooled" uncertainty) and the recommendation
it just received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import (
    AssumptionError,
    GameParams,
    ICEntry,
    InternalError,
    ParameterError,
    _all,
    _div,
    _infinite_gate,
    _per_game,
    _require_discount,
    _require_integer,
    _stage_cost,
    all_obedient,
    check_assumption_infinite,
    ic_entries,
    mu_high,
    mu_low,
    myopic_eq_flow,
    myopic_so_flow,
)


@_per_game
def require_gate(params: GameParams) -> None:
    """Raise AssumptionError naming every failed infinite-horizon assumption;
    a pass is remembered per GameParams object (model._per_game)."""
    gate = check_assumption_infinite(params)
    if not gate.passed:
        raise AssumptionError("infinite-horizon gate fails: " + "; ".join(gate.failures))


def _require_cd(c, d, params: GameParams):
    """c and d once checked, numpy integers as Python ints."""
    c, d = _require_integer("c", c, arrays=True), _require_integer("d", d, arrays=True)
    if not _all((1 < c) & (c <= d) & (d <= params.n)):
        raise ParameterError(
            f"scheme flows must satisfy 1 < c <= d <= n={params.n}, got c={c}, d={d}"
        )
    return c, d


def scheme_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every scheme 1 < c <= d <= n as two integer arrays, in (c, d) order."""
    c, d = np.triu_indices(n - 1)
    return c + 2, d + 2


def _python(value):
    """A scalar as a Python number, None for NaN (a state that cannot occur);
    arrays pass through."""
    if isinstance(value, (np.ndarray, np.generic)):
        if value.ndim:
            return value
        value = value.item()
    return None if value != value else value  # only NaN is unequal to itself


def _to_python(record):
    """The record with every field passed through _python."""
    return type(record)(**{name: _python(value) for name, value in vars(record).items()})


@dataclass(frozen=True)
class InfiniteScheme:
    """Flows of a ramp-up recommendation scheme: one experimenter after a
    high observation, c on the first low stage, d on the steady low run."""

    c: int
    d: int

    def validate(self, params: GameParams) -> "InfiniteScheme":
        _require_cd(self.c, self.d, params)
        return self


@dataclass(frozen=True)
class Posteriors:
    """P(road was low last stage | what an uninformed safe agent sees).

    Conditioning is on the previously observed risky flow (d, c or 1) and on
    the recommendation just received. Degenerate cases (a conditioning event
    of probability zero, e.g. recruitment recommendations when c = d) return
    the limiting value and the corresponding scheme state is unreachable.
    """

    low_given_d_safe: float
    low_given_c_safe: float
    low_given_1_safe: float
    low_given_c_risky: float
    low_given_1_risky: float


def posteriors(c: int, d: int, params: GameParams) -> Posteriors:
    """Bayesian posteriors of an uninformed safe agent under scheme (c, d)."""
    c, d = _require_cd(c, d, params)
    return _to_python(_posteriors(c, d, params))


def _posteriors(c, d, params: GameParams) -> Posteriors:
    """posteriors for checked flows. No posterior depends on the discount."""
    n, gl, gh = params.n, params.gamma_l, params.gamma_h
    # Likelihood of receiving r_S (or r_R) by last state, given last flow.
    # Low keeps incumbents and recruits uniformly; high redraws one
    # experimenter among everyone, so a given agent draws r_R with chance 1/n.
    # c = n leaves nobody to recruit: both c-flow likelihoods, and with them
    # their posteriors, are 0.
    return Posteriors(
        low_given_d_safe=_low_given_d_safe(params),
        low_given_c_safe=_posterior(_div((1.0 - gl) * (n - d), n - c, 0.0), gl * (n - 1) / n),
        low_given_1_safe=_posterior(gh * (n - c) / (n - 1), (1.0 - gh) * (n - 1) / n),
        low_given_c_risky=_posterior(_div((1.0 - gl) * (d - c), n - c, 0.0), gl / n),
        low_given_1_risky=_posterior(gh * (c - 1) / (n - 1), (1.0 - gh) / n),
    )


def _posterior(low, high, limit=0.0):
    """Bayes from the likelihoods of what the agent saw, by last state."""
    return _div(low, low + high, limit)


def _low_given_d_safe(params: GameParams) -> float:
    """The posterior low_given_d_safe, a scalar: after a d flow a low stage
    keeps every safe agent safe, so it depends on neither flow."""
    n, gl = params.n, params.gamma_l
    return _posterior(1.0 - gl, gl * (n - 1) / n, limit=1.0)


def _discounting(params: GameParams, dl) -> tuple:
    """stay_low = 1 - delta*(1 - gamma_l) and the reset value's cycle weight
    tau_tilde, at discount dl (a float or an array)."""
    gl, gh = params.gamma_l, params.gamma_h
    stay_low = 1.0 - dl * (1.0 - gl)
    return stay_low, stay_low / ((1.0 - dl) * (1.0 - dl * (1.0 - gh - gl)))


def scheme_cost(c: int, d: int, params: GameParams) -> float:
    """Aggregate expected discounted cost of scheme (c, d) from a high start.

    The chain's costs decompose into excursions that start whenever the
    coordinator learns the road turned high; tau_tilde weighs one
    excursion's cost. The first stage after the reset is undiscounted.
    """
    c, d = _require_cd(c, d, params)
    require_gate(params)
    return _scheme_cost(c, d, params, params.delta)


def _scheme_cost(c, d, params: GameParams, dl):
    """scheme_cost for checked flows at discount dl."""
    gl, gh = params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)
    stay_low, tau_tilde = _discounting(params, dl)
    return tau_tilde * (
        _stage_cost(1, mh, params)
        + dl * gh * _stage_cost(c, ml, params)
        + dl * dl * (1.0 - gl) / stay_low * gh * _stage_cost(d, ml, params)
    )


def v_bar(c: int, d: int, params: GameParams) -> float:
    """Per-agent expected discounted cost right after a high observation.

    This is the natural "reset" value of the scheme: the aggregate cost
    shared by the n agents.
    """
    return scheme_cost(c, d, params) / params.n


def _mix(p, low, high):
    """Expected value of a state that is low with probability p."""
    return p * low + (1.0 - p) * high


@dataclass(frozen=True)
class StateCostTable:
    """Expected discounted cost-to-go of a compliant agent, by state: the 11
    states the recursion solves.

    A state bundles what the agent saw last stage and the recommendation it
    just received. "at_d/at_c/at_1" is the risky flow it observed; "low"
    means the road was low; "after_high" means the coordinator just saw the
    high state. avg_at_* are pre-recommendation averages over the
    recruitment lottery faced by a safe agent at a low transition. An agent
    on the safe road only knows the flow: its "pooled" values are posterior
    mixtures of a low and a high state of this table, formed in _ic_terms.
    Fields are None (NaN in an array call) when the state cannot occur
    (c = n leaves nobody on the safe road to recruit later).
    """

    post_high_avg: float
    risky_at_d_low: float
    safe_at_d_low: float
    risky_at_c_low: float
    safe_at_c_low: float
    risky_at_1_low: float
    safe_at_1_low: float | None
    avg_at_1_low: float
    avg_at_c_low: float | None
    risky_after_high: float
    safe_after_high: float


def state_costs(c: int, d: int, params: GameParams) -> StateCostTable:
    """Closed-form compliance values for every scheme state.

    Solves the recursions analytically: the reset value first, then the
    absorbing low-run states, then everything that feeds the high states.
    A consistency identity ties the high states back to the reset value and
    is checked to 1e-9; failure means a formula regression, not bad input.
    """
    c, d = _require_cd(c, d, params)
    require_gate(params)
    return _to_python(_state_table(c, d, params, params.delta))


def _state_table(c, d, params: GameParams, dl) -> StateCostTable:
    """state_costs for checked flows at discount dl, NaN where a state cannot
    occur; raises InternalError when the consistency identity breaks."""
    n, s0 = params.n, params.s0
    gl, gh = params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)
    stay_low, _ = _discounting(params, dl)
    vb = _scheme_cost(c, d, params, dl) / n

    risky_at_d_low = (ml * d + dl * gl * vb) / stay_low
    safe_at_d_low = (s0 + dl * gl * vb) / stay_low
    # One low stage earlier the flow is about to step c -> d (or stay at d);
    # the recursion is the same, so the c-states equal the d-states.
    risky_at_c_low = ml * d + dl * ((1.0 - gl) * risky_at_d_low + gl * vb)
    safe_at_c_low = s0 + dl * ((1.0 - gl) * safe_at_d_low + gl * vb)
    risky_at_1_low = ml * c + dl * ((1.0 - gl) * risky_at_c_low + gl * vb)
    # c = n leaves no safe agent after a low report: those states read NaN.
    avg_at_c_low = _div((d - c) * risky_at_c_low + (n - d) * safe_at_c_low, n - c)
    safe_at_1_low = s0 + dl * ((1.0 - gl) * avg_at_c_low + gl * vb)
    avg_at_1_low = np.where(
        c < n,
        ((c - 1) * risky_at_1_low + (n - c) * safe_at_1_low) / (n - 1),
        risky_at_1_low,
    )
    safe_after_high = s0 + dl * (gh * avg_at_1_low + (1.0 - gh) * vb)
    risky_after_high = mh + dl * (gh * risky_at_1_low + (1.0 - gh) * vb)

    gap = np.abs(risky_after_high / n + safe_after_high * (n - 1) / n - vb)
    if (gap > 1e-9 * np.abs(vb)).any():
        raise InternalError(
            f"state-cost consistency identity broke: gap {np.max(gap):.6g} from the reset value"
        )

    return StateCostTable(
        post_high_avg=vb,
        risky_at_d_low=risky_at_d_low,
        safe_at_d_low=safe_at_d_low,
        risky_at_c_low=risky_at_c_low,
        safe_at_c_low=safe_at_c_low,
        risky_at_1_low=risky_at_1_low,
        safe_at_1_low=safe_at_1_low,
        avg_at_1_low=avg_at_1_low,
        avg_at_c_low=avg_at_c_low,
        risky_after_high=risky_after_high,
        safe_after_high=safe_after_high,
    )


def state_costs_linear(c: int, d: int, params: GameParams) -> StateCostTable:
    """Compliance values from one agent's dispatch chain (oracle for
    state_costs); shares nothing with the closed forms but the stage inputs.

    c and d are ints or integer arrays that broadcast together, like
    state_costs; two ints give Python numbers (None for a state that cannot
    occur, NaN in an array call). An array call stacks the 6 x 6 systems of
    _SEARCH_BLOCK_PAIRS schemes at a time, so beyond its result its memory
    does not grow with the number of schemes.
    """
    c, d = _require_cd(c, d, params)
    require_gate(params)
    c, d = np.broadcast_arrays(c, d)
    shape, c, d = c.shape, c.ravel(), d.ravel()
    out = {name: np.empty(len(c)) for name in StateCostTable.__dataclass_fields__}
    for start in range(0, len(c), _SEARCH_BLOCK_PAIRS):
        block = slice(start, start + _SEARCH_BLOCK_PAIRS)
        for name, value in vars(_chain_table(c[block], d[block], params)).items():
            out[name][block] = value
    return _to_python(StateCostTable(**{name: v.reshape(shape) for name, v in out.items()}))


def _chain_table(c: np.ndarray, d: np.ndarray, params: GameParams) -> StateCostTable:
    """state_costs_linear for checked 1-D flows in a game whose gate passed,
    NaN for the two states c = n rules out.

    The six states are the stage's phase (fresh at flow 1 after a high
    report, ramp at c after one low, steady at d after two or more) and the
    agent's role (risky or safe). A stage that ends high starts a fresh one,
    whose experimenter is drawn from everyone; one that ends low moves the
    phase on, recruiting a safe agent with chance (c - 1)/(n - 1) into the
    ramp and (d - c)/(n - c) into the steady run. The values solve
    v = r + delta*P v, r the expected stage cost. LAPACK factors each
    scheme's system on its own, so no value depends on the rest of the call.
    """
    n, s0, dl = params.n, params.s0, params.delta
    gl, gh = params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)
    recruit_ramp = (c - 1) / (n - 1)
    recruit_steady = _div(d - c, n - c, 0.0)
    # P by (scheme, phase, role, next phase, next role), with the phases
    # fresh, ramp and steady and the roles risky and safe; then I - delta*P.
    a = np.zeros((len(c), 3, 2, 3, 2))
    fresh_roles = np.array([1.0 / n, (n - 1) / n])
    a[:, 0, :, 0] = (1.0 - gh) * fresh_roles
    a[:, 1:, :, 0] = gl * fresh_roles
    a[:, 0, 0, 1, 0] = gh
    a[:, 0, 1, 1] = gh * np.column_stack((recruit_ramp, 1.0 - recruit_ramp))
    a[:, 1:, 0, 2, 0] = 1.0 - gl
    a[:, 1, 1, 2] = (1.0 - gl) * np.column_stack((recruit_steady, 1.0 - recruit_steady))
    a[:, 2, 1, 2, 1] = 1.0 - gl
    a = a.reshape(len(c), 6, 6)
    a *= -dl
    a[:, range(6), range(6)] += 1.0
    r = np.zeros((len(c), 6, 1))
    r[:, 0, 0], r[:, 2, 0], r[:, 4, 0] = mh, ml * c, ml * d
    r[:, 1::2, 0] = s0
    fresh_risky, fresh_safe, ramp_risky, ramp_safe, steady_risky, steady_safe = (
        np.linalg.solve(a, r)[:, :, 0].T)
    full = c == n  # nobody is left on the safe road to recruit
    ramp_safe[full] = np.nan
    return StateCostTable(
        post_high_avg=fresh_risky / n + fresh_safe * (n - 1) / n,
        risky_at_d_low=steady_risky,
        safe_at_d_low=steady_safe,
        risky_at_c_low=steady_risky,
        safe_at_c_low=steady_safe,
        risky_at_1_low=ramp_risky,
        safe_at_1_low=ramp_safe,
        avg_at_1_low=np.where(full, ramp_risky, _mix(recruit_ramp, ramp_risky, ramp_safe)),
        avg_at_c_low=np.where(full, np.nan, _mix(recruit_steady, steady_risky, steady_safe)),
        risky_after_high=fresh_risky,
        safe_after_high=fresh_safe,
    )


# ---------------------------------------------------------------------------
# obedience

@dataclass(frozen=True)
class ICReport:
    """Obedience report for scheme (c, d), one model.ICEntry per constraint.

    Defecting once triggers the permanent punishment regime, whose per-stage
    expected cost is s0, so every deviation value ends in delta*s0/(1-delta).
    """

    c: int
    d: int
    verdict: bool
    pre_flow_range: bool
    pre_ramp_cheaper: bool
    pre_steady_obedient: bool
    entries: tuple[ICEntry, ...]
    warnings: tuple[str, ...] = ()

    def entry(self, state: str) -> ICEntry:
        for item in self.entries:
            if item.state == state:
                return item
        raise KeyError(state)


def _ic_terms(c, d, params: GameParams, dl, table: StateCostTable) -> Iterator[tuple]:
    """Yield (state, follow, deviate, vacuous) for the 11 obedience constraints.

    table is _state_table(c, d, params, dl), NaN where a state cannot occur.
    An agent on the safe road saw only the risky flow, so each of its six
    "pooled" follow values is the posterior mixture of a low and a high state
    of the table; they are formed here and nowhere else. States that cannot
    occur (d = n leaves no safe agent to observe a d flow, similarly c = n)
    are vacuous. The other posteriors and mixtures are formed after the
    steady term's yield, so a caller that reads only that term (_steady_term)
    pays for none of them.
    """
    n, s0 = params.n, params.s0
    ml, mh = mu_low(params), mu_high(params)
    punish = s0 / (1.0 - dl)
    punish_tail = dl * s0 / (1.0 - dl)
    safe_high, risky_high = table.safe_after_high, table.risky_after_high

    def jump(p, flow):
        # A pooled agent told to stay safe joins the risky road instead.
        return p * ml * (flow + 1) + (1.0 - p) * 2.0 * mh + punish_tail

    yield "risky_at_d_low", table.risky_at_d_low, punish, False
    yield "risky_at_c_low", table.risky_at_c_low, punish, False
    yield "risky_at_1_low", table.risky_at_1_low, punish, False
    yield "safe_after_high", safe_high, 2.0 * mh + punish_tail, False
    yield "risky_after_high", risky_high, punish, False
    p_d = _low_given_d_safe(params)
    yield ("safe_at_d_pooled", _mix(p_d, table.safe_at_d_low, safe_high), jump(p_d, d),
           d == n)
    post = _posteriors(c, d, params)
    safe_at_c = _mix(post.low_given_c_safe, table.safe_at_c_low, safe_high)
    # c = n: the low branch never sends a safe recommendation.
    safe_at_1 = np.where(c < n, _mix(post.low_given_1_safe, table.safe_at_1_low, safe_high),
                         safe_high)
    risky_at_c = _mix(post.low_given_c_risky, table.risky_at_c_low, risky_high)
    risky_at_1 = _mix(post.low_given_1_risky, table.risky_at_1_low, risky_high)
    yield "safe_at_c_pooled", safe_at_c, jump(post.low_given_c_safe, d), c == n
    yield "safe_at_1_pooled", safe_at_1, jump(post.low_given_1_safe, c), False
    # After a d flow only the high reset hands a safe agent r_R, so the
    # posterior there is pure high.
    yield "risky_at_d_pooled", risky_high, punish, d == n
    yield "risky_at_c_pooled", risky_at_c, punish, c == n
    yield "risky_at_1_pooled", risky_at_1, punish, False


def _preconditions(c, d, params: GameParams):
    """Flows between the planner's and the equilibrium low-state flow (x_so
    and x_eq, from low_flows), and a first-low-stage cost no worse than the
    two-user one."""
    ml = mu_low(params)
    x_so, x_eq = low_flows(params)
    flow_range = (x_so <= c) & (d <= x_eq)
    ramp_cheaper = _stage_cost(c, ml, params) <= _stage_cost(2, ml, params)
    return flow_range, ramp_cheaper


@_per_game
def low_flows(params: GameParams) -> tuple[int, int]:
    """The planner's and the equilibrium low-state flows x_so and x_eq, which
    bound the ramp; neither depends on delta. Remembered per GameParams
    object (model._per_game)."""
    ml = mu_low(params)
    return myopic_so_flow(ml, params), myopic_eq_flow(ml, params)


def check_ic(c: int, d: int, params: GameParams) -> ICReport:
    """Evaluate every obedience constraint of scheme (c, d).

    The verdict also requires the two structural preconditions of the
    constructive obedience argument: flows between the planner's low-state
    optimum and the low-state equilibrium flow, and a first-low-stage cost
    no worse than the two-user one.
    """
    c, d = _require_cd(c, d, params)
    require_gate(params)
    return _ic_report(c, d, params, *_obedience(c, d, params))


def _obedience(c, d, params: GameParams) -> tuple:
    """What check_ic's verdict on schemes (c, d) reads: the state table, the
    _ic_terms over it (as a list) and the two preconditions."""
    dl = params.delta
    # _ic_terms takes the raw table: at c = n a None would meet a 0 posterior
    table = _state_table(c, d, params, dl)
    terms = list(_ic_terms(c, d, params, dl, table))
    return (table, terms, *_preconditions(c, d, params))


def _obedience_at(obedience: tuple, k: int) -> tuple:
    """_obedience's values for the k-th of its schemes."""
    table, terms, flow_range, ramp_cheaper = obedience

    def at(value):
        return value.item(k) if isinstance(value, np.ndarray) else value

    return (StateCostTable(**{name: at(value) for name, value in vars(table).items()}),
            [(state, at(follow), at(deviate), at(vacuous))
             for state, follow, deviate, vacuous in terms],
            at(flow_range), at(ramp_cheaper))


def _ic_report(c: int, d: int, params: GameParams, table: StateCostTable, terms: list,
               flow_range, ramp_cheaper) -> ICReport:
    """check_ic's report on one scheme from its _obedience values."""
    s0, dl = params.s0, params.delta
    ml = mu_low(params)
    entries = ic_entries(terms)
    table = _to_python(table)
    pre_flow_range, pre_ramp_cheaper = bool(flow_range), bool(ramp_cheaper)
    steady = next(e for e in entries if e.state == "safe_at_d_pooled")
    pre_steady_obedient = steady.satisfied

    warnings = []
    for item in entries:
        if item.boundary:
            warnings.append(f"{item.state}: slack {item.slack:.3e} inside the boundary band")
    verdict = pre_flow_range and pre_ramp_cheaper and all(e.satisfied for e in entries)

    if verdict:
        # Sanity identities the punishment argument relies on. A violation
        # here points at a formula regression, so surface it loudly. The
        # cost tolerance is relative to the punishment value, so it scales
        # with the unit of cost.
        punish = s0 / (1.0 - dl)
        tol = 1e-9 * punish
        checks = [
            ((1.0 - dl) * table.post_high_avg <= s0 + tol, "reset value exceeds s0 per stage"),
            (table.risky_at_d_low <= punish + tol, "steady risky value exceeds punishment"),
            (table.avg_at_1_low <= table.safe_at_d_low + tol, "recruit average exceeds steady safe value"),
            (table.safe_at_d_low <= punish + tol, "steady safe value exceeds punishment"),
            (ml * d <= s0 + tol, "steady low flow costs more than the safe road"),
        ]
        if c < params.n:
            # c = n leaves no ramp stage, and n caps its flow, not the floor.
            checks += [
                (c + 0.5 + 1e-9 >= s0 / (2.0 * ml), "ramp flow below the obedience floor"),
                (table.avg_at_c_low <= table.safe_at_d_low + tol,
                 "ramp-stage average exceeds steady safe value"),
            ]
        for ok, message in checks:
            if not ok:
                warnings.append("invariant violated: " + message)

    return ICReport(
        c=c,
        d=d,
        verdict=verdict,
        pre_flow_range=pre_flow_range,
        pre_ramp_cheaper=pre_ramp_cheaper,
        pre_steady_obedient=pre_steady_obedient,
        entries=tuple(entries),
        warnings=tuple(warnings),
    )


def steady_slack(c: int, d: int, params: GameParams) -> float:
    """Slack of the pooled safe agent at a steady d flow (the binding constraint).

    This is check_ic's safe_at_d_pooled slack, also at d = n, where the
    constraint itself is vacuous.
    """
    c, d = _require_cd(c, d, params)
    require_gate(params)
    dl = params.delta
    terms = _ic_terms(c, d, params, dl, _state_table(c, d, params, dl))
    _, follow, deviate, _ = _steady_term(terms)
    return _python(deviate - follow)


def _steady_term(terms: Iterable[tuple]) -> tuple:
    """The safe_at_d_pooled term of the terms _ic_terms yields, read no further."""
    return next(term for term in terms if term[0] == "safe_at_d_pooled")


def compute_x_ll(params: GameParams) -> int:
    """Smallest steady low-run flow the scheme can sustain obediently.

    Scans d upward from the planner's low-state flow with c fixed there, and
    returns the first obedient d. The scan cannot pass the low-state
    equilibrium flow: congestion there is already so high that a pooled safe
    agent has nothing to envy. A steady flow of n is always obedient (it
    leaves no safe agent to tempt), which is what caps the scan when the
    equilibrium flow hits the population size.
    """
    require_gate(params)
    return int(_first_obedient(params, params.delta))


def _steady_flows(params: GameParams) -> tuple[int, np.ndarray]:
    """The ramp flow x_so and the steady flows x_so..x_eq that the x_ll scan
    tries, once checked as the schemes (x_so, x_so..x_eq); neither depends
    on delta."""
    x_so, x_eq = low_flows(params)
    d = np.arange(x_so, x_eq + 1)
    _require_cd(x_so, d, params)
    return x_so, d


def _first_obedient(params: GameParams, dl):
    """The first steady flow x_so..x_eq that is obedient with ramp flow x_so,
    at discount dl: a float gives one flow, a (k, 1) array k flows."""
    x_so, d = _steady_flows(params)
    terms = _ic_terms(x_so, d, params, dl, _state_table(x_so, d, params, dl))
    return _first_obedient_flow(d, _steady_term(terms), params)


def _first_obedient_flow(d: np.ndarray, term: tuple, params: GameParams):
    """The first steady flow of d = x_so..x_eq whose steady term (over schemes
    that open with (x_so, d)) is obedient, one per row, else AssumptionError."""
    obedient = all_obedient([term])[..., :len(d)]
    if not obedient.any(axis=-1).all():
        x_so, x_eq = low_flows(params)
        raise AssumptionError(
            f"no obedient steady flow in {x_so}..{x_eq}; parameters are outside "
            "the regime the construction is proved for"
        )
    return d[np.argmax(obedient, axis=-1)]


def pi_star(params: GameParams) -> InfiniteScheme:
    """The candidate-optimal scheme: planner's ramp flow, smallest obedient d."""
    return _candidates(compute_x_ll(params), params)[0]


def pi_tilde_star(params: GameParams) -> InfiniteScheme | None:
    """The runner-up candidate (one more recruit early, one fewer late).

    None whenever that would need c > d, i.e. when the obedient steady flow
    is already within one of the planner's flow.
    """
    return _candidates(compute_x_ll(params), params)[1]


def _candidates(x_ll: int, params: GameParams) -> tuple[InfiniteScheme, InfiniteScheme | None]:
    """pi_star and pi_tilde_star from the planner's flow x_so and an already
    computed steady flow x_ll; both lie in a range the caller has checked,
    so both schemes are valid."""
    x_so, _ = low_flows(params)
    if x_so + 1 > x_ll - 1:
        return InfiniteScheme(c=x_so, d=x_ll), None
    return InfiniteScheme(c=x_so, d=x_ll), InfiniteScheme(c=x_so + 1, d=x_ll - 1)


@dataclass(frozen=True)
class FGDecomposition:
    """Split of the steady-flow obedience constraint into f(c) <= g(d).

    f collects every term that moves with the ramp flow c, g the terms that
    move with the steady flow d; the constraint for scheme (c, d) holds
    exactly when f(c) <= g(d). tau is the discounted weight the constraint
    puts on the reset value, tau_tilde the reset value's own cycle weight,
    and k_const the flow-independent remainder folded into f.
    """

    c: int
    d: int
    f_c: float
    g_d: float
    tau: float
    tau_tilde: float
    k_const: float

    @property
    def ic_satisfied(self) -> bool:
        return self.f_c <= self.g_d


def fc_gd_decomposition(c: int, d: int, params: GameParams) -> FGDecomposition:
    """Evaluate the f/g split of the steady-flow obedience constraint."""
    c, d = _require_cd(c, d, params)
    require_gate(params)
    return _to_python(_fc_gd(c, d, params))


def _fc_gd(c, d, params: GameParams) -> FGDecomposition:
    """fc_gd_decomposition for checked flows, in a game whose gate passed."""
    n, s0, dl = params.n, params.s0, params.delta
    gl, gh = params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)
    stay_low, tau_tilde = _discounting(params, dl)
    p = _low_given_d_safe(params)
    tau = p * dl * gl / stay_low + (1.0 - p) * dl * (
        (1.0 - gh) + gh * dl * gl / stay_low
    )
    tt = tau * tau_tilde / n
    k_const = (
        p * s0 / stay_low
        + (1.0 - p) * s0
        + tt * _stage_cost(1, mh, params)
        - (1.0 - p) * 2.0 * mh
        - dl * s0 / (1.0 - dl)
    )
    f_c = (
        dl * (1.0 - p) * gh / (n - 1) * ((c - 1) * ml * c + (n - c) * s0)
        + tt * dl * gh * _stage_cost(c, ml, params)
        + k_const
    )
    g_d = (
        p * ml * (d + 1)
        - dl * (1.0 - p) * gh * (dl * (1.0 - gl) / stay_low)
        * ((d - 1) * ml * d + (n - d) * s0) / (n - 1)
        - tt * dl * dl * ((1.0 - gl) / stay_low) * gh * _stage_cost(d, ml, params)
    )
    return FGDecomposition(c=c, d=d, f_c=f_c, g_d=g_d, tau=tau, tau_tilde=tau_tilde,
                           k_const=k_const)


# ---------------------------------------------------------------------------
# search and sweep

# Pairs per search block, and schemes per stacked solve of the chain oracle.
# A block's thirty-odd intermediate arrays then take about 2 MB, so beyond
# their result arrays neither grows in memory with n. Both fill many
# blocks: at n = 1000 the widest flow box (x_so = 500, x_eq = 1000) holds
# 125,751 pairs, 16 blocks, which the search takes 24 ms over on a 2-core
# x86 host with a 5.3 MB tracemalloc peak; the chain oracle solves all
# 499,500 schemes, 61 blocks. The search's first block is widened to hold
# the x_so row, which has at most n - 1 < 8,192 pairs.
_SEARCH_BLOCK_PAIRS = 8192


@dataclass(frozen=True)
class SearchPair:
    """One box pair as Python values: flows, check_ic's verdict, scheme_cost."""

    c: int
    d: int
    feasible: bool
    cost: float


@dataclass(frozen=True)
class SearchCandidates:
    """The pairs of the flow box x_so <= c <= d <= x_eq, the only ones that
    can be obedient, as four arrays in (c, d) order: the flows, check_ic's
    verdict and scheme_cost. Its length is the number of pairs, and it
    iterates them as SearchPair records in the same order."""

    c: np.ndarray
    d: np.ndarray
    feasible: np.ndarray
    cost: np.ndarray

    def __len__(self) -> int:
        return len(self.c)

    def __iter__(self) -> Iterator[SearchPair]:
        columns = (self.c, self.d, self.feasible, self.cost)
        return (SearchPair(*pair) for pair in zip(*(a.tolist() for a in columns)))

    def cost_of(self, c: int, d: int) -> float:
        """scheme_cost of the box pair (c, d), read from its place in (c, d)
        order: each row c' < c holds the x_eq - c' + 1 pairs (c', c'..x_eq).
        A pair outside the box raises ParameterError."""
        x_so, x_eq = int(self.c[0]), int(self.d[-1])
        if not x_so <= c <= d <= x_eq:
            raise ParameterError(f"({c}, {d}) is not a pair of the flow box "
                                 f"{x_so} <= c <= d <= {x_eq}")
        r, size = c - x_so, x_eq - x_so + 1
        return float(self.cost[r * size - r * (r - 1) // 2 + d - c])


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive obedient-scheme search, with the steady flow
    x_ll and the two candidate schemes read from the same pass."""

    winner: InfiniteScheme
    winner_cost: float
    matches_pi_star: bool
    matches_pi_tilde_star: bool
    x_ll: int
    pi_star: InfiniteScheme
    pi_tilde_star: InfiniteScheme | None
    pi_star_ic: ICReport
    candidates: SearchCandidates
    warnings: tuple[str, ...] = ()


def optimal_scheme_search(params: GameParams) -> SearchResult:
    """Cheapest scheme (by aggregate cost) among all obedient (c, d) pairs.

    Only the pairs of the flow box x_so <= c <= d <= x_eq can be obedient,
    so the search tests obedience (check_ic's verdict) and prices those
    pairs alone, as arrays in blocks of _SEARCH_BLOCK_PAIRS pairs, and
    returns them as its candidates. The winner is the first obedient pair
    in (c, d) order whose cost is within a relative 1e-12 of the cheapest.
    For delta above one half the result is best within this recommendation
    family; global optimality across all schemes is only established up to
    one half, hence the warning. The same pass gives compute_x_ll's steady
    flow, the candidates pi_star and pi_tilde_star, and pi_star's check_ic
    report.

    The gate runs first; then the flows x_so..x_eq are checked, as
    compute_x_ll checks them. Every pair outside the box fails flow_range.
    The box opens with the x_so row (x_so, x_so..x_eq), and the first
    block is widened to hold it whole; its steady terms give x_ll, and
    pi_star, (x_so, x_ll), is one of its pairs, whose report is read from
    that block. Then no obedient steady flow raises AssumptionError, and
    only after it can an empty feasible set raise InternalError.
    """
    require_gate(params)
    x_so, steady = _steady_flows(params)
    c, d = np.triu_indices(len(steady))
    c, d = c + x_so, d + x_so
    feasible = np.empty(len(c), dtype=bool)
    cost = np.empty(len(c))
    size = max(_SEARCH_BLOCK_PAIRS, len(steady))  # the first block holds the x_so row
    for start in range(0, len(c), size):
        block = slice(start, start + size)
        obedience = _obedience(c[block], d[block], params)
        _, terms, flow_range, ramp_cheaper = obedience
        feasible[block] = flow_range & ramp_cheaper & all_obedient(terms)
        cost[block] = _scheme_cost(c[block], d[block], params, params.delta)
        if not start:
            row = obedience
        del obedience, terms  # so the next block is evaluated without this one's arrays
    x_ll = int(_first_obedient_flow(steady, _steady_term(row[1]), params))
    star, tilde = _candidates(x_ll, params)
    # pi_star, (x_so, x_ll), is pair x_ll - x_so of the x_so row
    star_ic = _ic_report(star.c, star.d, params, *_obedience_at(row, x_ll - x_so))
    if not feasible.any():
        raise InternalError("no obedient scheme found; gate passed, so this "
                            "indicates a formula regression")
    cheapest = cost[feasible].min()
    ties = feasible & (cost <= cheapest + 1e-12 * np.abs(cost))
    k = int(np.argmax(ties))
    best = (int(c[k]), int(d[k]))
    warnings = []
    if params.delta > 0.5:
        warnings.append(
            "delta > 1/2: winner is family-optimal; optimality beyond the "
            "ramp-up family is only established for delta <= 1/2"
        )
    return SearchResult(
        winner=InfiniteScheme(c=best[0], d=best[1]),
        winner_cost=float(cost[k]),
        matches_pi_star=(best == (star.c, star.d)),
        matches_pi_tilde_star=(tilde is not None and best == (tilde.c, tilde.d)),
        x_ll=x_ll,
        pi_star=star,
        pi_tilde_star=tilde,
        pi_star_ic=star_ic,
        candidates=SearchCandidates(c, d, feasible, cost),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class SweepPoint:
    """delta_sweep record: obedience and cost ratio at one discount factor."""

    delta: float
    feasible: bool
    x_ll: int | None
    v_pi_star: float | None
    v_myopic_planner: float | None
    ratio: float | None
    notes: tuple[str, ...] = ()


def delta_sweep(params: GameParams, deltas: Iterable[float]) -> list[SweepPoint]:
    """Re-gate and re-solve across discount factors.

    The gate's mu_high ceiling moves with delta, so each point re-checks it;
    infeasible points are flagged, with the gate's failures as notes, rather
    than skipped. No other rule refuses a point, so zero switch rates are
    solved too. The ratio compares the best obedient scheme rooted at the
    planner's ramp flow against the planner's own (relaxed, not
    obedience-checked) scheme, and reaches one exactly when the steady flow
    x_ll drops to the planner's flow.

    The steady flows x_so..x_eq do not depend on delta, so after the gates
    the cores run once over every in-gate discount, as a (k, 1) column that
    broadcasts against the flows: one (k, m) steady-slack table for the x_ll
    scan and one (k, 2) call that prices both schemes. The flows are checked
    once, and only when some discount passes its gate.
    """
    gated = []
    for delta in deltas:
        delta = float(delta)
        _require_discount(delta)
        gated.append((delta, _infinite_gate(params, delta)))
    dl = np.array([[delta] for delta, gate in gated if gate.passed])
    solved = iter(())
    if len(dl):
        x_ll = _first_obedient(params, dl)
        x_so, _ = low_flows(params)
        cost = _scheme_cost(x_so, np.column_stack((x_ll, np.full_like(x_ll, x_so))), params, dl)
        solved = zip(x_ll.tolist(), cost.tolist())
    out = []
    for delta, gate in gated:
        if not gate.passed:
            out.append(SweepPoint(delta, False, None, None, None, None, gate.failures))
            continue
        x, (v_star, v_planner) = next(solved)
        out.append(SweepPoint(delta, True, x, v_star, v_planner, v_star / v_planner))
    return out


# ---------------------------------------------------------------------------
# the chain oracle

def oracle_checks(params: GameParams) -> list[dict]:
    """The state costs against the chain oracle, and the steady slack against
    its f/g decomposition, over every scheme 1 < c <= d <= n, as two {name,
    passed, detail} dicts. Blocks of _SEARCH_BLOCK_PAIRS schemes keep only
    the worst gaps: flat memory in n. Each gap is relative to a positive
    cost of its own scheme, so none depends on the unit: a state cost to
    itself, the f/g gap to the steady deviation cost (the slack can be near
    0). A state only one side has (NaN on the other) makes the gap inf."""
    require_gate(params)  # the only gate of the call; the flows are valid
    c, d = scheme_pairs(params.n)
    dl = params.delta
    worst_state = worst_fg = 0.0
    for start in range(0, len(c), _SEARCH_BLOCK_PAIRS):
        block = slice(start, start + _SEARCH_BLOCK_PAIRS)
        cb, db = c[block], d[block]
        table = _state_table(cb, db, params, dl)
        _, follow, deviate, _ = _steady_term(_ic_terms(cb, db, params, dl, table))
        decomp = _fc_gd(cb, db, params)
        gap = np.abs((decomp.f_c - decomp.g_d) + (deviate - follow)) / deviate
        worst_fg = float(np.max(gap, initial=worst_fg))  # a NaN gap stays NaN
        # the 11 fields of each table stacked, one row per field
        closed = np.array(list(vars(table).values()))
        solved = np.array(list(vars(_chain_table(cb, db, params)).values()))
        if not np.array_equal(np.isnan(closed), np.isnan(solved)):
            worst_state = float("inf")
        worst_state = max(worst_state, float(np.fmax.reduce(  # fmax skips NaN
            np.abs(closed - solved) / np.abs(closed), axis=None, initial=0.0
        )))
    return [
        {"name": f"state costs, closed form vs linear solve ({len(c)} schemes)",
         "passed": worst_state <= 1e-9,
         "detail": f"worst relative gap {worst_state:.3g}"},
        {"name": "steady-state obedience slack vs its f/g decomposition",
         "passed": worst_fg <= 1e-9,
         "detail": f"worst relative gap {worst_fg:.3g}"},
    ]
