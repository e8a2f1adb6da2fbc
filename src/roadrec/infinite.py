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
form and, as an independent oracle, a plain linear solve), the obedience
(incentive-compatibility) report, the cheapest obedient scheme, and the
delta sweep showing when the relaxed social optimum itself becomes obedient.

Each closed form is written once and takes c and d as ints or as integer
arrays that broadcast together; the search and the x_ll scan evaluate them
over all candidate flows at once (a state that cannot occur reads NaN). Two
ints are the 0-d case of the same code and give Python numbers (None for a
state that cannot occur). check_ic, which builds a report, takes ints only.

State mnemonics follow the recommendation histories: an agent is described
by what it observed last stage (the realised risky flow; the road state if
it was on the risky road, else "pooled" uncertainty) and the recommendation
it just received.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .model import (
    AssumptionError,
    GameParams,
    InternalError,
    ParameterError,
    _all,
    _div,
    _integral,
    _require_belief,
    belief_step,
    check_assumption_infinite,
    expected_theta,
    mu_high,
    mu_low,
    myopic_eq_flow,
    myopic_so_flow,
    stage_cost,
)

_BOUNDARY = 1e-12


def require_gate(params: GameParams) -> None:
    """Raise AssumptionError naming every failed infinite-horizon assumption."""
    gate = check_assumption_infinite(params)
    if not gate.passed:
        raise AssumptionError(
            "infinite-horizon gate fails: " + "; ".join(gate.failures())
        )


def _require_cd(c, d, params: GameParams) -> None:
    for name, value in (("c", c), ("d", d)):
        if not _integral(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not _all((1 < c) & (c <= d) & (d <= params.n)):
        raise ParameterError(
            f"scheme flows must satisfy 1 < c <= d <= n={params.n}, got c={c}, d={d}"
        )


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
    """Flows of a ramp-up recommendation scheme.

    a and b are the flows kept after a low-then-high and high-then-high
    history; the analysed family pins both to one experimenter. c is the
    flow on the first low stage, d the steady low-run flow.
    """

    c: int
    d: int
    a: int = 1
    b: int = 1

    def __post_init__(self) -> None:
        if self.a != 1 or self.b != 1:
            raise ParameterError("only single-experimenter schemes (a = b = 1) are supported")

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
    _require_cd(c, d, params)
    n, gl, gh = params.n, params.gamma_l, params.gamma_h

    def posterior(low, high, limit=0.0):
        # Bayes from the likelihoods of what the agent saw, by last state.
        return _div(low, low + high, limit)

    # Likelihood of receiving r_S (or r_R) by last state, given last flow.
    # Low keeps incumbents and recruits uniformly; high redraws one
    # experimenter among everyone, so a given agent draws r_R with chance 1/n.
    # c = n leaves nobody to recruit: both c-flow likelihoods, and with them
    # their posteriors, are 0.
    return _to_python(Posteriors(
        low_given_d_safe=posterior(1.0 - gl, gl * (n - 1) / n, limit=1.0),
        low_given_c_safe=posterior(_div((1.0 - gl) * (n - d), n - c, 0.0), gl * (n - 1) / n),
        low_given_1_safe=posterior(gh * (n - c) / (n - 1), (1.0 - gh) * (n - 1) / n),
        low_given_c_risky=posterior(_div((1.0 - gl) * (d - c), n - c, 0.0), gl / n),
        low_given_1_risky=posterior(gh * (c - 1) / (n - 1), (1.0 - gh) / n),
    ))


def _discounting(params: GameParams) -> tuple[float, float]:
    """stay_low = 1 - delta*(1 - gamma_l) and the reset value's cycle weight tau_tilde."""
    dl, gl, gh = params.delta, params.gamma_l, params.gamma_h
    stay_low = 1.0 - dl * (1.0 - gl)
    return stay_low, stay_low / ((1.0 - dl) * (1.0 - dl * (1.0 - gh - gl)))


def scheme_cost(c: int, d: int, params: GameParams) -> float:
    """Aggregate expected discounted cost of scheme (c, d) from a high start.

    The chain's costs decompose into excursions that start whenever the
    coordinator learns the road turned high; tau_tilde weighs one
    excursion's cost. The first stage after the reset is undiscounted.
    """
    _require_cd(c, d, params)
    require_gate(params)
    dl, gl, gh = params.delta, params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)
    stay_low, tau_tilde = _discounting(params)
    return tau_tilde * (
        stage_cost(1, mh, params)
        + dl * gh * stage_cost(c, ml, params)
        + dl * dl * (1.0 - gl) / stay_low * gh * stage_cost(d, ml, params)
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
    """Expected discounted cost-to-go of a compliant agent, by state.

    A state bundles what the agent saw last stage and the recommendation it
    just received. "at_d/at_c/at_1" is the risky flow it observed; "low"
    means it was on the risky road and saw the low state; "after_high" means
    it was on the risky road and saw the high state; "pooled" means it was
    on the safe road and only knows the flow (costs there are probability
    mixtures via the posteriors). avg_at_* are pre-recommendation averages
    over the recruitment lottery faced by a safe agent at a low transition.
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
    safe_at_d_pooled: float
    safe_at_c_pooled: float
    safe_at_1_pooled: float


def state_costs(c: int, d: int, params: GameParams) -> StateCostTable:
    """Closed-form compliance values for every scheme state.

    Solves the recursions analytically: the reset value first, then the
    absorbing low-run states, then everything that feeds the high states.
    A consistency identity ties the high states back to the reset value and
    is checked to 1e-9; failure means a formula regression, not bad input.
    """
    _require_cd(c, d, params)
    require_gate(params)
    n, s0, dl = params.n, params.s0, params.delta
    gl, gh = params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)
    stay_low, _ = _discounting(params)
    vb = v_bar(c, d, params)

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
    if (gap > 1e-9 * np.maximum(1.0, np.abs(vb))).any():
        raise InternalError(
            f"state-cost consistency identity broke: gap {np.max(gap):.6g} from the reset value"
        )

    post = posteriors(c, d, params)
    return _to_python(StateCostTable(
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
        safe_at_d_pooled=_mix(post.low_given_d_safe, safe_at_d_low, safe_after_high),
        safe_at_c_pooled=_mix(post.low_given_c_safe, safe_at_c_low, safe_after_high),
        # c = n: the low branch never sends a safe recommendation.
        safe_at_1_pooled=np.where(
            c < n, _mix(post.low_given_1_safe, safe_at_1_low, safe_after_high), safe_after_high
        ),
    ))


def state_costs_linear(c: int, d: int, params: GameParams) -> StateCostTable:
    """Compliance values via a direct linear solve (oracle for state_costs).

    Builds the one-step expectation equations with every state kept as an
    unknown (the c-flow states are not folded into the d-flow states, the
    reset value is not expanded into a closed form) and solves with numpy.
    Shares no arithmetic with the closed forms beyond the stage costs.
    """
    _require_cd(c, d, params)
    require_gate(params)
    n, s0, dl = params.n, params.s0, params.delta
    gl, gh = params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)

    names = [
        "vbar", "h_rr", "h_rs", "l1_rr", "l1_rs",
        "lc_rr", "lc_rs", "ld_rr", "ld_rs", "avg1", "avgc",
    ]
    if c == n:
        names = [x for x in names if x not in ("l1_rs", "avgc")]
    idx = {name: i for i, name in enumerate(names)}
    m = len(names)
    a = np.zeros((m, m))
    b = np.zeros(m)

    def eq(row: int, rhs: float, terms: dict[str, float]) -> None:
        for name, coef in terms.items():
            a[row, idx[name]] += coef
        b[row] = rhs

    row = iter(range(m))
    eq(next(row), 0.0, {"vbar": 1.0, "h_rr": -1.0 / n, "h_rs": -(n - 1) / n})
    eq(next(row), mh, {"h_rr": 1.0, "l1_rr": -dl * gh, "vbar": -dl * (1 - gh)})
    eq(next(row), s0, {"h_rs": 1.0, "avg1": -dl * gh, "vbar": -dl * (1 - gh)})
    eq(next(row), ml * c, {"l1_rr": 1.0, "lc_rr": -dl * (1 - gl), "vbar": -dl * gl})
    if c < n:
        eq(next(row), s0, {"l1_rs": 1.0, "avgc": -dl * (1 - gl), "vbar": -dl * gl})
    eq(next(row), ml * d, {"lc_rr": 1.0, "ld_rr": -dl * (1 - gl), "vbar": -dl * gl})
    eq(next(row), s0, {"lc_rs": 1.0, "ld_rs": -dl * (1 - gl), "vbar": -dl * gl})
    eq(next(row), ml * d, {"ld_rr": 1.0 - dl * (1 - gl), "vbar": -dl * gl})
    eq(next(row), s0, {"ld_rs": 1.0 - dl * (1 - gl), "vbar": -dl * gl})
    if c < n:
        eq(next(row), 0.0, {
            "avg1": 1.0,
            "l1_rr": -(c - 1) / (n - 1),
            "l1_rs": -(n - c) / (n - 1),
        })
        eq(next(row), 0.0, {
            "avgc": 1.0,
            "lc_rr": -(d - c) / (n - c),
            "lc_rs": -(n - d) / (n - c),
        })
    else:
        eq(next(row), 0.0, {"avg1": 1.0, "l1_rr": -1.0})

    x = np.linalg.solve(a, b)
    val = {name: float(x[i]) for name, i in idx.items()}

    post = posteriors(c, d, params)
    p1 = post.low_given_1_safe
    safe_at_1_low = val.get("l1_rs")
    safe_at_1_pooled = (
        val["h_rs"]
        if safe_at_1_low is None
        else p1 * safe_at_1_low + (1.0 - p1) * val["h_rs"]
    )
    return StateCostTable(
        post_high_avg=val["vbar"],
        risky_at_d_low=val["ld_rr"],
        safe_at_d_low=val["ld_rs"],
        risky_at_c_low=val["lc_rr"],
        safe_at_c_low=val["lc_rs"],
        risky_at_1_low=val["l1_rr"],
        safe_at_1_low=safe_at_1_low,
        avg_at_1_low=val["avg1"],
        avg_at_c_low=val.get("avgc"),
        risky_after_high=val["h_rr"],
        safe_after_high=val["h_rs"],
        safe_at_d_pooled=(
            post.low_given_d_safe * val["ld_rs"]
            + (1.0 - post.low_given_d_safe) * val["h_rs"]
        ),
        safe_at_c_pooled=(
            post.low_given_c_safe * val["lc_rs"]
            + (1.0 - post.low_given_c_safe) * val["h_rs"]
        ),
        safe_at_1_pooled=safe_at_1_pooled,
    )


# ---------------------------------------------------------------------------
# obedience

@dataclass(frozen=True)
class ICEntry:
    """One obedience constraint: follow the recommendation vs defect once.

    Defecting triggers the permanent punishment regime, whose per-stage
    expected cost is s0, so every deviation value ends in delta*s0/(1-delta).
    slack = deviate - follow; nonnegative means obedient. Unreachable states
    are vacuous and count as satisfied.
    """

    state: str
    follow: float | None
    deviate: float | None
    slack: float | None
    vacuous: bool = False
    boundary: bool = False

    @property
    def satisfied(self) -> bool:
        if self.vacuous:
            return True
        return self.slack >= -_BOUNDARY


@dataclass(frozen=True)
class ICReport:
    """Obedience report for scheme (c, d)."""

    c: int
    d: int
    entries: tuple[ICEntry, ...]
    pre_flow_range: bool
    pre_ramp_cheaper: bool
    pre_steady_obedient: bool
    verdict: bool
    warnings: tuple[str, ...] = ()

    def entry(self, state: str) -> ICEntry:
        for item in self.entries:
            if item.state == state:
                return item
        raise KeyError(state)


def _entry(state: str, follow: float, deviate: float, vacuous: bool = False) -> ICEntry:
    if vacuous:
        return ICEntry(state, None, None, None, vacuous=True)
    slack = deviate - follow
    return ICEntry(state, follow, deviate, slack, boundary=-_BOUNDARY < slack < 0.0)


def _ic_terms(c, d, params: GameParams, table: StateCostTable) -> Iterator[tuple]:
    """Yield (state, follow, deviate, vacuous) for the 11 obedience constraints.

    table is state_costs(c, d, params). States that cannot occur (d = n
    leaves no safe agent to observe a d flow, similarly c = n) are vacuous.
    """
    n, s0, dl = params.n, params.s0, params.delta
    ml, mh = mu_low(params), mu_high(params)
    post = posteriors(c, d, params)
    punish = s0 / (1.0 - dl)
    punish_tail = dl * s0 / (1.0 - dl)

    def jump(p, flow):
        # A pooled agent told to stay safe joins the risky road instead.
        return p * ml * (flow + 1) + (1.0 - p) * 2.0 * mh + punish_tail

    yield "risky_at_d_low", table.risky_at_d_low, punish, False
    yield "risky_at_c_low", table.risky_at_c_low, punish, False
    yield "risky_at_1_low", table.risky_at_1_low, punish, False
    yield "safe_after_high", table.safe_after_high, 2.0 * mh + punish_tail, False
    yield "risky_after_high", table.risky_after_high, punish, False
    yield ("safe_at_d_pooled", table.safe_at_d_pooled,
           jump(post.low_given_d_safe, d), d == n)
    yield ("safe_at_c_pooled", table.safe_at_c_pooled,
           jump(post.low_given_c_safe, d), c == n)
    yield ("safe_at_1_pooled", table.safe_at_1_pooled,
           jump(post.low_given_1_safe, c), False)
    # Pooled agents told to go risky. After a d flow only the high reset
    # hands a safe agent r_R, so the posterior there is pure high.
    yield "risky_at_d_pooled", table.risky_after_high, punish, d == n
    yield ("risky_at_c_pooled",
           _mix(post.low_given_c_risky, table.risky_at_c_low, table.risky_after_high),
           punish, c == n)
    yield ("risky_at_1_pooled",
           _mix(post.low_given_1_risky, table.risky_at_1_low, table.risky_after_high),
           punish, False)


def _preconditions(c, d, params: GameParams):
    """Flows between the planner's and the equilibrium low-state flow, and a
    first-low-stage cost no worse than the two-user one."""
    ml = mu_low(params)
    flow_range = (myopic_so_flow(ml, params) <= c) & (d <= myopic_eq_flow(ml, params))
    ramp_cheaper = stage_cost(c, ml, params) <= stage_cost(2, ml, params)
    return flow_range, ramp_cheaper


def check_ic(c: int, d: int, params: GameParams) -> ICReport:
    """Evaluate every obedience constraint of scheme (c, d).

    The verdict also requires the two structural preconditions of the
    constructive obedience argument: flows between the planner's low-state
    optimum and the low-state equilibrium flow, and a first-low-stage cost
    no worse than the two-user one.
    """
    _require_cd(c, d, params)
    require_gate(params)
    s0, dl = params.s0, params.delta
    ml = mu_low(params)
    table = state_costs(c, d, params)
    entries = [
        _entry(state, float(follow), float(deviate), vacuous=bool(vacuous))
        for state, follow, deviate, vacuous in _ic_terms(c, d, params, table)
    ]
    pre_flow_range, pre_ramp_cheaper = (bool(x) for x in _preconditions(c, d, params))
    steady = next(e for e in entries if e.state == "safe_at_d_pooled")
    pre_steady_obedient = steady.satisfied

    warnings = []
    for item in entries:
        if item.boundary:
            warnings.append(f"{item.state}: slack {item.slack:.3e} inside the boundary band")
    verdict = pre_flow_range and pre_ramp_cheaper and all(e.satisfied for e in entries)

    if verdict:
        # Sanity identities the punishment argument relies on. A violation
        # here points at a formula regression, so surface it loudly.
        punish = s0 / (1.0 - dl)
        tol = 1e-9 * max(1.0, punish)
        checks = [
            ((1.0 - dl) * table.post_high_avg <= s0 + tol, "reset value exceeds s0 per stage"),
            (table.risky_at_d_low <= punish + tol, "steady risky value exceeds punishment"),
            (table.avg_at_1_low <= table.safe_at_d_low + tol, "recruit average exceeds steady safe value"),
            (table.safe_at_d_low <= punish + tol, "steady safe value exceeds punishment"),
            (ml * d <= s0 + tol, "steady low flow costs more than the safe road"),
            (c + 0.5 + tol >= s0 / (2.0 * ml), "ramp flow below the obedience floor"),
        ]
        if table.avg_at_c_low is not None:
            checks.append(
                (table.avg_at_c_low <= table.safe_at_d_low + tol,
                 "ramp-stage average exceeds steady safe value")
            )
        for ok, message in checks:
            if not ok:
                warnings.append("invariant violated: " + message)

    return ICReport(
        c=c,
        d=d,
        entries=tuple(entries),
        pre_flow_range=pre_flow_range,
        pre_ramp_cheaper=pre_ramp_cheaper,
        pre_steady_obedient=pre_steady_obedient,
        verdict=verdict,
        warnings=tuple(warnings),
    )


def steady_slack(c: int, d: int, params: GameParams) -> float:
    """Slack of the pooled safe agent at a steady d flow (the binding constraint).

    This is check_ic's safe_at_d_pooled slack, also at d = n, where the
    constraint itself is vacuous.
    """
    terms = _ic_terms(c, d, params, state_costs(c, d, params))
    follow, deviate = next((f, v) for state, f, v, _ in terms if state == "safe_at_d_pooled")
    return _python(deviate - follow)


def compute_x_ll(params: GameParams) -> tuple[int, int]:
    """Smallest steady low-run flow the scheme can sustain obediently.

    Scans d upward from the planner's low-state flow with c fixed there, and
    returns (first obedient d, resulting steady flow). The scan starts at the
    planner's flow, so the two are the same number; both are kept because the
    `infinite` report prints them as x_ll_bar and x_ll. The scan cannot pass
    the low-state equilibrium flow: congestion there is already so high that
    a pooled safe agent has nothing to envy. A steady flow of n is always
    obedient (it leaves no safe agent to tempt), which is what caps the scan
    when the equilibrium flow hits the population size.
    """
    require_gate(params)
    ml = mu_low(params)
    x_so = myopic_so_flow(ml, params)
    x_eq = myopic_eq_flow(ml, params)
    d = np.arange(x_so, x_eq + 1)
    obedient = (d == params.n) | (steady_slack(x_so, d, params) >= -_BOUNDARY)
    if not obedient.any():
        raise AssumptionError(
            f"no obedient steady flow in {x_so}..{x_eq}; parameters are outside "
            "the regime the construction is proved for"
        )
    first = int(d[np.argmax(obedient)])
    return first, first


def pi_star(params: GameParams) -> InfiniteScheme:
    """The candidate-optimal scheme: planner's ramp flow, smallest obedient d."""
    return _candidates(params, compute_x_ll(params)[1])[0]


def pi_tilde_star(params: GameParams) -> InfiniteScheme | None:
    """The runner-up candidate (one more recruit early, one fewer late).

    None whenever that would need c > d, i.e. when the obedient steady flow
    is already within one of the planner's flow.
    """
    return _candidates(params, compute_x_ll(params)[1])[1]


def _candidates(
    params: GameParams, x_ll: int
) -> tuple[InfiniteScheme, InfiniteScheme | None]:
    """pi_star and pi_tilde_star from an already computed steady flow x_ll."""
    star = InfiniteScheme(c=myopic_so_flow(mu_low(params), params), d=x_ll).validate(params)
    if star.c + 1 > star.d - 1:
        return star, None
    return star, InfiniteScheme(c=star.c + 1, d=star.d - 1).validate(params)


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
    _require_cd(c, d, params)
    require_gate(params)
    n, s0, dl = params.n, params.s0, params.delta
    gl, gh = params.gamma_l, params.gamma_h
    ml, mh = mu_low(params), mu_high(params)
    stay_low, tau_tilde = _discounting(params)
    p = posteriors(c, d, params).low_given_d_safe  # does not depend on c, d
    tau = p * dl * gl / stay_low + (1.0 - p) * dl * (
        (1.0 - gh) + gh * dl * gl / stay_low
    )
    tt = tau * tau_tilde / n
    k_const = (
        p * s0 / stay_low
        + (1.0 - p) * s0
        + tt * stage_cost(1, mh, params)
        - (1.0 - p) * 2.0 * mh
        - dl * s0 / (1.0 - dl)
    )
    f_c = (
        dl * (1.0 - p) * gh / (n - 1) * ((c - 1) * ml * c + (n - c) * s0)
        + tt * dl * gh * stage_cost(c, ml, params)
        + k_const
    )
    g_d = (
        p * ml * (d + 1)
        - dl * (1.0 - p) * gh * (dl * (1.0 - gl) / stay_low)
        * ((d - 1) * ml * d + (n - d) * s0) / (n - 1)
        - tt * dl * dl * ((1.0 - gl) / stay_low) * gh * stage_cost(d, ml, params)
    )
    return _to_python(FGDecomposition(c=c, d=d, f_c=f_c, g_d=g_d, tau=tau,
                                      tau_tilde=tau_tilde, k_const=k_const))


# ---------------------------------------------------------------------------
# search and sweep

@dataclass(frozen=True)
class SearchCandidate:
    c: int
    d: int
    feasible: bool
    cost: float


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive obedient-scheme search."""

    winner: InfiniteScheme
    winner_cost: float
    matches_pi_star: bool
    matches_pi_tilde_star: bool
    candidates: tuple[SearchCandidate, ...]
    warnings: tuple[str, ...] = ()


def optimal_scheme_search(params: GameParams) -> SearchResult:
    """Cheapest scheme (by aggregate cost) among all obedient (c, d) pairs.

    Evaluates every pair 1 < c <= d <= n at once, keeps pairs whose
    obedience verdict (check_ic's) passes, and returns the first of them in
    (c, d) order whose cost is within a relative 1e-12 of the cheapest. For
    delta above one half the result is best within this recommendation
    family; global optimality across all schemes is only established up to
    one half, hence the warning.
    """
    return _search(params, *_candidates(params, compute_x_ll(params)[1]))


def _search(
    params: GameParams, star: InfiniteScheme, tilde: InfiniteScheme | None
) -> SearchResult:
    """optimal_scheme_search, compared against already computed candidates."""
    require_gate(params)
    c, d = scheme_pairs(params.n)
    flow_range, ramp_cheaper = _preconditions(c, d, params)
    feasible = flow_range & ramp_cheaper
    for _, follow, deviate, vacuous in _ic_terms(c, d, params, state_costs(c, d, params)):
        feasible &= vacuous | (deviate - follow >= -_BOUNDARY)
    if not feasible.any():
        raise InternalError("no obedient scheme found; gate passed, so this "
                            "indicates a formula regression")
    cost = scheme_cost(c, d, params)
    cheapest = cost[feasible].min()
    ties = feasible & (cost <= cheapest + 1e-12 * np.maximum(1.0, np.abs(cost)))
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
        candidates=tuple(
            SearchCandidate(*row)
            for row in zip(c.tolist(), d.tolist(), feasible.tolist(), cost.tolist())
        ),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class SweepPoint:
    """delta_sweep record: obedience and cost ratio at one discount factor."""

    delta: float
    feasible: bool
    x_ll: int | None
    v_pi_star: float | None
    v_so: float | None
    ratio: float | None
    notes: tuple[str, ...] = ()


def delta_sweep(params: GameParams, deltas: Iterable[float]) -> list[SweepPoint]:
    """Re-gate and re-solve across discount factors.

    The gate's mu_high ceiling moves with delta, so each point re-checks it;
    infeasible points are flagged rather than skipped. The ratio compares
    the best obedient scheme rooted at the planner's ramp flow against the
    planner's own (relaxed, not obedience-checked) scheme, and reaches one
    exactly when the steady flow x_ll drops to the planner's flow.
    """
    if params.gamma_l <= 0.0 or params.gamma_h <= 0.0:
        raise ParameterError("delta_sweep needs strictly positive switch rates")
    out = []
    for delta in deltas:
        trial = replace(params, delta=float(delta))
        gate = check_assumption_infinite(trial)
        if not gate.passed:
            out.append(SweepPoint(trial.delta, False, None, None, None, None,
                                  notes=tuple(gate.failures())))
            continue
        ml = mu_low(trial)
        x_so = myopic_so_flow(ml, trial)
        _, x_ll = compute_x_ll(trial)
        v_star = scheme_cost(x_so, x_ll, trial)
        v_so = scheme_cost(x_so, x_so, trial)
        out.append(SweepPoint(trial.delta, True, x_ll, v_star, v_so, v_star / v_so))
    return out


def social_opt_policy(beta: float, params: GameParams) -> int:
    """Planner's next-stage risky flow given the current low-state belief.

    Keeps at least one agent on the risky road so the coordinator never goes
    blind; otherwise it is the myopic optimal flow for tomorrow's expected
    coefficient. This is the relaxed benchmark the sweep compares against.
    """
    beta = _require_belief(beta)
    require_gate(params)
    ahead = expected_theta(belief_step(beta, params), params)
    return max(1, myopic_so_flow(ahead, params))
