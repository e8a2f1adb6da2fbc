"""Two-stage experimentation model (fixed road state, two rounds).

The risky coefficient theta is drawn once (P(low) = beta) and stays put for
both rounds. Nobody starts out informed; whoever uses the risky road in round
one learns theta and, in the recommendation scheme, reports it to the
coordinator. The module computes

* the three prior thresholds above which experimentation is sustainable
  (socially worthwhile / with private revelation / with public revelation),
* expected two-round aggregate costs of the benchmark regimes,
* the optimal incentive-compatible recommendation scheme with one
  experimenter (exhaustive over the second-round recommendation counts
  (pi2_low, pi2_high): a bound that separates by flow rules out most pairs
  on the binding recommended_risky term, first whole pi2_low rows and
  pi2_high columns, then the pairs of the kept rows and columns, a strip
  of at most about n*(1 + sqrt(2n)) entries tested at once; the exact
  obedience terms and cost are evaluated only on the pairs it keeps),
* belief_sweep, every one of these at each belief of a grid, as the
  `two-stage` command prints them: every belief checked before any solve,
  one gate run per belief, the benchmark regimes priced as arrays over the
  in-gate beliefs, and the beliefs at or above beta_p solved as stacked
  blocks, one (belief, pi2_low, pi2_high) box per block; a block is halved
  until its filter and its box each hold at most n*(1 + sqrt(2n)) entries,
  one belief's strip bound, so a grid of wide strips runs one belief per
  block. It is the one entry point that solves and prices the model; a
  single belief is the grid [beta],
* a brute-force equilibrium enumerator used as an independent oracle for the
  benchmark regimes (every strategy multiset at once, checked against one
  table of the 16 strategies' costs over the other agents' totals), and
  oracle_checks, which compares each regime's predicted outcome with it;
  each regime's cutoff and round-two flows are written once, in _regimes.

Everything here assumes a single experimenter in round one; sending two or
more is dominated whenever experimentation is costly (gate condition 2),
because the first-round risky cost alone already exceeds the total two-round
cost of staying safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    _expected_theta,
    _per_game,
    _require_belief,
    _require_integer,
    _stage_cost,
    all_obedient,
    check_assumption_two_stage,
    ic_entries,
    myopic_eq_flow,
    myopic_so_flow,
)

_REGIMES = ("full", "private")
# Most floats thresholds steps beta_p up by; scans of extreme in-gate games
# needed at most 3.
_BETA_P_STEPS = 16


@dataclass(frozen=True)
class TwoStageThresholds:
    """Prior-belief thresholds for the two-stage model.

    beta_so       experimentation lowers the planner's expected total cost
    beta_p        one experimenter is self-enforcing under private revelation
    beta_f        one experimenter is self-enforcing under public revelation
    beta_so_alt   alternative printed grouping of the beta_so closed form;
                  kept because it disagrees with the indifference-derived
                  value whenever s1 > 0 (see warnings)
    """

    beta_so: float
    beta_p: float
    beta_f: float
    beta_so_alt: float
    eq_flow_low: int
    so_flow_low: int
    so_flow_high: int
    warnings: tuple[str, ...] = ()


@_per_game
def thresholds(params: GameParams) -> TwoStageThresholds:
    """Compute the three experimentation thresholds.

    Requires gate condition 1 (l < s0 + s1); condition 2 depends on beta and
    belief_sweep checks it per belief. Remembered per GameParams object
    (model._per_game), so a loop over beliefs computes them once. beta_p is
    the first float at or above the rounded closed form at which the
    experimenter follows the scheme (0, 0), found in at most _BETA_P_STEPS
    steps and never past 1.
    A threshold that is not finite raises FloatingPointError, under any
    numpy error state: every comparison against NaN is false, so each belief
    would read as region B.
    """
    if not params.l < params.s0 + params.s1:
        raise AssumptionError(
            "two-stage thresholds need l < s0 + s1, got "
            f"l={params.l}, s0+s1={params.s0 + params.s1}"
        )
    n, s0, s1, l, h = params.n, params.s0, params.s1, params.l, params.h
    k = s0 + s1 * n
    g0 = _stage_cost(0, l, params)

    x_eq = myopic_eq_flow(l, params)
    g_eq = _stage_cost(x_eq, l, params)
    beta_f = (h - k) / (h - l + k - g_eq / n)

    # below 1 in exact arithmetic (l < k), so min() only undoes the rounding
    beta_p = min((h - k) / (h + k - 2.0 * l), 1.0)

    x_so_l = myopic_so_flow(l, params)
    x_so_h = myopic_so_flow(h, params)
    g_so_l = _stage_cost(x_so_l, l, params)
    g_so_h = _stage_cost(x_so_h, h, params)
    # Indifference between never experimenting (2*g0) and experimenting once,
    # solved for beta: 2*g0 = g(1, mu_beta) + beta*g_so_l + (1-beta)*g_so_h.
    lone = (s0 + s1 * (n - 1)) * (n - 1)  # safe-side cost of g(1, .)
    beta_so = (h + lone + g_so_h - 2.0 * g0) / (h - l + g_so_h - g_so_l)
    # Same quantity with the inner s1 group flipped; preserved for comparison.
    beta_so_alt = (h + g_so_h - (s0 * (n + 1) - s1 * ((2 + n) * n - 1))) / (
        h - l + g_so_h - g_so_l
    )

    for name, value in (("beta_so", beta_so), ("beta_p", beta_p), ("beta_f", beta_f)):
        if not math.isfinite(value):
            # the inputs are finite, so the arithmetic above overflowed
            raise FloatingPointError(f"the two-stage threshold {name} is {value}")
    # The rounded closed form can fall a float or two short of the belief at
    # which the experimenter follows (0, 0), as at h/K near 1e5; step up to
    # it, so that beta >= beta_p alone decides the region, the private
    # regime's cutoff and whether the solve experiments.
    for _ in range(_BETA_P_STEPS):
        if beta_p >= 1.0 or all_obedient(_ic_terms(beta_p, 0, 0, params)):
            break
        beta_p = float(np.nextafter(beta_p, 1.0))

    warnings = []
    if abs(beta_so - beta_so_alt) > 1e-9:
        warnings.append(
            "alternative beta_so grouping disagrees with the indifference value "
            f"({beta_so_alt:.6g} vs {beta_so:.6g}); the indifference value is "
            "authoritative"
        )
    return TwoStageThresholds(
        beta_so=beta_so,
        beta_p=beta_p,
        beta_f=beta_f,
        beta_so_alt=beta_so_alt,
        eq_flow_low=x_eq,
        so_flow_low=x_so_l,
        so_flow_high=x_so_h,
        warnings=tuple(warnings),
    )


def region(beta: float, th: TwoStageThresholds) -> str:
    """Classify a prior: A below beta_so, B below beta_p, C below beta_f, else D."""
    beta = _require_belief(beta)
    if beta < th.beta_so:
        return "A"
    if beta < th.beta_p:
        return "B"
    if beta < th.beta_f:
        return "C"
    return "D"


def _staying_safe(params: GameParams) -> float:
    """Expected two-round aggregate cost when nobody experiments: everyone
    takes the safe road in both rounds."""
    return 2.0 * _stage_cost(0, params.l, params)


def _regime_costs(beta: np.ndarray, regime: str, params: GameParams) -> np.ndarray:
    """The expected two-round cost of a regime, "full", "private" or
    "planner", at each belief of an array of checked in-gate beliefs.

    Below the regime's cutoff nobody experiments (_staying_safe). At or above
    it one agent experiments and round two has the regime's risky flows by
    revealed state; only those beliefs price the experiment, as the scheme
    with those flows, to the bit.
    """
    cutoff, experiment = _regimes(params)[regime]
    cost = np.full(len(beta), _staying_safe(params))
    on = beta >= cutoff
    if on.any():
        cost[on] = _scheme_cost(beta[on], experiment.flow_low - 1, experiment.flow_high, params)
    return cost


@_per_game
def _regimes(params: GameParams) -> dict[str, tuple[float, EquilibriumOutcome]]:
    """Each regime's cutoff and its outcome with an experiment: one agent, then
    the regime's round-two risky flows by state. Remembered per GameParams."""
    th = thresholds(params)
    return {
        "full": (th.beta_f, EquilibriumOutcome(1, th.eq_flow_low, 0)),
        "private": (th.beta_p, EquilibriumOutcome(1, 1, 0)),
        "planner": (th.beta_so, EquilibriumOutcome(1, th.so_flow_low, th.so_flow_high)),
    }


# ---------------------------------------------------------------------------
# recommendation schemes

def ic_constraints_eval(
    beta: float, pi2_low: int, pi2_high: int, params: GameParams
) -> list[ICEntry]:
    """Evaluate the three obedience constraints of a one-experimenter scheme.

    pi2_low / pi2_high are the counts of uninformed agents recommended onto
    the risky road in round two after a low / high report. The experimenter
    is always sent back onto a low road, so the low-state risky flow is
    pi2_low + 1; after a high report the experimenter goes safe and the flow
    is pi2_high. Each constraint is a model.ICEntry named by its state; one
    whose conditioning event has probability zero (nobody ever receives that
    recommendation) is vacuous.
    """
    beta = _require_belief(beta)
    _require_counts(pi2_low, pi2_high, params, arrays=False)
    pi2_low, pi2_high = int(pi2_low), int(pi2_high)
    return ic_entries(_ic_terms(beta, pi2_low, pi2_high, params))


def _require_counts(pi2_low, pi2_high, params: GameParams, arrays: bool) -> None:
    """Both risky counts are integers in 0..n-1, elementwise if arrays are allowed."""
    n = params.n
    for name, value in (("pi2_low", pi2_low), ("pi2_high", pi2_high)):
        _require_integer(name, value, arrays)
        if not _all((0 <= value) & (value <= n - 1)):
            raise ParameterError(f"{name} must be in 0..{n - 1} (only {n - 1} uninformed "
                                 f"agents), got {value}")


def _ic_terms(beta: float, pi2_low, pi2_high, params: GameParams) -> Iterator[tuple]:
    """Yield (state, follow, deviate, vacuous) for the three obedience constraints.

    Elementwise in the recommendation counts; a vacuous constraint's follow
    and deviate values read 0.
    """
    n, s0, s1, l, h = params.n, params.s0, params.s1, params.l, params.h
    x_l = pi2_low + 1
    x_h = pi2_high

    # Uninformed agent recommended the safe road. Among the n-1 uninformed,
    # n - x_l get r_S when the state is low, n - 1 - x_h when it is high.
    w_low = beta * (n - x_l)
    w_high = (1.0 - beta) * (n - 1 - x_h)
    denom = w_low + w_high
    yield ("recommended_safe",
           s0 + _div(s1 * (w_low * (n - x_l) + w_high * (n - x_h)), denom, 0.0),
           _div(w_low * l * (x_l + 1) + w_high * h * (x_h + 1), denom, 0.0),
           denom <= 0.0)

    # Uninformed agent recommended the risky road (x_l - 1 low slots beside
    # the experimenter, x_h high slots).
    w_low = beta * (x_l - 1)
    w_high = (1.0 - beta) * x_h
    denom = w_low + w_high
    yield ("recommended_risky",
           _div(w_low * l * x_l + w_high * h * x_h, denom, 0.0),
           s0 + _div(s1 * (w_low * (n - x_l + 1) + w_high * (n - x_h + 1)), denom, 0.0),
           denom <= 0.0)

    # The experimenter, weighing both rounds against refusing to experiment
    # (everyone stays safe both rounds if they refuse).
    yield ("experimenter",
           _expected_theta(beta, params) + beta * l * x_l + (1.0 - beta) * (s0 + s1 * (n - x_h)),
           2.0 * (s0 + s1 * n),
           False)


def _risky_filter(beta, params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """R over pi2_low = 0..n-1 and U over pi2_high = 0..n-1: every pair whose
    recommended_risky term _ic_terms finds vacuous or obedient has
    not (R_i + U_j > 0). beta is a belief, or a (k, 1) column of beliefs,
    which gives one row of R and of U per belief.

    In exact arithmetic the term separates by flow. Its follow cost is
    (a + b)/(w + v) and its deviation cost (s + t)/(w + v), where the
    weight w, the risky load a and the safe load s depend on pi2_low only,
    and v, b and t on pi2_high only; so the term reads a_i + b_j <= s_i + t_j.
    R_i = a_i - (1 + 1e-9)*s_i and U_j = b_j - (1 + 1e-9)*t_j.

    Why no such pair is dropped, in float arithmetic with unit roundoff u:
    - If the float verdict is true, a + b <= (s + t)(1 + 1e-12 + O(10u)),
      where 1e-12 is model.obedient's tolerance. All of these quantities
      are nonnegative, and s + t > 0 whenever w + v > 0, because s0 > 0.
    - So R + U <= -(1e-9 - 1e-12 - O(u))(s + t). The rounding error of the
      computed R + U is O(u)(a + b + s + t) <= O(u)(s + t), so the computed
      sum is <= 0 and the pair is kept.
    - A vacuous pair (w + v = 0) has a = b = s = t = 0, so it is kept.
    - A NaN from overflow fails the test R_i + U_j > 0, so its pair is kept.
    The filter only chooses pairs: each kept pair's verdicts and cost come
    from _ic_terms and _scheme_cost, as for any other pair. _risky_lines and
    _risky_pairs form the kept pairs.
    """
    n, s0, s1, l, h = params.n, params.s0, params.s1, params.l, params.h
    pi = np.arange(n)
    w = beta * pi
    v = (1.0 - beta) * pi
    margin = 1.0 + 1e-9
    return (w * l * (pi + 1) - margin * w * (s0 + s1 * (n - pi)),
            v * h * pi - margin * v * (s0 + s1 * (n - pi + 1)))


def _risky_lines(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows i and columns j that some belief b may keep under
    _risky_filter's test, not (low[b, i] + high[b, j] > 0), for (k, n)
    arrays with one row per belief.

    Belief b drops row i when low[b, i] + min(high[b]) > 0, and column j
    when min(low[b]) + high[b, j] > 0, before any pair is formed; a row or
    column stays when any belief keeps it. No dropped row or column holds a
    pair the test keeps:
    - IEEE rounded addition is monotone in each operand, so for non-NaN
      operands min(high[b]) <= high[b, j] gives low[b, i] + min(high[b]) <=
      low[b, i] + high[b, j], and a row whose least sum is > 0 has every
      sum > 0. The same holds for columns.
    - A NaN entry makes its row's minimum NaN, and a NaN minimum fails > 0
      for every row (or column) of that belief, so it drops nothing.
    - A pair whose sum is NaN from inf + (-inf) keeps its row and its
      column: the array holding the -inf has a minimum of -inf (or NaN),
      which sums with the +inf to NaN, and the -inf plus the other array's
      minimum is -inf or NaN; neither is > 0.
    In the solve low[b, 0] = high[b, 0] = 0 (pi2 = 0 carries no weight), so
    row 0 and column 0 always stay.

    One belief's kept rows and columns make a small strip. In the solve,
    with K = s0 + s1*n and m = 1 + 1e-9, in exact arithmetic:
    - low[i] = beta*i*(l*(i + 1) - m*(s0 + s1*(n - i))) and the bracket
      grows with i, so the kept rows are 0..rows-1. If h >= m*K, every
      high[j] >= 0 and a kept row has l*(i + 1) <= m*K: rows <= m*K/l.
    - Let A = -min(low). A kept column j >= 2 has 0 < high[j] <= A, since
      2*h > m*K. So A > 0: some kept row i >= 1 has l*(i + 1) < m*K, hence
      l < m*K/2, and A < beta*(rows - 1)*m*K.
    - high[j] >= (1 - beta)*((h - K)*j**2 + K*j*(j - m)), and gate
      condition 2 (beta < (h - K)/(h - l)) gives beta/(1 - beta) <
      (h - K)/(K - l) < 2*(h - K)/((2 - m)*K). Together:
      (h - K)*j**2/K + j*(j - m) < 2*m*(rows - 1)*(h - K)/((2 - m)*K).
    - The first term gives j**2 < 2*m*(rows - 1)/(2 - m); the second rules
      out every j >= 2 when h < m*K, as rows <= n <= model._MAX_N.
    So cols <= max(2, 1 + sqrt(2*m*(rows - 1)/(2 - m))), and the strip
    holds at most about n*(1 + sqrt(2*n)) entries (_block_bound): 45,722 at
    n = 1000, a float and a bool each, under 0.5 MB for the sum test. The
    widest strip seen in scans of extreme in-gate games is 1000 x 32, at
    h = 86,740*K.
    """
    # np.flatnonzero, inlined: at small n its wrapper costs more than the work.
    rows = (~(low + high.min(axis=1, keepdims=True) > 0)).any(axis=0).nonzero()[0]
    cols = (~(low.min(axis=1, keepdims=True) + high > 0)).any(axis=0).nonzero()[0]
    return rows, cols


def _risky_pairs(low: np.ndarray, high: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triples (b, i, j) with not (low[b, i] + high[b, j] > 0) among the
    box of beliefs x rows x cols from _risky_lines, in belief order and
    row-major order within a belief: the number of triples of each belief,
    then the i and the j of every triple. Each belief's pairs are exactly
    those of its full test, in the full test's order.

    The box sum ignores overflow: a belief of a stacked block meets rows and
    columns only other beliefs keep, and there +inf drops a pair that cannot
    pass while NaN keeps it (_risky_filter), so a block raises nowhere its
    beliefs alone would not."""
    with np.errstate(over="ignore", invalid="ignore"):
        b, i, j = (~(low[:, rows, None] + high[:, None, cols] > 0)).nonzero()
    return np.bincount(b, minlength=len(low)), rows[i], cols[j]


def _block_bound(n: int) -> float:
    """Most entries one array of a solve block may hold: _risky_lines' bound
    on one belief's strip, n*(1 + sqrt(2n))."""
    return n * (1.0 + math.sqrt(2.0 * n))


def _strip_solve(betas: list[float], params: GameParams) -> list[tuple[int, int, float, int]]:
    """(pi2_low, pi2_high, cost, n_feasible) of the cheapest obedient scheme
    at each belief of betas, checked in-gate beliefs at or above beta_p.

    The beliefs run as one block: _risky_filter takes them as a (k, 1)
    column, a row or column stays when any belief keeps it, each (belief,
    pi2_low, pi2_high) triple of that box is tested against its own
    belief's sums, and _ic_terms and _scheme_cost run once over the kept
    triples. A block whose (k, n) filter or (k, rows, cols) box would hold
    more than _block_bound(n) entries is split in halves, so no array
    outgrows one belief's strip bound; a single belief runs as it is.

    Each belief's winner comes from its own triples by argmin: the first
    minimum in row-major order, or the first NaN, which raises InternalError
    as the trailing inf does (no obedient pair) and as a cheapest cost of
    inf does.
    """
    triples = _block_pairs(betas, params)
    if triples is None:
        k = len(betas)
        return _strip_solve(betas[:k // 2], params) + _strip_solve(betas[k // 2:], params)
    return _block_winners(betas, *triples, params)


def _block_pairs(betas: list[float],
                 params: GameParams) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The kept (belief, pi2_low, pi2_high) triples of betas as one block, or
    None when its (k, n) filter or its (k, rows, cols) box would hold more
    than _block_bound(n) entries; a single belief always fits. The filter
    goes when this returns, so a block that splits holds none of it."""
    k, bound = len(betas), _block_bound(params.n)
    if k > 1 and k * params.n > bound:
        return None
    low, high = _risky_filter(np.array(betas)[:, None], params)
    rows, cols = _risky_lines(low, high)
    if k > 1 and k * len(rows) * len(cols) > bound:
        return None
    return _risky_pairs(low, high, rows, cols)


def _block_winners(betas: list[float], counts: np.ndarray, pi_l: np.ndarray, pi_h: np.ndarray,
                   params: GameParams) -> list[tuple[int, int, float, int]]:
    """_strip_solve's verdicts, costs and winners on a block's kept triples,
    counts of them per belief."""
    beta = np.repeat(np.array(betas), counts)  # each triple's belief
    obedient = all_obedient(_ic_terms(beta, pi_l, pi_h, params))
    # where each belief's triples end among the obedient ones
    ends = np.searchsorted(np.flatnonzero(obedient), np.cumsum(counts)).tolist()
    pi_l, pi_h = pi_l[obedient], pi_h[obedient]
    cost = _scheme_cost(beta[obedient], pi_l, pi_h, params)
    winners, start = [], 0
    for beta, end in zip(betas, ends):
        # argmin takes the first minimum in row-major order, or the first
        # NaN; it takes the trailing inf only when no pair is obedient.
        own = np.append(cost[start:end], np.inf)
        i = int(np.argmin(own))
        if start + i == end or np.isnan(own[i]):
            raise InternalError(
                f"no obedient scheme found at beta={beta}; expected (0, 0) to be "
                "obedient for beta >= beta_p"
            )
        pi2_low, pi2_high = int(pi_l[start + i]), int(pi_h[start + i])
        if not np.isfinite(own[i]):
            raise InternalError(
                f"the cheapest obedient scheme at beta={beta}, ({pi2_low}, {pi2_high}), "
                f"costs {own[i]}: the game's costs leave the floating-point range"
            )
        winners.append((pi2_low, pi2_high, float(own[i]), end - start))
        start = end
    return winners


def scheme_cost_two_stage(
    beta: float, pi2_low: int, pi2_high: int, params: GameParams
) -> float:
    """Expected aggregate cost of a one-experimenter scheme (ignoring ICs).

    pi2_low and pi2_high may be integer arrays that broadcast together; the
    cost then has their broadcast shape.
    """
    beta = _require_belief(beta)
    _require_counts(pi2_low, pi2_high, params, arrays=True)
    return _scheme_cost(beta, pi2_low, pi2_high, params)


def _scheme_cost(beta: float, pi2_low, pi2_high, params: GameParams):
    """scheme_cost_two_stage for a checked belief and counts pi2_low and
    pi2_high in 0..n-1."""
    return (
        _stage_cost(1, _expected_theta(beta, params), params)
        + beta * _stage_cost(pi2_low + 1, params.l, params)
        + (1.0 - beta) * _stage_cost(pi2_high, params.h, params)
    )


@dataclass(frozen=True)
class BeliefPoint:
    """belief_sweep record: the values one row of `roadrec two-stage` prints,
    and the solve's count of obedient schemes.

    A belief outside the gate has gated True, its gate's failures joined
    by "; " in note, and None in every other field but beta. A belief
    inside it has its region, the three benchmark costs, the optimal
    scheme's cost v_partial, whether that scheme experiments and its
    counts (None without an experiment), note None, and n_feasible, the
    number of obedient (pi2_low, pi2_high) pairs (0 without an experiment).
    """

    beta: float
    gated: bool
    region: str | None = None
    v_full: float | None = None
    v_private: float | None = None
    v_partial: float | None = None
    v_so: float | None = None
    experiment: bool | None = None
    pi2_low: int | None = None
    pi2_high: int | None = None
    note: str | None = None
    n_feasible: int | None = None


def belief_sweep(params: GameParams, betas: Iterable[float]) -> list[BeliefPoint]:
    """Gate, price and solve the two-stage model at each belief, in order:
    the one two-stage entry point, of which one belief is the grid [beta].

    The gate runs once per belief, and the three benchmark regimes are
    priced as arrays over the in-gate beliefs (_regime_costs). Below beta_p
    no experimenter can be motivated: the optimal scheme is nobody
    experimenting, at cost 2*g(0). Every in-gate belief at or above beta_p
    is solved by _strip_solve, in blocks of stacked beliefs that no array of
    which outgrows one belief's strip bound; its scheme is the cheapest
    obedient (pi2_low, pi2_high) pair, ties going to the lexicographically
    smallest. The pair (0, 0) is obedient at or above beta_p (thresholds
    steps beta_p up to the first float where it is), so there is always one.

    Every belief is checked before any solve, so a belief that is not a
    number in [0, 1] stops the sweep before any work.
    """
    gates = []
    for beta in betas:
        gate = check_assumption_two_stage(beta, params)
        gates.append((float(beta), gate))
    inside = [beta for beta, gate in gates if gate.passed]
    if inside:
        th = thresholds(params)  # the gate passed, so l < s0 + s1
        experimenting = [beta for beta in inside if beta >= th.beta_p]
        schemes = iter(_strip_solve(experimenting, params) if experimenting else ())
        priced = np.array(inside)
        costs = zip(*(_regime_costs(priced, regime, params).tolist()
                      for regime in ("full", "private", "planner")))
    points = []
    for beta, gate in gates:
        if not gate.passed:
            points.append(BeliefPoint(beta, True, note="; ".join(gate.failures)))
            continue
        v_full, v_private, v_so = next(costs)
        experiment = beta >= th.beta_p
        pi2_low, pi2_high, v_partial, n_feasible = (
            next(schemes) if experiment else (None, None, _staying_safe(params), 0))
        points.append(BeliefPoint(beta, False, region(beta, th), v_full, v_private, v_partial,
                                  v_so, experiment, pi2_low, pi2_high, n_feasible=n_feasible))
    return points


# ---------------------------------------------------------------------------
# equilibrium benchmarks and the brute-force oracle

@dataclass(frozen=True)
class EquilibriumOutcome:
    """On-path outcome of a two-stage equilibrium profile (or of the planner).

    experimenters is the first-round risky flow; flow_low / flow_high are the
    second-round risky flows by road state. When nobody experiments the state
    is never learned and both flows coincide. profiles counts how many
    distinct strategy multisets support the outcome (brute force only).
    """

    experimenters: int
    flow_low: int
    flow_high: int
    profiles: int = field(default=0, compare=False)


def equilibrium_flows(beta: float, regime: str, params: GameParams) -> EquilibriumOutcome:
    """Predicted equilibrium outcome for a benchmark revelation regime.

    Under either regime there is no experimentation below the regime's
    threshold; at or above it a single agent experiments and the second-round
    low-state flow is the one-shot equilibrium flow (public revelation) or
    just the experimenter (private revelation).
    """
    beta = _require_belief(beta)
    if regime not in _REGIMES:
        raise ParameterError(f"regime must be one of {_REGIMES}, got {regime!r}")
    cutoff, experiment = _regimes(params)[regime]
    return EquilibriumOutcome(0, 0, 0) if beta < cutoff else experiment


def _strategy_bits(s: int) -> tuple[int, int, int, int]:
    """Decode strategy id -> (round1 risky, act on no info, act on L, act on H)."""
    return s & 1, (s >> 1) & 1, (s >> 2) & 1, (s >> 3) & 1


@functools.lru_cache(maxsize=None)
def _strategy_columns() -> np.ndarray:
    """The 16 strategies as a read-only (16, 6) table of 0/1 columns: their
    four bits, then their round-two action by state under private revelation
    (own observation if experimenting, otherwise the no-information action)."""
    rows = []
    for s in range(16):
        a1, fn, fl, fh = _strategy_bits(s)
        rows.append((a1, fn, fl, fh, fl if a1 else fn, fh if a1 else fn))
    cols = np.array(rows)
    cols.flags.writeable = False
    return cols


def _strategy_counts(n: int) -> np.ndarray:
    """Every multiset of n strategies, one row of a (C(n+15, n), 16) int8 count matrix.

    Built strategy by strategy: each partial row splits into one row per
    count the next strategy can take from the agents still unassigned. Only
    _profile_index reads it, once per n; the index is what stays cached, and
    for n = 2..6 together it takes 1.9 MB.
    """
    counts = np.zeros((1, 0), dtype=np.int8)
    left = np.array([n])
    for _ in range(15):
        reps = left + 1
        take = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack((np.repeat(counts, reps, axis=0), take.astype(np.int8)))
        left = np.repeat(left, reps) - take
    return np.column_stack((counts, left.astype(np.int8)))


# The other agents' totals each regime's costs read, as columns of
# _strategy_columns: (k, sn, sl, sh) under public revelation, (k, pl, ph)
# under private revelation; each runs 0..n-1. The last two are the
# round-two risky counts in the low and the high state.
_READS = {"full": [0, 1, 2, 3], "private": [0, 4, 5]}


@dataclass(frozen=True)
class _ProfileIndex:
    """What brute_force_equilibrium reads of the strategy multisets of n agents.

    A pair is a multiset and one strategy it holds; pairs run multiset by
    multiset, and starts holds where each multiset's pairs begin (int32).
    entry[regime] holds each pair's position in that regime's flattened
    (cell, strategy) table, where the cell is the base-n number of the
    other agents' totals the regime reads (int16). outcome[regime] holds
    each multiset's on-path outcome as the base-(n+1) number of
    (experimenters, low flow, high flow), which sorts them (int16). Nothing
    here depends on the game.
    """

    starts: np.ndarray
    entry: dict[str, np.ndarray]
    outcome: dict[str, np.ndarray]


@functools.lru_cache(maxsize=None)
def _profile_index(n: int) -> _ProfileIndex:
    """The profile index for n agents, built once per n and kept read-only.

    Built in int16, with no array wider than that per pair: no cell or
    outcome number reaches 2**15 at n <= 6.
    """
    cols = _strategy_columns()
    counts = _strategy_counts(n)
    held = counts > 0
    # np.dot, not @ or **: integer matmul and power would page in 128 kB more
    # of numpy's code.
    totals = np.dot(counts, cols.astype(np.int8)).astype(np.int16)
    size = np.count_nonzero(held, axis=1)  # at least 1: every multiset holds n agents
    starts = (np.cumsum(size) - size).astype(np.int32)
    k1, sn = totals[:, 0], totals[:, 1]
    base = n + 1
    entry, outcome = {}, {}
    for regime, read in _READS.items():
        strides = np.array([n**k for k in reversed(range(len(read)))], dtype=np.int16)
        # A pair's cell is its multiset's totals less its own strategy's
        # column; boolean indexing takes the held pairs in row order.
        own = (np.arange(16) - 16 * np.dot(cols[:, read], strides)).astype(np.int16)
        entry[regime] = (np.repeat(np.dot(totals[:, read], strides) * 16, size)
                         + np.broadcast_to(own, held.shape)[held])
        low, high = totals[:, read[-2]], totals[:, read[-1]]
        # Nobody experiments: the state is never learned and both flows are sn.
        outcome[regime] = ((k1 * base + np.where(k1 >= 1, low, sn)) * base
                           + np.where(k1 >= 1, high, sn))
    index = _ProfileIndex(starts, entry, outcome)
    for array in (starts, *entry.values(), *outcome.values()):
        array.flags.writeable = False
    return index


def brute_force_equilibrium(
    params: GameParams, beta: float, regime: str = "full"
) -> list[EquilibriumOutcome]:
    """Enumerate pure-strategy equilibria of the two-stage game.

    A strategy is a first-round road choice plus a second-round choice for
    each information condition (nothing observed / low observed / high
    observed); 16 per agent. Costs depend only on how many agents play each
    strategy, so the search runs over all strategy multisets at once. An
    agent's cost depends on the rest of the profile only through the other
    agents' totals its regime reads (first-round risky count and the
    second-round risky counts by information condition), so the 16
    strategies' costs are tabulated once over that grid of cells. A
    multiset is an equilibrium when no strategy it contains has an
    alternative cheaper by more than 1e-9 of its own cost.

    In the full-revelation regime a profile must additionally be credible:
    the complete second-round action profile after a revealed state must be a
    one-shot equilibrium of that state's congestion game. This prunes
    profiles that deter experimentation with second-round threats nobody
    would carry out. Its one-shot test allows 1e-9 of coef*n + s0 + s1*n,
    the state's largest risky cost plus its largest safe cost. The private
    regime needs no such filter because uninformed agents cannot react to a
    deviation they never observe.

    Every cost is positive, so both tolerances are relative: scaling every
    cost by a power of two leaves every verdict unchanged.

    Both tests are per strategy and cell, so a call fills one (cell,
    strategy) table of bad strategies and reads it through the per-n
    _profile_index: every (multiset, strategy it holds) pair looks up its
    entry, and each multiset with a bad entry is dropped.

    Returns the distinct on-path outcomes, sorted, with supporting-profile
    counts. Exhaustive in the number of agents; refuses n > 6.
    """
    beta = _require_belief(beta)
    if regime not in _REGIMES:
        raise ParameterError(f"regime must be one of {_REGIMES}, got {regime!r}")
    if params.n > 6:
        raise ParameterError(
            f"brute force enumerates 16^n strategy profiles; n={params.n} is too large (max 6)"
        )
    n = params.n
    # As floats, integer costs cannot wrap in int64 arrays; below 2**53 every
    # sum and product is the exact value scalar arithmetic would give.
    s0, s1, l, h = (float(v) for v in (params.s0, params.s1, params.l, params.h))
    a1, fn, fl, fh, priv_low, priv_high = _strategy_columns().T
    read = _READS[regime]
    grid = np.indices((n,) * len(read)).reshape(len(read), -1, 1)
    x1 = grid[0] + a1
    if regime == "full":
        informed = x1 >= 1
        t_low, act_low = np.where(informed, grid[2], grid[1]), np.where(informed, fl, fn)
        t_high, act_high = np.where(informed, grid[3], grid[1]), np.where(informed, fh, fn)
    else:
        t_low, t_high, act_low, act_high = grid[1], grid[2], priv_low, priv_high
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN propagate silently
        c1_safe = s0 + s1 * (n - x1)
        cost = beta * (
            np.where(a1, l * x1, c1_safe)
            + np.where(act_low, l * (t_low + 1), s0 + s1 * (n - t_low))
        ) + (1.0 - beta) * (
            np.where(a1, h * x1, c1_safe)
            + np.where(act_high, h * (t_high + 1), s0 + s1 * (n - t_high))
        )
        # fmin skips NaN as the strict test does; no strategy beats itself by
        # more than its tolerance, so it can stay in its row's minimum.
        bad = np.fmin.reduce(cost, axis=1, keepdims=True) < cost - 1e-9 * cost
        if regime == "full":
            # stable[state, act, total]: that round-two action is a one-shot
            # best response when total agents in all take the risky road in
            # that state. The total is the others' count in the cell plus the
            # strategy's own action.
            coef, total = np.array([[l], [h]]), np.arange(n + 1)
            tol = 1e-9 * (coef * n + s0 + s1 * n)
            stable = np.stack((s0 + s1 * (n - total) <= coef * (total + 1) + tol,
                               coef * total <= s0 + s1 * (n - total + 1) + tol), axis=1)
            bad |= ~(stable[0, fl, grid[2] + fl] & stable[1, fh, grid[3] + fh])

    # A multiset is an equilibrium when no strategy it holds is bad in its cell.
    index = _profile_index(n)
    ok = ~np.logical_or.reduceat(bad.take(index.entry[regime]), index.starts)
    base = n + 1
    found = np.bincount(index.outcome[regime][ok], minlength=base**3)
    outcomes = []
    for key in np.flatnonzero(found).tolist():
        k, rest = divmod(key, base * base)
        outcomes.append(EquilibriumOutcome(k, *divmod(rest, base), profiles=int(found[key])))
    return outcomes


def oracle_checks(params: GameParams, betas: list[float]) -> list[dict]:
    """Each regime's predicted outcome against its brute force, as {name,
    passed, detail} dicts: one per belief outside the gate, else one per
    belief and regime. At a regime's cutoff the experimenter is indifferent
    within the brute force's relative 1e-9, so it may find both the
    no-experiment outcome and the experiment; that passes when the
    prediction is one of them and the experimenter term ties. Every belief
    is checked before the first brute force."""
    gates = [check_assumption_two_stage(beta, params) for beta in betas]
    checks = []
    for beta, gate in zip(betas, gates):
        if not gate.passed:
            checks.append({"name": f"beta={beta:.12g}", "passed": False, "detail":
                           "outside two-stage assumptions: " + "; ".join(gate.failures)})
            continue
        for regime in _REGIMES:
            _, experiment = _regimes(params)[regime]
            predicted = equilibrium_flows(beta, regime, params)
            found = brute_force_equilibrium(params, beta, regime=regime)
            ok = found == [predicted]
            tie = [EquilibriumOutcome(0, 0, 0), experiment]
            if found == tie and predicted in tie:
                # the experimenter term of the scheme _regime_costs prices
                *_, (_, follow, deviate, _) = _ic_terms(
                    beta, experiment.flow_low - 1, experiment.flow_high, params)
                ok = abs(deviate - follow) <= 1e-9 * max(follow, deviate)
            want = (predicted.experimenters, predicted.flow_low, predicted.flow_high)
            got = [(o.experimenters, o.flow_low, o.flow_high) for o in found]
            checks.append({"name": f"beta={beta:.12g} regime={regime}", "passed": ok,
                           "detail": f"predicted {want}, brute force found {got}"})
    return checks
