"""Two-stage experimentation model (fixed road state, two rounds).

The risky coefficient theta is drawn once (P(low) = beta) and stays put for
both rounds. Nobody starts out informed; whoever uses the risky road in round
one learns theta and, in the recommendation scheme, reports it to the
coordinator. The module computes

* the three prior thresholds above which experimentation is sustainable
  (socially worthwhile / with private revelation / with public revelation),
* expected two-round aggregate costs of the benchmark regimes,
* the optimal incentive-compatible recommendation scheme with one
  experimenter (exhaustive search over second-round recommendation counts,
  one pi2_low row at a time as a vector over pi2_high),
* a brute-force equilibrium enumerator used as an independent oracle for the
  benchmark regimes.

Everything here assumes a single experimenter in round one; sending two or
more is dominated whenever experimentation is costly (gate condition 2),
because the first-round risky cost alone already exceeds the total two-round
cost of staying safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from .model import (
    AssumptionError,
    GameParams,
    InternalError,
    ParameterError,
    _div,
    _require_belief,
    check_assumption_two_stage,
    expected_theta,
    myopic_eq_flow,
    myopic_so_flow,
    stage_cost,
)

_REGIMES = ("full", "private")


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


def thresholds(params: GameParams) -> TwoStageThresholds:
    """Compute the three experimentation thresholds.

    Requires gate condition 1 (l < s0 + s1); condition 2 depends on beta and
    is checked by the cost functions instead.
    """
    if not params.l < params.s0 + params.s1:
        raise AssumptionError(
            "two-stage thresholds need l < s0 + s1, got "
            f"l={params.l}, s0+s1={params.s0 + params.s1}"
        )
    n, s0, s1, l, h = params.n, params.s0, params.s1, params.l, params.h
    k = s0 + s1 * n
    g0 = stage_cost(0, l, params)

    x_eq = myopic_eq_flow(l, params)
    g_eq = stage_cost(x_eq, l, params)
    beta_f = (h - k) / (h - l + k - g_eq / n)

    beta_p = (h - k) / (h + k - 2.0 * l)

    x_so_l = myopic_so_flow(l, params)
    x_so_h = myopic_so_flow(h, params)
    g_so_l = stage_cost(x_so_l, l, params)
    g_so_h = stage_cost(x_so_h, h, params)
    # Indifference between never experimenting (2*g0) and experimenting once,
    # solved for beta: 2*g0 = g(1, mu_beta) + beta*g_so_l + (1-beta)*g_so_h.
    lone = (s0 + s1 * (n - 1)) * (n - 1)  # safe-side cost of g(1, .)
    beta_so = (h + lone + g_so_h - 2.0 * g0) / (h - l + g_so_h - g_so_l)
    # Same quantity with the inner s1 group flipped; preserved for comparison.
    beta_so_alt = (h + g_so_h - (s0 * (n + 1) - s1 * ((2 + n) * n - 1))) / (
        h - l + g_so_h - g_so_l
    )

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


def _require_gate(beta: float, params: GameParams) -> TwoStageThresholds:
    """The thresholds, once beta is inside the two-stage gate."""
    gate = check_assumption_two_stage(beta, params)
    if not gate.passed:
        raise AssumptionError(
            "two-stage gate fails at beta=%g: %s" % (beta, "; ".join(gate.failures()))
        )
    return thresholds(params)


def _two_rounds(
    beta: float, params: GameParams, experiment: bool, flow_low: int, flow_high: int
) -> float:
    """Expected two-round aggregate cost: everyone safe in both rounds, or one
    experimenter and then flow_low / flow_high risky users by revealed state."""
    if not experiment:
        return 2.0 * stage_cost(0, params.l, params)
    second = beta * stage_cost(flow_low, params.l, params) + (
        1.0 - beta
    ) * stage_cost(flow_high, params.h, params)
    return stage_cost(1, expected_theta(beta, params), params) + second


def cost_full(beta: float, params: GameParams) -> float:
    """Expected two-round aggregate cost of equilibrium under public revelation."""
    beta = _require_belief(beta)
    th = _require_gate(beta, params)
    return _two_rounds(beta, params, beta >= th.beta_f, th.eq_flow_low, 0)


def cost_private(beta: float, params: GameParams) -> float:
    """Expected cost under private revelation (only the experimenter learns)."""
    beta = _require_belief(beta)
    th = _require_gate(beta, params)
    return _two_rounds(beta, params, beta >= th.beta_p, 1, 0)


def cost_social_optimum(beta: float, params: GameParams) -> float:
    """Expected cost when a planner dictates both rounds (no incentives)."""
    beta = _require_belief(beta)
    th = _require_gate(beta, params)
    return _two_rounds(beta, params, beta >= th.beta_so, th.so_flow_low, th.so_flow_high)


# ---------------------------------------------------------------------------
# recommendation schemes

@dataclass(frozen=True)
class ICSlack2:
    """One obedience constraint of a two-stage scheme.

    slack = deviation cost - following cost, so nonnegative means obedient.
    A constraint whose conditioning event has zero probability (nobody ever
    receives that recommendation) is vacuous: values are None and it counts
    as satisfied.
    """

    constraint: str
    follow: float | None
    deviate: float | None
    slack: float | None
    vacuous: bool = False

    @property
    def satisfied(self) -> bool:
        return self.vacuous or self.slack >= 0.0


def ic_constraints_eval(
    beta: float, pi2_low: int, pi2_high: int, params: GameParams
) -> list[ICSlack2]:
    """Evaluate the three obedience constraints of a one-experimenter scheme.

    pi2_low / pi2_high are the counts of uninformed agents recommended onto
    the risky road in round two after a low / high report. The experimenter
    is always sent back onto a low road, so the low-state risky flow is
    pi2_low + 1; after a high report the experimenter goes safe and the flow
    is pi2_high.
    """
    beta = _require_belief(beta)
    n = params.n
    for name, value in (("pi2_low", pi2_low), ("pi2_high", pi2_high)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        if not 0 <= value <= n - 1:
            raise ParameterError(
                f"{name} must be in 0..{n - 1} (only {n - 1} uninformed agents), got {value}"
            )
    return [
        ICSlack2(name, None, None, None, vacuous=True) if vacuous
        else ICSlack2(name, float(follow), float(deviate), float(deviate - follow))
        for name, follow, deviate, vacuous in _ic_terms(beta, pi2_low, pi2_high, params)
    ]


def _ic_terms(beta: float, pi2_low, pi2_high, params: GameParams) -> Iterator[tuple]:
    """Yield (constraint, follow, deviate, vacuous) for the three obedience constraints.

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
           expected_theta(beta, params) + beta * l * x_l + (1.0 - beta) * (s0 + s1 * (n - x_h)),
           2.0 * (s0 + s1 * n),
           False)


@dataclass(frozen=True)
class TwoStageScheme:
    """Optimal incentive-compatible two-stage recommendation scheme."""

    experiment: bool
    pi2_low: int | None
    pi2_high: int | None
    expected_cost: float
    slacks: tuple[ICSlack2, ...]
    n_feasible: int

    @property
    def flows(self) -> tuple[int, int] | None:
        if not self.experiment:
            return None
        return (self.pi2_low + 1, self.pi2_high)


def scheme_cost_two_stage(
    beta: float, pi2_low: int, pi2_high: int, params: GameParams
) -> float:
    """Expected aggregate cost of a one-experimenter scheme (ignoring ICs).

    pi2_high may be an integer array; the cost then has its shape.
    """
    beta = _require_belief(beta)
    return (
        stage_cost(1, expected_theta(beta, params), params)
        + beta * stage_cost(pi2_low + 1, params.l, params)
        + (1.0 - beta) * stage_cost(pi2_high, params.h, params)
    )


def solve_optimal_scheme(beta: float, params: GameParams) -> TwoStageScheme:
    """Minimise expected cost over obedient one-experimenter schemes.

    Below beta_p no experimenter can be motivated and the no-experimentation
    scheme (everyone safe, cost 2*g(0)) is returned. At or above beta_p the
    search evaluates all (pi2_low, pi2_high) pairs, one pi2_low row at a
    time as a vector over pi2_high, keeps those whose three obedience
    constraints hold, and returns the cheapest; ties resolve to the
    lexicographically smallest pair. The pair (0, 0) is always obedient at or
    above beta_p, so the feasible set cannot be empty.
    """
    beta = _require_belief(beta)
    th = _require_gate(beta, params)
    if beta < th.beta_p:
        return TwoStageScheme(
            experiment=False,
            pi2_low=None,
            pi2_high=None,
            expected_cost=_two_rounds(beta, params, False, 0, 0),
            slacks=(),
            n_feasible=0,
        )
    pi_h = np.arange(params.n)
    best, best_cost, n_feasible = None, np.inf, 0
    for pi_l in range(params.n):
        obedient = np.ones(params.n, dtype=bool)
        for _, follow, deviate, vacuous in _ic_terms(beta, pi_l, pi_h, params):
            obedient &= vacuous | (deviate - follow >= 0.0)
        n_feasible += int(np.count_nonzero(obedient))
        cost = np.where(obedient, scheme_cost_two_stage(beta, pi_l, pi_h, params), np.inf)
        k = int(np.argmin(cost))
        if cost[k] < best_cost:
            best, best_cost = (pi_l, k), float(cost[k])
    if best is None:
        raise InternalError(
            f"no obedient scheme found at beta={beta}; expected (0, 0) to be "
            "obedient for beta >= beta_p"
        )
    return TwoStageScheme(
        experiment=True,
        pi2_low=best[0],
        pi2_high=best[1],
        expected_cost=best_cost,
        slacks=tuple(ic_constraints_eval(beta, best[0], best[1], params)),
        n_feasible=n_feasible,
    )


# ---------------------------------------------------------------------------
# equilibrium benchmarks and the brute-force oracle

@dataclass(frozen=True)
class EquilibriumOutcome:
    """On-path outcome of a two-stage equilibrium profile.

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
    th = thresholds(params)
    cutoff = th.beta_f if regime == "full" else th.beta_p
    if beta < cutoff:
        return EquilibriumOutcome(0, 0, 0)
    flow_low = th.eq_flow_low if regime == "full" else 1
    return EquilibriumOutcome(1, flow_low, 0)


def _strategy_bits(s: int) -> tuple[int, int, int, int]:
    """Decode strategy id -> (round1 risky, act on no info, act on L, act on H)."""
    return s & 1, (s >> 1) & 1, (s >> 2) & 1, (s >> 3) & 1


def brute_force_equilibrium(
    params: GameParams, beta: float, regime: str = "full"
) -> list[EquilibriumOutcome]:
    """Enumerate pure-strategy equilibria of the two-stage game.

    A strategy is a first-round road choice plus a second-round choice for
    each information condition (nothing observed / low observed / high
    observed); 16 per agent. Costs depend only on how many agents play each
    strategy, so the search runs over strategy multisets and checks one
    representative per distinct strategy against all 16 alternatives.

    In the full-revelation regime a profile must additionally be credible:
    the complete second-round action profile after a revealed state must be a
    one-shot equilibrium of that state's congestion game. This prunes
    profiles that deter experimentation with second-round threats nobody
    would carry out. The private regime needs no such filter because
    uninformed agents cannot react to a deviation they never observe.

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
    n, s0, s1, l, h = params.n, params.s0, params.s1, params.l, params.h
    bits = [_strategy_bits(s) for s in range(16)]
    # Private-regime round-2 action by state: own observation if experimenting.
    priv_low = [fl if a1 else fn for a1, fn, fl, fh in bits]
    priv_high = [fh if a1 else fn for a1, fn, fl, fh in bits]

    def agent_cost(s_dev: int, others: tuple[int, int, int, int, int, int]) -> float:
        k_o, sn_o, sl_o, sh_o, pl_o, ph_o = others
        a1, fn, fl, fh = bits[s_dev]
        x1 = k_o + a1
        if a1:
            c1_low, c1_high = l * x1, h * x1
        else:
            c1_low = c1_high = s0 + s1 * (n - x1)
        if regime == "full":
            if x1 >= 1:
                t_low, t_high = sl_o, sh_o
                act_low, act_high = fl, fh
            else:
                t_low = t_high = sn_o
                act_low = act_high = fn
        else:
            t_low, t_high = pl_o, ph_o
            act_low = (fl if a1 else fn)
            act_high = (fh if a1 else fn)
        c2_low = l * (t_low + 1) if act_low else s0 + s1 * (n - t_low)
        c2_high = h * (t_high + 1) if act_high else s0 + s1 * (n - t_high)
        return beta * (c1_low + c2_low) + (1.0 - beta) * (c1_high + c2_high)

    def one_shot_stable(coef: float, total: int, act: int) -> bool:
        tol = 1e-9 * (1.0 + coef * n + s0 + s1 * n)
        if act:
            return coef * total <= s0 + s1 * (n - total + 1) + tol
        return s0 + s1 * (n - total) <= coef * (total + 1) + tol

    outcomes: dict[tuple[int, int, int], int] = {}
    for profile in combinations_with_replacement(range(16), n):
        counts = [0] * 16
        for s in profile:
            counts[s] += 1
        totals = (
            sum(c * bits[s][0] for s, c in enumerate(counts) if c),
            sum(c * bits[s][1] for s, c in enumerate(counts) if c),
            sum(c * bits[s][2] for s, c in enumerate(counts) if c),
            sum(c * bits[s][3] for s, c in enumerate(counts) if c),
            sum(c * priv_low[s] for s, c in enumerate(counts) if c),
            sum(c * priv_high[s] for s, c in enumerate(counts) if c),
        )
        k1, sn, sl, sh, pl, ph = totals

        if regime == "full":
            credible = True
            for s, c in enumerate(counts):
                if not c:
                    continue
                if not one_shot_stable(l, sl, bits[s][2]) or not one_shot_stable(
                    h, sh, bits[s][3]
                ):
                    credible = False
                    break
            if not credible:
                continue

        is_eq = True
        support = [s for s, c in enumerate(counts) if c]
        for s in support:
            others = (
                k1 - bits[s][0],
                sn - bits[s][1],
                sl - bits[s][2],
                sh - bits[s][3],
                pl - priv_low[s],
                ph - priv_high[s],
            )
            base = agent_cost(s, others)
            tol = 1e-9 * (1.0 + abs(base))
            for s_alt in range(16):
                if s_alt != s and agent_cost(s_alt, others) < base - tol:
                    is_eq = False
                    break
            if not is_eq:
                break
        if not is_eq:
            continue

        if k1 >= 1:
            key = (k1, sl, sh) if regime == "full" else (k1, pl, ph)
        else:
            key = (0, sn, sn)
        outcomes[key] = outcomes.get(key, 0) + 1

    return [
        EquilibriumOutcome(k, fl, fh, profiles=c)
        for (k, fl, fh), c in sorted(outcomes.items())
    ]
