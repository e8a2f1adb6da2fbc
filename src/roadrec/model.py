"""Primitives for the two-road routing game.

N agents commute every stage between a safe road and a risky road. The safe
road costs ``S0 + S1 * (number of users)`` per user. The risky road costs
``theta * (number of users)`` per user, where the coefficient theta is either
low (L) or high (H) and, in the dynamic model, follows a two-state Markov
chain: gamma_l is the chance of jumping low -> high, gamma_h of high -> low.

Everything downstream (two-stage schemes, infinite-horizon schemes, the
simulator) builds on the handful of quantities defined here: the aggregate
stage cost, belief updates, one-shot socially optimal and equilibrium flows,
and the assumption gates that decide whether a parameter set is inside the
regime the scheme constructions are valid for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np


class ParameterError(ValueError):
    """Raised for out-of-domain arguments or malformed parameter files."""


class AssumptionError(RuntimeError):
    """Raised when an operation requires an assumption gate that fails."""


class InternalError(RuntimeError):
    """Raised when an identity the closed forms guarantee breaks (a bug, not bad input)."""


# Largest population a GameParams accepts: the (c, d) search is known to run
# at n = 1000 (about 2 s and 216 MB), and flows are indexed by 0..n.
_MAX_N = 1000

# Largest integer magnitude a parameter may have: every integer up to 2**53
# is a float, so integer and float arithmetic agree.
_MAX_INT = 2**53


class RoadState(str, Enum):
    """Realisation of the risky road's congestion coefficient."""

    LOW = "L"
    HIGH = "H"

    def coefficient(self, params: "GameParams") -> float:
        return params.l if self is RoadState.LOW else params.h


@dataclass(frozen=True)
class GameParams:
    """Immutable game primitives shared by every module.

    n        number of agents (atomic, 2 <= n <= 1000)
    s0, s1   safe road cost intercept and slope (s0 > 0, s1 >= 0)
    l, h     low and high risky coefficients (0 < l < h)
    gamma_l  P(theta_{t+1} = H | theta_t = L)
    gamma_h  P(theta_{t+1} = L | theta_t = H)
    delta    discount factor in [0, 1)

    A number given as an int may be at most 2**53 in magnitude.
    """

    n: int
    s0: float
    s1: float
    l: float
    h: float
    gamma_l: float = 0.0
    gamma_h: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ParameterError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ParameterError(f"need at least two agents, got n={self.n}")
        if self.n > _MAX_N:
            raise ParameterError(f"n must be at most {_MAX_N}, got n={self.n}")
        for name in ("s0", "s1", "l", "h", "gamma_l", "gamma_h", "delta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a number, got {value!r}")
            if isinstance(value, int) and abs(value) > _MAX_INT:
                raise ParameterError(f"integer {name} must be at most 2**53 in magnitude, "
                                     f"got {value}")
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.s0 <= 0:
            raise ParameterError(f"s0 must be positive, got {self.s0}")
        if self.s1 < 0:
            raise ParameterError(f"s1 must be nonnegative, got {self.s1}")
        if not 0 < self.l < self.h:
            raise ParameterError(
                f"need 0 < l < h, got l={self.l}, h={self.h}"
            )
        for name in ("gamma_l", "gamma_h"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.delta < 1.0:
            raise ParameterError(f"delta must be in [0, 1), got {self.delta}")


def _require_belief(beta: float) -> float:
    if not isinstance(beta, (int, float)) or isinstance(beta, bool):
        raise ParameterError(f"belief must be a number, got {beta!r}")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"belief must be in [0, 1], got {beta}")
    return float(beta)


def _integral(value) -> bool:
    """True for an int (not a bool) or an array of integers."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iu"
    return isinstance(value, int) and not isinstance(value, bool)


def _all(mask) -> bool:
    """mask.all() for an array; a scalar's own truth (cheaper than np.all)."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def _require_flow(x, params: GameParams):
    if not _integral(x):
        raise ParameterError(f"flow must be an integer, got {x!r}")
    if not _all((0 <= x) & (x <= params.n)):
        raise ParameterError(f"flow must be in 0..{params.n}, got {x}")
    return x


def _div(num, den, fill: float = np.nan):
    """Elementwise num / den, with fill wherever den is zero (and no warning).

    Two scalars give a Python scalar, so 0-d calls stay in plain arithmetic.
    """
    if not isinstance(num, np.ndarray) and not isinstance(den, np.ndarray):
        return fill if den == 0 else num / den
    zero = np.equal(den, 0.0)
    return np.where(zero, fill, np.divide(num, np.where(zero, 1.0, den)))


def stage_cost(x, coef: float, params: GameParams):
    """Aggregate one-stage cost when x agents take the risky road.

    The x risky users each pay coef * x, the n - x safe users each pay
    s0 + s1 * (n - x). With x = 0 the value (s0 + s1*n)*n does not depend
    on coef at all. x may be an integer array; the cost then has its shape
    and is computed in floating point, since integer costs up to 2**53 times
    a squared flow can exceed int64.
    """
    x = _require_flow(x, params)
    if isinstance(x, np.ndarray):
        x = x.astype(float)
    if coef <= 0:
        raise ParameterError(f"congestion coefficient must be positive, got {coef}")
    safe_users = params.n - x
    return coef * x * x + (params.s0 + params.s1 * safe_users) * safe_users


def expected_theta(beta: float, params: GameParams) -> float:
    """Mean risky coefficient under belief beta = P(theta = L)."""
    beta = _require_belief(beta)
    return beta * params.l + (1.0 - beta) * params.h


def belief_step(beta: float, params: GameParams) -> float:
    """One-step-ahead probability of the low state given P(low today) = beta."""
    beta = _require_belief(beta)
    return beta * (1.0 - params.gamma_l) + (1.0 - beta) * params.gamma_h


def mu_low(params: GameParams) -> float:
    """Expected next-stage coefficient after observing the low state."""
    return expected_theta(1.0 - params.gamma_l, params)


def mu_high(params: GameParams) -> float:
    """Expected next-stage coefficient after observing the high state."""
    return expected_theta(params.gamma_h, params)


def myopic_so_flow(coef: float, params: GameParams) -> int:
    """Risky flow minimising the one-stage aggregate cost; ties go to fewer users."""
    return int(np.argmin(stage_cost(np.arange(params.n + 1), coef, params)))


def myopic_eq_flow(coef: float, params: GameParams) -> int:
    """Largest one-shot equilibrium risky flow for a known coefficient.

    Returns the largest x in 0..n such that a risky user does not prefer the
    safe road, coef*x <= s0 + s1*(n - x + 1), and (unless x = n) a safe user
    does not strictly prefer joining, coef*(x + 1) >= s0 + s1*(n - x - 1);
    0 when no x qualifies.
    """
    if coef <= 0:
        raise ParameterError(f"congestion coefficient must be positive, got {coef}")
    n, s0, s1 = params.n, params.s0, params.s1
    x = np.arange(n + 1)
    stay = coef * x <= s0 + s1 * (n - x + 1)
    join = (x == n) | (coef * (x + 1) >= s0 + s1 * (n - x - 1))
    return int(np.flatnonzero(stay & join).max(initial=0))


@dataclass(frozen=True)
class TwoStageGate:
    """Outcome of the two-stage assumption check at a given prior belief.

    low_beats_safe      condition 1: l < s0 + s1, so a lone low road is worth using
    experiment_costly   condition 2: expected lone risky cost exceeds the worst
                        safe cost, mu_beta > s0 + s1*n, making experimentation
                        a genuine sacrifice
    beta_limit          condition 2 holds exactly for beliefs below this value
    """

    low_beats_safe: bool
    experiment_costly: bool
    beta_limit: float

    @property
    def passed(self) -> bool:
        return self.low_beats_safe and self.experiment_costly

    def failures(self) -> list[str]:
        out = []
        if not self.low_beats_safe:
            out.append("l >= s0 + s1: the low road would never attract traffic")
        if not self.experiment_costly:
            out.append(
                "expected lone risky cost does not exceed s0 + s1*n "
                f"(condition 2 needs beta < {self.beta_limit:.6g})"
            )
        return out


def check_assumption_two_stage(beta: float, params: GameParams) -> TwoStageGate:
    """Evaluate the two-stage model's assumption gate at prior belief beta."""
    beta = _require_belief(beta)
    k = params.s0 + params.s1 * params.n
    # mu_beta is decreasing in beta, so condition 2 holds iff beta < (h-k)/(h-l).
    if params.h <= k:
        limit = 0.0
    else:
        limit = min(1.0, (params.h - k) / (params.h - params.l))
    return TwoStageGate(
        low_beats_safe=params.l < params.s0 + params.s1,
        experiment_costly=expected_theta(beta, params) > k,
        beta_limit=limit,
    )


@dataclass(frozen=True)
class InfiniteGate:
    """Outcome of the infinite-horizon assumption check.

    The scheme constructions for the dynamic model are derived with a flat
    safe road (s1 = 0), persistent states (both switch rates at most 1/2),
    a safe road that beats even three low-road users (s0 > 3l), and one-step
    conditional means pinned to l <= mu_low < s0/3 and
    s0 <= mu_high <= s0 + delta*gamma_h*(s0/3 - mu_low). The last bound moves
    with delta, so re-run the gate when sweeping discount factors.
    """

    flat_safe_road: bool
    persistent_states: bool
    safe_beats_three_low: bool
    mu_low_in_range: bool
    mu_high_in_range: bool
    mu_low: float
    mu_high: float
    mu_high_limit: float

    @property
    def passed(self) -> bool:
        return (
            self.flat_safe_road
            and self.persistent_states
            and self.safe_beats_three_low
            and self.mu_low_in_range
            and self.mu_high_in_range
        )

    def failures(self) -> list[str]:
        out = []
        if not self.flat_safe_road:
            out.append("s1 != 0: the dynamic scheme analysis needs a flat safe road")
        if not self.persistent_states:
            out.append("switch rates must satisfy gamma_l <= 1/2 and gamma_h <= 1/2")
        if not self.safe_beats_three_low:
            out.append("s0 <= 3*l: safe road must dominate three low-road users")
        if not self.mu_low_in_range:
            out.append(f"mu_low={self.mu_low:.6g} outside [l, s0/3)")
        if not self.mu_high_in_range:
            out.append(
                f"mu_high={self.mu_high:.6g} outside [s0, {self.mu_high_limit:.6g}]"
            )
        return out


def check_assumption_infinite(params: GameParams) -> InfiniteGate:
    """Evaluate the infinite-horizon assumption gate (depends on delta)."""
    ml = mu_low(params)
    mh = mu_high(params)
    mh_limit = params.s0 + params.delta * params.gamma_h * (params.s0 / 3.0 - ml)
    return InfiniteGate(
        flat_safe_road=params.s1 == 0,
        persistent_states=params.gamma_l <= 0.5 and params.gamma_h <= 0.5,
        safe_beats_three_low=params.s0 > 3.0 * params.l,
        mu_low_in_range=params.l <= ml < params.s0 / 3.0,
        mu_high_in_range=params.s0 <= mh <= mh_limit,
        mu_low=ml,
        mu_high=mh,
        mu_high_limit=mh_limit,
    )


# ---------------------------------------------------------------------------
# parameter files

_PARAM_KEYS = ("n", "s0", "s1", "l", "h", "gamma_l", "gamma_h", "delta")
_REQUIRED_KEYS = ("n", "s0", "s1", "l", "h")


def params_from_dict(raw: dict[str, Any]) -> tuple[GameParams, float | None]:
    """Build GameParams from a parsed parameter mapping.

    The mapping must provide n, s0, s1, l and h; gamma_l, gamma_h and delta
    default to zero (a static game), and beta (prior belief) is returned
    separately since it is an input to queries rather than a game primitive.
    Unknown keys are rejected so a typo cannot silently fall back to a
    default.
    """
    if not isinstance(raw, dict):
        raise ParameterError(f"parameter file must hold a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_PARAM_KEYS) - {"beta"})
    if unknown:
        raise ParameterError(f"unknown parameter keys: {', '.join(map(repr, unknown))}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ParameterError(f"missing parameter keys: {', '.join(missing)}")
    n = raw["n"]
    if isinstance(n, float):
        if not n.is_integer():
            raise ParameterError(f"n must be an integer, got {n!r}")
        n = int(n)
    kwargs = {key: raw[key] for key in _PARAM_KEYS if key != "n" and key in raw}
    params = GameParams(n=n, **kwargs)
    beta = raw.get("beta")
    if beta is not None:
        beta = _require_belief(beta)
    return params, beta


def load_params(path: str) -> tuple[GameParams, float | None]:
    """Read a JSON parameter file. See params_from_dict for the schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read parameter file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"parameter file {path} is not valid JSON: {exc}") from exc
    return params_from_dict(raw)
