"""Primitives for the two-road routing game.

N agents commute every stage between a safe road and a risky road. The safe
road costs ``S0 + S1 * (number of users)`` per user. The risky road costs
``theta * (number of users)`` per user, where the coefficient theta is either
low (L) or high (H) and, in the dynamic model, follows a two-state Markov
chain: gamma_l is the chance of jumping low -> high, gamma_h of high -> low.

Everything downstream (two-stage schemes, infinite-horizon schemes, the
simulator) builds on the handful of quantities defined here: the aggregate
stage cost, expected coefficients under a belief, one-shot socially optimal
and equilibrium flows, the assumption gates that decide whether a parameter
set is inside the regime the scheme constructions are valid for, and the one
obedience rule both models decide their constraints with. A gate lists the
message of each condition that fails, and passes when it lists none.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np


class ParameterError(ValueError):
    """Raised for out-of-domain arguments or malformed parameter files."""


class AssumptionError(RuntimeError):
    """Raised when an operation requires an assumption gate that fails."""


class InternalError(RuntimeError):
    """Raised when an identity the closed forms guarantee breaks (a bug, not bad input)."""


# Largest population a GameParams accepts, and the largest with measured run
# times on a 2-core x86 host. At n = 1000 (499,500 (c, d) pairs) the search
# takes about 0.2 ms in-process and the infinite command's process peaks at
# 31 MB on the wide game's 45-pair flow box, and 24 ms and 36 MB on the
# widest box, 125,751 pairs; the chain oracle, the slowest command, takes
# under 1 s and 46 MB. The two-stage solve's widest strip seen is 1000 x 32
# pairs, a 3 ms solve. Flows are indexed by 0..n.
_MAX_N = 1000

# Largest integer magnitude a parameter may have: every integer up to 2**53
# is a float, so integer and float arithmetic agree.
_MAX_INT = 2**53


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
        object.__setattr__(self, "n", _require_integer("n", self.n))
        if self.n < 2:
            raise ParameterError(f"need at least two agents, got n={self.n}")
        if self.n > _MAX_N:
            raise ParameterError(f"n must be at most {_MAX_N}, got n={self.n}")
        for name in ("s0", "s1", "l", "h", "gamma_l", "gamma_h", "delta"):
            value = _require_number(name, getattr(self, name))
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
        _require_discount(self.delta)


def _per_game(fn):
    """fn(params), remembered for the last GameParams object it was called on.

    A GameParams is frozen, so one object always gives one value. The memo
    matches the object, not an equal one: a game with int fields equals its
    float copy, yet can compute other bits. Its one (params, value) entry
    keeps that object alive, so no other can take its identity. A call that
    raises stores nothing."""
    last = None

    @functools.wraps(fn)
    def memo(params):
        nonlocal last
        entry = last
        if entry is None or entry[0] is not params:
            entry = last = (params, fn(params))
        return entry[1]

    return memo


def _require_discount(delta: float) -> None:
    """Raise ParameterError unless delta, a number, is a discount in [0, 1).

    GameParams checks its own delta with it, and a sweep each of its
    discounts, without building a GameParams per discount.
    """
    if not math.isfinite(delta):
        raise ParameterError(f"delta must be finite, got {delta!r}")
    if not 0.0 <= delta < 1.0:
        raise ParameterError(f"delta must be in [0, 1), got {delta}")


def _require_number(name: str, value):
    """value, refused unless it is an int or a float (not a bool)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    return value


def _require_integer(name: str, value, arrays: bool = False):
    """value, refused unless it is an int or a numpy integer (not a bool), or
    with arrays an integer array; a numpy integer comes back as a Python int,
    so 0-d calls stay in plain arithmetic and no size arithmetic wraps."""
    if isinstance(value, np.ndarray):
        if arrays and value.dtype.kind in "iu":
            return value
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def _require_belief(beta: float) -> float:
    if not 0.0 <= _require_number("belief", beta) <= 1.0:
        raise ParameterError(f"belief must be in [0, 1], got {beta}")
    return float(beta)


def _all(mask) -> bool:
    """mask.all() for an array; a scalar's own truth (cheaper than np.all)."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def _require_flow(x, params: GameParams):
    x = _require_integer("flow", x, arrays=True)
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
    _require_coef(coef)
    return _stage_cost(x, coef, params)


def _stage_cost(x, coef: float, params: GameParams):
    """stage_cost for a flow in 0..n and a positive coefficient, unchecked;
    a numpy integer flow is priced as a Python int, in plain arithmetic."""
    x = x.astype(float) if isinstance(x, np.ndarray) else int(x)
    safe_users = params.n - x
    return coef * x * x + (params.s0 + params.s1 * safe_users) * safe_users


def _require_coef(coef: float) -> None:
    if coef <= 0:
        raise ParameterError(f"congestion coefficient must be positive, got {coef}")


def expected_theta(beta: float, params: GameParams) -> float:
    """Mean risky coefficient under belief beta = P(theta = L)."""
    return _expected_theta(_require_belief(beta), params)


def _expected_theta(beta: float, params: GameParams) -> float:
    """expected_theta for a belief already checked (and made a float)."""
    return beta * params.l + (1.0 - beta) * params.h


def mu_low(params: GameParams) -> float:
    """Expected next-stage coefficient after observing the low state. GameParams
    keeps both switch rates in [0, 1], so neither mean checks its belief."""
    return _expected_theta(float(1.0 - params.gamma_l), params)


def mu_high(params: GameParams) -> float:
    """Expected next-stage coefficient after observing the high state."""
    return _expected_theta(float(params.gamma_h), params)


def myopic_so_flow(coef: float, params: GameParams) -> int:
    """Risky flow minimising the one-stage aggregate cost; ties go to fewer users."""
    _require_coef(coef)
    # A cost past the float range is +inf, which argmin never picks over a
    # finite one.
    with np.errstate(over="ignore"):
        return int(np.argmin(_stage_cost(np.arange(params.n + 1), coef, params)))


def myopic_eq_flow(coef: float, params: GameParams) -> int:
    """Largest one-shot equilibrium risky flow for a known coefficient.

    Returns the largest x in 0..n such that a risky user does not prefer the
    safe road, coef*x <= s0 + s1*(n - x + 1), and (unless x = n) a safe user
    does not strictly prefer joining, coef*(x + 1) >= s0 + s1*(n - x - 1);
    0 when no x qualifies.
    """
    _require_coef(coef)
    n, s0, s1 = params.n, params.s0, params.s1
    x = np.arange(n + 1)
    # stay holds on a prefix of 0..n; at its largest x < n stay(x + 1) fails,
    # which (s1 >= 0) implies a safe user does not strictly prefer joining.
    stay = coef * x <= s0 + s1 * (n - x + 1)
    return int(np.flatnonzero(stay).max(initial=0))


@dataclass(frozen=True)
class TwoStageGate:
    """Outcome of the two-stage assumption check at a given prior belief.

    failures     one message per failed condition, in this order: condition 1,
                 l < s0 + s1, so a lone low road is worth using; condition 2,
                 mu_beta > s0 + s1*n, the expected lone risky cost exceeds the
                 worst safe cost, making experimentation a genuine sacrifice
    beta_limit   condition 2 holds exactly for beliefs below this value
    """

    failures: tuple[str, ...]
    beta_limit: float

    @property
    def passed(self) -> bool:
        return not self.failures


def check_assumption_two_stage(beta: float, params: GameParams) -> TwoStageGate:
    """Evaluate the two-stage model's assumption gate at prior belief beta."""
    beta = _require_belief(beta)
    k = params.s0 + params.s1 * params.n
    # mu_beta is decreasing in beta, so condition 2 holds iff beta < (h-k)/(h-l).
    limit = min(1.0, (params.h - k) / (params.h - params.l)) if params.h > k else 0.0
    failures = []
    if not params.l < params.s0 + params.s1:
        failures.append("l >= s0 + s1: the low road would never attract traffic")
    if not expected_theta(beta, params) > k:
        failures.append("expected lone risky cost does not exceed s0 + s1*n "
                        f"(condition 2 needs beta < {limit:.6g})")
    return TwoStageGate(tuple(failures), limit)


@dataclass(frozen=True)
class InfiniteGate:
    """Outcome of the infinite-horizon assumption check.

    The scheme constructions for the dynamic model are derived with a flat
    safe road (s1 = 0), persistent states (both switch rates at most 1/2),
    a safe road that beats even three low-road users (s0 > 3l), and one-step
    conditional means pinned to l <= mu_low < s0/3 and
    s0 <= mu_high <= s0 + delta*gamma_h*(s0/3 - mu_low); a switch rate may be
    zero. failures holds one message per failed condition, in that order. The
    last bound moves with delta, so re-run the gate when sweeping discounts.
    """

    failures: tuple[str, ...]
    mu_low: float
    mu_high: float
    mu_high_limit: float

    @property
    def passed(self) -> bool:
        return not self.failures


def check_assumption_infinite(params: GameParams) -> InfiniteGate:
    """Evaluate the infinite-horizon assumption gate (depends on delta)."""
    return _infinite_gate(params, params.delta)


def _infinite_gate(params: GameParams, delta: float) -> InfiniteGate:
    """The infinite-horizon gate of params at discount delta, which replaces
    params.delta; delta must already be a valid discount."""
    ml = mu_low(params)
    mh = mu_high(params)
    mh_limit = params.s0 + delta * params.gamma_h * (params.s0 / 3.0 - ml)
    failures = []
    if params.s1 != 0:
        failures.append("s1 != 0: the dynamic scheme analysis needs a flat safe road")
    if not (params.gamma_l <= 0.5 and params.gamma_h <= 0.5):
        failures.append("switch rates must satisfy gamma_l <= 1/2 and gamma_h <= 1/2")
    if not params.s0 > 3.0 * params.l:
        failures.append("s0 <= 3*l: safe road must dominate three low-road users")
    if not params.l <= ml < params.s0 / 3.0:
        failures.append(f"mu_low={ml:.6g} outside [l, s0/3)")
    if not params.s0 <= mh <= mh_limit:
        failures.append(f"mu_high={mh:.6g} outside [s0, {mh_limit:.6g}]")
    return InfiniteGate(tuple(failures), ml, mh, mh_limit)


# ---------------------------------------------------------------------------
# obedience

def obedient(follow, deviate):
    """Elementwise obedience rule: following costs no more than deviating.

    A follow cost up to a relative 1e-12 above the deviation cost still
    counts: at beta = beta_p the two-stage experimenter's (0, 0) slack, zero
    in exact arithmetic, rounds to -1.8e-15. Every non-vacuous deviation cost
    is positive in both models, so the tolerance has no absolute part, and
    scaling every cost by a power of two leaves every verdict unchanged.
    """
    return follow <= deviate * (1.0 + 1e-12)


@dataclass(frozen=True)
class ICEntry:
    """One obedience constraint: follow the recommendation or deviate.

    slack = deviate - follow, and satisfied is obedient(follow, deviate); a
    satisfied entry with a negative slack is flagged as boundary. A
    constraint whose conditioning event has probability zero (nobody ever
    holds that recommendation) is vacuous: its values are None, and it is
    satisfied and not boundary.
    """

    state: str
    follow: float | None
    deviate: float | None
    slack: float | None
    vacuous: bool
    boundary: bool
    satisfied: bool


def ic_entries(terms: Iterable[tuple]) -> list[ICEntry]:
    """One ICEntry per (state, follow, deviate, vacuous) term that a model's
    _ic_terms yields for one scheme."""
    out = []
    for state, follow, deviate, vacuous in terms:
        if vacuous:
            out.append(ICEntry(state, None, None, None,
                               vacuous=True, boundary=False, satisfied=True))
            continue
        follow, deviate = float(follow), float(deviate)
        slack = deviate - follow
        satisfied = bool(obedient(follow, deviate))
        out.append(ICEntry(state, follow, deviate, slack, vacuous=False,
                           boundary=satisfied and slack < 0.0, satisfied=satisfied))
    return out


def all_obedient(terms: Iterable[tuple]):
    """Elementwise: every (state, follow, deviate, vacuous) term is vacuous or
    obedient. Terms over arrays of schemes give an array of verdicts."""
    ok = True
    for _, follow, deviate, vacuous in terms:
        ok = ok & (vacuous | obedient(follow, deviate))
    return ok


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
    if isinstance(n, float) and n.is_integer():
        n = int(n)  # GameParams refuses any other float
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode.
        raise ParameterError(f"parameter file {path} is not valid JSON: {exc}") from exc
    return params_from_dict(raw)
