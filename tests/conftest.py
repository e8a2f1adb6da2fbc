"""Shared fixtures: canonical parameter sets and random in-gate samplers.

The samplers draw parameters uniformly and reject until the relevant model
assumptions hold, so every draw is a legitimate input for the closed forms.
The two-stage sampler additionally keeps the belief away from the threshold
knife edges, where the pure-equilibrium set genuinely changes and exact
flow predictions are not claimed.
"""

import numpy as np
import pytest

from roadrec.model import (
    GameParams,
    check_assumption_infinite,
    check_assumption_two_stage,
)
from roadrec import infinite as inf
from roadrec import two_stage as ts

# Static two-road instance: thresholds land at 0.50 / 0.57 / 0.05.
EXAMPLE1 = GameParams(n=40, s0=10, s1=1, l=0.9, h=150)

# Dynamic instance used throughout: experimentation is worth running and the
# optimal scheme ramps 1 -> 2 -> 3 after a high observation.
REFERENCE = GameParams(n=10, s0=10, s1=0, l=1, h=19,
                       gamma_l=0.1, gamma_h=0.5, delta=0.5)

# A frozen-low-state variant (gamma_l = 0): pinning the planner's flows is
# not obedient, the steady safe agent strictly prefers to jump.
STATIC_LOW = GameParams(n=6, s0=10, s1=0, l=1, h=20,
                        gamma_l=0.0, gamma_h=0.5, delta=0.5)


def assert_pooled_match_linear(c: int, d: int, params: GameParams) -> None:
    """Each non-vacuous safe_at_*_pooled follow value of check_ic is, to a
    relative 1e-11, the posterior mixture p*low + (1 - p)*high of
    state_costs_linear's states; at c = n, where no low stage sends a safe
    recommendation, safe_at_1_pooled is the high state itself."""
    report = inf.check_ic(c, d, params)
    linear = inf.state_costs_linear(c, d, params)
    post = inf.posteriors(c, d, params)
    high = linear.safe_after_high
    for flow, p, low in (("d", post.low_given_d_safe, linear.safe_at_d_low),
                         ("c", post.low_given_c_safe, linear.safe_at_c_low),
                         ("1", post.low_given_1_safe, linear.safe_at_1_low)):
        entry = report.entry(f"safe_at_{flow}_pooled")
        if entry.vacuous:
            continue
        want = high if flow == "1" and c == params.n else p * low + (1.0 - p) * high
        assert entry.follow == pytest.approx(want, rel=1e-11), (params, c, d, flow)


@pytest.fixture
def example1() -> GameParams:
    return EXAMPLE1


@pytest.fixture
def reference() -> GameParams:
    return REFERENCE


@pytest.fixture
def static_low() -> GameParams:
    return STATIC_LOW


def draw_infinite_params(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (4, 12),
    delta_range: tuple[float, float] = (0.05, 0.9),
    gamma_l_range: tuple[float, float] = (0.02, 0.5),
) -> GameParams:
    """One uniform draw passing the infinite-horizon assumptions.

    The high-state coefficient is drawn from the exact interval the gate
    allows given everything else (its endpoints solve the two binding
    inequalities for h), so rejections are rare.
    """
    while True:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        l = float(rng.uniform(0.2, 2.0))
        s0 = float(3.0 * l * rng.uniform(1.15, 3.0))
        gl = float(rng.uniform(*gamma_l_range))
        gh = float(rng.uniform(0.05, 0.5))
        delta = float(rng.uniform(*delta_range))
        h_lo = (s0 - gh * l) / (1.0 - gh)
        h_hi = (s0 + delta * gh * (s0 / 3.0 - (1.0 - gl) * l) - gh * l) / (
            1.0 - gh + delta * gh * gl
        )
        if h_hi <= h_lo:
            continue
        h = float(h_lo + rng.uniform(0.0, 1.0) * (h_hi - h_lo))
        if h <= l:
            continue
        params = GameParams(n=n, s0=s0, s1=0.0, l=l, h=h,
                            gamma_l=gl, gamma_h=gh, delta=delta)
        if check_assumption_infinite(params).passed:
            return params


def draw_two_stage_case(
    rng: np.random.Generator, n_range: tuple[int, int] = (3, 4)
) -> tuple[GameParams, float]:
    """A small instance plus an in-gate belief clear of threshold edges.

    The belief avoids (a) a margin around the scheme-existence threshold,
    and (b) the band between the conservative flooding threshold (deviator
    takes the cheapest second-stage slot) and the average-slot one, where
    all-safe play survives as an equilibrium for some tie-break rules but
    not others.
    """
    margin = 0.015
    while True:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        l = float(rng.uniform(0.3, 1.5))
        s0 = float(rng.uniform(0.4, 2.5))
        s1 = float(rng.uniform(0.3, 1.5))
        if l >= s0 + s1:
            continue
        k = s0 + s1 * n
        h = float(k * rng.uniform(1.5, 4.0))
        params = GameParams(n=n, s0=s0, s1=s1, l=l, h=h)
        th = ts.thresholds(params)
        limit = (h - k) / (h - l)
        xe = th.eq_flow_low
        cheapest_slot = min(l * xe, s0 + s1 * (n - xe))
        beta_f_min = (h - k) / (h - l + k - cheapest_slot)
        zones = []
        lo, hi = 0.02, th.beta_p - margin
        if hi > lo:
            zones.append((lo, hi))
        lo, hi = th.beta_p + margin, min(beta_f_min, th.beta_f) - margin
        if hi > lo:
            zones.append((lo, hi))
        lo, hi = th.beta_f + margin, limit - margin
        if hi > lo:
            zones.append((lo, hi))
        if not zones:
            continue
        lo, hi = zones[int(rng.integers(len(zones)))]
        beta = float(rng.uniform(lo, hi))
        if check_assumption_two_stage(beta, params).passed:
            return params, beta


@pytest.fixture(scope="session")
def infinite_draws() -> list[GameParams]:
    """200 in-gate dynamic parameter sets (seeded, shared across tests)."""
    rng = np.random.default_rng(20260819)
    return [draw_infinite_params(rng) for _ in range(200)]
