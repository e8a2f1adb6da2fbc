import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roadrec.model import (
    _MAX_INT,
    _MAX_N,
    GameParams,
    ParameterError,
    RoadState,
    belief_step,
    check_assumption_infinite,
    check_assumption_two_stage,
    expected_theta,
    load_params,
    mu_high,
    mu_low,
    myopic_eq_flow,
    myopic_so_flow,
    params_from_dict,
    stage_cost,
)


def small_params(**overrides):
    base = dict(n=5, s0=2.0, s1=0.5, l=1.0, h=8.0)
    base.update(overrides)
    return GameParams(**base)


# ---------------------------------------------------------------------------
# validation

@pytest.mark.parametrize("bad", [
    dict(n=1),
    dict(n=4.0),
    dict(n=True),
    dict(s0=0.0),
    dict(s0=-1.0),
    dict(s1=-0.1),
    dict(l=0.0),
    dict(l=9.0),          # l >= h
    dict(h=math.inf),
    dict(gamma_l=1.5),
    dict(gamma_h=-0.2),
    dict(delta=1.0),
    dict(delta=-0.5),
])
def test_params_validation_rejects(bad):
    base = dict(n=5, s0=2.0, s1=0.5, l=1.0, h=8.0)
    base.update(bad)
    with pytest.raises(ParameterError):
        GameParams(**base)


def test_params_size_caps():
    # n and integer parameters at the caps are accepted, one past them refused
    base = dict(n=5, s0=2.0, s1=0.5, l=1.0, h=8.0)
    GameParams(**dict(base, n=_MAX_N))
    GameParams(**dict(base, s0=_MAX_INT, h=_MAX_INT))
    GameParams(**dict(base, s0=1e23, h=1e24))  # floats are not capped
    with pytest.raises(ParameterError, match=f"n must be at most {_MAX_N}"):
        GameParams(**dict(base, n=_MAX_N + 1))
    for name in ("s0", "h"):
        with pytest.raises(ParameterError, match=f"integer {name} must be at most 2"):
            GameParams(**dict(base, **{name: _MAX_INT + 1}))
    with pytest.raises(ParameterError, match="integer s1 must be at most 2"):
        GameParams(**dict(base, s1=-_MAX_INT - 1))


def test_integer_costs_do_not_wrap_over_flow_arrays():
    # h * x * x passes 2**63 for x >= 33; the planner's high-state flow is 0
    params = GameParams(n=_MAX_N, s0=10, s1=0, l=1, h=_MAX_INT)
    assert myopic_so_flow(params.h, params) == 0
    costs = stage_cost(np.array([0, 33, _MAX_N]), params.h, params)
    assert costs.tolist() == [10.0 * _MAX_N, 2.0**53 * 33 * 33 + 10.0 * 967,
                              2.0**53 * _MAX_N * _MAX_N]


def test_road_state_coefficients():
    p = small_params()
    assert RoadState.LOW.coefficient(p) == p.l
    assert RoadState.HIGH.coefficient(p) == p.h
    assert RoadState("L") is RoadState.LOW


def test_stage_cost_handles_boundaries():
    p = small_params()
    # empty risky road: cost is coefficient-independent
    assert stage_cost(0, p.l, p) == stage_cost(0, p.h, p)
    assert stage_cost(0, p.l, p) == (p.s0 + p.s1 * p.n) * p.n
    # full risky road
    assert stage_cost(p.n, p.h, p) == p.h * p.n * p.n
    with pytest.raises(ParameterError):
        stage_cost(-1, p.l, p)
    with pytest.raises(ParameterError):
        stage_cost(p.n + 1, p.l, p)
    with pytest.raises(ParameterError):
        stage_cost(2, 0.0, p)


def test_belief_validation():
    p = small_params()
    for fn in (lambda b: expected_theta(b, p), lambda b: belief_step(b, p)):
        with pytest.raises(ParameterError):
            fn(-0.01)
        with pytest.raises(ParameterError):
            fn(1.01)


# ---------------------------------------------------------------------------
# numeric behaviour

coef_st = st.floats(min_value=0.05, max_value=50.0,
                    allow_nan=False, allow_infinity=False)
params_st = st.builds(
    GameParams,
    n=st.integers(min_value=2, max_value=12),
    s0=st.floats(min_value=0.1, max_value=30.0),
    s1=st.floats(min_value=0.0, max_value=5.0),
    l=st.just(1.0),
    h=st.floats(min_value=1.5, max_value=100.0),
    gamma_l=st.floats(min_value=0.0, max_value=1.0),
    gamma_h=st.floats(min_value=0.0, max_value=1.0),
    delta=st.floats(min_value=0.0, max_value=0.99),
)


@given(params=params_st, coef=coef_st)
def test_stage_cost_second_difference(params, coef):
    # strict convexity in the flow: the discrete second difference is constant
    for x in range(params.n - 1):
        second = (
            stage_cost(x + 2, coef, params)
            - 2.0 * stage_cost(x + 1, coef, params)
            + stage_cost(x, coef, params)
        )
        assert second == pytest.approx(2.0 * (coef + params.s1), rel=1e-9)


@given(params=params_st, coef=coef_st)
def test_myopic_so_flow_is_argmin(params, coef):
    x_so = myopic_so_flow(coef, params)
    best = stage_cost(x_so, coef, params)
    for x in range(params.n + 1):
        assert best <= stage_cost(x, coef, params) + 1e-12
        if x < x_so:  # ties broken toward fewer risky users
            assert stage_cost(x, coef, params) > best


@given(params=params_st, coef=coef_st)
def test_myopic_eq_flow_is_stable(params, coef):
    x = myopic_eq_flow(coef, params)
    n, s0, s1 = params.n, params.s0, params.s1
    assert 0 <= x <= n
    # no risky user wants to leave
    assert coef * x <= s0 + s1 * (n - x + 1) + 1e-12
    # no safe user wants to join
    if x < n:
        assert coef * (x + 1) >= s0 + s1 * (n - x - 1) - 1e-12


@given(params=params_st, beta=st.floats(min_value=0.0, max_value=1.0))
def test_belief_step_stays_in_unit_interval(params, beta):
    out = belief_step(beta, params)
    assert 0.0 <= out <= 1.0


@given(params=params_st, beta=st.floats(min_value=0.0, max_value=1.0))
def test_expected_theta_interpolates(params, beta):
    val = expected_theta(beta, params)
    assert params.l - 1e-12 <= val <= params.h + 1e-12
    assert expected_theta(1.0, params) == pytest.approx(params.l)
    assert expected_theta(0.0, params) == pytest.approx(params.h)


def test_conditional_means_match_one_step_beliefs():
    p = small_params(gamma_l=0.2, gamma_h=0.3)
    assert mu_low(p) == pytest.approx(0.8 * p.l + 0.2 * p.h)
    assert mu_high(p) == pytest.approx(0.3 * p.l + 0.7 * p.h)


def test_example1_myopic_flows(example1):
    assert myopic_eq_flow(example1.l, example1) == 26
    assert myopic_so_flow(example1.l, example1) == 24
    assert myopic_so_flow(example1.h, example1) == 0


def test_reference_myopic_flows(reference):
    assert myopic_so_flow(mu_low(reference), reference) == 2
    assert myopic_eq_flow(mu_low(reference), reference) == 3


# ---------------------------------------------------------------------------
# assumption gates

def test_two_stage_gate_example1(example1):
    gate = check_assumption_two_stage(0.55, example1)
    assert gate.passed
    k = example1.s0 + example1.s1 * example1.n
    expected_limit = (example1.h - k) / (example1.h - example1.l)
    assert gate.beta_limit == pytest.approx(expected_limit)
    # the limit is sharp
    assert check_assumption_two_stage(expected_limit - 1e-9, example1).passed
    bad = check_assumption_two_stage(expected_limit + 1e-9, example1)
    assert not bad.passed
    assert any("condition 2" in msg for msg in bad.failures())


def test_two_stage_gate_condition_one():
    p = small_params(l=3.0, h=40.0)  # l >= s0 + s1 = 2.5
    gate = check_assumption_two_stage(0.1, p)
    assert not gate.low_beats_safe
    assert not gate.passed


def test_infinite_gate_reference(reference):
    gate = check_assumption_infinite(reference)
    assert gate.passed
    assert gate.mu_low == pytest.approx(2.8)
    assert gate.mu_high == pytest.approx(10.0)
    assert gate.mu_high_limit == pytest.approx(10.0 + 0.25 * (10.0 / 3.0 - 2.8))
    assert gate.failures() == []


def test_infinite_gate_failure_messages(reference):
    import dataclasses
    sloped = dataclasses.replace(reference, s1=0.5)
    assert any("flat safe road" in m for m in check_assumption_infinite(sloped).failures())
    fast = dataclasses.replace(reference, gamma_h=0.8)
    assert any("switch rates" in m for m in check_assumption_infinite(fast).failures())
    cheap_safe = dataclasses.replace(reference, l=4.0)
    assert not check_assumption_infinite(cheap_safe).safe_beats_three_low


# ---------------------------------------------------------------------------
# parameter files

def test_params_from_dict_roundtrip():
    raw = dict(n=10, s0=10, s1=0, l=1, h=19, gamma_l=0.1, gamma_h=0.5,
               delta=0.5, beta=0.3)
    params, beta = params_from_dict(raw)
    assert params == GameParams(n=10, s0=10, s1=0, l=1, h=19,
                                gamma_l=0.1, gamma_h=0.5, delta=0.5)
    assert beta == 0.3


def test_params_from_dict_defaults_dynamics_to_zero():
    params, beta = params_from_dict(dict(n=4, s0=2, s1=1, l=1, h=9))
    assert params.gamma_l == 0.0 and params.gamma_h == 0.0 and params.delta == 0.0
    assert beta is None


@pytest.mark.parametrize("raw,fragment", [
    (dict(n=4, s0=2, s1=1, l=1), "missing"),
    (dict(n=4, s0=2, s1=1, l=1, h=9, typo=3), "unknown"),
    (dict(n=4.5, s0=2, s1=1, l=1, h=9), "integer"),
    ([1, 2, 3], "object"),
])
def test_params_from_dict_rejects(raw, fragment):
    with pytest.raises(ParameterError, match=fragment):
        params_from_dict(raw)


def test_unknown_keys_print_on_one_line():
    # keys come from the parameter file; control characters stay escaped
    with pytest.raises(ParameterError) as err:
        params_from_dict(dict(n=4, s0=2, s1=1, l=1, h=9, **{"a\nb": 1, "\x1e": 2}))
    assert len(str(err.value).splitlines()) == 1
    assert "'a\\nb'" in str(err.value)


def test_load_params(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"n": 4, "s0": 2, "s1": 1, "l": 1, "h": 9, "beta": 0.2}')
    params, beta = load_params(str(path))
    assert params.n == 4 and beta == 0.2
    with pytest.raises(ParameterError, match="cannot read"):
        load_params(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParameterError, match="not valid JSON"):
        load_params(str(bad))


def test_stage_cost_over_flow_arrays(reference):
    x = np.arange(reference.n + 1)
    costs = stage_cost(x, reference.l, reference)
    assert [float(v) for v in costs] == [stage_cost(k, reference.l, reference) for k in range(11)]
    with pytest.raises(ParameterError):
        stage_cost(np.array([0, reference.n + 1]), reference.l, reference)
    with pytest.raises(ParameterError):
        stage_cost(np.array([-1]), reference.l, reference)
    with pytest.raises(ParameterError):
        stage_cost(np.array([1.0]), reference.l, reference)
    with pytest.raises(ParameterError):
        stage_cost(np.int64(1), reference.l, reference)
