import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roadrec.model import (
    _MAX_INT,
    _MAX_N,
    AssumptionError,
    GameParams,
    ICEntry,
    ParameterError,
    _div,
    _per_game,
    _require_integer,
    _require_number,
    all_obedient,
    check_assumption_infinite,
    check_assumption_two_stage,
    expected_theta,
    ic_entries,
    load_params,
    mu_high,
    mu_low,
    myopic_eq_flow,
    myopic_so_flow,
    obedient,
    params_from_dict,
    stage_cost,
)

from roadrec import infinite as inf
from roadrec import two_stage as ts
from roadrec.cli import main

from conftest import EXAMPLE1, REFERENCE, draw_two_stage_case


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


def test_stage_cost_handles_boundaries():
    p = small_params()
    # empty risky road: cost is coefficient-independent
    assert stage_cost(0, p.l, p) == stage_cost(0, p.h, p)
    assert stage_cost(0, p.l, p) == (p.s0 + p.s1 * p.n) * p.n
    # full risky road
    assert stage_cost(p.n, p.h, p) == p.h * p.n * p.n
    for x in (-1, p.n + 1, 2.0):
        with pytest.raises(ParameterError, match="flow must be"):
            stage_cost(x, p.l, p)
    for coef in (0.0, -1.0):
        with pytest.raises(ParameterError, match="coefficient must be positive"):
            stage_cost(2, coef, p)


def test_belief_validation():
    p = small_params()
    with pytest.raises(ParameterError):
        expected_theta(-0.01, p)
    with pytest.raises(ParameterError):
        expected_theta(1.01, p)
    for beta in ("0.5", True):
        for check in (expected_theta, check_assumption_two_stage):
            with pytest.raises(ParameterError,
                               match=re.escape(f"belief must be a number, got {beta!r}")):
                check(beta, p)


def test_integer_rule():
    # an int or a numpy integer, which comes back as a Python int; never a bool
    for value in (3, np.int64(3), np.uint8(3)):
        got = _require_integer("k", value)
        assert type(got) is int and got == 3
    flows = np.array([1, 2])
    assert _require_integer("k", flows, arrays=True) is flows
    for value, arrays in ((True, False), (np.True_, True), (2.0, True), ("3", False),
                          (None, False), (flows, False), (np.array([1.0]), True)):
        with pytest.raises(ParameterError, match=re.escape(f"k must be an integer, got {value!r}")):
            _require_integer("k", value, arrays)


def test_number_rule():
    # an int or a float, or a numpy integer or floating scalar, never a bool;
    # a numpy scalar comes back as the Python int or float of its value
    for value in (2, 2.5):
        assert _require_number("x", value) is value
    for value, want in ((np.float64(2.5), 2.5), (np.float32(0.5), 0.5), (np.int64(7), 7),
                        (np.uint8(3), 3)):
        got = _require_number("x", value)
        assert type(got) is type(want) and got == want
    for value in (True, np.True_, "2", None, np.array(2.5)):
        with pytest.raises(ParameterError, match=re.escape(f"x must be a number, got {value!r}")):
            _require_number("x", value)


def test_numpy_number_fields_keep_their_bits():
    # A numpy scalar field is the Python number of its value: the game with
    # np.int64(10) for s0 is the all-int game, to the bit.
    ints = GameParams(n=10, s0=10, s1=0, l=1, h=19)
    numpy_s0 = GameParams(n=10, s0=np.int64(10), s1=0, l=1, h=19)
    assert numpy_s0 == ints and type(numpy_s0.s0) is int
    assert repr(ts.thresholds(numpy_s0)) == repr(ts.thresholds(ints))
    assert type(dataclasses.replace(ints, h=np.float32(19.5)).h) is float
    assert expected_theta(np.float32(0.5), ints) == expected_theta(0.5, ints) == 10.0
    for name, call in (("belief", lambda: expected_theta(np.True_, ints)),
                       ("s0", lambda: dataclasses.replace(ints, s0=np.True_))):
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be a number, got "
                                                           f"{np.True_!r}")):
            call()


def test_params_take_a_numpy_integer_n(reference):
    # n is an integer argument like c, d or a flow: a numpy integer is n = 10
    params = dataclasses.replace(reference, n=np.int64(10))
    assert type(params.n) is int and params == reference
    assert inf.pi_star(params) == inf.pi_star(reference)
    with pytest.raises(ParameterError, match="n must be an integer, got True"):
        dataclasses.replace(reference, n=True)


@pytest.mark.parametrize("name", ["s0", "s1", "l", "h", "gamma_l", "gamma_h", "delta"])
@pytest.mark.parametrize("value", ["1", True])
def test_params_refuse_a_field_that_is_not_a_number(name, value):
    base = dict(n=5, s0=2.0, s1=0.5, l=0.25, h=8.0, gamma_l=0.1, gamma_h=0.1, delta=0.5)
    base[name] = value
    with pytest.raises(ParameterError,
                       match=re.escape(f"{name} must be a number, got {value!r}")):
        GameParams(**base)


def test_div_fills_only_where_the_denominator_is_zero():
    got = _div(1.0, np.array([0.0, 2.0]))
    assert np.isnan(got[0]) and got[1] == 0.5
    got = _div(np.array([1.0]), 0.0)
    assert isinstance(got, np.ndarray) and np.isnan(got).all()
    assert _div(1.0, 0.0, fill=0.0) == 0.0 and _div(1.0, 4.0) == 0.25


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
    assert bad.failures == (
        "expected lone risky cost does not exceed s0 + s1*n "
        f"(condition 2 needs beta < {expected_limit:.6g})",
    )


def test_two_stage_gate_condition_one():
    p = small_params(l=3.0, h=40.0)  # l >= s0 + s1 = 2.5
    gate = check_assumption_two_stage(0.1, p)
    assert gate.failures == ("l >= s0 + s1: the low road would never attract traffic",)
    assert not gate.passed


def test_infinite_gate_reference(reference):
    gate = check_assumption_infinite(reference)
    assert gate.passed
    assert gate.mu_low == pytest.approx(2.8)
    assert gate.mu_high == pytest.approx(10.0)
    assert gate.mu_high_limit == pytest.approx(10.0 + 0.25 * (10.0 / 3.0 - 2.8))
    assert gate.failures == ()


def test_infinite_gate_failure_messages(reference):
    sloped = dataclasses.replace(reference, s1=0.5)
    assert any("flat safe road" in m for m in check_assumption_infinite(sloped).failures)
    fast = dataclasses.replace(reference, gamma_h=0.8)
    assert any("switch rates" in m for m in check_assumption_infinite(fast).failures)
    cheap_safe = dataclasses.replace(reference, l=4.0)
    assert ("s0 <= 3*l: safe road must dominate three low-road users"
            in check_assumption_infinite(cheap_safe).failures)


# ---------------------------------------------------------------------------
# per-game memo

def test_per_game_computes_once_per_object(reference):
    calls = []

    @_per_game
    def value(params):
        calls.append(params)
        return object()

    first = value(reference)
    assert value(reference) is first and len(calls) == 1
    other = dataclasses.replace(reference)  # an equal game, another object
    assert other == reference and value(other) is not first and len(calls) == 2
    assert value(reference) is not first and len(calls) == 3  # one entry only


def test_per_game_keys_on_identity_not_equality():
    # Equal, with the same hash, yet int and float fields give other bits.
    fields = dict(n=10, s0=4594915198092498, s1=8924964022381449,
                  l=4048658484850501, h=4894067864242291)
    ints = GameParams(**fields)
    floats = GameParams(**{k: v if k == "n" else float(v) for k, v in fields.items()})
    assert ints == floats and hash(ints) == hash(floats)
    want = [ts.thresholds.__wrapped__(p).beta_so for p in (ints, floats)]
    assert want[0] != want[1]
    for _ in range(2):  # each call switches objects, so each computes afresh
        assert [ts.thresholds(p).beta_so for p in (ints, floats)] == want
    assert ts.thresholds(floats) is ts.thresholds(floats)


def test_per_game_remembers_no_exception(reference):
    calls = []

    @_per_game
    def flaky(params):
        calls.append(params)
        if len(calls) == 1:
            raise AssumptionError("first call fails")
        return len(calls)

    with pytest.raises(AssumptionError):
        flaky(reference)
    assert flaky(reference) == 2 and flaky(reference) == 2
    # A failing gate raises on every call.
    sloped = dataclasses.replace(reference, s1=0.5)
    for _ in range(2):
        with pytest.raises(AssumptionError, match="flat safe road"):
            inf.require_gate(sloped)


def _infinite_conditions(p):
    """The infinite-horizon gate's conditions restated, as (holds, message)
    pairs in order: mu_low and mu_high are the chance-weighted next-stage
    coefficients after a low and a high observation."""
    stay_low = 1.0 - p.gamma_l
    ml = stay_low * p.l + (1.0 - stay_low) * p.h
    mh = p.gamma_h * p.l + (1.0 - p.gamma_h) * p.h
    limit = p.s0 + p.delta * p.gamma_h * (p.s0 / 3.0 - ml)
    return [
        (p.s1 == 0, "s1 != 0: the dynamic scheme analysis needs a flat safe road"),
        (max(p.gamma_l, p.gamma_h) <= 0.5,
         "switch rates must satisfy gamma_l <= 1/2 and gamma_h <= 1/2"),
        (3.0 * p.l < p.s0, "s0 <= 3*l: safe road must dominate three low-road users"),
        (p.l <= ml and ml < p.s0 / 3.0, f"mu_low={ml:.6g} outside [l, s0/3)"),
        (p.s0 <= mh and mh <= limit, f"mu_high={mh:.6g} outside [s0, {limit:.6g}]"),
    ]


def _two_stage_conditions(beta, p):
    """The two-stage gate's belief limit and its (holds, message) conditions,
    restated."""
    worst_safe = p.s0 + p.s1 * p.n
    limit = max(0.0, min(1.0, (p.h - worst_safe) / (p.h - p.l)))
    return limit, [
        (p.l < p.s0 + p.s1, "l >= s0 + s1: the low road would never attract traffic"),
        (beta * p.l + (1.0 - beta) * p.h > worst_safe,
         "expected lone risky cost does not exceed s0 + s1*n "
         f"(condition 2 needs beta < {limit:.6g})"),
    ]


def _check_gate(gate, conditions, failed):
    """gate lists exactly the messages of the failed conditions, in order, and
    passes iff every condition holds; failed collects the indices that fail."""
    assert gate.failures == tuple(message for holds, message in conditions if not holds)
    assert gate.passed == (not gate.failures) == all(holds for holds, _ in conditions)
    failed.update(k for k, (holds, _) in enumerate(conditions) if not holds)


def _out_of_gate(params, rng):
    """params with a random nonempty set of its gate conditions broken."""
    breaks = [
        dict(s1=float(rng.uniform(0.1, 2.0))),
        dict(gamma_l=float(rng.uniform(0.51, 1.0))),
        dict(gamma_h=float(rng.uniform(0.51, 1.0))),
        dict(l=params.s0 / float(rng.uniform(1.5, 3.0))),
        dict(h=params.h * float(rng.uniform(1.5, 4.0))),
        dict(h=params.l + (params.s0 - params.l) * float(rng.uniform(0.1, 0.9))),
        dict(delta=0.0),
        dict(l=(params.s0 + params.s1) * float(rng.uniform(1.0, 1.5))),
    ]
    picked = rng.choice(len(breaks), size=int(rng.integers(1, 4)), replace=False)
    changes = {}
    for k in sorted(picked):
        changes.update(breaks[k])
    low = changes.get("l", params.l)
    if changes.get("h", params.h) <= low:
        changes["h"] = 2.0 * low
    return dataclasses.replace(params, **changes)


def test_gates_list_each_failed_condition(infinite_draws):
    # Every condition, restated here, decides its own message: the gate's
    # failures are exactly those messages, in order, and it passes iff none.
    rng = np.random.default_rng(1313)
    outside = [_out_of_gate(p, rng) for p in infinite_draws for _ in range(2)]
    cases = [draw_two_stage_case(rng, n_range=(2, 12)) for _ in range(200)]
    two_stage_games = [p for p, _ in cases]
    games = (infinite_draws + outside + two_stage_games
             + [_out_of_gate(p, rng) for p in two_stage_games])
    failed_infinite, failed_two_stage = set(), set()
    for params in games:
        _check_gate(check_assumption_infinite(params), _infinite_conditions(params),
                    failed_infinite)
        for beta in (0.0, 1.0, float(rng.uniform())):
            gate = check_assumption_two_stage(beta, params)
            limit, conditions = _two_stage_conditions(beta, params)
            assert gate.beta_limit == limit
            _check_gate(gate, conditions, failed_two_stage)
    # every condition fails somewhere, so each restatement is exercised
    assert failed_infinite == set(range(5)) and failed_two_stage == {0, 1}
    assert all(check_assumption_infinite(p).passed for p in infinite_draws)
    assert not any(check_assumption_infinite(p).passed for p in outside)
    for params, beta in cases:
        assert check_assumption_two_stage(beta, params).failures == ()
        for beyond in (check_assumption_two_stage(beta, params).beta_limit, 1.0):
            _check_gate(check_assumption_two_stage(beyond, params),
                        _two_stage_conditions(beyond, params)[1], failed_two_stage)


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
    # a byte that is not UTF-8, and arrays nested past the recursion limit
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"n": 4, "s0": 2, "s1": 1, "l": 1, "h": 9, "note": "\xff"}')
    with pytest.raises(ParameterError, match="not valid JSON.*utf-8"):
        load_params(str(not_utf8))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParameterError, match="not valid JSON.*recursion"):
        load_params(str(deep))


# ---------------------------------------------------------------------------
# the obedience rule

def test_obedience_rule_tolerance():
    # the two-stage experimenter's (0, 0) slack at beta = beta_p: zero in
    # exact arithmetic, -1.8e-15 in floating point
    assert obedient(4.0 + 1.8e-15, 4.0)
    assert obedient(1.0, 1.0) and obedient(0.0, 0.0)
    # a slack of -1e-11 at deviation cost 1 is beyond the tolerance
    assert not obedient(1.0 + 1e-11, 1.0)
    # elementwise over arrays, scaled to the deviation cost
    follow = np.array([1.0 + 1e-11, 1e6 + 1e-7, 1e6 + 1e-5])
    assert obedient(follow, np.array([1.0, 1e6, 1e6])).tolist() == [False, True, False]


def test_ic_entries_flags():
    entries = ic_entries([
        ("vacuous", 5.0, 1.0, True),
        ("rounded", 4.0 + 1.8e-15, 4.0, False),
        ("slack", 1.0, 2.0, False),
        ("broken", 1.0 + 1e-11, 1.0, False),
    ])
    assert entries[0] == ICEntry("vacuous", None, None, None,
                                 vacuous=True, boundary=False, satisfied=True)
    rounded = entries[1]
    assert rounded.slack < 0.0 and rounded.satisfied and rounded.boundary
    assert entries[2] == ICEntry("slack", 1.0, 2.0, 1.0,
                                 vacuous=False, boundary=False, satisfied=True)
    assert not entries[3].satisfied and not entries[3].boundary


def test_all_obedient_is_elementwise_over_terms():
    # one verdict per scheme: every term is vacuous or obedient there
    terms = [
        ("a", np.array([1.0, 3.0, 1.0]), 2.0, np.array([False, True, False])),
        ("b", np.array([1.0, 1.0, 5.0]), 2.0, False),
    ]
    assert all_obedient(terms).tolist() == [True, True, False]
    assert all_obedient([("c", 1.0, 2.0, False)])
    assert not all_obedient([("c", 3.0, 2.0, False)])


# Powers of two that scale every cost of a game: float arithmetic scales
# exactly, so costs must scale exactly and no verdict may move.
_UNIT_EXPONENTS = range(-60, 61, 20)


def _in_units(params: GameParams, k: float) -> GameParams:
    return dataclasses.replace(params, s0=params.s0 * k, s1=params.s1 * k,
                               l=params.l * k, h=params.h * k)


def test_infinite_verdicts_do_not_depend_on_the_unit(infinite_draws):
    for params in [REFERENCE] + infinite_draws[:50]:
        star = inf.pi_star(params)
        base = inf.optimal_scheme_search(params)
        verdict = inf.check_ic(star.c, star.d, params).verdict
        for e in _UNIT_EXPONENTS:
            k = 2.0**e
            scaled = _in_units(params, k)
            got = inf.optimal_scheme_search(scaled)
            assert got.winner == base.winner, (params, e)
            assert np.array_equal(got.candidates.feasible, base.candidates.feasible), (params, e)
            assert np.array_equal(got.candidates.cost, base.candidates.cost * k), (params, e)
            assert inf.compute_x_ll(scaled) == star.d, (params, e)
            assert inf.check_ic(star.c, star.d, scaled).verdict == verdict, (params, e)


def test_infinite_oracle_does_not_depend_on_the_unit(tmp_path, capsys):
    # Each oracle gap is relative to a positive cost of its own scheme, so
    # the printed checks, details included, are the same in every unit.
    small = dataclasses.replace(REFERENCE, n=2, h=19.5, gamma_l=0.02)
    wide = GameParams(n=40, s0=60.0, s1=0.0, l=1.0, h=120.0,
                      gamma_l=0.02, gamma_h=0.5, delta=0.5)
    path = tmp_path / "game.json"
    for params in (REFERENCE, wide, small):
        printed = []
        for e in _UNIT_EXPONENTS:
            path.write_text(json.dumps(dataclasses.asdict(_in_units(params, 2.0**e))))
            assert main(["oracle", "--params", str(path), "--target", "infinite"]) == 0
            printed.append(json.loads(capsys.readouterr().out)["checks"])
        assert all(checks == printed[0] for checks in printed), (params, printed)


def test_two_stage_oracle_does_not_depend_on_the_unit(tmp_path, capsys):
    # The brute force's tolerances are relative to positive costs, so its
    # printed checks are the same in every unit, at the knife-edge beliefs
    # beta_p and beta_f too.
    rng = np.random.default_rng(3)
    games = [(dataclasses.replace(EXAMPLE1, n=4), None)]
    games += [draw_two_stage_case(rng) for _ in range(20)]
    path = tmp_path / "game.json"
    for params, drawn in games:
        th = ts.thresholds(params)
        betas = [b for b in (drawn, th.beta_p, th.beta_f, 0.3) if b is not None and 0 <= b <= 1]
        grid = ",".join(repr(b) for b in betas)
        printed = []
        for e in _UNIT_EXPONENTS:
            path.write_text(json.dumps(dataclasses.asdict(_in_units(params, 2.0**e))))
            code = main(["oracle", "--params", str(path), "--target", "two-stage",
                         "--beta-grid", grid])
            printed.append((code, json.loads(capsys.readouterr().out)["checks"]))
        assert all(checks == printed[0] for checks in printed), (params, printed)


def test_two_stage_scheme_does_not_depend_on_the_unit():
    rng = np.random.default_rng(12)
    for _ in range(50):
        params, beta = draw_two_stage_case(rng, n_range=(2, 12))
        base = ts.solve_optimal_scheme(beta, params)
        for e in _UNIT_EXPONENTS:
            k = 2.0**e
            got = ts.solve_optimal_scheme(beta, _in_units(params, k))
            assert (got.experiment, got.pi2_low, got.pi2_high, got.n_feasible) == (
                base.experiment, base.pi2_low, base.pi2_high, base.n_feasible), (params, beta, e)
            assert got.expected_cost == base.expected_cost * k, (params, beta, e)


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
        stage_cost(np.True_, reference.l, reference)


def test_stage_cost_accepts_numpy_integers(reference):
    # A numpy integer is a flow like an int, and gives the same Python number.
    for params in (reference, dataclasses.replace(reference, s0=10.5)):
        want = stage_cost(3, params.l, params)
        for x in (np.int64(3), np.int32(3), np.uint8(3)):
            cost = stage_cost(x, params.l, params)
            assert type(cost) is type(want) and cost == want


# ---------------------------------------------------------------------------
# checked public primitives, unchecked private copies for the cores

def test_public_primitives_keep_their_checks(reference, example1):
    # stage_cost's own checks: test_stage_cost_handles_boundaries
    for coef in (0.0, -1.0):
        with pytest.raises(ParameterError, match="coefficient must be positive"):
            myopic_so_flow(coef, reference)
    # Each count is in 0..n-1, as in ic_constraints_eval: pi2_low = -1 (a
    # low-state flow of 0) and pi2_high = n are flows in 0..n, but no
    # scheme's counts.
    n = example1.n
    for pi2_low, pi2_high, name in ((n, 0, "pi2_low"), (0, n + 1, "pi2_high"),
                                    (-1, 0, "pi2_low"), (0, n, "pi2_high")):
        with pytest.raises(ParameterError, match=f"{name} must be in 0..{n - 1}"):
            ts.scheme_cost_two_stage(0.55, pi2_low, pi2_high, example1)
    with pytest.raises(ParameterError, match="belief"):
        ts.scheme_cost_two_stage(1.5, 0, 0, example1)


def test_cores_make_no_public_stage_cost_call(monkeypatch, reference, example1):
    # The cores call the unchecked model._stage_cost. Fresh GameParams
    # objects, so that no game-level value comes from model._per_game.
    import roadrec.model as model
    import roadrec.sim as sim
    calls = []

    def counted(*args):
        calls.append(args)
        return stage_cost(*args)

    for module in (model, sim, inf, ts):
        if hasattr(module, "stage_cost"):
            monkeypatch.setattr(module, "stage_cost", counted)
    inf.optimal_scheme_search(dataclasses.replace(reference))
    inf.delta_sweep(dataclasses.replace(reference), [0.1, 0.5, 0.9])
    ts.solve_optimal_scheme(0.55, dataclasses.replace(example1))
    assert calls == []
    model.stage_cost(2, reference.l, reference)  # the counter is live
    assert len(calls) == 1
