"""Fuzzing of the CLI's input parsers through cli.main.

Whatever text or JSON comes in, the program must answer with exit status 0
(success), 1 (a model assumption fails) or 2 (malformed input), never with a
traceback, and an error must be reported as exactly one ``roadrec:`` line on
stderr. Examples are derandomised and no example database is kept, so the
suite stays deterministic.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from roadrec.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# A game whose two-stage gate fails at every belief (h <= s0 + s1*n), so a
# grid of any length costs one gate check per point.
GATED_RAW = {"n": 3, "s0": 1, "s1": 1, "l": 0.5, "h": 3}
REFERENCE_RAW = {"n": 10, "s0": 10, "s1": 0, "l": 1, "h": 19,
                 "gamma_l": 0.1, "gamma_h": 0.5, "delta": 0.5}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, raw in (("gated", GATED_RAW), ("reference", REFERENCE_RAW)):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(raw))
    paths["fuzzed"] = root / "fuzzed.json"
    return paths


def run(argv):
    """Run cli.main; any exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    lines = err.getvalue().splitlines()
    if out.getvalue():  # a report (an oracle's failed checks exit 1 too)
        json.loads(out.getvalue())
        assert lines == [], (argv, lines)
    else:
        assert code and len(lines) == 1 and lines[0].startswith("roadrec: "), (argv, lines)


numbers = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=12),
    st.floats(min_value=-2.0, max_value=40.0),
)
number_text = numbers.map(str) | numbers.map(repr) | st.text(max_size=6)
grids = st.one_of(
    st.text(),
    st.lists(number_text, max_size=6).map(",".join),
    st.tuples(number_text, number_text, number_text).map(":".join),
    st.lists(number_text, min_size=1, max_size=5).map(":".join),
)


@FUZZ
@given(text=grids)
def test_fuzz_parse_grid(files, text):
    run(["two-stage", "--params", files["gated"], f"--beta-grid={text}"])


triggers = st.one_of(
    st.text(),
    st.tuples(
        number_text | st.just("any"),
        st.sampled_from(["low", "high", "pooled"]) | st.text(max_size=6),
        st.sampled_from(["risky", "safe"]) | st.text(max_size=6),
    ).map(":".join),
    st.lists(st.text(max_size=6), max_size=5).map(":".join),
)


@FUZZ
@given(text=triggers)
def test_fuzz_parse_trigger(files, text):
    run(["simulate", "--params", files["reference"], "--scheme", "2,3",
         "--trials", 2, "--horizon", 4, "--max-wait", 8, f"--trigger={text}"])


json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
param_keys = ("n", "s0", "s1", "l", "h")
optional_keys = ("gamma_l", "gamma_h", "delta", "beta")
# Values in each key's domain, so that many files get past the parser.
plausible = {"n": st.integers(min_value=2, max_value=7), "s0": st.floats(0.1, 5.0),
             "s1": st.floats(0.0, 2.0), "l": st.floats(0.1, 2.0), "h": st.floats(0.5, 40.0),
             "gamma_l": st.floats(0.0, 0.6), "gamma_h": st.floats(0.0, 0.6),
             "delta": st.floats(0.0, 0.99), "beta": st.floats(0.0, 1.0)}
param_files = st.one_of(
    st.fixed_dictionaries({k: plausible[k] for k in param_keys},
                          optional={k: plausible[k] for k in optional_keys}),
    st.fixed_dictionaries({k: plausible[k] | numbers for k in param_keys},
                          optional={k: plausible[k] | numbers for k in optional_keys}),
    st.fixed_dictionaries({k: json_values for k in param_keys},
                          optional={k: json_values for k in optional_keys}),
    st.dictionaries(st.sampled_from(param_keys + optional_keys) | st.text(max_size=6),
                    json_values, max_size=9),
    json_values,
)


@FUZZ
@given(raw=param_files)
def test_fuzz_params_from_dict(files, raw):
    files["fuzzed"].write_text(json.dumps(raw))
    run(["oracle", "--params", files["fuzzed"], "--target", "two-stage"])
