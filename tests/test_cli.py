import ast
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roadrec import cli
from roadrec import infinite as inf
from roadrec import sim
from roadrec.cli import main, parse_grid
from roadrec.model import GameParams, ParameterError


REFERENCE_RAW = {"n": 10, "s0": 10, "s1": 0, "l": 1, "h": 19,
                 "gamma_l": 0.1, "gamma_h": 0.5, "delta": 0.5}
# conftest's STATIC_LOW: in the gate for delta >= 3/7, with gamma_l = 0
STATIC_LOW_RAW = {"n": 6, "s0": 10, "s1": 0, "l": 1, "h": 20,
                  "gamma_l": 0.0, "gamma_h": 0.5, "delta": 0.5}
EXAMPLE1_RAW = {"n": 40, "s0": 10, "s1": 1, "l": 0.9, "h": 150, "beta": 0.55}


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(REFERENCE_RAW))
    return str(path)


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(EXAMPLE1_RAW))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_loads(out)


# ---------------------------------------------------------------------------
# grid parsing

def test_parse_grid_forms():
    assert parse_grid("0.1,0.2,0.5") == [0.1, 0.2, 0.5]
    assert len(parse_grid("0:1:1e-3")) == 1001
    assert parse_grid("0:0.04:0.01") == [0.0, 0.01, 0.02, 0.03, 0.04]
    assert parse_grid("0.5") == [0.5]


@pytest.mark.parametrize("bad", ["", "0.1:0.5", "0.5:0.1:0.1", "0.1:0.5:-0.1", "a,b",
                                 "0:inf:1", "-inf:0:1", "0:1:inf", "nan:1:0.1",
                                 "0:1:1e-12", "0:1:1e-4", "-1e308:1e308:1"])
def test_parse_grid_rejects(bad):
    with pytest.raises(ParameterError):
        parse_grid(bad)


def test_parse_grid_stops_its_loop_at_the_cap(monkeypatch):
    # With a cap of 5 points: 5 points pass; 6 are refused, by the up-front
    # count or, at 1e16 where start + k*step rounds back down and the count
    # says 4 steps, by the loop itself.
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 5)
    assert parse_grid("0:4:1") == [0.0, 1.0, 2.0, 3.0, 4.0]
    for text in ("0:5:1", "1e16:10000000000000004:1", "-1e308:1e308:1"):
        with pytest.raises(ParameterError, match=f"grid '{text}' has more than 5 points"):
            parse_grid(text)


def test_parse_grid_names_the_range_form():
    with pytest.raises(ParameterError, match="grid must be start:stop:step, got '0:1'"):
        parse_grid("0:1")


# ---------------------------------------------------------------------------
# subcommands

def test_two_stage_single_beta(capsys, example1_file):
    code, data = run_json(capsys, ["two-stage", "--params", example1_file])
    assert code == 0
    assert data["thresholds"]["beta_p"] == pytest.approx(0.504540867810, abs=1e-11)
    assert data["thresholds"]["beta_f"] == pytest.approx(0.569833038920, abs=1e-11)
    assert data["thresholds"]["beta_so"] == pytest.approx(0.050218160863, abs=1e-11)
    (row,) = data["rows"]
    assert row["region"] == "C"
    assert row["v_partial"] == pytest.approx(3415.74, abs=0.01)
    assert row["v_partial"] < min(row["v_full"], row["v_private"])
    assert (row["pi2_low"], row["pi2_high"]) == (18, 0)


def test_two_stage_csv_grid(capsys, example1_file):
    code = main(["two-stage", "--params", example1_file, "--format", "csv",
                 "--beta-grid", "0.1,0.3,0.55"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("beta,gated,region,v_full")
    assert len(lines) == 4
    assert lines[1].split(",")[2] == "B"  # 0.1 sits between beta_so and beta_p
    assert lines[3].split(",")[2] == "C"


def test_two_stage_flags_gated_rows(capsys, example1_file):
    code, data = run_json(capsys, ["two-stage", "--params", example1_file,
                                   "--beta-grid", "0.55,0.9"])
    assert code == 0
    gated = [row for row in data["rows"] if row["gated"]]
    assert len(gated) == 1
    assert gated[0]["beta"] == 0.9
    assert gated[0]["note"] == ("expected lone risky cost does not exceed s0 + s1*n "
                                "(condition 2 needs beta < 0.670691)")


def test_two_stage_solves_at_beta_p(capsys, tmp_path):
    # the belief is this game's beta_p, where rounding used to leave no
    # obedient scheme and the call exited 3
    path = tmp_path / "beta_p.json"
    path.write_text(json.dumps({"n": 10, "s0": 2.1053580846751356, "s1": 0.5475408845587786,
                                "l": 0.3410667253765831, "h": 26.74489879565194}))
    code, data = run_json(capsys, ["two-stage", "--params", str(path),
                                   "--beta-grid", "0.56962306183104"])
    assert code == 0
    (row,) = data["rows"]
    assert row["experiment"] is True


def test_two_stage_high_cost_past_float_range_warns_nothing(tmp_path):
    # h * x * x overflows to +inf for most flows when the planner minimises
    # the high-state stage cost; argmin still picks x = 0, and numpy's
    # overflow warning must not reach stderr.
    path = tmp_path / "huge_h.json"
    path.write_text(json.dumps({"n": 1000, "s0": 10, "s1": 1, "l": 0.9, "h": 1e308}))
    proc = subprocess.run(
        [sys.executable, "-m", "roadrec.cli", "two-stage", "--params", str(path),
         "--beta-grid", "0.6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    row = {"beta": 0.6, "gated": False, "region": "A", "v_full": 2020000.0,
           "v_private": 2020000.0, "v_partial": 2020000.0, "v_so": 2020000.0,
           "experiment": False, "pi2_low": None, "pi2_high": None}
    want = {
        "params": {"n": 1000, "s0": 10, "s1": 1, "l": 0.9, "h": 1e308,
                   "gamma_l": 0.0, "gamma_h": 0.0, "delta": 0.0},
        "thresholds": {"beta_so": 1.0, "beta_p": 1.0, "beta_f": 1.0, "eq_flow_low": 532,
                       "so_flow_low": 529, "so_flow_high": 0, "warnings": []},
        "rows": [row],
    }
    assert proc.stdout == json.dumps(want, indent=2) + "\n"


def test_two_stage_all_gated_errors(capsys, example1_file):
    code = main(["two-stage", "--params", example1_file, "--beta-grid", "0.8,0.9"])
    assert code == 1
    assert "outside the two-stage assumptions" in capsys.readouterr().err


def test_two_stage_needs_some_beta(capsys, tmp_path):
    path = tmp_path / "nobeta.json"
    raw = {k: v for k, v in EXAMPLE1_RAW.items() if k != "beta"}
    path.write_text(json.dumps(raw))
    code = main(["two-stage", "--params", str(path)])
    assert code == 2
    assert "no belief given" in capsys.readouterr().err


def test_infinite_record(capsys, reference_file):
    code, data = run_json(capsys, ["infinite", "--params", reference_file])
    assert code == 0
    assert data["x_so"] == 2 and data["x_eq"] == 3 and data["x_ll"] == 3
    assert data["pi_star"] == {"c": 2, "d": 3}
    assert data["pi_tilde_star"] is None
    assert data["v_pi_star"] == pytest.approx(195.625)
    assert data["v_no_experiment"] == pytest.approx(200.0)
    assert data["v_pi_star"] < data["v_no_experiment"]
    assert data["ic"]["verdict"] is True
    assert len(data["ic"]["entries"]) == 11
    assert data["search"]["winner"] == {"c": 2, "d": 3}
    assert data["search"]["matches_pi_star"] is True


def test_infinite_computes_x_ll_once(capsys, reference_file, monkeypatch):
    # x_ll, pi_star and pi_tilde_star come from the search's one pass over
    # the pairs: neither compute_x_ll nor its scan runs
    searches, scans = [], []
    true_search = inf.optimal_scheme_search

    def counted_search(*args):
        searches.append(true_search(*args))
        return searches[-1]

    def refused(*args):
        scans.append(args)
        raise AssertionError("x_ll must come from the search")

    monkeypatch.setattr(inf, "optimal_scheme_search", counted_search)
    monkeypatch.setattr(inf, "compute_x_ll", refused)
    monkeypatch.setattr(inf, "_first_obedient", refused)
    code, data = run_json(capsys, ["infinite", "--params", reference_file])
    assert code == 0 and data["search"]["matches_pi_star"] is True
    assert scans == [] and len(searches) == 1
    (search,) = searches
    assert data["x_ll"] == search.x_ll == 3
    assert data["pi_star"] == dataclasses.asdict(search.pi_star)


def test_infinite_rejects_csv(capsys, reference_file):
    assert main(["infinite", "--params", reference_file, "--format", "csv"]) == 2


def test_infinite_gate_failure_exit(capsys, example1_file):
    # the library's first call runs the gate, before anything else can fail
    for command in (["infinite"], ["oracle", "--target", "infinite"]):
        assert main([command[0], "--params", example1_file, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "gate fails" in lines[0], command


def test_infinite_gate_failure_message(capsys, example1_file):
    assert main(["infinite", "--params", example1_file]) == 1
    assert capsys.readouterr().err == (
        "roadrec: infinite-horizon gate fails: s1 != 0: the dynamic scheme analysis "
        "needs a flat safe road; mu_high=150 outside [s0, 10]\n"
    )


def test_sweep_solves_zero_switch_rate(capsys, tmp_path):
    path = tmp_path / "static_low.json"
    path.write_text(json.dumps(STATIC_LOW_RAW))
    code, data = run_json(capsys, ["sweep", "--params", str(path),
                                   "--delta-grid", "0.2,0.5,0.9"])
    assert code == 0
    assert [row["feasible"] for row in data["rows"]] == [False, True, True]


@pytest.mark.parametrize("raw, grid, err", [
    # the mu_high ceiling is loosest at the largest discount, and fails there too
    (dict(REFERENCE_RAW, h=19.2), "0.2,0.1",
     "roadrec: every requested discount falls outside the infinite-horizon assumptions "
     "(at delta=0.2: mu_high=10.1 outside [s0, 10.0513])\n"),
    # a static game fails the gate at every discount
    (EXAMPLE1_RAW, "0.2:0.7:0.5",
     "roadrec: every requested discount falls outside the infinite-horizon assumptions "
     "(at delta=0.7: s1 != 0: the dynamic scheme analysis needs a flat safe road; "
     "mu_high=150 outside [s0, 10])\n"),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_all_gated_exits_1(capsys, tmp_path, raw, grid, err, fmt):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--params", str(path), "--delta-grid", grid, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_sweep_csv(capsys, reference_file):
    code = main(["sweep", "--params", reference_file, "--format", "csv",
                 "--delta-grid", "0.2:0.9:0.35"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["delta", "feasible", "x_ll"]
    assert len(lines) == 4  # 0.2, 0.55, 0.9
    assert lines[-1].split(",")[5] == "1"  # ratio is exactly one at 0.9


@pytest.mark.parametrize("grid, err", [
    ("0.5,1.0", "roadrec: parameter error: delta must be in [0, 1), got 1.0\n"),
    ("0.5,nan", "roadrec: parameter error: delta must be finite, got nan\n"),
])
def test_sweep_rejects_a_discount_outside_the_unit_interval(capsys, reference_file, grid, err):
    assert main(["sweep", "--params", reference_file, "--delta-grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_sweep_requires_delta_grid(reference_file):
    with pytest.raises(SystemExit):
        main(["sweep", "--params", reference_file])


def test_simulate_small_run(capsys, reference_file):
    code, data = run_json(capsys, [
        "simulate", "--params", reference_file, "--trials", "200",
        "--horizon", "10", "--seed", "4",
    ])
    assert code == 0
    assert data["scheme"] == {"c": 2, "d": 3}
    assert data["closed_form"]["total"] == pytest.approx(195.625)
    mc = data["mc"]
    assert abs(mc["total_mean"] - 195.625) <= 5 * mc["total_se"] + mc["tail_bound"]
    assert data["z_total"] is not None


def test_simulate_with_trigger(capsys, reference_file):
    code, data = run_json(capsys, [
        "simulate", "--params", reference_file, "--trials", "150",
        "--horizon", "8", "--seed", "4", "--max-wait", "60",
        "--scheme", "2,3", "--trigger", "3:pooled:safe",
    ])
    assert code == 0
    roll = data["rollout"]
    assert roll["n_triggered"] + roll["n_skipped"] == 150
    assert roll["diff_mean"] > 0.0


def test_simulate_has_no_start_option(capsys, reference_file):
    # every chain starts right after a high stage, the start the closed forms price
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--params", reference_file, "--start", "low"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --start low" in capsys.readouterr().err


def test_simulate_rejects_bad_trigger(capsys, reference_file):
    assert main(["simulate", "--params", reference_file,
                 "--trigger", "3:pooled"]) == 2
    assert main(["simulate", "--params", reference_file,
                 "--trigger", "x:pooled:safe"]) == 2
    assert main(["simulate", "--params", reference_file,
                 "--scheme", "1,3"]) == 2
    assert main(["simulate", "--params", reference_file,
                 "--scheme", "2,x"]) == 2
    assert capsys.readouterr().err.endswith("scheme must be 'c,d' integers, got '2,x'\n")


def test_simulate_validates_trigger_before_simulating(capsys, reference_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before validating the trigger")

    monkeypatch.setattr(sim, "run_scheme", refuse)
    monkeypatch.setattr(sim, "deviation_rollout", refuse)
    for bad in ("3:pooled", "x:pooled:safe", "3:pooled:maybe", "3:sideways:safe"):
        assert main(["simulate", "--params", reference_file, "--trigger", bad]) == 2
        assert capsys.readouterr().err.startswith("roadrec: parameter error")


@pytest.mark.parametrize("flow", ["-3", "0", "11"])
def test_simulate_rejects_a_trigger_flow_no_stage_shows(capsys, reference_file, monkeypatch,
                                                       flow):
    # every risky flow is in 1..n (n = 10 here), so such a trigger is never reached
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before validating the trigger")

    monkeypatch.setattr(sim, "run_scheme", refuse)
    monkeypatch.setattr(sim, "deviation_rollout", refuse)
    # '=' keeps argparse from reading '-3:pooled:safe' as an option
    assert main(["simulate", "--params", reference_file,
                 f"--trigger={flow}:pooled:safe"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("roadrec: parameter error: trigger flow must be in 1..10 "
                            f"or 'any', got {int(flow)}\n")
    # the scheme is checked before the trigger
    assert main(["simulate", "--params", reference_file, "--scheme", "1,3",
                 f"--trigger={flow}:pooled:safe"]) == 2
    assert "trigger" not in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--trials", sim._MAX_TRIALS + 1, f"at most {sim._MAX_TRIALS}"),
    ("--horizon", sim._MAX_HORIZON + 1, f"at most {sim._MAX_HORIZON}"),
    ("--max-wait", sim._MAX_WAIT + 1, f"at most {sim._MAX_WAIT}"),
    ("--seed", -1, "nonnegative"),
])
def test_simulate_rejects_bad_sizes_before_simulating(capsys, reference_file, monkeypatch,
                                                      flag, value, message):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated an invalid configuration")

    monkeypatch.setattr(sim, "run_scheme", refuse)
    monkeypatch.setattr(sim, "deviation_rollout", refuse)
    assert main(["simulate", "--params", reference_file, "--trigger", "3:pooled:safe",
                 flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("roadrec: parameter error")
    assert message in lines[0]


@pytest.mark.parametrize("command", [["two-stage"], ["oracle", "--target", "two-stage"],
                                     ["infinite"]])
@pytest.mark.parametrize("raw, message", [
    ({"n": 4, "s0": 10**23, "s1": 0, "l": 1, "h": 9, "beta": 0.2}, "integer s0 must be at most"),
    ({"n": 10**12, "s0": 2, "s1": 0, "l": 1, "h": 9, "beta": 0.2}, "n must be at most"),
    (dict(REFERENCE_RAW, n=1001), "n must be at most 1000"),
])
def test_oversized_parameters_exit_2(capsys, tmp_path, command, raw, message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    assert main([command[0], "--params", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("roadrec: parameter error")
    assert message in lines[0]


@pytest.mark.parametrize("command, unit", [
    (["infinite"], 1e306),
    (["sweep", "--delta-grid", "0.1:0.9:0.1"], 1e306),
    (["oracle", "--target", "infinite"], 1e306),
    (["simulate", "--trials", "200", "--seed", "1"], 1e300),
])
def test_costs_past_float_range_exit_2(capsys, recwarn, tmp_path, command, unit):
    # REFERENCE with every cost in these units passes the gate, but the
    # closed forms (or the simulated costs' spread) overflow to inf and NaN:
    # no verdict drawn from them can be trusted.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(REFERENCE_RAW, s0=10 * unit, l=unit, h=19 * unit)))
    assert main([command[0], "--params", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("roadrec: parameter error: the game's numbers leave the "
                               "floating-point range")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_oversized_integer_cost_prints_no_traceback(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n": 4, "s0": 100000000000000000000000, "s1": 0, "l": 1, "h": 9,'
                    ' "beta": 0.2}')
    proc = subprocess.run(
        [sys.executable, "-m", "roadrec.cli", "two-stage", "--params", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("roadrec: parameter error")
    assert "Traceback" not in proc.stderr


def test_simulate_single_trial_is_strict_json(capsys, reference_file):
    code, data = run_json(capsys, [
        "simulate", "--params", reference_file, "--trials", "1", "--seed", "1",
        "--horizon", "8", "--max-wait", "60", "--scheme", "2,3",
        "--trigger", "3:pooled:safe",
    ])
    assert code == 0
    mc, roll = data["mc"], data["rollout"]
    assert mc["total_mean"] > 0.0 and mc["tail_bound"] > 0.0
    assert mc["total_se"] is None and mc["per_agent_se"] is None
    assert data["z_total"] is None
    assert roll["n_triggered"] == 1
    assert roll["follow_mean"] > 0.0 and roll["diff_mean"] is not None
    assert roll["follow_se"] is None and roll["deviate_se"] is None
    assert roll["diff_se"] is None


def test_emit_refuses_non_finite_numbers(capsys):
    args = cli.build_parser().parse_args(["infinite", "--params", "unused.json"])
    with pytest.raises(RuntimeError, match="non-finite"):
        cli._emit({"value": float("nan")}, args)
    with pytest.raises(RuntimeError, match="non-finite"):
        cli._emit({"rows": [{"ratio": float("inf")}]}, args)
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# the JSON writer

def _fmt_float(x):
    return float(f"{x:.12g}")


def _rounded(obj):
    """Recursively round floats to 12 significant digits for output."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return _rounded(vars(obj))
    return obj


def reference_text(payload):
    """The text _emit wrote before it had a writer of its own: round, then dump."""
    return json.dumps(_rounded(payload), indent=2, allow_nan=False) + "\n"


def emitted(capsys, payload):
    args = cli.build_parser().parse_args(["infinite", "--params", "unused.json"])
    cli._emit(payload, args)
    return capsys.readouterr().out


STATIC_N4_RAW = {"n": 4, "s0": 1, "s1": 1, "l": 0.9, "h": 20}


@pytest.mark.parametrize("raw, calls", [
    (REFERENCE_RAW, [
        ["infinite"],
        ["sweep", "--delta-grid", "0.1:0.9:0.1"],
        ["simulate", "--trials", "50", "--seed", "3"],
        ["simulate", "--trials", "1", "--seed", "1", "--scheme", "2,3", "--horizon", "8",
         "--max-wait", "60", "--trigger", "3:pooled:safe"],
        ["oracle", "--target", "infinite"],
        ["two-stage", "--beta-grid", "0.1:0.6:0.1"],
    ]),
    (STATIC_N4_RAW, [
        ["two-stage", "--beta-grid", "0:0.7:0.05"],
        ["oracle", "--target", "two-stage", "--beta-grid", "0.1,0.3,0.6,0.9"],
    ]),
])
def test_emit_writes_what_json_dumps_wrote(capsys, monkeypatch, tmp_path, raw, calls):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(raw))
    payloads = []
    true_emit = cli._emit

    def recorded(payload, args):
        payloads.append(payload)
        true_emit(payload, args)

    monkeypatch.setattr(cli, "_emit", recorded)
    for argv in calls:
        payloads.clear()
        main([argv[0], "--params", str(path), *argv[1:]])
        assert len(payloads) == 1, argv
        assert capsys.readouterr().out == reference_text(payloads[0]), argv


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    label: str
    tags: tuple = ()


@pytest.mark.parametrize("payload", [
    {},
    {"rows": [], "empty": {}, "nested": [[], {}]},
    {"pairs": ((1, 2.5), (3, (4.25, ())))},
    {"points": [_Point(1 / 3, "a"), _Point(2.0, "b", (0.1, None))]},
    {"name": "théta ≤ β — \u00e9\t\"quoted\"\\", "ключ ü": "\x00\x1f"},
    {"zero": -0.0, "big": 1e16, "small": 1e-7, "tiny": 5e-324, "huge": 1.7976931348623157e308},
    {"ints": [2**53 + 1, -(2**63) - 5, 10**30, 0, -1], "flags": [True, False, None]},
    {"np": np.float64(2.0) / 3.0, "np_list": [np.float64(1e-7), np.float64(-0.0)]},
    [1.23456789012345, 123456789012.345, 0.1 + 0.2, 1e22, 123456789012345678.0],
    "just a string",
    7,
])
def test_emit_matches_json_dumps_on_edge_cases(capsys, payload):
    assert emitted(capsys, payload) == reference_text(payload)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=50, deadline=None)
@given(_json_values)
def test_emit_matches_json_dumps_on_drawn_payloads(payload):
    assert cli._json_text(payload) + "\n" == reference_text(payload)


@pytest.mark.parametrize("payload", [{"value": np.int64(3)}, {"value": np.float32(0.5)},
                                     {"value": {1, 2}}, {"value": np.bool_(True)}])
def test_emit_refuses_what_json_dumps_refuses(capsys, payload):
    with pytest.raises(TypeError):
        reference_text(payload)
    with pytest.raises(TypeError):
        emitted(capsys, payload)


def test_emit_refuses_a_key_that_is_not_a_string():
    # json.dumps would print the key 1 as "1"; a payload's keys are field names
    with pytest.raises(TypeError, match="keys must be str, not int"):
        cli._json_text({1: 2})


@pytest.mark.parametrize("argv", [
    ["infinite"],
    ["simulate", "--trials", "20", "--horizon", "20"],
    ["simulate", "--trials", "20", "--horizon", "20", "--max-wait", "30",
     "--scheme", "2,3", "--trigger", "3:pooled:safe"],
    ["oracle", "--target", "infinite"],
])
def test_infinite_gate_runs_once_per_call(capsys, reference_file, monkeypatch, argv):
    calls = []
    true_gate = inf.check_assumption_infinite

    def counted(params):
        calls.append(params)
        return true_gate(params)

    monkeypatch.setattr(inf, "check_assumption_infinite", counted)
    code, data = run_json(capsys, [argv[0], "--params", reference_file, *argv[1:]])
    assert code == 0
    assert ("rollout" in data) == ("--trigger" in argv)
    assert len(calls) == 1


@pytest.mark.parametrize("grid, fmt", [("0.55", "json"), ("0.0:0.9:0.05", "json"),
                                       ("0.0:0.9:0.05", "csv"), ("0.3,0.9,0.56,0.6", "csv")])
def test_two_stage_gate_runs_once_per_belief(capsys, example1_file, monkeypatch, grid, fmt):
    calls = []
    true_gate = cli.check_assumption_two_stage

    def counted(beta, params):
        calls.append(beta)
        return true_gate(beta, params)

    monkeypatch.setattr(cli.ts, "check_assumption_two_stage", counted)
    monkeypatch.setattr(cli, "check_assumption_two_stage", counted)
    assert main(["two-stage", "--params", example1_file, "--beta-grid", grid,
                 "--format", fmt]) == 0
    assert capsys.readouterr().err == ""
    assert calls == parse_grid(grid)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_two_stage_rows_match_one_belief_calls(capsys, example1_file, fmt):
    # EXAMPLE1 from below beta_so (0.05) to past the gate's limit (0.67),
    # across beta_p (0.50) and beta_f (0.57): every row prints as the row of
    # a call at its belief alone. A gated belief alone exits 1, so its row
    # is the second of a call that puts 0.3 first.
    grid = parse_grid("0.0:0.7:0.01")
    assert main(["two-stage", "--params", example1_file, "--beta-grid", "0.0:0.7:0.01",
                 "--format", fmt]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[1:] if fmt == "csv" else json.loads(out)["rows"]
    assert len(rows) == len(grid) == 71
    for beta, row in zip(grid, rows):
        alone = main(["two-stage", "--params", example1_file, "--beta-grid", repr(beta),
                      "--format", fmt])
        if alone == 1:
            capsys.readouterr()
            assert main(["two-stage", "--params", example1_file, "--beta-grid",
                         f"0.3,{beta!r}", "--format", fmt]) == 0
        one = capsys.readouterr().out
        one = one.splitlines()[1:] if fmt == "csv" else json.loads(one)["rows"]
        assert row == one[-1]
    if fmt == "json":
        assert {row.get("region") for row in rows} == {None, "A", "B", "C", "D"}


def test_cli_reads_no_private_library_name():
    # cli.py drives the library through its public functions.
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    private = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("inf", "ts", "sim") and node.attr.startswith("_")):
            private.add(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "roadrec"):
            private |= {alias.name for alias in node.names  # __version__ is public
                        if alias.name.startswith("_") and not alias.name.endswith("__")}
    assert private == set()


def test_oracle_infinite(capsys, reference_file):
    code, data = run_json(capsys, ["oracle", "--params", reference_file,
                                   "--target", "infinite"])
    assert code == 0
    assert data["passed"] is True
    assert len(data["checks"]) == 2


def test_oracle_two_stage(capsys, tmp_path):
    path = tmp_path / "n4.json"
    path.write_text(json.dumps({"n": 4, "s0": 2.0, "s1": 1.0, "l": 1.0, "h": 9.0}))
    code, data = run_json(capsys, ["oracle", "--params", str(path),
                                   "--target", "two-stage",
                                   "--beta-grid", "0.1,0.3"])
    assert code == 0
    assert data["passed"] is True
    assert len(data["checks"]) == 4  # two beliefs x two regimes


def test_oracle_two_stage_flags_gated_beta(capsys, tmp_path):
    path = tmp_path / "n4.json"
    path.write_text(json.dumps({"n": 4, "s0": 2.0, "s1": 1.0, "l": 1.0, "h": 9.0}))
    code, data = run_json(capsys, ["oracle", "--params", str(path),
                                   "--target", "two-stage", "--beta-grid", "0.9"])
    assert code == 1
    assert data["passed"] is False


def test_oracle_two_stage_gates_a_game_that_fails_condition_1(capsys, tmp_path):
    # l >= s0 + s1: the thresholds do not exist, and no belief reaches them
    path = tmp_path / "n4.json"
    path.write_text(json.dumps({"n": 4, "s0": 2.0, "s1": 1.0, "l": 3.5, "h": 9.0}))
    code, data = run_json(capsys, ["oracle", "--params", str(path),
                                   "--target", "two-stage", "--beta-grid", "0.1,0.3"])
    assert code == 1 and data["passed"] is False
    assert [check["name"] for check in data["checks"]] == ["beta=0.1", "beta=0.3"]
    assert all(check["detail"].startswith("outside two-stage assumptions: l >= s0 + s1")
               for check in data["checks"])


# EXAMPLE1's coefficients at n = 4, where the brute force runs
TIE_RAW = {"n": 4, "s0": 10, "s1": 1, "l": 0.9, "h": 150}


def _oracle_checks(capsys, path, beta):
    code, data = run_json(capsys, ["oracle", "--params", str(path), "--target", "two-stage",
                                   "--beta-grid", repr(beta)])
    return code, {check["name"].split("regime=")[1]: check for check in data["checks"]}


def test_oracle_two_stage_passes_the_tie_at_each_cutoff(capsys, tmp_path):
    # At beta_p (private) and beta_f (full) the experimenter is indifferent,
    # so the brute force finds both sides of the cutoff; just below beta_p
    # the prediction is the other side of the same tie.
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(TIE_RAW))
    th = cli.ts.thresholds(GameParams(**TIE_RAW))
    private, full = "[(0, 0, 0), (1, 1, 0)]", "[(0, 0, 0), (1, 4, 0)]"
    for beta, regime, want, found in (
            (th.beta_p, "private", "(1, 1, 0)", private),
            (math.nextafter(th.beta_p, 0.0), "private", "(0, 0, 0)", private),
            (th.beta_f, "full", "(1, 4, 0)", full)):
        code, checks = _oracle_checks(capsys, path, beta)
        assert code == 0
        assert checks[regime]["detail"] == f"predicted {want}, brute force found {found}"


def test_oracle_two_stage_stays_strict_off_the_tie(capsys, tmp_path, monkeypatch):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(TIE_RAW))
    params = GameParams(**TIE_RAW)
    th = cli.ts.thresholds(params)
    near = [(th.beta_p + step, 1) for step in (-1e-6, 1e-6)]
    near += [(th.beta_f + step, th.eq_flow_low) for step in (-1e-6, 1e-6)]
    for beta, flow_low in near:
        # the experimenter's relative slack is far outside the 1e-9 tie band
        term = cli.ts.ic_constraints_eval(beta, flow_low - 1, 0, params)[-1]
        assert term.state == "experimenter"
        assert abs(term.slack) > 1e-6 * max(term.follow, term.deviate)
        assert _oracle_checks(capsys, path, beta)[0] == 0
    # Off the tie, finding both outcomes fails the check.
    true_brute = cli.ts.brute_force_equilibrium

    def both(params, beta, regime):
        flow_low = th.eq_flow_low if regime == "full" else 1
        return [cli.ts.EquilibriumOutcome(0, 0, 0), cli.ts.EquilibriumOutcome(1, flow_low, 0)]

    monkeypatch.setattr(cli.ts, "brute_force_equilibrium", both)
    for beta, _ in near:
        code, checks = _oracle_checks(capsys, path, beta)
        assert code == 1 and not any(check["passed"] for check in checks.values())
    # At the tie, a wrong prediction still fails.
    monkeypatch.setattr(cli.ts, "brute_force_equilibrium", true_brute)
    monkeypatch.setattr(cli.ts, "equilibrium_flows",
                        lambda beta, regime, params: cli.ts.EquilibriumOutcome(1, 2, 0))
    for beta, regime in ((th.beta_p, "private"), (th.beta_f, "full")):
        code, checks = _oracle_checks(capsys, path, beta)
        assert code == 1 and not checks[regime]["passed"]


def test_output_file(tmp_path, reference_file):
    out = tmp_path / "record.json"
    code = main(["infinite", "--params", reference_file, "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["pi_star"] == {"c": 2, "d": 3}


@pytest.mark.parametrize("command", [["two-stage"], ["oracle", "--target", "two-stage"]])
def test_empty_beta_grid_exits_2(capsys, example1_file, command):
    # An empty grid is bad input, as for --delta-grid, not a missing one:
    # the file's beta must not stand in for it.
    assert main([command[0], "--params", example1_file, *command[1:], "--beta-grid", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "roadrec: parameter error: grid '' is empty\n"


def test_float_formatting_is_significant_digits(capsys, example1_file):
    code, data = run_json(capsys, ["two-stage", "--params", example1_file])
    assert code == 0
    # twelve significant digits survive the round trip
    assert data["thresholds"]["beta_p"] == 0.50454086781


def test_missing_params_file(capsys):
    assert main(["two-stage", "--params", "/nonexistent.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_output_exits_2(capsys, tmp_path, example1_file, fmt):
    # into a missing directory, and onto a directory
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        argv = ["two-stage", "--params", example1_file, "--format", fmt, "--output", str(target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("roadrec: parameter error: cannot write")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "roadrec.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "roadrec" in proc.stdout


def test_broken_identity_exits_3(capsys, reference_file, monkeypatch):
    # a closed form that drifts from the others breaks the state-cost identity
    true_cost = inf._scheme_cost
    monkeypatch.setattr(inf, "_scheme_cost",
                        lambda c, d, params, dl: 1.01 * true_cost(c, d, params, dl))
    assert main(["infinite", "--params", reference_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("roadrec: ")
    assert "identity" in lines[0]


def test_two_stage_computes_thresholds_once(capsys, example1_file, monkeypatch):
    # Only the body of thresholds calls two_stage.myopic_eq_flow, so its
    # calls count the computations, not the memo's hits.
    calls = []
    true_flow = cli.ts.myopic_eq_flow

    def counted(coef, params):
        calls.append(params)
        return true_flow(coef, params)

    monkeypatch.setattr(cli.ts, "myopic_eq_flow", counted)
    code, data = run_json(capsys, ["two-stage", "--params", example1_file,
                                   "--beta-grid", "0.3,0.55,0.6"])
    assert code == 0 and len(data["rows"]) == 3
    assert len(calls) == 1


def test_infinite_computes_low_flows_once(capsys, reference_file, monkeypatch):
    # Only the body of infinite.low_flows calls infinite.myopic_eq_flow.
    calls = []
    true_flow = inf.myopic_eq_flow

    def counted(coef, params):
        calls.append(params)
        return true_flow(coef, params)

    monkeypatch.setattr(inf, "myopic_eq_flow", counted)
    code, data = run_json(capsys, ["infinite", "--params", reference_file])
    assert code == 0 and data["x_eq"] == 3
    assert len(calls) == 1


def test_reused_parser_keeps_no_state(capsys, reference_file, example1_file):
    # main() builds its parser once per process; a call with an optional
    # flag must not leak that flag into the next call of the same subcommand.
    sim_args = ["simulate", "--params", reference_file, "--trials", "60",
                "--horizon", "6", "--max-wait", "30", "--seed", "2"]
    calls = [
        sim_args + ["--trigger", "3:pooled:safe"], sim_args,
        ["two-stage", "--params", example1_file, "--format", "csv"],
        ["two-stage", "--params", example1_file],
        ["two-stage", "--params", example1_file, "--beta-grid", "0.3,0.6"],
        ["two-stage", "--params", example1_file],
    ]
    parser = cli._parser()
    reused = [(main(argv), capsys.readouterr()) for argv in calls]
    assert cli._parser() is parser
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert reused == fresh
    assert "rollout" in reused[0][1].out and "rollout" not in reused[1][1].out
    assert reused[2][1].out.startswith("beta,") and reused[3][1].out.startswith("{")
    assert len(strict_loads(reused[4][1].out)["rows"]) == 2
    assert len(strict_loads(reused[5][1].out)["rows"]) == 1
    assert cli.build_parser() is not cli.build_parser()


# Argvs whose parse main() must leave exactly as the full parser does: the
# subcommand fast path (extras, '--', help and abbreviations after the name)
# and every argv that falls back to the full parser.
ODD_ARGVS = [
    [],
    ["-h"],
    ["--version"],
    ["--vers"],
    ["--version", "infinite", "--params", "x"],
    ["--help", "infinite"],
    ["bogus"],
    ["bogus", "--params", "x"],
    ["Infinite", "--params", "x"],
    ["--", "infinite", "--params", "x"],
    ["infinite"],
    ["infinite", "--params"],
    ["infinite", "--params", "x"],
    ["infinite", "--params", "x", "extra"],
    ["infinite", "--params", "x", "extra", "--more", "-z"],
    ["infinite", "-h"],
    ["infinite", "--params", "x", "--help"],
    ["infinite", "--params", "x", "--version"],
    ["infinite", "--par", "x", "--out", "y"],
    ["infinite", "--params=x"],
    ["infinite", "--params=x", "--output=y", "--format=csv"],
    ["infinite", "--", "--params", "x"],
    ["infinite", "--params", "x", "--"],
    ["infinite", "--params", "x", "--", "extra"],
    ["infinite", "infinite", "--params", "x"],
    ["two-stage", "--params", "x", "--beta", "0.3"],
    ["two-stage", "--params", "x", "--format", "xml"],
    ["sweep", "--params", "x", "--delta-grid", "0.1:0.9:0.1", "-x"],
    ["simulate", "--params", "x", "--start", "low"],
    ["simulate", "--params", "x", "--t", "5"],
    ["simulate", "--params", "x", "--trials", "abc"],
    ["simulate", "--params", "x", "--seed", "-3", "--trigger=-3:pooled:safe"],
    ["oracle", "--params", "x"],
    ["oracle", "--params", "x", "--target", "infinite", "--target", "two-stage"],
]


def _parse_outcome(parse, argv, capsys):
    """The namespace parse(argv) returns, or its exit code, with what it printed."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", ODD_ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_main_parses_as_the_full_parser_does(capsys, argv):
    want = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert _parse_outcome(cli._parse_args, argv, capsys) == want
