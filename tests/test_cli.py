import json
import subprocess
import sys

import pytest

from roadrec import cli
from roadrec import infinite as inf
from roadrec import sim
from roadrec.cli import main, parse_grid
from roadrec.model import ParameterError


REFERENCE_RAW = {"n": 10, "s0": 10, "s1": 0, "l": 1, "h": 19,
                 "gamma_l": 0.1, "gamma_h": 0.5, "delta": 0.5}
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
    assert "note" in gated[0]


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
    # pi_star, pi_tilde_star and the search's comparison all reuse one x_ll
    calls = []
    true_compute_x_ll = inf.compute_x_ll

    def counted(params):
        calls.append(params)
        return true_compute_x_ll(params)

    monkeypatch.setattr(inf, "compute_x_ll", counted)
    code, data = run_json(capsys, ["infinite", "--params", reference_file])
    assert code == 0 and data["search"]["matches_pi_star"] is True
    assert len(calls) == 1


def test_infinite_rejects_csv(capsys, reference_file):
    assert main(["infinite", "--params", reference_file, "--format", "csv"]) == 2


def test_infinite_gate_failure_exit(capsys, example1_file):
    code = main(["infinite", "--params", example1_file])
    assert code == 1
    assert "gate fails" in capsys.readouterr().err


def test_sweep_csv(capsys, reference_file):
    code = main(["sweep", "--params", reference_file, "--format", "csv",
                 "--delta-grid", "0.2:0.9:0.35"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["delta", "feasible", "x_ll"]
    assert len(lines) == 4  # 0.2, 0.55, 0.9
    assert lines[-1].split(",")[5] == "1"  # ratio is exactly one at 0.9


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


def test_simulate_rejects_bad_trigger(capsys, reference_file):
    assert main(["simulate", "--params", reference_file,
                 "--trigger", "3:pooled"]) == 2
    assert main(["simulate", "--params", reference_file,
                 "--trigger", "x:pooled:safe"]) == 2
    assert main(["simulate", "--params", reference_file,
                 "--scheme", "1,3"]) == 2


def test_simulate_validates_trigger_before_simulating(capsys, reference_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before validating the trigger")

    monkeypatch.setattr(cli, "run_scheme", refuse)
    monkeypatch.setattr(cli, "deviation_rollout", refuse)
    for bad in ("3:pooled", "x:pooled:safe", "3:pooled:maybe", "3:sideways:safe"):
        assert main(["simulate", "--params", reference_file, "--trigger", bad]) == 2
        assert capsys.readouterr().err.startswith("roadrec: parameter error")


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

    monkeypatch.setattr(cli, "run_scheme", refuse)
    monkeypatch.setattr(cli, "deviation_rollout", refuse)
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


def test_output_file(tmp_path, reference_file):
    out = tmp_path / "record.json"
    code = main(["infinite", "--params", reference_file, "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["pi_star"] == {"c": 2, "d": 3}


def test_float_formatting_is_significant_digits(capsys, example1_file):
    code, data = run_json(capsys, ["two-stage", "--params", example1_file])
    assert code == 0
    # twelve significant digits survive the round trip
    assert data["thresholds"]["beta_p"] == 0.50454086781


def test_missing_params_file(capsys):
    assert main(["two-stage", "--params", "/nonexistent.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "roadrec.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "roadrec" in proc.stdout


def test_broken_identity_exits_3(capsys, reference_file, monkeypatch):
    # a closed form that drifts from the others breaks the state-cost identity
    true_v_bar = inf.v_bar
    monkeypatch.setattr(inf, "v_bar", lambda c, d, params: 1.01 * true_v_bar(c, d, params))
    assert main(["infinite", "--params", reference_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("roadrec: ")
    assert "identity" in lines[0]
