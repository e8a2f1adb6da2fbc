"""The printed schema of every subcommand.

Each JSON payload is pinned as its key paths in print order: a dict's keys
in order, each followed by the paths below it, and a list's items as "[]",
with every distinct item schema listed once, in order of first appearance
(so gated and solved two-stage rows both show). The CSV commands pin their
header lines.
"""

import json

import pytest

from roadrec.cli import main

REFERENCE_RAW = {"n": 10, "s0": 10, "s1": 0, "l": 1, "h": 19,
                 "gamma_l": 0.1, "gamma_h": 0.5, "delta": 0.5}
# x_so = 9 and x_eq = 17 at n = 100, so pi_tilde_star exists (it is null on
# REFERENCE).
WIDE_RAW = {"n": 100, "s0": 60.0, "s1": 0.0, "l": 1.0, "h": 120.0,
            "gamma_l": 0.02, "gamma_h": 0.5, "delta": 0.5}
EXAMPLE1_RAW = {"n": 40, "s0": 10, "s1": 1, "l": 0.9, "h": 150, "beta": 0.55}
# REFERENCE with h = 19.2: the sweep's delta = 0.2 fails the gate.
EDGE_RAW = dict(REFERENCE_RAW, h=19.2)

PARAMS_PATHS = ["params", "params.n", "params.s0", "params.s1", "params.l",
                "params.h", "params.gamma_l", "params.gamma_h", "params.delta"]


def key_paths(value, prefix: str = "") -> list[str]:
    """Key paths of a JSON value in print order (see the module docstring)."""
    if isinstance(value, dict):
        out = []
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            out.append(path)
            out += key_paths(item, path)
        return out
    if isinstance(value, list):
        schemas: list[list[str]] = []
        for item in value:
            schema = key_paths(item, prefix + "[]")
            if schema not in schemas:
                schemas.append(schema)
        return [path for schema in schemas for path in schema]
    return []


@pytest.fixture
def write(tmp_path):
    def write(raw: dict) -> str:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(raw))
        return str(path)
    return write


def run(capsys, argv: list[str], code: int = 0) -> str:
    assert main(argv) == code, capsys.readouterr().err
    return capsys.readouterr().out


TWO_STAGE_ROW = ["rows[].beta", "rows[].gated", "rows[].region", "rows[].v_full",
                 "rows[].v_private", "rows[].v_partial", "rows[].v_so",
                 "rows[].experiment", "rows[].pi2_low", "rows[].pi2_high"]
GATED_ROW = ["rows[].beta", "rows[].gated", "rows[].note"]


def test_two_stage_schema(capsys, write):
    out = run(capsys, ["two-stage", "--params", write(EXAMPLE1_RAW),
                       "--beta-grid", "0.01,0.55,0.9"])
    assert key_paths(json.loads(out)) == PARAMS_PATHS + [
        "thresholds", "thresholds.beta_so", "thresholds.beta_p", "thresholds.beta_f",
        "thresholds.eq_flow_low", "thresholds.so_flow_low", "thresholds.so_flow_high",
        "thresholds.warnings", "rows",
    ] + TWO_STAGE_ROW + GATED_ROW


def test_two_stage_csv_header(capsys, write):
    out = run(capsys, ["two-stage", "--params", write(EXAMPLE1_RAW), "--format", "csv",
                       "--beta-grid", "0.01,0.55,0.9"])
    lines = out.splitlines()
    assert lines[0] == ("beta,gated,region,v_full,v_private,v_partial,v_so,"
                        "experiment,pi2_low,pi2_high,note")
    assert len(lines) == 4


IC_PATHS = ["ic", "ic.c", "ic.d", "ic.verdict", "ic.pre_flow_range",
            "ic.pre_ramp_cheaper", "ic.pre_steady_obedient", "ic.entries",
            "ic.entries[].state", "ic.entries[].follow", "ic.entries[].deviate",
            "ic.entries[].slack", "ic.entries[].vacuous", "ic.entries[].boundary",
            "ic.entries[].satisfied", "ic.warnings"]
SEARCH_PATHS = ["search", "search.winner", "search.winner.c", "search.winner.d",
                "search.winner_cost", "search.matches_pi_star",
                "search.matches_pi_tilde_star", "search.n_feasible", "search.warnings"]


@pytest.mark.parametrize("raw, tilde", [
    (REFERENCE_RAW, []),
    (WIDE_RAW, ["pi_tilde_star.c", "pi_tilde_star.d"]),
], ids=["reference", "wide"])
def test_infinite_schema(capsys, write, raw, tilde):
    out = run(capsys, ["infinite", "--params", write(raw)])
    assert key_paths(json.loads(out)) == PARAMS_PATHS + [
        "mu_low", "mu_high", "x_so", "x_eq", "x_ll_bar", "x_ll",
        "pi_star", "pi_star.c", "pi_star.d", "pi_tilde_star",
    ] + tilde + [
        "v_pi_star", "v_pi_tilde_star", "v_myopic_planner", "v_no_experiment",
    ] + IC_PATHS + SEARCH_PATHS


SWEEP_ROW = ["rows[].delta", "rows[].feasible", "rows[].x_ll", "rows[].v_pi_star",
             "rows[].v_myopic_planner", "rows[].ratio", "rows[].notes"]


def test_sweep_schema(capsys, write):
    out = run(capsys, ["sweep", "--params", write(EDGE_RAW), "--delta-grid", "0.2,0.5,0.9"])
    data = json.loads(out)
    assert [row["feasible"] for row in data["rows"]] == [False, True, True]
    assert data["rows"][0]["notes"] and data["rows"][1]["notes"] == []
    assert key_paths(data) == PARAMS_PATHS + ["rows"] + SWEEP_ROW


def test_sweep_csv_header(capsys, write):
    out = run(capsys, ["sweep", "--params", write(EDGE_RAW), "--format", "csv",
                       "--delta-grid", "0.2,0.5,0.9"])
    lines = out.splitlines()
    assert lines[0] == "delta,feasible,x_ll,v_pi_star,v_myopic_planner,ratio,notes"
    assert len(lines) == 4


SIMULATE_PATHS = PARAMS_PATHS + [
    "scheme", "scheme.c", "scheme.d", "closed_form", "closed_form.total",
    "closed_form.per_agent", "mc", "mc.total_mean", "mc.total_se",
    "mc.per_agent_mean", "mc.per_agent_se", "mc.tail_bound", "mc.trials",
    "mc.horizon", "mc.seed", "mc.start", "z_total",
]
ROLLOUT_PATHS = [
    "rollout", "rollout.trigger", "rollout.trigger.prev_flow", "rollout.trigger.tag",
    "rollout.trigger.rec", "rollout.n_triggered", "rollout.n_skipped",
    "rollout.follow_mean", "rollout.follow_se", "rollout.deviate_mean",
    "rollout.deviate_se", "rollout.diff_mean", "rollout.diff_se",
    "rollout.tail_bound", "rollout.note",
]


@pytest.mark.parametrize("extra, rollout", [
    ([], []),
    (["--trigger", "3:pooled:safe", "--max-wait", "40"], ROLLOUT_PATHS),
    (["--trigger", "any:high:risky", "--max-wait", "2"], ROLLOUT_PATHS),
], ids=["plain", "rollout", "unreached-trigger"])
def test_simulate_schema(capsys, write, extra, rollout):
    out = run(capsys, ["simulate", "--params", write(REFERENCE_RAW), "--trials", "50",
                       "--horizon", "6", "--seed", "2"] + extra)
    assert key_paths(json.loads(out)) == SIMULATE_PATHS + rollout


@pytest.mark.parametrize("target, raw, extra, code", [
    # the gated belief 0.99 is a failed check, hence exit status 1
    ("two-stage", dict(EXAMPLE1_RAW, n=4), ["--beta-grid", "0.3,0.99"], 1),
    ("infinite", REFERENCE_RAW, [], 0),
])
def test_oracle_schema(capsys, write, target, raw, extra, code):
    out = run(capsys, ["oracle", "--params", write(raw), "--target", target] + extra, code)
    assert key_paths(json.loads(out)) == [
        "target", "passed", "checks", "checks[].name", "checks[].passed",
        "checks[].detail",
    ]
