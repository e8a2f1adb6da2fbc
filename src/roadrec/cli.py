"""Command-line interface.

Subcommands:

  two-stage   benchmark costs, thresholds, and the optimal recommendation
              scheme over a grid of prior beliefs
  infinite    gate check, recommendation-flow bounds, the candidate schemes,
              their obedience report, and the exhaustive search winner
  sweep       how the optimal scheme and its cost move with the discount
  simulate    Monte Carlo estimates vs the closed forms, optionally a
              deviation rollout at a chosen trigger state
  oracle      independent cross-checks (brute-force equilibria for the
              two-stage game, linear-solve state costs for the infinite one)

Exit status: 0 on success and all checks passing, 1 when model assumptions
fail or an oracle disagrees, 2 on malformed input, 3 when an identity the
closed forms guarantee breaks (a bug in the program). Numbers are printed with
twelve significant digits, JSON by default; two-stage and sweep can emit CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .model import (
    AssumptionError,
    GameParams,
    InternalError,
    ParameterError,
    check_assumption_two_stage,
    load_params,
    mu_high,
    mu_low,
    myopic_eq_flow,
    myopic_so_flow,
)
from . import two_stage as ts
from . import infinite as inf
from .sim import AgentState, SimConfig, deviation_rollout, run_scheme


def _fmt_float(x: float) -> float:
    return float(f"{x:.12g}")


def _rounded(obj):
    """Recursively round floats to 12 significant digits for output."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _emit(payload: dict, args: argparse.Namespace) -> None:
    try:
        text = json.dumps(_rounded(payload), indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InternalError(f"refusing to print a non-finite number as JSON: {exc}") from None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(columns: list[str], rows: list[dict], args: argparse.Namespace) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        out = []
        for col in columns:
            v = row.get(col)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(f"{v:.12g}")
            elif isinstance(v, bool):
                out.append(str(v).lower())
            else:
                out.append(str(v))
        writer.writerow(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _require_json_format(args: argparse.Namespace, command: str) -> None:
    if args.format == "csv":
        raise ParameterError(f"csv output is not available for {command}; use json")


# Most points a start:stop:step grid may have.
_MAX_GRID_POINTS = 10_000


def parse_grid(text: str) -> list[float]:
    """Parse '0.1,0.2,0.3' or 'start:stop:step' (inclusive of stop)."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ParameterError(f"grid must be start:stop:step, got {text!r}")
            start, stop, step = (float(p) for p in parts)
            if not all(math.isfinite(v) for v in (start, stop, step)):
                raise ParameterError(f"grid start, stop and step must be finite, got {text!r}")
            if step <= 0:
                raise ParameterError(f"grid step must be positive, got {step}")
            if stop < start:
                raise ParameterError(f"grid stop {stop} is below start {start}")
            if (stop + 1e-12 - start) / step >= _MAX_GRID_POINTS:
                raise ParameterError(
                    f"grid {text!r} has more than {_MAX_GRID_POINTS} points"
                )
            values = []
            k = 0
            while (v := start + k * step) <= stop + 1e-12:
                values.append(round(v, 12))
                k += 1
            return values
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ParameterError(f"could not parse grid {text!r}: {exc}") from None
    if not values:
        raise ParameterError(f"grid {text!r} is empty")
    return values


def _load(args: argparse.Namespace) -> tuple[GameParams, float | None]:
    return load_params(args.params)


def _params_dict(params: GameParams) -> dict:
    return dataclasses.asdict(params)


def _betas(args: argparse.Namespace, file_beta: float | None) -> list[float]:
    if getattr(args, "beta_grid", None):
        return parse_grid(args.beta_grid)
    if file_beta is not None:
        return [file_beta]
    raise ParameterError("no belief given: pass --beta-grid or put 'beta' in the params file")


# ---------------------------------------------------------------------------
# subcommands

def cmd_two_stage(args: argparse.Namespace) -> int:
    params, file_beta = _load(args)
    betas = _betas(args, file_beta)
    th = ts.thresholds(params)
    rows = []
    n_gated = 0
    for beta in betas:
        gate = check_assumption_two_stage(beta, params)
        if not gate.passed:
            n_gated += 1
            rows.append({"beta": beta, "gated": True, "note": "; ".join(gate.failures())})
            continue
        scheme = ts.solve_optimal_scheme(beta, params)
        rows.append({
            "beta": beta,
            "gated": False,
            "region": ts.region(beta, th),
            "v_full": ts.cost_full(beta, params),
            "v_private": ts.cost_private(beta, params),
            "v_partial": scheme.expected_cost,
            "v_so": ts.cost_social_optimum(beta, params),
            "experiment": scheme.experiment,
            "pi2_low": scheme.pi2_low,
            "pi2_high": scheme.pi2_high,
        })
    if n_gated == len(rows):
        limit = check_assumption_two_stage(0.0, params).beta_limit
        raise AssumptionError(
            "every requested belief falls outside the two-stage assumptions "
            f"(beliefs must be below {limit:.12g})"
        )
    if args.format == "csv":
        cols = ["beta", "gated", "region", "v_full", "v_private", "v_partial",
                "v_so", "experiment", "pi2_low", "pi2_high", "note"]
        _emit_csv(cols, rows, args)
        return 0
    payload = {
        "params": _params_dict(params),
        "thresholds": {
            "beta_so": th.beta_so,
            "beta_p": th.beta_p,
            "beta_f": th.beta_f,
            "eq_flow_low": th.eq_flow_low,
            "so_flow_low": th.so_flow_low,
            "so_flow_high": th.so_flow_high,
            "warnings": list(th.warnings),
        },
        "rows": rows,
    }
    _emit(payload, args)
    return 0


def _scheme_dict(s: inf.InfiniteScheme | None) -> dict | None:
    return None if s is None else {"c": s.c, "d": s.d}


def _ic_dict(report: inf.ICReport) -> dict:
    return {
        "c": report.c,
        "d": report.d,
        "verdict": report.verdict,
        "pre_flow_range": report.pre_flow_range,
        "pre_ramp_cheaper": report.pre_ramp_cheaper,
        "pre_steady_obedient": report.pre_steady_obedient,
        "entries": [
            {
                "state": e.state,
                "follow": e.follow,
                "deviate": e.deviate,
                "slack": e.slack,
                "vacuous": e.vacuous,
                "boundary": e.boundary,
                "satisfied": e.satisfied,
            }
            for e in report.entries
        ],
        "warnings": list(report.warnings),
    }


def cmd_infinite(args: argparse.Namespace) -> int:
    _require_json_format(args, "infinite")
    params, _ = _load(args)
    inf.require_gate(params)
    ml = mu_low(params)
    x_so = myopic_so_flow(ml, params)
    x_eq = myopic_eq_flow(ml, params)
    x_ll_bar, x_ll = inf.compute_x_ll(params)
    star = inf.pi_star(params)
    tilde = inf.pi_tilde_star(params)
    search = inf.optimal_scheme_search(params)
    payload = {
        "params": _params_dict(params),
        "mu_low": ml,
        "mu_high": mu_high(params),
        "x_so": x_so,
        "x_eq": x_eq,
        "x_ll_bar": x_ll_bar,
        "x_ll": x_ll,
        "pi_star": _scheme_dict(star),
        "pi_tilde_star": _scheme_dict(tilde),
        "v_pi_star": inf.scheme_cost(star.c, star.d, params),
        "v_pi_tilde_star": (
            None if tilde is None else inf.scheme_cost(tilde.c, tilde.d, params)
        ),
        "v_myopic_planner": inf.scheme_cost(x_so, x_so, params),
        "v_no_experiment": params.n * params.s0 / (1.0 - params.delta),
        "ic": _ic_dict(inf.check_ic(star.c, star.d, params)),
        "search": {
            "winner": {"c": search.winner.c, "d": search.winner.d},
            "winner_cost": search.winner_cost,
            "matches_pi_star": search.matches_pi_star,
            "matches_pi_tilde_star": search.matches_pi_tilde_star,
            "n_feasible": sum(1 for cand in search.candidates if cand.feasible),
            "warnings": list(search.warnings),
        },
    }
    _emit(payload, args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params, _ = _load(args)
    deltas = parse_grid(args.delta_grid)
    points = inf.delta_sweep(params, deltas)
    rows = [
        {
            "delta": p.delta,
            "feasible": p.feasible,
            "x_ll": p.x_ll,
            "v_pi_star": p.v_pi_star,
            "v_myopic_planner": p.v_so,
            "ratio": p.ratio,
            "notes": "; ".join(p.notes),
        }
        for p in points
    ]
    if args.format == "csv":
        cols = ["delta", "feasible", "x_ll", "v_pi_star", "v_myopic_planner",
                "ratio", "notes"]
        _emit_csv(cols, rows, args)
        return 0
    for row in rows:
        row["notes"] = [s for s in row["notes"].split("; ") if s]
    _emit({"params": _params_dict(params), "rows": rows}, args)
    return 0


def _parse_scheme(text: str, params: GameParams) -> tuple[int, int]:
    try:
        c, d = (int(p) for p in text.split(","))
    except ValueError:
        raise ParameterError(f"scheme must be 'c,d' integers, got {text!r}") from None
    inf.InfiniteScheme(c=c, d=d).validate(params)
    return c, d


def _parse_trigger(text: str) -> AgentState:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"trigger must be FLOW:TAG:REC, got {text!r}")
    flow_s, tag, rec = parts
    if flow_s == "any":
        flow: int | None = None
    else:
        try:
            flow = int(flow_s)
        except ValueError:
            raise ParameterError(f"trigger flow must be an integer or 'any', got {flow_s!r}") from None
    return AgentState(prev_flow=flow, tag=tag, rec=rec)


def cmd_simulate(args: argparse.Namespace) -> int:
    _require_json_format(args, "simulate")
    params, _ = _load(args)
    inf.require_gate(params)
    if args.scheme:
        c, d = _parse_scheme(args.scheme, params)
    else:
        star = inf.pi_star(params)
        c, d = star.c, star.d
    trig = _parse_trigger(args.trigger) if args.trigger else None
    config = SimConfig(c=c, d=d, trials=args.trials, horizon=args.horizon,
                       seed=args.seed, start=args.start, max_wait=args.max_wait)
    stats = run_scheme(config, params)
    total = inf.scheme_cost(c, d, params)
    payload = {
        "params": _params_dict(params),
        "scheme": {"c": c, "d": d},
        "closed_form": {"total": total, "per_agent": inf.v_bar(c, d, params)},
        "mc": {
            "total_mean": stats.total_mean,
            "total_se": stats.total_se,
            "per_agent_mean": stats.per_agent_mean,
            "per_agent_se": stats.per_agent_se,
            "tail_bound": stats.tail_bound,
            "trials": config.trials,
            "horizon": config.horizon,
            "seed": config.seed,
            "start": config.start,
        },
        "z_total": (
            (stats.total_mean - total) / stats.total_se if stats.total_se else None
        ),
    }
    if trig is not None:
        roll = deviation_rollout(config, trig, params)
        payload["rollout"] = {
            "trigger": {"prev_flow": trig.prev_flow, "tag": trig.tag, "rec": trig.rec},
            "n_triggered": roll.n_triggered,
            "n_skipped": roll.n_skipped,
            "follow_mean": roll.follow_mean,
            "follow_se": roll.follow_se,
            "deviate_mean": roll.deviate_mean,
            "deviate_se": roll.deviate_se,
            "diff_mean": roll.diff_mean,
            "diff_se": roll.diff_se,
            "tail_bound": roll.tail_bound,
            "note": roll.note,
        }
    _emit(payload, args)
    return 0


def _oracle_two_stage(params: GameParams, betas: list[float]) -> list[dict]:
    checks = []
    for beta in betas:
        gate = check_assumption_two_stage(beta, params)
        if not gate.passed:
            checks.append({
                "name": f"beta={beta:.12g}",
                "passed": False,
                "detail": "outside two-stage assumptions: " + "; ".join(gate.failures()),
            })
            continue
        for regime in ("full", "private"):
            predicted = ts.equilibrium_flows(beta, regime, params)
            found = ts.brute_force_equilibrium(params, beta, regime=regime)
            want = (predicted.experimenters, predicted.flow_low, predicted.flow_high)
            got = [(o.experimenters, o.flow_low, o.flow_high) for o in found]
            ok = got == [want]
            checks.append({
                "name": f"beta={beta:.12g} regime={regime}",
                "passed": ok,
                "detail": f"predicted {want}, brute force found {got}",
            })
    return checks


def _oracle_infinite(params: GameParams) -> list[dict]:
    inf.require_gate(params)
    c, d = inf.scheme_pairs(params.n)
    table = inf.state_costs(c, d, params)
    slack = inf.steady_slack(c, d, params)
    decomp = inf.fc_gd_decomposition(c, d, params)
    worst_fg = float(np.max(np.abs((decomp.f_c - decomp.g_d) + slack) / (1.0 + np.abs(slack))))
    names = [field.name for field in dataclasses.fields(table)]
    closed = np.column_stack([getattr(table, name) for name in names])
    linear = np.empty_like(closed)
    for k, (ck, dk) in enumerate(zip(c.tolist(), d.tolist())):
        solved = inf.state_costs_linear(ck, dk, params)
        linear[k] = [getattr(solved, name) for name in names]  # None -> NaN
    worst_state = float(np.fmax.reduce(  # fmax skips NaN
        np.abs(closed - linear) / (1.0 + np.abs(closed)), axis=None, initial=0.0
    ))
    if not np.array_equal(np.isnan(closed), np.isnan(linear)):
        worst_state = float("inf")
    checks = []
    checks.append({
        "name": f"state costs, closed form vs linear solve ({len(c)} schemes)",
        "passed": worst_state <= 1e-9,
        "detail": f"worst relative gap {worst_state:.3g}",
    })
    checks.append({
        "name": "steady-state obedience slack vs its f/g decomposition",
        "passed": worst_fg <= 1e-9,
        "detail": f"worst relative gap {worst_fg:.3g}",
    })
    return checks


def cmd_oracle(args: argparse.Namespace) -> int:
    _require_json_format(args, "oracle")
    params, file_beta = _load(args)
    if args.target == "two-stage":
        checks = _oracle_two_stage(params, _betas(args, file_beta))
    else:
        checks = _oracle_infinite(params)
    passed = all(c["passed"] for c in checks)
    _emit({"target": args.target, "passed": passed, "checks": checks}, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadrec",
        description="optimal recommendation schemes for two-road routing with experimentation",
    )
    parser.add_argument("--version", action="version", version=f"roadrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", required=True, help="path to a JSON parameter file")
        p.add_argument("--output", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("two-stage", help="benchmark costs and optimal scheme over beliefs")
    common(p)
    p.add_argument("--beta-grid", help="beliefs: comma list or start:stop:step "
                                       "(default: 'beta' from the params file)")
    p.set_defaults(func=cmd_two_stage)

    p = sub.add_parser("infinite", help="candidate schemes, obedience report, search winner")
    common(p)
    p.set_defaults(func=cmd_infinite)

    p = sub.add_parser("sweep", help="re-solve the infinite-horizon model across discounts")
    common(p)
    p.add_argument("--delta-grid", required=True,
                   help="discounts: comma list or start:stop:step")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo vs closed forms; optional deviation rollout")
    common(p)
    p.add_argument("--scheme", help="scheme flows as 'c,d' (default: the optimal scheme)")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", choices=("high", "low"), default="high")
    p.add_argument("--max-wait", type=int, default=256)
    p.add_argument("--trigger", help="deviation trigger as FLOW:TAG:REC, e.g. '3:pooled:safe' "
                                     "(FLOW may be 'any'; TAG is low/high/pooled)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="independent cross-checks of the closed forms")
    common(p)
    p.add_argument("--target", choices=("two-stage", "infinite"), required=True)
    p.add_argument("--beta-grid", help="beliefs for the two-stage oracle")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"roadrec: parameter error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"roadrec: internal error: {exc}", file=sys.stderr)
        return 3
    except (AssumptionError, RuntimeError) as exc:
        print(f"roadrec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
