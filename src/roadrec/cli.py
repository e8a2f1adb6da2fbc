"""Command-line interface.

Subcommands:

  two-stage   benchmark costs, thresholds, and the optimal recommendation
              scheme over a grid of prior beliefs
  infinite    gate check, recommendation-flow bounds, the candidate schemes,
              their obedience report, and the exhaustive search winner
  sweep       how the optimal scheme and its cost move with the discount
  simulate    Monte Carlo estimates vs the closed forms, optionally a
              deviation rollout at a chosen trigger state
  oracle      independent cross-checks: two_stage.oracle_checks (brute-force
              equilibria) or infinite.oracle_checks (state costs solved from
              the dispatch chain)

Exit status: 0 on success and all checks passing, 1 when model assumptions
fail or an oracle disagrees, 2 on malformed input, on numbers that leave the
floating-point range, or on an --output file that cannot be written, 3 when an
identity the closed forms guarantee breaks (a bug in the program). Numbers are
printed with twelve significant digits, JSON by default; two-stage and sweep
can emit CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from gettext import gettext

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
)
from . import two_stage as ts
from . import infinite as inf
from . import sim
from .sim import AgentState, SimConfig


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """obj as the text of json.dumps(obj, indent=2, allow_nan=False), with
    every float rounded to 12 significant digits first, in one walk.

    A record (a dataclass instance) prints as its fields, in field order;
    vars() reads them without the deep copy of dataclasses.asdict. Dict keys
    must be strings. A non-finite float raises InternalError, and a value
    JSON has no form for raises TypeError, as json.dumps does.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts.append)
    return "".join(parts)


def _write_json(obj, newline: str, out) -> None:
    """Append obj's JSON text to out; newline starts a line at obj's own indent."""
    if isinstance(obj, str):
        out(_encode_str(obj))
    elif isinstance(obj, float):
        value = float(f"{obj:.12g}")
        if not math.isfinite(value):
            raise InternalError("refusing to print a non-finite number as JSON: "
                                f"Out of range float values are not JSON compliant: {value!r}")
        out(float.__repr__(value))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + _encode_str(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif hasattr(obj, "__dataclass_fields__"):  # what dataclasses.is_dataclass tests
        _write_json(vars(obj), newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(text: str, args: argparse.Namespace) -> None:
    """Write text to --output, or to stdout without one."""
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output file {args.output}: {exc}") from None


def _emit(payload: dict, args: argparse.Namespace) -> None:
    _write(_json_text(payload) + "\n", args)


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
    _write(buf.getvalue(), args)


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


def _betas(args: argparse.Namespace, file_beta: float | None) -> list[float]:
    if args.beta_grid is not None:
        return parse_grid(args.beta_grid)
    if file_beta is not None:
        return [file_beta]
    raise ParameterError("no belief given: pass --beta-grid or put 'beta' in the params file")


def _all_gated(what: str, model: str, detail: str) -> AssumptionError:
    """The error for a grid whose every point fails its gate: exit 1, one
    line on stderr, nothing on stdout."""
    return AssumptionError(
        f"every requested {what} falls outside the {model} assumptions ({detail})"
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_two_stage(args: argparse.Namespace) -> int:
    params, file_beta = load_params(args.params)
    betas = _betas(args, file_beta)
    th = ts.thresholds(params)
    rows = []
    n_gated = 0
    for beta in betas:
        gate = check_assumption_two_stage(beta, params)
        if not gate.passed:
            n_gated += 1
            rows.append({"beta": beta, "gated": True, "note": "; ".join(gate.failures)})
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
        # beta_limit does not depend on the belief, so the last gate's serves
        raise _all_gated("belief", "two-stage",
                         f"beliefs must be below {gate.beta_limit:.12g}")
    if args.format == "csv":
        cols = ["beta", "gated", "region", "v_full", "v_private", "v_partial",
                "v_so", "experiment", "pi2_low", "pi2_high", "note"]
        _emit_csv(cols, rows, args)
        return 0
    # beta_so_alt only feeds the thresholds' warning.
    thresholds = {k: v for k, v in vars(th).items() if k != "beta_so_alt"}
    _emit({"params": params, "thresholds": thresholds, "rows": rows}, args)
    return 0


def cmd_infinite(args: argparse.Namespace) -> int:
    _require_json_format(args, "infinite")
    params, _ = load_params(args.params)
    # One search pass runs the gate, checks the flows and gives x_ll, the
    # candidate schemes, pi_star's obedience report and the costs of the
    # three schemes printed, all of which lie in its flow box.
    search = inf.optimal_scheme_search(params)
    x_so, x_eq = inf.low_flows(params)
    x_ll, star, tilde = search.x_ll, search.pi_star, search.pi_tilde_star
    box = search.candidates
    payload = {
        "params": params,
        "mu_low": mu_low(params),
        "mu_high": mu_high(params),
        "x_so": x_so,
        "x_eq": x_eq,
        # The scan starts at the planner's flow, so the first obedient
        # steady flow and the steady flow it yields are one number.
        "x_ll_bar": x_ll,
        "x_ll": x_ll,
        "pi_star": star,
        "pi_tilde_star": tilde,
        "v_pi_star": box.cost_of(star.c, star.d),
        "v_pi_tilde_star": None if tilde is None else box.cost_of(tilde.c, tilde.d),
        "v_myopic_planner": box.cost_of(x_so, x_so),
        "v_no_experiment": params.n * params.s0 / (1.0 - params.delta),
        "ic": search.pi_star_ic,
        "search": {
            "winner": search.winner,
            "winner_cost": search.winner_cost,
            "matches_pi_star": search.matches_pi_star,
            "matches_pi_tilde_star": search.matches_pi_tilde_star,
            "n_feasible": int(np.count_nonzero(box.feasible)),
            "warnings": search.warnings,
        },
    }
    _emit(payload, args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params, _ = load_params(args.params)
    deltas = parse_grid(args.delta_grid)
    points = inf.delta_sweep(params, deltas)
    if not any(point.feasible for point in points):
        # the gate's only discount-dependent bound is loosest at the largest discount
        loosest = max(points, key=lambda point: point.delta)
        raise _all_gated("discount", "infinite-horizon",
                         f"at delta={loosest.delta:.12g}: " + "; ".join(loosest.notes))
    if args.format == "csv":
        cols = [field.name for field in dataclasses.fields(inf.SweepPoint)]
        _emit_csv(cols, [dict(vars(p), notes="; ".join(p.notes)) for p in points], args)
        return 0
    _emit({"params": params, "rows": points}, args)
    return 0


def _parse_scheme(text: str, params: GameParams) -> tuple[int, int]:
    try:
        c, d = (int(p) for p in text.split(","))
    except ValueError:
        raise ParameterError(f"scheme must be 'c,d' integers, got {text!r}") from None
    inf.InfiniteScheme(c=c, d=d).validate(params)
    return c, d


def _parse_trigger(text: str, params: GameParams) -> AgentState:
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
    return AgentState(prev_flow=flow, tag=tag, rec=rec).validate(params)


def cmd_simulate(args: argparse.Namespace) -> int:
    _require_json_format(args, "simulate")
    params, _ = load_params(args.params)
    # The gate runs before any input is validated.
    if args.scheme:
        inf.require_gate(params)
        c, d = _parse_scheme(args.scheme, params)
    else:
        star = inf.pi_star(params)  # runs the gate first
        c, d = star.c, star.d
    trig = _parse_trigger(args.trigger, params) if args.trigger else None
    config = SimConfig(c=c, d=d, trials=args.trials, horizon=args.horizon,
                       seed=args.seed, max_wait=args.max_wait)
    stats = sim.run_scheme(config, params)
    total = inf.scheme_cost(c, d, params)
    payload = {
        "params": params,
        "scheme": config.scheme(),
        "closed_form": {"total": total, "per_agent": total / params.n},
        "mc": {
            **vars(stats),
            "trials": config.trials,
            "horizon": config.horizon,
            "seed": config.seed,
            "start": "high",  # every chain starts right after a high stage
        },
        "z_total": (
            (stats.total_mean - total) / stats.total_se if stats.total_se else None
        ),
    }
    if trig is not None:
        payload["rollout"] = sim.deviation_rollout(config, trig, params)
    _emit(payload, args)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    _require_json_format(args, "oracle")
    params, file_beta = load_params(args.params)
    if args.target == "two-stage":
        checks = ts.oracle_checks(params, _betas(args, file_beta))
    else:
        checks = inf.oracle_checks(params)
    passed = all(c["passed"] for c in checks)
    _emit({"target": args.target, "passed": passed, "checks": checks}, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and the parser of each subcommand by its name."""
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
    sim_defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    for name in ("trials", "horizon", "seed", "max_wait"):
        p.add_argument("--" + name.replace("_", "-"), type=int, default=sim_defaults[name])
    p.add_argument("--trigger", help="deviation trigger as FLOW:TAG:REC, e.g. '3:pooled:safe' "
                                     "(FLOW is 1..n or 'any'; TAG is low/high/pooled)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="independent cross-checks of the closed forms")
    common(p)
    p.add_argument("--target", choices=("two-stage", "infinite"), required=True)
    p.add_argument("--beta-grid", help="beliefs for the two-stage oracle")
    p.set_defaults(func=cmd_oracle)

    # add_subparsers' action lists each subcommand's parser as its choices
    return parser, sub.choices


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers main() uses, built on its first call and kept for the process.

    Parsing leaves no state in them: every call gets a fresh namespace
    filled from the declared defaults.
    """
    return _build_parsers()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns, with one scan of argv
    when argv[0] names a subcommand.

    The full parser hands such an argv to its subparsers action whole: the
    action's positional takes the name and every token after it, options
    included, so none of them reaches the full parser's own options. The
    action sets `command` to the name, fills the namespace from the
    subcommand parser's parse_known_args of the rest, and the full parser
    then exits through error() on whatever that leaves over. Calling the
    same subcommand parser here, and the full parser's error() with
    argparse's own message, is that path without the full parser's scan.
    Every other argv (empty, an option first, an unknown name) goes
    through the full parser, which alone answers --help, --version and its
    usage errors.
    """
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        # A cost or a value derived from it left the float range: the
        # numbers would be inf or NaN, so no verdict can be trusted.
        print(f"roadrec: parameter error: the game's numbers leave the floating-point "
              f"range ({exc})", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"roadrec: parameter error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"roadrec: internal error: {exc}", file=sys.stderr)
        return 3
    except AssumptionError as exc:
        print(f"roadrec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
