"""End-to-end benchmark of the roadrec command line.

Run from the root of a checkout:

    python3 roadbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

The workload's calls go through ``roadrec.cli.main(argv)`` in this process,
each writing its result with ``--output`` into a work directory that is
removed at exit. Set-up (untimed) generates the parameter files from the
seed, measures ``setup_s`` in fresh interpreters, makes the calls of
``workloads.KNOWN_DEFECTS`` once and reports them apart, and runs one
warm-up pass.
Then whole passes over the call list are timed until ``--seconds`` is used
up, and every call's exit code, stderr and output are checked. A timer
signal samples the host's speed during each pass (see ``Speedometer``),
and the time metrics BENCHMARK.json lists, ``wall_ref_s`` and ``setup_s``,
are scaled to a fixed reference speed; the raw times are reported too.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half the time is spent untraced and
half traced, the last line carries the per-layer metrics, and the spans of
the last traced pass go to ``roadbench/traces/``. The lines before it are a
readable report of every metric with its unit and sample count.
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import os

# One thread: pin BLAS before numpy is imported (here and in set-up children).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
SAMPLE_INTERVAL = 0.01  # seconds between speed samples while a pass runs
REFERENCE_SAMPLE_S = 3e-4  # speed-sample time that defines the reference speed
SETUP_CODE = "import roadrec.cli; roadrec.cli.build_parser()"
COMMANDS = ("infinite", "oracle", "sweep", "two-stage", "simulate")
P90_MIN_CALLS = 100  # at least ten calls beyond the 90th percentile

# The metrics BENCHMARK.json lists: the same names on every workload.
END_TO_END = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: every function the layer map names, the derived work
# counts, the CLI's own share and the tracer's cost.
LAYER_FUNCTIONS = {
    "model": ("stage_cost", "myopic_so_flow", "myopic_eq_flow", "load_params",
              "check_assumption_infinite", "check_assumption_two_stage"),
    "infinite": ("posteriors", "v_bar", "scheme_cost", "state_costs",
                 "state_costs_linear", "check_ic", "steady_slack", "fc_gd_decomposition",
                 "optimal_scheme_search", "compute_x_ll", "pi_star", "delta_sweep"),
    "two_stage": ("thresholds", "ic_constraints_eval", "solve_optimal_scheme",
                  "brute_force_equilibrium"),
    "sim": ("run_scheme", "deviation_rollout", "simulate_chain"),
}
DERIVED = {
    "infinite.search.pairs": "count",
    "infinite.search.feasible_ratio": "ratio",
    "infinite.sweep.feasible_ratio": "ratio",
    "two_stage.solve.feasible_ratio": "ratio",
    "two_stage.brute_force.profiles": "count-computed",
    "sim.stages": "count",
    "sim.rollout.trigger_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in LAYER_FUNCTIONS.items():
        for fn in names:
            units[f"{module}.{fn}.calls"] = "count"
            if f"{module}.{fn}" not in spans.HOT:
                units[f"{module}.{fn}.self_s"] = "s"
    units.update(DERIVED)
    for command in COMMANDS:
        units[f"cli.{command}.self_s"] = "s"
    units.update({"cli.output_bytes": "bytes", "cli.exit_1": "count", "cli.exit_2": "count",
                  "trace.overhead_s": "s", "trace.coverage": "ratio"})
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# one call, one pass

def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


_CALIBRATION_ARRAY = np.zeros(16)


def _calibration_block() -> float:
    total = 0.0
    for i in range(100):
        total += float((_CALIBRATION_ARRAY + i).sum())
        total += len({"i": i, "text": str(i)})
    return total


def sample_time(blocks: int = 20) -> float:
    """Mean time of the speed-sample block, measured now."""
    start = perf_counter()
    for _ in range(blocks):
        _calibration_block()
    return (perf_counter() - start) / blocks


class Speedometer:
    """Samples how fast the host runs this process while a pass runs.

    On a shared host the speed this process gets drifts by tens of percent
    over seconds, for interpreter and numpy work alike. A timer signal
    interrupts the pass every SAMPLE_INTERVAL seconds, also inside roadrec's
    code, and the handler times a fixed block of small numpy and interpreter
    work that never touches roadrec. Scaling a pass's time by
    REFERENCE_SAMPLE_S over the mean block time of the samples taken during
    it cancels most of the drift. ``clock()`` leaves out the time spent
    sampling, so latencies and spans do too.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.blocks = 0
        self._sampling = False

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample ran between the two reads
                return now - spent

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a tick that lands inside a sample
            return
        self._sampling = True
        start = perf_counter()
        _calibration_block()
        self.spent += perf_counter() - start
        self.blocks += 1
        self._sampling = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Record:
    command: str
    seconds: float
    code: int | None
    problem: str | None = None
    wrong: bool = False  # a traceback, or an exit code other than the expected one
    output_bytes: int = 0


@dataclass
class Pass:
    records: list[Record]
    block_s: float  # mean time of the speed samples taken during the pass
    layers: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def wall_ref(self) -> float:
        return self.wall * REFERENCE_SAMPLE_S / self.block_s


class Runner:
    """Runs a workload's calls through the CLI entry point and checks them."""

    def __init__(self, calls: list[workloads.Call], out_path: Path) -> None:
        import roadrec.cli
        self.cli = roadrec.cli
        self.calls = calls
        self.out_path = out_path
        self.speed = Speedometer()

    def one(self, index: int, call: workloads.Call,
            tracer: spans.Tracer | None) -> Record:
        with contextlib.suppress(FileNotFoundError):
            self.out_path.unlink()
        argv = [*call.argv, "--output", str(self.out_path)]
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = self.speed.clock()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(f"cli.{call.command}", index, self.cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback in a real run of the CLI
                code, crash = None, exc
            seconds = self.speed.clock() - start
        record = Record(call.command, seconds, code)
        self._check(call, record, crash, out.getvalue(), err.getvalue())
        return record

    def _check(self, call: workloads.Call, record: Record, crash: Exception | None,
               stdout: str, stderr: str) -> None:
        if crash is not None:
            record.problem, record.wrong = f"traceback: {type(crash).__name__}: {crash}", True
            return
        if record.code != call.expect:
            record.problem = f"exit {record.code}, expected {call.expect}: {stderr.strip()[:200]}"
            record.wrong = True
            return
        lines = stderr.splitlines()
        if call.expect == 0 and lines:
            record.problem = f"unexpected stderr: {lines[0][:200]}"
        elif call.expect != 0 and (len(lines) != 1 or not lines[0].startswith("roadrec: ")):
            record.problem = f"stderr is not one 'roadrec:' line: {stderr[:200]!r}"
        elif stdout:
            record.problem = "output went to stdout despite --output"
        if record.problem or call.expect != 0:
            return
        try:
            text = self.out_path.read_text(encoding="utf-8")
        except OSError as exc:
            record.problem = f"no output file: {exc}"
            return
        record.output_bytes = len(text.encode("utf-8"))
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            record.problem = f"invalid JSON: {exc}"
            return
        if call.check:
            try:
                record.problem = call.check(payload)
            except (KeyError, TypeError) as exc:
                record.problem = f"output lacks an expected field: {exc!r}"

    def run_pass(self, tracer: spans.Tracer | None = None) -> Pass:
        speed = self.speed
        spent, blocks = speed.spent, speed.blocks
        speed.sample()  # at least one sample, however short the pass
        with speed.running():
            records = [self.one(i, call, tracer) for i, call in enumerate(self.calls)]
        return Pass(records, (speed.spent - spent) / (speed.blocks - blocks))

    def passes(self, budget: float, tracer: spans.Tracer | None = None) -> list[Pass]:
        """Whole passes while the next one is expected to fit in budget; at least one."""
        done: list[Pass] = []
        start = perf_counter()
        while True:
            p = self.run_pass(tracer)
            if tracer is not None:
                p.layers, p.trace = layer_metrics(tracer, p)
            done.append(p)
            spent = perf_counter() - start
            if spent + spent / len(done) > budget:
                return done


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # 0 where the layer did no such work


def layer_metrics(tracer: spans.Tracer, p: Pass) -> tuple[dict[str, float], dict]:
    raw, counts, observed = tracer.take()
    self_s, calls, covered = spans.self_times(raw)
    m: dict[str, float] = {}
    for module, names in LAYER_FUNCTIONS.items():
        for fn in names:
            name = f"{module}.{fn}"
            m[f"{name}.calls"] = counts.get(name, calls.get(name, 0))
            if name not in spans.HOT:
                m[f"{name}.self_s"] = self_s.get(name, 0.0)

    search = [r for _, _, r in observed["infinite.optimal_scheme_search"]]
    m["infinite.search.pairs"] = sum(len(r.candidates) for r in search)
    m["infinite.search.feasible_ratio"] = _ratio(
        sum(c.feasible for r in search for c in r.candidates), m["infinite.search.pairs"])
    sweeps = [pt for _, _, r in observed["infinite.delta_sweep"] for pt in r]
    m["infinite.sweep.feasible_ratio"] = _ratio(sum(pt.feasible for pt in sweeps), len(sweeps))
    solved = [(tracer.bind("two_stage.solve_optimal_scheme", a, k)["params"].n, r)
              for a, k, r in observed["two_stage.solve_optimal_scheme"]]
    m["two_stage.solve.feasible_ratio"] = _ratio(
        sum(r.n_feasible for _, r in solved), sum(n * n for n, r in solved if r.experiment))
    # Strategy multisets of n agents over 16 strategies: C(n + 15, n).
    brute_n = [tracer.bind("two_stage.brute_force_equilibrium", a, k)["params"].n
               for a, k, _ in observed["two_stage.brute_force_equilibrium"]]
    m["two_stage.brute_force.profiles"] = sum(math.comb(n + 15, n) for n in brute_n)
    m["sim.stages"] = sum(tracer.bind("sim.simulate_chain", a, k)["horizon"]
                          for a, k, _ in observed["sim.simulate_chain"])
    rollouts = [r for _, _, r in observed["sim.deviation_rollout"]]
    m["sim.rollout.trigger_ratio"] = _ratio(
        sum(r.n_triggered for r in rollouts),
        sum(r.n_triggered + r.n_skipped for r in rollouts))

    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = self_s.get(f"cli.{command}", 0.0)
    m["cli.output_bytes"] = sum(r.output_bytes for r in p.records)
    m["cli.exit_1"] = sum(r.code == 1 for r in p.records)
    m["cli.exit_2"] = sum(r.code == 2 for r in p.records)
    m["trace.coverage"] = _ratio(covered, p.wall)

    origin = raw[0][1] if raw else 0.0
    trace = {
        "spans": [[n, s - origin, e - origin, parent, call] for n, s, e, parent, call in raw],
        "hot_counts": counts,
    }
    return m, trace


# ---------------------------------------------------------------------------
# set-up time

def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import the CLI and build its parser.

    Returns their wall times, and the same times at the reference speed:
    each scaled by speed samples taken right before and right after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]

    def once() -> tuple[float, float]:
        before = sample_time()
        start = perf_counter()
        # No timeout: with one, the wait polls and rounds up to its 50 ms step.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        seconds = perf_counter() - start
        after = sample_time()
        return seconds, seconds * REFERENCE_SAMPLE_S / ((before + after) / 2)

    once()  # writes the bytecode caches, which users pay once per install
    raw, scaled = zip(*(once() for _ in range(repeats)))
    return list(raw), list(scaled)


# ---------------------------------------------------------------------------
# the run

@dataclass
class Metric:
    value: float | None
    unit: str
    samples: int


def end_to_end(setup: tuple[list[float], list[float]], passes: list[Pass], peak_rss: float,
               attempted: int, failed: int) -> dict[str, Metric]:
    records = [r for p in passes for r in p.records]
    raw, scaled = setup
    m = {
        "setup_s": Metric(statistics.median(scaled), "s", len(scaled)),
        "setup_raw_s": Metric(statistics.median(raw), "s", len(raw)),
        "wall_ref_s": Metric(statistics.median(p.wall_ref for p in passes), "s", len(passes)),
        "wall_s": Metric(statistics.median(p.wall for p in passes), "s", len(passes)),
    }
    for command in COMMANDS:
        times = [r.seconds for r in records if r.command == command]
        m[command.replace("-", "_") + "_s"] = Metric(
            statistics.median(times) if times else None, "s", len(times))
    p90 = None
    if len(passes[0].records) >= P90_MIN_CALLS:
        p90 = statistics.quantiles([r.seconds for r in records], n=10)[-1]
    m["call_p90_s"] = Metric(p90, "s", len(records) if p90 is not None else 0)
    m["fail_frac"] = Metric(failed / attempted, "ratio", attempted)
    m["peak_rss_mb"] = Metric(peak_rss, "MB", 1)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object (the last output line) and the report."""
    workdir = BENCH_DIR / "_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        calls = workloads.build(workload, seed, str(workdir), tiny)
        setup = measure_setup(1 if tiny else SETUP_REPEATS)
        runner = Runner(calls, workdir / "out.json")
        defects = {what: runner.one(-1, call, None)
                   for what, call in workloads.known_defects(str(workdir)).items()}
        warm = runner.run_pass()  # lazy imports and first-touch allocations
        budget = seconds / 2 if trace else seconds
        untraced = runner.passes(budget)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced: list[Pass] = []
        if trace:
            tracer = spans.Tracer(runner.speed.clock)
            tracer.install()
            traced = runner.passes(budget, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in [warm, *untraced, *traced] for r in p.records]
    attempted = len(records)
    failed = sum(r.problem is not None for r in records)
    correct = not any(r.wrong for r in records)
    e2e = end_to_end(setup, untraced, peak_rss, attempted, failed)

    lines = [f"roadrec benchmark: workload {workload}, seed {seed}, {len(calls)} calls per pass, "
             f"{len(untraced)} untraced and {len(traced)} traced passes",
             f"{'metric':<36}{'value':>16}  {'unit':<15}samples"]
    for name, metric in e2e.items():
        value = "n/a" if metric.value is None else f"{metric.value:.6g}"
        lines.append(f"{name:<36}{value:>16}  {metric.unit:<15}{metric.samples}")
    if trace:
        layers = traced_metrics(e2e, traced)
        for name, value in layers.items():
            lines.append(f"{name:<36}{value:>16.6g}  {PER_LAYER[name]:<15}{len(traced)}")
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in layers.items()}
        write_trace(workload, seed, calls, traced[-1], layers)
    else:
        metrics = {name: {"value": e2e[name].value, "unit": unit}
                   for name, unit in END_TO_END.items()}
    problems = sorted({f"{r.command}: {r.problem}" for r in records if r.problem})
    lines += [f"failed check: {p}" for p in problems[:20]]
    lines += [f"known defect, untimed and not counted: {what}: "
              + (r.problem or "not seen, the call passed its checks")
              for what, r in defects.items()]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def traced_metrics(e2e: dict[str, Metric], traced: list[Pass]) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes, and the tracer's cost."""
    # Traced minus untraced pass time, both at the reference speed, so that
    # the host's speed drift between the two halves of the run cancels.
    overhead = statistics.median(p.wall_ref for p in traced) - e2e["wall_ref_s"].value
    return {name: overhead if name == "trace.overhead_s"
            else statistics.median(p.layers[name] for p in traced)
            for name in PER_LAYER}


def write_trace(workload: str, seed: int, calls: list[workloads.Call], last: Pass,
                layers: dict[str, float]) -> None:
    out = BENCH_DIR / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "calls": [list(c.argv) for c in calls],
           "wall_s": last.wall, "metrics": layers, **last.trace}
    out.write_text(json.dumps(doc), encoding="utf-8")


def check_checkout() -> None:
    """Put the checkout's src first on the path and make sure it is what loads."""
    if not (SRC / "roadrec" / "cli.py").is_file():
        raise SystemExit(f"roadbench: no roadrec sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import roadrec
    if Path(roadrec.__file__).resolve().parent != (SRC / "roadrec").resolve():
        raise SystemExit(f"roadbench: roadrec loaded from {roadrec.__file__}, not {SRC}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    if args.workload == "all":
        return run_all(args)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
