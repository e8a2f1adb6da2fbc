"""Span tracer that times roadrec's layers from outside the package.

A layer is one module of the package (model, infinite, two_stage, sim). The
tracer replaces every public function of a layer module, in every roadrec
module namespace that binds it, with a wrapper that records a span: name,
start, end, parent span and the id of the CLI call it belongs to. Functions
imported with ``from .model import ...`` are bound in several namespaces;
all bindings get the same wrapper, so a call is recorded once whichever name
the caller used.

Hot primitives are called up to millions of times per CLI call. Recording a
span for each would cost more than the work it measures, so their wrappers
only count calls, and their time stays in the self time of the caller.

Spans live in memory until the caller takes them with ``take()``; self times
are computed from them afterwards, outside the timed region.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# Primitives that are only counted: O(1) work each, called once per
# (c, d) pair, per stage or per (pi2_low, pi2_high) pair.
HOT = frozenset({
    "model.stage_cost",
    "model.expected_theta",
    "model.belief_step",
    "model.mu_low",
    "model.mu_high",
    "two_stage.ic_constraints_eval",
    "two_stage.scheme_cost_two_stage",
})

# Functions whose arguments and results feed the derived work counts.
OBSERVED = frozenset({
    "infinite.optimal_scheme_search",
    "infinite.delta_sweep",
    "two_stage.solve_optimal_scheme",
    "two_stage.brute_force_equilibrium",
    "sim.simulate_chain",
    "sim.deviation_rollout",
})

PACKAGE = "roadrec"
OUTER_MODULE = "roadrec.cli"  # timed as the call span, not as a layer


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Installs span-recording wrappers on roadrec's layer functions."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.counts: dict[str, list[int]] = {}
        self.observed: dict[str, list[tuple]] = {name: [] for name in OBSERVED}
        self.signatures: dict[str, inspect.Signature] = {}
        self._stack: list[int] = [-1]
        self._call_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _modules(self) -> list:
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every public layer function in every roadrec namespace that binds it."""
        modules = self._modules()
        layer_modules = {m.__name__ for m in modules
                         if m.__name__ not in (PACKAGE, OUTER_MODULE)}
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in layer_modules):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, fn):
        name = layer_name(fn)
        if name in HOT:
            cell = self.counts.setdefault(name, [0])

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, self.clock
        observed = self.observed.get(name)
        if observed is not None:
            self.signatures[name] = inspect.signature(fn)

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._call_id)
            if observed is not None:
                observed.append((args, kwargs, result))
            return result

        return spanned

    # -- the benchmark's own call spans --------------------------------------

    def call(self, name: str, call_id: int, fn, *args):
        """Run fn(*args) as the root span of one CLI call."""
        self._call_id = call_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, call_id)

    def take(self) -> tuple[list[tuple], dict[str, int], dict[str, list[tuple]]]:
        """Hand over and reset the spans, counts and observations so far."""
        spans = list(self.spans)
        counts = {name: cell[0] for name, cell in self.counts.items()}
        observed = {name: list(items) for name, items in self.observed.items()}
        self.spans.clear()
        for cell in self.counts.values():
            cell[0] = 0
        for items in self.observed.values():
            items.clear()
        return spans, counts, observed

    def bind(self, name: str, args: tuple, kwargs: dict) -> dict:
        return self.signatures[name].bind(*args, **kwargs).arguments


def self_times(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self time and span count, and the time covered by layer spans.

    A span's self time is its duration minus the durations of its direct
    children. Layer coverage sums the spans whose parent is a root (CLI
    call) span, i.e. the time the calls spent inside any layer.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0 and spans[parent][3] == -1:
            covered += end - start
    return self_s, calls, covered
