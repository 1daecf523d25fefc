"""Span tracing of cliffsphere from outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module, plus ``Multivector.__init__``.  The package imports functions by name
(``from .multivector import geometric_product``), so a wrapper replaces the
original on every module that binds it, the defining module included; calls
inside a module then go through the wrapper as well.  ``uninstall`` puts the
originals back.

A span is (name, parent, start, end), kept in flat arrays until the run
ends.  A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the benchmark runs one caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

#: Layer modules of the package, named as in the per-layer metrics.
LAYERS = ("multivector", "frames", "epr", "identities", "hopf", "seven_sphere", "cli")
#: Private functions that another layer calls directly, so they are boundaries too.
BOUNDARY_PRIVATES = {"frames": ("_structure_product",)}
PRODUCTS = ("geometric_product", "wedge", "contract")
ESTIMATORS = ("correlation_standard", "correlation_raw", "marginal_average")
#: lambda_stream draws 4 uint64 Philox words per trial.
STREAM_BYTES_PER_TRIAL = 32

#: Every per-layer metric and its unit; counts and times are per traced op.
LAYER_METRICS = {
    "epr.lambda_stream.calls": "count/op",
    "epr.lambda_stream.trials": "count/op",
    "epr.lambda_stream.self_s": "s/op",
    "epr.lambda_stream.trials_per_s": "1/s",
    "epr.lambda_stream.bytes_computed": "B/op",
    "epr.stream_useful_ratio": "ratio",
    "epr.estimators.self_s": "s/op",
    "multivector.product.calls.cl3": "count/op",
    "multivector.product.calls.cl7": "count/op",
    "multivector.product.self_s.cl3": "s/op",
    "multivector.product.self_s.cl7": "s/op",
    "multivector.product.us_per_call.cl3": "us",
    "multivector.product.us_per_call.cl7": "us",
    "multivector.construct.calls": "count/op",
    "multivector.construct.self_s": "s/op",
    "multivector.tables_s": "s",
    "identities.checks": "count/op",
    "identities.checks_failed": "count/op",
    "identities.naive_oracle.self_s": "s/op",
    "frames.calls": "count/op",
    "frames.self_s": "s/op",
    "frames.duality_check.self_s": "s/op",
    "hopf.calls": "count/op",
    "hopf.self_s": "s/op",
    "seven_sphere.build_J.calls": "count/op",
    "seven_sphere.self_s": "s/op",
    "cli.calls": "count/op",
    "cli.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Index of the op being run, which the loop sets before each op.
        self.current_op = 0
        #: (op, seed, start, n) of every lambda_stream call.
        self.stream_draws: list[tuple[int, int, int, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_of, hook=None):
        tracer, stack, clock = self, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            i = len(tracer.start)
            tracer.name.append(name_of(args))
            tracer.parent.append(stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1

        return traced

    def _name_of(self, layer: str, fn_name: str):
        if fn_name in PRODUCTS:
            by_dim = {d: self._id(f"multivector.product.cl{d}") for d in range(1, 9)}
            other = self._id("multivector.product.other")
            return lambda args: by_dim.get(getattr(args[0], "dim", None), other) if args else other
        nid = self._id(f"{layer}.{fn_name}")
        return lambda args: nid

    def _record_draw(self, signature):
        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if "seed" in a and "n" in a:
                self.stream_draws.append(
                    (self.current_op, int(a["seed"]), int(a.get("start", 0)), int(a["n"])))
        return hook

    def install(self, package: str = "cliffsphere") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        owners = [importlib.import_module(package), *modules.values()]
        for layer, module in modules.items():
            for fn_name, fn in list(vars(module).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                if fn_name.startswith("_") and fn_name not in BOUNDARY_PRIVATES.get(layer, ()):
                    continue
                hook = None
                if (layer, fn_name) == ("epr", "lambda_stream"):
                    hook = self._record_draw(inspect.signature(fn))
                wrapper = self._wrap(fn, self._name_of(layer, fn_name), hook)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        mv = modules["multivector"].Multivector
        construct = self._id("multivector.construct")
        self._patch(mv, "__init__", self._wrap(mv.__init__, lambda args: construct))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_table(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name, over all spans."""
        n = len(self.start)
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += duration[i]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - children[i]
        return {
            name: {"calls": calls[name], "total_s": total[name], "self_s": own[name]}
            for name in sorted(calls)
        }

    def stream_trials(self) -> tuple[int, int]:
        """(trials drawn, distinct (seed, trial) pairs needed), summed per op."""
        drawn = sum(n for _, _, _, n in self.stream_draws)
        intervals: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for op, seed, start, n in self.stream_draws:
            intervals[(op, seed)].append((start, start + n))
        distinct = 0
        for spans in intervals.values():
            end = None
            for lo, hi in sorted(spans):
                if end is None or lo > end:
                    distinct += hi - lo
                    end = hi
                elif hi > end:
                    distinct += hi - end
                    end = hi
        return drawn, distinct

    def layer_metrics(self, table: dict, ops: int) -> dict[str, float]:
        """Per-layer metrics over ``ops`` traced ops from ``span_table()``.

        ``multivector.tables_s``, ``identities.checks*``, ``cli.bytes_written``
        and ``trace.overhead_ratio`` are measured by the loop, not by spans.
        """
        def calls(*names):
            return sum(table.get(n, {}).get("calls", 0) for n in names) / ops

        def self_s(*names):
            return sum(table.get(n, {}).get("self_s", 0.0) for n in names) / ops

        def layer(prefix):
            return [n for n in table if n.split(".")[0] == prefix]

        drawn, distinct = self.stream_trials()
        stream_self = self_s("epr.lambda_stream")
        m = {
            "epr.lambda_stream.calls": calls("epr.lambda_stream"),
            "epr.lambda_stream.trials": drawn / ops,
            "epr.lambda_stream.self_s": stream_self,
            "epr.lambda_stream.trials_per_s": drawn / ops / stream_self if stream_self else 0.0,
            "epr.lambda_stream.bytes_computed": STREAM_BYTES_PER_TRIAL * drawn / ops,
            "epr.stream_useful_ratio": distinct / drawn if drawn else 0.0,
            "epr.estimators.self_s": self_s(*(f"epr.{e}" for e in ESTIMATORS)),
            "multivector.construct.calls": calls("multivector.construct"),
            "multivector.construct.self_s": self_s("multivector.construct"),
            "identities.naive_oracle.self_s": self_s("identities.check_product_against_naive_oracle"),
            "frames.calls": calls(*layer("frames")),
            "frames.self_s": self_s(*layer("frames")),
            "frames.duality_check.self_s": self_s("frames.duality_check"),
            "hopf.calls": calls(*layer("hopf")),
            "hopf.self_s": self_s(*layer("hopf")),
            "seven_sphere.build_J.calls": calls("seven_sphere.build_J"),
            "seven_sphere.self_s": self_s(*layer("seven_sphere")),
            "cli.calls": calls(*layer("cli")),
            "cli.self_s": self_s(*layer("cli")),
        }
        for d in (3, 7):
            name = f"multivector.product.cl{d}"
            n_calls, own = calls(name), self_s(name)
            m[f"multivector.product.calls.cl{d}"] = n_calls
            m[f"multivector.product.self_s.cl{d}"] = own
            m[f"multivector.product.us_per_call.cl{d}"] = 1e6 * own / n_calls if n_calls else 0.0
        return m
