"""Per-layer tracing from outside the program.

The tracer wraps every public function of the fracpast modules and the
``cdf``/``survival``/``quantile``/``pdf`` methods of every Distribution
subclass, and rebinds each wrapper wherever a fracpast module holds the
original by name (``entropy`` imports ``log_kernel`` by name, ``frac_log``
reaches ``mlf`` through a module global, ``cli`` imports every verb's
functions). Each wrapper opens a span; a span's self time is its duration
minus the time of the spans it caused. Spans are aggregated in memory per
name and per (parent, child) edge and written out once, at the end.

The integrand ``f`` handed to ``quadrature.integrate`` is wrapped in a bare
counter, so integrand evaluations are counted without a span each.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

_LAYER_MODULES = ("fraclog", "quadrature", "entropy", "multivariate", "coherent",
                  "orders", "empirical", "chaos", "cli")
# Modules whose functions are traced one span name per function; the rest
# are traced as one span name per module.
_PER_FUNCTION = ("fraclog", "quadrature")
_DIST_METHODS = ("cdf", "survival", "quantile", "pdf")
_ERROR_CLASSES = ("DomainError", "NonConvergentError", "MaxSubdivisionsError",
                  "OverflowError")

# Counters that are not span counts.
COUNTERS = ("integrand_evals", "subdivisions", "diverged_verdicts",
            "max_subdivision_errors", "inner_integrals", "values_processed",
            "fraclog_errors") + tuple("fraclog_errors." + c for c in _ERROR_CLASSES + ("other",))


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, harness_exceptions=()):
        self._harness_exceptions = tuple(harness_exceptions)
        self.names = []
        self._index = {}
        self.calls = []
        self.self_s = []
        self.edges = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._depth_2d = 0
        self._last_exc = None
        self._last_quad_exc = None
        self._patches = []

    # -- aggregation -----------------------------------------------------

    def _sid(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def reset(self):
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.edges = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack.clear()
        self._depth_2d = 0
        self._last_exc = None
        self._last_quad_exc = None

    def count_snapshot(self):
        """Every count the tracer holds, as one flat dict."""
        snap = {name: self.calls[i] for i, name in enumerate(self.names)}
        snap.update(self.counters)
        return snap

    def subtract_counts(self, before):
        """Take back the counts added since ``before`` (a count_snapshot).

        Used for calls cut by the benchmark's deadline: how far such a call
        got depends on machine speed, so its counts would not repeat.
        """
        for i, name in enumerate(self.names):
            self.calls[i] = before.get(name, 0)
        for key in self.counters:
            self.counters[key] = before[key]
        self._stack.clear()
        self._depth_2d = 0

    def merge(self, dump):
        """Add the span counts and self times of another tracer's dump."""
        for name, n in dump["calls"].items():
            sid = self._sid(name)
            self.calls[sid] += n
            self.self_s[sid] += dump["self_ms"][name] / 1e3
        for key, n in dump["counters"].items():
            self.counters[key] += n

    def self_ms(self):
        return {name: 1e3 * self.self_s[i] for i, name in enumerate(self.names)}

    def dump(self):
        return {
            "calls": {n: self.calls[i] for i, n in enumerate(self.names)},
            "self_ms": self.self_ms(),
            "counters": dict(self.counters),
            "edges": [
                {"parent": self.names[p] if p >= 0 else None, "child": self.names[c],
                 "calls": v[0], "ms": 1e3 * v[1]}
                for (p, c), v in sorted(self.edges.items())
            ],
        }

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name, on_result=None, on_error=None, prepare=None):
        sid = self._sid(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[sid] += 1
            if prepare is not None:
                args = prepare(args)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None and not isinstance(exc, tracer._harness_exceptions):
                    on_error(exc)
                raise
            finally:
                dur = clock() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                tracer.self_s[sid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                edge = tracer.edges.get((parent, sid))
                if edge is None:
                    tracer.edges[(parent, sid)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_integrand(self, args):
        f = args[0]
        counters = self.counters

        def counted(x):
            counters["integrand_evals"] += 1
            return f(x)

        if self._depth_2d:
            counters["inner_integrals"] += 1
        return (counted,) + tuple(args[1:])

    def _on_quad_result(self, res):
        self.counters["subdivisions"] += res.subdivisions_used

    def _on_quad_error(self, exc):
        if type(exc).__name__ == "MaxSubdivisionsError" and exc is not self._last_quad_exc:
            self._last_quad_exc = exc
            self.counters["max_subdivision_errors"] += 1

    def _on_probe(self, probe):
        if probe.verdict == "diverged":
            self.counters["diverged_verdicts"] += 1

    def _on_fraclog_error(self, exc):
        if exc is self._last_exc:
            return
        self._last_exc = exc
        cls = type(exc).__name__
        self.counters["fraclog_errors"] += 1
        key = "fraclog_errors." + (cls if cls in _ERROR_CLASSES else "other")
        self.counters[key] += 1

    def _on_empirical_args(self, args):
        sample = args[0] if args else None
        n = getattr(sample, "n", None)
        if isinstance(n, int):
            self.counters["values_processed"] += n
        return args

    def _wrap_2d(self, fn):
        inner = self._span(fn, "quadrature.integrate_2d")
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._depth_2d += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._depth_2d -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper_for(self, layer, name, fn):
        if layer == "quadrature" and name == "integrate":
            return self._span(fn, "quadrature.integrate", on_result=self._on_quad_result,
                              on_error=self._on_quad_error, prepare=self._count_integrand)
        if layer == "quadrature" and name == "integrate_2d":
            return self._wrap_2d(fn)
        if layer == "quadrature" and name == "detect_divergence":
            return self._span(fn, "quadrature.detect_divergence", on_result=self._on_probe)
        if layer == "fraclog":
            return self._span(fn, f"fraclog.{name}", on_error=self._on_fraclog_error)
        if layer == "empirical" and name == "empirical_efcpe":
            return self._span(fn, "empirical", prepare=self._on_empirical_args)
        if layer == "cli":
            return self._span(fn, "cli.main")
        span = f"{layer}.{name}" if layer in _PER_FUNCTION else layer
        return self._span(fn, span)

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every public function and Distribution method; idempotent."""
        if self._patches:
            return
        originals = {}
        for layer in _LAYER_MODULES:
            mod = importlib.import_module(f"fracpast.{layer}")
            public = getattr(mod, "__all__", ["main"] if layer == "cli" else [])
            for name in public:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    if layer == "cli" and name != "main":
                        continue
                    originals[id(fn)] = (fn, self._wrapper_for(layer, name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracpast" or mod_name.startswith("fracpast.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

        from fracpast.distributions import Distribution

        pending = [Distribution]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for meth in _DIST_METHODS:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn):
                    setattr(cls, meth, self._span(fn, f"distributions.{meth}"))
                    self._patches.append((cls, meth, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
