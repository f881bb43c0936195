"""In-memory span tracer that wraps the functions of a package's modules.

A span opens when a wrapped function is called and closes when it returns
or raises.  Spans nest through a stack, so a span's self time is its
duration minus the durations of its direct child spans.  Every closed span
is folded into per-function totals (calls, total time, self time, errors);
the first ``span_cap`` spans are also kept verbatim so a run can be
inspected afterwards without holding millions of records in memory.

Counters record work where it happens: an *observer* attached to a wrapped
function sees its arguments and outcome after the span closes and adds to
named counters (cells built, trials drawn, residuals, ...).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


@dataclass
class _Frame:
    layer: str
    name: str
    start: float
    parent: int
    span_id: int
    child_s: float = 0.0


#: Observer signature: (tracer, args, kwargs, result, exc, duration_s).
Observer = Callable[["Tracer", tuple, dict, object, Optional[BaseException], float], None]


@dataclass
class Tracer:
    """Span stack, per-function totals and named counters of one traced run.

    While ``active`` is false the wrappers call straight through, so code
    that checks outputs can use the library without being traced.
    """

    clock: Callable[[], float] = time.perf_counter
    span_cap: int = 20_000
    active: bool = True
    package: object = None
    stats: dict = field(default_factory=lambda: defaultdict(FunctionStats))
    counters: dict = field(default_factory=lambda: defaultdict(int))
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _next_id: int = 0
    _installed: list = field(default_factory=list)

    # -- span bookkeeping -------------------------------------------------

    def current_layer(self) -> Optional[str]:
        """Layer of the innermost open span (None outside every span)."""
        return self._stack[-1].layer if self._stack else None

    def wrap(self, layer: str, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        """Return ``fn`` wrapped so each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            parent = tracer._stack[-1].span_id if tracer._stack else 0
            frame = _Frame(layer, name, tracer.clock(), parent, tracer._next_id)
            tracer._stack.append(frame)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = tracer._close(frame, error is not None)
                if observe is not None:
                    observe(tracer, args, kwargs, result, error, duration)

        return traced

    def _close(self, frame: _Frame, failed: bool) -> float:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child_s += duration
        stats = self.stats[(frame.layer, frame.name)]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame.child_s
        stats.errors += int(failed)
        if len(self.spans) < self.span_cap:
            self.spans.append({
                "id": frame.span_id, "parent": frame.parent, "layer": frame.layer,
                "name": frame.name, "start": frame.start, "end": end,
                "self_s": duration - frame.child_s, "error": failed,
            })
        return duration

    # -- counters ---------------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] += amount

    def maximum(self, counter: str, value: float) -> None:
        if counter not in self.counters or value > self.counters[counter]:
            self.counters[counter] = value

    # -- installing wrappers into a package ------------------------------

    def install(self, package, modules: dict, observers: dict, extra=()) -> None:
        """Wrap the functions of ``modules`` (layer name -> module object).

        Each public function defined in a layer's module is wrapped, plus
        any private function that another module imports by name (a call
        across layers), plus each ``(layer, owner, attribute)`` in
        ``extra`` (e.g. a method of a class).  Every module of the package,
        the package itself included, that holds the same function object
        by name gets the wrapper too, so calls through re-exports and
        ``from x import f`` are traced.  ``observers`` maps
        ``"layer.name"`` to an observer.
        """
        holders = [package] + list(modules.values())
        targets = []
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                crosses = any(h is not module and getattr(h, name, None) is obj
                              for h in holders)
                if not name.startswith("_") or crosses:
                    targets.append((layer, name, module, obj))
        for layer, owner, name in extra:
            targets.append((layer, name, owner, vars(owner)[name]))

        for layer, name, owner, fn in targets:
            wrapped = self.wrap(layer, name, fn, observers.get(f"{layer}.{name}"))
            sites = [owner] + [h for h in holders
                               if h is not owner and getattr(h, name, None) is fn]
            for site in sites:
                self._installed.append((site, name, fn))
                setattr(site, name, wrapped)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for site, name, fn in reversed(self._installed):
            setattr(site, name, fn)
        self._installed.clear()

    # -- summaries --------------------------------------------------------

    def layer_totals(self) -> dict:
        """``{layer: FunctionStats}`` summed over the layer's functions."""
        totals: dict = defaultdict(FunctionStats)
        for (layer, _), s in self.stats.items():
            t = totals[layer]
            t.calls += s.calls
            t.total_s += s.total_s
            t.self_s += s.self_s
            t.errors += s.errors
        return totals

    def function_stats(self, layer: str, name: str) -> FunctionStats:
        return self.stats.get((layer, name), FunctionStats())
