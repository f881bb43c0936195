"""Unit tests for the benchmark's span tracer.

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that moves only when told, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _package():
    """A two-module package: ``outer.run`` calls ``inner.step`` by name."""
    pkg = types.ModuleType("pkg")
    inner = types.ModuleType("pkg.inner")
    outer = types.ModuleType("pkg.outer")
    clock = FakeClock()

    def step(cost, fail=False):
        clock.advance(cost)
        if fail:
            raise ValueError("step failed")
        return cost

    def _helper():
        return "private, not imported elsewhere"

    step.__module__ = inner.__name__
    _helper.__module__ = inner.__name__
    inner.step, inner._helper = step, _helper

    def run(fail=False):
        clock.advance(1.0)
        outer.step(2.0)
        clock.advance(0.5)
        outer.step(3.0, fail=fail)
        return "done"

    run.__module__ = outer.__name__
    outer.run, outer.step = run, step
    pkg.run = run
    return pkg, {"inner": inner, "outer": outer}, clock


def test_self_times_sum_to_parent_span():
    pkg, modules, clock = _package()
    tracer = Tracer(clock=clock)
    tracer.install(pkg, modules, observers={})
    assert pkg.run() == "done"

    outer = tracer.function_stats("outer", "run")
    inner = tracer.function_stats("inner", "step")
    assert outer.calls == 1 and inner.calls == 2
    assert outer.total_s == pytest.approx(6.5)
    assert outer.self_s == pytest.approx(1.5)
    assert inner.self_s == pytest.approx(5.0)
    assert outer.self_s + inner.self_s == pytest.approx(outer.total_s)
    spans = {s["id"]: s for s in tracer.spans}
    root = next(s for s in spans.values() if s["name"] == "run")
    assert all(s["parent"] == root["id"] for s in spans.values() if s["name"] == "step")


def test_raising_call_closes_its_span_and_counts_an_error():
    pkg, modules, clock = _package()
    tracer = Tracer(clock=clock)
    seen = []
    tracer.install(pkg, modules, observers={
        "inner.step": lambda tr, args, kwargs, result, exc, duration: seen.append(exc)})
    with pytest.raises(ValueError):
        pkg.run(fail=True)

    totals = tracer.layer_totals()
    assert totals["inner"].errors == 1 and totals["outer"].errors == 1
    assert totals["inner"].calls == 2
    assert not tracer._stack
    assert isinstance(seen[-1], ValueError) and seen[0] is None
    # the spans closed in order, so a later call is traced normally
    pkg.run()
    assert tracer.function_stats("outer", "run").calls == 2


def test_install_covers_every_holder_and_uninstall_restores():
    pkg, modules, clock = _package()
    original_run, original_step = pkg.run, modules["inner"].step
    tracer = Tracer(clock=clock)
    tracer.install(pkg, modules, observers={})
    assert pkg.run is modules["outer"].run is not original_run
    assert modules["outer"].step is modules["inner"].step is not original_step
    assert modules["inner"]._helper.__name__ == "_helper"
    assert ("inner", "_helper") not in tracer.stats
    tracer.uninstall()
    assert pkg.run is original_run and modules["outer"].step is original_step


def test_inactive_tracer_calls_through():
    pkg, modules, clock = _package()
    tracer = Tracer(clock=clock)
    tracer.install(pkg, modules, observers={})
    tracer.active = False
    pkg.run()
    assert not tracer.stats and not tracer.spans
