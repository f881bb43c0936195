"""The eight layers of ``bintab`` as the traced run sees them.

A layer is one module of the package.  :func:`install` wraps the layer
functions with a :class:`tracer.Tracer` and attaches observers that count
work where it happens; :func:`metrics` turns the tracer's totals into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import os

import numpy as np

from workloads import lor_params_ref

LAYERS = ("table", "assoc", "paramset", "structure", "collapsibility", "sampling", "io", "cli")
SUBCOMMANDS = ("params", "reconstruct", "simpson", "search", "canonical", "decompose", "power")

#: (layer, function, metric suffix) for the self times reported per function.
FUNCTION_SELF_TIMES = (
    ("assoc", "evaluate", "evaluate"),
    ("assoc", "sign", "sign"),
    ("assoc", "magnitude_scale", "magnitude_scale"),
    ("paramset", "full_params", "full_params"),
    ("paramset", "fwht", "fwht"),
    ("paramset", "lor_inverse", "lor_inverse"),
    ("structure", "canonicalize", "canonicalize"),
    ("structure", "decompose", "decompose"),
    ("sampling", "prob_di_positive_exact", "exact"),
    ("sampling", "simulate_decisions", "simulate"),
)

#: Counts every run reports, zero when the workload does not reach them.
COUNTERS = (
    "table.cells_built", "assoc.cells_evaluated", "paramset.fwht.ops_computed",
    "paramset.lor_inverse.converged", "paramset.lor_inverse.convergence_errors",
    "paramset.lor_inverse.evaluation_errors", "structure.decompose.pairs",
    "sampling.exact.terms", "sampling.simulate.replications", "sampling.simulate.aborts",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """An argument of a traced call, whether passed by position or by name."""
    return args[index] if len(args) > index else kwargs[name]


def _size(obj) -> int:
    entries = getattr(obj, "entries", obj)
    return int(np.size(entries)) if isinstance(entries, np.ndarray) else 0


def _table_built(tr, args, kwargs, result, exc, duration):
    if exc is None:
        tr.add("table.cells_built", args[0].entries.size)


def _assoc_cells(tr, args, kwargs, result, exc, duration):
    # only the outermost assoc call counts, so sign -> evaluate is one evaluation
    if tr.current_layer() != "assoc" and args:
        tr.add("assoc.cells_evaluated", _size(args[0]))


def _fwht_ops(tr, args, kwargs, result, exc, duration):
    if exc is None:
        n = result.shape[-1]
        tr.add("paramset.fwht.ops_computed", result.size * max(n.bit_length() - 1, 0))


def _lor_inverse(tr, args, kwargs, result, exc, duration):
    bt = tr.package
    if exc is None:
        tr.add("paramset.lor_inverse.converged")
        params = _arg(args, kwargs, 0, "params")
        residual = float(np.max(np.abs(lor_params_ref(result.entries, result.k) - params.values)))
        tr.maximum("paramset.lor_inverse.max_residual", residual)
    elif isinstance(exc, bt.ConvergenceError):
        tr.add("paramset.lor_inverse.convergence_errors")
        tr.maximum("paramset.lor_inverse.max_residual", exc.residual)
    elif isinstance(exc, bt.EvaluationError):
        tr.add("paramset.lor_inverse.evaluation_errors")


def _decompose_pairs(tr, args, kwargs, result, exc, duration):
    if exc is None:
        tr.add("structure.decompose.pairs", len(result.pair_components) - 1)


def _search_witness(tr, args, kwargs, result, exc, duration):
    if exc is None and result is not None:
        tr.add("collapsibility.witnesses")


def _exact_terms(tr, args, kwargs, result, exc, duration):
    if exc is None:
        N = _arg(args, kwargs, 0, "N")
        tr.add("sampling.exact.terms", N - N // 2)


def _simulate(tr, args, kwargs, result, exc, duration):
    if exc is None:
        tr.add("sampling.simulate.replications", _arg(args, kwargs, 3, "replications"))
    elif isinstance(exc, tr.package.EvaluationError):
        tr.add("sampling.simulate.aborts")


def _bytes_read(tr, args, kwargs, result, exc, duration):
    source = _arg(args, kwargs, 0, "source")
    if exc is None and isinstance(source, (str, os.PathLike)):
        tr.add("io.bytes_read", os.path.getsize(source))


def _bytes_written(tr, args, kwargs, result, exc, duration):
    dest = _arg(args, kwargs, 1, "dest")
    if exc is None and isinstance(dest, (str, os.PathLike)):
        tr.add("io.bytes_written", os.path.getsize(dest))


OBSERVERS = {
    "table.__post_init__": _table_built,
    "paramset.fwht": _fwht_ops,
    "paramset.lor_inverse": _lor_inverse,
    "structure.decompose": _decompose_pairs,
    "collapsibility.paradox_search": _search_witness,
    "sampling.prob_di_positive_exact": _exact_terms,
    "sampling.simulate_decisions": _simulate,
    "io._load_json": _bytes_read,
    "io._dump_json": _bytes_written,
}


def install(tracer, package) -> None:
    """Wrap every layer of ``package`` (a freshly imported ``bintab``)."""
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
    observers = dict(OBSERVERS)
    for name, obj in vars(modules["assoc"]).items():
        if callable(obj) and getattr(obj, "__module__", None) == modules["assoc"].__name__:
            observers.setdefault(f"assoc.{name}", _assoc_cells)
    tracer.package = package
    tracer.install(package, modules, observers, extra=(
        ("table", modules["table"].BinaryTable, "__post_init__"),
        ("io", modules["io"], "_load_json"),
        ("io", modules["io"], "_dump_json"),
    ))


def metrics(tracer, overhead_s: float) -> dict:
    """Per-layer metrics: ``{name: (value, unit)}``."""
    out = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        t = totals.get(layer)
        out[f"{layer}.calls"] = (t.calls if t else 0, "count")
        out[f"{layer}.self_s"] = (t.self_s if t else 0.0, "s")
        out[f"{layer}.errors"] = (t.errors if t else 0, "count")
    for layer, function, label in FUNCTION_SELF_TIMES:
        out[f"{layer}.{label}.self_s"] = (tracer.function_stats(layer, function).self_s, "s")
    counts = tracer.counters
    for name in COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    out["paramset.lor_inverse.max_residual"] = (counts.get("paramset.lor_inverse.max_residual", 0.0), "1")
    # searches and batteries draw one random table per trial
    trials = tracer.function_stats("collapsibility", "random_table").calls
    out["collapsibility.trials"] = (trials, "count")
    out["collapsibility.witness_per_trial"] = (
        counts.get("collapsibility.witnesses", 0) / trials if trials else 0.0, "1")
    out["io.bytes_read"] = (counts.get("io.bytes_read", 0), "B")
    out["io.bytes_written"] = (counts.get("io.bytes_written", 0), "B")
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.s"] = (tracer.function_stats("cli", f"cmd_{sub}").total_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def reached(tracer) -> dict:
    """Which layers the traced run entered at least once."""
    totals = tracer.layer_totals()
    return {layer: bool(totals.get(layer) and totals[layer].calls) for layer in LAYERS}
