"""Run one bintab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the workload runs untraced, in whole rounds,
until ``--seconds`` have passed, and the end-to-end metrics are reported.
With ``--trace 1`` each of a fixed number of rounds runs twice, untraced
and then traced, and the per-layer metrics are reported together with the
tracing overhead.  Times in the gated metrics are scaled to the host's
nominal speed (``speed.py``).  A human-readable report comes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run, the machine and the first spans
included, is written to ``perfbench/out/``.

The benchmark is single-threaded by design: the BLAS thread count is pinned
to 1 before numpy loads, and no threads or subprocesses are started.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-up (import, input generation, warm-up) is repeated and the median
#: kept: some repeats before the timed pass, the last of which serves it,
#: and some after, so the median does not hang on the machine's speed in
#: the one second before the pass.
SETUP_REPEATS_BEFORE = 5
SETUP_REPEATS_AFTER = 4

#: A run stops in the middle of a round once it has used this many times
#: ``--seconds`` (plus a margin), so a very slow build still ends in time.
OVERRUN_FACTOR = 2.5
OVERRUN_MARGIN_S = 10.0

#: Rounds the traced run executes, per workload: fixed, so the per-layer
#: counts of two builds cover the same ops and compare directly.
TRACE_ROUNDS = {"search_power": 3, "fit": 2, "cli": 30, "search": 5, "power": 4}

CLOCK = time.perf_counter


@dataclass
class PassResult:
    """What one pass over the workload's rounds did and cost.

    ``latencies`` are measured; ``scaled`` are the same ops' times at the
    host's nominal speed (see ``speed.py``), which the gated metrics use.
    """

    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    op_units: list = field(default_factory=list)
    by_label: dict = field(default_factory=dict)
    attempted: int = 0
    errors: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    typed_errors: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    rounds: int = 0
    elapsed_s: float = 0.0
    cut_short: bool = False
    ref_unit_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    @property
    def scaled_busy_s(self) -> float:
        return math.fsum(self.scaled)


def fresh_import():
    """Import ``bintab`` from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "bintab" or m.startswith("bintab.")]:
        del sys.modules[name]
    return importlib.import_module("bintab")


def run_op(op, res: PassResult, probe: SpeedProbe, typed, tracer=None) -> None:
    """Issue one op, time it, check its output and account for it in ``res``."""
    outcome, units = "ok", 0
    probe.maybe_burst()
    t0 = CLOCK()
    try:
        result = op.call()
    except typed as exc:
        dt = CLOCK() - t0
        name = type(exc).__name__
        res.typed_errors[name] = res.typed_errors.get(name, 0) + 1
        outcome = "error" if isinstance(exc, op.may_raise) else f"unexpected {name}: {exc}"
    except Exception as exc:  # an untyped crash is a failed op, not a failed run
        dt = CLOCK() - t0
        outcome = f"untyped {type(exc).__name__}: {exc}"
    else:
        dt = CLOCK() - t0
        if tracer is not None:
            tracer.active = False
        try:
            units = op.check(result)
        except CheckFailed as exc:
            outcome = f"check: {exc}"
        except Exception as exc:  # malformed output the check could not read
            outcome = f"check crashed, {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = True
    res.attempted += 1
    res.latencies.append(dt)
    res.starts.append(t0)
    res.op_units.append(op.unit)
    row = res.by_label.setdefault(op.label, {"n": 0, "s": 0.0, "errors": 0})
    row["n"] += 1
    row["s"] += dt
    if op.unit:
        res.units[op.unit] = res.units.get(op.unit, 0) + units
    if outcome != "ok":
        res.errors += 1
        row["errors"] += 1
        if outcome != "error":
            res.failed += 1
            if len(res.failures) < 20:
                res.failures.append(f"{op.label}: {outcome}")


def _finish(res: PassResult, probe: SpeedProbe) -> None:
    """Scale every op's time by the host speed measured around it."""
    starts = np.array(res.starts)
    res.scaled = (np.array(res.latencies)
                  * probe.scales(starts, starts + np.array(res.latencies))).tolist()
    res.ref_unit_s = statistics.median(probe.unit_s)


def run_pass(workload, seconds: float) -> PassResult:
    """Run whole rounds, untraced, until ``seconds`` have passed."""
    typed = workload.bt.BintabError
    res = PassResult()
    probe = SpeedProbe(CLOCK)
    deadline = seconds * OVERRUN_FACTOR + OVERRUN_MARGIN_S
    start = CLOCK()
    r = 0
    while not res.cut_short and CLOCK() - start < seconds:
        for op in workload.round(r):
            if CLOCK() - start > deadline:
                res.cut_short = True
                break
            run_op(op, res, probe, typed)
        else:
            res.rounds += 1
        r += 1
    res.elapsed_s = CLOCK() - start
    probe.burst()
    _finish(res, probe)
    return res


def run_traced(workload, seconds: float, rounds: int, tracer: Tracer) -> tuple:
    """Run each of ``rounds`` rounds twice, untraced and then traced.

    Pairing the two runs of a round keeps host drift out of the tracing
    overhead, the difference between them.  Returns (untraced, traced).
    """
    typed = workload.bt.BintabError
    plain, traced = PassResult(), PassResult()
    probe = SpeedProbe(CLOCK)
    deadline = seconds * OVERRUN_FACTOR + OVERRUN_MARGIN_S
    start = CLOCK()
    for r in range(rounds):
        if CLOCK() - start > deadline:
            plain.cut_short = traced.cut_short = True
            break
        for res, active in ((plain, False), (traced, True)):
            t0 = CLOCK()
            if active:
                layers.install(tracer, workload.bt)
            try:
                for op in workload.round(r):
                    run_op(op, res, probe, typed, tracer if active else None)
            finally:
                if active:
                    tracer.uninstall()
            res.rounds += 1
            res.elapsed_s += CLOCK() - t0
    probe.burst()
    _finish(plain, probe)
    _finish(traced, probe)
    return plain, traced


def _deciles(values: list) -> list:
    """The nine cut points p10..p90 (index 4 is the median, 8 is p90)."""
    if len(values) == 1:
        return values * 9
    return statistics.quantiles(values, n=10, method="inclusive")


def end_to_end(res: PassResult, setup_s: float) -> dict:
    """The gated metrics; times are at the host's nominal speed."""
    deciles = _deciles(res.scaled)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (res.attempted / res.scaled_busy_s, "1/s"),
        "op_ms_p50": (deciles[4] * 1e3, "ms"),
        "op_ms_p90": (deciles[8] * 1e3, "ms"),
        "answer_rate": ((res.attempted - res.errors) / res.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def extra_metrics(res: PassResult, raw_setup_s: float) -> dict:
    """Metrics printed for the reader beyond those the contract gates."""
    out = {"error_rate": (res.errors / res.attempted, "1")}
    for unit, name in (("trials", "trials_per_s"), ("replications", "replications_per_s")):
        unit_time = math.fsum(t for t, u in zip(res.scaled, res.op_units) if u == unit)
        if unit_time:
            out[name] = (res.units[unit] / unit_time, "1/s")
    p90 = _deciles(res.scaled)[8]
    out["samples"] = (len(res.scaled), "count")
    out["samples_beyond_p90"] = (sum(1 for x in res.scaled if x > p90), "count")
    raw = _deciles(res.latencies)
    out["measured_setup_s"] = (raw_setup_s, "s")
    out["measured_ops_per_s"] = (res.attempted / res.busy_s, "1/s")
    out["measured_op_ms_p50"] = (raw[4] * 1e3, "ms")
    out["measured_op_ms_p90"] = (raw[8] * 1e3, "ms")
    out["reference_unit_us"] = (res.ref_unit_s * 1e6, "us")
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict) -> None:
    """Print the human-readable part of the result."""
    print(f"bintab benchmark  workload={record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}")
    m = record["machine"]
    print(f"machine: {m['cores']} cores ({m['cores_usable']} usable), {m['cpu_model']}, "
          f"Python {m['python']}, numpy {m['numpy']}, {m['blas']}, "
          f"BLAS threads {m['blas_threads']}, commit {m['git_commit']}")
    print(f"set-up: median {record['setup_s'][len(record['setup_s']) // 2]:.4f} s of "
          f"{len(record['setup_s'])} ({', '.join(f'{s:.4f}' for s in record['setup_s'])})")
    for name, summary in record["passes"].items():
        print(f"{name} pass: {summary['rounds']} rounds, {summary['attempted']} ops, "
              f"{summary['errors']} errors ({summary['typed_errors']}), "
              f"{summary['failed']} failed checks, {summary['elapsed_s']:.2f} s"
              + (" (cut short)" if summary["cut_short"] else ""))
        for failure in summary["failures"]:
            print(f"  FAILED {failure}")
    for title in ("metrics", "extra"):
        for name, (value, unit) in record[title].items():
            print(f"  {name:40s} {_fmt(value):>14s} {unit}")
    if "reached" in record:
        missed = [layer for layer, hit in record["reached"].items() if not hit]
        print(f"layers not reached by {record['workload']}: {', '.join(missed) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bintab" / "__init__.py").is_file():
        print(f"error: no bintab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import scipy.special  # noqa: F401  the checks' references, loaded before set-up timing
    import scipy.stats  # noqa: F401

    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe(CLOCK)
    setups, setup_starts = [], []

    def set_up():
        probe.burst()
        t0 = CLOCK()
        bt = fresh_import()
        workload = WORKLOADS[args.workload]()
        workload.setup(bt, args.seed, str(workdir))
        workload.warmup()
        setups.append(CLOCK() - t0)
        setup_starts.append(t0)
        probe.burst()
        return bt, workload

    try:
        for _ in range(SETUP_REPEATS_BEFORE):
            bt, workload = set_up()

        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": machine(), "passes": {}}
        if args.trace == 0:
            res = run_pass(workload, args.seconds)
            passes = {"untraced": res}
            for _ in range(SETUP_REPEATS_AFTER):
                set_up()
            starts = np.array(setup_starts)
            scaled = np.array(setups) * probe.scales(starts, starts + np.array(setups))
            record["metrics"] = end_to_end(res, float(np.median(scaled)))
            record["extra"] = extra_metrics(res, statistics.median(setups))
        else:
            tracer = Tracer()
            plain, res = run_traced(workload, args.seconds, TRACE_ROUNDS[args.workload], tracer)
            passes = {"untraced": plain, "traced": res}
            record["metrics"] = layers.metrics(tracer, res.scaled_busy_s - plain.scaled_busy_s)
            record["extra"] = {"untraced_busy_s": (plain.scaled_busy_s, "s"),
                               "traced_busy_s": (res.scaled_busy_s, "s"),
                               "measured_untraced_busy_s": (plain.busy_s, "s"),
                               "measured_traced_busy_s": (res.busy_s, "s")}
            record["reached"] = layers.reached(tracer)
            record["spans"] = tracer.spans
        record["setup_s"] = sorted(setups)
        for name, done in passes.items():
            record["passes"][name] = {
                "rounds": done.rounds, "attempted": done.attempted, "errors": done.errors,
                "failed": done.failed, "failures": done.failures,
                "typed_errors": done.typed_errors, "elapsed_s": done.elapsed_s,
                "busy_s": done.busy_s, "scaled_busy_s": done.scaled_busy_s,
                "reference_unit_s": done.ref_unit_s, "cut_short": done.cut_short,
                "by_label": done.by_label,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(record)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    failed = sum(done.failed for done in passes.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
