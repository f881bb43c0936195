"""Run the benchmark repeatedly and summarise each metric's spread.

    python3 perfbench/steady.py --workloads search fit --seeds 1 2 3 4 5 \\
        --out perfbench/out/steady.json

Runs ``run.py`` once per (workload, seed), one run at a time, and reports
for every metric the median, the quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the interquartile spread as a share of the median,
next to the regression bound ``BENCHMARK.json`` sets for it.  This is the
check a benchmark must pass to be called steady: every spread, set-up time
aside, within its bound, and comfortably so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["record"] = {key: record.get(key) for key in ("machine", "extra", "reached", "passes")}
    return result


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        names = runs[0]["metrics"]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
        extra = {name: summarise([r["record"]["extra"][name][0] for r in runs])
                 for name in runs[0]["record"]["extra"]}
        summary.setdefault("machine", runs[0]["record"]["machine"])
        summary["workloads"][workload] = {
            "metrics": metrics,
            "extra": extra,
            "typed_errors": [p["typed_errors"] for r in runs for p in r["record"]["passes"].values()],
            "failures": [f for r in runs for p in r["record"]["passes"].values() for f in p["failures"]],
            "units": {name: runs[0]["metrics"][name]["unit"] for name in names},
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
        }
        if args.trace:
            summary["workloads"][workload]["reached"] = runs[0]["record"]["reached"]
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"wall {min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f} s")
        for name, s in {**metrics, **extra}.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:36s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}  bound {bound}{flag}")
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
