#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its run-to-run spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace-seeds 1,2 --out .perfbench/sweep.json

For every workload in ``BENCHMARK.json`` this runs ``run.py --trace 0``
once per seed, one run at a time, and reports each end-to-end metric's
median, quartiles (``statistics.quantiles(values, n=4)``) and spread, the
quartile distance as a share of the median, against the metric's bound.
``--trace-seeds`` adds one traced run per listed seed, recording every
per-layer metric.

``perfbench/baseline.json`` holds two such sweeps of the same code: its
``machine`` and ``workloads`` are the second sweep's output,
``repeat_set_medians`` the first sweep's medians, and ``reconciliation``
compares the second sweep's traced runs with the ROADMAP's timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    lines = proc.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("machine "))
    return {
        "seed": seed,
        "elapsed_s": elapsed,
        "metrics": {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()},
        "machine": json.loads(machine[len("machine "):]),
    }


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_bound": spread <= bound, "below_third_of_bound": spread < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out: dict = {"run_seconds": seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        traced = [run_once(name, seed, seconds, 1) for seed in parse_seeds(args.trace_seeds)]
        out["machine"] = runs[0]["machine"]
        summary = {}
        if len(runs) >= 2:
            summary = {
                metric: summarise([r["metrics"][metric] for r in runs], bound)
                for metric, bound in bounds.items()
            }
        out["workloads"][name] = {
            "runs": [{k: r[k] for k in ("seed", "elapsed_s", "metrics")} for r in runs],
            "summary": summary,
            "traced": [{k: r[k] for k in ("seed", "elapsed_s", "metrics")} for r in traced],
        }
        elapsed = [r["elapsed_s"] for r in runs + traced]
        print(f"{name}: {len(elapsed)} runs, {min(elapsed):.1f}-{max(elapsed):.1f} s each")
        for metric, s in summary.items():
            print(f"  {metric:<16} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}  {'ok' if s['below_third_of_bound'] else 'WIDE'}")
        sys.stdout.flush()
        if args.out:
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
