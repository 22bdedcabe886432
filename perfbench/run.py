#!/usr/bin/env python3
"""qkmeans benchmark: one workload per call, run in a fresh child process.

    python3 perfbench/run.py --workload readout_exact --seed 1 --seconds 10 --trace 0

Run it from the repository root (it imports ``qkmeans`` from ``src/``).
Workloads and metrics are declared in ``BENCHMARK.json``; the workloads
themselves live in ``perfbench/workloads.py``.

``--trace 0`` prints the end-to-end metrics: ``wall_ref`` (a pass's
wall time in units of a fixed reference loop, see below), ``setup_s``
(median of several fresh interpreters that import ``qkmeans.cli`` and
load the packaged configs, timed between the passes), ``peak_rss_mb``
(the child process) and ``fidelity_mean``.  ``--trace 1`` prints the
per-layer metrics instead, from traced passes interleaved with plain
ones, plus the import breakdown from ``python -X importtime``; among
them ``host.wall_s`` and ``host.ref_loop_s`` are the run's median pass
and reference-loop times in seconds.  The stdout line that starts with
``machine`` carries the machine record as JSON.

A per-layer value of 0 means the workload never reaches that layer (no
circuits on ``table_io``, no CLI on ``wide_features``).  Traced runs also
write the last traced pass's spans to ``.perfbench/spans-*.jsonl``.

``wall_ref`` is the median wall time of the run's timed passes divided
by the median time of the workload's reference loop (``REFERENCE_LOOPS``
in ``child.py``), a fixed piece of numpy and Python work that runs no
qkmeans code, three times before every timed pass.  On the 2-vCPU host
this was tuned on, the speed of an unchanged pass swings by up to 2x:
from one second to the next, and for minutes at a time.  A plain numpy
loop swings alike, with CPU time equal to wall time, so the swings are
the host's.  The medians even out the short swings and the division
takes out the long ones.  In a seven-minute series of one seed's
readout_sampled passes in which the host slowed down, cut into blocks
of six passes, the quartile spread of the block medians was 21% in
seconds and 8% in reference loops; in one where it held its speed, 6%
in seconds and 5% in reference loops.  A change to qkmeans moves the
passes and not the reference loop, so it moves ``wall_ref`` in full.

The child runs with BLAS/OpenMP threads pinned to 1.  Workloads never
run concurrently: this process waits for each child before the next.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is nonzero when any operation
or output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
IMPORTTIME_TIMEOUT_S = 30


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def import_breakdown(env) -> dict[str, float]:
    """Cumulative import seconds of qkmeans and of scipy.optimize within it."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qkmeans.cli"],
                          env=env, cwd=ROOT, check=True, timeout=IMPORTTIME_TIMEOUT_S,
                          capture_output=True, text=True)
    qkmeans_us = scipy_optimize_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, raw_name = line[len("import time:"):].split("|")
        name = raw_name.strip()
        top_level = len(raw_name) - len(raw_name.lstrip()) == 1
        if top_level and (name == "qkmeans" or name.startswith("qkmeans.")):
            qkmeans_us += int(cumulative)
        if name == "scipy.optimize" and not scipy_optimize_us:
            scipy_optimize_us = int(cumulative)
    return {"setup.import_qkmeans_s": qkmeans_us / 1e6,
            "setup.import_scipy_optimize_s": scipy_optimize_us / 1e6}


def run_child(args, env, work: Path) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if args.trace:
        cmd += ["--spans", str(STATE / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qkmeans" / "__init__.py").is_file():
        print(f"error: no qkmeans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        child = run_child(args, env, work)
        imports = import_breakdown(env) if args.trace else {}
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = child["failures"]
    attempted = child["attempted"]
    metrics: dict[str, float] = {}
    if "wall_s" in child:
        wall = statistics.median(child["wall_s"])
        ref_loop = statistics.median(child["ref_loop_s"])
        if args.trace:
            layers = child["layers"]
            metrics = {
                **imports,
                **layers,
                "circuits_per_s": layers["distance.circuits"] / wall,
                "fail_rate": min(len(failures), attempted) / attempted,
                "trace.overhead_s": child["trace_overhead_s"],
                "host.wall_s": wall,
                "host.ref_loop_s": ref_loop,
            }
        else:
            metrics = {
                "wall_ref": wall / ref_loop,
                "setup_s": statistics.median(child["setup_s"]),
                "peak_rss_mb": child["peak_rss_mb"],
                "fidelity_mean": child["fidelity_mean"],
            }
        mismatch = {m["name"] for m in declared} ^ set(metrics)
        if mismatch:
            failures.append(f"measured metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"machine {json.dumps(child.get('machine'))}")
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:<40} {metrics[m['name']]!r} {m['unit']}")
    for failure in failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
