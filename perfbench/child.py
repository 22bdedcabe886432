"""One workload run, in the fresh child process that ``run.py`` starts.

1. Build the workload's inputs from the seed (untimed).
2. Check pass: one untimed pass, with ``clustering.fit`` audited for the
   job-count contract, that also warms the simulator's index caches.
3. Timed passes until ``--seconds`` have gone by (at least
   ``MIN_PASSES``).  Each pass's artifacts must be byte-identical to the
   check pass's.  Right before each plain pass the workload's fixed
   reference loop (``REFERENCE_LOOPS``) runs ``REF_SAMPLES`` times, which
   measures how fast the host was over the run.  With ``--trace 0``
   set-up samples (a fresh interpreter importing ``qkmeans.cli`` and
   loading the packaged configs) are taken between passes, spread evenly
   over the run, so that a slow spell of the host does not hit all of
   them.  With ``--trace 1`` plain and traced passes alternate, and the
   tracing overhead is the cost of one wrapper call, timed on a no-op,
   times the traced pass's span count.
4. The workload's output checks on the check pass's artifacts.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer
from workloads import WORKLOADS, JobAudit

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 5
# One reference loop is ~0.1 s and swings with the host from one sample
# to the next; three per pass give a run's median enough samples.
REF_SAMPLES = 3
SETUP_TIMEOUT_S = 30

SETUP_CODE = """\
import json
from importlib import resources
import qkmeans.cli
from qkmeans import iqdata
configs = resources.files("qkmeans").joinpath("configs")
def load(name):
    return json.loads(configs.joinpath(name).read_text(encoding="utf-8"))
iqdata.model_from_dict(load("default_model.json"))
iqdata.model_from_dict(load("crosstalk_model.json"))
iqdata.coupling_from_dict(load("coupling_map.json"))
"""


def python_loop() -> float:
    """Seconds for a fixed mix of small numpy calls behind Python overhead
    (seeding a generator and drawing a binomial, as the shot sampler
    does), a plain Python loop and arithmetic on a 2 MB array: what the
    CLI workloads spend their time on.  About 0.1 s on the 2-vCPU host it
    was tuned on.  It runs no qkmeans code."""
    start = perf_counter()
    for j in range(1000):
        seed = np.random.SeedSequence([1, j]).generate_state(1)[0]
        np.random.default_rng(seed).binomial(1024, 0.3)
    total = 0
    for i in range(300_000):
        total += i * i
    x = np.ones((64, 4096))
    for _ in range(40):
        x = np.sqrt(x * 1.0001)
    return perf_counter() - start


def array_loop() -> float:
    """Seconds for arithmetic on fresh 32 MB complex arrays, larger than a
    core's own caches, as in the statevector kernels of ``wide_features``.
    About 0.09 s on the 2-vCPU host it was tuned on; it holds two such
    arrays at once, 64 MB above the process's resident set between
    passes.  It runs no qkmeans code."""
    start = perf_counter()
    x = np.ones((512, 4096), dtype=complex)
    for _ in range(6):
        x = x * (1.0001 + 0.0001j)
    return perf_counter() - start


# The reference loop each workload's passes are divided by, chosen by what
# the passes spend their time on.  In a six-minute series of wide_features
# passes, the quartile spread of medians over blocks of three passes was
# 7-8% in seconds, 8-10% divided by python_loop and 3-5% by array_loop.
REFERENCE_LOOPS = {"python": python_loop, "array": array_loop}


def run_pass(workload, out: Path) -> tuple[float, int, list[str]]:
    """(wall seconds, operations attempted, failures) for one pass in ``out``."""
    operations = workload.operations()
    failures = []
    out.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(out)
    try:
        start = perf_counter()
        for label, op in operations:
            try:
                code = op()
            except Exception:  # noqa: BLE001 - a failed operation is a result, not a crash
                failures.append(f"{label} raised:\n{traceback.format_exc()}")
                continue
            if code != 0:
                failures.append(f"{label} exited {code}")
        wall = perf_counter() - start
    finally:
        os.chdir(home)
    return wall, len(operations), failures


def time_setup() -> float:
    """Seconds for a fresh interpreter to import qkmeans.cli and load the configs.

    The wait blocks instead of polling (``subprocess.run(timeout=...)``
    polls every 50 ms, which would round the figure); a timer kills a
    hung interpreter instead.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE])
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def machine_record() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="scratch directory for artifacts")
    parser.add_argument("--spans", help="write the last traced pass's spans here (JSONL)")
    args = parser.parse_args()

    work = Path(args.work)
    workload = WORKLOADS[args.workload](args.seed)
    reference_loop = REFERENCE_LOOPS[workload.reference]
    attempted, failures = 0, []

    check_dir = work / "check"
    with JobAudit() as audit:
        _, ops, op_failures = run_pass(workload, check_dir)
    attempted += ops
    failures += op_failures + audit.failures
    if workload.audited_fits and audit.fits_checked == 0:
        failures.append("no quantum fit reached the job-count audit")
    if op_failures:
        print(json.dumps({"attempted": attempted, "failures": failures}))
        return 0
    reference = workload.digest(check_dir)
    fidelities = workload.fidelities(check_dir)

    plain_walls, traced_walls, layers, span_counts, setup_s, ref_loop_s = [], [], [], [], [], []
    spans = None
    ops_failed = False
    start = perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        enough = (len(plain_walls) >= MIN_PASSES and len(setup_s) >= SETUP_SAMPLES
                  if not args.trace else
                  min(len(plain_walls), len(traced_walls)) >= MIN_TRACED_PASSES)
        if enough and perf_counter() - start >= args.seconds and not traced:
            break
        out = work / f"pass{i}"
        if not traced:
            ref_loop_s += [reference_loop() for _ in range(REF_SAMPLES)]
        if traced:
            spans = tracer.Tracer()
            spans.install()
        try:
            wall, ops, op_failures = run_pass(workload, out)
        finally:
            if traced:
                spans.uninstall()
        attempted += ops
        failures += op_failures
        ops_failed = ops_failed or bool(op_failures)
        if not op_failures and workload.digest(out) != reference:
            failures.append(f"pass {i}: artifacts differ from the check pass")
        (traced_walls if traced else plain_walls).append(wall)
        if traced:
            layers.append(tracer.layer_metrics(spans.spans))
            span_counts.append(len(spans.spans))
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        while not args.trace and len(setup_s) < SETUP_SAMPLES * min(
                1.0, (perf_counter() - start) / args.seconds):
            setup_s.append(time_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks that recompute reference results run last, so their memory
    # stays out of peak_rss_mb.  A library workload checks its latest pass,
    # which must match the check pass when no operation failed.
    if not ops_failed:
        failures += workload.verify(check_dir)
    shutil.rmtree(check_dir, ignore_errors=True)
    if spans is not None and args.spans:
        spans.write_jsonl(args.spans)
    result = {
        "attempted": attempted,
        "failures": failures,
        "wall_s": plain_walls,
        "setup_s": setup_s,
        "ref_loop_s": ref_loop_s,
        "fidelity_mean": statistics.fmean(fidelities) if fidelities else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "machine": machine_record(),
    }
    if layers:
        result["layers"] = {
            name: statistics.median(sample[name] for sample in layers) for name in layers[0]
        }
        result["trace_overhead_s"] = tracer.wrapper_cost_s() * statistics.median(span_counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
