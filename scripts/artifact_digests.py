#!/usr/bin/env python3
"""Pin the seeded CLI artifacts and library outputs from commit to commit.

    python scripts/artifact_digests.py --check

runs one fixed set of seeded CLI commands in a fresh temporary directory,
with relative paths, and hashes every file they write the way
``perfbench/workloads.py``'s ``_tree_digest`` does: one sha256 per file,
each manifest without its timestamp.  ``--write`` stores the digests in
``scripts/artifact_digests.json``; ``--check`` compares them with that
file and exits 1 on any difference; ``--report`` prints the same
comparison and exits 0, for environments (other numpy, SciPy or LAPACK
versions) whose differences are to be seen, not gated.

The set, for seeds 1 and 2: ``synth`` at 256 shots with both presets;
``benchmark`` on the crosstalk table with ``kmeans``, ``kmeans --metric
fm``, exact and sampled (1,024 shots, 4 splits) ``qkmeans``; ``crosstalk``
with and without ``--scores``; readout_sampled's own pair, ``synth
--preset crosstalk`` at 32 shots and sampled ``qkmeans`` at 8,192 shots
and 4 splits on it; and once ``complexity``.  Every CLI fit
has F = 2 features, so a seeded library set, keyed ``library/...``, pins
the kernels at F in {1, 3, 16, 64}: in each distance mode the ``fit``
labels, centers and center shifts, ``predict`` labels and
``qkmeans_plusplus_init`` centers, plus exact and sampled
``distance_matrix`` and ``estimate_distances`` values.  A change that
alters an artifact on purpose rewrites the file and names each changed
digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from qkmeans.cli import main as qkmeans  # noqa: E402
from qkmeans.clustering import DISTANCE_MODES, FitConfig, fit, predict, qkmeans_plusplus_init  # noqa: E402
from qkmeans.dataset import DataSet  # noqa: E402
from qkmeans.distance import BatchConfig, DistanceRequest, distance_matrix, estimate_distances  # noqa: E402
from workloads import _tree_digest  # noqa: E402

DIGESTS = ROOT / "scripts" / "artifact_digests.json"
SEEDS = (1, 2)
TABLE_SHOTS = 256
LIBRARY_FEATURES = (1, 3, 16, 64)


def commands() -> list[list[str]]:
    steps = []
    for seed in map(str, SEEDS):
        data = f"s{seed}/synth_crosstalk/iq_shots.csv"
        bench = ["benchmark", "--data", data, "--seed", seed]
        steps += [
            ["synth", "--preset", preset, "--shots", str(TABLE_SHOTS), "--seed", seed,
             "--out", f"s{seed}/synth_{preset}"]
            for preset in ("default", "crosstalk")
        ]
        steps += [
            bench + ["--algo", "kmeans", "--out", f"s{seed}/kmeans"],
            bench + ["--algo", "kmeans", "--metric", "fm", "--out", f"s{seed}/kmeans_fm"],
            bench + ["--algo", "qkmeans", "--mode", "exact", "--out", f"s{seed}/exact"],
            bench + ["--algo", "qkmeans", "--mode", "sampled", "--shots", "1024", "--splits", "4",
                     "--out", f"s{seed}/sampled"],
            ["crosstalk", "--data", data, "--out", f"s{seed}/crosstalk"],
            ["crosstalk", "--data", data, "--scores", f"s{seed}/exact/scores.csv",
             "--out", f"s{seed}/crosstalk_scores"],
            # perfbench's readout_sampled commands
            ["synth", "--preset", "crosstalk", "--shots", "32", "--seed", seed,
             "--out", f"s{seed}/synth_readout"],
            ["benchmark", "--data", f"s{seed}/synth_readout/iq_shots.csv", "--seed", seed,
             "--algo", "qkmeans", "--mode", "sampled", "--shots", "8192", "--splits", "4",
             "--out", f"s{seed}/sampled_8192"],
        ]
    return steps + [["complexity", "--out", "complexity"]]


def run_set() -> dict[str, str]:
    """Digests of every artifact the set writes, keyed by relative path."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="qk-digests-") as tmp:
        os.chdir(tmp)
        try:
            for step in commands():
                if qkmeans(step) != 0:
                    raise SystemExit(f"qkmeans {' '.join(step)} failed")
            return _tree_digest(Path(tmp))
        finally:
            os.chdir(cwd)


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def library_set() -> dict[str, str]:
    """Digests of the seeded library outputs, keyed ``library/f<F>/...``:
    48 points round 3 blobs and 16 held-out points at each F."""
    digests = {}
    batch = BatchConfig(max_circuits_per_job=50, shots_per_circuit=256, seed=7)
    for f in LIBRARY_FEATURES:
        rng = np.random.default_rng(f)
        blobs = 3.0 * rng.normal(size=(3, f))
        points = blobs[rng.integers(3, size=64)] + rng.normal(size=(64, f))
        train, held_out = DataSet(points[:48], np.zeros(48, dtype=np.int64)), points[48:]
        key = f"library/f{f}"
        for mode in DISTANCE_MODES:
            model = fit(train, FitConfig(n_clusters=3, max_iter=10, distance_mode=mode, batch=batch, seed=f))
            labels = predict(model, DataSet(held_out, np.zeros(16, dtype=np.int64)), mode, batch, seed=f)
            digests |= {
                f"{key}/{mode}/fit_labels": _sha(model.labels),
                f"{key}/{mode}/fit_centers": _sha(model.cluster_centers),
                f"{key}/{mode}/fit_center_shifts": _sha(np.array(model.center_shifts)),
                f"{key}/{mode}/predict_labels": _sha(labels),
                f"{key}/{mode}/init_centers": _sha(qkmeans_plusplus_init(train, 3, mode, f + 1, batch)),
            }
        requests = [DistanceRequest(x, y) for x, y in zip(points[:16], held_out)]
        for sampled, name in ((False, "exact"), (True, "sampled")):
            digests[f"{key}/distance_matrix_{name}"] = _sha(
                distance_matrix(held_out, points[:5], batch, sampled=sampled)[0])
            digests[f"{key}/estimate_distances_{name}"] = _sha(estimate_distances(requests, batch, sampled)[0])
    return digests


def differences(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return [
        f"{name}: {'missing' if name not in actual else 'new' if name not in expected else 'changed'}"
        for name in sorted(expected.keys() | actual.keys())
        if expected.get(name) != actual.get(name)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    for flag in ("--write", "--check", "--report"):
        mode.add_argument(flag, action="store_true")
    args = parser.parse_args(argv)

    actual = run_set() | library_set()
    if args.write:
        DIGESTS.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(actual)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    diff = differences(json.loads(DIGESTS.read_text(encoding="utf-8")), actual)
    for line in diff:
        print(line)
    print(f"{len(diff)} of {len(actual)} artifacts differ from {DIGESTS.relative_to(ROOT)}")
    return 1 if diff and args.check else 0


if __name__ == "__main__":
    raise SystemExit(main())
