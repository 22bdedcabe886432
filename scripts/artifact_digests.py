#!/usr/bin/env python3
"""Pin the seeded CLI artifacts from commit to commit.

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
with and without ``--scores``; and once ``complexity``.  A change that
alters an artifact on purpose rewrites the file and names each changed
digest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from qkmeans.cli import main as qkmeans  # noqa: E402
from workloads import _tree_digest  # noqa: E402

DIGESTS = ROOT / "scripts" / "artifact_digests.json"
SEEDS = (1, 2)
TABLE_SHOTS = 256


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

    actual = run_set()
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
