"""Smoke tests for scripts/ and the benchmark tracer's lookup sites, so an
API change cannot break them silently."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_script(name: str):
    return load_module(ROOT / "scripts" / f"{name}.py")


def test_sweep_shot_budget_runs(capsys):
    script = load_script("sweep_shot_budget")
    assert script.main(["--pairs", "16", "--budgets", "64,256"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["shots", "mean", "|err|", "p99", "|err|"]
    assert [row.split()[0] for row in rows[1:]] == ["64", "256"]


def test_run_full_benchmark_imports():
    # Its --quick run takes seconds; acceptance test_09 runs the same CLI steps.
    assert callable(load_script("run_full_benchmark").main)


def test_artifact_digests_pin_every_command_output():
    # The set itself runs in CI's bench-smoke job (--check), not here: its
    # digests may differ under the floors job's numpy and SciPy.
    script = load_script("artifact_digests")
    pinned = json.loads(script.DIGESTS.read_text(encoding="utf-8"))
    library = {name for name in pinned if name.startswith("library/")}
    outputs = {step[step.index("--out") + 1] for step in script.commands()}
    assert {name.rsplit("/", 1)[0] for name in pinned.keys() - library} == outputs
    assert library == script.library_set().keys()
    assert script.differences({"a": "1", "b": "2"}, {"b": "3", "c": "4"}) == [
        "a: missing", "b: changed", "c: new"]


def test_tracer_lookup_sites_resolve():
    # perfbench/tracer.py rebinds each (module, attribute) of _SITES for a
    # traced pass; a site the package no longer has fails only there.
    tracer = load_module(ROOT / "perfbench" / "tracer.py")
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in tracer._SITES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
