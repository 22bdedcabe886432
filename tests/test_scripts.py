"""Smoke tests for scripts/, so an API change cannot break them silently."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_shot_budget_runs(capsys):
    script = load_script("sweep_shot_budget")
    assert script.main(["--pairs", "16", "--budgets", "64,256"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["shots", "mean", "|err|", "p99", "|err|"]
    assert [row.split()[0] for row in rows[1:]] == ["64", "256"]


def test_run_full_benchmark_imports():
    # Its --quick run takes seconds; acceptance test_09 runs the same CLI steps.
    assert callable(load_script("run_full_benchmark").main)
