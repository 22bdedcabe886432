"""End-to-end CLI tests (in-process calls to main())."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import qkmeans
from qkmeans import iqdata
from qkmeans.cli import build_parser, main, read_score_table
from qkmeans.complexity import ComplexityParams
from qkmeans.crosstalk import named_form_labels
from qkmeans.distance import BatchConfig
from qkmeans.errors import DataError
from qkmeans.iqdata import SCHEDULES, load_table, schedule_name

FIXTURE = Path(__file__).parent / "data" / "reference_named_coefficients.csv"

MODEL = {
    "device": "toy",
    "qubits": {
        str(q): {"ground_center": [-1.0, 0.5 * q], "excited_center": [2.5, 1.5 + 0.5 * q]}
        for q in range(3)
    },
}
COUPLING = {"device": "toy", "edges": [[0, 1], [1, 2]]}


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def assert_error_exit(capsys, argv, code):
    """main(argv) returns ``code`` and prints one ``error:`` line, no traceback."""
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def manifest_without_timestamp(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload.pop("timestamp")
    return payload


def write_pair_table(path: Path, columns) -> Path:
    """A pair 0-1 shot table from 16 equal-length columns, in (qubit, schedule,
    feature) order: column 8 * q + 2 * SCHEDULES.index(schedule) + (feature == "q")."""
    rows = [
        f"0-1,{q},{sched},{shot},{float(columns[8 * q + 2 * s][shot])!r},"
        f"{float(columns[8 * q + 2 * s + 1][shot])!r}"
        for q in (0, 1) for s, sched in enumerate(SCHEDULES) for shot in range(len(columns[0]))
    ]
    path.write_text("\n".join(["pair,qubit,schedule,shot,i,q", *rows]) + "\n")
    return path


def read_grid(path: Path):
    """(axis labels, matrix) of a heatmap file."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header[1:], np.array([[float(v) for v in row[1:]] for row in rows])


def read_named(path: Path) -> dict[str, float]:
    """Form label -> value of a one-pair named-coefficient file."""
    rows = [line.split('",') for line in path.read_text().splitlines()[1:]]
    return {label.lstrip('"'): float(value) for label, value in rows}


class TestSynth:
    def test_writes_table_and_manifest(self, tmp_path):
        code = main(["synth", "--shots", "8", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        table = load_table(tmp_path / "iq_shots.csv")
        assert len(table) == 4 * 2 * 4 * 8  # edges x qubits x schedules x shots
        manifest = json.loads((tmp_path / "synth_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["config_paths"]["model"] == "builtin:default_model.json"
        assert manifest["outputs"] == ["iq_shots.csv"]

    def test_byte_identical_across_runs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--shots", "16", "--seed", "1", "--out", str(out)]) == 0
        assert (a / "iq_shots.csv").read_bytes() == (b / "iq_shots.csv").read_bytes()
        assert manifest_without_timestamp(
            a / "synth_manifest.json"
        ) == manifest_without_timestamp(b / "synth_manifest.json")

    def test_crosstalk_preset(self, tmp_path):
        code = main([
            "synth", "--preset", "crosstalk", "--shots", "8", "--out", str(tmp_path)
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "synth_manifest.json").read_text())
        assert manifest["config_paths"]["model"] == "builtin:crosstalk_model.json"

    def test_explicit_config_files(self, tmp_path):
        model_path = write_json(tmp_path / "model.json", MODEL)
        coupling_path = write_json(tmp_path / "coupling.json", COUPLING)
        out = tmp_path / "out"
        code = main([
            "synth", "--model", model_path, "--coupling", coupling_path,
            "--shots", "4", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["config_paths"]["model"] == model_path
        assert load_table(out / "iq_shots.csv").pairs() == ((0, 1), (1, 2))

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("QKMEANS_OUTPUT_DIR", str(target))
        assert main(["synth", "--shots", "4"]) == 0
        assert (target / "iq_shots.csv").exists()

    def test_bad_shots_is_config_error(self, tmp_path):
        assert main(["synth", "--shots", "0", "--out", str(tmp_path)]) == 1

    def test_missing_model_file(self, tmp_path):
        code = main([
            "synth", "--model", str(tmp_path / "absent.json"), "--out", str(tmp_path)
        ])
        assert code == 1

    def test_invalid_model_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", "--model", str(bad), "--out", str(tmp_path)]) == 1

    def test_non_numeric_center_is_config_error(self, tmp_path, capsys):
        model = json.loads(json.dumps(MODEL))
        model["qubits"]["0"]["ground_center"] = "ab"
        assert_error_exit(capsys, [
            "synth", "--model", write_json(tmp_path / "m.json", model),
            "--coupling", write_json(tmp_path / "c.json", COUPLING), "--out", str(tmp_path),
        ], 1)

    def test_three_qubit_edge_is_config_error(self, tmp_path, capsys):
        assert_error_exit(capsys, [
            "synth", "--coupling", write_json(tmp_path / "c.json", {"edges": [[0, 1, 2]]}),
            "--out", str(tmp_path),
        ], 1)

    def test_string_center_is_config_error(self, tmp_path, capsys):
        # a two-character string must not be split into the pair (1.0, 2.0)
        model = json.loads(json.dumps(MODEL))
        model["qubits"]["0"]["ground_center"] = "12"
        assert_error_exit(capsys, [
            "synth", "--model", write_json(tmp_path / "m.json", model),
            "--coupling", write_json(tmp_path / "c.json", COUPLING), "--out", str(tmp_path),
        ], 1)
        assert not (tmp_path / "iq_shots.csv").exists()

    @pytest.mark.parametrize("edge", [[0.5, 1.7], [0, 1.0], [False, True]])
    def test_non_integer_edge_is_config_error(self, edge, tmp_path, capsys):
        # [0.5, 1.7] must not be truncated to the edge (0, 1)
        assert_error_exit(capsys, [
            "synth", "--model", write_json(tmp_path / "m.json", MODEL),
            "--coupling", write_json(tmp_path / "c.json", {"edges": [edge]}), "--out", str(tmp_path),
        ], 1)
        assert not (tmp_path / "iq_shots.csv").exists()

    def test_non_utf8_model_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert_error_exit(capsys, ["synth", "--model", str(bad), "--out", str(tmp_path)], 1)

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        assert_error_exit(capsys, ["synth", "--seed", "-1", "--out", str(tmp_path)], 1)

    @pytest.mark.parametrize("device", [None, [1, 2], "a\nb", "a\u2028b", " padded ", "chip\n"])
    def test_device_that_would_not_read_back_is_config_error(self, device, tmp_path, capsys):
        # save_table writes the device verbatim into the "# device:" line
        model = dict(MODEL, device=device)
        out = tmp_path / "out"
        assert_error_exit(capsys, [
            "synth", "--model", write_json(tmp_path / "m.json", model),
            "--coupling", write_json(tmp_path / "c.json", COUPLING), "--out", str(out),
        ], 1)
        assert not out.exists()

    @pytest.mark.parametrize("device", [None, [1, 2], 3])
    def test_non_string_coupling_device_is_config_error(self, device, tmp_path, capsys):
        out = tmp_path / "out"
        assert_error_exit(capsys, [
            "synth", "--coupling", write_json(tmp_path / "c.json", dict(COUPLING, device=device)),
            "--out", str(out),
        ], 1)
        assert not out.exists()

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # stands in for np.arange failing on --shots 1000000000000; nothing
        # is allocated here
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(iqdata, "synthesize", exhausted)
        out = tmp_path / "out"
        assert_error_exit(capsys, ["synth", "--shots", "1000000000000", "--out", str(out)], 1)
        assert not out.exists()

    def test_device_round_trips(self, tmp_path):
        model = dict(MODEL, device="lab chip #2: 5q")
        assert main([
            "synth", "--model", write_json(tmp_path / "m.json", model),
            "--coupling", write_json(tmp_path / "c.json", COUPLING), "--shots", "2",
            "--out", str(tmp_path),
        ]) == 0
        assert load_table(tmp_path / "iq_shots.csv").device == "lab chip #2: 5q"


@pytest.fixture(scope="module")
def shot_table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("shots")
    assert main(["synth", "--shots", "64", "--seed", "2", "--out", str(path)]) == 0
    return path


class TestBenchmark:
    def test_classical_scores(self, shot_table_dir, tmp_path):
        code = main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--algo", "kmeans", "--splits", "2", "--seed", "4",
            "--out", str(tmp_path),
        ])
        assert code == 0
        scores = read_score_table(tmp_path / "scores.csv")
        pairs = {key[0] for key in scores}
        assert pairs == {(0, 1), (1, 2), (2, 3), (3, 4)}
        kinds = {key[2] for key in scores}
        assert kinds == {"single", "both"}
        assert all(0.0 <= v <= 1.0 for v in scores.values())
        txt = (tmp_path / "scores.txt").read_text()
        assert "# pair 0-1" in txt
        assert "q0, single, " in txt

    def test_quantum_exact_scores(self, shot_table_dir, tmp_path):
        code = main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--algo", "qkmeans", "--mode", "exact", "--splits", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        scores = read_score_table(tmp_path / "scores.csv")
        assert len(scores) == 16  # 4 pairs x 2 qubits x 2 kinds

    @pytest.mark.parametrize("mode", [["--mode", "exact"], ["--mode", "sampled", "--shots", "16"]])
    def test_scores_independent_of_max_circuits(self, mode, shot_table_dir, tmp_path):
        bodies = []
        for budget in ([], ["--max-circuits", "7"], ["--max-circuits", "1"]):
            out = tmp_path / f"c{len(bodies)}"
            assert main([
                "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
                "--algo", "qkmeans", *mode, *budget, "--splits", "2", "--out", str(out),
            ]) == 0
            bodies.append((out / "scores.csv").read_bytes())
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]

    def test_fm_metric_rows_are_skipped_by_score_reader(
        self, shot_table_dir, tmp_path
    ):
        code = main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--algo", "kmeans", "--metric", "fm", "--splits", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        # reader keys off AssignmentFidelity rows only
        assert read_score_table(tmp_path / "scores.csv") == {}
        body = (tmp_path / "scores.csv").read_text()
        assert "FowlkesMallows" in body

    def test_deterministic(self, shot_table_dir, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main([
                "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
                "--algo", "kmeans", "--splits", "3", "--seed", "0",
                "--out", str(out),
            ]) == 0
            outs.append(out)
        assert (outs[0] / "scores.csv").read_bytes() == (outs[1] / "scores.csv").read_bytes()
        assert (outs[0] / "scores.txt").read_bytes() == (outs[1] / "scores.txt").read_bytes()

    def test_missing_data_file(self, tmp_path):
        code = main([
            "benchmark", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path)
        ])
        assert code == 1

    def test_malformed_data_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pair,qubit,schedule,shot,i,q\n0-1,0,77,0,1.0,2.0\n")
        code = main(["benchmark", "--data", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_splits(self, shot_table_dir, tmp_path):
        code = main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--splits", "1", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_zero_sampled_shots_is_config_error(self, shot_table_dir, tmp_path):
        code = main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--shots", "0", "--mode", "sampled", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_shots_beyond_float64_counts_is_config_error(self, shot_table_dir, tmp_path, capsys):
        # 10**20 overflowed Generator.binomial's int64 before shots were bounded
        assert_error_exit(capsys, [
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--shots", str(10**20), "--mode", "sampled", "--out", str(tmp_path),
        ], 1)

    def test_zero_max_circuits_is_config_error(self, shot_table_dir, tmp_path):
        code = main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--max-circuits", "0", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_more_splits_than_class_shots_is_data_error(self, shot_table_dir, tmp_path):
        code = main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--splits", "500", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_huge_splits_fail_before_allocating(self, shot_table_dir, tmp_path, capsys):
        # each class is checked against --splits before any fold is built
        out = tmp_path / "out"
        assert_error_exit(capsys, [
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--splits", "100000000", "--out", str(out),
        ], 2)
        assert not out.exists()

    def test_cloud_framed_onto_the_origin_is_data_error(self, tmp_path, capsys):
        # every qubit-0 shot sits at one point, which the readout frame maps
        # onto the origin: Euclidean k-means runs, amplitude encoding cannot
        rows = [
            f"0-1,{q},{sched},{shot},"
            + ("1.0,2.0" if q == 0 else f"{shot + 0.5 * int(sched[0])!r},{1.0 - 0.25 * shot!r}")
            for q in (0, 1) for sched in ("00", "01", "10", "11") for shot in range(4)
        ]
        data = tmp_path / "x.csv"
        data.write_text("\n".join(["pair,qubit,schedule,shot,i,q", *rows]) + "\n")
        base = ["benchmark", "--data", str(data), "--splits", "2"]
        assert main([*base, "--algo", "kmeans", "--out", str(tmp_path / "kmeans")]) == 0
        out = tmp_path / "qkmeans"
        assert_error_exit(capsys, [*base, "--algo", "qkmeans", "--out", str(out)], 2)
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["kmeans", "qkmeans"])
    def test_values_whose_frame_would_overflow_are_data_errors(self, algo, tmp_path, capsys):
        # clouds near 1e160 overflow the frame's covariance; the table rejects them first
        rng = np.random.default_rng(0)
        rows = [f"0-1,{q},{sched},{shot},{1e160 * rng.standard_normal()!r},"
                f"{1e160 * rng.standard_normal()!r}"
                for q in (0, 1) for sched in ("00", "01", "10", "11") for shot in range(8)]
        data = tmp_path / "x.csv"
        data.write_text("\n".join(["pair,qubit,schedule,shot,i,q", *rows]) + "\n")
        out = tmp_path / "out"
        assert_error_exit(capsys, [
            "benchmark", "--data", str(data), "--algo", algo, "--splits", "2", "--out", str(out),
        ], 2)
        assert not out.exists()

    def test_non_utf8_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        bad.write_bytes(b"\xff\xfe")
        assert_error_exit(capsys, ["benchmark", "--data", str(bad), "--out", str(tmp_path)], 2)

    def test_negative_qubit_index_is_data_error(self, tmp_path, capsys):
        rows = [f"0--1,{q},{sched},{shot},{shot}.0,1.0"
                for q in (0, -1) for sched in ("00", "01", "10", "11") for shot in (0, 1)]
        data = tmp_path / "x.csv"
        data.write_text("\n".join(["pair,qubit,schedule,shot,i,q", *rows]) + "\n")
        assert_error_exit(capsys, [
            "benchmark", "--data", str(data), "--splits", "2", "--out", str(tmp_path),
        ], 2)

    def test_pair_naming_one_qubit_twice_is_data_error(self, shot_table_dir, tmp_path, capsys):
        rows = [f"1-1,1,{sched},{shot},{shot}.0,1.0"
                for sched in ("00", "01", "10", "11") for shot in (0, 1)]
        data = tmp_path / "x.csv"
        text = (shot_table_dir / "iq_shots.csv").read_text()
        data.write_text(text + "\n".join(rows) + "\n")
        assert_error_exit(capsys, [
            "benchmark", "--data", str(data), "--algo", "kmeans", "--splits", "2",
            "--out", str(tmp_path),
        ], 2)

    def test_qubit_outside_its_pair_is_data_error(self, shot_table_dir, tmp_path, capsys):
        lines = (shot_table_dir / "iq_shots.csv").read_text().splitlines()
        relabelled = [line.replace("0-1,1,", "0-1,3,", 1) for line in lines]
        assert relabelled != lines
        data = tmp_path / "x.csv"
        data.write_text("\n".join(relabelled) + "\n")
        assert_error_exit(capsys, [
            "benchmark", "--data", str(data), "--algo", "kmeans", "--splits", "2",
            "--out", str(tmp_path),
        ], 2)

    def test_negative_seed_is_config_error(self, shot_table_dir, tmp_path, capsys):
        assert_error_exit(capsys, [
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--seed", "-1", "--out", str(tmp_path),
        ], 1)

    def test_score_reader_rejects_foreign_files(self, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            read_score_table(other)


class TestCrosstalkCommand:
    def test_quiet_on_uncoupled_model(self, shot_table_dir, tmp_path):
        code = main([
            "crosstalk", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "flags.txt").read_text() == "no pairs flagged\n"
        for pair in ("0-1", "1-2", "2-3", "3-4"):
            assert (tmp_path / f"heatmap_{pair}.csv").exists()
        named = (tmp_path / "named_coefficients.csv").read_text().splitlines()
        assert named[0] == "form,0-1,1-2,2-3,3-4"
        assert len(named) == 9

    def test_single_shot_table_is_data_error(self, tmp_path, capsys):
        assert main(["synth", "--shots", "1", "--out", str(tmp_path)]) == 0
        assert_error_exit(capsys, [
            "crosstalk", "--data", str(tmp_path / "iq_shots.csv"), "--out", str(tmp_path),
        ], 2)

    def test_values_whose_moments_would_overflow_are_data_errors(self, tmp_path, capsys):
        # at +-1e308 every Pearson mean overflows, which once read as "no pairs flagged"
        rows = [f"0-1,{q},{sched},{shot},{(-1) ** shot * 1e308!r},{1e308!r}"
                for q in (0, 1) for sched in ("00", "01", "10", "11") for shot in range(4)]
        data = tmp_path / "x.csv"
        data.write_text("\n".join(["pair,qubit,schedule,shot,i,q", *rows]) + "\n")
        out = tmp_path / "out"
        assert_error_exit(capsys, ["crosstalk", "--data", str(data), "--out", str(out)], 2)
        assert not out.exists()

    def test_constant_signal_gives_symmetric_nan_cells(self, tmp_path):
        # qubit 0's I is 0.1 in both schedules of its ground-state signal
        # (the mean of 0.1s rounds, so its deviations are not exactly zero)
        columns = np.random.default_rng(5).normal(size=(16, 6))
        columns[0] = columns[4] = 0.1  # (q0, "00", i) and (q0, "10", i)
        data = write_pair_table(tmp_path / "x.csv", columns)
        assert main(["crosstalk", "--data", str(data), "--out", str(tmp_path / "out")]) == 0
        labels, matrix = read_grid(tmp_path / "out" / "heatmap_0-1.csv")
        assert labels[0] == "0_0_real"
        nan_cells = np.isnan(matrix)
        np.testing.assert_array_equal(nan_cells, nan_cells.T)
        assert set(zip(*np.nonzero(nan_cells))) == {(0, c) for c in range(1, 8)} | {
            (r, 0) for r in range(1, 8)}
        named = read_named(tmp_path / "out" / "named_coefficients.csv")
        assert [label for label, value in named.items() if np.isnan(value)] == [
            "r0(ES_a_I, GS_a_Q)", "r0(ES_a_Q, GS_a_I)"]

    def test_flags_coupled_pairs(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main([
            "synth", "--preset", "crosstalk", "--shots", "64", "--seed", "2",
            "--out", str(data_dir),
        ]) == 0
        out = tmp_path / "analysis"
        assert main([
            "crosstalk", "--data", str(data_dir / "iq_shots.csv"), "--out", str(out)
        ]) == 0
        flags = (out / "flags.txt").read_text()
        assert "pair 1-2" in flags
        assert "pair 2-3" in flags
        assert "pair 0-1" not in flags

    def test_named_values_input(self, tmp_path):
        code = main([
            "crosstalk", "--named-values", str(FIXTURE), "--out", str(tmp_path)
        ])
        assert code == 0
        flags = (tmp_path / "flags.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in flags] == ["pair 1-2", "pair 2-3"]
        # a named block holds no shots, so no heatmap files
        assert not list(tmp_path.glob("heatmap_*.csv"))

    def test_scores_feed_gap_rule(self, shot_table_dir, tmp_path):
        bench = tmp_path / "bench"
        assert main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--algo", "kmeans", "--splits", "2", "--out", str(bench),
        ]) == 0
        out = tmp_path / "analysis"
        code = main([
            "crosstalk", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--scores", str(bench / "scores.csv"), "--out", str(out),
        ])
        assert code == 0
        assert (out / "flags.txt").exists()

    def test_scores_without_fidelity_rows_are_data_error(self, shot_table_dir, tmp_path, capsys):
        # an fm score table would otherwise switch the fidelity-gap rule off unseen
        bench = tmp_path / "bench"
        assert main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--algo", "kmeans", "--metric", "fm", "--splits", "2", "--out", str(bench),
        ]) == 0
        out = tmp_path / "out"
        err = assert_error_exit(capsys, [
            "crosstalk", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--scores", str(bench / "scores.csv"), "--fidelity-gap", "0", "--out", str(out),
        ], 2)
        assert "no AssignmentFidelity rows" in err
        assert not out.exists()

    @pytest.mark.parametrize("mean, message", [
        ("nan", "fidelity mean nan is not in"),
        ("7.5", "fidelity mean 7.5 is not in"),
        ("-0.0001", "fidelity mean -0.0001 is not in"),
        (None, "second AssignmentFidelity row"),  # the first row, repeated
    ])
    def test_bad_score_rows_are_data_errors(self, mean, message, shot_table_dir, tmp_path, capsys):
        bench = tmp_path / "bench"
        assert main([
            "benchmark", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--algo", "kmeans", "--splits", "2", "--out", str(bench),
        ]) == 0
        rows = (bench / "scores.csv").read_text().splitlines()
        first = next(i for i, row in enumerate(rows) if ",AssignmentFidelity," in row)
        if mean is None:
            rows.append(rows[first])
        else:
            fields = rows[first].split(",")
            fields[8] = mean
            rows[first] = ",".join(fields)
        bad = tmp_path / "scores.csv"
        bad.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert_error_exit(capsys, [
            "crosstalk", "--data", str(shot_table_dir / "iq_shots.csv"),
            "--scores", str(bad), "--out", str(out),
        ], 2)
        with pytest.raises(DataError, match=rf"line \d+: {message}"):
            read_score_table(bad)
        assert not out.exists()

    def test_requires_exactly_one_input(self, tmp_path):
        assert main(["crosstalk", "--out", str(tmp_path)]) == 1
        assert main([
            "crosstalk", "--data", "x.csv", "--named-values", "y.csv",
            "--out", str(tmp_path),
        ]) == 1

    @pytest.mark.parametrize("inputs", [
        ["--data", "BAD"],
        ["--named-values", "BAD"],
        ["--named-values", str(FIXTURE), "--scores", "BAD"],
    ])
    def test_non_utf8_input_is_data_error(self, inputs, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        bad.write_bytes(b"\xff\xfe")
        argv = [str(bad) if arg == "BAD" else arg for arg in inputs]
        assert_error_exit(capsys, ["crosstalk", *argv, "--out", str(tmp_path)], 2)

    @pytest.mark.parametrize("flag", ["--threshold", "--fidelity-gap"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_threshold_flags_must_be_finite_and_nonnegative(self, flag, value, tmp_path, capsys):
        assert_error_exit(capsys, [
            "crosstalk", "--named-values", str(FIXTURE), flag, value, "--out", str(tmp_path),
        ], 1)
        assert not (tmp_path / "crosstalk_manifest.json").exists()

    def test_duplicate_pair_column_is_data_error(self, tmp_path, capsys):
        lines = FIXTURE.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("form,"))
        dup = [lines[start] + ",1-2"] + [line + ",0.5" for line in lines[start + 1 :]]
        bad = tmp_path / "dup.csv"
        bad.write_text("\n".join(dup) + "\n")
        out = tmp_path / "out"
        assert_error_exit(capsys, ["crosstalk", "--named-values", str(bad), "--out", str(out)], 2)
        assert not (out / "named_coefficients.csv").exists()

    def test_malformed_named_values(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("form,0-1\n\"not a form\",0.1\n")
        assert main([
            "crosstalk", "--named-values", str(bad), "--out", str(tmp_path)
        ]) == 2

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() has no string-conversion digit limit here",
    )
    def test_index_beyond_the_int_conversion_limit_is_data_error(self, tmp_path, capsys):
        token = "1" * (sys.get_int_max_str_digits() + 1)
        bad = tmp_path / "long.csv"
        bad.write_text(f"form,0-1,{token}-2\n")
        line = assert_error_exit(capsys, [
            "crosstalk", "--named-values", str(bad), "--out", str(tmp_path / "out")
        ], 2)
        assert "malformed pair" in line


class TestComplexityCommand:
    EXPECTED_FILES = (
        "classical_vs_samples.csv", "quantum_vs_samples.csv", "both_vs_samples.csv",
        "classical_vs_features.csv", "quantum_vs_features.csv", "both_vs_features.csv",
    )

    def test_writes_six_curve_files(self, tmp_path):
        assert main(["complexity", "--out", str(tmp_path)]) == 0
        for name in self.EXPECTED_FILES:
            assert (tmp_path / name).exists(), name
        manifest = json.loads((tmp_path / "complexity_manifest.json").read_text())
        assert manifest["outputs"] == sorted(self.EXPECTED_FILES)

    def test_quantum_beats_classical_on_default_sweep(self, tmp_path):
        assert main(["complexity", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "both_vs_samples.csv").read_text().splitlines()
        assert lines[0] == "n,classical_cost,quantum_cost"
        for line in lines[1:]:
            _, classical, quantum = line.split(",")
            assert float(quantum) < float(classical)

    def test_single_point_ranges(self, tmp_path):
        code = main([
            "complexity", "--n-range", "50:50:1", "--f-range", "4:4:1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "both_vs_samples.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("50,")

    @pytest.mark.parametrize("flag, text", [
        ("--n-range", "10:100000000000000000000:3"),  # stop beyond 2**53
        ("--f-range", "2:1000000000:100000000000"),  # count beyond 2**20
    ])
    def test_sweep_beyond_its_bounds_is_config_error(self, tmp_path, capsys, flag, text):
        out = tmp_path / "out"
        assert_error_exit(capsys, ["complexity", flag, text, "--out", str(out)], 1)
        assert not out.exists()

    def test_bad_range_is_config_error(self, tmp_path):
        assert main(["complexity", "--n-range", "abc", "--out", str(tmp_path)]) == 1
        assert main(["complexity", "--n-range", "9:3:5", "--out", str(tmp_path)]) == 1
        assert main(["complexity", "--n-range", "1:2", "--out", str(tmp_path)]) == 1


class TestEntryPoint:
    def test_executor_defaults_follow_batch_config(self):
        defaults = BatchConfig()
        parser = build_parser()
        bench = parser.parse_args(["benchmark", "--data", "x.csv"])
        assert bench.max_circuits == defaults.max_circuits_per_job
        assert bench.shots == defaults.shots_per_circuit
        assert parser.parse_args(["complexity"]).c == defaults.max_circuits_per_job
        assert ComplexityParams(N=1, K=1, F=1, I=1).C == defaults.max_circuits_per_job

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "qkmeans" in capsys.readouterr().out

    def test_unknown_command_exits_one(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["synth", "--bogus"]) == 1


# Runs in a fresh interpreter: argv is the output directory, then "observe"
# to record the scipy modules loaded after each step, or "refuse" to run the
# commands that sample no distance behind a finder that refuses any scipy
# import.
COLD_START = """\
import json, sys
from pathlib import Path

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, mode = Path(sys.argv[1]), sys.argv[2]
loaded = {}
if mode == "refuse":
    sys.meta_path.insert(0, RefuseScipy())
    try:
        import scipy
        loaded["refused"] = False
    except ImportError:
        loaded["refused"] = True
import qkmeans
loaded["import qkmeans"] = scipy_modules()
from qkmeans import cli
loaded["import qkmeans.cli"] = scipy_modules()
shots = str(out / "synth" / "iq_shots.csv")
bench = ["benchmark", "--data", shots, "--splits", "2"]
steps = [
    ("synth", ["synth", "--shots", "8", "--seed", "1", "--out", str(out / "synth")]),
    ("complexity", ["complexity", "--out", str(out / "complexity")]),
    ("crosstalk", ["crosstalk", "--data", shots, "--out", str(out / "crosstalk")]),
    ("kmeans", bench + ["--algo", "kmeans", "--out", str(out / "kmeans")]),
    ("exact", bench + ["--mode", "exact", "--out", str(out / "exact")]),
    ("exact fm", bench + ["--mode", "exact", "--metric", "fm", "--out", str(out / "fm")]),
    ("crosstalk --scores", ["crosstalk", "--data", shots, "--scores",
                            str(out / "exact" / "scores.csv"), "--out", str(out / "gap")]),
]
if mode == "observe":
    steps.append(("sampled", bench + ["--mode", "sampled", "--shots", "16",
                                      "--out", str(out / "sampled")]))
for name, argv in steps:
    loaded[name] = [cli.main(argv), scipy_modules()]
(out / "loaded.json").write_text(json.dumps(loaded))
"""

UNSAMPLED_STEPS = ("synth", "complexity", "crosstalk", "kmeans", "exact", "exact fm",
                   "crosstalk --scores")


def run_cold_start(tmp_path: Path, mode: str) -> dict:
    env = dict(os.environ)
    src = str(Path(qkmeans.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path), mode],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads((tmp_path / "loaded.json").read_text())
    assert loaded["import qkmeans"] == []
    assert loaded["import qkmeans.cli"] == []
    for step in UNSAMPLED_STEPS:
        assert loaded[step] == [0, []], step
    for out in ("kmeans", "exact"):
        scores = read_score_table(tmp_path / out / "scores.csv")
        assert scores and all(0.0 <= v <= 1.0 for v in scores.values()), out
    assert "FowlkesMallows" in (tmp_path / "fm" / "scores.csv").read_text()
    return loaded


class TestColdStart:
    @pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                        reason="a sampled distance needs SciPy")
    def test_only_a_sampled_distance_loads_scipy(self, tmp_path):
        loaded = run_cold_start(tmp_path, "observe")
        code, modules = loaded["sampled"]
        assert code == 0
        assert "scipy.special" in modules and "scipy.optimize" not in modules

    def test_unsampled_commands_run_with_scipy_refused(self, tmp_path):
        assert run_cold_start(tmp_path, "refuse")["refused"] is True


# values a shot table must survive: zero, subnormal, tiny, huge but inside
# the 2**400 bound, and ordinary ones; 1e121 is above the bound
EDGE_IQ = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160, -1e-160, 2.0**399, -(2.0**399)]
iq_values = st.sampled_from(EDGE_IQ) | st.floats(-10.0, 10.0)


@st.composite
def pair_columns(draw):
    """16 columns of 2 to 8 shots for ``write_pair_table``; each column is
    fresh, constant, or a duplicate or multiple of an earlier column."""
    n = draw(st.integers(2, 8))
    columns: list[list[float]] = []
    for _ in range(16):
        kind = draw(st.sampled_from(("fresh", "constant", "duplicate", "collinear")[:4 if columns else 2]))
        if kind == "fresh":
            column = draw(st.lists(iq_values, min_size=n, max_size=n))
        elif kind == "constant":
            column = [draw(iq_values)] * n
        else:
            factor = 1.0 if kind == "duplicate" else draw(st.sampled_from([-1.0, 0.5, 2.0]))
            column = [factor * v for v in draw(st.sampled_from(columns))]
        columns.append(column)
    if draw(st.integers(0, 9)) == 0:  # one value above the bound, in one table of ten
        columns[draw(st.integers(0, 15))][draw(st.integers(0, n - 1))] = 1e121
    return columns


def signal_columns(columns, own_state: int, pos: int, feature: str):
    """The (neighbor-ground, neighbor-excited) columns of one crosstalk signal."""
    offset = 8 * pos + (feature == "q")
    return tuple(columns[offset + 2 * SCHEDULES.index(schedule_name(pos, own_state, neighbor))]
                 for neighbor in (0, 1))


def constant(values) -> bool:
    return min(values) == max(values)


class TestFiniteTables:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(pair_columns())
    def test_every_command_exits_cleanly_and_nan_means_zero_spread(self, capsys, columns):
        with tempfile.TemporaryDirectory() as work:
            data = write_pair_table(Path(work) / "x.csv", columns)
            for name, argv in (
                ("kmeans", ["benchmark", "--algo", "kmeans", "--splits", "2"]),
                ("exact", ["benchmark", "--algo", "qkmeans", "--mode", "exact", "--splits", "2"]),
                ("crosstalk", ["crosstalk"]),
            ):
                out = Path(work) / name
                code = main([*argv, "--data", str(data), "--out", str(out)])
                err = capsys.readouterr().err
                event(f"{name} exit {code}")
                assert code in (0, 2), (name, err)
                assert "Traceback" not in err
                assert sum(line.startswith("error:") for line in err.splitlines()) <= code // 2
                if code:
                    assert not out.exists()
                    continue
                heatmap = out / "heatmap_0-1.csv"
                for path in out.iterdir():
                    if path not in (heatmap, out / "named_coefficients.csv"):
                        assert "nan" not in path.read_text(), path.name
            if code:  # crosstalk failed
                return
            # a cell is nan exactly when one of its signals has zero spread
            labels, matrix = read_grid(heatmap)
            keys = [(int(s), pos, f) for s in "01" for pos in (0, 1) for f in "iq"]
            assert labels == [f"{s}_{pos}_{'real' if f == 'i' else 'imag'}" for s, pos, f in keys]
            flat = [constant([*ground, *excited])
                    for ground, excited in (signal_columns(columns, *key) for key in keys)]
            for r in range(8):
                for c in range(8):
                    assert np.isnan(matrix[r, c]) == (r != c and (flat[r] or flat[c])), (r, c)
            named = read_named(out / "named_coefficients.csv")
            assert list(named) == list(named_form_labels())
            for label, value in named.items():
                state, slot = int(label[1]), label[6]
                pos, es_feat, gs_feat = "ab".index(slot), label[8].lower(), label[-2].lower()
                es = signal_columns(columns, state, pos, es_feat)[1]
                gs = signal_columns(columns, state, pos, gs_feat)[0]
                assert np.isnan(value) == (constant(es) or constant(gs)), label
