"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop with one caller: a pass runs its
operations one after another, each starting when the previous one has
returned.  An operation is one CLI command (``qkmeans.cli.main`` in
process) or one library ``fit``/``predict`` call.  All inputs come from
the workload seed.

A workload provides:

* ``reference``: the key in ``child.REFERENCE_LOOPS`` of the reference
  loop that ``wall_ref`` divides its passes by,
* ``operations()``: the pass, as ``(label, callable)`` pairs run with the
  pass directory as working directory; a callable returns 0 on success
  (the CLI exit code),
* ``digest(out_dir)``: what must repeat byte for byte on a seeded rerun,
* ``fidelities(out_dir)``: every assignment fidelity the pass produced,
* ``verify(out_dir)``: failed output checks, as messages.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from qkmeans import clustering, iqdata, metrics
from qkmeans.cli import main as qkmeans_cli
from qkmeans.dataset import DataSet

# The crosstalk preset couples 1-2 and 2-3 only.
EXPECTED_FLAGS = ((1, 2), (2, 3))
SINGLE_GAP_CAP = 0.02
BLOB_FIDELITY_FLOOR = 0.99


def _file_digest(path: Path) -> str:
    if path.name.endswith("_manifest.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("timestamp")
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact, manifests without their timestamp."""
    return {
        str(p.relative_to(out_dir)): _file_digest(p)
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def _score_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _flagged_pairs(path: Path) -> tuple[tuple[int, int], ...]:
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("pair "):
            a, _, b = line[len("pair "):].split(":")[0].partition("-")
            pairs.append((int(a), int(b)))
    return tuple(pairs)


class JobAudit:
    """Wraps ``clustering.fit`` for the check pass, like tests/conftest.py:
    every quantum Lloyd iteration must report ceil(N*K/C) jobs and N*K
    circuits in its BatchStats."""

    def __init__(self) -> None:
        self.fits_checked = 0
        self.bad_fits: list[str] = []
        self._real = None

    @property
    def failures(self) -> list[str]:
        if not self.bad_fits:
            return []
        return [f"{len(self.bad_fits)} of {self.fits_checked} quantum fits broke the "
                f"job-count contract, first: {self.bad_fits[0]}"]

    def check_model(self, X: DataSet, config: clustering.FitConfig, model) -> None:
        if config.distance_mode == "classical_euclidean":
            return
        self.fits_checked += 1
        n_k = X.n_points * config.n_clusters
        expected = math.ceil(n_k / config.batch.max_circuits_per_job)
        history = [(s.jobs_submitted, s.circuits_executed) for s in model.batch_history]
        if history != [(expected, n_k)] * model.n_iter:
            self.bad_fits.append(
                f"N={X.n_points} K={config.n_clusters}: (jobs, circuits) per iteration "
                f"{history}, expected {model.n_iter} x {(expected, n_k)}")

    def __enter__(self):
        self._real = real = clustering.fit

        def audited_fit(X, config):
            model = real(X, config)
            self.check_model(X, config, model)
            return model

        clustering.fit = audited_fit
        return self

    def __exit__(self, *exc):
        clustering.fit = self._real
        return False


class CliWorkload:
    """A pass of in-process CLI commands.  They run with the pass directory
    as working directory and name only relative paths, because manifests
    record the paths they were given."""

    # True when the pass runs quantum fits, which the check pass's JobAudit
    # must then see.
    audited_fits = True
    reference = "python"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def operations(self):
        return [(argv[0], lambda argv=argv: qkmeans_cli(argv)) for argv in self.commands()]

    def digest(self, out: Path):
        return _tree_digest(out)

    def fidelities(self, out: Path) -> list[float]:
        return [
            float(row["mean"])
            for path in sorted(out.rglob("scores.csv"))
            for row in _score_rows(path)
            if row["metric"] == "AssignmentFidelity"
        ]

    def verify(self, out: Path) -> list[str]:
        flagged = _flagged_pairs(out / "crosstalk" / "flags.txt")
        if flagged != EXPECTED_FLAGS:
            return [f"crosstalk flagged {flagged}, expected {EXPECTED_FLAGS}"]
        return []


class ReadoutExact(CliWorkload):
    name = "readout_exact"
    SHOTS = 256
    SPLITS = 5

    def commands(self):
        data = "data/iq_shots.csv"
        seed, splits = str(self.seed), str(self.SPLITS)
        return [
            ["synth", "--preset", "crosstalk", "--shots", str(self.SHOTS),
             "--seed", seed, "--out", "data"],
            ["benchmark", "--data", data, "--algo", "kmeans", "--splits", splits,
             "--seed", seed, "--out", "kmeans"],
            ["benchmark", "--data", data, "--algo", "qkmeans", "--mode", "exact",
             "--splits", splits, "--seed", seed, "--out", "qkmeans"],
            ["crosstalk", "--data", data, "--scores", "qkmeans/scores.csv",
             "--out", "crosstalk"],
            ["complexity", "--out", "complexity"],
        ]

    def verify(self, out):
        failures = super().verify(out)
        classical = {(r["pair"], r["qubit"]): float(r["mean"])
                     for r in _score_rows(out / "kmeans" / "scores.csv") if r["kind"] == "single"}
        quantum = {(r["pair"], r["qubit"]): float(r["mean"])
                   for r in _score_rows(out / "qkmeans" / "scores.csv") if r["kind"] == "single"}
        if set(classical) != set(quantum) or not classical:
            failures.append("kmeans and qkmeans score tables cover different datasets")
        gaps = {key: abs(classical[key] - quantum[key]) for key in set(classical) & set(quantum)}
        wide = {key: round(gap, 4) for key, gap in sorted(gaps.items()) if gap > SINGLE_GAP_CAP}
        if wide:
            failures.append(f"quantum-exact vs classical fidelity gap > {SINGLE_GAP_CAP} "
                            f"on single datasets (pair, qubit): {wide}")
        return failures


class ReadoutSampled(CliWorkload):
    name = "readout_sampled"
    # Sampled distances make a fit's Lloyd iteration count, and with it a
    # pass's circuit count, vary by seed.  Over seeds 1-10 the quartile
    # spread of a pass's circuits was 7.5% with 32 synth shots and 1024
    # sampler shots, 3.5% with 8192 sampler shots (less sampling noise,
    # the same cost per circuit).  Fewer than 32 synth shots make the
    # crosstalk check flag pairs that the preset does not couple.
    SHOTS = 32
    SPLITS = 4
    SAMPLER_SHOTS = 8192

    def commands(self):
        data = "data/iq_shots.csv"
        return [
            ["synth", "--preset", "crosstalk", "--shots", str(self.SHOTS),
             "--seed", str(self.seed), "--out", "data"],
            ["benchmark", "--data", data, "--algo", "qkmeans", "--mode", "sampled",
             "--shots", str(self.SAMPLER_SHOTS), "--splits", str(self.SPLITS),
             "--seed", str(self.seed), "--out", "qkmeans"],
            ["crosstalk", "--data", data, "--out", "crosstalk"],
        ]


class TableIO(CliWorkload):
    name = "table_io"
    SHOTS = 2048
    audited_fits = False

    def commands(self):
        data = "data/iq_shots.csv"
        return [
            ["synth", "--preset", "crosstalk", "--shots", str(self.SHOTS),
             "--seed", str(self.seed), "--out", "data"],
            ["crosstalk", "--data", data, "--out", "crosstalk"],
            ["benchmark", "--data", data, "--algo", "kmeans", "--splits", "2",
             "--seed", str(self.seed), "--out", "kmeans"],
        ]

    def verify(self, out):
        failures = super().verify(out)
        configs = resources.files("qkmeans").joinpath("configs")
        model = iqdata.model_from_dict(
            json.loads(configs.joinpath("crosstalk_model.json").read_text(encoding="utf-8")))
        coupling = iqdata.coupling_from_dict(
            json.loads(configs.joinpath("coupling_map.json").read_text(encoding="utf-8")))
        table = iqdata.synthesize(model, coupling, self.SHOTS, self.seed)
        loaded = iqdata.load_table(out / "data" / "iq_shots.csv")
        if loaded.device != table.device:
            failures.append("round trip changed the device name")
        changed = [column for column in ("pair_first", "pair_second", "qubit", "schedule",
                                         "shot", "i_value", "q_value")
                   if not np.array_equal(getattr(loaded, column), getattr(table, column))]
        if changed:
            failures.append(f"load_table(save_table(t)) changed columns {changed}")
        return failures


def _blobs(rng: np.random.Generator, n: int, features: int, k: int = 4) -> DataSet:
    """k blobs (noise sd 0.3) whose centres point along disjoint feature
    blocks, so both Euclidean and normalized (SwapTest) distances separate them."""
    labels = np.arange(n) % k
    centers = np.ones((k, features))
    block = features // k
    for c in range(k):
        centers[c, c * block:(c + 1) * block] += 4.0
    return DataSet(centers[labels] + 0.3 * rng.standard_normal((n, features)), labels)


class WideFeatures:
    """Library fit at F=16 and predict at F=64 on seeded blobs, exact mode."""

    name = "wide_features"
    audited_fits = True
    reference = "array"
    FIT_N, PREDICT_N, K = 600, 230, 4

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.fit_data = _blobs(rng, self.FIT_N, 16, self.K)
        self.predict_data = _blobs(rng, self.PREDICT_N, 64, self.K)
        self.config = clustering.FitConfig(n_clusters=self.K, distance_mode="quantum_exact", seed=seed)
        # The F=64 model comes from the classical oracle on its own training
        # blobs; its classical labels are the reference for the quantum predict.
        self.oracle16 = clustering.classical_kmeans_oracle(self.fit_data, self.K, seed=seed)
        self.model64 = clustering.classical_kmeans_oracle(
            _blobs(rng, 400, 64, self.K), self.K, seed=seed)
        self.expected64 = clustering.predict(
            self.model64, self.predict_data, distance_mode="classical_euclidean")
        self.last = None

    def operations(self):
        result = {}
        self.last = result

        def fit():
            result["model"] = clustering.fit(self.fit_data, self.config)
            return 0

        def predict():
            result["labels"] = clustering.predict(
                self.model64, self.predict_data, distance_mode="quantum_exact",
                batch=self.config.batch, seed=self.seed)
            return 0

        return [("fit", fit), ("predict", predict)]

    def digest(self, out):
        model = self.last["model"]
        return {
            name: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
            for name, arr in (("fit_labels", model.labels),
                              ("fit_centers", model.cluster_centers),
                              ("predict_labels", self.last["labels"]))
        }

    def fidelities(self, out):
        return [
            metrics.score_labels("fidelity", self.last["model"].labels, self.fit_data.labels),
            metrics.score_labels("fidelity", self.last["labels"], self.predict_data.labels),
        ]

    def verify(self, out):
        failures = []
        model, labels = self.last["model"], self.last["labels"]
        for what, fid in zip(("fit", "predict"), self.fidelities(out)):
            if fid < BLOB_FIDELITY_FLOOR:
                failures.append(f"{what} blob fidelity {fid:.4f} < {BLOB_FIDELITY_FLOOR}")
        agreement = metrics.assignment_fidelity(model.labels, self.oracle16.labels)
        if agreement != 1.0:
            failures.append(f"fit labels agree with the classical oracle on {agreement:.4f}")
        if not np.array_equal(labels, self.expected64):
            failures.append("quantum predict labels differ from the classical oracle's")
        return failures


WORKLOADS = {w.name: w for w in (ReadoutExact, ReadoutSampled, WideFeatures, TableIO)}
