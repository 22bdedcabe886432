"""Span tracing of qkmeans from the outside, for one traced pass.

``Tracer.install`` rebinds each traced public function at the module
attribute its callers look it up through (``qkmeans.clustering.fit`` for
``metrics.cross_validate``, ``qkmeans.clustering.distance_matrix`` for the
Lloyd loop, ``qkmeans.distance.batch_h`` for the SwapTest executor, ...),
the way ``tests/conftest.py`` wraps ``clustering.fit``.  ``uninstall``
puts the originals back, so untraced passes run the program unchanged.

Every call through a wrapper records one span: name, start, end, parent
span, the time covered by its child spans, and a few counters read from
its arguments and result.  Spans stay in memory until the pass ends.
A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fit_counters(args, kwargs, model):
    X, config = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "config")
    return {
        "N": X.n_points,
        "K": config.n_clusters,
        "C": config.batch.max_circuits_per_job,
        "quantum": config.distance_mode != "classical_euclidean",
        "iterations": model.n_iter,
        "converged": model.converged,
    }


def _distance_counters(args, kwargs, result):
    points = np.asarray(_arg(args, kwargs, 0, "points"))
    config = _arg(args, kwargs, 3, "config")
    stats = result[1]
    return {
        "F": int(points.shape[1]),
        "sampled": bool(_arg(args, kwargs, 4, "sampled", False)),
        "circuits": stats.circuits_executed,
        "jobs": stats.jobs_submitted,
        "C": config.max_circuits_per_job,
    }


def _ground_counters(args, kwargs, _result):
    count, num_qubits = _arg(args, kwargs, 0, "count"), _arg(args, kwargs, 1, "num_qubits")
    return {"state_bytes": int(count) * (2 ** int(num_qubits)) * 16}


# (span name, module, attribute, counters): one row per lookup site.
# A function looked up from several modules gets one wrapper, bound at each.
_SITES = (
    ("cli.synth", "qkmeans.cli", "cmd_synth", None),
    ("cli.benchmark", "qkmeans.cli", "cmd_benchmark", None),
    ("cli.crosstalk", "qkmeans.cli", "cmd_crosstalk", None),
    ("cli.complexity", "qkmeans.cli", "cmd_complexity", None),
    ("iqdata.synthesize", "qkmeans.iqdata", "synthesize", None),
    ("iqdata.save_table", "qkmeans.iqdata", "save_table",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "table"))}),
    ("iqdata.load_table", "qkmeans.iqdata", "load_table", lambda a, k, r: {"rows": len(r)}),
    ("iqdata.assemble_datasets", "qkmeans.iqdata", "assemble_datasets", None),
    ("dataset.fit_readout_frame", "qkmeans.iqdata", "fit_readout_frame", None),
    ("crosstalk.analyze_pair", "qkmeans.crosstalk", "analyze_pair", None),
    ("metrics.cross_validate", "qkmeans.metrics", "cross_validate",
     lambda a, k, r: {"folds": len(r.per_fold)}),
    ("metrics.score", "qkmeans.metrics", "score_labels", None),
    ("clustering.fit", "qkmeans.clustering", "fit", _fit_counters),
    ("clustering.init", "qkmeans.clustering", "qkmeans_plusplus_init", None),
    ("clustering.predict", "qkmeans.clustering", "predict", None),
    ("distance.distance_matrix", "qkmeans.clustering", "distance_matrix", _distance_counters),
    ("encoding.encode_matrix", "qkmeans.distance", "encode_matrix",
     lambda a, k, r: {"rows": int(np.shape(_arg(a, k, 0, "matrix"))[0])}),
    ("simulator.ground", "qkmeans.distance", "batch_ground", _ground_counters),
    ("simulator.prepare", "qkmeans.distance", "batch_prepare", None),
    ("simulator.h", "qkmeans.distance", "batch_h", None),
    ("simulator.cswap", "qkmeans.distance", "batch_cswap", None),
    ("simulator.marginal", "qkmeans.distance", "batch_marginal", None),
    ("simulator.derive_seed", "qkmeans.distance", "derive_seed", None),
    ("simulator.derive_seed", "qkmeans.clustering", "derive_seed", None),
    ("simulator.derive_seed", "qkmeans.metrics", "derive_seed", None),
    ("simulator.derive_seed", "qkmeans.iqdata", "derive_seed", None),
    ("simulator.derive_seed", "qkmeans.cli", "derive_seed", None),
)

# Span fields, kept as lists so a hot leaf call allocates little.
NAME, PARENT, START, END, CHILD_S, COUNTERS = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, counters):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, perf_counter(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += end - span[START]
            if counters is not None:
                span[COUNTERS] = counters(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, module_name, attr, counters in _SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original, counters)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START], "end": s[END],
                    "self_s": s[END] - s[START] - s[CHILD_S],
                    "counters": s[COUNTERS],
                }) + "\n")


def wrapper_cost_s(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call without counters: a wrapped
    no-op against the bare no-op, each the fastest of ``repeats`` loops."""

    def noop():
        return None

    def fastest(make):
        times = []
        for _ in range(repeats):
            func = make()
            start = perf_counter()
            for _ in range(calls):
                func()
            times.append(perf_counter() - start)
        return min(times)

    wrapped = fastest(lambda: Tracer()._wrap("noop", noop, None))
    bare = fastest(lambda: noop)
    return max(0.0, wrapped - bare) / calls


def _tail(values_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it, 100 * (1 - 10/n); the median when there are fewer than 20 samples."""
    if not values_ms:
        return 50.0, 0.0
    pct = max(50.0, 100.0 * (1.0 - 10.0 / len(values_ms)))
    return pct, float(np.percentile(values_ms, pct))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s unless named)."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        dur = s[END] - s[START]
        total[s[NAME]] = total.get(s[NAME], 0.0) + dur
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + dur - s[CHILD_S]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    out: dict[str, float] = {
        "cli.synth_s": t("cli.synth"),
        "cli.benchmark_s": t("cli.benchmark"),
        "cli.crosstalk_s": t("cli.crosstalk"),
        "cli.complexity_s": t("cli.complexity"),
        "iqdata.synthesize_s": t("iqdata.synthesize"),
        "iqdata.save_table_s": t("iqdata.save_table"),
        "iqdata.load_table_s": t("iqdata.load_table"),
        "iqdata.assemble_datasets_s": t("iqdata.assemble_datasets"),
        "iqdata.assemble_datasets_calls": n("iqdata.assemble_datasets"),
        "dataset.fit_readout_frame_s": t("dataset.fit_readout_frame"),
        "dataset.fit_readout_frame_calls": n("dataset.fit_readout_frame"),
        "crosstalk.analyze_pair_s": t("crosstalk.analyze_pair"),
        "crosstalk.analyze_pair_calls": n("crosstalk.analyze_pair"),
        "metrics.cross_validate_s": t("metrics.cross_validate"),
        "metrics.score_s": t("metrics.score"),
        "metrics.score_calls": n("metrics.score"),
        "clustering.fit_calls": n("clustering.fit"),
        "clustering.init_s": t("clustering.init"),
        "clustering.predict_s": t("clustering.predict"),
        "distance.calls": n("distance.distance_matrix"),
        "distance.self_s": self_s.get("distance.distance_matrix", 0.0),
        "simulator.prepare_s": t("simulator.prepare"),
        "simulator.h_s": t("simulator.h"),
        "simulator.cswap_s": t("simulator.cswap"),
        "simulator.marginal_s": t("simulator.marginal"),
        "simulator.derive_seed_calls": n("simulator.derive_seed"),
        "simulator.derive_seed_s": t("simulator.derive_seed"),
        "encoding.encode_matrix_s": t("encoding.encode_matrix"),
    }
    rows = folds = encoded = 0
    fit_ms: list[float] = []
    iterations = converged = 0
    model_circuits = model_jobs = 0
    state_bytes = peak_job_bytes = 0
    by_kind = {"init": [0, 0], "lloyd": [0, 0], "predict": [0, 0]}  # circuits, jobs
    filled = capacity = 0
    per_f: dict[tuple[bool, int], list[float]] = {}  # (sampled, F) -> [seconds, circuits]
    parent_kind = {"clustering.init": "init", "clustering.fit": "lloyd",
                   "clustering.predict": "predict"}
    for s in spans:
        name, c = s[NAME], s[COUNTERS]
        if name in ("iqdata.save_table", "iqdata.load_table"):
            rows += c["rows"]
        elif name == "metrics.cross_validate":
            folds += c["folds"]
        elif name == "encoding.encode_matrix":
            encoded += c["rows"]
        elif name == "simulator.ground":
            state_bytes += c["state_bytes"]
            peak_job_bytes = max(peak_job_bytes, c["state_bytes"])
        elif name == "clustering.fit":
            fit_ms.append(1e3 * (s[END] - s[START]))
            iterations += c["iterations"]
            converged += c["converged"]
            if c["quantum"]:
                model_circuits += c["N"] * c["K"] * c["iterations"]
                model_jobs += math.ceil(c["N"] * c["K"] / c["C"]) * c["iterations"]
        elif name == "distance.distance_matrix":
            kind = parent_kind.get(spans[s[PARENT]][NAME]) if s[PARENT] >= 0 else None
            if kind is None:
                raise RuntimeError("distance_matrix called outside init, fit or predict")
            by_kind[kind][0] += c["circuits"]
            by_kind[kind][1] += c["jobs"]
            filled += c["circuits"]
            capacity += c["jobs"] * c["C"]
            acc = per_f.setdefault((c["sampled"], c["F"]), [0.0, 0])
            acc[0] += s[END] - s[START]
            acc[1] += c["circuits"]
    circuits = sum(v[0] for v in by_kind.values())
    jobs = sum(v[1] for v in by_kind.values())
    tail_pct, tail_ms = _tail(fit_ms)

    def us_per_circuit(sampled, f):
        seconds, count = per_f.get((sampled, f), (0.0, 0))
        return 1e6 * seconds / count if count else 0.0

    out.update({
        "iqdata.rows": rows,
        "metrics.folds": folds,
        "encoding.rows": encoded,
        "clustering.fit_p50_ms": float(np.percentile(fit_ms, 50.0)) if fit_ms else 0.0,
        "clustering.fit_tail_ms": tail_ms,
        "clustering.fit_tail_pct": tail_pct,
        "clustering.lloyd_iterations": iterations,
        "clustering.converged_share": converged / len(fit_ms) if fit_ms else 0.0,
        "distance.circuits": circuits,
        "distance.jobs": jobs,
        "distance.init_circuits": by_kind["init"][0],
        "distance.lloyd_circuits": by_kind["lloyd"][0],
        "distance.predict_circuits": by_kind["predict"][0],
        "distance.job_fill": filled / capacity if capacity else 0.0,
        "distance.exact_us_per_circuit.f2": us_per_circuit(False, 2),
        "distance.exact_us_per_circuit.f16": us_per_circuit(False, 16),
        "distance.exact_us_per_circuit.f64": us_per_circuit(False, 64),
        "distance.sampled_us_per_circuit.f2": us_per_circuit(True, 2),
        "simulator.state_bytes": state_bytes,
        "simulator.peak_job_bytes": peak_job_bytes,
        "complexity.circuits_ratio": by_kind["lloyd"][0] / model_circuits if model_circuits else 0.0,
        "complexity.jobs_ratio": by_kind["lloyd"][1] / model_jobs if model_jobs else 0.0,
    })
    return out
