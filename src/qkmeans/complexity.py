"""Cost model for classical vs batched-quantum k-means.

Per Lloyd iteration a classical pass touches every feature of every
point/center pair: N*K*F work.  The quantum pass encodes each pair into
log2-many qubits and ships circuits in batches of C, so the unit is jobs:
N*K*log2(max(F, 2))/C.  Totals multiply by the iteration count I.

``verify_job_counts`` checks the batching claim empirically: every
iteration of a quantum-mode fit must have submitted exactly
ceil(N*K / C) jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .distance import BatchConfig, BatchStats
from .errors import ConfigError, check_number


@dataclass(frozen=True)
class ComplexityParams:
    """N samples, K clusters, F features, I iterations, C circuits/job.

    ``C`` defaults to the executor's default job size so cost formulas can
    be quoted without mentioning batching.
    """

    N: int
    K: int
    F: int
    I: int
    C: int = BatchConfig.max_circuits_per_job

    def __post_init__(self) -> None:
        for name in ("N", "K", "F", "I", "C"):
            check_number(name, getattr(self, name), 1)


def classical_cost(p: ComplexityParams) -> float:
    return float(p.N * p.K * p.F * p.I)


def quantum_cost(p: ComplexityParams) -> float:
    return float(p.N * p.K * math.log2(max(p.F, 2)) * p.I / p.C)


def cost_ratio(p: ComplexityParams) -> float:
    """quantum/classical = log2(max(F,2)) / (F*C), independent of N, K, I."""
    return quantum_cost(p) / classical_cost(p)


def expected_jobs_per_iteration(p: ComplexityParams) -> int:
    return -(-p.N * p.K // p.C)


def verify_job_counts(history: Iterable[BatchStats], p: ComplexityParams) -> bool:
    """True iff every iteration submitted exactly ceil(N*K/C) jobs."""
    expected = expected_jobs_per_iteration(p)
    return all(stats.jobs_submitted == expected for stats in history)


def sweep_values(start: int, stop: int, count: int) -> tuple[int, ...]:
    """Geometrically spaced integer sweep, deduplicated, ends included;
    ``stop`` is at most 2**53 and ``count`` at most 2**20."""
    check_number("start", start, 1)
    check_number("stop", stop, start)
    check_number("count", count, 1 if start == stop else 2)
    if stop > 2**53:
        # geomspace works in float64, which holds every integer up to 2**53
        raise ConfigError(f"stop must be <= 2**53, got {stop!r}")
    if count > 2**20:
        raise ConfigError(f"count must be <= 2**20, got {count!r}")
    if start == stop:
        return (start,)
    points = np.rint(np.geomspace(start, stop, count)).astype(np.int64)
    return tuple(sorted({*points.tolist(), start, stop}))


def cost_curve(
    base: ComplexityParams, sweep: str, values: Sequence[int]
) -> list[tuple[int, float, float]]:
    """(x, classical, quantum) rows sweeping samples or features."""
    if sweep not in ("samples", "features"):
        raise ConfigError("sweep must be 'samples' or 'features'")
    if not values:
        raise ConfigError("sweep values must not be empty")
    rows = []
    for v in values:  # ComplexityParams checks each value
        p = replace(base, N=v) if sweep == "samples" else replace(base, F=v)
        rows.append((v, classical_cost(p), quantum_cost(p)))
    return rows
