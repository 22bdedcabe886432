"""Gate-level statevector reference for the SwapTest circuit.

``distance`` computes the circuit's closed form and never runs these
kernels; the tests check that form against them.  Both use ``row_sums``,
the one fixed tree that adds every sum over features.

Conventions (fixed, relied on by every consumer):

* Qubit 0 is the least significant bit of the amplitude index, so basis
  state ``|b_{n-1} ... b_1 b_0>`` lives at index ``sum(b_q << q)``.
* ``CSWAP`` takes its first qubit as control and swaps the other two
  (Fredkin gate).
* ``PREPARE`` injects a normalized amplitude vector directly into a
  register whose qubits must all still be in ``|0>``.  It is amplitude
  injection, not a gate decomposition.
* Randomness comes from an explicit seed; nothing reads global RNG
  state.  ``derive_seed`` fans a base seed out into per-task sub-seeds,
  which seed ``numpy.random.default_rng`` (PCG64) generators.  The shot
  sampler in ``distance`` is the one other fan-out: it takes one
  ``derive_seed`` key per batch and gives request i the i-th SplitMix64
  output from it, without a generator per request.

Every kernel runs many independent same-shape circuits as one
``(batch, 2**n)`` array, which the gate kernels update in place; a single
circuit is a batch of one.  Each row's arithmetic is independent of the
other rows, so a circuit's result does not depend on how many circuits
share its array.  Intended scale is a dozen qubits or fewer.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import check_number

NORM_ATOL = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def derive_seed(base: int, *indices: int) -> int:
    """Stable hash of a base seed and index path into a fresh 64-bit seed.

    Derivation goes through ``numpy.random.SeedSequence`` so it is
    deterministic across processes and platforms (unlike builtin hash()).
    Every entry must be an integer >= 0; none is coerced.
    """
    for value in (base, *indices):
        check_number("seed", value, 0)
    return int(np.random.SeedSequence([base, *indices]).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# index caches
# ---------------------------------------------------------------------------


def _check_qubits(num_qubits: int, qubits: tuple[int, ...]) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")


@lru_cache(maxsize=None)
def _axis_indices(num_qubits: int, qubit: int, bit: int) -> np.ndarray:
    idx = np.arange(2**num_qubits)
    out = np.flatnonzero(((idx >> qubit) & 1) == bit)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _cswap_indices(num_qubits: int, control: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(2**num_qubits)
    sel = (((idx >> control) & 1) == 1) & (((idx >> a) & 1) == 1) & (((idx >> b) & 1) == 0)
    ia = np.flatnonzero(sel)
    ib = ia - (1 << a) + (1 << b)
    ia.setflags(write=False)
    ib.setflags(write=False)
    return ia, ib


@lru_cache(maxsize=None)
def _prepare_indices(num_qubits: int, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(base, scatter): indices with target bits clear, and the (2**m, len(base))
    index grid hit by each payload component."""
    idx = np.arange(2**num_qubits)
    mask = np.ones(idx.size, dtype=bool)
    for q in qubits:
        mask &= ((idx >> q) & 1) == 0
    base = np.flatnonzero(mask)
    patterns = np.arange(2 ** len(qubits))
    offsets = np.zeros(patterns.size, dtype=np.int64)
    for j, q in enumerate(qubits):
        offsets += ((patterns >> j) & 1) << q
    scatter = base[None, :] + offsets[:, None]
    base.setflags(write=False)
    scatter.setflags(write=False)
    return base, scatter


# ---------------------------------------------------------------------------
# batch kernels: operate in place on (batch, 2**n) complex arrays
# ---------------------------------------------------------------------------


def batch_ground(count: int, num_qubits: int) -> np.ndarray:
    amps = np.zeros((count, 2**num_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def row_sums(values: np.ndarray) -> np.ndarray:
    """Sum of the rows of an (F, ...) array, over its leading axis, by a
    fixed binary tree: each level adds adjacent rows in pairs, a level of
    odd length padded with a zero row.  ``np.sum`` may pick different
    orders for different shapes, which would make a circuit's result
    depend on its job size; this tree depends only on F.  Rebinding
    ``values`` frees each level, and on CPython 3.11+ a temporary
    argument, once the next level exists.
    """
    while len(values) > 1:
        if len(values) % 2:
            values = np.concatenate([values, np.zeros_like(values[:1])])
        values = values[0::2] + values[1::2]
    return values[0]


def batch_h(amps: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    _check_qubits(num_qubits, (qubit,))
    i0 = _axis_indices(num_qubits, qubit, 0)
    i1 = i0 + (1 << qubit)
    a0 = amps[:, i0]
    a1 = amps[:, i1]
    amps[:, i0] = (a0 + a1) * _INV_SQRT2
    amps[:, i1] = (a0 - a1) * _INV_SQRT2
    return amps


def batch_cswap(amps: np.ndarray, num_qubits: int, control: int, a: int, b: int) -> np.ndarray:
    _check_qubits(num_qubits, (control, a, b))
    ia, ib = _cswap_indices(num_qubits, control, a, b)
    swapped = amps[:, ib]
    amps[:, ib] = amps[:, ia]
    amps[:, ia] = swapped
    return amps


def batch_prepare(amps: np.ndarray, num_qubits: int, qubits: tuple[int, ...], vectors: np.ndarray) -> np.ndarray:
    """Inject one normalized payload per row into ``qubits`` (all must be |0>)."""
    _check_qubits(num_qubits, qubits)
    vec = np.asarray(vectors, dtype=np.complex128)
    if vec.ndim == 1:
        vec = vec[None, :]
    if vec.shape != (amps.shape[0], 2 ** len(qubits)):
        raise ValueError("payload matrix shape must be (batch, 2**len(qubits))")
    norms = np.sum(vec.real**2 + vec.imag**2, axis=1)
    if np.any(np.abs(norms - 1.0) > NORM_ATOL):
        raise ValueError("PREPARE vector must have unit norm within 1e-9")
    base, scatter = _prepare_indices(num_qubits, qubits)
    base_block = amps[:, base]
    total = np.sum(amps.real**2 + amps.imag**2, axis=1)
    kept = np.sum(base_block.real**2 + base_block.imag**2, axis=1)
    if np.any(total - kept > NORM_ATOL):
        raise ValueError("PREPARE target qubits must be in |0> before injection")
    amps[:, :] = 0.0
    amps[:, scatter.ravel()] = (vec[:, :, None] * base_block[:, None, :]).reshape(amps.shape[0], -1)
    return amps


def batch_marginal(amps: np.ndarray, num_qubits: int, qubit: int, outcome: int) -> np.ndarray:
    """Exact marginal probability of ``qubit == outcome`` for every row."""
    _check_qubits(num_qubits, (qubit,))
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    idx = _axis_indices(num_qubits, qubit, outcome)
    block = amps[:, idx]
    return row_sums((block.real**2 + block.imag**2).T)
