"""Multi-qubit register plumbing: tensor products and partial traces.

Index convention used throughout the package: qubit k is bit k of the
basis index, so qubit 0 is the least significant bit.  `tensor(a, b)`
places `a` on the more significant qubits, i.e. tensor(a, b)[i, j]
follows the usual Kronecker layout np.kron(a, b).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .core import DensityMatrix, FormatError, as_complex_matrix


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the more significant qubits."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def check_traced_qubits(n_qubits: int, traced: Sequence[int]):
    """Validate the qubits `partial_trace` removes: a non-empty, strictly
    increasing tuple of positions below n_qubits that keeps one qubit.

    Anything else raises FormatError.
    """
    traced_t = tuple(int(i) for i in traced)
    if any(i < 0 or i >= n_qubits for i in traced_t):
        raise FormatError(f"traced qubits {traced_t} out of range for {n_qubits} qubit(s)")
    if any(b <= a for a, b in zip(traced_t, traced_t[1:])):
        raise FormatError(f"traced qubits {traced_t} must be strictly increasing")
    if not traced_t:
        raise FormatError("traced qubit set must be non-empty")
    if len(traced_t) == n_qubits:
        raise FormatError("cannot trace out every qubit of the register")
    return traced_t


@lru_cache(maxsize=256)
def _scatter_table(positions: tuple[int, ...]) -> np.ndarray:
    """Table T with T[v] = v's bits spread onto the given bit positions.

    Bit j of v lands at bit positions[j] of the output, so iterating v over
    range(2^k) enumerates all assignments of the selected qubits.  Tables
    are cached per positions tuple and returned read-only.
    """
    k = len(positions)
    vals = np.arange(1 << k, dtype=np.int64)
    out = np.zeros(1 << k, dtype=np.int64)
    for j, p in enumerate(positions):
        out |= ((vals >> j) & 1) << p
    out.flags.writeable = False
    return out


def partial_trace(rho: DensityMatrix, traced: Sequence[int]) -> DensityMatrix:
    """Trace out the qubits listed in `traced`, keeping the rest.

    The reduced matrix is accumulated by direct index arithmetic: for each
    assignment of the traced bits, the corresponding rows/columns of the
    input are gathered and summed.  Tracing the whole register is rejected
    (the result would be the scalar 1, not a density matrix).
    """
    n = rho.n_qubits
    traced_t = check_traced_qubits(n, traced)
    kept = tuple(q for q in range(n) if q not in traced_t)
    kept_table = _scatter_table(kept)
    traced_table = _scatter_table(traced_t)
    dim_kept = 1 << len(kept)
    out = np.zeros((dim_kept, dim_kept), dtype=complex)
    m = rho.matrix
    for offset in traced_table:
        idx = kept_table + offset
        out += m[np.ix_(idx, idx)]
    return DensityMatrix(out)
