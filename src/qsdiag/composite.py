"""Multi-qubit register plumbing: tensor products, partial traces,
qubit permutations and immersion of small gates into larger registers.

Index convention used throughout the package: qubit k is bit k of the
basis index, so qubit 0 is the least significant bit.  `tensor(a, b)`
places `a` on the more significant qubits, i.e. tensor(a, b)[i, j]
follows the usual Kronecker layout np.kron(a, b).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .core import MAX_QUBITS, DensityMatrix, as_complex_matrix, n_qubits_for_dim


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the more significant qubits."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def check_qubit_subset(n_qubits: int, indices: Sequence[int], *, name: str = "qubit set"):
    """Validate a strictly increasing tuple of qubit positions below n_qubits."""
    idx = tuple(int(i) for i in indices)
    if any(i < 0 or i >= n_qubits for i in idx):
        raise ValueError(f"{name} {idx} out of range for {n_qubits} qubit(s)")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{name} {idx} must be strictly increasing")
    return idx


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
    traced_t = check_qubit_subset(n, traced, name="traced qubits")
    if not traced_t:
        raise ValueError("traced qubit set must be non-empty")
    if len(traced_t) == n:
        raise ValueError("cannot trace out every qubit of the register")
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


def permute_qubits(rho: DensityMatrix, permutation: Sequence[int]) -> DensityMatrix:
    """Relabel qubits: the qubit at position k moves to position permutation[k]."""
    n = rho.n_qubits
    perm = tuple(int(p) for p in permutation)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"permutation {perm} is not a bijection on 0..{n - 1}")
    index_map = _scatter_table(perm)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    out[np.ix_(index_map, index_map)] = rho.matrix
    return DensityMatrix(out)


def immerse_gate(gate, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Expand a 2^k x 2^k gate acting on `targets` to the full 2^n register.

    `targets` must be strictly increasing and bit j of the gate's own index
    space addresses targets[j].  The returned matrix acts as the gate on the
    selected qubits and as the identity elsewhere.
    """
    g = as_complex_matrix(gate)
    rows, cols = g.shape
    if rows != cols:
        raise ValueError(f"gate matrix must be square, got {rows}x{cols}")
    k = n_qubits_for_dim(rows)
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    targets_t = check_qubit_subset(n_qubits, targets, name="target qubits")
    if len(targets_t) != k:
        raise ValueError(f"gate acts on {k} qubit(s) but {len(targets_t)} target(s) given")
    rest = tuple(q for q in range(n_qubits) if q not in targets_t)
    target_table = _scatter_table(targets_t)
    rest_table = _scatter_table(rest)
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for offset in rest_table:
        idx = target_table + offset
        out[np.ix_(idx, idx)] = g
    return out
