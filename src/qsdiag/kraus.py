"""Operator-sum (Kraus) channels and their unitary dilations.

A channel is a list of same-sized operators F_i applied as
rho' = sum_i F_i rho F_i^dagger.  A trace-preserving channel satisfies
sum_i F_i^dagger F_i = 1; `validate_channel` measures the defect of that
identity.  For single-qubit channels with at most two operators the
channel embeds into a two-qubit unitary with one ancilla qubit on the
most significant position, and conversely the operators can be read off
any such unitary by taking blocks against an environment state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .composite import partial_trace, tensor
from .core import (
    DensityMatrix,
    FormatError,
    PureState,
    as_complex_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    n_qubits_for_dim,
    unitarity_defect,
)

COMPLETENESS_TOL = 1e-10
UNITARY_TOL = 1e-10
# Operators whose largest entry falls below this are dropped entirely.
PRUNE_TOL = 1e-14


@dataclass(frozen=True)
class KrausChannel:
    """An ordered list of Kraus operators, optionally tagged with a name."""

    operators: tuple
    name: str | None = field(default=None)

    def __post_init__(self):
        if not self.operators:
            raise ValueError("channel needs at least one operator")
        ops = []
        dim = None
        for op in self.operators:
            m = as_complex_matrix(op)
            rows, cols = m.shape
            if rows != cols:
                raise ValueError(f"Kraus operators must be square, got {rows}x{cols}")
            if dim is None:
                dim = rows
                n_qubits_for_dim(dim)
            elif rows != dim:
                raise ValueError("all Kraus operators must share one dimension")
            ops.append(m)
        object.__setattr__(self, "operators", tuple(ops))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def n_qubits(self) -> int:
        return n_qubits_for_dim(self.dim)


def validate_channel(channel: KrausChannel) -> float:
    """Max-norm defect of the completeness identity sum F_i^dagger F_i = 1."""
    acc = np.zeros((channel.dim, channel.dim), dtype=complex)
    for op in channel.operators:
        acc += op.conj().T @ op
    return float(np.max(np.abs(acc - np.eye(channel.dim))))


def _check_trace_preserving(channel: KrausChannel, tol: float) -> float:
    """The completeness defect of `channel`; raises ValueError if it exceeds `tol`."""
    defect = validate_channel(channel)
    if defect > tol:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e} > {tol:.1e})")
    return defect


def apply_channel(channel: KrausChannel, rho: DensityMatrix,
                  tol: float = COMPLETENESS_TOL) -> DensityMatrix:
    """Evolve `rho` through the channel: rho' = sum_i F_i rho F_i^dagger."""
    if channel.dim != rho.dim:
        raise ValueError(
            f"channel dimension {channel.dim} does not match state dimension {rho.dim}"
        )
    defect = _check_trace_preserving(channel, tol)
    out = np.zeros_like(rho.matrix)
    for op in channel.operators:
        out += op @ rho.matrix @ op.conj().T
    return DensityMatrix(out, atol=max(1e-10, 10 * defect))


def prune_operators(operators, tol: float = PRUNE_TOL):
    """Drop operators that vanish entirely (max |entry| < tol)."""
    kept = [op for op in operators if np.max(np.abs(op)) >= tol]
    return kept if kept else list(operators[:1])


def kraus_from_unitary(unitary, env_state: PureState) -> KrausChannel:
    """Extract the single-qubit channel realized by a two-qubit unitary.

    The environment (ancilla) qubit sits on the most significant position
    and starts in `env_state`; the system qubit is the least significant.
    Writing U in 2x2 blocks [[A, B], [C, D]], an environment state
    a|0> + b|1> yields operators F_0 = aA + bB and F_1 = aC + bD, i.e.
    F_i = (<i| (x) 1) U (|env> (x) 1).  Vanishing operators are pruned.
    """
    u = as_complex_matrix(unitary)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got {u.shape[0]}x{u.shape[1]}")
    defect = unitarity_defect(u)
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    if env_state.n_qubits != 1:
        raise ValueError("environment state must be a single qubit")
    a, b = env_state.amplitudes
    f0 = a * u[0:2, 0:2] + b * u[0:2, 2:4]
    f1 = a * u[2:4, 0:2] + b * u[2:4, 2:4]
    return KrausChannel(tuple(prune_operators([f0, f1])))


def dilate_single_ancilla(channel: KrausChannel) -> np.ndarray:
    """Embed a 1-qubit channel with <= 2 operators into a 4x4 unitary.

    The operators become the left block column, U = [[F0, .], [F1, .]],
    so that tracing the most significant (ancilla) qubit out of
    U (|0><0| (x) rho) U^dagger reproduces the channel action.  The free
    block column is completed by Gram-Schmidt over the canonical basis
    vectors taken in index order, which makes the result deterministic.
    """
    if channel.dim != 2:
        raise ValueError("dilation is defined for single-qubit channels")
    if len(channel.operators) > 2:
        raise ValueError(
            f"dilation needs at most two operators, channel has {len(channel.operators)}"
        )
    _check_trace_preserving(channel, COMPLETENESS_TOL)
    f0 = channel.operators[0]
    f1 = channel.operators[1] if len(channel.operators) == 2 else np.zeros((2, 2), dtype=complex)
    cols = [np.concatenate([f0[:, j], f1[:, j]]) for j in range(2)]
    for seed in range(4):
        if len(cols) == 4:
            break
        v = np.zeros(4, dtype=complex)
        v[seed] = 1.0
        for c in cols:
            v = v - c * np.vdot(c, v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            cols.append(v / norm)
    u = np.column_stack(cols)
    closure = unitarity_defect(u)
    if closure > 1e-9:
        raise ValueError(f"dilation failed to close to a unitary (defect {closure:.3e})")
    return u


def channel_with_ancilla(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a <=2-operator channel the long way round, via its dilation.

    Tensors an ancilla in |0> onto the most significant position, applies
    the dilation unitary, and traces the ancilla back out.  Useful as an
    independent cross-check of `apply_channel`.
    """
    u = dilate_single_ancilla(channel)
    anc = np.zeros((2, 2), dtype=complex)
    anc[0, 0] = 1.0
    joint = tensor(anc, rho.matrix)
    evolved = DensityMatrix(u @ joint @ u.conj().T)
    return partial_trace(evolved, [evolved.n_qubits - 1])


def channel_to_json_dict(channel: KrausChannel) -> dict:
    return {
        "name": channel.name,
        "operators": [matrix_to_json_dict(op) for op in channel.operators],
    }


def channel_from_json_dict(doc) -> KrausChannel:
    if not isinstance(doc, dict) or "operators" not in doc:
        raise FormatError("channel document must be an object with an 'operators' array")
    ops = doc["operators"]
    if not isinstance(ops, list) or not ops:
        raise FormatError("'operators' must be a non-empty array")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError("'name' must be a string or null")
    return KrausChannel(tuple(matrix_from_json_dict(op) for op in ops), name=name)
