"""Operator-sum (Kraus) channels and their unitary dilations.

A channel is a list of same-sized operators F_i applied as
rho' = sum_i F_i rho F_i^dagger.  A trace-preserving channel satisfies
sum_i F_i^dagger F_i = 1; `validate_channel` measures the defect of that
identity.  For single-qubit channels with at most two operators the
channel embeds into a two-qubit unitary with one ancilla qubit on the
most significant position, and conversely the operators can be read off
any such unitary by taking blocks against an environment state.

Validation happens at the boundaries: `apply_channel` checks the channel's
completeness once per call, iterates the channel on plain arrays and
validates only the final state as a `DensityMatrix`.

A channel is linear on the row-major vectorization vec(rho): its transfer
matrix T = sum_i F_i (x) conj(F_i) gives vec(Phi(rho)) = T vec(rho).  Up
to TRANSFER_MAX_QUBITS = 3 qubits (T at most 64x64, 64 KiB) each step is
that one matrix-vector product, about 0.5-0.9 us at one qubit where the
operator sum's 1 + 3K small numpy calls take 7-19 us.  T takes 16 * 16^n
bytes, so larger channels keep the operator sum: at four qubits one
product with the 1 MiB T takes about 15 us against 9 us for a
one-operator sum, and at five about 400 us.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .composite import partial_trace, tensor
from .core import (
    DensityMatrix,
    FormatError,
    PureState,
    _register_matrix,
    as_complex_matrix,
    matrix_from_json_dict,
    n_qubits_for_dim,
    unitarity_defect,
)

COMPLETENESS_TOL = 1e-10
UNITARY_TOL = 1e-10
# Operators whose largest entry falls below this are dropped entirely.
PRUNE_TOL = 1e-14
# Channels on at most this many qubits step through their transfer matrix.
TRANSFER_MAX_QUBITS = 3


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """An ordered list of Kraus operators, optionally tagged with a name."""

    operators: tuple
    name: str | None = field(default=None)

    def __post_init__(self):
        if not self.operators:
            raise FormatError("channel needs at least one operator")
        ops = tuple(_register_matrix(op)[0] for op in self.operators)
        if any(op.shape != ops[0].shape for op in ops):
            raise FormatError("all Kraus operators must share one dimension")
        object.__setattr__(self, "operators", ops)

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


def _transfer_matrix(channel: KrausChannel) -> np.ndarray:
    """T = sum_i F_i (x) conj(F_i), so that vec(Phi(m)) = T @ vec(m) in row-major order."""
    ops = np.array(channel.operators)
    d2 = channel.dim * channel.dim
    return np.einsum("kia,kjb->ijab", ops, ops.conj()).reshape(d2, d2)


def _evolve(channel: KrausChannel, m: np.ndarray, steps: int) -> np.ndarray:
    """Iterate m -> sum_i F_i m F_i^dagger `steps` times on raw arrays (no checks).

    Each step is one product with the transfer matrix on at most
    TRANSFER_MAX_QUBITS qubits, and one operator sum above that.
    """
    if channel.n_qubits > TRANSFER_MAX_QUBITS:
        pairs = [(op, op.conj().T) for op in channel.operators]
        for _ in range(steps):
            out = np.zeros_like(m)
            for op, adj in pairs:
                out += op @ m @ adj
            m = out
        return m
    # The bound method skips the `@` operator's dispatch, about half a step's cost.
    step = _transfer_matrix(channel).dot
    v = m.reshape(-1)
    for _ in range(steps):
        v = step(v)
    return v.reshape(m.shape)


def apply_channel(channel: KrausChannel, rho: DensityMatrix,
                  tol: float = COMPLETENESS_TOL, steps: int = 1) -> DensityMatrix:
    """Evolve `rho` through the channel `steps` times: rho' = sum_i F_i rho F_i^dagger.

    The channel is checked once and only the final state is validated, with
    a trace and hermiticity slack of 10 * steps * the completeness defect (at
    least 1e-10), since each step may move the trace by up to the defect.  Up
    to TRANSFER_MAX_QUBITS qubits each step is one product with the
    channel's transfer matrix (module docstring), beyond that one operator
    sum; single and repeated applications share that path, so the result
    equals `steps` successive single applications bit for bit.  `steps=0`
    returns `rho` itself.
    """
    if channel.dim != rho.dim:
        raise FormatError(
            f"channel dimension {channel.dim} does not match state dimension {rho.dim}"
        )
    if steps < 0:
        raise FormatError(f"steps must be non-negative, got {steps}")
    defect = _check_trace_preserving(channel, tol)
    if steps == 0:
        return rho
    return DensityMatrix(_evolve(channel, rho.matrix, steps),
                         atol=max(1e-10, 10 * steps * defect))


def prune_operators(operators):
    """Drop operators that vanish entirely (max |entry| < PRUNE_TOL)."""
    kept = [op for op in operators if np.max(np.abs(op)) >= PRUNE_TOL]
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
        raise FormatError(f"expected a 4x4 unitary, got {u.shape[0]}x{u.shape[1]}")
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:  # also rejects NaN
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    if env_state.n_qubits != 1:
        raise FormatError("environment state must be a single qubit")
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
        raise FormatError("dilation is defined for single-qubit channels")
    if len(channel.operators) > 2:
        raise FormatError(
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
