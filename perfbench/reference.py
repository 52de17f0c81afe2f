"""Independent numpy answers that the benchmark checks qsdiag's outputs against.

Nothing here imports qsdiag.  Every answer is recomputed from the documented
conventions: qubit 0 is the least significant bit of a basis index, and the
first listed qubit of a multi-qubit gate is the most significant bit of the
gate's own index.
"""

from __future__ import annotations

import math
import string

import numpy as np

# qsdiag draws an edge for every gate entry above this magnitude and lists
# every output amplitude above it.
EDGE_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (X, Y, Z)

_SQ2 = 1.0 / math.sqrt(2.0)


def _rot(axis_op, t):
    return math.cos(t / 2) * I2 - 1j * math.sin(t / 2) * axis_op


_GATES = {
    "x": lambda: X,
    "z": lambda: Z,
    "h": lambda: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": lambda: np.diag([1, 1j]).astype(complex),
    "t": lambda: np.diag([1, np.exp(0.25j * math.pi)]),
    "ry": lambda t: _rot(Y, t),
    "rz": lambda t: _rot(Z, t),
    "swap": lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Matrix of a named gate; a leading "c" adds a control as the first qubit."""
    if name in _GATES:
        return np.asarray(_GATES[name](*params), dtype=complex)
    inner = gate_matrix(name[1:], params)
    d = inner.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = inner
    return out


def simulate(n: int, gates, psi0: np.ndarray) -> np.ndarray:
    """Final state vector by einsum contraction of each gate on its qubit axes.

    `gates` holds (matrix, listed qubits) pairs.  Axis a of the state tensor
    is qubit n-1-a, so the C-order reshape keeps qubit 0 least significant.
    """
    letters = string.ascii_letters
    psi = np.asarray(psi0, dtype=complex).reshape((2,) * n)
    state_ix = letters[:n]
    for g, qubits in gates:
        k = len(qubits)
        outs = letters[n:n + k]
        ins = "".join(state_ix[n - 1 - q] for q in qubits)
        result_ix = list(state_ix)
        for j, q in enumerate(qubits):
            result_ix[n - 1 - q] = outs[j]
        psi = np.einsum(f"{outs}{ins},{state_ix}->{''.join(result_ix)}",
                        g.reshape((2,) * (2 * k)), psi)
    return psi.reshape(-1)


def gate_edges(g: np.ndarray, qubits, n: int):
    """Edges (src, dst, amplitude) of a gate immersed in an n-qubit register.

    An edge joins basis line src to line dst for every non-null entry of the
    immersed matrix; the arrays are sorted by (src, dst).
    """
    k = len(qubits)
    src = np.arange(1 << n, dtype=np.int64)
    col = np.zeros_like(src)
    mask = 0
    for j, q in enumerate(qubits):
        col |= ((src >> q) & 1) << (k - 1 - j)
        mask |= 1 << q
    base = src & ~mask
    parts = []
    for r in range(1 << k):
        amp = g[r, col]
        keep = np.abs(amp) > EDGE_TOL
        dst = base.copy()
        for j, q in enumerate(qubits):
            dst |= ((r >> (k - 1 - j)) & 1) << q
        parts.append((src[keep], dst[keep], amp[keep]))
    s = np.concatenate([p[0] for p in parts])
    d = np.concatenate([p[1] for p in parts])
    a = np.concatenate([p[2] for p in parts])
    order = np.lexsort((d, s))
    return s[order], d[order], a[order]


def diagram_layers(n: int, gates, psi0: np.ndarray, mode: str):
    """Edges and line activity of a diagram of states, from the gates alone.

    A line is active at a boundary when a chain of edges joins it to the
    input support; simplified mode drops every edge that leaves a dormant
    line.  Returns (layers, active, enumerated) where layers holds the kept
    (src, dst, amp) arrays per gate, active the boolean vector per boundary
    and enumerated the number of edges before pruning.
    """
    active = [np.abs(np.asarray(psi0)) > EDGE_TOL]
    layers = []
    enumerated = 0
    for g, qubits in gates:
        src, dst, amp = gate_edges(g, qubits, n)
        enumerated += src.size
        live = active[-1][src]
        if mode == "simplified":
            src, dst, amp = src[live], dst[live], amp[live]
            live = live[live]
        nxt = np.zeros(1 << n, dtype=bool)
        nxt[dst[live]] = True
        layers.append((src, dst, amp))
        active.append(nxt)
    return layers, active, enumerated


# ---------------------------------------------------------------------------
# Channels, written out from the operator formulas in the README and docstrings.

ROTATION_KINDS = ("rotation_x", "rotation_y", "rotation_z")
DEFORMATION_KINDS = ("bit_flip", "bit_phase_flip", "phase_flip")
AMP_DAMP_KINDS = tuple(f"amp_damp_{a}_{s}" for a in "xyz" for s in ("plus", "minus"))
CHANNEL_KINDS = (ROTATION_KINDS + DEFORMATION_KINDS + AMP_DAMP_KINDS
                 + ("depolarizing_general", "depolarizing_standard"))

# States that the x and y amplitude-damping channels contract toward.
_POLES = {
    ("x", "plus"): np.array([_SQ2, _SQ2], dtype=complex),
    ("x", "minus"): np.array([_SQ2, -_SQ2], dtype=complex),
    ("y", "plus"): np.array([_SQ2, 1j * _SQ2], dtype=complex),
    ("y", "minus"): np.array([_SQ2, -1j * _SQ2], dtype=complex),
}


def kraus_operators(kind: str, theta: float, env=None) -> list:
    """Kraus operators of a factory channel kind at angle theta."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "rotation_x":
        return [np.array([[c, -1j * s], [-1j * s, c]])]
    if kind == "rotation_y":
        return [np.array([[c, s], [-s, c]], dtype=complex)]
    if kind == "rotation_z":
        return [np.diag([c - 1j * s, c + 1j * s])]
    if kind in DEFORMATION_KINDS:
        return [abs(c) * I2, abs(s) * PAULIS[DEFORMATION_KINDS.index(kind)]]
    if kind == "amp_damp_z_plus":
        return [np.array([[1, 0], [0, c]], dtype=complex), np.array([[0, s], [0, 0]], dtype=complex)]
    if kind == "amp_damp_z_minus":
        return [np.array([[c, 0], [0, 1]], dtype=complex), np.array([[0, 0], [s, 0]], dtype=complex)]
    if kind.startswith("amp_damp_"):
        _, _, axis, sign = kind.split("_")
        pole = _POLES[(axis, sign)]
        # Any unitary whose first column is the pole gives the same channel.
        frame = np.column_stack([pole, [-pole[1].conjugate(), pole[0].conjugate()]])
        return [frame @ op @ frame.conj().T for op in kraus_operators("amp_damp_z_plus", theta)]
    if kind == "depolarizing_general":
        w = [abs(a) for a in env]
        return [w[0] * I2, w[1] * X, w[2] * Y, w[3] * Z]
    if kind == "depolarizing_standard":
        cs, sn = math.cos(theta), math.sin(theta) / math.sqrt(3.0)
        return [cs * I2, sn * X, sn * Y, sn * Z]
    raise ValueError(kind)


def operator_sum(ops, rho: np.ndarray) -> np.ndarray:
    return sum(f @ rho @ f.conj().T for f in ops)


def bloch_affine(ops):
    """(M, c) with M_ij = tr(sigma_i Phi(sigma_j)) / 2 and c_i = tr(sigma_i Phi(1/2))."""
    m = np.array([[np.trace(si @ operator_sum(ops, sj)).real / 2 for sj in PAULIS]
                  for si in PAULIS])
    c = np.array([np.trace(si @ operator_sum(ops, I2 / 2)).real for si in PAULIS])
    return m, c


def ellipsoid_points(m, c, n_lat: int, n_lon: int) -> np.ndarray:
    colat = np.pi * np.arange(n_lat) / (n_lat - 1)
    lon = 2 * np.pi * np.arange(n_lon) / n_lon
    ct, lo = np.meshgrid(colat, lon, indexing="ij")
    v = np.stack([np.sin(ct) * np.cos(lo), np.sin(ct) * np.sin(lo), np.cos(ct)], axis=-1)
    return v.reshape(-1, 3) @ m.T + c


def partial_trace(rho: np.ndarray, traced) -> np.ndarray:
    """Trace out the listed qubits by einsum over the matrix's index tensor."""
    n = int(rho.shape[0]).bit_length() - 1
    letters = string.ascii_letters
    rows, cols = list(letters[:n]), list(letters[n:2 * n])
    for q in traced:
        cols[n - 1 - q] = rows[n - 1 - q]
    kept = [a for a in range(n) if n - 1 - a not in traced]
    out = "".join(rows[a] for a in kept) + "".join(cols[a] for a in kept)
    d = 1 << len(kept)
    return np.einsum(f"{''.join(rows)}{''.join(cols)}->{out}",
                     rho.reshape((2,) * (2 * n))).reshape(d, d)


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density_with_spectrum(rng, eigenvalues) -> np.ndarray:
    """U diag(eigenvalues) U^dagger for a random unitary U, exactly Hermitian."""
    u = random_unitary(rng, len(eigenvalues))
    rho = (u * np.asarray(eigenvalues)) @ u.conj().T
    return (rho + rho.conj().T) / 2


def random_qubit_state(rng) -> np.ndarray:
    """A mixed single-qubit state with Bloch radius in [0.2, 0.95]."""
    v = rng.normal(size=3)
    v *= rng.uniform(0.2, 0.95) / np.linalg.norm(v)
    return (I2 + v[0] * X + v[1] * Y + v[2] * Z) / 2
