"""Shared oracles and random generators for the test suite.

Oracles here deliberately avoid the library's own code paths: the partial
trace and the qubit relabelling work on reshaped axes, the dense immersion
of a gate reads each entry off the bits of its row and column index,
channel evolution repeats the raw Kraus sum one operator at a time, Bloch
maps come from Pauli traces over that sum, unitaries are drawn via QR
with a column phase fix, channel specs and channel documents are written
out field by field for `parse_channel_spec` and `channel_from_json_dict`
to read back, and matrix JSON is decoded with the standard library's
parser and a type check of every entry.
"""

import json

import numpy as np

from qsdiag import DensityMatrix, PureState

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


def random_density(gen, n_qubits=1) -> DensityMatrix:
    d = 2 ** n_qubits
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def random_pure(gen, n_qubits=1) -> PureState:
    v = gen.normal(size=2 ** n_qubits) + 1j * gen.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


def random_unitary(gen, dim: int) -> np.ndarray:
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def partial_trace_oracle(matrix, n_qubits: int, traced) -> np.ndarray:
    """Reshape-and-trace reference implementation (axis bookkeeping only)."""
    arr = np.asarray(matrix, dtype=complex).reshape([2] * (2 * n_qubits))
    k = n_qubits
    for q in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=k - 1 - q, axis2=2 * k - 1 - q)
        k -= 1
    return arr.reshape(2 ** k, 2 ** k)


def permute_oracle(matrix, perm) -> np.ndarray:
    """Relabel qubits by transposing axes: qubit k moves to position perm[k]."""
    n = len(perm)
    arr = np.asarray(matrix, dtype=complex).reshape([2] * (2 * n))
    # Axis n-1-q addresses qubit q of the row index, axis 2n-1-q of the column.
    axes = [0] * (2 * n)
    for k, p in enumerate(perm):
        axes[n - 1 - p] = n - 1 - k
        axes[2 * n - 1 - p] = 2 * n - 1 - k
    return arr.transpose(axes).reshape(2 ** n, 2 ** n)


def immerse_oracle(gate, targets, n_qubits: int) -> np.ndarray:
    """The dense 2^n x 2^n immersion of `gate` on `targets`, entry by entry.

    Bit j of the gate's index addresses qubit targets[j].  Entry (r, c) is
    the gate entry on r's and c's target bits when r and c agree on every
    other qubit, and 0 otherwise.
    """
    g = np.asarray(gate, dtype=complex)
    index = np.arange(2 ** n_qubits)
    local = sum(((index >> t) & 1) << j for j, t in enumerate(targets))
    others = index & ~sum(1 << t for t in targets)
    same_others = others[:, None] == others[None, :]
    return np.where(same_others, g[local[:, None], local[None, :]], 0)


def format_spec_oracle(spec) -> str:
    """The spec string "kind:theta[:a,b,c,d]" of a ChannelSpec, 17 significant digits."""
    fields = [spec.kind, f"{spec.theta:.17g}"]
    if spec.env_amplitudes is not None:
        fields.append(",".join(f"{a.real:.17g}{a.imag:+.17g}j" if a.imag else f"{a.real:.17g}"
                               for a in spec.env_amplitudes))
    return ":".join(fields)


def channel_to_json_oracle(channel) -> dict:
    """The channel document {"name", "operators"} of a KrausChannel: each operator's
    shape and row-major real and imaginary parts, entry by entry."""
    return {"name": channel.name,
            "operators": [{"rows": len(op), "cols": len(op[0]),
                           "re": [float(z.real) for row in op for z in row],
                           "im": [float(z.imag) for row in op for z in row]}
                          for op in channel.operators]}


def kraus_apply_raw(operators, matrix, steps: int = 1) -> np.ndarray:
    """`steps` rounds of the operator sum m -> sum_i F_i m F_i^dagger, term by term."""
    m = np.asarray(matrix, dtype=complex)
    for _ in range(steps):
        out = np.zeros_like(m)
        for f in operators:
            out += f @ m @ f.conj().T
        m = out
    return m


def affine_oracle(operators):
    """Bloch map (M, c) from Pauli traces over the raw Kraus sum."""
    c = np.array([
        0.5 * np.trace(p @ kraus_apply_raw(operators, np.eye(2))).real
        for p in PAULIS
    ])
    m = np.array([
        [0.5 * np.trace(PAULIS[i] @ kraus_apply_raw(operators, PAULIS[j])).real
         for j in range(3)]
        for i in range(3)
    ])
    return m, c


def matrix_decode_oracle(text: str) -> np.ndarray:
    """The complex matrix of matrix JSON text: `json.loads`, every entry's type,
    `np.array` of both lists and `re + 1j*im`.

    A refused document raises ValueError with the message the library's
    FormatError carries.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    missing = {"rows", "cols", "re", "im"} - set(doc)
    if missing:
        raise ValueError(f"matrix document is missing fields: {sorted(missing)}")
    rows, cols = doc["rows"], doc["cols"]
    if type(rows) is not int or type(cols) is not int:
        raise ValueError("rows/cols must be integers")
    if rows <= 0 or cols <= 0:
        raise ValueError(f"rows/cols must be positive, got {rows}x{cols}")
    re_part, im_part = doc["re"], doc["im"]
    if type(re_part) is not list or type(im_part) is not list:
        raise ValueError("re/im must be arrays of numbers")
    if len(re_part) != rows * cols or len(im_part) != rows * cols:
        raise ValueError(f"re/im must each hold rows*cols = {rows * cols} entries, "
                         f"got {len(re_part)} and {len(im_part)}")
    if not {type(x) for x in re_part + im_part} <= {int, float}:
        raise ValueError("re/im entries must be JSON numbers, not strings, booleans or arrays")
    try:
        parts = np.array((re_part, im_part), dtype=float)
    except OverflowError as exc:
        raise ValueError(f"re/im entries must be numbers: {exc}") from None
    if not np.isfinite(parts).all():
        raise ValueError("matrix entries must be finite")
    return (parts[0] + 1j * parts[1]).reshape(rows, cols)
