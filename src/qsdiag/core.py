"""Dense complex linear algebra for small qubit registers.

Density matrices and channels work on explicit 2^n x 2^n complex
matrices (n <= 10), so plain numpy arrays are the working representation.
Circuits are the exception: `qsdiag.diagram` applies each small gate to
2^n state vectors and builds diagrams gate-locally, never forming the
2^n x 2^n immersed unitary.  This module holds the two value types
(`PureState`, `DensityMatrix`), the spectral / validation helpers, and
the JSON wire form used by the CLI.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass

import numpy as np

# Default tolerances.  Algebraic identities (hermiticity, trace, norms)
# are expected to hold to near machine precision; spectral quantities
# (eigenvalues, reconstructions) get an order of magnitude more slack.
ALGEBRAIC_TOL = 1e-12
SPECTRAL_TOL = 1e-10
PSD_SLACK = 1e-10

MAX_QUBITS = 10

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class FormatError(ValueError):
    """Malformed serialized input (JSON documents, spec strings, circuit files)."""


def n_qubits_for_dim(dim: int) -> int:
    """Number of qubits for a register of dimension `dim` (must be a power of two)."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds the supported maximum of {MAX_QUBITS}")
    return n


def as_complex_matrix(values) -> np.ndarray:
    """Coerce to a 2-D complex ndarray and reject non-finite entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of U^dagger U - 1 for a square matrix U."""
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))))


class PureState:
    """A normalized state vector over one or more qubits.

    Qubit 0 is the least significant bit of the basis index, so the
    amplitude at index 5 of a 3-qubit state belongs to |101>.
    """

    def __init__(self, amplitudes, *, atol: float = ALGEBRAIC_TOL):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("state vector contains non-finite entries")
        self.n_qubits = n_qubits_for_dim(amps.size)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > atol:
            raise ValueError(f"state vector is not normalized: |psi| = {norm!r}")
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self):
        return f"PureState(n_qubits={self.n_qubits}, amplitudes={self.amplitudes!r})"


def basis_state(n_qubits: int, index: int) -> PureState:
    """The computational basis state |index> on an n-qubit register."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubit(s)")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix on n qubits.

    Construction validates the three defining properties; `atol` bounds the
    hermiticity and trace defects and `psd_tol` bounds how negative the
    smallest eigenvalue may be (rounding slack).
    """

    def __init__(self, matrix, *, atol: float = ALGEBRAIC_TOL, psd_tol: float = PSD_SLACK):
        m = as_complex_matrix(matrix)
        rows, cols = m.shape
        if rows != cols:
            raise ValueError(f"density matrix must be square, got {rows}x{cols}")
        self.n_qubits = n_qubits_for_dim(rows)
        report = validate_density(m, tol=max(atol, psd_tol))
        if report.hermiticity_defect > atol:
            raise ValueError(f"matrix is not Hermitian (defect {report.hermiticity_defect:.3e})")
        if report.trace_defect > atol:
            raise ValueError(f"trace differs from 1 (defect {report.trace_defect:.3e})")
        if report.min_eigenvalue < -psd_tol:
            raise ValueError(f"matrix is not PSD (min eigenvalue {report.min_eigenvalue:.3e})")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits}, matrix={self.matrix!r})"


@dataclass(frozen=True)
class DensityReport:
    """Validation report for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_defect <= self.tol
            and self.trace_defect <= self.tol
            and self.min_eigenvalue >= -self.tol
        )


def validate_density(matrix, tol: float = SPECTRAL_TOL) -> DensityReport:
    """Measure how far `matrix` is from being a density matrix.

    Returns the hermiticity defect (max-norm of M - M^dagger), the trace
    defect |tr M - 1| and the minimum eigenvalue of the hermitized matrix.
    The report passes iff all three are within `tol`.
    """
    m = as_complex_matrix(matrix)
    rows, cols = m.shape
    if rows != cols:
        raise ValueError(f"expected a square matrix, got {rows}x{cols}")
    herm_defect = float(np.max(np.abs(m - m.conj().T)))
    trace_defect = float(abs(m.trace() - 1.0))
    # Eigenvalues of the hermitized part; for a Hermitian input this is exact.
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    return DensityReport(herm_defect, trace_defect, min_eig, tol)


def dm_from_pure(state: PureState) -> DensityMatrix:
    """Outer product |psi><psi| as a DensityMatrix."""
    amps = state.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


def spectral_decompose(rho: DensityMatrix, tol: float = SPECTRAL_TOL):
    """Eigenvalues and eigenvectors of a density matrix, largest eigenvalue first.

    Returns a list of (eigenvalue, PureState) pairs.  Eigenvectors are
    canonicalized so that the first component above `ALGEBRAIC_TOL` in
    absolute value is real and positive, which makes repeated runs (and
    different callers) agree bit-for-bit on non-degenerate spectra.
    The eigenvalues sum to 1 within `tol` and reconstructing
    sum_k w_k |v_k><v_k| reproduces the input within `tol`.
    """
    w, v = np.linalg.eigh(rho.matrix)
    order = np.argsort(w)[::-1]  # descending, stable for exact ties
    pairs = []
    for idx in order:
        vec = v[:, idx].copy()
        nz = np.nonzero(np.abs(vec) > ALGEBRAIC_TOL)[0]
        if nz.size:
            lead = vec[nz[0]]
            vec = vec * (lead.conjugate() / abs(lead))
        pairs.append((float(w[idx]), PureState(vec)))
    total = sum(val for val, _ in pairs)
    if abs(total - 1.0) > tol:
        raise ValueError(f"eigenvalues sum to {total!r}, expected 1")
    return pairs


# ---------------------------------------------------------------------------
# JSON wire form
#
# A complex matrix is carried as {"rows": R, "cols": C, "re": [...], "im": [...]}
# with both coefficient lists in row-major order.


def matrix_to_json_dict(matrix) -> dict:
    m = as_complex_matrix(matrix)
    rows, cols = m.shape
    # "+ 0.0" turns -0.0 into 0.0 so serialization is canonical.
    return {
        "rows": rows,
        "cols": cols,
        "re": [float(x) + 0.0 for x in m.real.reshape(-1)],
        "im": [float(x) + 0.0 for x in m.imag.reshape(-1)],
    }


def matrix_from_json_dict(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise FormatError("matrix document must be a JSON object")
    missing = {"rows", "cols", "re", "im"} - set(doc)
    if missing:
        raise FormatError(f"matrix document is missing fields: {sorted(missing)}")
    rows, cols = doc["rows"], doc["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or isinstance(
            rows, bool) or isinstance(cols, bool):
        raise FormatError("rows/cols must be integers")
    if rows <= 0 or cols <= 0:
        raise FormatError(f"rows/cols must be positive, got {rows}x{cols}")
    re_part, im_part = doc["re"], doc["im"]
    if not isinstance(re_part, list) or not isinstance(im_part, list):
        raise FormatError("re/im must be arrays of numbers")
    if len(re_part) != rows * cols or len(im_part) != rows * cols:
        raise FormatError(
            f"re/im must each hold rows*cols = {rows * cols} entries, "
            f"got {len(re_part)} and {len(im_part)}"
        )
    if not all(type(x) in (int, float) for x in re_part + im_part):
        raise FormatError("re/im entries must be JSON numbers, not strings, booleans or arrays")
    try:
        re_arr = np.asarray([float(x) for x in re_part], dtype=float)
        im_arr = np.asarray([float(x) for x in im_part], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"re/im entries must be numbers: {exc}") from None
    if not np.all(np.isfinite(re_arr)) or not np.all(np.isfinite(im_arr)):
        raise FormatError("matrix entries must be finite")
    return (re_arr + 1j * im_arr).reshape(rows, cols)


def matrix_to_json(matrix) -> str:
    """Serialize a matrix to deterministic (sorted-key) JSON text."""
    return json.dumps(matrix_to_json_dict(matrix), sort_keys=True)


def matrix_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    return matrix_from_json_dict(doc)


# ---------------------------------------------------------------------------
# Numeric literals
#
# CLI flags, channel specs and circuit files accept plain decimals as well as
# fractions of pi such as "pi/4", "-pi", "2pi/3" or "3*pi/4".

_PI_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+\.?\d*|\.\d+)?\*?(?:pi|π)(?:/(?P<den>\d+\.?\d*|\.\d+))?$",
    re.IGNORECASE,
)


def parse_number(text: str) -> float:
    """Parse a finite real literal: a decimal or a pi-fraction like "pi/4" or "2pi/3"."""
    s = str(text).strip()
    match = _PI_RE.match(s)
    try:
        if match:
            value = math.pi * float(match.group("coef") or 1) / float(match.group("den") or 1)
            if match.group("sign") == "-":
                value = -value
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"number {text!r} is not finite")
    return value


def parse_complex(text: str) -> complex:
    """Parse a finite complex literal ("0.5", "-1j", "0.5+0.5j") or a real pi-fraction."""
    s = str(text).strip().replace(" ", "")
    try:
        value = complex(s)
    except ValueError:
        try:
            return complex(parse_number(s))
        except FormatError:
            raise FormatError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(value):
        raise FormatError(f"complex number {text!r} is not finite")
    return value
