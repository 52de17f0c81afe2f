"""Dense complex linear algebra for small qubit registers.

Density matrices and channels work on explicit 2^n x 2^n complex
matrices (n <= 10), so plain numpy arrays are the working representation.
Circuits are the exception: `qsdiag.diagram` applies each small gate to
2^n state vectors and builds diagrams gate-locally, never forming the
2^n x 2^n immersed unitary.  This module holds the two value types
(`PureState`, `DensityMatrix`), the spectral / validation helpers, and
the JSON wire form used by the CLI.  The wire form is decoded with orjson,
a strict RFC 8259 parser (no NaN or Infinity literals, no number beyond a
double's range), imported on the first decode only; it is encoded with the
standard library's `json.dumps(sort_keys=True)`.  Before orjson runs, a
text longer than `MAX_JSON_DEPTH` characters has its `[` and `{` counted
in 64 KiB blocks, and only one with more of them than the bound has its
exact depth measured, in the same blocks.  Each coefficient list then
converts to doubles in one pass of the standard library's `array`, which
refuses every JSON value but a boolean, so only entries that read exactly
0.0 or 1.0 need their type looked up, and none does in a text that holds no
`true` or `false` literal.  A dict handed to `matrix_from_json_dict` may
hold numpy scalars or `Decimal`, which `array` would accept, so there every
entry's type is checked.

It also states the register rule, once for the package: a register holds
1..MAX_QUBITS qubits and its matrices are 2^n x 2^n.  `n_qubits_for_dim`
tests a dimension, `_check_n_qubits` a qubit count and `_register_matrix`
a matrix; every other module calls them and keeps no copy of the rule, so
the library refuses, with `FormatError`, exactly what the CLI refuses.

Constructing a `DensityMatrix` validates it (one eigendecomposition), so
the package builds them at its boundaries only: input matrices and final
results.  Intermediate states, such as the steps of a repeated channel
application, stay plain arrays.
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
    """Input that cannot be used: malformed serialized input (JSON documents,
    spec strings, circuit files) or arguments that do not fit each other.

    The CLI exits 2 on it; a value that parses but fails a physical check
    (Hermiticity, trace, positivity, completeness) is a plain ValueError.
    """


# ---------------------------------------------------------------------------
# The register rule (see the module docstring): 1..MAX_QUBITS qubits, 2^n x 2^n.


def n_qubits_for_dim(dim: int) -> int:
    """Qubits of a register of dimension `dim`, which must be 2^n with 1 <= n <= MAX_QUBITS."""
    n = int(dim).bit_length() - 1
    if not 1 <= n <= MAX_QUBITS or 1 << n != dim:
        raise FormatError(f"dimension {dim} fits no register of 1..{MAX_QUBITS} qubits (2^n)")
    return n


def _check_n_qubits(n_qubits: int) -> int:
    """`n_qubits` itself if it is a register size, 1..MAX_QUBITS."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise FormatError(f"qubit count must be in 1..{MAX_QUBITS}, got {n_qubits}")
    return n_qubits


def _register_matrix(values) -> tuple:
    """`values` as a complex matrix on a register, and the register's qubit count."""
    m = as_complex_matrix(values)
    rows, cols = m.shape
    try:
        n = n_qubits_for_dim(rows if rows == cols else 0)
    except FormatError:
        raise FormatError(f"a {rows}x{cols} matrix fits no register of "
                          f"1..{MAX_QUBITS} qubits (2^n x 2^n)") from None
    return m, n


def as_complex_matrix(values) -> np.ndarray:
    """Coerce to a 2-D complex ndarray and reject non-finite entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of U^dagger U - 1 for a square matrix U.

    Finite entries near the float limit overflow the product to inf or NaN;
    callers checking outside input reject any defect that is not <= their
    tolerance, so that is not warned about.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))))


class PureState:
    """A normalized state vector over one or more qubits.

    Qubit 0 is the least significant bit of the basis index, so the
    amplitude at index 5 of a 3-qubit state belongs to |101>.
    """

    def __init__(self, amplitudes, *, atol: float = ALGEBRAIC_TOL):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(amps).all():
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
    dim = 1 << _check_n_qubits(n_qubits)
    if not 0 <= index < dim:
        raise FormatError(f"basis index {index} out of range for {n_qubits} qubit(s)")
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
        m, self.n_qubits = _register_matrix(matrix)
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
    m = _register_matrix(matrix)[0]
    # Finite entries near the float limit overflow the defects to inf, and
    # every check on the report rejects such a matrix, so the overflow is not
    # warned about.
    m_dagger = m.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        herm_defect = float(np.max(np.abs(m - m_dagger)))
        # Halving (exact) before summing keeps partial sums of a diagonal that
        # holds both signs finite, where they would reach inf - inf = NaN.
        trace_defect = float(abs(2.0 * (m.diagonal() / 2.0).sum() - 1.0))
        # Eigenvalues of the hermitized part; for a Hermitian input this is
        # exact.  Halving before adding keeps the sum finite.
        min_eig = float(np.linalg.eigvalsh(m / 2.0 + m_dagger / 2.0)[0])
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

# Deepest array/object nesting `matrix_from_json` decodes; a matrix document
# nests 2 deep.  orjson builds its Python objects recursively, up to about
# 250 bytes of C stack a level, and a valid document nested deeper than the
# stack allows kills the process (about 130,000 arrays deep on an 8 MiB
# stack); at this bound a decode needs at most about 1 MiB.
MAX_JSON_DEPTH = 4096
# Characters that the bracket count before a decode encodes at a time, so
# its bytes and masks stay about 64 KiB whatever the document's length.
_DEPTH_SCAN_BLOCK = 1 << 16
# A JSON string.  The closing quote is optional, so an unterminated string
# (invalid JSON, which the parser refuses) runs to the end of the text and
# the scan stays linear; requiring it costs quadratic time on "\"\"\"...
_JSON_STRING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)


def matrix_to_json_dict(matrix) -> dict:
    m = as_complex_matrix(matrix)
    rows, cols = m.shape
    # "+ 0.0" turns -0.0 into 0.0 so serialization is canonical.
    return {
        "rows": rows,
        "cols": cols,
        "re": (m.real.reshape(-1) + 0.0).tolist(),
        "im": (m.imag.reshape(-1) + 0.0).tolist(),
    }


_ENTRY_TYPES = "re/im entries must be JSON numbers, not strings, booleans or arrays"


def _matrix_fields(doc) -> tuple:
    """`rows`, `cols`, `re` and `im` of a matrix document, after every structural check."""
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
    return rows, cols, re_part, im_part


def _floats(re_part: list, im_part: list) -> np.ndarray:
    """Both lists as the two rows of one array of doubles, in one C pass,
    each entry as `float(entry)` makes it.

    Raises TypeError on a string, null, array or object and OverflowError on
    an int beyond a double.  A boolean converts, to exactly 0.0 or 1.0.
    """
    import array  # here, so processes that decode no matrix never load it

    values = array.array("d", re_part)
    values.fromlist(im_part)
    return np.frombuffer(values).reshape(2, -1)


def _holds_boolean(part: list, values: np.ndarray, text: str) -> bool:
    """Whether `part`, which converted to `values` from JSON `text`, holds a boolean.

    Only entries that read exactly 0.0 or 1.0 can be one.  Typing a whole
    list costs about 10 ns an entry, typing one entry by its index about
    three times that, and finding those entries a few microseconds, so only
    in a list of more than 256 entries, at most a quarter of them 0.0 or
    1.0, are just those typed.  orjson makes a boolean only from a `true` or
    `false` literal, so before a whole list is typed the text is searched
    for them; a search for one character runs at memory speed, one for four
    characters far slower, so "u" and "a" are looked for first.
    """
    if values.size > 256:
        hits = np.flatnonzero((values == 0.0) | (values == 1.0))
        if 4 * hits.size <= values.size:
            return bool in set(map(type, map(part.__getitem__, hits.tolist())))
    if not (("u" in text and "true" in text) or ("a" in text and "false" in text)):
        return False
    return bool in set(map(type, part))


def _complex_matrix(rows: int, cols: int, parts: np.ndarray) -> np.ndarray:
    """The rows x cols matrix re + 1j*im of parts = (re, im), bit for bit,
    without its complex temporaries."""
    if not np.isfinite(parts).all():
        raise FormatError("matrix entries must be finite")
    re, im = parts
    # numpy computes 1j*im as (0*im - 1*0) + (0*0 + 1*im)j, so the real part
    # of re + 1j*im is re plus a zero of im's sign, and an imaginary -0.0
    # becomes +0.0.
    m = np.empty(rows * cols, dtype=complex)
    real = m.real
    np.multiply(im, 0.0, out=real)
    np.add(real, re, out=real)
    np.add(im, 0.0, out=m.imag)
    return m.reshape(rows, cols)


def matrix_from_json_dict(doc) -> np.ndarray:
    """The complex matrix of a parsed matrix document.

    A document built in code may hold numpy scalars or `Decimal`, which
    convert to doubles, so every entry's type is checked to be int or float.
    """
    rows, cols, re_part, im_part = _matrix_fields(doc)
    if not set(map(type, re_part)).union(map(type, im_part)) <= {int, float}:
        raise FormatError(_ENTRY_TYPES)
    try:
        parts = _floats(re_part, im_part)
    except OverflowError as exc:
        raise FormatError(f"re/im entries must be numbers: {exc}") from None
    return _complex_matrix(rows, cols, parts)


def matrix_to_json(matrix) -> str:
    """Serialize a matrix to deterministic (sorted-key) JSON text."""
    return json.dumps(matrix_to_json_dict(matrix), sort_keys=True)


def _json_depth(text: str) -> int:
    """Deepest nesting of arrays and objects in JSON text, brackets inside strings skipped.

    Once the strings are removed, the depth is followed through blocks of
    `_DEPTH_SCAN_BLOCK` characters, carried from block to block, so its
    arrays stay about 64 KiB whatever the text's length.
    """
    text = _JSON_STRING_RE.sub("", text)
    depth = deepest = 0
    for start in range(0, len(text), _DEPTH_SCAN_BLOCK):
        block = text[start:start + _DEPTH_SCAN_BLOCK].encode("utf-8", "surrogatepass")
        # Setting bit 0x20 maps "[" onto "{" and "]" onto "}", and no other byte onto either.
        codes = np.frombuffer(block, dtype=np.uint8) | 0x20
        steps = (codes == ord("{")).astype(np.int64)
        steps -= codes == ord("}")
        path = np.cumsum(steps, out=steps)
        deepest = max(deepest, depth + int(path.max()))
        depth += int(path[-1])
    return deepest


def _more_brackets_than_depth_bound(text: str) -> bool:
    """Whether `text` holds more than MAX_JSON_DEPTH `[` and `{`, strings included."""
    count = 0
    for start in range(0, len(text), _DEPTH_SCAN_BLOCK):
        block = text[start:start + _DEPTH_SCAN_BLOCK].encode("utf-8", "surrogatepass")
        codes = np.frombuffer(block, dtype=np.uint8)
        # "[" is 0x5B and "{" 0x7B: setting bit 0x20 makes no other byte "{",
        # and every byte of a multi-byte character is above 0x7F.
        count += int(np.count_nonzero((codes | 0x20) == ord("{")))
        if count > MAX_JSON_DEPTH:
            return True
    return False


def matrix_from_json(text: str) -> np.ndarray:
    """The complex matrix of a matrix document's JSON text."""
    import orjson  # here, so processes that decode no matrix never load it

    # A document nests no deeper than it has brackets, nor has more brackets
    # than characters, so only one with more than MAX_JSON_DEPTH of them
    # needs the exact depth.
    if (len(text) > MAX_JSON_DEPTH and _more_brackets_than_depth_bound(text)
            and _json_depth(text) > MAX_JSON_DEPTH):
        raise FormatError(f"invalid JSON: nested deeper than {MAX_JSON_DEPTH} arrays/objects")
    try:
        doc = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    rows, cols, re_part, im_part = _matrix_fields(doc)
    # orjson yields only int, float, bool, str, None, list and dict, and of
    # these only a boolean converts without an error.
    try:
        parts = _floats(re_part, im_part)
    except (TypeError, OverflowError):
        # The exact check names the fault, a wrong type before an overflow.
        return matrix_from_json_dict(doc)
    if _holds_boolean(re_part, parts[0], text) or _holds_boolean(im_part, parts[1], text):
        raise FormatError(_ENTRY_TYPES)
    return _complex_matrix(rows, cols, parts)


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
