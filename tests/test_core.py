import json
import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import random_density, random_pure
from qsdiag import (
    DensityMatrix,
    FormatError,
    PureState,
    basis_state,
    dm_from_pure,
    matrix_from_json,
    matrix_to_json,
    parse_number,
    spectral_decompose,
    validate_density,
)
from qsdiag.core import MAX_JSON_DEPTH, matrix_from_json_dict, parse_complex


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState([1.0, 1.0])
    with pytest.raises(ValueError):
        PureState([0.5, 0.5])


def test_pure_state_requires_power_of_two_length():
    with pytest.raises(ValueError):
        PureState([1.0, 0.0, 0.0])


def test_basis_state():
    s = basis_state(2, 2)
    assert s.n_qubits == 2
    assert np.array_equal(s.amplitudes, [0, 0, 1, 0])
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_dm_from_pure_basis():
    rho = dm_from_pure(basis_state(1, 0))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_dm_from_pure_plus_state():
    s = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert np.allclose(dm_from_pure(s).matrix, np.full((2, 2), 0.5))


def test_dm_from_pure_bell_corners():
    bell = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    m = dm_from_pure(bell).matrix
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 0.5
    assert np.allclose(m, expected)


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 0.1], [0.2, 0.5]])  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.4]))  # trace 1.1
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 0.6], [0.6, 0.5]])  # eigenvalue -0.1
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.0, 0.0, 0.0]))  # not 2^n


def test_validate_density_report_pass():
    report = validate_density(np.diag([0.5, 0.5]))
    assert report.passed
    assert report.hermiticity_defect == 0.0
    assert report.trace_defect == 0.0
    assert report.min_eigenvalue == pytest.approx(0.5)


def test_validate_density_report_trace_failure():
    report = validate_density(np.diag([0.7, 0.4]))
    assert not report.passed
    assert report.trace_defect == pytest.approx(0.1)


def test_validate_density_report_negative_eigenvalue():
    # eigenvalues of [[.5,.6],[.6,.5]] are .5 +/- .6
    report = validate_density([[0.5, 0.6], [0.6, 0.5]])
    assert not report.passed
    assert report.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)


def test_spectral_decompose_frozen_eigenvalues():
    rho = DensityMatrix([[0.75, 0.25], [0.25, 0.25]])
    pairs = spectral_decompose(rho)
    values = [v for v, _ in pairs]
    assert values[0] == pytest.approx(0.5 + math.sqrt(2.0) / 4.0, abs=1e-12)
    assert values[1] == pytest.approx(0.5 - math.sqrt(2.0) / 4.0, abs=1e-12)


def test_spectral_decompose_diagonal():
    pairs = spectral_decompose(DensityMatrix(np.diag([1.0, 0.0])))
    assert pairs[0][0] == pytest.approx(1.0)
    assert np.allclose(pairs[0][1].amplitudes, [1.0, 0.0])
    assert pairs[1][0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_spectral_decompose_reconstructs(n_qubits):
    gen = np.random.default_rng(100 + n_qubits)
    for _ in range(20):
        rho = random_density(gen, n_qubits)
        pairs = spectral_decompose(rho)
        values = np.array([v for v, _ in pairs])
        assert np.all(np.diff(values) <= 1e-12)  # descending
        assert values.sum() == pytest.approx(1.0, abs=1e-10)
        rebuilt = sum(
            v * np.outer(s.amplitudes, s.amplitudes.conj()) for v, s in pairs
        )
        assert np.abs(rebuilt - rho.matrix).max() < 1e-10
        vectors = np.column_stack([s.amplitudes for _, s in pairs])
        assert np.abs(vectors.conj().T @ vectors - np.eye(rho.dim)).max() < 1e-10


def test_spectral_decompose_phase_convention():
    gen = np.random.default_rng(7)
    for _ in range(20):
        rho = random_density(gen, 2)
        for _, vec in spectral_decompose(rho):
            lead = vec.amplitudes[np.abs(vec.amplitudes) > 1e-12][0]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0


def small_matrix_with(extra: str) -> str:
    """The 1x1 matrix [[1]] as JSON text with one more field, which the decoder ignores."""
    return '{"rows": 1, "cols": 1, "re": [1], "im": [0], "x": ' + extra + "}"


def test_matrix_json_round_trip():
    gen = np.random.default_rng(11)
    for shape in [(2, 2), (4, 4), (4, 1), (1, 3)]:
        m = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(again, m)


def test_matrix_json_field_names():
    doc = json.loads(matrix_to_json(np.eye(2)))
    assert set(doc) == {"rows", "cols", "re", "im"}
    assert doc["re"] == [1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("text", [
    "not json",
    '{"rows": 2, "cols": 2, "re": [1, 0, 0, 1]}',  # missing im
    '{"rows": 2, "cols": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]}',
    '{"rows": "2", "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}',
    '{"rows": 2, "cols": 2, "re": [1, 0, 0, "x"], "im": [0, 0, 0, 0]}',
    '{"rows": 2, "cols": 2, "re": [1, 0, 0, NaN], "im": [0, 0, 0, 0]}',
    '{"rows": 2, "cols": 2, "re": [true, 0, 0, false], "im": [0, 0, 0, 0]}',
    '{"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [0, false, 0, 0]}',
    pytest.param('{"rows": 1, "cols": 1, "re": [1' + "0" * 400 + '], "im": [0]}',
                 id="int-beyond-float-range"),
    '{"rows": 1, "cols": 1, "re": ["1"], "im": [0]}',
    '{"rows": 1, "cols": 1, "re": [1], "im": [[0]]}',
    "[1, 2, 3]",
    # RFC 8259 has no NaN or Infinity literal and no number beyond a double's range.
    pytest.param('{"rows": 1, "cols": 1, "re": [Infinity], "im": [0]}', id="Infinity"),
    pytest.param('{"rows": 1, "cols": 1, "re": [1], "im": [-Infinity]}', id="-Infinity"),
    pytest.param('{"rows": 1, "cols": 1, "re": [1e400], "im": [0]}', id="1e400"),
    pytest.param('\ufeff{"rows": 1, "cols": 1, "re": [1], "im": [0]}', id="utf8-bom"),
    pytest.param('{"rows": 1, "cols": 1, "re": [1], "im": [0], "x": "\\ud800"}',
                 id="escaped-lone-surrogate-in-extra-field"),
    pytest.param(small_matrix_with("[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH),
                 id="nested-past-MAX_JSON_DEPTH"),
    pytest.param(small_matrix_with('{"a": ' * MAX_JSON_DEPTH + "1" + "}" * MAX_JSON_DEPTH),
                 id="objects-nested-past-MAX_JSON_DEPTH"),
])
def test_matrix_json_rejects_malformed(text):
    with pytest.raises(FormatError):
        matrix_from_json(text)


def test_matrix_json_depth_scan_is_linear_in_an_unterminated_string():
    # Enough brackets to need the exact depth, inside a string that never closes.
    text = small_matrix_with('"' + '\\"' * 50_000 + "[" * MAX_JSON_DEPTH)
    start = time.perf_counter()
    with pytest.raises(FormatError, match="invalid JSON"):
        matrix_from_json(text)
    assert time.perf_counter() - start < 1.0  # a quadratic scan takes about 30 s


@pytest.mark.parametrize("extra", [
    # The standard library refused 2,000 levels ("nested too deeply").
    pytest.param("[" * 2000 + "]" * 2000, id="2000-deep-array"),
    pytest.param("[" * (MAX_JSON_DEPTH - 1) + "]" * (MAX_JSON_DEPTH - 1), id="at-MAX_JSON_DEPTH"),
    # More brackets than MAX_JSON_DEPTH, but shallow: the exact depth decides.
    pytest.param("[" + ", ".join(["[]"] * MAX_JSON_DEPTH) + "]", id="many-shallow-arrays"),
    pytest.param('"' + "[{" * MAX_JSON_DEPTH + '\\"["', id="brackets-inside-a-string"),
])
def test_matrix_json_ignores_a_valid_extra_field(extra):
    assert matrix_from_json(small_matrix_with(extra)).tolist() == [[1 + 0j]]


@pytest.mark.parametrize("entry", ["1", True, [0.0], 10 ** 400],
                         ids=["string", "boolean", "nested-array", "int-beyond-float-range"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_matrix_json_rejects_bad_last_entry_of_a_large_matrix(part, entry):
    doc = {"rows": 256, "cols": 256, "re": [0.0] * 65536, "im": [0] * 65536}
    doc[part][-1] = entry
    with pytest.raises(FormatError):
        matrix_from_json_dict(doc)


def _halfway_decimals(gen, count):
    """Exact decimal midpoints between adjacent finite doubles, and the decimals just off them."""
    bits = gen.integers(0, 2 ** 64, size=2 * count, dtype=np.uint64).view(np.float64)
    texts = []
    with localcontext() as ctx:
        ctx.prec = 1200  # exact: a double has at most 767 significant decimal digits
        for x in bits[np.isfinite(bits)][:count].tolist():
            low, high = sorted((x, float(np.nextafter(x, np.inf if x >= 0 else -np.inf))))
            mid = (Decimal(low) + Decimal(high)) / 2
            texts += [f"{mid:e}", f"{mid + Decimal('1e-400'):e}", f"{mid - Decimal('1e-400'):e}"]
    return texts


def test_matrix_json_decodes_like_float_per_entry():
    gen = np.random.default_rng(12)
    bits = gen.integers(0, 2 ** 64, size=2 * 4096, dtype=np.uint64).view(np.float64)
    values = [float(x) for x in bits[np.isfinite(bits)][:2 * 4000]]
    values[:6] = [-0.0, 0.0, 0, -7, 2 ** 53 + 1, -(10 ** 300)]
    values[6:200:3] = [int(k) for k in gen.integers(-2 ** 62, 2 ** 62, size=65)]
    # Integers around 2^63 and 2^64, where a 64-bit integer parser hands over
    # to a float parser, with the midpoints h = 2^(e-53) between doubles there.
    values[200:228] = [sign * (2 ** e + d) for sign in (1, -1) for e in (63, 64)
                       for h in [2 ** (e - 53)] for d in (-1, 0, 1, h - 1, h, h + 1, 3 * h)]
    tokens = [json.dumps(v) for v in values]
    tokens[300:1500] = _halfway_decimals(gen, 400)
    # Signed zeros, underflow, and the edges of the subnormal and finite ranges.
    tokens[1500:1510] = ["-0", "-0e0", "-0.0e-5", "1e-400", "4.9e-324",
                         "2.4703282292062327e-324", "2.4703282292062328e-324",
                         "2.2250738585072011e-308", "1.7976931348623157e308",
                         "1.7976931348623158e308"]
    text = (f'{{"rows": 80, "cols": 50, "re": [{", ".join(tokens[:4000])}], '
            f'"im": [{", ".join(tokens[4000:])}]}}')
    doc = json.loads(text)
    want_re = np.asarray([float(x) for x in doc["re"]], dtype=float)
    want_im = np.asarray([float(x) for x in doc["im"]], dtype=float)
    want = (want_re + 1j * want_im).reshape(80, 50).view(np.uint64).tolist()
    assert matrix_from_json_dict(doc).view(np.uint64).tolist() == want
    assert matrix_from_json(text).view(np.uint64).tolist() == want


@pytest.mark.parametrize("text,value", [
    ("0.25", 0.25),
    ("-2", -2.0),
    ("1e-3", 1e-3),
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("pi/4", math.pi / 4),
    ("2pi/3", 2 * math.pi / 3),
    ("3*pi/4", 3 * math.pi / 4),
    ("0.5pi", 0.5 * math.pi),
])
def test_parse_number(text, value):
    assert parse_number(text) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("text", ["", "pi/", "pie", "2x", "1/2/3",
                                  "nan", "inf", "-inf", "1e400", "pi/0"])
def test_parse_number_rejects(text):
    with pytest.raises(FormatError):
        parse_number(text)


def test_parse_complex():
    assert parse_complex("0.5+0.5j") == 0.5 + 0.5j
    assert parse_complex("-1j") == -1j
    assert parse_complex("pi/2") == pytest.approx(math.pi / 2)
    with pytest.raises(FormatError):
        parse_complex("one")


@pytest.mark.parametrize("text", ["nan", "infj", "1+nanj", "-inf", "pi/0"])
def test_parse_complex_rejects_non_finite(text):
    with pytest.raises(FormatError):
        parse_complex(text)


def test_pure_states_round_trip_density():
    gen = np.random.default_rng(23)
    for n in (1, 2):
        s = random_pure(gen, n)
        assert validate_density(dm_from_pure(s).matrix, tol=1e-12).passed
