import itertools
import json
import math
import operator
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrix_decode_oracle, random_density, random_pure
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
from qsdiag import core
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


def test_bounds_table_is_pinned():
    """`qsdiag.core` names every tolerance of the package once; changing a name or a value
    changes this table too, so it is never a side effect."""
    bounds = {name: value for name, value in vars(core).items()
              if name.endswith(("_TOL", "_EPS"))}
    assert bounds == {
        "ALGEBRAIC_TOL": 1e-12, "SPECTRAL_TOL": 1e-10, "DRIFT_TOL": 1e-9,
        "INDEPENDENCE_TOL": 1e-8, "TEXT_NORM_TOL": 1e-6, "EDGE_TOL": 1e-12,
        "PRUNE_TOL": 1e-14, "PHASE_TOL": 1e-15, "DEGENERATE_EPS": 1e-300,
    }


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


ENTRY_TYPES = "re/im entries must be JSON numbers, not strings, booleans or arrays"
TOO_DEEP = f"invalid JSON: nested deeper than {MAX_JSON_DEPTH} arrays/objects"


def malformed(text, message, ident=None):
    """A malformed matrix document and its message, the text after the CLI's `error: `."""
    return pytest.param(text, message, id=ident or text)


@pytest.mark.parametrize("text, message", [
    malformed("not json", "invalid JSON: invalid literal: line 1 column 1 (char 0)"),
    malformed('{"rows": 2, "cols": 2, "re": [1, 0, 0, 1]}',  # missing im
              "matrix document is missing fields: ['im']"),
    malformed('{"rows": 2, "cols": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]}',
              "re/im must each hold rows*cols = 4 entries, got 3 and 4"),
    malformed('{"rows": "2", "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}',
              "rows/cols must be integers"),
    malformed('{"rows": 2, "cols": 2, "re": [1, 0, 0, "x"], "im": [0, 0, 0, 0]}', ENTRY_TYPES),
    malformed('{"rows": 2, "cols": 2, "re": [1, 0, 0, NaN], "im": [0, 0, 0, 0]}',
              "invalid JSON: unexpected character: line 1 column 40 (char 39)"),
    malformed('{"rows": 2, "cols": 2, "re": [true, 0, 0, false], "im": [0, 0, 0, 0]}', ENTRY_TYPES),
    malformed('{"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [0, false, 0, 0]}', ENTRY_TYPES),
    # One boolean in a long list of numbers that are mostly not 0.0 or 1.0.
    malformed('{"rows": 16, "cols": 32, "re": [' + "0.5, 2, " * 255 + '0.5, true], "im": ['
              + "0, " * 511 + "0]}", ENTRY_TYPES, "true-among-other-numbers"),
    malformed('{"rows": 16, "cols": 32, "re": [' + "0, " * 511 + '0], "im": [0.5, false, '
              + "3, " * 509 + "0.5]}", ENTRY_TYPES, "false-among-other-numbers"),
    malformed('{"rows": 1, "cols": 1, "re": [1' + "0" * 400 + '], "im": [0]}',
              "invalid JSON: number is infinity when parsed as double: line 1 column 31 (char 30)",
              "int-beyond-float-range"),
    malformed('{"rows": 1, "cols": 1, "re": ["1"], "im": [0]}', ENTRY_TYPES),
    malformed('{"rows": 1, "cols": 1, "re": [1], "im": [[0]]}', ENTRY_TYPES),
    malformed("[1, 2, 3]", "matrix document must be a JSON object"),
    # RFC 8259 has no NaN or Infinity literal and no number beyond a double's range.
    malformed('{"rows": 1, "cols": 1, "re": [Infinity], "im": [0]}',
              "invalid JSON: unexpected character: line 1 column 31 (char 30)", "Infinity"),
    malformed('{"rows": 1, "cols": 1, "re": [1], "im": [-Infinity]}',
              "invalid JSON: no digit after minus sign: line 1 column 42 (char 41)", "-Infinity"),
    malformed('{"rows": 1, "cols": 1, "re": [1e400], "im": [0]}',
              "invalid JSON: number is infinity when parsed as double: line 1 column 31 (char 30)",
              "1e400"),
    malformed('\ufeff{"rows": 1, "cols": 1, "re": [1], "im": [0]}',
              "invalid JSON: byte order mark (BOM) is not supported: line 1 column 1 (char 0)",
              "utf8-bom"),
    malformed('{"rows": 1, "cols": 1, "re": [1], "im": [0], "x": "\\ud800"}',
              "invalid JSON: no matched low surrogate in string: line 1 column 58 (char 57)",
              "escaped-lone-surrogate-in-extra-field"),
    malformed(small_matrix_with("[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH), TOO_DEEP,
              "nested-past-MAX_JSON_DEPTH"),
    malformed(small_matrix_with('{"a": ' * MAX_JSON_DEPTH + "1" + "}" * MAX_JSON_DEPTH), TOO_DEEP,
              "objects-nested-past-MAX_JSON_DEPTH"),
    # Texts of MAX_JSON_DEPTH and MAX_JSON_DEPTH + 1 characters, about where
    # the depth guard starts to count.
    malformed("[" * MAX_JSON_DEPTH, "invalid JSON: unexpected end of data: "
              f"line 1 column {MAX_JSON_DEPTH + 1} (char {MAX_JSON_DEPTH})",
              "MAX_JSON_DEPTH-chars"),
    malformed(" " + "[" * MAX_JSON_DEPTH, "invalid JSON: unexpected end of data: "
              f"line 1 column {MAX_JSON_DEPTH + 2} (char {MAX_JSON_DEPTH + 1})",
              "MAX_JSON_DEPTH-brackets-in-one-more-char"),
    malformed("[" * (MAX_JSON_DEPTH + 1), TOO_DEEP, "MAX_JSON_DEPTH+1-brackets"),
])
def test_matrix_json_rejects_malformed(text, message):
    with pytest.raises(FormatError) as exc:
        matrix_from_json(text)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("re_part, im_part, message", [
    pytest.param([10 ** 400], [0],
                 "re/im entries must be numbers: int too large to convert to float",
                 id="int-beyond-float-range"),
    pytest.param([10 ** 400], ["1"], ENTRY_TYPES, id="int-beyond-float-range-in-re-string-in-im"),
    pytest.param([10 ** 400, "1"], [0, 0], ENTRY_TYPES,
                 id="string-after-an-int-beyond-float-range"),
])
def test_matrix_json_dict_names_a_wrong_type_before_an_overflow(re_part, im_part, message):
    doc = {"rows": 1, "cols": len(re_part), "re": re_part, "im": im_part}
    with pytest.raises(FormatError) as exc:
        matrix_from_json_dict(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", [np.float64(0.5), Decimal("0.5")],
                         ids=["numpy-float64", "Decimal"])
def test_matrix_json_dict_refuses_numbers_that_are_not_int_or_float(entry):
    # Both convert to a double, but a JSON document holds neither.
    with pytest.raises(FormatError) as exc:
        matrix_from_json_dict({"rows": 1, "cols": 2, "re": [0.5, entry], "im": [0, 0]})
    assert str(exc.value) == ENTRY_TYPES


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_matrix_json_dict_refuses_non_finite_entries(entry):
    with pytest.raises(FormatError) as exc:
        matrix_from_json_dict({"rows": 1, "cols": 2, "re": [0.5, 0.5], "im": [0, entry]})
    assert str(exc.value) == "matrix entries must be finite"


def matrix_with_run_at(index: int, run: str, fill: str) -> str:
    """`small_matrix_with('["<fill>...", <run>]')`, `run` starting at character `index`."""
    count = index - len(small_matrix_with('["", ')) + 1
    text = small_matrix_with('["' + fill * count + '", ' + run + "]")
    assert text[index:].startswith(run) and text[index - 1] == " "
    return text


# Characters of one to four UTF-8 bytes before the run.
FILLS = [pytest.param("a", id="ascii"), pytest.param("\u00e9", id="2-byte"),
         pytest.param("\u20ac", id="3-byte"), pytest.param("\U0001d11e", id="4-byte")]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("fill", FILLS + [pytest.param("\ud800", id="lone-surrogate")])
def test_matrix_json_refuses_a_deep_run_at_a_depth_scan_block_edge(fill, offset):
    deep = "[" * (MAX_JSON_DEPTH + 1) + "]" * (MAX_JSON_DEPTH + 1)
    text = matrix_with_run_at(core._DEPTH_SCAN_BLOCK + offset, deep, fill)
    with pytest.raises(FormatError) as exc:
        matrix_from_json(text)
    assert str(exc.value) == TOO_DEEP


@pytest.mark.parametrize("fill", FILLS)
def test_matrix_json_accepts_shallow_arrays_across_a_depth_scan_block_edge(fill):
    # More brackets than MAX_JSON_DEPTH, so the exact depth decides; the
    # first empty array opens before the edge and closes after it.
    siblings = ", ".join(["[]"] * MAX_JSON_DEPTH)
    text = matrix_with_run_at(core._DEPTH_SCAN_BLOCK - 1, siblings, fill)
    assert matrix_from_json(text).tolist() == [[1 + 0j]]


def test_json_depth_memory_is_bounded_by_its_blocks():
    # 750,000 empty arrays in an ignored field, 3.0 MB: enough brackets that
    # the exact depth is measured.  Masks and a running sum over the whole
    # text would take about 19 bytes a character.
    text = small_matrix_with("[" + ", ".join(["[]"] * 750_000) + "]")
    tracemalloc.start()
    try:
        depth = core._json_depth(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert depth == 3
    assert peak <= 3 * len(text)


def zeros_and_ones(extra: str, last_im: str = "0.0") -> str:
    """The 32 x 32 matrix |0><0| as JSON text, every entry 0.0 or 1.0, with one more
    field, which the decoder ignores, and `last_im` as the last entry of `im`."""
    re_part = ", ".join(["1.0"] + ["0.0"] * 1023)
    im_part = ", ".join(["0.0"] * 1023 + [last_im])
    return f'{{"x": {extra}, "rows": 32, "cols": 32, "re": [{re_part}], "im": [{im_part}]}}'


@pytest.mark.parametrize("text", [
    pytest.param(matrix_to_json(np.diag([1.0] + [0.0] * 255)), id="ket0-bra0-n8"),
    pytest.param(zeros_and_ones('"1.0"'), id="no-literal"),
    pytest.param(zeros_and_ones('["true", "no false here"]'), id="literals-inside-strings"),
])
def test_matrix_json_decodes_zeros_and_ones_documents(text):
    # Every entry reads 0.0 or 1.0, so each list would be typed whole.
    want = matrix_decode_oracle(text).view(np.uint64).tolist()
    assert matrix_from_json(text).view(np.uint64).tolist() == want


@pytest.mark.parametrize("extra", ['"1.0"', '["true", "no false here"]'],
                         ids=["no-literal", "literals-inside-strings"])
@pytest.mark.parametrize("entry", ["true", "false"])
def test_matrix_json_refuses_a_boolean_among_zeros_and_ones(entry, extra):
    with pytest.raises(FormatError) as exc:
        matrix_from_json(zeros_and_ones(extra, last_im=entry))
    assert str(exc.value) == ENTRY_TYPES


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


def test_matrix_json_keeps_the_signed_zeros_of_re_plus_1j_im():
    # Each zero paired with each zero and with a number of either sign:
    # re + 1j*im turns a real -0.0 whose partner has no minus sign, and
    # every imaginary -0.0, into +0.0.
    values = [-0.0, 0.0, -1.5, 1.5]
    re_part, im_part = (list(pair) for pair in zip(*itertools.product(values, repeat=2)))
    text = json.dumps({"rows": 4, "cols": 4, "re": re_part, "im": im_part})
    want = matrix_decode_oracle(text).view(np.uint64).tolist()
    assert matrix_from_json(text).view(np.uint64).tolist() == want
    assert matrix_from_json_dict(json.loads(text)).view(np.uint64).tolist() == want


# Entries of drawn matrix documents: numbers, with the 0.0 and 1.0 a boolean
# converts to, integers about where doubles stop being exact and where
# 64-bit integers end, and values the decoder refuses.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(operator.add, st.sampled_from([0, 1, 2 ** 53, -2 ** 53, 2 ** 63, -2 ** 63, 2 ** 64]),
              st.integers(-2, 2)),
)
ZEROS_AND_ONES = st.sampled_from([0.0, -0.0, 1.0, 0, 1])
FAULTS = st.one_of(
    st.booleans(), st.none(), st.text("a1", max_size=2),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=2),
    st.builds(operator.mul, st.sampled_from([1, -1]), st.integers(10 ** 309, 10 ** 309 + 9)),
)


@st.composite
def matrix_documents(draw):
    """A matrix document of numbers, mostly 0.0 and 1.0 in some, with up to two faults.

    Past its first 12 entries a list repeats one number, which takes some
    lists past the 256 entries up to which the decoder types every entry.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, 5, 8, 100]))
    size = rows * cols
    entries = draw(st.sampled_from([NUMBERS, ZEROS_AND_ONES]))
    head = min(size, 12)
    parts = [draw(st.lists(entries, min_size=head, max_size=head)) + [draw(entries)] * (size - head)
             for _ in "ri"]
    for part, index, fault in draw(st.lists(st.tuples(st.sampled_from(parts), st.integers(
            0, size - 1), FAULTS), max_size=2)):
        part[index] = fault
    return {"rows": rows, "cols": cols, "re": parts[0], "im": parts[1]}


def decoded(decode, arg):
    """The bits of the matrix that `decode` makes of `arg`, or its FormatError's message."""
    try:
        return decode(arg).view(np.uint64).tolist()
    except FormatError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(matrix_documents())
def test_matrix_json_decodes_like_the_oracle(doc):
    text = json.dumps(doc)
    try:
        want = matrix_decode_oracle(text).view(np.uint64).tolist()
    except ValueError as exc:
        want = str(exc)
    assert decoded(matrix_from_json_dict, doc) == want
    if any(type(x) is int and abs(x) > sys.float_info.max for x in doc["re"] + doc["im"]):
        # Strict RFC 8259 parsing refuses a number beyond a double's range.
        assert decoded(matrix_from_json, text).startswith(
            "invalid JSON: number is infinity when parsed as double")
    else:
        assert decoded(matrix_from_json, text) == want


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
