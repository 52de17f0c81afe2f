import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qsdiag.cli
import qsdiag.core
import qsdiag.kraus
from qsdiag import matrix_from_json, matrix_to_json
from qsdiag.bloch import (
    BlochAffineMap,
    affine_map_of_channel,
    bloch_from_dm,
    dm_from_bloch,
    ellipsoid_samples,
    points_to_csv,
)
from qsdiag.channels import make_amp_damp, make_deformation, make_rotation
from qsdiag.cli import MAX_STEPS, _build_parser, _parse_grid, main
from qsdiag.core import DensityMatrix, FormatError, PureState, basis_state, validate_density
from qsdiag.diagram import (
    MAX_DIAGRAM_EDGES,
    Circuit,
    Gate,
    build_diagram,
    build_gate,
    parse_circuit,
)
from qsdiag.kraus import KrausChannel, apply_channel, dilate_single_ancilla, kraus_from_unitary

MIXED = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
DEV_FULL = Path("/dev/full")  # every write to it fails with ENOSPC
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture()
def rho_file(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(matrix_to_json(MIXED) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(rho_file, capsys):
    code, out, _ = run(capsys, "validate", rho_file)
    assert code == 0
    assert "result: PASS" in out
    assert "min eigenvalue" in out


def test_validate_domain_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(matrix_to_json(np.diag([0.7, 0.4])) + "\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "result: FAIL" in out


def test_validate_malformed_json(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert "error:" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_evolve_identity_channel(rho_file, capsys):
    code, out, _ = run(capsys, "evolve", rho_file, "rotation_z:0", "--steps", "3")
    assert code == 0
    assert np.abs(matrix_from_json(out) - MIXED).max() < 1e-12


def test_evolve_phase_flip_half_turn(tmp_path, capsys):
    plus = tmp_path / "plus.json"
    plus.write_text(matrix_to_json(np.full((2, 2), 0.5)) + "\n")
    code, out, _ = run(capsys, "evolve", str(plus), "phase_flip:pi")
    assert code == 0
    got = matrix_from_json(out)
    # X -> cos(pi) X flips the coherence sign
    assert got[0, 1] == pytest.approx(-0.5)


def test_evolve_fixed_point_iteration(tmp_path, capsys):
    half = tmp_path / "half.json"
    half.write_text(matrix_to_json(np.eye(2) / 2) + "\n")
    code, out, _ = run(capsys, "evolve", str(half), "amp_damp_z_plus:pi/4",
                       "--steps", "50")
    assert code == 0
    got = matrix_from_json(out)
    assert np.abs(got - np.diag([1.0, 0.0])).max() < 1e-3


def test_evolve_rejects_unknown_channel(rho_file, capsys):
    code, _, err = run(capsys, "evolve", rho_file, "bogus:1")
    assert code == 2
    assert "bogus" in err


def test_evolve_rejects_negative_steps(rho_file, capsys):
    code, _, _ = run(capsys, "evolve", rho_file, "phase_flip:0.5", "--steps", "-1")
    assert code == 2


def test_evolve_rejects_nonphysical_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(matrix_to_json(np.array([[0.9, 0.5], [0.5, 0.1]])) + "\n")
    code, _, err = run(capsys, "evolve", str(bad), "phase_flip:0.5")
    assert code == 1
    assert "error:" in err


def one_usage_error(code, out, err):
    return code == 2 and out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command, name, payload", [
    ("validate", "latin1.json", b'{"rows": 1, "cols": 1, "re": [1], "im": [0]}\xff'),
    ("diagram", "latin1.qs", b"qubits 1\n# caf\xe9\nx 0\n"),
    ("validate", "deep.json", b"[" * 100_000),
], ids=["json-not-utf8", "circuit-not-utf8", "json-nested-too-deep"])
def test_unreadable_input_file_is_usage_error(tmp_path, capsys, command, name, payload):
    path = tmp_path / name
    path.write_bytes(payload)
    assert one_usage_error(*run(capsys, command, str(path)))


def test_deep_but_valid_json_is_usage_error_not_a_crash(tmp_path):
    # A parser that recurses once a level would overflow the C stack here and
    # kill the process, so this runs in a child.
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    proc = subprocess.run([sys.executable, "-m", "qsdiag.cli", "validate", str(path)],
                          capture_output=True, text=True)
    assert one_usage_error(proc.returncode, proc.stdout, proc.stderr)
    assert "nested deeper than" in proc.stderr


def test_evolve_channel_of_other_dimension_is_usage_error(tmp_path, capsys):
    two_qubits = tmp_path / "rho2.json"
    two_qubits.write_text(matrix_to_json(np.eye(4) / 4) + "\n")
    code, out, err = run(capsys, "evolve", str(two_qubits), "phase_flip:1")
    assert one_usage_error(code, out, err)
    assert "channel dimension 2 does not match state dimension 4" in err


def test_evolve_huge_environment_amplitude_is_usage_error(rho_file, capsys):
    code, out, err = run(capsys, "evolve", rho_file, "depolarizing_general:0:1e308,1,1,1")
    assert one_usage_error(code, out, err)
    assert "not normalized" in err


def test_evolve_steps_are_capped(rho_file, capsys):
    code, out, err = run(capsys, "evolve", rho_file, "phase_flip:1", "--steps", str(MAX_STEPS + 1))
    assert one_usage_error(code, out, err)
    assert f"--steps must be in 0..{MAX_STEPS}" in err


def test_evolve_steps_at_cap_are_accepted(rho_file, capsys, monkeypatch):
    calls = []

    def record(channel, rho, tol, steps):
        calls.append(steps)
        return rho

    monkeypatch.setattr(qsdiag.cli, "apply_channel", record)
    code, out, _ = run(capsys, "evolve", rho_file, "phase_flip:1", "--steps", str(MAX_STEPS))
    assert (code, calls) == (0, [MAX_STEPS])
    assert np.array_equal(matrix_from_json(out), MIXED)


@pytest.mark.parametrize("spec", ["amp_damp_y_minus:1.0",
                                  "depolarizing_general:0:0.8,0.4,0.4,0.2"])
def test_evolve_at_step_cap_stays_a_density_matrix(rho_file, spec, capsys):
    code, out, _ = run(capsys, "evolve", rho_file, spec, "--steps", str(MAX_STEPS))
    assert code == 0
    m = matrix_from_json(out)
    assert np.abs(m - m.conj().T).max() <= 1e-10
    assert abs(m.trace() - 1.0) <= 1e-10


# Amplitudes inside the spec parser's 1e-12 normalization: completeness defect 1.8e-12.
NEARLY_COMPLETE = "depolarizing_general:0:0.5,0.5,0.5,0.5000000000018"


@pytest.mark.parametrize("steps", [1000, MAX_STEPS])
def test_evolve_accepts_the_trace_drift_of_an_accepted_channel(rho_file, capsys, steps):
    # The trace drifts by up to the defect a step: 1.8e-9 after 1,000 steps.
    code, out, err = run(capsys, "evolve", rho_file, NEARLY_COMPLETE, "--steps", str(steps))
    assert (code, err) == (0, "")
    assert abs(matrix_from_json(out).trace() - 1.0) <= 10 * steps * 1.8e-12


def test_evolve_refuses_a_channel_less_complete_than_tol(rho_file, capsys):
    code, out, err = run(capsys, "evolve", rho_file, NEARLY_COMPLETE, "--tol", "1e-12")
    assert (code, out) == (1, "")
    assert "channel is not trace preserving (defect 1.800e-12 > 1.0e-12)" in err


def test_diagram_over_edge_cap_is_usage_error(tmp_path, capsys):
    circuit = tmp_path / "big.qs"
    # Each h on 10 qubits adds 2 x 2 x 2^9 = 2048 edges.
    circuit.write_text("qubits 10\n" + "h 0\n" * (MAX_DIAGRAM_EDGES // 2048 + 1))
    code, out, err = run(capsys, "diagram", str(circuit))
    assert one_usage_error(code, out, err)
    assert f"line {MAX_DIAGRAM_EDGES // 2048 + 2}," in err


HUGE_DIAGONAL = '{"rows": 2, "cols": 2, "re": [1e308, 0, 0, 1e308], "im": [0, 0, 0, 0]}'


@pytest.mark.parametrize("argv, payload, expected", [
    (["diagram", "FILE"], "qubits 1\ninput [1e308, 1e308]\n", 2),
    (["diagram", "FILE"], "qubits 1\nmatrix [[1e200,0],[0,1]] 0\n", 2),
    (["diagram", "FILE"], "qubits 1\nmatrix [[1e200,1e200],[1e200,1e200j]] 0\n", 2),
    (["validate", "FILE"], HUGE_DIAGONAL, 1),
    (["evolve", "FILE", "phase_flip:1"], HUGE_DIAGONAL, 1),
    (["purify", "FILE"], HUGE_DIAGONAL, 1),
], ids=["huge-input", "huge-matrix", "nan-defect-matrix", "validate", "evolve", "purify"])
def test_finite_extreme_input_fails_without_warnings(tmp_path, capsys, argv, payload, expected):
    """Overflow on finite input is rejected by the check after it, never warned about."""
    path = tmp_path / "input"
    path.write_text(payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == expected
    if argv[0] == "validate":
        assert err == "" and "result: FAIL" in out and "nan" not in out
    else:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_validate_reports_finite_trace_defect_for_opposite_huge_diagonal(tmp_path, capsys):
    """Partial sums of diag(1e308, 1e308, -1e308, -1e308) must not reach inf - inf."""
    path = tmp_path / "huge.json"
    path.write_text(matrix_to_json(np.diag([1e308, 1e308, -1e308, -1e308])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    assert "trace defect:       1.000000e+00\n" in out


def test_cli_import_loads_no_xml_or_network_modules():
    """Start-up stays free of `xml.sax.saxutils`, which imports urllib.request,
    http, email and ssl.  Bare `urllib` is not checked: pathlib imports urllib.parse."""
    probe = ("import sys, qsdiag.cli; print(sorted(m for m in "
             "('xml', 'http', 'email', 'ssl', 'urllib.request') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_purify_reports_state_and_angles(rho_file, capsys):
    code, out, _ = run(capsys, "purify", rho_file)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"state", "coefficients", "angles"}
    amps = np.array(doc["state"]["re"]) + 1j * np.array(doc["state"]["im"])
    assert doc["state"]["rows"] == 4 and doc["state"]["cols"] == 1
    assert np.linalg.norm(amps) == pytest.approx(1.0)
    assert doc["coefficients"]["c01"] == [0.0, 0.0]
    assert doc["angles"]["phi"] == 0.0


def test_purify_of_a_two_qubit_matrix_is_usage_error(tmp_path, capsys):
    two_qubits = tmp_path / "rho2.json"
    two_qubits.write_text(matrix_to_json(np.diag([0.4, 0.3, 0.2, 0.1])) + "\n")
    code, out, err = run(capsys, "purify", str(two_qubits))
    assert one_usage_error(code, out, err)
    assert "purification is defined for single-qubit states" in err


def test_trace_reduces_register(tmp_path, capsys):
    gen = np.random.default_rng(81)
    g = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    m = g @ g.conj().T
    m = m / m.trace()
    full = tmp_path / "rho2.json"
    full.write_text(matrix_to_json(m) + "\n")
    code, out, _ = run(capsys, "trace", str(full), "1")
    assert code == 0
    reduced = matrix_from_json(out)
    assert reduced.shape == (2, 2)
    assert np.abs(reduced - (m[:2, :2] + m[2:, 2:])).max() < 1e-12


@pytest.mark.parametrize("qubit, message", [
    ("5", "traced qubits (5,) out of range for 1 qubit(s)"),
    ("-1", "traced qubits (-1,) out of range for 1 qubit(s)"),
    ("0", "cannot trace out every qubit"),
])
def test_trace_unusable_qubit_is_usage_error(rho_file, capsys, qubit, message):
    code, out, err = run(capsys, "trace", rho_file, qubit)
    assert code == 2
    assert out == ""
    assert message in err


def test_evolve_validates_at_the_boundaries_only(rho_file, capsys, monkeypatch):
    """One channel check and two density checks (input, result) for 80 steps."""
    calls = {"density": 0, "channel": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qsdiag.core, "validate_density",
                        counted("density", qsdiag.core.validate_density))
    monkeypatch.setattr(qsdiag.kraus, "validate_channel",
                        counted("channel", qsdiag.kraus.validate_channel))
    code, out, _ = run(capsys, "evolve", rho_file, "amp_damp_y_minus:pi/3", "--steps", "80")
    assert code == 0 and out
    assert calls["density"] <= 2
    assert calls["channel"] == 1
    calls.update(density=0, channel=0)
    code, out, _ = run(capsys, "ellipsoid", "depolarizing_standard:0.4", "--grid", "3x4")
    assert code == 0 and out
    assert calls == {"density": 0, "channel": 1}


def test_evolve_zero_steps_prints_the_input(rho_file, capsys):
    code, out, _ = run(capsys, "evolve", rho_file, "amp_damp_z_plus:pi/2", "--steps", "0")
    assert code == 0
    assert out == matrix_to_json(MIXED) + "\n"


def test_ellipsoid_csv_shape(capsys):
    code, out, _ = run(capsys, "ellipsoid", "depolarizing_standard:pi/3",
                       "--grid", "3x4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == 1 + 3 * 4
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.abs(values).max() < 1e-12


def test_ellipsoid_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "ellipsoid", "phase_flip:1", "--grid", "nope")
    assert code == 2
    assert "grid" in err


def test_ellipsoid_grid_is_capped(capsys):
    code, out, err = run(capsys, "ellipsoid", "phase_flip:1", "--grid", "2x100000000")
    assert code == 2
    assert out == ""
    assert "1000000 points" in err


def test_ellipsoid_grid_at_cap_is_accepted():
    assert _parse_grid("1000x1000") == (1000, 1000)


@pytest.mark.parametrize("grid", ["1x4", "4x1", "0x0", "-3x-3"])
def test_ellipsoid_grid_below_2x2_is_usage_error(capsys, grid):
    code, out, err = run(capsys, "ellipsoid", "phase_flip:1", f"--grid={grid}")
    assert code == 2
    assert out == ""
    assert "at least 2x2" in err


def test_diagram_text_output(tmp_path, capsys):
    circ = tmp_path / "bell.txt"
    circ.write_text("qubits 2\nh 0\ncx 0 1\n")
    code, out, _ = run(capsys, "diagram", str(circ), "--mode", "simplified")
    assert code == 0
    assert "lines: 4" in out
    assert "mode: simplified" in out


def test_diagram_svg_output(tmp_path, capsys):
    circ = tmp_path / "bell.txt"
    circ.write_text("qubits 2\nh 0\ncx 0 1\n")
    code, out, _ = run(capsys, "diagram", str(circ), "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_diagram_parse_error_has_position(tmp_path, capsys):
    circ = tmp_path / "broken.txt"
    circ.write_text("qubits 2\nx 9\n")
    code, _, err = run(capsys, "diagram", str(circ))
    assert code == 2
    assert "line 2" in err


def test_out_flag_writes_file(rho_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "purify", rho_file, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["angles"]["theta1"] == pytest.approx(
        math.pi / 4)


@pytest.mark.parametrize("target", [".", "missing/report.txt"], ids=["directory", "missing-dir"])
def test_unwritable_out_target_is_usage_error(rho_file, tmp_path, capsys, target):
    assert one_usage_error(*run(capsys, "validate", rho_file, "--out", str(tmp_path / target)))


@pytest.mark.parametrize("argv", [
    ["validate", "RHO"],
    ["diagram", str(GOLDEN_DIR / "cnot.qs"), "--format", "svg"],
], ids=["validate", "diagram"])
def test_empty_out_target_is_usage_error(rho_file, capsys, argv):
    """`--out ""` names no file: it is refused, not taken as stdout."""
    argv = [rho_file if a == "RHO" else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", "")
    assert one_usage_error(code, out, err)
    assert "empty" in err


@pytest.mark.parametrize("target", [".", "missing/out.json"], ids=["directory", "missing-dir"])
@pytest.mark.parametrize("command, matrix", [
    ("purify", np.array([[0.9, 0.5], [0.5, 0.1]])),
    ("evolve", np.array([[0.9, 0.5], [0.5, 0.1]])),
], ids=["purify-nonphysical", "evolve-nonphysical"])
def test_unwritable_out_target_is_checked_before_the_command(tmp_path, capsys, target,
                                                            command, matrix):
    """A command that would fail on its input (exit 1) still exits 2 on an unwritable --out."""
    path = tmp_path / "rho.json"
    path.write_text(matrix_to_json(matrix) + "\n")
    argv = [command, str(path)] + (["phase_flip:1"] if command == "evolve" else [])
    assert one_usage_error(*run(capsys, *argv, "--out", str(tmp_path / target)))


@needs_dev_full
@pytest.mark.parametrize("fmt", ["text", "svg"])
def test_failing_stdout_write_is_one_error_line(fmt):
    """A full disk behind stdout exits 2 with one `error:` line, and no second
    report when the interpreter flushes stdout at exit."""
    with DEV_FULL.open("w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qsdiag.cli", "diagram", str(GOLDEN_DIR / "cnot.qs"),
             "--format", fmt],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ["diagram", str(GOLDEN_DIR / "mixed.qs"), "--format", "svg"],
    ["diagram", str(GOLDEN_DIR / "mixed.qs")],
    ["validate", "RHO"],
], ids=["diagram-svg", "diagram-text", "validate"])
def test_failing_out_write_is_usage_error(rho_file, capsys, argv):
    argv = [rho_file if a == "RHO" else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(DEV_FULL))
    assert one_usage_error(code, out, err)
    assert "No space left on device" in err


@pytest.mark.parametrize("text", ["qubits 2\nx 9\n", "qubits 10\n" + "h 0\n" * 200],
                         ids=["parse-error", "over-the-edge-cap"])
def test_failed_diagram_leaves_existing_out_file_untouched(tmp_path, capsys, text):
    circuit = tmp_path / "broken.qs"
    circuit.write_text(text)
    target = tmp_path / "out.svg"
    target.write_bytes(b"earlier output\n")
    assert one_usage_error(*run(capsys, "diagram", str(circuit), "--format", "svg",
                                "--out", str(target)))
    assert target.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("command", ["validate", "purify", "evolve", "trace"])
@pytest.mark.parametrize("matrix", [np.eye(3) / 3, np.array([[0.5, 0, 0], [0, 0.5, 0]]),
                                    np.array([[1.0]])], ids=["3x3", "2x3", "1x1"])
def test_matrix_shape_of_no_register_is_usage_error(tmp_path, capsys, command, matrix):
    """A matrix that is not 2^n x 2^n for n in 1..MAX_QUBITS fails on load, in every command."""
    path = tmp_path / "rho.json"
    path.write_text(matrix_to_json(matrix) + "\n")
    extra = {"evolve": ["phase_flip:1"], "trace": ["0"]}.get(command, [])
    code, out, err = run(capsys, command, str(path), *extra)
    assert one_usage_error(code, out, err)
    rows, cols = matrix.shape
    assert f"a {rows}x{cols} matrix fits no register of 1..10 qubits" in err


def _register_refusals():
    """(library call, argument) pairs that break the register rule, one per case."""
    takes_matrix = {
        "DensityMatrix": DensityMatrix,
        "validate_density": validate_density,
        "PureState": lambda m: PureState(m[0]),  # a vector of the row's length
        "KrausChannel": lambda m: KrausChannel((m,)),
    }
    takes_size = {
        "basis_state": lambda n: basis_state(n, 0),
        "parse_circuit": lambda n: parse_circuit(f"qubits {n}\n"),
    }
    for rows, cols in [(1, 1), (2, 3), (3, 3), (2048, 2048)]:
        # A read-only view of one entry: the 2048 x 2048 case allocates no 64 MB matrix.
        matrix = np.broadcast_to(np.complex128(1 / rows), (rows, cols))
        for name, call in takes_matrix.items():
            yield pytest.param(call, matrix, id=f"{name}-{rows}x{cols}")
    for n in (0, 11):
        for name, call in takes_size.items():
            yield pytest.param(call, n, id=f"{name}-{n}-qubits")


@pytest.mark.parametrize("call, arg", _register_refusals())
def test_library_refuses_what_fits_no_register(call, arg):
    """The library applies the CLI's register rule: 1..10 qubits, 2^n x 2^n matrices."""
    with pytest.raises(FormatError, match=r"fits no register of 1\.\.10 qubits|"
                                          r"qubit count must be in 1\.\.10"):
        call(arg)


_IDENTITY_MAP = BlochAffineMap(np.eye(3), np.zeros(3))
# case id -> (library call, its message): arguments that do not fit each other.
_MISFITS = {
    "KrausChannel-no-operators": (lambda: KrausChannel(()), "at least one operator"),
    "KrausChannel-two-sizes": (lambda: KrausChannel((np.eye(2), np.eye(4))), "share one dimension"),
    "apply_channel-negative-steps": (
        lambda: apply_channel(KrausChannel((np.eye(2),)), DensityMatrix(MIXED), steps=-1),
        "non-negative"),
    "kraus_from_unitary-2x2": (lambda: kraus_from_unitary(np.eye(2), PureState([1, 0])), "4x4"),
    "kraus_from_unitary-2-qubit-environment": (
        lambda: kraus_from_unitary(np.eye(4), basis_state(2, 0)), "single qubit"),
    "dilate_single_ancilla-2-qubit": (
        lambda: dilate_single_ancilla(KrausChannel((np.eye(4),))), "single-qubit"),
    "dilate_single_ancilla-3-operators": (
        lambda: dilate_single_ancilla(KrausChannel((np.eye(2) / math.sqrt(3),) * 3)),
        "at most two operators"),
    "bloch_from_dm-2-qubit": (lambda: bloch_from_dm(DensityMatrix(np.eye(4) / 4)), "single-qubit"),
    "dm_from_bloch-2-components": (lambda: dm_from_bloch([0.0, 0.0]), "3 components"),
    "affine_map_of_channel-2-qubit": (
        lambda: affine_map_of_channel(KrausChannel((np.eye(4),))), "single-qubit"),
    "ellipsoid_samples-1-latitude": (lambda: ellipsoid_samples(_IDENTITY_MAP, 1, 4), "n_lat"),
    "ellipsoid_samples-1-longitude": (lambda: ellipsoid_samples(_IDENTITY_MAP, 4, 1), "n_lon"),
    "points_to_csv-Nx2": (lambda: points_to_csv(np.zeros((2, 2))), r"\(N, 3\)"),
    "Circuit-repeated-arguments": (
        lambda: Circuit((Gate("cx", (), (1, 1), np.eye(4)),), basis_state(2, 0)),
        "repeats a qubit argument"),
    "Circuit-target-outside": (
        lambda: Circuit((build_gate("x", (), (1,), 2),), basis_state(1, 0)), "outside"),
    "Circuit-matrix-misfit": (
        lambda: Circuit((Gate("x", (), (0,), np.eye(4)),), basis_state(1, 0)),
        "does not fit"),
    "make_rotation-axis-w": (lambda: make_rotation("w", 0.5), "axis must be"),
    "make_deformation-unknown-kind": (
        lambda: make_deformation("spin_flip", 0.5), "unknown deformation kind"),
    "make_amp_damp-no-pole": (lambda: make_amp_damp("w", "plus", 0.5), "no pole"),
    "build_gate-qubit-outside": (lambda: build_gate("x", (), (2,), 2), "out of range"),
    "build_gate-unknown-name": (lambda: build_gate("frob", (), (0,), 1), "unknown gate"),
    "build_gate-repeated-qubits": (lambda: build_gate("cx", (), (0, 0), 2), "must be distinct"),
    "build_gate-matrix-without-matrix": (
        lambda: build_gate("matrix", (), (0,), 1), "needs an explicit matrix"),
    "build_gate-matrix-3x3": (
        lambda: build_gate("matrix", (), (0,), 2, matrix=np.eye(3)), "2x2 or 4x4"),
    "build_gate-matrix-with-parameters": (
        lambda: build_gate("matrix", (0.5,), (0,), 1, matrix=np.eye(2)), "takes no parameters"),
    "build_gate-parameter-count": (lambda: build_gate("rx", (), (0,), 1), r"takes 1 parameter"),
    "build_gate-arity": (lambda: build_gate("cx", (), (0,), 2), r"acts on 2 qubit"),
    "basis_state-index-outside": (lambda: basis_state(2, 4), "out of range"),
    "build_diagram-unknown-mode": (
        lambda: build_diagram(Circuit((), basis_state(1, 0)), mode="partial"), "mode must be"),
}


@pytest.mark.parametrize("call, message", _MISFITS.values(), ids=_MISFITS)
def test_library_refuses_arguments_that_do_not_fit(call, message):
    """Arguments that do not fit each other are a `FormatError`, as `core.FormatError`
    files them; no CLI route reaches these calls, so exit codes do not move."""
    with pytest.raises(FormatError, match=message):
        call()


def test_tol_flag_accepts_pi_fractions(rho_file, capsys):
    code, out, _ = run(capsys, "validate", rho_file, "--tol", "pi/4")
    assert code == 0
    assert "result: PASS" in out


def test_tol_env_variable(tmp_path, capsys, monkeypatch):
    # a slightly off-trace matrix passes only under the looser env tolerance
    near = np.diag([0.5 + 4e-7, 0.5 - 5e-7])
    path = tmp_path / "near.json"
    path.write_text(matrix_to_json(near) + "\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    monkeypatch.setenv("QSDIAG_TOL", "1e-5")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_flag_overrides_env(tmp_path, capsys, monkeypatch):
    near = np.diag([0.5 + 4e-7, 0.5 - 5e-7])
    path = tmp_path / "near.json"
    path.write_text(matrix_to_json(near) + "\n")
    monkeypatch.setenv("QSDIAG_TOL", "1e-5")
    code, _, _ = run(capsys, "validate", str(path), "--tol", "1e-12")
    assert code == 1


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["evolve"]) == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-1e-12", "pi/0"])
def test_tol_must_be_finite_and_non_negative(rho_file, capsys, tol):
    code, out, err = run(capsys, "validate", rho_file, "--tol", tol)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_tol_of_one_or_more_is_usage_error(tmp_path, capsys):
    """A tolerance of 1 or more would admit 1e308 entries, whose partial trace overflows."""
    huge = tmp_path / "huge.json"
    huge.write_text(matrix_to_json(np.diag([1e308, 1e308, -1e308, -1e308])))
    for tol in ("1", "1e308"):
        code, out, err = run(capsys, "trace", str(huge), "0", "--tol", tol)
        assert one_usage_error(code, out, err)
        assert "below 1" in err


def test_tol_env_must_be_non_negative(rho_file, capsys, monkeypatch):
    monkeypatch.setenv("QSDIAG_TOL", "-1")
    code, _, err = run(capsys, "purify", rho_file)
    assert code == 2
    assert "non-negative" in err


@pytest.mark.parametrize("statement", [
    "rx(nan) 0", "input [nan, 1]", "matrix [[nan,0],[0,1]] 0",
])
def test_non_finite_circuit_literal_is_positioned_usage_error(tmp_path, capsys, statement):
    circ = tmp_path / "nan.qs"
    circ.write_text(f"qubits 1\n{statement}\n")
    code, _, err = run(capsys, "diagram", str(circ))
    assert code == 2
    assert "line 2" in err


def test_json_booleans_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"rows": 2, "cols": 2, "re": [true, 0, 0, false], "im": [0, 0, 0, 0]}\n')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "PASS" not in out
    assert "boolean" in err


def test_json_strings_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "str.json"
    path.write_text('{"rows": 1, "cols": 1, "re": ["1"], "im": [0]}\n')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "PASS" not in out
    assert "strings" in err


@pytest.mark.parametrize("entry", ["1", True, [0], 10 ** 400],
                         ids=["string", "boolean", "nested-array", "int-beyond-float-range"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_bad_last_entry_of_a_large_matrix_is_usage_error(tmp_path, capsys, part, entry):
    doc = {"rows": 256, "cols": 256, "re": [0] * 65536, "im": [0] * 65536}
    doc[part][-1] = entry
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc) + "\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["evolve", "RHO", "phase_flip:1", "--format", "json"],
    ["purify", "RHO", "--format", "json"],
    ["trace", "RHO", "0", "--format", "json"],
    ["ellipsoid", "phase_flip:1", "--format", "csv"],
])
def test_format_flag_exists_only_on_diagram(rho_file, capsys, argv):
    argv = [rho_file if a == "RHO" else a for a in argv]
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["diagram", "CIRCUIT", "--tol", "junk"],
    ["diagram", "CIRCUIT", "--tol", "1e-10"],
    ["ellipsoid", "bit_flip:0.3", "--tol", "-5"],
    ["ellipsoid", "bit_flip:0.3", "--tol", "1e-10"],
])
def test_tol_flag_exists_only_where_a_matrix_is_validated(tmp_path, capsys, argv):
    circuit = tmp_path / "c.qs"
    circuit.write_text("qubits 1\nh 0\n")
    code, out, err = run(capsys, *[str(circuit) if a == "CIRCUIT" else a for a in argv])
    assert code == 2 and out == ""
    assert "error: unrecognized arguments: --tol" in err


def test_byte_identical_reruns(rho_file, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "purify", rho_file)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_console_script_entry_point(tmp_path):
    circ = tmp_path / "c.txt"
    circ.write_text("qubits 1\nx 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qsdiag.cli", "diagram", str(circ)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lines: 2" in proc.stdout


def _fresh(capsys, *argv):
    _build_parser.cache_clear()
    return run(capsys, *argv)


@pytest.mark.parametrize("first, first_code, second, second_code", [
    (["validate", "NEAR", "--tol", "1e-3"], 0, ["validate", "NEAR"], 1),
    (["evolve", "NEAR"], 2, ["validate", "RHO"], 0),
    (["--help"], 0, ["validate", "RHO"], 0),
], ids=["tol-then-default", "usage-error-then-valid", "help-then-valid"])
def test_reused_parser_matches_a_fresh_one(tmp_path, rho_file, capsys, monkeypatch,
                                            first, first_code, second, second_code):
    """A call on the process-wide parser equals one on a newly built parser."""
    monkeypatch.delenv("QSDIAG_TOL", raising=False)
    near = tmp_path / "near.json"
    near.write_text(matrix_to_json(np.diag([0.5 + 4e-7, 0.5 - 5e-7])) + "\n")
    paths = {"NEAR": str(near), "RHO": rho_file}
    first = [paths.get(a, a) for a in first]
    second = [paths.get(a, a) for a in second]
    first_result = _fresh(capsys, *first)
    reused = run(capsys, *second)
    assert reused == _fresh(capsys, *second)
    assert (first_result[0], reused[0]) == (first_code, second_code)
    assert first_result == _fresh(capsys, *first)


def test_subcommand_is_looked_up_on_each_call(rho_file, capsys, monkeypatch):
    """A replaced `cmd_*` attribute takes effect after the parser is cached."""
    assert run(capsys, "purify", rho_file)[0] == 0
    monkeypatch.setattr(qsdiag.cli, "cmd_purify", lambda args: (["replaced\n"], 0))
    assert run(capsys, "purify", rho_file) == (0, "replaced\n", "")
