import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qsdiag import matrix_from_json, matrix_to_json
from qsdiag.cli import _parse_grid, main

MIXED = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)


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


@pytest.mark.parametrize("argv", [
    ["evolve", "RHO", "phase_flip:1", "--format", "json"],
    ["purify", "RHO", "--format", "json"],
    ["trace", "RHO", "0", "--format", "json"],
    ["ellipsoid", "phase_flip:1", "--format", "csv"],
])
def test_format_flag_exists_only_on_diagram(rho_file, capsys, argv):
    argv = [rho_file if a == "RHO" else a for a in argv]
    assert main(argv) == 2


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
