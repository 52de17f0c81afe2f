import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import immerse_oracle, random_pure, random_unitary
from qsdiag import (
    Circuit,
    CircuitParseError,
    DensityMatrix,
    FormatError,
    Gate,
    affine_map_of_channel,
    basis_state,
    build_diagram,
    build_gate,
    decompose_map,
    make_amp_damp,
    parse_circuit,
    render_svg,
    render_svg_chunks,
    render_text,
    render_text_chunks,
    simulate,
    synthesize_purification_circuit,
)
from qsdiag.diagram import EDGE_TOL, MAX_DIAGRAM_EDGES

SQ2 = 1.0 / math.sqrt(2.0)
GOLDEN_DIR = Path(__file__).parent / "golden"


def active_set(row):
    return {i for i, flag in enumerate(row) if flag}


def support(state, tol=EDGE_TOL):
    return {i for i, a in enumerate(state.amplitudes) if abs(a) > tol}


# --- parsing -----------------------------------------------------------------

def test_parse_minimal_circuit():
    circ = parse_circuit("qubits 2\ninput 0\nx 0\n")
    assert circ.n_qubits == 2
    assert len(circ.gates) == 1
    assert circ.gates[0].name == "x"
    assert circ.gates[0].targets == (0,)
    assert np.array_equal(circ.input_state.amplitudes, [1, 0, 0, 0])


def test_parse_defaults_to_ground_input():
    circ = parse_circuit("qubits 1\nh 0\n")
    assert np.array_equal(circ.input_state.amplitudes, [1, 0])


def test_parse_comments_and_blank_lines():
    text = "# a comment\nqubits 1\n\ninput 1  # trailing comment\nz 0\n"
    circ = parse_circuit(text)
    assert np.array_equal(circ.input_state.amplitudes, [0, 1])


def test_parse_amplitude_list_input():
    circ = parse_circuit("qubits 1\ninput [0.70710678, 0.70710678]\n")
    assert np.abs(circ.input_state.amplitudes - np.array([SQ2, SQ2])).max() < 1e-8


def test_parse_rejects_badly_normalized_input():
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits 1\ninput [1.0, 1.0]\n")


def test_parse_parameters_accept_pi_fractions():
    circ = parse_circuit("qubits 1\nry(pi/2) 0\n")
    assert circ.gates[0].params[0] == pytest.approx(math.pi / 2)


def test_parse_controlled_gate_orders_control_first():
    circ = parse_circuit("qubits 2\ncx 1 0\n")
    gate = circ.gates[0]
    assert gate.qubit_args == (1, 0)   # as listed: control then target
    assert gate.targets == (0, 1)      # storage order is sorted
    # control = qubit 1: |10> -> |11|, lower half untouched
    assert np.array_equal(gate.matrix, np.eye(4)[[0, 1, 3, 2]])


def test_parse_matrix_literal():
    for literal in ("[[0,1],[1,0]]", "[ [0,1] , [1,0] ]"):
        circ = parse_circuit(f"qubits 1\nmatrix {literal} 0\n")
        assert np.array_equal(circ.gates[0].matrix, np.array([[0, 1], [1, 0]]))


def test_parse_matrix_literal_rejects_non_unitary():
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits 1\nmatrix [[1,1],[0,1]] 0\n")


@pytest.mark.parametrize("text,fragment", [
    ("x 0\n", "qubits"),                      # register size must come first
    ("qubits 0\n", "qubit count"),
    ("qubits 11\n", "qubit count"),
    ("qubits 2\nx 5\n", "5"),                 # out-of-range qubit named
    ("qubits 2\nfrob 0\n", "frob"),
    ("qubits 2\nswap 0\n", "argument"),
    ("qubits 2\nx 0 1\n", "argument"),
    ("qubits 2\ncx 0 0\n", "distinct"),
    ("qubits 2\nry 0\n", "parameter"),
    ("qubits 2\nry(1) extra 0\n", "argument"),
    ("qubits 2\ninput 4\n", "input"),
    ("qubits 1\nrx(nan) 0\n", "line 2, column 1: number 'nan' is not finite"),
    ("qubits 1\nrx(inf) 0\n", "line 2, column 1: number 'inf' is not finite"),
    ("qubits 1\ninput [nan, 1]\n", "line 2, column 1: complex number 'nan' is not finite"),
    ("qubits 1\nmatrix [[nan,0],[0,1]] 0\n", "line 2, column 8: complex number 'nan'"),
    ("qubits 1\nmatrix    [[nan,0],[0,1]] 0\n", "line 2, column 11: complex number 'nan'"),
    ("qubits 1\n  matrix\t[[nan,0],[0,1]] 0\n", "line 2, column 10: complex number 'nan'"),
    ("qubits 1\nmatrix [[0,1]junk[1,0]] 0\n", "line 2"),   # only commas separate rows
    ("qubits 1\nmatrix [[0,1][1,0]] 0\n", "line 2"),
    ("qubits 1\nmatrix [[0,1],,[1,0]] 0\n", "line 2"),
    # The column is the statement's again once a literal's text is read.
    ("qubits 1\nmatrix [[0,1],[1,0]] 0\n  frob 0\n", "line 3, column 3: unknown gate 'frob'"),
    ("qubits 1\nmatrix [[0,1],[1,0]] 0 0\n", "line 2, column 1: gate qubit arguments"),
    ("qubits 1\nmatrix [[1,1],[0,1]] 0\n", "line 2, column 1: matrix literal is not unitary"),
])
def test_parse_error_cases(text, fragment):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)


def test_build_gate_rejects_nan_matrix_literal():
    with pytest.raises(ValueError):
        build_gate("matrix", (), (0,), 1, matrix=[[math.nan, 0], [0, 1]])


def test_parse_errors_carry_positions():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("qubits 2\nx 0\nywxz 1\n")
    assert err.value.line == 3
    assert "line 3" in str(err.value)


# --- gates and simulation ----------------------------------------------------

def test_build_gate_matrix_and_oracle_immersion_match_kron():
    gate = build_gate("x", (), (0,), 2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.array_equal(gate.matrix, x)
    assert np.array_equal(
        immerse_oracle(gate.matrix, gate.targets, 2),
        np.kron(np.eye(2), x),
    )


def test_simulate_empty_circuit_returns_input():
    circ = parse_circuit("qubits 2\ninput 3\n")
    assert np.array_equal(simulate(circ).amplitudes, basis_state(2, 3).amplitudes)


def test_simulate_hadamard():
    out = simulate(parse_circuit("qubits 1\nh 0\n"))
    assert np.abs(out.amplitudes - np.array([SQ2, SQ2])).max() < 1e-12


def test_simulate_bell_preparation():
    out = simulate(parse_circuit("qubits 2\nh 0\ncx 0 1\n"))
    assert np.abs(out.amplitudes - np.array([SQ2, 0, 0, SQ2])).max() < 1e-12


def test_simulate_swap():
    out = simulate(parse_circuit("qubits 2\ninput 1\nswap 0 1\n"))
    assert np.array_equal(out.amplitudes, basis_state(2, 2).amplitudes)


def test_simulate_purification_of_maximally_mixed():
    circ = synthesize_purification_circuit(DensityMatrix(np.eye(2) / 2))
    out = simulate(circ)
    assert np.abs(out.amplitudes - np.array([SQ2, 0, 0, SQ2])).max() < 1e-12


def test_gate_phase_conventions():
    s_out = simulate(parse_circuit("qubits 1\ninput 1\ns 0\n"))
    assert s_out.amplitudes[1] == pytest.approx(1j)
    t_out = simulate(parse_circuit("qubits 1\ninput 1\nt 0\n"))
    assert t_out.amplitudes[1] == pytest.approx(np.exp(1j * math.pi / 4))


# --- diagrams ----------------------------------------------------------------

def test_identity_circuit_keeps_single_active_line():
    diag = build_diagram(parse_circuit("qubits 2\ninput 0\n"), mode="complete")
    assert diag.n_lines == 4
    assert [active_set(row) for row in diag.active] == [{0}]


def test_cnot_diagram_edges_and_activity():
    circ = parse_circuit("qubits 2\ninput 2\ncx 1 0\n")
    complete = build_diagram(circ, mode="complete")
    # complete mode: every non-null entry, including the untouched lines
    assert set(complete.layers[0].edges) == {
        (0, 0, 1.0), (1, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0),
    }
    simplified = build_diagram(circ, mode="simplified")
    assert [active_set(row) for row in simplified.active] == [{2}, {3}]
    assert set((s, d) for s, d, _ in simplified.layers[0].edges) == {(2, 3)}


def test_complete_mode_edge_count_matches_entry_count():
    circ = parse_circuit("qubits 2\nh 0\ncx 0 1\nswap 0 1\n")
    diag = build_diagram(circ, mode="complete")
    for gate, layer in zip(circ.gates, diag.layers):
        u = immerse_oracle(gate.matrix, gate.targets, 2)
        # complete mode keeps one edge per non-null entry of the immersion
        expect = int((np.abs(u) > EDGE_TOL).sum())
        assert len(layer.edges) == expect


# name -> (parameters, qubits) for the random circuits of the oracle test.
_ORACLE_GATES = {
    "x": (0, 1), "y": (0, 1), "z": (0, 1), "h": (0, 1), "s": (0, 1), "t": (0, 1),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "phase": (1, 1), "swap": (0, 2),
    "cx": (0, 2), "cz": (0, 2), "ch": (0, 2), "cry": (1, 2), "cphase": (1, 2),
    "cswap": (0, 3), "matrix": (0, None),
}


def random_oracle_circuit(gen, n, n_gates) -> Circuit:
    """Seeded circuit over the whole gate set, including 1- and 2-qubit matrix literals."""
    names = sorted(_ORACLE_GATES)
    gates = []
    for _ in range(n_gates):
        name = names[int(gen.integers(len(names)))]
        n_params, arity = _ORACLE_GATES[name]
        matrix = None
        if name == "matrix":
            arity = int(gen.integers(1, 3))
            matrix = random_unitary(gen, 2 ** arity)
        qubits = [int(q) for q in gen.choice(n, size=arity, replace=False)]
        params = [float(gen.uniform(0.0, 2 * math.pi)) for _ in range(n_params)]
        gates.append(build_gate(name, params, qubits, n, matrix=matrix))
    if gen.integers(2):
        state = random_pure(gen, n)
    else:
        state = basis_state(n, int(gen.integers(2 ** n)))
    return Circuit(tuple(gates), state)


def diagram_oracle(circuit, mode):
    """Layers and boundaries from a column scan of each dense immersed gate."""
    psi = circuit.input_state.amplitudes
    active = [bool(abs(a) > EDGE_TOL) for a in psi]
    layers, boundaries = [], [(active, list(psi))]
    for gate in circuit.gates:
        u = immerse_oracle(gate.matrix, gate.targets, circuit.n_qubits)
        psi = u @ psi
        edges = [(src, dst, complex(u[dst, src]))
                 for src in range(psi.size) for dst in range(psi.size)
                 if abs(u[dst, src]) > EDGE_TOL and (mode == "complete" or active[src])]
        reached = [False] * psi.size
        for src, dst, _ in edges:
            reached[dst] = reached[dst] or active[src]
        active = reached
        layers.append((gate.label, edges))
        boundaries.append((active, list(psi)))
    return layers, boundaries


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_build_diagram_matches_column_scan_oracle(n):
    gen = np.random.default_rng(500 + n)
    for _ in range(3):
        circ = random_oracle_circuit(gen, n, 10)
        for mode in ("complete", "simplified"):
            diag = build_diagram(circ, mode=mode)
            layers, boundaries = diagram_oracle(circ, mode)
            assert [(layer.label, list(layer.edges)) for layer in diag.layers] == layers
            assert diag.active.tolist() == [a for a, _ in boundaries]
            # Amplitudes within 1e-12: exact equality would pin BLAS zgemv rounding.
            want = np.array([amps for _, amps in boundaries])
            assert np.abs(diag.amplitudes - want).max() <= 1e-12


def test_purification_diagram_growth_pattern():
    rho = DensityMatrix([[0.5, 0.25], [0.25, 0.5]])
    circ = synthesize_purification_circuit(rho)
    diag = build_diagram(circ, mode="simplified")
    sets = [active_set(row) for row in diag.active]
    assert sets[0] == {0}
    assert sets[1] == {0, 2}
    assert sets[2] == {0, 2, 3}
    assert all(s == {0, 2, 3} for s in sets[2:])


def random_mixing_circuit(gen, max_qubits=4, max_gates=8) -> str:
    """Random circuit whose gates cannot cancel amplitudes exactly.

    Rotations at generic angles and permutation gates (x, cx, swap) keep
    exact interference measure-zero, so the simplified diagram's support
    tracking stays tight.  Hadamards are excluded on purpose: h-h pairs
    cancel exactly (see test_exact_cancellation_is_overapproximated).
    """
    n = int(gen.integers(1, max_qubits + 1))
    lines = [f"qubits {n}", f"input {int(gen.integers(0, 2 ** n))}"]
    for _ in range(int(gen.integers(1, max_gates + 1))):
        angle = float(gen.uniform(0.2, 3.0))
        if n == 1:
            choices = ["x", "rx", "ry", "rz", "phase"]
        else:
            choices = ["x", "rx", "ry", "rz", "phase", "cx", "swap", "crx", "cry"]
        name = choices[int(gen.integers(0, len(choices)))]
        if name in ("cx", "swap", "crx", "cry"):
            a, b = gen.choice(n, size=2, replace=False)
            args = f"{int(a)} {int(b)}"
        else:
            args = str(int(gen.integers(0, n)))
        if name in ("rx", "ry", "rz", "phase", "crx", "cry"):
            lines.append(f"{name}({angle:.9f}) {args}")
        else:
            lines.append(f"{name} {args}")
    return "\n".join(lines) + "\n"


def test_simplified_final_activity_equals_support():
    gen = np.random.default_rng(71)
    for _ in range(30):
        circ = parse_circuit(random_mixing_circuit(gen, max_qubits=3, max_gates=5))
        diag = build_diagram(circ, mode="simplified")
        assert active_set(diag.active[-1]) == support(simulate(circ))


def test_exact_cancellation_is_overapproximated():
    """Support propagation cannot see amplitudes cancel.

    Two Hadamards in a row return |0>, but the intermediate layer spreads
    onto both lines, so the simplified diagram keeps line 1 active at the
    end even though its final amplitude is zero.  This over-approximation
    is intentional: activity answers "could information reach this line",
    not "is the amplitude nonzero".
    """
    circ = parse_circuit("qubits 1\nh 0\nh 0\n")
    diag = build_diagram(circ, mode="simplified")
    assert active_set(diag.active[-1]) == {0, 1}
    assert support(simulate(circ)) == {0}


def test_custom_input_marks_support_lines():
    state = random_pure(np.random.default_rng(72), 2)
    amps = ", ".join(f"{a.real:.12f}{a.imag:+.12f}j" for a in state.amplitudes)
    circ = parse_circuit(f"qubits 2\ninput [{amps}]\n")
    diag = build_diagram(circ, mode="simplified")
    assert active_set(diag.active[0]) == support(circ.input_state)


def test_edge_cap_admits_its_value_and_names_the_crossing_line():
    # On 10 qubits each h adds 2 x 2 x 2^9 = 2048 complete-mode edges, z and x 1024 each.
    per_h = MAX_DIAGRAM_EDGES // 2048
    at_cap = "# comment\nqubits 10\n" + "h 0\n" * (per_h - 1) + "z 1\n\nx 1\n"
    assert len(parse_circuit(at_cap).gates) == per_h + 1
    with pytest.raises(CircuitParseError, match="exceeds the cap") as info:
        parse_circuit(at_cap + "h 2\n")
    assert info.value.line == per_h + 5
    assert f"line {per_h + 5}," in str(info.value)


def test_build_diagram_caps_circuits_built_in_code():
    # Each h on 10 qubits adds 2048 complete-mode edges, as in the parse-time cap.
    h = build_gate("h", (), [0], 10)
    per_h = MAX_DIAGRAM_EDGES // 2048
    at_cap = Circuit((h,) * per_h, basis_state(10, 0))
    assert len(build_diagram(at_cap, mode="simplified").layers) == per_h
    over = Circuit((h,) * 400, basis_state(10, 0))
    for mode in ("complete", "simplified"):
        with pytest.raises(FormatError, match=f"exceeds the cap .* at gate {per_h} "):
            build_diagram(over, mode=mode)


def test_diagram_rejects_bad_mode():
    circ = parse_circuit("qubits 1\nx 0\n")
    with pytest.raises(ValueError):
        build_diagram(circ, mode="compact")


# --- renderers ---------------------------------------------------------------

def test_render_text_is_deterministic():
    circ = parse_circuit("qubits 2\nh 0\ncx 0 1\n")
    diag = build_diagram(circ, mode="simplified")
    assert render_text(diag) == render_text(diag)


def test_render_text_shows_structure():
    circ = parse_circuit("qubits 2\ninput 2\ncx 1 0\n")
    text = render_text(build_diagram(circ, mode="simplified"))
    assert "lines: 4" in text
    assert "input: |10>" in text
    assert "2 -> 3" in text
    assert "output amplitudes:" in text


def test_render_text_uses_thick_and_thin_segments():
    circ = parse_circuit("qubits 1\ninput 1\nx 0\n")
    text = render_text(build_diagram(circ, mode="simplified"))
    lines = text.splitlines()
    row0 = next(l for l in lines if l.startswith("0 |0>"))
    row1 = next(l for l in lines if l.startswith("1 |1>"))
    assert "----" in row0 and "====" in row0  # becomes active after the flip
    assert "====" in row1 and "----" in row1  # starts active, goes dormant


def test_render_svg_well_formed_and_deterministic():
    circ = parse_circuit("qubits 2\nh 0\ncx 0 1\n")
    diag = build_diagram(circ, mode="complete")
    svg = render_svg(diag)
    assert svg == render_svg(diag)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_render_svg_marks_activity_with_stroke_width():
    circ = parse_circuit("qubits 1\ninput 1\n")
    svg = render_svg(build_diagram(circ, mode="simplified"))
    assert 'stroke-width="2.6"' in svg  # the active line
    assert 'stroke-width="0.8"' in svg  # the dormant line


def test_render_svg_labels_amplitudes():
    circ = parse_circuit("qubits 1\nh 0\n")
    svg = render_svg(build_diagram(circ, mode="complete"))
    assert "0.707" in svg


@pytest.mark.parametrize("mode", ["complete", "simplified"])
def test_mixed_golden_renders_are_byte_identical(mode):
    """A custom input, complex a+bj labels, 12 layers (two-digit connector
    cells) and, in complete mode, thin edges leaving dormant lines."""
    circ = parse_circuit((GOLDEN_DIR / "mixed.qs").read_text(encoding="utf-8"))
    diag = build_diagram(circ, mode=mode)
    assert render_text(diag).encode() == (GOLDEN_DIR / f"mixed.{mode}.txt").read_bytes()
    assert render_svg(diag).encode() == (GOLDEN_DIR / f"mixed.{mode}.svg").read_bytes()


@pytest.mark.parametrize("name, mode, golden", [
    ("identity", "complete", "identity"), ("cnot", "simplified", "cnot"),
    ("purify", "simplified", "purify"), ("mixed", "complete", "mixed.complete"),
    ("mixed", "simplified", "mixed.simplified"),
])
def test_chunks_written_in_turn_are_the_golden_renders(name, mode, golden):
    """Each renderer streams its document as a header, runs of layers and a footer."""
    diag = build_diagram(parse_circuit((GOLDEN_DIR / f"{name}.qs").read_text()), mode=mode)
    for chunks, suffix in ((render_text_chunks, "txt"), (render_svg_chunks, "svg")):
        pieces = list(chunks(diag))
        assert len(pieces) >= 2 and all(isinstance(piece, str) for piece in pieces)
        assert "".join(pieces).encode() == (GOLDEN_DIR / f"{golden}.{suffix}").read_bytes()


def test_circuit_validation_catches_misfit_gate():
    with pytest.raises(ValueError):
        Circuit((build_gate("x", (), (1,), 2),), basis_state(1, 0))


CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def test_gate_and_circuit_derive_targets_and_register_size():
    """A Gate sorts its qubit arguments into its targets, and a Circuit takes its
    register size from its input state."""
    gate = Gate("cx", (), (2, 0), CX)
    assert gate.qubit_args == (2, 0) and gate.targets == (0, 2)
    state = basis_state(3, 5)
    circuit = Circuit((gate,), state)
    assert circuit.n_qubits == state.n_qubits == 3
    assert circuit.gates == (gate,) and circuit.input_state is state


@pytest.mark.parametrize("gate, message", [
    (Gate("cx", (), (5, 0), CX), r"gate 'cx 5 0' targets a qubit outside the register"),
    (Gate("cx", (), (0, 0), CX), r"gate 'cx 0 0' repeats a qubit argument"),
    (Gate("x", (), (-1,), np.eye(2)[::-1]), r"gate 'x -1' targets a qubit outside the register"),
], ids=["unsorted", "repeated", "negative"])
def test_circuit_rejects_gate_targets_that_are_not_its_sorted_arguments(gate, message):
    """A Circuit refuses a gate whose qubit arguments repeat or leave the register."""
    with pytest.raises(FormatError, match=f"^{message}$"):
        Circuit((gate,), basis_state(3, 0))


def test_circuit_rejects_gate_matrix_that_misfits_its_targets():
    gate = Gate("x", (), (0,), np.eye(4, dtype=complex))
    with pytest.raises(FormatError, match=r"^gate 'x 0' matrix does not fit its 1 target\(s\)$"):
        Circuit((gate,), basis_state(2, 0))


# --- records holding arrays --------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: parse_circuit("qubits 1\nh 0\n").gates[0],
    lambda: make_amp_damp("x", "plus", 0.7),
    lambda: affine_map_of_channel(make_amp_damp("x", "plus", 0.7)),
    lambda: decompose_map(affine_map_of_channel(make_amp_damp("x", "plus", 0.7))),
    lambda: parse_circuit("qubits 2\ninput [0.6, 0, 0, 0.8]\nh 0\ncx 0 1\n"),
], ids=["Gate", "KrausChannel", "BlochAffineMap", "MapDecomposition", "Circuit"])
def test_array_records_compare_by_identity(make):
    """Equal content does not make two records equal, and comparing never raises."""
    a, b = make(), make()
    assert a == a and hash(a) == hash(a)
    assert a != b and len({a, b}) == 2
