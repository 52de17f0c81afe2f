"""The gate-local diagram kernel against the dense immersion oracle.

The oracle (`helpers.immerse_oracle`) reads every entry of a gate's
2^n x 2^n immersion off the bits of its row and column index, and shares
no code with the kernel's bit-scatter tables.

Random circuits over the whole gate set (n <= 7, both modes, basis and
custom inputs) must give the oracle's edges, labels and activity exactly,
its amplitudes to 1e-12, and renders byte-identical to the per-layer
reference renderers below, and their final active lines must cover the
simulated support.  Circuits parsed from a small pool of repeated
statements must match the oracle of the same circuit built gate by gate,
while building each distinct statement once, and a diagram or a simulation
looks up each distinct gate's edge layout once.  Every amplitude row must
hold the bits of summing its gate's edges onto a zeroed row, also where a
gate's products are assigned.  A guard test keeps the peak memory of an
n = 10 build and simulation below one dense immersion, and another keeps
the streamed renders' peak memory below their output's length.  Renders
with 3- and 4-digit line labels (n = 8, 10) must equal the reference
renderers, and a 10-qubit circuit at the edge cap must keep all its
layouts cached.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdiag.diagram
from helpers import immerse_oracle, random_pure, random_unitary
from qsdiag import (
    Circuit,
    FormatError,
    basis_state,
    build_diagram,
    build_gate,
    core,
    parse_circuit,
    render_svg,
    render_svg_chunks,
    render_text,
    render_text_chunks,
    simulate,
)
from qsdiag.diagram import EDGE_TOL, DiagramLayer, Gate, StateDiagram
from test_diagram import diagram_oracle

# name -> (parameters, qubits); every base gate also comes in its c-prefixed form.
_BASE = {
    "x": (0, 1), "y": (0, 1), "z": (0, 1), "h": (0, 1), "s": (0, 1), "t": (0, 1),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "phase": (1, 1), "swap": (0, 2),
}
GATES = {**_BASE, **{"c" + name: (p, k + 1) for name, (p, k) in _BASE.items()}}

# Multiples of pi/2 give entries that vanish exactly or fall just below EDGE_TOL.
ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _matrix_literal(draw, dim):
    """A dense random unitary, or a permutation with phases (exact zeros)."""
    gen = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        return random_unitary(gen, dim)
    return np.eye(dim)[gen.permutation(dim)] * np.exp(1j * gen.uniform(0, 2 * math.pi, dim))


# ---------------------------------------------------------------------------
# Reference renderers: one layer at a time, every string built from the
# diagram's per-layer fields, with the geometry written out as literals.


def escape_oracle(text):
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def amp_oracle(z):
    re_part = z.real if z.real != 0 else 0.0
    im_part = z.imag if z.imag != 0 else 0.0
    if abs(im_part) < EDGE_TOL:
        return f"{re_part:.3g}"
    if abs(re_part) < EDGE_TOL:
        return f"{im_part:.3g}j"
    return f"{re_part:.3g}{im_part:+.3g}j"


def input_label_oracle(diagram):
    amps = diagram.amplitudes[0]
    hot = np.flatnonzero(np.abs(amps) > EDGE_TOL)
    if hot.size == 1 and abs(amps[hot[0]] - 1.0) < 1e-9:
        return f"|{hot[0]:0{diagram.n_qubits}b}>"
    return "custom"


def render_text_oracle(diagram):
    n_lines = diagram.n_lines
    n_layers = len(diagram.layers)
    iw = len(str(n_lines - 1))
    dw = len(str(max(n_layers, 1)))
    out = [
        f"lines: {n_lines}  layers: {n_layers}  mode: {diagram.mode}",
        f"input: {input_label_oracle(diagram)}",
        "",
    ]
    actives = diagram.active.tolist()
    edges = [layer.edges for layer in diagram.layers]
    touched = [{line for edge in layer_edges for line in edge[:2]} for layer_edges in edges]
    cells = [f"[{t + 1:>{dw}}]" for t in range(n_layers)]
    blank = "[" + " " * dw + "]"
    for i in range(n_lines):
        row = [f"{i:>{iw}} |{i:0{diagram.n_qubits}b}> "]
        for t in range(n_layers):
            row.append("====" if actives[t][i] else "----")
            row.append(cells[t] if i in touched[t] else blank)
        row.append("====" if actives[n_layers][i] else "----")
        out.append("".join(row))
    for t, layer in enumerate(diagram.layers):
        out.append("")
        out.append(f"[{t + 1}] {layer.label}")
        out.extend(f"    {src} -> {dst}  {amp_oracle(amp)}" for src, dst, amp in edges[t])
    out.append("")
    out.append("output amplitudes:")
    final = diagram.amplitudes[-1]
    for i in np.flatnonzero(np.abs(final) > EDGE_TOL).tolist():
        out.append(f"    {i}  {amp_oracle(complex(final[i]))}")
    out.append("")
    return "\n".join(out)


STROKES_ORACLE = ('stroke="#b6c2cc" stroke-width="0.8"', 'stroke="#16324f" stroke-width="2.6"')
TEXT_ATTRS_ORACLE = 'font-family="monospace" font-size="11" fill="#5b6770"'
AMP_ATTRS_ORACLE = 'font-family="monospace" font-size="9" fill="#5b6770"'


def render_svg_oracle(diagram):
    n_lines = diagram.n_lines
    n_layers = len(diagram.layers)
    width = f"{2 * 70.0 + n_layers * 150.0 + 40.0:.1f}"
    height = f"{56.0 + (n_lines - 1) * 30.0 + 40.0:.1f}"
    y = 56.0 + np.arange(n_lines) * 30.0
    ys = [f"{v:.1f}" for v in y.tolist()]
    xb = [70.0 + t * 150.0 for t in range(n_layers + 1)]
    xs = [f"{x:.1f}" for x in xb]
    xw = [f"{x + 40.0:.1f}" for x in xb]

    title = (f"{diagram.n_qubits} qubit(s), {n_layers} layer(s), {diagram.mode}, "
             f"input {input_label_oracle(diagram)}")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="70.0" y="20" font-family="monospace" '
        f'font-size="13" fill="#16324f">{escape_oracle(title)}</text>',
    ]
    parts.extend(f'<text x="12.0" y="{v + 4.0:.1f}" {TEXT_ATTRS_ORACLE}>'
                 f'{i} |{i:0{diagram.n_qubits}b}&gt;</text>' for i, v in enumerate(y.tolist()))
    for t, row in enumerate(diagram.active.tolist()):
        parts.extend(f'<line x1="{xs[t]}" y1="{yi}" x2="{xw[t]}" y2="{yi}" {STROKES_ORACLE[on]}/>'
                     for yi, on in zip(ys, row))
    for t, layer in enumerate(diagram.layers):
        x0, x1 = xb[t] + 40.0, xb[t + 1]
        parts.append(f'<text x="{(x0 + x1) / 2.0:.1f}" y="38.0" '
                     f'text-anchor="middle" {TEXT_ATTRS_ORACLE}>{escape_oracle(layer.label)}</text>')
        ex0, ex1, lx = xw[t], xs[t + 1], f"{x0 + 0.38 * (x1 - x0):.1f}"
        y0, y1 = y[layer.src], y[layer.dst]
        label_y = (y0 + 0.38 * (y1 - y0) - 4.0).tolist()
        strokes = diagram.active[t][layer.src].tolist()
        for (s, d, a), ly, on in zip(layer.edges, label_y, strokes):
            parts.append(f'<line x1="{ex0}" y1="{ys[s]}" x2="{ex1}" y2="{ys[d]}" '
                         f'{STROKES_ORACLE[on]}/>')
            parts.append(f'<text x="{lx}" y="{ly:.1f}" {AMP_ATTRS_ORACLE}>{amp_oracle(a)}</text>')
        has_out = np.zeros(n_lines, dtype=bool)
        has_out[layer.src] = True
        parts.extend(f'<line x1="{ex0}" y1="{ys[i]}" x2="{ex1}" y2="{ys[i]}" {STROKES_ORACLE[0]}/>'
                     for i in np.flatnonzero(~has_out).tolist())
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 7))
    # Matrix literals get several slots, so both literal kinds show up often.
    names = sorted(name for name, (_, k) in GATES.items() if k <= n) + ["matrix"] * 4
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(names))
        matrix = None
        if name == "matrix":
            n_params, arity = 0, draw(st.integers(1, min(2, n)))
            matrix = _matrix_literal(draw, 2 ** arity)
        else:
            n_params, arity = GATES[name]
        qubits = draw(st.permutations(range(n)))[:arity]
        params = [draw(ANGLES) for _ in range(n_params)]
        gates.append(build_gate(name, params, qubits, n, matrix=matrix))
    if draw(st.booleans()):
        state = basis_state(n, draw(st.integers(0, 2 ** n - 1)))
    else:
        state = random_pure(np.random.default_rng(draw(SEEDS)), n)
    return Circuit(n, tuple(gates), state)


def check_against_oracle(circuit, mode, reference=None):
    """The kernel's diagram, state and renders of `circuit` against the dense
    oracle of `reference` (by default the circuit itself)."""
    diag = build_diagram(circuit, mode=mode)
    layers, boundaries = diagram_oracle(reference or circuit, mode)
    assert [(layer.label, list(layer.edges)) for layer in diag.layers] == layers
    assert diag.active.tolist() == [a for a, _ in boundaries]
    dense = np.array([amps for _, amps in boundaries])
    assert np.abs(diag.amplitudes - dense).max() <= 1e-12
    final = simulate(circuit).amplitudes
    assert np.abs(final - dense[-1]).max() <= 1e-12
    assert all(diag.active[-1][i] for i in np.flatnonzero(np.abs(final) > 1e-9))
    oracle = StateDiagram(
        circuit.n_qubits, mode,
        tuple(DiagramLayer(label, *(np.array([edge[j] for edge in edges], dtype=dtype)
                                    for j, dtype in enumerate((int, int, complex))))
              for label, edges in layers),
        np.array([active for active, _ in boundaries]), dense,
    )
    assert render_text(diag) == render_text_oracle(oracle)
    assert render_svg(diag) == render_svg_oracle(oracle)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(circuit=circuits(), mode=st.sampled_from(["complete", "simplified"]))
def test_kernel_matches_dense_oracle(circuit, mode):
    check_against_oracle(circuit, mode)


def _literal_text(matrix):
    return "[" + ",".join("[" + ",".join(repr(complex(z)) for z in row) + "]"
                          for row in matrix) + "]"


def _statement_text(name, params, qubits, matrix):
    head = f"matrix {_literal_text(matrix)}" if name == "matrix" else name
    if params:
        head += "(" + ",".join(repr(p) for p in params) + ")"
    return head + " " + " ".join(str(q) for q in qubits)


@st.composite
def repeated_circuits(draw):
    """(n, circuit text, statements): the text uses a small pool of statements,
    each possibly many times, and `statements` lists the (name, params, qubits,
    matrix) of every position.  The pool always holds two different 2x2
    literals on one qubit (one label, two sets of values) and, from two
    qubits up, draws controlled forms half the time."""
    n = draw(st.integers(1, 5))
    q = draw(st.integers(0, n - 1))
    first, second = _matrix_literal(draw, 2), _matrix_literal(draw, 2)
    if np.array_equal(first, second):
        second = -second
    pool = [("matrix", (), (q,), first), ("matrix", (), (q,), second)]
    names = sorted(name for name, (_, k) in GATES.items() if k <= n)
    controlled = [name for name in names if name.startswith("c")]
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(controlled if controlled and draw(st.booleans()) else names))
        n_params, arity = GATES[name]
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        pool.append((name, tuple(draw(ANGLES) for _ in range(n_params)), qubits, None))
    statements = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                                  min_size=1, max_size=12))]
    if draw(st.booleans()):
        head = f"input {draw(st.integers(0, 2 ** n - 1))}"
    else:
        amps = random_pure(np.random.default_rng(draw(SEEDS)), n).amplitudes
        head = "input [" + ", ".join(repr(complex(z)) for z in amps) + "]"
    # Indents and comments are not part of a statement's text.
    lines = [" " * draw(st.integers(0, 2)) + _statement_text(*statement)
             + draw(st.sampled_from(["", "  # again"])) for statement in statements]
    return n, "\n".join([f"qubits {n}", head, *lines]) + "\n", statements


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(drawn=repeated_circuits(), mode=st.sampled_from(["complete", "simplified"]))
def test_repeated_statements_match_dense_oracle(drawn, mode):
    n, text, statements = drawn
    circuit = parse_circuit(text)
    # Identical statement text is one shared Gate object, and only then.
    assert len({id(gate) for gate in circuit.gates}) == len({_statement_text(*s)
                                                             for s in statements})
    reference = Circuit(n, tuple(build_gate(name, params, qubits, n, matrix=matrix)
                                 for name, params, qubits, matrix in statements),
                        circuit.input_state)
    check_against_oracle(circuit, mode, reference)


def test_each_distinct_statement_is_built_once(monkeypatch):
    calls = []
    build_gate_once = qsdiag.diagram.build_gate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build_gate_once(*args, **kwargs)
    monkeypatch.setattr(qsdiag.diagram, "build_gate", counted)
    statements = ["h 0", "cx 0 1", "matrix [[0,1j],[1j,0]] 1"]
    circuit = parse_circuit("qubits 2\n" + "\n".join(statements * 100) + "\n")
    assert len(circuit.gates) == 300 and calls == ["h", "cx", "matrix"]
    assert len({id(gate) for gate in circuit.gates}) == 3
    # Each Gate derives its label once, so every position of a statement shows one string.
    layers = build_diagram(circuit).layers
    for first, gate in enumerate(circuit.gates[:3]):
        assert all(layer.label is gate.label for layer in layers[first::3])


def test_gate_matrices_are_read_only():
    circuit = parse_circuit("qubits 2\nh 0\ncx 0 1\nh 0\n")
    assert circuit.gates[0] is circuit.gates[2]
    with pytest.raises(ValueError, match="read-only"):
        circuit.gates[0].matrix[0, 0] = 0
    # A Gate built in code holds its own complex copy: the caller's array stays the caller's.
    owned = np.array([[0, 1], [1, 0]])
    gate = Gate("flip", (), (0,), (0,), owned)
    owned[:] = [[1, 0], [0, 1]]
    assert gate.matrix.dtype == complex and not gate.matrix.flags.writeable
    assert np.array_equal(gate.matrix, [[0, 1], [1, 0]])
    assert build_diagram(Circuit(1, (gate,), basis_state(1, 0))).layers[0].edges == (
        (0, 1, 1), (1, 0, 1))


def test_one_target_gate_holds_its_own_copy_of_a_shared_constant():
    """A one-target gate needs no reorder, so only the Gate itself copies the shared
    constant its builder returns: the copy must be its own, complex and read-only."""
    gate = build_gate("x", (), (1,), 3)
    assert gate.targets == (1,) and gate.matrix.dtype == complex
    assert not gate.matrix.flags.writeable
    assert np.array_equal(gate.matrix, core.SIGMA_X)
    assert not np.shares_memory(gate.matrix, core.SIGMA_X)
    assert np.array_equal(core.SIGMA_X, [[0, 1], [1, 0]])


def test_one_layout_lookup_per_distinct_gate():
    def lookups():
        info = qsdiag.diagram._edge_layout.cache_info()
        return info.hits + info.misses

    before = lookups()
    circuit = parse_circuit("qubits 3\n" + "h 0\ncx 0 2\nrz(0.5) 1\n" * 20)
    assert len(circuit.gates) == 60 and lookups() == before
    build_diagram(circuit, mode="simplified")
    assert lookups() == before + 3
    simulate(circuit)
    assert lookups() == before + 6


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("mode", ["complete", "simplified"])
def test_wide_line_labels_match_the_reference_renders(n, mode):
    """Line labels of 3 and 4 digits (n = 8, 10) and 2-digit layer cells, from a
    custom input, in both renderers."""
    gen = np.random.default_rng(n)
    statements = ["h 0", f"cx 0 {n - 1}", f"swap 1 {n - 2}", f"rz(0.7) {n // 2}", "t 3"] * 2
    circuit = parse_circuit(f"qubits {n}\n" + "\n".join(statements) + "\n")
    circuit = Circuit(n, circuit.gates, random_pure(gen, n))
    diag = build_diagram(circuit, mode=mode)
    assert render_text(diag) == render_text_oracle(diag)
    assert render_svg(diag) == render_svg_oracle(diag)


def test_n10_diagram_never_builds_the_dense_immersion():
    n = 10
    circuit = parse_circuit(
        f"qubits {n}\n"
        + "".join(f"h {q}\n" for q in range(n))
        + "".join(f"cx {q} {(q + 1) % n}\n" for q in range(n))
    )
    tracemalloc.start()
    try:
        diag = build_diagram(circuit, mode="complete")
        state = simulate(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(diag.layers) == 2 * n
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    # Everything together stays below the size of one dense 2^n x 2^n immersion.
    assert peak < 16 * 4 ** n


@pytest.mark.parametrize("chunks, fraction", [(render_svg_chunks, 1 / 3), (render_text_chunks, 1)],
                         ids=["svg", "text"])
def test_streamed_render_peak_memory_stays_below_its_output(chunks, fraction):
    """Consuming the chunks holds about one run of layers, not the document.

    Sixteen `h` layers on 10 qubits in complete mode make 32,768 edges: a
    7.9 MB SVG and a 0.9 MB text.  Streamed, the peaks read about 0.25 and
    0.8 of those lengths; rendered whole, they read about 3x and 10x.
    """
    n = 10
    circuit = parse_circuit(f"qubits {n}\n" + "".join(f"h {q % n}\n" for q in range(16)))
    diag = build_diagram(circuit, mode="complete")
    tracemalloc.start()
    try:
        length = sum(len(chunk) for chunk in chunks(diag))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fraction * length


def dense_edges(gate, n_qubits):
    """(src, dst, amp) of every non-null entry of the dense immersion, in (src, dst) order."""
    u = immerse_oracle(gate.matrix, gate.targets, n_qubits)
    return [(src, dst, complex(u[dst, src])) for src in range(2 ** n_qubits)
            for dst in range(2 ** n_qubits) if abs(u[dst, src]) > EDGE_TOL]


def test_edge_layouts_are_keyed_by_register_targets_and_pattern():
    """In one process, layouts that share part of their key must not be confused:
    one register and targets with three patterns, one pattern with two sets of
    values, and one gate on two register sizes."""
    qsdiag.diagram._edge_layout.cache_clear()
    for n, statements in ((2, ["cx 0 1", "cx 1 0", "cz 0 1"]),
                          (2, ["rz(0.3) 0", "rz(1.1) 0"]),
                          (3, ["cx 0 1", "rz(1.1) 0"])):
        circuit = parse_circuit(f"qubits {n}\n" + "\n".join(statements) + "\n")
        for gate in circuit.gates:
            src, dst, amp = qsdiag.diagram._gate_edges(gate, n)
            edges = list(zip(src.tolist(), dst.tolist(), amp.tolist()))
            assert edges == dense_edges(gate, n), (n, gate.label)
    # Only the second rz reuses a layout.
    info = qsdiag.diagram._edge_layout.cache_info()
    assert (info.hits, info.misses) == (1, 6)


def test_complete_mode_layers_share_read_only_layouts():
    circuit = parse_circuit("qubits 3\nh 0\ncx 0 2\nh 0\n")
    first, _, third = build_diagram(circuit, mode="complete").layers
    for layer in (first, third):
        assert not layer.src.flags.writeable and not layer.dst.flags.writeable
    assert first.src is third.src and first.dst is third.dst


def test_boundaries_are_rows_of_one_table_per_diagram():
    circuit = parse_circuit("qubits 3\ninput 5\nh 0\ncx 0 2\nrz(0.5) 1\n")
    diag = build_diagram(circuit, mode="simplified")
    for table, dtype in ((diag.amplitudes, complex), (diag.active, bool)):
        assert table.shape == (len(circuit.gates) + 1, 8) and table.dtype == dtype
    assert diag.active[0].tolist() == [i == 5 for i in range(8)]
    assert diag.amplitudes[-1] == pytest.approx(simulate(circuit).amplitudes)


def test_amplitude_rows_hold_the_bits_of_sums_onto_zeroed_rows():
    """A gate that sends one edge into each line has its products assigned, not
    summed, and a product of zeros can be -0.0: every row must still hold the
    bits that summing each gate's edges onto a zeroed row gives."""
    circuit = parse_circuit("qubits 2\ninput [0.6, 0, 0, -0.8j]\n"
                            "z 0\ny 1\ncz 0 1\nrz(2.5) 0\nh 1\nx 0\n")
    for mode in ("complete", "simplified"):
        table = build_diagram(circuit, mode=mode).amplitudes
        psi = table[0]
        for t, gate in enumerate(circuit.gates):
            src, dst, amp = qsdiag.diagram._gate_edges(gate, 2)
            psi, prev = np.zeros(4, dtype=complex), psi
            np.add.at(psi, dst, amp * prev[src])
            assert table[t + 1].tobytes() == psi.tobytes(), (mode, gate.label)


def test_renderers_treat_the_diagram_as_read_only():
    circuit = parse_circuit("qubits 3\ninput 5\nh 0\ncx 0 2\nrz(0.5) 1\nx 2\n")
    for mode in ("complete", "simplified"):
        diag = build_diagram(circuit, mode=mode)
        text, svg = render_text(diag), render_svg(diag)
        diag.active.flags.writeable = diag.amplitudes.flags.writeable = False
        assert (render_text(diag), render_svg(diag)) == (text, svg)


def test_gate_over_the_cap_caches_no_layout():
    # 4^10 non-null entries on all 10 qubits: 2^20 edges, four times the cap.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    matrix = functools.reduce(np.kron, [h] * 10)
    gate = Gate("h10", (), tuple(range(10)), tuple(range(10)), matrix)
    circuit = Circuit(10, (gate,), basis_state(10, 0))
    before = qsdiag.diagram._edge_layout.cache_info()
    with pytest.raises(FormatError, match=r"exceeds the cap .* at gate 0 "):
        build_diagram(circuit)
    after = qsdiag.diagram._edge_layout.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_edge_layout_cache_stays_bounded():
    layout = qsdiag.diagram._edge_layout
    maxsize = layout.cache_info().maxsize
    assert maxsize == qsdiag.diagram._LAYOUT_CACHE_SIZE
    for pattern in range(1, maxsize + 40):  # more distinct 4x4 masks than the cache holds
        mask = np.array([(pattern >> bit) & 1 for bit in range(16)], dtype=bool)
        src, _, entry = layout(3, (0, 2), mask.tobytes())
        assert src.size == 2 * mask.sum() and set(entry.tolist()) == set(np.flatnonzero(mask))
    assert layout.cache_info().currsize <= maxsize


def test_layouts_of_a_circuit_at_the_cap_stay_cached():
    """A 10-qubit circuit under the edge cap has at most 256 gates (each has at
    least 2^10 edges), so the cache keeps all of its layouts: a second build
    looks every one up again without a miss.  Here 256 permutation literals,
    no two with the same targets and pattern, make exactly MAX_DIAGRAM_EDGES."""
    n = 10
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(4)))
    gates = tuple(build_gate("matrix", (), pairs[i % len(pairs)], n,
                             matrix=np.eye(4)[list(perms[i // len(pairs)])])
                  for i in range(qsdiag.diagram._LAYOUT_CACHE_SIZE))
    assert len({(gate.targets, gate.pattern) for gate in gates}) == len(gates)
    circuit = Circuit(n, gates, basis_state(n, 0))
    assert sum(len(layer.src) for layer in build_diagram(circuit).layers) == (
        qsdiag.diagram.MAX_DIAGRAM_EDGES)
    before = qsdiag.diagram._edge_layout.cache_info()
    build_diagram(circuit, mode="simplified")
    after = qsdiag.diagram._edge_layout.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + len(gates))
