"""The gate-local diagram kernel against the dense `immerse_gate` oracle.

Random circuits over the whole gate set (n <= 7, both modes) must give the
oracle's edges, labels and activity exactly, its amplitudes to 1e-12 and
byte-identical renders, and their final active lines must cover the
simulated support.  A guard test keeps the dense immersion out of the
n = 10 hot path.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdiag.composite
import qsdiag.diagram
from helpers import random_pure, random_unitary
from qsdiag import (
    Circuit,
    basis_state,
    build_diagram,
    build_gate,
    parse_circuit,
    render_svg,
    render_text,
    simulate,
)
from qsdiag.diagram import DiagramLayer, LineActivity, StateDiagram
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


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(circuit=circuits(), mode=st.sampled_from(["complete", "simplified"]))
def test_kernel_matches_dense_oracle(circuit, mode):
    diag = build_diagram(circuit, mode=mode)
    layers, boundaries = diagram_oracle(circuit, mode)
    assert [(layer.label, list(layer.edges)) for layer in diag.layers] == layers
    assert [list(b.active) for b in diag.boundaries] == [a for a, _ in boundaries]
    dense = np.array([amps for _, amps in boundaries])
    assert np.abs(np.array([b.amplitudes for b in diag.boundaries]) - dense).max() <= 1e-12
    final = simulate(circuit).amplitudes
    assert np.abs(final - dense[-1]).max() <= 1e-12
    assert all(diag.boundaries[-1].active[i] for i in np.flatnonzero(np.abs(final) > 1e-9))
    oracle = StateDiagram(
        circuit.n_qubits, mode,
        tuple(DiagramLayer(label, *(np.array([edge[j] for edge in edges], dtype=dtype)
                                    for j, dtype in enumerate((int, int, complex))))
              for label, edges in layers),
        tuple(LineActivity(np.array(active), np.array(amps)) for active, amps in boundaries),
    )
    assert render_text(diag) == render_text(oracle)
    assert render_svg(diag) == render_svg(oracle)


def test_n10_diagram_never_builds_the_dense_immersion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("immerse_gate called on the diagram path")

    monkeypatch.setattr(qsdiag.composite, "immerse_gate", refuse)
    monkeypatch.setattr(qsdiag.diagram, "immerse_gate", refuse, raising=False)
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
