"""Circuits and diagrams of states.

A diagram of states draws one horizontal line per basis state (2^n lines
for n qubits) and one column per gate.  Every non-null entry of a gate's
immersed unitary becomes an edge from the input line (column index) to
the output line (row index).  In `complete` mode all edges are kept; in
`simplified` mode a reachability pass marks which lines can carry
amplitude, edges leaving dormant lines are pruned, and dormant lines are
drawn thin.

Diagrams and simulation are built gate-locally: the immersed unitary is
the 2^k x 2^k gate on its targets and the identity elsewhere, so its
edges, and the next state vector, follow from the gate's own non-null
entries and two bit-scatter tables.  The dense 2^n x 2^n immersion
(`qsdiag.composite.immerse_gate`) is never built.

Circuit text format, one statement per line, `#` starts a comment:

    qubits 2            # register size, must come first (1..10)
    input 2             # basis-state index (default 0), or input [a0, a1, ...]
    x 0                 # gate name, then qubit arguments
    ry(pi/2) 1          # parametrized gate; decimals or pi-fractions
    cry(2pi/3) 1 0      # controlled form: control qubit first
    matrix [[0,1],[1,0]] 0   # explicit 1- or 2-qubit unitary

Gate set: x y z h s t rx(t) ry(t) rz(t) phase(t) swap, controlled forms
c<name> (control listed first), and matrix literals.  For multi-qubit
gates the first listed qubit is the most significant index bit; an
amplitude list for `input` is renormalized (rejected if off by > 1e-6).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .composite import _scatter_table
from .core import (
    MAX_QUBITS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    FormatError,
    PureState,
    parse_complex,
    parse_number,
    unitarity_defect,
)

# Entries below this magnitude do not produce diagram edges.
EDGE_TOL = 1e-12

_SQ2 = 1.0 / math.sqrt(2.0)


def _rx(t):
    c, s = math.cos(t / 2.0), math.sin(t / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(t):
    c, s = math.cos(t / 2.0), math.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t):
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex)


def _phase(t):
    return np.array([[1, 0], [0, np.exp(1j * t)]], dtype=complex)


# name -> (n_params, arity, builder(*params) -> matrix).  Multi-qubit
# matrices are written with the first listed qubit as the most significant
# index bit (ket order |q_first q_second>).
_BASE_GATES = {
    "x": (0, 1, lambda: SIGMA_X),
    "y": (0, 1, lambda: SIGMA_Y),
    "z": (0, 1, lambda: SIGMA_Z),
    "h": (0, 1, lambda: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)),
    "s": (0, 1, lambda: np.array([[1, 0], [0, 1j]], dtype=complex)),
    "t": (0, 1, lambda: np.array([[1, 0], [0, np.exp(0.25j * math.pi)]], dtype=complex)),
    "rx": (1, 1, _rx),
    "ry": (1, 1, _ry),
    "rz": (1, 1, _rz),
    "phase": (1, 1, _phase),
    "swap": (0, 2, lambda: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)),
}


class CircuitParseError(FormatError):
    """Syntax or semantic error in circuit text, annotated with a position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Gate:
    """One gate instance: display form plus the matrix over sorted targets.

    `qubit_args` preserves the argument order as written (control first
    for controlled gates); `targets` is the same set sorted ascending and
    `matrix` is expressed with bit j of its index addressing targets[j].
    """

    name: str
    params: tuple
    qubit_args: tuple
    targets: tuple
    matrix: np.ndarray

    @property
    def label(self) -> str:
        head = self.name
        if self.params:
            head += "(" + ",".join(f"{p:.6g}" for p in self.params) + ")"
        return head + " " + " ".join(str(q) for q in self.qubit_args)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple
    input_state: PureState

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        if self.input_state.n_qubits != self.n_qubits:
            raise ValueError("input state size does not match the register")
        for g in self.gates:
            if g.targets and g.targets[-1] >= self.n_qubits:
                raise ValueError(f"gate {g.label!r} targets a qubit outside the register")
            if g.matrix.shape != (1 << len(g.targets),) * 2:
                raise ValueError(
                    f"gate {g.label!r} matrix does not fit its {len(g.targets)} target(s)")


def _reorder_to_sorted(matrix: np.ndarray, listed: tuple) -> tuple:
    """Re-express a listed-order (MSB-first) gate matrix over sorted targets."""
    k = len(listed)
    targets = tuple(sorted(listed))
    # Sorted bit j (qubit targets[j]) is listed bit k-1-i, where listed[i] == targets[j].
    omap = _scatter_table(tuple(k - 1 - listed.index(t) for t in targets))
    return targets, matrix[np.ix_(omap, omap)]


def build_gate(name: str, params, qubits, n_qubits: int, matrix=None) -> Gate:
    """Construct a validated Gate.

    `qubits` is the argument list as written (control first for c-prefixed
    names).  For name == "matrix" pass the literal matrix as `matrix`.
    """
    params = tuple(float(p) for p in params)
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate qubit arguments {qubits} must be distinct")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} out of range for {n_qubits} qubit register")

    if name == "matrix":
        if matrix is None:
            raise ValueError("matrix gate needs an explicit matrix")
        m = np.asarray(matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError("matrix literals must be 2x2 or 4x4")
        if params:
            raise ValueError("matrix gate takes no parameters")
        arity = 1 if m.shape[0] == 2 else 2
        defect = unitarity_defect(m)
        if not defect <= 1e-10:  # also rejects NaN
            raise ValueError(f"matrix literal is not unitary (defect {defect:.3e})")
        full = m
    else:
        base_name = name
        controlled = False
        if name not in _BASE_GATES and name.startswith("c") and name[1:] in _BASE_GATES:
            base_name = name[1:]
            controlled = True
        if base_name not in _BASE_GATES:
            raise ValueError(f"unknown gate {name!r}")
        n_params, arity, builder = _BASE_GATES[base_name]
        if len(params) != n_params:
            raise ValueError(f"{name} takes {n_params} parameter(s), got {len(params)}")
        full = builder(*params)
        if controlled:
            dim = full.shape[0]
            block = np.eye(2 * dim, dtype=complex)
            block[dim:, dim:] = full
            full = block
            arity += 1
    if len(qubits) != arity:
        raise ValueError(f"{name} acts on {arity} qubit(s), got {len(qubits)} argument(s)")
    targets, sorted_matrix = _reorder_to_sorted(full, qubits)
    return Gate(name, params, qubits, targets, sorted_matrix)


# ---------------------------------------------------------------------------
# Parser

_GATE_HEAD_RE = re.compile(r"^([A-Za-z_]+)(?:\((.*?)\))?$")


def _extract_bracketed(text: str, line: int, col: int) -> tuple:
    """Split "[...]...rest" into the bracket body and the remainder."""
    if not text.startswith("["):
        raise CircuitParseError("expected '[' to open a list", line, col)
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return text[1:pos], text[pos + 1:]
    raise CircuitParseError("unbalanced brackets", line, col)


def _parse_matrix_literal(body: str, line: int, col: int) -> np.ndarray:
    rows, depth, cur = [], 0, ""
    for ch in body:
        if ch == "[":
            depth += 1
            if depth == 1:
                cur = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                rows.append(cur)
                continue
        if depth >= 1:
            cur += ch
    if depth != 0 or not rows:
        raise CircuitParseError("malformed matrix literal", line, col)
    try:
        data = [[parse_complex(item) for item in row.split(",")] for row in rows]
    except FormatError as exc:
        raise CircuitParseError(str(exc), line, col) from None
    size = len(data)
    if any(len(r) != size for r in data):
        raise CircuitParseError("matrix literal rows have uneven lengths", line, col)
    return np.array(data, dtype=complex)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text (see the module docstring for the grammar)."""
    n_qubits = None
    input_amps = None
    input_seen = False
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        col = len(code) - len(code.lstrip()) + 1
        pieces = stripped.split(None, 1)
        head = pieces[0]
        rest = pieces[1].strip() if len(pieces) > 1 else ""

        if n_qubits is None:
            if head != "qubits":
                raise CircuitParseError("first statement must be 'qubits N'", lineno, col)
            try:
                n_qubits = int(rest)
            except ValueError:
                raise CircuitParseError(f"invalid qubit count {rest!r}", lineno, col) from None
            if not 1 <= n_qubits <= MAX_QUBITS:
                raise CircuitParseError(
                    f"qubit count must be in 1..{MAX_QUBITS}, got {n_qubits}", lineno, col)
            continue

        if head == "qubits":
            raise CircuitParseError("duplicate 'qubits' directive", lineno, col)

        if head == "input":
            if input_seen:
                raise CircuitParseError("duplicate 'input' directive", lineno, col)
            if gates:
                raise CircuitParseError("'input' must precede all gates", lineno, col)
            input_seen = True
            dim = 1 << n_qubits
            if rest.startswith("["):
                body, tail = _extract_bracketed(rest, lineno, col)
                if tail.strip():
                    raise CircuitParseError(
                        f"unexpected text after amplitude list: {tail.strip()!r}", lineno, col)
                try:
                    amps = np.array([parse_complex(p) for p in body.split(",")], dtype=complex)
                except FormatError as exc:
                    raise CircuitParseError(str(exc), lineno, col) from None
                if amps.size != dim:
                    raise CircuitParseError(
                        f"amplitude list needs {dim} entries, got {amps.size}", lineno, col)
                norm = float(np.linalg.norm(amps))
                if abs(norm - 1.0) > 1e-6:
                    raise CircuitParseError(
                        f"input amplitudes are far from normalized (|v| = {norm!r})",
                        lineno, col)
                input_amps = amps / norm
            else:
                try:
                    index = int(rest)
                except ValueError:
                    raise CircuitParseError(f"invalid input index {rest!r}", lineno, col) from None
                if not 0 <= index < dim:
                    raise CircuitParseError(
                        f"input index {index} out of range for {n_qubits} qubit(s)", lineno, col)
                input_amps = np.zeros(dim, dtype=complex)
                input_amps[index] = 1.0
            continue

        # Gate statement.
        match = _GATE_HEAD_RE.match(head)
        if not match:
            raise CircuitParseError(f"cannot parse gate name {head!r}", lineno, col)
        name = match.group(1).lower()
        params = ()
        if match.group(2) is not None:
            try:
                params = tuple(parse_number(p) for p in match.group(2).split(","))
            except FormatError as exc:
                raise CircuitParseError(str(exc), lineno, col) from None
        literal = None
        if name == "matrix":
            bracket_col = col + len(head) + 1
            if not rest.startswith("["):
                raise CircuitParseError("matrix gate needs a [[...]] literal", lineno, bracket_col)
            body, rest = _extract_bracketed(rest, lineno, bracket_col)
            literal = _parse_matrix_literal(body, lineno, bracket_col)
            rest = rest.strip()
        arg_tokens = rest.split() if rest else []
        qubits = []
        for tok in arg_tokens:
            try:
                qubits.append(int(tok))
            except ValueError:
                raise CircuitParseError(f"invalid qubit argument {tok!r}", lineno, col) from None
        try:
            gates.append(build_gate(name, params, qubits, n_qubits, matrix=literal))
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno, col) from None

    if n_qubits is None:
        raise CircuitParseError("circuit has no 'qubits' directive", 1, 1)
    if input_amps is None:
        input_amps = np.zeros(1 << n_qubits, dtype=complex)
        input_amps[0] = 1.0
    return Circuit(n_qubits, tuple(gates), PureState(input_amps))


# ---------------------------------------------------------------------------
# Simulation and diagram construction


def _gate_edges(gate: Gate, n_qubits: int) -> tuple:
    """Edges of the gate's immersed unitary as (src, dst, amp) arrays, sorted by (src, dst).

    The immersion maps line tt[c] + off to line tt[r] + off with amplitude
    g[r, c], for every non-null entry g[r, c] and every offset `off` that
    assigns the qubits outside the gate (tt and the offsets are the scatter
    tables of the targets and of the other qubits).
    """
    g = gate.matrix
    r, c = np.nonzero(np.abs(g) > EDGE_TOL)
    tt = _scatter_table(gate.targets)
    rest = _scatter_table(tuple(q for q in range(n_qubits) if q not in gate.targets))
    src = (tt[c][:, None] + rest).ravel()
    dst = (tt[r][:, None] + rest).ravel()
    amp = np.repeat(g[r, c], rest.size)
    order = np.lexsort((dst, src))
    return src[order], dst[order], amp[order]


def _apply_edges(psi: np.ndarray, src, dst, amp) -> np.ndarray:
    """The state after a gate: each edge carries amp * psi[src] onto line dst."""
    out = np.zeros_like(psi)
    np.add.at(out, dst, amp * psi[src])
    return out


def simulate(circuit: Circuit) -> PureState:
    """Final state of the circuit applied to its input."""
    psi = circuit.input_state.amplitudes.copy()
    for gate in circuit.gates:
        psi = _apply_edges(psi, *_gate_edges(gate, circuit.n_qubits))
    return PureState(psi, atol=1e-9)


@dataclass(frozen=True)
class DiagramLayer:
    """Edges contributed by one gate: (source line, destination line, amplitude)."""

    label: str
    edges: tuple


@dataclass(frozen=True)
class LineActivity:
    """Per-line activity flags and carried amplitudes at one layer boundary."""

    active: tuple
    amplitudes: tuple


@dataclass(frozen=True)
class StateDiagram:
    n_qubits: int
    mode: str
    layers: tuple
    boundaries: tuple

    @property
    def n_lines(self) -> int:
        return 1 << self.n_qubits


def build_diagram(circuit: Circuit, mode: str = "complete") -> StateDiagram:
    """Build the diagram of states for a circuit.

    Activity is support-based: a line is active at a boundary when some
    chain of edges connects it back to the input support, regardless of
    whether interference happens to cancel the amplitude on the way.  The
    carried amplitudes come from simulation, so exact cancellations show up
    as active lines holding amplitude zero.
    """
    if mode not in ("complete", "simplified"):
        raise ValueError(f"mode must be 'complete' or 'simplified', got {mode!r}")
    psi = circuit.input_state.amplitudes.copy()
    active = np.abs(psi) > EDGE_TOL
    boundaries = [LineActivity(tuple(active.tolist()), tuple(psi.tolist()))]
    layers = []
    for gate in circuit.gates:
        src, dst, amp = _gate_edges(gate, circuit.n_qubits)
        psi = _apply_edges(psi, src, dst, amp)
        reached = active[src]
        active = np.zeros(psi.size, dtype=bool)
        active[dst[reached]] = True
        if mode == "simplified":
            src, dst, amp = src[reached], dst[reached], amp[reached]
        edges = tuple(zip(src.tolist(), dst.tolist(), amp.tolist()))
        layers.append(DiagramLayer(gate.label, edges))
        boundaries.append(LineActivity(tuple(active.tolist()), tuple(psi.tolist())))
    return StateDiagram(circuit.n_qubits, mode, tuple(layers), tuple(boundaries))


# ---------------------------------------------------------------------------
# Renderers


def _fmt_amp(z: complex) -> str:
    re_part = z.real if z.real != 0 else 0.0
    im_part = z.imag if z.imag != 0 else 0.0
    if abs(im_part) < EDGE_TOL:
        return f"{re_part:.3g}"
    if abs(re_part) < EDGE_TOL:
        return f"{im_part:.3g}j"
    return f"{re_part:.3g}{im_part:+.3g}j"


def _input_label(diagram: StateDiagram) -> str:
    amps = diagram.boundaries[0].amplitudes
    hot = [i for i, a in enumerate(amps) if abs(a) > EDGE_TOL]
    if len(hot) == 1 and abs(amps[hot[0]] - 1.0) < 1e-9:
        return f"|{hot[0]:0{diagram.n_qubits}b}>"
    return "custom"


def render_text(diagram: StateDiagram) -> str:
    """Fixed-width text rendering.

    One row per basis line: `====` segments where the line is active,
    `----` where dormant, and a numbered connector cell per layer marking
    the lines that touch one of the layer's edges.  Layers and their edge
    amplitudes are listed below the chart.
    """
    n_lines = diagram.n_lines
    n_layers = len(diagram.layers)
    iw = len(str(n_lines - 1))
    dw = len(str(max(n_layers, 1)))
    out = [
        f"lines: {n_lines}  layers: {n_layers}  mode: {diagram.mode}",
        f"input: {_input_label(diagram)}",
        "",
    ]
    touched = [{line for edge in layer.edges for line in edge[:2]} for layer in diagram.layers]
    for i in range(n_lines):
        row = [f"{i:>{iw}} |{i:0{diagram.n_qubits}b}> "]
        for t in range(n_layers):
            row.append("====" if diagram.boundaries[t].active[i] else "----")
            row.append(f"[{t + 1:>{dw}}]" if i in touched[t] else "[" + " " * dw + "]")
        row.append("====" if diagram.boundaries[n_layers].active[i] else "----")
        out.append("".join(row))
    for t, layer in enumerate(diagram.layers):
        out.append("")
        out.append(f"[{t + 1}] {layer.label}")
        for src, dst, amp in layer.edges:
            out.append(f"    {src} -> {dst}  {_fmt_amp(amp)}")
    out.append("")
    out.append("output amplitudes:")
    final = diagram.boundaries[-1]
    for i, amp in enumerate(final.amplitudes):
        if abs(amp) > EDGE_TOL:
            out.append(f"    {i}  {_fmt_amp(amp)}")
    out.append("")
    return "\n".join(out)


# SVG geometry: fixed constants, so equal diagrams render to byte-identical documents.
_MARGIN_X = 70.0
_MARGIN_Y = 56.0
_LAYER_WIDTH = 150.0
_WIRE_WIDTH = 40.0
_LINE_PITCH = 30.0
_THICK = 2.6
_THIN = 0.8
_FONT_SIZE = 11

_ACTIVE_COLOR = "#16324f"
_DORMANT_COLOR = "#b6c2cc"
_LABEL_COLOR = "#5b6770"


def render_svg(diagram: StateDiagram) -> str:
    """SVG 1.1 rendering: horizontal basis lines, one column per layer.

    Active segments and edges are thick, dormant ones thin; each edge
    carries its amplitude to three significant digits.
    """
    n_lines = diagram.n_lines
    n_layers = len(diagram.layers)
    width = 2 * _MARGIN_X + n_layers * _LAYER_WIDTH + _WIRE_WIDTH
    height = _MARGIN_Y + (n_lines - 1) * _LINE_PITCH + 40.0

    def x_boundary(t: int) -> float:
        return _MARGIN_X + t * _LAYER_WIDTH

    def y_line(i: int) -> float:
        return _MARGIN_Y + i * _LINE_PITCH

    def f(v: float) -> str:
        return f"{v:.1f}"

    title = (f"{diagram.n_qubits} qubit(s), {n_layers} layer(s), {diagram.mode}, "
             f"input {_input_label(diagram)}")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{f(width)}" height="{f(height)}" '
        f'viewBox="0 0 {f(width)} {f(height)}">',
        f'<rect x="0" y="0" width="{f(width)}" height="{f(height)}" fill="#ffffff"/>',
        f'<text x="{f(_MARGIN_X)}" y="20" font-family="monospace" '
        f'font-size="{_FONT_SIZE + 2}" fill="{_ACTIVE_COLOR}">{escape(title)}</text>',
    ]
    for i in range(n_lines):
        parts.append(
            f'<text x="{f(_MARGIN_X - 58.0)}" y="{f(y_line(i) + 4.0)}" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" '
            f'fill="{_LABEL_COLOR}">{escape(f"{i} |{i:0{diagram.n_qubits}b}>")}</text>'
        )
    # Boundary wire stubs.
    for t in range(n_layers + 1):
        x0 = x_boundary(t)
        for i in range(n_lines):
            active = diagram.boundaries[t].active[i]
            parts.append(
                f'<line x1="{f(x0)}" y1="{f(y_line(i))}" x2="{f(x0 + _WIRE_WIDTH)}" '
                f'y2="{f(y_line(i))}" stroke="{_ACTIVE_COLOR if active else _DORMANT_COLOR}" '
                f'stroke-width="{_THICK if active else _THIN}"/>'
            )
    # Gate zones.
    for t, layer in enumerate(diagram.layers):
        x0 = x_boundary(t) + _WIRE_WIDTH
        x1 = x_boundary(t + 1)
        label_x = (x0 + x1) / 2.0
        parts.append(
            f'<text x="{f(label_x)}" y="{f(_MARGIN_Y - 18.0)}" text-anchor="middle" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" '
            f'fill="{_LABEL_COLOR}">{escape(layer.label)}</text>'
        )
        has_out = [False] * n_lines
        for src, dst, amp in layer.edges:
            has_out[src] = True
            active = diagram.boundaries[t].active[src]
            color = _ACTIVE_COLOR if active else _DORMANT_COLOR
            stroke = _THICK if active else _THIN
            y0, y1 = y_line(src), y_line(dst)
            parts.append(
                f'<line x1="{f(x0)}" y1="{f(y0)}" x2="{f(x1)}" y2="{f(y1)}" '
                f'stroke="{color}" stroke-width="{stroke}"/>'
            )
            lx = x0 + 0.38 * (x1 - x0)
            ly = y0 + 0.38 * (y1 - y0) - 4.0
            parts.append(
                f'<text x="{f(lx)}" y="{f(ly)}" font-family="monospace" '
                f'font-size="{_FONT_SIZE - 2}" fill="{_LABEL_COLOR}">'
                f'{escape(_fmt_amp(amp))}</text>'
            )
        # Dormant lines whose edges were pruned still continue, thin.
        for i in range(n_lines):
            if not has_out[i]:
                parts.append(
                    f'<line x1="{f(x0)}" y1="{f(y_line(i))}" x2="{f(x1)}" y2="{f(y_line(i))}" '
                    f'stroke="{_DORMANT_COLOR}" stroke-width="{_THIN}"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
