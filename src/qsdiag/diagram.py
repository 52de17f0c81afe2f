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
entries and two bit-scatter tables.  The dense 2^n x 2^n immersion is
never built; it exists only as the tests' oracle.  A diagram keeps these
arrays as computed: each `DiagramLayer` holds `src`/`dst`/`amp` edge arrays
(its `edges` property derives tuples), and the diagram holds two tables,
(gates + 1) x 2^n, with a row per boundary: the bool `active` and the
complex `amplitudes`.  Row t is the boundary before gate t.
A gate's edges are also the paths its amplitudes take, so drawing and
simulating are one propagation: `_step` moves a state across one gate,
from one row of `build_diagram`'s table into the next, or from one state
vector of `simulate` into the next.  Where no row of a gate's pattern
holds two non-null entries, each line receives at most one edge, so the
step assigns the products instead of summing them with `np.add.at`; both
callers add +0.0 once after their last step, so every zero reads +0.0, as
the sum leaves it.  The renderers read the tables directly and format each
line's y and each boundary's x once.

The four records, `Gate`, `Circuit`, `DiagramLayer` and `StateDiagram`,
are built once per gate, per circuit and per position, so they are plain
classes with `__slots__`, not frozen dataclasses: the frozen guard against
rebinding an attribute would take about a quarter of a `Gate`'s
construction, and generating the classes would cost every process that
imports this module.  Their arrays, the state that is actually shared, are
read-only; their attributes are not to be rebound.

A `Gate` is the one record of a gate: it takes its name, parameters,
qubit arguments as written and its matrix over those arguments sorted, and
derives the rest.  It holds its own read-only complex copy of the matrix
and derives once its sorted `targets`, its `label` and its non-null
`pattern` (one byte per entry, 1 where |entry| > EDGE_TOL).  A `Circuit`
takes its gates and input state and reads its register size off the
state.  Where a gate's edges run depends only on the register size, the
targets and that pattern; the values only label them.  So `_edge_layout`
caches, per key (n_qubits, targets, pattern), the read-only src/dst arrays,
the gate entry each edge carries and whether each line receives at most
one edge.  `build_diagram` and `simulate` look up each distinct Gate's
layout once per call and gather its values into that order once, in a dict
keyed by the Gate object, so every position of a gate shares one read-only
(src, dst, amp); complete-mode layers hold these arrays themselves.
`build_gate` re-expresses a matrix over sorted targets only for gates on
two or more qubits; on one qubit the listed order is the sorted order.  The
cache holds `_LAYOUT_CACHE_SIZE` = MAX_DIAGRAM_EDGES >>
MAX_QUBITS = 256 layouts: a unitary's pattern has a non-null entry in every
column, so every gate at n = 10 has at least 2^10 edges, a circuit under
the cap has at most 256 gates, and building it never evicts a layout it
uses itself.  A layout of E edges takes 24 * E bytes (int64 src and dst,
which numpy gathers faster than narrower indices); E is at most 4 * 2^n
for any gate the circuit syntax can express (a dense two-qubit literal),
96 KiB at n = 10, so the cache takes at most 24 MiB.  A gate built in code
on k > 2 qubits can have up to 4^k * 2^(n-k) edges; `build_diagram`
counts them before it asks for the layout, so a gate past
`MAX_DIAGRAM_EDGES` raises without caching one.

`parse_circuit` builds a repeated gate once per call: it keeps a dict from
a statement's comment-free text to its Gate and edge count, so identical
statements share one Gate object.  The text includes any matrix literal,
so two different literals never share a key, as they would under a key of
gate name or label (`matrix 0` labels every 2x2 literal on qubit 0 alike).
An error is never stored, and the edge cap is still checked on every line.

The renderers stream: `render_text_chunks` and `render_svg_chunks` yield
the document in pieces (header, blocks of chart rows or wire stubs, runs of
layers, footer), and `render_text`/`render_svg` join them.  `_layer_runs`
gathers the edges of a run of whole layers into flat arrays, which take the
run's array work and one `.tolist()` each, so the Python loop over layers
only formats strings.  A run holds about `_RUN_SIZE` output lines, so many
small layers share one round of array work and a large diagram holds one
run's values and text at a time, not the whole document.  The text chart
is byte matrices throughout, line labels included (`_line_heads`, built
once per register size), in blocks of about `_CHART_BYTES`: blocks this
small reuse freed heap memory, where one matrix of the whole n = 10 chart
took fresh pages from the kernel on every render.

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
Lists follow one strict grammar: `input [...]` is one list `[a, b, ...]`
with nothing after it, and a matrix literal is such lists, its rows,
joined by single commas inside one more pair of brackets.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Iterator

import numpy as np

from .composite import _scatter_table
from .core import (
    MAX_QUBITS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    FormatError,
    PureState,
    _check_n_qubits,
    basis_state,
    parse_complex,
    parse_number,
    unitarity_defect,
)

# Entries below this magnitude do not produce diagram edges.
EDGE_TOL = 1e-12
# Most complete-mode edges a circuit may have, checked by `parse_circuit` and
# `build_diagram` (an SVG takes about 1 kB per edge).
MAX_DIAGRAM_EDGES = 262_144
# Edge layouts kept by `_edge_layout`, keyed by (n_qubits, targets, pattern):
# as many as a circuit under the edge cap can use at 10 qubits (256).
_LAYOUT_CACHE_SIZE = MAX_DIAGRAM_EDGES >> MAX_QUBITS
# Output lines a renderer formats as one run of whole layers (see `_layer_runs`).
_RUN_SIZE = 2048
# Bytes of the text chart formatted as one block of whole rows (see `_text_chart`).
_CHART_BYTES = 1 << 16

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


class Gate:
    """One gate instance: display form plus the matrix over sorted targets.

    `qubit_args` preserves the argument order as written (control first
    for controlled gates); the Gate derives `targets`, the same qubits
    sorted ascending, and `matrix` must be expressed with bit j of its
    index addressing targets[j].
    The Gate holds its own read-only complex copy of `matrix`, and derives
    once its display `label` and its non-null `pattern`: one byte, 0 or 1,
    per entry in row-major order, 1 where |entry| > EDGE_TOL.  One Gate may
    stand at many positions of many circuits: do not rebind its attributes.
    """

    __slots__ = ("name", "params", "qubit_args", "targets", "matrix", "label", "pattern")

    def __init__(self, name: str, params: tuple, qubit_args: tuple, matrix):
        matrix = np.array(matrix, dtype=complex)
        matrix.flags.writeable = False
        head = name
        if params:
            head += "(" + ",".join(f"{p:.6g}" for p in params) + ")"
        self.name = name
        self.params = params
        self.qubit_args = qubit_args
        self.targets = tuple(sorted(qubit_args))
        self.matrix = matrix
        self.label = head + " " + " ".join(str(q) for q in qubit_args)
        self.pattern = (np.abs(matrix) > EDGE_TOL).tobytes()


class Circuit:
    """Gates in order and the input state, whose size is the register's.

    Each gate's qubit arguments must be distinct and inside the register,
    and its matrix must fit them.
    """

    __slots__ = ("n_qubits", "gates", "input_state")

    def __init__(self, gates: tuple, input_state: PureState):
        n_qubits = input_state.n_qubits
        for g in dict.fromkeys(gates):  # each distinct Gate once
            if len(set(g.targets)) != len(g.targets):
                raise FormatError(f"gate {g.label!r} repeats a qubit argument")
            if not all(0 <= q < n_qubits for q in g.targets):
                raise FormatError(f"gate {g.label!r} targets a qubit outside the register")
            if g.matrix.shape != (1 << len(g.targets),) * 2:
                raise FormatError(
                    f"gate {g.label!r} matrix does not fit its {len(g.targets)} target(s)")
        self.n_qubits = n_qubits
        self.gates = gates
        self.input_state = input_state


def _reorder_to_sorted(matrix: np.ndarray, listed: tuple) -> np.ndarray:
    """Re-express a listed-order (MSB-first) gate matrix over sorted targets."""
    k = len(listed)
    # Sorted bit j (qubit targets[j]) is listed bit k-1-i, where listed[i] == targets[j].
    omap = _scatter_table(tuple(k - 1 - listed.index(t) for t in sorted(listed)))
    return matrix[omap[:, None], omap]


def build_gate(name: str, params, qubits, n_qubits: int, matrix=None) -> Gate:
    """Construct a validated Gate.

    `qubits` is the argument list as written (control first for c-prefixed
    names).  For name == "matrix" pass the literal matrix as `matrix`.
    """
    params = tuple(float(p) for p in params)
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise FormatError(f"gate qubit arguments {qubits} must be distinct")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise FormatError(f"qubit {q} out of range for {n_qubits} qubit register")

    if name == "matrix":
        if matrix is None:
            raise FormatError("matrix gate needs an explicit matrix")
        m = np.asarray(matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise FormatError("matrix literals must be 2x2 or 4x4")
        if params:
            raise FormatError("matrix gate takes no parameters")
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
            raise FormatError(f"unknown gate {name!r}")
        n_params, arity, builder = _BASE_GATES[base_name]
        if len(params) != n_params:
            raise FormatError(f"{name} takes {n_params} parameter(s), got {len(params)}")
        full = builder(*params)
        if controlled:
            dim = full.shape[0]
            block = np.eye(2 * dim, dtype=complex)
            block[dim:, dim:] = full
            full = block
            arity += 1
    if len(qubits) != arity:
        raise FormatError(f"{name} acts on {arity} qubit(s), got {len(qubits)} argument(s)")
    if len(qubits) > 1:  # on one target the listed order is the sorted order
        full = _reorder_to_sorted(full, qubits)
    return Gate(name, params, qubits, full)


# ---------------------------------------------------------------------------
# Parser

_GATE_HEAD_RE = re.compile(r"^([A-Za-z_]+)(?:\((.*?)\))?$")
# The list grammar of the module docstring: one non-nested list, and a matrix literal.
_LIST_RE = re.compile(r"\[([^][]*)\]")
_MATRIX_RE = re.compile(rf"\[\s*{_LIST_RE.pattern}(?:\s*,\s*{_LIST_RE.pattern})*\s*\]")


def _parse_list(body: str) -> list:
    """The complex entries of one list's comma-separated body."""
    return [parse_complex(item) for item in body.split(",")]


def _int(text: str, what: str) -> int:
    """`text` as an int; a ValueError names the text as an invalid `what` otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid {what} {text!r}") from None


def _edge_count(gate: Gate, n_qubits: int) -> int:
    """Complete-mode edges: each non-null entry once per setting of the other qubits."""
    return gate.pattern.count(1) << (n_qubits - len(gate.targets))


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text (see the module docstring for the grammar).

    Every error is a CircuitParseError at the statement's line and column, or
    at the bracket's column while a matrix literal's text is read.
    """
    n_qubits = None
    input_state = None
    gates = []
    built = {}  # statement text -> (Gate, complete-mode edge count)
    n_edges = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        at = col = len(code) - len(code.lstrip()) + 1
        pieces = stripped.split(None, 1)
        head = pieces[0]
        rest = pieces[1].strip() if len(pieces) > 1 else ""
        try:
            if n_qubits is None:
                if head != "qubits":
                    raise ValueError("first statement must be 'qubits N'")
                n_qubits = _check_n_qubits(_int(rest, "qubit count"))
                continue

            if head == "qubits":
                raise ValueError("duplicate 'qubits' directive")

            if head == "input":
                if input_state is not None:
                    raise ValueError("duplicate 'input' directive")
                if gates:
                    raise ValueError("'input' must precede all gates")
                dim = 1 << n_qubits
                if rest.startswith("["):
                    match = _LIST_RE.fullmatch(rest)
                    if match is None:
                        raise ValueError(f"malformed amplitude list {rest!r}")
                    amps = np.array(_parse_list(match.group(1)), dtype=complex)
                    if amps.size != dim:
                        raise ValueError(f"amplitude list needs {dim} entries, got {amps.size}")
                    with np.errstate(over="ignore"):  # |v| = inf fails the check below
                        norm = float(np.linalg.norm(amps))
                    if abs(norm - 1.0) > 1e-6:
                        raise ValueError(
                            f"input amplitudes are far from normalized (|v| = {norm!r})")
                    input_state = PureState(amps / norm)
                else:
                    index = _int(rest, "input index")
                    if not 0 <= index < dim:
                        raise ValueError(
                            f"input index {index} out of range for {n_qubits} qubit(s)")
                    input_state = basis_state(n_qubits, index)
                continue

            # Gate statement: identical statement text builds one shared Gate.
            if stripped not in built:
                match = _GATE_HEAD_RE.match(head)
                if not match:
                    raise ValueError(f"cannot parse gate name {head!r}")
                name = match.group(1).lower()
                params = ()
                if match.group(2) is not None:
                    params = tuple(parse_number(p) for p in match.group(2).split(","))
                literal = None
                if name == "matrix":
                    at = col + len(stripped) - len(rest)
                    found = _MATRIX_RE.match(rest)
                    if found is None:
                        raise ValueError("matrix gate needs a [[row], [row], ...] literal")
                    literal = [_parse_list(row) for row in _LIST_RE.findall(found.group())]
                    if any(len(row) != len(literal) for row in literal):
                        raise ValueError("matrix literal rows have uneven lengths")
                    at, rest = col, rest[found.end():]
                qubits = [_int(tok, "qubit argument") for tok in rest.split()]
                gate = build_gate(name, params, qubits, n_qubits, matrix=literal)
                built[stripped] = gate, _edge_count(gate, n_qubits)
            gate, edge_count = built[stripped]
            n_edges += edge_count
            if n_edges > MAX_DIAGRAM_EDGES:
                raise ValueError(f"circuit exceeds the cap of {MAX_DIAGRAM_EDGES} diagram edges")
            gates.append(gate)
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno, at) from None

    if n_qubits is None:
        raise CircuitParseError("circuit has no 'qubits' directive", 1, 1)
    if input_state is None:
        input_state = basis_state(n_qubits, 0)
    return Circuit(tuple(gates), input_state)


# ---------------------------------------------------------------------------
# Simulation and diagram construction


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _edge_layout(n_qubits: int, targets: tuple, pattern: bytes) -> tuple:
    """Where a gate's edges run: read-only (src, dst, entry) arrays sorted by (src, dst),
    and whether each line receives at most one edge.

    The immersion maps line tt[c] + off to line tt[r] + off for every entry
    (r, c) of the gate's non-null `pattern` (`Gate.pattern`) and every
    offset `off` that assigns the qubits outside the gate (tt and the offsets
    are the scatter tables of the targets and of the other qubits); `entry`
    is r * 2^k + c, the flat index of the gate entry each edge carries.  Each
    line receives at most one edge when no row r holds two non-null entries.
    """
    dim = 1 << len(targets)
    r, c = np.nonzero(np.frombuffer(pattern, dtype=bool).reshape(dim, dim))
    tt = _scatter_table(targets)
    rest = _scatter_table(tuple(q for q in range(n_qubits) if q not in targets))
    src = (tt[c][:, None] + rest).ravel()
    dst = (tt[r][:, None] + rest).ravel()
    order = np.lexsort((dst, src))
    layout = src[order], dst[order], np.repeat(r * dim + c, rest.size)[order]
    for a in layout:
        a.flags.writeable = False
    return (*layout, np.unique(r).size == r.size)


def _gate_edges(gate: Gate, n_qubits: int) -> tuple:
    """Edges of the gate's immersed unitary as read-only (src, dst, amp) arrays, sorted by
    (src, dst), and whether each line receives at most one of them.

    `build_diagram` and `simulate` ask once per distinct Gate and share the
    arrays among the gate's positions.
    """
    src, dst, entry, one_per_line = _edge_layout(n_qubits, gate.targets, gate.pattern)
    amp = gate.matrix.ravel()[entry]
    amp.flags.writeable = False
    return src, dst, amp, one_per_line


def _step(edges: tuple, state: np.ndarray, out: np.ndarray) -> None:
    """Move `state` across one gate into the zeroed `out`: each edge (src, dst, amp) of
    `_gate_edges` carries amp * state[src] onto out[dst].

    Where each line receives at most one edge the products are assigned, not
    summed.  An assigned product of zeros may be -0.0 where the sum onto a
    zero leaves +0.0, so after its last step a caller adds +0.0 once, which
    changes nothing else.
    """
    src, dst, amp, one_per_line = edges
    if one_per_line:
        out[dst] = amp * state[src]
    else:
        np.add.at(out, dst, amp * state[src])


def simulate(circuit: Circuit) -> PureState:
    """Final state of the circuit applied to its input, one `_step` per gate."""
    n_qubits, gates = circuit.n_qubits, circuit.gates
    edges = {gate: _gate_edges(gate, n_qubits) for gate in dict.fromkeys(gates)}
    psi = circuit.input_state.amplitudes.copy()
    for gate in gates:
        psi, prev = np.zeros(psi.shape, dtype=complex), psi
        _step(edges[gate], prev, psi)
    if gates:  # an empty circuit keeps its input's bits
        psi += 0.0
    return PureState(psi, atol=1e-9)


class DiagramLayer:
    """One gate's edges, sorted by (src, dst): edge e runs from line src[e] to dst[e]
    and carries amplitude amp[e]."""

    __slots__ = ("label", "src", "dst", "amp")

    def __init__(self, label: str, src: np.ndarray, dst: np.ndarray, amp: np.ndarray):
        self.label = label
        self.src = src
        self.dst = dst
        self.amp = amp

    @property
    def edges(self) -> tuple:
        """The edges as (source line, destination line, amplitude) tuples."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.amp.tolist()))


class StateDiagram:
    """Layers, and two (gates + 1) x 2^n tables whose row t is the boundary before gate t."""

    __slots__ = ("n_qubits", "mode", "layers", "active", "amplitudes")

    def __init__(self, n_qubits: int, mode: str, layers: tuple, active: np.ndarray,
                 amplitudes: np.ndarray):
        self.n_qubits = n_qubits
        self.mode = mode
        self.layers = layers
        self.active = active
        self.amplitudes = amplitudes

    @property
    def n_lines(self) -> int:
        return 1 << self.n_qubits


def build_diagram(circuit: Circuit, mode: str = "complete") -> StateDiagram:
    """Build the diagram of states for a circuit.

    Activity is support-based: a line is active at a boundary when some
    chain of edges connects it back to the input support, regardless of
    whether interference happens to cancel the amplitude on the way.  The
    carried amplitudes come from simulation, so exact cancellations show up
    as active lines holding amplitude zero.  Raises FormatError, naming the
    gate at which the complete-mode edges pass `MAX_DIAGRAM_EDGES`, in
    either mode and before anything is built.
    """
    if mode not in ("complete", "simplified"):
        raise FormatError(f"mode must be 'complete' or 'simplified', got {mode!r}")
    n_qubits, gates = circuit.n_qubits, circuit.gates
    # Counted before anything is built, so a circuit over the cap allocates no
    # table and caches no layout.
    n_edges = 0
    for index, gate in enumerate(gates):
        n_edges += _edge_count(gate, n_qubits)
        if n_edges > MAX_DIAGRAM_EDGES:
            raise FormatError(f"circuit exceeds the cap of {MAX_DIAGRAM_EDGES} diagram edges "
                              f"at gate {index} ({gate.label})")
    # One table per quantity, a row per boundary, each row taken as a view
    # once; gate t scatters from row t into row t + 1.
    shape = (len(gates) + 1, 1 << n_qubits)
    amp_table = np.zeros(shape, dtype=complex)
    active_table = np.zeros(shape, dtype=bool)
    amps, actives = list(amp_table), list(active_table)
    amps[0][:] = circuit.input_state.amplitudes
    actives[0][:] = np.abs(amps[0]) > EDGE_TOL
    edges = {gate: _gate_edges(gate, n_qubits) for gate in dict.fromkeys(gates)}
    layers = []
    for t, gate in enumerate(gates):
        _step(edges[gate], amps[t], amps[t + 1])
        src, dst, amp, _ = edges[gate]
        reached = actives[t][src].nonzero()[0]
        actives[t + 1][dst[reached]] = True
        if mode == "simplified":
            src, dst, amp = src[reached], dst[reached], amp[reached]
        layers.append(DiagramLayer(gate.label, src, dst, amp))
    amp_table[1:] += 0.0  # the sign of zero that sums leave (see `_step`)
    return StateDiagram(n_qubits, mode, tuple(layers), active_table, amp_table)


# ---------------------------------------------------------------------------
# Renderers


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@functools.lru_cache(maxsize=4096)  # a layer repeats each gate entry 2^(n-k) times
def _fmt_amp(z: complex) -> str:
    re_part = z.real if z.real != 0 else 0.0
    im_part = z.imag if z.imag != 0 else 0.0
    if abs(im_part) < EDGE_TOL:
        return f"{re_part:.3g}"
    if abs(re_part) < EDGE_TOL:
        return f"{im_part:.3g}j"
    return f"{re_part:.3g}{im_part:+.3g}j"


def _input_label(diagram: StateDiagram) -> str:
    hot = np.flatnonzero(diagram.active[0])
    if hot.size == 1 and abs(diagram.amplitudes[0, hot[0]] - 1.0) < 1e-9:
        return f"|{hot[0]:0{diagram.n_qubits}b}>"
    return "custom"


def _layer_runs(layers, lines_per_layer: int) -> Iterator[tuple]:
    """The layers in runs of whole layers, each as (range of layer indices, src, dst, amp,
    layer) flat arrays of the run's edges in order.

    A run takes layers until the output lines it makes, one per edge plus
    `lines_per_layer` per layer, reach `_RUN_SIZE` (the last run may make
    fewer).  So many small layers share one round of array work and one chunk
    of output, and a large diagram never holds more than one run's edges as
    flat arrays or Python values.
    """
    sizes = [len(layer.src) for layer in layers]
    first, size = 0, 0
    for end, n_edges in enumerate(sizes, 1):
        size += n_edges + lines_per_layer
        if size < _RUN_SIZE and end < len(sizes):
            continue
        run = layers[first:end]
        yield (range(first, end), np.concatenate([layer.src for layer in run]),
               np.concatenate([layer.dst for layer in run]),
               np.concatenate([layer.amp for layer in run]),
               np.repeat(np.arange(first, end), sizes[first:end]))
        first, size = end, 0


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


@functools.lru_cache(maxsize=MAX_QUBITS)
def _line_heads(n_qubits: int) -> np.ndarray:
    """Each chart row's newline and label "i |bits> ", as a read-only byte matrix."""
    n_lines = 1 << n_qubits
    iw = len(str(n_lines - 1))
    heads = "".join(f"\n{i:>{iw}} |{i:0{n_qubits}b}> " for i in range(n_lines))
    return _ascii(heads).reshape(n_lines, -1)


def _text_chart(diagram: StateDiagram) -> Iterator[str]:
    """The chart of `render_text` in blocks of whole rows, each row led by its newline.

    A block is one byte matrix, a row per line: newline, label, then a piece
    per layer, then the last segment.  Layer t's four pieces are its
    dormant/active segment followed by a blank/numbered cell, and a line's
    code selects one: 4t + active + 2 * touched.  A block holds about
    `_CHART_BYTES` bytes, so its arrays stay small however large the chart is.
    """
    n_lines = diagram.n_lines
    n_layers = len(diagram.layers)
    dw = len(str(max(n_layers, 1)))
    active = diagram.active.T
    blank = "[" + " " * dw + "]"
    pieces = _ascii("".join(seg + cell for t in range(n_layers)
                            for cell in (blank, f"[{t + 1:>{dw}}]")
                            for seg in ("----", "===="))).reshape(-1, dw + 6)
    touched = np.zeros((n_lines, n_layers), dtype=bool)
    for _, src, dst, _, owner in _layer_runs(diagram.layers, 0):
        touched[src, owner] = touched[dst, owner] = True
    head = _line_heads(diagram.n_qubits)
    last = np.take(_ascii("----===="), 4 * active[:, -1:] + np.arange(4))
    base = 4 * np.arange(n_layers)
    rows = max(1, _CHART_BYTES // (head.shape[1] + n_layers * (dw + 6) + 4))
    for lo in range(0, n_lines, rows):
        hi = lo + rows
        code = base + active[lo:hi, :-1] + 2 * touched[lo:hi]
        block = np.concatenate((head[lo:hi], np.take(pieces, code, axis=0).reshape(len(code), -1),
                                last[lo:hi]), axis=1)
        yield str(block.ravel(), "ascii")


def render_text_chunks(diagram: StateDiagram) -> Iterator[str]:
    """`render_text`'s document in pieces, formatted as they are asked for.

    The pieces are the header, one per block of chart rows (see
    `_text_chart`), one per run of layers' edge lists (see `_layer_runs`),
    and the output amplitudes.
    """
    yield (f"lines: {diagram.n_lines}  layers: {len(diagram.layers)}  mode: {diagram.mode}\n"
           f"input: {_input_label(diagram)}\n")
    yield from _text_chart(diagram)
    for run, src, dst, amp, _ in _layer_runs(diagram.layers, 0):
        edges = zip(src.tolist(), dst.tolist(), amp.tolist())
        chunk = []
        for t in run:
            layer = diagram.layers[t]
            chunk.append(f"\n\n[{t + 1}] {layer.label}")
            chunk.extend(f"\n    {s} -> {d}  {_fmt_amp(a)}"
                         for s, d, a in itertools.islice(edges, len(layer.src)))
        yield "".join(chunk)
    final = diagram.amplitudes[-1]
    yield "".join(["\n\noutput amplitudes:",
                   *(f"\n    {i}  {_fmt_amp(complex(final[i]))}"
                     for i in np.flatnonzero(np.abs(final) > EDGE_TOL).tolist()), "\n"])


def render_text(diagram: StateDiagram) -> str:
    """Fixed-width text rendering.

    One row per basis line: `====` segments where the line is active,
    `----` where dormant, and a numbered connector cell per layer marking
    the lines that touch one of the layer's edges.  Layers and their edge
    amplitudes are listed below the chart.
    """
    return "".join(render_text_chunks(diagram))


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

# Stroke attributes indexed by activity: [dormant, active].
_STROKES = (f'stroke="{_DORMANT_COLOR}" stroke-width="{_THIN}"',
            f'stroke="{_ACTIVE_COLOR}" stroke-width="{_THICK}"')
_TEXT_ATTRS = f'font-family="monospace" font-size="{_FONT_SIZE}" fill="{_LABEL_COLOR}"'
_AMP_ATTRS = f'font-family="monospace" font-size="{_FONT_SIZE - 2}" fill="{_LABEL_COLOR}"'


def render_svg_chunks(diagram: StateDiagram) -> Iterator[str]:
    """`render_svg`'s document in pieces, formatted as they are asked for.

    The pieces are the header with the line labels, one per boundary's wire
    stubs, one per run of layer zones (see `_layer_runs`), and the closing tag.
    """
    n_lines = diagram.n_lines
    n_layers = len(diagram.layers)
    width = f"{2 * _MARGIN_X + n_layers * _LAYER_WIDTH + _WIRE_WIDTH:.1f}"
    height = f"{_MARGIN_Y + (n_lines - 1) * _LINE_PITCH + 40.0:.1f}"
    y = _MARGIN_Y + np.arange(n_lines) * _LINE_PITCH
    ys = [f"{v:.1f}" for v in y.tolist()]
    # x of each boundary's wire stub start and end, formatted once per boundary.
    xb = [_MARGIN_X + t * _LAYER_WIDTH for t in range(n_layers + 1)]
    xs = [f"{x:.1f}" for x in xb]
    xw = [f"{x + _WIRE_WIDTH:.1f}" for x in xb]

    title = (f"{diagram.n_qubits} qubit(s), {n_layers} layer(s), {diagram.mode}, "
             f"input {_input_label(diagram)}")
    label_x = f"{_MARGIN_X - 58.0:.1f}"
    yield "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_X:.1f}" y="20" font-family="monospace" '
        f'font-size="{_FONT_SIZE + 2}" fill="{_ACTIVE_COLOR}">{_escape(title)}</text>',
        *(f'<text x="{label_x}" y="{v + 4.0:.1f}" {_TEXT_ATTRS}>'
          f'{i} |{i:0{diagram.n_qubits}b}&gt;</text>' for i, v in enumerate(y.tolist())),
    ])
    # Each piece after the first starts with the line break that separates it
    # from the one before: a list led by "" joins to "\n" + its elements.
    for t, on_row in enumerate(diagram.active.tolist()):
        x_start, x_end = xs[t], xw[t]
        yield "\n".join(["", *(f'<line x1="{x_start}" y1="{yi}" x2="{x_end}" y2="{yi}" '
                               f'{_STROKES[on]}/>' for yi, on in zip(ys, on_row))])
    # A zone draws a line and a label per edge and up to n_lines dormant continuations.
    for run, src, dst, amp, owner in _layer_runs(diagram.layers, n_lines):
        y0, y1 = y[src], y[dst]
        label_y = y0 + 0.38 * (y1 - y0) - 4.0
        # Edges take their stroke from the activity of their source line.
        stroke = diagram.active[owner, src]
        # Dormant lines whose edges were pruned still continue, thin.
        dormant = np.ones((len(run), n_lines), dtype=bool)
        dormant[owner - run.start, src] = False
        edges = zip(src.tolist(), dst.tolist(), amp.tolist(), label_y.tolist(), stroke.tolist())
        chunk = [""]
        for t, dormant_row in zip(run, dormant.tolist()):
            layer = diagram.layers[t]
            x0, x1 = xb[t] + _WIRE_WIDTH, xb[t + 1]
            chunk.append(f'<text x="{(x0 + x1) / 2.0:.1f}" y="{_MARGIN_Y - 18.0:.1f}" '
                         f'text-anchor="middle" {_TEXT_ATTRS}>{_escape(layer.label)}</text>')
            ex0, ex1, lx = xw[t], xs[t + 1], f"{x0 + 0.38 * (x1 - x0):.1f}"
            for s, d, a, ly, on in itertools.islice(edges, len(layer.src)):
                chunk.append(f'<line x1="{ex0}" y1="{ys[s]}" x2="{ex1}" y2="{ys[d]}" '
                             f'{_STROKES[on]}/>')
                chunk.append(f'<text x="{lx}" y="{ly:.1f}" {_AMP_ATTRS}>{_fmt_amp(a)}</text>')
            chunk.extend(f'<line x1="{ex0}" y1="{yi}" x2="{ex1}" y2="{yi}" {_STROKES[False]}/>'
                         for yi in itertools.compress(ys, dormant_row))
        yield "\n".join(chunk)
    yield "\n</svg>\n"


def render_svg(diagram: StateDiagram) -> str:
    """SVG 1.1 rendering: horizontal basis lines, one column per layer.

    Active segments and edges are thick, dormant ones thin; each edge
    carries its amplitude to three significant digits.
    """
    return "".join(render_svg_chunks(diagram))
