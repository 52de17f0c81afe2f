"""Byte identity of the renderers, pinned by two digests.

Sixty seeded random circuits (1-6 qubits, every gate in the set, controlled
forms and matrix literals, basis and custom inputs) are parsed from text and
rendered as text and SVG in both modes; one SHA-256 covers all 240
documents.  A second SHA-256 covers forty circuits that repeat statements
from small pools (two 2x2 literals on one qubit in every pool, custom
inputs), where one parsed Gate stands at many positions.  A change that
must keep the output bytes keeps both digests, whether the documents are
hashed whole or chunk by chunk as the streaming renderers make them.  The
circuits are built from text with angles and literals written out in full,
so the inputs do not depend on the random generator's floating-point path.
"""

import hashlib
import itertools
import math

import numpy as np

from qsdiag import (
    build_diagram,
    parse_circuit,
    render_svg,
    render_svg_chunks,
    render_text,
    render_text_chunks,
)

# name -> (parameters, qubits); every base gate also comes in its c-prefixed form.
_BASE = {
    "x": (0, 1), "y": (0, 1), "z": (0, 1), "h": (0, 1), "s": (0, 1), "t": (0, 1),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "phase": (1, 1), "swap": (0, 2),
}
GATES = {**_BASE, **{"c" + name: (p, k + 1) for name, (p, k) in _BASE.items()}}
# Angles that zero entries exactly or leave them just below the edge tolerance.
EXACT_ANGLES = ("0", "pi/2", "pi", "3pi/2", "2pi", "-pi/2")

N_CIRCUITS = 60
SEED = 20261018
DIGEST = "6160dbecfc32d0fc0ed140f7fdd6a839825c660751792d95e46739c908677e27"
# Forty circuits drawn from small pools of repeated statements (see
# `repeated_circuit_text`), pinned the same way.
N_REPEATED_CIRCUITS = 40
REPEATED_SEED = 20261019
REPEATED_DIGEST = "d3758637d13cd8cbc454c7af8509184dbc67b0015f7d1b6b3f016f381fb131dc"


def _literal(matrix) -> str:
    return "[" + ",".join("[" + ",".join(repr(complex(z)) for z in row) + "]"
                          for row in matrix) + "]"


def _u2(gen) -> np.ndarray:
    theta, a, b, c = (float(v) for v in gen.uniform(0, 2 * math.pi, 4))
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    phase = complex(math.cos(c), math.sin(c))
    return phase * np.array([[cos, -complex(math.cos(b), math.sin(b)) * sin],
                             [complex(math.cos(a), math.sin(a)) * sin,
                              complex(math.cos(a + b), math.sin(a + b)) * cos]])


def _matrix_gate(gen, n) -> str:
    arity = int(gen.integers(1, min(2, n) + 1))
    kind = int(gen.integers(3))
    if arity == 1:
        m = _u2(gen) if kind else np.eye(2)[gen.permutation(2)]
    elif kind == 0:  # a permutation with phases: exact zeros
        phases = [complex(math.cos(p), math.sin(p)) for p in gen.uniform(0, 2 * math.pi, 4)]
        m = np.eye(4)[gen.permutation(4)] * np.array(phases)
    else:
        m = np.kron(_u2(gen), _u2(gen) if kind == 2 else np.eye(2))
    qubits = gen.permutation(n)[:arity]
    return f"matrix {_literal(m)} " + " ".join(str(q) for q in qubits)


def _input_line(gen, n) -> str:
    if gen.integers(2):
        return f"input {int(gen.integers(2 ** n))}"
    amps = gen.normal(size=2 ** n) + 1j * gen.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    return "input [" + ", ".join(repr(complex(z)) for z in amps) + "]"


def _statement(gen, n, names) -> str:
    if gen.integers(5) == 0:
        return _matrix_gate(gen, n)
    name = names[int(gen.integers(len(names)))]
    n_params, arity = GATES[name]
    head = name
    if n_params:
        angle = (EXACT_ANGLES[int(gen.integers(len(EXACT_ANGLES)))] if gen.integers(2)
                 else repr(float(gen.uniform(-2 * math.pi, 2 * math.pi))))
        head += f"({angle})"
    return head + " " + " ".join(str(q) for q in gen.permutation(n)[:arity])


def random_circuit_text(gen) -> str:
    n = int(gen.integers(1, 7))
    lines = [f"qubits {n}", _input_line(gen, n)]
    names = sorted(name for name, (_, k) in GATES.items() if k <= n)
    lines.extend(_statement(gen, n, names) for _ in range(int(gen.integers(0, 9))))
    return "\n".join(lines) + "\n"


def repeated_circuit_text(gen) -> str:
    """A circuit drawn from a small pool of statements, each used many times.

    The pool always holds two different 2x2 literals on one qubit, whose
    gates share a label but not their values; repeats may be indented or
    carry a comment.
    """
    n = int(gen.integers(1, 7))
    lines = [f"qubits {n}", _input_line(gen, n)]
    names = sorted(name for name, (_, k) in GATES.items() if k <= n)
    q = int(gen.integers(n))
    pool = [f"matrix {_literal(_u2(gen))} {q}", f"matrix {_literal(_u2(gen))} {q}"]
    pool.extend(_statement(gen, n, names) for _ in range(int(gen.integers(1, 5))))
    for i in gen.integers(len(pool), size=int(gen.integers(4, 25))):
        # Indents and comments are not part of a statement.
        lines.append(" " * int(gen.integers(3)) + pool[int(i)] + "  # again" * int(gen.integers(2)))
    return "\n".join(lines) + "\n"


def corpus(make_text, n_circuits, seed):
    """The diagrams of the seeded circuits, each in complete and then simplified mode."""
    gen = np.random.default_rng(seed)
    for _ in range(n_circuits):
        circuit = parse_circuit(make_text(gen))
        for mode in ("complete", "simplified"):
            yield build_diagram(circuit, mode=mode)


def render_digest(make_text=random_circuit_text, n_circuits=N_CIRCUITS, seed=SEED) -> str:
    h = hashlib.sha256()
    for diagram in corpus(make_text, n_circuits, seed):
        h.update(render_text(diagram).encode())
        h.update(render_svg(diagram).encode())
    return h.hexdigest()


def test_renders_keep_their_bytes():
    assert render_digest() == DIGEST


def test_renders_of_repeated_statements_keep_their_bytes():
    digest = render_digest(repeated_circuit_text, N_REPEATED_CIRCUITS, REPEATED_SEED)
    assert digest == REPEATED_DIGEST


def test_streamed_chunks_keep_both_digests():
    """Hashing each renderer's chunks as they are made gives the pinned bytes."""
    for args, digest in (((random_circuit_text, N_CIRCUITS, SEED), DIGEST),
                         ((repeated_circuit_text, N_REPEATED_CIRCUITS, REPEATED_SEED),
                          REPEATED_DIGEST)):
        h = hashlib.sha256()
        for diagram in corpus(*args):
            for chunk in itertools.chain(render_text_chunks(diagram), render_svg_chunks(diagram)):
                h.update(chunk.encode())
        assert h.hexdigest() == digest
