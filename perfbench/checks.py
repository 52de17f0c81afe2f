"""Output checks: each compares one CLI output with a reference answer.

A check takes the bytes the program wrote (None when it wrote nothing) and
its stderr text, and returns a description of the first problem found, or
None when the output is correct.
"""

from __future__ import annotations

import json
import re
from xml.parsers import expat

import numpy as np

from reference import EDGE_TOL

# Font size of edge labels under qsdiag's default SVG layout (11 - 2).
SVG_EDGE_FONT = "9"
# Relative error of a value printed with three significant digits.
FMT3_REL = 5.01e-3
# Numbers printed with 17 significant digits must match the reference this well.
NUM_TOL = 1e-9

_EDGE_RE = re.compile(r"^    (\d+) -> (\d+)  (\S+)$")
_AMP_RE = re.compile(r"^    (\d+)  (\S+)$")


def _close3(printed: np.ndarray, ref: np.ndarray) -> bool:
    """Whether three-significant-digit prints agree with reference amplitudes."""
    slack = FMT3_REL * (np.abs(ref.real) + np.abs(ref.imag)) + 1e-11
    return bool(np.all(np.abs(printed - ref) <= slack))


def _matrix(doc: dict) -> np.ndarray:
    m = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return m.reshape(doc["rows"], doc["cols"])


def _fmt_label(name, params, qubits) -> str:
    head = name + ("(" + ",".join(f"{p:.6g}" for p in params) + ")" if params else "")
    return head + " " + " ".join(str(q) for q in qubits)


def diagram_text(ref):
    """Check a text diagram: chart rows, every layer's edges, output amplitudes."""
    def check(data, err):
        if data is None:
            return "no output written"
        lines = data.decode().split("\n")
        n, layers, active = ref.n, ref.layers, ref.active
        n_lines, n_layers = 1 << n, len(layers)
        iw, dw = len(str(n_lines - 1)), len(str(max(n_layers, 1)))
        expect = [f"lines: {n_lines}  layers: {n_layers}  mode: {ref.mode}",
                  f"input: {ref.input_label}", ""]
        touched = []
        for src, dst, _ in layers:
            t = np.zeros(n_lines, dtype=bool)
            t[src] = True
            t[dst] = True
            touched.append(t)
        for i in range(n_lines):
            row = [f"{i:>{iw}} |{i:0{n}b}> "]
            for t in range(n_layers):
                row.append("====" if active[t][i] else "----")
                row.append(f"[{t + 1:>{dw}}]" if touched[t][i] else "[" + " " * dw + "]")
            row.append("====" if active[n_layers][i] else "----")
            expect.append("".join(row))
        head = len(expect)
        if lines[:head] != expect:
            bad = next((i for i, (a, b) in enumerate(zip(lines, expect)) if a != b), len(lines))
            return f"chart line {bad + 1} differs from {expect[bad]!r}"
        pos = head
        for t, (src, dst, amp) in enumerate(layers):
            title = f"[{t + 1}] {_fmt_label(*ref.labels[t])}"
            if lines[pos:pos + 2] != ["", title]:
                return f"layer {t + 1} heading {lines[pos + 1:pos + 2]} != {title!r}"
            pos += 2
            body = lines[pos:pos + src.size]
            parsed = [_EDGE_RE.match(s) for s in body]
            if len(body) != src.size or not all(parsed):
                return f"layer {t + 1}: expected {src.size} edge lines"
            got = np.array([[int(m[1]), int(m[2])] for m in parsed], dtype=np.int64)
            if not (np.array_equal(got[:, 0], src) and np.array_equal(got[:, 1], dst)):
                return f"layer {t + 1}: edge endpoints differ from the reference"
            if not _close3(np.array([complex(m[3]) for m in parsed]), amp):
                return f"layer {t + 1}: edge amplitudes differ from the reference"
            pos += src.size
        if lines[pos:pos + 2] != ["", "output amplitudes:"]:
            return "missing output amplitudes section"
        pos += 2
        rows = [_AMP_RE.match(s) for s in lines[pos:-1]]
        if lines[-1] != "" or not all(rows):
            return "malformed output amplitudes section"
        listed = {int(m[1]): complex(m[2]) for m in rows}
        mag = np.abs(ref.final)
        must = set(np.nonzero(mag > 10 * EDGE_TOL)[0].tolist())
        may = set(np.nonzero(mag > EDGE_TOL / 10)[0].tolist())
        if not must <= set(listed) <= may:
            return "listed output amplitudes do not match the simulated support"
        idx = sorted(listed)
        if not _close3(np.array([listed[i] for i in idx]), ref.final[idx]):
            return "output amplitudes differ from the einsum simulation"
        return None
    return check


def diagram_svg(ref):
    """Check an SVG diagram: well-formed XML, one labelled line per edge."""
    n_lines = 1 << ref.n
    edges = sum(src.size for src, _, _ in ref.layers)
    # Stubs at every boundary, one line per edge, and a thin continuation
    # for every line without an outgoing edge in a layer.
    total_lines = (len(ref.layers) + 1) * n_lines + sum(
        src.size + n_lines - np.unique(src).size for src, _, _ in ref.layers)

    def check(data, err):
        if data is None:
            return "no output written"
        counts = {"line": 0, "labels": 0, "edge_lines": 0}
        prev = [None]

        def start(tag, attrs):
            if tag == "line":
                counts["line"] += 1
            elif tag == "text" and attrs.get("font-size") == SVG_EDGE_FONT:
                counts["labels"] += 1
                counts["edge_lines"] += prev[0] == "line"
            prev[0] = tag

        parser = expat.ParserCreate()
        parser.StartElementHandler = start
        try:
            parser.Parse(data, True)
        except expat.ExpatError as exc:
            return f"SVG is not well-formed XML: {exc}"
        if counts["edge_lines"] != edges or counts["labels"] != edges:
            return f"SVG draws {counts['edge_lines']} edge lines, reference has {edges} edges"
        if counts["line"] != total_lines:
            return f"SVG has {counts['line']} line elements, expected {total_lines}"
        return None
    return check


def matrix_json(expected: np.ndarray):
    """Check a JSON matrix against a reference matrix."""
    def check(data, err):
        if data is None:
            return "no output written"
        got = _matrix(json.loads(data))
        if got.shape != expected.shape:
            return f"matrix shape {got.shape} != {expected.shape}"
        defect = float(np.max(np.abs(got - expected)))
        return None if defect <= NUM_TOL else f"matrix differs from reference by {defect:.3e}"
    return check


def purification(rho: np.ndarray):
    """Check that tracing the ancilla (qubit 0) out of the state gives rho back."""
    def check(data, err):
        if data is None:
            return "no output written"
        psi = _matrix(json.loads(data)["state"]).reshape(2, 2)
        defect = float(np.max(np.abs(psi @ psi.conj().T - rho)))
        return None if defect <= NUM_TOL else f"partial trace misses rho by {defect:.3e}"
    return check


def ellipsoid_csv(points: np.ndarray):
    """Check CSV points against M v + c on the latitude/longitude grid."""
    def check(data, err):
        if data is None:
            return "no output written"
        text = data.decode()
        if not text.startswith("x,y,z\n"):
            return "missing x,y,z header"
        got = np.array([row.split(",") for row in text.split("\n")[1:-1]], dtype=float)
        if got.shape != points.shape:
            return f"{got.shape[0]} points, expected {points.shape[0]}"
        defect = float(np.max(np.abs(got - points)))
        return None if defect <= NUM_TOL else f"points differ from M v + c by {defect:.3e}"
    return check


def validate_report(min_eig: float, passes: bool):
    """Check the validate verdict and the reported minimum eigenvalue."""
    def check(data, err):
        if data is None:
            return "no output written"
        text = data.decode()
        verdict = "PASS" if passes else "FAIL"
        if f"result: {verdict}" not in text:
            return f"verdict is not {verdict}"
        m = re.search(r"min eigenvalue:\s+(\S+)", text)
        # printed as %.6e
        if not m or abs(float(m[1]) - min_eig) > 1e-6 * abs(min_eig) + 1e-12:
            return f"reported min eigenvalue {m and m[1]} != {min_eig:.6e}"
        return None
    return check


def stderr_mentions(fragment: str):
    """Check a failure that writes no output and names `fragment` on stderr."""
    def check(data, err):
        if data is not None:
            return "a failing job wrote output"
        return None if fragment in err else f"stderr lacks {fragment!r}: {err.strip()!r}"
    return check


def exact_bytes(expected: bytes):
    """Byte-compare with a committed golden file."""
    def check(data, err):
        return None if data == expected else "output differs from the golden file"
    return check
