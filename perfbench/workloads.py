"""Seeded inputs, CLI jobs and reference answers for each workload.

A workload is one pass (a cycle) of CLI jobs, repeated for the length of a
run.  The seed picks angles, states, qubits and gate orders; it never
changes how many jobs of each input class a cycle holds, so the timing of a
cycle depends on the program and not on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref

GOLDEN = (("identity", "complete"), ("cnot", "simplified"), ("purify", "simplified"))


@dataclass
class Job:
    """One CLI invocation and how to judge what it did."""

    name: str
    argv: list
    out: Path
    expect_code: int
    check: Callable
    klass: str
    n_qubits: int = 0
    counts: dict = field(default_factory=dict)


@dataclass
class Plan:
    jobs: list
    warmup: list
    largest: str  # input class that largest_p50_ms reads
    tail_cap: float  # highest percentile that job_tail_ms may read


@dataclass
class DiagramRef:
    n: int
    mode: str
    layers: list
    active: list
    final: np.ndarray
    labels: list
    input_label: str


def _write_matrix(path: Path, m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    doc = {"rows": m.shape[0], "cols": m.shape[1],
           "re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def _angle(rng) -> float:
    """A rotation angle whose sine and cosine of t/2 both stay far from zero."""
    return float(rng.uniform(0.2, math.pi - 0.2) + math.pi * rng.integers(2))


# ---------------------------------------------------------------------------
# Diagram workloads


def _circuit_jobs(wd: Path, name: str, n: int, gates, index: int, variants, klass):
    """Write a circuit file and one job per (mode, format) variant."""
    lines = [f"qubits {n}", f"input {index}"]
    for g, params, qubits in gates:
        head = g + ("(" + ",".join(repr(p) for p in params) + ")" if params else "")
        lines.append(head + " " + " ".join(map(str, qubits)))
    path = wd / f"{name}.qs"
    path.write_text("\n".join(lines) + "\n")
    mats = [(ref.gate_matrix(g, params), qubits) for g, params, qubits in gates]
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[index] = 1.0
    final = ref.simulate(n, mats, psi0)
    jobs = []
    by_mode = {}  # the text and SVG jobs of one mode share their reference layers
    for mode, fmt in variants:
        if mode not in by_mode:
            by_mode[mode] = ref.diagram_layers(n, mats, psi0, mode)
        layers, active, enumerated = by_mode[mode]
        dref = DiagramRef(n, mode, layers, active, final, list(gates), f"|{index:0{n}b}>")
        check = checks.diagram_text(dref) if fmt == "text" else checks.diagram_svg(dref)
        out = wd / f"{name}.{mode}.{fmt}.out"
        counts = {
            "edges_enumerated": enumerated,
            "edges_kept": sum(s.size for s, _, _ in layers),
            "active_lines": int(sum(a.sum() for a in active)),
        }
        jobs.append(Job(f"{name}/{mode}/{fmt}",
                        ["diagram", str(path), "--mode", mode, "--format", fmt, "--out", str(out)],
                        out, 0, check, klass, n, counts))
    return jobs


def _golden_jobs(wd: Path, root: Path):
    jobs = []
    for name, mode in GOLDEN:
        for fmt, ext in (("text", "txt"), ("svg", "svg")):
            expected = (root / "tests" / "golden" / f"{name}.{ext}").read_bytes()
            out = wd / f"golden-{name}.{ext}"
            argv = ["diagram", str(root / "tests" / "golden" / f"{name}.qs"),
                    "--mode", mode, "--format", fmt, "--out", str(out)]
            jobs.append(Job(f"golden/{name}.{ext}", argv, out, 0,
                            checks.exact_bytes(expected), "golden"))
    return jobs


# One dense and one diagonal rotation: fixed edge counts, seeded angles and qubits.
DENSE_ROTATIONS = ("ry", "rz")


def dense_gates(rng, n: int):
    """An H layer, a CX ring and seeded rotations: every line ends up active."""
    gates = [("h", (), (q,)) for q in range(n)]
    gates += [("cx", (), (q, (q + 1) % n)) for q in range(n)]
    for axis in DENSE_ROTATIONS:
        gates.append((axis, (_angle(rng),), (int(rng.integers(n)),)))
    return gates


# (qubits, depth, circuits, formats) per input class.  Nine jobs in ten are
# n = 3, so job_p50_ms and job_tail_ms (p75) both read well inside that
# band, which holds over a hundred samples in a run, rather than a dozen
# n = 6 samples or the edge between two bands.  Two of the three n = 10
# jobs are text, so largest_p50_ms reads the text jobs and not the gap
# between text and SVG.
SPARSE_SIZES = {
    False: ((3, 256, 44, ("text", "svg")), (6, 128, 3, ("text", "svg")),
            (10, 64, 2, ("text",)), (10, 64, 1, ("svg",))),
    True: ((3, 14, 1, ("text", "svg")), (4, 14, 1, ("text", "svg"))),
}
SPARSE_KINDS = (("x", 1), ("cx", 2), ("cz", 2), ("swap", 2), ("s", 1), ("t", 1), ("rz", 1))


def sparse_gates(rng, n: int, depth: int):
    """Reversible logic on a basis state: support stays on one line.

    Each kind appears depth/7 times (rounded), in a seeded order.
    """
    kinds = [SPARSE_KINDS[i % len(SPARSE_KINDS)] for i in range(depth)]
    gates = []
    for i in rng.permutation(depth):
        name, arity = kinds[i]
        qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        params = (float(rng.uniform(-math.pi, math.pi)),) if name == "rz" else ()
        gates.append((name, params, qubits))
    return gates


def build_sparse(rng, wd: Path, tiny: bool, root: Path) -> Plan:
    jobs = []
    for k, (n, depth, count, formats) in enumerate(SPARSE_SIZES[tiny]):
        for c in range(count):
            jobs += _circuit_jobs(wd, f"sparse-n{n}-{k}-{c}", n, sparse_gates(rng, n, depth),
                                  int(rng.integers(1 << n)),
                                  [("simplified", fmt) for fmt in formats], f"n{n}")
    largest = f"n{SPARSE_SIZES[tiny][-1][0]}"
    return Plan(_shuffled(rng, jobs), _golden_jobs(wd, root), largest, 75)


# ---------------------------------------------------------------------------
# Channel and density-matrix workload


def _channel(rng, kind: str):
    """A seeded spec string for `kind` and its reference Kraus operators."""
    theta = float(rng.uniform(0.0, math.pi))
    if kind == "depolarizing_general":
        env = rng.normal(size=4)
        env /= np.linalg.norm(env)
        spec = f"{kind}:0:" + ",".join(repr(float(a)) for a in env)
        return spec, ref.kraus_operators(kind, 0.0, env)
    return f"{kind}:{theta!r}", ref.kraus_operators(kind, theta)


def _evolve_job(rng, wd: Path, name: str, kind: str, steps: int) -> Job:
    rho = ref.random_qubit_state(rng)
    spec, ops = _channel(rng, kind)
    expected = rho
    for _ in range(steps):
        expected = ref.operator_sum(ops, expected)
    out = wd / f"{name}.json.out"
    argv = ["evolve", _write_matrix(wd / f"{name}.json", rho), spec,
            "--steps", str(steps), "--out", str(out)]
    return Job(name, argv, out, 0, checks.matrix_json(expected), "evolve")


def _ellipsoid_job(rng, wd: Path, name: str, kind: str, grid) -> Job:
    spec, ops = _channel(rng, kind)
    m, c = ref.bloch_affine(ops)
    out = wd / f"{name}.csv.out"
    argv = ["ellipsoid", spec, "--grid", f"{grid[0]}x{grid[1]}", "--out", str(out)]
    return Job(name, argv, out, 0, checks.ellipsoid_csv(ref.ellipsoid_points(m, c, *grid)),
               "ellipsoid", counts={"points": grid[0] * grid[1]})


def _purify_job(rng, wd: Path, name: str) -> Job:
    rho = ref.random_qubit_state(rng)
    out = wd / f"{name}.json.out"
    argv = ["purify", _write_matrix(wd / f"{name}.json", rho), "--out", str(out)]
    return Job(name, argv, out, 0, checks.purification(rho), "purify")


def _matrix_jobs(rng, wd: Path, name: str, n: int, valid: bool):
    """A validate job and a trace job on one n-qubit matrix."""
    d = 1 << n
    spectrum = 0.5 * rng.dirichlet(np.ones(d)) + 0.5 / d
    if not valid:
        spectrum[0] = -0.05
        spectrum[1:] *= 1.05 / spectrum[1:].sum()
    rho = ref.density_with_spectrum(rng, spectrum)
    path = _write_matrix(wd / f"{name}.json", rho)
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    traced = sorted(int(q) for q in rng.choice(n, size=n // 2, replace=False))
    klass = f"n{n}"
    out_v = wd / f"{name}.validate.out"
    out_t = wd / f"{name}.trace.out"
    trace_check = (checks.matrix_json(ref.partial_trace(rho, traced)) if valid
                   else checks.stderr_mentions("not PSD"))
    return [
        Job(f"{name}/validate", ["validate", path, "--out", str(out_v)], out_v,
            0 if valid else 1, checks.validate_report(min_eig, valid), klass, n),
        Job(f"{name}/trace", ["trace", path, *map(str, traced), "--out", str(out_t)], out_t,
            0 if valid else 1, trace_check, klass, n),
    ]


CHANNEL_STEPS = 80
CHANNEL_SIZES = {
    False: {"grids": ((12, 24), (25, 50), (50, 100), (200, 400)), "purify": 4,
            "matrices": (2, 2, 4, 4, 6, 6, 6, 6, 8, 8), "invalid": 3},
    True: {"grids": ((4, 8), (6, 12)), "purify": 2, "matrices": (2, 2, 3, 3), "invalid": 1},
}


def build_channel(rng, wd: Path, tiny: bool, root: Path) -> Plan:
    size = CHANNEL_SIZES[tiny]
    jobs = [_evolve_job(rng, wd, f"evolve-{kind}", kind, CHANNEL_STEPS)
            for kind in ref.CHANNEL_KINDS]
    jobs += [_ellipsoid_job(rng, wd, f"ellipsoid-{g[0]}x{g[1]}",
                            ref.CHANNEL_KINDS[rng.integers(len(ref.CHANNEL_KINDS))], g)
             for g in size["grids"]]
    jobs += [_purify_job(rng, wd, f"purify-{i}") for i in range(size["purify"])]
    for i, n in enumerate(size["matrices"]):
        jobs += _matrix_jobs(rng, wd, f"matrix-{i}-n{n}", n, i != size["invalid"])
    warm = [_evolve_job(rng, wd, "warm-evolve", "amp_damp_x_plus", 2),
            _ellipsoid_job(rng, wd, "warm-ellipsoid", "bit_flip", (3, 4)),
            _purify_job(rng, wd, "warm-purify")]
    warm += _matrix_jobs(rng, wd, "warm-matrix", 2, True)
    return Plan(_shuffled(rng, jobs), warm, f"n{max(size['matrices'])}", 95)


# ---------------------------------------------------------------------------
# Subprocess workload


def build_cold(rng, wd: Path, tiny: bool, root: Path) -> Plan:
    kinds = [k for k in ref.CHANNEL_KINDS if k != "depolarizing_general"]
    jobs = [
        _matrix_jobs(rng, wd, "cold-q1", 1, True)[0],
        _matrix_jobs(rng, wd, "cold-q1-bad", 1, False)[0],
        _evolve_job(rng, wd, "cold-evolve", kinds[rng.integers(len(kinds))], 4),
        _purify_job(rng, wd, "cold-purify"),
        _matrix_jobs(rng, wd, "cold-q2", 2, True)[1],
        _ellipsoid_job(rng, wd, "cold-ellipsoid", kinds[rng.integers(len(kinds))], (6, 12)),
    ]
    jobs += _circuit_jobs(wd, "cold-circuit", 3, dense_gates(rng, 3), 0,
                          (("simplified", "text"), ("complete", "svg")), "diagram")
    bad_line = int(rng.integers(3, 7))
    lines = ["qubits 2", "input 0"] + ["h 0"] * (bad_line - 3) + ["frob 1", "x 0"]
    bad = wd / "cold-malformed.qs"
    bad.write_text("\n".join(lines) + "\n")
    out = wd / "cold-malformed.out"
    jobs.append(Job("cold-malformed", ["diagram", str(bad), "--out", str(out)], out, 2,
                    checks.stderr_mentions(f"line {bad_line},"), "malformed"))
    for job in jobs:
        job.name = "cold/" + job.name
    return Plan(_shuffled(rng, jobs), [jobs[0]], "diagram", 75)


def _shuffled(rng, jobs):
    return [jobs[i] for i in rng.permutation(len(jobs))]


BUILDERS = {
    "diagram-sparse": build_sparse,
    "channel-density": build_channel,
    "cli-cold": build_cold,
}
