"""Command-line interface.

Subcommands: validate, evolve, purify, trace, ellipsoid, diagram.
Matrices travel as JSON ({"rows", "cols", "re", "im"}), channels as
"kind:theta[:a,b,c,d]" spec strings, ellipsoids as x,y,z CSV and circuits
in the text format of `qsdiag.diagram`.  Numeric flags accept finite
decimals or pi-fractions such as "pi/4".  The validation tolerance comes
from --tol, else the QSDIAG_TOL environment variable, else 1e-10; it must
be non-negative.  `ellipsoid --grid` is capped at MAX_GRID_POINTS points.

Exit codes: 0 success, 1 domain failure (validation failed, non-physical
input, incomplete channel), 2 malformed input or unusable flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bloch import affine_map_of_channel, ellipsoid_samples, points_to_csv
from .channels import channel_from_spec, parse_channel_spec
from .composite import partial_trace
from .core import (
    DensityMatrix,
    FormatError,
    matrix_from_json,
    matrix_to_json,
    matrix_to_json_dict,
    parse_number,
    validate_density,
)
from .diagram import build_diagram, parse_circuit, render_svg, render_text
from .kraus import apply_channel
from .purify import purify_single_qubit

DEFAULT_TOL = 1e-10
# Largest LATxLON product `ellipsoid --grid` accepts (the points are held in memory).
MAX_GRID_POINTS = 1_000_000


def _resolve_tol(args) -> float:
    text = args.tol if args.tol is not None else os.environ.get("QSDIAG_TOL") or None
    if text is None:
        return DEFAULT_TOL
    tol = parse_number(text)
    if tol < 0:
        raise FormatError(f"tolerance must be non-negative, got {text!r}")
    return tol


def _load_matrix(path: str):
    return matrix_from_json(Path(path).read_text())


def _load_density(path: str, tol: float) -> DensityMatrix:
    return DensityMatrix(
        _load_matrix(path), atol=max(tol, 1e-12), psd_tol=max(tol, 1e-10)
    )


def cmd_validate(args) -> tuple:
    tol = _resolve_tol(args)
    report = validate_density(_load_matrix(args.file), tol=tol)
    verdict = "PASS" if report.passed else "FAIL"
    text = (
        f"hermiticity defect: {report.hermiticity_defect:.6e}\n"
        f"trace defect:       {report.trace_defect:.6e}\n"
        f"min eigenvalue:     {report.min_eigenvalue:.6e}\n"
        f"result: {verdict} (tol {tol:.1e})\n"
    )
    return text, 0 if report.passed else 1


def cmd_evolve(args) -> tuple:
    tol = _resolve_tol(args)
    rho = _load_density(args.rho, tol)
    channel = channel_from_spec(parse_channel_spec(args.channel))
    if args.steps < 0:
        raise FormatError(f"--steps must be non-negative, got {args.steps}")
    for _ in range(args.steps):
        rho = apply_channel(channel, rho, tol=max(tol, 1e-12))
    return matrix_to_json(rho.matrix) + "\n", 0


def cmd_purify(args) -> tuple:
    tol = _resolve_tol(args)
    result = purify_single_qubit(_load_density(args.rho, tol))

    def pair(z: complex) -> list:
        return [z.real + 0.0, z.imag + 0.0]

    doc = {
        "state": matrix_to_json_dict(result.state.amplitudes.reshape(-1, 1)),
        "coefficients": {
            "c00": pair(result.c00),
            "c01": pair(result.c01),
            "c10": pair(result.c10),
            "c11": pair(result.c11),
        },
        "angles": {
            "theta1": result.theta1,
            "theta2": result.theta2,
            "phi": result.phi,
        },
    }
    return json.dumps(doc, sort_keys=True) + "\n", 0


def cmd_trace(args) -> tuple:
    tol = _resolve_tol(args)
    rho = _load_density(args.rho, tol)
    reduced = partial_trace(rho, sorted(set(args.qubits)))
    return matrix_to_json(reduced.matrix) + "\n", 0


def _parse_grid(text: str) -> tuple:
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise FormatError(f"--grid must look like LATxLON (e.g. 12x24), got {text!r}")
    try:
        n_lat, n_lon = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"--grid needs two integers, got {text!r}") from None
    if n_lat * n_lon > MAX_GRID_POINTS:
        raise FormatError(f"--grid {text!r} exceeds the cap of {MAX_GRID_POINTS} points")
    return n_lat, n_lon


def cmd_ellipsoid(args) -> tuple:
    channel = channel_from_spec(parse_channel_spec(args.channel))
    n_lat, n_lon = _parse_grid(args.grid)
    affine = affine_map_of_channel(channel)
    return points_to_csv(ellipsoid_samples(affine, n_lat, n_lon)), 0


def cmd_diagram(args) -> tuple:
    circuit = parse_circuit(Path(args.circuit).read_text())
    diag = build_diagram(circuit, mode=args.mode)
    if args.format == "svg":
        return render_svg(diag), 0
    return render_text(diag), 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", default=None,
                        help="tolerance override (decimal or pi-fraction); "
                             "default: QSDIAG_TOL or 1e-10")
    common.add_argument("--out", default=None, help="write output to this file")

    parser = argparse.ArgumentParser(
        prog="qsdiag",
        description="Density-matrix channels, purification, Bloch ellipsoids "
                    "and diagrams of states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a matrix JSON file for density-matrix validity")
    p.add_argument("file", help="matrix JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evolve", parents=[common],
                       help="apply a channel to a density matrix")
    p.add_argument("rho", help="density matrix JSON file")
    p.add_argument("channel", help="channel spec, e.g. phase_flip:pi/2")
    p.add_argument("--steps", type=int, default=1, help="number of applications")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("purify", parents=[common],
                       help="purify a single-qubit density matrix")
    p.add_argument("rho", help="density matrix JSON file")
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("trace", parents=[common],
                       help="trace out the given qubits of a density matrix")
    p.add_argument("rho", help="density matrix JSON file")
    p.add_argument("qubits", type=int, nargs="+", help="qubit indices to trace out")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("ellipsoid", parents=[common],
                       help="sample the Bloch-sphere image of a channel as CSV")
    p.add_argument("channel", help="channel spec, e.g. amp_damp_z_plus:pi/4")
    p.add_argument("--grid", default="12x24", help="latitude x longitude grid (default 12x24)")
    p.set_defaults(func=cmd_ellipsoid)

    p = sub.add_parser("diagram", parents=[common],
                       help="render the diagram of states of a circuit file")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--mode", choices=["complete", "simplified"], default="complete")
    p.add_argument("--format", choices=["text", "svg"], default="text")
    p.set_defaults(func=cmd_diagram)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        text, code = args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
