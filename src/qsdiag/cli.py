"""Command-line interface.

Subcommands: validate, evolve, purify, trace, ellipsoid, diagram.
Matrices travel as JSON ({"rows", "cols", "re", "im"}), channels as
"kind:theta[:a,b,c,d]" spec strings, ellipsoids as x,y,z CSV and circuits
in the text format of `qsdiag.diagram`.  Numeric flags accept finite
decimals or pi-fractions such as "pi/4".  validate, evolve, purify and
trace take a validation tolerance from --tol, else the QSDIAG_TOL
environment variable, else `validate_density`'s default, `qsdiag.core`'s
SPECTRAL_TOL (1e-10); it must be non-negative and below 1.  A matrix read as
a density matrix gets at least ALGEBRAIC_TOL for its Hermiticity and trace
and SPECTRAL_TOL for its eigenvalues, and `evolve`'s channel at least
ALGEBRAIC_TOL for its completeness; the bounds are `qsdiag.core`'s.
ellipsoid and diagram validate no matrix and take no --tol.
`ellipsoid --grid` needs at least 2x2 and is capped at MAX_GRID_POINTS
points; other grids are unusable flags (exit 2).
`trace` qubit arguments must name existing qubits and leave at least one
untraced; other qubit arguments are unusable (exit 2).  `evolve --steps` is
capped at MAX_STEPS, and its channel must act on the state's dimension
(exit 2).  `purify` of a matrix that is not single-qubit is unusable too
(exit 2).
Input files are read as UTF-8; other bytes are malformed input (exit 2), as
are a matrix whose shape fits no register of 1..MAX_QUBITS qubits, circuits
beyond `qsdiag.diagram.MAX_DIAGRAM_EDGES` and an --out target that cannot
be written (empty, a directory, a missing parent directory), which is
checked before the subcommand runs.  The register rule is `qsdiag.core`'s,
which the library applies too, so the CLI checks no shape itself and only
names the file in the message.

Every `cmd_*` returns (chunks, exit code), where chunks is an iterable of
str: one string for most subcommands, and for `diagram` the renderer's
generator, so `main` writes each layer as it is formatted and never holds
the whole document.  The --out target is opened only after the command
returns, so a failed command leaves it untouched and stdout empty; a write
that fails (a full disk, say) is reported on one `error:` line (exit 2).

Exit codes: 0 success, 1 domain failure (validation failed, non-physical
input, incomplete channel), 2 malformed input or unusable flags and
arguments (`qsdiag.core.FormatError`).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

from .bloch import affine_map_of_channel, ellipsoid_samples, points_to_csv
from .channels import channel_from_spec, parse_channel_spec
from .composite import partial_trace
from .core import (
    ALGEBRAIC_TOL,
    SPECTRAL_TOL,
    DensityMatrix,
    FormatError,
    _register_matrix,
    matrix_from_json,
    matrix_to_json,
    matrix_to_json_dict,
    parse_number,
    validate_density,
)
from .diagram import build_diagram, parse_circuit, render_svg_chunks, render_text_chunks
from .kraus import apply_channel
from .purify import purify_single_qubit

# Largest LATxLON product `ellipsoid --grid` accepts (the points are held in memory).
MAX_GRID_POINTS = 1_000_000
# Largest `evolve --steps`: about 0.15 s, at about 1 us a one-qubit step through
# the channel's transfer matrix.
MAX_STEPS = 100_000


def _resolve_tol(args) -> float:
    text = args.tol if args.tol is not None else os.environ.get("QSDIAG_TOL") or None
    if text is None:
        return SPECTRAL_TOL
    tol = parse_number(text)
    # Below 1, every accepted matrix has entries of order 2^n at most, so no
    # later sum can overflow.
    if not 0 <= tol < 1:
        raise FormatError(f"tolerance must be non-negative and below 1, got {text!r}")
    return tol


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _check_out_target(path: str):
    """Refuse an unwritable --out target (exit 2) before the command does any work."""
    if not path:
        raise FormatError("--out target is empty")
    target = Path(path)
    if target.is_dir():
        raise FormatError(f"--out target {path!r} is a directory")
    if not target.parent.is_dir():
        raise FormatError(f"--out target {path!r} is in a missing directory")


def _load_matrix(path: str):
    """A matrix JSON file that fits a register; `qsdiag.core` decides, this names the file."""
    matrix = matrix_from_json(_read_text(path))
    try:
        return _register_matrix(matrix)[0]
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _load_density(path: str, tol: float) -> DensityMatrix:
    return DensityMatrix(_load_matrix(path), atol=max(tol, ALGEBRAIC_TOL),
                         psd_tol=max(tol, SPECTRAL_TOL))


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
    return [text], 0 if report.passed else 1


def cmd_evolve(args) -> tuple:
    tol = _resolve_tol(args)
    rho = _load_density(args.rho, tol)
    channel = channel_from_spec(parse_channel_spec(args.channel))
    if not 0 <= args.steps <= MAX_STEPS:
        raise FormatError(f"--steps must be in 0..{MAX_STEPS}, got {args.steps}")
    rho = apply_channel(channel, rho, tol=max(tol, ALGEBRAIC_TOL), steps=args.steps)
    return [matrix_to_json(rho.matrix) + "\n"], 0


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
    return [json.dumps(doc, sort_keys=True) + "\n"], 0


def cmd_trace(args) -> tuple:
    tol = _resolve_tol(args)
    reduced = partial_trace(_load_density(args.rho, tol), sorted(set(args.qubits)))
    return [matrix_to_json(reduced.matrix) + "\n"], 0


def _parse_grid(text: str) -> tuple:
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise FormatError(f"--grid must look like LATxLON (e.g. 12x24), got {text!r}")
    try:
        n_lat, n_lon = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"--grid needs two integers, got {text!r}") from None
    if n_lat < 2 or n_lon < 2:
        raise FormatError(f"--grid needs at least 2x2 (both poles, two longitudes), got {text!r}")
    if n_lat * n_lon > MAX_GRID_POINTS:
        raise FormatError(f"--grid {text!r} exceeds the cap of {MAX_GRID_POINTS} points")
    return n_lat, n_lon


def cmd_ellipsoid(args) -> tuple:
    channel = channel_from_spec(parse_channel_spec(args.channel))
    n_lat, n_lon = _parse_grid(args.grid)
    affine = affine_map_of_channel(channel)
    return [points_to_csv(ellipsoid_samples(affine, n_lat, n_lon))], 0


def cmd_diagram(args) -> tuple:
    circuit = parse_circuit(_read_text(args.circuit))
    diag = build_diagram(circuit, mode=args.mode)
    render = render_svg_chunks if args.format == "svg" else render_text_chunks
    return render(diag), 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # Keep the message on its `error:` line when it quotes a line break.
        super().error(" ".join(message.splitlines()))


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every `main` call."""
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--tol", default=None,
                          help="tolerance override (decimal or pi-fraction); "
                               f"default: QSDIAG_TOL or {SPECTRAL_TOL:g}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this file")

    parser = _ArgumentParser(
        prog="qsdiag",
        description="Density-matrix channels, purification, Bloch ellipsoids "
                    "and diagrams of states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[tolerant, common],
                       help="check a matrix JSON file for density-matrix validity")
    p.add_argument("file", help="matrix JSON file")

    p = sub.add_parser("evolve", parents=[tolerant, common],
                       help="apply a channel to a density matrix")
    p.add_argument("rho", help="density matrix JSON file")
    p.add_argument("channel", help="channel spec, e.g. phase_flip:pi/2")
    p.add_argument("--steps", type=int, default=1, help="number of applications")

    p = sub.add_parser("purify", parents=[tolerant, common],
                       help="purify a single-qubit density matrix")
    p.add_argument("rho", help="density matrix JSON file")

    p = sub.add_parser("trace", parents=[tolerant, common],
                       help="trace out the given qubits of a density matrix")
    p.add_argument("rho", help="density matrix JSON file")
    p.add_argument("qubits", type=int, nargs="+", help="qubit indices to trace out")

    p = sub.add_parser("ellipsoid", parents=[common],
                       help="sample the Bloch-sphere image of a channel as CSV")
    p.add_argument("channel", help="channel spec, e.g. amp_damp_z_plus:pi/4")
    p.add_argument("--grid", default="12x24", help="latitude x longitude grid (default 12x24)")

    p = sub.add_parser("diagram", parents=[common],
                       help="render the diagram of states of a circuit file")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--mode", choices=["complete", "simplified"], default="complete")
    p.add_argument("--format", choices=["text", "svg"], default="text")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.out is not None:
            _check_out_target(args.out)
        # Looked up by name on each call, not bound into the cached parser, so a
        # replaced module attribute (a tracing wrapper, a test double) takes effect.
        chunks, code = globals()[f"cmd_{args.command}"](args)
        # The target opens only now, so a failed command leaves it untouched.
        # Flushed here, so a write error is reported once, not again at exit.
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w")) as out:
            for chunk in chunks:
                out.write(chunk)
            out.flush()
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
