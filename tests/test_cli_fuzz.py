"""The CLI's boundary contract, checked on mutated inputs.

Golden circuits, matrix JSON and channel spec strings are mutated by byte
insertion, deletion and duplication and by swapping a word for an extreme
token, then fed to `cli.main`, with the payload sent to stdout, to an
`--out` file, to an `--out` target that cannot be written (a directory, a
path under a missing directory), or to `/dev/full`, where the write itself
fails after the command has run.  Whatever the input, the call returns exit
code 0, 1 or 2 without raising or warning, within a fixed wall time; a
non-zero exit writes no payload and ends stderr with an `error:` line,
except `validate`, whose failed verdict is its report; an `--out` payload
never reaches stdout, an unwritable target or a `--tol` on a subcommand
that takes none always exits 2, and a payload sent to `/dev/full` never
exits 0.
"""

import contextlib
import io
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdiag import matrix_to_json
from qsdiag.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
CIRCUITS = tuple(p.read_bytes() for p in sorted(GOLDEN_DIR.glob("*.qs")))
MATRICES = tuple(matrix_to_json(m).encode() for m in (
    np.array([[0.5, 0.25], [0.25, 0.5]]),
    np.array([[0.5, 0.5j], [-0.5j, 0.5]]),
    np.diag([0.4, 0.3, 0.2, 0.1]),
    np.array([[0.9, 0.5], [0.5, 0.1]]),
))
SPECS = (b"phase_flip:pi/2", b"amp_damp_z_plus:pi/4", b"rotation_y:-pi/3",
         b"depolarizing_general:0.3:0.5,0.5,0.5,0.5", b"depolarizing_standard:1")
TOKENS = (b"1e308", b"-1e308", b"-0", b"nan", str(10 ** 400).encode(), b"[" * 5000,
          b"\xff", b"4294967296", b"99999999999999999999")
# Generous against the slowest legitimate example (a 10-qubit diagram) on a slow host.
WALL_S = 5.0
WORD = re.compile(rb"[-\w.]+")


@st.composite
def mutated(draw, seeds):
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "duplicate", "token")))
        words = list(WORD.finditer(data))
        if kind == "token" and words:
            word = draw(st.sampled_from(words))
            data[word.start():word.end()] = draw(st.sampled_from(TOKENS))
            continue
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        if kind == "insert":
            data[i:i] = bytes([draw(st.integers(0, 255))])
        elif kind == "delete":
            del data[i:j]
        else:
            data[i:i] = data[i:j]
    return bytes(data)


def arg(data: bytes) -> str:
    """Bytes as a command-line argument arrives on POSIX."""
    return data.decode("utf-8", "surrogateescape")


COUNTS = st.sampled_from(TOKENS) | st.integers(-1, 4).map(lambda n: str(n).encode())


@st.composite
def cases(draw):
    """(argv with FILE for the input path, input file bytes or None).

    Every subcommand may draw `--tol`; only validate, evolve, purify and
    trace accept it.
    """
    source = draw(st.sampled_from(("circuit", "matrix", "spec")))
    if source == "circuit":
        argv = ["diagram", "FILE", "--mode", draw(st.sampled_from(("complete", "simplified"))),
                "--format", draw(st.sampled_from(("text", "svg")))]
        payload = draw(mutated(CIRCUITS))
    elif source == "matrix":
        command = draw(st.sampled_from(("validate", "evolve", "purify", "trace")))
        argv = [command, "FILE"]
        if command == "evolve":
            argv += [arg(draw(st.sampled_from(SPECS))), "--steps", arg(draw(COUNTS))]
        elif command == "trace":
            argv += [arg(draw(COUNTS))]
        payload = draw(mutated(MATRICES))
    else:
        spec = arg(draw(mutated(SPECS)))
        if draw(st.booleans()):
            argv = ["ellipsoid", spec, "--grid", arg(draw(mutated((b"12x24", b"3x2"))))]
            payload = None
        else:
            argv, payload = ["evolve", "FILE", spec], MATRICES[0]
    if draw(st.booleans()):
        argv += ["--tol", arg(draw(mutated((b"1e-10", b"0.5"))))]
    return argv, payload


# Where the payload goes: stdout, an --out file, an --out target that cannot be
# written, or one whose every write fails (ENOSPC), where the system has one.
DEV_FULL = Path("/dev/full")
TARGETS = (None, "file", "directory", "missing") + (("full",) if DEV_FULL.exists() else ())
UNWRITABLE = ("directory", "missing")
# Subcommands that validate no matrix and so take no --tol.
TOLLESS = ("diagram", "ellipsoid")


# Branches the draws reach only by the luck of their order, pinned as examples:
# an argparse message quoting a line break, a command that would exit 1 on its
# input but has an unwritable --out, --tol where none is taken, purify of a
# two-qubit matrix, and a multi-chunk SVG sent to a full device.
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cases(), st.sampled_from(TARGETS))
@example((["validate", "FILE", "a\nb"], MATRICES[0]), None)
@example((["evolve", "FILE", "phase_flip:pi/2"], MATRICES[3]), "directory")
@example((["diagram", "FILE", "--mode", "complete", "--format", "text", "--tol", "1e-10"],
          CIRCUITS[0]), None)
@example((["purify", "FILE"], MATRICES[2]), None)
@example((["diagram", "FILE", "--mode", "complete", "--format", "svg"], CIRCUITS[-1]), "full")
def test_cli_contract_holds_on_mutated_input(case, target):
    argv, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if payload is not None:
            path.write_bytes(payload)
        argv = [str(path) if a == "FILE" else a for a in argv]
        out_path = {"file": Path(tmp) / "output", "directory": Path(tmp),
                    "missing": Path(tmp) / "missing" / "output", "full": DEV_FULL}.get(target)
        if out_path is not None:
            argv += ["--out", str(out_path)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
        written = out_path.read_text() if target == "file" and out_path.exists() else ""
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    assert elapsed < WALL_S
    if target is not None:
        assert out == ""
        out = written
    if target in UNWRITABLE or (argv[0] in TOLLESS and "--tol" in argv):
        assert code == 2
    if target == "full":
        assert code != 0
    if code == 0:
        return
    if argv[0] == "validate" and code == 1:
        assert err == "" and "result: FAIL" in out
    else:
        assert out == ""
        assert "error:" in err.splitlines()[-1]
