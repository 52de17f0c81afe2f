"""Single-qubit channel factories.

Every factory returns a `KrausChannel` tagged with the channel kind.
Angle arguments follow the half-angle convention of the underlying
operators: deformation and displacement channels use cos(theta/2) /
sin(theta/2) weights with theta in [0, pi], so theta = 0 is the identity
and theta = pi is the extremal channel.

Kinds and their Bloch-sphere behaviour:

====================  =====================================================
rotation_x/y/z        unitary rotation of the Bloch ball about the axis
bit_flip              shrinks y and z by cos(theta), keeps x
bit_phase_flip        shrinks x and z by cos(theta), keeps y
phase_flip            shrinks x and y by cos(theta), keeps z
amp_damp_<a>_<sign>   contracts toward the <sign> pole of axis <a>
depolarizing_general  Pauli mixture weighted by an environment 4-vector
depolarizing_standard symmetric shrink by 1 - (4/3) sin(theta)^2
====================  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, FormatError, parse_complex, parse_number
from .kraus import KrausChannel, prune_operators

DEFORMATION_KINDS = ("bit_flip", "bit_phase_flip", "phase_flip")
ROTATION_KINDS = ("rotation_x", "rotation_y", "rotation_z")
AMP_DAMP_KINDS = tuple(
    f"amp_damp_{axis}_{sign}" for axis in "xyz" for sign in ("plus", "minus")
)
CHANNEL_KINDS = frozenset(
    ROTATION_KINDS
    + DEFORMATION_KINDS
    + AMP_DAMP_KINDS
    + ("depolarizing_general", "depolarizing_standard")
)

# Channels whose Kraus weights are cos(theta/2) / sin(theta/2) only cover
# distinct actions for theta in [0, pi]; reject anything outside.
_BOUNDED_THETA_KINDS = frozenset(
    DEFORMATION_KINDS + AMP_DAMP_KINDS + ("depolarizing_standard",)
)

_DEFORMATION_AXES = {"bit_flip": SIGMA_X, "bit_phase_flip": SIGMA_Y, "phase_flip": SIGMA_Z}

# Basis-change unitaries that carry |0> onto the target pole of the x / y
# axes; conjugating the z-axis damping operators with these produces the
# x / y displacement channels.
_SQ2 = 1.0 / math.sqrt(2.0)
_POLE_FRAMES = {
    ("x", "plus"): np.array([[1, -1], [1, 1]], dtype=complex) * _SQ2,
    ("x", "minus"): np.array([[1, 1], [-1, 1]], dtype=complex) * _SQ2,
    ("y", "plus"): np.array([[1, 1j], [1j, 1]], dtype=complex) * _SQ2,
    ("y", "minus"): np.array([[1, -1j], [-1j, 1]], dtype=complex) * _SQ2,
}


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of a factory channel.

    `kind` picks the factory, `theta` is its angle parameter, and
    `env_amplitudes` (required only for depolarizing_general) holds the
    normalized 4-vector of environment amplitudes.
    """

    kind: str
    theta: float = 0.0
    env_amplitudes: tuple | None = None

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        _check_bounded_theta(self.kind, self.theta)
        if self.kind == "depolarizing_general":
            if self.env_amplitudes is None:
                raise ValueError("depolarizing_general requires four environment amplitudes")
            object.__setattr__(self, "env_amplitudes", _normalized_env(self.env_amplitudes))
        elif self.env_amplitudes is not None:
            raise ValueError(f"{self.kind} does not take environment amplitudes")


def make_rotation(axis: str, theta: float) -> KrausChannel:
    """Unitary rotation channel about the x, y or z axis.

    The single operator is the half-angle rotation matrix chosen so the
    induced Bloch-coordinate change is, for angle t:

        x-axis: Y' = cos(t) Y - sin(t) Z,  Z' = sin(t) Y + cos(t) Z
        y-axis: X' = cos(t) X - sin(t) Z,  Z' = sin(t) X + cos(t) Z
        z-axis: X' = cos(t) X - sin(t) Y,  Y' = sin(t) X + cos(t) Y
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if axis == "x":
        op = np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    elif axis == "y":
        # Transposed relative to the usual exp(-i theta sigma_y / 2) so the
        # coordinate action above holds with the same sign pattern as x/z.
        op = np.array([[c, s], [-s, c]], dtype=complex)
    elif axis == "z":
        op = np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
    else:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return KrausChannel((op,), name=f"rotation_{axis}")


def make_deformation(kind: str, theta: float) -> KrausChannel:
    """Bit-flip / bit-phase-flip / phase-flip deformation channel.

    Operators: F_1 = |cos(theta/2)| 1, F_2 = |sin(theta/2)| sigma_a with
    sigma_a = x, y, z respectively.  Equivalently the channel obtained by
    coupling to an ancilla in cos(theta/2)|0> + sin(theta/2)|1> through a
    controlled-sigma_a gate and discarding the ancilla.
    """
    if kind not in _DEFORMATION_AXES:
        raise ValueError(f"unknown deformation kind {kind!r}")
    _check_bounded_theta(kind, theta)
    c = abs(math.cos(theta / 2.0))
    s = abs(math.sin(theta / 2.0))
    ops = prune_operators([c * I2, s * _DEFORMATION_AXES[kind]])
    return KrausChannel(tuple(ops), name=kind)


def make_amp_damp(axis: str, sign: str, theta: float) -> KrausChannel:
    """Amplitude-damping channel contracting toward one pole of an axis.

    The z/plus channel (pole |0><0|) has operators

        F_0 = [[1, 0], [0, cos(theta/2)]],  F_1 = [[0, sin(theta/2)], [0, 0]]

    and z/minus (pole |1><1|) the mirrored pair

        F_0 = [[cos(theta/2), 0], [0, 1]],  F_1 = [[0, 0], [sin(theta/2), 0]].

    The x and y variants conjugate the z/plus operators with the basis
    change U that maps |0> to the requested pole: F -> U F U^dagger.
    """
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    name = f"amp_damp_{axis}_{sign}"
    _check_bounded_theta(name, theta)
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    if axis == "z" and sign == "plus":
        ops = [np.array([[1, 0], [0, c]], dtype=complex),
               np.array([[0, s], [0, 0]], dtype=complex)]
    elif axis == "z" and sign == "minus":
        ops = [np.array([[c, 0], [0, 1]], dtype=complex),
               np.array([[0, 0], [s, 0]], dtype=complex)]
    else:
        frame = _POLE_FRAMES[(axis, sign)]
        base = make_amp_damp("z", "plus", theta).operators
        ops = [frame @ op @ frame.conj().T for op in base]
    return KrausChannel(tuple(prune_operators(ops)), name=name)


def make_depolarizing_general(env_amplitudes) -> KrausChannel:
    """Depolarizing channel driven by a two-qubit environment state.

    The environment alpha|00> + beta|01> + gamma|10> + delta|11> selects,
    per basis state, which Pauli acts on the system.  After discarding the
    environment only the moduli survive:

        operators = {|alpha| 1, |beta| sigma_x, |gamma| sigma_y, |delta| sigma_z}

    Environment phases are accepted and ignored.  Zero-weight operators
    are pruned.
    """
    weights = [abs(a) for a in _normalized_env(env_amplitudes)]
    ops = prune_operators([
        weights[0] * I2,
        weights[1] * SIGMA_X,
        weights[2] * SIGMA_Y,
        weights[3] * SIGMA_Z,
    ])
    return KrausChannel(tuple(ops), name="depolarizing_general")


def make_depolarizing_standard(theta: float) -> KrausChannel:
    """Symmetric depolarizing channel.

    Operators cos(theta) 1 and (sin(theta)/sqrt(3)) sigma_{x,y,z}; every
    Bloch component shrinks by 1 - (4/3) sin(theta)^2, so theta <= pi/2
    already covers all distinct actions (larger angles retrace them).
    """
    _check_bounded_theta("depolarizing_standard", theta)
    c = math.cos(theta)
    s = math.sin(theta) / math.sqrt(3.0)
    ops = prune_operators([c * I2, s * SIGMA_X, s * SIGMA_Y, s * SIGMA_Z])
    return KrausChannel(tuple(ops), name="depolarizing_standard")


def _check_bounded_theta(kind: str, theta: float):
    """Require a finite theta, and theta in [0, pi] for the bounded kinds."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if kind in _BOUNDED_THETA_KINDS and not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"{kind} requires theta in [0, pi], got {theta!r}")


def _normalized_env(env_amplitudes) -> tuple:
    """Four environment amplitudes as complex numbers; raises unless their norm is 1."""
    amps = tuple(complex(a) for a in env_amplitudes)
    if len(amps) != 4:
        raise ValueError(f"expected 4 environment amplitudes, got {len(amps)}")
    # hypot scales internally, so huge amplitudes give a finite norm that fails below.
    norm = math.hypot(*(part for a in amps for part in (a.real, a.imag)))
    if not abs(norm - 1.0) <= 1e-12:  # also rejects NaN
        raise ValueError(f"environment amplitudes are not normalized: |v| = {norm!r}")
    return amps


def channel_from_spec(spec: ChannelSpec) -> KrausChannel:
    """Instantiate the channel described by a ChannelSpec."""
    kind = spec.kind
    if kind in ROTATION_KINDS:
        return make_rotation(kind[-1], spec.theta)
    if kind in DEFORMATION_KINDS:
        return make_deformation(kind, spec.theta)
    if kind in AMP_DAMP_KINDS:
        _, _, axis, sign = kind.split("_")
        return make_amp_damp(axis, sign, spec.theta)
    if kind == "depolarizing_general":
        return make_depolarizing_general(spec.env_amplitudes)
    if kind == "depolarizing_standard":
        return make_depolarizing_standard(spec.theta)
    raise ValueError(f"unknown channel kind {kind!r}")


def parse_channel_spec(text: str) -> ChannelSpec:
    """Parse the one-line form "kind:theta[:a,b,c,d]".

    theta accepts decimals or pi-fractions ("pi/4").  The amplitude list is
    required for depolarizing_general (complex literals allowed) and must be
    absent otherwise.  For depolarizing_general the theta field is ignored
    but must still parse; write e.g. "depolarizing_general:0:0.5,0.5,0.5,0.5".
    """
    parts = str(text).strip().split(":")
    if len(parts) < 2 or len(parts) > 3:
        raise FormatError(
            f"channel spec {text!r} must look like kind:theta or kind:theta:a,b,c,d"
        )
    kind = parts[0].strip()
    if kind not in CHANNEL_KINDS:
        raise FormatError(f"unknown channel kind {kind!r}")
    theta = parse_number(parts[1])
    amps = None
    if len(parts) == 3:
        items = [p for p in parts[2].split(",")]
        amps = tuple(parse_complex(p) for p in items)
    try:
        return ChannelSpec(kind, theta, amps)
    except ValueError as exc:
        raise FormatError(f"invalid channel spec {text!r}: {exc}") from None


def format_channel_spec(spec: ChannelSpec) -> str:
    """Inverse of parse_channel_spec (decimal thetas, 17 significant digits)."""
    base = f"{spec.kind}:{spec.theta:.17g}"
    if spec.env_amplitudes is None:
        return base
    parts = []
    for a in spec.env_amplitudes:
        if a.imag == 0.0:
            parts.append(f"{a.real:.17g}")
        else:
            parts.append(f"{a.real:.17g}{a.imag:+.17g}j")
    return base + ":" + ",".join(parts)
