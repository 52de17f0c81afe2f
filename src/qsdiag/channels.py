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

# Pauli index of the flip each deformation channel applies.
_DEFORMATION_AXES = {"bit_flip": 1, "bit_phase_flip": 2, "phase_flip": 3}
_PAULIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)

# Basis-change unitaries that carry |0> onto each pole; conjugating the
# z/plus damping operators with these produces all six damping channels.
_SQ2 = 1.0 / math.sqrt(2.0)
_POLE_FRAMES = {
    ("x", "plus"): np.array([[1, -1], [1, 1]], dtype=complex) * _SQ2,
    ("x", "minus"): np.array([[1, 1], [-1, 1]], dtype=complex) * _SQ2,
    ("y", "plus"): np.array([[1, 1j], [1j, 1]], dtype=complex) * _SQ2,
    ("y", "minus"): np.array([[1, -1j], [-1j, 1]], dtype=complex) * _SQ2,
    ("z", "plus"): I2,
    ("z", "minus"): SIGMA_X,
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
        if self.kind not in _KINDS:
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
        raise FormatError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return KrausChannel((op,), name=f"rotation_{axis}")


def make_deformation(kind: str, theta: float) -> KrausChannel:
    """Bit-flip / bit-phase-flip / phase-flip deformation channel.

    Operators: F_1 = |cos(theta/2)| 1, F_2 = |sin(theta/2)| sigma_a with
    sigma_a = x, y, z respectively.  Equivalently the channel obtained by
    coupling to an ancilla in cos(theta/2)|0> + sin(theta/2)|1> through a
    controlled-sigma_a gate and discarding the ancilla.
    """
    if kind not in _DEFORMATION_AXES:
        raise FormatError(f"unknown deformation kind {kind!r}")
    _check_bounded_theta(kind, theta)
    weights = [abs(math.cos(theta / 2.0)), 0.0, 0.0, 0.0]
    weights[_DEFORMATION_AXES[kind]] = abs(math.sin(theta / 2.0))
    return _pauli_channel(kind, weights)


def make_amp_damp(axis: str, sign: str, theta: float) -> KrausChannel:
    """Amplitude-damping channel contracting toward one pole of an axis.

    The z/plus channel (pole |0><0|) has operators

        F_0 = [[1, 0], [0, cos(theta/2)]],  F_1 = [[0, sin(theta/2)], [0, 0]].

    Every pole conjugates this pair with the basis change U that maps |0>
    to it, F -> U F U^dagger: U is 1 for z/plus, sigma_x for z/minus, and a
    Hadamard-like frame for the x and y poles.
    """
    if (axis, sign) not in _POLE_FRAMES:
        raise FormatError(f"no pole {axis!r}/{sign!r}: axis is x, y or z, sign plus or minus")
    name = f"amp_damp_{axis}_{sign}"
    _check_bounded_theta(name, theta)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    frame = _POLE_FRAMES[(axis, sign)]
    ops = [frame @ np.array(op, dtype=complex) @ frame.conj().T
           for op in ([[1, 0], [0, c]], [[0, s], [0, 0]])]
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
    return _pauli_channel("depolarizing_general",
                          [abs(a) for a in _normalized_env(env_amplitudes)])


def make_depolarizing_standard(theta: float) -> KrausChannel:
    """Symmetric depolarizing channel.

    Operators cos(theta) 1 and (sin(theta)/sqrt(3)) sigma_{x,y,z}; every
    Bloch component shrinks by 1 - (4/3) sin(theta)^2, so theta <= pi/2
    already covers all distinct actions; theta up to pi is accepted and
    retraces them.
    """
    _check_bounded_theta("depolarizing_standard", theta)
    s = math.sin(theta) / math.sqrt(3.0)
    return _pauli_channel("depolarizing_standard", [math.cos(theta), s, s, s])


def _pauli_channel(name: str, weights) -> KrausChannel:
    """The operators w0 1, w1 sigma_x, w2 sigma_y, w3 sigma_z, vanishing ones pruned."""
    ops = prune_operators([w * pauli for w, pauli in zip(weights, _PAULIS)])
    return KrausChannel(tuple(ops), name=name)


# kind -> (factory from a ChannelSpec, whether theta is restricted to [0, pi]).
# Kinds with cos(theta/2) / sin(theta/2) weights cover every distinct action
# in [0, pi]; rotations take any finite angle; depolarizing_general ignores it.
_KINDS = {
    **{f"rotation_{a}": (lambda spec, a=a: make_rotation(a, spec.theta), False) for a in "xyz"},
    **{k: (lambda spec, k=k: make_deformation(k, spec.theta), True) for k in _DEFORMATION_AXES},
    **{f"amp_damp_{a}_{s}": (lambda spec, a=a, s=s: make_amp_damp(a, s, spec.theta), True)
       for a, s in _POLE_FRAMES},
    "depolarizing_general": (lambda spec: make_depolarizing_general(spec.env_amplitudes), False),
    "depolarizing_standard": (lambda spec: make_depolarizing_standard(spec.theta), True),
}
CHANNEL_KINDS = frozenset(_KINDS)


def _check_bounded_theta(kind: str, theta: float):
    """Require a finite theta, and theta in [0, pi] for the bounded kinds."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if _KINDS[kind][1] and not 0.0 <= theta <= math.pi + 1e-12:
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
    return _KINDS[spec.kind][0](spec)


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
    theta = parse_number(parts[1])
    amps = None
    if len(parts) == 3:
        items = [p for p in parts[2].split(",")]
        amps = tuple(parse_complex(p) for p in items)
    try:
        return ChannelSpec(kind, theta, amps)
    except ValueError as exc:
        raise FormatError(f"invalid channel spec {text!r}: {exc}") from None

