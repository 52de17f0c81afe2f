"""Closed-form purification of a single-qubit mixed state.

Any single-qubit density matrix rho is the reduced state of a pure
two-qubit state |Psi> = sum_{i,a} C_{ia} |i>|a|, with the system qubit on
the most significant position and the ancilla on the least significant.
Choosing the gauge C_01 = 0 with C_00, C_11 real and non-negative gives
the unique coefficient triangle

    C_00 = sqrt(rho_00)
    C_10 = conj(rho_01) / sqrt(rho_00)
    C_11 = sqrt((rho_00 rho_11 - |rho_01|^2) / rho_00)

(indices 0-based).  Tracing the ancilla back out reproduces rho exactly.
The same data converts to two rotation angles plus one phase, which a
four-gate circuit synthesizes from |00>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, FormatError, PureState, basis_state
from .diagram import Circuit, build_gate

# Below this weight on |0><0| the closed form divides by ~0; the state is
# then |1><1| up to rounding and the degenerate branch purifies exactly.
_DEGENERATE_EPS = 1e-300


@dataclass(frozen=True)
class PurificationResult:
    """Coefficients, angles and the purified two-qubit state.

    theta1 drives the system qubit's rotation, theta2 the ancilla's
    controlled rotation, and phi is the phase carried by the |10>
    amplitude; all three live in [-pi, pi] with the thetas in [0, pi/2].
    After the two rotations the state is
    [cos(theta1), 0, cos(theta2) sin(theta1), sin(theta2) sin(theta1)],
    and phi is the phase the |10> amplitude still needs.  When a rotation
    is immaterial (e.g. rho = |0><0| leaves theta2 unconstrained) the
    angle is reported as 0.
    """

    state: PureState
    c00: complex
    c01: complex
    c10: complex
    c11: complex
    theta1: float
    theta2: float
    phi: float


def purify_single_qubit(rho: DensityMatrix) -> PurificationResult:
    """Lift a single-qubit density matrix to a pure two-qubit state.

    The returned state is exactly rank one and satisfies: tracing out the
    least significant (ancilla) qubit reproduces `rho`.
    """
    if rho.n_qubits != 1:
        raise FormatError("purification is defined for single-qubit states")
    m = rho.matrix
    p00 = float(m[0, 0].real)
    p11 = float(m[1, 1].real)
    coh = complex(m[0, 1])
    if p00 > _DEGENERATE_EPS:
        root = math.sqrt(p00)
        c00 = complex(root)
        c10 = coh.conjugate() / root
        radicand = (p00 * p11 - abs(coh) ** 2) / p00
        c11 = complex(math.sqrt(max(radicand, 0.0)))
    else:
        # rho is |1><1| up to rounding: purify the surviving 1x1 block.
        c00 = complex(0.0)
        c10 = complex(0.0)
        c11 = complex(math.sqrt(max(p11, 0.0)))
    c01 = complex(0.0)
    amps = np.array([c00, c01, c10, c11], dtype=complex)
    norm = float(np.linalg.norm(amps))
    amps = amps / norm
    theta1, theta2, phi = _angles_from_coefficients(amps[0], amps[2], amps[3])
    return PurificationResult(
        PureState(amps), amps[0], amps[1], amps[2], amps[3], theta1, theta2, phi
    )


def _angles_from_coefficients(c00: complex, c10: complex, c11: complex) -> tuple:
    # atan2 of the two branch norms equals acos(|c00|) on normalized
    # coefficients but stays fully accurate when |c00| -> 1, where acos
    # would amplify a 1-ulp argument error into ~1e-4 of relative error
    # in a tiny theta1.
    theta1 = math.atan2(math.hypot(abs(c10), abs(c11)), abs(c00))
    theta2 = math.atan2(abs(c11), abs(c10))
    phi = cmath.phase(c10) if abs(c10) > 1e-15 else 0.0
    if phi == 0.0:
        phi = 0.0  # normalize -0.0
    return theta1, theta2, phi


def synthesize_purification_circuit(rho: DensityMatrix) -> Circuit:
    """Two-qubit circuit preparing the purification from |00>.

    Layout: ry(2*theta1) on the system qubit, a controlled ry(2*theta2)
    on the ancilla, then a phase pair — phase(phi) on the system followed
    by a controlled phase(-phi) — whose product multiplies only the |10>
    amplitude by e^{i phi}.  Simulating the circuit reproduces
    `purify_single_qubit(rho).state` exactly (not just up to phase).
    """
    res = purify_single_qubit(rho)
    phi = res.phi
    gates = (
        build_gate("ry", (2.0 * res.theta1,), (1,), 2),
        build_gate("cry", (2.0 * res.theta2,), (1, 0), 2),
        build_gate("phase", (phi,), (1,), 2),
        build_gate("cphase", (-phi if phi != 0.0 else 0.0,), (1, 0), 2),
    )
    return Circuit(gates, basis_state(2, 0))
